//! Pins of the checker's results over the E14 mutant catalog.
//!
//! `block_memo_prop` compares the checker with the accepted-block memo on
//! and off inside one build, so a verdict or diagnostic that changes the
//! same way on both paths passes it. This test pins, for every Tiny suite
//! kernel, one 64-bit FNV-1a fingerprint over the `Debug` text of
//! `check_program` on the kernel and then on each of its `all_mutants`
//! mutants, in catalog order, all on the kernel's one arena: the order the
//! mutation oracle and the benchmark check them in, so the memo answers as
//! it does there.
//!
//! A mismatch lists every kernel whose fingerprint moved with its new
//! value. Update a literal only for a change that is meant to alter the
//! catalog or a check result (the deletion mutants' pc singletons, say),
//! and say why in the change's description.

use talft::compiler::{compile, CompileOptions};
use talft::core::check_program;
use talft::oracle::all_mutants;
use talft::suite::{kernels, Scale};

mod common;
use common::Fnv;

fn fingerprint(src: &str) -> u64 {
    let mut a = compile(src, &CompileOptions::default())
        .expect("kernel compiles")
        .protected;
    let mut h = Fnv::new();
    let checked = check_program(&a.program, &mut a.arena);
    h.part("kernel", &format!("{checked:?}"));
    for m in all_mutants(&a.program, &mut a.arena) {
        let checked = check_program(&m.program, &mut a.arena);
        h.part(m.op.name(), &format!("{checked:?}"));
    }
    h.0
}

#[test]
fn catalog_check_results_are_pinned() {
    let kernels = kernels(Scale::Tiny);
    assert_eq!(kernels.len(), PINS.len(), "one pin per kernel");
    let mut moved = Vec::new();
    for (k, &(pin_name, pin)) in kernels.iter().zip(PINS) {
        assert_eq!(k.name, pin_name, "pin table order");
        let got = fingerprint(&k.source);
        if got != pin {
            moved.push(format!("    (\"{}\", {got:#018x}),", k.name));
        }
    }
    assert!(
        moved.is_empty(),
        "check results changed for {} of {} kernels:\n{}",
        moved.len(),
        kernels.len(),
        moved.join("\n")
    );
}

/// Fingerprints, in suite order.
const PINS: &[(&str, u64)] = &[
    ("spec_gzip", 0xd046eaa95a6b758b),
    ("spec_vpr", 0xa0f2c6269e700fee),
    ("spec_mcf", 0xc1b8428f8e803d15),
    ("spec_crafty", 0xfcc92601bef388ca),
    ("spec_parser", 0xa0fc6b955dd24b43),
    ("spec_bzip2", 0xfd39e1ff89e84f72),
    ("spec_twolf", 0x97216494e0b25f20),
    ("mb_adpcm", 0xabcdab6ace1dd90a),
    ("mb_epic", 0xc2dd3a5cae647fde),
    ("mb_g721", 0x81323ffbbb7903c4),
    ("mb_gsm", 0x9471650d410b9ecb),
    ("mb_jpeg", 0x4d55b0974efd5efe),
    ("mb_mpeg2", 0x939d231d64266278),
    ("mb_pegwit", 0x6dd3f56ed2f828ab),
    ("spec_gap", 0x50292d7f68016193),
    ("spec_vortex", 0x89c01fd464f8f17d),
    ("mb_mesa", 0x55bb617526775d1d),
    ("mb_rasta", 0xa27af5579a82be32),
];
