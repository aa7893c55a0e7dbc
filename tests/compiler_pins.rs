//! Pins of the compiler's exact output.
//!
//! `code_instrs_protected` and the Figure 10 geomean only see instruction
//! counts and cycle totals, so a change that reorders a schedule or renames
//! registers without moving a cycle passes both. This test pins, for every
//! suite kernel at every scale and for a fixed set of generated Wile
//! programs, one 64-bit FNV-1a fingerprint over everything `compile`
//! returns that later layers consume:
//!
//! * the printed protected and baseline programs (instructions, registers,
//!   labels and the synthesized preconditions);
//! * the `Debug` text of the three timing views (ordered protected,
//!   unordered protected, baseline);
//! * both variants' block start addresses.
//!
//! A mismatch lists every input whose fingerprint moved with its new
//! value. Update a literal only for a change that is meant to alter the
//! compiler's output, and say why in the change's description.

use talft::compiler::{compile, CompileOptions, Compiled};
use talft::isa::print_program;
use talft::suite::{kernels, Scale};
use talft_testutil::wile::{random_stmts, render_program};
use talft_testutil::SplitMix64;

mod common;
use common::Fnv;

/// Seed of the generated programs.
const WILE_SEED: u64 = 0x9135_F00D;
/// How many generated programs are pinned.
const WILE_PROGRAMS: usize = 40;

fn fingerprint(c: &Compiled) -> u64 {
    let mut h = Fnv::new();
    h.part(
        "protected",
        &print_program(&c.protected.program, &c.protected.arena),
    );
    h.part(
        "baseline",
        &print_program(&c.baseline.program, &c.baseline.arena),
    );
    h.part("sched", &format!("{:?}", c.protected.sched));
    h.part("unordered", &format!("{:?}", c.protected_unordered_sched));
    h.part("baseline_sched", &format!("{:?}", c.baseline.sched));
    h.part("addrs", &format!("{:?}", c.protected.block_addrs));
    h.part("baseline_addrs", &format!("{:?}", c.baseline.block_addrs));
    h.0
}

/// Every pinned input, in table order: each suite kernel at Tiny, Small
/// and Full, then the generated programs.
fn inputs() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for scale in [Scale::Tiny, Scale::Small, Scale::Full] {
        for k in kernels(scale) {
            out.push((format!("{}@{scale:?}", k.name), k.source));
        }
    }
    let mut rng = SplitMix64::new(WILE_SEED);
    for i in 0..WILE_PROGRAMS {
        let stmts = random_stmts(&mut rng, 3, 4, 12);
        out.push((format!("wile{i}"), render_program(&stmts)));
    }
    out
}

#[test]
fn compiler_output_is_pinned() {
    let inputs = inputs();
    assert_eq!(inputs.len(), PINS.len(), "one pin per input");
    let opts = CompileOptions::default();
    let mut moved = Vec::new();
    for ((name, src), &(pin_name, pin)) in inputs.iter().zip(PINS) {
        assert_eq!(name, pin_name, "pin table order");
        let c = compile(src, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        let got = fingerprint(&c);
        if got != pin {
            moved.push(format!("    (\"{name}\", {got:#018x}),"));
        }
    }
    assert!(
        moved.is_empty(),
        "compiler output changed for {} of {} inputs:\n{}",
        moved.len(),
        inputs.len(),
        moved.join("\n")
    );
}

/// Fingerprints, in [`inputs`] order.
const PINS: &[(&str, u64)] = &[
    ("spec_gzip@Tiny", 0xd922431224fe4388),
    ("spec_vpr@Tiny", 0xf5732a9404e68a9d),
    ("spec_mcf@Tiny", 0xd06650d24af89316),
    ("spec_crafty@Tiny", 0xcef531eb89fa17c6),
    ("spec_parser@Tiny", 0xa62bc5b586c079c6),
    ("spec_bzip2@Tiny", 0x25c50a6f5ef44715),
    ("spec_twolf@Tiny", 0x96bc83a2041289b7),
    ("mb_adpcm@Tiny", 0xed29679ee7d9d31c),
    ("mb_epic@Tiny", 0x47e2c4f4647cb35e),
    ("mb_g721@Tiny", 0x19b377c0ca6ad1b0),
    ("mb_gsm@Tiny", 0x8b52973b5e894dc1),
    ("mb_jpeg@Tiny", 0x6f895052b6ec1ace),
    ("mb_mpeg2@Tiny", 0x3e9ae1f8cef68694),
    ("mb_pegwit@Tiny", 0xa4dc70013db1bff2),
    ("spec_gap@Tiny", 0x82a951092184f112),
    ("spec_vortex@Tiny", 0xada46e5c5f567a67),
    ("mb_mesa@Tiny", 0x7a992ef3a34d024f),
    ("mb_rasta@Tiny", 0x6a0058d372b4913b),
    ("spec_gzip@Small", 0xd442816a9ba18066),
    ("spec_vpr@Small", 0xda0d926bf0a2febd),
    ("spec_mcf@Small", 0x5ced352c6f470334),
    ("spec_crafty@Small", 0xe5bdebabb5735b26),
    ("spec_parser@Small", 0x82c5f0c6e70edb2d),
    ("spec_bzip2@Small", 0x5aa0bd370388ab85),
    ("spec_twolf@Small", 0x512980be123d7c40),
    ("mb_adpcm@Small", 0xec903f01c2b607c0),
    ("mb_epic@Small", 0xd3fb49a9ede88409),
    ("mb_g721@Small", 0x5916dae4509719c2),
    ("mb_gsm@Small", 0xf87c2b7f2cf9c3f6),
    ("mb_jpeg@Small", 0x1147413969f9bdad),
    ("mb_mpeg2@Small", 0x5e04c299d29f6c93),
    ("mb_pegwit@Small", 0x4cd11ffa03539c04),
    ("spec_gap@Small", 0xf0ae25e50bd3fc53),
    ("spec_vortex@Small", 0x5f98edc499c188f2),
    ("mb_mesa@Small", 0x63e11e0d15e4198c),
    ("mb_rasta@Small", 0xb3b75ebc1c70cd9c),
    ("spec_gzip@Full", 0x92333a150aa17fbc),
    ("spec_vpr@Full", 0x14925f7929d6d3f5),
    ("spec_mcf@Full", 0x2380ae3b7c4ed511),
    ("spec_crafty@Full", 0xda997bb1d7c2c1d8),
    ("spec_parser@Full", 0x7428cf287be32be5),
    ("spec_bzip2@Full", 0x880997cd5035863a),
    ("spec_twolf@Full", 0x9e3953b93fdd201b),
    ("mb_adpcm@Full", 0xcc86be23eb6409a3),
    ("mb_epic@Full", 0x1d989329bc3da3b2),
    ("mb_g721@Full", 0xd36ff5503106d4c3),
    ("mb_gsm@Full", 0x0dfc2159733b1a3d),
    ("mb_jpeg@Full", 0x65cd320e4e8eeaa0),
    ("mb_mpeg2@Full", 0x8ccf394cca36486d),
    ("mb_pegwit@Full", 0x3cd5d2b0db7a9eb5),
    ("spec_gap@Full", 0x64d0b00194e1152f),
    ("spec_vortex@Full", 0xe15eb7caaad296a0),
    ("mb_mesa@Full", 0xfa8fd2c7ae2ffbf2),
    ("mb_rasta@Full", 0x74d532c4fed5712b),
    ("wile0", 0xafc33b230eaa4f2a),
    ("wile1", 0x8507b619f8826523),
    ("wile2", 0xc4b645654c8df2c2),
    ("wile3", 0x9a1a8602d41cd086),
    ("wile4", 0xab1bd833362acc03),
    ("wile5", 0x984c73394cf7f6c6),
    ("wile6", 0xf4a28876741be7e6),
    ("wile7", 0x83ee7f61cd109dff),
    ("wile8", 0x773a10fdb27a4896),
    ("wile9", 0x31447c37d33ec567),
    ("wile10", 0x73045c75dd4e3e53),
    ("wile11", 0x1ca862763762b5f3),
    ("wile12", 0x6b92db2682b4ad39),
    ("wile13", 0x0bd107f5d04765de),
    ("wile14", 0xdabad403e5abe1b9),
    ("wile15", 0x82a67d2cf83824c7),
    ("wile16", 0x9b405af0a4c6c0c0),
    ("wile17", 0xa27ec3cc4e1403e6),
    ("wile18", 0x2ecbc1e96cced116),
    ("wile19", 0xe78e047688faf22d),
    ("wile20", 0xff0f7d2a6bd12e2c),
    ("wile21", 0x726c551d1dd4b009),
    ("wile22", 0x5855631f74b07bde),
    ("wile23", 0x64f41c0f8ac21d4e),
    ("wile24", 0x066a4e4625711c57),
    ("wile25", 0x4e2fcd10ec6b53b4),
    ("wile26", 0x05483f6b1c53c4a1),
    ("wile27", 0x457c182406122304),
    ("wile28", 0x827a12e5eea71f44),
    ("wile29", 0xfe6e049dd4bb62d8),
    ("wile30", 0xd8abd84df17f26ed),
    ("wile31", 0x46e73172d1b9cebe),
    ("wile32", 0xe143dfa9b490d448),
    ("wile33", 0x4d794f098c1b9956),
    ("wile34", 0x1a68b66c6f848beb),
    ("wile35", 0xc27c461cbd83c210),
    ("wile36", 0x5f34c64af50acd5f),
    ("wile37", 0x788e8bc5c8a38496),
    ("wile38", 0xe5d383d77907208f),
    ("wile39", 0x4657d03468c0917a),
];
