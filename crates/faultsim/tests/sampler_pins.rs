//! Pins the `k ≥ 2` sampler's output across its edge configurations.
//!
//! [`multi_fault_plans`] is a deterministic function of the program, the
//! seed and the config, and checkpoint and shard-report files name their
//! grid by [`grid_fingerprint`]. A rewrite of the sampler's walk must keep
//! every RNG draw in place, so each literal below was computed by the
//! build before the walk read the register file once per step. The matrix
//! covers two Tiny kernels, protected and baseline, `k ∈ {2, 3}`, two
//! seeds, a `.gprs 200` program, and `pair_window` at 0 (treated as 1),
//! 1, the default 24 and the whole run. `pair_window = u64::MAX` must give
//! the same plans as the whole run.

use std::sync::Arc;

use talft_compiler::{compile, CompileOptions};
use talft_faultsim::{golden_run, grid_fingerprint, multi_fault_plans, CampaignConfig};
use talft_isa::{assemble, Program};
use talft_suite::{kernels, Scale};

/// A countdown loop whose green and blue copies live in high registers of
/// a 200-register file, so the window holds registers far past the
/// analyzers' 128-register mask.
const WIDE: &str = r#"
.gprs 200
.data
region out at 4096 len 8 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r101, G 12
  mov r102, B 12
  mov r150, G 3
  mov r151, B 3
loop:
  .pre { forall x:int, m:mem; r101: (G, int, x); r102: (B, int, x); mem: m; }
  and r195, r101, G 7
  add r195, r195, G 4096
  and r196, r102, B 7
  add r196, r196, B 4096
  add r150, r150, G 1
  add r151, r151, B 1
  stG r195, r101
  stB r196, r102
  sub r101, r101, G 1
  sub r102, r102, B 1
  mov r103, G @done
  mov r104, B @done
  bzG r101, r103
  bzB r102, r104
  mov r197, G @loop
  mov r198, B @loop
  jmpG r197
  jmpB r198
done:
  .pre { forall m:mem; mem: m; }
  halt
"#;

const SEEDS: [u64; 2] = [0x7A1F_F00D, 11];

/// One row of the matrix: program, fault order and seed, then
/// `(plans, fingerprint)` at `pair_window` 0, 1, 24 and `golden.steps`.
type Pin = (&'static str, u32, u64, Row);
type Row = [(usize, u64); 4];

#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("spec_gzip/protected", 2, 0x7a1ff00d, [(272, 0x615dd5a5070682c6), (272, 0x615dd5a5070682c6), (272, 0xbb3aeda11605968e), (272, 0xf262b0b1cb1f7e25)]),
    ("spec_gzip/protected", 2, 0xb, [(272, 0x2fb3c7590067c971), (272, 0x2fb3c7590067c971), (272, 0x32335846047724b9), (272, 0x0c09d37d287f1641)]),
    ("spec_gzip/protected", 3, 0x7a1ff00d, [(272, 0x8bffdcb2ee0ec559), (272, 0x8bffdcb2ee0ec559), (272, 0xee91e16a2193e619), (272, 0x092f22f38ff1ad80)]),
    ("spec_gzip/protected", 3, 0xb, [(272, 0x342103c4670fb6fa), (272, 0x342103c4670fb6fa), (272, 0xc61249ad54aeaebf), (272, 0x50af3854c1f86bc0)]),
    ("spec_gzip/baseline", 2, 0x7a1ff00d, [(273, 0x278855f53d07fb6d), (273, 0x278855f53d07fb6d), (273, 0x278855f53d07fb6d), (273, 0x278855f53d07fb6d)]),
    ("spec_gzip/baseline", 2, 0xb, [(273, 0x8681f6253c0cdd49), (273, 0x8681f6253c0cdd49), (273, 0x8681f6253c0cdd49), (273, 0x8681f6253c0cdd49)]),
    ("spec_gzip/baseline", 3, 0x7a1ff00d, [(273, 0x8307c324f58038b5), (273, 0x8307c324f58038b5), (273, 0x8307c324f58038b5), (273, 0x8307c324f58038b5)]),
    ("spec_gzip/baseline", 3, 0xb, [(273, 0x41717b47b64327dd), (273, 0x41717b47b64327dd), (273, 0x41717b47b64327dd), (273, 0x41717b47b64327dd)]),
    ("spec_vpr/protected", 2, 0x7a1ff00d, [(272, 0xc924448ff5673eec), (272, 0xc924448ff5673eec), (272, 0x9bc54f493846833e), (272, 0xa07f1af4283c0db9)]),
    ("spec_vpr/protected", 2, 0xb, [(272, 0x936c13b7a27f5c59), (272, 0x936c13b7a27f5c59), (272, 0x9b822ef3b98be823), (272, 0x194abd470459b1e8)]),
    ("spec_vpr/protected", 3, 0x7a1ff00d, [(272, 0xb8c21130409a1063), (272, 0xb8c21130409a1063), (272, 0x9ff42ac3ed9d7a34), (272, 0x3da40cdfd62151b5)]),
    ("spec_vpr/protected", 3, 0xb, [(272, 0x230e2e441ad836fe), (272, 0x230e2e441ad836fe), (272, 0x920d4437b458d175), (272, 0x54f531cf4433c584)]),
    ("spec_vpr/baseline", 2, 0x7a1ff00d, [(273, 0x7e2f49bb5d2d2e09), (273, 0x7e2f49bb5d2d2e09), (273, 0x7e2f49bb5d2d2e09), (273, 0x7e2f49bb5d2d2e09)]),
    ("spec_vpr/baseline", 2, 0xb, [(273, 0x99d839c23f50a2fb), (273, 0x99d839c23f50a2fb), (273, 0x99d839c23f50a2fb), (273, 0x99d839c23f50a2fb)]),
    ("spec_vpr/baseline", 3, 0x7a1ff00d, [(273, 0x3fdc66217266da9d), (273, 0x3fdc66217266da9d), (273, 0x3fdc66217266da9d), (273, 0x3fdc66217266da9d)]),
    ("spec_vpr/baseline", 3, 0xb, [(273, 0x51c6eef14f4721f5), (273, 0x51c6eef14f4721f5), (273, 0x51c6eef14f4721f5), (273, 0x51c6eef14f4721f5)]),
    ("wide200", 2, 0x7a1ff00d, [(272, 0x22e8e28970e5646e), (272, 0x22e8e28970e5646e), (272, 0xd7f46054b866e2c7), (272, 0x6dba4b04c0e4ae6d)]),
    ("wide200", 2, 0xb, [(272, 0x42d69d355d9b9e34), (272, 0x42d69d355d9b9e34), (272, 0x4a6895eda6d2003e), (272, 0x726d4a02edc7e206)]),
    ("wide200", 3, 0x7a1ff00d, [(272, 0x0f19dd837e599b7a), (272, 0x0f19dd837e599b7a), (272, 0x0890912e975f6e95), (272, 0x7776f7f715bb5d1a)]),
    ("wide200", 3, 0xb, [(272, 0xe30e80e2f5520403), (272, 0xe30e80e2f5520403), (272, 0x533729efd0e8d71d), (272, 0x326d95cb94a76d08)]),
];

fn programs() -> Vec<(String, Arc<Program>)> {
    let mut out = Vec::new();
    for k in kernels(Scale::Tiny).into_iter().take(2) {
        let c = compile(&k.source, &CompileOptions::default()).expect("compiles");
        out.push((format!("{}/protected", k.name), c.protected.program));
        out.push((format!("{}/baseline", k.name), c.baseline.program));
    }
    let wide = assemble(WIDE).expect("assembles").program;
    assert_eq!(wide.num_gprs, 200);
    out.push(("wide200".to_string(), Arc::new(wide)));
    out
}

#[test]
fn sampler_output_is_pinned_across_edge_configurations() {
    let mut actual: Vec<(String, u32, u64, Row)> = Vec::new();
    for (name, p) in programs() {
        let base = CampaignConfig {
            pair_samples: 256,
            threads: 1,
            ..CampaignConfig::default()
        };
        let golden = golden_run(&p, &base).expect("golden halts");
        assert!(golden.steps > 24, "{name}: run shorter than the window");
        for k in [2u32, 3] {
            for seed in SEEDS {
                let sample = |pair_window: u64| {
                    let cfg = CampaignConfig {
                        seed,
                        pair_window,
                        ..base.clone()
                    };
                    multi_fault_plans(&p, &cfg, &golden, k)
                };
                let row = [0, 1, 24, golden.steps].map(|w| {
                    let plans = sample(w);
                    assert!(plans.iter().all(|pl| pl.order() == k as usize));
                    (plans.len(), grid_fingerprint(&golden, &plans))
                });
                assert_eq!(
                    sample(u64::MAX),
                    sample(golden.steps),
                    "{name} k={k} seed={seed:#x}: an unbounded window is the whole run"
                );
                actual.push((name.clone(), k, seed, row));
            }
        }
    }
    let same = actual.len() == PINS.len()
        && actual
            .iter()
            .zip(PINS)
            .all(|((name, k, seed, row), pin)| (name.as_str(), *k, *seed, *row) == *pin);
    if !same {
        for (name, k, seed, row) in &actual {
            let cells: Vec<String> = row
                .iter()
                .map(|(n, f)| format!("({n}, {f:#018x})"))
                .collect();
            println!("    ({name:?}, {k}, {seed:#x}, [{}]),", cells.join(", "));
        }
    }
    assert!(same, "sampler output moved; actual table printed above");
}
