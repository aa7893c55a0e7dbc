//! Pins `run_plan_campaign`'s reports across builds: for each Tiny kernel,
//! the k=1 grid of the protected and the baseline binary at effective
//! stride 48 with 3 values per site, and one seeded k=2 sample of the
//! protected binary, each as an FNV-1a fingerprint of the report's `Debug`
//! text at threads 1 and 2.
//!
//! The differentials hold the engines to one another within a build; a
//! change that moved every engine alike would pass them. These literals
//! were computed by the build before dead-register strikes settled at
//! admission and quiet stretches jumped through the checkpoint ring, so
//! any later bookkeeping change must leave every report as it is.

use std::sync::Arc;

use talft_compiler::{compile, CompileOptions};
use talft_faultsim::{
    golden_run, multi_fault_plans, run_plan_campaign, single_fault_plans, CampaignConfig,
};
use talft_isa::Program;
use talft_suite::{kernels, Scale};

fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// `(kernel, protected k=1, baseline k=1, protected k=2)`.
#[rustfmt::skip]
const PINS: &[(&str, u64, u64, u64)] = &[
    ("spec_gzip", 0x8869_df0d_d079_6c60, 0x9131_e533_aeca_738d, 0x7757_fc37_a0b3_414c),
    ("spec_vpr", 0x1c0b_c634_d500_eb3c, 0x0f39_40d8_69bc_eede, 0xdfb8_9e26_b853_c6e9),
    ("spec_mcf", 0x65fe_b3b1_c2e7_5a40, 0x96b2_2a6f_7bcd_0188, 0x7e8f_620d_c8d5_ba85),
    ("spec_crafty", 0xc224_3808_6d40_0d45, 0x21c8_d72f_57dd_c8d2, 0x796a_3a40_5a3a_1e3a),
    ("spec_parser", 0x54ef_fb1e_900a_5716, 0xc4f5_0ee4_9e14_7cde, 0x11ce_7c29_4e60_ffbd),
    ("spec_bzip2", 0x7dbe_138c_4c3e_cd10, 0xcf9d_16c0_9812_3eda, 0xf8fa_526e_b1f2_a48d),
    ("spec_twolf", 0x5435_7bc0_4a14_090b, 0xf3a5_c4f3_4566_2c0b, 0x7b43_3ef8_8b70_61f5),
    ("mb_adpcm", 0xb9f2_76fd_e923_769f, 0xc91d_0035_4fc2_2aca, 0x21a1_6a2f_c10c_2c38),
    ("mb_epic", 0x9a67_8f82_b5a1_9988, 0x7eb9_be7e_b75f_2d7b, 0x5ae4_a791_5d93_cc59),
    ("mb_g721", 0x0651_8eee_bef6_e2e0, 0xbc3d_ced1_136d_1d81, 0xb84c_6c7a_01b0_2bc1),
    ("mb_gsm", 0x4dd3_5527_4b1f_790a, 0x44ba_89c5_468b_4f3e, 0xecfd_6a1d_6a94_e039),
    ("mb_jpeg", 0x53b0_ea02_01ff_2bd4, 0x0b11_6ed4_bd05_fd4d, 0x1ff6_7f1d_85da_be8d),
    ("mb_mpeg2", 0x5e48_c799_605d_4c31, 0xe111_a9bd_bbaf_3dff, 0xfb25_482f_397c_d282),
    ("mb_pegwit", 0xc6fe_55c0_aab7_dc03, 0xa739_5051_e3ef_b80a, 0x6387_f9bc_a5c5_3071),
    ("spec_gap", 0xfbf9_af77_39e9_4bf9, 0x91bd_2d6d_9679_427b, 0x1d7f_6489_aa76_6e31),
    ("spec_vortex", 0xe162_f561_7f48_285b, 0x31a5_4346_edfe_d95a, 0xe10c_534a_bb87_cd3e),
    ("mb_mesa", 0xbc75_bbeb_1e3c_ba1f, 0x52b3_aa93_d304_ff73, 0xff11_d7e8_3684_6017),
    ("mb_rasta", 0x2b12_30a0_160e_4a2e, 0x000f_85b6_6734_3a81, 0xde29_2421_62ec_f0a0),
];

/// The report fingerprint of `plans` over `p`, asserted equal at threads
/// 1 and 2.
fn pinned(p: &Arc<Program>, cfg: &CampaignConfig, k: u32, what: &str) -> u64 {
    let golden = golden_run(p, cfg).expect("golden halts");
    let plans = if k == 1 {
        single_fault_plans(p, cfg, &golden)
    } else {
        multi_fault_plans(p, cfg, &golden, k)
    };
    let [one, two] = [1, 2].map(|threads| {
        let cfg = CampaignConfig {
            threads,
            ..cfg.clone()
        };
        fnv(&format!(
            "{:?}",
            run_plan_campaign(p, &cfg, &golden, &plans)
        ))
    });
    assert_eq!(one, two, "{what}: threads 1 and 2 disagree");
    one
}

#[test]
fn campaign_reports_are_pinned() {
    // The k=1 pins are at effective stride 48; `TALFT_STRIDE_SCALE`
    // multiplies the configured stride, so divide it back out.
    let scale = CampaignConfig {
        stride: 1,
        ..CampaignConfig::default()
    }
    .effective_stride();
    let cfg = CampaignConfig {
        stride: 48 / scale,
        mutations_per_site: 3,
        pair_samples: 256,
        ..CampaignConfig::default()
    };
    let k1 = cfg.effective_stride() == 48;
    if !k1 {
        eprintln!("k=1 pins skipped: TALFT_STRIDE_SCALE={scale} does not divide 48");
    }
    let ks = kernels(Scale::Tiny);
    let mut actual = Vec::new();
    for k in &ks {
        let c = compile(&k.source, &CompileOptions::default()).expect("kernels compile");
        let (protected, baseline) = (&c.protected.program, &c.baseline.program);
        let (p1, b1) = if k1 {
            (
                pinned(protected, &cfg, 1, &format!("{}/protected k=1", k.name)),
                pinned(baseline, &cfg, 1, &format!("{}/baseline k=1", k.name)),
            )
        } else {
            (0, 0)
        };
        let p2 = pinned(protected, &cfg, 2, &format!("{}/protected k=2", k.name));
        actual.push((k.name, p1, b1, p2));
    }
    let same = actual.len() == PINS.len()
        && actual
            .iter()
            .zip(PINS)
            .all(|(a, pin)| a.0 == pin.0 && a.3 == pin.3 && (!k1 || (a.1, a.2) == (pin.1, pin.2)));
    if !same {
        for (name, p1, b1, p2) in &actual {
            println!("    ({name:?}, {p1:#018x}, {b1:#018x}, {p2:#018x}),");
        }
    }
    assert!(same, "a campaign report moved; actual table printed above");
}
