//! Pins `run_plan_campaign`'s reports across builds: for each Tiny kernel,
//! the k=1 grid of the protected and the baseline binary at effective
//! stride 48 with 3 values per site, and one seeded k=2 sample of the
//! protected binary, each as an FNV-1a fingerprint of the report's `Debug`
//! text at threads 1 and 2.
//!
//! The differentials hold the engines to one another within a build; a
//! change that moved every engine alike would pass them. The reports
//! behind these literals are the ones the build before dead-register
//! strikes settled at admission and quiet stretches jumped through the
//! checkpoint ring computed, so any later bookkeeping change must leave
//! every report as it is.

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
    ("spec_gzip", 0x90e0_2ef7_41c3_2312, 0xcde3_405f_3082_977b, 0x8938_dcf6_2d6c_e89a),
    ("spec_vpr", 0x5eed_6657_4496_cfea, 0x3a77_eb8e_a2c9_7420, 0xe8af_4f09_a91c_2683),
    ("spec_mcf", 0x8739_ad48_434e_9a5a, 0x0d25_4720_a45e_b546, 0x5e8d_cbc8_d338_9683),
    ("spec_crafty", 0x2af9_1e22_368e_29a7, 0x643e_7985_0202_0a54, 0x7843_f631_9d1e_3b3c),
    ("spec_parser", 0x8b60_eed5_c6e1_f7b0, 0xdffc_f298_b278_ee14, 0x4fe7_e92a_15e2_a92f),
    ("spec_bzip2", 0x1672_8b43_a7db_cd3e, 0x6567_6805_f9af_9fec, 0xd230_5c44_d724_06c7),
    ("spec_twolf", 0x8161_64a8_e7c7_0791, 0xb822_6fbf_e30b_4a15, 0x637e_acc4_57ca_0993),
    ("mb_adpcm", 0xa3ff_b09c_7eb9_c8c1, 0x1b31_e9a8_c252_6718, 0x8811_56d6_3f7d_86ba),
    ("mb_epic", 0x5a45_e315_5110_779e, 0x5831_1b9e_eb62_6cd1, 0x0278_decb_b5f4_d95f),
    ("mb_g721", 0x9cfb_7f24_9c3f_f8ba, 0x745a_a7ee_411f_33d7, 0x9932_4733_84aa_3e47),
    ("mb_gsm", 0x8e6f_5e61_db7b_2a88, 0x1453_294c_b914_a57c, 0x6d85_adca_fbbc_790f),
    ("mb_jpeg", 0x0fc5_484a_05c6_58fa, 0xadf1_e3c9_a44b_39cf, 0xc662_8baa_df0b_a2ff),
    ("mb_mpeg2", 0x619e_4fd5_4ca0_4883, 0x65ad_c439_e935_6c25, 0xeb77_664c_e534_23ac),
    ("mb_pegwit", 0xd918_79e8_6941_c621, 0xb178_856d_33d0_8c28, 0x984d_4ab4_1443_fe27),
    ("spec_gap", 0xae31_93ce_1f90_0983, 0x3d95_a757_4424_05dd, 0x82c3_a680_b91a_2db7),
    ("spec_vortex", 0x0e1a_a8de_1474_5445, 0x0f4a_51d0_f894_ef34, 0x3430_0add_021c_8890),
    ("mb_mesa", 0x526f_213f_c15c_04b1, 0x34cf_396b_2212_a589, 0x39d0_1fe8_5f4c_cb75),
    ("mb_rasta", 0xafc1_76b2_80a9_86c4, 0x2367_40b7_96f7_c53f, 0x7b9c_8cfa_ae09_e4e6),
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
