//! Pins: the zap report of every Tiny kernel (protected and baseline) and
//! of one fuzzed program past 1,000 instructions, as FNV-1a fingerprints of
//! their `Debug` text, and the pair reports of the first three Tiny
//! kernels — the three the benchmark's static-analysis workload pairs.
//! The literals were computed before the k=1 fixpoints were batched; any
//! change to the analyzers' bookkeeping must leave every one of them as it
//! is.

use talft_analysis::{analyze_zaps, PairAnalyzer};
use talft_compiler::{compile, CompileOptions};
use talft_suite::{kernels, Scale};
use talft_testutil::{wile, SplitMix64};

fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// `(kernel, protected report, baseline report)`.
const ZAP: &[(&str, u64, u64)] = &[
    ("spec_gzip", 0xa1e9_4273_b4c1_c653, 0xd897_a729_4d1d_f533),
    ("spec_vpr", 0x2b86_5ebc_b809_ceb4, 0x4740_082b_3efc_4bf0),
    ("spec_mcf", 0x1f20_4c1e_33ed_8ed2, 0x73ad_b950_0f0f_b789),
    ("spec_crafty", 0x181c_e528_0899_39a6, 0x2a92_9ac4_6203_8747),
    ("spec_parser", 0x3274_e5df_7d20_cc40, 0xe1d1_d7d0_853e_c3ce),
    ("spec_bzip2", 0x45f1_327d_9414_0527, 0x28f4_ce8e_c76b_91bb),
    ("spec_twolf", 0x9376_eff7_3887_f93d, 0x3971_778e_2842_5c09),
    ("mb_adpcm", 0x5329_70f9_0591_5823, 0xdbb8_e8c7_f4c0_1724),
    ("mb_epic", 0x90bb_3849_6185_93cc, 0xbe7f_7c9a_1976_599c),
    ("mb_g721", 0x3842_516e_f461_b2d5, 0xb736_03e5_b3d8_5f0d),
    ("mb_gsm", 0x0d66_afbc_2294_a281, 0x5f78_e516_3300_c1f6),
    ("mb_jpeg", 0x565e_c68a_6360_0722, 0x2030_baf1_f7e0_547e),
    ("mb_mpeg2", 0x10ff_9a26_49e1_805f, 0x1295_d00a_1336_08de),
    ("mb_pegwit", 0x2231_ccbd_5d2e_76da, 0x7fec_9385_c7b0_b989),
    ("spec_gap", 0x56c4_481c_7755_c1c7, 0xf5ff_8b94_c4c6_445c),
    ("spec_vortex", 0xf153_02af_b333_4b28, 0x3f15_3c0f_372e_656a),
    ("mb_mesa", 0xbbb2_b0f3_d35d_366e, 0x2ebf_f6cc_c930_542b),
    ("mb_rasta", 0x113f_1682_060c_6eca, 0x1a85_1111_dfee_d1de),
];

#[test]
fn kernel_zap_reports_are_pinned() {
    let ks = kernels(Scale::Tiny);
    assert_eq!(ks.len(), ZAP.len(), "one pin per kernel");
    for (k, &(name, protected, baseline)) in ks.iter().zip(ZAP) {
        assert_eq!(k.name, name, "kernel order");
        let c = compile(&k.source, &CompileOptions::default()).expect("kernels compile");
        let got = (
            fnv(&format!("{:?}", analyze_zaps(&c.protected.program))),
            fnv(&format!("{:?}", analyze_zaps(&c.baseline.program))),
        );
        assert_eq!(got, (protected, baseline), "{name}: (protected, baseline)");
    }
}

#[test]
fn large_fuzzed_zap_report_is_pinned() {
    let mut rng = SplitMix64::new(0x2A9_0003);
    let src = wile::render_program(&wile::random_stmts(&mut rng, 3, 16, 24));
    let c = compile(&src, &CompileOptions::default()).expect("compiles");
    let p = &c.protected.program;
    assert_eq!(p.instrs.len(), 2093, "the program the pin was taken on");
    assert_eq!(
        fnv(&format!("{:?}", analyze_zaps(p))),
        0x53c1_920c_6f17_fb1b
    );
}

/// A pinned `PairReport`: its counts, then one fingerprint of the `Debug`
/// text of `per_compare` and `witness` together.
type PairPin = (&'static str, [u64; 8], usize, u64);

/// `(kernel side, [cells, pairs, detected, benign, vulnerable,
/// single_vulnerable, cooperative, fixpoints], defeatable compares,
/// per_compare + witness fingerprint)`.
const PAIRS: &[PairPin] = &[
    (
        "spec_gzip protected",
        [13673, 93482301, 27658021, 65419641, 404639, 0, 383111, 4706],
        17,
        0x5508_c216_108f_57c8,
    ),
    (
        "spec_gzip baseline",
        [7994, 31956015, 2049290, 25959615, 3947110, 3939660, 69, 45],
        17,
        0xde0a_4cb3_e345_9346,
    ),
    (
        "spec_vpr protected",
        [11828, 69956706, 13781202, 56121715, 53789, 0, 37679, 1732],
        16,
        0x6b97_6525_c098_94f6,
    ),
    (
        "spec_vpr baseline",
        [7007, 24552528, 1733798, 21180286, 1638444, 1632693, 80, 54],
        16,
        0x6b57_0c50_6525_34ef,
    ),
    (
        "spec_mcf protected",
        [13679, 93564360, 20282214, 73174753, 107393, 0, 85865, 3026],
        17,
        0x0990_3aa3_76f1_b860,
    ),
    (
        "spec_mcf baseline",
        [7999, 31996000, 2239600, 27317136, 2439264, 2431795, 88, 60],
        17,
        0x1a41_9f2a_e50a_4e9c,
    ),
];

#[test]
fn first_three_kernel_pair_reports_are_pinned() {
    let mut pins = PAIRS.iter();
    for k in kernels(Scale::Tiny).into_iter().take(3) {
        let c = compile(&k.source, &CompileOptions::default()).expect("kernels compile");
        for (side, p) in [
            ("protected", &c.protected.program),
            ("baseline", &c.baseline.program),
        ] {
            let &(what, counts, compares, fingerprint) = pins.next().expect("one pin per side");
            assert_eq!(format!("{} {side}", k.name), what, "kernel order");
            let r = PairAnalyzer::new(p).pair_report();
            assert!(r.bailed.is_none(), "{what}");
            let got = [
                r.cells as u64,
                r.pairs,
                r.detected,
                r.benign,
                r.vulnerable,
                r.single_vulnerable,
                r.cooperative,
                r.fixpoints,
            ];
            assert_eq!(got, counts, "{what}: counts");
            assert_eq!(r.per_compare.len(), compares, "{what}: defeatable compares");
            assert_eq!(
                fnv(&format!("{:?} {:?}", r.per_compare, r.witness)),
                fingerprint,
                "{what}: per_compare and witness"
            );
        }
    }
    assert!(pins.next().is_none(), "every pin checked");
}
