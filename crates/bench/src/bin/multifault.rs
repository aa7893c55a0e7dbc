//! E13 / **k-fault boundary table**: sampled multi-fault campaigns over
//! every protected benchmark binary. Theorem 4 is indexed to a *single*
//! upset per run; at `k ≥ 2` the guarantee lapses, and this table measures
//! how: the stratified + correlated sampler finds coordinated double
//! upsets (same corrupted value into a green/blue copy pair) that slip
//! past the dual-modular comparison as silent data corruption. Nonzero SDC
//! here is the *expected* boundary of the fault model, not a soundness
//! bug — the `k = 1` row of the same table must stay at zero.
//!
//! Usage: `cargo run --release -p talft-bench --bin multifault
//!          [-- --k N] [--samples N] [--seed N] [--stride N] [--threads N]
//!          [--json <path>]`

use talft_bench::report::{self, arg, multifault_json, Report};
use talft_bench::{multifault_row, render_multifault};
use talft_faultsim::CampaignConfig;
use talft_obs::Json;
use talft_suite::{kernels, Scale};

fn main() {
    let k: u32 = arg("--k").unwrap_or(2);
    let samples: usize = arg("--samples").unwrap_or(4096);
    let seed = arg("--seed").unwrap_or(0x7A1F_F00D);
    let stride = arg("--stride").unwrap_or(17);
    let threads = arg("--threads").map_or(1, |v: usize| v.max(1));
    let json = report::json_path();
    let cfg = CampaignConfig {
        stride,
        pair_samples: samples,
        seed,
        threads,
        ..CampaignConfig::default()
    };
    println!("# k-fault boundary campaign (sampled; seed {seed:#x}, {samples} plans/kernel)");
    println!("# k=1 is the exhaustive strided sweep (must be 0 SDC); k>=2 is outside the model");
    let mut rows = Vec::new();
    for kern in kernels(Scale::Tiny) {
        for kk in [1, k] {
            match multifault_row(&kern, &cfg, kk) {
                Ok(row) => rows.push(row),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    print!("{}", render_multifault(&rows));
    println!();
    let k1_sdc: u64 = rows
        .iter()
        .filter(|r| r.k == 1)
        .map(|r| r.protected.sdc)
        .sum();
    let k1_other: u64 = rows
        .iter()
        .filter(|r| r.k == 1)
        .map(|r| r.protected.other_violations)
        .sum();
    let kn: Vec<&talft_bench::MultifaultRow> = rows.iter().filter(|r| r.k > 1).collect();
    let kn_sdc: u64 = kn.iter().map(|r| r.protected.sdc).sum();
    let kn_exposed: u64 = kn
        .iter()
        .map(|r| r.protected.detected + r.protected.sdc + r.protected.other_violations)
        .sum();
    let kn_det: u64 = kn.iter().map(|r| r.protected.detected).sum();
    let cov = if kn_exposed == 0 {
        1.0
    } else {
        kn_det as f64 / kn_exposed as f64
    };
    report::emit(json, || {
        Report::new("talft.multifault.v3")
            .field("k", Json::U64(u64::from(k)))
            .field("seed", Json::U64(seed))
            .field("stride", Json::U64(stride))
            .field("samples", Json::U64(samples as u64))
            .field("k1_violations", Json::U64(k1_sdc + k1_other))
            .field("kn_sdc", Json::U64(kn_sdc))
            .field("kn_detection_coverage", Json::F64(cov))
            .field("rows", multifault_json(&rows))
            .build()
    });
    if k1_sdc + k1_other > 0 {
        println!("RESULT: THEOREM 4 VIOLATION AT k=1 — see above.");
        std::process::exit(2);
    }
    println!(
        "RESULT: k=1 clean (Theorem 4 holds); k={k} SDC {kn_sdc} across the suite, \
         detection coverage {:.1}% — the single-upset model boundary.",
        100.0 * cov
    );
}
