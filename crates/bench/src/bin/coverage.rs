//! E2–E4 / **Theorem validation table**: single-event-upset campaigns over
//! every benchmark. The protected binaries must show **zero** silent data
//! corruption (Theorem 4) and no stuck states (Theorem 1); the fault-free
//! runs never signal a fault (Corollary 3). The unprotected baselines show
//! real SDC under the identical campaign.
//!
//! Usage: `cargo run --release -p talft-bench --bin coverage
//!          [-- --stride N] [--stop-on-violation] [--json <path>]`
//!
//! `--stop-on-violation` short-circuits each campaign at its first
//! Theorem 4 violation (go/no-go mode; counts then cover only the
//! injections performed). `TALFT_STRIDE_SCALE` multiplies the stride.

use talft_bench::report::{self, coverage_json, Report};
use talft_bench::{coverage_row, render_coverage};
use talft_faultsim::CampaignConfig;
use talft_obs::Json;
use talft_suite::{kernels, Scale};

fn main() {
    let stride: u64 = report::arg("--stride").unwrap_or(11);
    let stop = std::env::args().any(|a| a == "--stop-on-violation");
    let json = report::json_path();
    let cfg = CampaignConfig {
        stride,
        mutations_per_site: 3,
        stop_on_first_violation: stop,
        ..CampaignConfig::default()
    };
    println!("# Fault-injection campaign (SEU model: reg-zap, Q-zap1, Q-zap2)");
    println!("# every dynamic step ≡ 0 mod {stride}, every site, 3 corrupted values/site");
    let mut rows = Vec::new();
    let mut all_ft = true;
    for k in kernels(Scale::Tiny) {
        match coverage_row(&k, &cfg) {
            Ok(row) => {
                all_ft &= row.protected.fault_tolerant();
                rows.push(row);
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    print!("{}", render_coverage(&rows));
    println!();
    report::emit(json, || {
        Report::new("talft.coverage.v1")
            .field("stride", Json::U64(stride))
            .field("fault_tolerant", Json::Bool(all_ft))
            .field("rows", coverage_json(&rows))
            .build()
    });
    if all_ft {
        println!("RESULT: all protected binaries fault-tolerant (0 SDC) — Theorem 4 holds.");
    } else {
        println!("RESULT: THEOREM 4 VIOLATION FOUND — see above.");
        std::process::exit(2);
    }
}
