//! E6 / **ablations**: (a) the scheduling-constraint gap (already part of
//! Figure 10) as a function of issue width — the paper's 34% vs 30% at
//! width 6 — and (b) where the duplication overhead lands on narrow and
//! very wide machines.
//!
//! Usage: `cargo run --release -p talft-bench --bin ablation [--json <path>]`

use talft_bench::report::{self, Report};
use talft_bench::width_sweep;
use talft_obs::Json;
use talft_suite::Scale;

fn main() {
    let json = report::json_path();
    println!("# Ablation: geomean overhead vs issue width");
    println!("| width | TAL-FT | TAL-FT w/o ordering | gap |");
    println!("|---:|---:|---:|---:|");
    match width_sweep(Scale::Small, &[1, 2, 3, 4, 6, 8]) {
        Ok(rows) => {
            for &(w, go, gu) in &rows {
                println!("| {w} | {go:.3}x | {gu:.3}x | {:.1}% |", (go - gu) * 100.0);
            }
            report::emit(json, || {
                Report::new("talft.ablation.v1")
                    .field(
                        "rows",
                        Json::Array(
                            rows.iter()
                                .map(|&(w, go, gu)| {
                                    Json::obj([
                                        ("width", Json::U64(u64::from(w))),
                                        ("geomean_ordered", Json::F64(go)),
                                        ("geomean_unordered", Json::F64(gu)),
                                    ])
                                })
                                .collect(),
                        ),
                    )
                    .build()
            });
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
