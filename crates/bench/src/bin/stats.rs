//! Program-characterization table (an extension beyond the paper's figures):
//! static/dynamic sizes of both variants, code growth from the reliability
//! transformation, store-queue high-water mark (hardware store-buffer
//! sizing), and mean/max fault-detection latency.
//!
//! Usage: `cargo run --release -p talft-bench --bin stats [--json <path>]`

use talft_bench::report::{self, Report};
use talft_compiler::{compile, CompileOptions};
use talft_faultsim::{run_campaign, CampaignConfig};
use talft_machine::{run, Machine};
use talft_obs::Json;
use talft_suite::{kernels, Scale};

fn main() {
    let json = report::json_path();
    println!("# Program characterization (Tiny scale)");
    println!(
        "| benchmark | base instrs | prot instrs | growth | dyn steps | max queue | det. latency mean | max |"
    );
    println!("|---|---:|---:|---:|---:|---:|---:|---:|");
    let cfg = CampaignConfig {
        stride: 23,
        mutations_per_site: 2,
        ..Default::default()
    };
    let mut json_rows = Vec::new();
    for k in kernels(Scale::Tiny) {
        let c = match compile(&k.source, &CompileOptions::default()) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {}: {e}", k.name);
                std::process::exit(1);
            }
        };
        let base_n = c.baseline.program.code_len();
        let prot_n = c.protected.program.code_len();
        let mut m = Machine::boot(std::sync::Arc::clone(&c.protected.program));
        let r = run(&mut m, 100_000_000);
        let rep = match run_campaign(&c.protected.program, &cfg) {
            Ok(rep) => rep,
            Err(e) => {
                eprintln!("error: {}: {e}", k.name);
                std::process::exit(1);
            }
        };
        println!(
            "| {} | {} | {} | {:.2}x | {} | {} | {:.1} | {} |",
            k.name,
            base_n,
            prot_n,
            prot_n as f64 / base_n as f64,
            r.steps,
            m.max_queue_depth(),
            rep.detection_latency.mean(),
            rep.detection_latency.max,
        );
        json_rows.push(Json::obj([
            ("name", Json::str(k.name)),
            ("base_instrs", Json::U64(base_n as u64)),
            ("prot_instrs", Json::U64(prot_n as u64)),
            ("growth", Json::F64(prot_n as f64 / base_n as f64)),
            ("dyn_steps", Json::U64(r.steps)),
            ("max_queue", Json::U64(m.max_queue_depth() as u64)),
            (
                "detection_latency",
                Json::obj([
                    ("mean", Json::F64(rep.detection_latency.mean())),
                    ("max", Json::U64(rep.detection_latency.max)),
                ]),
            ),
        ]));
    }
    report::emit(json, || {
        Report::new("talft.stats.v1")
            .field("rows", Json::Array(json_rows))
            .build()
    });
}
