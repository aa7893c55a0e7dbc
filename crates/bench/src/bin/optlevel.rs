//! Optimization-level ablation (extension): the Figure 10 ratio with and
//! without pre-duplication VIR optimization (constant folding, copy
//! propagation, DCE). Both the baseline and the protected stream are
//! optimized identically, so this probes whether the headline overhead is
//! an artifact of sloppy input code.
//!
//! Usage: `cargo run --release -p talft-bench --bin optlevel [--json <path>]`

use talft_bench::report::{self, sweep_row_json, Report};
use talft_bench::{geomean, reference_visits, Fig10Row};
use talft_compiler::{compile, CompileOptions};
use talft_obs::Json;
use talft_sim::{simulate, MachineModel};
use talft_suite::{kernels, Scale};

fn main() {
    let json = report::json_path();
    let model = MachineModel::default();
    println!("# Optimization-level ablation: geomean TAL-FT overhead");
    println!("| pipeline | geomean | baseline cyc (sum) | TAL-FT cyc (sum) |");
    println!("|---|---:|---:|---:|");
    let mut json_rows = Vec::new();
    for (label, optimize) in [("-O0 (as lowered)", false), ("-O1 (fold+prop+dce)", true)] {
        let mut ratios = Vec::new();
        let mut base_sum = 0u64;
        let mut prot_sum = 0u64;
        for k in kernels(Scale::Small) {
            let opts = CompileOptions {
                optimize,
                model,
                ..Default::default()
            };
            let c = match compile(&k.source, &opts) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: {}: {e}", k.name);
                    std::process::exit(1);
                }
            };
            let visits = reference_visits(&c).expect("halts");
            let row = Fig10Row {
                name: k.name,
                base_cycles: simulate(&c.baseline.sched, &visits, &model),
                talft_cycles: simulate(&c.protected.sched, &visits, &model),
                talft_unordered_cycles: 0,
            };
            base_sum += row.base_cycles;
            prot_sum += row.talft_cycles;
            ratios.push(row.ratio_ordered());
        }
        let g = geomean(&ratios);
        println!("| {label} | {g:.3}x | {base_sum} | {prot_sum} |");
        json_rows.push(sweep_row_json(label, g, base_sum, prot_sum));
    }
    report::emit(json, || {
        Report::new("talft.optlevel.v1")
            .field("rows", Json::Array(json_rows))
            .build()
    });
}
