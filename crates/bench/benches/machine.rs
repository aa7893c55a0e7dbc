//! Bench: faulty-machine stepping throughput and fault-injection campaign
//! cost (the substrate of the E2 coverage experiment). Plain `Instant`
//! harness (no registry deps).
//!
//! ```sh
//! cargo bench --bench machine
//! ```

use talft_compiler::{compile, CompileOptions};
use talft_faultsim::{golden_run, run_plan_campaign, single_fault_plans, CampaignConfig};
use talft_machine::run_program;
use talft_suite::{kernels, Scale};
use talft_testutil::{bench_ns, fmt_bench};

fn main() {
    let ks = kernels(Scale::Tiny);
    let compiled = compile(&ks[0].source, &CompileOptions::default()).expect("compiles");
    println!(
        "{}",
        fmt_bench(
            "machine/run/protected",
            bench_ns(20, || {
                run_program(&compiled.protected.program, 10_000_000);
            })
        )
    );
    let cfg = CampaignConfig {
        stride: 293,
        mutations_per_site: 1,
        threads: 1,
        ..Default::default()
    };
    let golden = golden_run(&compiled.protected.program, &cfg).expect("golden run halts");
    println!(
        "{}",
        fmt_bench(
            "machine/campaign/strided",
            bench_ns(20, || {
                let program = &compiled.protected.program;
                let plans = single_fault_plans(program, &cfg, &golden);
                let _ = run_plan_campaign(program, &cfg, &golden, &plans);
            })
        )
    );
}
