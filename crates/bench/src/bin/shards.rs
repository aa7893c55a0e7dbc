//! E18 / **sharded-campaign equivalence & scaling table**: runs suite
//! kernel grids through the `talft-faultsim` shard/checkpoint/merge layer
//! (DESIGN.md §11) and hard-fails unless every partitioned run is
//! **bit-identical** to the whole-grid report:
//!
//! * shard-count scaling — the grid split `N ∈ {1, 2, 4, 8}` ways, every
//!   shard run to completion and the parts merged; the table reports the
//!   max/sum of per-shard wall-clock against the whole-grid time (the max
//!   column is the distributed-campaign latency bound);
//! * kill/resume — shard 0 interrupted at its first durable checkpoint,
//!   round-tripped through the `talft.checkpoint.v1` JSON a successor
//!   process would read off disk, resumed with a different chunk size, and
//!   merged; any divergence from the uninterrupted report is a hard
//!   failure (exit 2).
//!
//! The process-boundary version of the same gate (real SIGKILLed workers)
//! is CI's `talftd-smoke` job.
//!
//! Usage: `cargo run --release -p talft-bench --bin shards
//!          [-- --kernels N] [--stride N] [--threads N] [--every N]`

use std::sync::Arc;
use std::time::Instant;

use talft_bench::report::{self, arg};
use talft_compiler::{compile, CompileOptions};
use talft_faultsim::{
    golden_run, grid_fingerprint, merge_shard_reports, run_plan_campaign, run_shard_campaign,
    single_fault_plans, CampaignCheckpoint, CampaignConfig, CampaignReport, FaultPlan, Golden,
    ShardControl, ShardOutcome, ShardPart, ShardSpec,
};
use talft_isa::Program;
use talft_obs::Json;
use talft_suite::{kernels, Scale};

fn part(
    golden: &Golden,
    plans: &[FaultPlan],
    spec: ShardSpec,
    report: CampaignReport,
) -> ShardPart {
    ShardPart {
        spec,
        fingerprint: grid_fingerprint(golden, plans),
        plans: spec.range(plans.len()).len() as u64,
        report,
    }
}

fn complete_shard(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
    plans: &[FaultPlan],
    spec: ShardSpec,
) -> CampaignReport {
    let outcome = run_shard_campaign(program, cfg, golden, plans, spec, 0, None, |_| {
        ShardControl::Continue
    })
    .expect("ungated shard runs");
    match outcome {
        ShardOutcome::Complete(r) => r,
        ShardOutcome::Interrupted(_) => unreachable!("no Stop issued"),
    }
}

fn main() {
    report::flags(&["--kernels", "--stride", "--threads", "--every"], &[]);
    let n_kernels = arg("--kernels").map_or(3, |v: usize| v.max(1));
    let stride = arg("--stride").unwrap_or(31);
    let threads = arg("--threads").map_or(2, |v: usize| v.max(1));
    let every = arg("--every").map_or(64, |v: usize| v.max(1));
    let cfg = CampaignConfig {
        stride,
        mutations_per_site: 2,
        threads,
        ..CampaignConfig::default()
    };
    println!("# E18: sharded-campaign equivalence (stride {stride}, {threads} threads)");
    println!("# every row asserts merged == whole-grid bit for bit; divergence exits 2");
    println!();
    println!("| kernel | plans | whole ms | N | max shard ms | sum shard ms | identical |");
    println!("|---|---:|---:|---:|---:|---:|---|");
    let mut failures = 0u32;
    let mut resume_rows = Vec::new();
    for kern in kernels(Scale::Tiny).into_iter().take(n_kernels) {
        let c = compile(&kern.source, &CompileOptions::default()).expect("kernel compiles");
        let p = &c.protected.program;
        let golden = golden_run(p, &cfg).expect("golden halts");
        let plans = single_fault_plans(p, &cfg, &golden);
        let t0 = Instant::now();
        let whole = run_plan_campaign(p, &cfg, &golden, &plans);
        let whole_ms = t0.elapsed().as_secs_f64() * 1e3;
        if whole.sdc != 0 {
            println!(
                "RESULT: SDC on protected {} — Theorem 4 violation",
                kern.name
            );
            std::process::exit(2);
        }
        for count in [1u32, 2, 4, 8] {
            let mut parts = Vec::new();
            let mut max_ms = 0f64;
            let mut sum_ms = 0f64;
            for i in 0..count {
                let spec = ShardSpec::new(i, count).expect("valid spec");
                let t = Instant::now();
                let report = complete_shard(p, &cfg, &golden, &plans, spec);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                max_ms = max_ms.max(ms);
                sum_ms += ms;
                parts.push(part(&golden, &plans, spec, report));
            }
            let merged = merge_shard_reports(&parts).expect("complete partition merges");
            let ok = merged == whole;
            failures += u32::from(!ok);
            println!(
                "| {} | {} | {:.0} | {} | {:.0} | {:.0} | {} |",
                kern.name,
                plans.len(),
                whole_ms,
                count,
                max_ms,
                sum_ms,
                if ok { "yes" } else { "NO — DIVERGED" },
            );
        }
        // Kill/resume: interrupt shard 0 of 2 at its first checkpoint, push
        // the checkpoint through its durable JSON form, resume with a
        // different chunk size, merge with the untouched shard 1.
        let spec0 = ShardSpec::new(0, 2).expect("valid");
        let spec1 = ShardSpec::new(1, 2).expect("valid");
        let outcome = run_shard_campaign(p, &cfg, &golden, &plans, spec0, every, None, |_| {
            ShardControl::Stop
        })
        .expect("shard runs");
        let (resumed_report, done_at_interrupt) = match outcome {
            ShardOutcome::Interrupted(cp) => {
                let text = cp.to_json().to_string();
                let restored = CampaignCheckpoint::from_json(&Json::parse(&text).expect("parses"))
                    .expect("checkpoint decodes");
                assert_eq!(restored, cp, "durable checkpoint round-trip");
                let done = cp.done;
                let resumed = run_shard_campaign(
                    p,
                    &cfg,
                    &golden,
                    &plans,
                    spec0,
                    every * 3 + 1,
                    Some(&restored),
                    |_| ShardControl::Continue,
                )
                .expect("resume runs");
                match resumed {
                    ShardOutcome::Complete(r) => (r, done),
                    ShardOutcome::Interrupted(_) => unreachable!("no Stop issued on resume"),
                }
            }
            // Shard smaller than one chunk: completes before any checkpoint.
            ShardOutcome::Complete(r) => (r, 0),
        };
        let merged = merge_shard_reports(&[
            part(&golden, &plans, spec0, resumed_report),
            part(
                &golden,
                &plans,
                spec1,
                complete_shard(p, &cfg, &golden, &plans, spec1),
            ),
        ])
        .expect("partition merges");
        let ok = merged == whole;
        failures += u32::from(!ok);
        resume_rows.push(format!(
            "| {} | {} | {} | {} | {} |",
            kern.name,
            plans.len(),
            done_at_interrupt,
            every,
            if ok { "yes" } else { "NO — DIVERGED" },
        ));
    }
    println!();
    println!("# kill at first checkpoint → resume (chunk size changes across the restart)");
    println!("| kernel | plans | done at kill | checkpoint every | identical |");
    println!("|---|---:|---:|---:|---|");
    for row in &resume_rows {
        println!("{row}");
    }
    println!();
    if failures > 0 {
        println!("RESULT: {failures} sharded run(s) DIVERGED from the whole-grid report.");
        std::process::exit(2);
    }
    println!(
        "RESULT: all sharded and kill/resume runs bit-identical to the whole grid; \
         protected kernels report zero SDC through the sharded path."
    );
}
