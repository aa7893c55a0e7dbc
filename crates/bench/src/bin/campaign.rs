//! **campaign** — every fault-injection table from one per-kernel loop:
//! E2–E4 (Theorem 4), E13/E20 (the k-fault boundary), E16/E19/E23/E31/E32
//! (the batched engine against the sequential reference) and E18 (sharded
//! campaigns). Each Tiny kernel is compiled once; each requested campaign
//! then runs `golden_run`, builds its plans and runs them on the batched
//! engine ([`run_plan_campaign`]). The campaigns of a kernel are its rows:
//!
//! * the protected binary at k=1, exhaustive in sites and strided in time,
//!   which must be fault-tolerant (Theorem 4);
//! * under `--baseline`, the unprotected binary at k=1, which shows real
//!   SDC under the identical campaign (E2's contrast);
//! * with `--k K` for K ≥ 2, a sampled k=K campaign of the protected
//!   binary, whose SDC is the expected edge of the single-upset model.
//!
//! Extra legs run on the rows inside the same loop:
//!
//! * the sequential [`run_plan_campaign_reference`] on the same plans,
//!   timed: on every k≥2 row, and on every row under `--reference`. Its
//!   report must equal the batched one bit for bit;
//! * under `--shards`, the plan set split N ∈ {1, 2, 4, 8} ways, every
//!   shard run and the parts merged; then shard 0 of 2 stopped at its
//!   first checkpoint (every 64 plans), pushed through its durable JSON
//!   form, resumed with another chunk size and merged with shard 1. Every
//!   merge must equal the row's report bit for bit. Sharding refuses gated
//!   configs, so `--shards --stop-on-violation` is a usage error.
//!
//! Usage: `cargo run --release -p talft-bench --bin campaign -- [--stride N]
//! [--values N] [--k N] [--samples N] [--seed N] [--threads N]
//! [--kernels N] [--baseline] [--reference] [--shards]
//! [--stop-on-violation] [--json <path>] [--check <path>]`
//!
//! Defaults: stride 11 (`TALFT_STRIDE_SCALE` multiplies it), 3 corrupted
//! values per site, k=1 only, 4096 plans per k≥2 campaign, seed
//! `0x7A1F_F00D`, the machine's thread count, all 18 kernels.
//! `--stop-on-violation` ends each campaign at its first Theorem 4
//! violation; counts then cover the injections performed.
//!
//! Exit codes: 2 when a protected k=1 campaign is not fault-tolerant; 1 for
//! a usage error, a compile or golden failure, or a report that differs
//! from the reference or from the whole grid; 0 otherwise.
//!
//! `--json` writes `talft.campaign.v1`: the effective stride, every row's
//! report in the lossless [`talft_faultsim::wire`] encoding (the
//! reference's too, where it ran), and the `checkpoints` and `batch`
//! counters of the rows' batched passes only, not of the shard legs.
//! `checkpoints.seeks` and `steps_saved` depend on the worker schedule at
//! threads > 1, so they are gated only as nonzero. `--check <path>`
//! re-proves a file offline through [`report::check`]: each row's
//! reference report equals its batched one, every k≥2 row has one,
//! protected k=1 rows are fault-tolerant, the checkpoint ring was used,
//! lanes were packed, and the demotion causes sum to the total and stay
//! within 2% of the lanes.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use talft_bench::report::{self, arg, Report};
use talft_compiler::{compile, CompileOptions};
use talft_faultsim::wire::{self, report_from_json, report_to_json};
use talft_faultsim::{
    golden_run, grid_fingerprint, merge_shard_reports, multi_fault_plans, run_plan_campaign,
    run_plan_campaign_reference, run_shard_campaign, single_fault_plans, CampaignCheckpoint,
    CampaignConfig, CampaignReport, FaultPlan, Golden, ShardControl, ShardOutcome, ShardPart,
    ShardSpec,
};
use talft_isa::Program;
use talft_obs::Json;
use talft_suite::{kernels, Scale};

/// The schema tag this bin writes and `--check` accepts.
const SCHEMA: &str = "talft.campaign.v1";

/// Required top-level keys of a [`SCHEMA`] document.
const REQUIRED: &[&str] = &[
    "schema",
    "stride",
    "values",
    "threads",
    "rows",
    "checkpoints",
    "batch",
];

/// The `checkpoints` object: key and obs counter.
const CHECKPOINTS: [(&str, &str); 4] = [
    ("seeks", "campaign.checkpoint.seeks"),
    ("steps_saved", "campaign.checkpoint.steps_saved"),
    ("converged_early", "campaign.converged_early"),
    ("converged_steps_saved", "campaign.converged.steps_saved"),
];

/// The `batch` object's counts: key and obs counter.
const BATCH: [(&str, &str); 4] = [
    ("lanes", "faultsim.batch.lanes"),
    ("multi_lanes", "faultsim.batch.multi_lanes"),
    ("demotions", "faultsim.batch.demotions"),
    ("scalar_routed", "faultsim.batch.scalar_routed"),
];

/// The demotion-cause counters, in taxonomy order; `--check` demands they
/// sum exactly to `batch.demotions`.
const DEMOTE_CAUSES: [&str; 4] = ["mem_commit", "gpr_hi", "control_fork", "terminal"];

/// Partition counts of the `--shards` leg.
const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// Plans per chunk before the kill; the resume runs `3 × 64 + 1`.
const RESUME_EVERY: usize = 64;

/// One campaign of the table.
struct Row {
    name: &'static str,
    binary: &'static str,
    k: u32,
    report: CampaignReport,
    batched_ns: u64,
    /// The reference leg's report and time, where it ran.
    reference: Option<(CampaignReport, u64)>,
    shards: Option<Shards>,
}

/// The `--shards` leg of one row.
struct Shards {
    /// `(N, slowest shard ns, summed shard ns)` per partition count.
    partitions: Vec<(u32, u64, u64)>,
    /// Plans shard 0 of 2 had done when it was stopped.
    done_at_kill: u64,
}

fn main() {
    report::flags(
        &[
            "--stride",
            "--values",
            "--k",
            "--samples",
            "--seed",
            "--threads",
            "--kernels",
            "--json",
            "--check",
        ],
        &[
            "--baseline",
            "--reference",
            "--shards",
            "--stop-on-violation",
        ],
    );
    if let Some(path) = arg::<String>("--check") {
        report::check(&path, SCHEMA, REQUIRED, gate);
    }
    let on = |switch: &str| std::env::args().any(|a| a == switch);
    let defaults = CampaignConfig::default();
    let cfg = CampaignConfig {
        stride: arg("--stride").unwrap_or(11),
        mutations_per_site: arg("--values").unwrap_or(3),
        threads: arg("--threads").map_or(defaults.threads, |v: usize| v.max(1)),
        seed: arg("--seed").unwrap_or(defaults.seed),
        pair_samples: arg("--samples").unwrap_or(defaults.pair_samples),
        stop_on_first_violation: on("--stop-on-violation"),
        ..defaults
    };
    let k: u32 = arg("--k").unwrap_or(1);
    let n_kernels = arg("--kernels").map_or(usize::MAX, |v: usize| v.max(1));
    let (baseline, reference, shards) = (on("--baseline"), on("--reference"), on("--shards"));
    if shards && cfg.stop_on_first_violation {
        eprintln!("campaign: `--shards` refuses `--stop-on-violation`: a gated campaign cannot be sharded");
        std::process::exit(1);
    }
    let json = report::json_path();
    talft_obs::set_enabled(json.is_some());

    println!("# Fault-injection campaigns (SEU model: reg-zap, Q-zap1, Q-zap2)");
    println!(
        "# every dynamic step ≡ 0 mod {}, every site, {} corrupted values/site; \
         k≥2 rows sample {} plans (seed {:#x}); {} threads",
        cfg.effective_stride(),
        cfg.mutations_per_site,
        cfg.pair_samples,
        cfg.seed,
        cfg.threads,
    );
    println!("| benchmark | binary | k | plans | masked | detected | SDC | other | coverage | CEs dropped | batched ms | reference ms |");
    println!("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
    let mut rows = Vec::new();
    let mut counters = BTreeMap::new();
    for kern in kernels(Scale::Tiny).into_iter().take(n_kernels) {
        let c = compile(&kern.source, &CompileOptions::default())
            .unwrap_or_else(|e| fail(&format!("{}: {e}", kern.name)));
        let mut campaigns = vec![("protected", &c.protected.program, 1)];
        if baseline {
            campaigns.push(("baseline", &c.baseline.program, 1));
        }
        if k >= 2 {
            campaigns.push(("protected", &c.protected.program, k));
        }
        for (binary, program, k) in campaigns {
            let what = format!("{} ({binary} k={k})", kern.name);
            let golden =
                golden_run(program, &cfg).unwrap_or_else(|e| fail(&format!("{what}: {e}")));
            let plans = if k == 1 {
                single_fault_plans(program, &cfg, &golden)
            } else {
                multi_fault_plans(program, &cfg, &golden, k)
            };
            talft_obs::reset_all();
            let t = Instant::now();
            let report = run_plan_campaign(program, &cfg, &golden, &plans);
            let batched_ns = ns(t);
            for (name, n) in talft_obs::snapshot().counters {
                *counters.entry(name).or_insert(0u64) += n;
            }
            let reference = (reference || k >= 2).then(|| {
                let t = Instant::now();
                let r = run_plan_campaign_reference(program, &cfg, &golden, &plans);
                (r, ns(t))
            });
            if let Some((r, _)) = reference.as_ref().filter(|(r, _)| *r != report) {
                fail(&format!(
                    "{what}: the batched report differs from the reference\n\
                     batched:   {report:?}\nreference: {r:?}"
                ));
            }
            let shards = shards.then(|| {
                shard_legs(program, &cfg, &golden, &plans, &report)
                    .unwrap_or_else(|e| fail(&format!("{what}: {e}")))
            });
            let row = Row {
                name: kern.name,
                binary,
                k,
                report,
                batched_ns,
                reference,
                shards,
            };
            println!("{}", row.line());
            rows.push(row);
        }
    }
    println!();
    if shards {
        print_shards(&rows);
    }
    print_totals(&rows);
    report::emit(json, || document(&cfg, k, &rows, &counters));
    let violated: Vec<&str> = rows
        .iter()
        .filter(|r| r.binary == "protected" && r.k == 1 && !r.report.fault_tolerant())
        .map(|r| r.name)
        .collect();
    if !violated.is_empty() {
        println!(
            "RESULT: THEOREM 4 VIOLATION: the protected k=1 campaign of {} is not fault-tolerant.",
            violated.join(", ")
        );
        std::process::exit(2);
    }
    let mut held = String::from("every protected k=1 campaign is fault-tolerant (Theorem 4 holds)");
    if rows.iter().any(|r| r.reference.is_some()) {
        held += "; every reference report equals the batched one";
    }
    if shards {
        held += "; every shard merge and kill/resume equals the whole grid";
    }
    println!("RESULT: {held}.");
}

/// Report a failure of the run and exit 1.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl Row {
    /// The row's line of the campaign table.
    fn line(&self) -> String {
        let r = &self.report;
        let reference = self
            .reference
            .as_ref()
            .map_or("—".into(), |(_, t)| format!("{:.1}", ms(*t)));
        format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {:.1}% | {} | {:.1} | {reference} |",
            self.name,
            self.binary,
            self.k,
            r.total,
            r.masked,
            r.detected,
            r.sdc,
            r.other_violations,
            100.0 * r.coverage(),
            r.violations_truncated,
            ms(self.batched_ns),
        )
    }

    fn json(&self) -> Json {
        let mut fields = vec![
            ("name", Json::str(self.name)),
            ("binary", Json::str(self.binary)),
            ("k", Json::U64(u64::from(self.k))),
            ("batched_ns", Json::U64(self.batched_ns)),
            ("report", report_to_json(&self.report)),
        ];
        if let Some((r, t)) = &self.reference {
            fields.push(("reference_ns", Json::U64(*t)));
            fields.push(("reference", report_to_json(r)));
        }
        Json::obj(fields)
    }
}

/// Run the `--shards` leg over one row's plans and demand that every merge
/// equals `whole`, the row's report.
fn shard_legs(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
    plans: &[FaultPlan],
    whole: &CampaignReport,
) -> Result<Shards, String> {
    let run = |spec, every, resume: Option<&CampaignCheckpoint>, control: ShardControl| {
        run_shard_campaign(program, cfg, golden, plans, spec, every, resume, |_| {
            control
        })
        .map_err(|e| e.to_string())
    };
    let complete = |spec| match run(spec, 0, None, ShardControl::Continue)? {
        ShardOutcome::Complete(r) => Ok::<_, String>(r),
        ShardOutcome::Interrupted(_) => unreachable!("no Stop issued"),
    };
    let fingerprint = grid_fingerprint(golden, plans);
    let part = |spec: ShardSpec, report| ShardPart {
        spec,
        fingerprint,
        plans: spec.range(plans.len()).len() as u64,
        report,
    };
    let identical = |parts: &[ShardPart], what: &str| match merge_shard_reports(parts) {
        Ok(merged) if merged == *whole => Ok(()),
        Ok(merged) => Err(format!(
            "{what} differs from the whole grid\nmerged: {merged:?}\nwhole:  {whole:?}"
        )),
        Err(e) => Err(format!("{what} failed: {e}")),
    };
    let mut partitions = Vec::new();
    for count in SHARD_COUNTS {
        let (mut max_ns, mut sum_ns, mut parts) = (0, 0, Vec::new());
        for i in 0..count {
            let spec = ShardSpec::new(i, count).expect("valid spec");
            let t = Instant::now();
            let report = complete(spec)?;
            let shard_ns = ns(t);
            max_ns = max_ns.max(shard_ns);
            sum_ns += shard_ns;
            parts.push(part(spec, report));
        }
        identical(&parts, &format!("the {count}-way merge"))?;
        partitions.push((count, max_ns, sum_ns));
    }
    let halves = [0, 1].map(|i| ShardSpec::new(i, 2).expect("valid spec"));
    let (resumed, done_at_kill) = match run(halves[0], RESUME_EVERY, None, ShardControl::Stop)? {
        ShardOutcome::Interrupted(cp) => {
            let text = cp.to_json().to_string();
            let restored = Json::parse(&text)
                .map_err(|e| e.to_string())
                .and_then(|j| CampaignCheckpoint::from_json(&j))?;
            if restored != cp {
                return Err("the checkpoint did not survive its JSON form".into());
            }
            match run(
                halves[0],
                RESUME_EVERY * 3 + 1,
                Some(&restored),
                ShardControl::Continue,
            )? {
                ShardOutcome::Complete(r) => (r, cp.done),
                ShardOutcome::Interrupted(_) => unreachable!("no Stop issued on resume"),
            }
        }
        // A shard smaller than one chunk completes before any checkpoint.
        ShardOutcome::Complete(r) => (r, 0),
    };
    let parts = [
        part(halves[0], resumed),
        part(halves[1], complete(halves[1])?),
    ];
    identical(&parts, "the kill/resume merge")?;
    Ok(Shards {
        partitions,
        done_at_kill,
    })
}

/// The E18 tables of the rows' `--shards` legs. Sharding refuses gated
/// campaigns, so each row's report covers all its plans.
fn print_shards(rows: &[Row]) {
    println!("# every shard merge equals the row's report bit for bit");
    println!("| benchmark | binary | k | plans | whole ms | N | max shard ms | sum shard ms |");
    println!("|---|---|---:|---:|---:|---:|---:|---:|");
    let legs = || rows.iter().filter_map(|r| Some((r, r.shards.as_ref()?)));
    for (r, s) in legs() {
        for &(n, max_ns, sum_ns) in &s.partitions {
            println!(
                "| {} | {} | {} | {} | {:.1} | {n} | {:.1} | {:.1} |",
                r.name,
                r.binary,
                r.k,
                r.report.total,
                ms(r.batched_ns),
                ms(max_ns),
                ms(sum_ns),
            );
        }
    }
    println!();
    println!(
        "# shard 0 of 2 stopped at its first checkpoint (every {RESUME_EVERY} plans), \
         resumed every {} plans",
        RESUME_EVERY * 3 + 1
    );
    println!("| benchmark | binary | k | plans | done at kill |");
    println!("|---|---|---:|---:|---:|");
    for (r, s) in legs() {
        let (name, binary, k, plans) = (r.name, r.binary, r.k, r.report.total);
        println!("| {name} | {binary} | {k} | {plans} | {} |", s.done_at_kill);
    }
    println!();
}

/// One summary line per (binary, k) class of rows.
fn print_totals(rows: &[Row]) {
    let mut classes: Vec<(&str, u32)> = Vec::new();
    for r in rows {
        if !classes.contains(&(r.binary, r.k)) {
            classes.push((r.binary, r.k));
        }
    }
    for (binary, k) in classes {
        let class: Vec<&Row> = rows
            .iter()
            .filter(|r| (r.binary, r.k) == (binary, k))
            .collect();
        let sum = |f: fn(&CampaignReport) -> u64| class.iter().map(|r| f(&r.report)).sum();
        let t = CampaignReport {
            total: sum(|r| r.total),
            masked: sum(|r| r.masked),
            detected: sum(|r| r.detected),
            sdc: sum(|r| r.sdc),
            other_violations: sum(|r| r.other_violations),
            ..CampaignReport::default()
        };
        let batched: u64 = class.iter().map(|r| r.batched_ns).sum();
        let reference: Option<u64> = class.iter().map(|r| Some(r.reference.as_ref()?.1)).sum();
        let reference = reference.map_or(String::new(), |t| {
            format!(", reference {:.2} s", ms(t) / 1e3)
        });
        println!(
            "# {binary} k={k}: {} rows, {} plans: {} masked, {} detected, {} SDC, {} other, \
             coverage {:.1}%; batched {:.2} s{reference}",
            class.len(),
            t.total,
            t.masked,
            t.detected,
            t.sdc,
            t.other_violations,
            100.0 * t.coverage(),
            ms(batched) / 1e3,
        );
    }
}

/// The `talft.campaign.v1` document.
fn document(
    cfg: &CampaignConfig,
    k: u32,
    rows: &[Row],
    counters: &BTreeMap<&'static str, u64>,
) -> Json {
    let count = |name: &str| Json::U64(counters.get(name).copied().unwrap_or(0));
    let demote = DEMOTE_CAUSES.map(|c| (c, count(&format!("faultsim.batch.demote.{c}"))));
    let batch = BATCH
        .map(|(key, name)| (key, count(name)))
        .into_iter()
        .chain([("demote", Json::obj(demote))]);
    Report::new(SCHEMA)
        .field("stride", Json::U64(cfg.effective_stride()))
        .field("values", Json::U64(cfg.mutations_per_site as u64))
        .field("k", Json::U64(u64::from(k)))
        .field("samples", Json::U64(cfg.pair_samples as u64))
        .field("seed", Json::U64(cfg.seed))
        .field("threads", Json::U64(cfg.threads as u64))
        .field("rows", Json::Array(rows.iter().map(Row::json).collect()))
        .field(
            "checkpoints",
            Json::obj(CHECKPOINTS.map(|(key, name)| (key, count(name)))),
        )
        .field("batch", Json::obj(batch))
        .build()
}

/// The `--check` gate: the count invariants, never timings. Sums and
/// products are taken in `u128`, so a forged count cannot wrap past them.
fn gate(json: &Json) -> Result<(), String> {
    let count = |path: &str| -> Result<u64, String> {
        path.split('.')
            .try_fold(json, |j, key| j.get(key))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing {path}"))
    };
    for key in ["seeks", "steps_saved"] {
        if count(&format!("checkpoints.{key}"))? == 0 {
            return Err(format!(
                "checkpoint ring was never used (checkpoints.{key} == 0)"
            ));
        }
    }
    let lanes = count("batch.lanes")?;
    if lanes == 0 {
        return Err("batched engine never packed a lane (batch.lanes == 0)".into());
    }
    // The demotion-cause taxonomy is total, and the queue/`d` shadows keep
    // the residual scalar work small: at most 2% of admitted lanes may
    // demote. Both are count invariants — a regression here means shadow
    // coverage shrank, not that the machine got slower.
    let demotions = count("batch.demotions")?;
    let mut cause_sum = 0u128;
    for c in DEMOTE_CAUSES {
        cause_sum += u128::from(count(&format!("batch.demote.{c}"))?);
    }
    if cause_sum != u128::from(demotions) {
        return Err(format!(
            "per-cause demotions sum to {cause_sum} but batch.demotions is {demotions}"
        ));
    }
    if u128::from(demotions) * 50 > u128::from(lanes) {
        return Err(format!(
            "batch.demotions {demotions} exceeds the 2% budget of batch.lanes {lanes}"
        ));
    }
    count("batch.multi_lanes")?;
    let rows = json
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("rows is not an array")?;
    if rows.is_empty() {
        return Err("rows is empty".into());
    }
    // The differential, re-proved offline row by row: any divergence is a
    // verdict-exactness regression, not a tuning matter.
    for row in rows {
        let name = row.get("name").and_then(Json::as_str).unwrap_or("?");
        let in_row = |e: String| format!("kernel {name}: {e}");
        let binary = wire::need_str(row, "binary").map_err(in_row)?;
        let k = wire::need_u64(row, "k").map_err(in_row)?;
        let at = |msg: String| format!("kernel {name} ({binary} k={k}): {msg}");
        let report = report_from_json(wire::need(row, "report").map_err(at)?).map_err(at)?;
        match row.get("reference") {
            Some(r) if report_from_json(r).map_err(at)? != report => {
                return Err(at(
                    "the reference report differs from the batched one".into()
                ));
            }
            None if k >= 2 => return Err(at("no reference report".into())),
            _ => {}
        }
        if binary == "protected" && k == 1 && !report.fault_tolerant() {
            return Err(at(
                "not fault-tolerant on a protected binary (Theorem 4 violated)".into(),
            ));
        }
    }
    Ok(())
}
