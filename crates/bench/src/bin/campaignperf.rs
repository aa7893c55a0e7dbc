//! **campaignperf** — the E16/E19 engine differential: the bit-parallel
//! batched campaign engine timed against the sequential reference on the
//! same plan sets, plus the entailment-cache hit rate over the suite
//! checker workload.
//!
//! Two phases, each preceded by a registry reset so its numbers are
//! attributable:
//!
//! 1. **checker** — compile every Tiny-scale kernel and `check_program` its
//!    protected binary with the entailment cache enabled; report
//!    `logic.cache.hit` / `logic.cache.miss` and the derived hit rate;
//! 2. **campaign** — per kernel, build the k=1 plan set once, then run
//!    the sequential [`run_plan_campaign_reference`] on it, and
//!    [`run_plan_campaign`] (the batched engine) at the pinned thread
//!    count. Both reports must be bit-identical and SDC must be zero
//!    (Theorem 4); the row records each engine's wall time and plans/sec,
//!    and the document carries per-engine verdict totals so `--check` can
//!    re-prove the agreement offline. The `batch` object breaks demotions
//!    down by cause (the `faultsim.batch.demote.*` counters) and records
//!    the multi-strike lane count, so the residual scalar work is
//!    attributable from the report alone.
//!
//! Usage: `cargo run --release -p talft-bench --bin campaignperf
//!          [--json <path>] [--check <path>] [--threads N] [--stride N]`
//!
//! `--json` defaults to `BENCH_campaign.json`; `--threads` (the batched
//! engine's) defaults to 4 (pinned, not `available_parallelism`, so rows
//! are comparable across machines); `--stride` (campaign time stride)
//! defaults to 3. `--check <path>` validates an existing report through
//! [`report::check`] and gates on the *count* invariants — nonzero
//! checkpoint reuse, nonzero cache hits, nonzero batched lanes, a
//! per-cause demotion breakdown that sums to the demotion total, a
//! demoted-lane fraction of at most 2%, zero SDC, and field-by-field
//! equality of the per-engine verdict totals — never on timings, which
//! vary by machine.

use std::time::Instant;

use talft_bench::report::{self, campaign_json, Report};
use talft_compiler::{compile, CompileOptions};
use talft_core::check_program;
use talft_faultsim::{
    golden_run, run_plan_campaign, run_plan_campaign_reference, single_fault_plans, CampaignConfig,
    CampaignReport,
};
use talft_obs::Json;
use talft_suite::{kernels, Scale};

/// The schema tag this bin writes and `--check` accepts.
const SCHEMA: &str = "talft.campaignperf.v6";

/// Required top-level keys of a [`SCHEMA`] document.
const REQUIRED: &[&str] = &[
    "schema",
    "threads",
    "stride",
    "cache",
    "rows",
    "totals",
    "checkpoints",
    "batch",
];

/// The verdict-count fields both engines must agree on, exactly. These are
/// the u64 fields of [`campaign_json`]; timings are deliberately absent.
const VERDICT_FIELDS: &[&str] = &[
    "total",
    "masked",
    "detected",
    "sdc",
    "other_violations",
    "engine_errors",
    "incomplete_plans",
];

/// The demotion-cause counters, in taxonomy order; `--check` demands they
/// sum exactly to `batch.demotions`.
const DEMOTE_CAUSES: &[&str] = &["mem_commit", "gpr_hi", "control_fork", "terminal"];

/// Summed verdict counts for one engine across every kernel.
#[derive(Default)]
struct VerdictTotals {
    total: u64,
    masked: u64,
    detected: u64,
    sdc: u64,
    other_violations: u64,
    engine_errors: u64,
    incomplete_plans: u64,
}

impl VerdictTotals {
    fn add(&mut self, r: &CampaignReport) {
        self.total += r.total;
        self.masked += r.masked;
        self.detected += r.detected;
        self.sdc += r.sdc;
        self.other_violations += r.other_violations;
        self.engine_errors += r.engine_errors;
        self.incomplete_plans += r.incomplete_plans;
    }

    fn json(&self) -> Json {
        Json::obj([
            ("total", Json::U64(self.total)),
            ("masked", Json::U64(self.masked)),
            ("detected", Json::U64(self.detected)),
            ("sdc", Json::U64(self.sdc)),
            ("other_violations", Json::U64(self.other_violations)),
            ("engine_errors", Json::U64(self.engine_errors)),
            ("incomplete_plans", Json::U64(self.incomplete_plans)),
        ])
    }
}

fn main() {
    report::flags(&["--check", "--json", "--threads", "--stride"], &[]);
    if let Some(path) = report::arg::<String>("--check") {
        report::check(&path, SCHEMA, REQUIRED, gate);
    }
    let threads: usize = report::arg("--threads").unwrap_or(4);
    let stride = report::arg("--stride").unwrap_or(3);
    let path = report::json_path().unwrap_or_else(|| "BENCH_campaign.json".into());

    talft_obs::set_enabled(true);
    let ks = kernels(Scale::Tiny);

    // Phase 1: checker with the entailment cache on. Compile outside the
    // measured region; check inside.
    let mut compiled = Vec::new();
    for k in &ks {
        match compile(&k.source, &CompileOptions::default()) {
            Ok(c) => compiled.push((k.name, c)),
            Err(e) => {
                eprintln!("error: {}: {e}", k.name);
                std::process::exit(1);
            }
        }
    }
    talft_obs::reset_all();
    for (name, c) in &mut compiled {
        if let Err(e) = check_program(&c.protected.program, &mut c.protected.arena) {
            eprintln!("error: {name} failed the checker: {e}");
            std::process::exit(1);
        }
    }
    let checker = talft_obs::snapshot();
    let cache_hits = counter(&checker, "logic.cache.hit");
    let cache_misses = counter(&checker, "logic.cache.miss");
    let hit_rate = rate(cache_hits, cache_misses);

    // Phase 2: campaign differential, threads pinned.
    let cfg = CampaignConfig {
        stride,
        mutations_per_site: 2,
        threads,
        ..CampaignConfig::default()
    };
    talft_obs::reset_all();
    let mut rows = Vec::new();
    let (mut tot_plans, mut tot_ref_ns, mut tot_bat_ns) = (0u64, 0u64, 0u64);
    let (mut ref_tot, mut bat_tot) = (VerdictTotals::default(), VerdictTotals::default());
    for (name, c) in &compiled {
        let golden = match golden_run(&c.protected.program, &cfg) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("error: {name}: {e}");
                std::process::exit(1);
            }
        };
        let plans = single_fault_plans(&c.protected.program, &cfg, &golden);
        let t0 = Instant::now();
        let ref_rep = run_plan_campaign_reference(&c.protected.program, &cfg, &golden, &plans);
        let ref_ns = ns(t0.elapsed());
        let t0 = Instant::now();
        let bat_rep = run_plan_campaign(&c.protected.program, &cfg, &golden, &plans);
        let bat_ns = ns(t0.elapsed());
        if bat_rep != ref_rep {
            eprintln!("error: {name}: batched engine report diverged from the reference engine");
            std::process::exit(1);
        }
        if bat_rep.sdc != 0 {
            eprintln!("error: {name}: SDC on a protected binary (Theorem 4 violated)");
            std::process::exit(1);
        }
        let plans_n = plans.len() as u64;
        tot_plans += plans_n;
        tot_ref_ns += ref_ns;
        tot_bat_ns += bat_ns;
        ref_tot.add(&ref_rep);
        bat_tot.add(&bat_rep);
        eprintln!(
            "{name:>10}: {plans_n:>6} plans  reference {:>10.0} plans/s  batched {:>10.0} plans/s  ({:.2}x)",
            per_sec(plans_n, ref_ns),
            per_sec(plans_n, bat_ns),
            ratio(ref_ns, bat_ns),
        );
        rows.push(Json::obj([
            ("name", Json::str(*name)),
            ("plans", Json::U64(plans_n)),
            ("reference_ns", Json::U64(ref_ns)),
            ("batched_ns", Json::U64(bat_ns)),
            (
                "reference_plans_per_sec",
                Json::F64(per_sec(plans_n, ref_ns)),
            ),
            ("batched_plans_per_sec", Json::F64(per_sec(plans_n, bat_ns))),
            ("speedup", Json::F64(ratio(ref_ns, bat_ns))),
            ("sdc", Json::U64(bat_rep.sdc)),
            ("report", campaign_json(&bat_rep)),
        ]));
    }
    let campaign = talft_obs::snapshot();

    let json = Report::new(SCHEMA)
        .field("threads", Json::U64(threads as u64))
        .field("stride", Json::U64(stride))
        .field("kernels", Json::U64(ks.len() as u64))
        .field(
            "cache",
            Json::obj([
                ("hits", Json::U64(cache_hits)),
                ("misses", Json::U64(cache_misses)),
                ("hit_rate", Json::F64(hit_rate)),
            ]),
        )
        .field("rows", Json::Array(rows))
        .field(
            "totals",
            Json::obj([
                ("plans", Json::U64(tot_plans)),
                ("reference_ns", Json::U64(tot_ref_ns)),
                ("batched_ns", Json::U64(tot_bat_ns)),
                (
                    "reference_plans_per_sec",
                    Json::F64(per_sec(tot_plans, tot_ref_ns)),
                ),
                (
                    "batched_plans_per_sec",
                    Json::F64(per_sec(tot_plans, tot_bat_ns)),
                ),
                ("speedup", Json::F64(ratio(tot_ref_ns, tot_bat_ns))),
                (
                    "verdicts",
                    Json::obj([("reference", ref_tot.json()), ("batched", bat_tot.json())]),
                ),
            ]),
        )
        .field(
            "checkpoints",
            Json::obj([
                (
                    "seeks",
                    Json::U64(counter(&campaign, "campaign.checkpoint.seeks")),
                ),
                (
                    "steps_saved",
                    Json::U64(counter(&campaign, "campaign.checkpoint.steps_saved")),
                ),
                (
                    "converged_early",
                    Json::U64(counter(&campaign, "campaign.converged_early")),
                ),
                (
                    "converged_steps_saved",
                    Json::U64(counter(&campaign, "campaign.converged.steps_saved")),
                ),
            ]),
        )
        .field(
            "batch",
            Json::obj([
                (
                    "lanes",
                    Json::U64(counter(&campaign, "faultsim.batch.lanes")),
                ),
                (
                    "multi_lanes",
                    Json::U64(counter(&campaign, "faultsim.batch.multi_lanes")),
                ),
                (
                    "demotions",
                    Json::U64(counter(&campaign, "faultsim.batch.demotions")),
                ),
                (
                    "scalar_routed",
                    Json::U64(counter(&campaign, "faultsim.batch.scalar_routed")),
                ),
                (
                    "demote",
                    Json::obj(DEMOTE_CAUSES.iter().map(|c| {
                        (
                            *c,
                            Json::U64(counter(&campaign, &format!("faultsim.batch.demote.{c}"))),
                        )
                    })),
                ),
            ]),
        )
        .build();
    report::emit(Some(path), || json);

    eprintln!(
        "totals: {tot_plans} plans, batched {:.2}x over the reference, cache hit rate {:.1}%",
        ratio(tot_ref_ns, tot_bat_ns),
        hit_rate * 100.0
    );
}

fn counter(snap: &talft_obs::Snapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn per_sec(n: u64, nanos: u64) -> f64 {
    if nanos == 0 {
        0.0
    } else {
        n as f64 * 1e9 / nanos as f64
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
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
    if count("checkpoints.seeks")? == 0 {
        return Err("checkpoint ring was never used (checkpoints.seeks == 0)".into());
    }
    if count("cache.hits")? == 0 {
        return Err("entailment cache recorded zero hits".into());
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
    for row in rows {
        let name = row.get("name").and_then(Json::as_str).unwrap_or("?");
        if row.get("sdc").and_then(Json::as_u64) != Some(0) {
            return Err(format!("kernel {name} reports SDC on a protected binary"));
        }
        if row.get("batched_ns").and_then(Json::as_u64).is_none() {
            return Err(format!("kernel {name} is missing batched_ns"));
        }
    }
    // The differential, re-proved offline: both engines' summed verdict
    // counts must agree field-by-field. Any divergence is a
    // verdict-exactness regression, not a tuning matter.
    for field in VERDICT_FIELDS {
        let r = count(&format!("totals.verdicts.reference.{field}"))?;
        let b = count(&format!("totals.verdicts.batched.{field}"))?;
        if b != r {
            return Err(format!(
                "engines disagree on {field}: reference={r} batched={b}"
            ));
        }
    }
    if count("totals.verdicts.reference.sdc")? != 0 {
        return Err("protected-suite totals report nonzero SDC".into());
    }
    Ok(())
}
