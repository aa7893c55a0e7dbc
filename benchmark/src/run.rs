//! One run of one workload: repeated set-up, a warm-up pass, timed passes
//! for `--seconds`, and the metrics the run prints.
//!
//! Every time a run reports is scaled to the machine's quiet speed by the
//! reference loop timed around its pass (see [`crate::speed`]). The
//! untraced run (`--trace 0`) reports the end-to-end metrics with the span
//! recorder and `talft-obs` off. The traced run (`--trace 1`) alternates
//! untraced and traced passes, so `bench.trace_overhead` compares passes
//! made under the same conditions, and reports the per-layer times from the
//! traced ones. The `talft-obs` counters come from one extra counting pass
//! after the timed ones, so their cost never lands in a timed pass. Both
//! print the metrics `BENCHMARK.json` declares, in its order.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

use crate::metrics::{spec, LAYERS, RATIO_BASES, SPAN_BUSY, TAIL};
use crate::speed::{bracketed, REF_QUIET_S};
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::{busy_s, layer_self_s, Span};
use crate::workload::{
    attempted, replay_compiler, run_pass, setup, suite_fig10, Ctx, Gate, Inputs, PassOut, RunError,
    Sizes, Workload,
};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured time; passes continue until it is spent and at least
    /// [`Sizes::min_passes`] ran.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub traced: bool,
    /// Use [`Sizes::smoke`].
    pub smoke: bool,
    /// Campaign worker threads.
    pub threads: usize,
    /// Test-only hook: corrupt the reference of this gate.
    pub corrupt: Option<Gate>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// For a ratio: the value of its base.
    pub base: Option<f64>,
    /// For the tail: `(percentile, samples, samples beyond it)`.
    pub tail: Option<(f64, usize, usize)>,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted over the timed passes.
    pub attempted: u64,
    /// Operations that failed over the timed passes.
    pub failed: u64,
    /// Wall time of each timed pass, in order.
    pub pass_s: Vec<f64>,
    /// The reference loop's time around each timed pass, in order.
    pub ref_s: Vec<f64>,
    /// The metrics, in dictionary order.
    pub metrics: Vec<Value>,
    /// The exact per-pass counts of the last timed pass.
    pub counts: BTreeMap<&'static str, f64>,
    /// Every span recorded (empty for an untraced run).
    pub spans: Vec<Span>,
}

struct Pass {
    traced: bool,
    /// Wall time of the set-up that made this pass's inputs.
    setup_s: f64,
    wall_s: f64,
    /// The reference loop's time around the pass.
    ref_s: f64,
    cpu_s: f64,
    out: PassOut,
    spans: Range<usize>,
}

impl Pass {
    /// Turns a time measured in this pass into one at the quiet speed.
    fn scale(&self) -> f64 {
        REF_QUIET_S / self.ref_s
    }
}

fn timed_pass(
    w: Workload,
    inputs: &Inputs,
    ctx: &mut Ctx,
    traced: bool,
    setup_s: f64,
) -> Result<Pass, RunError> {
    ctx.tracer.set_on(traced);
    let first = ctx.tracer.spans().len();
    let ((r, cpu_s), wall_s, ref_s) = bracketed(|| {
        let cpu0 = cpu_s();
        let open = ctx.tracer.begin("bench.pass", 0);
        let r = run_pass(w, inputs, ctx);
        ctx.tracer.end(open);
        (r, cpu_s() - cpu0)
    });
    ctx.tracer.set_on(false);
    r.map_err(RunError::Gate)?;
    Ok(Pass {
        traced,
        setup_s,
        wall_s,
        ref_s,
        cpu_s,
        out: ctx.take_out(),
        spans: first..ctx.tracer.spans().len(),
    })
}

/// The `k` passes of one kind (traced or not) with the smallest scaled wall
/// time, fastest first.
///
/// Scaling removes most of the machine's slow periods, but not the shortest
/// ones, which fall inside a pass and miss the reference timings around it.
/// The fastest scaled passes are the ones they touched least. Everything a
/// pass counts is the same on every pass.
fn fastest(passes: &[Pass], traced: bool, k: usize) -> Vec<&Pass> {
    let mut v: Vec<&Pass> = passes.iter().filter(|p| p.traced == traced).collect();
    v.sort_by(|a, b| (a.wall_s * a.scale()).total_cmp(&(b.wall_s * b.scale())));
    v.truncate(k);
    v
}

/// Run one workload.
///
/// # Errors
///
/// A failed set-up or a correctness gate; no metrics are produced then.
pub fn run(cfg: &RunConfig) -> Result<Outcome, RunError> {
    let w = cfg.workload;
    let sizes = if cfg.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let (min_passes, measured) = (sizes.min_passes, sizes.measured_passes);
    // Every pass gets a fresh set-up, so `setup_s` has as many set-ups to
    // choose from as there are passes.
    let fresh_inputs = || {
        let t = Instant::now();
        let made = setup(w, cfg.seed, &sizes)?;
        Ok::<_, RunError>((made, t.elapsed().as_secs_f64()))
    };
    let mut ctx = Ctx::new(cfg.threads, cfg.seed, sizes.clone(), cfg.corrupt);

    let (mut inputs, mut setup_s) = fresh_inputs()?;
    if !cfg.smoke {
        timed_pass(w, &inputs, &mut ctx, false, setup_s)?;
    }
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let traced_n = passes.iter().filter(|p| p.traced).count();
        let untraced_n = passes.len() - traced_n;
        // Equal pools: the fastest `measured` of a larger pool are faster,
        // which would bias `bench.trace_overhead`.
        let done = if cfg.traced {
            traced_n == untraced_n && traced_n >= measured
        } else {
            untraced_n >= min_passes
        };
        if done && t0.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
        if !cfg.smoke || !passes.is_empty() {
            (inputs, setup_s) = fresh_inputs()?;
        }
        let traced = cfg.traced && passes.len() % 2 == 1;
        passes.push(timed_pass(w, &inputs, &mut ctx, traced, setup_s)?);
    }
    let snapshot = if cfg.traced {
        talft_obs::reset_all();
        talft_obs::set_enabled(true);
        let counted = run_pass(w, &inputs, &mut ctx);
        talft_obs::set_enabled(false);
        counted.map_err(RunError::Gate)?;
        ctx.take_out();
        talft_obs::snapshot()
    } else {
        talft_obs::Snapshot::default()
    };

    ctx.tracer.set_on(cfg.traced);
    let replay_from = ctx.tracer.spans().len();
    let (replayed, _, replay_ref_s) = bracketed(|| replay_compiler(&inputs, &mut ctx));
    replayed.map_err(RunError::Gate)?;
    ctx.tracer.set_on(false);
    let replay = Replay {
        spans: &ctx.tracer.spans()[replay_from..],
        scale: REF_QUIET_S / replay_ref_s,
    };

    let metrics = if cfg.traced {
        per_layer(&passes, measured, ctx.tracer.spans(), &replay, &snapshot)
    } else {
        let fig10 = match passes.last().and_then(|p| p.out.fig10) {
            Some(f) => f,
            None => suite_fig10(w, &ctx)?,
        };
        let mut m = end_to_end(&passes, measured, min_passes);
        m.insert("cycles_overhead_geomean", (fig10.geomean, None, None));
        m.insert("code_instrs_protected", (fig10.instrs as f64, None, None));
        m
    };
    let declared = if cfg.traced {
        &spec().per_layer
    } else {
        &spec().end_to_end
    };
    if let Some(name) = metrics
        .keys()
        .find(|&&k| !declared.iter().any(|d| d.name == k))
    {
        panic!("metric {name} is measured but BENCHMARK.json does not declare it");
    }
    // A count of an event the workload never meets was never tallied: 0.
    let metrics = declared
        .iter()
        .map(|d| {
            let (value, base, tail) = metrics
                .get(d.name.as_str())
                .copied()
                .unwrap_or((0.0, None, None));
            Value {
                name: &d.name,
                value,
                unit: &d.unit,
                base,
                tail,
            }
        })
        .collect();
    Ok(Outcome {
        attempted: passes
            .iter()
            .map(|p| attempted(w, &p.out))
            .sum::<u64>()
            .max(1),
        failed: passes.iter().map(|p| p.out.failed).sum(),
        pass_s: passes.iter().map(|p| p.wall_s).collect(),
        ref_s: passes.iter().map(|p| p.ref_s).collect(),
        metrics,
        counts: passes
            .last()
            .map(|p| p.out.counts.clone())
            .unwrap_or_default(),
        spans: ctx.tracer.spans().to_vec(),
    })
}

type Entry = (f64, Option<f64>, Option<(f64, usize, usize)>);

/// End-to-end metrics of the untraced passes, every time scaled by its
/// pass's [`Pass::scale`]. Pass times come from the `measured` fastest
/// passes and set-up time from the `measured` fastest set-ups. Per-input
/// times pool every input of every pass: inputs take milliseconds, so a
/// pass's fastest inputs are the ones a slow period happened to miss, and
/// choosing them adds noise where pooling averages it out. The tail
/// percentile is chosen from the sample count of `min_passes` passes,
/// which every run reaches, so it does not change between runs.
fn end_to_end(
    passes: &[Pass],
    measured: usize,
    min_passes: usize,
) -> BTreeMap<&'static str, Entry> {
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let mut setups: Vec<f64> = untraced.iter().map(|p| p.setup_s * p.scale()).collect();
    setups.sort_by(f64::total_cmp);
    setups.truncate(measured);
    let best = fastest(passes, false, measured);
    let walls: Vec<f64> = best.iter().map(|p| p.wall_s * p.scale()).collect();
    let items: u64 = best.iter().map(|p| p.out.items).sum();
    let per_pass = untraced
        .iter()
        .map(|p| p.out.input_ms.len())
        .min()
        .unwrap_or(0);
    let samples: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.out.input_ms.iter().map(|ms| ms * p.scale()))
        .collect();
    let p = tail_percentile(per_pass * min_passes);
    let (tail, beyond) = percentile(&samples, p);
    BTreeMap::from([
        ("setup_s", (median(&setups), None, None)),
        ("pass_s", (median(&walls), None, None)),
        (
            "items_per_s",
            (items as f64 / walls.iter().sum::<f64>(), None, None),
        ),
        ("program_ms_p50", (median(&samples), None, None)),
        (TAIL, (tail, None, Some((p, samples.len(), beyond)))),
        ("peak_rss_mb", (peak_rss_mb(), None, None)),
    ])
}

/// The compiler replay's spans, and the scale of the reference timings
/// around it.
struct Replay<'a> {
    spans: &'a [Span],
    scale: f64,
}

/// Per-layer metrics: times from the measured traced passes (means, so the
/// layers' self times add up to the pass), each scaled by its pass's
/// [`Pass::scale`] like the end-to-end times; counts per pass.
fn per_layer(
    passes: &[Pass],
    measured: usize,
    spans: &[Span],
    replay: &Replay,
    snap: &talft_obs::Snapshot,
) -> BTreeMap<&'static str, Entry> {
    let traced = fastest(passes, true, measured);
    let untraced = fastest(passes, false, measured);
    let t = traced.len().max(1) as f64;
    let u = untraced.len().max(1) as f64;

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let add = |v: &mut BTreeMap<&'static str, f64>, k: &'static str, x: f64| {
        *v.entry(k).or_insert(0.0) += x;
    };
    let mut busy: BTreeMap<&'static str, f64> = busy_s(replay.spans)
        .into_iter()
        .map(|(name, b)| (name, b * replay.scale))
        .collect();
    let scaled_wall = |ps: &[&Pass]| {
        ps.iter().map(|p| p.wall_s * p.scale()).sum::<f64>() / ps.len().max(1) as f64
    };
    let traced_wall = scaled_wall(&traced);
    let untraced_wall = scaled_wall(&untraced);
    let mut unattributed = traced_wall;
    for p in &traced {
        let (s, k) = (&spans[p.spans.clone()], p.scale() / t);
        for (name, b) in busy_s(s) {
            *busy.entry(name).or_insert(0.0) += b * k;
        }
        let selfs = layer_self_s(s, p.spans.start);
        for (layer, metric) in LAYERS {
            add(&mut v, metric, selfs.get(layer).copied().unwrap_or(0.0) * k);
        }
        unattributed -= selfs.values().sum::<f64>() * k;
        for (&c, &x) in &p.out.counts {
            add(&mut v, c, x / t);
        }
        add(&mut v, "core.check.reject_busy_s", p.out.reject_s * k);
    }
    for (span, metric) in SPAN_BUSY {
        v.insert(metric, busy.get(span).copied().unwrap_or(0.0));
    }

    // talft-obs counts of the counting pass.
    let obs = |k: &str| snap.counters.get(k).copied().unwrap_or(0) as f64;
    for k in [
        "checker.blocks",
        "checker.instrs",
        "logic.query.eq",
        "logic.query.ge",
        "logic.interval.queries",
        "logic.fm.runs",
        "logic.fm.giveups",
        "logic.pcache.hit",
        "logic.pcache.miss",
        "faultsim.batch.lanes",
        "faultsim.batch.scalar_routed",
        "faultsim.batch.demotions",
        "campaign.checkpoint.seeks",
        "faultsim.retry.attempts",
    ] {
        v.insert(k, obs(k));
    }
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let lookups = obs("logic.cache.hit") + obs("logic.cache.miss");
    v.insert("logic.cache.lookups", lookups);
    v.insert(
        "logic.cache.hit_ratio",
        ratio(obs("logic.cache.hit"), lookups),
    );
    v.insert(
        "logic.interval.hit_ratio",
        ratio(obs("logic.interval.hit"), obs("logic.interval.queries")),
    );
    let plans = v.get("faultsim.plans.count").copied().unwrap_or(0.0);
    let lanes = obs("faultsim.batch.lanes");
    v.insert("faultsim.batch.admit_ratio", ratio(lanes, plans));
    v.insert(
        "faultsim.batch.demote_ratio",
        ratio(obs("faultsim.batch.demotions"), lanes),
    );
    v.insert(
        "campaign.converged_early_ratio",
        ratio(obs("campaign.converged_early"), plans),
    );

    v.insert("bench.traced_pass_s", traced_wall);
    v.insert("bench.untraced_pass_s", untraced_wall);
    v.insert(
        "bench.trace_overhead",
        ratio(traced_wall, untraced_wall) - 1.0,
    );
    v.insert("bench.unattributed_s", unattributed);
    v.insert(
        "bench.ref_s",
        median(&passes.iter().map(|p| p.ref_s).collect::<Vec<f64>>()),
    );
    v.insert(
        "bench.pass_cpu_s",
        untraced.iter().map(|p| p.cpu_s).sum::<f64>() / u,
    );

    let mut out: BTreeMap<&'static str, Entry> =
        v.iter().map(|(&k, &x)| (k, (x, None, None))).collect();
    for (r, b) in RATIO_BASES {
        let base = v.get(b).copied().unwrap_or(0.0);
        if let Some(e) = out.get_mut(r) {
            e.1 = Some(base);
        }
    }
    out
}

/// Peak resident set size (`VmHWM`), in MB; 0 where `/proc` is absent.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Process CPU time (user + system, every thread), in seconds; 0 where
/// `/proc` is absent. Resolution is one clock tick (10 ms).
fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}
