//! `talftc` — the TAL_FT command-line driver.
//!
//! ```text
//! talftc <file.wile|file.talft> [flags]
//!
//!   --emit-asm        print the (protected) program as .talft text
//!   --disasm          print a bare disassembly
//!   --lint            run the TF0xx lint engine (talft-analysis) before
//!                     type checking and print rustc-style diagnostics;
//!                     error-severity lints exit 4. With --lint,
//!                     --json=PATH writes the diagnostics as JSON
//!                     (schema talft.lint.v1) instead of the profile
//!   --zap-report=PATH
//!                     write the static zap-vulnerability report — every
//!                     per-cell k=1 verdict plus the compositional k=2
//!                     pair summary — as JSON (schema talft.zap.v1)
//!   --no-check        skip type checking
//!   --run             execute and print the observable trace
//!   --campaign[=N]    run a fault campaign (stride N, default 11)
//!   --campaign-k=K    fault multiplicity (default 1; K>=2 samples the
//!                     boundary outside the single-upset model — SDC there
//!                     is reported but is not a Theorem 4 violation)
//!   --seed=N          sampler seed for K>=2 campaigns
//!   --threads=N       campaign worker threads (default 1)
//!   --shards=N        split the campaign grid into N deterministic shards
//!                     (run through the checkpoint/merge layer; the merged
//!                     report is bit-identical to a whole-grid run)
//!   --shard=I         run only shard I of N (cross-process distribution);
//!                     the merged summary prints once all N shard reports
//!                     are on disk
//!   --resume          resume an interrupted shard from its durable
//!                     checkpoint (and skip shards whose reports exist)
//!   --checkpoint-dir=D
//!                     where shard reports + checkpoints live
//!                     (default `<input>.shards`)
//!   --checkpoint-every=M
//!                     plans between durable checkpoints (default 256)
//!   --max-steps=N     step budget for the golden run
//!   --baseline        operate on the unprotected baseline instead
//!   --time            report Figure 10-style cycles for this program
//!   --profile         enable instrumentation and print the metric table
//!                     (checker passes, solver queries, campaign verdicts)
//!                     to stderr at exit, plus the entailment-cache hit
//!                     rate after checking and campaign plans/sec
//!   --json=PATH       with --profile: also write the metric snapshot as
//!                     JSON (schema talft.profile.v1) to PATH
//! ```
//!
//! Exit codes (each failure class is distinct and stable):
//!
//! ```text
//!   0  success
//!   1  usage (unknown flag, unparsable flag value) / I/O / other errors
//!   2  parse, assembly, or compile error
//!   3  type error (talft_core::check_program rejected the program)
//!   4  error-severity lint fired under --lint
//!   5  Theorem 4 violation found by a k=1 campaign, or engine error in
//!      any campaign
//!   6  campaign interrupted — SIGTERM/SIGINT mid-shard (progress is
//!      checkpointed; re-run with --resume) or the golden run exhausted
//!      --max-steps (raise the budget and re-run)
//! ```
//!
//! Wile inputs go through the full reliability-transforming compiler;
//! `.talft` inputs are assembled directly.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use talft_compiler::{compile, CompileOptions};
use talft_core::check_program;
use talft_faultsim::{
    golden_run_retrying, grid_fingerprint, merge_shard_reports, multi_fault_plans,
    run_plan_campaign, run_shard_campaign, CampaignConfig, CampaignReport, FaultPlan, Golden,
    GoldenError, ShardControl, ShardOutcome, ShardPart, ShardSpec,
};
use talft_isa::{assemble, print_program, Program};
use talft_logic::ExprArena;
use talft_machine::run_program;
use talft_sim::{simulate, MachineModel};

/// Exit code 6: the campaign was interrupted (signal or step budget) and
/// can be continued, as opposed to having failed.
const EXIT_INTERRUPTED: u8 = 6;

/// The parsed command line (see the module docs for each flag).
#[derive(Default)]
struct Flags {
    emit_asm: bool,
    disasm: bool,
    lint: bool,
    zap_report: Option<String>,
    check: bool,
    run: bool,
    campaign: Option<u64>,
    campaign_k: u32,
    seed: Option<u64>,
    threads: Option<usize>,
    max_steps: Option<u64>,
    shards: Option<u32>,
    shard: Option<u32>,
    resume: bool,
    checkpoint_dir: Option<String>,
    checkpoint_every: Option<usize>,
    baseline: bool,
    time: bool,
    profile: bool,
    json: Option<String>,
}

/// Campaign stride of a bare `--campaign`.
const DEFAULT_STRIDE: u64 = 11;

impl Flags {
    /// Parse the arguments after the input path. An unknown flag or a value
    /// that does not parse is a usage error: a typo must not silently skip
    /// or reshape a campaign.
    fn parse(args: &[String]) -> Result<Flags, String> {
        fn number<T: std::str::FromStr>(arg: &str, v: &str) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("cannot parse the value of `{arg}`"))
        }
        let mut f = Flags {
            check: true,
            campaign_k: 1,
            ..Flags::default()
        };
        for arg in args {
            let (name, value) = match arg.split_once('=') {
                Some((n, v)) => (n, Some(v)),
                None => (arg.as_str(), None),
            };
            match (name, value) {
                ("--emit-asm", None) => f.emit_asm = true,
                ("--disasm", None) => f.disasm = true,
                ("--lint", None) => f.lint = true,
                ("--no-check", None) => f.check = false,
                ("--run", None) => f.run = true,
                ("--resume", None) => f.resume = true,
                ("--baseline", None) => f.baseline = true,
                ("--time", None) => f.time = true,
                ("--profile", None) => f.profile = true,
                ("--campaign", None) => f.campaign = Some(DEFAULT_STRIDE),
                ("--campaign", Some(v)) => f.campaign = Some(number(arg, v)?),
                ("--campaign-k", Some(v)) => f.campaign_k = number(arg, v)?,
                ("--seed", Some(v)) => f.seed = Some(number(arg, v)?),
                ("--threads", Some(v)) => f.threads = Some(number(arg, v)?),
                ("--max-steps", Some(v)) => f.max_steps = Some(number(arg, v)?),
                ("--shards", Some(v)) => f.shards = Some(number(arg, v)?),
                ("--shard", Some(v)) => f.shard = Some(number(arg, v)?),
                ("--checkpoint-every", Some(v)) => f.checkpoint_every = Some(number(arg, v)?),
                ("--zap-report", Some(v)) => f.zap_report = Some(v.to_owned()),
                ("--checkpoint-dir", Some(v)) => f.checkpoint_dir = Some(v.to_owned()),
                ("--json", Some(v)) => f.json = Some(v.to_owned()),
                _ => return Err(format!("unrecognized argument `{arg}`")),
            }
        }
        Ok(f)
    }
}

/// Set by the SIGTERM/SIGINT handler; polled at shard chunk boundaries so
/// an interrupted campaign exits through a durable checkpoint (code 6)
/// instead of losing its progress.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_interrupt_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler: extern "C" fn(i32) = on_signal;
    // SAFETY: installing an async-signal-safe handler (a single atomic
    // store) for SIGINT (2) and SIGTERM (15).
    unsafe {
        signal(2, handler as usize);
        signal(15, handler as usize);
    }
}

#[cfg(not(unix))]
fn install_interrupt_handlers() {}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args.split_first() {
        Some((path, rest)) if !path.starts_with("--") => Flags::parse(rest).map(|f| (path, f)),
        _ => Err("missing input file".to_owned()),
    };
    let (path, flags) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("talftc: {e}");
            eprintln!(
                "usage: talftc <file.wile|file.talft> [--emit-asm] [--disasm] [--lint] \
                 [--zap-report=PATH] [--no-check] \
                 [--run] [--campaign[=N]] [--campaign-k=K] [--seed=N] [--threads=N] \
                 [--max-steps=N] [--shards=N] [--shard=I] \
                 [--resume] [--checkpoint-dir=D] [--checkpoint-every=M] [--baseline] [--time] \
                 [--profile] [--json=PATH]"
            );
            return ExitCode::FAILURE;
        }
    };
    let code = real_main(path, &flags);
    if talft_obs::enabled() {
        let snap = talft_obs::snapshot();
        eprint!("{}", snap.render_text());
        // Under --lint the --json destination carries the lint report
        // (written in real_main), not the profile snapshot.
        if let Some(path) = flags.json.as_ref().filter(|_| !flags.lint) {
            let json = talft_obs::Json::Object(vec![
                (
                    "schema".to_owned(),
                    talft_obs::Json::str("talft.profile.v1"),
                ),
                ("obs".to_owned(), snap.to_json()),
            ]);
            if let Err(e) = std::fs::write(path, format!("{json}\n")) {
                eprintln!("talftc: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("talftc: wrote {path}");
        }
    }
    code
}

fn real_main(path: &str, flags: &Flags) -> ExitCode {
    if flags.profile {
        talft_obs::set_enabled(true);
    }

    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("talftc: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut line_table: Option<Vec<u32>> = None;
    let (program, mut arena): (Arc<Program>, ExprArena) = if path.ends_with(".talft") {
        match assemble(&src) {
            Ok(a) => {
                line_table = Some(a.lines);
                (Arc::new(a.program), a.arena)
            }
            Err(e) => {
                eprintln!("talftc: assembly error: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        let opts = CompileOptions::default();
        let c = match compile(&src, &opts) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("talftc: {e}");
                return ExitCode::from(2);
            }
        };
        if flags.time {
            report_timing(&c);
        }
        if flags.baseline {
            (c.baseline.program, c.baseline.arena)
        } else {
            (c.protected.program, c.protected.arena)
        }
    };

    if flags.emit_asm {
        print!("{}", print_program(&program, &arena));
    }
    if flags.disasm {
        print!("{}", talft_isa::disassemble(&program));
    }
    if flags.lint {
        if let Some(code) = run_lint(
            path,
            flags.json.as_deref(),
            &program,
            &mut arena,
            line_table.as_deref(),
        ) {
            return code;
        }
    }
    if let Some(out) = &flags.zap_report {
        if let Err(e) = write_zap_report(out, path, &program) {
            eprintln!("talftc: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("talftc: wrote zap report to {out}");
    }
    if flags.check {
        match check_program(&program, &mut arena) {
            Ok(rep) => eprintln!(
                "talftc: type check OK ({} blocks, {} instructions) — fault tolerant",
                rep.blocks, rep.instrs
            ),
            Err(e) => {
                let mut d = e.to_diagnostic();
                if let Some(lines) = line_table.as_deref() {
                    d = d.with_line_table(lines);
                }
                eprintln!("talftc: TYPE ERROR:\n{}", d.render());
                return ExitCode::from(3);
            }
        }
        if flags.profile {
            let (hits, misses) = arena.entail_cache_stats();
            let total = hits + misses;
            if total > 0 {
                eprintln!(
                    "talftc: entailment cache: {hits} hits / {misses} misses ({:.1}% hit rate)",
                    100.0 * hits as f64 / total as f64
                );
            }
        }
    }
    if flags.run {
        let r = run_program(&program, 500_000_000);
        eprintln!("talftc: {} after {} steps", r.status, r.steps);
        for (a, v) in &r.trace {
            println!("{a}\t{v}");
        }
    }
    // --campaign-k=K alone implies a campaign at the default stride.
    let campaign_stride = flags
        .campaign
        .or_else(|| (flags.campaign_k > 1).then_some(DEFAULT_STRIDE));
    if let Some(stride) = campaign_stride {
        let mut cfg = CampaignConfig {
            stride,
            ..CampaignConfig::default()
        };
        if let Some(seed) = flags.seed {
            cfg.seed = seed;
        }
        if let Some(threads) = flags.threads {
            cfg.threads = threads.max(1);
        }
        if let Some(max_steps) = flags.max_steps {
            cfg.max_steps = max_steps;
        }
        let k = flags.campaign_k.max(1);
        let t0 = std::time::Instant::now();
        // One prologue for both paths: a panicking golden runner is retried,
        // then exits 1; an exhausted budget exits 6.
        let golden = match golden_run_retrying(&program, &cfg) {
            Ok(g) => g,
            Err(e @ GoldenError::BudgetExhausted { .. }) => {
                // Not a verdict and not an error in the program: the run
                // was cut short by the step budget. Distinct exit class so
                // callers can tell "interrupted, raise --max-steps and
                // retry" from a real failure.
                eprintln!("talftc: campaign interrupted: {e}");
                eprintln!("talftc: raise --max-steps and re-run");
                return ExitCode::from(EXIT_INTERRUPTED);
            }
            Err(e) => {
                eprintln!("talftc: campaign aborted: {e}");
                return ExitCode::FAILURE;
            }
        };
        let plans = multi_fault_plans(&program, &cfg, &golden, k);
        if flags.shards.is_some() || flags.shard.is_some() {
            return run_sharded(&program, &cfg, &golden, &plans, k, flags, path);
        }
        let rep = run_plan_campaign(&program, &cfg, &golden, &plans);
        if flags.profile {
            let secs = t0.elapsed().as_secs_f64();
            if secs > 0.0 {
                eprintln!(
                    "talftc: campaign throughput: {:.0} plans/sec ({} plans in {:.3}s)",
                    rep.total as f64 / secs,
                    rep.total,
                    secs
                );
            }
        }
        return summarize_campaign(&rep, k);
    }
    ExitCode::SUCCESS
}

/// Print the campaign summary and map the report onto the exit-code
/// contract (0 tolerant / 5 Theorem 4 violation). Shared by the whole-grid
/// and sharded paths so their output is comparable line for line.
fn summarize_campaign(rep: &CampaignReport, k: u32) -> ExitCode {
    eprintln!(
        "talftc: campaign (k={k}): {} injections — {} masked, {} detected, {} SDC, \
         {} other, {} engine errors ({:.1}% detection coverage)",
        rep.total,
        rep.masked,
        rep.detected,
        rep.sdc,
        rep.other_violations,
        rep.engine_errors,
        100.0 * rep.coverage(),
    );
    if !rep.fault_tolerant() {
        eprintln!("talftc: faults escaped; first counterexamples:");
        for v in rep.violations.iter().take(5) {
            eprintln!(
                "  {:?} at step {} ← {} (+{} strikes)",
                v.site,
                v.at_step,
                v.value,
                v.followups.len()
            );
        }
        if rep.within_fault_model() || rep.engine_errors > 0 {
            eprintln!("talftc: THEOREM 4 VIOLATION (single-upset model)");
            return ExitCode::from(5);
        }
        eprintln!(
            "talftc: k={k} is outside the single-upset model — boundary measurement, \
             not a Theorem 4 violation"
        );
    }
    ExitCode::SUCCESS
}

/// The `--shards` campaign path: run the grid through the faultsim
/// checkpoint/shard/merge layer. Each shard leaves a durable
/// `talft.shard-report.v1` in the checkpoint dir; SIGTERM/SIGINT lands in
/// a checkpoint and exit 6; once all N shard reports exist they merge into
/// a report bit-identical to the whole-grid run and the usual summary and
/// exit-code contract apply.
fn run_sharded(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
    plans: &[FaultPlan],
    k: u32,
    flags: &Flags,
    input: &str,
) -> ExitCode {
    let count = flags.shards.unwrap_or(1).max(1);
    let dir = PathBuf::from(
        flags
            .checkpoint_dir
            .clone()
            .unwrap_or_else(|| format!("{input}.shards")),
    );
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("talftc: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let every = flags.checkpoint_every.unwrap_or(256);
    let indices: Vec<u32> = match flags.shard {
        Some(i) if i < count => vec![i],
        Some(i) => {
            eprintln!("talftc: --shard={i} out of range for --shards={count}");
            return ExitCode::FAILURE;
        }
        None => (0..count).collect(),
    };
    install_interrupt_handlers();
    let fingerprint = grid_fingerprint(golden, plans);
    for &i in &indices {
        let spec = ShardSpec::new(i, count).expect("index checked above");
        let part_path = dir.join(format!("shard-{i}.json"));
        if flags.resume && part_path.exists() {
            match load_part(&part_path, spec, fingerprint) {
                Ok(_) => {
                    eprintln!("talftc: shard {spec} already complete — skipping");
                    continue;
                }
                Err(e) => {
                    eprintln!("talftc: {e}");
                    eprintln!(
                        "talftc: stale shard report (different grid?); delete {} and re-run",
                        dir.display()
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
        let cp_path = dir.join(format!("checkpoint-{i}.json"));
        let resume_cp = if flags.resume && cp_path.exists() {
            match talft_faultsim::CampaignCheckpoint::load(&cp_path) {
                Ok(cp) => Some(cp),
                Err(e) => {
                    eprintln!("talftc: cannot resume shard {spec}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            None
        };
        if let Some(cp) = &resume_cp {
            eprintln!(
                "talftc: resuming shard {spec} from checkpoint ({}/{} plans done)",
                cp.done, cp.shard_plans
            );
        }
        let mut save_error: Option<std::io::Error> = None;
        let outcome = run_shard_campaign(
            program,
            cfg,
            golden,
            plans,
            spec,
            every,
            resume_cp.as_ref(),
            |cp| {
                if let Err(e) = cp.save(&cp_path) {
                    save_error = Some(e);
                    return ShardControl::Stop;
                }
                if INTERRUPTED.load(Ordering::SeqCst) {
                    ShardControl::Stop
                } else {
                    ShardControl::Continue
                }
            },
        );
        match outcome {
            Err(e) => {
                eprintln!("talftc: shard {spec}: {e}");
                return ExitCode::FAILURE;
            }
            Ok(ShardOutcome::Interrupted(cp)) => {
                if let Some(e) = save_error {
                    eprintln!("talftc: cannot write checkpoint {}: {e}", cp_path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "talftc: campaign interrupted at {}/{} plans of shard {spec}; \
                     checkpoint saved — re-run with --resume to continue",
                    cp.done, cp.shard_plans
                );
                return ExitCode::from(EXIT_INTERRUPTED);
            }
            Ok(ShardOutcome::Complete(report)) => {
                let part = ShardPart {
                    spec,
                    fingerprint,
                    plans: spec.range(plans.len()).len() as u64,
                    report,
                };
                let text = format!("{}\n", part.to_json());
                if let Err(e) = talft_faultsim::shard::atomic_write(&part_path, &text) {
                    eprintln!("talftc: cannot write {}: {e}", part_path.display());
                    return ExitCode::FAILURE;
                }
                let _ = std::fs::remove_file(&cp_path);
                eprintln!("talftc: shard {spec} complete ({} plans)", part.plans);
            }
        }
    }
    // Merge once the whole partition is on disk (this process may have run
    // only one shard of a cross-process campaign).
    let mut parts = Vec::with_capacity(count as usize);
    for i in 0..count {
        let path = dir.join(format!("shard-{i}.json"));
        if !path.exists() {
            eprintln!(
                "talftc: {}/{count} shard report(s) present in {} — run the remaining \
                 shards to merge",
                parts.len(),
                dir.display()
            );
            return ExitCode::SUCCESS;
        }
        let spec = ShardSpec::new(i, count).expect("i < count");
        match load_part(&path, spec, fingerprint) {
            Ok(p) => parts.push(p),
            Err(e) => {
                eprintln!("talftc: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match merge_shard_reports(&parts) {
        Ok(merged) => {
            eprintln!("talftc: merged {count} shard(s) — verified complete partition");
            summarize_campaign(&merged, k)
        }
        Err(e) => {
            eprintln!("talftc: shard merge failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Load a `talft.shard-report.v1` file and validate it belongs to this
/// grid (spec + fingerprint + complete coverage of its slice).
fn load_part(
    path: &std::path::Path,
    spec: ShardSpec,
    fingerprint: u64,
) -> Result<ShardPart, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let json = talft_obs::Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let part = ShardPart::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))?;
    if part.spec != spec {
        return Err(format!("{}: wrong shard {}", path.display(), part.spec));
    }
    if part.fingerprint != fingerprint {
        return Err(format!(
            "{}: fingerprint {:016x} does not match this grid ({:016x})",
            path.display(),
            part.fingerprint,
            fingerprint
        ));
    }
    if part.report.total != part.plans {
        return Err(format!(
            "{}: report covers {} of {} plans",
            path.display(),
            part.report.total,
            part.plans
        ));
    }
    Ok(part)
}

/// `--zap-report=PATH`: dump the per-cell k=1 classification and the
/// compositional k=2 pair summary as a `talft.zap.v1` document.
fn write_zap_report(out: &str, input: &str, program: &Arc<Program>) -> Result<(), String> {
    use talft_obs::Json;
    let mut analyzer = talft_analysis::PairAnalyzer::new(program);
    let pairs = analyzer.pair_report();
    let zap = analyzer.k1();
    let cell = |kind: &str, addr: i64, index: Option<u64>, class: &talft_analysis::ZapClass| {
        let mut fields = vec![
            ("kind".to_owned(), Json::str(kind)),
            ("addr".to_owned(), Json::I64(addr)),
        ];
        if let Some(i) = index {
            fields.push(("index".to_owned(), Json::U64(i)));
        }
        fields.push(("class".to_owned(), Json::Str(class.to_string())));
        Json::Object(fields)
    };
    let mut cells = Vec::new();
    cells.extend(zap.pc.iter().map(|(a, c)| cell("pc", *a, None, c)));
    cells.extend(zap.dst.iter().map(|(a, c)| cell("d", *a, None, c)));
    cells.extend(
        zap.gpr
            .iter()
            .map(|((a, r), c)| cell("gpr", *a, Some(u64::from(*r)), c)),
    );
    cells.extend(
        zap.queue
            .iter()
            .map(|((a, s), c)| cell("queue", *a, Some(*s as u64), c)),
    );
    let (detected, benign, vulnerable) = zap.tally();
    let witnesses: Vec<Json> = pairs
        .witness
        .iter()
        .map(|(at, (a, b))| {
            Json::obj([
                ("compare", Json::I64(*at)),
                ("first", Json::Str(a.to_string())),
                ("second", Json::Str(b.to_string())),
            ])
        })
        .collect();
    let per_compare: Vec<Json> = pairs
        .per_compare
        .iter()
        .map(|(at, n)| Json::obj([("compare", Json::I64(*at)), ("pairs", Json::U64(*n))]))
        .collect();
    let json = Json::obj([
        ("schema", Json::str("talft.zap.v1")),
        ("file", Json::str(input)),
        (
            "bailed",
            match &zap.bailed {
                Some(why) => Json::Str(why.clone()),
                None => Json::Null,
            },
        ),
        (
            "k1",
            Json::obj([
                ("detected", Json::U64(detected as u64)),
                ("benign", Json::U64(benign as u64)),
                ("vulnerable", Json::U64(vulnerable as u64)),
                ("coverage", Json::F64(zap.coverage())),
                ("cells", Json::Array(cells)),
            ]),
        ),
        (
            "k2",
            Json::obj([
                ("cells", Json::U64(pairs.cells as u64)),
                ("pairs", Json::U64(pairs.pairs)),
                ("detected", Json::U64(pairs.detected)),
                ("benign", Json::U64(pairs.benign)),
                ("vulnerable", Json::U64(pairs.vulnerable)),
                ("single_vulnerable", Json::U64(pairs.single_vulnerable)),
                ("cooperative", Json::U64(pairs.cooperative)),
                ("coverage", Json::F64(pairs.coverage())),
                ("fixpoints", Json::U64(pairs.fixpoints)),
                ("per_compare", Json::Array(per_compare)),
                ("witnesses", Json::Array(witnesses)),
            ]),
        ),
    ]);
    std::fs::write(out, format!("{json}\n")).map_err(|e| format!("cannot write {out}: {e}"))
}

/// Run the TF0xx lints (including the solver-backed `TF007`) and print
/// rustc-style diagnostics. Returns the exit code (4) when an
/// error-severity lint fired, `None` when lint passes. With `--json=PATH`
/// the diagnostics are also mirrored as a `talft.lint.v1` report.
fn run_lint(
    path: &str,
    json: Option<&str>,
    program: &Arc<Program>,
    arena: &mut ExprArena,
    lines: Option<&[u32]>,
) -> Option<ExitCode> {
    let mut diags = talft_analysis::lint_program_solver(program, arena);
    if let Some(lines) = lines {
        diags = diags
            .into_iter()
            .map(|d| d.with_line_table(lines))
            .collect();
    }
    for d in &diags {
        eprintln!("{}", d.render());
    }
    let errors = talft_analysis::error_count(&diags);
    let warnings = diags.len() - errors;
    eprintln!("talftc: lint: {errors} error(s), {warnings} warning(s)");
    if let Some(json_path) = json {
        let json = talft_obs::Json::Object(vec![
            ("schema".to_owned(), talft_obs::Json::str("talft.lint.v1")),
            ("file".to_owned(), talft_obs::Json::str(path)),
            ("errors".to_owned(), talft_obs::Json::U64(errors as u64)),
            ("warnings".to_owned(), talft_obs::Json::U64(warnings as u64)),
            (
                "diagnostics".to_owned(),
                talft_obs::Json::Array(diags.iter().map(talft_core::Diagnostic::to_json).collect()),
            ),
        ]);
        if let Err(e) = std::fs::write(json_path, format!("{json}\n")) {
            eprintln!("talftc: cannot write {json_path}: {e}");
            return Some(ExitCode::FAILURE);
        }
        eprintln!("talftc: wrote {json_path}");
    }
    (errors > 0).then(|| ExitCode::from(4))
}

fn report_timing(c: &talft_compiler::Compiled) {
    let model = MachineModel::default();
    let r = talft_compiler::vir::interpret(&c.vir, 200_000_000);
    if !r.halted {
        eprintln!("talftc: --time: reference run did not halt");
        return;
    }
    let b = simulate(&c.baseline.sched, &r.visits, &model);
    let p = simulate(&c.protected.sched, &r.visits, &model);
    let u = simulate(&c.protected_unordered_sched, &r.visits, &model);
    eprintln!(
        "talftc: cycles baseline={b} talft={p} ({:.3}x) talft-unordered={u} ({:.3}x)",
        p as f64 / b as f64,
        u as f64 / b as f64
    );
}
