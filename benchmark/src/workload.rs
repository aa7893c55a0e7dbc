//! The four workloads: seeded inputs (set-up), one pass over them through
//! the public API of each layer, and the correctness gates.
//!
//! Every call into a layer goes through [`Ctx::call`], which opens a span
//! (when tracing), isolates panics, and counts the call. Work that must
//! come out the same on every pass (plans, verdicts, pairs, cycles) is
//! tallied into [`PassOut::counts`].

use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use talft_analysis::{analyze_zaps, lint_program, PairAnalyzer};
use talft_bench::{fig10_rows, geomean, Fig10Row, INTERP_BUDGET};
use talft_compiler::vir::{interpret, VirRun};
use talft_compiler::{
    compile, dup, emit, lower, parse, regalloc, sched, sema, CompileOptions, Compiled,
};
use talft_core::check_program;
use talft_faultsim::{
    golden_run, multi_fault_plans, run_plan_campaign, single_fault_plans, CampaignConfig,
    CampaignReport, FaultPlan, Golden,
};
use talft_isa::{print_program, Program};
use talft_logic::ExprArena;
use talft_machine::{run_program, Status};
use talft_oracle::all_mutants;
use talft_sim::{simulate, MachineModel};
use talft_suite::{kernels, Scale};
use talft_testutil::wile::{random_stmts, render_program, ExprR, StmtR};
use talft_testutil::SplitMix64;

use crate::trace::Tracer;

/// Step budget of a fuzz program on the machine.
const RUN_BUDGET: u64 = 20_000_000;
/// Shape of the front-end fuzz programs: nesting depth, statement range.
const FRONTEND_SHAPE: (u32, usize, usize) = (3, 8, 16);
/// Shape of the campaign fuzz programs: small enough that each certifies
/// faster than any suite kernel, so the per-input percentiles fall on the
/// fixed kernels while the seed still varies the programs certified.
const CAMPAIGN_SHAPE: (u32, usize, usize) = (1, 3, 6);

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Exhaustive k=1 certification of protected binaries.
    CampaignExhaustive,
    /// Strided k=1, sampled k=2 and baseline campaigns on Small kernels.
    CampaignMixed,
    /// Zap over the suite, k=2 pair composition on a few kernels, zap on a
    /// large program.
    StaticAnalysis,
    /// Compiler, checker, machine and Fig. 10 path on fuzz programs,
    /// kernels and the mutant catalog.
    FrontendFuzz,
}

impl Workload {
    /// Every workload, in the order `all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::CampaignExhaustive,
        Workload::CampaignMixed,
        Workload::StaticAnalysis,
        Workload::FrontendFuzz,
    ];

    /// The command-line and `BENCHMARK.json` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignExhaustive => "campaign-exhaustive",
            Workload::CampaignMixed => "campaign-mixed",
            Workload::StaticAnalysis => "static-analysis",
            Workload::FrontendFuzz => "frontend-fuzz",
        }
    }

    /// Look a workload up by name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    fn is_campaign(self) -> bool {
        matches!(self, Workload::CampaignExhaustive | Workload::CampaignMixed)
    }

    /// The suite scale whose kernels define the workload's
    /// `cycles_overhead_geomean` and `code_instrs_protected`.
    fn suite_scale(self) -> Scale {
        match self {
            Workload::CampaignExhaustive | Workload::StaticAnalysis => Scale::Tiny,
            Workload::CampaignMixed => Scale::Small,
            Workload::FrontendFuzz => Scale::Full,
        }
    }
}

/// Input sizes. [`Sizes::full`] is the benchmark; [`Sizes::smoke`] is the
/// few-second variant the tests run.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Suite kernels per scale (18 is the whole suite).
    pub kernels: usize,
    /// Suite kernels whose pairs static-analysis composes.
    pub pair_kernels: usize,
    /// Fuzz programs through the exhaustive campaign. With the 18 kernels
    /// that makes 25 inputs, the 100 samples over four measured passes that
    /// a p90 tail needs.
    pub campaign_fuzz: usize,
    /// Fuzz programs through the front end.
    pub frontend_fuzz: usize,
    /// Large fuzz programs through `analyze_zaps`.
    pub zap_programs: usize,
    /// Statement-count range of the large fuzz programs.
    pub zap_stmts: (usize, usize),
    /// k=1 stride of campaign-exhaustive.
    pub exhaustive_stride: u64,
    /// k=1 stride of campaign-mixed.
    pub mixed_stride: u64,
    /// Sampled k=2 plans per kernel on campaign-mixed.
    pub k2_samples: usize,
    /// Suite scales whose mutant catalogs frontend-fuzz checks.
    pub mutant_scales: Vec<Scale>,
    /// Untraced passes a run makes at least, whatever `--seconds` says.
    pub min_passes: usize,
    /// Passes of each kind the metrics come from: the fastest ones.
    pub measured_passes: usize,
}

impl Sizes {
    /// The benchmark's sizes: 1.5 to 2.5 seconds a pass on two cores, so a
    /// 20-second run makes eight or more passes to pick the fastest from.
    #[must_use]
    pub fn full() -> Sizes {
        Sizes {
            kernels: 18,
            pair_kernels: 3,
            campaign_fuzz: 7,
            frontend_fuzz: 200,
            zap_programs: 1,
            zap_stmts: (16, 24),
            exhaustive_stride: 4,
            mixed_stride: 64,
            k2_samples: 1024,
            mutant_scales: vec![Scale::Tiny, Scale::Full],
            min_passes: 8,
            measured_passes: 4,
        }
    }

    /// Two kernels, stride 64, eight fuzz programs, one pass.
    #[must_use]
    pub fn smoke() -> Sizes {
        Sizes {
            kernels: 2,
            pair_kernels: 1,
            campaign_fuzz: 8,
            frontend_fuzz: 8,
            zap_programs: 1,
            zap_stmts: (4, 8),
            exhaustive_stride: 64,
            mixed_stride: 64,
            k2_samples: 64,
            mutant_scales: vec![Scale::Tiny],
            min_passes: 1,
            measured_passes: 1,
        }
    }
}

/// A correctness gate. Any gate that fires fails the run: it exits
/// nonzero and prints no metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// `check_program` rejected a protected binary.
    CheckerRejected,
    /// A machine trace differs from the `vir::interpret` reference.
    TraceMismatch,
    /// A protected k=1 campaign reported SDC or another violation.
    ProtectedViolation,
    /// The pair analyzer bailed on a suite kernel.
    PairBailed,
    /// Pair tallies do not sum to the pair count.
    PairTally,
    /// A Vulnerable zap cell on a protected suite kernel.
    VulnerableZap,
    /// Protected cycles below baseline cycles on a suite kernel.
    CyclesBelowBaseline,
    /// The pass-by-pass compiler replay printed a different program than
    /// `compile`.
    ReplayMismatch,
}

impl Gate {
    /// Every gate.
    pub const ALL: [Gate; 8] = [
        Gate::CheckerRejected,
        Gate::TraceMismatch,
        Gate::ProtectedViolation,
        Gate::PairBailed,
        Gate::PairTally,
        Gate::VulnerableZap,
        Gate::CyclesBelowBaseline,
        Gate::ReplayMismatch,
    ];
}

/// A gate that fired, with the input that tripped it.
#[derive(Debug, Clone)]
pub struct GateFailure {
    /// Which gate.
    pub gate: Gate,
    /// Input name.
    pub input: String,
    /// What was wrong.
    pub detail: String,
}

impl fmt::Display for GateFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} on {}: {}", self.gate, self.input, self.detail)
    }
}

/// Why a run produced no metrics.
#[derive(Debug, Clone)]
pub enum RunError {
    /// An input could not be made, compiled or run outside a pass.
    Input(String),
    /// A correctness gate fired.
    Gate(GateFailure),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Input(e) => write!(f, "input failed: {e}"),
            RunError::Gate(g) => write!(f, "correctness gate failed: {g}"),
        }
    }
}

fn fail(gate: Gate, input: &str, detail: impl Into<String>) -> Result<(), GateFailure> {
    Err(GateFailure {
        gate,
        input: input.to_owned(),
        detail: detail.into(),
    })
}

/// One Wile program.
#[derive(Debug, Clone)]
pub struct Source {
    /// `kernel@scale` or `fuzzN`.
    pub name: String,
    /// Wile source text.
    pub src: String,
    /// Suite scale, for kernels.
    pub scale: Option<Scale>,
}

/// Everything a pass works on, made by [`setup`] from the seed.
pub struct Inputs {
    /// Suite kernels.
    pub kernels: Vec<Source>,
    /// Generated programs.
    pub fuzz: Vec<Source>,
    /// static-analysis only: `kernels` then `fuzz`, compiled in set-up.
    compiled: Vec<Compiled>,
}

impl Inputs {
    /// Every source a pass compiles (kernels first).
    pub fn sources(&self) -> impl Iterator<Item = &Source> {
        self.kernels.iter().chain(&self.fuzz)
    }
}

fn suite(scale: Scale, n: usize) -> Vec<Source> {
    kernels(scale)
        .into_iter()
        .take(n)
        .map(|k| Source {
            name: format!("{}@{scale:?}", k.name),
            src: k.source,
            scale: Some(scale),
        })
        .collect()
}

/// The fixed stream fuzz programs take their shape from (statements,
/// variables, nesting, loop trip counts). The run seed draws every literal.
/// Shape decides how much work a program costs the compiler, the analyzers
/// and the campaigns, so with shapes drawn from the run seed pass time
/// varied between seeds by more than the regression bounds; with literals
/// only, the values every layer computes on still change with the seed.
const SHAPE_SEED: u64 = 0x5A_9E5E;

fn fuzz(seed: u64, n: usize, (depth, lo, hi): (u32, usize, usize)) -> Vec<Source> {
    let mut shapes = SplitMix64::new(SHAPE_SEED);
    let mut literals = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            let mut stmts = random_stmts(&mut shapes, depth, lo, hi);
            reseed_stmts(&mut stmts, &mut literals);
            Source {
                name: format!("fuzz{i}"),
                src: render_program(&stmts),
                scale: None,
            }
        })
        .collect()
}

/// Redraw every literal of a recipe, from the generator's own range.
fn reseed_stmts(stmts: &mut [StmtR], r: &mut SplitMix64) {
    for s in stmts {
        match s {
            StmtR::Assign(_, e) => reseed_expr(e, r),
            StmtR::StoreA(i, v) | StmtR::StoreOut(i, v) | StmtR::GuardedStoreA(i, v) => {
                reseed_expr(i, r);
                reseed_expr(v, r);
            }
            StmtR::If(c, t, e) => {
                reseed_expr(c, r);
                reseed_stmts(t, r);
                reseed_stmts(e, r);
            }
            StmtR::Loop(_, body) => reseed_stmts(body, r),
        }
    }
}

fn reseed_expr(e: &mut ExprR, r: &mut SplitMix64) {
    match e {
        ExprR::Lit(n) => *n = r.range_i64(-128, 128) as i8,
        ExprR::Var(_) => {}
        ExprR::ReadA(i) => reseed_expr(i, r),
        ExprR::Bin(_, a, b) | ExprR::Cmp(_, a, b) => {
            reseed_expr(a, r);
            reseed_expr(b, r);
        }
    }
}

/// Make the workload's inputs from the seed. The same seed gives the same
/// inputs.
///
/// # Errors
///
/// An input that fails to compile in set-up (static-analysis).
pub fn setup(w: Workload, seed: u64, sizes: &Sizes) -> Result<Inputs, RunError> {
    let n = sizes.kernels;
    let mut inputs = match w {
        Workload::CampaignExhaustive => Inputs {
            kernels: suite(Scale::Tiny, n),
            fuzz: fuzz(seed, sizes.campaign_fuzz, CAMPAIGN_SHAPE),
            compiled: Vec::new(),
        },
        Workload::CampaignMixed => Inputs {
            kernels: suite(Scale::Small, n),
            fuzz: Vec::new(),
            compiled: Vec::new(),
        },
        Workload::StaticAnalysis => Inputs {
            kernels: suite(Scale::Tiny, n),
            fuzz: fuzz(
                seed,
                sizes.zap_programs,
                (3, sizes.zap_stmts.0, sizes.zap_stmts.1),
            ),
            compiled: Vec::new(),
        },
        Workload::FrontendFuzz => Inputs {
            kernels: sizes
                .mutant_scales
                .iter()
                .flat_map(|&s| suite(s, n))
                .collect(),
            fuzz: fuzz(seed, sizes.frontend_fuzz, FRONTEND_SHAPE),
            compiled: Vec::new(),
        },
    };
    if w == Workload::StaticAnalysis {
        inputs.compiled = inputs
            .sources()
            .map(|s| {
                compile(&s.src, &CompileOptions::default())
                    .map_err(|e| RunError::Input(format!("{}: {e}", s.name)))
            })
            .collect::<Result<_, _>>()?;
    }
    Ok(inputs)
}

/// Fig. 10 numbers over a kernel set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig10 {
    /// Geometric mean of protected over baseline cycles.
    pub geomean: f64,
    /// Protected instructions summed over the kernels.
    pub instrs: u64,
}

/// What one pass produced.
#[derive(Debug, Clone, Default)]
pub struct PassOut {
    /// Per-input wall time, compile to verdict, in ms.
    pub input_ms: Vec<f64>,
    /// Counts that repeat exactly on every pass, by metric name.
    pub counts: BTreeMap<&'static str, f64>,
    /// Work items (plans, pairs or checked programs) for `items_per_s`.
    pub items: u64,
    /// Layer calls made.
    pub calls: u64,
    /// Failed operations: panicked calls, compile and golden errors,
    /// campaign engine errors.
    pub failed: u64,
    /// Time in rejected `check_program` calls (traced passes only).
    pub reject_s: f64,
    /// Fig. 10 over the suite kernels, when the pass computes it.
    pub fig10: Option<Fig10>,
}

/// Per-run state threaded through a pass.
pub struct Ctx {
    /// The span recorder.
    pub tracer: Tracer,
    /// Campaign worker threads.
    threads: usize,
    /// Run seed (k=2 sampling).
    seed: u64,
    sizes: Sizes,
    /// Test-only: corrupt the reference this gate compares against.
    corrupt: Option<Gate>,
    /// The current pass's output.
    out: PassOut,
    next_id: u32,
}

impl Ctx {
    /// A context with tracing off.
    #[must_use]
    pub fn new(threads: usize, seed: u64, sizes: Sizes, corrupt: Option<Gate>) -> Ctx {
        Ctx {
            tracer: Tracer::new(),
            threads,
            seed,
            sizes,
            corrupt,
            out: PassOut::default(),
            next_id: 0,
        }
    }

    /// Start a fresh pass output; returns the previous one.
    pub fn take_out(&mut self) -> PassOut {
        self.next_id = 0;
        std::mem::take(&mut self.out)
    }

    fn corrupting(&self, g: Gate) -> bool {
        self.corrupt == Some(g)
    }

    fn count(&mut self, name: &'static str, v: u64) {
        *self.out.counts.entry(name).or_insert(0.0) += v as f64;
    }

    /// Call into a layer under a span, isolating a panic as a failed call.
    fn call<T>(&mut self, span: &'static str, id: u32, f: impl FnOnce() -> T) -> Option<T> {
        self.out.calls += 1;
        let open = self.tracer.begin(span, id);
        let r = catch_unwind(AssertUnwindSafe(f));
        self.tracer.end(open);
        match r {
            Ok(v) => Some(v),
            Err(_) => {
                self.out.failed += 1;
                None
            }
        }
    }

    /// Run one input end to end, timing it.
    fn input(
        &mut self,
        f: impl FnOnce(&mut Ctx, u32) -> Result<(), GateFailure>,
    ) -> Result<(), GateFailure> {
        self.next_id += 1;
        let id = self.next_id;
        let t = std::time::Instant::now();
        let open = self.tracer.begin("bench.input", id);
        let r = f(self, id);
        self.tracer.end(open);
        self.out.input_ms.push(t.elapsed().as_secs_f64() * 1e3);
        r
    }

    fn compile(&mut self, id: u32, src: &str) -> Option<Compiled> {
        match self.call("compiler.compile", id, || {
            compile(src, &CompileOptions::default())
        })? {
            Ok(c) => {
                self.count(
                    "compiler.instrs_out",
                    c.protected.program.instrs.len() as u64,
                );
                Some(c)
            }
            Err(_) => {
                self.out.failed += 1;
                None
            }
        }
    }

    /// Type-check one program; `Some(accepted)` unless the call panicked.
    fn check(&mut self, id: u32, program: &Program, arena: &mut ExprArena) -> Option<bool> {
        let ok = self.call("core.check", id, || check_program(program, arena).is_ok())?;
        self.count("core.check.calls", 1);
        if !ok {
            self.count("core.check.rejects", 1);
            self.out.reject_s += self.tracer.last_s();
        }
        Some(ok)
    }

    /// Gate: the protected binary must type-check. The test hook checks
    /// the (ill-typed) baseline in its place.
    fn check_protected(
        &mut self,
        id: u32,
        name: &str,
        c: &mut Compiled,
    ) -> Result<(), GateFailure> {
        let side = if self.corrupting(Gate::CheckerRejected) {
            &mut c.baseline
        } else {
            &mut c.protected
        };
        if self.check(id, &side.program, &mut side.arena) == Some(false) {
            return fail(
                Gate::CheckerRejected,
                name,
                "check_program rejected the binary",
            );
        }
        Ok(())
    }

    fn campaign_cfg(&self, stride: u64) -> CampaignConfig {
        CampaignConfig {
            stride,
            threads: self.threads,
            seed: self.seed,
            pair_samples: self.sizes.k2_samples,
            ..CampaignConfig::default()
        }
    }

    fn golden(&mut self, id: u32, program: &Arc<Program>, cfg: &CampaignConfig) -> Option<Golden> {
        match self.call("faultsim.golden", id, || golden_run(program, cfg))? {
            Ok(g) if g.status == Status::Halted => {
                self.count("faultsim.golden.steps", g.steps);
                Some(g)
            }
            _ => {
                self.out.failed += 1;
                None
            }
        }
    }

    /// Run a campaign over `plans`. The plan set is freed inside the span:
    /// it can hold millions of heap-allocated plans, and freeing them is
    /// part of what a campaign costs.
    fn campaign(
        &mut self,
        id: u32,
        program: &Arc<Program>,
        cfg: &CampaignConfig,
        golden: &Golden,
        plans: Vec<FaultPlan>,
    ) -> Option<CampaignReport> {
        self.count("faultsim.plans.count", plans.len() as u64);
        let rep = self.call("faultsim.campaign", id, move || {
            let rep = run_plan_campaign(program, cfg, golden, &plans);
            drop(plans);
            rep
        })?;
        self.out.items += rep.total;
        self.out.failed += rep.engine_errors;
        self.count("faultsim.verdict.masked", rep.masked);
        self.count("faultsim.verdict.detected", rep.detected);
        self.count("faultsim.verdict.sdc", rep.sdc);
        self.count("faultsim.verdict.incomplete", rep.incomplete_plans);
        self.count("faultsim.campaign.engine_errors", rep.engine_errors);
        Some(rep)
    }

    /// Gate: a protected k=1 campaign reports no violation.
    fn gate_k1(&self, name: &str, rep: &CampaignReport) -> Result<(), GateFailure> {
        let mut violations = rep.sdc + rep.other_violations;
        if self.corrupting(Gate::ProtectedViolation) {
            violations += 1;
        }
        if violations > 0 {
            return fail(
                Gate::ProtectedViolation,
                name,
                format!("{} SDC, {} other violations", rep.sdc, rep.other_violations),
            );
        }
        Ok(())
    }

    /// k=1 plans at `stride` and their campaign; the report, if every
    /// step succeeded.
    fn k1(&mut self, id: u32, program: &Arc<Program>, stride: u64) -> Option<CampaignReport> {
        let cfg = self.campaign_cfg(stride);
        let golden = self.golden(id, program, &cfg)?;
        let plans = self.call("faultsim.plans", id, || {
            single_fault_plans(program, &cfg, &golden)
        })?;
        self.campaign(id, program, &cfg, &golden, plans)
    }

    /// The reference run of a compiled program (`None` if it failed).
    fn reference(&mut self, id: u32, c: &Compiled) -> Option<VirRun> {
        let r = self.call("compiler.interpret", id, || {
            interpret(&c.vir, INTERP_BUDGET)
        })?;
        if r.halted {
            Some(r)
        } else {
            self.out.failed += 1;
            None
        }
    }

    /// Simulate the three schedules of Fig. 10 over the reference visits:
    /// `(baseline, protected)` cycles.
    fn simulate3(&mut self, id: u32, c: &Compiled, r: &VirRun) -> Option<(u64, u64)> {
        let model = MachineModel::default();
        let base = self.call("sim.simulate", id, || {
            simulate(&c.baseline.sched, &r.visits, &model)
        })?;
        let prot = self.call("sim.simulate", id, || {
            simulate(&c.protected.sched, &r.visits, &model)
        })?;
        self.call("sim.simulate", id, || {
            simulate(&c.protected_unordered_sched, &r.visits, &model)
        })?;
        self.count("sim.cycles_baseline", base);
        self.count("sim.cycles_protected", prot);
        Some((base, prot))
    }

    /// Gate: protected code is never faster than its baseline.
    fn gate_cycles(&self, name: &str, mut base: u64, prot: u64) -> Result<(), GateFailure> {
        if self.corrupting(Gate::CyclesBelowBaseline) {
            base = prot + 1;
        }
        if prot < base {
            return fail(
                Gate::CyclesBelowBaseline,
                name,
                format!("protected {prot} cycles < baseline {base}"),
            );
        }
        Ok(())
    }

    /// Fig. 10 for one suite kernel: protected over baseline cycles.
    fn fig10_kernel(
        &mut self,
        id: u32,
        name: &str,
        c: &Compiled,
    ) -> Result<Option<f64>, GateFailure> {
        let Some(r) = self.reference(id, c) else {
            return Ok(None);
        };
        let Some((base, prot)) = self.simulate3(id, c, &r) else {
            return Ok(None);
        };
        self.gate_cycles(name, base, prot)?;
        Ok(Some(prot as f64 / base as f64))
    }
}

/// Run one pass of `w` over `inputs`, filling `ctx.out`.
///
/// # Errors
///
/// The first correctness gate that fires.
pub fn run_pass(w: Workload, inputs: &Inputs, ctx: &mut Ctx) -> Result<(), GateFailure> {
    match w {
        Workload::CampaignExhaustive => campaign_exhaustive(inputs, ctx),
        Workload::CampaignMixed => campaign_mixed(inputs, ctx),
        Workload::StaticAnalysis => static_analysis(inputs, ctx),
        Workload::FrontendFuzz => frontend_fuzz(inputs, ctx),
    }
}

/// Protected binaries only: compile → check → golden → k=1 plans →
/// campaign, which must be clean.
fn campaign_exhaustive(inputs: &Inputs, ctx: &mut Ctx) -> Result<(), GateFailure> {
    let stride = ctx.sizes.exhaustive_stride;
    for s in inputs.sources() {
        ctx.input(|ctx, id| {
            let Some(mut c) = ctx.compile(id, &s.src) else {
                return Ok(());
            };
            ctx.check_protected(id, &s.name, &mut c)?;
            if let Some(rep) = ctx.k1(id, &c.protected.program, stride) {
                ctx.gate_k1(&s.name, &rep)?;
            }
            Ok(())
        })?;
    }
    Ok(())
}

/// Per Small kernel, three inputs: protected k=1 (compile, check and
/// golden run included; must be clean), protected sampled k=2, and
/// baseline k=1 (SDC expected).
fn campaign_mixed(inputs: &Inputs, ctx: &mut Ctx) -> Result<(), GateFailure> {
    let stride = ctx.sizes.mixed_stride;
    let cfg = ctx.campaign_cfg(stride);
    for s in &inputs.kernels {
        let mut protected = None;
        ctx.input(|ctx, id| {
            let Some(mut c) = ctx.compile(id, &s.src) else {
                return Ok(());
            };
            ctx.check_protected(id, &s.name, &mut c)?;
            let prot = Arc::clone(&c.protected.program);
            let Some(golden) = ctx.golden(id, &prot, &cfg) else {
                return Ok(());
            };
            if let Some(plans) = ctx.call("faultsim.plans", id, || {
                single_fault_plans(&prot, &cfg, &golden)
            }) {
                if let Some(rep) = ctx.campaign(id, &prot, &cfg, &golden, plans) {
                    ctx.gate_k1(&s.name, &rep)?;
                }
            }
            protected = Some((c, golden));
            Ok(())
        })?;
        let Some((c, golden)) = protected else {
            continue;
        };
        ctx.input(|ctx, id| {
            let prot = &c.protected.program;
            if let Some(plans) = ctx.call("faultsim.plans_k2", id, || {
                multi_fault_plans(prot, &cfg, &golden, 2)
            }) {
                ctx.campaign(id, prot, &cfg, &golden, plans);
            }
            Ok(())
        })?;
        ctx.input(|ctx, id| {
            ctx.k1(id, &c.baseline.program, stride);
            Ok(())
        })?;
    }
    Ok(())
}

/// Zap over every suite kernel (protected and baseline), pair composition
/// over the first kernels, and zap over the large fuzz programs; inputs
/// were compiled in set-up.
fn static_analysis(inputs: &Inputs, ctx: &mut Ctx) -> Result<(), GateFailure> {
    let (kernels, fuzz) = inputs.compiled.split_at(inputs.kernels.len());
    for (s, c) in inputs.kernels.iter().zip(kernels) {
        for (protected, program) in [(true, &c.protected.program), (false, &c.baseline.program)] {
            ctx.input(|ctx, id| {
                let Some((cells, mut vulnerable)) = zap(ctx, id, program) else {
                    return Ok(());
                };
                if ctx.corrupting(Gate::VulnerableZap) {
                    vulnerable += 1;
                }
                if protected && vulnerable > 0 {
                    return fail(
                        Gate::VulnerableZap,
                        &s.name,
                        format!("{vulnerable} of {cells} cells Vulnerable on protected code"),
                    );
                }
                Ok(())
            })?;
        }
    }
    let pair_kernels = ctx.sizes.pair_kernels;
    for (s, c) in inputs.kernels.iter().zip(kernels).take(pair_kernels) {
        for program in [&c.protected.program, &c.baseline.program] {
            ctx.input(|ctx, id| pair_side(ctx, id, &s.name, program))?;
        }
    }
    for c in fuzz {
        ctx.input(|ctx, id| {
            zap(ctx, id, &c.protected.program);
            Ok(())
        })?;
    }
    Ok(())
}

/// `analyze_zaps` on one program: `(cells, Vulnerable cells)`. Counting
/// inside the span frees the report there too.
fn zap(ctx: &mut Ctx, id: u32, program: &Program) -> Option<(usize, usize)> {
    let (cells, vulnerable) = ctx.call("analysis.zap", id, || {
        let z = analyze_zaps(program);
        (z.cells(), z.tally().2)
    })?;
    ctx.count("analysis.zap.cells", cells as u64);
    Some((cells, vulnerable))
}

fn pair_side(ctx: &mut Ctx, id: u32, name: &str, program: &Program) -> Result<(), GateFailure> {
    let Some(pa) = ctx.call("analysis.pair_new", id, || PairAnalyzer::new(program)) else {
        return Ok(());
    };
    if pa.bailed().is_some() || ctx.corrupting(Gate::PairBailed) {
        let why = pa.bailed().unwrap_or("corrupted reference").to_owned();
        return fail(Gate::PairBailed, name, why);
    }
    // The analyzer's memo tables are freed inside the span that built them.
    let Some(mut rep) = ctx.call("analysis.pair_report", id, move || {
        let mut pa = pa;
        let rep = pa.pair_report();
        drop(pa);
        rep
    }) else {
        return Ok(());
    };
    if ctx.corrupting(Gate::PairTally) {
        rep.detected += 1;
    }
    if rep.detected + rep.benign + rep.vulnerable != rep.pairs {
        return fail(
            Gate::PairTally,
            name,
            format!(
                "{} detected + {} benign + {} vulnerable != {} pairs",
                rep.detected, rep.benign, rep.vulnerable, rep.pairs
            ),
        );
    }
    ctx.out.items += rep.pairs;
    ctx.count("analysis.pair.pairs", rep.pairs);
    ctx.count("analysis.pair.fixpoints", rep.fixpoints);
    Ok(())
}

/// Fuzz programs: compile → check → run, trace equal to the reference →
/// three schedules simulated. Kernels: compile → check → (Full) Fig. 10 →
/// mutant catalog through the checker, lint on survivors.
fn frontend_fuzz(inputs: &Inputs, ctx: &mut Ctx) -> Result<(), GateFailure> {
    for s in &inputs.fuzz {
        ctx.input(|ctx, id| {
            let Some(mut c) = ctx.compile(id, &s.src) else {
                return Ok(());
            };
            ctx.check_protected(id, &s.name, &mut c)?;
            ctx.out.items += 1;
            let prot = Arc::clone(&c.protected.program);
            let Some(run) = ctx.call("machine.run", id, || run_program(&prot, RUN_BUDGET)) else {
                return Ok(());
            };
            ctx.count("machine.steps", run.steps);
            let Some(mut reference) = ctx.reference(id, &c) else {
                return Ok(());
            };
            if ctx.corrupting(Gate::TraceMismatch) {
                reference.trace.push((0, 0));
            }
            if !run.halted() || run.trace != reference.trace {
                return fail(
                    Gate::TraceMismatch,
                    &s.name,
                    format!(
                        "machine {:?} with {} outputs, reference {} outputs",
                        run.status,
                        run.trace.len(),
                        reference.trace.len()
                    ),
                );
            }
            ctx.simulate3(id, &c, &reference);
            Ok(())
        })?;
    }
    let mut ratios = Vec::new();
    let mut instrs = 0u64;
    for s in &inputs.kernels {
        ctx.input(|ctx, id| {
            let Some(mut c) = ctx.compile(id, &s.src) else {
                return Ok(());
            };
            ctx.check_protected(id, &s.name, &mut c)?;
            if s.scale == Some(Scale::Full) {
                instrs += c.protected.program.instrs.len() as u64;
                if let Some(r) = ctx.fig10_kernel(id, &s.name, &c)? {
                    ratios.push(r);
                }
            }
            let p = &mut c.protected;
            let Some(mutants) = ctx.call("oracle.mutants", id, || {
                all_mutants(&p.program, &mut p.arena)
            }) else {
                return Ok(());
            };
            ctx.count("oracle.mutants.count", mutants.len() as u64);
            for m in &mutants {
                ctx.out.items += 1;
                if ctx.check(id, &m.program, &mut p.arena) == Some(true) {
                    ctx.call("analysis.lint", id, || lint_program(&m.program));
                }
            }
            // The catalog is the oracle's output; it is freed under its span.
            ctx.call("oracle.mutants", id, move || drop(mutants));
            Ok(())
        })?;
    }
    if !ratios.is_empty() {
        ctx.out.fig10 = Some(Fig10 {
            geomean: geomean(&ratios),
            instrs,
        });
    }
    Ok(())
}

/// Fig. 10 over every suite kernel of the workload's scale, untimed, for
/// workloads whose passes do not simulate the suite (frontend-fuzz computes
/// it inside the pass).
///
/// # Errors
///
/// A gate on a kernel, or a kernel that fails to compile or run.
pub fn suite_fig10(w: Workload, ctx: &Ctx) -> Result<Fig10, RunError> {
    let scale = w.suite_scale();
    let rows = fig10_rows(scale, &MachineModel::default()).map_err(RunError::Input)?;
    for r in &rows {
        ctx.gate_cycles(r.name, r.base_cycles, r.talft_cycles)
            .map_err(RunError::Gate)?;
    }
    let mut instrs = 0u64;
    for s in suite(scale, usize::MAX) {
        let c = compile(&s.src, &CompileOptions::default())
            .map_err(|e| RunError::Input(format!("{}: {e}", s.name)))?;
        instrs += c.protected.program.instrs.len() as u64;
    }
    Ok(Fig10 {
        geomean: geomean(&rows.iter().map(Fig10Row::ratio_ordered).collect::<Vec<_>>()),
        instrs,
    })
}

/// Whether `attempted` counts plans (campaign workloads) or layer calls.
#[must_use]
pub fn attempted(w: Workload, out: &PassOut) -> u64 {
    if w.is_campaign() {
        out.items
    } else {
        out.calls
    }
}

/// Replay the compiler pass by pass on the protected variant of every
/// source, under one span per pass, and require the printed program to be
/// byte-identical to what `compile` produced.
///
/// # Errors
///
/// [`Gate::ReplayMismatch`] on any difference or pass error.
pub fn replay_compiler(inputs: &Inputs, ctx: &mut Ctx) -> Result<(), GateFailure> {
    let opts = CompileOptions::default();
    for s in inputs.sources() {
        ctx.input(|ctx, id| {
            let Ok(reference) = compile(&s.src, &opts) else {
                return Ok(());
            };
            let mut want = print_program(&reference.protected.program, &reference.protected.arena);
            if ctx.corrupting(Gate::ReplayMismatch) {
                want.push('\n');
            }
            let got = replay_one(ctx, id, &s.src, &opts).unwrap_or_default();
            if got != want {
                return fail(
                    Gate::ReplayMismatch,
                    &s.name,
                    "pass-by-pass replay differs from compile",
                );
            }
            Ok(())
        })?;
    }
    Ok(())
}

/// The protected half of `compile`, one span per pass; the printed program.
fn replay_one(ctx: &mut Ctx, id: u32, src: &str, opts: &CompileOptions) -> Option<String> {
    let ast = ctx.call("compiler.parse", id, || parse::parse(src))?.ok()?;
    let sem = ctx
        .call("compiler.sema", id, || sema::analyze(&ast))?
        .ok()?;
    let vir = ctx
        .call("compiler.lower", id, || {
            lower::lower_with(&sem, opts.invert_loops)
        })?
        .ok()?;
    let (dup, nv) = ctx.call("compiler.dup", id, || dup::duplicate(&vir))?;
    let orders: Vec<Vec<usize>> = ctx.call("compiler.sched", id, || {
        dup.blocks
            .iter()
            .map(|b| sched::schedule_block(b, &opts.model, true))
            .collect()
    })?;
    let (live, alloc) = ctx.call("compiler.regalloc", id, || {
        let live = regalloc::liveness(&vir, &dup, &orders, nv);
        let alloc = regalloc::allocate(&dup, &orders, &live, opts.num_gprs);
        (live, alloc)
    })?;
    let alloc = alloc.ok()?;
    let (prog, arena, _) = ctx
        .call("compiler.emit", id, || {
            emit::emit(&vir, &dup, &orders, &live, &alloc, opts.num_gprs)
        })?
        .ok()?;
    Some(print_program(&prog, &arena))
}
