//! The Wile → TAL_FT compiler: the reliability transformation of
//! *Fault-tolerant Typed Assembly Language* (Perry et al., PLDI 2007, §5),
//! reproduced end-to-end.
//!
//! Pipeline (mirroring the paper's modified VELOCITY):
//!
//! ```text
//! Wile source ─parse→ AST ─sema(inline, layout)→ flat AST
//!   ─lower→ VIR ─┬─ duplicate ─ schedule ─ regalloc ─ emit → TAL_FT (type-checks!)
//!                └─ baseline ── schedule ─ regalloc ─ emit → TAL_FT (unprotected)
//! ```
//!
//! Each variant also yields a [`talft_sim::SchedProgram`] timing view; the
//! protected variant additionally yields the *without-ordering* schedule of
//! the Figure 10 ablation (timing-only — the green≺blue constraint is
//! required for functional execution on the TAL_FT machine).
//!
//! # Example
//!
//! ```
//! use talft_compiler::{compile, CompileOptions};
//!
//! let src = "output out[1]; func main() { out[0] = 6 * 7; }";
//! let c = compile(src, &CompileOptions::default()).unwrap();
//! let run = talft_machine::run_program(&c.protected.program, 100_000);
//! assert_eq!(run.trace, vec![(4096, 42)]);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod dup;
pub mod emit;
pub mod lower;
pub mod opt;
pub mod parse;
pub mod regalloc;
pub mod sched;
pub mod sema;
pub mod vir;

use std::sync::Arc;

use talft_isa::Program;
use talft_logic::ExprArena;
use talft_sim::{MachineModel, SchedProgram, TimedOp};

use crate::dup::{CInstr, DupProgram};
use crate::regalloc::Allocation;

/// Compilation options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// GPR count of the target machine.
    pub num_gprs: u16,
    /// Timing model used for scheduling priorities.
    pub model: MachineModel,
    /// Lower loops in inverted (bottom-test) form — one block per iteration
    /// (see [`lower::lower_with`]). Off by default; the `fig10` bin's
    /// inverted-loops row (E9) measures its effect on the Figure 10 ratio.
    pub invert_loops: bool,
    /// Run the VIR optimizer (constant folding, copy propagation, DCE)
    /// before duplication (see [`opt`]). Off by default so the published
    /// Figure 10 numbers are measured on unoptimized lowering; the `fig10`
    /// bin's `-O1` row (E10) measures its effect.
    pub optimize: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self {
            num_gprs: 64,
            model: MachineModel::default(),
            invert_loops: false,
            optimize: false,
        }
    }
}

/// One emitted program variant.
#[derive(Debug)]
pub struct Artifact {
    /// The TAL_FT program.
    pub program: Arc<Program>,
    /// Arena owning the program's static expressions.
    pub arena: ExprArena,
    /// Per-block start addresses (index = VIR block id).
    pub block_addrs: Vec<i64>,
    /// Timing view of the emitted schedule.
    pub sched: SchedProgram,
}

/// The complete compilation result.
#[derive(Debug)]
pub struct Compiled {
    /// The mid-level IR (reference semantics; drives the timing replay).
    pub vir: vir::VirProgram,
    /// Protected (fault-tolerant) variant — passes `talft-core`'s checker.
    pub protected: Artifact,
    /// Timing view of the protected variant scheduled *without* the
    /// green≺blue ordering constraint (Figure 10's second series).
    pub protected_unordered_sched: SchedProgram,
    /// Unprotected baseline (functional, intentionally not fault-tolerant).
    pub baseline: Artifact,
}

/// A compilation error from any phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Lexing/parsing failed.
    Parse(parse::ParseError),
    /// Semantic analysis failed.
    Sema(sema::SemError),
    /// Lowering failed.
    Lower(lower::LowerError),
    /// Register allocation failed.
    Alloc(regalloc::AllocError),
    /// Emission failed.
    Emit(emit::EmitError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "parse error: {e}"),
            CompileError::Sema(e) => write!(f, "semantic error: {e}"),
            CompileError::Lower(e) => write!(f, "lowering error: {e}"),
            CompileError::Alloc(e) => write!(f, "allocation error: {e}"),
            CompileError::Emit(e) => write!(f, "emission error: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compile Wile source into protected and baseline TAL_FT programs plus
/// their timing views.
pub fn compile(src: &str, opts: &CompileOptions) -> Result<Compiled, CompileError> {
    let ast = parse::parse(src).map_err(CompileError::Parse)?;
    let sem = sema::analyze(&ast).map_err(CompileError::Sema)?;
    let mut vir = lower::lower_with(&sem, opts.invert_loops).map_err(CompileError::Lower)?;
    if opts.optimize {
        vir = opt::optimize(&vir);
    }

    // Protected variant.
    let (dup, nv) = dup::duplicate(&vir);
    let orders: Vec<Vec<usize>> = dup
        .blocks
        .iter()
        .map(|b| sched::schedule_block(b, &opts.model, true))
        .collect();
    let live = regalloc::liveness(&vir, &dup, &orders, nv);
    let alloc =
        regalloc::allocate(&dup, &orders, &live, opts.num_gprs).map_err(CompileError::Alloc)?;
    let (prog, arena, addrs) = emit::emit(&vir, &dup, &orders, &live, &alloc, opts.num_gprs)
        .map_err(CompileError::Emit)?;
    let protected = Artifact {
        program: Arc::new(prog),
        arena,
        block_addrs: addrs,
        sched: timing_view(&dup, &orders, &alloc, false),
    };

    // Unordered protected schedule (timing only). The relaxed hardware can
    // also execute any ordered schedule, so an optimizing compiler keeps the
    // better of the two per block; we do the same (standalone-block cost).
    // The ordered block's ops are the protected view's; the relaxed block's
    // are built only when its schedule differs, and are kept when it wins.
    let standalone = |view: &SchedProgram, bid: usize| {
        talft_sim::simulate(
            view,
            &[talft_sim::BlockVisit {
                block: bid,
                taken_exit: false,
            }],
            &opts.model,
        )
    };
    let mut protected_unordered_sched = SchedProgram::default();
    for (bid, b) in dup.blocks.iter().enumerate() {
        let relaxed = sched::schedule_block(b, &opts.model, false);
        if relaxed != orders[bid] {
            let one = SchedProgram {
                blocks: vec![block_ops(b, &relaxed, &alloc, false)],
            };
            if standalone(&one, 0) < standalone(&protected.sched, bid) {
                protected_unordered_sched.blocks.extend(one.blocks);
                continue;
            }
        }
        let ordered = protected.sched.blocks[bid].clone();
        protected_unordered_sched.blocks.push(ordered);
    }

    // Baseline variant.
    let (bdup, bnv) = dup::baseline(&vir);
    let borders: Vec<Vec<usize>> = bdup
        .blocks
        .iter()
        .map(|b| sched::schedule_block(b, &opts.model, true))
        .collect();
    let blive = regalloc::liveness(&vir, &bdup, &borders, bnv);
    let balloc =
        regalloc::allocate(&bdup, &borders, &blive, opts.num_gprs).map_err(CompileError::Alloc)?;
    let (bprog, barena, baddrs) = emit::emit(&vir, &bdup, &borders, &blive, &balloc, opts.num_gprs)
        .map_err(CompileError::Emit)?;
    let baseline = Artifact {
        program: Arc::new(bprog),
        arena: barena,
        block_addrs: baddrs,
        sched: timing_view(&bdup, &borders, &balloc, true),
    };

    Ok(Compiled {
        vir,
        protected,
        protected_unordered_sched,
        baseline,
    })
}

/// Convert a scheduled, allocated variant into the timing simulator's
/// per-block op lists. In `baseline` mode the redundant halves that a
/// conventional ISA would not execute are marked free (see
/// `talft_sim`'s module docs).
#[must_use]
pub fn timing_view(
    dup: &DupProgram,
    orders: &[Vec<usize>],
    alloc: &Allocation,
    baseline: bool,
) -> SchedProgram {
    SchedProgram {
        blocks: dup
            .blocks
            .iter()
            .enumerate()
            .map(|(bid, blk)| block_ops(blk, &orders[bid], alloc, baseline))
            .collect(),
    }
}

/// One block of [`timing_view`].
fn block_ops(
    blk: &dup::DupBlock,
    order: &[usize],
    alloc: &Allocation,
    baseline: bool,
) -> Vec<TimedOp> {
    let mut ops = Vec::with_capacity(order.len());
    for &idx in order {
        let i = &blk.instrs[idx];
        let kind = sched::op_kind(i);
        let dst = i.def().map(|d| alloc.phys(d));
        let srcs: Vec<u16> = i.uses().map(|u| alloc.phys(u)).collect();
        let mut op = TimedOp::new(kind, dst, srcs);
        if baseline {
            match i {
                // A conventional ISA does these in one instruction;
                // cost only one half of each pair.
                CInstr::StB { .. }
                | CInstr::JmpG { .. }
                | CInstr::BzG { .. }
                | CInstr::MovLabel { .. } => op = op.freed(),
                // The committing control halves don't read a target
                // register in the conventional encoding.
                CInstr::JmpB { .. } => op.srcs.clear(),
                CInstr::BzB { z, .. } => op.srcs = vec![alloc.phys(*z)],
                _ => {}
            }
        }
        ops.push(op);
    }
    ops
}
