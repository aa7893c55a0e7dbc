//! Instruction typing — the judgment `Σ; T ⊢ ir ⇒ RT` of Figure 7.
//!
//! Each function transforms the flowing [`Ctx`] according to one rule and
//! reports rule-specific failures with the paper's terminology. The guiding
//! principles (§3.3):
//!
//! 1. standard type safety;
//! 2. green depends only on green, blue only on blue;
//! 3. both colors co-sign dangerous actions (stores, transfers);
//! 4. absent faults, green and blue compute equal values — enforced with
//!    singleton types and the Hoare-logic equality obligations.

use talft_isa::ty::ValTy;
use talft_isa::{BasicTy, CVal, Color, Gpr, Instr, OpSrc, Reg, RegTy};
use talft_logic::{BinOp, ExprArena, ExprId};
use talft_obs::LazyCounter;

use crate::compat::{check_transfer, DEntry};
use crate::ctx::Ctx;
use crate::error::TypeError;
use crate::psi::Psi;
use crate::subty::{as_ref, basic_subtype, basic_ty_of_const};

static R_OP: LazyCounter = LazyCounter::new("checker.rule.op");
static R_MOV: LazyCounter = LazyCounter::new("checker.rule.mov");
static R_LDG: LazyCounter = LazyCounter::new("checker.rule.ldG");
static R_LDB: LazyCounter = LazyCounter::new("checker.rule.ldB");
static R_STG: LazyCounter = LazyCounter::new("checker.rule.stG");
static R_STB: LazyCounter = LazyCounter::new("checker.rule.stB");
static R_JMPG: LazyCounter = LazyCounter::new("checker.rule.jmpG");
static R_JMPB: LazyCounter = LazyCounter::new("checker.rule.jmpB");
static R_BZG: LazyCounter = LazyCounter::new("checker.rule.bzG");
static R_BZB: LazyCounter = LazyCounter::new("checker.rule.bzB");
static R_HALT: LazyCounter = LazyCounter::new("checker.rule.halt");

/// Count which Figure 7 rule fired (one counter per instruction form).
fn note_rule(instr: &Instr) {
    let counter = match instr {
        Instr::Op { .. } => &R_OP,
        Instr::Mov { .. } => &R_MOV,
        Instr::Ld {
            color: Color::Green,
            ..
        } => &R_LDG,
        Instr::Ld {
            color: Color::Blue, ..
        } => &R_LDB,
        Instr::St {
            color: Color::Green,
            ..
        } => &R_STG,
        Instr::St {
            color: Color::Blue, ..
        } => &R_STB,
        Instr::Jmp {
            color: Color::Green,
            ..
        } => &R_JMPG,
        Instr::Jmp {
            color: Color::Blue, ..
        } => &R_JMPB,
        Instr::Bz {
            color: Color::Green,
            ..
        } => &R_BZG,
        Instr::Bz {
            color: Color::Blue, ..
        } => &R_BZB,
        Instr::Halt => &R_HALT,
    };
    counter.inc();
}

/// Result of typing one instruction: fall through or stop (`RT = T'` vs
/// `RT = void`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Control continues to the next address with the updated context.
    Continue,
    /// Control does not fall through (`jmpB`, `halt`).
    Void,
}

/// Type-check one instruction, updating `ctx` in place. Every `Ψ` lookup
/// goes through `psi`.
pub fn check_instr(
    arena: &mut ExprArena,
    psi: &mut Psi<'_>,
    ctx: &mut Ctx,
    addr: i64,
    instr: &Instr,
) -> Result<Outcome, TypeError> {
    if talft_obs::enabled() {
        note_rule(instr);
    }
    let fail = |msg: String| TypeError::at(addr, msg).with_instr(instr.to_string());
    match *instr {
        Instr::Op { op, rd, rs, src2 } => {
            let vs = read_val(arena, ctx, rs).map_err(&fail)?;
            let (color2, e2) = match src2 {
                OpSrc::Reg(rt) => {
                    let vt = read_val(arena, ctx, rt).map_err(&fail)?;
                    (vt.color, vt.expr)
                }
                OpSrc::Imm(CVal { color, val }) => (color, arena.int(val)),
            };
            // Principle 2: both operands share one color (rules op2r-t/op1r-t).
            if vs.color != color2 {
                return Err(fail(format!(
                    "operand colors differ: {} vs {} (green may only depend on green)",
                    vs.color, color2
                )));
            }
            let e = arena.bin(op, vs.expr, e2);
            ctx.bump_pcs(arena);
            ctx.regs
                .set(rd.into(), RegTy::Val(ValTy::new(vs.color, BasicTy::Int, e)));
            Ok(Outcome::Continue)
        }
        Instr::Mov { rd, v } => {
            // mov-t via val-t: constants get their most specific Ψ type.
            let e = arena.int(v.val);
            let basic = basic_ty_of_const(psi, v.val);
            ctx.bump_pcs(arena);
            ctx.regs
                .set(rd.into(), RegTy::Val(ValTy::new(v.color, basic, e)));
            Ok(Outcome::Continue)
        }
        Instr::Ld { color, rd, rs } => {
            let vs = read_val(arena, ctx, rs).map_err(&fail)?;
            if vs.color != color {
                return Err(fail(format!(
                    "ld{color} address register {rs} is {}-colored",
                    vs.color
                )));
            }
            let pointee = as_ref(arena, &ctx.facts, psi.regions(), &vs).ok_or_else(|| {
                fail(format!(
                    "ld{color} address is not a reference (no region proves {} in bounds)",
                    arena.display(vs.expr)
                ))
            })?;
            let e = match color {
                // ldG-t: reads through the pending queue: sel (upd Em (Ed,Es)) Es'.
                Color::Green => {
                    let m = queue_applied_mem(arena, ctx);
                    arena.sel(m, vs.expr)
                }
                // ldB-t: reads memory directly: sel Em Es'.
                Color::Blue => arena.sel(ctx.mem, vs.expr),
            };
            ctx.bump_pcs(arena);
            ctx.regs
                .set(rd.into(), RegTy::Val(ValTy::new(color, pointee, e)));
            Ok(Outcome::Continue)
        }
        Instr::St {
            color: Color::Green,
            rd,
            rs,
        } => {
            // stG-t: push a green (address, value) pair onto the queue front.
            let va = read_val(arena, ctx, rd).map_err(&fail)?;
            let vv = read_val(arena, ctx, rs).map_err(&fail)?;
            if va.color != Color::Green || vv.color != Color::Green {
                return Err(fail("stG operands must both be green".into()));
            }
            let pointee = as_ref(arena, &ctx.facts, psi.regions(), &va)
                .ok_or_else(|| fail("stG address is not a reference".into()))?;
            if !basic_subtype(&vv.basic, &pointee) {
                return Err(fail(format!(
                    "stG stores a {} where the region holds {}",
                    vv.basic, pointee
                )));
            }
            ctx.queue.insert(0, (va.expr, vv.expr));
            ctx.bump_pcs(arena);
            Ok(Outcome::Continue)
        }
        Instr::St {
            color: Color::Blue,
            rd,
            rs,
        } => {
            // stB-t: compare against the queue *back* and commit to memory.
            let va = read_val(arena, ctx, rd).map_err(&fail)?;
            let vv = read_val(arena, ctx, rs).map_err(&fail)?;
            if va.color != Color::Blue || vv.color != Color::Blue {
                return Err(fail("stB operands must both be blue".into()));
            }
            let pointee = as_ref(arena, &ctx.facts, psi.regions(), &va)
                .ok_or_else(|| fail("stB address is not a reference".into()))?;
            if !basic_subtype(&vv.basic, &pointee) {
                return Err(fail(format!(
                    "stB stores a {} where the region holds {}",
                    vv.basic, pointee
                )));
            }
            let (ed, es) = ctx
                .queue
                .pop()
                .ok_or_else(|| fail("stB with an empty static queue".into()))?;
            // Principle 4: the blue pair must provably equal the queued green
            // pair, else the hardware comparison could fail without a fault
            // (or pass with corrupt data — the §2.2 CSE bug).
            if !ctx.facts.prove_eq(arena, va.expr, ed) {
                let w = ctx.facts.explain_eq(arena, va.expr, ed);
                return Err(fail(format!(
                    "stB address {} is not provably the queued address {}",
                    arena.display(va.expr),
                    arena.display(ed)
                ))
                .with_note(w.note()));
            }
            if !ctx.facts.prove_eq(arena, vv.expr, es) {
                let w = ctx.facts.explain_eq(arena, vv.expr, es);
                return Err(fail(format!(
                    "stB value {} is not provably the queued value {}",
                    arena.display(vv.expr),
                    arena.display(es)
                ))
                .with_note(w.note()));
            }
            ctx.mem = arena.upd(ctx.mem, ed, es);
            ctx.bump_pcs(arena);
            Ok(Outcome::Continue)
        }
        Instr::Jmp {
            color: Color::Green,
            rd,
        } => {
            // jmpG-t: a checked move of the target into d.
            check_d_zero(arena, ctx).map_err(&fail)?;
            let v = read_val(arena, ctx, rd).map_err(&fail)?;
            if v.color != Color::Green {
                return Err(fail("jmpG target register must be green".into()));
            }
            let target = code_target(&v).map_err(&fail)?;
            target_d_is_zero(arena, psi, target).map_err(&fail)?;
            ctx.bump_pcs(arena);
            ctx.regs.set(Reg::Dst, RegTy::Val(v));
            Ok(Outcome::Continue)
        }
        Instr::Jmp {
            color: Color::Blue,
            rd,
        } => {
            // jmpB-t: the committing jump; result type void.
            let vb = read_val(arena, ctx, rd).map_err(&fail)?;
            if vb.color != Color::Blue {
                return Err(fail("jmpB target register must be blue".into()));
            }
            let target_b = code_target(&vb).map_err(&fail)?;
            let vd = match ctx.regs.get(Reg::Dst).clone() {
                RegTy::Val(v) => v,
                _ => {
                    return Err(fail(
                        "jmpB requires d to hold a latched green target".into(),
                    ))
                }
            };
            if vd.color != Color::Green {
                return Err(fail("destination register is not green".into()));
            }
            let target_d = code_target(&vd).map_err(&fail)?;
            if target_b != target_d {
                return Err(fail(format!(
                    "green latched code@{target_d} but blue jumps to code@{target_b}"
                )));
            }
            if !ctx.facts.prove_eq(arena, vd.expr, vb.expr) {
                let w = ctx.facts.explain_eq(arena, vd.expr, vb.expr);
                return Err(fail(format!(
                    "jump target expressions differ: {} vs {} (principle 4)",
                    arena.display(vd.expr),
                    arena.display(vb.expr)
                ))
                .with_note(w.note()));
            }
            check_transfer(
                arena,
                psi,
                ctx,
                target_b,
                vd.expr,
                vb.expr,
                &DEntry::ResetToZero,
            )
            .map_err(|e| fail(e.reason).with_notes(e.notes))?;
            Ok(Outcome::Void)
        }
        Instr::Bz {
            color: Color::Green,
            rz,
            rd,
        } => {
            // bzG-t: conditional move into d.
            check_d_zero(arena, ctx).map_err(&fail)?;
            let vz = read_val(arena, ctx, rz).map_err(&fail)?;
            if vz.color != Color::Green {
                return Err(fail("bzG condition register must be green".into()));
            }
            let vt = read_val(arena, ctx, rd).map_err(&fail)?;
            if vt.color != Color::Green {
                return Err(fail("bzG target register must be green".into()));
            }
            let target = code_target(&vt).map_err(&fail)?;
            target_d_is_zero(arena, psi, target).map_err(&fail)?;
            ctx.bump_pcs(arena);
            ctx.regs.set(
                Reg::Dst,
                RegTy::Cond {
                    guard: vz.expr,
                    inner: vt,
                },
            );
            Ok(Outcome::Continue)
        }
        Instr::Bz {
            color: Color::Blue,
            rz,
            rd,
        } => {
            // bzB-t: commit or fall through.
            let vz = read_val(arena, ctx, rz).map_err(&fail)?;
            if vz.color != Color::Blue {
                return Err(fail("bzB condition register must be blue".into()));
            }
            let vt = read_val(arena, ctx, rd).map_err(&fail)?;
            if vt.color != Color::Blue {
                return Err(fail("bzB target register must be blue".into()));
            }
            let target_b = code_target(&vt).map_err(&fail)?;
            let (guard, inner) = match ctx.regs.get(Reg::Dst).clone() {
                RegTy::Cond { guard, inner } => (guard, inner),
                other => {
                    return Err(fail(format!(
                        "bzB requires d to hold a conditional latched target, found {other:?}"
                    )))
                }
            };
            if inner.color != Color::Green {
                return Err(fail("latched conditional target is not green".into()));
            }
            let target_d = code_target(&inner).map_err(&fail)?;
            if target_b != target_d {
                return Err(fail(format!(
                    "green conditionally latched code@{target_d} but blue tests code@{target_b}"
                )));
            }
            // Δ ⊢ Ez = Ez'' and Δ ⊢ Er = Er' (principle 4).
            if !ctx.facts.prove_eq(arena, vz.expr, guard) {
                let w = ctx.facts.explain_eq(arena, vz.expr, guard);
                return Err(fail(format!(
                    "branch conditions differ: {} vs {}",
                    arena.display(vz.expr),
                    arena.display(guard)
                ))
                .with_note(w.note()));
            }
            if !ctx.facts.prove_eq(arena, inner.expr, vt.expr) {
                let w = ctx.facts.explain_eq(arena, inner.expr, vt.expr);
                return Err(fail(format!(
                    "branch target expressions differ: {} vs {}",
                    arena.display(inner.expr),
                    arena.display(vt.expr)
                ))
                .with_note(w.note()));
            }
            // Taken side: check the transfer under the extra fact Ez = 0.
            {
                let mut taken = ctx.clone();
                taken.facts.assume_eq_zero(arena, vz.expr);
                check_transfer(
                    arena,
                    psi,
                    &taken,
                    target_b,
                    inner.expr,
                    vt.expr,
                    &DEntry::ResetToZero,
                )
                .map_err(|e| fail(e.reason).with_notes(e.notes))?;
            }
            // Fall-through postcondition: Ez ≠ 0, and d (dynamically 0 by
            // rule bz-untaken) refines to (G, int, 0) — sound by cond-t-n0.
            ctx.facts.assume_neq_zero(arena, vz.expr);
            let zero = arena.int(0);
            ctx.regs.set(Reg::Dst, RegTy::int(Color::Green, zero));
            ctx.bump_pcs(arena);
            Ok(Outcome::Continue)
        }
        Instr::Halt => Ok(Outcome::Void),
    }
}

/// Read a register as a value type, applying the cond-elim coercion.
pub fn read_val(arena: &mut ExprArena, ctx: &Ctx, r: Gpr) -> Result<ValTy, String> {
    match ctx.regs.get(r.into()).clone() {
        RegTy::Val(v) => Ok(v),
        RegTy::Cond { guard, inner } => {
            if ctx.facts.prove_eq_zero(arena, guard) {
                Ok(inner)
            } else if ctx.facts.prove_neq_zero(arena, guard) {
                let zero = arena.int(0);
                Ok(ValTy::new(inner.color, BasicTy::Int, zero))
            } else {
                Err(format!("register {r} has an unresolved conditional type"))
            }
        }
        RegTy::Top => Err(format!(
            "register {r} has no type (unconstrained registers cannot be read)"
        )),
    }
}

/// The `Γ(d) = (G, int, 0)` premise of `jmpG-t` / `bzG-t`.
fn check_d_zero(arena: &mut ExprArena, ctx: &Ctx) -> Result<(), String> {
    match ctx.regs.get(Reg::Dst).clone() {
        RegTy::Val(v) => {
            if v.color != Color::Green {
                return Err("destination register must be green".into());
            }
            if !ctx.facts.prove_eq_zero(arena, v.expr) {
                return Err(format!(
                    "destination register is not provably 0 (holds {})",
                    arena.display(v.expr)
                ));
            }
            Ok(())
        }
        RegTy::Cond { guard, .. } => {
            if ctx.facts.prove_neq_zero(arena, guard) {
                Ok(()) // cond-elim: the latched value is 0
            } else {
                Err("destination register holds an unresolved conditional target".into())
            }
        }
        RegTy::Top => Err("destination register is untyped".into()),
    }
}

/// The target's own `Γ'(d) = (G, int, 0)` premise.
fn target_d_is_zero(arena: &mut ExprArena, psi: &mut Psi<'_>, target: i64) -> Result<(), String> {
    let t = psi
        .precond(target)
        .ok_or_else(|| format!("code@{target} has no precondition"))?;
    match t.regs.get(Reg::Dst) {
        RegTy::Val(v) if v.color == Color::Green => {
            let facts = talft_logic::Facts::new();
            if facts.prove_eq_zero(arena, v.expr) {
                Ok(())
            } else {
                Err(format!("target code@{target} does not require d = 0"))
            }
        }
        RegTy::Top => Ok(()),
        _ => Err(format!("target code@{target} has an unusual d type")),
    }
}

/// Extract the code-label of a value type (`T → void` basic types).
fn code_target(v: &ValTy) -> Result<i64, String> {
    match v.basic {
        BasicTy::Code(l) => Ok(l),
        ref other => Err(format!("expected a code type, found {other}")),
    }
}

/// `upd Em (Ed,Es)` — memory with the pending queue applied, newest write
/// outermost (used by `ldG-t`).
pub fn queue_applied_mem(arena: &mut ExprArena, ctx: &Ctx) -> ExprId {
    let mut m = ctx.mem;
    for &(d, v) in ctx.queue.iter().rev() {
        m = arena.upd(m, d, v);
    }
    m
}

/// Re-export used by sibling modules for op checks.
#[must_use]
pub fn is_interpreted(op: BinOp) -> bool {
    matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul)
}
