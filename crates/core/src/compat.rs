//! Control-transfer compatibility: the final seven premises of the
//! `jmpB-t` / `bzB-t` rules (Figure 7), shared with fall-through into an
//! annotated address (code typing, Figure 8's `C-t`).
//!
//! Given a target precondition `T' = (Δ'; Γ'; (Ed',Es'); Em')`, we must find
//! `S` with `Δ ⊢ S : Δ'` such that:
//!
//! * `S(Γ')(d)` is compatible with what `d` will hold on entry
//!   (hardware-reset `(G,int,0)` after a committed jump; the current `d`
//!   type on fall-through);
//! * `S(Γ')(pcG) = (G,int,Er')` and `S(Γ')(pcB) = (B,int,Er)`;
//! * `Δ ⊢ Γ ⊆ S(Γ')` (general-purpose registers, pointwise subtyping);
//! * `Δ ⊢ (Ed,Es) = S((Ed',Es'))` (queue descriptions agree);
//! * `Δ ⊢ Em = S(Em')` (memory descriptions agree);
//! * every fact asserted by `T'` holds under `S` (our `Δ`-facts extension).

use talft_isa::ty::ValTy;
use talft_isa::{BasicTy, Color, Program, Reg, RegTy};
use talft_logic::{norm_mem, ExprArena, ExprId, Facts};
use talft_obs::LazyHistogram;

use crate::ctx::{prove_fact, Ctx};
use crate::matching::{goals_for_target, subst_reg_ty, GoalSet};
use crate::subty::reg_subtype;

static TRANSFER_NS: LazyHistogram = LazyHistogram::new("checker.pass.transfer.ns");

/// What `d` holds when control arrives at the target.
#[derive(Debug, Clone)]
pub enum DEntry {
    /// A committed `jmpB`/`bzB` reset `d` to `G 0`.
    ResetToZero,
    /// Fall-through: `d` keeps its current type.
    Current(RegTy),
}

/// A transfer-compatibility failure: the primary reason plus secondary
/// notes (solver failure witnesses naming the unbounded atom or the
/// insufficient fact range — see `talft_logic::EntailWitness`).
#[derive(Debug, Clone)]
pub struct TransferError {
    /// What went wrong, in the paper's premise terminology.
    pub reason: String,
    /// Witness notes to attach to the diagnostic.
    pub notes: Vec<String>,
}

impl TransferError {
    fn new(reason: String) -> Self {
        Self {
            reason,
            notes: Vec::new(),
        }
    }

    fn with_witness(mut self, w: &talft_logic::EntailWitness) -> Self {
        self.notes.push(w.note());
        self
    }
}

impl From<String> for TransferError {
    fn from(reason: String) -> Self {
        Self::new(reason)
    }
}

impl std::fmt::Display for TransferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.reason)
    }
}

/// Check transfer compatibility against the precondition at `target_addr`.
///
/// `er_green` / `er_blue` are the static expressions the two program
/// counters will hold on entry (for jumps, the green latched target and the
/// blue argument; for fall-through, the current pc expressions).
pub fn check_transfer(
    arena: &mut ExprArena,
    program: &Program,
    ctx: &Ctx,
    target_addr: i64,
    er_green: ExprId,
    er_blue: ExprId,
    d_entry: &DEntry,
) -> Result<(), TransferError> {
    let _span = TRANSFER_NS.span();
    let target = program.precond(target_addr).ok_or_else(|| {
        TransferError::new(format!("transfer to unannotated address {target_addr}"))
    })?;

    // Infer S by matching target patterns against the current context.
    let mut goals = GoalSet::new();
    goals_for_target(
        &mut goals, arena, target, &ctx.regs, &ctx.queue, ctx.mem, er_green, er_blue,
    )?;
    let delta_target = target.kind_ctx();
    let (s, residual) = goals
        .solve(arena, &ctx.facts, &delta_target)
        .map_err(|e| format!("substitution inference failed: {e}"))?;

    // Δ ⊢ S : Δ' (kind check every binding).
    s.well_formed(arena, &ctx.kinds, &delta_target)
        .map_err(|e| format!("inferred substitution ill-formed: {e}"))?;

    // Residual structural-matching obligations.
    for g in residual {
        if !ctx.facts.prove_eq(arena, g.pattern, g.subject) {
            let w = ctx.facts.explain_eq(arena, g.pattern, g.subject);
            return Err(TransferError::new(format!(
                "cannot prove {} = {} for the transfer to {target_addr}",
                arena.display(g.pattern),
                arena.display(g.subject)
            ))
            .with_witness(&w));
        }
    }

    // d premise.
    let target_d = subst_reg_ty(arena, &s, target.regs.get(Reg::Dst));
    let entry_d: RegTy = match d_entry {
        DEntry::ResetToZero => {
            let zero = arena.int(0);
            RegTy::Val(ValTy::new(Color::Green, BasicTy::Int, zero))
        }
        DEntry::Current(t) => t.clone(),
    };
    if !reg_subtype(arena, &ctx.facts, &entry_d, &target_d) {
        return Err(TransferError::new(format!(
            "destination register type mismatch entering {target_addr}"
        )));
    }

    // pc premises: S(Γ')(pcc) = (c, int, Er_c).
    for (c, er) in [(Color::Green, er_green), (Color::Blue, er_blue)] {
        match subst_reg_ty(arena, &s, target.regs.get(Reg::Pc(c))) {
            RegTy::Val(v) => {
                if v.color != c {
                    return Err(TransferError::new(format!("target pc{c} has wrong color")));
                }
                if !ctx.facts.prove_eq(arena, v.expr, er) {
                    let w = ctx.facts.explain_eq(arena, v.expr, er);
                    return Err(TransferError::new(format!(
                        "target pc{c} expression {} does not match transfer target {}",
                        arena.display(v.expr),
                        arena.display(er)
                    ))
                    .with_witness(&w));
                }
            }
            RegTy::Top => { /* target does not constrain this pc */ }
            RegTy::Cond { .. } => {
                return Err(TransferError::new(format!(
                    "target pc{c} has a conditional type"
                )))
            }
        }
    }

    // Γ ⊆ S(Γ') on general-purpose registers.
    for (r, t) in target.regs.iter() {
        if !matches!(r, Reg::Gpr(_)) {
            continue;
        }
        let want = subst_reg_ty(arena, &s, t);
        let have = ctx.regs.get(r).clone();
        if !reg_subtype(arena, &ctx.facts, &have, &want) {
            return Err(TransferError::new(format!(
                "register {r} is not a subtype of the target's requirement at {target_addr}"
            )));
        }
    }

    // Queue premise (lengths were matched during goal collection).
    for (i, ((td, tv), (cd, cv))) in target.queue.iter().zip(ctx.queue.iter()).enumerate() {
        let tds = s.apply(arena, *td);
        let tvs = s.apply(arena, *tv);
        for (want, have) in [(tds, *cd), (tvs, *cv)] {
            if !ctx.facts.prove_eq(arena, want, have) {
                let w = ctx.facts.explain_eq(arena, want, have);
                return Err(TransferError::new(format!(
                    "queue entry {i} mismatch entering {target_addr}"
                ))
                .with_witness(&w));
            }
        }
    }

    // Memory premise: Δ ⊢ Em = S(Em').
    let tm = s.apply(arena, target.mem);
    if !prove_mem_eq(arena, &ctx.facts, ctx.mem, tm) {
        return Err(TransferError::new(format!(
            "memory description mismatch entering {target_addr}: have {}, target wants {}",
            arena.display(ctx.mem),
            arena.display(tm)
        )));
    }

    // Target facts must hold under S.
    for f in &target.facts {
        let fs = match *f {
            talft_isa::FactAnn::EqZero(e) => talft_isa::FactAnn::EqZero(s.apply(arena, e)),
            talft_isa::FactAnn::NeqZero(e) => talft_isa::FactAnn::NeqZero(s.apply(arena, e)),
            talft_isa::FactAnn::Ge0(e) => talft_isa::FactAnn::Ge0(s.apply(arena, e)),
        };
        if !prove_fact(arena, &ctx.facts, fs) {
            let w = match fs {
                talft_isa::FactAnn::EqZero(e) => ctx.facts.explain_eq_zero(arena, e),
                talft_isa::FactAnn::NeqZero(e) => ctx.facts.explain_neq_zero(arena, e),
                talft_isa::FactAnn::Ge0(e) => ctx.facts.explain_ge0(arena, e),
            };
            return Err(TransferError::new(format!(
                "cannot establish a fact required by the target at {target_addr}"
            ))
            .with_witness(&w));
        }
    }

    Ok(())
}

/// `Δ ⊢ Em1 = Em2` via memory normal forms: identical base, same number of
/// writes, pointwise provably-equal addresses and values.
pub fn prove_mem_eq(arena: &mut ExprArena, facts: &Facts, e1: ExprId, e2: ExprId) -> bool {
    if e1 == e2 {
        return true;
    }
    let n1 = norm_mem(arena, facts, e1);
    let n2 = norm_mem(arena, facts, e2);
    if n1.base != n2.base || n1.writes.len() != n2.writes.len() {
        return false;
    }
    n1.writes
        .iter()
        .zip(n2.writes.iter())
        .all(|((a1, v1), (a2, v2))| {
            facts.poly_provably_zero(arena, &a1.sub(a2))
                && facts.poly_provably_zero(arena, &v1.sub(v2))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_eq_modulo_write_order_and_overwrite() {
        let mut arena = ExprArena::new();
        let facts = Facts::new();
        let m = arena.var("m");
        let a1 = arena.int(100);
        let a2 = arena.int(200);
        let v1 = arena.int(1);
        let v2 = arena.int(2);
        let lhs = {
            let t = arena.upd(m, a1, v1);
            arena.upd(t, a2, v2)
        };
        let rhs = {
            let t = arena.upd(m, a2, v2);
            arena.upd(t, a1, v1)
        };
        assert!(prove_mem_eq(&mut arena, &facts, lhs, rhs));
        // overwrite collapses
        let lhs2 = {
            let t = arena.upd(m, a1, v2);
            arena.upd(t, a1, v1)
        };
        let rhs2 = arena.upd(m, a1, v1);
        assert!(prove_mem_eq(&mut arena, &facts, lhs2, rhs2));
        // different values differ
        let bad = arena.upd(m, a1, v2);
        assert!(!prove_mem_eq(&mut arena, &facts, rhs2, bad));
    }

    #[test]
    fn mem_eq_uses_facts_for_symbolic_addresses() {
        let mut arena = ExprArena::new();
        let mut facts = Facts::new();
        let m = arena.var("m");
        let i = arena.var("i");
        let j = arena.var("j");
        let v = arena.int(9);
        let lhs = arena.upd(m, i, v);
        let rhs = arena.upd(m, j, v);
        assert!(!prove_mem_eq(&mut arena, &facts, lhs, rhs));
        facts.assume_eq(&mut arena, i, j);
        assert!(prove_mem_eq(&mut arena, &facts, lhs, rhs));
    }
}
