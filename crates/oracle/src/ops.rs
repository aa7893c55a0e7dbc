//! The mutation-operator catalog: semantic transformations over well-typed
//! TAL_FT programs, each modeling a realistic *protection* bug — the §2.2
//! class where a post-duplication optimization (or a plain compiler defect)
//! silently weakens fault coverage while leaving fault-free behavior intact.
//!
//! Operators are keyed to the four principles of §2.3:
//!
//! * **P1** (type safety of the underlying computation) — structural damage
//!   such as deleting an arm of the duplicated computation;
//! * **P2** (color separation) — miscoloring an operand so one physical
//!   value feeds both redundant streams;
//! * **P3** (dual-color sign-off on dangerous actions) — skipping the blue
//!   compare half of a store pair or control-transfer pair;
//! * **P4** (green/blue value agreement via singleton types) —
//!   desynchronizing the two copies of a constant.
//!
//! Every operator produces mutants that *differ* from their input program
//! (enforced structurally), and each is exercised by the productivity test
//! in `tests/productivity.rs` so the catalog cannot silently rot.

use std::sync::Arc;

use talft_isa::{CVal, CodeTy, Color, Instr, OpSrc, Program};
use talft_logic::{ExprArena, Kind};

/// One semantic mutation operator (see module docs for the P1–P4 mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MutationOp {
    /// Delete a `stG`: the enqueue half of a store pair vanishes (P3 — the
    /// later `stB` has nothing to compare against).
    DropGreenStore,
    /// Delete a `stB`: the store pair's compare-and-commit half vanishes
    /// (P3 — the dangerous action loses its blue sign-off).
    DropBlueStore,
    /// Delete a `bzB`/`jmpB`: the control transfer loses its blue
    /// commit half (P3).
    DropBlueControl,
    /// Delete a green compute instruction (`mov`/`op`/`ldG`): one arm of
    /// the duplicated computation is gone (P1/P2 — lost redundancy).
    DropGreenArm,
    /// Flip the color of an ALU immediate operand (P2 — a green value flows
    /// into the blue stream or vice versa).
    MiscolorOperand,
    /// Bump a blue constant by one so the green and blue copies disagree
    /// (P4 — the singleton types can no longer prove equality).
    DesyncValue,
    /// Rewrite a `stB` to reuse the registers of its matching `stG` — the
    /// paper's §2.2 common-subexpression-elimination bug verbatim (P2).
    SameRegStorePair,
    /// Swap address and value registers of a store (wrong-operand bug).
    SwapStoreOperands,
    /// Flip a store's color: `stG`↔`stB` (queue protocol inverted, P3).
    StoreColorFlip,
    /// Repoint a blue code-label constant at a different block (P4 — the
    /// green and blue halves of a transfer now disagree on the target).
    RedirectBlueTarget,
    /// Insert a block boundary between a store pair's halves: a trivial
    /// precondition lands right before the `stB`, so the pair spans blocks
    /// (the layout invariant the compiler maintains and the checker's
    /// transfer rule must enforce).
    SplitStorePair,
    /// Swap a `bzB` with its fall-through successor — unsafe code motion
    /// hoisting an instruction across the branch commit point.
    ReorderBzFall,
}

impl MutationOp {
    /// Every operator in the catalog.
    pub const ALL: [MutationOp; 12] = [
        MutationOp::DropGreenStore,
        MutationOp::DropBlueStore,
        MutationOp::DropBlueControl,
        MutationOp::DropGreenArm,
        MutationOp::MiscolorOperand,
        MutationOp::DesyncValue,
        MutationOp::SameRegStorePair,
        MutationOp::SwapStoreOperands,
        MutationOp::StoreColorFlip,
        MutationOp::RedirectBlueTarget,
        MutationOp::SplitStorePair,
        MutationOp::ReorderBzFall,
    ];

    /// Short stable name (table rows, CLI).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MutationOp::DropGreenStore => "drop-stG",
            MutationOp::DropBlueStore => "drop-stB",
            MutationOp::DropBlueControl => "drop-blue-control",
            MutationOp::DropGreenArm => "drop-green-arm",
            MutationOp::MiscolorOperand => "miscolor-operand",
            MutationOp::DesyncValue => "desync-value",
            MutationOp::SameRegStorePair => "same-reg-store-pair",
            MutationOp::SwapStoreOperands => "swap-store-operands",
            MutationOp::StoreColorFlip => "store-color-flip",
            MutationOp::RedirectBlueTarget => "redirect-blue-target",
            MutationOp::SplitStorePair => "split-store-pair",
            MutationOp::ReorderBzFall => "reorder-bz-fall",
        }
    }

    /// Which of the paper's §2.3 principles the operator attacks.
    #[must_use]
    pub fn principle(self) -> &'static str {
        match self {
            MutationOp::DropGreenStore
            | MutationOp::DropBlueStore
            | MutationOp::DropBlueControl
            | MutationOp::StoreColorFlip => "P3",
            MutationOp::DropGreenArm | MutationOp::SwapStoreOperands => "P1",
            MutationOp::MiscolorOperand | MutationOp::SameRegStorePair => "P2",
            MutationOp::DesyncValue | MutationOp::RedirectBlueTarget => "P4",
            MutationOp::SplitStorePair | MutationOp::ReorderBzFall => "layout",
        }
    }

    /// Apply the operator at every applicable site of `p`, returning one
    /// mutant per site. `arena` is the program's expression arena; it is
    /// only extended (hash-consed), never rewritten, so one arena serves
    /// the original and all its mutants.
    #[must_use]
    pub fn apply(self, p: &Program, arena: &mut ExprArena) -> Vec<Mutant> {
        let mut out = Vec::new();
        for addr in 1..=(p.instrs.len() as i64) {
            let i = (addr - 1) as usize;
            let instr = p.instrs[i];
            let mutated: Option<(Program, String)> = match self {
                MutationOp::DropGreenStore => match instr {
                    Instr::St {
                        color: Color::Green,
                        ..
                    } => Some((delete_instr(p, addr), format!("deleted `{instr}`"))),
                    _ => None,
                },
                MutationOp::DropBlueStore => match instr {
                    Instr::St {
                        color: Color::Blue, ..
                    } => Some((delete_instr(p, addr), format!("deleted `{instr}`"))),
                    _ => None,
                },
                MutationOp::DropBlueControl => match instr {
                    Instr::Bz {
                        color: Color::Blue, ..
                    }
                    | Instr::Jmp {
                        color: Color::Blue, ..
                    } => Some((delete_instr(p, addr), format!("deleted `{instr}`"))),
                    _ => None,
                },
                MutationOp::DropGreenArm => match instr {
                    Instr::St { .. } => None,
                    _ if instr.color() == Some(Color::Green) && !instr.is_control() => {
                        Some((delete_instr(p, addr), format!("deleted `{instr}`")))
                    }
                    _ => None,
                },
                MutationOp::MiscolorOperand => match instr {
                    Instr::Op {
                        op,
                        rd,
                        rs,
                        src2: OpSrc::Imm(v),
                    } => {
                        let mut q = p.clone();
                        q.instrs[i] = Instr::Op {
                            op,
                            rd,
                            rs,
                            src2: OpSrc::Imm(CVal::new(v.color.other(), v.val)),
                        };
                        Some((q, format!("recolored immediate of `{instr}`")))
                    }
                    _ => None,
                },
                MutationOp::DesyncValue => match instr {
                    Instr::Mov { rd, v }
                        if v.color == Color::Blue && !p.preconds.contains_key(&v.val) =>
                    {
                        let mut q = p.clone();
                        q.instrs[i] = Instr::Mov {
                            rd,
                            v: CVal::new(v.color, v.val.wrapping_add(1)),
                        };
                        Some((q, format!("`{instr}` value bumped")))
                    }
                    Instr::Op {
                        op,
                        rd,
                        rs,
                        src2: OpSrc::Imm(v),
                    } if v.color == Color::Blue && !p.preconds.contains_key(&v.val) => {
                        let mut q = p.clone();
                        q.instrs[i] = Instr::Op {
                            op,
                            rd,
                            rs,
                            src2: OpSrc::Imm(CVal::new(v.color, v.val.wrapping_add(1))),
                        };
                        Some((q, format!("`{instr}` immediate bumped")))
                    }
                    _ => None,
                },
                MutationOp::SameRegStorePair => match instr {
                    Instr::St {
                        color: Color::Blue,
                        rd,
                        rs,
                    } => matching_green_store(p, i).and_then(|(gd, gs)| {
                        if (gd, gs) == (rd, rs) {
                            return None;
                        }
                        let mut q = p.clone();
                        q.instrs[i] = Instr::St {
                            color: Color::Blue,
                            rd: gd,
                            rs: gs,
                        };
                        Some((q, format!("`{instr}` now reuses the stG registers")))
                    }),
                    _ => None,
                },
                MutationOp::SwapStoreOperands => match instr {
                    Instr::St { color, rd, rs } if rd != rs => {
                        let mut q = p.clone();
                        q.instrs[i] = Instr::St {
                            color,
                            rd: rs,
                            rs: rd,
                        };
                        Some((q, format!("swapped operands of `{instr}`")))
                    }
                    _ => None,
                },
                MutationOp::StoreColorFlip => match instr {
                    Instr::St { color, rd, rs } => {
                        let mut q = p.clone();
                        q.instrs[i] = Instr::St {
                            color: color.other(),
                            rd,
                            rs,
                        };
                        Some((q, format!("flipped color of `{instr}`")))
                    }
                    _ => None,
                },
                MutationOp::RedirectBlueTarget => match instr {
                    Instr::Mov { rd, v }
                        if v.color == Color::Blue && p.preconds.contains_key(&v.val) =>
                    {
                        next_precond_addr(p, v.val).map(|next| {
                            let mut q = p.clone();
                            q.instrs[i] = Instr::Mov {
                                rd,
                                v: CVal::new(Color::Blue, next),
                            };
                            (q, format!("blue target {} repointed to {}", v.val, next))
                        })
                    }
                    _ => None,
                },
                MutationOp::SplitStorePair => match instr {
                    Instr::St {
                        color: Color::Blue, ..
                    } if !p.preconds.contains_key(&addr) => {
                        let mut q = p.clone();
                        q.preconds.insert(addr, Arc::new(trivial_precond(arena)));
                        q.labels.insert(format!("__split_{addr}"), addr);
                        Some((q, format!("block boundary inserted before `{instr}`")))
                    }
                    _ => None,
                },
                MutationOp::ReorderBzFall => match instr {
                    Instr::Bz {
                        color: Color::Blue, ..
                    } if p.is_code_addr(addr + 1) => {
                        let mut q = p.clone();
                        q.instrs.swap(i, i + 1);
                        Some((q, format!("hoisted `{}` above `{instr}`", p.instrs[i + 1])))
                    }
                    _ => None,
                },
            };
            if let Some((program, detail)) = mutated {
                if program != *p {
                    out.push(Mutant {
                        op: self,
                        addr,
                        detail,
                        program,
                    });
                }
            }
        }
        out
    }
}

/// One mutated program plus provenance (operator, site, human note).
#[derive(Debug, Clone)]
pub struct Mutant {
    /// The operator that produced this mutant.
    pub op: MutationOp,
    /// Code address of the mutated site in the *original* program.
    pub addr: i64,
    /// Human-readable description of the edit.
    pub detail: String,
    /// The mutated program (shares the original's expression arena).
    pub program: Program,
}

/// Delete the instruction at `addr` (1-based), shifting every later code
/// address down by one: labels, preconditions, the entry point, and —
/// crucially — *code-label immediates* (constants whose value names a block
/// start in the original program). Without the immediate remap a deletion
/// would break every branch target after the site, and the checker would be
/// rejecting address arithmetic rather than the lost protection. The
/// preconditions are the parent's own, re-keyed.
fn delete_instr(p: &Program, addr: i64) -> Program {
    let shift = |a: i64| if a > addr { a - 1 } else { a };
    let mut instrs = p.instrs.clone();
    instrs.remove((addr - 1) as usize);
    for ins in &mut instrs {
        match ins {
            Instr::Mov { v, .. }
            | Instr::Op {
                src2: OpSrc::Imm(v),
                ..
            } if p.preconds.contains_key(&v.val) => v.val = shift(v.val),
            _ => {}
        }
    }
    Program {
        instrs,
        labels: p
            .labels
            .iter()
            .map(|(n, &a)| (n.clone(), shift(a)))
            .collect(),
        preconds: p
            .preconds
            .iter()
            .map(|(&a, t)| (shift(a), Arc::clone(t)))
            .collect(),
        regions: p.regions.clone(),
        num_gprs: p.num_gprs,
        entry: shift(p.entry),
    }
}

/// The most recent `stG` before instruction index `i` within the same
/// block (no intervening control, no crossing above the block's label).
fn matching_green_store(p: &Program, i: usize) -> Option<(talft_isa::Gpr, talft_isa::Gpr)> {
    let mut j = i;
    while j > 0 {
        let prev = p.instrs[j - 1];
        if prev.is_control() {
            return None;
        }
        if let Instr::St {
            color: Color::Green,
            rd,
            rs,
        } = prev
        {
            return Some((rd, rs));
        }
        if p.preconds.contains_key(&(j as i64)) {
            return None; // reached the block's start without finding a stG
        }
        j -= 1;
    }
    None
}

/// The next annotated block address after `cur` (cyclically), if distinct.
fn next_precond_addr(p: &Program, cur: i64) -> Option<i64> {
    let keys: Vec<i64> = p.preconds.keys().copied().collect();
    let pos = keys.iter().position(|&k| k == cur)?;
    let next = keys[(pos + 1) % keys.len()];
    (next != cur).then_some(next)
}

/// `forall m:mem; mem: m;` — the weakest honest precondition: no register
/// typing, empty static queue. Inserting it mid-pair forces the checker to
/// confront a store pair spanning a block boundary.
fn trivial_precond(arena: &mut ExprArena) -> CodeTy {
    let m = arena.fresh_var("mem");
    let me = arena.var_expr(m);
    CodeTy {
        delta: vec![(m, Kind::Mem)],
        facts: vec![],
        regs: talft_isa::RegFileTy::new(),
        queue: vec![],
        mem: me,
    }
}

/// All mutants of every operator, in catalog order.
#[must_use]
pub fn all_mutants(p: &Program, arena: &mut ExprArena) -> Vec<Mutant> {
    MutationOp::ALL
        .iter()
        .flat_map(|op| op.apply(p, arena))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use talft_isa::Gpr;

    /// mov r1, G2; mov r2, B2; jmpG..jmpB shaped dummy — enough structure
    /// to exercise the deletion/remap helper without a full compile.
    fn toy() -> Program {
        let mut preconds = BTreeMap::new();
        let mut arena = ExprArena::default();
        preconds.insert(1, Arc::new(trivial_precond(&mut arena)));
        preconds.insert(3, Arc::new(trivial_precond(&mut arena)));
        let mut labels = BTreeMap::new();
        labels.insert("main".into(), 1);
        labels.insert("next".into(), 3);
        Program {
            instrs: vec![
                Instr::Mov {
                    rd: Gpr(1),
                    v: CVal::green(3), // code label: points at `next`
                },
                Instr::Mov {
                    rd: Gpr(2),
                    v: CVal::blue(3), // code label too
                },
                Instr::Halt,
            ],
            labels,
            preconds,
            regions: vec![],
            num_gprs: 8,
            entry: 1,
        }
    }

    #[test]
    fn delete_shifts_labels_preconds_and_label_immediates() {
        let p = toy();
        let q = delete_instr(&p, 2);
        assert_eq!(q.instrs.len(), 2);
        assert_eq!(q.labels["next"], 2);
        assert!(q.preconds.contains_key(&2));
        assert!(!q.preconds.contains_key(&3));
        // the remaining mov's label immediate followed the block
        assert_eq!(
            q.instrs[0],
            Instr::Mov {
                rd: Gpr(1),
                v: CVal::green(2)
            }
        );
        assert_eq!(q.entry, 1);
    }

    #[test]
    fn delete_before_site_leaves_earlier_addresses_alone() {
        let p = toy();
        let q = delete_instr(&p, 3);
        assert_eq!(q.labels["main"], 1);
        assert_eq!(q.labels["next"], 3); // at the site, not after it
        assert_eq!(
            q.instrs[0],
            Instr::Mov {
                rd: Gpr(1),
                v: CVal::green(3)
            }
        );
    }

    #[test]
    fn catalog_is_twelve_distinct_named_operators() {
        let mut names: Vec<&str> = MutationOp::ALL.iter().map(|o| o.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }
}
