//! Helpers shared by the root integration tests.

use std::collections::HashMap;

use talft::isa::{CVal, CodeTy, FactAnn, Gpr, Instr, OpSrc, Program, RegTy, ValTy};
use talft::logic::{ExprArena, ExprId, ExprNode};
use talft_testutil::SplitMix64;

/// A random single-instruction mutation of `program` — a changed
/// register, a flipped color, a perturbed immediate or a st/ld swap, the
/// space of plausible compiler bugs — or `None` when the drawn edit does
/// not apply to the drawn instruction. Mutations add no expressions, so
/// the mutant is valid against any arena the original was compiled into.
pub fn mutate(program: &Program, rng: &mut SplitMix64) -> Option<Program> {
    let mut p = program.clone();
    let idx = rng.index(p.instrs.len());
    let instr = &mut p.instrs[idx];
    let flip_gpr = |g: &Gpr, rng: &mut SplitMix64| Gpr((g.0 + rng.range_u64(1, 4) as u16) % 16);
    match rng.below(4) {
        // register substitution (wrong-operand bugs)
        0 => match instr {
            Instr::Op { rs, .. } => *rs = flip_gpr(rs, rng),
            Instr::Mov { rd, .. } => *rd = flip_gpr(rd, rng),
            Instr::Ld { rs, .. } => *rs = flip_gpr(rs, rng),
            Instr::St { rs, .. } => *rs = flip_gpr(rs, rng),
            Instr::Bz { rz, .. } => *rz = flip_gpr(rz, rng),
            Instr::Jmp { rd, .. } => *rd = flip_gpr(rd, rng),
            Instr::Halt => return None,
        },
        // color flip (lost-duplication bugs)
        1 => match instr {
            Instr::Ld { color, .. }
            | Instr::St { color, .. }
            | Instr::Bz { color, .. }
            | Instr::Jmp { color, .. } => *color = color.other(),
            Instr::Mov { v, .. } => v.color = v.color.other(),
            Instr::Op {
                src2: OpSrc::Imm(v),
                ..
            } => v.color = v.color.other(),
            _ => return None,
        },
        // immediate perturbation (wrong-constant bugs)
        2 => match instr {
            Instr::Mov { v, .. } => *v = CVal::new(v.color, v.val.wrapping_add(1)),
            Instr::Op {
                src2: OpSrc::Imm(v),
                ..
            } => {
                *v = CVal::new(v.color, v.val.wrapping_add(1));
            }
            _ => return None,
        },
        // opcode swap st<->ld (wrong-instruction bugs)
        _ => match *instr {
            Instr::St { color, rd, rs } => *instr = Instr::Ld { color, rd, rs },
            Instr::Ld { color, rd, rs } => *instr = Instr::St { color, rd, rs },
            _ => return None,
        },
    }
    Some(p)
}

/// `program` with its expressions copied from `arena` into a new arena:
/// the program as if it had been assembled alone, on an arena no check
/// has touched.
#[allow(dead_code)] // not every test binary that includes this module uses it
pub fn on_fresh_arena(program: &Program, arena: &ExprArena) -> (Program, ExprArena) {
    let mut copy = Transplant {
        from: arena,
        to: ExprArena::new(),
        done: HashMap::new(),
    };
    let mut p = program.clone();
    for pre in p.preconds.values_mut() {
        *pre = copy.code_ty(pre);
    }
    (p, copy.to)
}

struct Transplant<'a> {
    from: &'a ExprArena,
    to: ExprArena,
    done: HashMap<ExprId, ExprId>,
}

impl Transplant<'_> {
    fn expr(&mut self, e: ExprId) -> ExprId {
        if let Some(&c) = self.done.get(&e) {
            return c;
        }
        let node = match self.from.node(e) {
            ExprNode::Var(v) => ExprNode::Var(self.to.var_id(self.from.var_name(v))),
            n @ (ExprNode::Int(_) | ExprNode::Emp) => n,
            ExprNode::Bin(op, a, b) => ExprNode::Bin(op, self.expr(a), self.expr(b)),
            ExprNode::Sel(m, a) => ExprNode::Sel(self.expr(m), self.expr(a)),
            ExprNode::Upd(m, a, v) => ExprNode::Upd(self.expr(m), self.expr(a), self.expr(v)),
        };
        let c = self.to.intern(node);
        self.done.insert(e, c);
        c
    }

    fn val(&mut self, v: &ValTy) -> ValTy {
        ValTy::new(v.color, v.basic.clone(), self.expr(v.expr))
    }

    fn code_ty(&mut self, t: &CodeTy) -> CodeTy {
        let mut regs = t.regs.clone();
        for (r, ty) in t.regs.iter() {
            let ty = match ty {
                RegTy::Val(v) => RegTy::Val(self.val(v)),
                RegTy::Cond { guard, inner } => RegTy::Cond {
                    guard: self.expr(*guard),
                    inner: self.val(inner),
                },
                RegTy::Top => RegTy::Top,
            };
            regs.set(r, ty);
        }
        CodeTy {
            delta: t
                .delta
                .iter()
                .map(|&(v, k)| (self.to.var_id(self.from.var_name(v)), k))
                .collect(),
            facts: t
                .facts
                .iter()
                .map(|f| match *f {
                    FactAnn::EqZero(e) => FactAnn::EqZero(self.expr(e)),
                    FactAnn::NeqZero(e) => FactAnn::NeqZero(self.expr(e)),
                    FactAnn::Ge0(e) => FactAnn::Ge0(self.expr(e)),
                })
                .collect(),
            regs,
            queue: t
                .queue
                .iter()
                .map(|&(d, v)| (self.expr(d), self.expr(v)))
                .collect(),
            mem: self.expr(t.mem),
        }
    }
}
