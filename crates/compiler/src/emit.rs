//! Emission: scheduled + allocated colored code → an annotated TAL_FT
//! [`Program`] that the `talft-core` checker accepts.
//!
//! Annotation synthesis (per block label):
//!
//! * one universally-quantified variable `v<k>` per live-in vreg *pair* —
//!   the green copy's register is typed `(G, int, v<k>)` and the blue
//!   copy's `(B, int, v<k>)`, which is exactly how the checker enforces
//!   Principle 4 (green/blue equality) at every block boundary;
//! * a fresh memory variable; an empty queue (store pairs never span
//!   blocks); `d = (G, int, 0)`; pcs at the label's address.
//!
//! Empty fall-through blocks share their successor's address and emit no
//! label of their own.

use std::sync::Arc;

use talft_isa::ty::ValTy;
use talft_isa::{
    BasicTy, CVal, CodeTy, Color, Gpr, Instr, OpSrc, Program, RegFileTy, RegTy, Region, DATA_BASE,
};
use talft_logic::{ExprArena, Kind};

use crate::dup::{CInstr, COperand, CVReg, DupProgram};
use crate::regalloc::{Allocation, Liveness};
use crate::vir::{VReg, VirProgram};

/// Emission error (internal invariant violations surface here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmitError(pub String);

impl std::fmt::Display for EmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for EmitError {}

/// Emit a TAL_FT program. Returns the program, its expression arena, and
/// the per-block start addresses (used by the timing pipeline).
pub fn emit(
    vir: &VirProgram,
    dup: &DupProgram,
    orders: &[Vec<usize>],
    live: &Liveness,
    alloc: &Allocation,
    num_gprs: u16,
) -> Result<(Program, ExprArena, Vec<i64>), EmitError> {
    let mut arena = ExprArena::new();
    let nblocks = dup.blocks.len();

    // Block start addresses; empty blocks share the next block's address.
    let mut addr = vec![0i64; nblocks + 1];
    let mut next_addr = 1i64;
    for (slot, block) in addr.iter_mut().zip(&dup.blocks) {
        *slot = next_addr;
        next_addr += block.instrs.len() as i64;
    }
    addr[nblocks] = next_addr;
    // Code lives at addresses 1 ..= len, strictly below the data space.
    let code_len = next_addr - 1;
    if code_len >= DATA_BASE {
        return Err(EmitError(format!(
            "{code_len} instructions overflow the code address space \
             (code must end below address {DATA_BASE})"
        )));
    }

    let mut program = Program {
        num_gprs,
        entry: 1,
        ..Program::default()
    };
    for r in &vir.regions {
        program.regions.push(Region {
            name: r.name.clone(),
            base: r.base,
            len: r.len,
            elem: BasicTy::Int,
            init: r.init.clone(),
            output: r.output,
        });
    }

    // Entry must have no live-ins (the boot register file is untyped).
    if !live.live_in[0].is_empty() {
        return Err(EmitError("entry block has live-in registers".into()));
    }

    for bid in 0..nblocks {
        let blk = &dup.blocks[bid];
        let is_empty = blk.instrs.is_empty();

        // Label + precondition (skip empty fall-through blocks: they share
        // the successor's address and contract).
        if !is_empty || bid == 0 {
            let label = if bid == 0 {
                "main".to_owned()
            } else {
                format!("b{bid}")
            };
            let this_addr = addr[bid];
            if !is_empty {
                program.labels.insert(label, this_addr);
                let pre = precond(&mut arena, bid, live, alloc, this_addr)?;
                program.preconds.insert(this_addr, Arc::new(pre));
            } else {
                // empty entry block: alias main to the next address
                program.labels.insert(label, addr[bid + 1]);
            }
        }

        for &idx in &orders[bid] {
            let i = &blk.instrs[idx];
            program.instrs.push(lower_instr(i, alloc, &addr)?);
        }
    }

    if program.preconds.is_empty() || !program.preconds.contains_key(&1) {
        return Err(EmitError("entry block emitted no precondition".into()));
    }
    Ok((program, arena, addr))
}

fn phys(alloc: &Allocation, r: CVReg) -> Gpr {
    Gpr(alloc.phys(r))
}

fn lower_instr(i: &CInstr, alloc: &Allocation, addr: &[i64]) -> Result<Instr, EmitError> {
    Ok(match *i {
        CInstr::Op { op, d, a, b } => Instr::Op {
            op,
            rd: phys(alloc, d),
            rs: phys(alloc, a),
            src2: match b {
                COperand::Reg(r) => OpSrc::Reg(phys(alloc, r)),
                COperand::Imm(n) => OpSrc::Imm(CVal::new(d.color, n)),
            },
        },
        CInstr::Movi { d, imm } => Instr::Mov {
            rd: phys(alloc, d),
            v: CVal::new(d.color, imm),
        },
        CInstr::MovLabel { d, block } => Instr::Mov {
            rd: phys(alloc, d),
            v: CVal::new(
                d.color,
                *addr
                    .get(block)
                    .ok_or_else(|| EmitError(format!("bad block id {block}")))?,
            ),
        },
        CInstr::Ld { d, addr: a } => Instr::Ld {
            color: d.color,
            rd: phys(alloc, d),
            rs: phys(alloc, a),
        },
        CInstr::StG { addr: a, val } => Instr::St {
            color: Color::Green,
            rd: phys(alloc, a),
            rs: phys(alloc, val),
        },
        CInstr::StB { addr: a, val } => Instr::St {
            color: Color::Blue,
            rd: phys(alloc, a),
            rs: phys(alloc, val),
        },
        CInstr::BzG { z, t } => Instr::Bz {
            color: Color::Green,
            rz: phys(alloc, z),
            rd: phys(alloc, t),
        },
        CInstr::BzB { z, t } => Instr::Bz {
            color: Color::Blue,
            rz: phys(alloc, z),
            rd: phys(alloc, t),
        },
        CInstr::JmpG { t } => Instr::Jmp {
            color: Color::Green,
            rd: phys(alloc, t),
        },
        CInstr::JmpB { t } => Instr::Jmp {
            color: Color::Blue,
            rd: phys(alloc, t),
        },
        CInstr::Halt => Instr::Halt,
    })
}

/// Build the precondition for a block from its live-in set.
fn precond(
    arena: &mut ExprArena,
    bid: usize,
    live: &Liveness,
    alloc: &Allocation,
    this_addr: i64,
) -> Result<CodeTy, EmitError> {
    let mut delta = Vec::new();
    let mut regs = RegFileTy::new();

    // Group live-ins by underlying vreg so the green/blue copies share one
    // universally-quantified variable. A vreg's two copies have adjacent
    // dense indices, so they come out of the ascending walk one after the
    // other.
    let mut vreg_var: Option<(VReg, talft_logic::VarId)> = None;
    for cv in live.live_in[bid].iter() {
        let CVReg { v, color } = cv;
        let var = match vreg_var {
            Some((seen, var)) if seen == v => var,
            _ => {
                let var = arena.var_id(&format!("v{}_{bid}", v.0));
                delta.push((var, Kind::Int));
                vreg_var = Some((v, var));
                var
            }
        };
        let p = alloc
            .get(cv)
            .ok_or_else(|| EmitError(format!("live-in vreg {} ({color}) unallocated", v.0)))?;
        let e = arena.var_expr(var);
        regs.set(
            talft_isa::Reg::Gpr(Gpr(p)),
            RegTy::Val(ValTy::new(color, BasicTy::Int, e)),
        );
    }

    // d, pcs, mem defaults.
    let zero = arena.int(0);
    regs.set(talft_isa::Reg::Dst, RegTy::int(Color::Green, zero));
    let a = arena.int(this_addr);
    regs.set(
        talft_isa::Reg::Pc(Color::Green),
        RegTy::Val(ValTy::new(Color::Green, BasicTy::Int, a)),
    );
    regs.set(
        talft_isa::Reg::Pc(Color::Blue),
        RegTy::Val(ValTy::new(Color::Blue, BasicTy::Int, a)),
    );
    let mvar = arena.var_id(&format!("m{bid}"));
    delta.push((mvar, Kind::Mem));
    let mem = arena.var_expr(mvar);

    Ok(CodeTy {
        delta,
        facts: Vec::new(),
        regs,
        queue: Vec::new(),
        mem,
    })
}

/// Convenience: wrap a program in an `Arc` (the machine's expected form).
#[must_use]
pub fn share(program: Program) -> Arc<Program> {
    Arc::new(program)
}

#[cfg(test)]
mod tests {
    use crate::{compile, CompileError, CompileOptions};

    /// `n` `if`s one after another, each guarding an output store.
    fn sequential_ifs(n: usize) -> String {
        format!(
            "output out[1];\nfunc main() {{\n  var x = 0;\n{}}}\n",
            "  if (x == 0) { out[0] = 1; }\n".repeat(n)
        )
    }

    /// Code that would reach the data space is a compile error, not a
    /// program the checker has to reject.
    #[test]
    fn code_past_the_data_base_is_an_emit_error() {
        let err = compile(&sequential_ifs(400), &CompileOptions::default()).err();
        match err {
            Some(CompileError::Emit(e)) => {
                assert!(e.0.contains("overflow the code address space"), "{e}");
            }
            other => panic!("expected an emit error, got {other:?}"),
        }
        compile(&sequential_ifs(20), &CompileOptions::default()).expect("short programs compile");
    }
}
