//! The **reliability transformation**: duplicate every computation into a
//! green and a blue stream, split stores into `stG`/`stB` pairs and control
//! transfers into `jmpG`/`jmpB` (`bzG`/`bzB`) pairs — the transform the
//! paper added to the VELOCITY compiler "immediately before register
//! allocation and scheduling" (§5).
//!
//! Output is a per-block list of colored instructions ([`CInstr`]) over
//! colored virtual registers ([`CVReg`]), plus the dependence edges the
//! scheduler must respect. The green≺blue *ordering constraint* on paired
//! stores/jumps is emitted as a separate edge class so the Figure 10
//! ablation can drop it.

use talft_isa::Color;
use talft_logic::BinOp;

use crate::vir::{BlockId, Terminator, VInstr, VOperand, VReg, VirProgram};

/// A colored virtual register: the `color` copy of VIR register `v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CVReg {
    /// The underlying VIR register.
    pub v: VReg,
    /// Which redundant stream this copy belongs to.
    pub color: Color,
}

impl CVReg {
    /// Dense index (for liveness bitsets): `2·v + color`.
    #[must_use]
    pub fn index(self) -> usize {
        (self.v.0 as usize) * 2 + usize::from(self.color == Color::Blue)
    }

    /// The colored vreg with dense index `k` (the inverse of [`CVReg::index`]).
    pub(crate) fn from_index(k: usize) -> CVReg {
        CVReg {
            v: VReg((k / 2) as u32),
            color: if k.is_multiple_of(2) {
                Color::Green
            } else {
                Color::Blue
            },
        }
    }
}

/// Colored instructions — the scheduler's unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CInstr {
    /// ALU op within one color.
    Op {
        /// Operation.
        op: BinOp,
        /// Destination.
        d: CVReg,
        /// First source.
        a: CVReg,
        /// Second source (same color when a register).
        b: COperand,
    },
    /// Load a constant.
    Movi {
        /// Destination.
        d: CVReg,
        /// The constant.
        imm: i64,
    },
    /// Load a block label's address (resolved at emission).
    MovLabel {
        /// Destination.
        d: CVReg,
        /// Target block.
        block: BlockId,
    },
    /// Memory load of this color.
    Ld {
        /// Destination.
        d: CVReg,
        /// Address register.
        addr: CVReg,
    },
    /// Green store half: enqueue.
    StG {
        /// Address register (green).
        addr: CVReg,
        /// Value register (green).
        val: CVReg,
    },
    /// Blue store half: compare and commit.
    StB {
        /// Address register (blue).
        addr: CVReg,
        /// Value register (blue).
        val: CVReg,
    },
    /// Green conditional-branch half.
    BzG {
        /// Condition (green).
        z: CVReg,
        /// Target register (green).
        t: CVReg,
    },
    /// Blue conditional-branch half.
    BzB {
        /// Condition (blue).
        z: CVReg,
        /// Target register (blue).
        t: CVReg,
    },
    /// Green jump half.
    JmpG {
        /// Target register (green).
        t: CVReg,
    },
    /// Blue jump half.
    JmpB {
        /// Target register (blue).
        t: CVReg,
    },
    /// Stop.
    Halt,
}

impl CInstr {
    /// Registers read, in operand order (at most two; nothing is allocated).
    pub fn uses(&self) -> impl Iterator<Item = CVReg> {
        let (first, second) = match *self {
            CInstr::Op { a, b, .. } => match b {
                COperand::Reg(r) => (Some(a), Some(r)),
                COperand::Imm(_) => (Some(a), None),
            },
            CInstr::Movi { .. } | CInstr::MovLabel { .. } | CInstr::Halt => (None, None),
            CInstr::Ld { addr, .. } => (Some(addr), None),
            CInstr::StG { addr, val } | CInstr::StB { addr, val } => (Some(addr), Some(val)),
            CInstr::BzG { z, t } | CInstr::BzB { z, t } => (Some(z), Some(t)),
            CInstr::JmpG { t } | CInstr::JmpB { t } => (Some(t), None),
        };
        first.into_iter().chain(second)
    }

    /// Register written, if any.
    #[must_use]
    pub fn def(&self) -> Option<CVReg> {
        match *self {
            CInstr::Op { d, .. }
            | CInstr::Movi { d, .. }
            | CInstr::MovLabel { d, .. }
            | CInstr::Ld { d, .. } => Some(d),
            _ => None,
        }
    }

    /// Whether this is a d-protocol instruction (their relative order is
    /// fixed: the destination register is a single hardware resource).
    #[must_use]
    pub fn uses_d_protocol(&self) -> bool {
        matches!(
            self,
            CInstr::BzG { .. } | CInstr::BzB { .. } | CInstr::JmpG { .. } | CInstr::JmpB { .. }
        )
    }
}

/// Second operand of a colored op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum COperand {
    /// A colored register.
    Reg(CVReg),
    /// An immediate (colored at emission).
    Imm(i64),
}

/// A dependence edge `from must precede to` (indices into the block's
/// instruction list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Earlier instruction.
    pub from: usize,
    /// Later instruction.
    pub to: usize,
    /// Whether this edge exists *only* because of the green≺blue ordering
    /// constraint (dropped by the "without ordering" ablation).
    pub ordering_only: bool,
}

/// A duplicated block: colored instructions + dependence edges.
#[derive(Debug, Clone, Default)]
pub struct DupBlock {
    /// Colored instructions in naive (unscheduled) order.
    pub instrs: Vec<CInstr>,
    /// Dependence edges.
    pub deps: Vec<DepEdge>,
}

/// A duplicated program.
#[derive(Debug, Clone, Default)]
pub struct DupProgram {
    /// One duplicated block per VIR block (same ids/layout).
    pub blocks: Vec<DupBlock>,
}

fn g(v: VReg) -> CVReg {
    CVReg {
        v,
        color: Color::Green,
    }
}

fn b(v: VReg) -> CVReg {
    CVReg {
        v,
        color: Color::Blue,
    }
}

/// Apply the reliability transformation to a whole VIR program.
///
/// Fresh virtual registers are minted for branch-target temporaries; the
/// returned program shares block ids with the input.
pub fn duplicate(p: &VirProgram) -> (DupProgram, u32) {
    let mut next_vreg = p.num_vregs;
    let mut blocks = Vec::with_capacity(p.blocks.len());
    for (bid, block) in p.blocks.iter().enumerate() {
        let mut out = DupBlock::default();
        for i in &block.instrs {
            match *i {
                VInstr::Op { op, d, a, b: src2 } => {
                    let b2g = match src2 {
                        VOperand::Reg(r) => COperand::Reg(g(r)),
                        VOperand::Imm(n) => COperand::Imm(n),
                    };
                    let b2b = match src2 {
                        VOperand::Reg(r) => COperand::Reg(b(r)),
                        VOperand::Imm(n) => COperand::Imm(n),
                    };
                    out.instrs.push(CInstr::Op {
                        op,
                        d: g(d),
                        a: g(a),
                        b: b2g,
                    });
                    out.instrs.push(CInstr::Op {
                        op,
                        d: b(d),
                        a: b(a),
                        b: b2b,
                    });
                }
                VInstr::Movi { d, imm } => {
                    out.instrs.push(CInstr::Movi { d: g(d), imm });
                    out.instrs.push(CInstr::Movi { d: b(d), imm });
                }
                VInstr::Ld { d, addr } => {
                    out.instrs.push(CInstr::Ld {
                        d: g(d),
                        addr: g(addr),
                    });
                    out.instrs.push(CInstr::Ld {
                        d: b(d),
                        addr: b(addr),
                    });
                }
                VInstr::St { addr, val } => {
                    out.instrs.push(CInstr::StG {
                        addr: g(addr),
                        val: g(val),
                    });
                    out.instrs.push(CInstr::StB {
                        addr: b(addr),
                        val: b(val),
                    });
                }
            }
        }
        // Terminator.
        match block.term.expect("lowering seals every block") {
            Terminator::Jmp(t) => {
                if t != bid + 1 {
                    let tv = VReg(next_vreg);
                    next_vreg += 1;
                    out.instrs.push(CInstr::MovLabel { d: g(tv), block: t });
                    out.instrs.push(CInstr::MovLabel { d: b(tv), block: t });
                    out.instrs.push(CInstr::JmpG { t: g(tv) });
                    out.instrs.push(CInstr::JmpB { t: b(tv) });
                }
                // fall-through otherwise: no instructions
            }
            Terminator::Bz { z, target, fall } => {
                debug_assert_eq!(fall, bid + 1, "lowering layout discipline");
                let tv = VReg(next_vreg);
                next_vreg += 1;
                out.instrs.push(CInstr::MovLabel {
                    d: g(tv),
                    block: target,
                });
                out.instrs.push(CInstr::MovLabel {
                    d: b(tv),
                    block: target,
                });
                out.instrs.push(CInstr::BzG { z: g(z), t: g(tv) });
                out.instrs.push(CInstr::BzB { z: b(z), t: b(tv) });
            }
            Terminator::Halt => out.instrs.push(CInstr::Halt),
        }
        out.deps = dependence_edges(&out.instrs);
        blocks.push(out);
    }
    (DupProgram { blocks }, next_vreg)
}

/// Compute intra-block dependence edges:
///
/// * RAW / WAR / WAW through colored registers;
/// * same-color memory order: green memory ops (`stG`, `ldG`) are ordered
///   among themselves (the queue and its forwarding), as are blue ones
///   (`stB` commits, `ldB` reads memory);
/// * store pairs: `stG_i ≺ stB_i` plus FIFO pairing (edge class
///   `ordering_only` carries the relaxable green≺blue constraint — data
///   correctness already pins `stG_i` before `stB_i` *commits*, but the
///   paper's "without ordering" hardware correlates out-of-order pairs, so
///   those edges are marked relaxable);
/// * d-protocol order: `bzG`/`bzB`/`jmpG`/`jmpB` keep their relative order,
///   and every non-control instruction precedes the first blue transfer;
///   `jmp` pair edges are likewise `ordering_only`-relaxable.
fn dependence_edges(instrs: &[CInstr]) -> Vec<DepEdge> {
    let mut edges = Vec::new();
    let mut push = |from: usize, to: usize, ordering_only: bool| {
        if from != to {
            edges.push(DepEdge {
                from,
                to,
                ordering_only,
            });
        }
    };

    // Register dependences: every earlier instruction that writes a
    // register this one reads (RAW), reads the register it writes (WAR) or
    // writes it too (WAW). Operands are flattened to dense indices once, so
    // the pair loop compares integers; a missing def and a missing use get
    // different sentinels, so they never match each other.
    const NO_DEF: usize = usize::MAX;
    const NO_USE: usize = usize::MAX - 1;
    let ops: Vec<(usize, [usize; 2])> = instrs
        .iter()
        .map(|i| {
            let mut u = [NO_USE; 2];
            for (slot, r) in u.iter_mut().zip(i.uses()) {
                *slot = r.index();
            }
            (i.def().map_or(NO_DEF, CVReg::index), u)
        })
        .collect();
    for (j, &(dj, uj)) in ops.iter().enumerate() {
        for (i, &(di, ui)) in ops[..j].iter().enumerate() {
            let raw = di == uj[0] || di == uj[1];
            let war = dj == ui[0] || dj == ui[1];
            let waw = di == dj && di != NO_DEF;
            if raw || war || waw {
                push(i, j, false);
            }
        }
    }

    // Memory order within each color; pair/ordering edges.
    let mut last_green_mem: Option<usize> = None;
    let mut last_blue_mem: Option<usize> = None;
    // Green stores not yet matched by a blue one; `matched` of them are.
    let mut pending_stg: Vec<usize> = Vec::new();
    let mut matched = 0;
    for (j, i) in instrs.iter().enumerate() {
        match i {
            CInstr::StG { .. } => {
                if let Some(p) = last_green_mem {
                    push(p, j, false);
                }
                last_green_mem = Some(j);
                pending_stg.push(j);
            }
            CInstr::Ld { d, .. } if d.color == Color::Green => {
                if let Some(p) = last_green_mem {
                    push(p, j, false);
                }
                last_green_mem = Some(j);
            }
            CInstr::StB { .. } => {
                if let Some(p) = last_blue_mem {
                    push(p, j, false);
                }
                last_blue_mem = Some(j);
                // FIFO: this stB matches the oldest unmatched stG.
                if let Some(&m) = pending_stg.get(matched) {
                    matched += 1;
                    push(m, j, true); // the relaxable green≺blue pair edge
                }
            }
            CInstr::Ld { d, .. } if d.color == Color::Blue => {
                if let Some(p) = last_blue_mem {
                    push(p, j, false);
                }
                last_blue_mem = Some(j);
            }
            _ => {}
        }
    }

    // d-protocol serialization and end-of-block control.
    let controls: Vec<usize> = instrs
        .iter()
        .enumerate()
        .filter(|(_, i)| i.uses_d_protocol() || matches!(i, CInstr::Halt))
        .map(|(j, _)| j)
        .collect();
    for w in controls.windows(2) {
        // jmpG≺jmpB pair edges are the relaxable control-ordering ones;
        // everything else in the protocol keeps strict order.
        let relaxable = matches!(
            (&instrs[w[0]], &instrs[w[1]]),
            (CInstr::JmpG { .. }, CInstr::JmpB { .. })
        );
        push(w[0], w[1], relaxable);
    }
    // All non-control instructions must precede the first blue transfer
    // (instructions after it would be skipped on the taken path) and the
    // halt.
    let first_commit = instrs
        .iter()
        .position(|i| matches!(i, CInstr::BzB { .. } | CInstr::JmpB { .. } | CInstr::Halt));
    if let Some(fc) = first_commit {
        for (j, instr) in instrs.iter().enumerate() {
            if j != fc && !instr.uses_d_protocol() && !matches!(instr, CInstr::Halt) {
                if j < fc {
                    push(j, fc, false);
                } else {
                    // late instructions only exist when a bzB falls through
                    // into a jmp pair; keep them after the bzB
                    push(fc, j, false);
                }
            }
        }
    }
    edges
}

/// The **unprotected baseline** backend: the same VIR emitted single-color
/// (all green), with stores/transfers encoded as same-register pairs (the
/// only way the TAL_FT hardware can store at all). This is exactly the
/// "unreliable version" of the paper's evaluation: it executes correctly in
/// fault-free runs, the type checker rejects it (cf. the §2.2 CSE example),
/// and fault injection finds silent data corruption in it.
pub fn baseline(p: &VirProgram) -> (DupProgram, u32) {
    let mut next_vreg = p.num_vregs;
    let mut blocks = Vec::with_capacity(p.blocks.len());
    for (bid, block) in p.blocks.iter().enumerate() {
        let mut out = DupBlock::default();
        for i in &block.instrs {
            match *i {
                VInstr::Op { op, d, a, b: src2 } => {
                    let b2 = match src2 {
                        VOperand::Reg(r) => COperand::Reg(g(r)),
                        VOperand::Imm(n) => COperand::Imm(n),
                    };
                    out.instrs.push(CInstr::Op {
                        op,
                        d: g(d),
                        a: g(a),
                        b: b2,
                    });
                }
                VInstr::Movi { d, imm } => out.instrs.push(CInstr::Movi { d: g(d), imm }),
                VInstr::Ld { d, addr } => out.instrs.push(CInstr::Ld {
                    d: g(d),
                    addr: g(addr),
                }),
                VInstr::St { addr, val } => {
                    // same-register pair: the unprotected store idiom
                    out.instrs.push(CInstr::StG {
                        addr: g(addr),
                        val: g(val),
                    });
                    out.instrs.push(CInstr::StB {
                        addr: g(addr),
                        val: g(val),
                    });
                }
            }
        }
        match block.term.expect("lowering seals every block") {
            Terminator::Jmp(t) => {
                if t != bid + 1 {
                    let tv = VReg(next_vreg);
                    next_vreg += 1;
                    out.instrs.push(CInstr::MovLabel { d: g(tv), block: t });
                    out.instrs.push(CInstr::JmpG { t: g(tv) });
                    out.instrs.push(CInstr::JmpB { t: g(tv) });
                }
            }
            Terminator::Bz { z, target, fall } => {
                debug_assert_eq!(fall, bid + 1);
                let tv = VReg(next_vreg);
                next_vreg += 1;
                out.instrs.push(CInstr::MovLabel {
                    d: g(tv),
                    block: target,
                });
                out.instrs.push(CInstr::BzG { z: g(z), t: g(tv) });
                out.instrs.push(CInstr::BzB { z: g(z), t: g(tv) });
            }
            Terminator::Halt => out.instrs.push(CInstr::Halt),
        }
        out.deps = dependence_edges(&out.instrs);
        blocks.push(out);
    }
    (DupProgram { blocks }, next_vreg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::parse::parse;
    use crate::sema::analyze;

    fn dup_src(src: &str) -> (DupProgram, crate::vir::VirProgram) {
        let sem = analyze(&parse(src).expect("parses")).expect("sema");
        let vir = lower(&sem).expect("lowers");
        let (d, _) = duplicate(&vir);
        (d, vir)
    }

    #[test]
    fn every_instr_is_duplicated() {
        let (d, vir) = dup_src("output out[1]; func main() { out[0] = 2 + 3; }");
        for (db, vb) in d.blocks.iter().zip(vir.blocks.iter()) {
            let colored = db
                .instrs
                .iter()
                .filter(|i| !matches!(i, CInstr::Halt))
                .count();
            // every VIR instr (and any jump materialization) appears twice
            assert!(colored >= vb.instrs.len() * 2);
        }
    }

    #[test]
    fn stores_become_pairs_with_relaxable_edge() {
        let (d, _) = dup_src("output out[1]; func main() { out[0] = 1; }");
        let b0 = &d.blocks[0];
        let stg = b0
            .instrs
            .iter()
            .position(|i| matches!(i, CInstr::StG { .. }))
            .expect("stG");
        let stb = b0
            .instrs
            .iter()
            .position(|i| matches!(i, CInstr::StB { .. }))
            .expect("stB");
        assert!(b0
            .deps
            .iter()
            .any(|e| e.from == stg && e.to == stb && e.ordering_only));
    }

    #[test]
    fn colors_never_mix_in_ops() {
        let (d, _) = dup_src(
            "output out[1]; func main() { var i = 0; var s = 0; \
             while (i < 5) { s = s + i * 2; i = i + 1; } out[0] = s; }",
        );
        for blk in &d.blocks {
            for i in &blk.instrs {
                if let CInstr::Op { d, a, b, .. } = i {
                    assert_eq!(d.color, a.color);
                    if let COperand::Reg(r) = b {
                        assert_eq!(d.color, r.color);
                    }
                }
            }
        }
    }

    #[test]
    fn branch_blocks_end_with_split_protocol() {
        let (d, vir) = dup_src(
            "output out[1]; func main() { var i = 0; \
             while (i < 3) { i = i + 1; } out[0] = i; }",
        );
        for (bid, vb) in vir.blocks.iter().enumerate() {
            if matches!(vb.term, Some(Terminator::Bz { .. })) {
                let instrs = &d.blocks[bid].instrs;
                let n = instrs.len();
                assert!(matches!(instrs[n - 1], CInstr::BzB { .. }));
                assert!(matches!(instrs[n - 2], CInstr::BzG { .. }));
            }
        }
    }

    #[test]
    fn fifo_pairing_of_multiple_stores() {
        let (d, _) = dup_src("output out[2]; func main() { out[0] = 1; out[1] = 2; }");
        let b0 = &d.blocks[0];
        let stgs: Vec<usize> = b0
            .instrs
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, CInstr::StG { .. }))
            .map(|(j, _)| j)
            .collect();
        let stbs: Vec<usize> = b0
            .instrs
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, CInstr::StB { .. }))
            .map(|(j, _)| j)
            .collect();
        assert_eq!(stgs.len(), 2);
        assert_eq!(stbs.len(), 2);
        // pair edges: stg[k] -> stb[k]
        for k in 0..2 {
            assert!(b0
                .deps
                .iter()
                .any(|e| e.from == stgs[k] && e.to == stbs[k] && e.ordering_only));
        }
    }

    #[test]
    fn dep_edges_are_acyclic_forward() {
        let (d, _) = dup_src(
            "output out[1]; func main() { var s = 0; var i = 0; \
             while (i < 4) { s = s + tabless(i); i = i + 1; } out[0] = s; } \
             func tabless(x) { return x * x + 1; }",
        );
        for blk in &d.blocks {
            for e in &blk.deps {
                assert!(e.from < e.to, "edges must point forward in naive order");
            }
        }
    }
}
