//! Liveness analysis and linear-scan register allocation over colored
//! virtual registers.
//!
//! Colors impose no constraint on *physical* registers (a GPR can hold a
//! value of either color — colors live in values), so the allocator works
//! per colored vreg. Spilling is not implemented: TAL_FT spills would have
//! to round-trip through the store queue as dual-color pairs, and with the
//! Itanium-class register files the paper targets (64–128 GPRs) our kernels
//! never spill; exceeding pressure is a compile error (DESIGN.md).

use crate::dup::{CVReg, DupProgram};
use crate::vir::{Terminator, VirProgram};

/// Marks a colored vreg with no physical register in [`Allocation`].
const UNALLOCATED: u16 = u16::MAX;

/// Allocation result: colored vreg → physical GPR index.
#[derive(Debug, Clone, Default)]
pub struct Allocation {
    /// Physical register per `CVReg::index()`, [`UNALLOCATED`] if none.
    phys: Vec<u16>,
    /// Highest physical register used + 1.
    pub used: u16,
}

impl Allocation {
    /// Physical register of a colored vreg.
    #[must_use]
    pub fn get(&self, r: CVReg) -> Option<u16> {
        self.phys
            .get(r.index())
            .copied()
            .filter(|&p| p != UNALLOCATED)
    }

    /// Physical register, panicking on unallocated vregs (a compiler bug).
    #[must_use]
    pub fn phys(&self, r: CVReg) -> u16 {
        self.get(r).expect("colored vreg was live but unallocated")
    }
}

/// Allocation failure: register pressure exceeded the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocError {
    /// How many physical registers were available.
    pub available: u16,
    /// Pressure high-water mark that did not fit.
    pub needed: usize,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "register pressure too high: needs more than {} GPRs (live ≈ {}); \
             raise `.gprs` or simplify the kernel (TAL_FT spilling is not \
             implemented — see DESIGN.md)",
            self.available, self.needed
        )
    }
}

impl std::error::Error for AllocError {}

/// A set of colored vregs: one bit per `CVReg::index()`, in `u64` words.
#[derive(Debug, Clone)]
pub struct RegSet(Vec<u64>);

impl RegSet {
    /// The empty set over indices `0..nbits`.
    fn new(nbits: usize) -> RegSet {
        RegSet(vec![0; nbits.div_ceil(64)])
    }

    fn contains(&self, k: usize) -> bool {
        (self.0[k / 64] >> (k % 64)) & 1 == 1
    }

    fn insert(&mut self, k: usize) {
        self.0[k / 64] |= 1 << (k % 64);
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// The members in ascending order, as colored vregs.
    pub fn iter(&self) -> impl Iterator<Item = CVReg> + '_ {
        self.0.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let k = wi * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(CVReg::from_index(k))
            })
        })
    }
}

/// Per-block liveness of colored vregs.
#[derive(Debug, Clone, Default)]
pub struct Liveness {
    /// live-in sets per block.
    pub live_in: Vec<RegSet>,
    /// live-out sets per block.
    pub live_out: Vec<RegSet>,
    nbits: usize,
}

/// Compute liveness over the scheduled colored program. `orders[b]` is the
/// schedule (permutation) of block `b`.
#[must_use]
pub fn liveness(
    vir: &VirProgram,
    dup: &DupProgram,
    orders: &[Vec<usize>],
    num_vregs: u32,
) -> Liveness {
    let nbits = num_vregs as usize * 2;
    let nblocks = dup.blocks.len();
    let succs: Vec<Vec<usize>> = vir
        .blocks
        .iter()
        .map(|b| match b.term.expect("sealed") {
            Terminator::Jmp(t) => vec![t],
            Terminator::Bz { target, fall, .. } => vec![target, fall],
            Terminator::Halt => vec![],
        })
        .collect();
    debug_assert!(succs.iter().all(|v| v.iter().all(|&b| b < nblocks)));

    // Per-block use/def in schedule order.
    let mut uses = vec![RegSet::new(nbits); nblocks];
    let mut defs = vec![RegSet::new(nbits); nblocks];
    for (bid, blk) in dup.blocks.iter().enumerate() {
        for &idx in &orders[bid] {
            let i = &blk.instrs[idx];
            for u in i.uses() {
                if !defs[bid].contains(u.index()) {
                    uses[bid].insert(u.index());
                }
            }
            if let Some(d) = i.def() {
                defs[bid].insert(d.index());
            }
        }
    }

    // Backward fixpoint, word by word: out = ∪ in[succ], in = use ∪ (out ∖ def).
    let mut live_in = vec![RegSet::new(nbits); nblocks];
    let mut live_out = vec![RegSet::new(nbits); nblocks];
    let words = nbits.div_ceil(64);
    let mut changed = true;
    while changed {
        changed = false;
        for bid in (0..nblocks).rev() {
            for w in 0..words {
                let out = succs[bid].iter().fold(0, |acc, &s| acc | live_in[s].0[w]);
                let inn = uses[bid].0[w] | (out & !defs[bid].0[w]);
                if out != live_out[bid].0[w] || inn != live_in[bid].0[w] {
                    live_out[bid].0[w] = out;
                    live_in[bid].0[w] = inn;
                    changed = true;
                }
            }
        }
    }
    Liveness {
        live_in,
        live_out,
        nbits,
    }
}

/// Linear-scan allocation over global live intervals.
pub fn allocate(
    dup: &DupProgram,
    orders: &[Vec<usize>],
    live: &Liveness,
    num_gprs: u16,
) -> Result<Allocation, AllocError> {
    // Intervals per colored vreg (by dense index), over global positions:
    // blocks in layout order, each with one extra block-boundary slot.
    let mut start = vec![usize::MAX; live.nbits];
    let mut end = vec![0usize; live.nbits];
    let mut touch = |k: usize, p: usize| {
        start[k] = start[k].min(p);
        end[k] = end[k].max(p + 1);
    };
    let mut base = 0usize;
    for (bid, blk) in dup.blocks.iter().enumerate() {
        for (sched_pos, &idx) in orders[bid].iter().enumerate() {
            let p = base + sched_pos;
            let i = &blk.instrs[idx];
            for u in i.uses() {
                touch(u.index(), p);
            }
            if let Some(d) = i.def() {
                touch(d.index(), p);
            }
        }
        for r in live.live_in[bid].iter() {
            touch(r.index(), base);
        }
        for r in live.live_out[bid].iter() {
            touch(r.index(), base + blk.instrs.len());
        }
        base += blk.instrs.len() + 1;
    }

    // Linear scan.
    let mut order: Vec<usize> = (0..live.nbits)
        .filter(|&k| start[k] != usize::MAX)
        .collect();
    order.sort_unstable_by_key(|&k| (start[k], k));
    let mut free: Vec<u16> = (0..num_gprs).rev().collect();
    let mut active: Vec<(usize, u16)> = Vec::new(); // (end, phys)
    let mut alloc = Allocation {
        phys: vec![UNALLOCATED; live.nbits],
        used: 0,
    };
    for k in order {
        active.retain(|&(e, phys)| {
            if e <= start[k] {
                free.push(phys);
                false
            } else {
                true
            }
        });
        let Some(phys) = free.pop() else {
            return Err(AllocError {
                available: num_gprs,
                needed: active.len() + 1,
            });
        };
        active.push((end[k], phys));
        alloc.phys[k] = phys;
        alloc.used = alloc.used.max(phys + 1);
    }
    Ok(alloc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dup::duplicate;
    use crate::lower::lower;
    use crate::parse::parse;
    use crate::sched::schedule_block;
    use crate::sema::analyze;
    use talft_sim::MachineModel;

    fn pipeline(src: &str) -> (VirProgram, DupProgram, Vec<Vec<usize>>, u32) {
        let sem = analyze(&parse(src).expect("parses")).expect("sema");
        let vir = lower(&sem).expect("lowers");
        let (dup, nv) = duplicate(&vir);
        let model = MachineModel::default();
        let orders: Vec<Vec<usize>> = dup
            .blocks
            .iter()
            .map(|b| schedule_block(b, &model, true))
            .collect();
        (vir, dup, orders, nv)
    }

    const LOOP: &str = "array tab[8] = [1,2,3,4,5,6,7,8]; output out[8]; \
        func main() { var i = 0; var s = 0; \
        while (i < 8) { s = s + tab[i]; out[i] = s; i = i + 1; } }";

    #[test]
    fn loop_carried_values_are_live_at_header() {
        let (vir, dup, orders, nv) = pipeline(LOOP);
        let live = liveness(&vir, &dup, &orders, nv);
        // the loop header (block 1) must have live-in values (i, s pairs)
        let live_in_count = live.live_in[1].iter().count();
        assert!(
            live_in_count >= 4,
            "expected ≥ 2 pairs live-in, got {live_in_count}"
        );
    }

    #[test]
    fn allocation_succeeds_and_respects_no_aliasing() {
        let (vir, dup, orders, nv) = pipeline(LOOP);
        let live = liveness(&vir, &dup, &orders, nv);
        let alloc = allocate(&dup, &orders, &live, 64).expect("fits in 64 GPRs");
        // Distinct simultaneously-live colored vregs get distinct physical
        // registers: check per block that live-in regs are injective.
        for bid in 0..dup.blocks.len() {
            let mut seen = std::collections::HashSet::new();
            for r in live.live_in[bid].iter() {
                if let Some(p) = alloc.get(r) {
                    assert!(seen.insert(p), "physical register reused among live-ins");
                }
            }
        }
    }

    #[test]
    fn pressure_error_is_reported() {
        let (vir, dup, orders, nv) = pipeline(LOOP);
        let live = liveness(&vir, &dup, &orders, nv);
        let err = allocate(&dup, &orders, &live, 2).expect_err("2 GPRs cannot fit");
        assert_eq!(err.available, 2);
    }
}
