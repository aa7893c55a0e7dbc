//! The accepted-block memo (DESIGN.md §13): the checker's tier in front of
//! the entailment memo.
//!
//! Code typing (`Σ ⊢ C`, Figure 8) is a conjunction of per-block
//! judgements against `Ψ`. A block accepted once therefore stays accepted
//! in any program where its start, its precondition, its code and every
//! `Ψ` answer its walk read are unchanged. The oracle and the benchmark
//! check a kernel and all its mutants on one arena, so with this memo a
//! mutant re-walks only the blocks it changed.
//!
//! * **Key**: the block start, its precondition, and its instruction slice
//!   up to the next annotated address or the end of code. The slice end
//!   encodes "no annotation inside", which the walk's fall-through test
//!   reads. Entries are filed by start, and a lookup compares whole keys.
//! * **Recorded reads**: every `Ψ(a)` answer the walk used ([`Psi`]): `mov`
//!   constants, the `jmpG`/`bzG` target d-premise, `jmpB`/`bzB` transfers
//!   and the fall-through. A hit needs each one equal in the new program.
//! * **Region table**: `as_ref` and `data_ptr_ty` read it unrecorded, so
//!   entries hold only under the table they were checked under; a
//!   different table flushes the memo.
//! * Only accepted blocks are stored, so every diagnostic comes from a
//!   fresh walk. The memo holds at most [`CAP`] entries and is cleared
//!   when full.
//!
//! The memo lives in [`ExprArena::checker_slot`] because its keys hold
//! arena-relative expression ids, and it is used only while
//! [`ExprArena::solver_memo`] is on.

use std::collections::HashMap;

use talft_isa::{CodeTy, Instr, Program, Region};
use talft_logic::ExprArena;
use talft_obs::LazyCounter;

use crate::psi::Psi;

static HIT: LazyCounter = LazyCounter::new("checker.memo.hit");
static MISS: LazyCounter = LazyCounter::new("checker.memo.miss");

/// Most entries the memo holds before it is cleared.
pub(crate) const CAP: usize = 4096;

/// One accepted block; its start is the key it is filed under.
#[derive(Debug)]
struct Entry {
    pre: CodeTy,
    code: Box<[Instr]>,
    /// `Ψ(a)` for every address the walk read, sorted, no repeats.
    reads: Box<[(i64, Option<CodeTy>)]>,
    /// Instructions the walk covered.
    walked: usize,
}

/// Accepted blocks of earlier checks on one arena.
#[derive(Debug, Default)]
pub(crate) struct BlockMemo {
    regions: Vec<Region>,
    by_start: HashMap<i64, Vec<Entry>>,
    len: usize,
    hits: u64,
    misses: u64,
}

impl BlockMemo {
    /// Take the memo out of `arena`'s checker slot, flushed unless it was
    /// filled under `regions`.
    pub(crate) fn take(arena: &mut ExprArena, regions: &[Region]) -> Self {
        let mut memo = arena
            .checker_slot
            .take()
            .and_then(|slot| slot.downcast::<Self>().ok())
            .map_or_else(Self::default, |memo| *memo);
        if memo.regions != regions {
            memo.clear();
            memo.regions = regions.to_vec();
        }
        memo
    }

    /// Put the memo back into `arena`'s checker slot.
    pub(crate) fn put(self, arena: &mut ExprArena) {
        arena.checker_slot = Some(Box::new(self));
    }

    fn clear(&mut self) {
        self.by_start.clear();
        self.len = 0;
    }

    /// The instruction count of a remembered acceptance of the block at
    /// `start`, if its key matches and every recorded read answers the same
    /// in `program`.
    pub(crate) fn lookup(
        &mut self,
        program: &Program,
        start: i64,
        pre: &CodeTy,
        code: &[Instr],
    ) -> Option<usize> {
        let walked = self.by_start.get(&start).and_then(|entries| {
            entries
                .iter()
                .find(|e| {
                    *e.code == *code
                        && e.pre == *pre
                        && e.reads
                            .iter()
                            .all(|(a, t)| program.precond(*a) == t.as_ref())
                })
                .map(|e| e.walked)
        });
        if walked.is_some() {
            self.hits += 1;
            HIT.inc();
        } else {
            self.misses += 1;
            MISS.inc();
        }
        walked
    }

    /// Remember that the block at `start` was accepted after walking
    /// `walked` instructions and reading `psi`'s recorded addresses.
    pub(crate) fn store(
        &mut self,
        start: i64,
        pre: &CodeTy,
        code: &[Instr],
        psi: Psi<'_>,
        walked: usize,
    ) {
        if self.len >= CAP {
            self.clear();
        }
        let program = psi.program();
        let mut addrs = psi.into_reads();
        addrs.sort_unstable();
        addrs.dedup();
        let reads = addrs
            .into_iter()
            .map(|a| (a, program.precond(a).cloned()))
            .collect();
        self.by_start.entry(start).or_default().push(Entry {
            pre: pre.clone(),
            code: code.into(),
            reads,
            walked,
        });
        self.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_program;
    use talft_isa::assemble;

    const LOOP: &str = r#"
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 3
  mov r2, B 3
loop:
  .pre { forall x:int, m:mem; r1: (G, int, x); r2: (B, int, x); mem: m; }
  sub r1, r1, G 1
  sub r2, r2, B 1
  mov r3, G @loop
  mov r4, B @loop
  bzG r1, r3
  bzB r2, r4
  jmpG r3
  jmpB r4
"#;

    fn memo(arena: &ExprArena) -> &BlockMemo {
        arena
            .checker_slot
            .as_ref()
            .and_then(|slot| slot.downcast_ref::<BlockMemo>())
            .expect("the checker filled its slot")
    }

    #[test]
    fn warm_recheck_hits_every_block_and_asks_the_solver_nothing() {
        let mut asm = assemble(LOOP).expect("assembles");
        let cold = check_program(&asm.program, &mut asm.arena).expect("well-typed");
        assert_eq!((memo(&asm.arena).hits, memo(&asm.arena).misses), (0, 2));
        assert_eq!(memo(&asm.arena).len, 2);
        let queries = asm.arena.entail_cache_stats();
        let warm = check_program(&asm.program, &mut asm.arena).expect("well-typed");
        assert_eq!(warm, cold, "a hit reports the same blocks and instructions");
        assert_eq!((memo(&asm.arena).hits, memo(&asm.arena).misses), (2, 2));
        assert_eq!(asm.arena.entail_cache_stats(), queries);
    }

    #[test]
    fn memo_off_leaves_the_slot_empty() {
        let mut asm = assemble(LOOP).expect("assembles");
        asm.arena.solver_memo = false;
        check_program(&asm.program, &mut asm.arena).expect("well-typed");
        check_program(&asm.program, &mut asm.arena).expect("well-typed");
        assert!(asm.arena.checker_slot.is_none());
    }

    #[test]
    fn rejected_blocks_are_not_stored() {
        let bad = LOOP.replace("jmpB r4", "jmpB r3");
        let mut asm = assemble(&bad).expect("assembles");
        check_program(&asm.program, &mut asm.arena).expect_err("ill-typed");
        // `main` was accepted and stored; `loop` was rejected and was not.
        assert_eq!(memo(&asm.arena).len, 1);
        check_program(&asm.program, &mut asm.arena).expect_err("ill-typed");
        assert_eq!((memo(&asm.arena).hits, memo(&asm.arena).misses), (1, 3));
    }

    #[test]
    fn a_different_region_table_flushes_the_memo() {
        let mut asm = assemble(LOOP).expect("assembles");
        check_program(&asm.program, &mut asm.arena).expect("well-typed");
        let mut other = asm.program.clone();
        other.regions.push(Region {
            name: "tab".into(),
            base: 4096,
            len: 4,
            elem: talft_isa::BasicTy::Int,
            init: Vec::new(),
            output: false,
        });
        check_program(&other, &mut asm.arena).expect("well-typed");
        assert_eq!((memo(&asm.arena).hits, memo(&asm.arena).misses), (0, 4));
    }

    #[test]
    fn the_cap_holds() {
        let asm = assemble(LOOP).expect("assembles");
        let pre = &asm.program.preconds[&1];
        let mut memo = BlockMemo::default();
        for start in 0..CAP + 10 {
            let start = i64::try_from(start).expect("small");
            memo.store(start, pre, &[Instr::Halt], Psi::new(&asm.program), 1);
            assert!(memo.len <= CAP);
        }
        assert_eq!(memo.len, 10, "a full memo is cleared, then refilled");
        let kept: usize = memo.by_start.values().map(Vec::len).sum();
        assert_eq!(kept, memo.len);
    }
}
