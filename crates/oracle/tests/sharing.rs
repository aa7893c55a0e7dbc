//! Mutants share their parent's preconditions (`Program::preconds` is
//! copy-on-write): every precondition of a mutant is the parent's own
//! allocation, re-keyed at the shifted address for a deletion, except the
//! one `SplitStorePair` inserts; and changing a mutant's precondition
//! through [`Arc::make_mut`] copies it and leaves the parent unchanged.

use std::collections::BTreeMap;
use std::sync::Arc;

use talft_compiler::{compile, CompileOptions};
use talft_isa::{CodeTy, Program};
use talft_oracle::{all_mutants, Mutant, MutationOp};
use talft_suite::{kernels, Scale};

/// The parent's preconditions where `m` should hold them: shifted down
/// past a deleted instruction, a later block winning a collision.
fn expected(parent: &Program, m: &Mutant) -> BTreeMap<i64, Arc<CodeTy>> {
    let deletion = m.program.instrs.len() < parent.instrs.len();
    parent
        .preconds
        .iter()
        .map(|(&a, t)| {
            let a = if deletion && a > m.addr { a - 1 } else { a };
            (a, Arc::clone(t))
        })
        .collect()
}

#[test]
fn mutants_hold_their_parents_precondition_allocations() {
    let (mut mutants_seen, mut splits) = (0usize, 0usize);
    for kernel in kernels(Scale::Tiny).into_iter().take(2) {
        let mut c = compile(&kernel.source, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
        let parent = &c.protected.program;
        let mutants = all_mutants(parent, &mut c.protected.arena);
        for m in &mutants {
            let what = format!("{}: {} at {}", kernel.name, m.op.name(), m.addr);
            let want = expected(parent, m);
            let mut got = m.program.preconds.clone();
            if m.op == MutationOp::SplitStorePair {
                let inserted = got.remove(&m.addr).expect("the split's precondition");
                assert!(
                    parent.preconds.values().all(|t| !Arc::ptr_eq(t, &inserted)),
                    "{what}: the inserted precondition is new"
                );
                splits += 1;
            }
            assert_eq!(
                got.keys().collect::<Vec<_>>(),
                want.keys().collect::<Vec<_>>(),
                "{what}: annotated addresses"
            );
            for (a, t) in &got {
                assert!(
                    Arc::ptr_eq(t, &want[a]),
                    "{what}: precondition at {a} copied"
                );
            }
            mutants_seen += 1;
        }
    }
    assert!(mutants_seen > 100, "only {mutants_seen} mutants");
    assert!(splits > 0, "no split-store-pair mutant");
}

#[test]
fn changing_a_mutants_precondition_leaves_the_parent_alone() {
    let kernel = &kernels(Scale::Tiny)[0];
    let mut c = compile(&kernel.source, &CompileOptions::default()).expect("compiles");
    let parent = &c.protected.program;
    let before: Vec<CodeTy> = parent.preconds.values().map(|t| (**t).clone()).collect();
    let mut m = all_mutants(parent, &mut c.protected.arena)
        .into_iter()
        .find(|m| m.op == MutationOp::MiscolorOperand)
        .expect("a miscolor mutant");
    let (&entry, _) = m.program.preconds.iter().next().expect("annotated");
    let t = m.program.preconds.get_mut(&entry).expect("entry");
    Arc::make_mut(t).delta.clear();
    assert!(!Arc::ptr_eq(t, &parent.preconds[&entry]), "make_mut copied");
    assert_ne!(**t, *parent.preconds[&entry], "the mutant's copy changed");
    let after: Vec<CodeTy> = parent.preconds.values().map(|t| (**t).clone()).collect();
    assert_eq!(before, after, "the parent's preconditions did not change");
}
