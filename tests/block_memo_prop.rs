//! Accepted-block memo transparency (DESIGN.md §13): a check on an arena
//! whose block memo earlier checks filled must return what the same check
//! returns without the memo.
//!
//! Each check on the memo arena is compared two ways:
//!
//! * **fresh arena** — the same program alone on a fresh arena. An
//!   [`ExprArena`] is not `Clone`, so that side copies the program's own
//!   expressions into a new arena. The verdict, the `CheckReport` and the
//!   `TypeError`'s address, instruction, reason and span must be equal.
//!   Its witness notes are left out of this comparison: a note prints a
//!   residue polynomial whose term order follows expression-id order, and
//!   that depends on what the arena interned before. A fresh arena orders
//!   some residues differently even with every memo off.
//! * **replay arena** — the same sequence of checks on a second arena
//!   compiled from the same source with [`ExprArena::solver_memo`] off, so
//!   it has the same history but never reads or writes a memo. The whole
//!   `Result`, notes included, must be equal.
//!
//! The tests:
//!
//! * `catalog_mutants_check_as_without_the_memo` — the oracle's order: for
//!   every Tiny kernel, the original and then each E14 catalog mutant on
//!   one arena;
//! * `mutant_pairs_check_as_without_the_memo` — random mutants A and B of
//!   fixed and fuzzed programs (the `checker_soundness_fuzz` mutator), A
//!   then B on one arena; the original is drawn as A or B too.
//!
//! [`ExprArena`]: talft::logic::ExprArena
//! [`ExprArena::solver_memo`]: talft::logic::ExprArena::solver_memo

// `without_notes` returns the checker's own `Result<_, TypeError>`, which
// `talft-core` allows to be large for the same reason.
#![allow(clippy::result_large_err)]

use talft::compiler::{compile, Artifact, CompileOptions};
use talft::core::{check_program, CheckReport, TypeError};
use talft::oracle::all_mutants;
use talft::suite::{kernels, Scale};
use talft_testutil::wile::{random_stmts, render_program};
use talft_testutil::SplitMix64;

mod common;
use common::{mutate, on_fresh_arena};

const GEN_SEED: u64 = 0xB10C_3E30;

type Checked = Result<CheckReport, TypeError>;

/// The protected artifact of `src`; the replay side turns the memo off.
fn protected(src: &str, memo: bool) -> Artifact {
    let mut a = compile(src, &CompileOptions::default())
        .expect("source compiles")
        .protected;
    a.arena.solver_memo = memo;
    a
}

/// A result without its witness notes (see the module docs).
fn without_notes(r: &Checked) -> Checked {
    r.clone().map_err(|mut e| {
        e.notes.clear();
        e
    })
}

#[test]
fn catalog_mutants_check_as_without_the_memo() {
    let (mut checked, mut rejected) = (0usize, 0usize);
    for k in kernels(Scale::Tiny) {
        let mut shared = protected(&k.source, true);
        let mut replay = protected(&k.source, false);
        let original = check_program(&shared.program, &mut shared.arena);
        assert!(original.is_ok(), "{}: {original:?}", k.name);
        assert_eq!(original, check_program(&replay.program, &mut replay.arena));
        let mutants = all_mutants(&shared.program, &mut shared.arena);
        let replayed = all_mutants(&replay.program, &mut replay.arena);
        assert_eq!(mutants.len(), replayed.len());
        for (i, (m, r)) in mutants.iter().zip(&replayed).enumerate() {
            let what = format!("{}: mutant {i} ({}: {})", k.name, m.op.name(), m.detail);
            let got = check_program(&m.program, &mut shared.arena);
            let want = check_program(&r.program, &mut replay.arena);
            assert_eq!(got, want, "{what}: memo arena vs replay arena");
            let (alone, mut fresh) = on_fresh_arena(&m.program, &shared.arena);
            let alone = check_program(&alone, &mut fresh);
            assert_eq!(
                without_notes(&got),
                without_notes(&alone),
                "{what}: vs fresh arena"
            );
            checked += 1;
            rejected += usize::from(got.is_err());
        }
    }
    assert!(checked > 1000, "only {checked} catalog mutants");
    assert!(rejected > checked / 2, "{rejected}/{checked} rejected");
}

#[test]
fn mutant_pairs_check_as_without_the_memo() {
    let fixed = [
        "output out[2]; func main() { var a = 6; var b = 7; out[0] = a * b; out[1] = a + b; }"
            .to_string(),
        "array t[4] = [9, 2, 7, 4]; output out[4]; func main() { var i = 0; \
         while (i < 4) { out[i] = t[i] + i; i = i + 1; } }"
            .to_string(),
        "output out[1]; func main() { var i = 0; var s = 0; \
         while (i < 6) { if (i & 1 == 1) { s = s + i; } i = i + 1; } out[0] = s; }"
            .to_string(),
    ];
    let generated = (0..4).map(|k| {
        let mut r = SplitMix64::new(GEN_SEED + k);
        render_program(&random_stmts(&mut r, 2, 2, 6))
    });
    let mut rng = SplitMix64::new(GEN_SEED);
    let (mut pairs, mut accepted_b) = (0usize, 0usize);
    for src in fixed.into_iter().chain(generated) {
        let base = protected(&src, true).program;
        // Mutations add no expressions, so every draw is valid against any
        // arena compiled from `src`.
        let mut draw = || loop {
            if rng.below(4) == 0 {
                return (*base).clone();
            }
            if let Some(m) = mutate(&base, &mut rng) {
                return m;
            }
        };
        for _ in 0..40 {
            let (a, b) = (draw(), draw());
            let mut shared = protected(&src, true);
            let mut replay = protected(&src, false);
            let first = check_program(&a, &mut shared.arena);
            assert_eq!(first, check_program(&a, &mut replay.arena));
            let got = check_program(&b, &mut shared.arena);
            let want = check_program(&b, &mut replay.arena);
            assert_eq!(got, want, "B after A: memo arena vs replay arena\n{src}");
            let (b_alone, mut fresh) = on_fresh_arena(&b, &shared.arena);
            let alone = check_program(&b_alone, &mut fresh);
            assert_eq!(
                without_notes(&got),
                without_notes(&alone),
                "B after A vs B on a fresh arena\n{src}"
            );
            pairs += 1;
            accepted_b += usize::from(got.is_ok());
        }
    }
    assert!(
        accepted_b > 0 && accepted_b < pairs,
        "{accepted_b}/{pairs} B accepted"
    );
}
