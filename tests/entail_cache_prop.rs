//! Entailment-cache transparency on a shared arena (E16): the memo table in
//! `talft_logic::entail` must be *semantically invisible* — for any
//! well-typed program the checker reaches the same verdict with the table
//! off, on and cold, and on with entries left over from an earlier check.
//!
//! `tests/interval_prop.rs` holds the full {memo off, on} × {interval off,
//! on} verdict-and-diagnostic matrix, with a fresh compile per mode. This
//! test instead checks every program three times against *one* arena,
//! flipping [`ExprArena::solver_memo`] between checks, so the last check
//! runs against a table the one before it filled. Any divergence (accept
//! vs reject, or a different error) is a cache unsoundness, not a
//! conservativity issue. The Facts generation tags that keep an entry from
//! answering under other hypotheses are pinned by the `talft_logic`
//! `cache_tests` unit tests.
//!
//! [`ExprArena::solver_memo`]: talft::logic::ExprArena::solver_memo

use talft::compiler::{compile, CompileOptions};
use talft::core::check_program;
use talft_testutil::wile::{random_stmts, render_program};
use talft_testutil::SplitMix64;

const GEN_SEED: u64 = 0xCAC4_E5EE;

/// Compile a source once and check it memo off, memo on (cold table), then
/// memo on again (table already filled), all on the same arena. Returns the
/// three verdicts as `Ok(())`/`Err(message)` so they compare structurally,
/// plus the arena's final (hits, misses). Straight-line programs may
/// legitimately record zero queries (syntactic fast paths answer before the
/// table is consulted), so wiring is asserted over the whole corpus.
fn check_three_ways(src: &str) -> ([Result<(), String>; 3], (u64, u64)) {
    let mut c = compile(src, &CompileOptions::default()).expect("fuzzed source compiles");
    let mut check = |memo: bool| {
        c.protected.arena.solver_memo = memo;
        check_program(&c.protected.program, &mut c.protected.arena)
            .map(|_| ())
            .map_err(|e| e.to_string())
    };
    let off = check(false);
    let cold = check(true);
    let warm = check(true);
    let stats = c.protected.arena.entail_cache_stats();
    ([off, cold, warm], stats)
}

#[test]
fn checker_verdicts_are_cache_invariant() {
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
    let generated: Vec<String> = (0..8)
        .map(|k| {
            let mut r = SplitMix64::new(GEN_SEED + k);
            render_program(&random_stmts(&mut r, 2, 2, 6))
        })
        .collect();

    // A memo-off check must leave the table untouched.
    let mut c = compile(&fixed[1], &CompileOptions::default()).expect("fixed source compiles");
    c.protected.arena.solver_memo = false;
    check_program(&c.protected.program, &mut c.protected.arena).expect("fixed source checks");
    assert_eq!(
        c.protected.arena.entail_cache_stats(),
        (0, 0),
        "cache-off check must not touch the cache"
    );

    let (mut total_hits, mut total_misses) = (0u64, 0u64);
    for (i, src) in fixed.iter().chain(&generated).enumerate() {
        let ([off, cold, warm], (hits, misses)) = check_three_ways(src);
        total_hits += hits;
        total_misses += misses;
        assert_eq!(
            cold, off,
            "source {i}: cache changed the checker verdict\n--- source ---\n{src}"
        );
        assert_eq!(
            warm, off,
            "source {i}: a filled cache changed the checker verdict\n--- source ---\n{src}"
        );
        // Compiler output is always well typed (the repo's core invariant) —
        // so this doubles as a compile-soundness spot check under both modes.
        assert_eq!(off, Ok(()), "source {i}: compiled program must check");
    }
    assert!(
        total_hits + total_misses > 0,
        "no source exercised the cache — the cache is not wired into the checker"
    );
    assert!(total_hits > 0, "the corpus must produce at least one hit");
}
