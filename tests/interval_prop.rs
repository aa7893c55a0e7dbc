//! Solver-tier transparency over whole compiled programs (E16/E21): the
//! memo table and the interval pre-solver in `talft_logic` must both be
//! *semantically invisible* — for any program the checker reaches a
//! bit-identical verdict, and renders identical diagnostics (including the
//! solver failure-witness notes), under all four combinations of
//! {memo off, on} × {interval off, on}.
//!
//! The in-crate unit tests cover each tier's mechanics in isolation
//! (`talft_logic` `cache_tests` and `interval_tests`); this test drives the
//! *real* query distribution: fixed kernels plus generatively fuzzed Wile
//! sources compiled through the full reliability transformation, and
//! hand-written ill-typed `.talft` programs whose rejection diagnostics
//! carry entailment witnesses. Any divergence is a solver unsoundness.
//!
//! Both switches are fields of the `ExprArena` a check runs against, and
//! every check gets a fresh compile, so the combinations share no state.

use talft::compiler::{compile, CompileOptions};
use talft::core::check_program;
use talft::isa::assemble;
use talft::logic::ExprArena;
use talft_testutil::wile::{random_stmts, render_program};
use talft_testutil::SplitMix64;

const GEN_SEED: u64 = 0xCAC4_E5EE;

/// Ill-typed `.talft` fixtures whose diagnostics carry witness notes; the
/// rendered text (message + every `= note:` line) must be mode-invariant.
const REJECTED: &[&str] = &[
    // §2.2-style store mismatch by a rigid constant: the witness names the
    // residue ("the sides differ by the constant 1").
    r#"
.data
region out at 4096 len 2 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 5
  mov r2, G 4096
  stG r2, r1
  mov r3, B 5
  mov r4, B 4097
  stB r4, r3
  halt
"#,
    // Symbolic mismatch: no fact relates x and y, so the witness reports
    // the unbounded atom.
    r#"
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall x:int, y:int, m:mem; r1: (G, int, x); r3: (B, int, y); mem: m; }
  mov r2, G 4096
  stG r2, r1
  mov r4, B 4096
  stB r4, r3
  halt
"#,
];

/// What one pass over the corpus produced under one solver mode.
struct Pass {
    verdicts: Vec<Result<(), String>>,
    diags: Vec<String>,
    /// Memo-table `(hits, misses)` summed over the Wile sources.
    memo: (u64, u64),
}

/// One full pass over the corpus with the given switches: compile-and-check
/// every Wile source, assemble-and-check every rejection fixture.
fn run_corpus(wile: &[String], memo: bool, interval: bool) -> Pass {
    let set = |arena: &mut ExprArena| {
        arena.solver_memo = memo;
        arena.solver_interval = interval;
    };
    let mut stats = (0, 0);
    let verdicts = wile
        .iter()
        .map(|src| {
            let mut c = compile(src, &CompileOptions::default()).expect("fuzzed source compiles");
            set(&mut c.protected.arena);
            let verdict = check_program(&c.protected.program, &mut c.protected.arena)
                .map(|_| ())
                .map_err(|e| e.to_string());
            let (h, m) = c.protected.arena.entail_cache_stats();
            stats = (stats.0 + h, stats.1 + m);
            verdict
        })
        .collect();
    let diags = REJECTED
        .iter()
        .map(|src| {
            let mut asm = assemble(src).expect("fixture assembles");
            set(&mut asm.arena);
            let e = check_program(&asm.program, &mut asm.arena).expect_err("fixture is ill-typed");
            assert!(
                !e.notes.is_empty(),
                "rejection fixture must carry a witness note: {e}"
            );
            e.to_diagnostic().render()
        })
        .collect();
    Pass {
        verdicts,
        diags,
        memo: stats,
    }
}

#[test]
fn solver_modes_are_verdict_and_diagnostic_identical() {
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
    let wile: Vec<String> = fixed.iter().chain(&generated).cloned().collect();

    // The default mode (both tiers on) first: it is the baseline.
    let modes = [(true, true), (true, false), (false, true), (false, false)];
    let passes: Vec<Pass> = modes
        .iter()
        .map(|&(memo, interval)| run_corpus(&wile, memo, interval))
        .collect();

    let baseline = &passes[0];
    for (src_i, v) in baseline.verdicts.iter().enumerate() {
        // Compiler output is always well typed (the repo's core invariant).
        assert_eq!(
            v,
            &Ok(()),
            "source {src_i}: compiled program must check\n--- source ---\n{}",
            wile[src_i]
        );
    }
    for ((memo, interval), pass) in modes.iter().zip(&passes) {
        assert_eq!(
            pass.verdicts, baseline.verdicts,
            "memo={memo} interval={interval} changed a checker verdict"
        );
        assert_eq!(
            pass.diags, baseline.diags,
            "memo={memo} interval={interval} changed a rendered diagnostic"
        );
        if *memo {
            // Straight-line programs may record zero queries (syntactic fast
            // paths answer first), so wiring is asserted over the corpus.
            assert!(
                pass.memo.0 > 0,
                "interval={interval}: the corpus produced no memo hit — the memo \
                 table is not wired into the checker"
            );
        } else {
            assert_eq!(
                pass.memo,
                (0, 0),
                "interval={interval}: memo-off checks must not touch the table"
            );
        }
    }
    // The witness notes themselves are part of the cross-mode contract.
    assert!(
        baseline
            .diags
            .iter()
            .any(|d| d.contains("= note: cannot prove")),
        "no rejection diagnostic rendered a solver witness:\n{:?}",
        baseline.diags
    );
}
