//! Regression: the Fourier–Motzkin size caps (`FM_MAX_CONSTRAINTS`,
//! `FM_MAX_VARS`) must never fire on real checker workloads, and the
//! interval pre-solver must answer for FM exactly when it is switched on.
//! A give-up is sound (the solver just fails to prove) but it silently
//! degrades the checker to "reject", so a cap sized too small would
//! surface as spurious type errors on previously fine programs.
//!
//! This is the E21 solver table: the Tiny suite checked twice, each row on
//! freshly compiled arenas (an arena the other row used would answer from
//! its memos), with the `ExprArena::solver_interval` tier off and then on.
//! With the tier on, the suite's FM-bound queries are all answered
//! upstream, so the give-up regression needs the off row to have teeth.
//! The pinned counts are machine-independent; EXPERIMENTS.md E21's count
//! columns come from them. The obs registry is process-global, hence one
//! test in a dedicated integration-test binary.
//!
//! The on row also gates the entailment cache (E16): it must hit. Both
//! rows' cache hit and miss counts are pinned as this process reads them:
//! the off row checks first in a fresh process, the on row after it. The
//! cache's slot index hashes the process-global facts generation
//! (`FACTS_GEN` in `talft-logic`), so which slot a query lands in, and so
//! what a colliding query evicts, depends on what the process checked
//! before; a process that checked other programs first may read other
//! counts.

use talft::compiler::{compile, CompileOptions};
use talft::core::check_program;
use talft::suite::{kernels, Scale};

/// The solver counters of one row.
#[derive(Debug, PartialEq, Eq)]
struct Row {
    fm_runs: u64,
    fm_giveups: u64,
    interval_queries: u64,
    interval_hit: u64,
    interval_miss: u64,
    cache_hit: u64,
    cache_miss: u64,
}

/// Check every Tiny kernel on freshly compiled arenas with the interval
/// tier switched `interval`, and read the row's counters.
fn check_suite(interval: bool) -> Row {
    let mut compiled: Vec<_> = kernels(Scale::Tiny)
        .into_iter()
        .map(|k| {
            let mut c = compile(&k.source, &CompileOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
            c.protected.arena.solver_interval = interval;
            (k.name, c)
        })
        .collect();
    talft::obs::reset_all();
    for (name, c) in &mut compiled {
        check_program(&c.protected.program, &mut c.protected.arena)
            .unwrap_or_else(|e| panic!("{name} failed the checker (interval {interval}): {e}"));
    }
    let snap = talft::obs::snapshot();
    let n = |key: &str| snap.counters.get(key).copied().unwrap_or(0);
    Row {
        fm_runs: n("logic.fm.runs"),
        fm_giveups: n("logic.fm.giveups"),
        interval_queries: n("logic.interval.queries"),
        interval_hit: n("logic.interval.hit"),
        interval_miss: n("logic.interval.miss"),
        cache_hit: n("logic.cache.hit"),
        cache_miss: n("logic.cache.miss"),
    }
}

#[test]
fn fm_never_gives_up_on_suite_kernels() {
    talft::obs::set_enabled(true);
    let (off, on) = (check_suite(false), check_suite(true));
    talft::obs::set_enabled(false);

    for (mode, row) in [("off", &off), ("on", &on)] {
        assert_eq!(
            row.interval_hit + row.interval_miss,
            row.interval_queries,
            "interval {mode}: an interval query bypassed the hit/miss counters"
        );
        assert_eq!(
            row.fm_giveups, 0,
            "interval {mode}: FM gave up {} time(s) over {} runs: a size cap is \
             too small for the suite's query distribution",
            row.fm_giveups, row.fm_runs
        );
    }
    assert_eq!(
        off.interval_queries, 0,
        "the interval tier was consulted while switched off"
    );
    assert!(
        off.fm_runs > 0,
        "suite kernels must exercise FM with the interval tier off — a zero \
         count means this regression lost its teeth"
    );
    assert!(
        on.interval_queries > 0,
        "the interval tier was never asked while switched on"
    );
    assert!(on.cache_hit > 0, "the entailment cache recorded zero hits");
    let pinned = |fm_runs, interval_queries, interval_hit, cache_hit, cache_miss| Row {
        fm_runs,
        fm_giveups: 0,
        interval_queries,
        interval_hit,
        interval_miss: interval_queries - interval_hit,
        cache_hit,
        cache_miss,
    };
    assert_eq!(off, pinned(840, 0, 0, 853, 179), "interval off");
    assert_eq!(on, pinned(0, 1399, 1239, 853, 179), "interval on");
}
