//! Regression: the Fourier–Motzkin size caps (`FM_MAX_CONSTRAINTS`,
//! `FM_MAX_VARS`) must never fire on real checker workloads. A give-up is
//! sound (the solver just fails to prove) but it silently degrades the
//! checker to "reject", so a cap sized too small would surface as spurious
//! type errors on previously fine programs. This pins `logic.fm.giveups`
//! to zero across every suite kernel — the caps' first test witness.
//!
//! The interval pre-solver is switched OFF on every checked arena: with it
//! on, the Tiny suite's FM-bound queries are all answered upstream (see the
//! `checkperf` table in BENCH_perf.json) and the regression would vacuously
//! pass with zero FM runs. The obs registry is process-global, hence the
//! dedicated integration-test binary.

use talft::compiler::{compile, CompileOptions};
use talft::core::check_program;
use talft::suite::{kernels, Scale};

#[test]
fn fm_never_gives_up_on_suite_kernels() {
    talft::obs::set_enabled(true);
    talft::obs::reset_all();

    for k in kernels(Scale::Tiny) {
        let mut c = compile(&k.source, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", k.name));
        c.protected.arena.solver_interval = false;
        check_program(&c.protected.program, &mut c.protected.arena)
            .unwrap_or_else(|e| panic!("{} failed the checker: {e}", k.name));
    }

    let snap = talft::obs::snapshot();
    let n = |key: &str| snap.counters.get(key).copied().unwrap_or(0);
    let (runs, giveups) = (n("logic.fm.runs"), n("logic.fm.giveups"));
    talft::obs::set_enabled(false);

    assert!(
        runs > 0,
        "suite kernels must exercise FM with the interval layer off — \
         a zero count means this regression lost its teeth"
    );
    assert_eq!(
        giveups, 0,
        "FM gave up {giveups} time(s) over {runs} runs: a size cap is too \
         small for the suite's query distribution"
    );
}
