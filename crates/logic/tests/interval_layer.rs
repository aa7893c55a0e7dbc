//! Interval pre-solver observability test. It enables the process-global
//! obs registry and asserts exact counter relationships, so the whole
//! check is one test: a second test in this binary would race on the
//! registry.

use talft_logic::{BinOp, ExprArena, Facts};

fn counter(snap: &talft_obs::Snapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// A checker-shaped workload: array-bounds and branch-condition queries over
/// range facts, mixing interval-answerable queries with FM-bound ones.
fn workload(interval: bool) -> Vec<bool> {
    let mut a = ExprArena::new();
    a.solver_interval = interval;
    let mut f = Facts::new();
    let i = a.var("i");
    let n = a.var("n");
    let base = a.var("base");
    f.assume_in_range(&mut a, i, 0, 64);
    let fifteen = a.int(15);
    let masked = a.bin(BinOp::And, i, fifteen);
    let addr = a.add(base, i);
    let d = a.sub(n, i);
    f.assume_ge0(&mut a, d);
    let zero = a.int(0);
    let neg1 = a.int(-1);
    let one = a.int(1);
    let cond = a.bin(BinOp::Slt, i, n);
    f.assume_eq(&mut a, cond, one);
    let sixty_three = a.int(63);
    let hi_gap = a.sub(sixty_three, i);
    vec![
        f.prove_ge0(&mut a, i),                  // tree walk: i ∈ [0, 63]
        f.prove_ge0(&mut a, hi_gap),             // tree walk/box: 63 - i ≥ 0
        f.prove_in_range(&mut a, masked, 0, 16), // tree walk: And-mask shape
        f.prove_neq(&mut a, i, neg1),            // tree walk: box excludes -1
        f.prove_eq(&mut a, cond, one),           // solved branch condition
        f.prove_ge0(&mut a, d),                  // FM: two-monomial fact
        f.prove_in_range(&mut a, i, 0, 32),      // false: 32-bound unprovable
        f.prove_eq(&mut a, addr, base),          // false: i not provably 0
        f.prove_neq_zero(&mut a, zero),          // false: constant
    ]
}

#[test]
fn hit_miss_invariant_and_fm_reduction() {
    talft_obs::set_enabled(true);

    talft_obs::reset_all();
    let verdicts_on = workload(true);
    let on = talft_obs::snapshot();

    talft_obs::reset_all();
    let verdicts_off = workload(false);
    let off = talft_obs::snapshot();

    talft_obs::set_enabled(false);

    // Transparency: the interval front must never change a verdict.
    assert_eq!(verdicts_on, verdicts_off);

    // checkperf --check invariant: every consultation is a hit or a miss.
    let queries = counter(&on, "logic.interval.queries");
    let hit = counter(&on, "logic.interval.hit");
    let miss = counter(&on, "logic.interval.miss");
    assert!(queries > 0, "workload must consult the interval layer");
    assert_eq!(hit + miss, queries, "hit {hit} + miss {miss} != {queries}");
    assert!(hit > 0, "range workload must produce interval hits");
    assert!(counter(&on, "logic.interval.narrowed") <= miss);

    // With the layer off, nothing is consulted and FM runs strictly more.
    assert_eq!(counter(&off, "logic.interval.queries"), 0);
    let fm_on = counter(&on, "logic.fm.runs");
    let fm_off = counter(&off, "logic.fm.runs");
    assert!(
        fm_on < fm_off,
        "interval layer must shed FM work (on: {fm_on}, off: {fm_off})"
    );
    for snap in [&on, &off] {
        assert_eq!(counter(snap, "logic.fm.giveups"), 0);
    }
}
