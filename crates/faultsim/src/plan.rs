//! Fault **plans**: ordered multi-strike injection schedules, and the
//! samplers that generate them.
//!
//! A [`FaultPlan`] is an ordered list of [`Strike`]s `{at_step, site,
//! value}`. The paper's Theorem 4 is indexed to *exactly one* fault per run
//! — the classic exhaustive campaign is the `k = 1` instantiation
//! ([`single_fault_plans`], every strided dynamic step × every site × a set
//! of corrupted values). Beyond that the guarantee has a *boundary*, and
//! plans are how the engine explores it:
//!
//! * [`multi_fault_plans`] draws a deterministic, seed-reproducible
//!   **stratified sample** of the `(step × site)²` space (the exhaustive
//!   double-fault space is quadratic in the run length — intractable), half
//!   of it **correlated**: two upsets writing the *same* corrupted value
//!   into a green register and a blue register that carried the same
//!   payload within a small window. That is precisely the coordinated
//!   pattern that defeats dual-modular comparison (§2.1's "single upset
//!   event" assumption made executable), so the sample quantifies the
//!   boundary instead of merely missing it.

use std::collections::VecDeque;
use std::sync::Arc;

use talft_isa::{CVal, Color, Program, Reg};
use talft_machine::{mutations, read_site, sites, step, FaultSite, Machine, BIT_FLIPS};
use talft_testutil::SplitMix64;

use crate::{CampaignConfig, Golden};

/// One scheduled upset: write `value` at `site` once the run has taken
/// exactly `at_step` steps (i.e. the fault transition `S ─→1 S'` applied to
/// the state after `at_step` steps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Strike {
    /// Steps taken before the fault transition.
    pub at_step: u64,
    /// Where the fault strikes.
    pub site: FaultSite,
    /// The corrupted value written.
    pub value: i64,
}

/// An ordered multi-fault injection schedule (strikes sorted by `at_step`;
/// ties = same-state coordinated strikes).
///
/// A one-strike plan — every plan of an exhaustive `k = 1` campaign — holds
/// its strike inline, so building millions of them allocates nothing per
/// plan; other plans keep a `Vec`. Every constructor picks the inline form
/// for exactly one strike, so equal strike lists give equal plans.
#[derive(Clone, PartialEq, Eq)]
pub struct FaultPlan(Strikes);

/// Storage of a [`FaultPlan`]: `One` iff there is exactly one strike.
#[derive(Clone, PartialEq, Eq)]
enum Strikes {
    One(Strike),
    Many(Vec<Strike>),
}

impl FaultPlan {
    /// Build a plan, sorting the strikes by step (stable, so same-step
    /// strikes keep their given order).
    #[must_use]
    pub fn new(mut strikes: Vec<Strike>) -> Self {
        if let [s] = strikes[..] {
            return FaultPlan(Strikes::One(s));
        }
        strikes.sort_by_key(|s| s.at_step);
        FaultPlan(Strikes::Many(strikes))
    }

    /// The classic single-fault plan.
    #[must_use]
    pub fn single(at_step: u64, site: FaultSite, value: i64) -> Self {
        FaultPlan(Strikes::One(Strike {
            at_step,
            site,
            value,
        }))
    }

    /// The strikes, sorted by `at_step`.
    #[must_use]
    pub fn strikes(&self) -> &[Strike] {
        match &self.0 {
            Strikes::One(s) => std::slice::from_ref(s),
            Strikes::Many(v) => v,
        }
    }

    /// Step of the earliest strike (0 for an empty plan).
    #[must_use]
    pub fn first_step(&self) -> u64 {
        self.strikes().first().map_or(0, |s| s.at_step)
    }

    /// The fault multiplicity `k`.
    #[must_use]
    pub fn order(&self) -> usize {
        self.strikes().len()
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("strikes", &self.strikes())
            .finish()
    }
}

/// Walk the strided steps of a golden run: call `f` with the golden state
/// at every dynamic step `≡ 0 (mod stride)`, including the final, halted
/// state, in step order. The one walk behind [`single_fault_plans`] (which
/// makes it twice, to count and then to fill), [`exhaustive_pair_plans`]
/// and the in-crate reference sweep.
pub(crate) fn for_each_strided_step(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
    mut f: impl FnMut(&Machine),
) {
    let stride = cfg.effective_stride();
    let n = golden.steps;
    let mut frontier = Machine::boot(Arc::clone(program)).with_oob_policy(cfg.oob);
    loop {
        let at = frontier.steps();
        if at.is_multiple_of(stride) {
            f(&frontier);
        }
        if at >= n || !frontier.status().is_running() {
            break;
        }
        step(&mut frontier);
    }
}

/// The strikes of one golden state: every fault site of `m`, in [`sites`]
/// order, with up to `per_site` corrupted values each, in [`mutations`]
/// order. Allocates nothing.
pub(crate) fn for_each_strike_at(m: &Machine, per_site: usize, mut f: impl FnMut(Strike)) {
    let at_step = m.steps();
    for site in sites(m) {
        let Some(old) = read_site(m, site) else {
            continue;
        };
        for value in mutations(old).into_iter().take(per_site) {
            f(Strike {
                at_step,
                site,
                value,
            });
        }
    }
}

/// The number of strikes [`for_each_strike_at`] makes at `m`.
fn strike_count_at(m: &Machine, per_site: usize) -> usize {
    if per_site <= BIT_FLIPS.len() {
        return sites(m).len() * per_site;
    }
    sites(m)
        .filter_map(|site| read_site(m, site))
        .map(|old| mutations(old).len().min(per_site))
        .sum()
}

/// Append the strikes of `m` with the values `old ^ flip` for each of
/// `flips` (a prefix of [`BIT_FLIPS`]): what [`for_each_strike_at`] makes
/// for `per_site = flips.len()`, read straight off the register file and
/// the queue.
fn push_flips(plans: &mut Vec<FaultPlan>, m: &Machine, flips: &[i64]) {
    let at = m.steps();
    let mut push = |site: FaultSite, old: i64| {
        for &flip in flips {
            plans.push(FaultPlan::single(at, site, old ^ flip));
        }
    };
    for (r, v) in (0..m.num_gprs()).map(Reg::r).zip(m.gprs()) {
        push(FaultSite::Reg(r), v.val);
    }
    for r in [Reg::Dst, Reg::Pc(Color::Green), Reg::Pc(Color::Blue)] {
        push(FaultSite::Reg(r), m.rval(r));
    }
    for (i, &(addr, val)) in m.queue().iter().enumerate() {
        push(FaultSite::QueueAddr(i), addr);
        push(FaultSite::QueueVal(i), val);
    }
}

/// The exhaustive-in-sites, strided-in-time single-fault plan set — the
/// `k = 1` instantiation the legacy sweep performed implicitly: for every
/// dynamic step `≡ 0 (mod stride)` of the golden run (including the final,
/// halted state), every fault site of that state, and up to
/// `mutations_per_site` corrupted values.
///
/// One walk counts the plans, the `Vec` is allocated once at exactly that
/// size, and a second walk fills it. Up to four values per site are the
/// [`BIT_FLIPS`] that open every [`mutations`] list, written without
/// building the list.
#[must_use]
pub fn single_fault_plans(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
) -> Vec<FaultPlan> {
    let per_site = cfg.mutations_per_site;
    let mut n = 0;
    for_each_strided_step(program, cfg, golden, |m| n += strike_count_at(m, per_site));
    let mut plans = Vec::with_capacity(n);
    if n == 0 {
        return plans;
    }
    if let Some(flips) = BIT_FLIPS.get(..per_site) {
        for_each_strided_step(program, cfg, golden, |m| push_flips(&mut plans, m, flips));
    } else {
        for_each_strided_step(program, cfg, golden, |m| {
            for_each_strike_at(m, per_site, |s| plans.push(FaultPlan(Strikes::One(s))));
        });
    }
    debug_assert_eq!(plans.len(), n, "the count walk and the fill walk agree");
    plans
}

/// The **exhaustive** `k = 2` plan set over a golden run: every unordered
/// pair of distinct strided strikes (every step `≡ 0 (mod stride)`, every
/// site, up to `mutations_per_site` values — the same strike universe as
/// [`single_fault_plans`]), each pair step-ordered. Quadratic in the strike
/// count by construction: meant for *small* kernels, where it turns the
/// sampled k=2 boundary of [`multi_fault_plans`] into a complete grid the
/// static pair analyzer can be validated against cell by cell.
#[must_use]
pub fn exhaustive_pair_plans(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
) -> Vec<FaultPlan> {
    let mut strikes = Vec::new();
    for_each_strided_step(program, cfg, golden, |m| {
        for_each_strike_at(m, cfg.mutations_per_site, |s| strikes.push(s));
    });
    let mut plans = Vec::with_capacity(strikes.len() * (strikes.len().saturating_sub(1)) / 2);
    for (i, &a) in strikes.iter().enumerate() {
        for &b in &strikes[i + 1..] {
            // Strikes were collected in step order, so `a` is the earlier
            // (or tied) strike; `FaultPlan::new` keeps that order stable.
            plans.push(FaultPlan::new(vec![a, b]));
        }
    }
    plans
}

/// A reservoir sampler: uniform fixed-size sample of an unbounded stream.
struct Reservoir<T> {
    cap: usize,
    seen: u64,
    items: Vec<T>,
}

impl<T: Copy> Reservoir<T> {
    fn new(cap: usize) -> Self {
        Reservoir {
            cap,
            seen: 0,
            items: Vec::new(),
        }
    }

    fn offer(&mut self, item: T, rng: &mut SplitMix64) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(item);
        } else if self.cap > 0 && rng.below(self.seen) < self.cap as u64 {
            let i = rng.index(self.cap);
            self.items[i] = item;
        }
    }
}

/// The correlated-pair window of [`multi_fault_plans`]: the nonzero green
/// registers of the last `width` steps, oldest step first and in
/// `Reg::all` order within a step. They sit in flat buffers reused from
/// step to step (`regs[head..]` and `vals[head..]` are live), with one
/// `(step, count)` record per window step that holds any. Memory follows
/// what the window holds, never `width`.
struct GreenWindow {
    width: u64,
    steps: VecDeque<(u64, usize)>,
    regs: Vec<Reg>,
    vals: Vec<i64>,
    /// Start of the live entries.
    head: usize,
    /// Start of the current step's entries, not yet searchable.
    open: usize,
}

impl GreenWindow {
    /// A window over the last `width` steps (0 counts as 1).
    fn new(width: u64) -> Self {
        GreenWindow {
            width: width.max(1),
            steps: VecDeque::new(),
            regs: Vec::new(),
            vals: Vec::new(),
            head: 0,
            open: 0,
        }
    }

    /// Slide to step `s`: keep the steps `max(0, s − width) … s − 1`.
    fn slide_to(&mut self, s: u64) {
        while let Some(&(s0, count)) = self.steps.front() {
            if s - s0 <= self.width {
                break;
            }
            self.steps.pop_front();
            self.head += count;
        }
        // Compact once the dead prefix outgrows the live entries: each
        // entry moves O(1) times on average, and the buffers never grow
        // past about twice what the window holds.
        if self.head > self.vals.len() - self.head {
            self.regs.drain(..self.head);
            self.vals.drain(..self.head);
            self.head = 0;
            self.open = self.vals.len();
        }
    }

    /// Append a nonzero green register of the current step.
    fn push(&mut self, r: Reg, val: i64) {
        self.regs.push(r);
        self.vals.push(val);
    }

    /// The first green register of the window carrying `val`: the oldest
    /// step first, register order within a step. The current step's
    /// entries are not searched.
    fn find(&self, val: i64) -> Option<(u64, Reg)> {
        let i = self.head
            + self.vals[self.head..self.open]
                .iter()
                .position(|&v| v == val)?;
        let mut end = self.head;
        self.steps.iter().find_map(|&(s, count)| {
            end += count;
            (i < end).then(|| (s, self.regs[i]))
        })
    }

    /// Close step `s`: its entries join the window.
    fn close_step(&mut self, s: u64) {
        let count = self.vals.len() - self.open;
        if count > 0 {
            self.steps.push_back((s, count));
            self.open = self.vals.len();
        }
    }
}

/// Number of time strata per axis of the `(step × step)` grid.
const TIME_BINS: usize = 8;
/// Candidate-strike reservoir capacity per time stratum.
const BIN_CAP: usize = 96;
/// Uniform candidate strikes drawn per visited step.
const CANDIDATES_PER_STEP: usize = 2;

/// Deterministic, seed-reproducible stratified sample of `k`-fault plans
/// over the golden run (`k ≥ 2`; for `k = 1` use [`single_fault_plans`]).
///
/// Two strata families, split roughly half/half of `cfg.pair_samples`:
///
/// * **uniform**: the run is cut into `TIME_BINS` (8) time bins; per ordered
///   bin pair `(i ≤ j)` an equal quota of `(strike₁, strike₂)` pairs is
///   drawn from per-bin reservoirs of uniformly sampled `(step, site,
///   value)` candidates — coverage of the whole quadratic space;
/// * **correlated**: cross-color same-payload pairs within
///   `cfg.pair_window` steps, both corrupted to the *same* value — the
///   coordinated-SEU pattern that can defeat the dual-modular comparison.
///
/// For `k > 2`, each sampled pair is extended with `k − 2` further uniform
/// strikes. The same `cfg.seed` always yields the same plan set.
#[must_use]
pub fn multi_fault_plans(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
    k: u32,
) -> Vec<FaultPlan> {
    if k <= 1 {
        return single_fault_plans(program, cfg, golden);
    }
    let n = golden.steps;
    if n == 0 {
        return Vec::new();
    }
    let mut rng = SplitMix64::new(cfg.seed);
    let target = cfg.pair_samples.max(2);
    let correlated_target = target / 2;

    let bin_w = n.div_ceil(TIME_BINS as u64).max(1);
    let bin_of = |s: u64| ((s / bin_w) as usize).min(TIME_BINS - 1);
    let mut bins: Vec<Reservoir<Strike>> =
        (0..TIME_BINS).map(|_| Reservoir::new(BIN_CAP)).collect();
    let mut correlated: Reservoir<(Strike, Strike)> = Reservoir::new(correlated_target);
    // The nonzero blue registers of the current step, and the green
    // registers of the last `cfg.pair_window` steps, for correlated-pair
    // search. Both buffers are reused from step to step.
    let mut blues: Vec<(Reg, i64)> = Vec::new();
    let mut window = GreenWindow::new(cfg.pair_window);

    let mut m = Machine::boot(Arc::clone(program)).with_oob_policy(cfg.oob);
    while m.status().is_running() && m.steps() < n {
        let s = m.steps();
        // Uniform candidates at this step.
        for _ in 0..CANDIDATES_PER_STEP {
            let mut all_sites = sites(&m);
            let site = all_sites
                .nth(rng.index(all_sites.len()))
                .expect("every state has register sites");
            if let Some(old) = read_site(&m, site) {
                let muts = mutations(old);
                let value = *rng.pick(&muts);
                bins[bin_of(s)].offer(
                    Strike {
                        at_step: s,
                        site,
                        value,
                    },
                    &mut rng,
                );
            }
        }
        // Correlated candidates: one random blue register vs. the recent
        // green window (green runs ahead of blue in the protected scheme).
        // One pass over the register file, in `Reg::all` order, lists the
        // nonzero blues and appends the nonzero greens to the window.
        window.slide_to(s);
        blues.clear();
        let mut visit = |r: Reg, v: CVal| {
            if v.val != 0 {
                match v.color {
                    Color::Blue => blues.push((r, v.val)),
                    Color::Green => window.push(r, v.val),
                }
            }
        };
        for (r, &v) in (0..m.num_gprs()).map(Reg::r).zip(m.gprs()) {
            visit(r, v);
        }
        for r in [Reg::Dst, Reg::Pc(Color::Green), Reg::Pc(Color::Blue)] {
            visit(r, m.reg(r));
        }
        if !blues.is_empty() {
            let (breg, bval) = *rng.pick(&blues);
            if let Some((s1, greg)) = window.find(bval) {
                let muts = mutations(bval);
                let x = *rng.pick(&muts);
                correlated.offer(
                    (
                        Strike {
                            at_step: s1,
                            site: FaultSite::Reg(greg),
                            value: x,
                        },
                        Strike {
                            at_step: s,
                            site: FaultSite::Reg(breg),
                            value: x,
                        },
                    ),
                    &mut rng,
                );
            }
        }
        window.close_step(s);
        step(&mut m);
    }

    let mut plans: Vec<FaultPlan> = Vec::with_capacity(target);
    for &(a, b) in &correlated.items {
        plans.push(FaultPlan::new(vec![a, b]));
    }
    // Uniform strata: equal quota per ordered bin pair.
    let uniform_target = target - plans.len();
    let bin_pairs: Vec<(usize, usize)> = (0..TIME_BINS)
        .flat_map(|i| (i..TIME_BINS).map(move |j| (i, j)))
        .collect();
    let quota = uniform_target.div_ceil(bin_pairs.len());
    for &(i, j) in &bin_pairs {
        for _ in 0..quota {
            // a few retries to satisfy step₁ < step₂ inside a shared bin
            for _attempt in 0..4 {
                if bins[i].items.is_empty() || bins[j].items.is_empty() {
                    break;
                }
                let a = *rng.pick(&bins[i].items);
                let b = *rng.pick(&bins[j].items);
                let (a, b) = if a.at_step < b.at_step {
                    (a, b)
                } else if b.at_step < a.at_step {
                    (b, a)
                } else {
                    continue;
                };
                plans.push(FaultPlan::new(vec![a, b]));
                break;
            }
        }
    }
    // k > 2: extend every pair with further uniform strikes.
    if k > 2 {
        let nonempty: Vec<usize> = (0..TIME_BINS)
            .filter(|&i| !bins[i].items.is_empty())
            .collect();
        if !nonempty.is_empty() {
            for plan in &mut plans {
                let mut strikes = plan.strikes().to_vec();
                for _ in 2..k {
                    let bin = nonempty[rng.index(nonempty.len())];
                    strikes.push(*rng.pick(&bins[bin].items));
                }
                *plan = FaultPlan::new(strikes);
            }
        }
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use talft_isa::assemble;

    fn arc(src: &str) -> Arc<Program> {
        Arc::new(assemble(src).expect("assembles").program)
    }

    const LOOPY: &str = r#"
.data
region out at 4096 len 8 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 5
  mov r2, B 5
loop:
  .pre { forall x:int, m:mem; r1: (G, int, x); r2: (B, int, x); mem: m; }
  and r5, r1, G 7
  add r5, r5, G 4096
  and r6, r2, B 7
  add r6, r6, B 4096
  stG r5, r1
  stB r6, r2
  sub r1, r1, G 1
  sub r2, r2, B 1
  mov r3, G @done
  mov r4, B @done
  bzG r1, r3
  bzB r2, r4
  mov r7, G @loop
  mov r8, B @loop
  jmpG r7
  jmpB r8
done:
  .pre { forall m:mem; mem: m; }
  halt
"#;

    #[test]
    fn one_strike_vectors_build_the_inline_plan() {
        let site = FaultSite::Reg(talft_isa::Reg::r(3));
        let s = Strike {
            at_step: 7,
            site,
            value: -2,
        };
        let inline = FaultPlan::single(7, site, -2);
        assert_eq!(FaultPlan::new(vec![s]), inline);
        assert_eq!(inline.order(), 1);
        assert_eq!(inline.strikes(), [s]);
        assert_eq!(inline.first_step(), 7);
        let later = Strike { at_step: 9, ..s };
        let pair = FaultPlan::new(vec![later, s]);
        assert_eq!(pair.order(), 2);
        assert_eq!(pair.strikes(), [s, later], "sorted by step");
        assert_ne!(pair, inline);
        let empty = FaultPlan::new(Vec::new());
        assert_eq!((empty.order(), empty.first_step()), (0, 0));
        // Debug keeps the field-struct shape of the old public `strikes`.
        assert!(format!("{inline:?}").starts_with("FaultPlan { strikes: [Strike {"));
    }

    #[test]
    fn single_plans_cover_all_strided_steps() {
        let p = arc(LOOPY);
        let cfg = CampaignConfig {
            stride: 3,
            ..CampaignConfig::default()
        };
        let golden = crate::golden_run(&p, &cfg).expect("halts");
        let stride = cfg.effective_stride(); // respects TALFT_STRIDE_SCALE
        let plans = single_fault_plans(&p, &cfg, &golden);
        assert!(!plans.is_empty());
        assert!(plans.iter().all(|pl| pl.order() == 1));
        let steps: std::collections::BTreeSet<u64> =
            plans.iter().map(FaultPlan::first_step).collect();
        assert!(steps.contains(&0));
        assert!(steps
            .iter()
            .all(|s| s.is_multiple_of(stride) && *s <= golden.steps));
        // every strided step of the run is represented
        assert_eq!(steps.len() as u64, golden.steps / stride + 1);
    }

    #[test]
    fn multi_plans_are_seed_reproducible_and_ordered() {
        let p = arc(LOOPY);
        let cfg = CampaignConfig {
            pair_samples: 64,
            ..CampaignConfig::default()
        };
        let golden = crate::golden_run(&p, &cfg).expect("halts");
        let a = multi_fault_plans(&p, &cfg, &golden, 2);
        let b = multi_fault_plans(&p, &cfg, &golden, 2);
        assert_eq!(a, b, "same seed, same plans");
        assert!(!a.is_empty());
        for plan in &a {
            assert_eq!(plan.order(), 2);
            assert!(plan.strikes()[0].at_step <= plan.strikes()[1].at_step);
            assert!(plan.strikes()[1].at_step <= golden.steps);
        }
        let other = multi_fault_plans(
            &p,
            &CampaignConfig {
                seed: 99,
                ..cfg.clone()
            },
            &golden,
            2,
        );
        assert_ne!(a, other, "different seed, different sample");
    }

    #[test]
    fn correlated_pairs_share_the_corrupt_value() {
        let p = arc(LOOPY);
        let cfg = CampaignConfig {
            pair_samples: 256,
            ..CampaignConfig::default()
        };
        let golden = crate::golden_run(&p, &cfg).expect("halts");
        let plans = multi_fault_plans(&p, &cfg, &golden, 2);
        // the correlated stratum writes the same value at both strikes
        let correlated = plans
            .iter()
            .filter(|pl| pl.strikes()[0].value == pl.strikes()[1].value)
            .count();
        assert!(correlated > 0, "correlated stratum must be populated");
    }

    #[test]
    fn green_window_searches_oldest_first_and_stays_small() {
        let r = Reg::r;
        let mut w = GreenWindow::new(2);
        w.slide_to(0);
        w.push(r(1), 5);
        w.push(r(2), 7);
        assert_eq!(w.find(5), None, "the open step is not searched");
        w.close_step(0);
        w.slide_to(1);
        w.close_step(1);
        w.slide_to(2);
        w.push(r(3), 5);
        w.push(r(4), 7);
        assert_eq!(w.find(5), Some((0, r(1))), "oldest step first");
        w.close_step(2);
        w.slide_to(3);
        assert_eq!(w.find(5), Some((2, r(3))), "step 0 left the window");
        assert_eq!(w.find(7), Some((2, r(4))));
        assert_eq!(w.find(9), None);
        w.close_step(3);
        w.slide_to(5);
        assert_eq!(w.find(5), None, "every step left the window");

        // The buffers follow what the window holds, never its width.
        for width in [0, 1, 24, u64::MAX] {
            let mut w = GreenWindow::new(width);
            assert_eq!(w.vals.capacity(), 0, "nothing reserved for width {width}");
            for s in 0..10_000u64 {
                w.slide_to(s);
                for i in 0..8 {
                    w.push(r(i), i64::from(i) + 1);
                }
                let oldest = (s > 0).then(|| s.saturating_sub(width.max(1)));
                assert_eq!(w.find(1).map(|(s1, _)| s1), oldest);
                w.close_step(s);
            }
            let held = 8 * (width.clamp(1, 9_999) as usize + 1);
            assert_eq!(w.vals.len() - w.head, held);
            assert!(w.vals.capacity() <= 4 * held.max(8), "width {width}");
        }
    }

    #[test]
    fn k3_plans_have_three_strikes() {
        let p = arc(LOOPY);
        let cfg = CampaignConfig {
            pair_samples: 32,
            ..CampaignConfig::default()
        };
        let golden = crate::golden_run(&p, &cfg).expect("halts");
        let plans = multi_fault_plans(&p, &cfg, &golden, 3);
        assert!(!plans.is_empty());
        assert!(plans.iter().all(|pl| pl.order() == 3));
        for pl in &plans {
            assert!(pl
                .strikes()
                .windows(2)
                .all(|w| w[0].at_step <= w[1].at_step));
        }
    }
}
