//! Compositional k=2 **pair-fault** static analyzer: classify (cell, cell)
//! fault pairs as Detected/Benign/Vulnerable without dynamically
//! enumerating the quadratic strike product.
//!
//! # Two phases
//!
//! **Phase 1 — per-cell taint-reach summaries.** For each k=1-Detected
//! cell the may-taint pass ([`crate::zap`]) is run once more in recording
//! mode, producing a [`Touch`] set (which dual-compares the cell's taint
//! can reach, and on which side — green compare state or blue register
//! operands — after all sanitizing pass-edges) plus the full *entry-state
//! reach map*: the joined taint surviving at entry to every address. The
//! runs ride 64-lane k=1 batches: a summarized cell never defeats a
//! compare on its own, so each lane reaches its own least fixpoint. A
//! k=1-Benign cell's solo run met no compare, so its touch set is empty
//! and no pair ever composes with it: it gets no summary run.
//!
//! **Phase 2 — pairwise composition.** The zap transfer is *linear* in the
//! taint, so two corruptions propagate independently except at the compare
//! checks, which read the lane **union**. Composing a pair therefore seeds
//! a two-lane run at the second strike's address with
//! `[reach₁(addr₂), seed₂]` and reuses the exact same transfer. The three
//! cooperation rules that make k=2 different from two independent k=1s
//! fall out structurally:
//!
//! * **(a) opposite sides** — the lanes taint opposite sides of one
//!   compare, so a matched wrong pair can pass `stB`/`jmpB`/`bzB`
//!   ([`PairRule::OppositeSides`]);
//! * **(b) detector strike** — the second strike lands on the detector
//!   state itself (`d`, or a queue slot holding the compare operand)
//!   while the first fault's taint feeds the other side
//!   ([`PairRule::DetectorStrike`] — same union check, the detector cell
//!   *is* the green lane);
//! * **(c) sequencing** — a strike after the first fault's taint is dead
//!   (sanitized or overwritten everywhere) cannot cooperate with it:
//!   `reach₁(addr₂) = ∅` makes the composition degenerate to two
//!   independent k=1 verdicts.
//!
//! A cheap **screen** avoids almost all two-lane runs: after filtering
//! pairs with a k=1-Vulnerable member, a composed run can only fail a
//! compare with the lanes on *opposite* sides (a lane supplying both sides
//! alone would already be k=1 Vulnerable, and each composed lane's states
//! are a subset of its solo fixpoint). So unless the two touch summaries
//! share a compare address with opposite sides, the pair is safe with no
//! fixpoint at all — and group-level counting over touch signatures makes
//! full-program pair reports near-linear instead of quadratic.
//!
//! pc cells short-circuit phase 2: a single pc zap is caught at the next
//! fetch comparison and contributes no data taint, so a (pc, x) pair is
//! exactly as dangerous as `x` alone; a (pc, pc) pair is conservatively
//! [`PairClass::Vulnerable`] (two strikes may re-equalize a diverged fetch
//! pair — [`PairRule::PcPair`]).
//!
//! Soundness is the k=1 argument once more, over unions: every verdict is
//! a may-analysis over-approximation, so a statically Detected/Benign pair
//! admits no SDC — the invariant
//! [`cross_validate_pairs`](crate::diff::cross_validate_pairs) checks
//! against exhaustive and sampled k=2 campaign grids.

use std::collections::BTreeMap;

use talft_core::Diagnostic;
use talft_isa::Program;
use talft_obs::LazyCounter;

use crate::cfg::Cfg;
use crate::lint::LINT_PAIR_HOTSPOT;
use crate::live::liveness;
use crate::zap::{
    analyze_zaps_with, queue_pessimism, run_lanes, too_wide, Batch, Ctx, Rows, Seed, Taint, Touch,
    Union, Vuln, VulnKind, ZapClass, ZapReport, LANES,
};

static SUMMARY_RUNS: LazyCounter = LazyCounter::new("analysis.pair.summary_runs");

/// Pair verdicts reuse the per-cell scale: a pair is `Vulnerable` when the
/// two corruptions may cooperate into an SDC, `Detected`/`Benign`
/// otherwise.
pub type PairClass = ZapClass;

/// One fault cell: a (code address, site) coordinate in the static grid,
/// matching the keys of [`ZapReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cell {
    /// GPR `r{reg}` zapped at entry to `addr`.
    Gpr {
        /// Code address about to execute.
        addr: i64,
        /// Register index.
        reg: u16,
    },
    /// Store-queue slot (from the back; 0 = oldest) zapped at entry.
    Queue {
        /// Code address about to execute.
        addr: i64,
        /// Slot index from the back.
        slot: usize,
    },
    /// A pc (green or blue — symmetric) zapped at entry.
    Pc {
        /// Code address about to execute.
        addr: i64,
    },
    /// The `d` destination latch zapped at entry.
    D {
        /// Code address about to execute.
        addr: i64,
    },
}

impl Cell {
    /// The code address the strike lands at.
    #[must_use]
    pub fn addr(self) -> i64 {
        match self {
            Cell::Gpr { addr, .. }
            | Cell::Queue { addr, .. }
            | Cell::Pc { addr }
            | Cell::D { addr } => addr,
        }
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cell::Gpr { addr, reg } => write!(f, "r{reg}@{addr}"),
            Cell::Queue { addr, slot } => write!(f, "queue[{slot}]@{addr}"),
            Cell::Pc { addr } => write!(f, "pc@{addr}"),
            Cell::D { addr } => write!(f, "d@{addr}"),
        }
    }
}

/// Why a pair is `Vulnerable` (the cooperation-rule taxonomy), or how a
/// degenerate pair resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PairRule {
    /// One member is already k=1 Vulnerable: no cooperation needed.
    SingleVulnerable,
    /// Rule (a): the taints reach opposite sides of the compare at `at`.
    OppositeSides {
        /// Address of the defeatable compare.
        at: i64,
    },
    /// Rule (b): one strike corrupts the detector state itself (`d` or a
    /// queue slot) feeding the compare at `at` while the other taints the
    /// opposing side.
    DetectorStrike {
        /// Address of the defeatable compare.
        at: i64,
    },
    /// Two pc strikes may re-equalize a diverged fetch pair (conservative).
    PcPair,
    /// The union taint escapes classification at `at` (an unplaceable
    /// queue push or an unresolved blue target) — defensive; a lane doing
    /// this alone would already be k=1 Vulnerable.
    Escape {
        /// Address of the escaping instruction.
        at: i64,
    },
}

impl PairRule {
    /// The defeated compare's address, when the rule names one.
    #[must_use]
    pub fn compare_addr(self) -> Option<i64> {
        match self {
            PairRule::OppositeSides { at } | PairRule::DetectorStrike { at } => Some(at),
            _ => None,
        }
    }
}

impl std::fmt::Display for PairRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PairRule::SingleVulnerable => write!(f, "single-vulnerable member"),
            PairRule::OppositeSides { at } => {
                write!(f, "opposite sides of the compare at {at}")
            }
            PairRule::DetectorStrike { at } => {
                write!(f, "detector strike at the compare at {at}")
            }
            PairRule::PcPair => write!(f, "pc pair may re-equalize fetch"),
            PairRule::Escape { at } => write!(f, "union taint escapes at {at}"),
        }
    }
}

/// A classified pair: the verdict plus (for `Vulnerable`) the rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairVerdict {
    /// The pair's static class.
    pub class: PairClass,
    /// Why, when `Vulnerable` (`None` for safe pairs).
    pub rule: Option<PairRule>,
}

/// Phase-1 summary of one k=1-Detected cell's solo taint run (its class
/// lives in the k=1 report; its reach in its batch's [`Rows`]), and the
/// memo of the compositions that strike it second.
struct Summary {
    cell: Cell,
    /// Sorted and deduplicated.
    touches: Box<[Touch]>,
    /// Composition results with this cell struck second, by the first
    /// cell's residual taint at its address, ascending. The residual, this
    /// cell's address and its seed are all a composition depends on.
    composed: Vec<(Taint, Option<Vuln>)>,
}

/// The pair-fault analyzer: owns the CFG, the k=1 report, and memoized
/// phase-1 summaries; composes pairs on demand.
pub struct PairAnalyzer<'a> {
    program: &'a Program,
    cfg: Cfg,
    pessimistic: Vec<bool>,
    k1: ZapReport,
    /// The summaries of every k=1-Detected data cell, in
    /// [`PairAnalyzer::cells`] order, once phase 1 has run.
    summaries: Vec<Summary>,
    /// The reach of summary `i` is lane `i % LANES` of `rows[i / LANES]`.
    rows: Vec<Rows>,
    /// Whether phase 1 has run.
    summarized: bool,
    /// Two-lane fixpoints actually run (memo misses) — a cost diagnostic.
    fixpoints: u64,
}

impl<'a> PairAnalyzer<'a> {
    /// Build the CFG, run the k=1 classifier, and prepare for pair
    /// queries. A program too wide for the taint mask yields a bailed
    /// analyzer: [`PairAnalyzer::classify_pair`] then answers `None`.
    #[must_use]
    pub fn new(program: &'a Program) -> PairAnalyzer<'a> {
        let cfg = Cfg::build(program);
        let k1 = match liveness(program, &cfg) {
            Some(live) => analyze_zaps_with(program, &cfg, &live),
            None => too_wide(program),
        };
        let pessimistic = queue_pessimism(&cfg);
        PairAnalyzer {
            program,
            cfg,
            pessimistic,
            k1,
            summaries: Vec::new(),
            rows: Vec::new(),
            summarized: false,
            fixpoints: 0,
        }
    }

    /// The underlying per-cell k=1 report.
    #[must_use]
    pub fn k1(&self) -> &ZapReport {
        &self.k1
    }

    /// Why the analyzer refused, if it did.
    #[must_use]
    pub fn bailed(&self) -> Option<&str> {
        self.k1.bailed.as_deref()
    }

    /// Every classified cell, in deterministic order.
    #[must_use]
    pub fn cells(&self) -> Vec<Cell> {
        let mut v = Vec::new();
        v.extend(self.k1.pc().map(|(addr, _)| Cell::Pc { addr }));
        v.extend(self.data_cells().map(|(c, _)| c));
        v
    }

    /// Every classified data cell (all but pc cells) with its k=1 class,
    /// in [`PairAnalyzer::cells`] order.
    fn data_cells(&self) -> impl Iterator<Item = (Cell, ZapClass)> + '_ {
        let k1 = &self.k1;
        let dst = k1.dst().map(|(addr, c)| (Cell::D { addr }, c));
        let gpr = k1
            .gpr()
            .map(|((addr, reg), c)| (Cell::Gpr { addr, reg }, c));
        let queue = k1
            .queue()
            .map(|((addr, slot), c)| (Cell::Queue { addr, slot }, c));
        dst.chain(gpr).chain(queue)
    }

    /// The cell's k=1 class, when the static grid covers it.
    #[must_use]
    pub fn k1_class(&self, cell: Cell) -> Option<ZapClass> {
        self.k1.class(cell)
    }

    fn ctx(&self) -> Ctx<'_> {
        Ctx {
            program: self.program,
            cfg: &self.cfg,
            pessimistic: &self.pessimistic,
        }
    }

    /// Phase 1, once: summarize every k=1-Detected data cell, 64 lanes to
    /// a batched fixpoint, in [`PairAnalyzer::cells`] order.
    fn summarize(&mut self) {
        if self.summarized {
            return;
        }
        let cells: Vec<Cell> = self
            .data_cells()
            .filter(|&(_, class)| class == ZapClass::Detected)
            .map(|(cell, _)| cell)
            .collect();
        // Queue slots past 64 are Vulnerable, so every Detected cell seeds.
        let seeds: Vec<Seed> = cells
            .iter()
            .map(|&c| Seed::of(c).expect("Detected data cells seed a lane"))
            .collect();
        SUMMARY_RUNS.add(seeds.len() as u64);
        let cx = self.ctx();
        let mut batch = Batch::new(&cx, &seeds);
        let mut summaries = Vec::with_capacity(seeds.len());
        let mut rows = Vec::with_capacity(seeds.len().div_ceil(LANES));
        for (cells, seeds) in cells.chunks(LANES).zip(seeds.chunks(LANES)) {
            let (touches, reach) = batch.summarize(&cx, seeds);
            rows.push(reach);
            for (&cell, touches) in cells.iter().zip(touches) {
                summaries.push(Summary {
                    cell,
                    touches,
                    composed: Vec::new(),
                });
            }
        }
        self.summaries = summaries;
        self.rows = rows;
        self.summarized = true;
    }

    /// The index of a k=1-Detected data cell's summary, phase 1 done.
    fn summary(&self, cell: Cell) -> usize {
        self.summaries
            .binary_search_by_key(&cells_order(cell), |s| cells_order(s.cell))
            .expect("Detected cells are summarized")
    }

    /// Phase 2 for one ordered `(first strike, second strike)` of
    /// summarized cells: seed a two-lane run at the second address with
    /// the first cell's residual reach. `None` when the strikes cannot
    /// interact (rule c).
    fn compose(&mut self, first: usize, second: usize) -> Option<Vuln> {
        let addr = self.summaries[second].cell.addr();
        let residual = self.rows[first / LANES].taint(first % LANES, addr)?;
        let pos = match self.summaries[second]
            .composed
            .binary_search_by(|(r, _)| r.cmp(&residual))
        {
            Ok(k) => return self.summaries[second].composed[k].1,
            Err(k) => k,
        };
        let seed = Seed::of(self.summaries[second].cell)
            .expect("summarized cells are data cells")
            .taint();
        let mut obs = Union::default();
        run_lanes(&self.ctx(), addr, [residual, seed], &mut obs);
        self.fixpoints += 1;
        self.summaries[second]
            .composed
            .insert(pos, (residual, obs.vuln));
        obs.vuln
    }

    fn rule_of(v: Vuln, first: Cell, second: Cell) -> PairRule {
        match v.kind {
            VulnKind::StoreCompare | VulnKind::JmpCompare | VulnKind::BzCompare => {
                // The strike *on* the detector state is the green lane: a
                // queue-slot cell at stB, or the d latch at jmpB/bzB.
                let detector = |c: Cell, lane: u64| {
                    v.green & lane != 0 && matches!(c, Cell::Queue { .. } | Cell::D { .. })
                };
                if detector(first, 1) || detector(second, 2) {
                    PairRule::DetectorStrike { at: v.at }
                } else {
                    PairRule::OppositeSides { at: v.at }
                }
            }
            VulnKind::QueuePush | VulnKind::UnresolvedTarget => PairRule::Escape { at: v.at },
        }
    }

    /// Classify an unordered pair of cells. `None` when the analyzer
    /// bailed or the static grid does not cover a member. A strike pair
    /// is `Vulnerable` iff *some* strike order may cooperate into an SDC;
    /// both orders are composed, so callers need not order by step.
    pub fn classify_pair(&mut self, a: Cell, b: Cell) -> Option<PairVerdict> {
        if self.bailed().is_some() {
            return None;
        }
        let ca = self.k1_class(a)?;
        let cb = self.k1_class(b)?;
        // pc strikes carry no data taint and are caught at the next fetch
        // compare — unless both pcs are struck.
        match (a, b) {
            (Cell::Pc { .. }, Cell::Pc { .. }) => {
                return Some(PairVerdict {
                    class: PairClass::Vulnerable,
                    rule: Some(PairRule::PcPair),
                })
            }
            (Cell::Pc { .. }, _) | (_, Cell::Pc { .. }) => {
                let other = if matches!(a, Cell::Pc { .. }) { cb } else { ca };
                return Some(if other == ZapClass::Vulnerable {
                    PairVerdict {
                        class: PairClass::Vulnerable,
                        rule: Some(PairRule::SingleVulnerable),
                    }
                } else {
                    PairVerdict {
                        class: PairClass::Detected,
                        rule: None,
                    }
                });
            }
            _ => {}
        }
        if ca == ZapClass::Vulnerable || cb == ZapClass::Vulnerable {
            return Some(PairVerdict {
                class: PairClass::Vulnerable,
                rule: Some(PairRule::SingleVulnerable),
            });
        }
        let safe = PairVerdict {
            class: if ca == ZapClass::Detected || cb == ZapClass::Detected {
                PairClass::Detected
            } else {
                PairClass::Benign
            },
            rule: None,
        };
        // A Benign member's solo run met no compare: its touch set is
        // empty, so the screen below could not pass.
        if ca == ZapClass::Benign || cb == ZapClass::Benign {
            return Some(safe);
        }
        self.summarize();
        let sa = self.summary(a);
        let sb = self.summary(b);
        if !opposite_overlap(&self.summaries[sa].touches, &self.summaries[sb].touches) {
            return Some(safe);
        }
        Some(match self.cooperate(sa, sb) {
            Some(rule) => PairVerdict {
                class: PairClass::Vulnerable,
                rule: Some(rule),
            },
            None => safe,
        })
    }

    /// Compose a screen-passing pair of summarized cells in both strike
    /// orders, `a` first then `b` first; the first defeat found names the
    /// rule.
    fn cooperate(&mut self, a: usize, b: usize) -> Option<PairRule> {
        let (ca, cb) = (self.summaries[a].cell, self.summaries[b].cell);
        if let Some(v) = self.compose(a, b) {
            return Some(Self::rule_of(v, ca, cb));
        }
        self.compose(b, a).map(|v| Self::rule_of(v, cb, ca))
    }

    /// Enumerate and classify **every** unordered cell pair (same-cell
    /// pairs included — a looped address can be struck twice). Safe pairs
    /// are counted combinatorially from touch-signature groups; only
    /// screen-passing candidates run two-lane fixpoints.
    pub fn pair_report(&mut self) -> PairReport {
        let mut report = PairReport {
            bailed: self.k1.bailed.clone(),
            ..PairReport::default()
        };
        if report.bailed.is_some() {
            return report;
        }
        self.summarize();
        let pc_cells = self.k1.pc().count() as u64;
        let (mut data_cells, mut benign_cells, mut vuln_cells) = (0u64, 0u64, 0u64);
        for (_, class) in self.data_cells() {
            data_cells += 1;
            match class {
                ZapClass::Vulnerable => vuln_cells += 1,
                ZapClass::Benign => benign_cells += 1,
                ZapClass::Detected => {}
            }
        }
        let n = pc_cells + data_cells;
        report.cells = n as usize;
        report.pairs = n * (n + 1) / 2;
        let safe_cells = n - pc_cells - vuln_cells;
        let detected_cells = safe_cells - benign_cells;
        // pc/pc: conservatively vulnerable (fetch re-equalization).
        report.vulnerable += pc_cells * (pc_cells + 1) / 2;
        // pc/safe: exactly as dangerous as the safe member alone.
        report.detected += pc_cells * safe_cells;
        // Any pair with a k=1-vulnerable member needs no cooperation.
        report.single_vulnerable =
            vuln_cells * (vuln_cells + 1) / 2 + vuln_cells * (safe_cells + pc_cells);
        report.vulnerable += report.single_vulnerable;
        // Safe pairs with a Benign member.
        report.benign += benign_cells * (benign_cells + 1) / 2;
        report.detected += benign_cells * detected_cells;
        // Detected × Detected, group-wise. The k=1-Detected cells' summaries
        // grouped by touch signature, ascending, each group in summary
        // order: every member composes identically at the screen level. A
        // Benign cell met no compare, so it has no touch and no summary,
        // and no pair with it is a candidate.
        let mut order: Vec<usize> = (0..self.summaries.len()).collect();
        let touches = |s: usize| &self.summaries[s].touches;
        order.sort_by(|&x, &y| touches(x).cmp(touches(y)));
        let groups: Vec<&[usize]> = order.chunk_by(|&x, &y| touches(x) == touches(y)).collect();
        // Cooperative defeats and first witnesses, by compare address.
        let mut defeats = vec![0u64; self.cfg.n + 1];
        let mut witness: Vec<Option<(Cell, Cell)>> = vec![None; self.cfg.n + 1];
        for (i, gi) in groups.iter().enumerate() {
            for (j, gj) in groups.iter().enumerate().skip(i) {
                let (sig_i, sig_j) = (
                    &self.summaries[gi[0]].touches,
                    &self.summaries[gj[0]].touches,
                );
                if !opposite_overlap(sig_i, sig_j) {
                    report.detected += if i == j {
                        let g = gi.len() as u64;
                        g * (g + 1) / 2
                    } else {
                        gi.len() as u64 * gj.len() as u64
                    };
                    continue;
                }
                // Candidates: the signatures already fix both classes,
                // pc-ness and the screen, so compose each pair directly.
                for (x, &a) in gi.iter().enumerate() {
                    let from = if i == j { x } else { 0 };
                    for &b in &gj[from..] {
                        match self.cooperate(a, b) {
                            Some(rule) => {
                                report.vulnerable += 1;
                                report.cooperative += 1;
                                if let Some(at) = rule.compare_addr() {
                                    defeats[at as usize] += 1;
                                    witness[at as usize].get_or_insert_with(|| {
                                        (self.summaries[a].cell, self.summaries[b].cell)
                                    });
                                }
                            }
                            None => report.detected += 1,
                        }
                    }
                }
            }
        }
        report.per_compare = (0..).zip(defeats).filter(|&(_, count)| count > 0).collect();
        report.witness = (0..)
            .zip(witness)
            .filter_map(|(at, w)| Some((at, w?)))
            .collect();
        report.fixpoints = self.fixpoints;
        report
    }
}

/// A cell's place in [`PairAnalyzer::cells`] order: pc cells, then `d`
/// cells, GPRs and queue slots, each by address.
fn cells_order(cell: Cell) -> (u8, i64, usize) {
    match cell {
        Cell::Pc { addr } => (0, addr, 0),
        Cell::D { addr } => (1, addr, 0),
        Cell::Gpr { addr, reg } => (2, addr, usize::from(reg)),
        Cell::Queue { addr, slot } => (3, addr, slot),
    }
}

/// Do two sorted touch sets share a compare with opposite sides? One merge
/// over both: a set holds at most two touches of one compare.
fn opposite_overlap(a: &[Touch], b: &[Touch]) -> bool {
    let mut j = 0;
    a.iter().any(|t| {
        while b.get(j).is_some_and(|u| u.at < t.at) {
            j += 1;
        }
        b[j..]
            .iter()
            .take_while(|u| u.at == t.at)
            .any(|u| u.side != t.side)
    })
}

/// Whole-program pair coverage: the k=2 analogue of [`ZapReport`].
#[derive(Debug, Clone, Default)]
pub struct PairReport {
    /// Classified cells (the pair grid is `cells × cells`, unordered).
    pub cells: usize,
    /// Total unordered pairs, same-cell pairs included.
    pub pairs: u64,
    /// Pairs where some strike may trip a compare; no SDC.
    pub detected: u64,
    /// Pairs that provably die silently; no SDC.
    pub benign: u64,
    /// Pairs that may cooperate into an SDC.
    pub vulnerable: u64,
    /// Vulnerable pairs explained by a k=1-Vulnerable member alone.
    pub single_vulnerable: u64,
    /// Vulnerable pairs that needed genuine cooperation (rules a/b).
    pub cooperative: u64,
    /// Cooperative defeats attributed to each compare address.
    pub per_compare: BTreeMap<i64, u64>,
    /// One witness pair per defeatable compare.
    pub witness: BTreeMap<i64, (Cell, Cell)>,
    /// Two-lane fixpoints actually run (memoization makes this far
    /// smaller than the candidate count).
    pub fixpoints: u64,
    /// Set when the analyzer refused (then every count is zero).
    pub bailed: Option<String>,
}

impl PairReport {
    /// Fraction of pairs provably safe (Detected + Benign) — the static
    /// k=2 coverage. `None` when the analyzer bailed, 1.0 for a report
    /// without pairs.
    #[must_use]
    pub fn coverage(&self) -> Option<f64> {
        if self.bailed.is_some() {
            return None;
        }
        Some(if self.pairs == 0 {
            1.0
        } else {
            (self.detected + self.benign) as f64 / self.pairs as f64
        })
    }
}

/// `TF008` — flag dual-compares defeated by *disproportionately* many
/// cooperating pairs: a compare whose cooperative-defeat count is at least
/// twice the per-compare mean (with at least two defeatable compares to
/// compare against). Opt-in: every dual-modular compare is defeatable by
/// *some* coordinated double strike — Theorem 4 only covers k=1 — so this
/// warns about outliers, not existence. `report` is `program`'s
/// [`PairAnalyzer::pair_report`]; the program supplies the spans.
#[must_use]
pub fn lint_pairs(program: &Program, report: &PairReport) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let compares = report.per_compare.len() as u64;
    let total: u64 = report.per_compare.values().sum();
    if compares < 2 || total == 0 {
        return diags;
    }
    for (&at, &count) in &report.per_compare {
        // count >= 2 × mean, in integers: count × compares >= 2 × total.
        if count * compares < 2 * total {
            continue;
        }
        let i = &program.instrs[(at - 1) as usize];
        let (w1, w2) = report.witness[&at];
        diags.push(
            Diagnostic::warning(
                LINT_PAIR_HOTSPOT,
                format!(
                    "`{i}` is defeated by {count} of {total} cooperating fault pairs \
                     ({compares} defeatable compares)"
                ),
            )
            .at(program, at)
            .note(format!(
                "witness pair: {w1} + {w2} — consider narrowing the live range \
                 feeding this compare"
            )),
        );
    }
    diags.sort_by_key(|d| (d.span.as_ref().map_or(0, |s| s.addr), d.code));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zap::tests::{DEPTH_CONFLICT, UNRESOLVED_TARGET};
    use crate::zap::{reach_bits, Observe, Side};
    use talft_compiler::{compile, CompileOptions};
    use talft_isa::assemble;
    use talft_suite::{kernels, Scale};
    use talft_testutil::{wile, SplitMix64};

    /// An unprotected-feeling but k=1-safe block: r1 feeds the green
    /// side, r3 the blue side of one store pair.
    const STORE: &str = r#"
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 5
  mov r2, G 4096
  stG r2, r1
  mov r3, B 5
  mov r4, B 4096
  stB r4, r3
  halt
"#;

    #[test]
    fn opposite_sides_of_one_compare_cooperate() {
        let asm = assemble(STORE).expect("assembles");
        let mut pa = PairAnalyzer::new(&asm.program);
        // r1 struck after its def (green side) + r3 struck after its def
        // (blue side): both k=1 Detected, but together they can pass the
        // stB compare as a matched wrong pair.
        let a = Cell::Gpr { addr: 2, reg: 1 };
        let b = Cell::Gpr { addr: 5, reg: 3 };
        assert_eq!(pa.k1_class(a), Some(ZapClass::Detected));
        assert_eq!(pa.k1_class(b), Some(ZapClass::Detected));
        let v = pa.classify_pair(a, b).expect("covered");
        assert_eq!(v.class, PairClass::Vulnerable);
        assert_eq!(v.rule, Some(PairRule::OppositeSides { at: 6 }));
        // Orderless: the reversed query composes the other direction.
        assert_eq!(
            pa.classify_pair(b, a).expect("covered").class,
            PairClass::Vulnerable
        );
    }

    #[test]
    fn detector_strike_on_queue_slot_cooperates() {
        let asm = assemble(STORE).expect("assembles");
        let mut pa = PairAnalyzer::new(&asm.program);
        // First corrupt the queued pair (the detector's golden copy),
        // then the blue operand — or equivalently strike the slot second.
        let slot = Cell::Queue { addr: 4, slot: 0 };
        let blue = Cell::Gpr { addr: 5, reg: 3 };
        let v = pa.classify_pair(blue, slot).expect("covered");
        assert_eq!(v.class, PairClass::Vulnerable);
        assert_eq!(v.rule, Some(PairRule::DetectorStrike { at: 6 }));
    }

    #[test]
    fn sequencing_and_same_side_pairs_stay_safe() {
        let asm = assemble(STORE).expect("assembles");
        let mut pa = PairAnalyzer::new(&asm.program);
        // Same side twice (green value + green address register): the blue
        // side stays golden, so the compare still catches any mismatch.
        let v = pa
            .classify_pair(Cell::Gpr { addr: 2, reg: 1 }, Cell::Gpr { addr: 3, reg: 2 })
            .expect("covered");
        assert_eq!(v.class, PairClass::Detected);
        // Sequencing (rule c): r1's taint is consumed by the stG push and
        // compare-cleared; striking r1 again *after* the stB cannot
        // resurrect it — r1 is dead there, so the pair is as safe as the
        // first strike alone.
        let v = pa
            .classify_pair(Cell::Gpr { addr: 2, reg: 1 }, Cell::Gpr { addr: 7, reg: 1 })
            .expect("covered");
        assert_ne!(v.class, PairClass::Vulnerable);
    }

    #[test]
    fn pc_pairs_follow_the_special_cases() {
        let asm = assemble(STORE).expect("assembles");
        let mut pa = PairAnalyzer::new(&asm.program);
        let pc = Cell::Pc { addr: 3 };
        let v = pa.classify_pair(pc, Cell::Pc { addr: 5 }).expect("covered");
        assert_eq!(v.class, PairClass::Vulnerable);
        assert_eq!(v.rule, Some(PairRule::PcPair));
        // pc + safe data cell: exactly as dangerous as the data cell.
        let v = pa
            .classify_pair(pc, Cell::Gpr { addr: 2, reg: 1 })
            .expect("covered");
        assert_eq!(v.class, PairClass::Detected);
        assert_eq!(v.rule, None);
    }

    #[test]
    fn pair_report_counts_are_consistent() {
        let asm = assemble(STORE).expect("assembles");
        let mut pa = PairAnalyzer::new(&asm.program);
        let report = pa.pair_report();
        assert!(report.bailed.is_none());
        let n = report.cells as u64;
        assert_eq!(report.pairs, n * (n + 1) / 2);
        assert_eq!(
            report.detected + report.benign + report.vulnerable,
            report.pairs,
            "every pair lands in exactly one class"
        );
        assert!(report.cooperative > 0, "the store pair is defeatable");
        assert!(report.per_compare.contains_key(&6), "stB attribution");
        assert!(report.witness.contains_key(&6));
        // Spot-check the report against direct classification.
        let a = Cell::Gpr { addr: 2, reg: 1 };
        let b = Cell::Gpr { addr: 5, reg: 3 };
        assert_eq!(
            pa.classify_pair(a, b).expect("covered").class,
            PairClass::Vulnerable
        );
    }

    /// Exactness of skipping phase 1 for Benign cells: their own summary
    /// run never touches a compare.
    #[test]
    fn benign_cells_touch_no_compare() {
        for k in kernels(Scale::Tiny).iter().take(3) {
            let c = compile(&k.source, &CompileOptions::default()).expect("kernels compile");
            for p in [&c.protected.program, &c.baseline.program] {
                let pa = PairAnalyzer::new(p);
                // Queue slots past 64 are Vulnerable, so every Benign cell
                // seeds a lane.
                let benign: Vec<Seed> = pa
                    .data_cells()
                    .filter(|&(_, class)| class == ZapClass::Benign)
                    .map(|(cell, _)| Seed::of(cell).expect("a seed"))
                    .collect();
                assert!(!benign.is_empty(), "{} has Benign cells", k.name);
                let cx = pa.ctx();
                let mut batch = Batch::new(&cx, &benign);
                for seeds in benign.chunks(LANES) {
                    for (seed, touches) in seeds.iter().zip(batch.summarize(&cx, seeds).0) {
                        assert!(touches.is_empty(), "{}: {seed:?}", k.name);
                    }
                }
            }
        }
    }

    /// The summary oracle's observer: every touch in event order, and
    /// whether a defeat stopped the run.
    #[derive(Default)]
    struct Record {
        touches: Vec<Touch>,
        defeated: bool,
    }

    impl Observe for Record {
        fn defeat(&mut self, _: Vuln) -> u64 {
            self.defeated = true;
            u64::MAX
        }

        fn touch(&mut self, at: i64, side: Side, _: u64) {
            self.touches.push(Touch { at, side });
        }

        fn guard(&mut self, _: u64) {}

        fn stopped(&self) -> bool {
            self.defeated
        }
    }

    /// A cell's summary from its own fixpoint: one lane on `run_lanes`'
    /// LIFO worklist, touches sorted and deduplicated, reach by ascending
    /// address. The run must not defeat a compare, or a batch, which runs
    /// a defeated lane no further, could not match it.
    fn own_summary(cx: &Ctx, seed: Seed) -> (Vec<Touch>, Vec<(i64, Taint)>) {
        let mut obs = Record::default();
        let state = run_lanes(cx, seed.addr(), [seed.taint()], &mut obs);
        assert!(!obs.defeated, "{seed:?} defeats a compare on its own");
        obs.touches.sort_unstable();
        obs.touches.dedup();
        let reach = (1..)
            .zip(state)
            .filter_map(|(a, t)| Some((a, t?[0])))
            .collect();
        (obs.touches, reach)
    }

    /// Phase-1 differential on one program. Every k=1-Detected data cell's
    /// summary in the analyzer, kept in [`PairAnalyzer::cells`] order,
    /// equals its own one-lane run; so does every `every`-th cell's in
    /// batches of 1, 7 and 64 cells with the cell in every lane position.
    /// Returns how many `d` cells it covered.
    fn assert_summaries_match_own_runs(program: &Program, what: &str, every: usize) -> usize {
        let mut pa = PairAnalyzer::new(program);
        pa.summarize();
        let cx = pa.ctx();
        let cells: Vec<Cell> = pa
            .data_cells()
            .filter(|&(_, class)| class == ZapClass::Detected)
            .map(|(cell, _)| cell)
            .collect();
        assert_eq!(
            pa.summaries.len(),
            cells.len(),
            "{what}: one per Detected cell"
        );
        // `(cell, touches, reach bits)` of the cells batched below.
        let mut want = Vec::new();
        let mut batch_bits = Vec::new();
        for (i, &cell) in cells.iter().enumerate() {
            // A `d` cell is classified by reachability, not by a fixpoint:
            // `own_summary` shows its lane never defeats a compare either.
            let (touches, reach) = own_summary(&cx, Seed::of(cell).expect("a seed"));
            let (s, lane, rows) = (&pa.summaries[i], i % LANES, &pa.rows[i / LANES]);
            assert_eq!(s.cell, cell, "{what}: summaries in cell order");
            assert_eq!(pa.summary(cell), i, "{what}: {cell} indexed");
            assert_eq!(*s.touches, touches[..], "{what}: {cell} touches");
            if lane == 0 {
                batch_bits = rows.bits(LANES);
            }
            let bits = reach_bits(&reach);
            assert_eq!(batch_bits[lane], bits, "{what}: {cell} reach");
            if i % every == 0 {
                for &(a, t) in &reach {
                    assert_eq!(rows.taint(lane, a), Some(t), "{what}: {cell} at {a}");
                }
                let reached = (1..=cx.cfg.n as i64).filter(|&a| rows.taint(lane, a).is_some());
                assert_eq!(reached.count(), reach.len(), "{what}: {cell} reach");
                want.push((cell, touches, bits));
            }
        }
        let seeds: Vec<Seed> = want
            .iter()
            .map(|w| Seed::of(w.0).expect("a seed"))
            .collect();
        let mut batch = Batch::new(&cx, &seeds);
        for size in [1, 7, LANES] {
            // Lead with the last `shift` cells: cell `i` rides lane
            // `(i + shift) % size`.
            for shift in 0..size.min(seeds.len()) {
                let order: Vec<usize> = (seeds.len() - shift..seeds.len())
                    .chain(0..seeds.len())
                    .collect();
                for lanes in order.chunks(size) {
                    let batch_seeds: Vec<Seed> = lanes.iter().map(|&i| seeds[i]).collect();
                    let (touches, rows) = batch.summarize(&cx, &batch_seeds);
                    let bits = rows.bits(lanes.len());
                    for (lane, &i) in lanes.iter().enumerate() {
                        let (cell, want_touches, want_bits) = &want[i];
                        assert!(
                            *touches[lane] == want_touches[..] && bits[lane] == *want_bits,
                            "{what}: {cell} in lane {lane} of a batch of {}",
                            lanes.len()
                        );
                    }
                }
            }
        }
        cells.iter().filter(|c| matches!(c, Cell::D { .. })).count()
    }

    #[test]
    fn batched_summaries_match_their_own_runs() {
        let mut d_cells = 0;
        for k in kernels(Scale::Tiny) {
            let c = compile(&k.source, &CompileOptions::default()).expect("kernels compile");
            for (side, p) in [
                ("protected", &c.protected.program),
                ("baseline", &c.baseline.program),
            ] {
                let what = format!("{} ({side})", k.name);
                d_cells += assert_summaries_match_own_runs(p, &what, 1);
            }
        }
        assert!(d_cells > 0, "the suite has Detected d cells");
        // The program `zap_pins` pins: 32,055 Detected cells, whose reach
        // batched at every lane position would cost 72 times its 21.4M
        // tainted addresses; every 64th cell rides every lane position.
        let mut rng = SplitMix64::new(0x2A9_0003);
        let src = wile::render_program(&wile::random_stmts(&mut rng, 3, 16, 24));
        let c = compile(&src, &CompileOptions::default()).expect("compiles");
        assert_eq!(c.protected.program.instrs.len(), 2093);
        assert_summaries_match_own_runs(&c.protected.program, "2,093-instruction program", 64);
        let asm = assemble(DEPTH_CONFLICT).expect("assembles");
        assert_summaries_match_own_runs(&asm.program, "depth conflict", 1);
        let asm = assemble(UNRESOLVED_TARGET).expect("assembles");
        let d_cells = assert_summaries_match_own_runs(&asm.program, "unresolved target", 1);
        assert!(d_cells > 0, "the jmpB guards d");
    }

    /// The `PairReport` fields a pair-analysis change must not move.
    struct Pin {
        cells: usize,
        pairs: u64,
        detected: u64,
        benign: u64,
        vulnerable: u64,
        single_vulnerable: u64,
        cooperative: u64,
        fixpoints: u64,
        per_compare: &'static [(i64, u64)],
        witness: &'static [(i64, &'static str, &'static str)],
    }

    fn assert_pinned(r: &PairReport, pin: &Pin, side: &str) {
        assert!(r.bailed.is_none(), "{side}");
        let got = (
            r.cells,
            r.pairs,
            r.detected,
            r.benign,
            r.vulnerable,
            r.single_vulnerable,
            r.cooperative,
            r.fixpoints,
        );
        let want = (
            pin.cells,
            pin.pairs,
            pin.detected,
            pin.benign,
            pin.vulnerable,
            pin.single_vulnerable,
            pin.cooperative,
            pin.fixpoints,
        );
        assert_eq!(got, want, "{side}: counts");
        let per_compare: Vec<(i64, u64)> = r.per_compare.iter().map(|(&a, &n)| (a, n)).collect();
        assert_eq!(per_compare, pin.per_compare, "{side}: per_compare");
        let witness: Vec<(i64, String, String)> = r
            .witness
            .iter()
            .map(|(&at, (a, b))| (at, a.to_string(), b.to_string()))
            .collect();
        let want: Vec<(i64, String, String)> = pin
            .witness
            .iter()
            .map(|&(at, a, b)| (at, a.to_owned(), b.to_owned()))
            .collect();
        assert_eq!(witness, want, "{side}: witness");
    }

    /// spec_gzip@Tiny's pair reports, computed before the analyzer learnt
    /// to skip fixpoints with a known answer.
    #[test]
    fn spec_gzip_pair_reports_are_pinned() {
        const PROTECTED: Pin = Pin {
            cells: 13673,
            pairs: 93482301,
            detected: 27658021,
            benign: 65419641,
            vulnerable: 404639,
            single_vulnerable: 0,
            cooperative: 383111,
            fixpoints: 4706,
            per_compare: &[
                (14, 1077),
                (31, 5170),
                (36, 12),
                (50, 5212),
                (64, 16768),
                (98, 73235),
                (110, 4918),
                (144, 34851),
                (152, 10),
                (156, 6),
                (160, 6),
                (166, 36932),
                (172, 10),
                (180, 10),
                (191, 99496),
                (198, 16),
                (206, 105382),
            ],
            witness: &[
                (14, "d@14", "r6@12"),
                (31, "r2@4", "r2@12"),
                (36, "d@36", "r6@35"),
                (50, "d@50", "r7@48"),
                (64, "d@64", "r10@62"),
                (98, "r2@40", "r2@65"),
                (110, "r2@40", "r2@99"),
                (144, "r2@40", "r2@111"),
                (152, "d@152", "r1@151"),
                (156, "d@156", "r13@155"),
                (160, "d@160", "r1@159"),
                (166, "d@166", "r14@164"),
                (172, "d@172", "r9@171"),
                (180, "d@180", "r12@179"),
                (191, "r2@40", "r2@48"),
                (198, "d@198", "r7@197"),
                (206, "r3@52", "r9@167"),
            ],
        };
        const BASELINE: Pin = Pin {
            cells: 7994,
            pairs: 31956015,
            detected: 2049290,
            benign: 25959615,
            vulnerable: 3947110,
            single_vulnerable: 3939660,
            cooperative: 69,
            fixpoints: 45,
            per_compare: &[
                (8, 2),
                (18, 18),
                (21, 1),
                (29, 2),
                (37, 2),
                (55, 2),
                (62, 2),
                (80, 2),
                (85, 1),
                (88, 1),
                (91, 1),
                (95, 2),
                (99, 1),
                (104, 1),
                (111, 28),
                (115, 1),
                (120, 2),
            ],
            witness: &[
                (8, "d@8", "r1@8"),
                (18, "queue[0]@16", "r2@16"),
                (21, "d@21", "r4@21"),
                (29, "d@29", "r0@29"),
                (37, "d@37", "r1@37"),
                (55, "d@55", "r1@55"),
                (62, "d@62", "r5@62"),
                (80, "d@80", "r5@80"),
                (85, "d@85", "r5@85"),
                (88, "d@88", "r5@88"),
                (91, "d@91", "r5@91"),
                (95, "d@95", "r5@95"),
                (99, "d@99", "r6@99"),
                (104, "d@104", "r7@104"),
                (111, "queue[0]@108", "r6@108"),
                (115, "d@115", "r5@115"),
                (120, "queue[0]@120", "r3@120"),
            ],
        };
        let k = kernels(Scale::Tiny)
            .into_iter()
            .find(|k| k.name == "spec_gzip")
            .expect("suite kernel");
        let c = compile(&k.source, &CompileOptions::default()).expect("kernels compile");
        let protected = PairAnalyzer::new(&c.protected.program).pair_report();
        assert_pinned(&protected, &PROTECTED, "protected");
        let baseline = PairAnalyzer::new(&c.baseline.program).pair_report();
        assert_pinned(&baseline, &BASELINE, "baseline");
    }

    /// `pair_report` composes candidates without `classify_pair`; the two
    /// must still agree on every unordered pair.
    #[test]
    fn classify_pair_agrees_with_pair_report() {
        let asm = assemble(STORE).expect("assembles");
        let mut pa = PairAnalyzer::new(&asm.program);
        let report = pa.pair_report();
        let cells = pa.cells();
        let mut tally = PairReport::default();
        for (i, &a) in cells.iter().enumerate() {
            for &b in &cells[i..] {
                let v = pa.classify_pair(a, b).expect("covered");
                match v.class {
                    ZapClass::Detected => tally.detected += 1,
                    ZapClass::Benign => tally.benign += 1,
                    ZapClass::Vulnerable => tally.vulnerable += 1,
                }
                if let Some(at) = v.rule.and_then(PairRule::compare_addr) {
                    *tally.per_compare.entry(at).or_insert(0) += 1;
                }
            }
        }
        assert_eq!(
            (tally.detected, tally.benign, tally.vulnerable),
            (report.detected, report.benign, report.vulnerable)
        );
        assert_eq!(tally.per_compare, report.per_compare);
    }

    #[test]
    fn single_compare_programs_get_no_tf008() {
        // TF008 flags *disproportionate* compares; with one defeatable
        // compare there is no distribution to stand out from.
        let asm = assemble(STORE).expect("assembles");
        let report = PairAnalyzer::new(&asm.program).pair_report();
        assert!(lint_pairs(&asm.program, &report).is_empty());
    }
}
