//! Static zap-vulnerability classification: the per-cell analogue of the
//! k=1 injection campaign.
//!
//! A **cell** is a (code address, fault site) pair: zap register `r` (or
//! `d`, or a pc, or a store-queue slot) in a machine state about to fetch
//! or execute the instruction at that address. Each cell is classified:
//!
//! * [`ZapClass::Detected`] — some path routes the corruption into a
//!   dual-compare (`stB`, `jmpB`, `bzB`, a `d`-guard, the fetch pc check),
//!   so the machine faults before corrupt data can escape; the corruption
//!   may also die or be masked first.
//! * [`ZapClass::Benign`] — the corruption provably dies (overwritten or
//!   never consumed) without meeting any compare: at worst a dissimilar
//!   final state, never a wrong output.
//! * [`ZapClass::Vulnerable`] — some path lets the corruption reach
//!   *both* sides of a compare (or the analysis had to bail), so a wrong
//!   output can be committed: potential silent data corruption.
//!
//! The soundness argument mirrors Theorem 4: outputs happen only at `stB`
//! commits and control transfers only at `jmpB`/`bzB` commits, all of
//! which compare a green value against a blue one. A single zap that
//! taints only one side either trips the compare (detected) or — because
//! the compare passed — held the golden value all along, which is why the
//! may-taint transfer *sanitizes* compared registers on pass edges.
//! `Detected`/`Benign` cells therefore admit no SDC, which is exactly what
//! [`cross_validate`](crate::diff::cross_validate) checks against the
//! dynamic [`PlanGrid`](talft_faultsim::PlanGrid).
//!
//! Special sites need no fixpoint:
//!
//! * **pc zaps** are detected by the very next fetch (`pcG` vs `pcB`),
//!   healed by a committed transfer (both pcs overwritten), or masked by
//!   `halt` — never silent. Classified `Detected` everywhere.
//! * **`d` zaps**: every consumer of `d` guards it (`jmpG`/`bzG`/untaken
//!   `bz` require `d = 0`; `jmpB`/taken `bzB` require `rd = d`), so the
//!   zap faults at the first consumer — `Detected` when a `jmp`/`bz` is
//!   reachable, `Benign` otherwise.
//!
//! Most live GPR cells need no fixpoint either. **Pass-through chaining:**
//! when the instruction at `a` neither reads nor writes `r` and its only
//! successor is the fall-through `a + 1` (anything but `jmpB`, `bzB`,
//! `halt`, or the last instruction), cell `(a, r)` takes the class of
//! `(a + 1, r)`. The transfer maps `{r}` at `a` to exactly `{r}` at
//! `a + 1` with no compare event, and it is distributive, so the least
//! fixpoint seeded at `a` is the one seeded at `a + 1` plus `r` at `a`;
//! every check is monotone in the state, so both runs see the same
//! compare events whatever the worklist order. Walking addresses from
//! high to low makes `(a + 1, r)` known when `(a, r)` is asked.
//!
//! The remaining cells run **in batches of 64**: one worklist fixpoint
//! over a bit-sliced state, one `u64` lane mask per register, one for `d`
//! and one per queue slot at every address, lane `i` seeded with the
//! batch's `i`-th cell. A k=1 cell's run is a universe of its own: its
//! checks read its own lane only, so lanes never interact, and each
//! lane's class depends only on its least fixpoint, not on the order the
//! shared worklist visits addresses in.
//!
//! The taint rules exist once, in `transfer`, generic over the lane
//! representation (`Lanes`: the bit-sliced batch state, or an array of
//! per-lane `Taint`s) and over how compare checks read the lanes
//! (`Observe`): each lane alone for batched k=1 cells, or the lane
//! **union** for one dynamic state carrying several corruptions at once.
//! The union form is the composition step of the pair-fault analyzer
//! ([`crate::pair`]), where the union check is exactly the cooperation
//! condition: two one-sided taints meeting opposite sides of one compare.

use talft_isa::{Color, Gpr, Instr, OpSrc, Program};
use talft_obs::LazyCounter;

use crate::cfg::Cfg;
use crate::live::{def_mask, liveness, uses_mask, Liveness};
use crate::mask::{RegMask, MAX_GPRS};
use crate::pair::Cell;

static ZAP_RUNS: LazyCounter = LazyCounter::new("analysis.zap.runs");
static ZAP_CHAINED: LazyCounter = LazyCounter::new("analysis.zap.chained");
static ZAP_BATCHES: LazyCounter = LazyCounter::new("analysis.zap.batches");

/// Cells per batched fixpoint: one lane per bit of a `u64` mask.
pub(crate) const LANES: usize = 64;

/// Static verdict for one (address, site) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ZapClass {
    /// Routed into a dual-compare: the machine faults (or masks) — no SDC.
    Detected,
    /// Provably dies without consequence — no SDC.
    Benign,
    /// May corrupt both sides of a compare: SDC possible.
    Vulnerable,
}

impl std::fmt::Display for ZapClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZapClass::Detected => write!(f, "detected"),
            ZapClass::Benign => write!(f, "benign"),
            ZapClass::Vulnerable => write!(f, "vulnerable"),
        }
    }
}

/// Static coverage over every reachable cell of a program, kept as the
/// dense rows the classifier fills: one row of register classes and one
/// run of queue-slot classes per address, plus the reachability facts that
/// decide the pc and `d` cells. Only reachable addresses are covered.
#[derive(Clone, Default)]
pub struct ZapReport {
    /// Registers per row (the program's `num_gprs`).
    gprs: u16,
    /// `reachable[ix(a)]`: the report covers address `a`.
    reachable: Vec<bool>,
    /// `gclass[ix(a) * gprs + r]`: the class of `r` at `a`.
    gclass: Vec<ZapClass>,
    /// The queue cells at `a` are `qclass[qrow[ix(a)]..qrow[ix(a) + 1]]`,
    /// slot 0 (the oldest, next popped by `stB`) first; unreachable
    /// addresses hold none.
    qrow: Vec<usize>,
    /// Queue-slot classes, address by address.
    qclass: Vec<ZapClass>,
    /// `reaches_check[ix(a)]`: a `jmp`/`bz` is reachable from `a`, so the
    /// `d` cell there is Detected (else Benign).
    reaches_check: Vec<bool>,
    /// Set when the analyzer refused to classify (then no cell is covered).
    pub bailed: Option<String>,
}

impl ZapReport {
    /// The covered addresses, ascending.
    fn addrs(&self) -> impl Iterator<Item = i64> + '_ {
        (1..=self.reachable.len() as i64).filter(|&a| self.reachable[ix(a)])
    }

    /// The row of register classes at a covered address.
    fn gpr_row(&self, a: i64) -> &[ZapClass] {
        let gprs = usize::from(self.gprs);
        &self.gclass[ix(a) * gprs..][..gprs]
    }

    /// The queue-slot classes at an address, slot 0 first.
    fn queue_row(&self, a: i64) -> &[ZapClass] {
        &self.qclass[self.qrow[ix(a)]..self.qrow[ix(a) + 1]]
    }

    /// GPR cells, keyed `(addr, register index)`, ascending.
    pub fn gpr(&self) -> impl Iterator<Item = ((i64, u16), ZapClass)> + '_ {
        self.addrs().flat_map(move |a| {
            (0..self.gprs)
                .zip(self.gpr_row(a))
                .map(move |(g, &c)| ((a, g), c))
        })
    }

    /// Store-queue slot cells, keyed `(addr, slot index from the back)`
    /// (slot 0 = oldest = next to be popped by `stB`), ascending.
    pub fn queue(&self) -> impl Iterator<Item = ((i64, usize), ZapClass)> + '_ {
        self.addrs().flat_map(move |a| {
            self.queue_row(a)
                .iter()
                .enumerate()
                .map(move |(slot, &c)| ((a, slot), c))
        })
    }

    /// pc cells (one per address; green and blue are symmetric), ascending:
    /// every one is Detected.
    pub fn pc(&self) -> impl Iterator<Item = (i64, ZapClass)> + '_ {
        self.addrs().map(|a| (a, ZapClass::Detected))
    }

    /// `d` (destination latch) cells, ascending.
    pub fn dst(&self) -> impl Iterator<Item = (i64, ZapClass)> + '_ {
        self.addrs().map(|a| (a, self.dst_class(a)))
    }

    fn dst_class(&self, a: i64) -> ZapClass {
        if self.reaches_check[ix(a)] {
            ZapClass::Detected
        } else {
            ZapClass::Benign
        }
    }

    /// Whether the report covers address `a`.
    fn covers(&self, a: i64) -> bool {
        a >= 1 && self.reachable.get(ix(a)).copied().unwrap_or(false)
    }

    /// The class of one cell, when the report covers it.
    #[must_use]
    pub fn class(&self, cell: Cell) -> Option<ZapClass> {
        let a = cell.addr();
        if !self.covers(a) {
            return None;
        }
        match cell {
            Cell::Gpr { reg, .. } => self.gpr_row(a).get(usize::from(reg)).copied(),
            Cell::Queue { slot, .. } => self.queue_row(a).get(slot).copied(),
            Cell::Pc { .. } => Some(ZapClass::Detected),
            Cell::D { .. } => Some(self.dst_class(a)),
        }
    }

    /// Cell counts as `(detected, benign, vulnerable)`.
    #[must_use]
    pub fn tally(&self) -> (usize, usize, usize) {
        let mut t = [0; 3];
        let mut count = |c: ZapClass| {
            t[match c {
                ZapClass::Detected => 0,
                ZapClass::Benign => 1,
                ZapClass::Vulnerable => 2,
            }] += 1;
        };
        for a in self.addrs() {
            self.gpr_row(a).iter().for_each(|&c| count(c));
            count(ZapClass::Detected);
            count(self.dst_class(a));
        }
        // Unreachable addresses hold no queue cells.
        self.qclass.iter().for_each(|&c| count(c));
        (t[0], t[1], t[2])
    }

    /// Total classified cells.
    #[must_use]
    pub fn cells(&self) -> usize {
        let addrs = self.addrs().count();
        addrs * (usize::from(self.gprs) + 2) + self.qclass.len()
    }

    /// Fraction of cells provably safe (detected or benign); the static
    /// analogue of campaign fault coverage. `None` when the analyzer
    /// bailed, 1.0 for a report without cells.
    #[must_use]
    pub fn coverage(&self) -> Option<f64> {
        if self.bailed.is_some() {
            return None;
        }
        let (d, b, v) = self.tally();
        let total = d + b + v;
        Some(if total == 0 {
            1.0
        } else {
            (d + b) as f64 / total as f64
        })
    }

    /// Fraction of cells classified `Detected`.
    #[must_use]
    pub fn detected_fraction(&self) -> f64 {
        let (d, b, v) = self.tally();
        let total = d + b + v;
        if total == 0 {
            0.0
        } else {
            d as f64 / total as f64
        }
    }
}

/// Each family as a map from its keys, ascending: the text the `zap_pins`
/// fingerprints were taken on, when the report held one map per family.
impl std::fmt::Debug for ZapReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZapReport")
            .field("gpr", &DebugMap(|| self.gpr()))
            .field("queue", &DebugMap(|| self.queue()))
            .field("pc", &DebugMap(|| self.pc()))
            .field("dst", &DebugMap(|| self.dst()))
            .field("bailed", &self.bailed)
            .finish()
    }
}

/// Debug-prints the `(key, value)` pairs a closure yields as a map.
struct DebugMap<F>(F);

impl<F, I, K, V> std::fmt::Debug for DebugMap<F>
where
    F: Fn() -> I,
    I: Iterator<Item = (K, V)>,
    K: std::fmt::Debug,
    V: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries((self.0)()).finish()
    }
}

/// The taint state: which locations *may* differ from the golden run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash, PartialOrd, Ord)]
pub(crate) struct Taint {
    /// Tainted GPRs.
    pub regs: RegMask,
    /// `d` may differ from golden.
    pub d: bool,
    /// Queue slots, bit 0 = back/oldest (the next `stB` pop).
    pub queue: u64,
}

impl Taint {
    pub(crate) fn any(self) -> bool {
        !self.regs.is_empty() || self.d || self.queue != 0
    }

    fn join(self, o: Taint) -> Taint {
        Taint {
            regs: self.regs | o.regs,
            d: self.d || o.d,
            queue: self.queue | o.queue,
        }
    }
}

#[inline]
pub(crate) fn ix(addr: i64) -> usize {
    (addr - 1) as usize
}

/// Which side of a dual-compare a taint reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Side {
    /// The compare state carried from the green half: a queue slot at
    /// `stB`, or the `d` latch at `jmpB`/`bzB`.
    Green,
    /// The blue register operand(s) the compare checks against.
    Blue,
}

/// One dual-compare a cell's taint may reach, and on which side — the
/// building block of the pair analyzer's taint-reach summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Touch {
    /// Address of the comparing instruction (`stB`, `jmpB`, or `bzB`).
    pub at: i64,
    /// Which side of the compare the taint feeds.
    pub side: Side,
}

/// How a may-taint run defeats (or escapes) the fault detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VulnKind {
    /// Both sides of a `stB` compare tainted: a matched wrong pair commits.
    StoreCompare,
    /// `d` and the `jmpB` operand both tainted: a wrong transfer commits.
    JmpCompare,
    /// `d` and a `bzB` operand both tainted: wrong direction or target.
    BzCompare,
    /// A tainted push where the static queue depth is unknown or
    /// conflict-pessimized: the analysis cannot place the taint.
    QueuePush,
    /// Taint survives into an unresolvable blue transfer target.
    UnresolvedTarget,
}

/// Where and how the propagated taints defeat the detection, with lane
/// provenance (`bit i` = taint seeded in lane `i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Vuln {
    /// Address of the defeated compare (or escaping instruction).
    pub at: i64,
    /// What was defeated.
    pub kind: VulnKind,
    /// Lanes contributing the green/compare-state side (for an escape,
    /// the lanes whose taint escapes).
    pub green: u64,
    /// Lanes contributing the blue/register side (none for an escape).
    pub blue: u64,
}

/// Build the CFG and liveness, then classify every reachable cell.
#[must_use]
pub fn analyze_zaps(program: &Program) -> ZapReport {
    let cfg = Cfg::build(program);
    let Some(live) = liveness(program, &cfg) else {
        return too_wide(program);
    };
    analyze_zaps_with(program, &cfg, &live)
}

/// The bailed report of a program wider than the taint mask.
pub(crate) fn too_wide(program: &Program) -> ZapReport {
    ZapReport {
        bailed: Some(format!(
            "{} GPRs exceed the {MAX_GPRS}-register taint mask",
            program.num_gprs
        )),
        ..ZapReport::default()
    }
}

/// Per-address queue pessimism: `true` exactly at addresses reachable from
/// a depth-conflicting join (including the join itself). Only there does
/// the static queue indexing possibly disagree with some dynamic path;
/// blocks upstream of (or unrelated to) every conflict keep precise
/// queue-slot placement.
pub(crate) fn queue_pessimism(cfg: &Cfg) -> Vec<bool> {
    let mut p = vec![false; cfg.n];
    let mut work = Vec::new();
    for c in &cfg.depth_conflicts {
        if !p[ix(c.addr)] {
            p[ix(c.addr)] = true;
            work.push(c.addr);
        }
    }
    while let Some(a) = work.pop() {
        for &s in &cfg.succs[ix(a)] {
            if !p[ix(s)] {
                p[ix(s)] = true;
                work.push(s);
            }
        }
    }
    p
}

/// Classify every reachable cell against a prebuilt CFG and liveness.
#[must_use]
pub fn analyze_zaps_with(program: &Program, cfg: &Cfg, live: &Liveness) -> ZapReport {
    if program.num_gprs > MAX_GPRS {
        return too_wide(program);
    }
    let cx = Ctx {
        program,
        cfg,
        pessimistic: &queue_pessimism(cfg),
    };
    let reaches_check = reaches_check(program, cfg);
    let gprs = usize::from(program.num_gprs);
    // Row `ix(a)` holds the classes of the GPR cells at `a`; `qrow[ix(a)]`
    // is where the queue cells at `a` start in `qclass`.
    let mut gclass = vec![ZapClass::Benign; cfg.n * gprs];
    let mut qrow = vec![0; cfg.n + 1];
    for a in 1..=cfg.n as i64 {
        let depth = if cfg.reachable[ix(a)] {
            cfg.depth_in[ix(a)].unwrap_or(0)
        } else {
            0
        };
        qrow[ix(a) + 1] = qrow[ix(a)] + depth;
    }
    let mut qclass = vec![ZapClass::Vulnerable; qrow[cfg.n]];
    // High to low: the fixpoint cells, and the chained registers of each
    // row, which take their class from row `a + 1` once it is known.
    let mut chains = vec![RegMask::EMPTY; cfg.n];
    let mut fixpoint = Vec::new();
    let mut chained = 0u64;
    for a in (1..=cfg.n as i64).rev() {
        if !cfg.reachable[ix(a)] {
            continue;
        }
        // Dead registers are never read again (Benign: at worst a
        // dissimilar, non-output final state); `a + 1` is reachable from
        // `a` wherever a live register chains.
        let live_in = live.live_in[ix(a)];
        chains[ix(a)] = pass_through(program, a) & live_in;
        for g in 0..program.num_gprs {
            if chains[ix(a)].test(g) {
                chained += 1;
            } else if live_in.test(g) {
                fixpoint.push(Seed::Gpr(a, g));
            }
        }
        // Slots past the 64-bit queue mask stay Vulnerable.
        let depth = qrow[ix(a) + 1] - qrow[ix(a)];
        fixpoint.extend((0..depth.min(64)).map(|slot| Seed::Slot(a, slot)));
    }
    let mut batch = Batch::new(&cx, &fixpoint);
    for cells in fixpoint.chunks(LANES) {
        for (cell, class) in cells.iter().zip(batch.classify(&cx, cells)) {
            match *cell {
                Seed::Gpr(a, g) => gclass[ix(a) * gprs + usize::from(g)] = class,
                Seed::Slot(a, slot) => qclass[qrow[ix(a)] + slot] = class,
                Seed::D(_) => unreachable!("d cells are classified by reachability"),
            }
        }
    }
    for a in (1..cfg.n as i64).rev() {
        for g in 0..program.num_gprs {
            if chains[ix(a)].test(g) {
                gclass[ix(a) * gprs + usize::from(g)] = gclass[ix(a + 1) * gprs + usize::from(g)];
            }
        }
    }
    ZAP_RUNS.add(fixpoint.len() as u64);
    ZAP_CHAINED.add(chained);
    ZAP_BATCHES.add(fixpoint.len().div_ceil(LANES) as u64);
    ZapReport {
        gprs: program.num_gprs,
        reachable: cfg.reachable.clone(),
        gclass,
        qrow,
        qclass,
        reaches_check,
        bailed: None,
    }
}

/// The registers whose cell at `a` takes the class of the same register at
/// `a + 1` (pass-through chaining, module docs): those the instruction
/// neither reads nor writes, when its only successor is the fall-through.
fn pass_through(program: &Program, a: i64) -> RegMask {
    let instr = &program.instrs[ix(a)];
    let falls_only = !matches!(
        instr,
        Instr::Halt
            | Instr::Jmp {
                color: Color::Blue,
                ..
            }
            | Instr::Bz {
                color: Color::Blue,
                ..
            }
    );
    if falls_only && program.is_code_addr(a + 1) {
        !(uses_mask(instr) | def_mask(instr))
    } else {
        RegMask::EMPTY
    }
}

/// Per-address: can execution starting here reach any `jmp`/`bz` (all of
/// which guard `d`)?
fn reaches_check(program: &Program, cfg: &Cfg) -> Vec<bool> {
    let mut rc: Vec<bool> = program
        .instrs
        .iter()
        .map(|i| matches!(i, Instr::Jmp { .. } | Instr::Bz { .. }))
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for a in (1..=cfg.n as i64).rev() {
            if !rc[ix(a)] && cfg.succs[ix(a)].iter().any(|&s| rc[ix(s)]) {
                rc[ix(a)] = true;
                changed = true;
            }
        }
    }
    rc
}

/// Shared immutable inputs of a taint run.
pub(crate) struct Ctx<'a> {
    /// The program under analysis.
    pub program: &'a Program,
    /// Its control-flow graph.
    pub cfg: &'a Cfg,
    /// Per-address queue pessimism (see [`queue_pessimism`]).
    pub pessimistic: &'a [bool],
}

/// A k=1 cell as its batch lane is seeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Seed {
    /// `(addr, register)`.
    Gpr(i64, u16),
    /// `(addr, queue slot from the back)`, the slot below 64.
    Slot(i64, usize),
    /// The `d` latch at `addr`: classified without a fixpoint, but
    /// summarized with one for the pair analyzer.
    D(i64),
}

impl Seed {
    /// The seed of a data cell, when it has one (queue slots below 64).
    pub(crate) fn of(cell: Cell) -> Option<Seed> {
        match cell {
            Cell::Gpr { addr, reg } => Some(Seed::Gpr(addr, reg)),
            Cell::Queue { addr, slot } => (slot < 64).then_some(Seed::Slot(addr, slot)),
            Cell::D { addr } => Some(Seed::D(addr)),
            Cell::Pc { .. } => None,
        }
    }

    pub(crate) fn addr(self) -> i64 {
        match self {
            Seed::Gpr(a, _) | Seed::Slot(a, _) | Seed::D(a) => a,
        }
    }

    /// The seed as one lane's taint.
    pub(crate) fn taint(self) -> Taint {
        match self {
            Seed::Gpr(_, g) => Taint {
                regs: RegMask::bit(g),
                ..Taint::default()
            },
            Seed::Slot(_, slot) => Taint {
                queue: 1 << slot,
                ..Taint::default()
            },
            Seed::D(_) => Taint {
                d: true,
                ..Taint::default()
            },
        }
    }
}

/// The reach of one summarizing batch: its final bit-sliced state at every
/// address its lanes reached, copied off the batch before the rows clear.
/// Lane `i`'s reach is the entry-state may-taint of the `i`-th cell
/// wherever its corruption survives.
pub(crate) struct Rows {
    /// Register words per row.
    gprs: usize,
    /// Words per row.
    width: usize,
    /// `at[ix(a)]`: the index of address `a`'s row, or `u32::MAX` where
    /// no lane reached it.
    at: Vec<u32>,
    /// The lanes each row holds any taint of.
    lanes: Vec<u64>,
    /// The rows, `width` words each, by ascending address.
    words: Vec<u64>,
}

impl Rows {
    /// Lane `lane`'s may-taint at entry to code address `a`, when its
    /// corruption survives there.
    pub(crate) fn taint(&self, lane: usize, a: i64) -> Option<Taint> {
        // `u32::MAX` is past every row.
        let r = self.at[ix(a)] as usize;
        if self.lanes.get(r)? >> lane & 1 == 0 {
            return None;
        }
        let row = &self.words[r * self.width..][..self.width];
        let (regs, rest) = row.split_at(self.gprs);
        let mut t = Taint::default();
        for (g, &w) in (0..).zip(regs) {
            if w >> lane & 1 != 0 {
                t.regs.set(g);
            }
        }
        t.d = rest[0] >> lane & 1 != 0;
        for (slot, &w) in rest[1..].iter().enumerate() {
            t.queue |= (w >> lane & 1) << slot;
        }
        Some(t)
    }

    /// Every lane's reach as sorted [`reach_bits`], lanes `0..lanes`.
    #[cfg(test)]
    pub(crate) fn bits(&self, lanes: usize) -> Vec<Vec<u32>> {
        let mut bits = vec![Vec::new(); lanes];
        for (i, &r) in self.at.iter().enumerate() {
            if r == u32::MAX {
                continue;
            }
            let row = &self.words[r as usize * self.width..][..self.width];
            for (word, &w) in row.iter().enumerate() {
                let (kind, index) = if word < self.gprs {
                    (0, word)
                } else if word == self.gprs {
                    (1, 0)
                } else {
                    (2, word - self.gprs - 1)
                };
                let mut m = w;
                while m != 0 {
                    bits[m.trailing_zeros() as usize].push(bit(i as i64 + 1, kind, index));
                    m &= m - 1;
                }
            }
        }
        bits
    }
}

/// One tainted location of a reach: `addr << 10 | kind << 8 | index`, kind
/// 0 for a register, 1 for `d`, 2 for a queue slot.
#[cfg(test)]
fn bit(addr: i64, kind: u32, index: usize) -> u32 {
    (addr as u32) << 10 | kind << 8 | index as u32
}

/// A reach's tainted locations in the order a batch row holds them: by
/// address, then registers, `d` and queue slots, each ascending.
#[cfg(test)]
pub(crate) fn reach_bits(reach: &[(i64, Taint)]) -> Vec<u32> {
    let mut bits = Vec::new();
    for &(a, t) in reach {
        bits.extend(t.regs.iter().map(|g| bit(a, 0, g.into())));
        if t.d {
            bits.push(bit(a, 1, 0));
        }
        let mut m = t.queue;
        while m != 0 {
            bits.push(bit(a, 2, m.trailing_zeros() as usize));
            m &= m - 1;
        }
    }
    bits
}

/// A reusable batched fixpoint: the bit-sliced state of up to 64 k=1 cells
/// at every address, `width` words an address — one lane mask per
/// register a run can taint, then `d`, then one per queue slot up to the
/// deepest static depth. A program has at most [`MAX_GPRS`] registers and
/// 64 tracked slots, so a batch holds at most `n × 193` words: under
/// 6.3 MB for a validated program, whose code ends below `DATA_BASE`
/// (4,096).
pub(crate) struct Batch {
    /// Register words per address.
    gprs: usize,
    /// Words per address.
    width: usize,
    /// `n × width` lane masks, all zero between batches.
    state: Vec<u64>,
    /// The state being transferred.
    cur: Vec<u64>,
    /// The worklist: a bitset over address indices, visited lowest first.
    listed: Vec<u64>,
    /// No word of `listed` below this one has a bit set.
    low: usize,
    /// Indices of addresses given state in this batch (repeats allowed),
    /// cleared after it.
    dirty: Vec<usize>,
}

impl Batch {
    /// A batch for `cx`'s program whose runs seed only cells like `cells`:
    /// none at a register past theirs.
    pub(crate) fn new(cx: &Ctx, cells: &[Seed]) -> Batch {
        // A register is tainted only by a seed or as an `op`/`ld`
        // destination; every other register reads clean.
        let seeded = cells.iter().filter_map(|&c| match c {
            Seed::Gpr(_, g) => Some(g),
            Seed::Slot(..) | Seed::D(_) => None,
        });
        let defined = cx.program.instrs.iter().filter_map(Instr::def).map(|g| g.0);
        let gprs = seeded
            .chain(defined)
            .filter(|&g| g < MAX_GPRS)
            .map(|g| g + 1)
            .max()
            .unwrap_or(0);
        // Pushes land at the entry depth of a `stG` (below 64) and seeds
        // below the entry depth of their address, so no slot lies past the
        // deepest static depth.
        let slots = cx
            .cfg
            .depth_in
            .iter()
            .flatten()
            .max()
            .map_or(0, |&d| d.min(63) + 1);
        let width = usize::from(gprs) + 1 + slots;
        let n = cx.cfg.n;
        Batch {
            gprs: usize::from(gprs),
            width,
            state: vec![0; n * width],
            cur: vec![0; width],
            listed: vec![0; n.div_ceil(64)],
            low: 0,
            dirty: Vec::new(),
        }
    }

    /// Run one fixpoint with lane `i` seeded by `cells[i]` (at most 64)
    /// and return each lane's class.
    pub(crate) fn classify(&mut self, cx: &Ctx, cells: &[Seed]) -> impl Iterator<Item = ZapClass> {
        let mut obs = PerLane::default();
        self.run(cx, cells, &mut obs);
        self.clear();
        (0..cells.len()).map(move |lane| {
            if obs.vuln >> lane & 1 != 0 {
                ZapClass::Vulnerable
            } else if obs.checked >> lane & 1 != 0 {
                ZapClass::Detected
            } else {
                ZapClass::Benign
            }
        })
    }

    /// Summarize up to 64 cells whose own fixpoints never defeat a compare
    /// (k=1 Detected or Benign cells), lane `i` seeded by `cells[i]`: each
    /// lane's touches, sorted, from one lane mask per (compare, side), and
    /// every lane's reach, read off the rows before they clear.
    pub(crate) fn summarize(&mut self, cx: &Ctx, cells: &[Seed]) -> (Vec<Box<[Touch]>>, Rows) {
        let n = cx.cfg.n;
        let mut obs = PerLane {
            touched: vec![[0; 2]; n],
            ..PerLane::default()
        };
        self.run(cx, cells, &mut obs);
        assert_eq!(obs.vuln, 0, "summarized cells never defeat a compare");
        // Every compare touched, ascending, so each lane's touches come
        // out sorted.
        let hits: Vec<(i64, [u64; 2])> = (1..)
            .zip(obs.touched)
            .filter(|&(_, lanes)| lanes != [0; 2])
            .collect();
        let touches = (0..cells.len())
            .map(|lane| {
                let of_lane = |&(at, [green, blue]): &(i64, [u64; 2])| {
                    [(Side::Green, green), (Side::Blue, blue)]
                        .into_iter()
                        .filter(move |&(_, lanes)| lanes >> lane & 1 != 0)
                        .map(move |(side, _)| Touch { at, side })
                };
                // Exact-size, as the summaries keep them.
                let mut touches = Vec::with_capacity(hits.iter().flat_map(of_lane).count());
                touches.extend(hits.iter().flat_map(of_lane));
                touches.into_boxed_slice()
            })
            .collect();
        self.dirty.sort_unstable();
        self.dirty.dedup();
        let width = self.width;
        let mut rows = Rows {
            gprs: self.gprs,
            width,
            at: vec![u32::MAX; n],
            lanes: Vec::with_capacity(self.dirty.len()),
            words: Vec::with_capacity(self.dirty.len() * width),
        };
        for &i in &self.dirty {
            let row = &self.state[i * width..][..width];
            rows.at[i] = rows.lanes.len() as u32;
            rows.lanes.push(row.iter().fold(0, |m, &w| m | w));
            rows.words.extend_from_slice(row);
        }
        self.clear();
        (touches, rows)
    }

    /// Run one fixpoint with lane `i` seeded by `cells[i]` (at most 64),
    /// `obs` seeing its events. The rows keep the final state until
    /// [`Batch::clear`].
    fn run(&mut self, cx: &Ctx, cells: &[Seed], obs: &mut PerLane) {
        assert!(cells.len() <= LANES, "one lane per cell");
        let (gprs, width) = (self.gprs, self.width);
        for (lane, &cell) in cells.iter().enumerate() {
            let word = match cell {
                Seed::Gpr(_, g) => {
                    assert!(usize::from(g) < gprs, "a register the batch was sized for");
                    usize::from(g)
                }
                Seed::Slot(_, slot) => gprs + 1 + slot,
                Seed::D(_) => gprs,
            };
            self.state[ix(cell.addr()) * width + word] |= 1 << lane;
            self.list(ix(cell.addr()));
        }
        let mut cur = std::mem::take(&mut self.cur);
        while let Some(i) = self.next() {
            // A defeated lane's class is settled: stop propagating it.
            let running = !obs.vuln;
            for (s, &w) in cur.iter_mut().zip(&self.state[i * width..][..width]) {
                *s = w & running;
            }
            let mut t = Sliced {
                words: &mut cur,
                gprs,
            };
            transfer(cx, i as i64 + 1, &mut t, obs, |s, out: &Sliced| {
                let mut grew = false;
                for (d, &w) in self.state[ix(s) * width..][..width]
                    .iter_mut()
                    .zip(out.words.iter())
                {
                    grew |= w & !*d != 0;
                    *d |= w;
                }
                if grew {
                    self.list(ix(s));
                }
            });
        }
        self.cur = cur;
    }

    /// Zero every row the last run gave state.
    fn clear(&mut self) {
        for i in self.dirty.drain(..) {
            self.state[i * self.width..][..self.width].fill(0);
        }
    }

    /// Put address index `i` on the worklist.
    fn list(&mut self, i: usize) {
        let bit = 1u64 << (i % 64);
        if self.listed[i / 64] & bit == 0 {
            self.listed[i / 64] |= bit;
            self.low = self.low.min(i / 64);
            self.dirty.push(i);
        }
    }

    /// Take the lowest listed address index. Lowest first visits a loop
    /// body again only once its head has gathered every lane's taint.
    fn next(&mut self) -> Option<usize> {
        while let Some(w) = self.listed.get_mut(self.low) {
            if *w != 0 {
                let bit = w.trailing_zeros() as usize;
                *w &= *w - 1;
                return Some(self.low * 64 + bit);
            }
            self.low += 1;
        }
        None
    }
}

/// Propagate `L` independently-seeded taints in lockstep to a fixpoint,
/// LIFO, stopping when `obs` says so. Returns the may-taint at *entry* to
/// each address, `None` where no taint arrived (partial if the run stopped
/// early).
pub(crate) fn run_lanes<const L: usize>(
    cx: &Ctx,
    at: i64,
    seed: [Taint; L],
    obs: &mut impl Observe,
) -> Vec<Option<[Taint; L]>> {
    let mut state: Vec<Option<[Taint; L]>> = vec![None; cx.cfg.n];
    state[ix(at)] = Some(seed);
    let mut work = vec![at];
    while let Some(a) = work.pop() {
        let mut t = state[ix(a)].expect("worklist entries have state");
        transfer(cx, a, &mut t, obs, |s, ts: &[Taint; L]| {
            if ts.tainted() == 0 {
                return;
            }
            let merged = match state[ix(s)] {
                None => *ts,
                Some(mut m) => {
                    for (m, &t) in m.iter_mut().zip(ts) {
                        *m = m.join(t);
                    }
                    m
                }
            };
            if state[ix(s)] != Some(merged) {
                state[ix(s)] = Some(merged);
                work.push(s);
            }
        });
        if obs.stopped() {
            break;
        }
    }
    state
}

/// The transfer's view of one address's taint over a set of lanes; lane
/// sets are `u64` masks (bit `i` = lane `i`).
pub(crate) trait Lanes {
    /// Lanes in which GPR `g` is tainted.
    fn reg(&self, g: Gpr) -> u64;
    /// Taint `g` in exactly `lanes`.
    fn set_reg(&mut self, g: Gpr, lanes: u64);
    /// Lanes in which `d` is tainted.
    fn d(&self) -> u64;
    /// Taint `d` in exactly `lanes`.
    fn set_d(&mut self, lanes: u64);
    /// Lanes with any tainted queue slot.
    fn queued(&self) -> u64;
    /// Lanes whose oldest slot (the next `stB` pop) is tainted.
    fn oldest(&self) -> u64;
    /// Taint slot `slot` (from the back) in `lanes`.
    fn push(&mut self, slot: usize, lanes: u64);
    /// Drop the oldest slot; the others move one toward the back.
    fn pop(&mut self);
    /// Lanes with any taint at all.
    fn tainted(&self) -> u64;
}

/// One [`Taint`] per lane: the few-lane runs of the pair analyzer.
impl<const L: usize> Lanes for [Taint; L] {
    fn reg(&self, g: Gpr) -> u64 {
        lanes(self, |l| l.regs.test(g.0))
    }

    fn set_reg(&mut self, g: Gpr, lanes: u64) {
        for (i, l) in self.iter_mut().enumerate() {
            if lanes >> i & 1 != 0 {
                l.regs.set(g.0);
            } else {
                l.regs.clear(g.0);
            }
        }
    }

    fn d(&self) -> u64 {
        lanes(self, |l| l.d)
    }

    fn set_d(&mut self, lanes: u64) {
        for (i, l) in self.iter_mut().enumerate() {
            l.d = lanes >> i & 1 != 0;
        }
    }

    fn queued(&self) -> u64 {
        lanes(self, |l| l.queue != 0)
    }

    fn oldest(&self) -> u64 {
        lanes(self, |l| l.queue & 1 != 0)
    }

    fn push(&mut self, slot: usize, lanes: u64) {
        for (i, l) in self.iter_mut().enumerate() {
            if lanes >> i & 1 != 0 {
                l.queue |= 1u64 << slot;
            }
        }
    }

    fn pop(&mut self) {
        for l in self.iter_mut() {
            l.queue >>= 1;
        }
    }

    fn tainted(&self) -> u64 {
        lanes(self, |l| l.any())
    }
}

/// Bitmask of lanes satisfying `f`.
fn lanes<const L: usize>(t: &[Taint; L], f: impl Fn(&Taint) -> bool) -> u64 {
    let mut m = 0;
    for (i, l) in t.iter().enumerate() {
        if f(l) {
            m |= 1 << i;
        }
    }
    m
}

/// One address of a [`Batch`]: register words, then `d`, then slots.
struct Sliced<'a> {
    words: &'a mut [u64],
    gprs: usize,
}

impl Sliced<'_> {
    fn slots(&self) -> &[u64] {
        &self.words[self.gprs + 1..]
    }
}

impl Lanes for Sliced<'_> {
    fn reg(&self, g: Gpr) -> u64 {
        // Registers the program never names (only those past MAX_GPRS)
        // are never tainted, as in a `RegMask`.
        self.words[..self.gprs]
            .get(usize::from(g.0))
            .copied()
            .unwrap_or(0)
    }

    fn set_reg(&mut self, g: Gpr, lanes: u64) {
        if let Some(w) = self.words[..self.gprs].get_mut(usize::from(g.0)) {
            *w = lanes;
        }
    }

    fn d(&self) -> u64 {
        self.words[self.gprs]
    }

    fn set_d(&mut self, lanes: u64) {
        self.words[self.gprs] = lanes;
    }

    fn queued(&self) -> u64 {
        self.slots().iter().fold(0, |m, &w| m | w)
    }

    fn oldest(&self) -> u64 {
        self.slots().first().copied().unwrap_or(0)
    }

    fn push(&mut self, slot: usize, lanes: u64) {
        self.words[self.gprs + 1 + slot] |= lanes;
    }

    fn pop(&mut self) {
        let slots = &mut self.words[self.gprs + 1..];
        if let Some(last) = slots.len().checked_sub(1) {
            slots.copy_within(1.., 0);
            slots[last] = 0;
        }
    }

    fn tainted(&self) -> u64 {
        self.words.iter().fold(0, |m, &w| m | w)
    }
}

/// What a run does with the transfer's compare events.
pub(crate) trait Observe {
    /// `v`'s lanes meet both sides of a compare (or escape); returns the
    /// lanes this defeats. A defeated lane's run is over: a union run
    /// stops, a batch drops the lane at its next step.
    fn defeat(&mut self, v: Vuln) -> u64;
    /// The taint of `lanes` reaches `side` of the compare at `at` and the
    /// compare holds: a dynamic instance may fault there.
    fn touch(&mut self, at: i64, side: Side, lanes: u64);
    /// A `d` guard reads a tainted `d` in `lanes`: it faults there.
    fn guard(&mut self, lanes: u64);
    /// Whether the run is over.
    fn stopped(&self) -> bool {
        false
    }
}

/// One dynamic state carrying every lane's corruption at once: a compare
/// is defeated when the lane union taints both of its sides, and the
/// first defeat ends the run. The pair analyzer's compositions run this
/// way.
#[derive(Default)]
pub(crate) struct Union {
    /// The first defeat.
    pub vuln: Option<Vuln>,
}

impl Observe for Union {
    fn defeat(&mut self, v: Vuln) -> u64 {
        self.vuln.get_or_insert(v);
        u64::MAX
    }

    fn touch(&mut self, _: i64, _: Side, _: u64) {}

    fn guard(&mut self, _: u64) {}

    fn stopped(&self) -> bool {
        self.vuln.is_some()
    }
}

/// Independent k=1 cells, one per lane: a lane defeats a compare only by
/// tainting both of its sides itself, and runs on until it does.
#[derive(Default)]
pub(crate) struct PerLane {
    /// Lanes that defeated the detection.
    pub vuln: u64,
    /// Lanes whose taint met a compare or a `d` guard.
    pub checked: u64,
    /// When recording (one entry per address index, else empty): the
    /// lanes touching the green and the blue side of each compare.
    pub touched: Vec<[u64; 2]>,
}

impl Observe for PerLane {
    fn defeat(&mut self, v: Vuln) -> u64 {
        let lanes = match v.kind {
            VulnKind::StoreCompare | VulnKind::JmpCompare | VulnKind::BzCompare => v.green & v.blue,
            VulnKind::QueuePush | VulnKind::UnresolvedTarget => v.green,
        };
        self.vuln |= lanes;
        lanes
    }

    fn touch(&mut self, at: i64, side: Side, lanes: u64) {
        self.checked |= lanes;
        if let Some(t) = self.touched.get_mut(ix(at)) {
            t[match side {
                Side::Green => 0,
                Side::Blue => 1,
            }] |= lanes;
        }
    }

    fn guard(&mut self, lanes: u64) {
        self.checked |= lanes;
    }
}

/// One instruction's taint transfer over a set of lanes. Dataflow is
/// linear in the taint, so lane states update independently; at each
/// compare `obs` decides which lanes the two sides defeat. Pass edges
/// sanitize compared values (the compare passing proves they held golden
/// values). Every successor's state goes to `edge`, the fall-through
/// first.
pub(crate) fn transfer<S: Lanes>(
    cx: &Ctx,
    a: i64,
    t: &mut S,
    obs: &mut impl Observe,
    mut edge: impl FnMut(i64, &S),
) {
    let program = cx.program;
    let fall = program.is_code_addr(a + 1);
    match program.instrs[ix(a)] {
        Instr::Op { rd, rs, src2, .. } => {
            let src2 = match src2 {
                OpSrc::Reg(rt) => t.reg(rt),
                OpSrc::Imm(_) => 0,
            };
            t.set_reg(rd, t.reg(rs) | src2);
        }
        Instr::Mov { rd, .. } => t.set_reg(rd, 0),
        Instr::Ld {
            color: Color::Green,
            rd,
            rs,
        } => {
            // ldG snoops the queue by address: any tainted slot may alias.
            t.set_reg(rd, t.reg(rs) | t.queued());
        }
        Instr::Ld {
            color: Color::Blue,
            rd,
            rs,
        } => t.set_reg(rd, t.reg(rs)),
        Instr::St {
            color: Color::Green,
            rd,
            rs,
        } => {
            let pushed = t.reg(rd) | t.reg(rs);
            if pushed != 0 {
                // Place each lane's tainted pair at the front of the queue,
                // i.e. at bit `depth` counting from the back.
                match cx.cfg.depth_in[ix(a)] {
                    Some(depth) if depth < 64 && !cx.pessimistic[ix(a)] => t.push(depth, pushed),
                    _ => {
                        obs.defeat(Vuln {
                            at: a,
                            kind: VulnKind::QueuePush,
                            green: pushed,
                            blue: 0,
                        });
                    }
                }
            }
        }
        Instr::St {
            color: Color::Blue,
            rd,
            rs,
        } => {
            // Queue entry and compare registers both corrupt: the compare
            // can pass on a non-golden pair — SDC.
            let regs = t.reg(rd) | t.reg(rs);
            compare(a, VulnKind::StoreCompare, t.oldest(), regs, obs);
            t.pop();
            t.set_reg(rd, 0);
            t.set_reg(rs, 0);
        }
        Instr::Jmp {
            color: Color::Green,
            rd,
        } => {
            // jmpG requires d = 0; a corrupt d faults here.
            if t.d() != 0 {
                obs.guard(t.d());
            }
            t.set_d(t.reg(rd));
        }
        Instr::Jmp {
            color: Color::Blue,
            rd,
        } => {
            compare(a, VulnKind::JmpCompare, t.d(), t.reg(rd), obs);
            t.set_d(0);
            t.set_reg(rd, 0);
            goto_blue(cx, a, t, obs, &mut edge);
            return;
        }
        Instr::Bz {
            color: Color::Green,
            rz,
            rd,
        } => {
            // Both arms of bzG require d = 0.
            if t.d() != 0 {
                obs.guard(t.d());
            }
            // A corrupt rz flips whether d latches; a corrupt rd latches a
            // wrong target. Either way d may now differ from golden.
            t.set_d(t.reg(rz) | t.reg(rd));
        }
        Instr::Bz {
            color: Color::Blue,
            rz,
            rd,
        } => {
            // d plus a blue operand corrupt: a wrong-target commit or a
            // silent wrong-direction fall-through becomes possible.
            let regs = t.reg(rz) | t.reg(rd);
            compare(a, VulnKind::BzCompare, t.d(), regs, obs);
            // One-sided taint cannot flip the branch direction (the d
            // guard catches it), so both CFG edges correspond to golden
            // directions. Untaken keeps operand taint; taken compares
            // rd = d and rz = 0, proving them golden.
            t.set_d(0);
            if fall {
                edge(a + 1, t);
            }
            t.set_reg(rz, 0);
            t.set_reg(rd, 0);
            goto_blue(cx, a, t, obs, &mut edge);
            return;
        }
        Instr::Halt => return,
    }
    if fall {
        edge(a + 1, t);
    }
}

/// The dual-compare at `a` between the `green` and `blue` lanes: the lanes
/// `obs` finds defeated touch nothing, the others the sides they taint.
fn compare(a: i64, kind: VulnKind, green: u64, blue: u64, obs: &mut impl Observe) {
    let mut defeated = 0;
    if green != 0 && blue != 0 {
        defeated = obs.defeat(Vuln {
            at: a,
            kind,
            green,
            blue,
        });
    }
    if green & !defeated != 0 {
        obs.touch(a, Side::Green, green & !defeated);
    }
    if blue & !defeated != 0 {
        obs.touch(a, Side::Blue, blue & !defeated);
    }
}

/// Follow a committed blue transfer; with an unresolved target the
/// analysis cannot continue — surviving taint means "anything may
/// happen", so its lanes are defeated.
fn goto_blue<S: Lanes>(
    cx: &Ctx,
    a: i64,
    t: &mut S,
    obs: &mut impl Observe,
    edge: &mut impl FnMut(i64, &S),
) {
    match cx.cfg.blue_target[ix(a)] {
        Some(tgt) if cx.program.is_code_addr(tgt) => edge(tgt, t),
        _ if t.tainted() != 0 => {
            obs.defeat(Vuln {
                at: a,
                kind: VulnKind::UnresolvedTarget,
                green: t.tainted(),
                blue: 0,
            });
        }
        _ => {}
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use talft_compiler::{compile, CompileOptions};
    use talft_isa::assemble;
    use talft_suite::{kernels, Scale};
    use talft_testutil::{wile, SplitMix64};

    /// The class of GPR cell `r{reg}@{addr}`, which the report covers.
    fn gpr(report: &ZapReport, addr: i64, reg: u16) -> ZapClass {
        report.class(Cell::Gpr { addr, reg }).expect("covered")
    }

    /// The class of queue cell `queue[{slot}]@{addr}`, which the report
    /// covers.
    fn slot(report: &ZapReport, addr: i64, slot: usize) -> ZapClass {
        report.class(Cell::Queue { addr, slot }).expect("covered")
    }

    /// The class of `cell` from its own fixpoint: one lane of per-lane
    /// `Taint`s on `run_lanes`'s LIFO worklist, the oracle for batching
    /// and chaining.
    fn one_seed(cx: &Ctx, cell: Seed) -> ZapClass {
        let mut obs = PerLane::default();
        run_lanes(cx, cell.addr(), [cell.taint()], &mut obs);
        if obs.vuln != 0 {
            ZapClass::Vulnerable
        } else if obs.checked != 0 {
            ZapClass::Detected
        } else {
            ZapClass::Benign
        }
    }

    /// Brute-force oracle for batching and pass-through chaining: every
    /// live GPR cell and every queue slot below 64 gets the class of its
    /// own fixpoint, in the report and in batches of 1, 7 and 64 cells
    /// with the cell in every lane position. Returns how many of those
    /// cells the report answered by chaining.
    fn assert_matches_own_runs(program: &Program, what: &str) -> usize {
        let cfg = Cfg::build(program);
        let live = liveness(program, &cfg).expect("fits the taint mask");
        let report = analyze_zaps_with(program, &cfg, &live);
        let pessimistic = queue_pessimism(&cfg);
        let cx = Ctx {
            program,
            cfg: &cfg,
            pessimistic: &pessimistic,
        };
        let mut cells = Vec::new();
        let mut chained = 0;
        for a in (1..=cfg.n as i64).filter(|&a| cfg.reachable[ix(a)]) {
            for g in 0..program.num_gprs {
                if live.live_in[ix(a)].test(g) {
                    cells.push(Seed::Gpr(a, g));
                    chained += usize::from(pass_through(program, a).test(g));
                }
            }
            let depth = cfg.depth_in[ix(a)].unwrap_or(0).min(64);
            cells.extend((0..depth).map(|slot| Seed::Slot(a, slot)));
        }
        let want: Vec<ZapClass> = cells.iter().map(|&c| one_seed(&cx, c)).collect();
        for (&cell, &class) in cells.iter().zip(&want) {
            let got = match cell {
                Seed::Gpr(addr, reg) => report.class(Cell::Gpr { addr, reg }),
                Seed::Slot(addr, slot) => report.class(Cell::Queue { addr, slot }),
                Seed::D(addr) => report.class(Cell::D { addr }),
            };
            assert_eq!(got, Some(class), "{what}: {cell:?} in the report");
        }
        let mut batch = Batch::new(&cx, &cells);
        for size in [1, 7, LANES] {
            // Lead with the last `shift` cells: cell `i` rides lane
            // `(i + shift) % size`.
            for shift in 0..size.min(cells.len()) {
                let order: Vec<usize> = (cells.len() - shift..cells.len())
                    .chain(0..cells.len())
                    .collect();
                for lanes in order.chunks(size) {
                    let seeds: Vec<Seed> = lanes.iter().map(|&i| cells[i]).collect();
                    for (lane, (&i, got)) in
                        lanes.iter().zip(batch.classify(&cx, &seeds)).enumerate()
                    {
                        assert_eq!(
                            got,
                            want[i],
                            "{what}: {:?} in lane {lane} of a batch of {}",
                            cells[i],
                            lanes.len()
                        );
                    }
                }
            }
        }
        chained
    }

    #[test]
    fn batched_and_chained_cells_match_their_own_fixpoints() {
        let mut chained = 0;
        for k in kernels(Scale::Tiny) {
            let c = compile(&k.source, &CompileOptions::default()).expect("kernels compile");
            for (side, p) in [
                ("protected", &c.protected.program),
                ("baseline", &c.baseline.program),
            ] {
                chained += assert_matches_own_runs(p, &format!("{} ({side})", k.name));
            }
        }
        assert!(chained > 0, "the suite exercises chaining");
        let mut rng = SplitMix64::new(0x0C4A_12E5);
        let mut fuzzed = 0;
        for round in 0..40 {
            let src = wile::render_program(&wile::random_stmts(&mut rng, 2, 1, 5));
            let Ok(c) = compile(&src, &CompileOptions::default()) else {
                continue;
            };
            fuzzed += 1;
            for (side, p) in [
                ("protected", &c.protected.program),
                ("baseline", &c.baseline.program),
            ] {
                assert_matches_own_runs(p, &format!("wile round {round} ({side})\n{src}"));
            }
        }
        assert!(fuzzed >= 30, "most fuzzed programs compile");
        for (what, src) in [
            ("wide", WIDE_STORE),
            ("depth conflict", DEPTH_CONFLICT),
            ("unresolved target", UNRESOLVED_TARGET),
        ] {
            let asm = assemble(src).expect("assembles");
            assert_matches_own_runs(&asm.program, what);
        }
    }

    /// The target of `jmpB` is loaded from memory: constant propagation
    /// cannot resolve it, so taint surviving the jump escapes.
    pub(crate) const UNRESOLVED_TARGET: &str = r#"
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r2, B 4096
  ldB r1, r2
  jmpB r1
"#;

    #[test]
    fn taint_escaping_an_unresolved_target_is_vulnerable() {
        let asm = assemble(UNRESOLVED_TARGET).expect("assembles");
        let cfg = Cfg::build(&asm.program);
        assert!(cfg.unknown_target[ix(3)], "jmpB's target is unresolved");
        let report = analyze_zaps(&asm.program);
        // r2 survives the jump; r1 is compared there and sanitized.
        assert_eq!(gpr(&report, 3, 2), ZapClass::Vulnerable);
        assert_eq!(gpr(&report, 3, 1), ZapClass::Detected);
        // Every register is live at the unresolved jump, so every other
        // register's cell escapes too.
        assert_eq!(gpr(&report, 3, 40), ZapClass::Vulnerable);
    }

    /// r9/r10 are set before a counted loop and stored after it; the loop
    /// body never touches them, so their chain runs through the loop head
    /// (entered both from `main` and by the back edge).
    const LOOP_PASS_THROUGH: &str = r#"
.gprs 12
.data
region out at 4096 len 8 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r9, G 42
  mov r10, B 42
  mov r1, G 5
  mov r2, B 5
loop:
  .pre { forall x:int, m:mem; r1: (G, int, x); r2: (B, int, x); mem: m; }
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
  mov r5, G 4096
  mov r6, B 4096
  stG r5, r9
  stB r6, r10
  halt
"#;

    #[test]
    fn chains_run_through_a_loop_head() {
        let asm = assemble(LOOP_PASS_THROUGH).expect("assembles");
        let p = &asm.program;
        let head = p.labels["loop"];
        let report = analyze_zaps(p);
        for g in [9, 10] {
            for a in [head - 1, head] {
                assert!(pass_through(p, a).test(g), "r{g}@{a} chains");
                assert_eq!(gpr(&report, a, g), ZapClass::Detected, "r{g}@{a}");
            }
        }
        assert!(assert_matches_own_runs(p, "loop fixture") > 0);
    }

    /// r9 is stored only on the taken side of a `bzB`; the fall-through
    /// halts with r9 dead. Chaining across the branch would copy the
    /// fall-through's Benign onto the branch's Detected cell.
    const BRANCH_STOP: &str = r#"
.gprs 12
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r9, G 7
  mov r10, B 7
  mov r1, G 0
  mov r2, B 0
  mov r3, G @store
  mov r4, B @store
  bzG r1, r3
  bzB r2, r4
  halt
store:
  .pre { forall m:mem; mem: m; }
  mov r5, G 4096
  mov r6, B 4096
  stG r5, r9
  stB r6, r10
  halt
"#;

    #[test]
    fn chains_stop_at_a_blue_branch() {
        let asm = assemble(BRANCH_STOP).expect("assembles");
        let p = &asm.program;
        let bz = p.labels["store"] - 2;
        assert!(matches!(
            p.instrs[ix(bz)],
            Instr::Bz {
                color: Color::Blue,
                ..
            }
        ));
        assert!(pass_through(p, bz).is_empty(), "the chain stops at bzB");
        assert!(pass_through(p, bz - 1).test(9), "bzG falls through");
        let report = analyze_zaps(p);
        assert_eq!(gpr(&report, bz, 9), ZapClass::Detected);
        assert_eq!(gpr(&report, bz + 1, 9), ZapClass::Benign);
        assert_eq!(gpr(&report, bz - 1, 9), ZapClass::Detected);
        assert_matches_own_runs(p, "branch fixture");
    }

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
    fn protected_store_has_no_vulnerable_cells() {
        let asm = assemble(STORE).expect("assembles");
        let report = analyze_zaps(&asm.program);
        assert!(report.bailed.is_none());
        let (d, b, v) = report.tally();
        assert_eq!(v, 0, "duplicated store is single-fault safe");
        assert!(d > 0 && b > 0);
        // r1 feeds the green store side: zapping it right after its def
        // is caught by the stB compare.
        assert_eq!(gpr(&report, 2, 1), ZapClass::Detected);
        // The queued pair between stG and stB is guarded by the pop.
        assert_eq!(slot(&report, 4, 0), ZapClass::Detected);
        // pc zaps always hit the fetch comparison.
        assert!(report.pc().all(|(_, c)| c == ZapClass::Detected));
    }

    #[test]
    fn unduplicated_store_is_vulnerable() {
        // One register feeds *both* sides of the store pair: a single zap
        // of r1 between stG and stB corrupts both compare sides at once.
        let src = r#"
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 5
  mov r2, G 4096
  stG r2, r1
  stB r2, r1
  halt
"#;
        let asm = assemble(src).expect("assembles");
        let report = analyze_zaps(&asm.program);
        // Zapping r1 *before* the stG poisons the queued pair and the
        // register the stB will compare against it — both sides corrupt.
        assert_eq!(
            gpr(&report, 3, 1),
            ZapClass::Vulnerable,
            "shared store operand defeats the dual compare"
        );
        // Zapping r1 *after* the push only corrupts the register side:
        // the compare against the golden queued pair catches it.
        assert_eq!(gpr(&report, 4, 1), ZapClass::Detected);
        let (_, _, v) = report.tally();
        assert!(v > 0);
    }

    /// A protected store through registers past the first mask word.
    const WIDE_STORE: &str = r#"
.gprs 128
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r100, G 5
  mov r2, G 4096
  stG r2, r100
  mov r101, B 5
  mov r4, B 4096
  stB r4, r101
  halt
"#;

    /// Programs wider than 64 GPRs get real per-cell verdicts from the
    /// two-word mask instead of a whole-report bail.
    #[test]
    fn wide_programs_are_classified_not_bailed() {
        let asm = assemble(WIDE_STORE).expect("assembles");
        assert!(asm.program.num_gprs > 64);
        let report = analyze_zaps(&asm.program);
        assert!(report.bailed.is_none(), "two-word mask covers 128 GPRs");
        let (d, b, v) = report.tally();
        assert_eq!(v, 0, "duplicated wide store is single-fault safe");
        assert!(d > 0 && b > 0);
        // The high-word register feeding the green store side is caught
        // by the stB compare, exactly like its low-word twin.
        assert_eq!(gpr(&report, 2, 100), ZapClass::Detected);
        // Past MAX_GPRS the analyzer still bails.
        let too_wide = WIDE_STORE.replace(".gprs 128", ".gprs 200");
        let asm = assemble(&too_wide).expect("assembles");
        assert!(analyze_zaps(&asm.program).bailed.is_some());
    }

    /// `main` is the protected STORE block; it falls through into `mid`,
    /// whose annotation claims queue depth 1 while propagation says 0 — a
    /// conflict at `mid`.
    pub(crate) const DEPTH_CONFLICT: &str = r#"
.data
region out at 4096 len 2 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 5
  mov r2, G 4096
  stG r2, r1
  mov r3, B 5
  mov r4, B 4096
  stB r4, r3
mid:
  .pre { forall m:mem; mem: m; queue: [(4097, 7)]; }
  mov r5, G 6
  mov r6, G 4097
  stG r6, r5
  mov r7, B 6
  mov r8, B 4097
  stB r8, r7
  halt
"#;

    /// A depth-conflicting join pessimizes only its downstream blocks;
    /// protected stores upstream keep precise verdicts.
    #[test]
    fn queue_pessimism_is_per_block() {
        // Under a whole-program bail every tainted push would turn
        // Vulnerable; only `mid` and its successors are pessimized.
        let asm = assemble(DEPTH_CONFLICT).expect("assembles");
        let cfg = Cfg::build(&asm.program);
        assert!(
            !cfg.depth_conflicts.is_empty(),
            "fixture must exhibit a depth conflict"
        );
        let p = queue_pessimism(&cfg);
        assert!(!p[ix(3)], "main's stG is upstream of every conflict");
        let report = analyze_zaps(&asm.program);
        assert!(report.bailed.is_none());
        // Upstream protected store: precise, exactly as in STORE.
        assert_eq!(gpr(&report, 2, 1), ZapClass::Detected);
        assert_eq!(slot(&report, 4, 0), ZapClass::Detected);
        // Downstream of the conflict, a tainted push cannot be placed:
        // the store-operand cell before mid's stG goes Vulnerable.
        let jst = 9; // mid's stG address
        assert!(p[ix(jst)], "mid block is pessimized");
        assert_eq!(gpr(&report, jst - 1, 5), ZapClass::Vulnerable);
    }

    /// The protected STORE block, then a block nothing reaches.
    const DEAD_TAIL: &str = r#"
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
dead:
  .pre { forall m:mem; mem: m; }
  mov r5, G 1
  halt
"#;

    /// `class` answers exactly for the cells the families list: not off
    /// the code, at an unreachable address, past the registers or past the
    /// static queue depth.
    #[test]
    fn class_is_none_off_the_report() {
        let asm = assemble(DEAD_TAIL).expect("assembles");
        let p = &asm.program;
        let n = p.instrs.len() as i64;
        let dead = p.labels["dead"];
        let report = analyze_zaps(p);
        assert!(report.bailed.is_none());
        for addr in [0, n + 1, dead, dead + 1, -1] {
            for cell in [
                Cell::Gpr { addr, reg: 1 },
                Cell::Queue { addr, slot: 0 },
                Cell::Pc { addr },
                Cell::D { addr },
            ] {
                assert_eq!(report.class(cell), None, "{cell}");
            }
        }
        let gprs = p.num_gprs;
        assert!(report
            .class(Cell::Gpr {
                addr: 1,
                reg: gprs - 1
            })
            .is_some());
        assert_eq!(report.class(Cell::Gpr { addr: 1, reg: gprs }), None);
        assert_eq!(
            report.class(Cell::Gpr {
                addr: 1,
                reg: u16::MAX
            }),
            None
        );
        // Depth 0 at entry, 1 between the stG and the stB.
        assert_eq!(report.class(Cell::Queue { addr: 1, slot: 0 }), None);
        assert_eq!(slot(&report, 4, 0), ZapClass::Detected);
        assert_eq!(report.class(Cell::Queue { addr: 4, slot: 1 }), None);
        // The families list the covered cells once each, ascending, and
        // every one answers `class`.
        let mut listed: Vec<(Cell, ZapClass)> = report
            .pc()
            .map(|(addr, c)| (Cell::Pc { addr }, c))
            .chain(report.dst().map(|(addr, c)| (Cell::D { addr }, c)))
            .chain(
                report
                    .gpr()
                    .map(|((addr, reg), c)| (Cell::Gpr { addr, reg }, c)),
            )
            .chain(
                report
                    .queue()
                    .map(|((addr, slot), c)| (Cell::Queue { addr, slot }, c)),
            )
            .collect();
        assert_eq!(listed.len(), report.cells());
        let (d, b, v) = report.tally();
        assert_eq!(d + b + v, report.cells());
        for &(cell, c) in &listed {
            assert_eq!(report.class(cell), Some(c), "{cell}");
            assert!(cell.addr() < dead, "{cell} is reachable");
        }
        let families = listed.clone();
        listed.sort_by_key(|&(cell, _)| match cell {
            Cell::Pc { addr } => (0, addr, 0),
            Cell::D { addr } => (1, addr, 0),
            Cell::Gpr { addr, reg } => (2, addr, usize::from(reg)),
            Cell::Queue { addr, slot } => (3, addr, slot),
        });
        assert_eq!(families, listed, "each family ascending");
    }

    /// The hand-written `Debug` prints what the derived one of the old
    /// map-per-family report printed, plain and pretty.
    #[test]
    fn debug_matches_the_map_report() {
        use std::collections::BTreeMap;
        #[derive(Debug)]
        #[allow(dead_code)]
        struct ZapReport {
            gpr: BTreeMap<(i64, u16), ZapClass>,
            queue: BTreeMap<(i64, usize), ZapClass>,
            pc: BTreeMap<i64, ZapClass>,
            dst: BTreeMap<i64, ZapClass>,
            bailed: Option<String>,
        }
        let wide = WIDE_STORE.replace(".gprs 128", ".gprs 200");
        for src in [DEAD_TAIL, STORE, &wide] {
            let asm = assemble(src).expect("assembles");
            let report = analyze_zaps(&asm.program);
            let maps = ZapReport {
                gpr: report.gpr().collect(),
                queue: report.queue().collect(),
                pc: report.pc().collect(),
                dst: report.dst().collect(),
                bailed: report.bailed.clone(),
            };
            assert_eq!(format!("{report:?}"), format!("{maps:?}"));
            assert_eq!(format!("{report:#?}"), format!("{maps:#?}"));
        }
    }

    /// A refused program reports nothing: no cell, a zero tally, no
    /// coverage, and the old report's text.
    #[test]
    fn bailed_reports_cover_no_cell() {
        let too_wide = WIDE_STORE.replace(".gprs 128", ".gprs 200");
        let asm = assemble(&too_wide).expect("assembles");
        let report = analyze_zaps(&asm.program);
        assert_eq!(
            format!("{report:?}"),
            "ZapReport { gpr: {}, queue: {}, pc: {}, dst: {}, \
             bailed: Some(\"200 GPRs exceed the 128-register taint mask\") }"
        );
        assert_eq!(report.tally(), (0, 0, 0));
        assert_eq!(report.cells(), 0);
        assert_eq!(report.coverage(), None);
        for cell in [
            Cell::Gpr { addr: 1, reg: 1 },
            Cell::Queue { addr: 4, slot: 0 },
            Cell::Pc { addr: 1 },
            Cell::D { addr: 1 },
        ] {
            assert_eq!(report.class(cell), None, "{cell}");
        }
    }
}
