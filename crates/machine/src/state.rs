//! Machine states `S = (R, C, M, Q, ir) | fault` (paper Figure 1) and the
//! step-level bookkeeping around them.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use talft_isa::{CVal, Color, Gpr, Instr, Program, Reg};

/// What to do when a load's address is outside `Dom(M)`.
///
/// Appendix A.1 gives *nondeterministic* rules for this case: the hardware
/// may signal a fault (`ldG-fail`/`ldB-fail`) or deliver an arbitrary value
/// (`ldG-rand`/`ldB-rand`). The policy resolves the nondeterminism so runs
/// are reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OobLoadPolicy {
    /// Signal a hardware fault (`ld*-fail`).
    #[default]
    Fault,
    /// Deliver this fixed arbitrary value (`ld*-rand` with a chosen witness).
    Value(i64),
}

/// Why a machine cannot take a step (well-typed programs never get stuck —
/// Theorem 1; a stuck state in a campaign is a soundness violation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StuckReason {
    /// Both program counters agree but point outside `Dom(C)`.
    BadPc(i64),
    /// The machine had already halted or faulted and was stepped again.
    NotRunning,
}

/// Execution status of a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The machine can take further steps.
    Running,
    /// The hardware detected a transient fault (`fault` state).
    Fault,
    /// The `halt` pseudo-instruction was executed.
    Halted,
    /// No rule applies (see [`StuckReason`]).
    Stuck(StuckReason),
}

impl Status {
    /// Whether further steps are possible.
    #[must_use]
    pub fn is_running(self) -> bool {
        self == Status::Running
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Status::Running => write!(f, "running"),
            Status::Fault => write!(f, "fault"),
            Status::Halted => write!(f, "halted"),
            Status::Stuck(StuckReason::BadPc(a)) => write!(f, "stuck (bad pc {a})"),
            Status::Stuck(StuckReason::NotRunning) => write!(f, "stuck (not running)"),
        }
    }
}

/// One observable output: an `(address, value)` pair committed by `stB`
/// (the `s` decorating the step judgment `S ─s→k S'`).
pub type Output = (i64, i64);

/// The TAL_FT abstract machine.
///
/// `R` is the register bank (GPRs plus `d`, `pcG`, `pcB`); `C` is the
/// (protected, immutable) code memory inside the [`Program`]; `M` is value
/// memory; `Q` is the store queue with **front = newest** (`stG` pushes the
/// front, `stB` pops the back, `find` scans front-to-back as in the paper).
///
/// Value memory and the output trace — the only unbounded components — are
/// **copy-on-write**: `Clone` shares them behind an `Arc`, and the first
/// write after a clone forks a private copy (`Arc::make_mut`). Campaign
/// engines clone a frontier machine once per fault plan, so a clone costs
/// O(registers + queue), not O(memory footprint).
#[derive(Debug, Clone)]
pub struct Machine {
    program: Arc<Program>,
    gprs: Vec<CVal>,
    d: CVal,
    pc: [CVal; 2], // indexed by color
    mem: Arc<BTreeMap<i64, i64>>,
    queue: VecDeque<(i64, i64)>,
    ir: Option<Instr>,
    status: Status,
    /// Observable trace: every pair committed to memory, in order.
    trace: Arc<Vec<Output>>,
    /// Commutative XOR hash over `(addr, val)` memory entries, maintained
    /// incrementally by [`Machine::mem_write`]. Equal memories always have
    /// equal hashes, so a hash mismatch proves inequality in O(1) — the
    /// fast-fail path of [`Machine::execution_eq`]. (Hash equality still
    /// falls through to a deep comparison; collisions cost time, never
    /// soundness.)
    mem_hash: u64,
    steps: u64,
    max_queue_depth: usize,
    pub(crate) oob_policy: OobLoadPolicy,
}

/// Mix one `(addr, val)` memory entry into a 64-bit contribution
/// (SplitMix64-style finalizer). Entry contributions combine by XOR, which
/// makes the whole-memory hash order-independent and incrementally
/// updatable on overwrite.
fn mem_entry_hash(addr: i64, val: i64) -> u64 {
    let mut z = (addr as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(val as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Machine {
    /// Boot a machine at the program's entry: GPRs and `d` zeroed green,
    /// `pcG`/`pcB` at the entry address, memory from the program's regions,
    /// queue empty.
    #[must_use]
    pub fn boot(program: Arc<Program>) -> Self {
        let entry = program.entry;
        let mem = Arc::new(program.initial_memory());
        let mem_hash = mem
            .iter()
            .fold(0u64, |h, (&a, &v)| h ^ mem_entry_hash(a, v));
        let n = program.num_gprs;
        Self {
            program,
            gprs: vec![CVal::green(0); usize::from(n)],
            d: CVal::green(0),
            pc: [CVal::green(entry), CVal::blue(entry)],
            mem,
            queue: VecDeque::new(),
            ir: None,
            status: Status::Running,
            trace: Arc::new(Vec::new()),
            mem_hash,
            steps: 0,
            max_queue_depth: 0,
            oob_policy: OobLoadPolicy::default(),
        }
    }

    /// Set the out-of-bounds load policy (builder style).
    #[must_use]
    pub fn with_oob_policy(mut self, p: OobLoadPolicy) -> Self {
        self.oob_policy = p;
        self
    }

    /// The program this machine runs.
    #[must_use]
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Current status.
    #[must_use]
    pub fn status(&self) -> Status {
        self.status
    }

    pub(crate) fn set_status(&mut self, s: Status) {
        self.status = s;
    }

    /// Steps taken so far (fetches and executions both count, as in the
    /// paper's small-step semantics).
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    pub(crate) fn bump_steps(&mut self) {
        self.steps += 1;
    }

    /// The observable output trace so far.
    #[must_use]
    pub fn trace(&self) -> &[Output] {
        &self.trace
    }

    /// The outputs committed after the first `watermark` — the streaming
    /// hook campaign engines use to compare a faulty run against the golden
    /// trace *as it is produced* instead of at termination.
    ///
    /// Returns an empty slice when fewer than `watermark` outputs exist.
    #[must_use]
    pub fn trace_since(&self, watermark: usize) -> &[Output] {
        self.trace.get(watermark..).unwrap_or(&[])
    }

    pub(crate) fn emit(&mut self, out: Output) {
        Arc::make_mut(&mut self.trace).push(out);
    }

    /// The pending instruction register (`ir`): `None` means the next step
    /// is a fetch.
    #[must_use]
    pub fn ir(&self) -> Option<&Instr> {
        self.ir.as_ref()
    }

    pub(crate) fn set_ir(&mut self, i: Option<Instr>) {
        self.ir = i;
    }

    // ---- register bank -----------------------------------------------------

    /// Read a register (colored).
    #[must_use]
    pub fn reg(&self, r: Reg) -> CVal {
        match r {
            Reg::Gpr(Gpr(n)) => self.gprs[usize::from(n)],
            Reg::Dst => self.d,
            Reg::Pc(c) => self.pc[pc_index(c)],
        }
    }

    /// The general-purpose registers `r0 … r(n−1)` (colored), read-only.
    #[must_use]
    pub fn gprs(&self) -> &[CVal] {
        &self.gprs
    }

    /// Write a register (colored).
    pub fn set_reg(&mut self, r: Reg, v: CVal) {
        match r {
            Reg::Gpr(Gpr(n)) => self.gprs[usize::from(n)] = v,
            Reg::Dst => self.d = v,
            Reg::Pc(c) => self.pc[pc_index(c)] = v,
        }
    }

    /// `Rval(a)` — the integer payload.
    #[must_use]
    pub fn rval(&self, r: Reg) -> i64 {
        self.reg(r).val
    }

    /// `Rcol(a)` — the color tag.
    #[must_use]
    pub fn rcol(&self, r: Reg) -> Color {
        self.reg(r).color
    }

    /// `R++` — advance both program counters by one.
    pub(crate) fn bump_pcs(&mut self) {
        for c in Color::BOTH {
            let i = pc_index(c);
            self.pc[i] = self.pc[i].with_val(self.pc[i].val.wrapping_add(1));
        }
    }

    /// Number of GPRs.
    #[must_use]
    pub fn num_gprs(&self) -> u16 {
        self.program.num_gprs
    }

    // ---- memory and queue ---------------------------------------------------

    /// Read memory (`None` when `addr ∉ Dom(M)`).
    #[must_use]
    pub fn mem(&self, addr: i64) -> Option<i64> {
        self.mem.get(&addr).copied()
    }

    /// Whether `addr ∈ Dom(M)`.
    #[must_use]
    pub fn in_mem_dom(&self, addr: i64) -> bool {
        self.mem.contains_key(&addr)
    }

    /// Raw write used by `stB` commit (paper rule `stB-mem`: `M[nl ↦ nl']`,
    /// with no domain check — committed pairs have passed the dual-color
    /// comparison).
    pub(crate) fn mem_write(&mut self, addr: i64, val: i64) {
        let old = Arc::make_mut(&mut self.mem).insert(addr, val);
        if let Some(o) = old {
            self.mem_hash ^= mem_entry_hash(addr, o);
        }
        self.mem_hash ^= mem_entry_hash(addr, val);
    }

    /// The whole value memory (for similarity checks and harnesses).
    #[must_use]
    pub fn memory(&self) -> &BTreeMap<i64, i64> {
        &self.mem
    }

    /// The store queue, front (newest) first.
    #[must_use]
    pub fn queue(&self) -> &VecDeque<(i64, i64)> {
        &self.queue
    }

    /// Mutable access to the store queue (fault injection and test hooks;
    /// ordinary execution goes through [`crate::step()`]).
    pub fn queue_mut(&mut self) -> &mut VecDeque<(i64, i64)> {
        &mut self.queue
    }

    /// High-water mark of the store queue (hardware store-buffer sizing).
    #[must_use]
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue_depth
    }

    pub(crate) fn note_queue_depth(&mut self) {
        self.max_queue_depth = self.max_queue_depth.max(self.queue.len());
    }

    /// `find(Q, n)`: the first (newest) pair with address `n`.
    #[must_use]
    pub fn queue_find(&self, addr: i64) -> Option<(i64, i64)> {
        self.queue.iter().copied().find(|&(a, _)| a == addr)
    }

    /// Index (0 = front/newest) of the entry [`Machine::queue_find`] would
    /// return. The batched campaign engine uses this to name the forwarded
    /// slot: with every queue *address* equal across lanes (address
    /// divergence demotes), all lanes forward from the same index.
    #[must_use]
    pub fn queue_find_index(&self, addr: i64) -> Option<usize> {
        self.queue.iter().position(|&(a, _)| a == addr)
    }

    // ---- whole-state comparison --------------------------------------------

    /// Whether this machine and `other` still share the same copy-on-write
    /// value memory (no write has forked them since the clone). Harness
    /// observability hook; not part of the machine semantics.
    #[must_use]
    pub fn memory_shared_with(&self, other: &Machine) -> bool {
        Arc::ptr_eq(&self.mem, &other.mem)
    }

    /// Full execution-state equality: two machines agree on every component
    /// that influences future execution (registers, pcs, `d`, memory, queue,
    /// `ir`, status, step count, trace, OOB policy). Because stepping is
    /// deterministic, `a.execution_eq(&b)` implies the two runs are
    /// indistinguishable from here on — the soundness basis for the campaign
    /// engine's convergence early-exit against golden checkpoints.
    ///
    /// The queue high-water statistic ([`Machine::max_queue_depth`]) is
    /// excluded: it never feeds back into execution. Comparison is ordered
    /// cheap-to-expensive: scalars, then the O(1) incremental memory hash
    /// (a mismatch proves the memories differ without walking them), then
    /// registers and queue, with the deep memory/trace comparisons last and
    /// behind `Arc` pointer fast paths.
    #[must_use]
    pub fn execution_eq(&self, other: &Machine) -> bool {
        self.steps == other.steps
            && self.status == other.status
            && self.oob_policy == other.oob_policy
            && self.ir == other.ir
            && self.pc == other.pc
            && self.d == other.d
            && self.mem_hash == other.mem_hash
            && self.queue.len() == other.queue.len()
            && self.trace.len() == other.trace.len()
            && self.gprs == other.gprs
            && self.queue == other.queue
            && (Arc::ptr_eq(&self.trace, &other.trace) || self.trace == other.trace)
            && (Arc::ptr_eq(&self.mem, &other.mem) || self.mem == other.mem)
    }

    /// Execution equality *modulo GPRs and step count* for trace-verified
    /// continuations: compares every other component that influences future
    /// execution and returns the bitmask of GPR indices where the two
    /// machines differ (`None` when any such component differs). The step
    /// count is left to the caller, which may compare a run with a golden
    /// state reached at a different step.
    ///
    /// # Precondition (caller-guaranteed, not checked)
    ///
    /// Both machines run the **same program** and `self`'s committed outputs
    /// have been verified equal to the golden trace that `other` is a
    /// prefix-state of. Under that precondition, equal trace *lengths* imply
    /// equal traces, and — because the only memory write in the semantics is
    /// the `stB-mem` commit, which always emits the written pair — equal
    /// traces imply equal memories. That is what lets this comparison skip
    /// the O(|M|) and O(|trace|) deep walks that [`Machine::execution_eq`]
    /// must do; the incremental memory hash is still compared as a
    /// belt-and-suspenders guard. Register files wider than 64 GPRs cannot
    /// be masked: they compare for full equality and report `Some(0)` or
    /// `None`.
    #[must_use]
    pub fn diverged_gprs_trace_verified(&self, other: &Machine) -> Option<u64> {
        let non_gpr_eq = Arc::ptr_eq(&self.program, &other.program)
            && self.status == other.status
            && self.oob_policy == other.oob_policy
            && self.ir == other.ir
            && self.pc == other.pc
            && self.d == other.d
            && self.mem_hash == other.mem_hash
            && self.trace.len() == other.trace.len()
            && self.queue == other.queue;
        if !non_gpr_eq {
            return None;
        }
        if self.gprs.len() > 64 {
            return (self.gprs == other.gprs).then_some(0);
        }
        Some(
            self.gprs
                .iter()
                .zip(&other.gprs)
                .enumerate()
                .filter(|(_, (a, b))| a != b)
                .fold(0u64, |m, (i, _)| m | (1 << i)),
        )
    }
}

pub(crate) fn pc_index(c: Color) -> usize {
    match c {
        Color::Green => 0,
        Color::Blue => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use talft_logic::ExprArena;

    fn tiny() -> Arc<Program> {
        let mut arena = ExprArena::new();
        let src = "\n.code\nmain:\n  .pre { forall m:mem; mem: m; }\n  halt\n";
        let _ = &mut arena;
        Arc::new(talft_isa::assemble(src).expect("assembles").program)
    }

    #[test]
    fn boot_state_matches_paper_conventions() {
        let m = Machine::boot(tiny());
        assert_eq!(m.status(), Status::Running);
        assert_eq!(m.rval(Reg::Pc(Color::Green)), 1);
        assert_eq!(m.rval(Reg::Pc(Color::Blue)), 1);
        assert_eq!(m.rcol(Reg::Pc(Color::Green)), Color::Green);
        assert_eq!(m.rcol(Reg::Pc(Color::Blue)), Color::Blue);
        assert_eq!(m.reg(Reg::Dst), CVal::green(0));
        assert!(m.queue().is_empty());
        assert!(m.trace().is_empty());
        assert!(m.ir().is_none());
    }

    #[test]
    fn register_bank_read_write() {
        let mut m = Machine::boot(tiny());
        m.set_reg(Reg::r(3), CVal::blue(99));
        assert_eq!(m.reg(Reg::r(3)), CVal::blue(99));
        assert_eq!(m.rval(Reg::r(3)), 99);
        assert_eq!(m.rcol(Reg::r(3)), Color::Blue);
        m.set_reg(Reg::Dst, CVal::green(7));
        assert_eq!(m.rval(Reg::Dst), 7);
    }

    #[test]
    fn queue_find_scans_newest_first() {
        let mut m = Machine::boot(tiny());
        m.queue_mut().push_front((100, 1)); // older
        m.queue_mut().push_front((100, 2)); // newer
        assert_eq!(m.queue_find(100), Some((100, 2)));
        assert_eq!(m.queue_find(42), None);
    }

    #[test]
    fn clone_shares_memory_until_first_write() {
        let mut m = Machine::boot(tiny());
        let snap = m.clone();
        assert!(m.memory_shared_with(&snap), "clone must not deep-copy M");
        m.mem_write(4096, 7);
        assert!(!m.memory_shared_with(&snap), "first write forks the Arc");
        assert_eq!(m.mem(4096), Some(7));
        assert_eq!(snap.mem(4096), None, "the snapshot is unaffected");
    }

    #[test]
    fn clone_shares_trace_until_first_emit() {
        let mut m = Machine::boot(tiny());
        m.emit((1, 2));
        let snap = m.clone();
        m.emit((3, 4));
        assert_eq!(snap.trace(), &[(1, 2)]);
        assert_eq!(m.trace(), &[(1, 2), (3, 4)]);
    }

    #[test]
    fn execution_eq_covers_semantic_state_only() {
        let mut m = Machine::boot(tiny());
        let mut n = m.clone();
        assert!(m.execution_eq(&n));
        // The high-water statistic is not semantic state.
        n.queue_mut().push_front((1, 1));
        n.note_queue_depth();
        n.queue_mut().pop_front();
        assert!(m.execution_eq(&n));
        // Every semantic component breaks equality.
        n.set_reg(Reg::r(0), CVal::blue(1));
        assert!(!m.execution_eq(&n));
        n.set_reg(Reg::r(0), CVal::green(0));
        assert!(m.execution_eq(&n));
        n.mem_write(4096, 1);
        assert!(!m.execution_eq(&n));
        m.mem_write(4096, 1);
        assert!(m.execution_eq(&m.clone()));
        m.bump_steps();
        assert!(!m.execution_eq(&n));
    }

    #[test]
    fn mem_hash_tracks_content_not_history() {
        let mut a = Machine::boot(tiny());
        let mut b = Machine::boot(tiny());
        assert_eq!(a.mem_hash, b.mem_hash);
        // Different write orders, same final content ⇒ same hash.
        a.mem_write(10, 1);
        a.mem_write(20, 2);
        b.mem_write(20, 2);
        b.mem_write(10, 1);
        assert_eq!(a.mem_hash, b.mem_hash);
        // Overwrites retract the old entry's contribution.
        a.mem_write(10, 99);
        assert_ne!(a.mem_hash, b.mem_hash);
        a.mem_write(10, 1);
        assert_eq!(a.mem_hash, b.mem_hash);
        // And the hash always agrees with a from-scratch fold.
        let scratch = a
            .memory()
            .iter()
            .fold(0u64, |h, (&ad, &v)| h ^ mem_entry_hash(ad, v));
        assert_eq!(a.mem_hash, scratch);
    }

    #[test]
    fn bump_pcs_preserves_colors() {
        let mut m = Machine::boot(tiny());
        m.bump_pcs();
        assert_eq!(m.reg(Reg::Pc(Color::Green)), CVal::green(2));
        assert_eq!(m.reg(Reg::Pc(Color::Blue)), CVal::blue(2));
    }
}
