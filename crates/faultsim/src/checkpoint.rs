//! Golden checkpoint ring: bounded machine snapshots captured along the
//! fault-free run so campaign workers *seek* to a plan's first-strike step
//! instead of re-stepping the prefix from step 0, and so faulty runs that
//! have **rejoined** the golden run — at the same step or at an offset —
//! can stop simulating early (determinism implies the remainder replays
//! the golden run).
//!
//! Snapshots are cheap: [`Machine`] memory and trace are copy-on-write, so
//! a snapshot holds `Arc` references and only the golden run's next write to
//! a shared component pays for a fork.
//!
//! The ring is bounded by **adaptive thinning**: snapshots are taken every
//! `stride` steps, and when the capacity is reached every other snapshot is
//! dropped and the stride doubles. Invariant: `snaps[i].steps() == i * stride`
//! (capacity is even, so thinning preserves it exactly), which makes both
//! [`CheckpointRing::seek`] and [`CheckpointRing::at_step`] O(1).
//!
//! Once the run has ended the ring builds a **pc index**: for each green pc
//! and fetch/execute phase, the snapshots taken there with their output
//! counts inline, in step order. A run whose control flow has left
//! golden's looks itself up by pc to find the snapshots it could have
//! rejoined at a step offset.

use talft_isa::{Color, Reg};
use talft_machine::Machine;

/// Snapshot interval the golden run's ring starts at; thinning doubles it
/// on long runs, so it is a floor, not an exact interval.
pub(crate) const DEFAULT_STRIDE: u64 = 16;

/// Maximum snapshots retained (must be even — thinning halves it exactly).
pub(crate) const CAPACITY: usize = 512;

/// A bounded ring of golden-run snapshots at regular step intervals.
#[derive(Debug, Clone)]
pub struct CheckpointRing {
    stride: u64,
    cap: usize,
    snaps: Vec<Machine>,
    /// The pc index, empty until [`CheckpointRing::index_pcs`]: the
    /// entries of slot `k` (see [`slot`]) are `by_pc[starts[k]..starts[k +
    /// 1]]`, each `(output count, snapshot index)`, in step order.
    starts: Vec<u32>,
    by_pc: Vec<(usize, u32)>,
}

impl CheckpointRing {
    pub(crate) fn new(stride: u64, cap: usize) -> Self {
        debug_assert!(
            cap >= 2 && cap.is_multiple_of(2),
            "thinning needs an even cap"
        );
        Self {
            stride: stride.max(1),
            cap: cap.max(2),
            snaps: Vec::new(),
            starts: Vec::new(),
            by_pc: Vec::new(),
        }
    }

    /// Current snapshot interval in steps (doubles on each thinning).
    #[must_use]
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Number of retained snapshots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.snaps.len()
    }

    /// Whether no snapshot has been captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.snaps.is_empty()
    }

    /// Record `m` if its step count falls on the current stride grid.
    /// Callers offer every state of a monotone run; the ring keeps the grid
    /// points and thins itself when full.
    pub(crate) fn offer(&mut self, m: &Machine) {
        if !m.steps().is_multiple_of(self.stride) {
            return;
        }
        if self.snaps.len() == self.cap {
            self.thin();
            if !m.steps().is_multiple_of(self.stride) {
                return;
            }
        }
        debug_assert_eq!(m.steps(), self.snaps.len() as u64 * self.stride);
        self.snaps.push(m.clone());
    }

    /// Drop every other snapshot and double the stride. Keeping the even
    /// indices preserves the `snaps[i].steps() == i * stride` invariant.
    fn thin(&mut self) {
        let mut i = 0usize;
        self.snaps.retain(|_| {
            let keep = i.is_multiple_of(2);
            i += 1;
            keep
        });
        self.stride *= 2;
    }

    /// The latest snapshot at or before `step` (None only when empty).
    #[must_use]
    pub fn seek(&self, step: u64) -> Option<&Machine> {
        if self.snaps.is_empty() {
            return None;
        }
        let i = usize::try_from(step / self.stride)
            .unwrap_or(usize::MAX)
            .min(self.snaps.len() - 1);
        Some(&self.snaps[i])
    }

    /// The snapshot taken exactly at `step`, if one exists.
    #[must_use]
    pub fn at_step(&self, step: u64) -> Option<&Machine> {
        if !step.is_multiple_of(self.stride) {
            return None;
        }
        usize::try_from(step / self.stride)
            .ok()
            .and_then(|i| self.snaps.get(i))
            .filter(|m| m.steps() == step)
    }

    /// Build the pc index over the retained running snapshots whose green
    /// pc is a code address. Called once, when the run has ended: thinning
    /// after this would leave it stale.
    pub(crate) fn index_pcs(&mut self) {
        let Some(first) = self.snaps.first() else {
            return;
        };
        let program = first.program();
        let indexed = |m: &Machine| {
            slot(m).filter(|_| m.status().is_running() && program.is_code_addr(green_pc(m)))
        };
        // Counting sort by slot; visiting snapshots in step order keeps each
        // slot's entries in step order.
        let mut starts = vec![0u32; 2 * (program.code_len() + 1) + 1];
        for k in self.snaps.iter().filter_map(indexed) {
            starts[k + 1] += 1;
        }
        for k in 1..starts.len() {
            starts[k] += starts[k - 1];
        }
        let mut fill = starts.clone();
        let mut by_pc = vec![(0usize, 0u32); starts[starts.len() - 1] as usize];
        for (i, m) in self.snaps.iter().enumerate() {
            if let Some(k) = indexed(m) {
                #[allow(clippy::cast_possible_truncation)] // at most CAPACITY snapshots
                let entry = (m.trace().len(), i as u32);
                by_pc[fill[k] as usize] = entry;
                fill[k] += 1;
            }
        }
        self.starts = starts;
        self.by_pc = by_pc;
    }

    /// The snapshots that share `m`'s green pc, fetch/execute phase and
    /// output count, in step order (none before
    /// [`CheckpointRing::index_pcs`]).
    pub(crate) fn at_pc(&self, m: &Machine) -> impl Iterator<Item = &Machine> + '_ {
        let outputs = m.trace().len();
        let run = slot(m)
            .filter(|&k| k < self.starts.len().saturating_sub(1))
            .map_or(&[][..], |k| {
                &self.by_pc[self.starts[k] as usize..self.starts[k + 1] as usize]
            });
        // Output counts never decrease along the run, so the entries with
        // `outputs` outputs are one contiguous stretch of the step order.
        let from = run.partition_point(|&(n, _)| n < outputs);
        run[from..]
            .iter()
            .take_while(move |&&(n, _)| n == outputs)
            .map(|&(_, i)| &self.snaps[i as usize])
    }
}

/// The green pc's value.
pub(crate) fn green_pc(m: &Machine) -> i64 {
    m.rval(Reg::Pc(Color::Green))
}

/// `m`'s slot in the pc index: its green pc and whether it is about to
/// execute (`ir` full) or fetch. Snapshots on a grid of even steps are all
/// fetch states, so half of an off-path run's lookups land on empty slots.
fn slot(m: &Machine) -> Option<usize> {
    let pc = usize::try_from(green_pc(m)).ok()?;
    Some(pc.checked_mul(2)? | usize::from(m.ir().is_some()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use talft_machine::step;

    fn boot() -> Machine {
        let src = "\n.code\nmain:\n  .pre { forall m:mem; mem: m; }\n  mov r1, G @main\n  \
                   mov r2, B @main\n  jmpG r1\n  jmpB r2\n";
        let p = Arc::new(talft_isa::assemble(src).expect("assembles").program);
        Machine::boot(p)
    }

    #[test]
    fn captures_on_the_stride_grid() {
        let mut ring = CheckpointRing::new(4, 8);
        let mut m = boot();
        for _ in 0..20 {
            ring.offer(&m);
            step(&mut m);
        }
        assert_eq!(ring.stride(), 4);
        assert_eq!(ring.len(), 5); // steps 0, 4, 8, 12, 16
        assert_eq!(ring.at_step(8).map(Machine::steps), Some(8));
        assert!(ring.at_step(9).is_none());
        assert_eq!(ring.seek(11).map(Machine::steps), Some(8));
        assert_eq!(ring.seek(0).map(Machine::steps), Some(0));
        // Past the last snapshot: seek clamps to the newest.
        assert_eq!(ring.seek(1000).map(Machine::steps), Some(16));
    }

    #[test]
    fn thinning_doubles_the_stride_and_keeps_the_grid() {
        let mut ring = CheckpointRing::new(1, 4);
        let mut m = boot();
        for _ in 0..=40 {
            ring.offer(&m);
            step(&mut m);
        }
        // 41 offered states into capacity 4: stride grows past 8.
        assert!(ring.stride() >= 8);
        assert!(ring.len() <= 4);
        for (i, s) in (0..ring.len()).map(|i| (i, &ring)) {
            let snap = s.at_step(i as u64 * s.stride()).expect("grid point");
            assert_eq!(snap.steps(), i as u64 * s.stride());
        }
        // Every retained snapshot is the golden state at its step: replaying
        // from a snapshot matches replaying from boot.
        let target = ring.stride();
        let mut fresh = boot();
        while fresh.steps() < target {
            step(&mut fresh);
        }
        assert!(ring.at_step(target).expect("kept").execution_eq(&fresh));
    }

    /// Eight quiet iterations, then eight that each commit an output; both
    /// loops are 16 steps an iteration.
    const TWO_LOOPS: &str = "
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 5
  mov r2, G 4096
  mov r3, B 5
  mov r4, B 4096
  mov r10, G 8
  mov r11, B 8
  mov r12, G @stores
  mov r13, B @stores
  mov r14, G @quiet
  mov r15, B @quiet
quiet:
  .pre { forall m:mem; mem: m; }
  mov r20, G 0
  mov r20, G 0
  sub r10, r10, G 1
  sub r11, r11, B 1
  bzG r10, r12
  bzB r11, r13
  jmpG r14
  jmpB r15
stores:
  .pre { forall m:mem; mem: m; }
  mov r10, G 8
  mov r11, B 8
  mov r12, G @done
  mov r13, B @done
  mov r14, G @body
  mov r15, B @body
body:
  .pre { forall m:mem; mem: m; }
  stG r2, r1
  stB r4, r3
  sub r10, r10, G 1
  sub r11, r11, B 1
  bzG r10, r12
  bzB r11, r13
  jmpG r14
  jmpB r15
done:
  .pre { forall m:mem; mem: m; }
  halt
";

    #[test]
    fn pc_index_after_thinning_finds_exactly_the_matching_snapshots() {
        let p = Arc::new(talft_isa::assemble(TWO_LOOPS).expect("assembles").program);
        let mut ring = CheckpointRing::new(2, 16);
        let mut states = Vec::new();
        let mut m = Machine::boot(Arc::clone(&p));
        loop {
            ring.offer(&m);
            states.push(m.clone());
            if !m.status().is_running() {
                break;
            }
            step(&mut m);
        }
        ring.index_pcs();
        assert!(ring.stride() > 2, "the run is long enough to thin");
        let same_slot = |a: &Machine, b: &Machine| {
            green_pc(a) == green_pc(b) && a.ir().is_some() == b.ir().is_some()
        };
        let (mut shared, mut split_by_outputs) = (false, false);
        // Every state of the run is a probe: the index must return exactly
        // the running snapshots at its pc, phase and output count, in step
        // order.
        for probe in &states {
            let want: Vec<u64> = ring
                .snaps
                .iter()
                .filter(|s| s.status().is_running() && same_slot(s, probe))
                .filter(|s| s.trace().len() == probe.trace().len())
                .map(Machine::steps)
                .collect();
            let got: Vec<u64> = ring.at_pc(probe).map(Machine::steps).collect();
            assert_eq!(got, want, "probe at step {}", probe.steps());
            shared |= got.len() > 1;
            split_by_outputs |= ring
                .snaps
                .iter()
                .any(|s| same_slot(s, probe) && s.trace().len() != probe.trace().len());
        }
        assert!(
            shared,
            "some pc holds several snapshots with one output count"
        );
        assert!(
            split_by_outputs,
            "some pc holds snapshots with different output counts"
        );
        // A pc outside the code finds nothing, up to the largest one.
        let mut stray = states[1].clone();
        assert!(stray.ir().is_some(), "an execute state");
        for pc in [1 << 40, i64::MAX, -1] {
            stray.set_reg(Reg::Pc(Color::Green), talft_isa::CVal::green(pc));
            assert_eq!(ring.at_pc(&stray).count(), 0);
        }
    }

    #[test]
    fn empty_ring_seeks_nothing() {
        let ring = CheckpointRing::new(4, 8);
        assert!(ring.is_empty());
        assert!(ring.seek(0).is_none());
        assert!(ring.at_step(0).is_none());
        assert_eq!(ring.at_pc(&boot()).count(), 0);
    }
}
