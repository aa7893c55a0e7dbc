//! Timing model for the Figure 10 evaluation: an Itanium-2-flavored
//! in-order, multi-issue machine.
//!
//! The paper (§5) measures TAL_FT's slowdown on real Itanium 2 hardware with
//! simulated TAL_FT structures. We reproduce the *mechanism* that determines
//! that slowdown — a wide in-order pipeline absorbing the duplicated
//! instruction stream in its ILP slack — with a scoreboarded issue model:
//!
//! * up to `width` instructions issue per cycle, in program order;
//! * an instruction issues only when its source registers are ready
//!   (scoreboard tracks write-back times) and, for same-register overwrites,
//!   after the previous writer issued (in-order WAW);
//! * taken control transfers add a redirect penalty;
//! * instructions marked `free` model the *unprotected baseline ISA*: the
//!   baseline TAL_FT encoding uses paired `stG`/`stB` (and `jmpG`/`jmpB`)
//!   for what a conventional ISA does in one instruction, so the redundant
//!   half is costed at zero to make "normalized to unprotected" meaningful.
//!
//! Input is a [`SchedProgram`] — per-basic-block instruction schedules — plus
//! the dynamic block-visit sequence from a functional run; output is a cycle
//! count. Schedules for the ordered/unordered variants differ only in their
//! per-block instruction order, exactly like the paper's experiment.

#![warn(missing_docs)]

/// Functional-unit class of a scheduled instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Single-cycle integer op (`add`, `sub`, logicals, `mov`).
    Alu,
    /// Pipelined multiply.
    Mul,
    /// Memory load.
    Load,
    /// Memory store (green enqueue or blue commit).
    Store,
    /// Control transfer half (`jmp*`, `bz*`) or `halt`.
    Branch,
}

/// One instruction in a block schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedOp {
    /// Functional-unit class.
    pub kind: OpKind,
    /// Destination physical register, if any.
    pub dst: Option<u16>,
    /// Source physical registers.
    pub srcs: Vec<u16>,
    /// Costed at zero (baseline pseudo-halves; see module docs).
    pub free: bool,
}

impl TimedOp {
    /// Convenience constructor.
    #[must_use]
    pub fn new(kind: OpKind, dst: Option<u16>, srcs: Vec<u16>) -> Self {
        Self {
            kind,
            dst,
            srcs,
            free: false,
        }
    }

    /// Mark as a zero-cost pseudo-op.
    #[must_use]
    pub fn freed(mut self) -> Self {
        self.free = true;
        self
    }
}

/// Per-block schedules, indexed by basic-block id.
#[derive(Debug, Clone, Default)]
pub struct SchedProgram {
    /// `blocks[b]` is the issue-order schedule of block `b`.
    pub blocks: Vec<Vec<TimedOp>>,
}

/// The machine model (defaults are Itanium-2-flavored).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineModel {
    /// Issue width (Itanium 2: 6).
    pub width: u32,
    /// ALU latency.
    pub lat_alu: u32,
    /// Multiply latency.
    pub lat_mul: u32,
    /// Load-to-use latency (L1 hit).
    pub lat_load: u32,
    /// Store latency (to the queue / commit).
    pub lat_store: u32,
    /// Extra cycles on a taken control transfer (front-end redirect).
    pub branch_penalty: u32,
    /// Memory ports: at most this many loads/stores issue per cycle
    /// (Itanium 2: two M units). Duplication doubles pressure on exactly
    /// this resource, which is what gives Figure 10 its magnitude.
    pub mem_ports: u32,
}

impl Default for MachineModel {
    /// Effective-integer-issue calibration: Itanium 2 fetches six slots per
    /// cycle, but integer code can use at most the two I and two M units and
    /// bundle templates strand slots, so sustained integer issue is ≈ 3
    /// (see EXPERIMENTS.md, "Model calibration").
    fn default() -> Self {
        Self {
            width: 3,
            lat_alu: 1,
            lat_mul: 3,
            lat_load: 2,
            lat_store: 1,
            branch_penalty: 1,
            mem_ports: 2,
        }
    }
}

impl MachineModel {
    /// The raw six-slot Itanium 2 configuration (all units counted), used by
    /// the issue-width ablation.
    #[must_use]
    pub fn itanium2_raw() -> Self {
        Self {
            width: 6,
            ..Self::default()
        }
    }

    /// Latency of an op class.
    #[must_use]
    pub fn latency(&self, k: OpKind) -> u32 {
        match k {
            OpKind::Alu => self.lat_alu,
            OpKind::Mul => self.lat_mul,
            OpKind::Load => self.lat_load,
            OpKind::Store => self.lat_store,
            OpKind::Branch => self.lat_alu,
        }
    }
}

/// One dynamic block execution: the block id, and whether leaving it
/// redirected the front end (taken transfer, i.e. the next block was not the
/// fall-through successor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockVisit {
    /// Basic-block id.
    pub block: usize,
    /// Whether the exit was a taken (redirecting) transfer.
    pub taken_exit: bool,
}

/// Replay a dynamic block-visit sequence through per-block schedules,
/// returning the total cycle count.
///
/// The scoreboard persists across blocks (values computed late in one block
/// stall dependents early in the next), matching an in-order pipeline.
#[must_use]
pub fn simulate(prog: &SchedProgram, visits: &[BlockVisit], model: &MachineModel) -> u64 {
    let mut ready: Vec<u64> = Vec::new(); // per-register ready cycle
    let mut cycle: u64 = 0; // current issue cycle
    let mut issued_this_cycle: u32 = 0;
    let mut mem_issued_this_cycle: u32 = 0;

    for v in visits {
        let Some(block) = prog.blocks.get(v.block) else {
            continue;
        };
        for op in block {
            if op.free {
                continue;
            }
            // Stall until sources are ready.
            let mut earliest = cycle;
            for &s in &op.srcs {
                let r = ready.get(usize::from(s)).copied().unwrap_or(0);
                earliest = earliest.max(r);
            }
            if let Some(d) = op.dst {
                // In-order WAW: a later writer may not complete first.
                let r = ready.get(usize::from(d)).copied().unwrap_or(0);
                let lat = u64::from(model.latency(op.kind));
                earliest = earliest.max(r.saturating_sub(lat));
            }
            if earliest > cycle {
                cycle = earliest;
                issued_this_cycle = 0;
                mem_issued_this_cycle = 0;
            }
            let is_mem = matches!(op.kind, OpKind::Load | OpKind::Store);
            if issued_this_cycle >= model.width
                || (is_mem && mem_issued_this_cycle >= model.mem_ports)
            {
                cycle += 1;
                issued_this_cycle = 0;
                mem_issued_this_cycle = 0;
            }
            issued_this_cycle += 1;
            if is_mem {
                mem_issued_this_cycle += 1;
            }
            if let Some(d) = op.dst {
                let d = usize::from(d);
                if ready.len() <= d {
                    ready.resize(d + 1, 0);
                }
                ready[d] = cycle + u64::from(model.latency(op.kind));
            }
        }
        if v.taken_exit {
            cycle += u64::from(model.branch_penalty) + 1;
            issued_this_cycle = 0;
            mem_issued_this_cycle = 0;
        }
    }
    cycle + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alu(dst: u16, srcs: &[u16]) -> TimedOp {
        TimedOp::new(OpKind::Alu, Some(dst), srcs.to_vec())
    }

    #[test]
    fn independent_ops_pack_into_issue_width() {
        let model = MachineModel {
            width: 4,
            ..MachineModel::default()
        };
        // 8 independent ALU ops on a 4-wide machine: 2 issue cycles.
        let block: Vec<TimedOp> = (0..8).map(|i| alu(i, &[])).collect();
        let prog = SchedProgram {
            blocks: vec![block],
        };
        let visits = [BlockVisit {
            block: 0,
            taken_exit: false,
        }];
        let c = simulate(&prog, &visits, &model);
        assert_eq!(c, 2);
    }

    #[test]
    fn dependence_chain_serializes() {
        let model = MachineModel::default();
        // r1 = r0+1; r2 = r1+1; r3 = r2+1 — a chain of 3 unit-latency ops.
        let block = vec![alu(1, &[0]), alu(2, &[1]), alu(3, &[2])];
        let prog = SchedProgram {
            blocks: vec![block],
        };
        let visits = [BlockVisit {
            block: 0,
            taken_exit: false,
        }];
        let c = simulate(&prog, &visits, &model);
        assert_eq!(c, 3);
    }

    #[test]
    fn duplicated_independent_stream_is_absorbed_by_width() {
        // The Figure 10 mechanism in miniature: duplicating an
        // ILP-rich stream on a wide machine costs much less than 2×.
        let model = MachineModel {
            width: 6,
            ..MachineModel::default()
        };
        let single: Vec<TimedOp> = (0..6).map(|i| alu(i, &[])).collect();
        let dup: Vec<TimedOp> = (0..12).map(|i| alu(i, &[])).collect();
        let p1 = SchedProgram {
            blocks: vec![single],
        };
        let p2 = SchedProgram { blocks: vec![dup] };
        let visits = [BlockVisit {
            block: 0,
            taken_exit: false,
        }];
        let c1 = simulate(&p1, &visits, &model);
        let c2 = simulate(&p2, &visits, &model);
        assert_eq!(c1, 1);
        assert_eq!(c2, 2);
    }

    #[test]
    fn free_ops_cost_nothing() {
        let model = MachineModel {
            width: 1,
            ..MachineModel::default()
        };
        let block = vec![alu(0, &[]), alu(1, &[]).freed(), alu(2, &[])];
        let prog = SchedProgram {
            blocks: vec![block],
        };
        let visits = [BlockVisit {
            block: 0,
            taken_exit: false,
        }];
        let c = simulate(&prog, &visits, &model);
        assert_eq!(c, 2); // only two real ops on a 1-wide machine
    }

    #[test]
    fn taken_exits_pay_redirect() {
        let model = MachineModel::default();
        let block = vec![alu(0, &[])];
        let prog = SchedProgram {
            blocks: vec![block],
        };
        let fall = [BlockVisit {
            block: 0,
            taken_exit: false,
        }; 4];
        let taken = [BlockVisit {
            block: 0,
            taken_exit: true,
        }; 4];
        let cf = simulate(&prog, &fall, &model);
        let ct = simulate(&prog, &taken, &model);
        assert!(ct > cf, "{ct} vs {cf}");
    }

    #[test]
    fn load_latency_stalls_dependent() {
        let model = MachineModel::default();
        let block = vec![TimedOp::new(OpKind::Load, Some(1), vec![0]), alu(2, &[1])];
        let prog = SchedProgram {
            blocks: vec![block],
        };
        let visits = [BlockVisit {
            block: 0,
            taken_exit: false,
        }];
        let c = simulate(&prog, &visits, &model);
        assert_eq!(c, u64::from(model.lat_load) + 1);
    }

    #[test]
    fn scoreboard_persists_across_blocks() {
        let model = MachineModel::default();
        let b0 = vec![TimedOp::new(OpKind::Mul, Some(1), vec![0])];
        let b1 = vec![alu(2, &[1])];
        let prog = SchedProgram {
            blocks: vec![b0, b1],
        };
        let visits = [
            BlockVisit {
                block: 0,
                taken_exit: false,
            },
            BlockVisit {
                block: 1,
                taken_exit: false,
            },
        ];
        let c = simulate(&prog, &visits, &model);
        assert_eq!(c, u64::from(model.lat_mul) + 1);
    }

    #[test]
    fn wider_machines_are_never_slower() {
        let narrow = MachineModel {
            width: 1,
            ..MachineModel::default()
        };
        let wide = MachineModel {
            width: 8,
            ..MachineModel::default()
        };
        let block: Vec<TimedOp> = (0..10).map(|i| alu(i % 3, &[(i + 1) % 3])).collect();
        let prog = SchedProgram {
            blocks: vec![block],
        };
        let visits = [BlockVisit {
            block: 0,
            taken_exit: false,
        }; 5];
        assert!(simulate(&prog, &visits, &wide) <= simulate(&prog, &visits, &narrow));
    }
}

#[cfg(test)]
mod mem_port_tests {
    use super::*;

    #[test]
    fn mem_ports_throttle_memory_streams() {
        let model = MachineModel::default(); // 2 mem ports, 3 wide
        let loads: Vec<TimedOp> = (0..8)
            .map(|i| TimedOp::new(OpKind::Load, Some(i), vec![]))
            .collect();
        let prog = SchedProgram {
            blocks: vec![loads],
        };
        let visits = [BlockVisit {
            block: 0,
            taken_exit: false,
        }];
        // 8 loads / 2 ports = 4 cycles, not the 3 the width alone allows.
        assert_eq!(simulate(&prog, &visits, &model), 4);
        // With 8 ports they fit the width limit instead.
        let wide = MachineModel {
            mem_ports: 8,
            width: 8,
            ..model
        };
        assert_eq!(simulate(&prog, &visits, &wide), 1);
    }
}
