//! The TAL_FT faulty hardware: small-step operational semantics, the Single
//! Event Upset fault model, similarity relations, and run helpers — §2 and
//! Figure 9 of *Fault-tolerant Typed Assembly Language* (Perry et al.,
//! PLDI 2007).
//!
//! * [`Machine`] — machine states `(R, C, M, Q, ir)` ([`state`]);
//! * [`step()`] — one operational rule per call, incl. every failure rule of
//!   Appendix A.1 ([`step`](mod@step));
//! * [`fault`] — the `reg-zap` / `Q-zap1` / `Q-zap2` transitions;
//! * [`sim`] — the `sim_Z` similarity relations of Figure 9;
//! * [`run`](mod@run) — whole-program execution with step budgets.
//!
//! The only externally observable behavior is the sequence of `(addr, value)`
//! pairs committed by blue stores (plus fault signals) — exactly the paper's
//! notion of observation.

#![warn(missing_docs)]

pub mod audit;
pub mod divergence;
pub mod fault;
pub mod run;
pub mod sim;
pub mod state;
pub mod step;

pub use audit::{audit_pending, run_audited, AuditViolation};
pub use divergence::action_gpr_masks;
pub use fault::{inject, mutations, read_site, sites, FaultSite, Mutations, Sites, BIT_FLIPS};
pub use run::{run, run_program, run_program_with_policy, RunResult};
pub use sim::{sim_queue, sim_regs, sim_some_color, sim_state, sim_val};
pub use state::{Machine, OobLoadPolicy, Output, Status, StuckReason};
pub use step::{step, StepEvent};
