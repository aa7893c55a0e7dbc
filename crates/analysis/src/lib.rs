//! Static fault-coverage analysis and lints for TAL_FT programs.
//!
//! The injection campaigns (`talft-faultsim`) measure fault coverage by
//! *running* every single-fault plan; this crate computes the same verdict
//! *statically*, per (instruction, fault-site) cell, and cross-validates
//! the two — a machine-checked static analogue of Theorem 4. It also hosts
//! the rustc-style `TF0xx` lint engine sharing the checker's
//! [`Diagnostic`](talft_core::Diagnostic) form.
//!
//! * [`Cfg`] — instruction-level control-flow graph with blue-target
//!   resolution and store-queue depth propagation ([`mod@cfg`]);
//! * [`liveness`] — backward register liveness ([`live`]);
//! * [`analyze_zaps`] — per-cell SEU classification
//!   `Detected`/`Benign`/`Vulnerable` ([`zap`]);
//! * [`lint_program`] — the `TF001`–`TF006` lints ([`lint`]);
//! * [`cross_validate`] — differential oracle against the dynamic
//!   [`PlanGrid`](talft_faultsim::PlanGrid) ([`diff`]).
//!
//! # Example
//!
//! ```
//! use talft_isa::assemble;
//! use talft_analysis::{analyze_zaps, lint_program};
//!
//! let src = r#"
//! .data
//! region out at 4096 len 1 : int output
//! .code
//! main:
//!   .pre { forall m:mem; mem: m; }
//!   mov r1, G 5
//!   mov r2, G 4096
//!   stG r2, r1
//!   mov r3, B 5
//!   mov r4, B 4096
//!   stB r4, r3
//!   halt
//! "#;
//! let asm = assemble(src).unwrap();
//! assert!(lint_program(&asm.program).is_empty());
//! let report = analyze_zaps(&asm.program);
//! let (_, _, vulnerable) = report.tally();
//! assert_eq!(vulnerable, 0); // duplicated stores are single-fault safe
//! ```

#![warn(missing_docs)]

pub mod cfg;
pub mod diff;
pub mod lint;
pub mod live;
pub mod mask;
pub mod pair;
pub mod zap;

pub use cfg::{Cfg, DepthConflict};
pub use diff::{
    cross_validate, cross_validate_pairs, map_strike, DiffSummary, Mismatch, PairDiffSummary,
    PairMismatch,
};
pub use lint::{error_count, lint_program, lint_program_solver, lint_program_with, LINT_CODES};
pub use live::{liveness, Liveness};
pub use mask::{RegMask, MAX_GPRS};
pub use pair::{lint_pairs, Cell, PairAnalyzer, PairClass, PairReport, PairRule, PairVerdict};
pub use zap::{analyze_zaps, analyze_zaps_with, Side, Touch, ZapClass, ZapReport};
