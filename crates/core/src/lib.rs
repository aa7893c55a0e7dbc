//! The TAL_FT type system — the primary contribution of *Fault-tolerant
//! Typed Assembly Language* (Perry et al., PLDI 2007), §3.
//!
//! Well-typed TAL_FT programs are **fault tolerant**: under the Single Event
//! Upset model of §2.1, no single transient fault can change the observable
//! output sequence — the hardware either masks it or signals `fault` before
//! corrupt data escapes (Theorem 4). The checker enforces the paper's four
//! principles (§3.3): standard type safety; color separation (green depends
//! only on green); dual-color sign-off on dangerous actions; and
//! green/blue value equality via Hoare-logic singleton types.
//!
//! * [`check_program`] — the code-typing judgment `Σ ⊢ C` ([`check`]);
//! * [`check_instr`] — instruction typing, Figure 7 ([`rules`]);
//! * [`Ctx`] — the flowing static context `T` ([`ctx`]);
//! * [`reg_subtype`] — subtyping and coercions ([`subty`]);
//! * [`check_transfer`] — jump/fall-through compatibility with substitution
//!   inference ([`compat`], [`matching`]);
//! * [`Psi`] — the recording view of `Ψ` those rules read ([`psi`]);
//! * [`check_boot_state`] — machine-state typing at block boundaries,
//!   Figure 8 ([`state_check`]).
//!
//! # Example
//!
//! ```
//! use talft_isa::assemble;
//! use talft_core::check_program;
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
//! let mut asm = assemble(src).unwrap();
//! check_program(&asm.program, &mut asm.arena).expect("fault tolerant");
//! ```

#![warn(missing_docs)]
// `TypeError` carries a span and witness notes, which pushes `Result<_,
// TypeError>` past clippy's size threshold. Rejection is a cold
// once-per-program path and the rich error IS the product; boxing would
// ripple through the public API for no measurable gain.
#![allow(clippy::result_large_err)]

pub mod check;
pub mod compat;
pub mod ctx;
pub mod error;
pub mod matching;
mod memo;
pub mod psi;
pub mod rules;
pub mod state_check;
pub mod subty;

pub use check::{check_program, CheckReport};
pub use compat::{check_transfer, prove_mem_eq, DEntry, TransferError};
pub use ctx::Ctx;
pub use error::{Diagnostic, Severity, TypeError, CHECKER_CODE};
pub use psi::Psi;
pub use rules::{check_instr, Outcome};
pub use state_check::check_boot_state;
pub use subty::{basic_subtype, reg_subtype, val_subtype};
