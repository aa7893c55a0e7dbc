//! Instruction set, machine-state syntax, type syntax, and assembler for
//! TAL_FT — *Fault-tolerant Typed Assembly Language* (Perry et al.,
//! PLDI 2007), Figures 1 and 5.
//!
//! The ISA is a small RISC core extended with the paper's fault-tolerance
//! features: color-tagged values, split green/blue stores guarded by a
//! hardware store queue, and split green/blue control transfers guarded by
//! the destination register `d`.
//!
//! * [`Color`], [`CVal`] — the green/blue computation colors ([`color`]);
//! * [`Reg`], [`Gpr`] — register names ([`reg`]);
//! * [`Instr`] — instructions ([`instr`]);
//! * [`BasicTy`], [`RegTy`], [`CodeTy`] — the type syntax of Figure 5 ([`ty`]);
//! * [`Program`], [`Region`] — code + typed data regions ([`program`]);
//! * [`assemble`] — the `.talft` textual assembler ([`asm`]).

#![warn(missing_docs)]

pub mod asm;
pub mod color;
pub mod instr;
pub mod print;
pub mod program;
pub mod reg;
pub mod span;
pub mod ty;

pub use asm::{assemble, assemble_into, AsmError, Assembled};
pub use color::{CVal, Color};
pub use instr::{Instr, OpSrc};
pub use print::{disassemble, print_program};
pub use program::{Program, ProgramError, Region, DATA_BASE};
pub use reg::{Gpr, Reg};
pub use span::Span;
pub use ty::{BasicTy, CodeTy, FactAnn, RegFileTy, RegTy, ResultTy, ValTy, ZapTag};
