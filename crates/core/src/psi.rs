//! `Ψ` as one block walk sees it: the code preconditions the walk asks for
//! and the data-region table.
//!
//! The instruction rules ([`crate::rules`]), transfer compatibility
//! ([`crate::compat`]) and the constant typing of [`crate::subty`] read a
//! program only through a [`Psi`]. It records every precondition lookup,
//! so the accepted-block memo (DESIGN.md §13) can tell whether a
//! remembered block would read the same answers in another program.

use talft_isa::{BasicTy, CodeTy, Program, Region};

/// A recording view of a program's `Ψ` for one block walk.
#[derive(Debug)]
pub struct Psi<'p> {
    program: &'p Program,
    reads: Vec<i64>,
}

impl<'p> Psi<'p> {
    /// A view of `program` that has recorded nothing yet.
    #[must_use]
    pub fn new(program: &'p Program) -> Self {
        Self {
            program,
            reads: Vec::new(),
        }
    }

    /// `Ψ(addr)` on code: the precondition at `addr`, if it is annotated.
    /// Every call is recorded.
    pub fn precond(&mut self, addr: i64) -> Option<&'p CodeTy> {
        self.reads.push(addr);
        self.program.precond(addr)
    }

    /// The data-region table (`Ψ` on data). Not recorded: the memo keeps
    /// entries only under the table they were checked under.
    #[must_use]
    pub fn regions(&self) -> &'p [Region] {
        &self.program.regions
    }

    /// `Ψ(addr)` on data addresses: `elem ref` inside a region.
    #[must_use]
    pub fn data_ptr_ty(&self, addr: i64) -> Option<BasicTy> {
        self.program.data_ptr_ty(addr)
    }

    /// The program this view reads.
    pub(crate) fn program(&self) -> &'p Program {
        self.program
    }

    /// The addresses whose precondition was asked for, in call order.
    pub(crate) fn into_reads(self) -> Vec<i64> {
        self.reads
    }
}
