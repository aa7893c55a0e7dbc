//! Programs: code memory `C`, data regions (initial value memory `M` plus
//! the heap typing `Ψ`), label preconditions, and entry point.
//!
//! Code memory maps addresses `1 ..= len` to instructions (the paper:
//! "Address 0 is not considered a valid code address"). Value memory is laid
//! out in named **regions** — contiguous, `b ref`-typed address ranges — which
//! both seed the machine's `M` and define `Ψ` on data addresses. Regions are
//! how we realize the paper's `Ψ ⊢ ℓ : b ref` memory typing for arrays
//! (DESIGN.md, "Region-typed heap").

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use talft_logic::ExprArena;

use crate::instr::Instr;
use crate::ty::{BasicTy, CodeTy};

/// Lowest data address; code lives strictly below this.
pub const DATA_BASE: i64 = 4096;

/// The most cells a program's regions may declare together.
/// [`Program::initial_memory`] materializes every cell, so
/// [`Program::validate`] refuses more rather than let the declarations
/// exhaust memory, one long region or many short ones. Committed programs
/// declare at most about 512.
pub const MAX_DATA_CELLS: i64 = 1 << 16;

/// A contiguous typed data region (part of `M` and `Ψ`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Region name (for assembly syntax and diagnostics).
    pub name: String,
    /// First address.
    pub base: i64,
    /// Number of addressable cells.
    pub len: i64,
    /// Element type: every address `a ∈ [base, base+len)` has `Ψ(a) = elem ref`.
    pub elem: BasicTy,
    /// Initial contents (zero-padded to `len`).
    pub init: Vec<i64>,
    /// Whether the region is an observable output device window (used by
    /// harnesses to filter traces; the machine itself treats all committed
    /// stores as observable, as in the paper).
    pub output: bool,
}

impl Region {
    /// Whether `addr` falls inside the region.
    #[must_use]
    pub fn contains(&self, addr: i64) -> bool {
        addr >= self.base && addr < self.base + self.len
    }

    /// End address (exclusive).
    #[must_use]
    pub fn end(&self) -> i64 {
        self.base + self.len
    }
}

/// A complete TAL_FT program: code, label preconditions, data regions.
///
/// Static expressions inside preconditions live in an external
/// [`ExprArena`] (returned alongside the program by the assembler and the
/// compiler), and the preconditions themselves are shared and
/// copy-on-write, so the program stays cheaply cloneable: a clone copies
/// the instructions, labels and regions and takes one more reference to
/// each precondition. Nothing changes a shared [`CodeTy`] in place;
/// [`Arc::make_mut`] copies it first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Instructions; address `n` (1-based) is `instrs[n-1]`.
    pub instrs: Vec<Instr>,
    /// Label name → code address.
    pub labels: BTreeMap<String, i64>,
    /// Code-type preconditions at labeled addresses (`Ψ` on code), shared
    /// between clones.
    pub preconds: BTreeMap<i64, Arc<CodeTy>>,
    /// Typed data regions (`Ψ` on data + initial `M`).
    pub regions: Vec<Region>,
    /// Number of general-purpose registers the program assumes.
    pub num_gprs: u16,
    /// Entry address (must be labeled).
    pub entry: i64,
}

impl Program {
    /// The instruction at code address `addr`, if valid.
    #[must_use]
    pub fn instr(&self, addr: i64) -> Option<&Instr> {
        if addr < 1 {
            return None;
        }
        self.instrs.get(usize::try_from(addr).ok()?.checked_sub(1)?)
    }

    /// Whether `addr ∈ Dom(C)`.
    #[must_use]
    pub fn is_code_addr(&self, addr: i64) -> bool {
        addr >= 1 && (addr as u64) <= self.instrs.len() as u64
    }

    /// Number of instructions.
    #[must_use]
    pub fn code_len(&self) -> usize {
        self.instrs.len()
    }

    /// The precondition at a labeled address.
    #[must_use]
    pub fn precond(&self, addr: i64) -> Option<&CodeTy> {
        self.preconds.get(&addr).map(Arc::as_ref)
    }

    /// The address of a label.
    #[must_use]
    pub fn label_addr(&self, name: &str) -> Option<i64> {
        self.labels.get(name).copied()
    }

    /// The label at an address (reverse lookup, for diagnostics).
    #[must_use]
    pub fn label_at(&self, addr: i64) -> Option<&str> {
        self.labels
            .iter()
            .find(|(_, &a)| a == addr)
            .map(|(n, _)| n.as_str())
    }

    /// The region containing `addr`, if any.
    #[must_use]
    pub fn region_of(&self, addr: i64) -> Option<&Region> {
        self.regions.iter().find(|r| r.contains(addr))
    }

    /// The region by name.
    #[must_use]
    pub fn region(&self, name: &str) -> Option<&Region> {
        self.regions.iter().find(|r| r.name == name)
    }

    /// `Ψ(addr)` on data addresses: the *pointer* type `elem ref`.
    #[must_use]
    pub fn data_ptr_ty(&self, addr: i64) -> Option<BasicTy> {
        self.region_of(addr).map(|r| r.elem.clone().reference())
    }

    /// Whether `addr ∈ Dom(M)`.
    #[must_use]
    pub fn is_data_addr(&self, addr: i64) -> bool {
        self.region_of(addr).is_some()
    }

    /// Initial value memory `M` (region contents, zero-padded).
    #[must_use]
    pub fn initial_memory(&self) -> BTreeMap<i64, i64> {
        let mut m = BTreeMap::new();
        for r in &self.regions {
            for i in 0..r.len {
                let v = r
                    .init
                    .get(usize::try_from(i).expect("region len fits usize"));
                m.insert(r.base + i, v.copied().unwrap_or(0));
            }
        }
        m
    }

    /// Structural well-formedness (not type checking): label/entry/precond
    /// addresses valid, regions disjoint and above [`DATA_BASE`], code fits
    /// below the data space.
    pub fn validate(&self, arena: &ExprArena) -> Result<(), ProgramError> {
        if !self.is_code_addr(self.entry) {
            return Err(ProgramError::BadEntry(self.entry));
        }
        if !self.preconds.contains_key(&self.entry) {
            return Err(ProgramError::EntryNotAnnotated(self.entry));
        }
        if self.instrs.len() as i64 >= DATA_BASE {
            return Err(ProgramError::CodeOverflowsDataSpace(self.instrs.len()));
        }
        for (name, &addr) in &self.labels {
            if !self.is_code_addr(addr) {
                return Err(ProgramError::BadLabel(name.clone(), addr));
            }
        }
        for &addr in self.preconds.keys() {
            if !self.is_code_addr(addr) {
                return Err(ProgramError::BadPrecondAddr(addr));
            }
        }
        // Every precondition's expressions must be well-kinded under its Δ.
        for (addr, t) in &self.preconds {
            let ctx = t.kind_ctx();
            let check = |e, want| -> Result<(), ProgramError> {
                let got = arena
                    .kind_of(&ctx, e)
                    .map_err(|err| ProgramError::IllKindedPrecond(*addr, err.to_string()))?;
                if got != want {
                    return Err(ProgramError::IllKindedPrecond(
                        *addr,
                        format!("expected kind {want}, found {got}"),
                    ));
                }
                Ok(())
            };
            check(t.mem, talft_logic::Kind::Mem)?;
            for &(d, v) in &t.queue {
                check(d, talft_logic::Kind::Int)?;
                check(v, talft_logic::Kind::Int)?;
            }
        }
        let mut sorted: Vec<&Region> = self.regions.iter().collect();
        sorted.sort_by_key(|r| r.base);
        let mut cells = 0i64;
        for r in &sorted {
            if r.base < DATA_BASE {
                return Err(ProgramError::RegionBelowDataBase(r.name.clone(), r.base));
            }
            if r.len <= 0 {
                return Err(ProgramError::EmptyRegion(r.name.clone()));
            }
            cells = cells.saturating_add(r.len);
            if cells > MAX_DATA_CELLS {
                return Err(ProgramError::TooMuchData(r.name.clone(), cells));
            }
            if r.base.checked_add(r.len).is_none() {
                return Err(ProgramError::RegionPastAddressSpace(r.name.clone()));
            }
            if r.init.len() as i64 > r.len {
                return Err(ProgramError::InitTooLong(r.name.clone()));
            }
        }
        for w in sorted.windows(2) {
            if w[0].end() > w[1].base {
                return Err(ProgramError::OverlappingRegions(
                    w[0].name.clone(),
                    w[1].name.clone(),
                ));
            }
        }
        Ok(())
    }
}

/// Structural program errors found by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// Entry address is not a valid code address.
    BadEntry(i64),
    /// Entry block has no precondition annotation.
    EntryNotAnnotated(i64),
    /// Too many instructions: code would spill into the data address space.
    CodeOverflowsDataSpace(usize),
    /// A label points outside code memory.
    BadLabel(String, i64),
    /// A precondition is attached to a non-code address.
    BadPrecondAddr(i64),
    /// A precondition contains an ill-kinded expression.
    IllKindedPrecond(i64, String),
    /// A region starts below [`DATA_BASE`].
    RegionBelowDataBase(String, i64),
    /// A region has non-positive length.
    EmptyRegion(String),
    /// A region's initializer is longer than the region.
    InitTooLong(String),
    /// Two regions overlap.
    OverlappingRegions(String, String),
    /// The regions up to this one, in address order, declare this many
    /// cells, more than [`MAX_DATA_CELLS`].
    TooMuchData(String, i64),
    /// A region ends past the last address.
    RegionPastAddressSpace(String),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::BadEntry(a) => write!(f, "entry address {a} is not a code address"),
            ProgramError::EntryNotAnnotated(a) => {
                write!(f, "entry address {a} has no precondition")
            }
            ProgramError::CodeOverflowsDataSpace(n) => {
                write!(f, "{n} instructions overflow the code address space")
            }
            ProgramError::BadLabel(n, a) => write!(f, "label {n} points at bad address {a}"),
            ProgramError::BadPrecondAddr(a) => {
                write!(f, "precondition at non-code address {a}")
            }
            ProgramError::IllKindedPrecond(a, e) => {
                write!(f, "ill-kinded precondition at address {a}: {e}")
            }
            ProgramError::RegionBelowDataBase(n, b) => {
                write!(f, "region {n} base {b} is below the data base {DATA_BASE}")
            }
            ProgramError::EmptyRegion(n) => write!(f, "region {n} has non-positive length"),
            ProgramError::InitTooLong(n) => {
                write!(f, "region {n} initializer longer than region")
            }
            ProgramError::OverlappingRegions(a, b) => {
                write!(f, "regions {a} and {b} overlap")
            }
            ProgramError::TooMuchData(n, cells) => {
                write!(
                    f,
                    "region {n} brings the data to {cells} cells; the limit is {MAX_DATA_CELLS}"
                )
            }
            ProgramError::RegionPastAddressSpace(n) => {
                write!(f, "region {n} ends past the last address")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Color;
    use crate::reg::Gpr;
    use crate::ty::RegFileTy;

    fn trivial_precond(arena: &mut ExprArena) -> CodeTy {
        let m = arena.var_id("m");
        let me = arena.var_expr(m);
        CodeTy {
            delta: vec![(m, talft_logic::Kind::Mem)],
            facts: vec![],
            regs: RegFileTy::new(),
            queue: vec![],
            mem: me,
        }
    }

    fn tiny_program(arena: &mut ExprArena) -> Program {
        let mut p = Program {
            instrs: vec![Instr::Halt],
            num_gprs: 8,
            entry: 1,
            ..Program::default()
        };
        p.labels.insert("main".into(), 1);
        p.preconds.insert(1, Arc::new(trivial_precond(arena)));
        p
    }

    #[test]
    fn addressing_is_one_based() {
        let mut arena = ExprArena::new();
        let p = tiny_program(&mut arena);
        assert!(p.instr(0).is_none());
        assert_eq!(p.instr(1), Some(&Instr::Halt));
        assert!(p.instr(2).is_none());
        assert!(p.is_code_addr(1));
        assert!(!p.is_code_addr(0));
        assert!(!p.is_code_addr(-5));
    }

    #[test]
    fn validate_accepts_tiny_program() {
        let mut arena = ExprArena::new();
        let p = tiny_program(&mut arena);
        assert_eq!(p.validate(&arena), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_entry_and_labels() {
        let mut arena = ExprArena::new();
        let mut p = tiny_program(&mut arena);
        p.entry = 7;
        assert!(matches!(p.validate(&arena), Err(ProgramError::BadEntry(7))));
        p.entry = 1;
        p.labels.insert("ghost".into(), 99);
        assert!(matches!(
            p.validate(&arena),
            Err(ProgramError::BadLabel(_, 99))
        ));
    }

    #[test]
    fn validate_rejects_overlapping_and_low_regions() {
        let mut arena = ExprArena::new();
        let mut p = tiny_program(&mut arena);
        p.regions.push(Region {
            name: "a".into(),
            base: DATA_BASE,
            len: 10,
            elem: BasicTy::Int,
            init: vec![],
            output: false,
        });
        p.regions.push(Region {
            name: "b".into(),
            base: DATA_BASE + 5,
            len: 10,
            elem: BasicTy::Int,
            init: vec![],
            output: false,
        });
        assert!(matches!(
            p.validate(&arena),
            Err(ProgramError::OverlappingRegions(_, _))
        ));
        p.regions.pop();
        p.regions[0].base = 10;
        assert!(matches!(
            p.validate(&arena),
            Err(ProgramError::RegionBelowDataBase(_, 10))
        ));
    }

    #[test]
    fn validate_rejects_oversized_regions() {
        let mut arena = ExprArena::new();
        let mut p = tiny_program(&mut arena);
        p.regions.push(Region {
            name: "out".into(),
            base: DATA_BASE,
            len: MAX_DATA_CELLS,
            elem: BasicTy::Int,
            init: vec![],
            output: true,
        });
        assert_eq!(p.validate(&arena), Ok(()));
        p.regions[0].len = 99_999_999_999;
        assert_eq!(
            p.validate(&arena),
            Err(ProgramError::TooMuchData("out".into(), 99_999_999_999))
        );
        // An end past i64::MAX is an error, not an overflow.
        p.regions[0].len = 8;
        p.regions[0].base = i64::MAX - 4;
        assert_eq!(
            p.validate(&arena),
            Err(ProgramError::RegionPastAddressSpace("out".into()))
        );
    }

    #[test]
    fn validate_caps_total_data_at_the_limit() {
        let mut arena = ExprArena::new();
        let mut p = tiny_program(&mut arena);
        // Four regions of a quarter of the cap each: exactly at the limit.
        let quarter = MAX_DATA_CELLS / 4;
        for (i, name) in ["a", "b", "c", "d"].into_iter().enumerate() {
            p.regions.push(Region {
                name: name.into(),
                base: DATA_BASE + i as i64 * quarter,
                len: quarter,
                elem: BasicTy::Int,
                init: vec![],
                output: false,
            });
        }
        assert_eq!(p.validate(&arena), Ok(()));
        // One more cell, far away in the address space: the error names the
        // region that crosses the cap.
        p.regions.push(Region {
            name: "e".into(),
            base: 1 << 40,
            len: 1,
            elem: BasicTy::Int,
            init: vec![],
            output: true,
        });
        let err = p.validate(&arena).expect_err("one cell past the limit");
        assert_eq!(
            err,
            ProgramError::TooMuchData("e".into(), MAX_DATA_CELLS + 1)
        );
        assert!(err.to_string().contains("region e"), "{err}");
    }

    #[test]
    fn region_queries_and_initial_memory() {
        let mut arena = ExprArena::new();
        let mut p = tiny_program(&mut arena);
        p.regions.push(Region {
            name: "tab".into(),
            base: DATA_BASE,
            len: 4,
            elem: BasicTy::Int,
            init: vec![9, 8],
            output: false,
        });
        assert!(p.is_data_addr(DATA_BASE + 3));
        assert!(!p.is_data_addr(DATA_BASE + 4));
        assert_eq!(p.data_ptr_ty(DATA_BASE), Some(BasicTy::Int.reference()));
        let m = p.initial_memory();
        assert_eq!(m.get(&DATA_BASE), Some(&9));
        assert_eq!(m.get(&(DATA_BASE + 1)), Some(&8));
        assert_eq!(m.get(&(DATA_BASE + 2)), Some(&0));
        assert_eq!(m.get(&(DATA_BASE + 4)), None);
        assert_eq!(p.region("tab").map(|r| r.len), Some(4));
        assert_eq!(p.region_of(DATA_BASE).map(|r| r.name.as_str()), Some("tab"));
    }

    #[test]
    fn label_reverse_lookup() {
        let mut arena = ExprArena::new();
        let p = tiny_program(&mut arena);
        assert_eq!(p.label_at(1), Some("main"));
        assert_eq!(p.label_at(2), None);
        assert_eq!(p.label_addr("main"), Some(1));
    }

    #[test]
    fn validate_rejects_ill_kinded_precond() {
        let mut arena = ExprArena::new();
        let mut p = tiny_program(&mut arena);
        // mem expression of kind int
        let t = Arc::make_mut(p.preconds.get_mut(&1).unwrap());
        t.mem = arena.int(5);
        assert!(matches!(
            p.validate(&arena),
            Err(ProgramError::IllKindedPrecond(1, _))
        ));
    }

    // Silence unused warnings for imports used by other tests.
    #[allow(dead_code)]
    fn _unused(_: Color, _: Gpr) {}
}
