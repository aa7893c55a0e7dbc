//! Static expressions, kinds, substitutions, and decision procedures for
//! TAL_FT — the Hoare-logic half of the type system of
//! *Fault-tolerant Typed Assembly Language* (Perry et al., PLDI 2007),
//! §3.1 and Appendix A.2.
//!
//! The paper's type system pairs a TAL-style type theory with a classical
//! Hoare logic over a first-order language of **static expressions**:
//! integers with `add`/`sub`/`mul` (we conservatively extend to the full ALU
//! op set), and McCarthy memories with `emp`/`upd`/`sel`. This crate provides:
//!
//! * [`ExprArena`] — hash-consed expression construction ([`expr`]);
//! * [`Subst`] — substitutions `S` and the judgment `Δ ⊢ S : Δ'` ([`subst`]);
//! * [`eval()`] — the denotation `[[E]]` of Appendix A.2 ([`eval`](mod@eval));
//! * [`Poly`]/[`MemNf`] — sound normal forms ([`norm`]);
//! * [`Facts`] — hypothesis sets and the entailment judgments
//!   `Δ ⊢ E1 = E2`, `Δ ⊢ E1 ≠ E2`, and linear `≥` facts ([`entail`]).
//!
//! # Example
//!
//! ```
//! use talft_logic::{ExprArena, Facts};
//!
//! let mut arena = ExprArena::new();
//! let mut facts = Facts::new();
//! let x = arena.var("x");
//! let y = arena.var("y");
//! // assume x = y, then 2*x = x + y follows
//! facts.assume_eq(&mut arena, x, y);
//! let two = arena.int(2);
//! let lhs = arena.mul(two, x);
//! let rhs = arena.add(x, y);
//! assert!(facts.prove_eq(&mut arena, lhs, rhs));
//! ```

#![warn(missing_docs)]

pub mod entail;
pub mod eval;
pub mod expr;
pub mod interval;
pub mod norm;
pub mod subst;
pub mod witness;

pub use entail::Facts;
pub use eval::{eval, eval_int, eval_mem, Env, EvalError, MemVal, Value};
pub use expr::{BinOp, ExprArena, ExprId, ExprNode, Kind, KindCtx, KindError, VarId};
pub use norm::{norm_int, norm_mem, reify_memnf, reify_poly, MemNf, Poly};
pub use subst::{Subst, SubstError};
pub use witness::EntailWitness;
