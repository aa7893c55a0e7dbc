//! Value and register subtyping, plus the admissible coercions the checker
//! applies when reading operands.
//!
//! The paper's subtyping: every `(c,b,E1)` is a subtype of `(c,int,E2)` when
//! `Δ ⊢ E1 = E2` (code/ref types forget to `int`), lifted pointwise to
//! register files (`Γ1 ⊆ Γ2`). Our extensions (DESIGN.md "Faithfulness
//! notes"):
//!
//! * **cond-elim**: `Δ ⊢ E' ≠ 0 ⟹ (E'=0 ⇒ (c,b,E)) ≤ (c,int,0)` — sound by
//!   rule `cond-t-n0` (inhabitants are exactly `c 0` when the guard is
//!   provably non-zero);
//! * **cond-intro**: `(c,b,E) ≤ (E'=0 ⇒ (c,b',E''))` when `Δ ⊢ E' = 0` and
//!   the value types are related, or when `Δ ⊢ E' ≠ 0` and `Δ ⊢ E = 0`;
//! * **region coercion**: `(c,int,E) ≤ (c, b ref, E)` when a declared data
//!   region `[lo,hi) : b` satisfies `Δ ⊢ lo ≤ E < hi` — the array-typed
//!   generalization of the paper's `base-t` (which types only constant
//!   addresses via `Ψ`).

use talft_isa::ty::ValTy;
use talft_isa::{BasicTy, RegTy, Region};
use talft_logic::{ExprArena, Facts};

use crate::psi::Psi;

/// `Δ ⊢ b ≤ b'` on basic types: reflexive, and everything forgets to `int`.
#[must_use]
pub fn basic_subtype(sub: &BasicTy, sup: &BasicTy) -> bool {
    sub == sup || *sup == BasicTy::Int
}

/// `Δ ⊢ t ≤ t'` on register types.
pub fn reg_subtype(arena: &mut ExprArena, facts: &Facts, sub: &RegTy, sup: &RegTy) -> bool {
    match (sub, sup) {
        (_, RegTy::Top) => true,
        (RegTy::Val(a), RegTy::Val(b)) => val_subtype(arena, facts, a, b),
        (
            RegTy::Cond {
                guard: g1,
                inner: i1,
            },
            RegTy::Cond {
                guard: g2,
                inner: i2,
            },
        ) => facts.prove_eq(arena, *g1, *g2) && val_subtype(arena, facts, i1, i2),
        // cond-elim: guard provably non-zero ⇒ the value is (c, int, 0).
        (RegTy::Cond { guard, inner }, RegTy::Val(b)) => {
            if !facts.prove_neq_zero(arena, *guard) {
                return false;
            }
            let zero = arena.int(0);
            let coerced = ValTy::new(inner.color, BasicTy::Int, zero);
            val_subtype(arena, facts, &coerced, b)
        }
        // cond-intro.
        (RegTy::Val(a), RegTy::Cond { guard, inner }) => {
            if facts.prove_eq_zero(arena, *guard) {
                val_subtype(arena, facts, a, inner)
            } else if facts.prove_neq_zero(arena, *guard) {
                // value must be the literal 0 of the right color
                a.color == inner.color && facts.prove_eq_zero(arena, a.expr)
            } else {
                false
            }
        }
        (RegTy::Top, _) => false,
    }
}

/// `Δ ⊢ (c,b,E) ≤ (c',b',E')`.
pub fn val_subtype(arena: &mut ExprArena, facts: &Facts, sub: &ValTy, sup: &ValTy) -> bool {
    sub.color == sup.color
        && basic_subtype(&sub.basic, &sup.basic)
        && facts.prove_eq(arena, sub.expr, sup.expr)
}

/// Try to view a value type as a **reference** `(c, b ref, E)`, applying the
/// region coercion if its basic type is `int`-like. Returns the pointee type.
pub fn as_ref(
    arena: &mut ExprArena,
    facts: &Facts,
    regions: &[Region],
    v: &ValTy,
) -> Option<BasicTy> {
    if let BasicTy::Ref(b) = &v.basic {
        return Some((**b).clone());
    }
    // Region coercion: find a region whose bounds provably contain E.
    for r in regions {
        if facts.prove_in_range(arena, v.expr, r.base, r.base + r.len) {
            return Some(r.elem.clone());
        }
    }
    None
}

/// The most specific basic type of a constant address `n` (`Σ ⊢ n : b` of
/// rule `base-t`): a code type if `n` is an annotated code address, a
/// reference type if it lies in a data region, else `int`.
#[must_use]
pub fn basic_ty_of_const(psi: &mut Psi<'_>, n: i64) -> BasicTy {
    if psi.precond(n).is_some() {
        return BasicTy::Code(n);
    }
    if let Some(t) = psi.data_ptr_ty(n) {
        return t;
    }
    BasicTy::Int
}

#[cfg(test)]
mod tests {
    use super::*;
    use talft_isa::{assemble, Color};

    fn setup() -> (ExprArena, Facts) {
        (ExprArena::new(), Facts::new())
    }

    #[test]
    fn basic_subtyping_forgets_to_int() {
        assert!(basic_subtype(&BasicTy::Int, &BasicTy::Int));
        assert!(basic_subtype(&BasicTy::Code(3), &BasicTy::Int));
        assert!(basic_subtype(&BasicTy::Int.reference(), &BasicTy::Int));
        assert!(!basic_subtype(&BasicTy::Int, &BasicTy::Code(3)));
        assert!(!basic_subtype(&BasicTy::Code(3), &BasicTy::Code(4)));
    }

    #[test]
    fn val_subtype_requires_color_and_expr_equality() {
        let (mut a, f) = setup();
        let x = a.var("x");
        let y = a.var("y");
        let g1 = ValTy::new(Color::Green, BasicTy::Int, x);
        let g2 = ValTy::new(Color::Green, BasicTy::Int, y);
        assert!(!val_subtype(&mut a, &f, &g1, &g2));
        let b1 = ValTy::new(Color::Blue, BasicTy::Int, x);
        assert!(!val_subtype(&mut a, &f, &g1, &b1));
        let sum1 = {
            let one = a.int(1);
            a.add(x, one)
        };
        let sum2 = {
            let one = a.int(1);
            a.add(one, x)
        };
        let s1 = ValTy::new(Color::Green, BasicTy::Int, sum1);
        let s2 = ValTy::new(Color::Green, BasicTy::Int, sum2);
        assert!(val_subtype(&mut a, &f, &s1, &s2));
    }

    #[test]
    fn cond_elim_requires_nonzero_guard() {
        let (mut a, mut f) = setup();
        let g = a.var("g");
        let x = a.var("x");
        let cond = RegTy::Cond {
            guard: g,
            inner: ValTy::new(Color::Green, BasicTy::Code(1), x),
        };
        let zero = a.int(0);
        let target = RegTy::Val(ValTy::new(Color::Green, BasicTy::Int, zero));
        assert!(!reg_subtype(&mut a, &f, &cond, &target));
        f.assume_neq_zero(&mut a, g);
        assert!(reg_subtype(&mut a, &f, &cond, &target));
    }

    #[test]
    fn cond_intro_under_zero_guard() {
        let (mut a, mut f) = setup();
        let g = a.var("g");
        let x = a.var("x");
        f.assume_eq_zero(&mut a, g);
        let v = RegTy::Val(ValTy::new(Color::Green, BasicTy::Int, x));
        let cond = RegTy::Cond {
            guard: g,
            inner: ValTy::new(Color::Green, BasicTy::Int, x),
        };
        assert!(reg_subtype(&mut a, &f, &v, &cond));
    }

    #[test]
    fn everything_below_top_nothing_above() {
        let (mut a, f) = setup();
        let x = a.var("x");
        let v = RegTy::Val(ValTy::new(Color::Green, BasicTy::Int, x));
        assert!(reg_subtype(&mut a, &f, &v, &RegTy::Top));
        assert!(!reg_subtype(&mut a, &f, &RegTy::Top, &v));
        assert!(reg_subtype(&mut a, &f, &RegTy::Top, &RegTy::Top));
    }

    #[test]
    fn region_coercion_typed_by_bounds() {
        let src = "\n.data\nregion tab at 4096 len 8 : int\n.code\nmain:\n  \
                   .pre { forall m:mem; mem: m; }\n  halt\n";
        let asm = assemble(src).expect("ok");
        let (mut a, mut f) = setup();
        let i = a.var("i");
        // addr = 4096 + i with 0 ≤ i < 8
        let base = a.int(4096);
        let addr = a.add(base, i);
        let v = ValTy::new(Color::Green, BasicTy::Int, addr);
        let regions = &asm.program.regions;
        assert_eq!(as_ref(&mut a, &f, regions, &v), None);
        f.assume_in_range(&mut a, i, 0, 8);
        assert_eq!(as_ref(&mut a, &f, regions, &v), Some(BasicTy::Int));
        // a real ref type needs no coercion
        let rv = ValTy::new(Color::Green, BasicTy::Int.reference(), addr);
        assert_eq!(as_ref(&mut a, &f, regions, &rv), Some(BasicTy::Int));
    }

    #[test]
    fn const_basic_types_from_psi() {
        let src = "\n.data\nregion tab at 4096 len 8 : int\n.code\nmain:\n  \
                   .pre { forall m:mem; mem: m; }\n  halt\n";
        let asm = assemble(src).expect("ok");
        let mut psi = Psi::new(&asm.program);
        assert_eq!(basic_ty_of_const(&mut psi, 1), BasicTy::Code(1));
        assert_eq!(basic_ty_of_const(&mut psi, 4100), BasicTy::Int.reference());
        assert_eq!(basic_ty_of_const(&mut psi, 9999), BasicTy::Int);
        assert_eq!(psi.into_reads(), [1, 4100, 9999]);
    }
}
