//! Invalidation fixtures for the accepted-block memo (DESIGN.md §13).
//!
//! Each fixture is a `.talft` pair under `tests/memo/`. `<name>.ok.talft`
//! is well typed. `<name>.bad.talft` is ill typed only because one thing
//! that a block of the good twin read has changed:
//!
//! * `jump_target` — a jump target's precondition;
//! * `mov_constant` — whether a `mov` constant is an annotated address;
//! * `inner_annotation` — an annotation inserted inside the block;
//! * `region_bounds` — a region's bounds;
//! * `fall_through` — the fall-through target's precondition;
//! * `own_precondition` — the block's own precondition (part of the key);
//! * `jmpg_target_d` — a `jmpG` target's precondition where jmpG's
//!   d-premise is the only read of it.
//!
//! The bad twin is checked right after the good one on the same arena, so
//! the memo holds every block of the good twin. It must be rejected with
//! exactly the diagnostic a fresh arena gives, at the block whose
//! dependency changed. Checking the good twin again afterwards must still
//! succeed.

// `fresh` returns the checker's own `Result<_, TypeError>`, which the
// crate allows to be large for the same reason.
#![allow(clippy::result_large_err)]

use talft_core::{check_program, CheckReport, TypeError};
use talft_isa::{assemble, assemble_into};

macro_rules! pair {
    ($name:literal) => {
        (
            include_str!(concat!("memo/", $name, ".ok.talft")),
            include_str!(concat!("memo/", $name, ".bad.talft")),
        )
    };
}

fn fresh(src: &str) -> Result<CheckReport, TypeError> {
    let mut asm = assemble(src).expect("fixture assembles");
    check_program(&asm.program, &mut asm.arena)
}

/// Check `good`, then `bad`, then `good` again, all on one arena; assert
/// each result equals its fresh-arena result and return the bad twin's
/// diagnostic.
fn shared((good, bad): (&str, &str)) -> TypeError {
    let mut asm = assemble(good).expect("good twin assembles");
    let first = check_program(&asm.program, &mut asm.arena);
    assert_eq!(first, fresh(good));
    assert!(first.is_ok(), "good twin must check: {first:?}");
    let (bad_program, _) = assemble_into(bad, &mut asm.arena).expect("bad twin assembles");
    let err = check_program(&bad_program, &mut asm.arena).expect_err("bad twin is ill-typed");
    assert_eq!(Err(err.clone()), fresh(bad), "memo changed the diagnostic");
    let again = check_program(&asm.program, &mut asm.arena);
    assert_eq!(again, first, "good twin after the bad one");
    err
}

#[test]
fn changed_jump_target_precondition() {
    let e = shared(pair!("jump_target"));
    assert_eq!(e.addr, 4, "{e}");
    assert!(e.reason.contains("substitution inference failed"), "{e}");
}

#[test]
fn mov_constant_that_lost_its_annotation() {
    let e = shared(pair!("mov_constant"));
    assert_eq!(e.addr, 3, "{e}");
    assert!(e.reason.contains("code@12"), "{e}");
}

#[test]
fn annotation_inserted_inside_the_block() {
    let e = shared(pair!("inner_annotation"));
    assert_eq!(e.addr, 4, "{e}");
    assert!(e.reason.contains("fall-through"), "{e}");
}

#[test]
fn changed_region_bounds() {
    let e = shared(pair!("region_bounds"));
    assert_eq!(e.addr, 3, "{e}");
    assert!(e.reason.contains("not a reference"), "{e}");
}

#[test]
fn changed_fall_through_precondition() {
    let e = shared(pair!("fall_through"));
    assert_eq!(e.addr, 2, "{e}");
    assert!(e.reason.contains("fall-through"), "{e}");
}

#[test]
fn changed_own_precondition() {
    let e = shared(pair!("own_precondition"));
    assert_eq!(e.addr, 4, "{e}");
    assert!(e.reason.contains("r3 has no type"), "{e}");
}

#[test]
fn changed_jmpg_target_d_premise() {
    let e = shared(pair!("jmpg_target_d"));
    assert_eq!(e.addr, 1, "{e}");
    assert!(e.reason.contains("does not require d = 0"), "{e}");
}
