//! Whole-program checking — the code-typing judgment `Σ ⊢ C` of Figure 8.
//!
//! Every annotated address opens a block; the checker walks the block
//! forward under the rules of Figure 7 until the result type is `void`
//! (`jmpB`, `halt`) or control falls through into the next annotated
//! address, where transfer compatibility is checked (the `Ψ(n+1) = T' →
//! void` premise of `C-t`, generalized to compatibility-under-substitution,
//! i.e. the weakening a jump would be allowed). Finally, every instruction
//! must have been covered by some block — the paper types *every* address.
//!
//! While [`ExprArena::solver_memo`] is on, a block the same arena already
//! accepted with the same key and the same `Ψ` answers is not walked again
//! (the accepted-block memo, DESIGN.md §13); validation and the coverage
//! check run on every call.

use talft_isa::{CodeTy, Color, Instr, Program};
use talft_logic::ExprArena;
use talft_obs::{LazyCounter, LazyHistogram, LazyMaxGauge};

use crate::compat::{check_transfer, DEntry};
use crate::ctx::Ctx;
use crate::error::TypeError;
use crate::memo::BlockMemo;
use crate::psi::Psi;
use crate::rules::{check_instr, Outcome};

static CHECK_NS: LazyHistogram = LazyHistogram::new("checker.check_program.ns");
static VALIDATE_NS: LazyHistogram = LazyHistogram::new("checker.pass.validate.ns");
static BLOCK_NS: LazyHistogram = LazyHistogram::new("checker.pass.block.ns");
static BLOCKS: LazyCounter = LazyCounter::new("checker.blocks");
static INSTRS: LazyCounter = LazyCounter::new("checker.instrs");
static ACCEPTS: LazyCounter = LazyCounter::new("checker.accepts");
static REJECTS: LazyCounter = LazyCounter::new("checker.rejections");
static EXPR_DEPTH: LazyMaxGauge = LazyMaxGauge::new("logic.expr.depth.max");
static ARENA_NODES: LazyMaxGauge = LazyMaxGauge::new("logic.expr.arena.nodes");

/// Statistics from a successful check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// Number of annotated blocks checked.
    pub blocks: usize,
    /// Number of instructions checked.
    pub instrs: usize,
}

/// Type-check a whole program (`Σ ⊢ C` plus structural validation).
pub fn check_program(program: &Program, arena: &mut ExprArena) -> Result<CheckReport, TypeError> {
    let _span = CHECK_NS.span();
    let result = check_program_inner(program, arena).map_err(|e| e.located(program));
    if talft_obs::enabled() {
        match &result {
            Ok(_) => ACCEPTS.inc(),
            Err(_) => REJECTS.inc(),
        }
        // O(arena) but only while profiling: record how deep the static
        // expressions grew and how large the hash-consing arena got.
        EXPR_DEPTH.record(u64::from(arena.max_depth()));
        ARENA_NODES.record(arena.len() as u64);
    }
    result
}

fn check_program_inner(program: &Program, arena: &mut ExprArena) -> Result<CheckReport, TypeError> {
    {
        let _vspan = VALIDATE_NS.span();
        program
            .validate(arena)
            .map_err(|e| TypeError::at(0, format!("structural error: {e}")))?;
    }
    if !arena.solver_memo {
        return check_blocks(program, arena, None);
    }
    let mut memo = BlockMemo::take(arena, &program.regions);
    let result = check_blocks(program, arena, Some(&mut memo));
    memo.put(arena);
    result
}

fn check_blocks(
    program: &Program,
    arena: &mut ExprArena,
    mut memo: Option<&mut BlockMemo>,
) -> Result<CheckReport, TypeError> {
    let code_len = program.code_len();
    let mut covered = vec![false; code_len];
    let mut blocks = 0usize;
    let mut instrs = 0usize;

    let mut annotated = program.preconds.iter().peekable();
    while let Some((&start, pre)) = annotated.next() {
        blocks += 1;
        let _bspan = BLOCK_NS.span();
        let next = annotated.peek().map(|(&a, _)| a);
        let index = |a: i64| usize::try_from(a - 1).expect("valid code address");
        let first = index(start);
        let code = &program.instrs[first..next.map_or(code_len, index)];
        let walked = match memo
            .as_deref_mut()
            .and_then(|m| m.lookup(program, start, pre, code))
        {
            Some(walked) => walked,
            None => {
                let mut psi = Psi::new(program);
                let walked = walk_block(arena, &mut psi, start, pre, code, next)?;
                if let Some(m) = memo.as_deref_mut() {
                    m.store(start, pre, code, psi, walked);
                }
                walked
            }
        };
        covered[first..first + walked].fill(true);
        instrs += walked;
    }

    if let Some(idx) = covered.iter().position(|&c| !c) {
        return Err(TypeError::at(
            idx as i64 + 1,
            "instruction not covered by any annotated block (unreachable from any label)",
        ));
    }

    BLOCKS.add(blocks as u64);
    INSTRS.add(instrs as u64);
    Ok(CheckReport { blocks, instrs })
}

/// Walk the block at `start` (instructions `code`, next annotated address
/// `next`) under the rules of Figure 7, reading `Ψ` through `psi`, and
/// return how many instructions it covered.
fn walk_block(
    arena: &mut ExprArena,
    psi: &mut Psi<'_>,
    start: i64,
    pre: &CodeTy,
    code: &[Instr],
    next: Option<i64>,
) -> Result<usize, TypeError> {
    let mut ctx = Ctx::from_code_ty(arena, pre);
    for (walked, &instr) in code.iter().enumerate() {
        let addr = start + walked as i64;
        if check_instr(arena, psi, &mut ctx, addr, &instr)? == Outcome::Void {
            return Ok(walked + 1);
        }
    }
    // `code` runs up to the next annotated address, or to the end of code.
    let Some(addr) = next else {
        return Err(TypeError::at(
            start + code.len() as i64,
            "control falls off the end of code memory",
        ));
    };
    // Fall-through into the next annotated block: check compatibility with
    // its precondition, pcs at their current expressions, d carried over.
    let er_g = ctx
        .pc_expr(Color::Green)
        .ok_or_else(|| TypeError::at(addr, "green pc lost its type before fall-through"))?;
    let er_b = ctx
        .pc_expr(Color::Blue)
        .ok_or_else(|| TypeError::at(addr, "blue pc lost its type before fall-through"))?;
    let d = ctx.regs.get(talft_isa::Reg::Dst).clone();
    check_transfer(arena, psi, &ctx, addr, er_g, er_b, &DEntry::Current(d)).map_err(|e| {
        TypeError::at(addr, format!("fall-through: {}", e.reason)).with_notes(e.notes)
    })?;
    Ok(code.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use talft_isa::assemble;

    fn check_src(src: &str) -> Result<CheckReport, TypeError> {
        let mut asm = assemble(src).expect("assembles");
        check_program(&asm.program, &mut asm.arena)
    }

    /// The paper's §2.2 six-instruction store sequence type-checks.
    #[test]
    fn paper_store_sequence_checks() {
        let src = r#"
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 5
  mov r2, G 4096
  stG r2, r1
  mov r3, B 5
  mov r4, B 4096
  stB r4, r3
  halt
"#;
        let rep = check_src(src).expect("well-typed");
        assert_eq!(rep.blocks, 1);
        assert_eq!(rep.instrs, 7);
    }

    /// The paper's §2.2 CSE miscompilation: `stG r2, r1; stB r2, r1` reuses
    /// the *green* registers for the blue store — rejected (a fault in r1/r2
    /// after the moves would store corrupt data undetectably).
    #[test]
    fn paper_cse_example_rejected() {
        let src = r#"
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 5
  mov r2, G 4096
  stG r2, r1
  stB r2, r1
  halt
"#;
        let err = check_src(src).expect_err("ill-typed");
        assert_eq!(err.addr, 4);
        assert!(err.reason.contains("blue"), "reason: {}", err.reason);
    }

    #[test]
    fn store_with_mismatched_values_rejected() {
        // green enqueues 5, blue tries to commit 6: principle 4 violation.
        let src = r#"
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 5
  mov r2, G 4096
  stG r2, r1
  mov r3, B 6
  mov r4, B 4096
  stB r4, r3
  halt
"#;
        let err = check_src(src).expect_err("ill-typed");
        assert!(
            err.reason.contains("queued value"),
            "reason: {}",
            err.reason
        );
    }

    #[test]
    fn mixed_color_arithmetic_rejected() {
        let src = r#"
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 1
  mov r2, B 2
  add r3, r1, r2
  halt
"#;
        let err = check_src(src).expect_err("ill-typed");
        assert!(
            err.reason.contains("colors differ"),
            "reason: {}",
            err.reason
        );
    }

    #[test]
    fn jump_protocol_checks_end_to_end() {
        let src = r#"
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G @target
  mov r2, B @target
  jmpG r1
  jmpB r2
target:
  .pre { forall m:mem; mem: m; }
  halt
"#;
        let rep = check_src(src).expect("well-typed");
        assert_eq!(rep.blocks, 2);
    }

    #[test]
    fn jump_to_different_labels_rejected() {
        let src = r#"
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G @t1
  mov r2, B @t2
  jmpG r1
  jmpB r2
t1:
  .pre { forall m:mem; mem: m; }
  halt
t2:
  .pre { forall m:mem; mem: m; }
  halt
"#;
        let err = check_src(src).expect_err("ill-typed");
        assert!(
            err.reason.contains("blue jumps to"),
            "reason: {}",
            err.reason
        );
    }

    #[test]
    fn uncovered_code_rejected() {
        let src = r#"
.code
main:
  .pre { forall m:mem; mem: m; }
  halt
  mov r1, G 1
  halt
"#;
        let err = check_src(src).expect_err("ill-typed");
        assert!(err.reason.contains("not covered"), "reason: {}", err.reason);
    }

    #[test]
    fn conditional_branch_taken_and_fallthrough_check() {
        let src = r#"
.code
main:
  .pre { forall x:int, m:mem; r1: (G, int, x); r2: (B, int, x); mem: m; }
  mov r3, G @done
  mov r4, B @done
  bzG r1, r3
  bzB r2, r4
  halt
done:
  .pre { forall m:mem; mem: m; }
  halt
"#;
        let rep = check_src(src).expect("well-typed");
        assert_eq!(rep.blocks, 2);
        assert_eq!(rep.instrs, 6);
    }

    #[test]
    fn branch_conditions_must_agree() {
        // green tests x, blue tests y — nothing relates them.
        let src = r#"
.code
main:
  .pre { forall x:int, y:int, m:mem; r1: (G, int, x); r2: (B, int, y); mem: m; }
  mov r3, G @done
  mov r4, B @done
  bzG r1, r3
  bzB r2, r4
  halt
done:
  .pre { forall m:mem; mem: m; }
  halt
"#;
        let err = check_src(src).expect_err("ill-typed");
        assert!(
            err.reason.contains("conditions differ"),
            "reason: {}",
            err.reason
        );
    }

    #[test]
    fn fallthrough_into_label_checks_compat() {
        let src = r#"
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 7
next:
  .pre { forall v:int, m:mem; r1: (G, int, v); mem: m; }
  halt
"#;
        let rep = check_src(src).expect("well-typed");
        assert_eq!(rep.blocks, 2);
    }

    #[test]
    fn fallthrough_with_wrong_register_contract_rejected() {
        // `next` demands a blue r1; main leaves a green one.
        let src = r#"
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 7
next:
  .pre { forall v:int, m:mem; r1: (B, int, v); mem: m; }
  halt
"#;
        let err = check_src(src).expect_err("ill-typed");
        assert!(
            err.reason.contains("fall-through"),
            "reason: {}",
            err.reason
        );
    }

    #[test]
    fn loop_with_counter_checks() {
        // count r1/r2 down from 3 to 0 with the split-branch protocol
        let src = r#"
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 3
  mov r2, B 3
loop:
  .pre { forall x:int, m:mem; r1: (G, int, x); r2: (B, int, x); mem: m; }
  sub r1, r1, G 1
  sub r2, r2, B 1
  mov r3, G @loop
  mov r4, B @loop
  bzG r1, r3
  bzB r2, r4
  jmpG r3
  jmpB r4
"#;
        // This loop is deliberately odd (branches back when the counter hits
        // 0 and also jumps back unconditionally) — but it is *well-typed*:
        // typing is about fault tolerance, not termination.
        let err = check_src(src);
        assert!(err.is_ok(), "expected well-typed, got {err:?}");
    }

    #[test]
    fn dangling_fallthrough_off_code_end_rejected() {
        let src = r#"
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 7
"#;
        let err = check_src(src).expect_err("ill-typed");
        assert!(err.reason.contains("falls off"), "reason: {}", err.reason);
    }

    #[test]
    fn reading_untyped_register_rejected() {
        let src = r#"
.code
main:
  .pre { forall m:mem; mem: m; }
  add r1, r2, r3
  halt
"#;
        let err = check_src(src).expect_err("ill-typed");
        assert!(err.reason.contains("no type"), "reason: {}", err.reason);
    }

    #[test]
    fn load_requires_provable_bounds() {
        let src = r#"
.data
region tab at 4096 len 8 : int
.code
main:
  .pre { forall i:int, m:mem; r1: (G, int, 4096 + i); mem: m; }
  ldG r2, r1
  halt
"#;
        let err = check_src(src).expect_err("ill-typed");
        assert!(err.reason.contains("bounds"), "reason: {}", err.reason);

        // With the bounds fact it checks.
        let ok_src = src.replace(
            "forall i:int, m:mem;",
            "forall i:int, m:mem; fact i >= 0; fact i < 8;",
        );
        check_src(&ok_src).expect("well-typed with bounds facts");
    }

    #[test]
    fn green_load_sees_queue_blue_load_sees_memory() {
        // After stG, a green load from the same address yields the pending
        // value; the blue store then commits; a blue load sees memory.
        let src = r#"
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 5
  mov r2, G 4096
  stG r2, r1
  ldG r5, r2
  mov r3, B 5
  mov r4, B 4096
  stB r4, r3
  ldB r6, r4
  halt
"#;
        check_src(src).expect("well-typed");
    }
}
