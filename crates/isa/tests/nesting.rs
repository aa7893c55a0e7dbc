//! The assembler's nesting bound ([`MAX_NESTING`]): the deepest
//! precondition of each shape assembles and type-checks on a 2 MiB thread
//! (the default for test threads) in an unoptimized build, and one level
//! deeper is an assembly error naming the `.pre` line, not a stack
//! overflow.

use talft_core::check_program;
use talft_isa::asm::MAX_NESTING;
use talft_isa::assemble;

/// The §2.2 store sequence, well typed, with `binding` added to the entry
/// precondition on line 5.
fn program(binding: &str) -> String {
    format!(
        ".data\nregion out at 4096 len 1 : int output\n.code\nmain:\n  \
         .pre {{ forall m:mem; {binding} }}\n  mov r1, G 5\n  mov r2, G 4096\n  \
         stG r2, r1\n  mov r3, B 5\n  mov r4, B 4096\n  stB r4, r3\n  halt\n"
    )
}

type Shape = (&'static str, fn(usize) -> String);

/// Each shape nested `n` levels deep.
const SHAPES: [Shape; 4] = [
    ("parens", |n| {
        format!("mem: {}m{};", "(".repeat(n), ")".repeat(n))
    }),
    ("sel", |n| {
        format!(
            "mem: m; r1: (G, int, {}0{});",
            "sel(m, ".repeat(n),
            ")".repeat(n)
        )
    }),
    ("type parens", |n| {
        format!("mem: m; r1: (G, {}int{}, 0);", "(".repeat(n), ")".repeat(n))
    }),
    ("refs", |n| {
        format!("mem: m; r1: (G, int{}, 0);", " ref".repeat(n))
    }),
];

#[test]
fn nesting_is_bounded_at_the_limit() {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            for (name, shape) in SHAPES {
                let mut asm = assemble(&program(&shape(MAX_NESTING)))
                    .unwrap_or_else(|e| panic!("{name} at the limit: {e}"));
                check_program(&asm.program, &mut asm.arena)
                    .unwrap_or_else(|e| panic!("{name} at the limit: {e}"));
                let err = assemble(&program(&shape(MAX_NESTING + 1)))
                    .expect_err("one level past the limit");
                assert_eq!(err.line, 5, "{name}: {err}");
                assert!(
                    err.msg.contains("nesting deeper than") || err.msg.contains("`ref`s"),
                    "{name}: {err}"
                );
            }
        })
        .expect("spawn")
        .join()
        .expect("no stack overflow");
}
