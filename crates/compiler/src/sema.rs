//! Semantic analysis: constant resolution, array layout, and function
//! inlining.
//!
//! The output is a single flat `main` body over globals-free expressions —
//! calls are gone (inlined), consts are folded to literals, and every array
//! has a concrete base address in the data space.

use std::collections::HashMap;

use talft_isa::{DATA_BASE, MAX_DATA_CELLS};

use crate::ast::{Expr, Item, Stmt, WileProgram};

/// The deepest chain of calls the inliner follows (`main` calling `f`
/// calling `g` is two). Inlining recurses once per level, so a longer chain
/// would exhaust the stack before any later limit saw it.
pub const MAX_CALL_DEPTH: usize = 64;

/// The most calls the inliner expands in one program. Every call is
/// inlined, so functions that each call the next twice ask for 2^n copies.
/// A program that uses the results of this many calls to a one-line
/// function already overflows the code address space (8,205 instructions).
pub const MAX_INLINED_CALLS: u64 = 1024;

/// A laid-out global array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayInfo {
    /// Source name.
    pub name: String,
    /// Base address in the data space.
    pub base: i64,
    /// Length (power of two).
    pub len: i64,
    /// Index mask (`len - 1`).
    pub mask: i64,
    /// Initial contents.
    pub init: Vec<i64>,
    /// Observable output window?
    pub output: bool,
}

/// The analyzed program: arrays plus a flat, call-free `main` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemProgram {
    /// Laid-out arrays.
    pub arrays: Vec<ArrayInfo>,
    /// Inlined body of `main`.
    pub body: Vec<Stmt>,
}

impl SemProgram {
    /// Look up an array by name.
    #[must_use]
    pub fn array(&self, name: &str) -> Option<&ArrayInfo> {
        self.arrays.iter().find(|a| a.name == name)
    }
}

/// A semantic error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemError(pub String);

impl std::fmt::Display for SemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SemError {}

/// Analyze a parsed program.
pub fn analyze(prog: &WileProgram) -> Result<SemProgram, SemError> {
    // Consts.
    let mut consts: HashMap<String, i64> = HashMap::new();
    for item in &prog.items {
        if let Item::Const(n, v) = item {
            if consts.insert(n.clone(), *v).is_some() {
                return Err(SemError(format!("duplicate const {n}")));
            }
        }
    }

    // Arrays, laid out sequentially from DATA_BASE.
    let mut arrays = Vec::new();
    let mut next = DATA_BASE;
    for item in &prog.items {
        if let Item::Array {
            name,
            len,
            init,
            output,
        } = item
        {
            if arrays.iter().any(|a: &ArrayInfo| a.name == *name) {
                return Err(SemError(format!("duplicate array {name}")));
            }
            if *len <= 0 || (*len & (*len - 1)) != 0 {
                return Err(SemError(format!(
                    "array {name} length {len} must be a positive power of two \
                     (the masked-index discipline; see DESIGN.md)"
                )));
            }
            let cells = (next - DATA_BASE).saturating_add(*len);
            if cells > MAX_DATA_CELLS {
                return Err(SemError(format!(
                    "array {name} brings the data to {cells} cells, which exceeds the \
                     limit of {MAX_DATA_CELLS}"
                )));
            }
            if init.len() as i64 > *len {
                return Err(SemError(format!("array {name} initializer too long")));
            }
            arrays.push(ArrayInfo {
                name: name.clone(),
                base: next,
                len: *len,
                mask: *len - 1,
                init: init.clone(),
                output: *output,
            });
            next += *len;
        }
    }

    // Inline main.
    let main = prog
        .func("main")
        .ok_or_else(|| SemError("no `func main()`".into()))?;
    if !main.params.is_empty() {
        return Err(SemError("main must take no parameters".into()));
    }
    let mut inliner = Inliner {
        prog,
        consts: &consts,
        counter: 0,
        calls: 0,
        stack: Vec::new(),
    };
    let mut body = Vec::new();
    let rename = HashMap::new();
    let _ = inliner.inline_stmts(&main.body, &rename, &mut body)?;
    Ok(SemProgram { arrays, body })
}

struct Inliner<'a> {
    prog: &'a WileProgram,
    consts: &'a HashMap<String, i64>,
    counter: u64,
    /// Calls inlined so far (bounded by [`MAX_INLINED_CALLS`]).
    calls: u64,
    /// The functions being inlined, outermost first (bounded by
    /// [`MAX_CALL_DEPTH`]).
    stack: Vec<String>,
}

impl Inliner<'_> {
    fn fresh(&mut self, hint: &str) -> String {
        self.counter += 1;
        format!("{hint}${}", self.counter)
    }

    /// Inline a statement list; returns the rename map as of the end of the
    /// list (used to resolve a function's return expression).
    fn inline_stmts(
        &mut self,
        stmts: &[Stmt],
        rename: &HashMap<String, String>,
        out: &mut Vec<Stmt>,
    ) -> Result<HashMap<String, String>, SemError> {
        let mut rename = rename.clone();
        for s in stmts {
            match s {
                Stmt::Let(name, e) => {
                    let e = self.inline_expr(e, &rename, out)?;
                    let fresh = if rename.is_empty() && self.stack.is_empty() {
                        name.clone()
                    } else {
                        self.fresh(name)
                    };
                    rename.insert(name.clone(), fresh.clone());
                    out.push(Stmt::Let(fresh, e));
                }
                Stmt::Assign(name, e) => {
                    let e = self.inline_expr(e, &rename, out)?;
                    let name = rename.get(name).cloned().unwrap_or_else(|| name.clone());
                    out.push(Stmt::Assign(name, e));
                }
                Stmt::Store(arr, idx, val) => {
                    let idx = self.inline_expr(idx, &rename, out)?;
                    let val = self.inline_expr(val, &rename, out)?;
                    out.push(Stmt::Store(arr.clone(), idx, val));
                }
                Stmt::If(c, then, els) => {
                    let c = self.inline_expr(c, &rename, out)?;
                    let mut t2 = Vec::new();
                    let _ = self.inline_stmts(then, &rename, &mut t2)?;
                    let mut e2 = Vec::new();
                    let _ = self.inline_stmts(els, &rename, &mut e2)?;
                    out.push(Stmt::If(c, t2, e2));
                }
                Stmt::While(c, body) => {
                    // Calls inside a loop condition would need re-evaluation
                    // per iteration; hoisting would change semantics.
                    if contains_call(c) {
                        return Err(SemError(
                            "function calls are not allowed in while conditions \
                             (assign to a variable inside the loop instead)"
                                .into(),
                        ));
                    }
                    let c = self.inline_expr(c, &rename, &mut Vec::new())?;
                    let mut b2 = Vec::new();
                    let _ = self.inline_stmts(body, &rename, &mut b2)?;
                    out.push(Stmt::While(c, b2));
                }
            }
        }
        Ok(rename)
    }

    fn inline_expr(
        &mut self,
        e: &Expr,
        rename: &HashMap<String, String>,
        out: &mut Vec<Stmt>,
    ) -> Result<Expr, SemError> {
        Ok(match e {
            Expr::Int(n) => Expr::Int(*n),
            Expr::Var(name) => {
                if let Some(v) = self.consts.get(name) {
                    Expr::Int(*v)
                } else {
                    Expr::Var(rename.get(name).cloned().unwrap_or_else(|| name.clone()))
                }
            }
            Expr::Index(arr, idx) => {
                let idx = self.inline_expr(idx, rename, out)?;
                Expr::Index(arr.clone(), Box::new(idx))
            }
            Expr::Neg(e) => Expr::Neg(Box::new(self.inline_expr(e, rename, out)?)),
            Expr::Not(e) => Expr::Not(Box::new(self.inline_expr(e, rename, out)?)),
            Expr::Bin(op, a, b) => {
                let a = self.inline_expr(a, rename, out)?;
                let b = self.inline_expr(b, rename, out)?;
                Expr::Bin(*op, Box::new(a), Box::new(b))
            }
            Expr::Call(fname, args) => {
                let f = self
                    .prog
                    .func(fname)
                    .ok_or_else(|| SemError(format!("unknown function {fname}")))?
                    .clone();
                if self.stack.contains(fname) {
                    return Err(SemError(format!(
                        "recursive call to {fname} (Wile functions are inlined and \
                         must not recurse)"
                    )));
                }
                if args.len() != f.params.len() {
                    return Err(SemError(format!(
                        "{fname} expects {} arguments, got {}",
                        f.params.len(),
                        args.len()
                    )));
                }
                if self.stack.len() >= MAX_CALL_DEPTH {
                    return Err(SemError(format!(
                        "call to {fname} nests calls deeper than {MAX_CALL_DEPTH} levels \
                         (Wile functions are inlined)"
                    )));
                }
                self.calls += 1;
                if self.calls > MAX_INLINED_CALLS {
                    return Err(SemError(format!(
                        "call to {fname} makes more than {MAX_INLINED_CALLS} calls to inline \
                         (Wile functions are inlined)"
                    )));
                }
                // Bind arguments to fresh temps (argument expressions are
                // inlined in the *caller's* context, before entering the
                // callee — nested calls to the same function are fine).
                let mut callee_rename = HashMap::new();
                for (p, a) in f.params.iter().zip(args.iter()) {
                    let av = self.inline_expr(a, rename, out)?;
                    let t = self.fresh(p);
                    out.push(Stmt::Let(t.clone(), av));
                    callee_rename.insert(p.clone(), t);
                }
                self.stack.push(fname.clone());
                // Inline the body; the returned map resolves the return
                // expression against the body's (renamed) locals.
                let final_rename = self.inline_stmts(&f.body, &callee_rename, out)?;
                let ret = self.inline_expr(&f.ret, &final_rename, out)?;
                let rv = self.fresh("ret");
                out.push(Stmt::Let(rv.clone(), ret));
                self.stack.pop();
                Expr::Var(rv)
            }
        })
    }
}

fn contains_call(e: &Expr) -> bool {
    match e {
        Expr::Int(_) | Expr::Var(_) => false,
        Expr::Index(_, i) => contains_call(i),
        Expr::Neg(e) | Expr::Not(e) => contains_call(e),
        Expr::Bin(_, a, b) => contains_call(a) || contains_call(b),
        Expr::Call(..) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn analyze_src(src: &str) -> Result<SemProgram, SemError> {
        analyze(&parse(src).expect("parses"))
    }

    #[test]
    fn arrays_laid_out_sequentially() {
        let p = analyze_src("array a[8]; array b[16]; output out[4]; func main() { var x = 0; }")
            .expect("ok");
        assert_eq!(p.array("a").map(|a| a.base), Some(DATA_BASE));
        assert_eq!(p.array("b").map(|a| a.base), Some(DATA_BASE + 8));
        assert_eq!(p.array("out").map(|a| a.base), Some(DATA_BASE + 24));
        assert_eq!(p.array("b").map(|a| a.mask), Some(15));
        assert!(p.array("out").is_some_and(|a| a.output));
    }

    #[test]
    fn non_power_of_two_rejected() {
        let err = analyze_src("array a[7]; func main() { var x = 0; }").expect_err("bad");
        assert!(err.0.contains("power of two"));
    }

    #[test]
    fn arrays_past_the_region_limit_rejected() {
        analyze_src("output out[65536]; func main() { out[0] = 1; }").expect("at the limit");
        let err = analyze_src("output out[68719476736]; func main() { out[0] = 1; }")
            .expect_err("past the limit");
        assert!(err.0.contains("exceeds the limit"), "{err}");
    }

    #[test]
    fn total_array_cells_are_bounded_at_the_limit() {
        let half = MAX_DATA_CELLS / 2;
        analyze_src(&format!(
            "array a[{half}]; output out[{half}]; func main() {{ out[0] = 1; }}"
        ))
        .expect("at the limit");
        let err = analyze_src(&format!(
            "array a[{half}]; array b[{half}]; output out[1]; func main() {{ out[0] = 1; }}"
        ))
        .expect_err("one cell past the limit");
        assert!(err.0.contains("array out brings the data to"), "{err}");
        assert!(err.0.contains("exceeds the limit"), "{err}");
    }

    /// `main` → `f1` → … → `f{depth}`, each returning the next one's
    /// result plus 1.
    fn call_chain(depth: usize) -> String {
        let mut src = format!("output out[1]; func f{depth}() {{ return 1; }}\n");
        for i in 1..depth {
            src += &format!("func f{i}() {{ return f{}() + 1; }}\n", i + 1);
        }
        src + "func main() { out[0] = f1(); }"
    }

    #[test]
    fn call_depth_is_bounded_at_the_limit() {
        // A small stack: at the limit the inliner's recursion must fit.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                analyze_src(&call_chain(MAX_CALL_DEPTH)).expect("at the limit");
                for depth in [MAX_CALL_DEPTH + 1, 5000] {
                    let err = analyze_src(&call_chain(depth)).expect_err("past the limit");
                    assert!(err.0.contains("nests calls deeper than"), "{err}");
                }
            })
            .expect("spawn")
            .join()
            .expect("no stack overflow");
    }

    #[test]
    fn inlined_calls_are_bounded_at_the_limit() {
        let calls = |n: u64| {
            format!(
                "output out[1]; func one() {{ return 1; }} func main() {{ var x = 0; {} out[0] = x; }}",
                "x = x + one(); ".repeat(usize::try_from(n).expect("small"))
            )
        };
        analyze_src(&calls(MAX_INLINED_CALLS)).expect("at the limit");
        let err = analyze_src(&calls(MAX_INLINED_CALLS + 1)).expect_err("past the limit");
        assert!(err.0.contains("calls to inline"), "{err}");
        // Forty functions that each call the next twice: refused after the
        // first MAX_INLINED_CALLS expansions, not after 2^40.
        let mut src = String::from("output out[1]; func f40() { return 1; }\n");
        for i in 1..40 {
            src += &format!("func f{i}() {{ return f{0}() + f{0}(); }}\n", i + 1);
        }
        let err = analyze_src(&(src + "func main() { out[0] = f1(); }")).expect_err("exponential");
        assert!(err.0.contains("calls to inline"), "{err}");
    }

    #[test]
    fn consts_fold() {
        let p = analyze_src("const N = 3; func main() { var x = N + 1; }").expect("ok");
        assert_eq!(
            p.body[0],
            Stmt::Let(
                "x".into(),
                Expr::Bin(
                    crate::ast::AstBinOp::Add,
                    Box::new(Expr::Int(3)),
                    Box::new(Expr::Int(1))
                )
            )
        );
    }

    #[test]
    fn calls_inline_with_renaming() {
        let p =
            analyze_src("func sq(x) { var t = x * x; return t; } func main() { var y = sq(5); }")
                .expect("ok");
        // prelude: x$1 = 5; t$2 = x$1 * x$1; ret$3 = t$2; y = ret$3
        assert!(p.body.len() >= 4);
        let names: Vec<&str> = p
            .body
            .iter()
            .filter_map(|s| match s {
                Stmt::Let(n, _) => Some(n.as_str()),
                _ => None,
            })
            .collect();
        assert!(names.iter().any(|n| n.starts_with("x$")));
        assert!(names.iter().any(|n| n.starts_with("t$")));
        assert!(names.contains(&"y"));
    }

    #[test]
    fn nested_calls_inline() {
        let p = analyze_src(
            "func inc(x) { return x + 1; } func twice(x) { return inc(inc(x)); } \
             func main() { var y = twice(1); }",
        )
        .expect("ok");
        assert!(p.body.len() >= 4);
    }

    #[test]
    fn recursion_rejected() {
        let err = analyze_src("func f(x) { return f(x); } func main() { var y = f(1); }")
            .expect_err("recursive");
        assert!(err.0.contains("recursive"));
    }

    #[test]
    fn call_in_while_condition_rejected() {
        let err = analyze_src(
            "func f(x) { return x; } func main() { var i = 0; while (f(i)) { i = 0; } }",
        )
        .expect_err("call in cond");
        assert!(err.0.contains("while conditions"));
    }

    #[test]
    fn missing_main_rejected() {
        let err = analyze_src("func helper() { return 0; }").expect_err("no main");
        assert!(err.0.contains("main"));
    }
}
