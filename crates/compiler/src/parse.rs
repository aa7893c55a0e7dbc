//! Lexer and recursive-descent parser for Wile.

use std::fmt;

use crate::ast::{AstBinOp, Expr, FuncDecl, Item, Stmt, WileProgram};

/// A parse error with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    Punct(&'static str),
}

#[derive(Debug)]
struct LTok {
    tok: Tok,
    line: usize,
}

fn lex(src: &str) -> Result<Vec<LTok>, ParseError> {
    let mut out = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let line = idx + 1;
        let bytes = raw.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i] as char;
            let two = if i + 1 < bytes.len() {
                &raw[i..i + 2]
            } else {
                ""
            };
            match c {
                '/' if two == "//" => break,
                '#' => break,
                c if c.is_whitespace() => i += 1,
                _ if matches!(two, "==" | "!=" | "<=" | ">=" | "<<" | ">>" | "&&" | "||") => {
                    let p = match two {
                        "==" => "==",
                        "!=" => "!=",
                        "<=" => "<=",
                        ">=" => ">=",
                        "<<" => "<<",
                        ">>" => ">>",
                        "&&" => "&&",
                        _ => "||",
                    };
                    out.push(LTok {
                        tok: Tok::Punct(p),
                        line,
                    });
                    i += 2;
                }
                '(' | ')' | '{' | '}' | '[' | ']' | ',' | ';' | '=' | '+' | '-' | '*' | '&'
                | '|' | '^' | '<' | '>' | '!' => {
                    let p = match c {
                        '(' => "(",
                        ')' => ")",
                        '{' => "{",
                        '}' => "}",
                        '[' => "[",
                        ']' => "]",
                        ',' => ",",
                        ';' => ";",
                        '=' => "=",
                        '+' => "+",
                        '-' => "-",
                        '*' => "*",
                        '&' => "&",
                        '|' => "|",
                        '^' => "^",
                        '<' => "<",
                        '>' => ">",
                        _ => "!",
                    };
                    out.push(LTok {
                        tok: Tok::Punct(p),
                        line,
                    });
                    i += 1;
                }
                c if c.is_ascii_digit() => {
                    let start = i;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let n: i64 = raw[start..i].parse().map_err(|_| ParseError {
                        line,
                        msg: "integer literal out of range".into(),
                    })?;
                    out.push(LTok {
                        tok: Tok::Int(n),
                        line,
                    });
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    let start = i;
                    while i < bytes.len()
                        && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                    {
                        i += 1;
                    }
                    out.push(LTok {
                        tok: Tok::Ident(raw[start..i].to_owned()),
                        line,
                    });
                }
                c => {
                    return Err(ParseError {
                        line,
                        msg: format!("unexpected character '{c}'"),
                    })
                }
            }
        }
    }
    Ok(out)
}

/// How deeply a Wile program may nest: enclosing statements plus the height
/// of an expression tree, and enclosing statements plus open parentheses,
/// brackets, call arguments and unary operators while parsing. Sema,
/// lowering and the AST's own drop recurse over the tree, so past this
/// depth the parser stops with a [`ParseError`] instead of letting a later
/// pass exhaust the stack. A program at the limit compiles on a 2 MiB
/// thread in an unoptimized build; the suite kernels and generated
/// programs nest a small fraction of it.
pub const MAX_NESTING: usize = 128;

/// Parse Wile source text.
pub fn parse(src: &str) -> Result<WileProgram, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        stmts: 0,
        exprs: 0,
    };
    let mut items = Vec::new();
    while !p.at_end() {
        items.push(p.item()?);
    }
    Ok(WileProgram { items })
}

struct Parser {
    toks: Vec<LTok>,
    pos: usize,
    /// Statements enclosing the one being parsed.
    stmts: usize,
    /// Expressions the parser is inside of: parentheses, brackets, call
    /// arguments and unary operands.
    exprs: usize,
}

/// An expression and the height of its tree (a leaf is 1).
struct Tall {
    e: Expr,
    h: usize,
}

impl Tall {
    fn leaf(e: Expr) -> Tall {
        Tall { e, h: 1 }
    }
}

impl Parser {
    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |t| t.line)
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            msg: msg.into(),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn peek_punct(&self, p: &str) -> bool {
        matches!(self.peek(), Some(Tok::Punct(q)) if *q == p)
    }

    fn peek_ident(&self, s: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(w)) if w == s)
    }

    fn next(&mut self) -> Result<Tok, ParseError> {
        let t = self
            .toks
            .get(self.pos)
            .map(|t| t.tok.clone())
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn too_deep(&self) -> ParseError {
        self.err(format!("nesting deeper than {MAX_NESTING} levels"))
    }

    /// Enter `levels` more statements; [`Parser::leave`] undoes it.
    fn enter(&mut self, levels: usize) -> Result<(), ParseError> {
        self.stmts += levels;
        if self.stmts + self.exprs > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(())
    }

    fn leave(&mut self, levels: usize) {
        self.stmts -= levels;
    }

    /// Parse a nested expression (inside parentheses, brackets, call
    /// arguments or a unary operator).
    fn sub(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<Tall, ParseError>,
    ) -> Result<Tall, ParseError> {
        if self.stmts + self.exprs >= MAX_NESTING {
            return Err(self.too_deep());
        }
        self.exprs += 1;
        let e = f(self);
        self.exprs -= 1;
        e
    }

    /// A node of height `h` over the given children.
    fn node(&self, e: Expr, h: usize) -> Result<Tall, ParseError> {
        if self.stmts + h > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(Tall { e, h })
    }

    fn bin(&self, op: AstBinOp, l: Tall, r: Tall) -> Result<Tall, ParseError> {
        let h = 1 + l.h.max(r.h);
        self.node(Expr::Bin(op, Box::new(l.e), Box::new(r.e)), h)
    }

    fn expect(&mut self, p: &str) -> Result<(), ParseError> {
        match self.next()? {
            Tok::Punct(q) if q == p => Ok(()),
            t => Err(self.err(format!("expected '{p}', found {t:?}"))),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next()? {
            Tok::Ident(w) => Ok(w),
            t => Err(self.err(format!("expected identifier, found {t:?}"))),
        }
    }

    fn int_lit(&mut self) -> Result<i64, ParseError> {
        match self.next()? {
            Tok::Int(n) => Ok(n),
            Tok::Punct("-") => match self.next()? {
                Tok::Int(n) => Ok(n.wrapping_neg()),
                t => Err(self.err(format!("expected integer, found {t:?}"))),
            },
            t => Err(self.err(format!("expected integer, found {t:?}"))),
        }
    }

    fn item(&mut self) -> Result<Item, ParseError> {
        if self.peek_ident("array") || self.peek_ident("output") {
            let output = self.peek_ident("output");
            self.next()?;
            // `output` arrays may omit the `array` keyword: `output out[16];`
            if output && self.peek_ident("array") {
                self.next()?;
            }
            let name = self.ident()?;
            self.expect("[")?;
            let len = self.int_lit()?;
            self.expect("]")?;
            let mut init = Vec::new();
            if self.peek_punct("=") {
                self.expect("=")?;
                self.expect("[")?;
                while !self.peek_punct("]") {
                    init.push(self.int_lit()?);
                    if self.peek_punct(",") {
                        self.expect(",")?;
                    }
                }
                self.expect("]")?;
            }
            self.expect(";")?;
            Ok(Item::Array {
                name,
                len,
                init,
                output,
            })
        } else if self.peek_ident("const") {
            self.next()?;
            let name = self.ident()?;
            self.expect("=")?;
            let v = self.int_lit()?;
            self.expect(";")?;
            Ok(Item::Const(name, v))
        } else if self.peek_ident("func") {
            self.next()?;
            let name = self.ident()?;
            self.expect("(")?;
            let mut params = Vec::new();
            while !self.peek_punct(")") {
                params.push(self.ident()?);
                if self.peek_punct(",") {
                    self.expect(",")?;
                }
            }
            self.expect(")")?;
            self.expect("{")?;
            let mut body = Vec::new();
            let mut ret = Expr::Int(0);
            while !self.peek_punct("}") {
                if self.peek_ident("return") {
                    self.next()?;
                    ret = self.expr()?;
                    self.expect(";")?;
                    break;
                }
                body.push(self.stmt()?);
            }
            self.expect("}")?;
            Ok(Item::Func(FuncDecl {
                name,
                params,
                body,
                ret,
            }))
        } else {
            Err(self.err("expected `array`, `output`, `const`, or `func`"))
        }
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect("{")?;
        let mut out = Vec::new();
        while !self.peek_punct("}") {
            out.push(self.stmt()?);
        }
        self.expect("}")?;
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        if self.peek_ident("var") {
            self.next()?;
            let name = self.ident()?;
            self.expect("=")?;
            let e = self.expr()?;
            self.expect(";")?;
            return Ok(Stmt::Let(name, e));
        }
        if self.peek_ident("if") {
            self.next()?;
            self.expect("(")?;
            let c = self.expr()?;
            self.expect(")")?;
            self.enter(1)?;
            let then = self.block()?;
            let els = if self.peek_ident("else") {
                self.next()?;
                if self.peek_ident("if") {
                    vec![self.stmt()?]
                } else {
                    self.block()?
                }
            } else {
                Vec::new()
            };
            self.leave(1);
            return Ok(Stmt::If(c, then, els));
        }
        if self.peek_ident("while") {
            self.next()?;
            self.expect("(")?;
            let c = self.expr()?;
            self.expect(")")?;
            self.enter(1)?;
            let body = self.block()?;
            self.leave(1);
            return Ok(Stmt::While(c, body));
        }
        if self.peek_ident("for") {
            // `for (init; cond; step) { body }` desugars to
            // `init; while (cond) { body; step; }` — the init statement is
            // returned wrapped in an `if (1)` so one Stmt carries the pair.
            self.next()?;
            self.expect("(")?;
            self.enter(1)?;
            let init = self.simple_stmt()?;
            let cond = self.expr()?;
            self.expect(";")?;
            self.enter(1)?;
            let step = self.simple_stmt_no_semi()?;
            self.expect(")")?;
            let mut body = self.block()?;
            self.leave(2);
            body.push(step);
            return Ok(Stmt::If(
                crate::ast::Expr::Int(1),
                vec![init, Stmt::While(cond, body)],
                Vec::new(),
            ));
        }
        self.simple_stmt_tail()
    }

    /// A `var`/assignment/store statement terminated by `;`.
    fn simple_stmt(&mut self) -> Result<Stmt, ParseError> {
        if self.peek_ident("var") {
            self.next()?;
            let name = self.ident()?;
            self.expect("=")?;
            let e = self.expr()?;
            self.expect(";")?;
            return Ok(Stmt::Let(name, e));
        }
        self.simple_stmt_tail()
    }

    /// An assignment/store without a trailing `;` (the `for` step clause).
    fn simple_stmt_no_semi(&mut self) -> Result<Stmt, ParseError> {
        let name = self.ident()?;
        if self.peek_punct("[") {
            self.expect("[")?;
            let idx = self.expr()?;
            self.expect("]")?;
            self.expect("=")?;
            let v = self.expr()?;
            Ok(Stmt::Store(name, idx, v))
        } else {
            self.expect("=")?;
            let e = self.expr()?;
            Ok(Stmt::Assign(name, e))
        }
    }

    /// Trailing part of an assignment/store statement (name consumed next).
    fn simple_stmt_tail(&mut self) -> Result<Stmt, ParseError> {
        // assignment or array store
        let name = self.ident()?;
        if self.peek_punct("[") {
            self.expect("[")?;
            let idx = self.expr()?;
            self.expect("]")?;
            self.expect("=")?;
            let v = self.expr()?;
            self.expect(";")?;
            Ok(Stmt::Store(name, idx, v))
        } else {
            self.expect("=")?;
            let e = self.expr()?;
            self.expect(";")?;
            Ok(Stmt::Assign(name, e))
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        Ok(self.lor()?.e)
    }

    // Precedence climbing: || < && < cmp < |,^ < & < shifts < +- < * < unary.
    fn lor(&mut self) -> Result<Tall, ParseError> {
        let mut e = self.land()?;
        while self.peek_punct("||") {
            self.next()?;
            let r = self.land()?;
            e = self.bin(AstBinOp::LOr, e, r)?;
        }
        Ok(e)
    }

    fn land(&mut self) -> Result<Tall, ParseError> {
        let mut e = self.cmp()?;
        while self.peek_punct("&&") {
            self.next()?;
            let r = self.cmp()?;
            e = self.bin(AstBinOp::LAnd, e, r)?;
        }
        Ok(e)
    }

    fn cmp(&mut self) -> Result<Tall, ParseError> {
        let e = self.bitor()?;
        let op = match self.peek() {
            Some(Tok::Punct("<")) => Some(AstBinOp::Lt),
            Some(Tok::Punct("<=")) => Some(AstBinOp::Le),
            Some(Tok::Punct(">")) => Some(AstBinOp::Gt),
            Some(Tok::Punct(">=")) => Some(AstBinOp::Ge),
            Some(Tok::Punct("==")) => Some(AstBinOp::Eq),
            Some(Tok::Punct("!=")) => Some(AstBinOp::Ne),
            _ => None,
        };
        if let Some(op) = op {
            self.next()?;
            let r = self.bitor()?;
            self.bin(op, e, r)
        } else {
            Ok(e)
        }
    }

    fn bitor(&mut self) -> Result<Tall, ParseError> {
        let mut e = self.bitand()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Punct("|")) => AstBinOp::Or,
                Some(Tok::Punct("^")) => AstBinOp::Xor,
                _ => return Ok(e),
            };
            self.next()?;
            let r = self.bitand()?;
            e = self.bin(op, e, r)?;
        }
    }

    fn bitand(&mut self) -> Result<Tall, ParseError> {
        let mut e = self.shift()?;
        while self.peek_punct("&") {
            self.next()?;
            let r = self.shift()?;
            e = self.bin(AstBinOp::And, e, r)?;
        }
        Ok(e)
    }

    fn shift(&mut self) -> Result<Tall, ParseError> {
        let mut e = self.addsub()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Punct("<<")) => AstBinOp::Shl,
                Some(Tok::Punct(">>")) => AstBinOp::Shr,
                _ => return Ok(e),
            };
            self.next()?;
            let r = self.addsub()?;
            e = self.bin(op, e, r)?;
        }
    }

    fn addsub(&mut self) -> Result<Tall, ParseError> {
        let mut e = self.mul()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Punct("+")) => AstBinOp::Add,
                Some(Tok::Punct("-")) => AstBinOp::Sub,
                _ => return Ok(e),
            };
            self.next()?;
            let r = self.mul()?;
            e = self.bin(op, e, r)?;
        }
    }

    fn mul(&mut self) -> Result<Tall, ParseError> {
        let mut e = self.unary()?;
        while self.peek_punct("*") {
            self.next()?;
            let r = self.unary()?;
            e = self.bin(AstBinOp::Mul, e, r)?;
        }
        Ok(e)
    }

    fn unary(&mut self) -> Result<Tall, ParseError> {
        if self.peek_punct("-") {
            self.next()?;
            let t = self.sub(Self::unary)?;
            return match t.e {
                Expr::Int(n) => Ok(Tall::leaf(Expr::Int(n.wrapping_neg()))),
                other => self.node(Expr::Neg(Box::new(other)), t.h + 1),
            };
        }
        if self.peek_punct("!") {
            self.next()?;
            let t = self.sub(Self::unary)?;
            return self.node(Expr::Not(Box::new(t.e)), t.h + 1);
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Tall, ParseError> {
        match self.next()? {
            Tok::Int(n) => Ok(Tall::leaf(Expr::Int(n))),
            Tok::Punct("(") => {
                let e = self.sub(Self::lor)?;
                self.expect(")")?;
                Ok(e)
            }
            Tok::Ident(name) => {
                if self.peek_punct("(") {
                    self.expect("(")?;
                    let mut args = Vec::new();
                    let mut h = 0;
                    while !self.peek_punct(")") {
                        let a = self.sub(Self::lor)?;
                        h = h.max(a.h);
                        args.push(a.e);
                        if self.peek_punct(",") {
                            self.expect(",")?;
                        }
                    }
                    self.expect(")")?;
                    self.node(Expr::Call(name, args), h + 1)
                } else if self.peek_punct("[") {
                    self.expect("[")?;
                    let idx = self.sub(Self::lor)?;
                    self.expect("]")?;
                    self.node(Expr::Index(name, Box::new(idx.e)), idx.h + 1)
                } else {
                    Ok(Tall::leaf(Expr::Var(name)))
                }
            }
            t => Err(self.err(format!("unexpected token {t:?} in expression"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_arrays_consts_and_main() {
        let src = r#"
// a tiny program
const N = 8;
array tab[8] = [1, 2, 3];
output out[16];
func main() {
  var i = 0;
  while (i < N) {
    out[i] = tab[i] * 2;
    i = i + 1;
  }
}
"#;
        let p = parse(src).expect("parses");
        assert_eq!(p.items.len(), 4);
        assert!(p.func("main").is_some());
        match &p.items[1] {
            Item::Array {
                name,
                len,
                init,
                output,
            } => {
                assert_eq!(name, "tab");
                assert_eq!(*len, 8);
                assert_eq!(init, &[1, 2, 3]);
                assert!(!output);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &p.items[2] {
            Item::Array { output, .. } => assert!(output),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence_is_conventional() {
        let p = parse("func main() { var x = 1 + 2 * 3; }").expect("parses");
        let f = p.func("main").expect("main");
        match &f.body[0] {
            Stmt::Let(_, Expr::Bin(AstBinOp::Add, a, b)) => {
                assert_eq!(**a, Expr::Int(1));
                assert!(matches!(**b, Expr::Bin(AstBinOp::Mul, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comparisons_do_not_chain() {
        assert!(parse("func main() { var x = 1 < 2 < 3; }").is_err());
    }

    #[test]
    fn if_else_chains() {
        let src = r#"
func main() {
  var x = 0;
  if (x == 0) { x = 1; } else if (x == 1) { x = 2; } else { x = 3; }
}
"#;
        let p = parse(src).expect("parses");
        let f = p.func("main").expect("main");
        match &f.body[1] {
            Stmt::If(_, _, els) => assert!(matches!(els[0], Stmt::If(..))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn functions_with_return() {
        let src = r#"
func sq(x) { return x * x; }
func main() { var y = sq(5); }
"#;
        let p = parse(src).expect("parses");
        let f = p.func("sq").expect("sq");
        assert_eq!(f.params, vec!["x"]);
        assert_eq!(
            f.ret,
            Expr::Bin(
                AstBinOp::Mul,
                Box::new(Expr::Var("x".into())),
                Box::new(Expr::Var("x".into()))
            )
        );
    }

    #[test]
    fn negative_literals_fold() {
        let p = parse("func main() { var x = -5; var y = -x; }").expect("parses");
        let f = p.func("main").expect("main");
        assert_eq!(f.body[0], Stmt::Let("x".into(), Expr::Int(-5)));
        assert!(matches!(f.body[1], Stmt::Let(_, Expr::Neg(_))));
    }

    #[test]
    fn errors_have_lines() {
        let err = parse("func main() {\n  var = 3;\n}").expect_err("bad");
        assert_eq!(err.line, 2);
    }
}

#[cfg(test)]
mod nesting_tests {
    use super::*;
    use crate::{compile, CompileError, CompileOptions};

    /// A program of one shape, `n` levels deep.
    type Shape = fn(usize) -> String;

    /// The four shapes that used to exhaust the stack, each `n` levels
    /// deep: parentheses, `if`s, a `+` chain and unary minus signs.
    fn shapes() -> [(&'static str, Shape); 4] {
        [
            ("parentheses", |n| {
                format!(
                    "output out[1];\nfunc main() {{\n  var x = {}1{};\n  out[0] = x;\n}}\n",
                    "(".repeat(n),
                    ")".repeat(n)
                )
            }),
            ("ifs", |n| {
                format!(
                    "output out[1];\nfunc main() {{\n  var x = 0;\n{}  out[0] = 1;\n{}}}\n",
                    "  if (x == 0) {\n".repeat(n),
                    "  }\n".repeat(n)
                )
            }),
            ("chain", |n| {
                format!(
                    "output out[1];\nfunc main() {{\n  var x = 1{};\n  out[0] = x;\n}}\n",
                    "+1".repeat(n.saturating_sub(1))
                )
            }),
            ("unary minus", |n| {
                format!(
                    "output out[1];\nfunc main() {{\n  var x = 3;\n  var y = {}x;\n  out[0] = y;\n}}\n",
                    "- ".repeat(n)
                )
            }),
        ]
    }

    /// The deepest program of each shape that parses compiles on a 2 MiB
    /// thread (the default for test threads) and sits at the limit; one
    /// level deeper, and 100,000 levels deeper, is a parse error naming a
    /// line, not a stack overflow.
    #[test]
    fn nesting_is_bounded_at_the_limit() {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                for (name, shape) in shapes() {
                    let deepest = (1..=MAX_NESTING)
                        .rev()
                        .find(|&n| parse(&shape(n)).is_ok())
                        .expect("some depth parses");
                    assert!(deepest + 2 >= MAX_NESTING, "{name}: only {deepest} levels");
                    compile(&shape(deepest), &CompileOptions::default())
                        .unwrap_or_else(|e| panic!("{name} at depth {deepest}: {e}"));
                    for n in [deepest + 1, 100_000] {
                        match compile(&shape(n), &CompileOptions::default()) {
                            Err(CompileError::Parse(e)) => {
                                assert!(e.msg.contains("nesting deeper than"), "{name}: {e}");
                                assert!(e.line >= 3, "{name}: {e}");
                            }
                            other => panic!("{name} at depth {n}: {other:?}"),
                        }
                    }
                }
            })
            .expect("spawn")
            .join()
            .expect("no stack overflow");
    }
}

#[cfg(test)]
mod for_tests {
    use super::*;

    #[test]
    fn for_loops_desugar_to_while() {
        let p = parse(
            "output out[8]; func main() { for (var i = 0; i < 8; i = i + 1) { out[i] = i; } }",
        )
        .expect("parses");
        let f = p.func("main").expect("main");
        // wrapped: If(1, [Let, While], [])
        match &f.body[0] {
            Stmt::If(Expr::Int(1), inner, _) => {
                assert!(matches!(inner[0], Stmt::Let(..)));
                match &inner[1] {
                    Stmt::While(_, body) => {
                        // step appended to the body
                        assert!(matches!(body.last(), Some(Stmt::Assign(..))));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn for_with_existing_variable() {
        parse("output out[4]; func main() { var i = 0; for (i = 1; i < 4; i = i + 1) { out[i] = i; } }")
            .expect("parses");
    }
}
