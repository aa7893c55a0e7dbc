//! Textual assembler for `.talft` programs.
//!
//! The surface syntax mirrors the paper's (Figure 1) with type annotations in
//! the style of Figure 5:
//!
//! ```text
//! // comments run to end of line (# also works)
//! .data
//! region out at 4096 len 16 : int output
//! region tab at 8192 len 8 : int = 1 2 3 4 5 6 7 8
//!
//! .code
//! main:
//!   .pre {
//!     forall x:int, m:mem;
//!     fact x >= 0;
//!     r1: (G, int, x);
//!     r2: top;
//!     queue: [];
//!     mem: m;
//!   }
//!   mov r1, G 5
//!   mov r2, G 4096
//!   stG r2, r1
//!   mov r3, B 5
//!   mov r4, B 4096
//!   stB r4, r3
//!   halt
//! ```
//!
//! Label-address immediates are written `@label` (`mov r1, G @loop`).
//! Precondition defaults per label: `d : (G,int,0)`, `pcG/pcB : (c,int,addr)`,
//! `queue: []`, and a fresh universally-quantified memory variable if `mem:`
//! is omitted. GPRs not mentioned are `top`.

use std::collections::BTreeMap;
use std::fmt;

use talft_logic::{BinOp, ExprArena, ExprId, Kind};

use crate::color::{CVal, Color};
use crate::instr::{Instr, OpSrc};
use crate::program::{Program, Region};
use crate::reg::{Gpr, Reg};
use crate::ty::{BasicTy, CodeTy, FactAnn, RegFileTy, RegTy, ValTy};

/// Default GPR count for assembled programs without a `.gprs` directive.
pub const DEFAULT_GPRS: u16 = 64;

/// Result of assembling: the program plus the arena owning its expressions.
#[derive(Debug)]
pub struct Assembled {
    /// The assembled program.
    pub program: Program,
    /// Arena holding every static expression referenced by the program.
    pub arena: ExprArena,
    /// 1-based source line of each instruction (`lines[addr - 1]`), for
    /// span-bearing diagnostics ([`crate::span::Span::with_line_table`]).
    pub lines: Vec<u32>,
}

/// Assemble `.talft` source text.
pub fn assemble(src: &str) -> Result<Assembled, AsmError> {
    let mut arena = ExprArena::new();
    let (program, lines) = assemble_into(src, &mut arena)?;
    Ok(Assembled {
        program,
        arena,
        lines,
    })
}

/// Assemble `.talft` source text into an existing arena, so that programs
/// assembled one after another share it. Returns the program and its line
/// table (see [`Assembled::lines`]).
pub fn assemble_into(src: &str, arena: &mut ExprArena) -> Result<(Program, Vec<u32>), AsmError> {
    let (program, lines) = Assembler::new(src, arena)?.run()?;
    program
        .validate(arena)
        .map_err(|e| AsmError::new(0, format!("invalid program: {e}")))?;
    Ok((program, lines))
}

/// An assembly error with a 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number (0 = whole file).
    pub line: usize,
    /// Human-readable message.
    pub msg: String,
}

impl AsmError {
    fn new(line: usize, msg: impl Into<String>) -> Self {
        Self {
            line,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    Punct(&'static str),
}

fn lex_line(line: &str, lineno: usize) -> Result<Vec<Tok>, AsmError> {
    let mut toks = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '#' => break, // comment
            '/' => {
                if bytes.get(i + 1) == Some(&b'/') {
                    break; // comment
                }
                return Err(AsmError::new(lineno, "stray '/'"));
            }
            c if c.is_whitespace() => i += 1,
            '(' | ')' | '[' | ']' | '{' | '}' | ',' | '@' | '+' | '*' | '.' => {
                toks.push(Tok::Punct(match c {
                    '(' => "(",
                    ')' => ")",
                    '[' => "[",
                    ']' => "]",
                    '{' => "{",
                    '}' => "}",
                    ',' => ",",
                    '@' => "@",
                    '+' => "+",
                    '*' => "*",
                    _ => ".",
                }));
                i += 1;
            }
            ':' => {
                toks.push(Tok::Punct(":"));
                i += 1;
            }
            ';' => {
                toks.push(Tok::Punct(";"));
                i += 1;
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Punct("=="));
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    toks.push(Tok::Punct("=>"));
                    i += 2;
                } else {
                    toks.push(Tok::Punct("="));
                    i += 1;
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Punct("!="));
                    i += 2;
                } else {
                    return Err(AsmError::new(lineno, "stray '!'"));
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Punct(">="));
                    i += 2;
                } else {
                    toks.push(Tok::Punct(">"));
                    i += 1;
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Punct("<="));
                    i += 2;
                } else {
                    toks.push(Tok::Punct("<"));
                    i += 1;
                }
            }
            '-' => {
                // negative literal or binary minus: decide by lookahead digit
                // plus previous token (binary minus after ident/int/`)`).
                let prev_value = matches!(
                    toks.last(),
                    Some(Tok::Ident(_)) | Some(Tok::Int(_)) | Some(Tok::Punct(")"))
                );
                if !prev_value && bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit()) {
                    let start = i;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let n: i64 = line[start..i]
                        .parse()
                        .map_err(|_| AsmError::new(lineno, "bad integer literal"))?;
                    toks.push(Tok::Int(n));
                } else {
                    toks.push(Tok::Punct("-"));
                    i += 1;
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let n: i64 = line[start..i]
                    .parse()
                    .map_err(|_| AsmError::new(lineno, "bad integer literal"))?;
                toks.push(Tok::Int(n));
            }
            c if c.is_ascii_alphabetic() || c == '_' || c == '$' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric()
                        || bytes[i] == b'_'
                        || bytes[i] == b'$')
                {
                    i += 1;
                }
                toks.push(Tok::Ident(line[start..i].to_owned()));
            }
            c => return Err(AsmError::new(lineno, format!("unexpected character '{c}'"))),
        }
    }
    Ok(toks)
}

// ---------------------------------------------------------------------------
// Assembler (two phases: layout, then parse with label table)
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum Item {
    Region { line: usize, toks: Vec<Tok> },
    Label { line: usize, name: String },
    Pre { line: usize, toks: Vec<Tok> },
    Instr { line: usize, toks: Vec<Tok> },
    Gprs { line: usize, toks: Vec<Tok> },
    Entry { line: usize, toks: Vec<Tok> },
}

struct Assembler<'a> {
    arena: &'a mut ExprArena,
    items: Vec<Item>,
}

impl<'a> Assembler<'a> {
    fn new(src: &str, arena: &'a mut ExprArena) -> Result<Self, AsmError> {
        let mut items = Vec::new();
        let mut pre_acc: Option<(usize, Vec<Tok>)> = None;
        for (idx, raw) in src.lines().enumerate() {
            let lineno = idx + 1;
            let toks = lex_line(raw, lineno)?;
            if toks.is_empty() {
                continue;
            }
            if let Some((start, acc)) = &mut pre_acc {
                let closes = toks.contains(&Tok::Punct("}"));
                acc.extend(toks);
                if closes {
                    let (line, toks) = pre_acc.take().expect("accumulating");
                    items.push(Item::Pre { line, toks });
                } else {
                    let _ = start;
                }
                continue;
            }
            match &toks[0] {
                Tok::Punct(".") => {
                    let dir = match toks.get(1) {
                        Some(Tok::Ident(d)) => d.clone(),
                        _ => {
                            return Err(AsmError::new(lineno, "expected directive name after '.'"))
                        }
                    };
                    match dir.as_str() {
                        "data" | "code" => {} // section markers are informational
                        "pre" => {
                            let rest: Vec<Tok> = toks[2..].to_vec();
                            if rest.contains(&Tok::Punct("}")) {
                                items.push(Item::Pre {
                                    line: lineno,
                                    toks: rest,
                                });
                            } else {
                                pre_acc = Some((lineno, rest));
                            }
                        }
                        "gprs" => items.push(Item::Gprs {
                            line: lineno,
                            toks: toks[2..].to_vec(),
                        }),
                        "entry" => items.push(Item::Entry {
                            line: lineno,
                            toks: toks[2..].to_vec(),
                        }),
                        other => {
                            return Err(AsmError::new(
                                lineno,
                                format!("unknown directive .{other}"),
                            ))
                        }
                    }
                }
                Tok::Ident(w) if w == "region" => {
                    items.push(Item::Region { line: lineno, toks });
                }
                Tok::Ident(name) if toks.get(1) == Some(&Tok::Punct(":")) && toks.len() == 2 => {
                    items.push(Item::Label {
                        line: lineno,
                        name: name.clone(),
                    });
                }
                Tok::Ident(_) => items.push(Item::Instr { line: lineno, toks }),
                _ => return Err(AsmError::new(lineno, "unrecognized line")),
            }
        }
        if let Some((line, _)) = pre_acc {
            return Err(AsmError::new(line, "unterminated .pre block"));
        }
        Ok(Self { arena, items })
    }

    fn run(mut self) -> Result<(Program, Vec<u32>), AsmError> {
        // Phase 1: assign code addresses to labels.
        let mut labels: BTreeMap<String, i64> = BTreeMap::new();
        let mut addr: i64 = 1;
        for item in &self.items {
            match item {
                Item::Label { line, name } if labels.insert(name.clone(), addr).is_some() => {
                    return Err(AsmError::new(*line, format!("duplicate label {name}")));
                }
                Item::Instr { .. } => addr += 1,
                _ => {}
            }
        }

        // Phase 2: parse everything with the label table in scope.
        let mut program = Program {
            num_gprs: DEFAULT_GPRS,
            labels: labels.clone(),
            ..Program::default()
        };
        let mut entry_label: Option<(usize, String)> = None;
        let mut pending_pre: Option<(usize, Vec<Tok>)> = None;
        let mut current_addr: i64 = 1;
        let mut lines: Vec<u32> = Vec::new();

        let items = std::mem::take(&mut self.items);
        for item in items {
            match item {
                Item::Gprs { line, toks } => match toks.as_slice() {
                    [Tok::Int(n)] if *n > 0 && *n <= 4096 => {
                        program.num_gprs = u16::try_from(*n).expect("range-checked");
                    }
                    _ => return Err(AsmError::new(line, "usage: .gprs N")),
                },
                Item::Entry { line, toks } => match toks.as_slice() {
                    [Tok::Ident(name)] => entry_label = Some((line, name.clone())),
                    _ => return Err(AsmError::new(line, "usage: .entry label")),
                },
                Item::Region { line, toks } => {
                    program
                        .regions
                        .push(self.parse_region(line, &toks, &labels)?);
                }
                Item::Label { .. } => {}
                Item::Pre { line, toks } => {
                    if pending_pre.is_some() {
                        return Err(AsmError::new(line, "two .pre blocks for one address"));
                    }
                    pending_pre = Some((line, toks));
                }
                Item::Instr { line, toks } => {
                    if let Some((pl, pt)) = pending_pre.take() {
                        let pre = self.parse_precond(pl, &pt, &labels, current_addr)?;
                        program.preconds.insert(current_addr, pre);
                    }
                    let instr = self.parse_instr(line, &toks, &labels)?;
                    program.instrs.push(instr);
                    lines.push(u32::try_from(line).unwrap_or(u32::MAX));
                    current_addr += 1;
                }
            }
        }
        if let Some((line, _)) = pending_pre {
            return Err(AsmError::new(
                line,
                ".pre block not followed by an instruction",
            ));
        }

        program.entry = match entry_label {
            Some((line, name)) => *labels
                .get(&name)
                .ok_or_else(|| AsmError::new(line, format!("unknown entry label {name}")))?,
            None => *labels
                .get("main")
                .ok_or_else(|| AsmError::new(0, "no .entry directive and no main label"))?,
        };
        Ok((program, lines))
    }

    fn parse_region(
        &mut self,
        line: usize,
        toks: &[Tok],
        labels: &BTreeMap<String, i64>,
    ) -> Result<Region, AsmError> {
        // region NAME at INT len INT : BTY [output] [= INT*]
        let mut p = Parser {
            arena: self.arena,
            toks,
            pos: 0,
            line,
            labels,
        };
        p.expect_ident("region")?;
        let name = p.ident()?;
        p.expect_ident("at")?;
        let base = p.int()?;
        p.expect_ident("len")?;
        let len = p.int()?;
        p.expect(":")?;
        let elem = p.basic_ty()?;
        let mut output = false;
        let mut init = Vec::new();
        if p.peek_ident("output") {
            p.ident()?;
            output = true;
        }
        if p.peek_punct("=") {
            p.expect("=")?;
            while !p.at_end() {
                init.push(p.int()?);
            }
        }
        p.finish()?;
        Ok(Region {
            name,
            base,
            len,
            elem,
            init,
            output,
        })
    }

    fn parse_instr(
        &mut self,
        line: usize,
        toks: &[Tok],
        labels: &BTreeMap<String, i64>,
    ) -> Result<Instr, AsmError> {
        let mut p = Parser {
            arena: self.arena,
            toks,
            pos: 0,
            line,
            labels,
        };
        let mn = p.ident()?;
        let instr = match mn.as_str() {
            "halt" => Instr::Halt,
            "mov" => {
                let rd = p.gpr()?;
                p.expect(",")?;
                let v = p.cval()?;
                Instr::Mov { rd, v }
            }
            "ldG" | "ldB" | "stG" | "stB" => {
                let color = Color::from_letter(mn.chars().last().expect("len 3")).expect("G|B");
                let rd = p.gpr()?;
                p.expect(",")?;
                let rs = p.gpr()?;
                if mn.starts_with("ld") {
                    Instr::Ld { color, rd, rs }
                } else {
                    Instr::St { color, rd, rs }
                }
            }
            "bzG" | "bzB" => {
                let color = Color::from_letter(mn.chars().last().expect("len 3")).expect("G|B");
                let rz = p.gpr()?;
                p.expect(",")?;
                let rd = p.gpr()?;
                Instr::Bz { color, rz, rd }
            }
            "jmpG" | "jmpB" => {
                let color = Color::from_letter(mn.chars().last().expect("len 4")).expect("G|B");
                let rd = p.gpr()?;
                Instr::Jmp { color, rd }
            }
            other => {
                let op = BinOp::from_mnemonic(other)
                    .ok_or_else(|| AsmError::new(line, format!("unknown mnemonic {other}")))?;
                let rd = p.gpr()?;
                p.expect(",")?;
                let rs = p.gpr()?;
                p.expect(",")?;
                let src2 = if p.peek_gpr() {
                    OpSrc::Reg(p.gpr()?)
                } else {
                    OpSrc::Imm(p.cval()?)
                };
                Instr::Op { op, rd, rs, src2 }
            }
        };
        p.finish()?;
        Ok(instr)
    }

    fn parse_precond(
        &mut self,
        line: usize,
        toks: &[Tok],
        labels: &BTreeMap<String, i64>,
        addr: i64,
    ) -> Result<CodeTy, AsmError> {
        let mut p = Parser {
            arena: self.arena,
            toks,
            pos: 0,
            line,
            labels,
        };
        p.expect("{")?;
        while p.peek_punct(";") {
            p.expect(";")?;
        }
        let mut delta: Vec<(talft_logic::VarId, Kind)> = Vec::new();
        let mut facts = Vec::new();
        let mut regs = RegFileTy::new();
        let mut queue = Vec::new();
        let mut mem: Option<ExprId> = None;
        let mut saw_d = false;
        let mut saw_pcg = false;
        let mut saw_pcb = false;

        while !p.peek_punct("}") {
            if p.peek_ident("forall") {
                p.ident()?;
                loop {
                    let name = p.ident()?;
                    p.expect(":")?;
                    let kw = p.ident()?;
                    let kind = match kw.as_str() {
                        "int" => Kind::Int,
                        "mem" => Kind::Mem,
                        other => return Err(AsmError::new(line, format!("unknown kind {other}"))),
                    };
                    let v = p.arena.var_id(&name);
                    delta.push((v, kind));
                    if p.peek_punct(",") {
                        p.expect(",")?;
                    } else {
                        break;
                    }
                }
            } else if p.peek_ident("fact") {
                p.ident()?;
                facts.push(p.fact()?);
            } else if p.peek_ident("queue") {
                p.ident()?;
                p.expect(":")?;
                p.expect("[")?;
                while !p.peek_punct("]") {
                    p.expect("(")?;
                    let d = p.expr()?;
                    p.expect(",")?;
                    let v = p.expr()?;
                    p.expect(")")?;
                    queue.push((d, v));
                    if p.peek_punct(",") {
                        p.expect(",")?;
                    }
                }
                p.expect("]")?;
            } else if p.peek_ident("mem") {
                p.ident()?;
                p.expect(":")?;
                mem = Some(p.expr()?);
            } else {
                // register binding: REG ':' regty
                let rname = p.ident()?;
                let reg = Reg::parse(&rname)
                    .ok_or_else(|| AsmError::new(line, format!("unknown register {rname}")))?;
                p.expect(":")?;
                let t = p.reg_ty()?;
                match reg {
                    Reg::Dst => saw_d = true,
                    Reg::Pc(Color::Green) => saw_pcg = true,
                    Reg::Pc(Color::Blue) => saw_pcb = true,
                    Reg::Gpr(_) => {}
                }
                regs.set(reg, t);
            }
            while p.peek_punct(";") {
                p.expect(";")?;
            }
        }
        p.expect("}")?;
        p.finish()?;

        // Defaults.
        if !saw_d {
            let zero = p.arena.int(0);
            regs.set(Reg::Dst, RegTy::int(Color::Green, zero));
        }
        if !saw_pcg {
            let a = p.arena.int(addr);
            regs.set(Reg::Pc(Color::Green), RegTy::int(Color::Green, a));
        }
        if !saw_pcb {
            let a = p.arena.int(addr);
            regs.set(Reg::Pc(Color::Blue), RegTy::int(Color::Blue, a));
        }
        let mem = match mem {
            Some(m) => m,
            None => {
                let v = p.arena.fresh_var("mem");
                delta.push((v, Kind::Mem));
                p.arena.var_expr(v)
            }
        };
        Ok(CodeTy {
            delta,
            facts,
            regs,
            queue,
            mem,
        })
    }
}

// ---------------------------------------------------------------------------
// Token-stream parser with expression grammar
// ---------------------------------------------------------------------------

struct Parser<'t, 'a> {
    arena: &'a mut ExprArena,
    toks: &'t [Tok],
    pos: usize,
    line: usize,
    labels: &'t BTreeMap<String, i64>,
}

impl Parser<'_, '_> {
    fn err(&self, msg: impl Into<String>) -> AsmError {
        AsmError::new(self.line, msg)
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok, AsmError> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| AsmError::new(self.line, "unexpected end of line"))?;
        self.pos += 1;
        Ok(t)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn finish(&self) -> Result<(), AsmError> {
        if self.at_end() {
            Ok(())
        } else {
            Err(self.err("trailing tokens"))
        }
    }

    fn peek_punct(&self, p: &str) -> bool {
        matches!(self.peek(), Some(Tok::Punct(q)) if *q == p)
    }

    fn peek_ident(&self, s: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(w)) if w == s)
    }

    fn peek_gpr(&self) -> bool {
        matches!(self.peek(), Some(Tok::Ident(w)) if Reg::parse(w).is_some())
    }

    fn expect(&mut self, p: &str) -> Result<(), AsmError> {
        match self.next()? {
            Tok::Punct(q) if q == p => Ok(()),
            t => Err(self.err(format!("expected '{p}', found {t:?}"))),
        }
    }

    fn expect_ident(&mut self, s: &str) -> Result<(), AsmError> {
        match self.next()? {
            Tok::Ident(w) if w == s => Ok(()),
            t => Err(self.err(format!("expected '{s}', found {t:?}"))),
        }
    }

    fn ident(&mut self) -> Result<String, AsmError> {
        match self.next()? {
            Tok::Ident(w) => Ok(w),
            t => Err(self.err(format!("expected identifier, found {t:?}"))),
        }
    }

    fn int(&mut self) -> Result<i64, AsmError> {
        match self.next()? {
            Tok::Int(n) => Ok(n),
            t => Err(self.err(format!("expected integer, found {t:?}"))),
        }
    }

    fn gpr(&mut self) -> Result<Gpr, AsmError> {
        let name = self.ident()?;
        match Reg::parse(&name) {
            Some(Reg::Gpr(g)) => Ok(g),
            _ => Err(self.err(format!("expected general register, found {name}"))),
        }
    }

    /// `G 5`, `B -3`, `G @label`.
    fn cval(&mut self) -> Result<CVal, AsmError> {
        let c = self.ident()?;
        let color = c
            .chars()
            .next()
            .filter(|_| c.len() == 1)
            .and_then(Color::from_letter)
            .ok_or_else(|| self.err(format!("expected color G|B, found {c}")))?;
        if self.peek_punct("@") {
            self.expect("@")?;
            let l = self.ident()?;
            let addr = self
                .labels
                .get(&l)
                .copied()
                .ok_or_else(|| self.err(format!("unknown label @{l}")))?;
            Ok(CVal::new(color, addr))
        } else if self.peek_punct("-") {
            self.expect("-")?;
            Ok(CVal::new(color, self.int()?.wrapping_neg()))
        } else {
            Ok(CVal::new(color, self.int()?))
        }
    }

    /// `int` | `code @L` | bty `ref`* | `(` bty `)`.
    fn basic_ty(&mut self) -> Result<BasicTy, AsmError> {
        let mut t = if self.peek_punct("(") {
            self.expect("(")?;
            let t = self.basic_ty()?;
            self.expect(")")?;
            t
        } else {
            match self.ident()?.as_str() {
                "int" => BasicTy::Int,
                "code" => {
                    self.expect("@")?;
                    let l = self.ident()?;
                    let addr = self
                        .labels
                        .get(&l)
                        .copied()
                        .ok_or_else(|| self.err(format!("unknown label @{l}")))?;
                    BasicTy::Code(addr)
                }
                other => return Err(self.err(format!("unknown basic type {other}"))),
            }
        };
        while self.peek_ident("ref") {
            self.ident()?;
            t = t.reference();
        }
        Ok(t)
    }

    /// `top` | `(C, bty, expr)` | `expr == 0 => (C, bty, expr)`.
    fn reg_ty(&mut self) -> Result<RegTy, AsmError> {
        if self.peek_ident("top") {
            self.ident()?;
            return Ok(RegTy::Top);
        }
        // Look ahead: a conditional type starts with an expression followed
        // by `== 0 =>`. We try the value form first when it starts with '('
        // followed by a color letter and a comma.
        if self.peek_punct("(") {
            let save = self.pos;
            self.expect("(")?;
            if let Some(Tok::Ident(c)) = self.peek() {
                if c.len() == 1 && Color::from_letter(c.chars().next().expect("len 1")).is_some() {
                    let color =
                        Color::from_letter(c.chars().next().expect("len 1")).expect("checked");
                    self.next()?;
                    if self.peek_punct(",") {
                        self.expect(",")?;
                        let basic = self.basic_ty()?;
                        self.expect(",")?;
                        let expr = self.expr()?;
                        self.expect(")")?;
                        return Ok(RegTy::Val(ValTy::new(color, basic, expr)));
                    }
                }
            }
            self.pos = save;
        }
        // Conditional form.
        let guard = self.expr()?;
        self.expect("==")?;
        let z = self.int()?;
        if z != 0 {
            return Err(self.err("conditional guard must compare against 0"));
        }
        self.expect("=>")?;
        self.expect("(")?;
        let c = self.ident()?;
        let color = c
            .chars()
            .next()
            .filter(|_| c.len() == 1)
            .and_then(Color::from_letter)
            .ok_or_else(|| self.err(format!("expected color, found {c}")))?;
        self.expect(",")?;
        let basic = self.basic_ty()?;
        self.expect(",")?;
        let expr = self.expr()?;
        self.expect(")")?;
        Ok(RegTy::Cond {
            guard,
            inner: ValTy::new(color, basic, expr),
        })
    }

    /// A fact: `expr REL expr` with REL ∈ `== != >= <= < >`.
    fn fact(&mut self) -> Result<FactAnn, AsmError> {
        let lhs = self.expr()?;
        let rel = match self.next()? {
            Tok::Punct(p) => p,
            t => return Err(self.err(format!("expected relation, found {t:?}"))),
        };
        let rhs = self.expr()?;
        let diff = self.arena.sub(lhs, rhs);
        Ok(match rel {
            "==" => FactAnn::EqZero(diff),
            "!=" => FactAnn::NeqZero(diff),
            ">=" => FactAnn::Ge0(diff),
            "<=" => {
                let neg = self.arena.sub(rhs, lhs);
                FactAnn::Ge0(neg)
            }
            ">" => {
                let one = self.arena.int(1);
                let e = self.arena.sub(diff, one);
                FactAnn::Ge0(e)
            }
            "<" => {
                let one = self.arena.int(1);
                let neg = self.arena.sub(rhs, lhs);
                let e = self.arena.sub(neg, one);
                FactAnn::Ge0(e)
            }
            other => return Err(self.err(format!("unknown relation {other}"))),
        })
    }

    // Expression grammar: sum of products with function atoms.
    fn expr(&mut self) -> Result<ExprId, AsmError> {
        let mut acc = self.prod()?;
        loop {
            if self.peek_punct("+") {
                self.expect("+")?;
                let rhs = self.prod()?;
                acc = self.arena.add(acc, rhs);
            } else if self.peek_punct("-") {
                self.expect("-")?;
                let rhs = self.prod()?;
                acc = self.arena.sub(acc, rhs);
            } else {
                return Ok(acc);
            }
        }
    }

    fn prod(&mut self) -> Result<ExprId, AsmError> {
        let mut acc = self.atom()?;
        while self.peek_punct("*") {
            self.expect("*")?;
            let rhs = self.atom()?;
            acc = self.arena.mul(acc, rhs);
        }
        Ok(acc)
    }

    fn atom(&mut self) -> Result<ExprId, AsmError> {
        match self.next()? {
            Tok::Int(n) => Ok(self.arena.int(n)),
            Tok::Punct("(") => {
                let e = self.expr()?;
                self.expect(")")?;
                Ok(e)
            }
            Tok::Punct("@") => {
                let l = self.ident()?;
                let addr = self
                    .labels
                    .get(&l)
                    .copied()
                    .ok_or_else(|| self.err(format!("unknown label @{l}")))?;
                Ok(self.arena.int(addr))
            }
            Tok::Ident(w) => match w.as_str() {
                "emp" => Ok(self.arena.emp()),
                "sel" => {
                    self.expect("(")?;
                    let m = self.expr()?;
                    self.expect(",")?;
                    let a = self.expr()?;
                    self.expect(")")?;
                    Ok(self.arena.sel(m, a))
                }
                "upd" => {
                    self.expect("(")?;
                    let m = self.expr()?;
                    self.expect(",")?;
                    let a = self.expr()?;
                    self.expect(",")?;
                    let v = self.expr()?;
                    self.expect(")")?;
                    Ok(self.arena.upd(m, a, v))
                }
                f if BinOp::from_mnemonic(f).is_some() && self.peek_punct("(") => {
                    let op = BinOp::from_mnemonic(f).expect("checked");
                    self.expect("(")?;
                    let a = self.expr()?;
                    self.expect(",")?;
                    let b = self.expr()?;
                    self.expect(")")?;
                    Ok(self.arena.bin(op, a, b))
                }
                name => Ok(self.arena.var(name)),
            },
            t => Err(self.err(format!("unexpected token {t:?} in expression"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STORE5: &str = r#"
// store 5 to the output cell, redundantly
.data
region out at 4096 len 1 : int output

.code
main:
  .pre { mem: m; forall m:mem; }
  mov r1, G 5
  mov r2, G 4096
  stG r2, r1
  mov r3, B 5
  mov r4, B 4096
  stB r4, r3
  halt
"#;

    #[test]
    fn assembles_paper_store_example() {
        let asm = assemble(STORE5).expect("assembles");
        let p = &asm.program;
        assert_eq!(p.code_len(), 7);
        assert_eq!(p.entry, 1);
        assert_eq!(
            p.instr(1),
            Some(&Instr::Mov {
                rd: Gpr(1),
                v: CVal::green(5)
            })
        );
        assert_eq!(
            p.instr(3),
            Some(&Instr::St {
                color: Color::Green,
                rd: Gpr(2),
                rs: Gpr(1)
            })
        );
        assert_eq!(
            p.instr(6),
            Some(&Instr::St {
                color: Color::Blue,
                rd: Gpr(4),
                rs: Gpr(3)
            })
        );
        assert_eq!(p.instr(7), Some(&Instr::Halt));
        assert!(p.region("out").is_some_and(|r| r.output));
    }

    #[test]
    fn pre_defaults_fill_d_pc_and_mem() {
        let asm = assemble(STORE5).expect("assembles");
        let pre = asm.program.precond(1).expect("annotated");
        // d defaults to (G, int, 0)
        match pre.regs.get(Reg::Dst) {
            RegTy::Val(v) => {
                assert_eq!(v.color, Color::Green);
                assert_eq!(asm.arena.display(v.expr), "0");
            }
            other => panic!("unexpected d type {other:?}"),
        }
        // pcs default to the label's address
        match pre.regs.get(Reg::Pc(Color::Green)) {
            RegTy::Val(v) => assert_eq!(asm.arena.display(v.expr), "1"),
            other => panic!("unexpected pcG type {other:?}"),
        }
        assert!(pre.queue.is_empty());
    }

    #[test]
    fn label_immediates_resolve_forward() {
        let src = r#"
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G @loop
  mov r2, B @loop
  jmpG r1
  jmpB r2
loop:
  .pre { forall m:mem; mem: m; }
  halt
"#;
        let asm = assemble(src).expect("assembles");
        assert_eq!(asm.program.label_addr("loop"), Some(5));
        assert_eq!(
            asm.program.instr(1),
            Some(&Instr::Mov {
                rd: Gpr(1),
                v: CVal::green(5)
            })
        );
    }

    #[test]
    fn precondition_full_syntax_parses() {
        let src = r#"
.code
main:
  .pre {
    forall x:int, n:int, m:mem;
    fact x >= 0;
    fact x < n;
    r1: (G, int, x + 1);
    r2: (B, int ref, 4096);
    r3: (G, code @main, @main);
    r7: top;
    d: slt(x, n) == 0 => (G, code @main, @main);
    queue: [(x, x * 2)];
    mem: upd(m, 4096, x);
  }
  halt
"#;
        let asm = assemble(src).expect("assembles");
        let pre = asm.program.precond(1).expect("annotated");
        assert_eq!(pre.delta.len(), 3);
        assert_eq!(pre.facts.len(), 2);
        assert_eq!(pre.queue.len(), 1);
        match pre.regs.get(Reg::r(2)) {
            RegTy::Val(v) => {
                assert_eq!(v.color, Color::Blue);
                assert_eq!(v.basic, BasicTy::Int.reference());
            }
            other => panic!("unexpected type {other:?}"),
        }
        match pre.regs.get(Reg::r(3)) {
            RegTy::Val(v) => assert_eq!(v.basic, BasicTy::Code(1)),
            other => panic!("unexpected type {other:?}"),
        }
        assert!(matches!(pre.regs.get(Reg::Dst), RegTy::Cond { .. }));
        assert_eq!(pre.regs.get(Reg::r(7)), &RegTy::Top);
    }

    #[test]
    fn alu_and_branch_instructions_parse() {
        let src = r#"
.code
main:
  .pre { forall m:mem; mem: m; }
  add r1, r2, r3
  sub r1, r2, G 7
  mul r4, r4, B -2
  slt r5, r1, r2
  bzG r5, r6
  bzB r7, r8
  halt
"#;
        let asm = assemble(src).expect("assembles");
        let p = &asm.program;
        assert_eq!(
            p.instr(2),
            Some(&Instr::Op {
                op: BinOp::Sub,
                rd: Gpr(1),
                rs: Gpr(2),
                src2: OpSrc::Imm(CVal::green(7)),
            })
        );
        assert_eq!(
            p.instr(3),
            Some(&Instr::Op {
                op: BinOp::Mul,
                rd: Gpr(4),
                rs: Gpr(4),
                src2: OpSrc::Imm(CVal::blue(-2)),
            })
        );
        assert_eq!(
            p.instr(5),
            Some(&Instr::Bz {
                color: Color::Green,
                rz: Gpr(5),
                rd: Gpr(6)
            })
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let src = ".code\nmain:\n  .pre { mem: m; forall m:mem; }\n  bogus r1, r2\n";
        let err = assemble(src).expect_err("bad mnemonic");
        assert_eq!(err.line, 4);
        assert!(err.msg.contains("bogus"));
    }

    #[test]
    fn duplicate_label_rejected() {
        let src = ".code\nmain:\n  .pre { forall m:mem; mem: m; }\n  halt\nmain:\n  halt\n";
        let err = assemble(src).expect_err("duplicate");
        assert!(err.msg.contains("duplicate label"));
    }

    #[test]
    fn unknown_label_rejected() {
        let src = ".code\nmain:\n  .pre { forall m:mem; mem: m; }\n  mov r1, G @nowhere\n  halt\n";
        let err = assemble(src).expect_err("unknown label");
        assert!(err.msg.contains("nowhere"));
    }

    #[test]
    fn entry_directive_overrides_main() {
        let src = r#"
.entry start
.code
other:
  .pre { forall m:mem; mem: m; }
  halt
start:
  .pre { forall m:mem; mem: m; }
  halt
"#;
        let asm = assemble(src).expect("assembles");
        assert_eq!(asm.program.entry, 2);
    }

    #[test]
    fn negative_literals_vs_subtraction() {
        let src = r#"
.code
main:
  .pre { forall x:int, m:mem; r1: (G, int, x - 1); r2: (G, int, -1); mem: m; }
  halt
"#;
        let asm = assemble(src).expect("assembles");
        let pre = asm.program.precond(1).expect("annotated");
        let r1 = pre.regs.get(Reg::r(1)).as_val().expect("val").expr;
        assert_eq!(asm.arena.display(r1), "(sub x 1)");
        let r2 = pre.regs.get(Reg::r(2)).as_val().expect("val").expr;
        assert_eq!(asm.arena.display(r2), "-1");
    }
}
