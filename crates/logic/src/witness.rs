//! Failure witnesses for entailment queries (DESIGN.md §13).
//!
//! When the checker or a lint cannot prove an obligation, a bare "cannot
//! prove" is hard to act on. An [`EntailWitness`] reconstructs *why* the
//! proof failed, on demand and independently of which solver tier answered
//! (memo cache, interval, or FM — all verdict-identical, so the
//! explanation may be recomputed from the hypotheses alone):
//!
//! * a constant residue ("the sides differ by the constant 3");
//! * an atom no hypothesis constrains ("no fact bounds `r3'`");
//! * or the best provable interval versus the needed relation ("facts
//!   bound `(sub n i)` to \[0, 7\], need ≥ 8").
//!
//! `talft-core` attaches the rendered note to TF000 diagnostics and
//! `talft-analysis` to lint notes. Because the builders re-derive the
//! explanation from the same `Facts`, switching the memo or interval tier
//! off cannot change diagnostic text — `tests/interval_prop.rs` pins
//! this.

use crate::entail::Facts;
use crate::expr::{ExprArena, ExprId};
use crate::interval;
use crate::norm::{norm_int, Poly};

/// Structured explanation of a failed entailment query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntailWitness {
    /// The rendered query, e.g. ``"`i` = `n`"``.
    query: String,
    /// Why the proof failed, e.g. ``"no fact bounds `n`"``.
    reason: String,
    /// Rendered hypotheses that mention the query's atoms (the facts the
    /// prover actually consulted), capped for display.
    used: Vec<String>,
}

/// Hypotheses rendered into a note beyond this count are summarized.
const MAX_USED: usize = 3;

impl EntailWitness {
    /// The rendered query.
    #[must_use]
    pub fn query(&self) -> &str {
        &self.query
    }

    /// The failure reason.
    #[must_use]
    pub fn reason(&self) -> &str {
        &self.reason
    }

    /// Hypotheses mentioning the query's atoms, rendered.
    #[must_use]
    pub fn used_facts(&self) -> &[String] {
        &self.used
    }

    /// The full single-line note: `cannot prove <query>: <reason>`, with
    /// the consulted hypotheses appended when any exist.
    #[must_use]
    pub fn note(&self) -> String {
        let mut s = format!("cannot prove {}: {}", self.query, self.reason);
        if !self.used.is_empty() {
            s.push_str(" [with ");
            s.push_str(&self.used.join(", "));
            s.push(']');
        }
        s
    }
}

/// What relation the failed query needed of its residue polynomial.
#[derive(Clone, Copy)]
enum Need {
    Zero,
    Ge0,
    NonZero,
}

impl Facts {
    /// Explain why `e1 = e2` is not provable (call after a failed
    /// [`Facts::prove_eq`]).
    pub fn explain_eq(&self, arena: &mut ExprArena, e1: ExprId, e2: ExprId) -> EntailWitness {
        let query = format!("`{}` = `{}`", arena.display(e1), arena.display(e2));
        let p1 = norm_int(arena, self, e1);
        let p2 = norm_int(arena, self, e2);
        self.diagnose(arena, query, &p1.sub(&p2), Need::Zero)
    }

    /// Explain why `e = 0` is not provable.
    pub fn explain_eq_zero(&self, arena: &mut ExprArena, e: ExprId) -> EntailWitness {
        let query = format!("`{}` = 0", arena.display(e));
        let p = norm_int(arena, self, e);
        self.diagnose(arena, query, &p, Need::Zero)
    }

    /// Explain why `e ≥ 0` is not provable.
    pub fn explain_ge0(&self, arena: &mut ExprArena, e: ExprId) -> EntailWitness {
        let query = format!("`{}` >= 0", arena.display(e));
        let p = norm_int(arena, self, e);
        self.diagnose(arena, query, &p, Need::Ge0)
    }

    /// Explain why `e1 ≠ e2` is not provable.
    pub fn explain_neq(&self, arena: &mut ExprArena, e1: ExprId, e2: ExprId) -> EntailWitness {
        let query = format!("`{}` != `{}`", arena.display(e1), arena.display(e2));
        let p1 = norm_int(arena, self, e1);
        let p2 = norm_int(arena, self, e2);
        self.diagnose(arena, query, &p1.sub(&p2), Need::NonZero)
    }

    /// Explain why `e ≠ 0` is not provable.
    pub fn explain_neq_zero(&self, arena: &mut ExprArena, e: ExprId) -> EntailWitness {
        let query = format!("`{}` != 0", arena.display(e));
        let p = norm_int(arena, self, e);
        self.diagnose(arena, query, &p, Need::NonZero)
    }

    fn diagnose(&self, arena: &ExprArena, query: String, d: &Poly, need: Need) -> EntailWitness {
        if let Some(c) = d.as_constant() {
            let reason = match need {
                Need::Zero => format!("the sides differ by the constant {c}"),
                Need::Ge0 => format!("it normalizes to the constant {c}"),
                Need::NonZero => "both sides normalize to the same polynomial".to_owned(),
            };
            return EntailWitness {
                query,
                reason,
                used: Vec::new(),
            };
        }
        let atoms = poly_atoms(d);
        let used = self.render_used(arena, &atoms);
        let env = self.interval_env();
        // First an atom nothing constrains — the most common failure and
        // the most actionable message.
        for &a in &atoms {
            let itv = interval::eval_tree(arena, &env, true, a);
            if itv.is_some_and(|iv| !iv.is_narrowed()) && !self.mentions(a) {
                return EntailWitness {
                    query,
                    reason: format!("no fact bounds `{}`", arena.display(a)),
                    used,
                };
            }
        }
        // Otherwise report the best provable range of the residue.
        let reason = match poly_range(arena, &env, d) {
            Some((lo, hi)) => {
                let needed = match need {
                    Need::Zero => "= 0",
                    Need::Ge0 => ">= 0",
                    Need::NonZero => "!= 0",
                };
                format!(
                    "facts only bound `{}` to {}, need {}",
                    render_poly(arena, d),
                    render_range(lo, hi),
                    needed
                )
            }
            None => format!("the facts do not determine `{}`", render_poly(arena, d)),
        };
        EntailWitness {
            query,
            reason,
            used,
        }
    }

    /// Whether any stored hypothesis mentions the atom.
    fn mentions(&self, atom: ExprId) -> bool {
        let (solved, eqs, neqs, ges) = self.hyp_views();
        solved
            .iter()
            .any(|(a, p)| *a == atom || p.mentions_atom(atom))
            || eqs
                .iter()
                .chain(neqs.iter())
                .chain(ges.iter())
                .any(|p| p.mentions_atom(atom))
    }

    /// Render the hypotheses that mention any of the query's atoms.
    fn render_used(&self, arena: &ExprArena, atoms: &[ExprId]) -> Vec<String> {
        let relevant = |p: &Poly| atoms.iter().any(|&a| p.mentions_atom(a));
        let (solved, eqs, neqs, ges) = self.hyp_views();
        let mut used: Vec<String> = Vec::new();
        let mut extra = 0usize;
        let mut push = |s: String| {
            if used.len() < MAX_USED {
                used.push(s);
            } else {
                extra += 1;
            }
        };
        for (a, p) in solved {
            if atoms.contains(a) || relevant(p) {
                push(format!(
                    "`{}` = `{}`",
                    arena.display(*a),
                    render_poly(arena, p)
                ));
            }
        }
        for p in eqs {
            if relevant(p) {
                push(format!("`{}` = 0", render_poly(arena, p)));
            }
        }
        for p in neqs {
            if relevant(p) {
                push(format!("`{}` != 0", render_poly(arena, p)));
            }
        }
        for p in ges {
            if relevant(p) {
                push(format!("`{}` >= 0", render_poly(arena, p)));
            }
        }
        if extra > 0 {
            used.push(format!("{extra} more"));
        }
        used
    }
}

/// Distinct atoms of a polynomial, in term order.
fn poly_atoms(p: &Poly) -> Vec<ExprId> {
    let mut out = Vec::new();
    for (m, _) in p.terms() {
        for &a in m.iter() {
            if !out.contains(&a) {
                out.push(a);
            }
        }
    }
    out
}

/// Best provable `[lo, hi]` of `p` from per-atom intervals (nonlinear
/// monomials are unbounded). `None` when evaluation declines.
fn poly_range(
    arena: &ExprArena,
    env: &crate::interval::IntervalEnv,
    p: &Poly,
) -> Option<(Option<i128>, Option<i128>)> {
    let mut lo: Option<i128> = Some(0);
    let mut hi: Option<i128> = Some(0);
    for (m, c) in p.terms() {
        let c = i128::from(c);
        let (alo, ahi): (Option<i128>, Option<i128>) = if m.is_empty() {
            (Some(1), Some(1))
        } else if m.len() == 1 {
            let iv = interval::eval_tree(arena, env, true, m[0])?;
            (iv.lo.map(i128::from), iv.hi.map(i128::from))
        } else {
            (None, None)
        };
        // contribution of c·atom: c > 0 keeps orientation, c < 0 flips it.
        let (clo, chi) = if c >= 0 {
            (alo.map(|v| v * c), ahi.map(|v| v * c))
        } else {
            (ahi.map(|v| v * c), alo.map(|v| v * c))
        };
        lo = match (lo, clo) {
            (Some(a), Some(b)) => Some(a + b),
            _ => None,
        };
        hi = match (hi, chi) {
            (Some(a), Some(b)) => Some(a + b),
            _ => None,
        };
    }
    Some((lo, hi))
}

fn render_range(lo: Option<i128>, hi: Option<i128>) -> String {
    match (lo, hi) {
        (Some(l), Some(h)) => format!("[{l}, {h}]"),
        (Some(l), None) => format!("[{l}, +inf)"),
        (None, Some(h)) => format!("(-inf, {h}]"),
        (None, None) => "(-inf, +inf)".to_owned(),
    }
}

/// Render a polynomial readably: `n - i - 1`, `2*i + (sel m j)`.
#[must_use]
pub(crate) fn render_poly(arena: &ExprArena, p: &Poly) -> String {
    let mut s = String::new();
    for (m, c) in p.terms() {
        let mag = c.unsigned_abs();
        let first = s.is_empty();
        if c < 0 {
            s.push_str(if first { "-" } else { " - " });
        } else if !first {
            s.push_str(" + ");
        }
        if m.is_empty() {
            s.push_str(&mag.to_string());
        } else {
            if mag != 1 {
                s.push_str(&mag.to_string());
                s.push('*');
            }
            for (i, &a) in m.iter().enumerate() {
                if i > 0 {
                    s.push('*');
                }
                s.push_str(&arena.display(a));
            }
        }
    }
    if s.is_empty() {
        s.push('0');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_residue_is_explained() {
        let mut a = ExprArena::new();
        let f = Facts::new();
        let x = a.var("x");
        let one = a.int(1);
        let x1 = a.add(x, one);
        assert!(!f.prove_eq(&mut a, x, x1));
        let w = f.explain_eq(&mut a, x, x1);
        assert_eq!(
            w.note(),
            "cannot prove `x` = `(add x 1)`: the sides differ by the constant -1"
        );
    }

    #[test]
    fn unbounded_atom_is_named() {
        let mut a = ExprArena::new();
        let f = Facts::new();
        let x = a.var("x");
        let y = a.var("y");
        assert!(!f.prove_eq(&mut a, x, y));
        let w = f.explain_eq(&mut a, x, y);
        assert_eq!(w.reason(), "no fact bounds `x`");
        assert!(w.used_facts().is_empty());
    }

    #[test]
    fn insufficient_range_is_reported_with_facts() {
        let mut a = ExprArena::new();
        let mut f = Facts::new();
        let i = a.var("i");
        f.assume_in_range(&mut a, i, 0, 8); // 0 ≤ i ≤ 7
        let seven = a.int(7);
        let d = a.sub(i, seven);
        assert!(!f.prove_ge0(&mut a, d)); // needs i ≥ 7, only i ≥ 0 known
        let w = f.explain_ge0(&mut a, d);
        assert_eq!(
            w.note(),
            "cannot prove `(sub i 7)` >= 0: facts only bound `-7 + i` to [-7, 0], \
             need >= 0 [with `i` >= 0, `7 - i` >= 0]"
        );
    }

    #[test]
    fn witness_text_is_cache_mode_independent() {
        let mut texts = Vec::new();
        for (iv, memo) in [(true, true), (true, false), (false, true), (false, false)] {
            let mut a = ExprArena::new();
            a.solver_interval = iv;
            a.solver_memo = memo;
            let mut f = Facts::new();
            let i = a.var("i");
            let n = a.var("n");
            f.assume_ge0(&mut a, i);
            let d = a.sub(n, i);
            let _ = f.prove_ge0(&mut a, d);
            texts.push(f.explain_ge0(&mut a, d).note());
        }
        assert!(texts.windows(2).all(|w| w[0] == w[1]), "{texts:?}");
    }
}
