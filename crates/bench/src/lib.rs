//! Shared harness code regenerating every table and figure of the paper's
//! evaluation (§5). See DESIGN.md's per-experiment index:
//!
//! * **E1 / Figure 10** — [`fig10_rows`]: per-benchmark execution time of
//!   TAL-FT (ordered) and TAL-FT-without-ordering, normalized to the
//!   unprotected baseline, plus the geometric mean (paper: 1.34× / 1.30×).
//!   The `fig10` bin also recomputes its geomeans with one
//!   [`CompileOptions`] field changed per row ([`fig10_row`]): the issue
//!   width (E6), inverted loops (E9) and the optimizer (E10).
//! * **E2–E4, E13, E16, E18 / campaigns** — the `campaign` bin: one
//!   per-kernel loop of exhaustive-in-sites, strided-in-time single-fault
//!   campaigns over protected and baseline binaries (protected must show
//!   zero SDC; baseline must not), sampled k≥2 campaigns, and the
//!   reference-engine and shard legs on the same plans.
//! * **E14 / mutation oracle** — [`mutation_summary`]: per-operator
//!   mutation scores of the checker against the adversarial catalog, with
//!   the `k = 1` campaign as ground truth.
//! * **E17, E22 / static analysis** — the `analysis` bin: one per-kernel
//!   loop cross-validating the zap and pair analyzers against k=1 and k=2
//!   injection grids.

#![warn(missing_docs)]

pub mod report;

use talft_compiler::{compile, vir::interpret, CompileOptions, Compiled};
use talft_oracle::{run_oracle, MutantOutcome, MutationOp, OpScore, OracleConfig};
use talft_sim::{simulate, MachineModel};
use talft_suite::{Kernel, Scale};

/// Reference-run budget for timing replays.
pub const INTERP_BUDGET: u64 = 200_000_000;

/// One row of Figure 10.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Baseline (unprotected) cycles.
    pub base_cycles: u64,
    /// Protected cycles with the green≺blue ordering constraint.
    pub talft_cycles: u64,
    /// Protected cycles without the ordering constraint.
    pub talft_unordered_cycles: u64,
}

impl Fig10Row {
    /// `TAL-FT / baseline` (the paper's normalized execution time).
    #[must_use]
    pub fn ratio_ordered(&self) -> f64 {
        self.talft_cycles as f64 / self.base_cycles as f64
    }

    /// `TAL-FT-without-ordering / baseline`.
    #[must_use]
    pub fn ratio_unordered(&self) -> f64 {
        self.talft_unordered_cycles as f64 / self.base_cycles as f64
    }
}

/// Compile a kernel with `opts` and time it on `opts.model` ([`compiled_row`]).
pub fn fig10_row(kernel: &Kernel, opts: &CompileOptions) -> Result<Fig10Row, String> {
    let c = compile(&kernel.source, opts).map_err(|e| format!("{}: {e}", kernel.name))?;
    compiled_row(kernel.name, &c, &opts.model).map_err(|e| format!("{}: {e}", kernel.name))
}

/// Replay a compiled program's reference run (at most [`INTERP_BUDGET`]
/// steps) through its baseline, ordered and unordered protected schedules.
pub fn compiled_row(
    name: &'static str,
    c: &Compiled,
    model: &MachineModel,
) -> Result<Fig10Row, String> {
    let r = interpret(&c.vir, INTERP_BUDGET);
    if !r.halted {
        return Err("reference run did not halt".into());
    }
    Ok(Fig10Row {
        name,
        base_cycles: simulate(&c.baseline.sched, &r.visits, model),
        talft_cycles: simulate(&c.protected.sched, &r.visits, model),
        talft_unordered_cycles: simulate(&c.protected_unordered_sched, &r.visits, model),
    })
}

/// All Figure 10 rows at a scale.
pub fn fig10_rows(scale: Scale, model: &MachineModel) -> Result<Vec<Fig10Row>, String> {
    let opts = CompileOptions {
        model: *model,
        ..CompileOptions::default()
    };
    talft_suite::kernels(scale)
        .iter()
        .map(|k| fig10_row(k, &opts))
        .collect()
}

/// Geometric mean of a ratio column.
#[must_use]
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = ratios.iter().map(|r| r.ln()).sum();
    (log_sum / ratios.len() as f64).exp()
}

/// The ordered and unordered geomeans of a set of rows.
#[must_use]
pub fn geomeans(rows: &[Fig10Row]) -> (f64, f64) {
    let ordered: Vec<f64> = rows.iter().map(Fig10Row::ratio_ordered).collect();
    let unordered: Vec<f64> = rows.iter().map(Fig10Row::ratio_unordered).collect();
    (geomean(&ordered), geomean(&unordered))
}

/// Render Figure 10 as a markdown table (the paper's bar chart, in rows).
#[must_use]
pub fn render_fig10(rows: &[Fig10Row]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(
        s,
        "| benchmark | baseline cyc | TAL-FT cyc | TAL-FT (no order) cyc | TAL-FT | TAL-FT w/o ordering |"
    )
    .expect("write to string");
    writeln!(s, "|---|---:|---:|---:|---:|---:|").expect("write to string");
    for r in rows {
        writeln!(
            s,
            "| {} | {} | {} | {} | {:.3}x | {:.3}x |",
            r.name,
            r.base_cycles,
            r.talft_cycles,
            r.talft_unordered_cycles,
            r.ratio_ordered(),
            r.ratio_unordered()
        )
        .expect("write to string");
    }
    let (go, gu) = geomeans(rows);
    writeln!(s, "| **geomean** | | | | **{go:.3}x** | **{gu:.3}x** |").expect("write to string");
    s
}

/// E14: aggregated result of the mutation-oracle sweep over a kernel set.
#[derive(Debug, Clone, Default)]
pub struct MutationSummary {
    /// Per-operator tallies, in catalog order.
    pub per_op: Vec<(MutationOp, OpScore)>,
    /// Surviving (equivalent) mutants: `(kernel, outcome)`.
    pub equivalents: Vec<(&'static str, MutantOutcome)>,
    /// Checker soundness gaps: `(kernel, outcome)` — must stay empty.
    pub campaign_only: Vec<(&'static str, MutantOutcome)>,
}

impl MutationSummary {
    /// Total mutants across all operators.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.per_op.iter().map(|(_, s)| s.total).sum()
    }

    /// Overall static mutation score — fraction of mutants killed by the
    /// checker or by an error-severity lint (1.0 when no mutants).
    #[must_use]
    pub fn score(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 1.0;
        }
        let killed: u64 = self
            .per_op
            .iter()
            .map(|(_, s)| s.killed_by_checker + s.killed_by_lint)
            .sum();
        killed as f64 / total as f64
    }
}

/// Run the E14 mutation oracle over each kernel's protected binary and
/// aggregate per operator.
pub fn mutation_summary(kernels: &[Kernel], cfg: &OracleConfig) -> Result<MutationSummary, String> {
    let mut agg: std::collections::BTreeMap<MutationOp, OpScore> =
        std::collections::BTreeMap::new();
    let mut summary = MutationSummary::default();
    for kernel in kernels {
        let mut c = compile(&kernel.source, &CompileOptions::default())
            .map_err(|e| format!("{}: {e}", kernel.name))?;
        for o in run_oracle(&c.protected.program, &mut c.protected.arena, cfg) {
            agg.entry(o.op).or_default().absorb(&o.verdict);
            if o.verdict.killed_by_campaign_only() {
                summary.campaign_only.push((kernel.name, o));
            } else if !o.verdict.killed_by_checker() && !o.verdict.killed_by_lint() {
                summary.equivalents.push((kernel.name, o));
            }
        }
    }
    // catalog order, not BTreeMap order, so the table reads like the docs
    summary.per_op = MutationOp::ALL
        .iter()
        .filter_map(|op| agg.get(op).map(|s| (*op, *s)))
        .collect();
    Ok(summary)
}

/// Render the E14 table as markdown, plus the equivalent-mutant appendix
/// (every survivor is listed — an undocumented survivor is a red flag).
#[must_use]
pub fn render_mutation(s: &MutationSummary) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "| operator | principle | mutants | killed by checker | killed by lint | campaign-only | equivalent | score |"
    )
    .expect("write to string");
    writeln!(out, "|---|---|---:|---:|---:|---:|---:|---:|").expect("write to string");
    for (op, sc) in &s.per_op {
        writeln!(
            out,
            "| {} | {} | {} | {} | {} | **{}** | {} | {:.1}% |",
            op.name(),
            op.principle(),
            sc.total,
            sc.killed_by_checker,
            sc.killed_by_lint,
            sc.killed_by_campaign_only,
            sc.equivalent,
            100.0 * sc.score(),
        )
        .expect("write to string");
    }
    writeln!(
        out,
        "| **overall** | | **{}** | | | **{}** | {} | **{:.1}%** |",
        s.total(),
        s.campaign_only.len(),
        s.equivalents.len(),
        100.0 * s.score(),
    )
    .expect("write to string");
    if !s.equivalents.is_empty() {
        writeln!(out, "\nEquivalent (surviving) mutants:").expect("write to string");
        for (kernel, o) in &s.equivalents {
            writeln!(
                out,
                "- `{}` @ {} on `{}`: {}",
                o.op.name(),
                o.addr,
                kernel,
                o.detail
            )
            .expect("write to string");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fig10_row_shape_on_one_kernel() {
        let ks = talft_suite::kernels(Scale::Tiny);
        let row = fig10_row(&ks[0], &CompileOptions::default()).expect("row");
        // Protected code must not be faster than baseline, and the overhead
        // must stay under 2.5× on the default 3-wide machine.
        assert!(row.talft_cycles >= row.base_cycles);
        assert!(row.ratio_ordered() < 2.5, "ratio {}", row.ratio_ordered());
        assert!(row.ratio_unordered() <= row.ratio_ordered() + 1e-9);
    }

    #[test]
    fn render_includes_geomean() {
        let rows = vec![Fig10Row {
            name: "x",
            base_cycles: 100,
            talft_cycles: 130,
            talft_unordered_cycles: 125,
        }];
        let s = render_fig10(&rows);
        assert!(s.contains("geomean"));
        assert!(s.contains("1.300x"));
    }
}
