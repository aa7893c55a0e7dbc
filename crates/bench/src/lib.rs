//! Shared harness code regenerating every table and figure of the paper's
//! evaluation (§5). See DESIGN.md's per-experiment index:
//!
//! * **E1 / Figure 10** — [`fig10_rows`]: per-benchmark execution time of
//!   TAL-FT (ordered) and TAL-FT-without-ordering, normalized to the
//!   unprotected baseline, plus the geometric mean (paper: 1.34× / 1.30×).
//! * **E2–E4 / Theorems** — [`coverage_row`]: exhaustive-in-sites,
//!   strided-in-time single-fault campaigns over protected and baseline
//!   binaries (protected must show zero SDC; baseline must not).
//! * **E6 / ablation** — [`width_sweep`]: the Figure 10 ratio as a function
//!   of issue width.
//! * **E14 / mutation oracle** — [`mutation_summary`]: per-operator
//!   mutation scores of the checker against the adversarial catalog, with
//!   the `k = 1` campaign as ground truth.

#![warn(missing_docs)]

pub mod report;

use talft_compiler::{compile, vir::interpret, CompileOptions, Compiled};
use talft_faultsim::{
    golden_run, multi_fault_plans, run_campaign, run_plan_campaign, run_plan_campaign_reference,
    CampaignConfig, CampaignReport,
};
use talft_oracle::{run_oracle, MutantOutcome, MutationOp, OpScore, OracleConfig};
use talft_sim::{simulate, BlockVisit, MachineModel};
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

/// Compile a kernel and replay its dynamic block sequence through the three
/// schedule variants.
pub fn fig10_row(kernel: &Kernel, model: &MachineModel) -> Result<Fig10Row, String> {
    let opts = CompileOptions {
        model: *model,
        ..CompileOptions::default()
    };
    let c = compile(&kernel.source, &opts).map_err(|e| format!("{}: {e}", kernel.name))?;
    let visits = reference_visits(&c)?;
    Ok(Fig10Row {
        name: kernel.name,
        base_cycles: simulate(&c.baseline.sched, &visits, model),
        talft_cycles: simulate(&c.protected.sched, &visits, model),
        talft_unordered_cycles: simulate(&c.protected_unordered_sched, &visits, model),
    })
}

/// The dynamic block-visit sequence of a compiled kernel's reference run.
pub fn reference_visits(c: &Compiled) -> Result<Vec<BlockVisit>, String> {
    let r = interpret(&c.vir, INTERP_BUDGET);
    if !r.halted {
        return Err("reference run did not halt".into());
    }
    Ok(r.visits)
}

/// All Figure 10 rows at a scale.
pub fn fig10_rows(scale: Scale, model: &MachineModel) -> Result<Vec<Fig10Row>, String> {
    talft_suite::kernels(scale)
        .iter()
        .map(|k| fig10_row(k, model))
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
    let go = geomean(&rows.iter().map(Fig10Row::ratio_ordered).collect::<Vec<_>>());
    let gu = geomean(
        &rows
            .iter()
            .map(Fig10Row::ratio_unordered)
            .collect::<Vec<_>>(),
    );
    writeln!(s, "| **geomean** | | | | **{go:.3}x** | **{gu:.3}x** |").expect("write to string");
    s
}

/// One row of the fault-coverage table (E2/E3/E4).
#[derive(Debug, Clone)]
pub struct CoverageRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Campaign over the protected binary.
    pub protected: CampaignReport,
    /// Campaign over the unprotected baseline.
    pub baseline: CampaignReport,
}

/// Run the injection campaigns for one kernel.
pub fn coverage_row(kernel: &Kernel, cfg: &CampaignConfig) -> Result<CoverageRow, String> {
    let c = compile(&kernel.source, &CompileOptions::default())
        .map_err(|e| format!("{}: {e}", kernel.name))?;
    Ok(CoverageRow {
        name: kernel.name,
        protected: run_campaign(&c.protected.program, cfg)
            .map_err(|e| format!("{} (protected): {e}", kernel.name))?,
        baseline: run_campaign(&c.baseline.program, cfg)
            .map_err(|e| format!("{} (baseline): {e}", kernel.name))?,
    })
}

/// Render the coverage table as markdown. The `CEs dropped` column counts
/// counterexamples beyond the 32-entry cap (`prot/base`), so a truncated
/// violation list is visible rather than silent.
#[must_use]
pub fn render_coverage(rows: &[CoverageRow]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(
        s,
        "| benchmark | inj (prot) | masked | detected | SDC | inj (base) | SDC (base) | CEs dropped |"
    )
    .expect("write to string");
    writeln!(s, "|---|---:|---:|---:|---:|---:|---:|---:|").expect("write to string");
    for r in rows {
        writeln!(
            s,
            "| {} | {} | {} | {} | **{}** | {} | {} | {}/{} |",
            r.name,
            r.protected.total,
            r.protected.masked,
            r.protected.detected,
            r.protected.sdc + r.protected.other_violations,
            r.baseline.total,
            r.baseline.sdc,
            r.protected.violations_truncated,
            r.baseline.violations_truncated,
        )
        .expect("write to string");
    }
    s
}

/// One row of the k-fault boundary table (E13): the protected binary
/// under a sampled `k`-fault campaign, where Theorem 4 makes no promise.
#[derive(Debug, Clone)]
pub struct MultifaultRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Fault multiplicity of the campaign.
    pub k: u32,
    /// Campaign over the protected binary.
    pub protected: CampaignReport,
}

/// Run a sampled `k`-fault campaign over one kernel's protected binary.
/// A `k ≥ 2` plan set also runs through the sequential reference
/// (`campaignperf` cross-checks `k = 1` on every Tiny kernel).
///
/// # Errors
///
/// Fails on compile/golden errors, and on a report that differs from the
/// reference's — verdict exactness is part of the row's contract, so a
/// disagreement poisons the whole table.
pub fn multifault_row(
    kernel: &Kernel,
    cfg: &CampaignConfig,
    k: u32,
) -> Result<MultifaultRow, String> {
    let c = compile(&kernel.source, &CompileOptions::default())
        .map_err(|e| format!("{}: {e}", kernel.name))?;
    let program = &c.protected.program;
    let golden = golden_run(program, cfg).map_err(|e| format!("{}: {e}", kernel.name))?;
    let plans = multi_fault_plans(program, cfg, &golden, k);
    let report = run_plan_campaign(program, cfg, &golden, &plans);
    if k >= 2 {
        let reference = run_plan_campaign_reference(program, cfg, &golden, &plans);
        if report != reference {
            return Err(format!(
                "{} (k={k}): report diverged from the reference\nbatched:   {report:?}\nreference: {reference:?}",
                kernel.name
            ));
        }
    }
    Ok(MultifaultRow {
        name: kernel.name,
        k,
        protected: report,
    })
}

/// Render the k-fault boundary table as markdown. SDC here is *expected*
/// for `k ≥ 2` — it quantifies the edge of the single-event-upset model,
/// not a Theorem 4 violation — so the table leads with detection coverage.
#[must_use]
pub fn render_multifault(rows: &[MultifaultRow]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(
        s,
        "| benchmark | k | plans | masked | detected | SDC | other | coverage |"
    )
    .expect("write to string");
    writeln!(s, "|---|---:|---:|---:|---:|---:|---:|---:|").expect("write to string");
    for r in rows {
        writeln!(
            s,
            "| {} | {} | {} | {} | {} | {} | {} | {:.1}% |",
            r.name,
            r.k,
            r.protected.total,
            r.protected.masked,
            r.protected.detected,
            r.protected.sdc,
            r.protected.other_violations,
            100.0 * r.protected.coverage(),
        )
        .expect("write to string");
    }
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

/// E6: geomean overhead as a function of issue width.
pub fn width_sweep(scale: Scale, widths: &[u32]) -> Result<Vec<(u32, f64, f64)>, String> {
    let mut out = Vec::new();
    for &w in widths {
        let model = MachineModel {
            width: w,
            ..MachineModel::default()
        };
        let rows = fig10_rows(scale, &model)?;
        let go = geomean(&rows.iter().map(Fig10Row::ratio_ordered).collect::<Vec<_>>());
        let gu = geomean(
            &rows
                .iter()
                .map(Fig10Row::ratio_unordered)
                .collect::<Vec<_>>(),
        );
        out.push((w, go, gu));
    }
    Ok(out)
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
        let model = MachineModel::default();
        let row = fig10_row(&ks[0], &model).expect("row");
        // Protected code must not be faster than baseline, and the overhead
        // must be well under the naive 2×+ bound on a 6-wide machine.
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
