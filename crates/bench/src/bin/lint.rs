//! E17 / **static fault-coverage table**: the zap-vulnerability analyzer
//! (talft-analysis) cross-validated against k=1 injection-campaign grids
//! over every suite kernel, plus lint quietness on checker-accepted
//! output. Three hard gates, any failure exits nonzero:
//!
//! * a **differential mismatch** — a statically Detected/Benign cell that
//!   a grid injection drove to SDC — contradicts the analyzer's soundness
//!   claim (the static analogue of Theorem 4);
//! * an **error-severity lint** on a protected (checker-accepted) binary
//!   breaks the "lints are a strict under-approximation of the checker"
//!   contract;
//! * **SDC on a protected grid** is a Theorem 4 violation outright.
//!
//! Per kernel the table reports the static cell tally (detected / benign /
//! vulnerable) and the resulting *static coverage* — the fraction of cells
//! provably safe under a single upset — for the protected binary and the
//! unprotected baseline, next to the grid evidence.
//!
//! Usage: `cargo run --release -p talft-bench --bin lint
//!          [-- --stride N] [--json <path>] [--check <path>]`
//!
//! `--stride N` (default 1 = exhaustive grid) samples every Nth step;
//! `TALFT_STRIDE_SCALE` scales it as everywhere else. `--check <path>`
//! re-validates an existing report through [`report::check`] and gates on
//! the same count invariants — never on timings.

use std::sync::Arc;

use talft_analysis::{analyze_zaps, cross_validate, lint_program, DiffSummary, ZapReport};
use talft_bench::report::{self, Report};
use talft_compiler::{compile, CompileOptions};
use talft_core::Severity;
use talft_faultsim::{golden_run, plan_fault_grid, single_fault_plans, CampaignConfig, Verdict};
use talft_isa::Program;
use talft_obs::Json;
use talft_suite::{kernels, Scale};

/// The schema tag this bin writes and `--check` accepts.
const SCHEMA: &str = "talft.lint.grid.v1";

/// Required top-level keys of a [`SCHEMA`] document.
const REQUIRED: &[&str] = &["schema", "kernels", "stride", "rows", "totals"];

/// One side (protected or baseline) of a kernel row.
struct Side {
    detected: u64,
    benign: u64,
    vulnerable: u64,
    coverage: f64,
    grid_sdc: u64,
    diff: DiffSummary,
    lint_errors: u64,
    lint_warnings: u64,
}

fn main() {
    report::flags(&["--check", "--stride", "--json"], &[]);
    if let Some(path) = report::arg::<String>("--check") {
        report::check(&path, SCHEMA, REQUIRED, gate);
    }
    let stride = report::arg("--stride").unwrap_or(1);
    let json = report::json_path();
    let cfg = CampaignConfig {
        stride,
        mutations_per_site: 1,
        ..CampaignConfig::default()
    };
    let ks = kernels(Scale::Tiny);
    println!(
        "# E17 static fault-coverage differential ({} kernels, grid stride {})",
        ks.len(),
        cfg.effective_stride()
    );
    println!("# statically Detected/Benign cells must never score SDC in the k=1 grid");
    println!(
        "| kernel | side | cells | detected | benign | vulnerable | static cov | grid SDC | checked | mismatches |"
    );
    println!("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|");

    let mut failed = false;
    let mut rows = Vec::new();
    let mut totals: Vec<(&str, Side)> = vec![];
    for k in &ks {
        let c = match compile(&k.source, &CompileOptions::default()) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {}: {e}", k.name);
                std::process::exit(1);
            }
        };
        let mut sides = Vec::new();
        for (side, program) in [
            ("protected", &c.protected.program),
            ("baseline", &c.baseline.program),
        ] {
            let program: Arc<Program> = Arc::new(program.as_ref().clone());
            let s = match analyze_side(&program, &cfg) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {} ({side}): {e}", k.name);
                    std::process::exit(1);
                }
            };
            if !s.diff.holds() {
                eprintln!(
                    "DIFFERENTIAL MISMATCH: {} ({side}): {:?}",
                    k.name, s.diff.mismatches
                );
                failed = true;
            }
            if side == "protected" {
                if s.lint_errors > 0 {
                    eprintln!(
                        "LINT ERROR on checker-accepted output: {} ({} error lints)",
                        k.name, s.lint_errors
                    );
                    failed = true;
                }
                if s.grid_sdc > 0 {
                    eprintln!(
                        "THEOREM 4 VIOLATION: {} protected grid scored {} SDC",
                        k.name, s.grid_sdc
                    );
                    failed = true;
                }
            }
            print_row(k.name, side, &s);
            sides.push((side, s));
        }
        let row = Json::obj([
            ("name", Json::str(k.name)),
            ("protected", side_json(&sides[0].1)),
            ("baseline", side_json(&sides[1].1)),
        ]);
        rows.push(row);
        totals.extend(sides);
    }

    let total_for = |which: &str| -> Json {
        let mut agg = Side {
            detected: 0,
            benign: 0,
            vulnerable: 0,
            coverage: 0.0,
            grid_sdc: 0,
            diff: DiffSummary::default(),
            lint_errors: 0,
            lint_warnings: 0,
        };
        for s in totals.iter().filter(|(sd, _)| *sd == which).map(|(_, s)| s) {
            agg.detected += s.detected;
            agg.benign += s.benign;
            agg.vulnerable += s.vulnerable;
            agg.grid_sdc += s.grid_sdc;
            agg.diff.checked += s.diff.checked;
            agg.diff.plans += s.diff.plans;
            agg.diff.predicted_sdc += s.diff.predicted_sdc;
            agg.diff
                .mismatches
                .extend(s.diff.mismatches.iter().cloned());
            agg.lint_errors += s.lint_errors;
            agg.lint_warnings += s.lint_warnings;
        }
        let cells = agg.detected + agg.benign + agg.vulnerable;
        agg.coverage = if cells == 0 {
            1.0
        } else {
            (agg.detected + agg.benign) as f64 / cells as f64
        };
        side_json(&agg)
    };
    let totals_json = Json::obj([
        ("protected", total_for("protected")),
        ("baseline", total_for("baseline")),
    ]);
    report::emit(json, || {
        Report::new(SCHEMA)
            .field("kernels", Json::U64(ks.len() as u64))
            .field("stride", Json::U64(cfg.effective_stride()))
            .field("rows", Json::Array(rows.clone()))
            .field("totals", totals_json.clone())
            .build()
    });

    if failed {
        println!("RESULT: STATIC ANALYSIS CONTRADICTED — see messages above.");
        std::process::exit(2);
    }
    println!(
        "RESULT: differential holds on all {} kernels (protected and baseline); \
         protected output is lint-clean.",
        ks.len()
    );
}

/// Lint + zap-classify + grid-validate one binary.
fn analyze_side(program: &Arc<Program>, cfg: &CampaignConfig) -> Result<Side, String> {
    let diags = lint_program(program);
    let lint_errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count() as u64;
    let lint_warnings = diags.len() as u64 - lint_errors;
    let report: ZapReport = analyze_zaps(program);
    if let Some(why) = &report.bailed {
        return Err(format!("analyzer bailed: {why}"));
    }
    let (detected, benign, vulnerable) = report.tally();
    let golden = golden_run(program, cfg).map_err(|e| format!("golden run: {e}"))?;
    let plans = single_fault_plans(program, cfg, &golden);
    let grid = plan_fault_grid(program, cfg, &golden, &plans);
    let diff = cross_validate(&report, &grid);
    Ok(Side {
        detected: detected as u64,
        benign: benign as u64,
        vulnerable: vulnerable as u64,
        coverage: report.coverage(),
        grid_sdc: grid.count(Verdict::Sdc) as u64,
        diff,
        lint_errors,
        lint_warnings,
    })
}

fn print_row(name: &str, side: &str, s: &Side) {
    println!(
        "| {} | {} | {} | {} | {} | {} | {:.1}% | {} | {} | **{}** |",
        name,
        side,
        s.detected + s.benign + s.vulnerable,
        s.detected,
        s.benign,
        s.vulnerable,
        100.0 * s.coverage,
        s.grid_sdc,
        s.diff.checked,
        s.diff.mismatches.len(),
    );
}

fn side_json(s: &Side) -> Json {
    Json::obj([
        ("cells", Json::U64(s.detected + s.benign + s.vulnerable)),
        ("detected", Json::U64(s.detected)),
        ("benign", Json::U64(s.benign)),
        ("vulnerable", Json::U64(s.vulnerable)),
        ("static_coverage", Json::F64(s.coverage)),
        ("grid_sdc", Json::U64(s.grid_sdc)),
        ("plans", Json::U64(s.diff.plans as u64)),
        ("checked", Json::U64(s.diff.checked as u64)),
        ("predicted_sdc", Json::U64(s.diff.predicted_sdc as u64)),
        ("mismatches", Json::U64(s.diff.mismatches.len() as u64)),
        ("lint_errors", Json::U64(s.lint_errors)),
        ("lint_warnings", Json::U64(s.lint_warnings)),
    ])
}

/// The `--check` gate: the same count invariants the run enforces.
fn gate(json: &Json) -> Result<(), String> {
    let rows = json
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("rows is not an array")?;
    if rows.is_empty() {
        return Err("rows is empty".into());
    }
    for row in rows {
        let name = row.get("name").and_then(Json::as_str).unwrap_or("?");
        for side in ["protected", "baseline"] {
            let s = row
                .get(side)
                .ok_or_else(|| format!("kernel {name} is missing side {side}"))?;
            let n = |key: &str| {
                s.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("kernel {name} ({side}) is missing {key}"))
            };
            if n("mismatches")? != 0 {
                return Err(format!(
                    "kernel {name} ({side}) reports differential mismatches"
                ));
            }
            if n("checked")? == 0 {
                return Err(format!("kernel {name} ({side}) compared zero grid cells"));
            }
            if side == "protected" {
                if n("grid_sdc")? != 0 {
                    return Err(format!("kernel {name}: SDC on a protected grid"));
                }
                if n("lint_errors")? != 0 {
                    return Err(format!(
                        "kernel {name}: error lints on checker-accepted output"
                    ));
                }
            }
        }
    }
    Ok(())
}
