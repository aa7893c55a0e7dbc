//! E17 and E22 / **static fault coverage against injection grids**: the
//! zap-vulnerability analyzer and the compositional pair analyzer
//! (talft-analysis) cross-validated against k=1 and k=2 injection grids
//! over every Tiny suite kernel, plus lint quietness on checker-accepted
//! output.
//!
//! One loop compiles each kernel once. Each side, the protected binary and
//! the unprotected baseline, gets one lint pass, one golden run and one
//! [`PairAnalyzer`], whose k=1 report is the zap report. Three grids share
//! them:
//!
//! * the **k=1 grid** (E17) at stride 1: every step, every site, one value;
//! * the **sampled k=2 grid** (E22): 128 stratified pairs over a stride-17
//!   strike universe;
//! * on the first two kernels, the **exhaustive pair grid**: every
//!   unordered pair of a strided strike universe, the stride doubled from
//!   17 until the grid has at most 20,000 plans.
//!
//! `TALFT_STRIDE_SCALE` scales every stride, as everywhere else. Three
//! tables print: E17's cell tally and static coverage next to the k=1 grid,
//! E22's pair tally and static k=2 coverage next to the sampled grid, and
//! the exhaustive grids.
//!
//! Exits 2 on any contradiction, after writing the report:
//!
//! * a **differential mismatch** in either analyzer: a statically
//!   Detected/Benign cell, or cell pair, that a grid drove to SDC;
//! * an **error-severity lint** on a protected (checker-accepted) binary,
//!   which breaks the "lints under-approximate the checker" contract;
//! * **SDC on a protected k=1 grid**, a Theorem 4 violation outright.
//!
//! Exits 1 on a usage, compile, golden-run or analyzer-bail error.
//!
//! Usage: `cargo run --release -p talft-bench --bin analysis
//!          [-- --json <path>] [--check <path>]`
//!
//! `--check <path>` re-validates an existing report through
//! [`report::check`] and gates on the same count invariants, never on
//! timings.

use std::sync::Arc;

use talft_analysis::{
    cross_validate, cross_validate_pairs, error_count, lint_pairs, lint_program, PairAnalyzer,
};
use talft_bench::report::{self, Report};
use talft_compiler::{compile, CompileOptions};
use talft_faultsim::{
    exhaustive_pair_plans, golden_run, multi_fault_plans, plan_fault_grid, single_fault_plans,
    CampaignConfig, Golden, Verdict,
};
use talft_isa::Program;
use talft_obs::Json;
use talft_suite::{kernels, Scale};

/// The schema tag this bin writes and `--check` accepts.
const SCHEMA: &str = "talft.analysis.v1";

/// Required top-level keys of a [`SCHEMA`] document.
const REQUIRED: &[&str] = &["schema", "kernels", "k1", "k2"];

/// The kernels, from the first, that also get an exhaustive pair grid.
const EXHAUSTIVE_KERNELS: usize = 2;

/// Exhaustive pair grids stay under this many plans per side.
const EXHAUSTIVE_CAP: usize = 20_000;

/// The two binaries of every kernel, in row order.
const SIDES: [&str; 2] = ["protected", "baseline"];

/// The k=1 grid (E17): every step, every site, one value.
fn k1_config() -> CampaignConfig {
    CampaignConfig {
        stride: 1,
        mutations_per_site: 1,
        ..CampaignConfig::default()
    }
}

/// The sampled k=2 grid (E22): 128 pairs over a stride-17 strike universe.
/// The exhaustive grid starts from it.
fn k2_config() -> CampaignConfig {
    CampaignConfig {
        stride: 17,
        pair_samples: 128,
        ..k1_config()
    }
}

/// One side's counts in one table, by report key, in report order.
type Counts = Vec<(&'static str, u64)>;

/// Everything the analysis of one binary produced.
struct Side {
    k1: Counts,
    k2: Counts,
    exhaustive: Option<Counts>,
    /// What contradicts the analyzers, each a message the kernel and side
    /// end.
    contradictions: Vec<String>,
}

/// How the k=1 or the k=2 section reports a side.
struct Section {
    /// The section's report key.
    key: &'static str,
    /// The count that `detected + benign + vulnerable` make up.
    classes: &'static str,
    /// The report key of the provably safe share of `classes`.
    coverage: &'static str,
    counts: fn(&Side) -> &Counts,
}

/// E17: cells against the k=1 grid.
const K1: Section = Section {
    key: "k1",
    classes: "cells",
    coverage: "static_coverage",
    counts: |s| &s.k1,
};

/// E22: cell pairs against the sampled k=2 grid.
const K2: Section = Section {
    key: "k2",
    classes: "pairs",
    coverage: "k2_coverage",
    counts: |s| &s.k2,
};

fn main() {
    report::flags(&["--check", "--json"], &[]);
    if let Some(path) = report::arg::<String>("--check") {
        report::check(&path, SCHEMA, REQUIRED, gate);
    }
    let json = report::json_path();
    let ks = kernels(Scale::Tiny);
    let mut rows: Vec<(&str, [Side; 2])> = Vec::new();
    for (ki, k) in ks.iter().enumerate() {
        let c = compile(&k.source, &CompileOptions::default()).unwrap_or_else(|e| {
            eprintln!("error: {}: {e}", k.name);
            std::process::exit(1);
        });
        let programs = [&c.protected.program, &c.baseline.program];
        let sides = [0, 1].map(|i| {
            let s = analyze_side(programs[i], i == 0, ki < EXHAUSTIVE_KERNELS);
            let s = s.unwrap_or_else(|e| {
                eprintln!("error: {} ({}): {e}", k.name, SIDES[i]);
                std::process::exit(1);
            });
            for msg in &s.contradictions {
                eprintln!("{msg}: {} ({})", k.name, SIDES[i]);
            }
            s
        });
        rows.push((k.name, sides));
    }

    let (k1, k2) = (k1_config(), k2_config());
    println!(
        "# E17 static fault-coverage differential ({} kernels, grid stride {})",
        ks.len(),
        k1.effective_stride()
    );
    println!("# statically Detected/Benign cells must never score SDC in the k=1 grid");
    println!(
        "| kernel | side | cells | detected | benign | vulnerable | static cov | grid SDC | checked | mismatches |"
    );
    println!("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|");
    let k1_columns = "cells detected benign vulnerable % grid_sdc checked mismatches";
    print_rows(&rows, &K1, k1_columns);
    println!(
        "\n# E22 static pair-fault coverage differential ({} kernels, stride {}, {} sampled pairs)",
        ks.len(),
        k2.effective_stride(),
        k2.pair_samples
    );
    println!("# statically Detected/Benign cell pairs must never score SDC in a k=2 campaign");
    println!(
        "| kernel | side | cells | pairs | detected | benign | vulnerable | coop | k2 cov | grid SDC | predicted | mismatches |"
    );
    println!("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
    let k2_columns =
        "cells pairs detected benign vulnerable cooperative % grid_sdc predicted_sdc mismatches";
    print_rows(&rows, &K2, k2_columns);
    println!(
        "\n# E22 exhaustive pair grids (first {EXHAUSTIVE_KERNELS} kernels, stride doubled until at most {EXHAUSTIVE_CAP} plans)"
    );
    println!("| kernel | side | stride | plans | SDC | predicted | mismatches |");
    println!("|---|---|---:|---:|---:|---:|---:|");
    for (name, side, s) in each_side(&rows) {
        if let Some(c) = &s.exhaustive {
            let cell = |key| cell(c, key, "");
            let columns = ["stride", "plans", "sdc", "predicted_sdc", "mismatches"].map(cell);
            println!("| {name} | {side} | {} |", columns.join(" | "));
        }
    }

    report::emit(json, || {
        let exhaustive = each_side(&rows).filter_map(|(name, side, s)| {
            let counts = s
                .exhaustive
                .as_ref()?
                .iter()
                .map(|&(k, v)| (k, Json::U64(v)));
            let head = [("name", Json::str(name)), ("side", Json::str(side))];
            Some(Json::obj(head.into_iter().chain(counts)))
        });
        Report::new(SCHEMA)
            .field("kernels", Json::U64(ks.len() as u64))
            .field(
                "k1",
                Json::obj(
                    [("stride", Json::U64(k1.effective_stride()))]
                        .into_iter()
                        .chain(section_json(&rows, &K1)),
                ),
            )
            .field(
                "k2",
                Json::obj(
                    [
                        ("stride", Json::U64(k2.effective_stride())),
                        ("samples", Json::U64(k2.pair_samples as u64)),
                    ]
                    .into_iter()
                    .chain(section_json(&rows, &K2))
                    .chain([("exhaustive", Json::Array(exhaustive.collect()))]),
                ),
            )
            .build()
    });

    if each_side(&rows).any(|(_, _, s)| !s.contradictions.is_empty()) {
        println!("RESULT: STATIC ANALYSIS CONTRADICTED — see messages above.");
        std::process::exit(2);
    }
    println!(
        "RESULT: both differentials hold on all {} kernels (protected and baseline); \
         protected output is lint-clean.",
        ks.len()
    );
}

/// Lint one binary, classify its cells and cell pairs, and cross-validate
/// them against its grids. One golden run and one analyzer serve them all.
fn analyze_side(program: &Arc<Program>, protected: bool, exhaustive: bool) -> Result<Side, String> {
    let mut analyzer = PairAnalyzer::new(program);
    if let Some(why) = analyzer.bailed() {
        return Err(format!("analyzer bailed: {why}"));
    }
    let golden = golden_run(program, &k1_config()).map_err(|e| format!("golden run: {e}"))?;
    let mut contradictions = Vec::new();
    let k1 = k1_grid(program, &golden, &analyzer, &mut contradictions);
    let (lint_errors, sdc) = (count(&k1, "lint_errors"), count(&k1, "grid_sdc"));
    if protected && lint_errors > 0 {
        let msg = format!("LINT ERROR on checker-accepted output ({lint_errors} error lints)");
        contradictions.push(msg);
    }
    if protected && sdc > 0 {
        let msg = format!("THEOREM 4 VIOLATION ({sdc} SDC on the protected k=1 grid)");
        contradictions.push(msg);
    }
    let k2 = k2_grid(program, &golden, &mut analyzer, &mut contradictions);
    let exhaustive =
        exhaustive.then(|| exhaustive_grid(program, &golden, &mut analyzer, &mut contradictions));
    Ok(Side {
        k1,
        k2,
        exhaustive,
        contradictions,
    })
}

/// E17: lint the binary and cross-validate its zap report against the k=1
/// grid.
fn k1_grid(
    program: &Arc<Program>,
    golden: &Golden,
    analyzer: &PairAnalyzer<'_>,
    contradictions: &mut Vec<String>,
) -> Counts {
    let diags = lint_program(program);
    let lint_errors = error_count(&diags);
    let cfg = k1_config();
    let plans = single_fault_plans(program, &cfg, golden);
    let grid = plan_fault_grid(program, &cfg, golden, &plans);
    let (detected, benign, vulnerable) = analyzer.k1().tally();
    let diff = cross_validate(analyzer.k1(), &grid);
    if !diff.holds() {
        contradictions.push(format!("DIFFERENTIAL MISMATCH {:?}", diff.mismatches));
    }
    vec![
        ("cells", (detected + benign + vulnerable) as u64),
        ("detected", detected as u64),
        ("benign", benign as u64),
        ("vulnerable", vulnerable as u64),
        ("grid_sdc", grid.count(Verdict::Sdc) as u64),
        ("plans", diff.plans as u64),
        ("checked", diff.checked as u64),
        ("predicted_sdc", diff.predicted_sdc as u64),
        ("mismatches", diff.mismatches.len() as u64),
        ("lint_errors", lint_errors as u64),
        ("lint_warnings", (diags.len() - lint_errors) as u64),
    ]
}

/// E22: the pair report and its `TF008` lints, cross-validated against
/// the sampled k=2 grid.
fn k2_grid(
    program: &Arc<Program>,
    golden: &Golden,
    analyzer: &mut PairAnalyzer<'_>,
    contradictions: &mut Vec<String>,
) -> Counts {
    let pairs = analyzer.pair_report();
    let cfg = k2_config();
    let plans = multi_fault_plans(program, &cfg, golden, 2);
    let grid = plan_fault_grid(program, &cfg, golden, &plans);
    let diff = cross_validate_pairs(analyzer, &grid);
    if !diff.holds() {
        contradictions.push(format!("PAIR DIFFERENTIAL MISMATCH {:?}", diff.mismatches));
    }
    vec![
        ("cells", pairs.cells as u64),
        ("pairs", pairs.pairs),
        ("detected", pairs.detected),
        ("benign", pairs.benign),
        ("vulnerable", pairs.vulnerable),
        ("single_vulnerable", pairs.single_vulnerable),
        ("cooperative", pairs.cooperative),
        ("fixpoints", pairs.fixpoints),
        ("tf008", lint_pairs(program, &pairs).len() as u64),
        ("plans", diff.plans as u64),
        ("checked", diff.checked as u64),
        ("degenerate", diff.degenerate as u64),
        ("grid_sdc", grid.count(Verdict::Sdc) as u64),
        ("predicted_sdc", diff.predicted_sdc as u64),
        ("mismatches", diff.mismatches.len() as u64),
    ]
}

/// Exhaustively pair a strided strike universe, doubling the stride from
/// the sampled grid's until the quadratic grid fits [`EXHAUSTIVE_CAP`],
/// and cross-validate it.
fn exhaustive_grid(
    program: &Arc<Program>,
    golden: &Golden,
    analyzer: &mut PairAnalyzer<'_>,
    contradictions: &mut Vec<String>,
) -> Counts {
    let mut cfg = k2_config();
    loop {
        let n = single_fault_plans(program, &cfg, golden).len();
        if n * n.saturating_sub(1) / 2 <= EXHAUSTIVE_CAP {
            break;
        }
        cfg.stride = cfg.stride.saturating_mul(2);
    }
    let plans = exhaustive_pair_plans(program, &cfg, golden);
    let grid = plan_fault_grid(program, &cfg, golden, &plans);
    let diff = cross_validate_pairs(analyzer, &grid);
    if !diff.holds() {
        let m = &diff.mismatches;
        contradictions.push(format!("PAIR DIFFERENTIAL MISMATCH (exhaustive) {m:?}"));
    }
    vec![
        ("stride", cfg.effective_stride()),
        ("plans", plans.len() as u64),
        ("sdc", grid.count(Verdict::Sdc) as u64),
        ("checked", diff.checked as u64),
        ("predicted_sdc", diff.predicted_sdc as u64),
        ("mismatches", diff.mismatches.len() as u64),
    ]
}

/// The count `key`; every side of a table has the same keys.
fn count(c: &Counts, key: &str) -> u64 {
    let found = c.iter().find(|(k, _)| *k == key);
    found.expect("a count of this table").1
}

/// The share of `classes` that is provably safe (`detected + benign`).
fn coverage(c: &Counts, classes: &str) -> f64 {
    match count(c, classes) {
        0 => 1.0,
        n => (count(c, "detected") + count(c, "benign")) as f64 / n as f64,
    }
}

/// One table cell: the count `key`, or for `%` the coverage of `classes`.
fn cell(c: &Counts, key: &str, classes: &str) -> String {
    match key {
        "%" => format!("{:.1}%", 100.0 * coverage(c, classes)),
        "mismatches" => format!("**{}**", count(c, key)),
        _ => count(c, key).to_string(),
    }
}

/// Print `section`'s row of each kernel side, one cell per key of `columns`.
fn print_rows(rows: &[(&str, [Side; 2])], section: &Section, columns: &str) {
    for (name, side, s) in each_side(rows) {
        let c = (section.counts)(s);
        let cells: Vec<_> = columns
            .split(' ')
            .map(|k| cell(c, k, section.classes))
            .collect();
        println!("| {name} | {side} | {} |", cells.join(" | "));
    }
}

/// Every `(kernel, side, analysis)` in row order.
fn each_side<'a>(
    rows: &'a [(&'a str, [Side; 2])],
) -> impl Iterator<Item = (&'a str, &'static str, &'a Side)> {
    rows.iter().flat_map(|(name, sides)| {
        SIDES
            .into_iter()
            .zip(sides)
            .map(|(side, s)| (*name, side, s))
    })
}

/// A section's `rows` and `totals`: each side's counts plus its coverage,
/// and per side the sum of every count over the rows.
fn section_json(rows: &[(&str, [Side; 2])], section: &Section) -> [(&'static str, Json); 2] {
    let side_json = |c: &Counts| {
        let counts = c.iter().map(|&(k, v)| (k, Json::U64(v)));
        let coverage = (section.coverage, Json::F64(coverage(c, section.classes)));
        Json::obj(counts.chain([coverage]))
    };
    let row_json = |(name, sides): &(&str, [Side; 2])| {
        let sides = SIDES.into_iter().zip(sides);
        let sides = sides.map(|(side, s)| (side, side_json((section.counts)(s))));
        Json::obj([("name", Json::str(*name))].into_iter().chain(sides))
    };
    let totals = SIDES.into_iter().enumerate().map(|(i, side)| {
        let mut total = (section.counts)(&rows[0].1[i]).clone();
        for (_, sides) in &rows[1..] {
            let c = (section.counts)(&sides[i]);
            total.iter_mut().zip(c).for_each(|(t, (_, v))| t.1 += v);
        }
        (side, side_json(&total))
    });
    [
        ("rows", Json::Array(rows.iter().map(row_json).collect())),
        ("totals", Json::obj(totals)),
    ]
}

/// One side object of a report under `--check`.
struct Checked<'a> {
    /// Names the object in refusals: `k1 kernel spec_gzip (protected)`.
    what: String,
    json: &'a Json,
}

impl<'a> Checked<'a> {
    /// The `side` object of `parent`, named `what`.
    fn side(parent: Option<&'a Json>, side: &str, what: String) -> Result<Self, String> {
        match parent.and_then(|p| p.get(side)) {
            Some(json) => Ok(Checked { what, json }),
            None => Err(format!("{what} is missing")),
        }
    }

    /// The count `key`, widened to `u128` so that no sum of forged counts
    /// can wrap.
    fn n(&self, key: &str) -> Result<u128, String> {
        let n = self.json.get(key).and_then(Json::as_u64);
        n.map(u128::from)
            .ok_or_else(|| format!("{} is missing {key}", self.what))
    }
}

/// The `--check` gate: the invariants the run enforces, on every row and
/// on the totals, which must also equal the row sums.
fn gate(json: &Json) -> Result<(), String> {
    gate_section(json, &K1, &["stride"], |s, protected| {
        if s.n("checked")? == 0 {
            return Err(format!("{} compared zero grid cells", s.what));
        }
        if protected && s.n("grid_sdc")? != 0 {
            return Err(format!("{}: SDC on a protected grid", s.what));
        }
        if protected && s.n("lint_errors")? != 0 {
            return Err(format!(
                "{}: error lints on checker-accepted output",
                s.what
            ));
        }
        Ok(())
    })?;
    gate_section(json, &K2, &["stride", "samples", "exhaustive"], |s, _| {
        if s.n("pairs")? == 0 || s.n("cells")? == 0 {
            return Err(format!("{} classified nothing", s.what));
        }
        if s.n("checked")? + s.n("degenerate")? > s.n("plans")? {
            return Err(format!("{}: checked + degenerate > plans", s.what));
        }
        Ok(())
    })?;
    let exhaustive = json
        .get("k2")
        .and_then(|k2| k2.get("exhaustive")?.as_array());
    for ex in exhaustive.ok_or("k2.exhaustive is not an array")? {
        let name = ex.get("name").and_then(Json::as_str).unwrap_or("?");
        let what = format!("k2 exhaustive {name}");
        let ex = Checked { what, json: ex };
        if ex.n("mismatches")? != 0 {
            return Err(format!(
                "{}: statically-safe SDC pair in the full grid",
                ex.what
            ));
        }
        if ex.n("plans")? == 0 {
            return Err(format!("{} ran no plans", ex.what));
        }
    }
    Ok(())
}

/// Gate `section` of a report: it has every key of `extra`, and each row
/// side and each side of its totals has no mismatch, classes that sum to
/// `section.classes` and passes `side_gate` (given whether it is the
/// protected side). Every count of the totals must equal its row sum.
fn gate_section(
    json: &Json,
    section: &Section,
    extra: &[&str],
    side_gate: impl Fn(&Checked, bool) -> Result<(), String>,
) -> Result<(), String> {
    let key = section.key;
    let body = json.get(key).ok_or_else(|| format!("{key} is missing"))?;
    if let Some(missing) = extra.iter().find(|k| body.get(k).is_none()) {
        return Err(format!("{key} is missing {missing}"));
    }
    let rows = body.get("rows").and_then(Json::as_array);
    let rows = rows.ok_or_else(|| format!("{key}.rows is not an array"))?;
    if rows.is_empty() {
        return Err(format!("{key}.rows is empty"));
    }
    let check = |s: &Checked, side: &str| {
        if s.n("mismatches")? != 0 {
            return Err(format!("{} reports differential mismatches", s.what));
        }
        let classes = section.classes;
        if s.n("detected")? + s.n("benign")? + s.n("vulnerable")? != s.n(classes)? {
            let what = &s.what;
            return Err(format!(
                "{what}: detected + benign + vulnerable != {classes}"
            ));
        }
        side_gate(s, side == "protected")
    };
    let mut sides = [Vec::new(), Vec::new()];
    for row in rows {
        let name = row.get("name").and_then(Json::as_str).unwrap_or("?");
        for (side, checked) in SIDES.into_iter().zip(&mut sides) {
            let s = Checked::side(Some(row), side, format!("{key} kernel {name} ({side})"))?;
            check(&s, side)?;
            checked.push(s);
        }
    }
    for (side, rows) in SIDES.into_iter().zip(&sides) {
        let t = Checked::side(body.get("totals"), side, format!("{key} totals ({side})"))?;
        check(&t, side)?;
        let Json::Object(fields) = t.json else {
            unreachable!("a side with counts is an object")
        };
        for (count, total) in fields.iter().filter(|(k, _)| k != section.coverage) {
            let Some(total) = total.as_u64().map(u128::from) else {
                continue;
            };
            let sum = rows.iter().map(|r| r.n(count)).sum::<Result<u128, _>>()?;
            if total != sum {
                let what = &t.what;
                return Err(format!(
                    "{what}: {count} {total} does not equal the row sum {sum}"
                ));
            }
        }
    }
    Ok(())
}
