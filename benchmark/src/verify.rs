//! `check` and `compare`: validate result files against `BENCHMARK.json`,
//! and compare a parent's runs with a change's, pair by pair, against each
//! metric's bound.

use std::collections::BTreeMap;
use std::fmt::Write;

use talft_obs::Json;

use crate::metrics::{floor, Better, Spec, LAYERS, RATIO_BASES, TAIL};
use crate::stats::{median, quartiles};

/// One result file written by `run --json`.
#[derive(Debug, Clone)]
pub struct ResultFile {
    /// Where it came from.
    pub path: String,
    /// Workload name.
    pub workload: String,
    /// Traced run?
    pub traced: bool,
    /// The whole document.
    pub doc: Json,
}

impl ResultFile {
    /// A metric's field (`value`, `unit`, `base`, ...).
    #[must_use]
    pub fn field(&self, metric: &str, field: &str) -> Option<&Json> {
        self.doc.get("metrics")?.get(metric)?.get(field)
    }

    /// A metric's value.
    #[must_use]
    pub fn value(&self, metric: &str) -> Option<f64> {
        self.field(metric, "value").and_then(Json::as_f64)
    }
}

/// Read a result file.
///
/// # Errors
///
/// An unreadable file or one without the run keys.
pub fn load_result(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workload = doc
        .get("workload")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{path}: no `workload`"))?
        .to_owned();
    let traced = match doc.get("trace") {
        Some(Json::Bool(b)) => *b,
        _ => return Err(format!("{path}: no `trace`")),
    };
    if !matches!(doc.get("metrics"), Some(Json::Object(_))) {
        return Err(format!("{path}: no `metrics` object"));
    }
    Ok(ResultFile {
        path: path.to_owned(),
        workload,
        traced,
        doc,
    })
}

/// Every violation of the benchmark's contract in `files`: a declared
/// metric missing or with the wrong unit, an undeclared metric, a ratio
/// without its base, a tail without its percentile and ≥10 samples beyond
/// it, a traced pass the layers' self times do not cover within 5%, a
/// failed operation, or a declared workload with no result.
#[must_use]
pub fn check(spec: &Spec, files: &[ResultFile]) -> Vec<String> {
    let mut bad = Vec::new();
    for f in files {
        let p = &f.path;
        if !spec.workloads.contains(&f.workload) {
            bad.push(format!("{p}: undeclared workload {}", f.workload));
        }
        if f.doc.get("correct") != Some(&Json::Bool(true)) {
            bad.push(format!("{p}: not marked correct"));
        }
        if f.doc.get("failed").and_then(Json::as_u64) != Some(0) {
            bad.push(format!("{p}: failed operations"));
        }
        let declared = if f.traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        for m in declared {
            match f.field(&m.name, "unit").and_then(Json::as_str) {
                None => bad.push(format!("{p}: missing {}", m.name)),
                Some(u) if u != m.unit => {
                    bad.push(format!("{p}: {} in {u}, declared {}", m.name, m.unit));
                }
                Some(_) if f.value(&m.name).is_none() => {
                    bad.push(format!("{p}: {} has no numeric value", m.name));
                }
                Some(_) => {}
            }
        }
        if let Some(Json::Object(ms)) = f.doc.get("metrics") {
            for (name, _) in ms {
                if !declared.iter().any(|m| &m.name == name) {
                    bad.push(format!("{p}: undeclared metric {name}"));
                }
            }
        }
        for (ratio, base) in RATIO_BASES {
            if f.value(ratio).is_none() {
                continue;
            }
            let carried = f.field(ratio, "base").and_then(Json::as_f64);
            if carried.is_none() || carried != f.value(base) {
                bad.push(format!("{p}: {ratio} does not carry its base {base}"));
            }
        }
        if f.value(TAIL).is_some() {
            let pct = f.field(TAIL, "percentile").and_then(Json::as_f64);
            let samples = f.field(TAIL, "samples").and_then(Json::as_u64);
            let beyond = f.field(TAIL, "beyond").and_then(Json::as_u64).unwrap_or(0);
            if pct.is_none() || samples.is_none() || beyond < 10 {
                bad.push(format!(
                    "{p}: {TAIL} must name its percentile and sample count with ≥10 beyond"
                ));
            }
        }
        if f.traced {
            let wall = f.value("bench.traced_pass_s").unwrap_or(0.0);
            let covered: f64 = LAYERS.iter().filter_map(|(_, m)| f.value(m)).sum();
            if wall <= 0.0 || (wall - covered).abs() > 0.05 * wall {
                bad.push(format!(
                    "{p}: layer self times cover {covered:.4} s of a {wall:.4} s traced pass (need within 5%)"
                ));
            }
        }
    }
    for w in &spec.workloads {
        if !files.iter().any(|f| &f.workload == w) {
            bad.push(format!("no result for workload {w}"));
        }
    }
    bad
}

/// How one metric moved between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins ≥ 9/10 of the pairs and the medians differ by more
    /// than the parent's interquartile range.
    Improved,
    /// The change's median is worse than the parent's by more than the
    /// allowed change: the bound's share of the parent's median, or the
    /// metric's absolute floor if larger.
    Worse,
    /// Within the allowed change.
    Unchanged,
    /// The parent's own interquartile range exceeds the allowed change (and
    /// the change does not beat every parent run).
    Unresolved,
}

/// One row of a comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Parent quartiles `[q1, median, q3]`.
    pub parent: [f64; 3],
    /// Change quartiles.
    pub change: [f64; 3],
    /// Pairs the change won (ties count for neither), and pairs.
    pub wins: (usize, usize),
    /// The verdict.
    pub verdict: Verdict,
}

/// The verdict for one metric: `parent[i]` and `change[i]` form pair `i`.
/// The change may worsen the parent's median by `bound` of it or by `floor`
/// (in the metric's unit), whichever is larger.
#[must_use]
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    better: Better,
    bound: f64,
    floor: f64,
) -> (Verdict, (usize, usize)) {
    let beats = |a: f64, b: f64| match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| beats(**c, **p))
        .count();
    let [q1, pm, q3] = quartiles(parent);
    let cm = median(change);
    let allowed = (bound * pm.abs()).max(floor);
    let all_better = change.iter().all(|c| parent.iter().all(|p| beats(*c, *p)));
    let worse_by = match better {
        Better::Lower => cm - pm,
        Better::Higher => pm - cm,
    };
    let v = if pairs > 0 && wins * 10 >= pairs * 9 && (cm - pm).abs() > q3 - q1 && beats(cm, pm) {
        Verdict::Improved
    } else if q3 - q1 > allowed && !all_better {
        Verdict::Unresolved
    } else if worse_by > allowed {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    };
    (v, (wins, pairs))
}

/// Compare the parent's untraced runs with the change's, per workload and
/// end-to-end metric.
///
/// # Errors
///
/// Traced result files (they carry no bounded metrics).
pub fn compare(
    spec: &Spec,
    parent: &[ResultFile],
    change: &[ResultFile],
) -> Result<Vec<Row>, String> {
    if let Some(f) = parent.iter().chain(change).find(|f| f.traced) {
        return Err(format!("{}: compare takes untraced results", f.path));
    }
    let by_workload = |files: &[ResultFile]| {
        let mut m: BTreeMap<String, Vec<ResultFile>> = BTreeMap::new();
        for f in files {
            m.entry(f.workload.clone()).or_default().push(f.clone());
        }
        m
    };
    let (p, c) = (by_workload(parent), by_workload(change));
    let mut rows = Vec::new();
    for w in &spec.workloads {
        let (Some(ps), Some(cs)) = (p.get(w), c.get(w)) else {
            continue;
        };
        for m in &spec.end_to_end {
            let pv: Vec<f64> = ps.iter().filter_map(|f| f.value(&m.name)).collect();
            let cv: Vec<f64> = cs.iter().filter_map(|f| f.value(&m.name)).collect();
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let (v, wins) = verdict(&pv, &cv, m.better, m.bound.unwrap_or(0.0), floor(&m.name));
            rows.push(Row {
                workload: w.clone(),
                metric: m.name.clone(),
                parent: quartiles(&pv),
                change: quartiles(&cv),
                wins,
                verdict: v,
            });
        }
    }
    Ok(rows)
}

/// The comparison as a markdown table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut s = String::from(
        "| workload | metric | parent median [q1, q3] | change median [q1, q3] | change wins | verdict |\n\
         |---|---|---:|---:|---:|---|\n",
    );
    for r in rows {
        writeln!(
            s,
            "| {} | {} | {:.6} [{:.6}, {:.6}] | {:.6} [{:.6}, {:.6}] | {}/{} | {:?} |",
            r.workload,
            r.metric,
            r.parent[1],
            r.parent[0],
            r.parent[2],
            r.change[1],
            r.change[0],
            r.change[2],
            r.wins.0,
            r.wins.1,
            r.verdict
        )
        .expect("write to string");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_rules() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0];
        let scaled = |xs: &[f64], k: f64| xs.iter().map(|x| x * k).collect::<Vec<f64>>();
        let v = |p: &[f64], c: &[f64], better| verdict(p, c, better, 0.1, 0.0).0;
        assert_eq!(
            v(&parent, &scaled(&parent, 0.8), Better::Lower),
            Verdict::Improved
        );
        let slower = scaled(&parent, 1.2);
        assert_eq!(v(&parent, &slower, Better::Lower), Verdict::Worse);
        assert_eq!(
            v(&parent, &scaled(&parent, 1.01), Better::Lower),
            Verdict::Unchanged
        );
        assert_eq!(v(&parent, &slower, Better::Higher), Verdict::Improved);
        let noisy = [5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0];
        assert_eq!(v(&noisy, &noisy, Better::Lower), Verdict::Unresolved);
    }

    #[test]
    fn the_floor_absorbs_jitter_on_microsecond_metrics() {
        // A set-up of ~20 µs, then twice as slow: far past the 25% bound,
        // so a false regression without the floor, but 20 µs is under the
        // 0.05 s floor.
        let parent = [
            20e-6, 22e-6, 18e-6, 25e-6, 17e-6, 21e-6, 19e-6, 26e-6, 20e-6, 23e-6,
        ];
        let doubled: Vec<f64> = parent.iter().map(|x| x * 2.0).collect();
        let floor = crate::metrics::floor("setup_s");
        assert_eq!(floor, 0.05);
        assert_eq!(
            verdict(&parent, &doubled, Better::Lower, 0.25, 0.0).0,
            Verdict::Worse
        );
        assert_eq!(
            verdict(&parent, &doubled, Better::Lower, 0.25, floor).0,
            Verdict::Unchanged
        );
        // Work moved into set-up shows once it passes the floor.
        let moved: Vec<f64> = parent.iter().map(|x| x + 0.06).collect();
        assert_eq!(
            verdict(&parent, &moved, Better::Lower, 0.25, floor).0,
            Verdict::Worse
        );
        // Above the floor the relative bound governs.
        let big = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.0, 1.01, 0.99];
        let slower: Vec<f64> = big.iter().map(|x| x * 1.3).collect();
        assert_eq!(
            verdict(&big, &slower, Better::Lower, 0.25, floor).0,
            Verdict::Worse
        );
    }
}
