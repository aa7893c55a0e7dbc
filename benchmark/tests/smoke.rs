//! Smoke test of the benchmark at its `--smoke` size (two kernels, stride
//! 64, eight fuzz programs, one pass): every workload emits every metric
//! `BENCHMARK.json` declares, the end-to-end ones never 0, the exact counts
//! repeat across runs and across one and two campaign threads, and every
//! correctness gate fires when its reference is corrupted.

use talft_benchmark::metrics::{spec, TAIL};
use talft_benchmark::result_json;
use talft_benchmark::run::{run, Outcome, RunConfig};
use talft_benchmark::verify::{check, ResultFile};
use talft_benchmark::workload::{Gate, RunError, Workload};

fn config(w: Workload, traced: bool, threads: usize, corrupt: Option<Gate>) -> RunConfig {
    RunConfig {
        workload: w,
        seed: 0x5eed,
        seconds: 0.0,
        traced,
        smoke: true,
        threads,
        corrupt,
    }
}

fn smoke(cfg: &RunConfig) -> Outcome {
    run(cfg).unwrap_or_else(|e| panic!("{}: {e}", cfg.workload.name()))
}

#[test]
fn every_declared_metric_is_emitted_and_counts_repeat() {
    let spec = spec();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.workloads, names);
    let mut files = Vec::new();
    for w in Workload::ALL {
        let plain_cfg = config(w, false, 2, None);
        let traced_cfg = config(w, true, 2, None);
        let plain = smoke(&plain_cfg);
        let traced = smoke(&traced_cfg);
        let single = smoke(&config(w, true, 1, None));
        for (declared, o) in [(&spec.end_to_end, &plain), (&spec.per_layer, &traced)] {
            let emitted: Vec<(&str, &str)> = o.metrics.iter().map(|m| (m.name, m.unit)).collect();
            let wanted: Vec<(&str, &str)> = declared
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect();
            assert_eq!(emitted, wanted, "{}", w.name());
            assert!(
                o.metrics.iter().all(|m| m.value.is_finite()),
                "{}",
                w.name()
            );
            assert_eq!(o.failed, 0, "{}", w.name());
        }
        for m in &plain.metrics {
            assert!(m.value > 0.0, "{}: {} reads 0", w.name(), m.name);
        }
        assert_eq!(plain.ref_s.len(), plain.pass_s.len(), "{}", w.name());
        assert!(
            plain.ref_s.iter().all(|r| r.is_finite() && *r > 0.0),
            "{}: a pass without its reference timing",
            w.name()
        );
        assert!(!plain.counts.is_empty(), "{}", w.name());
        assert_eq!(
            plain.counts,
            traced.counts,
            "{}: counts differ between runs",
            w.name()
        );
        assert_eq!(
            traced.counts,
            single.counts,
            "{}: counts differ between 1 and 2 threads",
            w.name()
        );
        for (cfg, o) in [(&plain_cfg, &plain), (&traced_cfg, &traced)] {
            files.push(ResultFile {
                path: format!("{}-{}", w.name(), cfg.traced),
                workload: w.name().to_owned(),
                traced: cfg.traced,
                doc: result_json(cfg, o),
            });
        }
    }
    // A one-pass smoke run has too few samples for a tail with ten beyond
    // it, and a traced smoke pass of ~25 ms is short enough for one
    // preemption in the benchmark's own code to break the 5% coverage rule;
    // everything else `check` asks of a result must hold.
    let bad: Vec<String> = check(spec, &files)
        .into_iter()
        .filter(|b| !b.contains(TAIL) && !b.contains("layer self times cover"))
        .collect();
    assert!(bad.is_empty(), "{bad:#?}");
}

#[test]
fn every_gate_fires_on_a_corrupted_reference() {
    for gate in Gate::ALL {
        let w = match gate {
            Gate::CheckerRejected | Gate::ProtectedViolation => Workload::CampaignExhaustive,
            Gate::TraceMismatch | Gate::CyclesBelowBaseline => Workload::FrontendFuzz,
            Gate::PairBailed | Gate::PairTally | Gate::VulnerableZap => Workload::StaticAnalysis,
            Gate::ReplayMismatch => Workload::CampaignMixed,
        };
        match run(&config(w, false, 2, Some(gate))) {
            Err(RunError::Gate(g)) => assert_eq!(g.gate, gate, "{g}"),
            Err(e) => panic!("{gate:?}: wrong failure {e}"),
            Ok(_) => panic!("{gate:?}: the corrupted reference went unnoticed"),
        }
    }
}
