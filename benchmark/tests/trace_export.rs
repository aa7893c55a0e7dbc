//! The Chrome trace export of a traced run parses with `talft_obs::Json`,
//! every span lies inside its parent, and no span's self time is negative.

use talft_benchmark::run::{run, RunConfig};
use talft_benchmark::trace::chrome_json;
use talft_benchmark::workload::Workload;
use talft_obs::Json;

/// Tolerance for comparing microsecond floats that came from integer ns.
const EPS_US: f64 = 1e-3;

#[test]
fn chrome_trace_is_a_well_formed_span_tree() {
    let o = run(&RunConfig {
        workload: Workload::FrontendFuzz,
        seed: 3,
        seconds: 0.0,
        traced: true,
        smoke: true,
        threads: 2,
        corrupt: None,
    })
    .expect("traced smoke run");
    let text = chrome_json(&o.spans).to_string();
    let doc = Json::parse(&text).expect("the trace parses");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert_eq!(events.len(), o.spans.len());

    let num = |e: &Json, k: &str| e.get(k).and_then(Json::as_f64).expect(k);
    let mut spans: Vec<(f64, f64, Option<usize>)> = Vec::new();
    let mut names = Vec::new();
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        let args = e.get("args").expect("args");
        assert_eq!(args.get("id").and_then(Json::as_u64), Some(i as u64));
        let parent = args
            .get("parent")
            .and_then(Json::as_u64)
            .map(|p| p as usize);
        assert!(
            parent.is_none_or(|p| p < i),
            "span {i} opened before its parent"
        );
        spans.push((num(e, "ts"), num(e, "dur"), parent));
        names.push(e.get("name").and_then(Json::as_str).expect("name"));
    }

    let mut children = vec![0.0; spans.len()];
    for (i, &(ts, dur, parent)) in spans.iter().enumerate() {
        assert!(dur >= 0.0);
        if let Some(p) = parent {
            let (pts, pdur, _) = spans[p];
            assert!(
                ts + EPS_US >= pts && ts + dur <= pts + pdur + EPS_US,
                "span {i} ({}) leaves its parent {p} ({})",
                names[i],
                names[p]
            );
            children[p] += dur;
        }
    }
    for (i, &(_, dur, _)) in spans.iter().enumerate() {
        assert!(
            dur - children[i] >= -EPS_US,
            "span {i} ({}) has negative self time",
            names[i]
        );
    }
    for want in [
        "bench.pass",
        "bench.input",
        "compiler.compile",
        "compiler.parse",
        "core.check",
        "machine.run",
        "compiler.interpret",
        "sim.simulate",
        "oracle.mutants",
    ] {
        assert!(names.contains(&want), "no {want} span");
    }
}
