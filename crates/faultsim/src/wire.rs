//! Wire format: **full-fidelity** JSON encoding of campaign results, for
//! durable checkpoints and cross-process shard reports.
//!
//! Every field of [`CampaignReport`] round-trips **bit-exactly**
//! (`from_json(to_json(r)) == r`), because the shard/resume layer's central
//! invariant — merged shard reports are bit-identical to a whole-grid run —
//! is only checkable across process boundaries if serialization is lossless.
//! The `campaign` bench bin writes its rows in it for the same reason: its
//! `--check` re-proves each row's reference report equal to its batched one.
//!
//! Decoding also holds a report to the arithmetic the engine keeps
//! ([`report_from_json`]), so a forged or corrupted count is refused here
//! instead of wrapping a merge downstream.
//!
//! Schema tags: `talft.campaign-report.v2` ([`report_to_json`]),
//! `talft.checkpoint.v1` ([`crate::CampaignCheckpoint::to_json`]),
//! `talft.shard-report.v1` ([`crate::ShardPart::to_json`]). Keys are only
//! ever added, never renamed, within a version (the same stability contract
//! as the bench schemas).

use talft_isa::Reg;
use talft_machine::FaultSite;
use talft_obs::Json;

use crate::{CampaignReport, Injection, LatencyHistogram, Strike, Verdict, VIOLATIONS_KEPT};

/// Decode failure: a human-readable message naming the offending key.
pub type WireError = String;

/// Fetch a required key from a JSON object.
///
/// # Errors
///
/// A message naming the missing key.
pub fn need<'a>(j: &'a Json, key: &str) -> Result<&'a Json, WireError> {
    j.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

/// Fetch a required `u64` field.
///
/// # Errors
///
/// A message naming the missing or mistyped key.
pub fn need_u64(j: &Json, key: &str) -> Result<u64, WireError> {
    need(j, key)?
        .as_u64()
        .ok_or_else(|| format!("key {key:?} is not a u64"))
}

fn need_i64(j: &Json, key: &str) -> Result<i64, WireError> {
    match need(j, key)? {
        Json::I64(v) => Ok(*v),
        Json::U64(v) => i64::try_from(*v).map_err(|_| format!("key {key:?} overflows i64")),
        _ => Err(format!("key {key:?} is not an i64")),
    }
}

/// Fetch a required string field.
///
/// # Errors
///
/// A message naming the missing or mistyped key.
pub fn need_str<'a>(j: &'a Json, key: &str) -> Result<&'a str, WireError> {
    need(j, key)?
        .as_str()
        .ok_or_else(|| format!("key {key:?} is not a string"))
}

/// Fetch a required array field.
///
/// # Errors
///
/// A message naming the missing or mistyped key.
pub fn need_array<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], WireError> {
    need(j, key)?
        .as_array()
        .ok_or_else(|| format!("key {key:?} is not an array"))
}

/// Verify the document's `"schema"` tag.
///
/// # Errors
///
/// A message with the expected and actual tags.
pub fn expect_schema(j: &Json, schema: &str) -> Result<(), WireError> {
    let got = need_str(j, "schema")?;
    if got == schema {
        Ok(())
    } else {
        Err(format!("schema mismatch: expected {schema:?}, got {got:?}"))
    }
}

fn verdict_name(v: Verdict) -> &'static str {
    match v {
        Verdict::Masked => "masked",
        Verdict::Detected => "detected",
        Verdict::Sdc => "sdc",
        Verdict::Stuck => "stuck",
        Verdict::Overrun => "overrun",
        Verdict::DissimilarState => "dissimilar_state",
        Verdict::EngineError => "engine_error",
    }
}

fn verdict_from(name: &str) -> Result<Verdict, WireError> {
    Ok(match name {
        "masked" => Verdict::Masked,
        "detected" => Verdict::Detected,
        "sdc" => Verdict::Sdc,
        "stuck" => Verdict::Stuck,
        "overrun" => Verdict::Overrun,
        "dissimilar_state" => Verdict::DissimilarState,
        "engine_error" => Verdict::EngineError,
        other => return Err(format!("unknown verdict {other:?}")),
    })
}

fn site_to_json(site: FaultSite) -> Json {
    match site {
        FaultSite::Reg(r) => Json::obj([
            ("kind", Json::str("reg")),
            ("reg", Json::str(r.to_string())),
        ]),
        FaultSite::QueueAddr(i) => Json::obj([
            ("kind", Json::str("queue_addr")),
            ("index", Json::U64(i as u64)),
        ]),
        FaultSite::QueueVal(i) => Json::obj([
            ("kind", Json::str("queue_val")),
            ("index", Json::U64(i as u64)),
        ]),
    }
}

fn site_from_json(j: &Json) -> Result<FaultSite, WireError> {
    let idx = |j: &Json| -> Result<usize, WireError> {
        usize::try_from(need_u64(j, "index")?).map_err(|_| "queue index overflow".to_owned())
    };
    match need_str(j, "kind")? {
        "reg" => {
            let name = need_str(j, "reg")?;
            Reg::parse(name)
                .map(FaultSite::Reg)
                .ok_or_else(|| format!("unknown register {name:?}"))
        }
        "queue_addr" => Ok(FaultSite::QueueAddr(idx(j)?)),
        "queue_val" => Ok(FaultSite::QueueVal(idx(j)?)),
        other => Err(format!("unknown fault-site kind {other:?}")),
    }
}

fn strike_to_json(s: &Strike) -> Json {
    Json::obj([
        ("at_step", Json::U64(s.at_step)),
        ("site", site_to_json(s.site)),
        ("value", Json::I64(s.value)),
    ])
}

fn strike_from_json(j: &Json) -> Result<Strike, WireError> {
    Ok(Strike {
        at_step: need_u64(j, "at_step")?,
        site: site_from_json(need(j, "site")?)?,
        value: need_i64(j, "value")?,
    })
}

fn injection_to_json(inj: &Injection) -> Json {
    Json::obj([
        ("at_step", Json::U64(inj.at_step)),
        ("site", site_to_json(inj.site)),
        ("value", Json::I64(inj.value)),
        (
            "followups",
            Json::Array(inj.followups.iter().map(strike_to_json).collect()),
        ),
        ("verdict", Json::str(verdict_name(inj.verdict))),
    ])
}

fn injection_from_json(j: &Json) -> Result<Injection, WireError> {
    Ok(Injection {
        at_step: need_u64(j, "at_step")?,
        site: site_from_json(need(j, "site")?)?,
        value: need_i64(j, "value")?,
        followups: need_array(j, "followups")?
            .iter()
            .map(strike_from_json)
            .collect::<Result<_, _>>()?,
        verdict: verdict_from(need_str(j, "verdict")?)?,
    })
}

fn latency_to_json(h: &LatencyHistogram) -> Json {
    Json::obj([
        (
            "buckets",
            Json::Array(h.buckets.iter().map(|&c| Json::U64(c)).collect()),
        ),
        ("max", Json::U64(h.max)),
        ("sum", Json::U64(h.sum)),
        ("count", Json::U64(h.count)),
    ])
}

fn latency_from_json(j: &Json) -> Result<LatencyHistogram, WireError> {
    let raw = need_array(j, "buckets")?;
    let mut h = LatencyHistogram {
        max: need_u64(j, "max")?,
        sum: need_u64(j, "sum")?,
        count: need_u64(j, "count")?,
        ..LatencyHistogram::default()
    };
    if raw.len() != h.buckets.len() {
        return Err(format!(
            "latency histogram has {} buckets, expected {}",
            raw.len(),
            h.buckets.len()
        ));
    }
    for (slot, v) in h.buckets.iter_mut().zip(raw) {
        *slot = v.as_u64().ok_or("latency bucket is not a u64")?;
    }
    Ok(h)
}

/// Encode a [`CampaignReport`] losslessly (`talft.campaign-report.v2`).
#[must_use]
pub fn report_to_json(r: &CampaignReport) -> Json {
    Json::obj([
        ("schema", Json::str("talft.campaign-report.v2")),
        ("total", Json::U64(r.total)),
        ("masked", Json::U64(r.masked)),
        ("detected", Json::U64(r.detected)),
        ("sdc", Json::U64(r.sdc)),
        ("other_violations", Json::U64(r.other_violations)),
        ("engine_errors", Json::U64(r.engine_errors)),
        (
            "violations",
            Json::Array(r.violations.iter().map(injection_to_json).collect()),
        ),
        ("violations_truncated", Json::U64(r.violations_truncated)),
        ("incomplete_plans", Json::U64(r.incomplete_plans)),
        ("fault_order", Json::U64(u64::from(r.fault_order))),
        ("detection_latency", latency_to_json(&r.detection_latency)),
    ])
}

/// Decode a [`CampaignReport`]; inverse of [`report_to_json`]. The report
/// must keep the engine's arithmetic: its verdict counts sum to `total`,
/// `detection_latency` counts `detected` and its buckets sum to that count,
/// kept plus truncated violations equal `sdc + other_violations +
/// engine_errors`, and at most [`VIOLATIONS_KEPT`] are kept.
///
/// # Errors
///
/// A message naming the missing/ill-typed key on malformed documents, or
/// the broken sum.
pub fn report_from_json(j: &Json) -> Result<CampaignReport, WireError> {
    expect_schema(j, "talft.campaign-report.v2")?;
    let violations = need_array(j, "violations")?;
    let kept = violations.len();
    if kept > VIOLATIONS_KEPT {
        return Err(format!(
            "{kept} violations kept, more than {VIOLATIONS_KEPT}"
        ));
    }
    let r = CampaignReport {
        total: need_u64(j, "total")?,
        masked: need_u64(j, "masked")?,
        detected: need_u64(j, "detected")?,
        sdc: need_u64(j, "sdc")?,
        other_violations: need_u64(j, "other_violations")?,
        engine_errors: need_u64(j, "engine_errors")?,
        violations: violations
            .iter()
            .map(injection_from_json)
            .collect::<Result<_, _>>()?,
        violations_truncated: need_u64(j, "violations_truncated")?,
        incomplete_plans: need_u64(j, "incomplete_plans")?,
        fault_order: u32::try_from(need_u64(j, "fault_order")?)
            .map_err(|_| "fault_order overflows u32".to_owned())?,
        detection_latency: latency_from_json(need(j, "detection_latency")?)?,
    };
    let sum = |xs: &[u64]| xs.iter().try_fold(0u64, |a, &x| a.checked_add(x));
    let h = &r.detection_latency;
    let violations = sum(&[r.sdc, r.other_violations, r.engine_errors]);
    let broken = if violations.and_then(|v| sum(&[v, r.masked, r.detected])) != Some(r.total) {
        "verdict counts do not sum to total"
    } else if h.count != r.detected {
        "detection_latency.count differs from detected"
    } else if sum(&h.buckets) != Some(h.count) {
        "detection_latency buckets do not sum to its count"
    } else if sum(&[kept as u64, r.violations_truncated]) != violations {
        "kept + truncated violations differ from sdc + other_violations + engine_errors"
    } else {
        return Ok(r);
    };
    Err(broken.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_report() -> CampaignReport {
        let mut r = CampaignReport {
            fault_order: 2,
            ..CampaignReport::default()
        };
        for i in 0..40 {
            r.absorb(Injection {
                at_step: i,
                site: match i % 3 {
                    0 => FaultSite::Reg(Reg::r(u16::try_from(i).unwrap())),
                    1 => FaultSite::QueueAddr(usize::try_from(i).unwrap()),
                    _ => FaultSite::QueueVal(2),
                },
                value: -(i as i64) * 7,
                followups: vec![Strike {
                    at_step: i + 5,
                    site: FaultSite::Reg(Reg::parse("pcB").unwrap()),
                    value: 3,
                }],
                verdict: match i % 5 {
                    0 => Verdict::Sdc,
                    1 => Verdict::Masked,
                    2 => Verdict::Stuck,
                    3 => Verdict::EngineError,
                    _ => Verdict::Detected,
                },
            });
            if i % 5 == 4 {
                r.detection_latency.record(1 + i * 37);
            }
        }
        r.incomplete_plans = 3;
        r
    }

    /// The module's whole contract: decode(encode(r)) == r, bit for bit,
    /// including the counterexample payloads and histogram internals, and
    /// surviving an actual text round-trip through the JSON parser.
    #[test]
    fn report_roundtrips_bit_exactly() {
        let r = busy_report();
        let text = report_to_json(&r).to_string();
        let back = report_from_json(&Json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(back, r);
    }

    #[test]
    fn default_report_roundtrips() {
        let r = CampaignReport::default();
        let back = report_from_json(&report_to_json(&r)).expect("decodes");
        assert_eq!(back, r);
    }

    #[test]
    fn every_site_and_verdict_roundtrips() {
        for site in [
            FaultSite::Reg(Reg::r(0)),
            FaultSite::Reg(Reg::parse("d").unwrap()),
            FaultSite::Reg(Reg::parse("pcG").unwrap()),
            FaultSite::QueueAddr(9),
            FaultSite::QueueVal(0),
        ] {
            assert_eq!(site_from_json(&site_to_json(site)), Ok(site));
        }
        for v in [
            Verdict::Masked,
            Verdict::Detected,
            Verdict::Sdc,
            Verdict::Stuck,
            Verdict::Overrun,
            Verdict::DissimilarState,
            Verdict::EngineError,
        ] {
            assert_eq!(verdict_from(verdict_name(v)), Ok(v));
        }
    }

    #[test]
    fn decode_rejects_malformed_documents() {
        assert!(report_from_json(&Json::obj([("schema", Json::str("nope"))])).is_err());
        let mut j = report_to_json(&CampaignReport::default());
        if let Json::Object(fields) = &mut j {
            fields.retain(|(k, _)| k != "total");
        }
        let err = report_from_json(&j).expect_err("missing key");
        assert!(err.contains("total"), "{err}");
    }

    /// One case per sum the decoder holds a report to: each breaks exactly
    /// that sum of an otherwise consistent report.
    #[test]
    fn decode_refuses_reports_that_break_the_engine_arithmetic() {
        type Break = fn(&mut CampaignReport);
        let cases: [(&str, Break); 6] = [
            ("sum to total", |r| r.masked += 1),
            ("sum to total", |r| {
                r.masked = u64::MAX;
                r.total = r.detected - 1;
            }),
            ("detection_latency.count", |r| {
                r.detection_latency.count += 1;
                r.detection_latency.buckets[0] += 1;
            }),
            ("buckets", |r| r.detection_latency.buckets[0] += 1),
            ("truncated violations", |r| r.violations_truncated += 1),
            ("more than 32", |r| {
                let extra = 33 - r.violations.len();
                let v = r.violations[0].clone();
                r.violations.resize(33, v);
                r.sdc += extra as u64;
                r.total += extra as u64;
            }),
        ];
        for (why, break_it) in cases {
            let mut r = busy_report();
            break_it(&mut r);
            let err = report_from_json(&report_to_json(&r)).expect_err(why);
            assert!(err.contains(why), "{why}: {err}");
        }
    }
}
