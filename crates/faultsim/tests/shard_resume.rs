//! Cross-boundary determinism of the shard/checkpoint/merge layer
//! (ISSUE 6 / DESIGN.md §11): on real suite kernels,
//!
//! * the union of `N ∈ {1, 2, 4, 8}` shard reports is **bit-identical** to
//!   the whole-grid [`run_plan_campaign`] report (the reference-vs-batched
//!   differential extended across the partition boundary), and the
//!   protected binaries still report zero SDC through the sharded path;
//! * a shard interrupted mid-grid — at several checkpoint strides, with the
//!   checkpoint round-tripped through its durable JSON form exactly as a
//!   successor process would read it off disk — resumes and merges to the
//!   same bit-identical report, at threads 1 and 8 and fault orders
//!   `k ∈ {1, 2}`, even when the resumed run uses a *different* chunk size;
//! * the shard layer ties to the oracle: whole grid, shard union, and
//!   interrupt/resume land on the sequential reference's report as well
//!   as the batched one;
//! * the shard-directory runner, stopped and resumed through its files,
//!   leaves the in-memory part and no checkpoint, and its reader refuses a
//!   part that is not its shard's.

use std::sync::Arc;

use talft_compiler::{compile, CompileOptions};
use talft_faultsim::shard::{
    checkpoint_path, load_checkpoint, part_path, read_part, run_shard_in_dir,
};
use talft_faultsim::{
    golden_run, grid_fingerprint, merge_shard_reports, multi_fault_plans, run_plan_campaign,
    run_plan_campaign_reference, run_shard_campaign, single_fault_plans, CampaignCheckpoint,
    CampaignConfig, CampaignReport, FaultPlan, Golden, ShardControl, ShardOutcome, ShardPart,
    ShardSpec,
};
use talft_isa::Program;
use talft_obs::Json;
use talft_suite::{kernels, Scale};

/// Run one shard to completion (no interruptions) and package its report.
fn complete_part(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
    plans: &[FaultPlan],
    spec: ShardSpec,
    every: usize,
) -> ShardPart {
    let outcome = run_shard_campaign(program, cfg, golden, plans, spec, every, None, |_| {
        ShardControl::Continue
    })
    .expect("shard runs");
    let ShardOutcome::Complete(part) = outcome else {
        panic!("uninterrupted shard must complete");
    };
    part
}

/// Interrupt a shard at its `stop_after`-th checkpoint, round-trip the
/// checkpoint through its durable JSON encoding (what a successor process
/// reads off disk), then resume with a *different* chunk size and return
/// the completed part. Shards too small to reach a checkpoint complete
/// directly — the interruption story must also be correct when there is
/// nothing to interrupt.
fn interrupted_then_resumed_part(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
    plans: &[FaultPlan],
    spec: ShardSpec,
    every: usize,
    stop_after: usize,
) -> (ShardPart, bool) {
    let mut checkpoints_seen = 0usize;
    let outcome = run_shard_campaign(program, cfg, golden, plans, spec, every, None, |_| {
        checkpoints_seen += 1;
        if checkpoints_seen >= stop_after {
            ShardControl::Stop
        } else {
            ShardControl::Continue
        }
    })
    .expect("shard runs");
    match outcome {
        ShardOutcome::Complete(part) => (part, false),
        ShardOutcome::Interrupted(cp) => {
            assert!(cp.done > 0 && cp.done < cp.shard_plans);
            let text = cp.to_json().to_string();
            let parsed = Json::parse(&text).expect("checkpoint JSON parses");
            let restored = CampaignCheckpoint::from_json(&parsed).expect("checkpoint decodes");
            assert_eq!(restored, cp, "durable checkpoint round-trip is lossless");
            let resumed = run_shard_campaign(
                program,
                cfg,
                golden,
                plans,
                spec,
                every * 3 + 1, // chunk-invariance: resume with a different stride
                Some(&restored),
                |_| ShardControl::Continue,
            )
            .expect("resume runs");
            let ShardOutcome::Complete(part) = resumed else {
                panic!("resumed shard must complete");
            };
            (part, true)
        }
    }
}

/// Shard the grid `count` ways, complete every shard, and return the
/// verified merge — with each part round-tripped through its
/// `talft.shard-report.v1` JSON form first, as the service does.
fn merged_over_shards(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
    plans: &[FaultPlan],
    count: u32,
) -> CampaignReport {
    let parts: Vec<ShardPart> = (0..count)
        .map(|i| {
            let spec = ShardSpec::new(i, count).expect("valid spec");
            let part = complete_part(program, cfg, golden, plans, spec, 0);
            let text = part.to_json().to_string();
            ShardPart::from_json(&Json::parse(&text).expect("parses")).expect("decodes")
        })
        .collect();
    merge_shard_reports(&parts).expect("partition merges")
}

/// Acceptance: for ≥3 suite kernels the shard-union report at
/// N ∈ {1, 2, 4, 8} is bit-identical to the whole-grid report, and the
/// protected binary reports zero SDC through the sharded path.
#[test]
fn shard_union_is_bit_identical_on_suite_kernels() {
    let cfg = CampaignConfig {
        stride: 97,
        mutations_per_site: 2,
        threads: 2,
        ..CampaignConfig::default()
    };
    for k in kernels(Scale::Tiny).into_iter().take(3) {
        let c = compile(&k.source, &CompileOptions::default()).expect("compiles");
        let p = &c.protected.program;
        let golden = golden_run(p, &cfg).expect("golden halts");
        let plans = single_fault_plans(p, &cfg, &golden);
        assert!(plans.len() >= 64, "{}: grid too small to shard", k.name);
        let whole = run_plan_campaign(p, &cfg, &golden, &plans);
        assert_eq!(whole.sdc, 0, "{}: Theorem 4 violated pre-shard", k.name);
        for count in [1u32, 2, 4, 8] {
            let merged = merged_over_shards(p, &cfg, &golden, &plans, count);
            assert_eq!(
                merged, whole,
                "{}: shard-union at N={count} diverged from whole grid",
                k.name
            );
            assert_eq!(merged.sdc, 0, "{}: SDC appeared through shards", k.name);
        }
    }
}

/// Satellite (c): interrupt a shard mid-grid at several checkpoint strides
/// and assert the resumed run's merged report is bit-identical to an
/// uninterrupted whole-grid run — threads 1 and 8, k = 1 and k = 2.
/// The baseline (unprotected) binary is used so the merge also carries a
/// non-trivial violation stream through the cap-exact accounting.
#[test]
fn interrupted_shard_resumes_bit_identically() {
    let k = &kernels(Scale::Tiny)[0];
    let c = compile(&k.source, &CompileOptions::default()).expect("compiles");
    let p = &c.baseline.program;
    let mut interruptions = 0usize;
    for (threads, fault_order) in [(1usize, 1u32), (8, 1), (1, 2), (8, 2)] {
        let cfg = CampaignConfig {
            stride: 127,
            mutations_per_site: 1,
            threads,
            pair_samples: 96,
            ..CampaignConfig::default()
        };
        let golden = golden_run(p, &cfg).expect("golden halts");
        let plans = if fault_order == 1 {
            single_fault_plans(p, &cfg, &golden)
        } else {
            multi_fault_plans(p, &cfg, &golden, 2)
        };
        assert!(plans.len() >= 16, "grid too small at k={fault_order}");
        let whole = run_plan_campaign(p, &cfg, &golden, &plans);
        for every in [1usize, 7, 64] {
            let count = 2u32;
            let (part0, was_interrupted) = interrupted_then_resumed_part(
                p,
                &cfg,
                &golden,
                &plans,
                ShardSpec::new(0, count).expect("valid"),
                every,
                1,
            );
            interruptions += usize::from(was_interrupted);
            let part1 = complete_part(
                p,
                &cfg,
                &golden,
                &plans,
                ShardSpec::new(1, count).expect("valid"),
                every,
            );
            let merged = merge_shard_reports(&[part0, part1]).expect("partition merges");
            assert_eq!(
                merged, whole,
                "kill/resume at every={every}, threads={threads}, k={fault_order} \
                 diverged from the uninterrupted whole-grid run"
            );
        }
    }
    assert!(
        interruptions >= 4,
        "expected the mid-grid interruption path to actually fire \
         (got {interruptions} interruptions)"
    );
}

/// The shard layer ties to the oracle. For a protected and an unprotected
/// binary, the whole-grid report (batched), the sequential reference's
/// report, the 4-way shard union, and an interrupted-then-resumed 2-way
/// merge must all be bit-identical. The same holds for a sampled k = 2
/// pair grid: multi-strike shard jobs ride the batched lane-admission path
/// and still merge to the reference's report. The test name predates the
/// scalar executor's retirement and is kept so test history stays
/// comparable.
#[test]
fn shard_paths_are_bit_identical_with_batching_on_and_off() {
    let k = &kernels(Scale::Tiny)[0];
    let c = compile(&k.source, &CompileOptions::default()).expect("compiles");
    for (p, protected) in [(&c.protected.program, true), (&c.baseline.program, false)] {
        let cfg = CampaignConfig {
            stride: 127,
            mutations_per_site: 1,
            threads: 3,
            pair_samples: 96,
            ..CampaignConfig::default()
        };
        let golden = golden_run(p, &cfg).expect("golden halts");
        let plans = single_fault_plans(p, &cfg, &golden);
        assert!(plans.len() >= 16, "{}: grid too small", k.name);
        let whole = run_plan_campaign(p, &cfg, &golden, &plans);
        if protected {
            assert_eq!(whole.sdc, 0, "{}: Theorem 4 violated", k.name);
        }
        assert_eq!(
            run_plan_campaign_reference(p, &cfg, &golden, &plans),
            whole,
            "{}: reference diverged from the batched whole grid",
            k.name
        );
        let merged = merged_over_shards(p, &cfg, &golden, &plans, 4);
        assert_eq!(merged, whole, "{}: shard union diverged", k.name);
        let (part0, _) = interrupted_then_resumed_part(
            p,
            &cfg,
            &golden,
            &plans,
            ShardSpec::new(0, 2).expect("valid"),
            3,
            1,
        );
        let part1 = complete_part(
            p,
            &cfg,
            &golden,
            &plans,
            ShardSpec::new(1, 2).expect("valid"),
            3,
        );
        let resumed = merge_shard_reports(&[part0, part1]).expect("partition merges");
        assert_eq!(resumed, whole, "{}: interrupt/resume diverged", k.name);
        // k = 2 shard jobs ride the batched lane-admission path
        // (per-strike admission, any k).
        let k2 = multi_fault_plans(p, &cfg, &golden, 2);
        assert!(k2.len() >= 16, "{}: k=2 grid too small", k.name);
        let whole2 = run_plan_campaign(p, &cfg, &golden, &k2);
        assert_eq!(
            run_plan_campaign_reference(p, &cfg, &golden, &k2),
            whole2,
            "{}: k=2 reference diverged from the batched whole grid",
            k.name
        );
        let merged2 = merged_over_shards(p, &cfg, &golden, &k2, 4);
        assert_eq!(merged2, whole2, "{}: k=2 shard union diverged", k.name);
    }
}

/// The shard-directory runner, stopped by its observer at its first
/// checkpoint, leaves that checkpoint on disk (written atomically before the
/// observer saw it) and no part; resumed from the file, it leaves the part
/// the in-memory `run_shard_campaign` builds and no checkpoint. The reader
/// refuses a part with the wrong fingerprint, the wrong spec, or a
/// consistent report over the wrong plan count, naming the file.
#[test]
fn directory_runner_stops_and_resumes_to_the_in_memory_part() {
    let k = &kernels(Scale::Tiny)[0];
    let c = compile(&k.source, &CompileOptions::default()).expect("compiles");
    let p = &c.protected.program;
    let cfg = CampaignConfig {
        stride: 127,
        mutations_per_site: 1,
        threads: 2,
        ..CampaignConfig::default()
    };
    let golden = golden_run(p, &cfg).expect("golden halts");
    let plans = single_fault_plans(p, &cfg, &golden);
    let spec = ShardSpec::new(1, 2).unwrap();
    let dir = std::env::temp_dir().join(format!("talft-shard-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    assert_eq!(load_checkpoint(&dir, spec), Ok(None));
    let (cp_path, path) = (checkpoint_path(&dir, spec), part_path(&dir, spec));
    let run = |resume, control| {
        run_shard_in_dir(p, &cfg, &golden, &plans, spec, &dir, 4, resume, |_| {
            assert!(cp_path.exists() && !cp_path.with_extension("tmp").exists());
            control
        })
        .expect("shard runs")
    };
    let ShardOutcome::Interrupted(cp) = run(None, ShardControl::Stop) else {
        panic!("the observer stops the shard at its first checkpoint");
    };
    assert_eq!(cp.done, 4);
    assert_eq!(load_checkpoint(&dir, spec), Ok(Some(cp.clone())));
    assert!(!path.exists(), "no part before completion");
    let ShardOutcome::Complete(part) = run(Some(&cp), ShardControl::Continue) else {
        panic!("the resumed shard completes");
    };
    assert!(!cp_path.exists(), "the part supersedes the checkpoint");
    assert_eq!(part, complete_part(p, &cfg, &golden, &plans, spec, 0));
    let read = || read_part(&dir, spec, grid_fingerprint(&golden, &plans), plans.len());
    assert_eq!(read(), Ok(part.clone()));
    let refused = |forged: ShardPart, why: &str| {
        std::fs::write(&path, forged.to_json().to_string()).expect("write");
        let err = read().expect_err(why);
        assert!(err.contains(&*path.to_string_lossy()) && err.contains(why));
    };
    let mut alien = part.clone();
    alien.fingerprint ^= 1;
    refused(alien, "fingerprint");
    let mut other = part.clone();
    other.spec = ShardSpec::new(0, 2).unwrap();
    refused(other, "wrong shard");
    let mut short = part;
    short.plans = 3;
    short.report = CampaignReport {
        total: 3,
        masked: 3,
        ..CampaignReport::default()
    };
    refused(short, "owns");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `grid_fingerprint` is the identity a `talft.checkpoint.v1` or
/// `talft.shard-report.v1` file is checked against when a later process
/// resumes or merges it. These literals were computed by the build before
/// one-strike plans moved inline; a change to the plan representation, the
/// site or mutation enumerators, or the k=2 sampler's draw order that
/// moved them would orphan every such file written earlier.
#[test]
fn grid_fingerprints_are_pinned_across_builds() {
    let k = &kernels(Scale::Tiny)[0];
    assert_eq!(k.name, "spec_gzip");
    let c = compile(&k.source, &CompileOptions::default()).expect("compiles");
    let p = &c.protected.program;
    // The k=1 pin is at effective stride 840; `TALFT_STRIDE_SCALE`
    // multiplies the configured stride, so divide it back out.
    let scale = CampaignConfig {
        stride: 1,
        ..CampaignConfig::default()
    }
    .effective_stride();
    let cfg = CampaignConfig {
        stride: 840 / scale,
        mutations_per_site: 10,
        pair_samples: 256,
        threads: 1,
        ..CampaignConfig::default()
    };
    let golden = golden_run(p, &cfg).expect("golden halts");
    assert_eq!(golden.steps, 2122);
    if cfg.effective_stride() == 840 {
        let k1 = single_fault_plans(p, &cfg, &golden);
        assert_eq!(k1.len(), 1271);
        assert_eq!(grid_fingerprint(&golden, &k1), 0x2260_546e_b765_6abd);
    } else {
        eprintln!("k=1 pin skipped: TALFT_STRIDE_SCALE={scale} does not divide 840");
    }
    // The k=2 sample depends on the seed, not the stride.
    let k2 = multi_fault_plans(p, &cfg, &golden, 2);
    assert_eq!(k2.len(), 272);
    assert_eq!(grid_fingerprint(&golden, &k2), 0xbb3a_eda1_1605_968e);
}
