//! `talftd` — resumable, sharded campaign service (DESIGN.md §11).
//!
//! ```text
//! talftd daemon --spool DIR [--shards N] [--every M] [--k K] [--timeout-secs S]
//!               [--max-jobs J] [--poll-ms P]
//!     Process .wile/.talft jobs dropped into DIR/incoming, streaming
//!     talft.talftd.v1 event lines to stdout. Reports land in DIR/done
//!     (completed/degraded) or DIR/failed.
//!
//! talftd worker --source F --kind wile|talft --shard I --of N --dir D ...
//!     Internal: run one shard with durable checkpoints in D (spawned by
//!     the daemon; resumes automatically from the shard's checkpoint).
//!
//! talftd check FILE [--expect-zero-sdc]
//!     Offline validator: re-prove FILE's merged report bit-for-bit from
//!     its embedded shard parts.
//!
//! talftd smoke --out FILE [--shards N]
//!     CI gate: 4-shard campaign over a suite kernel, SIGKILL one worker
//!     mid-grid, resume, and hard-fail unless the merged report is
//!     bit-identical to a whole-grid in-process run.
//! ```
//!
//! Exit codes: 0 ok / 1 failure / 2 usage.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use talft_obs::Json;
use talft_service::{check_report, serve, smoke, ServiceConfig, Spool};

fn usage() -> ExitCode {
    eprintln!(
        "usage: talftd daemon --spool DIR [--shards N] [--every M] [--k K] \
         [--timeout-secs S] [--max-jobs J] [--poll-ms P]\n\
         \x20      talftd worker --source F --kind wile|talft --shard I --of N --dir D ...\n\
         \x20      talftd check FILE [--expect-zero-sdc]\n\
         \x20      talftd smoke --out FILE [--shards N]"
    );
    ExitCode::from(2)
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            return it.next().cloned();
        }
        if let Some(v) = a.strip_prefix(&format!("{name}=")) {
            return Some(v.to_owned());
        }
    }
    None
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag_value(args, name) {
        None => Ok(default),
        Some(v) => v
            .trim()
            .parse::<T>()
            .map_err(|_| format!("bad value for {name}: {v:?}")),
    }
}

fn stdout_sink() -> impl FnMut(&Json) {
    |j: &Json| println!("{j}")
}

fn daemon(args: &[String]) -> Result<(), String> {
    let spool_dir = flag_value(args, "--spool").ok_or("daemon requires --spool DIR")?;
    let mut cfg = ServiceConfig::default();
    cfg.shards = parsed(args, "--shards", cfg.shards)?;
    cfg.checkpoint_every = parsed(args, "--every", cfg.checkpoint_every)?;
    cfg.fault_order = parsed(args, "--k", cfg.fault_order)?;
    cfg.worker_timeout = Duration::from_secs(parsed(args, "--timeout-secs", 600u64)?);
    cfg.campaign.threads = parsed(args, "--threads", cfg.campaign.threads)?;
    cfg.campaign.stride = parsed(args, "--stride", cfg.campaign.stride)?;
    let max_jobs = flag_value(args, "--max-jobs")
        .map(|v| v.trim().parse::<usize>().map_err(|_| "bad --max-jobs"))
        .transpose()?;
    let poll = Duration::from_millis(parsed(args, "--poll-ms", 500u64)?);
    let spool = Spool::open(&PathBuf::from(spool_dir)).map_err(|e| format!("open spool: {e}"))?;
    let mut sink = stdout_sink();
    let served = serve(&spool, &cfg, &mut sink, poll, max_jobs)?;
    eprintln!("talftd: {served} job(s) processed");
    Ok(())
}

fn check(args: &[String]) -> Result<(), String> {
    let file = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or("check requires a report FILE")?;
    let expect_zero = args.iter().any(|a| a == "--expect-zero-sdc");
    let text = std::fs::read_to_string(file).map_err(|e| format!("read {file}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{file}: {e}"))?;
    let rep = check_report(&json, expect_zero)?;
    eprintln!(
        "talftd check: {} ({}, {} shards, {}/{} plans) OK",
        rep.name,
        rep.status.name(),
        rep.shards,
        rep.covered_plans,
        rep.total_plans
    );
    Ok(())
}

fn run_smoke(args: &[String]) -> Result<(), String> {
    let out = flag_value(args, "--out").ok_or("smoke requires --out FILE")?;
    let shards = parsed(args, "--shards", 4u32)?;
    let mut sink = stdout_sink();
    let rep = smoke(&PathBuf::from(out), shards, &mut sink)?;
    eprintln!(
        "talftd smoke: {} completed, {} plans over {} shards in {} attempt(s); \
         merged report bit-identical to whole-grid run",
        rep.name, rep.total_plans, rep.shards, rep.attempts
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        return usage();
    };
    let rest = &args[1..];
    let result = match cmd {
        "daemon" => daemon(rest),
        "worker" => talft_service::run_worker(rest),
        "check" => check(rest),
        "smoke" => run_smoke(rest),
        "--help" | "-h" | "help" => return usage(),
        other => {
            eprintln!("talftd: unknown subcommand {other:?}");
            return usage();
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("talftd {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}
