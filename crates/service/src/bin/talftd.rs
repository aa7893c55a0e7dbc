//! `talftd` — resumable, sharded campaign service (DESIGN.md §11).
//!
//! ```text
//! talftd daemon --spool DIR [--shards N] [--every M] [--k K] [--timeout-secs S]
//!               [--threads T] [--stride D] [--max-jobs J] [--poll-ms P]
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
//! Each subcommand but the internal `worker` refuses any argument it does
//! not name, and a value flag given no value, before any work.
//!
//! Exit codes: 0 ok / 1 failure / 2 usage.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use talft_obs::Json;
use talft_service::{check_report, serve, smoke, ServiceConfig, Spool};

fn usage() -> ExitCode {
    eprintln!(
        "usage: talftd daemon --spool DIR [--shards N] [--every M] [--k K] \
         [--timeout-secs S] [--threads T] [--stride D] [--max-jobs J] [--poll-ms P]\n\
         \x20      talftd worker --source F --kind wile|talft --shard I --of N --dir D ...\n\
         \x20      talftd check FILE [--expect-zero-sdc]\n\
         \x20      talftd smoke --out FILE [--shards N]"
    );
    ExitCode::from(2)
}

/// A subcommand's arguments, checked against the ones it names.
struct Args {
    /// Value flags with their values, and switches with an empty one.
    values: BTreeMap<String, String>,
    files: Vec<String>,
}

impl Args {
    /// Sort `args` into value flags (`--name V` or `--name=V`), switches
    /// and files; `flags` and `switches` list names separated by spaces. An
    /// argument the subcommand does not name, a value flag without its
    /// value, a switch given one or a file too many is a usage error
    /// naming it.
    fn parse(args: &[String], flags: &str, switches: &str, files: usize) -> Result<Args, String> {
        let named = |list: &str, name: &str| list.split_whitespace().any(|n| n == name);
        let mut out = Args {
            values: BTreeMap::new(),
            files: Vec::new(),
        };
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let (name, value) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value.to_owned())),
                None => (arg.as_str(), None),
            };
            if named(flags, name) {
                let value = value
                    .or_else(|| it.next_if(|v| !v.starts_with("--")).cloned())
                    .filter(|v| !v.is_empty())
                    .ok_or_else(|| format!("{name} needs a value"))?;
                out.values.insert(name.to_owned(), value);
            } else if named(switches, arg) {
                out.values.insert(name.to_owned(), String::new());
            } else if !arg.starts_with("--") && out.files.len() < files {
                out.files.push(arg.clone());
            } else {
                return Err(format!("unknown argument {arg:?}"));
            }
        }
        Ok(out)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn switch(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// The value of `name` parsed as `T`; `None` when it is absent.
    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.trim()
                    .parse::<T>()
                    .map_err(|_| format!("bad value for {name}: {v:?}"))
            })
            .transpose()
    }
}

fn stdout_sink() -> impl FnMut(&Json) {
    |j: &Json| println!("{j}")
}

fn daemon(args: &Args) -> Result<(), String> {
    let spool_dir = args.value("--spool").ok_or("daemon requires --spool DIR")?;
    let mut cfg = ServiceConfig::default();
    cfg.shards = args.get("--shards")?.unwrap_or(cfg.shards);
    cfg.checkpoint_every = args.get("--every")?.unwrap_or(cfg.checkpoint_every);
    cfg.fault_order = args.get("--k")?.unwrap_or(cfg.fault_order);
    cfg.worker_timeout = Duration::from_secs(args.get("--timeout-secs")?.unwrap_or(600));
    cfg.campaign.threads = args.get("--threads")?.unwrap_or(cfg.campaign.threads);
    cfg.campaign.stride = args.get("--stride")?.unwrap_or(cfg.campaign.stride);
    let max_jobs = args.get("--max-jobs")?;
    let poll = Duration::from_millis(args.get("--poll-ms")?.unwrap_or(500));
    let spool = Spool::open(&PathBuf::from(spool_dir)).map_err(|e| format!("open spool: {e}"))?;
    let mut sink = stdout_sink();
    let served = serve(&spool, &cfg, &mut sink, poll, max_jobs)?;
    eprintln!("talftd: {served} job(s) processed");
    Ok(())
}

fn check(args: &Args) -> Result<(), String> {
    let file = args.files.first().ok_or("check requires a report FILE")?;
    let expect_zero = args.switch("--expect-zero-sdc");
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

fn run_smoke(args: &Args) -> Result<(), String> {
    let out = args.value("--out").ok_or("smoke requires --out FILE")?;
    let shards = args.get("--shards")?.unwrap_or(4);
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
    // Each subcommand's value flags, switches, file count and body.
    let (flags, switches, files, run): (&str, &str, usize, Subcommand) = match cmd {
        "daemon" => (
            "--spool --shards --every --k --timeout-secs --threads --stride --max-jobs --poll-ms",
            "",
            0,
            daemon,
        ),
        "check" => ("", "--expect-zero-sdc", 1, check),
        "smoke" => ("--out --shards", "", 0, run_smoke),
        "worker" => return finish(cmd, talft_service::run_worker(rest)),
        "--help" | "-h" | "help" => return usage(),
        other => {
            eprintln!("talftd: unknown subcommand {other:?}");
            return usage();
        }
    };
    match Args::parse(rest, flags, switches, files) {
        Ok(args) => finish(cmd, run(&args)),
        Err(e) => {
            eprintln!("talftd {cmd}: {e}");
            usage()
        }
    }
}

type Subcommand = fn(&Args) -> Result<(), String>;

fn finish(cmd: &str, result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("talftd {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}
