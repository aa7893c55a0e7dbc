//! `talft-benchmark` — run a workload, check a result against
//! `BENCHMARK.json`, or compare two sets of results.
//!
//! ```text
//! talft-benchmark run --workload <name>|all [--seed N] [--seconds S] [--trace 0|1]
//!                     [--json PATH] [--trace-out PATH] [--smoke]
//! talft-benchmark check <result.json>...
//! talft-benchmark compare <parent.json>... -- <change.json>...
//! ```
//!
//! `run` prints a summary on stderr and, as the last line of stdout, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--workload all` each workload runs in a child process of its own, one at
//! a time, and `--json`/`--trace-out` name directories. `check` and
//! `compare` use the `BENCHMARK.json` the binary was built with.

use std::process::{Command, ExitCode};

use talft_benchmark::metrics::spec;
use talft_benchmark::run::{run, RunConfig};
use talft_benchmark::trace::chrome_json;
use talft_benchmark::verify::{check, compare, load_result, render, Verdict};
use talft_benchmark::workload::Workload;
use talft_benchmark::{result_json, result_line};

const DEFAULT_SEED: u64 = 0x7a1f_f00d;
const DEFAULT_SECONDS: f64 = 20.0;
/// Campaign worker threads: the two cores the benchmark is sized for, or
/// fewer where the machine has fewer.
fn campaign_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: talft-benchmark run --workload <name>|all [--seed N] [--seconds S] [--trace 0|1] \
         [--json PATH] [--trace-out PATH] [--smoke]\n       \
         talft-benchmark check <result.json>...\n       \
         talft-benchmark compare <parent.json>... -- <change.json>..."
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("talft-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn parse_u64(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|_| format!("not a number: {s}"))
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    json: Option<String>,
    trace_out: Option<String>,
    smoke: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        json: None,
        trace_out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            r.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--workload" => r.workload = value,
            "--seed" => r.seed = parse_u64(&value)?,
            "--seconds" => {
                r.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                r.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--json" => r.json = Some(value),
            "--trace-out" => r.trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if r.workload.is_empty() {
        return Err("run needs --workload".into());
    }
    Ok(r)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run(args)?;
    if a.workload == "all" {
        return run_all(&a);
    }
    let workload =
        Workload::parse(&a.workload).ok_or_else(|| format!("unknown workload {}", a.workload))?;
    let cfg = RunConfig {
        workload,
        seed: a.seed,
        seconds: a.seconds,
        traced: a.traced,
        smoke: a.smoke,
        threads: campaign_threads(),
        corrupt: None,
    };
    let outcome = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("talft-benchmark: {}: {e}", workload.name());
            return Ok(ExitCode::from(1));
        }
    };
    let walls: Vec<String> = outcome.pass_s.iter().map(|s| format!("{s:.3}")).collect();
    eprintln!(
        "{} seed {:#x}: {} attempted, {} failed; passes (s): {}",
        workload.name(),
        cfg.seed,
        outcome.attempted,
        outcome.failed,
        walls.join(" ")
    );
    for m in &outcome.metrics {
        let mut extra = String::new();
        if let Some(b) = m.base {
            extra = format!("  (base {b})");
        }
        if let Some((p, n, beyond)) = m.tail {
            extra = format!("  (p{p} of {n} samples, {beyond} beyond)");
        }
        eprintln!("  {:<34} {:>16.6} {}{extra}", m.name, m.value, m.unit);
    }
    if let Some(path) = &a.json {
        write(path, &result_json(&cfg, &outcome).to_string())?;
    }
    if let Some(path) = &a.trace_out {
        write(path, &chrome_json(&outcome.spans).to_string())?;
    }
    println!("{}", result_line(&outcome));
    Ok(ExitCode::SUCCESS)
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, format!("{text}\n")).map_err(|e| format!("{path}: {e}"))
}

/// Run every workload in a child process of its own, one after another.
fn run_all(a: &RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for dir in [&a.json, &a.trace_out].into_iter().flatten() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    }
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", w.name()])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.traced { "1" } else { "0" }]);
        if let Some(dir) = &a.json {
            cmd.args(["--json", &format!("{dir}/{}.json", w.name())]);
        }
        if let Some(dir) = &a.trace_out {
            cmd.args(["--trace-out", &format!("{dir}/{}.trace.json", w.name())]);
        }
        if a.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.status().map_err(|e| format!("{}: {e}", w.name()))?;
        ok &= status.success();
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn cmd_check(files: &[String]) -> Result<ExitCode, String> {
    if files.is_empty() {
        return Err("check needs result files".into());
    }
    let files = files
        .iter()
        .map(|f| load_result(f))
        .collect::<Result<Vec<_>, _>>()?;
    let bad = check(spec(), &files);
    for b in &bad {
        eprintln!("check: {b}");
    }
    if bad.is_empty() {
        println!("check: {} result file(s) OK", files.len());
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(1))
    }
}

fn cmd_compare(files: &[String]) -> Result<ExitCode, String> {
    let split = files
        .iter()
        .position(|f| f == "--")
        .ok_or("compare needs <parent...> -- <change...>")?;
    let load = |fs: &[String]| {
        fs.iter()
            .map(|f| load_result(f))
            .collect::<Result<Vec<_>, _>>()
    };
    let (parent, change) = (load(&files[..split])?, load(&files[split + 1..])?);
    if parent.is_empty() || change.is_empty() {
        return Err("compare needs results on both sides of --".into());
    }
    let rows = compare(spec(), &parent, &change)?;
    print!("{}", render(&rows));
    Ok(if rows.iter().any(|r| r.verdict == Verdict::Worse) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
