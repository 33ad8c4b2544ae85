//! The repository benchmark: end-to-end metrics of the simulator and the
//! `distda-serve` daemon on three workloads, and a separate traced run for
//! per-layer metrics. See `README.md` for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]
//! ```
//!
//! A runner of `BENCHMARK.json` calls the command once per workload with
//! `--workload NAME --seed N --seconds <run_seconds> --trace <0|1>`, so
//! `--seconds` and the valued form of `--trace` are part of that interface.
//!
//! Each workload runs in a fresh child process with every `DISTDA_*`
//! variable removed from its environment. The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod checks;
mod client;
mod serve;
mod stats;
mod sweep;

use stats::Outcome;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicU64, Ordering};

/// Every workload, in the order a bare invocation runs them.
const WORKLOADS: [&str; 3] = ["offload-busy", "host-skip", "serve"];

/// Seconds each workload measures for, unless `--seconds` says otherwise
/// (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 35.0;

const USAGE: &str = "usage: distda-benchmark [--workload NAME]... [--seed N] \
                     [--seconds S] [--trace [0|1]]\n\
                     workloads: offload-busy host-skip serve";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set on the child process that runs one workload.
    child: bool,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: checks::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        child: false,
    };
    let mut it = it.by_ref().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`"));
                }
                args.workloads.push(w);
            }
            "--seed" => {
                let v = value()?;
                args.seed = parse_seed(&v).ok_or(format!("bad seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 3600.0)
                    .ok_or(format!("bad seconds `{v}`"))?;
            }
            "--trace" => {
                let explicit = it.next_if(|v| v == "0" || v == "1");
                args.trace = explicit.is_none_or(|v| v == "1");
            }
            "--child" => args.child = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = WORKLOADS.map(String::from).to_vec();
    }
    if args.child && args.workloads.len() != 1 {
        return Err("a child runs exactly one workload".to_string());
    }
    Ok(args)
}

/// A fresh directory for a daemon's cache, under `benchmark/tmp/`: the
/// benchmark writes nothing outside its own directory.
pub fn scratch_dir(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = tmp_root().join(format!(
        "{}-{name}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create a scratch directory under benchmark/tmp");
    dir
}

fn tmp_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tmp")
}

/// Resets the process's peak resident set to its current one, so that
/// benchmark-only work done so far does not count.
pub fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("benchmark: cannot reset the peak resident set: {e}");
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload in this process and prints its result line.
fn child(args: &Args) -> ExitCode {
    let workload = args.workloads[0].as_str();
    let mut out = Outcome::default();
    let mut tally = checks::Tally::default();
    match (workload, args.trace) {
        ("serve", trace) => serve::run(args.seed, args.seconds, trace, &mut out, &mut tally),
        (w, false) => sweep::run(w, args.seed, args.seconds, &mut out, &mut tally),
        (w, true) => sweep::traced(w, args.seed, &mut out, &mut tally),
    }
    out.attempted += tally.attempted;
    out.failed += tally.failed;
    // Removes the scratch root only if every daemon cleaned up after itself.
    let _ = std::fs::remove_dir(tmp_root());
    for m in &out.metrics {
        println!("{workload}: {:<34} {:>16} {}", m.name, m.value, m.unit);
    }
    println!(
        "{workload}: fail_ratio {}/{} = {}",
        out.failed,
        out.attempted,
        stats::ratio(out.failed as f64, out.attempted as f64)
    );
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}

/// The checked-out commit, read from the repository's own `.git` so that
/// nothing above the checkout is consulted; `unknown` without one.
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let rev = read(git.join("HEAD")).and_then(|head| {
        let head = head.trim();
        let Some(name) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        read(git.join(name)).or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(String::from))
        })
    });
    rev.map_or("unknown".to_string(), |r| {
        r.trim().chars().take(12).collect()
    })
}

/// Runs each workload in a child process with a clean environment and
/// prints the result line: the child's own for one workload, or all of
/// them merged with `<workload>/` prefixes.
fn parent(args: &Args) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "# distda benchmark: rev {} nproc {nproc} seed {:#x} seconds {} trace {}",
        git_rev(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut merged = Outcome::default();
    let mut last_line = String::new();
    for w in &args.workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["--child", "--workload", w])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()]);
        if args.trace {
            cmd.arg("--trace");
        }
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("DISTDA_") {
                cmd.env_remove(key);
            }
        }
        let output = match cmd.output() {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprint!("{}", String::from_utf8_lossy(&o.stderr));
                eprintln!("benchmark: workload {w} exited with {}", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("benchmark: cannot start workload {w}: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        last_line = lines.pop().unwrap_or_default().to_string();
        for l in lines {
            println!("{l}");
        }
        if let Err(e) = merge(&mut merged, w, &last_line) {
            eprintln!("benchmark: workload {w} printed no result line: {e}");
            return ExitCode::FAILURE;
        }
    }
    if args.workloads.len() == 1 {
        println!("{last_line}");
    } else {
        println!("{}", merged.to_json());
    }
    ExitCode::SUCCESS
}

/// Adds a child's result line to `merged`, prefixing metric names with the
/// workload.
fn merge(merged: &mut Outcome, workload: &str, line: &str) -> Result<(), String> {
    use distda_trace::json;
    let v = json::parse(line).map_err(|e| e.to_string())?;
    let count = |key| {
        v.get(key)
            .and_then(json::Value::as_num)
            .ok_or(format!("no `{key}`"))
    };
    merged.attempted += count("attempted")? as u64;
    merged.failed += count("failed")? as u64;
    let metrics = v
        .get("metrics")
        .and_then(json::Value::as_obj)
        .ok_or("no `metrics`")?;
    for (name, m) in metrics {
        let value = m
            .get("value")
            .and_then(json::Value::as_num)
            .unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(json::Value::as_str).unwrap_or("");
        merged.push(format!("{workload}/{name}"), value, unit);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        child(&args)
    } else {
        parent(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn both_trace_forms_and_bad_values_parse() {
        let a = parse("--workload serve --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workloads, ["serve"]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, false));
        let b = parse("--trace --seed 0xD15C0").unwrap();
        assert!(b.trace);
        assert_eq!(b.seed, checks::DEFAULT_SEED);
        assert_eq!(b.workloads.len(), 3);
        assert!(parse("--trace 1").unwrap().trace);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--child").is_err(), "a child needs one workload");
    }

    #[test]
    fn merged_results_prefix_metric_names() {
        let mut merged = Outcome::default();
        let line = "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \
                    \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}";
        merge(&mut merged, "serve", line).unwrap();
        merge(&mut merged, "host-skip", line).unwrap();
        assert_eq!(merged.attempted, 4);
        assert_eq!(merged.metrics[1].name, "host-skip/setup_s");
        assert!(merge(&mut merged, "x", "not json").is_err());
    }
}
