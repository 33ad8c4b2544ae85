//! The fleet observability CLI: record and gate the benchmark's
//! performance, or export manifests as OpenMetrics. (A run is
//! self-profiled by `run --profile`.)
//!
//! `cargo run --release -p distda-obs --bin obs -- <subcommand> ...`,
//! where the subcommands are:
//!
//! - `record --out PATH RUN...` — fold the saved standard output of N
//!   runs of the repository benchmark (`--trace 1`) into one performance
//!   record: per metric the median, q1 and q3, its unit and `better` from
//!   `BENCHMARK.json` in the working directory. Refuses incorrect runs.
//! - `gate --baseline PATH --current PATH` — compare two records layer
//!   by layer; exit nonzero when a metric regressed, naming it.
//! - `export [--manifests PATH] [--out PATH]` — fold a manifest JSONL
//!   stream into the metrics registry and write OpenMetrics text.

use distda_obs::manifest;
use distda_obs::{gate, Record, Registry};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    cmd: String,
    out: Option<PathBuf>,
    baseline: Option<PathBuf>,
    current: Option<PathBuf>,
    manifests: Option<PathBuf>,
    runs: Vec<PathBuf>,
}

const USAGE: &str = "usage: obs record --out PATH RUN...\n       obs gate --baseline PATH --current PATH\n       obs export [--manifests PATH] [--out PATH]";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().ok_or(USAGE)?;
    let mut args = Args {
        cmd,
        out: None,
        baseline: None,
        current: None,
        manifests: None,
        runs: Vec::new(),
    };
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--baseline" => args.baseline = Some(PathBuf::from(value("--baseline")?)),
            "--current" => args.current = Some(PathBuf::from(value("--current")?)),
            "--manifests" => args.manifests = Some(PathBuf::from(value("--manifests")?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            run if args.cmd == "record" && !run.starts_with('-') => {
                args.runs.push(PathBuf::from(run));
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn read(p: &Path) -> Result<String, String> {
    std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
}

fn cmd_record(args: &Args) -> Result<u32, String> {
    let out = args.out.as_ref().ok_or("record requires --out PATH")?;
    let run = |p: &PathBuf| Ok((p.display().to_string(), read(p)?));
    let runs: Result<Vec<_>, String> = args.runs.iter().map(run).collect();
    let hostname = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map_or_else(|_| "unknown".to_string(), |h| h.trim().to_string());
    let rec = Record::from_runs(&runs?, &read(Path::new("BENCHMARK.json"))?, &hostname)?;
    std::fs::write(out, rec.render())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    let (n, rev, host) = (rec.runs, &rec.rev, &rec.host);
    println!("{n} runs of {rev} on {host} -> {}", out.display());
    Ok(0)
}

fn cmd_gate(args: &Args) -> Result<u32, String> {
    let (Some(baseline), Some(current)) = (&args.baseline, &args.current) else {
        return Err("gate requires --baseline PATH and --current PATH".into());
    };
    let load = |p: &Path| Ok::<_, String>(Record::parse(&p.display().to_string(), &read(p)?)?);
    let rep = gate(&load(baseline)?, &load(current)?)?;
    print!("{}", rep.render());
    Ok(u32::from(rep.regressed()))
}

fn cmd_export(args: &Args) -> Result<u32, String> {
    let manifests = args
        .manifests
        .clone()
        .unwrap_or_else(|| PathBuf::from(manifest::DEFAULT_MANIFEST_PATH));
    let records = manifest::parse_manifests(&read(&manifests)?)?;
    let mut reg = Registry::new();
    for r in &records {
        let labels: &[(&str, &str)] = &[("kernel", &r.kernel), ("config", &r.config)];
        reg.counter_add("distda_manifest_runs", labels, 1);
        reg.counter_add("distda_manifest_ticks", labels, r.ticks);
        reg.hist_observe(
            "distda_manifest_host_ms",
            labels,
            (r.host_secs * 1e3) as u64,
        );
        if !r.validated {
            reg.counter_add("distda_manifest_unvalidated", labels, 1);
        }
    }
    let out = (args.out.clone()).unwrap_or_else(|| PathBuf::from("results/manifests.om"));
    if let Some(parent) = out.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&out, reg.openmetrics())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("{} manifest records -> {}", records.len(), out.display());
    Ok(0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match args.cmd.as_str() {
        "record" => cmd_record(&args),
        "gate" => cmd_gate(&args),
        "export" => cmd_export(&args),
        other => Err(format!("unknown subcommand: {other}\n{USAGE}")),
    };
    match outcome {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
