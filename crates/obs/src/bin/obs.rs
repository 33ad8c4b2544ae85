//! The fleet observability CLI: self-profile a run, record and gate the
//! benchmark's performance, or export manifests as OpenMetrics.
//!
//! `cargo run --release --bin obs -- <subcommand> ...`, where the
//! subcommands are:
//!
//! - `profile [--kernel NAME]... [--config LABEL] [--scale tiny|eval]
//!   [--out DIR]` — run each workload with the scheduler self-profiler
//!   attached, print the "perf top"-style table and write the OpenMetrics
//!   rendering of the profile + run metrics to `<out>/profile_<k>_<c>.om`.
//!   A run that errs or produces wrong results makes the exit nonzero.
//! - `record --out PATH RUN...` — fold the saved standard output of N
//!   runs of the repository benchmark (`--trace 1`) into one performance
//!   record: per metric the median, q1 and q3, its unit and `better` from
//!   `BENCHMARK.json` in the working directory. Refuses incorrect runs.
//! - `gate --baseline PATH --current PATH` — compare two records layer
//!   by layer; exit nonzero when a metric regressed, naming it.
//! - `export [--manifests PATH] [--out PATH]` — fold a manifest JSONL
//!   stream into the metrics registry and write OpenMetrics text.

use distda_obs::manifest::{self, config_hash};
use distda_obs::{gate, Record, Registry};
use distda_system::{slug, RunConfig};
use distda_workloads::{suite, Scale};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    cmd: String,
    kernels: Vec<String>,
    config: String,
    scale: String,
    out: Option<PathBuf>,
    baseline: Option<PathBuf>,
    current: Option<PathBuf>,
    manifests: Option<PathBuf>,
    runs: Vec<PathBuf>,
}

const USAGE: &str = "usage: obs profile [--kernel NAME]... [--config LABEL] [--scale tiny|eval] [--out DIR]\n       obs record --out PATH RUN...\n       obs gate --baseline PATH --current PATH\n       obs export [--manifests PATH] [--out PATH]";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().ok_or(USAGE)?;
    let mut args = Args {
        cmd,
        kernels: Vec::new(),
        config: "Dist-DA-F".to_string(),
        scale: "tiny".to_string(),
        out: None,
        baseline: None,
        current: None,
        manifests: None,
        runs: Vec::new(),
    };
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--kernel" => args.kernels.push(value("--kernel")?),
            "--config" => args.config = value("--config")?,
            "--scale" => args.scale = value("--scale")?,
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
    if args.kernels.is_empty() {
        args.kernels.push("pf".to_string());
    }
    Ok(args)
}

fn read(p: &Path) -> Result<String, String> {
    std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
}

fn cmd_profile(args: &Args) -> Result<u32, String> {
    let scale = match args.scale.as_str() {
        "tiny" => Scale::tiny(),
        "eval" => Scale::eval(),
        other => return Err(format!("unknown scale: {other} (expected tiny or eval)")),
    };
    let cfg = RunConfig::from_label(&args.config)?;
    let workloads = suite(&scale);
    let out = args.out.clone().unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;

    let mut failures = 0u32;
    for name in &args.kernels {
        let Some(w) = workloads.iter().find(|w| &w.name == name) else {
            eprintln!(
                "unknown kernel: {name} (available: {})",
                workloads
                    .iter()
                    .map(|w| w.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            failures += 1;
            continue;
        };
        let prof = distda_sim::Profiler::enabled();
        let t0 = std::time::Instant::now();
        let r = match w.try_simulate_profiled(&cfg, &prof) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{name} / {}: {e}", cfg.kind.label());
                failures += 1;
                continue;
            }
        };
        let host_secs = t0.elapsed().as_secs_f64();
        let snap = prof.snapshot_at(r.ticks).expect("profiler was enabled");

        println!(
            "=== {} / {} — {} ticks in {host_secs:.3}s host, validated={} ===",
            r.kernel, r.config, r.ticks, r.validated
        );
        print!("{}", distda_sim::profile::render_table(&snap));

        let mut reg = Registry::new();
        reg.ingest_run(&r);
        reg.ingest_profile(&[("kernel", &r.kernel), ("config", &r.config)], &snap);
        let om_path = out.join(format!(
            "profile_{}_{}.om",
            slug(&r.kernel),
            slug(&r.config)
        ));
        std::fs::write(&om_path, reg.openmetrics())
            .map_err(|e| format!("cannot write {}: {e}", om_path.display()))?;
        println!("openmetrics: {}", om_path.display());

        let rec = manifest::ManifestRecord::capture(
            &r.kernel,
            &r.config,
            config_hash(&cfg),
            r.ticks,
            host_secs,
            r.validated,
        )
        .with_bottleneck(&r.report);
        if let Err(e) = rec.append() {
            eprintln!("warning: cannot append manifest: {e}");
        }
        if !r.validated {
            eprintln!("{name}: wrong results (golden-model mismatch)");
            failures += 1;
        }
        println!();
    }
    Ok(failures)
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
    let stream = std::fs::read_to_string(&manifests)
        .map_err(|e| format!("cannot read {}: {e}", manifests.display()))?;
    let records = manifest::parse_manifests(&stream)?;
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
    let out = match &args.out {
        Some(out) if out != Path::new("results") => out.clone(),
        _ => PathBuf::from("results/manifests.om"),
    };
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
        "profile" => cmd_profile(&args),
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
