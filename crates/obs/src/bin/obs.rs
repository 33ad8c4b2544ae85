//! The fleet observability CLI: self-profile a run, gate a benchmark
//! against a baseline, or export manifests as OpenMetrics.
//!
//! ```text
//! cargo run --release --bin obs -- profile --kernel pf --config Dist-DA-F
//! cargo run --release --bin obs -- gate --baseline ci/simspeed_smoke_baseline.json \
//!     --current results/BENCH_simspeed_smoke.json --manifests results/manifests/runs.jsonl
//! cargo run --release --bin obs -- export --manifests results/manifests/runs.jsonl \
//!     --out results/manifests.om
//! ```
//!
//! Subcommands:
//!
//! - `profile [--kernel NAME]... [--config LABEL] [--scale tiny|eval]
//!   [--out DIR]` — run each workload with the scheduler self-profiler
//!   attached, print the "perf top"-style table and write the OpenMetrics
//!   rendering of the profile + run metrics to `<out>/profile_<k>_<c>.om`.
//! - `gate --baseline PATH [--current PATH] [--manifests PATH]
//!   [--max-tps-drop F] [--allow-runs-drift]` — diff a current
//!   `BENCH_simspeed.json` against a committed baseline; exit nonzero on
//!   regression (deterministic metrics exact, throughput by ratio).
//! - `export [--manifests PATH] [--out PATH]` — fold a manifest JSONL
//!   stream into the metrics registry and write OpenMetrics text.

use distda_obs::manifest::{self, config_hash};
use distda_obs::{gate, Registry, Thresholds};
use distda_system::{slug, RunConfig};
use distda_workloads::{suite, Scale};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    cmd: String,
    kernels: Vec<String>,
    config: String,
    scale: String,
    out: PathBuf,
    baseline: Option<PathBuf>,
    current: PathBuf,
    manifests: Option<PathBuf>,
    max_tps_drop: f64,
    allow_runs_drift: bool,
}

const USAGE: &str = "usage: obs profile [--kernel NAME]... [--config LABEL] [--scale tiny|eval] [--out DIR]\n       obs gate --baseline PATH [--current PATH] [--manifests PATH] [--max-tps-drop F] [--allow-runs-drift]\n       obs export [--manifests PATH] [--out PATH]";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().ok_or(USAGE)?;
    let mut args = Args {
        cmd,
        kernels: Vec::new(),
        config: "Dist-DA-F".to_string(),
        scale: "tiny".to_string(),
        out: PathBuf::from("results"),
        baseline: None,
        current: PathBuf::from("BENCH_simspeed.json"),
        manifests: None,
        max_tps_drop: 0.9,
        allow_runs_drift: false,
    };
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--kernel" => args.kernels.push(value("--kernel")?),
            "--config" => args.config = value("--config")?,
            "--scale" => args.scale = value("--scale")?,
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--baseline" => args.baseline = Some(PathBuf::from(value("--baseline")?)),
            "--current" => args.current = PathBuf::from(value("--current")?),
            "--manifests" => args.manifests = Some(PathBuf::from(value("--manifests")?)),
            "--max-tps-drop" => {
                args.max_tps_drop = value("--max-tps-drop")?
                    .parse()
                    .map_err(|e| format!("--max-tps-drop: {e}"))?;
            }
            "--allow-runs-drift" => args.allow_runs_drift = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.kernels.is_empty() {
        args.kernels.push("pf".to_string());
    }
    Ok(args)
}

fn cmd_profile(args: &Args) -> Result<u32, String> {
    let scale = match args.scale.as_str() {
        "tiny" => Scale::tiny(),
        "eval" => Scale::eval(),
        other => return Err(format!("unknown scale: {other} (expected tiny or eval)")),
    };
    let cfg = RunConfig::from_label(&args.config)?;
    let workloads = suite(&scale);
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;

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
        let om_path = args.out.join(format!(
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
        println!();
    }
    Ok(failures)
}

fn cmd_gate(args: &Args) -> Result<u32, String> {
    let baseline_path = args
        .baseline
        .as_ref()
        .ok_or("gate requires --baseline PATH")?;
    let read = |p: &PathBuf| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let th = Thresholds {
        max_tps_drop: args.max_tps_drop,
        require_runs_match: !args.allow_runs_drift,
        require_ticks_match: !args.allow_runs_drift,
    };
    let mut rep = gate::gate_simspeed(&read(baseline_path)?, &read(&args.current)?, &th)?;
    if let Some(manifests) = &args.manifests {
        let man = gate::check_manifests_at(Some(manifests), &read(manifests)?)?;
        rep.checks.extend(man.checks);
    }
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
    let out = if args.out == Path::new("results") {
        PathBuf::from("results/manifests.om")
    } else {
        args.out.clone()
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
