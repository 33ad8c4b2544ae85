//! The one command that runs simulations: every selected kernel under
//! every selected configuration, with the instruments its flags attach on
//! top of the environment's ([`RunSpec::from_env`]).
//!
//! ```text
//! cargo run --release --bin run -- --kernel pf --config Dist-DA-F --explain --check
//! cargo run --release --bin run -- --kernel fdt --kernel bfs --kernel pr --config Dist-DA-IO --trace
//! cargo run --release --bin run -- --kernel pf --config Dist-DA-F --profile
//! ```
//!
//! Selection, shared with `validate`: `--kernel NAME` and `--config LABEL`
//! (both repeatable) and `--scale tiny|eval`. The default is all twelve
//! suite kernels x the six paper configurations, at tiny scale.
//!
//! Instruments, one [`RunSpec`] field each:
//!
//! - `--trace[=FILTER]` — a tracer (component filter as in
//!   `DISTDA_TRACE`, default `all`). Writes the Chrome/Perfetto trace
//!   `trace_<kernel>_<config>.json` and the sampled series `.csv`, and
//!   prints a top-N digest plus the run's phase attribution.
//! - `--explain[=WINDOW]` — the port sampler (window in base ticks,
//!   default 4096). Prints the ranked causal tree and writes it to
//!   `explain_<kernel>_<config>.{txt,json}`.
//! - `--profile` — the scheduler self-profiler. Prints the "perf top"
//!   table, writes `profile_<kernel>_<config>.om` (OpenMetrics) and
//!   appends a run manifest.
//! - `--check` — the sanitizer, whose `tick-accounting` rule checks the
//!   phase attribution and every engine's causal tree. Exported trace and
//!   tree JSON is also parsed back, and the explain verdict printed.
//!
//! Output: `--out DIR` (default `results`); `--json` prints the causal
//! tree as JSON; `--top N` sets the trace digest's depth (default 5);
//! `--openmetrics` also writes the trace's counters and histograms, with
//! the run's headline metrics, to `trace_<kernel>_<config>.om`.
//!
//! Each run prints `=== <kernel> / <config> — <ticks> ticks,
//! validated=<bool> ===`. A run that errs or does not validate makes the
//! exit status nonzero.

use distda_bench::Selection;
use distda_explain::{render_json, render_text, top_bottleneck};
use distda_obs::manifest::{config_hash, ManifestRecord};
use distda_obs::Registry;
use distda_sim::sample::{DEFAULT_WINDOW_CAP, DEFAULT_WINDOW_TICKS};
use distda_sim::{Profiler, Sampler};
use distda_system::{slug, RunConfig, RunSpec};
use distda_trace::{chrome, csvout, json, summary, Tracer};
use distda_workloads::Workload;
use std::num::NonZeroU64;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: run [--kernel NAME]... [--config LABEL]... [--scale tiny|eval] \
                     [--trace[=FILTER]] [--explain[=WINDOW]] [--profile] [--check] \
                     [--out DIR] [--json] [--top N] [--openmetrics]";

struct Args {
    sel: Selection,
    trace: Option<String>,
    explain: Option<u64>,
    profile: bool,
    check: bool,
    out: PathBuf,
    json: bool,
    top: usize,
    openmetrics: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        sel: Selection::default(),
        trace: None,
        explain: None,
        profile: false,
        check: false,
        out: PathBuf::from("results"),
        json: false,
        top: 5,
        openmetrics: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if args.sel.take(&a, &mut it).map_err(|e| e.to_string())? {
            continue;
        }
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.split_once('=') {
            Some(("--trace", filter)) => args.trace = Some(filter.to_string()),
            Some(("--explain", window)) => {
                let window: NonZeroU64 = window.parse().map_err(|e| format!("--explain: {e}"))?;
                args.explain = Some(window.get());
            }
            Some(_) => return Err(format!("unknown argument: {a}")),
            None => match a.as_str() {
                "--trace" => args.trace = Some("all".to_string()),
                "--explain" => args.explain = Some(DEFAULT_WINDOW_TICKS),
                "--profile" => args.profile = true,
                "--check" => args.check = true,
                "--out" => args.out = PathBuf::from(value("--out")?),
                "--json" => args.json = true,
                "--top" => args.top = value("--top")?.parse().map_err(|e| format!("--top: {e}"))?,
                "--openmetrics" => args.openmetrics = true,
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown argument: {other}")),
            },
        }
    }
    Ok(args)
}

/// Simulates `w` under `cfg` with the instruments `args` asks for, prints
/// what they saw and writes their files.
///
/// # Errors
///
/// A failed run, an unwritable file, an export that does not parse back,
/// or a result that does not validate.
fn run_one(args: &Args, w: &Workload, cfg: &RunConfig) -> Result<(), String> {
    let mut spec = RunSpec::from_env();
    if let Some(filter) = &args.trace {
        spec.tracer = Tracer::with_filter(filter);
    }
    if let Some(window) = args.explain {
        spec.sampler = Sampler::enabled(window, DEFAULT_WINDOW_CAP);
    }
    if args.profile {
        spec.profiler = Profiler::enabled();
    }
    spec.policy.sanitize |= args.check;
    let (tracer, profiler) = (spec.tracer.clone(), spec.profiler.clone());
    let t0 = Instant::now();
    let run = w
        .try_simulate_with(cfg, spec)
        .map_err(|e| format!("{} / {}: {e}", w.name, cfg.kind.label()))?;
    let host_secs = t0.elapsed().as_secs_f64();
    let r = &run.result;
    println!(
        "=== {} / {} — {} ticks, validated={} ===",
        r.kernel, r.config, r.ticks, r.validated
    );
    let stem = format!("{}_{}", slug(&r.kernel), slug(&r.config));
    let write = |kind: &str, ext: &str, body: &str| {
        let path = args.out.join(format!("{kind}_{stem}.{ext}"));
        std::fs::write(&path, body)
            .map(|()| path.display().to_string())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    let labels = [("kernel", r.kernel.as_str()), ("config", r.config.as_str())];
    // Check lines follow every instrument's output.
    let mut checks = Vec::new();

    if args.trace.is_some() {
        let comps = tracer.components();
        let doc = chrome::export_components(&comps);
        let json_path = write("trace", "json", &doc)?;
        let csv_path = write("trace", "csv", &csvout::export_components(&comps))?;
        println!("trace: {json_path}");
        println!("series: {csv_path}");
        print!("{}", summary::render_components(&comps, args.top));
        print!("{}", summary::render_attribution(&run.attribution));
        if args.openmetrics {
            let mut reg = Registry::new();
            reg.ingest_run(r);
            reg.ingest_trace_components(&labels, &comps);
            println!("openmetrics: {}", write("trace", "om", &reg.openmetrics())?);
        }
        if args.check {
            let doc = json::parse(&doc)
                .map_err(|e| format!("check FAILED: exported JSON does not parse: {e}"))?;
            let events = doc.get("traceEvents").and_then(|e| e.as_arr());
            checks.push(format!(
                "check: JSON ok ({} events)",
                events.map_or(0, |a| a.len())
            ));
            // The sanitized run returned, so `tick-accounting` held.
            checks.push(format!(
                "check: attribution partitions all {} ticks",
                r.ticks
            ));
        }
    }

    if args.explain.is_some() {
        let x = run
            .explanation
            .as_ref()
            .ok_or("sampler was attached but no explanation came back")?;
        let (text, tree) = (render_text(x), render_json(x));
        if args.json {
            println!("{tree}");
        } else {
            print!("{text}");
        }
        write("explain", "txt", &text)?;
        write("explain", "json", &tree)?;
        if args.check {
            json::parse(&tree)
                .map_err(|e| format!("{}: tree JSON does not parse: {e:?}", w.name))?;
            let verdict = top_bottleneck(&r.report)
                .map(|(who, share)| format!("{who} ({:.1}% of stall ticks)", share * 100.0))
                .unwrap_or_else(|| "no stalls".to_string());
            checks.push(format!("verdict: {verdict}"));
        }
    }

    if args.profile {
        let snap = profiler.snapshot_at(r.ticks).expect("profiler was enabled");
        print!("{}", distda_sim::profile::render_table(&snap));
        let mut reg = Registry::new();
        reg.ingest_run(r);
        reg.ingest_profile(&labels, &snap);
        println!(
            "openmetrics: {}",
            write("profile", "om", &reg.openmetrics())?
        );
        let (hash, ok) = (config_hash(cfg), r.validated);
        let rec = ManifestRecord::capture(&r.kernel, &r.config, hash, r.ticks, host_secs, ok)
            .with_bottleneck(&r.report);
        if let Err(e) = rec.append() {
            eprintln!("warning: cannot append manifest: {e}");
        }
    }

    for line in checks {
        println!("{line}");
    }
    println!();
    if !r.validated {
        return Err(format!(
            "{} / {}: wrong results (golden-model mismatch)",
            r.kernel, r.config
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let failures = parse_args().and_then(|args| {
        let kernels = args.sel.kernels().map_err(|e| e.to_string())?;
        std::fs::create_dir_all(&args.out)
            .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
        let configs = args.sel.configs();
        let runs = kernels
            .iter()
            .flat_map(|w| configs.iter().map(move |c| (w, c)));
        let failed = runs.filter_map(|(w, cfg)| run_one(&args, w, cfg).err());
        Ok(failed.inspect(|e| eprintln!("{e}")).count())
    });
    match failures {
        Ok(0) => ExitCode::SUCCESS,
        Ok(n) => {
            eprintln!("{n} failure(s)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
