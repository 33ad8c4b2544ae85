//! The "why is it slow?" CLI: run kernels with the explain sampler
//! attached and print each run's ranked causal tree — which engine lost
//! the most time, on which port, and who that port was waiting on in
//! turn — with exact tick accounting (`blamed + busy + idle == ticks`).
//!
//! ```text
//! cargo run --release --bin explain -- --kernel pf
//! cargo run --release --bin explain -- --check          # all 12 kernels, CI mode
//! cargo run --release --bin explain -- --kernel bfs --config OoO --json
//! ```
//!
//! Flags:
//!
//! - `--kernel NAME`... — kernels to explain (default: the whole
//!   twelve-benchmark suite).
//! - `--config LABEL` — machine configuration (default `Dist-DA-F`).
//! - `--scale tiny|eval` — input scale (default `tiny`).
//! - `--window TICKS` — sampling window in base ticks (default 4096).
//! - `--out DIR` — where trees are written (default `results`).
//! - `--json` — print the JSON rendering instead of the text tree.
//! - `--check` — CI mode: besides printing, assert that every tree's
//!   JSON parses, that accounting is exact for every engine, and that
//!   the analyzer reported no violations; exit nonzero otherwise.

use distda::explain::{render_json, render_text, top_bottleneck};
use distda::system::{slug, CheckPolicy, ConfigKind, RunConfig, RunSpec};
use distda::workloads::{suite, Scale};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    kernels: Vec<String>,
    config: String,
    scale: String,
    window: u64,
    out: PathBuf,
    json: bool,
    check: bool,
}

const USAGE: &str = "usage: explain [--kernel NAME]... [--config LABEL] [--scale tiny|eval] [--window TICKS] [--out DIR] [--json] [--check]";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut args = Args {
        kernels: Vec::new(),
        config: "Dist-DA-F".to_string(),
        scale: "tiny".to_string(),
        window: distda::sim::sample::DEFAULT_WINDOW_TICKS,
        out: PathBuf::from("results"),
        json: false,
        check: false,
    };
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--kernel" => args.kernels.push(value("--kernel")?),
            "--config" => args.config = value("--config")?,
            "--scale" => args.scale = value("--scale")?,
            "--window" => {
                args.window = value("--window")?
                    .parse()
                    .map_err(|e| format!("--window: {e}"))?;
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--json" => args.json = true,
            "--check" => args.check = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn run() -> Result<u32, String> {
    let args = parse_args()?;
    let scale = match args.scale.as_str() {
        "tiny" => Scale::tiny(),
        "eval" => Scale::eval(),
        other => return Err(format!("unknown scale: {other} (expected tiny or eval)")),
    };
    let cfg = ConfigKind::ALL
        .into_iter()
        .find(|k| k.label().eq_ignore_ascii_case(&args.config))
        .map(RunConfig::named)
        .ok_or_else(|| {
            format!(
                "unknown config: {} (expected one of {})",
                args.config,
                ConfigKind::ALL.map(|k| k.label()).join(", ")
            )
        })?;
    let workloads = suite(&scale);
    let selected: Vec<_> = if args.kernels.is_empty() {
        workloads.iter().collect()
    } else {
        let mut sel = Vec::new();
        for name in &args.kernels {
            sel.push(workloads.iter().find(|w| &w.name == name).ok_or_else(|| {
                format!(
                    "unknown kernel: {name} (available: {})",
                    workloads
                        .iter()
                        .map(|w| w.name.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })?);
        }
        sel
    };
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;

    let mut failures = 0u32;
    for w in selected {
        let spec = RunSpec {
            sampler: distda::sim::Sampler::enabled(
                args.window,
                distda::sim::sample::DEFAULT_WINDOW_CAP,
            ),
            policy: CheckPolicy::from_env(),
            ..RunSpec::default()
        };
        let (r, x) = match w.try_simulate_with(&cfg, spec) {
            Ok(run) => (run.result, run.explanation),
            Err(e) => {
                eprintln!("{} / {}: {e}", w.name, cfg.kind.label());
                failures += 1;
                continue;
            }
        };
        let Some(x) = x else {
            eprintln!(
                "{}: sampler was attached but no explanation came back",
                w.name
            );
            failures += 1;
            continue;
        };
        println!("=== {} / {} ===", r.kernel, r.config);
        if args.json {
            println!("{}", render_json(&x));
        } else {
            print!("{}", render_text(&x));
        }
        let base = args
            .out
            .join(format!("explain_{}_{}", slug(&r.kernel), slug(&r.config)));
        let write = |ext: &str, body: &str| {
            let p = base.with_extension(ext);
            std::fs::write(&p, body).map_err(|e| format!("cannot write {}: {e}", p.display()))
        };
        write("txt", &render_text(&x))?;
        write("json", &render_json(&x))?;

        if args.check {
            for v in &x.violations {
                eprintln!("{}: VIOLATION: {v}", w.name);
                failures += 1;
            }
            for e in &x.engines {
                if e.blamed_ticks + e.busy_ticks + e.idle_ticks != x.ticks {
                    eprintln!(
                        "{}: {} accounting not exact: {} + {} + {} != {}",
                        w.name, e.name, e.blamed_ticks, e.busy_ticks, e.idle_ticks, x.ticks
                    );
                    failures += 1;
                }
            }
            if let Err(e) = distda::trace::json::parse(&render_json(&x)) {
                eprintln!("{}: tree JSON does not parse: {e:?}", w.name);
                failures += 1;
            }
            let verdict = top_bottleneck(&r.report)
                .map(|(who, share)| format!("{who} ({:.1}% of stall ticks)", share * 100.0))
                .unwrap_or_else(|| "no stalls".to_string());
            println!("verdict: {verdict}");
        }
        println!();
    }
    Ok(failures)
}

fn main() -> ExitCode {
    match run() {
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
