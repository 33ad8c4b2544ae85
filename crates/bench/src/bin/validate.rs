//! Differential validation sweep: runs every (kernel, config, skip) cell
//! through the simulator with [`CheckPolicy::full`] — golden-model
//! comparison against the IR interpreter *and* the invariant sanitizer —
//! and reports each failing cell by coordinates instead of aborting.
//!
//! ```text
//! cargo run --release --bin validate                  # 12 workloads x 6 configs x skip on/off
//! cargo run --release --bin validate -- --smoke 42    # randomized-kernel smoke at seed 42
//! ```
//!
//! Options:
//!
//! - `--scale tiny|eval`: workload input scale (default `tiny`).
//! - `--kernel NAME` (repeatable): restrict to suite kernels by name
//!   (default: all twelve).
//! - `--config LABEL` (repeatable): restrict to configurations by label
//!   (default: all six). Labels accept topology extensions in the
//!   `Dist-DA-IO:4x4:fm150:t2` form — wider meshes, far-memory pools and
//!   tenant counts sweep through the same strict-validation machinery as
//!   the paper machine.
//! - `--smoke SEED`: instead of the fixed suite, generate randomized
//!   kernels (saxpy, dot reduction, indirect gather, 3-point stencil) with
//!   sizes and constants drawn from `SEED`, and validate those across the
//!   selected configurations. The same seed always generates the same
//!   kernels.
//!
//! Exit status is nonzero if any cell fails.

use distda_system::{CheckPolicy, ConfigKind, RunConfig, RunSpec};
use distda_workloads::{micro, suite, Scale, Workload};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

struct Args {
    scale: String,
    kernels: Vec<String>,
    configs: Vec<String>,
    smoke: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: "tiny".to_string(),
        kernels: Vec::new(),
        configs: Vec::new(),
        smoke: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--scale" => args.scale = value("--scale")?,
            "--kernel" => args.kernels.push(value("--kernel")?),
            "--config" => args.configs.push(value("--config")?),
            "--smoke" => {
                args.smoke = Some(
                    value("--smoke")?
                        .parse()
                        .map_err(|e| format!("--smoke: {e}"))?,
                );
            }
            "--help" | "-h" => {
                return Err("usage: validate [--scale tiny|eval] [--kernel NAME]... \
                            [--config LABEL]... [--smoke SEED]"
                    .to_string())
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let scale = match args.scale.as_str() {
        "tiny" => Scale::tiny(),
        "eval" => Scale::eval(),
        other => {
            eprintln!("unknown scale: {other} (expected tiny or eval)");
            return ExitCode::FAILURE;
        }
    };

    let mut configs: Vec<RunConfig> = Vec::new();
    if args.configs.is_empty() {
        configs = ConfigKind::ALL
            .iter()
            .map(|&k| RunConfig::named(k))
            .collect();
    } else {
        for label in &args.configs {
            match RunConfig::from_label(label) {
                Ok(cfg) => configs.push(cfg),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    let mut workloads: Vec<Workload> = match args.smoke {
        Some(seed) => {
            println!("randomized smoke suite, seed {seed}");
            micro::suite(seed)
        }
        None => suite(&scale),
    };
    if !args.kernels.is_empty() {
        for name in &args.kernels {
            if !workloads.iter().any(|w| &w.name == name) {
                eprintln!(
                    "unknown kernel: {name} (available: {})",
                    workloads
                        .iter()
                        .map(|w| w.name.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                return ExitCode::FAILURE;
            }
        }
        workloads.retain(|w| args.kernels.contains(&w.name));
    }

    // Every (workload, config, skip) cell, skip-ahead both on and off: the
    // fast-forwarded and tick-by-tick simulations must both reproduce the
    // golden model and hold every conservation invariant.
    let cells: Vec<(usize, usize, bool)> = (0..workloads.len())
        .flat_map(|w| (0..configs.len()).flat_map(move |c| [true, false].map(move |s| (w, c, s))))
        .collect();

    // Interpret each workload once up front (single-threaded) so worker
    // threads share the cached reference instead of racing to compute it.
    for w in &workloads {
        let _ = w.reference_exec();
    }

    let threads = distda_bench::sweep_threads().min(cells.len()).max(1);
    let next = AtomicUsize::new(0);
    let failures: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(wi, ci, skip)) = cells.get(i) else {
                    break;
                };
                let (w, cfg) = (&workloads[wi], &configs[ci]);
                let spec = RunSpec {
                    skip: Some(skip),
                    policy: CheckPolicy::full(),
                    ..RunSpec::default()
                };
                if let Err(e) = w.try_simulate_with(cfg, spec) {
                    failures.lock().unwrap().push((
                        i,
                        format!(
                            "{} under {} (skip={}): {e}",
                            w.name,
                            cfg.label(),
                            if skip { "on" } else { "off" }
                        ),
                    ));
                }
            });
        }
    });

    let mut failures = failures.into_inner().unwrap();
    failures.sort_by_key(|(i, _)| *i);
    let total = cells.len();
    if failures.is_empty() {
        println!(
            "validate: {total} cells passed ({} kernels x {} configs x skip on/off)",
            workloads.len(),
            configs.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("validate: {}/{total} cells FAILED:", failures.len());
        for (_, msg) in &failures {
            println!("  {msg}");
        }
        ExitCode::FAILURE
    }
}
