//! Differential validation sweep: runs every (kernel, config, skip) cell
//! through the simulator with [`CheckPolicy::full`] — golden-model
//! comparison against the IR interpreter *and* the invariant sanitizer —
//! and reports each failing cell by coordinates instead of aborting.
//!
//! ```text
//! cargo run --release -p distda-bench --bin validate                # 12 workloads x 6 configs x skip on/off
//! cargo run --release -p distda-bench --bin validate -- --smoke 42  # randomized-kernel smoke at seed 42
//! ```
//!
//! Options:
//!
//! - `--kernel NAME`, `--config LABEL` (both repeatable) and `--scale
//!   tiny|eval`: the selection `run` takes too (default: all twelve suite
//!   kernels x the six paper configurations, tiny scale). Labels accept
//!   topology extensions in the `Dist-DA-IO:4x4:fm150:t2` form — wider
//!   meshes, far-memory pools and tenant counts sweep through the same
//!   strict-validation machinery as the paper machine.
//! - `--smoke SEED`: instead of the fixed suite, generate randomized
//!   kernels (saxpy, dot reduction, indirect gather, 3-point stencil) with
//!   sizes and constants drawn from `SEED`, and validate those across the
//!   selected configurations. The same seed always generates the same
//!   kernels.
//!
//! Every cell runs under [`CheckPolicy::full`] whatever `DISTDA_SANITIZE`
//! and `DISTDA_VALIDATE` say. Exit status is nonzero if any cell fails.

use distda_bench::Selection;
use distda_system::{CheckPolicy, RunSpec};
use distda_workloads::micro;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

const USAGE: &str =
    "usage: validate [--kernel NAME]... [--config LABEL]... [--scale tiny|eval] [--smoke SEED]";

fn main() -> ExitCode {
    match sweep() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the selected cells; `Ok(false)` when any failed.
fn sweep() -> Result<bool, String> {
    let mut sel = Selection::default();
    let mut smoke: Option<u64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if sel.take(&a, &mut it).map_err(|e| e.to_string())? {
            continue;
        }
        match a.as_str() {
            "--smoke" => {
                let seed = it.next().ok_or("--smoke requires a value")?;
                smoke = Some(seed.parse().map_err(|e| format!("--smoke: {e}"))?);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    let configs = sel.configs();
    let workloads = match smoke {
        Some(seed) => {
            println!("randomized smoke suite, seed {seed}");
            sel.kernels_of(micro::suite(seed))
        }
        None => sel.kernels(),
    }
    .map_err(|e| e.to_string())?;

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
    } else {
        println!("validate: {}/{total} cells FAILED:", failures.len());
        for (_, msg) in &failures {
            println!("  {msg}");
        }
    }
    Ok(failures.is_empty())
}
