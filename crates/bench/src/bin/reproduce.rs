//! Regenerates every table and figure of the paper's evaluation in one
//! run, writing each to `results/`, plus the deterministic run log
//! `results/reproduce.log`, its wall-clock companion
//! `results/reproduce_timing.log` and one run manifest per simulated run.
//!
//! ```text
//! cargo run --release -p distda-bench --bin reproduce
//! cargo run --release -p distda-bench --bin reproduce -- --only fig11b_speedup table_area
//! ```
//!
//! `--only NAME...` writes only the named artifacts (file stems, listed in
//! `distda_bench::figures::ARTIFACTS`) and runs the suite sweep only if
//! one of them needs it. Such a partial run writes no run log, timing log
//! or manifest. The two ablations, `ablation_buffer_size` and
//! `ablation_placement`, run only when named.

use distda_bench::figures::{self, Source};
use distda_bench::{emit, paper_configs, run_suite_matrix, write_run_logs};
use distda_workloads::Scale;
use std::process::ExitCode;

const USAGE: &str = "usage: reproduce [--only NAME...]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let only: Vec<String> = match args.next().as_deref() {
        None => Vec::new(),
        Some("--only") => args.collect(),
        Some(_) => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let selected = match figures::select(&only) {
        Ok(s) if !s.is_empty() => s,
        Ok(_) => {
            eprintln!("--only requires at least one name\n{USAGE}");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let t0 = std::time::Instant::now();
    let scale = Scale::eval();
    let mut sweep = None;
    for (i, a) in selected.iter().enumerate() {
        eprintln!("[{}/{}] {}...", i + 1, selected.len(), a.name);
        let text = match a.source {
            Source::Sweep(render) => render(sweep.get_or_insert_with(|| {
                eprintln!("suite sweep over the six configurations...");
                run_suite_matrix(&scale, &paper_configs())
            })),
            Source::Scale(render) => render(&scale),
        };
        emit(&format!("{}.txt", a.name), &text);
    }
    if only.is_empty() {
        write_run_logs(t0.elapsed().as_secs_f64());
    }
    eprintln!("done — see results/");
    ExitCode::SUCCESS
}
