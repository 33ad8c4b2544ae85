//! # distda-bench
//!
//! The experiment harness: the sweep infrastructure behind `reproduce`,
//! which writes every paper figure and table ([`figures::ARTIFACTS`]; one
//! or more of them with `--only NAME...`), and the kernel, configuration
//! and scale [`Selection`] shared by the `run` and `validate` commands.
//! Each artifact prints the same rows/series the paper reports, normalized
//! the same way.

pub mod figures;
pub mod kernel_bench;
pub mod mt;
pub mod select;

pub use kernel_bench::{run_kernel_bench, KernelBench};
pub use select::{SelectError, Selection};

use distda_obs::manifest::{config_hash, ManifestRecord};
use distda_obs::Progress;
use distda_sim::geomean;
use distda_system::{ConfigKind, RunConfig, RunResult};
use distda_workloads::{suite, Scale, Workload};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Results of simulating a set of workloads under a set of configurations.
#[derive(Debug, Default)]
pub struct Sweep {
    /// Kernel names in run order.
    pub kernels: Vec<String>,
    /// Configuration labels in run order.
    pub configs: Vec<String>,
    /// Result per (kernel, config label).
    pub results: BTreeMap<(String, String), RunResult>,
}

impl Sweep {
    /// Looks up a result.
    ///
    /// # Panics
    ///
    /// Panics if the pair was not simulated.
    pub fn get(&self, kernel: &str, config: &str) -> &RunResult {
        self.results
            .get(&(kernel.to_string(), config.to_string()))
            .unwrap_or_else(|| panic!("missing result {kernel}/{config}"))
    }

    /// Adds a result.
    pub fn insert(&mut self, r: RunResult) {
        if !self.kernels.contains(&r.kernel) {
            self.kernels.push(r.kernel.clone());
        }
        if !self.configs.contains(&r.config) {
            self.configs.push(r.config.clone());
        }
        self.results.insert((r.kernel.clone(), r.config.clone()), r);
    }
}

/// Worker count for parallel sweeps: `DISTDA_THREADS` if set to a positive
/// integer, otherwise the host's available parallelism.
pub fn sweep_threads() -> usize {
    distda_sim::env::threads().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Wall-clock record of one simulated (kernel, config) run.
#[derive(Debug, Clone)]
pub struct RunTiming {
    /// Kernel name.
    pub kernel: String,
    /// Configuration label.
    pub config: String,
    /// Structural hash of the full [`RunConfig`] (manifest identity).
    pub config_hash: String,
    /// Host seconds spent simulating this run.
    pub host_secs: f64,
    /// Simulated base ticks the run covered.
    pub ticks: u64,
}

static TIMINGS: Mutex<Vec<RunTiming>> = Mutex::new(Vec::new());

/// Drains the wall-clock records accumulated by [`run_matrix`] since the
/// last call (used by `reproduce` to report simulator throughput).
pub fn take_timings() -> Vec<RunTiming> {
    std::mem::take(&mut *TIMINGS.lock().unwrap())
}

/// One failed cell of a sweep: the pair that failed and why. Collected by
/// [`try_run_matrix`] so a single bad (kernel, config) combination is
/// reported with its coordinates instead of aborting the whole sweep.
#[derive(Debug, Clone)]
pub struct SweepFailure {
    /// Kernel name.
    pub kernel: String,
    /// Configuration label.
    pub config: String,
    /// Rendered [`distda_system::SimError`] (or validation failure).
    pub error: String,
}

impl std::fmt::Display for SweepFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} under {}: {}", self.kernel, self.config, self.error)
    }
}

/// Runs `workloads x configs` across [`sweep_threads`] worker threads,
/// logging progress to stderr. Each (kernel, config) pair simulates an
/// independent machine, so results are bit-identical to the sequential
/// sweep; pairs are inserted into the [`Sweep`] in their nested-loop order
/// regardless of which worker finished first, keeping row/column order,
/// iteration order, and the failure list deterministic.
///
/// A failing cell (deadlock, invariant violation, wrong results) becomes a
/// [`SweepFailure`] naming its (kernel, config) pair; the remaining cells
/// still run and their results are returned.
pub fn try_run_matrix(workloads: &[Workload], configs: &[RunConfig]) -> (Sweep, Vec<SweepFailure>) {
    let progress = Progress::from_env(workloads.len() * configs.len());
    let out = try_run_matrix_with_progress(workloads, configs, progress.as_ref());
    if let Some(p) = progress {
        p.finish();
    }
    out
}

/// [`try_run_matrix`] with an explicit [`Progress`] reporter instead of
/// the `DISTDA_PROGRESS` policy — the programmatic entry point the
/// observability tests use. When a reporter is attached the legacy
/// per-cell `\r` counter is suppressed (the reporter owns stderr).
pub fn try_run_matrix_with_progress(
    workloads: &[Workload],
    configs: &[RunConfig],
    progress: Option<&Progress>,
) -> (Sweep, Vec<SweepFailure>) {
    let pairs: Vec<(usize, usize)> = (0..workloads.len())
        .flat_map(|w| (0..configs.len()).map(move |c| (w, c)))
        .collect();
    let threads = sweep_threads().min(pairs.len()).max(1);
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<RunResult, SweepFailure>>>> =
        pairs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(wi, ci)) = pairs.get(i) else { break };
                let (w, cfg) = (&workloads[wi], &configs[ci]);
                if let Some(p) = progress {
                    p.cell_started();
                }
                let t0 = Instant::now();
                let outcome = match w.try_simulate(cfg) {
                    Ok(r) if !r.validated => Err(SweepFailure {
                        kernel: w.name.clone(),
                        config: cfg.label(),
                        error: "produced wrong results (golden-model mismatch)".to_string(),
                    }),
                    Ok(r) => {
                        TIMINGS.lock().unwrap().push(RunTiming {
                            kernel: r.kernel.clone(),
                            config: r.config.clone(),
                            config_hash: config_hash(cfg),
                            host_secs: t0.elapsed().as_secs_f64(),
                            ticks: r.ticks,
                        });
                        Ok(r)
                    }
                    Err(e) => Err(SweepFailure {
                        kernel: w.name.clone(),
                        config: cfg.label(),
                        error: e.to_string(),
                    }),
                };
                let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                if let Some(p) = progress {
                    let (ok, ticks) = match &outcome {
                        Ok(r) => (true, r.ticks),
                        Err(_) => (false, 0),
                    };
                    p.cell_done(&w.name, &cfg.label(), ok, t0.elapsed().as_secs_f64(), ticks);
                } else {
                    eprint!(
                        "  sim {:<14} {:<20} [{d}/{}]\r",
                        w.name,
                        cfg.label(),
                        pairs.len()
                    );
                    std::io::stderr().flush().ok();
                }
                *slots[i].lock().unwrap() = Some(outcome);
            });
        }
    });
    if progress.is_none() {
        eprintln!();
    }
    let mut sweep = Sweep::default();
    let mut failures = Vec::new();
    for slot in slots {
        match slot
            .into_inner()
            .unwrap()
            .expect("every claimed pair completed")
        {
            Ok(r) => sweep.insert(r),
            Err(f) => failures.push(f),
        }
    }
    (sweep, failures)
}

/// [`try_run_matrix`] for harness code that treats any failing cell as
/// fatal: the figures want a complete matrix or nothing.
///
/// # Panics
///
/// Panics if any cell failed, listing every failing (kernel, config) pair
/// (a simulation bug, never expected).
pub fn run_matrix(workloads: &[Workload], configs: &[RunConfig]) -> Sweep {
    let (sweep, failures) = try_run_matrix(workloads, configs);
    if !failures.is_empty() {
        let mut msg = format!("{} sweep cell(s) failed:\n", failures.len());
        for f in &failures {
            use std::fmt::Write as _;
            let _ = writeln!(msg, "  {f}");
        }
        panic!("{msg}");
    }
    sweep
}

/// Runs the full 12-benchmark suite under the given configurations.
pub fn run_suite_matrix(scale: &Scale, configs: &[RunConfig]) -> Sweep {
    run_matrix(&suite(scale), configs)
}

/// The six paper configurations.
pub fn paper_configs() -> Vec<RunConfig> {
    ConfigKind::ALL
        .iter()
        .map(|&k| RunConfig::named(k))
        .collect()
}

/// Renders a table of `metric(kernel, config)` with a geometric-mean row;
/// returns the rendered text (callers print and/or save it).
pub fn metric_table(
    title: &str,
    sweep: &Sweep,
    configs: &[String],
    metric: impl Fn(&RunResult) -> f64,
    normalize_to: Option<&str>,
    invert: bool,
) -> String {
    let mut out = String::new();
    use std::fmt::Write as _;
    writeln!(out, "\n=== {title} ===").unwrap();
    write!(out, "{:<14}", "benchmark").unwrap();
    for c in configs {
        write!(out, " {c:>20}").unwrap();
    }
    writeln!(out).unwrap();
    let mut per_config: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for k in &sweep.kernels {
        write!(out, "{k:<14}").unwrap();
        for c in configs {
            let raw = metric(sweep.get(k, c));
            let v = match normalize_to {
                Some(base) => {
                    let b = metric(sweep.get(k, base));
                    if invert {
                        if raw == 0.0 {
                            f64::NAN
                        } else {
                            b / raw
                        }
                    } else if b == 0.0 {
                        f64::NAN
                    } else {
                        raw / b
                    }
                }
                None => raw,
            };
            per_config.entry(c.as_str()).or_default().push(v);
            write!(out, " {v:>20.3}").unwrap();
        }
        writeln!(out).unwrap();
    }
    write!(out, "{:<14}", "geomean").unwrap();
    for c in configs {
        let g = geomean(
            per_config
                .get(c.as_str())
                .unwrap()
                .iter()
                .copied()
                .filter(|v| v.is_finite() && *v > 0.0),
        )
        .unwrap_or(f64::NAN);
        write!(out, " {g:>20.3}").unwrap();
    }
    writeln!(out).unwrap();
    out
}

/// Writes `content` to `results/<name>` (best effort) and echoes the path.
pub fn save_result(name: &str, content: &str) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(name);
        if std::fs::write(&path, content).is_ok() {
            eprintln!("wrote {}", path.display());
        }
    }
}

/// Prints and saves a rendered table.
pub fn emit(name: &str, content: &str) {
    print!("{content}");
    save_result(name, content);
}

/// Sorts timing rows into their canonical order: (kernel, config, ticks).
/// The tick count participates so duplicate (kernel, config) labels (the
/// working-set sweep reuses labels at different scales) still order
/// deterministically regardless of which worker finished first.
fn sort_rows(rows: &mut [RunTiming]) {
    rows.sort_by(|a, b| {
        (&a.kernel, &a.config, a.ticks)
            .cmp(&(&b.kernel, &b.config, b.ticks))
            .then_with(|| a.config_hash.cmp(&b.config_hash))
    });
}

/// Renders the deterministic run log: one line per run with only
/// simulation-determined fields (kernel, config, simulated ticks), sorted
/// canonically. Byte-identical across thread counts and host speeds — the
/// reproducibility artifact `results/reproduce.log` is built from this.
pub fn render_run_log(rows: &[RunTiming]) -> String {
    let mut rows: Vec<RunTiming> = rows.to_vec();
    sort_rows(&mut rows);
    use std::fmt::Write as _;
    let mut log = format!(
        "{:<14} {:<20} {:>16}\n",
        "kernel", "config", "simulated_ticks"
    );
    let mut total_ticks = 0u64;
    for r in &rows {
        writeln!(log, "{:<14} {:<20} {:>16}", r.kernel, r.config, r.ticks).unwrap();
        total_ticks += r.ticks;
    }
    writeln!(
        log,
        "total: {} runs, {} simulated ticks",
        rows.len(),
        total_ticks
    )
    .unwrap();
    log
}

/// Renders the wall-clock companion log (host seconds and ticks/sec per
/// run; worker count, wall time and the aggregate simulated ticks per
/// wall-clock second). Inherently nondeterministic — kept out of
/// `reproduce.log` so that file stays byte-stable.
pub fn render_timing_log(rows: &[RunTiming], total_wall_secs: f64) -> String {
    let mut rows: Vec<RunTiming> = rows.to_vec();
    sort_rows(&mut rows);
    use std::fmt::Write as _;
    let mut log = format!(
        "{:<14} {:<20} {:>12} {:>16} {:>14}\n",
        "kernel", "config", "host_secs", "simulated_ticks", "ticks_per_sec"
    );
    let (mut sim_secs, mut total_ticks) = (0.0f64, 0u64);
    for r in &rows {
        let tps = if r.host_secs > 0.0 {
            r.ticks as f64 / r.host_secs
        } else {
            f64::INFINITY
        };
        writeln!(
            log,
            "{:<14} {:<20} {:>12.4} {:>16} {:>14.3e}",
            r.kernel, r.config, r.host_secs, r.ticks, tps
        )
        .unwrap();
        sim_secs += r.host_secs;
        total_ticks += r.ticks;
    }
    let tps = total_ticks as f64 / total_wall_secs;
    let (runs, workers) = (rows.len(), sweep_threads());
    writeln!(
        log,
        "total: {runs} runs, {sim_secs:.2}s simulating across {workers} workers, {total_wall_secs:.2}s wall, {tps:.3e} simulated ticks/s"
    )
    .unwrap();
    log
}

/// Writes the run logs from the run timings accumulated since the last
/// [`take_timings`]: `results/reproduce.log` gets the deterministic run log
/// (byte-identical across thread counts), `results/reproduce_timing.log`
/// the wall-clock companion, and one manifest record per run appends to
/// `results/manifests/runs.jsonl`. Rows only exist for runs that simulated
/// *and validated*, so every record carries `validated: true`.
pub fn write_run_logs(total_wall_secs: f64) {
    let mut rows = take_timings();
    sort_rows(&mut rows);
    save_result("reproduce.log", &render_run_log(&rows));
    let timing = render_timing_log(&rows, total_wall_secs);
    save_result("reproduce_timing.log", &timing);
    for r in &rows {
        let rec = ManifestRecord::capture(
            &r.kernel,
            &r.config,
            r.config_hash.clone(),
            r.ticks,
            r.host_secs,
            true,
        );
        if rec.append().is_err() {
            eprintln!("warning: could not append run manifest");
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distda_workloads::pointer_chase;

    #[test]
    fn sweep_runs_and_indexes_results() {
        let w = pointer_chase(&Scale::tiny());
        let cfgs = vec![
            RunConfig::named(ConfigKind::OoO),
            RunConfig::named(ConfigKind::DistDAIO),
        ];
        let sweep = run_matrix(&[w], &cfgs);
        assert_eq!(sweep.kernels.len(), 1);
        assert_eq!(sweep.configs.len(), 2);
        let r = sweep.get("pointer-chase", "OoO");
        assert!(r.ticks > 0);
    }

    #[test]
    fn paper_configs_are_six() {
        assert_eq!(paper_configs().len(), 6);
    }

    #[test]
    fn metric_table_renders_geomean() {
        let w = pointer_chase(&Scale::tiny());
        let cfgs = vec![RunConfig::named(ConfigKind::OoO)];
        let sweep = run_matrix(&[w], &cfgs);
        let t = metric_table(
            "t",
            &sweep,
            &["OoO".to_string()],
            |r| r.ticks as f64,
            None,
            false,
        );
        assert!(t.contains("geomean"));
        assert!(t.contains("pointer-chase"));
    }
}
