//! The two sweep workloads and the per-layer probe every traced run makes
//! over its workload's cells.
//!
//! A sweep runs its cells one after another on one thread, the way
//! `distda-bench` runs a figure with `DISTDA_THREADS=1`, and repeats the
//! whole sweep (a pass) until the run's time is spent.

use crate::checks::{cell_problems, Tally};
use crate::stats::{fastest, median, quantile, ratio, Outcome};
use distda_sim::sample::{DEFAULT_WINDOW_CAP, DEFAULT_WINDOW_TICKS};
use distda_sim::{ProfileSnapshot, Profiler, Sampler};
use distda_system::{CheckPolicy, ConfigKind, RunConfig, RunResult, SimError};
use distda_trace::Tracer;
use distda_workloads::{self as wl, Scale, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Builds a kernel's program and inputs.
type Build = fn(&Scale) -> Workload;

/// Workload constructors by kernel display name: the suite without pca,
/// one of whose cells takes 2-20 s and would swamp every other cell.
const KERNELS: [(&str, Build); 11] = [
    ("disparity", wl::disparity),
    ("tracking", wl::tracking),
    ("fdtd-2d", wl::fdtd_2d),
    ("cholesky", wl::cholesky),
    ("adi", wl::adi),
    ("seidel-2d", wl::seidel_2d),
    ("pathfinder", wl::pathfinder),
    ("nw", wl::nw),
    ("bfs", wl::bfs),
    ("pagerank", wl::pagerank),
    ("pointer-chase", wl::pointer_chase),
];

/// The kernels whose offloaded cells keep the accelerators busiest: the
/// lowest skip share, so engine, port and mesh work dominates host time.
const OFFLOAD_KERNELS: [&str; 6] = [
    "disparity",
    "fdtd-2d",
    "adi",
    "pathfinder",
    "bfs",
    "pagerank",
];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// The sweeps' inputs: eval scale with every side a quarter as long (and
/// every node and hop count a sixteenth), generated from `seed`. No cell
/// takes more than about 80 ms, so a run repeats each cell dozens of times
/// and its fastest repetition is one made while the shared host was quiet;
/// at eval scale a run fits two to four passes of 0.1-1 s cells.
pub fn bench_scale(seed: u64) -> Scale {
    let e = Scale::eval();
    Scale {
        img: e.img / 4,
        grid: e.grid / 4,
        mat: e.mat / 4,
        rows: e.rows / 4,
        cols: e.cols / 4,
        seq: e.seq / 4,
        nodes: e.nodes / 16,
        chase: e.chase / 16,
        seed,
        ..e
    }
}

/// One (kernel, configuration) pair of a sweep.
pub type Cell = (&'static str, RunConfig);

/// Every kernel under every configuration: what the `serve` workload's
/// daemon simulates, pca aside.
pub fn universe() -> Vec<Cell> {
    KERNELS
        .iter()
        .flat_map(|&(k, _)| ConfigKind::ALL.map(|kind| (k, RunConfig::named(kind))))
        .collect()
}

/// The cells of a sweep workload, in run order.
fn cells(workload: &str) -> Vec<Cell> {
    let io = RunConfig::named(ConfigKind::DistDAIO);
    let f = RunConfig::named(ConfigKind::DistDAF);
    match workload {
        "offload-busy" => OFFLOAD_KERNELS
            .iter()
            .flat_map(|&k| [(k, io.clone()), (k, f.clone())])
            .collect(),
        // The host core alone on every kernel, plus the one kernel whose
        // offloaded runs skip 96% of their ticks: host, memory and the
        // scheduler's skip path, with little engine work.
        "host-skip" => KERNELS
            .iter()
            .map(|&(k, _)| (k, RunConfig::named(ConfigKind::OoO)))
            .chain(
                ConfigKind::ALL[1..]
                    .iter()
                    .map(|&kind| ("pointer-chase", RunConfig::named(kind))),
            )
            .collect(),
        other => panic!("not a sweep workload: {other}"),
    }
}

/// Which instruments a cell runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Instruments {
    trace: bool,
    check: bool,
    explain: bool,
}

/// How a cell is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `Workload::try_simulate`, the standard entry point.
    Bare,
    /// `Workload::try_simulate_profiled` with a fresh profiler.
    Profiled,
    /// `try_simulate_instrumented` with the given instruments.
    With(Instruments),
}

/// One simulated cell.
struct CellRun {
    out: Result<RunResult, SimError>,
    secs: f64,
    profile: Option<ProfileSnapshot>,
    trace_events: u64,
    explain_windows: u64,
}

impl CellRun {
    fn timed(out: Result<RunResult, SimError>, t0: Instant) -> Self {
        Self {
            out,
            secs: t0.elapsed().as_secs_f64(),
            profile: None,
            trace_events: 0,
            explain_windows: 0,
        }
    }
}

fn run_cell(w: &Workload, cfg: &RunConfig, mode: Mode) -> CellRun {
    let t0 = Instant::now();
    let ins = match mode {
        Mode::Bare => return CellRun::timed(w.try_simulate(cfg), t0),
        Mode::Profiled => {
            let profiler = Profiler::enabled();
            let mut run = CellRun::timed(w.try_simulate_profiled(cfg, &profiler), t0);
            run.profile = run
                .out
                .as_ref()
                .ok()
                .and_then(|r| profiler.snapshot_at(r.ticks));
            return run;
        }
        Mode::With(ins) => ins,
    };
    let tracer = if ins.trace {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let policy = if ins.check {
        CheckPolicy::full()
    } else {
        CheckPolicy::default()
    };
    let sampler = if ins.explain {
        Sampler::enabled(DEFAULT_WINDOW_TICKS, DEFAULT_WINDOW_CAP)
    } else {
        Sampler::disabled()
    };
    let out = distda_system::try_simulate_instrumented(
        &w.program,
        &*w.init,
        cfg,
        None,
        Some(w.reference_exec()),
        &tracer,
        policy,
        &Profiler::disabled(),
        &sampler,
    );
    let mut run = CellRun::timed(out.map(|o| o.0), t0);
    run.trace_events = tracer
        .components()
        .iter()
        .map(|c| c.events.len() as u64 + c.dropped)
        .sum();
    run.explain_windows = sampler.dump().map_or(0, |d| d.windows.len() as u64);
    run
}

/// Workloads by kernel display name.
type Workloads = BTreeMap<&'static str, Workload>;

/// What one set-up cost.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    /// Seconds for the whole set-up.
    secs: f64,
    /// Milliseconds spent generating programs and inputs.
    build_ms: f64,
    /// Milliseconds spent in the reference interpreter.
    reference_ms: f64,
}

/// Builds every kernel the cells name and interprets each once.
fn setup(cells: &[Cell], scale: &Scale) -> (Workloads, SetupTimes) {
    let t0 = Instant::now();
    let (mut build, mut reference) = (Duration::ZERO, Duration::ZERO);
    let mut workloads = BTreeMap::new();
    for &(kernel, _) in cells {
        if workloads.contains_key(kernel) {
            continue;
        }
        let (_, make) = KERNELS
            .iter()
            .find(|(k, _)| *k == kernel)
            .expect("cells name known kernels");
        let t = Instant::now();
        let w = make(scale);
        build += t.elapsed();
        let t = Instant::now();
        std::hint::black_box(w.reference_exec());
        reference += t.elapsed();
        workloads.insert(kernel, w);
    }
    let times = SetupTimes {
        secs: t0.elapsed().as_secs_f64(),
        build_ms: build.as_secs_f64() * 1e3,
        reference_ms: reference.as_secs_f64() * 1e3,
    };
    (workloads, times)
}

/// [`setup`] repeated [`SETUP_REPS`] times: the last repetition's
/// workloads and every repetition's timings.
fn setup_reps(cells: &[Cell], scale: &Scale) -> (Workloads, Vec<SetupTimes>) {
    let mut times = Vec::new();
    loop {
        let (ws, t) = setup(cells, scale);
        times.push(t);
        if times.len() == SETUP_REPS {
            return (ws, times);
        }
    }
}

/// Checks each cell against the first run of the same cell.
struct Checker {
    first_ticks: Vec<Option<u64>>,
}

impl Checker {
    fn new(cells: usize) -> Self {
        Self {
            first_ticks: vec![None; cells],
        }
    }

    fn check(&mut self, i: usize, run: &CellRun, tally: &mut Tally) {
        tally.op(&cell_problems(&run.out, self.first_ticks[i]));
        if let Ok(r) = &run.out {
            self.first_ticks[i].get_or_insert(r.ticks);
        }
    }
}

/// The end-to-end run of a sweep workload.
pub fn run(workload: &str, seed: u64, seconds: f64, out: &mut Outcome, tally: &mut Tally) {
    let cells = cells(workload);
    let (ws, setups) = setup_reps(&cells, &bench_scale(seed));
    let setup_secs: Vec<f64> = setups.iter().map(|s| s.secs).collect();
    let mut checker = Checker::new(cells.len());
    // A cell simulates the same work every pass, so its fastest pass is the
    // one least slowed by other load on the host; sweep time and the median
    // cell latency are taken over each cell's fastest pass.
    let mut cell_secs: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let (mut pass_secs, mut ticks) = (Vec::new(), 0);
    let t0 = Instant::now();
    while pass_secs.is_empty() || t0.elapsed().as_secs_f64() + median(&pass_secs) <= seconds {
        let start = Instant::now();
        ticks = 0;
        for (i, (kernel, cfg)) in cells.iter().enumerate() {
            let run = run_cell(&ws[kernel], cfg, Mode::Bare);
            checker.check(i, &run, tally);
            ticks += run.out.as_ref().map_or(0, |r| r.ticks);
            cell_secs[i].push(run.secs);
        }
        pass_secs.push(start.elapsed().as_secs_f64());
    }
    let cell_ms: Vec<f64> = cell_secs.iter().map(|s| fastest(s) * 1e3).collect();
    let sweep_secs = cell_ms.iter().sum::<f64>() / 1e3;
    println!(
        "{workload}: {} cells x {} passes, {ticks} simulated ticks per pass, \
         pass_s p50 {:.3} min {:.3} max {:.3}",
        cells.len(),
        pass_secs.len(),
        median(&pass_secs),
        quantile(&pass_secs, 0.0),
        quantile(&pass_secs, 1.0),
    );
    out.push("setup_s", median(&setup_secs), "s");
    out.push("sim_ticks_per_s", ratio(ticks as f64, sweep_secs), "1/s");
    out.push("op_p50_ms", median(&cell_ms), "ms");
    out.push("peak_rss_mb", crate::peak_rss_mb(), "MiB");
}

/// The traced run of a sweep workload: the per-layer probe over its
/// cells, plus the same cells served by a daemon.
pub fn traced(workload: &str, seed: u64, out: &mut Outcome, tally: &mut Tally) {
    let cells = cells(workload);
    layer_probe(&cells, &bench_scale(seed), out, tally);
    crate::serve::probe(&cells, out, tally);
}

/// Per-stage host time summed over a pass's profiles, by layer name.
#[derive(Default)]
struct Stages {
    host_ns: BTreeMap<&'static str, u64>,
    active_ticks: BTreeMap<&'static str, u64>,
    total_ns: u64,
    executed: u64,
    skipped: u64,
    skip_spans: u64,
    probes: u64,
    probe_ns: u64,
}

/// The layer a scheduler component belongs to, named by crate.
fn layer(component: &str) -> Option<&'static str> {
    Some(match component {
        c if c.starts_with("engine.") => "accel",
        "host" => "system.host",
        "delivery" => "system.delivery",
        "net-out" => "system.net-out",
        "mem" => "mem",
        "noc" => "noc",
        _ => return None,
    })
}

/// Layers reported with a host share and host ns per active tick.
const STAGE_LAYERS: [&str; 6] = [
    "accel",
    "system.host",
    "system.delivery",
    "system.net-out",
    "mem",
    "noc",
];

impl Stages {
    fn add(&mut self, snap: &ProfileSnapshot) {
        for c in &snap.comps {
            self.total_ns += c.host_ns;
            if let Some(l) = layer(&c.name) {
                *self.host_ns.entry(l).or_default() += c.host_ns;
                *self.active_ticks.entry(l).or_default() += c.active_ticks;
            }
        }
        self.total_ns += snap.probe_ns;
        self.executed += snap.ticks_executed;
        self.skipped += snap.ticks_skipped;
        self.skip_spans += snap.skip_spans;
        self.probes += snap.probes;
        self.probe_ns += snap.probe_ns;
    }

    fn report(&self, out: &mut Outcome) {
        let total = self.total_ns as f64;
        for l in STAGE_LAYERS {
            let ns = self.host_ns.get(l).copied().unwrap_or(0) as f64;
            let active = self.active_ticks.get(l).copied().unwrap_or(0) as f64;
            out.push(format!("{l}.host_share"), ratio(ns, total), "ratio");
            out.push(format!("{l}.ns_per_active_tick"), ratio(ns, active), "ns");
        }
        out.push(
            "sim.probe_share",
            ratio(self.probe_ns as f64, total),
            "ratio",
        );
        out.push(
            "sim.ns_per_probe",
            ratio(self.probe_ns as f64, self.probes as f64),
            "ns",
        );
        out.push(
            "sim.skip_share",
            ratio(self.skipped as f64, (self.executed + self.skipped) as f64),
            "ratio",
        );
        out.push("sim.ticks_executed", self.executed as f64, "count");
        out.push("sim.skip_spans", self.skip_spans as f64, "count");
    }
}

/// Repetitions of the scheduler micro-benchmark; its metrics are medians.
const KERNEL_BENCH_REPS: usize = 5;

/// The traced run simulates each cell once per mode, back to back, so that
/// other load on the host slows the modes alike: profiled (which also warms
/// the cell up), bare, then each instrument alone.
const PROBE_MODES: [Mode; 5] = [
    Mode::Profiled,
    Mode::Bare,
    Mode::With(Instruments {
        trace: true,
        check: false,
        explain: false,
    }),
    Mode::With(Instruments {
        trace: false,
        check: true,
        explain: false,
    }),
    Mode::With(Instruments {
        trace: false,
        check: false,
        explain: true,
    }),
];

/// Every per-layer metric of the simulator's crates, measured on `cells`:
/// set-up layers, the scheduler micro-benchmark, and each cell once per
/// [`PROBE_MODES`] mode.
pub fn layer_probe(cells: &[Cell], scale: &Scale, out: &mut Outcome, tally: &mut Tally) {
    let (ws, setups) = setup_reps(cells, scale);
    let ws = &ws;
    let build: Vec<f64> = setups.iter().map(|s| s.build_ms).collect();
    let reference: Vec<f64> = setups.iter().map(|s| s.reference_ms).collect();
    let compile: Vec<f64> = (0..SETUP_REPS).map(|_| compile_ms(ws, cells)).collect();

    let bench: Vec<distda_bench::KernelBench> = (0..KERNEL_BENCH_REPS)
        .map(|_| distda_bench::run_kernel_bench())
        .collect();
    let busy: Vec<f64> = bench.iter().map(|b| b.busy_ticks_per_sec()).collect();
    let idle: Vec<f64> = bench.iter().map(|b| b.idle_ticks_per_sec()).collect();

    let mut checker = Checker::new(cells.len());
    let mut secs = [0.0; PROBE_MODES.len()];
    let mut runs: [Vec<CellRun>; PROBE_MODES.len()] = Default::default();
    for (i, (kernel, cfg)) in cells.iter().enumerate() {
        for (m, &mode) in PROBE_MODES.iter().enumerate() {
            let run = run_cell(&ws[kernel], cfg, mode);
            checker.check(i, &run, tally);
            secs[m] += run.secs;
            runs[m].push(run);
        }
    }
    let [profiled_secs, bare_secs, trace_secs, check_secs, explain_secs] = secs;
    let [profiled, bare, traced, checked, explained] = runs;
    let mut stages = Stages::default();
    for snap in profiled.iter().filter_map(|r| r.profile.as_ref()) {
        stages.add(snap);
    }

    stages.report(out);
    out.push("sim.busy_dispatch_ticks_per_s", median(&busy), "1/s");
    out.push("sim.idle_skip_ticks_per_s", median(&idle), "1/s");
    let results: Vec<&RunResult> = bare.iter().filter_map(|r| r.out.as_ref().ok()).collect();
    let sum = |f: &dyn Fn(&RunResult) -> f64| results.iter().map(|r| f(r)).sum::<f64>();
    out.push(
        "mem.cache_accesses",
        sum(&|r| r.cache_accesses as f64),
        "count",
    );
    out.push(
        "noc.payload_bytes",
        sum(&|r| r.noc_bytes.iter().sum::<u64>() as f64),
        "bytes",
    );
    out.push(
        "accel.stall_chan_ticks",
        sum(&|r| r.report.get("accel.stall_chan").unwrap_or(0.0)),
        "count",
    );
    out.push(
        "accel.stall_mem_ticks",
        sum(&|r| r.report.get("accel.stall_mem").unwrap_or(0.0)),
        "count",
    );
    out.push("trace.overhead", ratio(trace_secs, bare_secs), "ratio");
    out.push("check.overhead", ratio(check_secs, bare_secs), "ratio");
    out.push("explain.overhead", ratio(explain_secs, bare_secs), "ratio");
    out.push(
        "trace.events",
        traced.iter().map(|r| r.trace_events as f64).sum(),
        "count",
    );
    out.push(
        "explain.windows",
        explained.iter().map(|r| r.explain_windows as f64).sum(),
        "count",
    );
    let violations = checked
        .iter()
        .map(|r| match &r.out {
            Err(SimError::InvariantViolation { count, .. }) => *count as f64,
            Err(SimError::ValidationMismatch { .. }) => 1.0,
            _ => 0.0,
        })
        .sum();
    out.push("check.violations", violations, "count");
    out.push("workloads.build_ms", median(&build), "ms");
    out.push("ir.reference_ms", median(&reference), "ms");
    out.push("compiler.compile_ms", median(&compile), "ms");
    out.push("profile.overhead", ratio(profiled_secs, bare_secs), "ratio");
}

/// Milliseconds to compile every kernel the cells offload, once per
/// partitioning mode they use.
fn compile_ms(ws: &Workloads, cells: &[Cell]) -> f64 {
    let mut seen = Vec::new();
    let t0 = Instant::now();
    for (kernel, cfg) in cells {
        let Some(mode) = cfg.kind.partition_mode() else {
            continue;
        };
        if seen.contains(&(kernel, mode)) {
            continue;
        }
        seen.push((kernel, mode));
        std::hint::black_box(distda_compiler::compile(&ws[kernel].program, mode));
    }
    t0.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_the_documented_cells() {
        assert_eq!(cells("offload-busy").len(), 12);
        assert_eq!(cells("host-skip").len(), 16);
        assert_eq!(universe().len(), 66);
        assert!(KERNELS.iter().all(|(k, _)| *k != "pca"));
    }

    #[test]
    fn bench_scale_is_seeded_and_smaller_than_eval() {
        let (s, e) = (bench_scale(7), Scale::eval());
        assert_eq!(s.seed, 7);
        assert!(s.grid < e.grid && s.nodes < e.nodes && s.chase < e.chase);
        assert_eq!((s.steps, s.iters, s.shifts), (e.steps, e.iters, e.shifts));
    }

    #[test]
    fn every_ticking_component_maps_to_a_layer() {
        let w = wl::pointer_chase(&Scale::tiny());
        let run = run_cell(&w, &RunConfig::named(ConfigKind::DistDAF), Mode::Profiled);
        let snap = run.profile.expect("profiled cell has a snapshot");
        // Passive components (the channel audit) never tick and cost nothing.
        for c in snap.comps.iter().filter(|c| c.active_ticks > 0) {
            assert!(layer(&c.name).is_some(), "unmapped component {}", c.name);
        }
        assert!(snap.comps.iter().any(|c| layer(&c.name) == Some("accel")));
    }
}
