//! The `serve` workload: an in-process daemon with two workers, driven by
//! one closed-loop client connection, in two phases that use the result
//! cache differently.
//!
//! - Warm: one daemon whose 16-entry memory LRU is smaller than the 72-cell
//!   tiny universe primed into it, so hits split between the memory and
//!   disk layers. Seeded jobs of 1-3 kernels x 1-2 configs ask for payloads,
//!   and `/metrics` is scraped after every tenth job.
//! - Cold: each repetition starts a daemon on an empty cache directory and
//!   runs the whole tiny universe as one job, so every cell is simulated
//!   and written.
//!
//! The daemon fixes its own input scales, so the seed varies only the warm
//! job stream.

use crate::checks::{Pins, Tally};
use crate::client::{gauge, CellResult, Conn, JobTrace};
use crate::stats::{fastest, median, quantile, ratio, Outcome};
use crate::sweep::{self, Cell, SETUP_REPS};
use distda_serve::{encode_result, fetch_metrics, ServeConfig, Server};
use distda_sim::SplitMix64;
use distda_system::RunConfig;
use distda_workloads::{suite, Scale};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Daemon worker threads: one per core of the 2-core host the bounds were
/// measured on.
const WORKERS: usize = 2;
/// Memory-LRU entries, a fraction of the 72-cell tiny universe.
const WARM_LRU: usize = 16;
/// Share of the run's seconds given to the warm phase; the cold phase
/// gets the rest. Warm jobs take a steady 44 ms, so a few hundred settle
/// their median; the cold phase's fastest service times need as many
/// repetitions as the run allows.
const WARM_SHARE: f64 = 0.3;
/// Warm jobs between `/metrics` scrapes.
const SCRAPE_EVERY: usize = 10;

/// A daemon on its own cache directory.
struct Daemon {
    server: Server,
    addr: String,
    dir: PathBuf,
}

impl Daemon {
    fn start() -> Self {
        let dir = crate::scratch_dir("serve");
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            queue: 256,
            cache_mem: WARM_LRU,
            cache_dir: Some(dir.clone()),
            cache_bytes: 0,
        })
        .expect("bind an ephemeral localhost port");
        let addr = server.local_addr().to_string();
        Self { server, addr, dir }
    }

    fn connect(&self) -> Conn {
        Conn::connect(&self.addr).expect("connect to the in-process daemon")
    }

    fn stop(self) {
        self.server.shutdown();
        if let Err(e) = std::fs::remove_dir_all(&self.dir) {
            eprintln!("benchmark: could not remove {}: {e}", self.dir.display());
        }
    }
}

/// What is wrong with a finished job: a `rejected` or `error` event, an
/// ordering violation, a missing result, or a result with `ok:false`.
fn job_problems(job: &Result<JobTrace, String>, cells: usize) -> Vec<String> {
    let t = match job {
        Ok(t) => t,
        Err(e) => return vec![e.clone()],
    };
    let mut problems = Vec::new();
    if t.cells != cells as u64 || t.results.len() != cells {
        problems.push(format!(
            "{} accepted and {} results for {cells} cells",
            t.cells,
            t.results.len()
        ));
    }
    for r in t.results.iter().filter(|r| !r.ok) {
        problems.push(format!("{}/{}: ok:false", r.kernel, r.config));
    }
    problems
}

/// A cold job: every cell simulated, none cached, and each result as
/// `expect` wants it.
fn cold_problems(
    job: &Result<JobTrace, String>,
    cells: usize,
    expect: impl Fn(&CellResult) -> Result<(), String>,
) -> Vec<String> {
    let mut problems = job_problems(job, cells);
    for r in job.iter().flat_map(|t| &t.results) {
        if r.cached {
            problems.push(format!("{}/{}: cached in a cold job", r.kernel, r.config));
        }
        problems.extend(expect(r).err());
    }
    problems
}

/// Encoded tiny-universe results by (kernel, config label).
type Oracle = BTreeMap<(String, String), String>;

/// The payload oracle: every tiny-universe cell simulated in-process and
/// encoded as the daemon's cache encodes it.
fn oracle(tally: &mut Tally) -> Oracle {
    let (sweep, failures) =
        distda_bench::try_run_matrix(&suite(&Scale::tiny()), &distda_bench::paper_configs());
    drop(distda_bench::take_timings());
    let problems: Vec<String> = failures.iter().map(ToString::to_string).collect();
    tally.op(&problems);
    sweep
        .results
        .into_iter()
        .map(|(key, r)| (key, encode_result(&r)))
        .collect()
}

/// Whether a result's payload is byte-identical to the oracle's.
fn payload_matches(oracle: &Oracle, r: &CellResult) -> Result<(), String> {
    if r.payload.as_ref() == oracle.get(&(r.kernel.clone(), r.config.clone())) {
        Ok(())
    } else {
        Err(format!(
            "{}/{}: payload differs from oracle",
            r.kernel, r.config
        ))
    }
}

/// `n` distinct items drawn from `items`.
fn pick(rng: &mut SplitMix64, items: &[String], n: usize) -> Vec<String> {
    let mut pool = items.to_vec();
    (0..n)
        .map(|_| pool.remove(rng.below(pool.len() as u64) as usize))
        .collect()
}

fn ms(secs: f64) -> f64 {
    secs * 1e3
}

/// The daemon's own layers, from client timestamps and `/metrics`.
fn layer_metrics(
    cold: &[JobTrace],
    warm: &[JobTrace],
    scrape_ms: &[f64],
    metrics_body: &str,
    out: &mut Outcome,
) {
    let admit: Vec<f64> = warm
        .iter()
        .map(|t| ms((t.accepted - t.sent).as_secs_f64()))
        .collect();
    let stream: Vec<f64> = warm
        .iter()
        .map(|t| ms((t.done - t.accepted).as_secs_f64()))
        .collect();
    let events = || cold.iter().flat_map(|t| &t.cell_events);
    let queue_wait: Vec<f64> = events()
        .map(|e| (e.t_ms - ms(e.host_secs)).max(0.0))
        .collect();
    let service: Vec<f64> = events().map(|e| ms(e.host_secs)).collect();
    let bytes: Vec<f64> = warm.iter().map(|t| t.bytes as f64).collect();
    out.push("serve.admit_ms_p50", median(&admit), "ms");
    out.push("serve.stream_ms_p50", median(&stream), "ms");
    out.push("serve.queue_wait_ms_p50", median(&queue_wait), "ms");
    out.push("serve.cell_service_ms_p50", median(&service), "ms");
    out.push(
        "serve.cache_hit_ratio",
        gauge(metrics_body, "distda_serve_cache_hit_ratio").unwrap_or(0.0),
        "ratio",
    );
    out.push("serve.bytes_per_job", median(&bytes), "bytes");
    out.push("serve.metrics_scrape_ms_p50", median(scrape_ms), "ms");
}

/// One scrape, checked: a 200 response that carries the job counter.
/// Returns the body and the seconds the scrape took.
fn checked_scrape(addr: &str, tally: &mut Tally) -> Option<(String, f64)> {
    let t0 = Instant::now();
    let got = fetch_metrics(addr).and_then(|body| {
        if body.contains("distda_serve_jobs_total") {
            Ok(body)
        } else {
            Err("/metrics body lacks distda_serve_jobs_total".to_string())
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    tally.op(&got.as_ref().err().cloned().into_iter().collect::<Vec<_>>());
    got.ok().map(|body| (body, secs))
}

/// The serve workload. With `trace`, adds the daemon's layer metrics and
/// the simulator's layer probe over the cold job's cells.
pub fn run(seed: u64, seconds: f64, trace: bool, out: &mut Outcome, tally: &mut Tally) {
    let oracle = oracle(tally);
    // Oracle keys are sorted, so each kernel's cells are adjacent.
    let mut kernels: Vec<String> = oracle.keys().map(|(k, _)| k.clone()).collect();
    kernels.dedup();
    let configs: Vec<String> = distda_bench::paper_configs()
        .iter()
        .map(RunConfig::label)
        .collect();
    crate::reset_peak_rss();

    // Set-up: daemon start plus priming the tiny universe.
    let mut setup_secs = Vec::new();
    let mut set_up = || {
        let t0 = Instant::now();
        let d = Daemon::start();
        let prime = d.connect().sweep(&kernels, &configs, "tiny", false);
        setup_secs.push(t0.elapsed().as_secs_f64());
        tally.op(&job_problems(&prime, kernels.len() * configs.len()));
        d
    };
    let universe = kernels.len() * configs.len();
    let mut daemon = set_up();
    for _ in 1..SETUP_REPS {
        daemon.stop();
        daemon = set_up();
    }

    let t0 = Instant::now();
    let mut rng = SplitMix64::new(seed);
    let mut conn = daemon.connect();
    let (mut warm, mut scrape_ms, mut body) = (Vec::new(), Vec::new(), String::new());
    // Loops count attempts, not successes, so failing jobs cannot keep a
    // phase running past its deadline.
    let mut attempts = 0;
    while attempts == 0 || t0.elapsed().as_secs_f64() < WARM_SHARE * seconds {
        attempts += 1;
        let nk = 1 + rng.below(3) as usize;
        let ks = pick(&mut rng, &kernels, nk);
        let nc = 1 + rng.below(2) as usize;
        let cs = pick(&mut rng, &configs, nc);
        let job = conn.sweep(&ks, &cs, "tiny", true);
        let mut problems = job_problems(&job, ks.len() * cs.len());
        for r in job.iter().flat_map(|t| &t.results) {
            problems.extend(payload_matches(&oracle, r).err());
        }
        tally.op(&problems);
        // Checked results are dropped: kept, their payloads would grow the
        // measured peak with the seed and the number of jobs.
        warm.extend(job.map(JobTrace::without_results));
        if attempts % SCRAPE_EVERY == 0 {
            if let Some((b, secs)) = checked_scrape(&daemon.addr, tally) {
                scrape_ms.push(ms(secs));
                body = b;
            }
        }
    }
    drop(conn);
    daemon.stop();
    // The cold phase's peak depends on which eval cells the two workers
    // happen to simulate at the same time, so the reported peak is the
    // daemon's through set-up and the warm phase.
    let daemon_peak_mb = crate::peak_rss_mb();

    let (mut cold, mut cold_ticks) = (Vec::new(), None);
    attempts = 0;
    while attempts == 0 || t0.elapsed().as_secs_f64() < seconds {
        attempts += 1;
        let d = Daemon::start();
        let job = d.connect().sweep(&kernels, &configs, "tiny", true);
        d.stop();
        tally.op(&cold_problems(&job, universe, |r| {
            payload_matches(&oracle, r)
        }));
        if let Ok(t) = &job {
            cold_ticks.get_or_insert(t.results.iter().map(|r| r.ticks).sum::<u64>());
        }
        cold.extend(job.map(JobTrace::without_results));
    }

    let cold_secs: Vec<f64> = cold.iter().map(JobTrace::secs).collect();
    let cold_ticks = cold_ticks.unwrap_or(0);
    // Each cold cell's fastest service time over the repetitions, as the
    // daemon streams it: the job's simulation cost without queueing or
    // interference from other load on the host.
    let mut service: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for e in cold.iter().flat_map(|t| &t.cell_events) {
        service
            .entry((&e.kernel, &e.config))
            .or_default()
            .push(e.host_secs);
    }
    let service_secs: f64 = service.values().map(|s| fastest(s)).sum();
    let warm_ms: Vec<f64> = warm.iter().map(|t| ms(t.secs())).collect();
    println!(
        "serve: {} warm jobs, p95 {:.3} ms; {} scrapes, p50 {:.3} ms; {} cold jobs, \
         cold_job_s p50 {:.3}; peak with the cold phase {:.1} MiB",
        warm.len(),
        quantile(&warm_ms, 0.95),
        scrape_ms.len(),
        median(&scrape_ms),
        cold.len(),
        median(&cold_secs),
        crate::peak_rss_mb(),
    );
    if trace {
        layer_metrics(&cold, &warm, &scrape_ms, &body, out);
        sweep::layer_probe(&sweep::universe(), &Scale::tiny(), out, tally);
        return;
    }
    out.push("setup_s", median(&setup_secs), "s");
    out.push(
        "sim_ticks_per_s",
        ratio(cold_ticks as f64, service_secs),
        "1/s",
    );
    out.push("op_p50_ms", median(&warm_ms), "ms");
    out.push("peak_rss_mb", daemon_peak_mb, "MiB");
}

/// The daemon's layer metrics for a sweep workload's cells: each
/// configuration's kernels as one eval job on a fresh daemon, then the same
/// jobs again from the cache, then one scrape.
pub fn probe(cells: &[Cell], out: &mut Outcome, tally: &mut Tally) {
    let pins = Pins::committed();
    let mut jobs: Vec<(String, Vec<String>)> = Vec::new();
    for (kernel, cfg) in cells {
        let label = cfg.label();
        match jobs.iter_mut().find(|(c, _)| *c == label) {
            Some((_, ks)) => ks.push(kernel.to_string()),
            None => jobs.push((label, vec![kernel.to_string()])),
        }
    }
    let daemon = Daemon::start();
    let mut conn = daemon.connect();
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for (config, kernels) in &jobs {
        let configs = [config.clone()];
        let first = conn.sweep(kernels, &configs, "eval", true);
        tally.op(&cold_problems(&first, kernels.len(), |r| {
            pins.check(&r.kernel, &r.config, r.ticks)
        }));
        let again = conn.sweep(kernels, &configs, "eval", true);
        let mut problems = job_problems(&again, kernels.len());
        if let (Ok(a), Ok(b)) = (&first, &again) {
            let payloads = |t: &JobTrace| t.results.iter().map(|r| r.payload.clone()).collect();
            let (pa, pb): (Vec<_>, Vec<_>) = (payloads(a), payloads(b));
            if pa != pb || b.cache_hits != kernels.len() as u64 {
                problems.push(format!(
                    "{config}: cached replay differs from the first job"
                ));
            }
        }
        tally.op(&problems);
        cold.extend(first);
        warm.extend(again);
    }
    let (body, scrape_ms) = checked_scrape(&daemon.addr, tally)
        .map_or((String::new(), Vec::new()), |(b, s)| (b, vec![ms(s)]));
    drop(conn);
    daemon.stop();
    layer_metrics(&cold, &warm, &scrape_ms, &body, out);
}
