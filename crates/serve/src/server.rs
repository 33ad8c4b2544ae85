//! The daemon: TCP accept loop, per-connection protocol handling, the
//! sweep pipeline (validate → dedupe → shard → stream), and the
//! OpenMetrics endpoint.
//!
//! Strictly a control plane over the existing hot path: the daemon never
//! touches the tick loop — workers execute cells through the same
//! [`distda_bench::try_run_matrix`] the batch harness uses, and
//! everything here happens between runs, not inside them.
//!
//! The `/metrics` endpoint shares the protocol port: a connection whose
//! first line is an HTTP `GET` is answered with an HTTP/1.0 response
//! (OpenMetrics text for `/metrics`, 404 otherwise) and closed, so one
//! `curl` and one scrape config cover the daemon.

use crate::cache::{encode_result, ResultCache};
use crate::pool::{CellOutcome, CellTask, Pool};
use crate::protocol::{self, Request, SweepRequest};
use distda_obs::manifest::config_hash;
use distda_obs::Registry;
use distda_system::{RunConfig, RunResult};
use distda_trace::metrics::LogHist;
use distda_workloads::{suite, Scale, Workload};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The backpressure fallback hint handed to rejected jobs before any cell
/// has completed (no service-time history yet). Once cells have run, the
/// hint scales with queue occupancy and the observed median cell service
/// time — see `State::retry_after_ms`.
pub const RETRY_AFTER_MS: u64 = 250;

/// Upper clamp on the adaptive retry hint (one minute).
pub const RETRY_AFTER_CAP_MS: u64 = 60_000;

/// Daemon configuration. [`ServeConfig::from_env`] reads the
/// `DISTDA_SERVE_*` knobs; tests construct it directly (port 0 for an
/// ephemeral listen address, a temp cache dir).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 = ephemeral).
    pub addr: String,
    /// Worker threads (0 = host parallelism, capped at 8).
    pub workers: usize,
    /// Bounded queue capacity, in cells.
    pub queue: usize,
    /// Memory-LRU entries (0 = persistent layer only).
    pub cache_mem: usize,
    /// Persistent cache directory (`None` = memory only).
    pub cache_dir: Option<PathBuf>,
    /// Persistent-layer byte budget (0 = unbounded).
    pub cache_bytes: u64,
}

impl ServeConfig {
    /// Reads every `DISTDA_SERVE_*` knob.
    pub fn from_env() -> Self {
        Self {
            addr: crate::env::addr(),
            workers: crate::env::workers(),
            queue: crate::env::queue(),
            cache_mem: crate::env::cache(),
            cache_dir: crate::env::cache_dir(),
            cache_bytes: crate::env::cache_bytes(),
        }
    }

    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(8)
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: crate::env::DEFAULT_ADDR.to_string(),
            workers: 0,
            queue: crate::env::DEFAULT_QUEUE,
            cache_mem: crate::env::DEFAULT_CACHE,
            cache_dir: Some(PathBuf::from(crate::cache::DEFAULT_CACHE_DIR)),
            cache_bytes: crate::env::DEFAULT_CACHE_BYTES,
        }
    }
}

struct State {
    registry: Mutex<Registry>,
    cache: Mutex<ResultCache>,
    pool: Pool,
    /// Scale name -> the suite's workloads (reference executions are
    /// shared through the workloads' `Arc`ed `OnceLock`s, so cloning one
    /// out per cell is cheap and the golden image computes once).
    suites: Mutex<HashMap<String, Vec<Workload>>>,
    jobs: AtomicU64,
    cells_submitted: AtomicU64,
    cells_deduped: AtomicU64,
    cells_completed: AtomicU64,
    cells_failed: AtomicU64,
    jobs_rejected: AtomicU64,
    /// Log2 histogram of per-cell host simulation time, in nanoseconds —
    /// rendered at `/metrics` as `distda_serve_cell_service_ns` and the
    /// history behind the adaptive retry hint (which reads its median, so
    /// one straggler cell cannot inflate every client's backoff the way
    /// the old mean-only gauge could).
    service_ns: Mutex<LogHist>,
    /// Worker thread count, for occupancy-scaled backpressure.
    workers: usize,
}

impl State {
    /// Resolves a kernel by either its short paper abbreviation
    /// (`"pch"`) or its display name (`"pointer-chase"`, the name results
    /// and manifests carry).
    fn workload(&self, scale: &str, kernel: &str) -> Option<Workload> {
        let mut suites = self.suites.lock().unwrap();
        let ws = suites.entry(scale.to_string()).or_insert_with(|| {
            let s = if scale == "eval" {
                Scale::eval()
            } else {
                Scale::tiny()
            };
            suite(&s)
        });
        ws.iter()
            .find(|w| {
                w.name.eq_ignore_ascii_case(kernel) || w.program.name.eq_ignore_ascii_case(kernel)
            })
            .cloned()
    }

    fn kernel_names(&self, scale: &str) -> Vec<String> {
        let mut suites = self.suites.lock().unwrap();
        let ws = suites.entry(scale.to_string()).or_insert_with(|| {
            let s = if scale == "eval" {
                Scale::eval()
            } else {
                Scale::tiny()
            };
            suite(&s)
        });
        ws.iter().map(|w| w.name.clone()).collect()
    }

    /// The OpenMetrics snapshot: the ingested run registry plus the
    /// daemon's own counters and gauges, rendered fresh per scrape.
    fn metrics_text(&self) -> String {
        let mut reg = self.registry.lock().unwrap().clone();
        reg.counter_add("distda_serve_jobs", &[], self.jobs.load(Ordering::SeqCst));
        reg.counter_add(
            "distda_serve_jobs_rejected",
            &[],
            self.jobs_rejected.load(Ordering::SeqCst),
        );
        reg.counter_add(
            "distda_serve_cells_submitted",
            &[],
            self.cells_submitted.load(Ordering::SeqCst),
        );
        reg.counter_add(
            "distda_serve_cells_deduped",
            &[],
            self.cells_deduped.load(Ordering::SeqCst),
        );
        reg.counter_add(
            "distda_serve_cells_completed",
            &[],
            self.cells_completed.load(Ordering::SeqCst),
        );
        reg.counter_add(
            "distda_serve_cells_failed",
            &[],
            self.cells_failed.load(Ordering::SeqCst),
        );
        reg.gauge_set("distda_serve_queue_depth", &[], self.pool.depth() as f64);
        reg.gauge_set(
            "distda_serve_queue_capacity",
            &[],
            self.pool.capacity() as f64,
        );
        let (stats, entries, disk_bytes) = {
            let cache = self.cache.lock().unwrap();
            (cache.stats(), cache.mem_entries(), cache.disk_bytes())
        };
        reg.gauge_set("distda_serve_cache_hit_ratio", &[], stats.hit_ratio());
        reg.gauge_set("distda_serve_cache_mem_entries", &[], entries as f64);
        reg.gauge_set("distda_serve_cache_corrupt", &[], stats.corrupt as f64);
        reg.counter_add("distda_serve_cache_evictions", &[], stats.evictions);
        reg.gauge_set("distda_serve_cache_disk_bytes", &[], disk_bytes as f64);
        reg.hist_merge(
            "distda_serve_cell_service_ns",
            &[],
            &self.service_ns.lock().unwrap(),
        );
        reg.gauge_set(
            "distda_serve_retry_after_ms",
            &[],
            self.retry_after_ms() as f64,
        );
        reg.openmetrics()
    }

    /// The backpressure hint: estimated milliseconds until the queue has
    /// drained enough to admit more work — queued cells divided across
    /// the workers, times the observed *median* cell service time (the
    /// p50 bucket of the `distda_serve_cell_service_ns` histogram). Falls
    /// back to [`RETRY_AFTER_MS`] until the first cell completes; clamped
    /// to `[RETRY_AFTER_MS / 5, RETRY_AFTER_CAP_MS]` so a hiccup in
    /// either direction cannot strand clients.
    fn retry_after_ms(&self) -> u64 {
        let p50_ns = {
            let hist = self.service_ns.lock().unwrap();
            if hist.count == 0 {
                return RETRY_AFTER_MS;
            }
            hist.quantile(0.5)
        };
        let p50_ms = p50_ns as f64 / 1e6;
        let rounds = (self.pool.depth() as f64 / self.workers.max(1) as f64).max(1.0);
        let est = (rounds * p50_ms).ceil() as u64;
        est.clamp(RETRY_AFTER_MS / 5, RETRY_AFTER_CAP_MS)
    }
}

/// A running daemon. Dropping it stops the accept loop; in-flight
/// connections finish on their own.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the daemon.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers = cfg.resolved_workers();
        let state = Arc::new(State {
            registry: Mutex::new(Registry::new()),
            cache: Mutex::new(
                ResultCache::new(cfg.cache_mem, cfg.cache_dir.clone())
                    .with_disk_budget(cfg.cache_bytes),
            ),
            pool: Pool::start(workers, cfg.queue),
            suites: Mutex::new(HashMap::new()),
            jobs: AtomicU64::new(0),
            cells_submitted: AtomicU64::new(0),
            cells_deduped: AtomicU64::new(0),
            cells_completed: AtomicU64::new(0),
            cells_failed: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            service_ns: Mutex::new(LogHist::default()),
            workers,
        });
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = stop.clone();
            std::thread::spawn(move || accept_loop(listener, state, stop))
        };
        Ok(Self {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and waits for it to exit.
    pub fn shutdown(mut self) {
        self.stop_accept();
    }

    fn stop_accept(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            // The loop blocks in `accept`; one loopback connection wakes it
            // to see `stop`. Should that connect fail, the thread is left to
            // exit on its next connection rather than joined forever.
            if TcpStream::connect(wake_addr(self.addr)).is_ok() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_accept();
    }
}

/// Where a connection reaches the listener bound at `addr`: the loopback
/// address of the same family when it is bound to an unspecified address.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

fn accept_loop(listener: TcpListener, state: Arc<State>, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match conn {
            Ok(stream) => {
                let state = state.clone();
                std::thread::spawn(move || {
                    let _ = handle_connection(stream, &state);
                });
            }
            // Out of descriptors and the like: back off instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Serves one connection. Responses go through one buffered writer on a
/// `TCP_NODELAY` socket and are flushed wherever the client waits: at the
/// end of every response, and inside a sweep after `accepted` and after
/// each simulated cell's event. A line thus leaves as one segment, never
/// as a body followed by a newline held back by Nagle until the client's
/// delayed ACK fires.
fn handle_connection(stream: TcpStream, state: &State) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(()); // client closed
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed.starts_with("GET ") || trimmed.starts_with("HEAD ") {
            serve_http(&mut writer, trimmed, state)?;
            return writer.flush();
        }
        match protocol::parse_request(trimmed) {
            Err(e) => writeln!(writer, "{}", protocol::render_error(&e))?,
            Ok(Request::Ping) => writeln!(writer, "{}", protocol::render_pong())?,
            Ok(Request::Metrics) => writeln!(
                writer,
                "{}",
                protocol::render_metrics(&state.metrics_text())
            )?,
            Ok(Request::Sweep(req)) => handle_sweep(&mut writer, state, req)?,
        }
        writer.flush()?;
    }
}

fn serve_http(writer: &mut impl Write, request_line: &str, state: &State) -> std::io::Result<()> {
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, ctype, body) = if path == "/metrics" {
        (
            "200 OK",
            "application/openmetrics-text; version=1.0.0; charset=utf-8",
            state.metrics_text(),
        )
    } else {
        (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        )
    };
    write!(
        writer,
        "HTTP/1.0 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

struct Cell {
    kernel: String,
    config_label: String,
    cfg: RunConfig,
    cfg_hash: String,
    key: String,
    workload: Workload,
}

enum CellState {
    Cached(RunResult),
    Simulated(Result<RunResult, String>),
    Pending,
}

/// A job's stream from `accepted` on. The first write error ends the
/// stream but not the job: the rest of its outcomes still reach the cache
/// and the registry, so a client that disconnects mid-stream loses no
/// simulated work, and the error is returned once the job is done.
struct JobStream<'w, W: Write> {
    out: &'w mut W,
    err: Option<std::io::Error>,
}

impl<W: Write> JobStream<'_, W> {
    /// Writes one line, pushing it to the client at once with `flush`.
    fn line(&mut self, line: &str, flush: bool) {
        if self.err.is_none() {
            let mut written = writeln!(self.out, "{line}");
            if flush {
                written = written.and_then(|()| self.out.flush());
            }
            self.err = written.err();
        }
    }

    fn finish(self) -> std::io::Result<()> {
        self.err.map_or(Ok(()), Err)
    }
}

fn handle_sweep(writer: &mut impl Write, state: &State, req: SweepRequest) -> std::io::Result<()> {
    // Resolve configs (validated) and kernels before touching the queue:
    // a bad request is an error, never a partial job.
    let config_labels: Vec<String> = if req.configs.is_empty() {
        distda_system::ConfigKind::ALL
            .iter()
            .map(|k| k.label().to_string())
            .collect()
    } else {
        req.configs.clone()
    };
    let mut configs: Vec<RunConfig> = Vec::with_capacity(config_labels.len());
    for label in &config_labels {
        let cfg = RunConfig::from_label(label).and_then(|cfg| {
            cfg.validate()
                .map(|()| cfg)
                .map_err(|e| format!("invalid config `{label}`: {e}"))
        });
        match cfg {
            Ok(cfg) => configs.push(cfg),
            Err(e) => return writeln!(writer, "{}", protocol::render_error(&e)),
        }
    }
    let kernels: Vec<String> = if req.kernels.is_empty() {
        state.kernel_names(&req.scale)
    } else {
        req.kernels.clone()
    };
    let mut cells: Vec<Cell> = Vec::with_capacity(kernels.len() * configs.len());
    for kernel in &kernels {
        let Some(workload) = state.workload(&req.scale, kernel) else {
            return writeln!(
                writer,
                "{}",
                protocol::render_error(&format!("unknown kernel `{kernel}`"))
            );
        };
        // Events, results, and cache keys all use the display name the
        // run itself will carry, whichever alias the request used.
        let kernel = workload.program.name.clone();
        for cfg in &configs {
            let cfg_hash = config_hash(cfg);
            cells.push(Cell {
                kernel: kernel.clone(),
                config_label: cfg.label(),
                cfg: cfg.clone(),
                cfg_hash: cfg_hash.clone(),
                key: ResultCache::key(&kernel, &req.scale, &cfg_hash),
                workload: workload.clone(),
            });
        }
    }

    // Dedupe pass: identical cells within the job share one lookup slot,
    // and anything already cached is served without queueing.
    let mut states: Vec<CellState> = Vec::with_capacity(cells.len());
    if req.dedupe {
        let mut cache = state.cache.lock().unwrap();
        let mut seen_in_job: HashMap<String, usize> = HashMap::new();
        for (i, cell) in cells.iter().enumerate() {
            if let Some(&first) = seen_in_job.get(&cell.key) {
                // An identical cell earlier in this job: dedupe against
                // it whether or not it was cached (the first instance
                // will populate the cache before results render).
                let st = match &states[first] {
                    CellState::Cached(r) => CellState::Cached(r.clone()),
                    _ => CellState::Pending,
                };
                states.push(st);
                continue;
            }
            seen_in_job.insert(cell.key.clone(), i);
            match cache.get(&cell.key) {
                Some(r) => states.push(CellState::Cached(r)),
                None => states.push(CellState::Pending),
            }
        }
    } else {
        states.extend(cells.iter().map(|_| CellState::Pending));
    }

    // In-job duplicates of a pending cell simulate once; the duplicates
    // resolve from the cache after the misses land.
    let mut to_simulate: Vec<usize> = Vec::new();
    {
        let mut claimed: HashMap<&str, usize> = HashMap::new();
        for (i, st) in states.iter().enumerate() {
            if matches!(st, CellState::Pending) && req.dedupe {
                if claimed.contains_key(cells[i].key.as_str()) {
                    continue;
                }
                claimed.insert(cells[i].key.as_str(), i);
                to_simulate.push(i);
            } else if matches!(st, CellState::Pending) {
                to_simulate.push(i);
            }
        }
    }

    // Backpressure: admit the whole job or reject the whole job.
    if !state.pool.try_reserve(to_simulate.len()) {
        state.jobs_rejected.fetch_add(1, Ordering::SeqCst);
        return writeln!(
            writer,
            "{}",
            protocol::render_rejected(
                state.pool.depth(),
                state.pool.capacity(),
                state.retry_after_ms()
            )
        );
    }

    let job = state.jobs.fetch_add(1, Ordering::SeqCst) + 1;
    let cached_count = states
        .iter()
        .filter(|s| !matches!(s, CellState::Pending))
        .count();
    state
        .cells_submitted
        .fetch_add(cells.len() as u64, Ordering::SeqCst);
    state
        .cells_deduped
        .fetch_add((cells.len() - to_simulate.len()) as u64, Ordering::SeqCst);
    let mut stream = JobStream {
        out: writer,
        err: None,
    };
    stream.line(
        &protocol::render_accepted(job, cells.len(), cached_count, to_simulate.len()),
        true,
    );

    let t0 = Instant::now();
    // Every line after `accepted` carries the job id and a strictly
    // increasing per-job sequence number, so concurrent job streams stay
    // attributable and ordering is testable.
    let mut seq: u64 = 0;
    // Cached cells: progress events immediately, with zero *new* ticks.
    for (i, st) in states.iter().enumerate() {
        if let CellState::Cached(_) = st {
            seq += 1;
            stream.line(
                &protocol::render_cell(
                    t0.elapsed().as_millis(),
                    job,
                    seq,
                    &cells[i].kernel,
                    &cells[i].config_label,
                    true,
                    0.0,
                    0,
                ),
                false,
            );
        }
    }

    // Shard the misses across the pool and stream completions as they
    // arrive (completion order is nondeterministic; result order below is
    // not).
    let (reply, outcomes) = mpsc::channel::<CellOutcome>();
    for &i in &to_simulate {
        state.pool.submit(CellTask {
            index: i,
            workload: cells[i].workload.clone(),
            cfg: cells[i].cfg.clone(),
            reply: reply.clone(),
        });
    }
    drop(reply);
    let mut new_ticks: u64 = 0;
    let mut sim_secs_sum: f64 = 0.0;
    let mut done = 0usize;
    let mut failed = 0usize;
    for outcome in outcomes.iter() {
        let i = outcome.index;
        let (ok, ticks) = match &outcome.result {
            Ok(r) => (true, r.ticks),
            Err(_) => (false, 0),
        };
        if ok {
            done += 1;
        } else {
            failed += 1;
        }
        new_ticks += ticks;
        sim_secs_sum += outcome.host_secs;
        state
            .service_ns
            .lock()
            .unwrap()
            .observe((outcome.host_secs * 1e9) as u64);
        seq += 1;
        stream.line(
            &protocol::render_cell(
                t0.elapsed().as_millis(),
                job,
                seq,
                &cells[i].kernel,
                &cells[i].config_label,
                ok,
                outcome.host_secs,
                ticks,
            ),
            true,
        );
        states[i] = CellState::Simulated(outcome.result);
    }

    // Populate the cache and the registry from the fresh results.
    {
        let mut cache = req.dedupe.then(|| state.cache.lock().unwrap());
        let mut registry = state.registry.lock().unwrap();
        for (i, st) in states.iter().enumerate() {
            if let CellState::Simulated(Ok(r)) = st {
                if let Some(cache) = cache.as_mut() {
                    cache.put(&cells[i].key, r);
                }
                registry.ingest_run(r);
            }
        }
    }
    state
        .cells_completed
        .fetch_add(done as u64, Ordering::SeqCst);
    state
        .cells_failed
        .fetch_add(failed as u64, Ordering::SeqCst);
    if stream.err.is_some() {
        return stream.finish();
    }

    // Results in deterministic submission order. In-job duplicates of a
    // just-simulated miss resolve from the cache here. A run that carried
    // explain sampling (daemon started with `DISTDA_EXPLAIN`) surfaces
    // its per-cell bottleneck verdict on the line.
    let ok_line = |job, seq, cell: &Cell, cached, r: &RunResult| {
        let bottleneck = distda_explain::top_bottleneck(&r.report);
        protocol::render_result(&protocol::ResultLine {
            job,
            seq,
            kernel: &cell.kernel,
            config: &cell.config_label,
            config_hash: &cell.cfg_hash,
            cached,
            ok: true,
            ticks: r.ticks,
            error: None,
            payload: req.payload.then(|| encode_result(r)).as_deref(),
            bottleneck: bottleneck.as_ref().map(|(n, s)| (n.as_str(), *s)),
        })
    };
    for (i, cell) in cells.iter().enumerate() {
        seq += 1;
        let line = match &states[i] {
            CellState::Cached(r) => ok_line(job, seq, cell, true, r),
            CellState::Simulated(Ok(r)) => ok_line(job, seq, cell, false, r),
            CellState::Simulated(Err(e)) => protocol::render_result(&protocol::ResultLine {
                job,
                seq,
                kernel: &cell.kernel,
                config: &cell.config_label,
                config_hash: &cell.cfg_hash,
                error: Some(e),
                ..protocol::ResultLine::default()
            }),
            CellState::Pending => {
                // A deduped duplicate of a miss: serve it from the cache
                // the first instance just populated.
                let fetched = state.cache.lock().unwrap().get(&cell.key);
                match fetched {
                    Some(r) => ok_line(job, seq, cell, true, &r),
                    None => protocol::render_result(&protocol::ResultLine {
                        job,
                        seq,
                        kernel: &cell.kernel,
                        config: &cell.config_label,
                        config_hash: &cell.cfg_hash,
                        cached: true,
                        error: Some("deduped against a cell that failed"),
                        ..protocol::ResultLine::default()
                    }),
                }
            }
        };
        stream.line(&line, false);
    }

    seq += 1;
    stream.line(
        &protocol::render_summary(
            t0.elapsed().as_millis(),
            job,
            seq,
            done,
            failed,
            new_ticks,
            sim_secs_sum,
            t0.elapsed().as_secs_f64(),
        ),
        false,
    );
    seq += 1;
    stream.line(
        &protocol::render_done(
            job,
            seq,
            cells.len(),
            cells.len() - to_simulate.len(),
            to_simulate.len(),
            failed,
        ),
        false,
    );
    stream.finish()
}
