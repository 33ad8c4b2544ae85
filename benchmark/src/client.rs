//! A protocol client that times every line it receives.
//!
//! `distda_serve::Client` hides when each event arrived and writes a
//! request in several pieces, so this client sends each request with one
//! `write_all` and stamps every streamed line on arrival. It enforces the
//! same ordering rules as the stock client: every line after `accepted`
//! carries the accepted job id and a strictly increasing `seq`.

use distda_trace::json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

/// One `result` line.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Kernel display name.
    pub kernel: String,
    /// Config display label.
    pub config: String,
    /// Served from the cache.
    pub cached: bool,
    /// Simulated (or was cached) successfully.
    pub ok: bool,
    /// Total simulated ticks.
    pub ticks: u64,
    /// The canonical cache encoding, when requested.
    pub payload: Option<String>,
}

/// One `cell` progress event of a simulated (not cached) cell.
#[derive(Debug, Clone)]
pub struct CellEvent {
    /// Kernel display name.
    pub kernel: String,
    /// Config display label.
    pub config: String,
    /// Milliseconds from the daemon's job start to the cell's completion.
    pub t_ms: f64,
    /// Host seconds the worker spent simulating the cell.
    pub host_secs: f64,
}

/// A finished job with client-side timestamps.
#[derive(Debug, Clone)]
pub struct JobTrace {
    /// Just before the request's first byte was written.
    pub sent: Instant,
    /// When the `accepted` line arrived.
    pub accepted: Instant,
    /// When the `done` line arrived.
    pub done: Instant,
    /// Cells in the job.
    pub cells: u64,
    /// Cells served from the cache, per the `done` line.
    pub cache_hits: u64,
    /// Progress events of simulated cells.
    pub cell_events: Vec<CellEvent>,
    /// Results in submission order.
    pub results: Vec<CellResult>,
    /// Bytes received for the job, newlines included.
    pub bytes: usize,
}

impl JobTrace {
    /// Seconds from the first request byte to the `done` line.
    pub fn secs(&self) -> f64 {
        (self.done - self.sent).as_secs_f64()
    }

    /// The trace with its results dropped, once they have been checked.
    pub fn without_results(self) -> Self {
        Self {
            results: Vec::new(),
            ..self
        }
    }
}

/// One protocol connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn num(v: &json::Value, key: &str) -> u64 {
    v.get(key).and_then(json::Value::as_num).unwrap_or(0.0) as u64
}

fn text(v: &json::Value, key: &str) -> String {
    v.get(key)
        .and_then(json::Value::as_str)
        .unwrap_or_default()
        .to_string()
}

fn quoted(items: &[String]) -> String {
    let q: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", json::escape(s)))
        .collect();
    q.join(",")
}

impl Conn {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { reader, writer })
    }

    /// Submits a sweep of `kernels x configs` and reads its stream to the
    /// `done` line.
    ///
    /// # Errors
    ///
    /// Returns a message for a `rejected` or `error` event, an ordering
    /// violation, malformed JSON, or a transport failure.
    pub fn sweep(
        &mut self,
        kernels: &[String],
        configs: &[String],
        scale: &str,
        payload: bool,
    ) -> Result<JobTrace, String> {
        let request = format!(
            "{{\"req\":\"sweep\",\"kernels\":[{}],\"configs\":[{}],\
             \"scale\":\"{scale}\",\"dedupe\":true,\"payload\":{payload}}}\n",
            quoted(kernels),
            quoted(configs),
        );
        let sent = Instant::now();
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut t = JobTrace {
            sent,
            accepted: sent,
            done: sent,
            cells: 0,
            cache_hits: 0,
            cell_events: Vec::new(),
            results: Vec::new(),
            bytes: 0,
        };
        let (mut job, mut last_seq) = (None, 0);
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("recv: {e}"))?;
            let at = Instant::now();
            if n == 0 {
                return Err("daemon closed the connection mid-job".to_string());
            }
            t.bytes += n;
            let v = json::parse(line.trim()).map_err(|e| format!("bad daemon JSON: {e}"))?;
            let event = text(&v, "event");
            if event == "accepted" {
                job = Some(num(&v, "job"));
                t.accepted = at;
                t.cells = num(&v, "cells");
                continue;
            }
            let Some(job) = job else {
                return Err(format!("`{event}` before `accepted`: {}", line.trim()));
            };
            let seq = num(&v, "seq");
            if num(&v, "job") != job || seq <= last_seq {
                return Err(format!(
                    "order violation in job {job} after seq {last_seq}: {}",
                    line.trim()
                ));
            }
            last_seq = seq;
            match event.as_str() {
                "cell" if num(&v, "ticks") > 0 => t.cell_events.push(CellEvent {
                    kernel: text(&v, "kernel"),
                    config: text(&v, "config"),
                    t_ms: v.get("t_ms").and_then(json::Value::as_num).unwrap_or(0.0),
                    host_secs: v
                        .get("host_secs")
                        .and_then(json::Value::as_num)
                        .unwrap_or(0.0),
                }),
                "cell" | "summary" => {}
                "result" => t.results.push(CellResult {
                    kernel: text(&v, "kernel"),
                    config: text(&v, "config"),
                    cached: v.get("cached") == Some(&json::Value::Bool(true)),
                    ok: v.get("ok") == Some(&json::Value::Bool(true)),
                    ticks: num(&v, "ticks"),
                    payload: v
                        .get("payload")
                        .and_then(json::Value::as_str)
                        .map(str::to_string),
                }),
                "done" => {
                    t.done = at;
                    t.cache_hits = num(&v, "cache_hits");
                    return Ok(t);
                }
                other => return Err(format!("unexpected `{other}` event: {}", line.trim())),
            }
        }
    }
}

/// The value of an unlabelled gauge in an OpenMetrics body.
pub fn gauge(body: &str, name: &str) -> Option<f64> {
    body.lines()
        .filter_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .find_map(|v| v.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use distda_serve::{ServeConfig, Server};

    #[test]
    fn two_cell_tiny_job_streams_in_order_against_a_live_daemon() {
        let dir = crate::scratch_dir("client-test");
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue: 16,
            cache_mem: 16,
            cache_dir: Some(dir.clone()),
            cache_bytes: 0,
        })
        .expect("bind ephemeral port");
        let addr = server.local_addr().to_string();
        let mut conn = Conn::connect(&addr).expect("connect");
        let kernels = ["pch".to_string()];
        let configs = ["OoO".to_string(), "Dist-DA-F".to_string()];

        let cold = conn
            .sweep(&kernels, &configs, "tiny", true)
            .expect("cold job");
        assert_eq!(cold.cells, 2);
        assert_eq!(cold.results.len(), 2);
        assert_eq!(cold.cell_events.len(), 2, "both cells simulate");
        assert!(cold
            .results
            .iter()
            .all(|r| r.ok && !r.cached && r.ticks > 0));
        assert!(cold.sent <= cold.accepted && cold.accepted <= cold.done);

        let warm = conn
            .sweep(&kernels, &configs, "tiny", true)
            .expect("warm job");
        assert_eq!(warm.cache_hits, 2);
        assert!(warm.cell_events.is_empty());
        let payloads = |t: &JobTrace| -> Vec<Option<String>> {
            t.results.iter().map(|r| r.payload.clone()).collect()
        };
        assert_eq!(payloads(&cold), payloads(&warm));

        let err = conn.sweep(&["nope".to_string()], &configs, "tiny", false);
        assert!(err.is_err(), "an `error` event is a failure");

        let body = distda_serve::fetch_metrics(&addr).expect("scrape");
        assert_eq!(gauge(&body, "distda_serve_cache_hit_ratio"), Some(0.5));
        server.shutdown();
        std::fs::remove_dir_all(&dir).expect("remove test cache dir");
        let _ = std::fs::remove_dir(crate::tmp_root());
    }

    #[test]
    fn gauge_reads_only_the_exact_name() {
        let body = "# TYPE x gauge\nx_total 3\nx 0.25\n";
        assert_eq!(gauge(body, "x"), Some(0.25));
        assert_eq!(gauge(body, "y"), None);
    }
}
