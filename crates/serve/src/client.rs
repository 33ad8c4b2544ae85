//! A small blocking client for tests, CI smoke jobs, and scripting.
//!
//! Speaks the line-delimited JSON protocol over one TCP connection and
//! collects a sweep's streamed events into a [`Transcript`]. The
//! `/metrics` endpoint is scraped over a separate plain-HTTP connection
//! ([`fetch_metrics`]), exactly as a real scraper would.

use distda_trace::json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// One `result` line, decoded.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Kernel name.
    pub kernel: String,
    /// Config display label.
    pub config: String,
    /// The manifest config hash the cache key was derived from.
    pub config_hash: String,
    /// Whether the cell was served from the cache.
    pub cached: bool,
    /// Whether the cell simulated (or was cached) successfully.
    pub ok: bool,
    /// The run's total simulated ticks (cached cells report their stored
    /// tick count here; the `cell` *event* reports 0 new ticks for them).
    pub ticks: u64,
    /// The canonical cache encoding, when `payload` was requested.
    pub payload: Option<String>,
    /// The failure message, when `ok` is false.
    pub error: Option<String>,
    /// The explain verdict `(component, share-of-stall-ticks)`, when the
    /// daemon ran the cell with explain sampling on.
    pub bottleneck: Option<(String, f64)>,
}

/// Everything a sweep streamed back, in arrival order.
#[derive(Debug, Clone, Default)]
pub struct Transcript {
    /// Job id from the `accepted` event.
    pub job: u64,
    /// Total cells in the job.
    pub cells: usize,
    /// Cells served from the cache at admission.
    pub cached: usize,
    /// Cells queued for simulation.
    pub queued: usize,
    /// Raw `cell` progress events (JSONL lines).
    pub cell_events: Vec<String>,
    /// Decoded `result` lines, in deterministic submission order.
    pub results: Vec<CellResult>,
    /// New simulated ticks from the `summary` event.
    pub summary_ticks: u64,
    /// `done` from the `summary` event.
    pub summary_done: u64,
    /// `failed` from the `summary` event.
    pub summary_failed: u64,
    /// `cache_hits` from the `done` event.
    pub done_cache_hits: u64,
    /// `simulated` from the `done` event.
    pub done_simulated: u64,
    /// Highest `seq` the stream carried; the client has verified every
    /// streamed line arrived with a strictly increasing sequence number
    /// and the job id from `accepted`, so this equals the line count.
    pub last_seq: u64,
}

/// The terminal outcome of a sweep submission.
#[derive(Debug, Clone)]
pub enum SweepReply {
    /// The job ran; here is its full transcript.
    Done(Transcript),
    /// The queue could not take the job; retry after the hinted delay.
    Rejected {
        /// Server-suggested retry delay.
        retry_after_ms: u64,
    },
}

/// A blocking protocol client over one connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn num(v: &json::Value, key: &str) -> u64 {
    v.get(key).and_then(json::Value::as_num).unwrap_or(0.0) as u64
}

fn flag(v: &json::Value, key: &str) -> bool {
    matches!(v.get(key), Some(json::Value::Bool(true)))
}

fn text(v: &json::Value, key: &str) -> String {
    v.get(key)
        .and_then(json::Value::as_str)
        .unwrap_or_default()
        .to_string()
}

impl Client {
    /// Connects to a running daemon.
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

    /// Sends one request line as a single write: split across writes, its
    /// trailing newline would wait out the daemon's delayed ACK.
    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<(String, json::Value), String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => {
                let raw = line.trim().to_string();
                let v = json::parse(&raw).map_err(|e| format!("bad server JSON: {e}"))?;
                Ok((raw, v))
            }
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Returns a message when the server is unreachable or answers with
    /// anything but `pong`.
    pub fn ping(&mut self) -> Result<(), String> {
        self.send("{\"req\":\"ping\"}")?;
        let (_, v) = self.recv()?;
        match v.get("event").and_then(json::Value::as_str) {
            Some("pong") => Ok(()),
            _ => Err("expected pong".to_string()),
        }
    }

    /// Fetches the OpenMetrics snapshot over the JSON protocol.
    ///
    /// # Errors
    ///
    /// Returns a message on transport or protocol failure.
    pub fn metrics(&mut self) -> Result<String, String> {
        self.send("{\"req\":\"metrics\"}")?;
        let (_, v) = self.recv()?;
        match v.get("event").and_then(json::Value::as_str) {
            Some("metrics") => Ok(text(&v, "text")),
            Some("error") => Err(text(&v, "message")),
            _ => Err("expected metrics".to_string()),
        }
    }

    /// Submits a sweep and drains its stream.
    ///
    /// Empty `kernels`/`configs` select the server-side defaults (full
    /// suite / the six paper configs).
    ///
    /// # Errors
    ///
    /// Returns the server's `error` message, or a transport failure.
    pub fn sweep(
        &mut self,
        kernels: &[&str],
        configs: &[&str],
        scale: &str,
        dedupe: bool,
        payload: bool,
    ) -> Result<SweepReply, String> {
        let quote = |items: &[&str]| {
            items
                .iter()
                .map(|s| format!("\"{}\"", json::escape(s)))
                .collect::<Vec<_>>()
                .join(",")
        };
        self.send(&format!(
            "{{\"req\":\"sweep\",\"kernels\":[{}],\"configs\":[{}],\
             \"scale\":\"{}\",\"dedupe\":{dedupe},\"payload\":{payload}}}",
            quote(kernels),
            quote(configs),
            json::escape(scale),
        ))?;
        let mut t = Transcript::default();
        // Every line after `accepted` must carry the accepted job id and
        // a strictly increasing seq; a violation means the stream is
        // interleaved with another job's or the server dropped a line.
        let check_order = |t: &mut Transcript, v: &json::Value| -> Result<(), String> {
            let (job, seq) = (num(v, "job"), num(v, "seq"));
            if job != t.job {
                return Err(format!("line for job {job} inside job {}'s stream", t.job));
            }
            if seq <= t.last_seq {
                return Err(format!(
                    "seq {seq} after seq {} (not increasing)",
                    t.last_seq
                ));
            }
            t.last_seq = seq;
            Ok(())
        };
        loop {
            let (raw, v) = self.recv()?;
            match v.get("event").and_then(json::Value::as_str) {
                Some("error") => return Err(text(&v, "message")),
                Some("rejected") => {
                    return Ok(SweepReply::Rejected {
                        retry_after_ms: num(&v, "retry_after_ms"),
                    })
                }
                Some("accepted") => {
                    t.job = num(&v, "job");
                    t.cells = num(&v, "cells") as usize;
                    t.cached = num(&v, "cached") as usize;
                    t.queued = num(&v, "queued") as usize;
                }
                Some("cell") => {
                    check_order(&mut t, &v)?;
                    t.cell_events.push(raw);
                }
                Some("result") => {
                    check_order(&mut t, &v)?;
                    t.results.push(CellResult {
                        kernel: text(&v, "kernel"),
                        config: text(&v, "config"),
                        config_hash: text(&v, "config_hash"),
                        cached: flag(&v, "cached"),
                        ok: flag(&v, "ok"),
                        ticks: num(&v, "ticks"),
                        payload: v
                            .get("payload")
                            .and_then(json::Value::as_str)
                            .map(str::to_string),
                        error: v
                            .get("error")
                            .and_then(json::Value::as_str)
                            .map(str::to_string),
                        bottleneck: v.get("bottleneck").and_then(json::Value::as_str).map(|n| {
                            (
                                n.to_string(),
                                v.get("bottleneck_share")
                                    .and_then(json::Value::as_num)
                                    .unwrap_or(0.0),
                            )
                        }),
                    });
                }
                Some("summary") => {
                    check_order(&mut t, &v)?;
                    t.summary_ticks = num(&v, "ticks");
                    t.summary_done = num(&v, "done");
                    t.summary_failed = num(&v, "failed");
                }
                Some("done") => {
                    check_order(&mut t, &v)?;
                    t.done_cache_hits = num(&v, "cache_hits");
                    t.done_simulated = num(&v, "simulated");
                    return Ok(SweepReply::Done(t));
                }
                other => return Err(format!("unexpected event {other:?}")),
            }
        }
    }
}

/// Scrapes `GET /metrics` over a fresh plain-HTTP connection and returns
/// the body.
///
/// # Errors
///
/// Returns a message on transport failure or a non-200 status line.
pub fn fetch_metrics(addr: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("connect: {e}"))?;
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("recv: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| "malformed HTTP response".to_string())?;
    let status = head.lines().next().unwrap_or_default();
    if !status.contains("200") {
        return Err(format!("unexpected status: {status}"));
    }
    Ok(body.to_string())
}
