//! The line-delimited JSON wire protocol.
//!
//! One JSON object per `\n`-terminated line in both directions, parsed
//! with the workspace's hand-rolled [`distda_trace::json`] (no serde; the
//! repo carries no external dependencies). Grammar:
//!
//! ```text
//! request  = ping | sweep | metrics
//! ping     = {"req":"ping"}
//! metrics  = {"req":"metrics"}
//! sweep    = {"req":"sweep",
//!             "kernels":[string...],   ; default: full 12-kernel suite
//!             "configs":[string...],   ; default: the six paper configs
//!             "scale":"tiny"|"eval",   ; default "tiny"
//!             "dedupe":bool,           ; default true
//!             "payload":bool}          ; default true
//!
//! response = pong | metrics | error | rejected
//!          | accepted cell* result* summary done   ; one sweep stream
//! ```
//!
//! `cell` events use the exact `DISTDA_PROGRESS` JSONL shape from the obs
//! crate (`{"t_ms":..,"job":..,"seq":..,"event":"cell","kernel":..,
//! "config":..,"ok":..,"host_secs":..,"ticks":..}`), so existing progress
//! consumers can tail a job stream unchanged; `ticks`/`host_secs` count
//! *new* simulation only — a cache hit reports 0 ticks. `result` lines
//! carry the canonical cache encoding of each cell (see [`crate::cache`]),
//! emitted in deterministic kernel-major submission order regardless of
//! worker completion order.
//!
//! Every line streamed after `accepted` — `cell`, `result`, `summary`,
//! `done` — carries the job id and a per-job monotonic `seq` starting at
//! 1, so interleaved streams from concurrent jobs are attributable to
//! their job and gaps or reordering are detectable ([`crate::client`]
//! rejects a stream whose `seq` is not strictly increasing). When the
//! daemon runs with `DISTDA_EXPLAIN` set, `result` lines additionally
//! carry the per-cell bottleneck verdict (`"bottleneck"` component name
//! and `"bottleneck_share"` of stall ticks) from the explain layer.
//!
//! Config labels follow [`RunConfig::from_label`](distda_system::RunConfig::from_label)'s grammar, the one `run`
//! and `validate` accept: a bare kind (`"Dist-DA-F"`, matching
//! case-insensitively), a full display label (`"Dist-DA-F@1GHz"`,
//! `"Dist-DA-IO+SW@2GHz"`), optionally extended with `:`-separated
//! topology segments (`"Dist-DA-IO:4x4:fm150:t2"` — mesh shape, bank
//! count, far-memory pool, tenant count); every resolved config passes
//! [`RunConfig::validate`](distda_system::RunConfig::validate) before the job is accepted.

use distda_trace::json;

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// OpenMetrics snapshot over the JSON protocol.
    Metrics,
    /// A sweep submission.
    Sweep(SweepRequest),
}

/// The `sweep` request body.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// Kernel names (empty = full suite).
    pub kernels: Vec<String>,
    /// Config labels (empty = the six paper configs).
    pub configs: Vec<String>,
    /// Input scale: `"tiny"` or `"eval"`.
    pub scale: String,
    /// Whether to consult/populate the result cache.
    pub dedupe: bool,
    /// Whether `result` lines carry the canonical payload.
    pub payload: bool,
}

fn strings(v: &json::Value, key: &str) -> Result<Vec<String>, String> {
    match v.get(key) {
        None => Ok(Vec::new()),
        Some(json::Value::Arr(items)) => items
            .iter()
            .map(|it| {
                it.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("`{key}` must be an array of strings"))
            })
            .collect(),
        Some(_) => Err(format!("`{key}` must be an array of strings")),
    }
}

fn boolean(v: &json::Value, key: &str, default: bool) -> Result<bool, String> {
    match v.get(key) {
        None => Ok(default),
        Some(json::Value::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("`{key}` must be a boolean")),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a message suitable for an `error` response: malformed JSON, a
/// missing/unknown `req`, or a mistyped field.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line).map_err(|e| format!("bad request JSON: {e}"))?;
    let req = v
        .get("req")
        .and_then(json::Value::as_str)
        .ok_or_else(|| "request missing string field `req`".to_string())?;
    match req {
        "ping" => Ok(Request::Ping),
        "metrics" => Ok(Request::Metrics),
        "sweep" => {
            let scale = match v.get("scale") {
                None => "tiny".to_string(),
                Some(s) => {
                    let s = s
                        .as_str()
                        .ok_or_else(|| "`scale` must be a string".to_string())?;
                    match s {
                        "tiny" | "eval" => s.to_string(),
                        other => return Err(format!("unknown scale `{other}` (tiny|eval)")),
                    }
                }
            };
            Ok(Request::Sweep(SweepRequest {
                kernels: strings(&v, "kernels")?,
                configs: strings(&v, "configs")?,
                scale,
                dedupe: boolean(&v, "dedupe", true)?,
                payload: boolean(&v, "payload", true)?,
            }))
        }
        other => Err(format!("unknown request `{other}`")),
    }
}

/// `{"event":"pong"}`
pub fn render_pong() -> String {
    "{\"event\":\"pong\"}".to_string()
}

/// `{"event":"error","message":...}`
pub fn render_error(message: &str) -> String {
    format!(
        "{{\"event\":\"error\",\"message\":\"{}\"}}",
        json::escape(message)
    )
}

/// `{"event":"rejected",...}` — the backpressure response.
pub fn render_rejected(queued: usize, capacity: usize, retry_after_ms: u64) -> String {
    format!(
        "{{\"event\":\"rejected\",\"reason\":\"queue full\",\"queued\":{queued},\
         \"capacity\":{capacity},\"retry_after_ms\":{retry_after_ms}}}"
    )
}

/// `{"event":"accepted",...}` — job admission.
pub fn render_accepted(job: u64, cells: usize, cached: usize, queued: usize) -> String {
    format!(
        "{{\"event\":\"accepted\",\"job\":{job},\"cells\":{cells},\
         \"cached\":{cached},\"queued\":{queued}}}"
    )
}

/// One `cell` progress event in the `DISTDA_PROGRESS` JSONL shape.
#[allow(clippy::too_many_arguments)]
pub fn render_cell(
    t_ms: u128,
    job: u64,
    seq: u64,
    kernel: &str,
    config: &str,
    ok: bool,
    host_secs: f64,
    ticks: u64,
) -> String {
    format!(
        "{{\"t_ms\":{t_ms},\"job\":{job},\"seq\":{seq},\"event\":\"cell\",\
         \"kernel\":\"{}\",\"config\":\"{}\",\
         \"ok\":{ok},\"host_secs\":{host_secs},\"ticks\":{ticks}}}",
        json::escape(kernel),
        json::escape(config),
    )
}

/// One `result` line, assembled field-by-field by [`render_result`].
#[derive(Debug, Clone, Default)]
pub struct ResultLine<'a> {
    /// Job id from the `accepted` event.
    pub job: u64,
    /// Per-job monotonic sequence number.
    pub seq: u64,
    /// Kernel display name.
    pub kernel: &'a str,
    /// Config display label.
    pub config: &'a str,
    /// The manifest config hash the cache key was derived from.
    pub config_hash: &'a str,
    /// Whether the cell was served from the cache.
    pub cached: bool,
    /// Whether the cell simulated (or was cached) successfully.
    pub ok: bool,
    /// Total simulated ticks the cell's stored run reports.
    pub ticks: u64,
    /// The failure message, when `ok` is false.
    pub error: Option<&'a str>,
    /// The canonical cache encoding, when the client asked for payloads.
    pub payload: Option<&'a str>,
    /// The explain verdict `(component, share-of-stall-ticks)`, present
    /// only when the cell ran with explain sampling on.
    pub bottleneck: Option<(&'a str, f64)>,
}

/// One `result` line: the cell's identity, provenance, verdict and
/// (optionally) its canonical payload.
pub fn render_result(r: &ResultLine) -> String {
    let mut out = format!(
        "{{\"event\":\"result\",\"job\":{},\"seq\":{},\"kernel\":\"{}\",\"config\":\"{}\",\
         \"config_hash\":\"{}\",\"cached\":{},\"ok\":{},\"ticks\":{}",
        r.job,
        r.seq,
        json::escape(r.kernel),
        json::escape(r.config),
        json::escape(r.config_hash),
        r.cached,
        r.ok,
        r.ticks,
    );
    if let Some(e) = r.error {
        out.push_str(&format!(",\"error\":\"{}\"", json::escape(e)));
    }
    if let Some((node, share)) = r.bottleneck {
        out.push_str(&format!(
            ",\"bottleneck\":\"{}\",\"bottleneck_share\":{share}",
            json::escape(node)
        ));
    }
    if let Some(p) = r.payload {
        out.push_str(&format!(",\"payload\":\"{}\"", json::escape(p)));
    }
    out.push('}');
    out
}

/// The `summary` event, mirroring the `DISTDA_PROGRESS` summary shape
/// (`ticks`/`sim_secs_sum` count new simulation only).
#[allow(clippy::too_many_arguments)]
pub fn render_summary(
    t_ms: u128,
    job: u64,
    seq: u64,
    done: usize,
    failed: usize,
    ticks: u64,
    sim_secs_sum: f64,
    elapsed_secs: f64,
) -> String {
    format!(
        "{{\"t_ms\":{t_ms},\"job\":{job},\"seq\":{seq},\"event\":\"summary\",\
         \"done\":{done},\"failed\":{failed},\
         \"ticks\":{ticks},\"sim_secs_sum\":{sim_secs_sum},\"elapsed_secs\":{elapsed_secs}}}"
    )
}

/// The final `done` event with the job's dedupe accounting.
pub fn render_done(
    job: u64,
    seq: u64,
    cells: usize,
    cache_hits: usize,
    simulated: usize,
    failed: usize,
) -> String {
    format!(
        "{{\"event\":\"done\",\"job\":{job},\"seq\":{seq},\"cells\":{cells},\
         \"cache_hits\":{cache_hits},\"simulated\":{simulated},\"failed\":{failed}}}"
    )
}

/// `{"event":"metrics","text":...}` — the OpenMetrics snapshot inline.
pub fn render_metrics(text: &str) -> String {
    format!(
        "{{\"event\":\"metrics\",\"text\":\"{}\"}}",
        json::escape(text)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_ping_and_metrics() {
        assert_eq!(parse_request("{\"req\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(
            parse_request("{\"req\":\"metrics\"}").unwrap(),
            Request::Metrics
        );
        assert!(parse_request("{\"req\":\"nope\"}").is_err());
        assert!(parse_request("{}").is_err());
        assert!(parse_request("garbage").is_err());
    }

    #[test]
    fn sweep_defaults_and_fields() {
        let r = parse_request("{\"req\":\"sweep\"}").unwrap();
        let Request::Sweep(s) = r else { panic!() };
        assert!(s.kernels.is_empty() && s.configs.is_empty());
        assert_eq!(s.scale, "tiny");
        assert!(s.dedupe && s.payload);

        let r = parse_request(
            "{\"req\":\"sweep\",\"kernels\":[\"nw\"],\"configs\":[\"OoO\"],\
             \"scale\":\"eval\",\"dedupe\":false,\"payload\":false}",
        )
        .unwrap();
        let Request::Sweep(s) = r else { panic!() };
        assert_eq!(s.kernels, vec!["nw"]);
        assert_eq!(s.configs, vec!["OoO"]);
        assert_eq!(s.scale, "eval");
        assert!(!s.dedupe && !s.payload);

        assert!(parse_request("{\"req\":\"sweep\",\"scale\":\"huge\"}").is_err());
        assert!(parse_request("{\"req\":\"sweep\",\"kernels\":[1]}").is_err());
        assert!(parse_request("{\"req\":\"sweep\",\"dedupe\":\"yes\"}").is_err());
    }

    #[test]
    fn renders_are_parseable_json() {
        use distda_trace::json;
        for line in [
            render_pong(),
            render_error("boom \"quoted\""),
            render_rejected(9, 8, 250),
            render_accepted(1, 4, 2, 2),
            render_cell(12, 1, 1, "nw", "OoO", true, 0.5, 100),
            render_result(&ResultLine {
                job: 1,
                seq: 2,
                kernel: "nw",
                config: "OoO",
                config_hash: "fnv1a:00",
                cached: true,
                ok: true,
                ticks: 100,
                payload: Some("p\nq"),
                ..ResultLine::default()
            }),
            render_result(&ResultLine {
                job: 1,
                seq: 3,
                kernel: "nw",
                config: "OoO",
                config_hash: "fnv1a:00",
                error: Some("deadlock"),
                ..ResultLine::default()
            }),
            render_result(&ResultLine {
                job: 1,
                seq: 4,
                kernel: "nw",
                config: "OoO",
                config_hash: "fnv1a:00",
                ok: true,
                ticks: 7,
                bottleneck: Some(("engine.3", 0.625)),
                ..ResultLine::default()
            }),
            render_summary(99, 1, 5, 3, 1, 1000, 0.7, 0.8),
            render_done(1, 6, 4, 2, 2, 0),
            render_metrics("# TYPE x counter\nx_total 1\n# EOF\n"),
        ] {
            let v = json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert!(v.get("event").is_some(), "{line}");
        }
    }

    #[test]
    fn streamed_lines_carry_job_and_seq() {
        use distda_trace::json;
        let lines = [
            render_cell(12, 7, 1, "nw", "OoO", true, 0.5, 100),
            render_result(&ResultLine {
                job: 7,
                seq: 2,
                kernel: "nw",
                config: "OoO",
                config_hash: "fnv1a:00",
                ok: true,
                ticks: 100,
                ..ResultLine::default()
            }),
            render_summary(99, 7, 3, 1, 0, 100, 0.7, 0.8),
            render_done(7, 4, 1, 0, 1, 0),
        ];
        for (i, line) in lines.iter().enumerate() {
            let v = json::parse(line).unwrap();
            assert_eq!(v.get("job").and_then(json::Value::as_num), Some(7.0));
            assert_eq!(
                v.get("seq").and_then(json::Value::as_num),
                Some((i + 1) as f64),
                "{line}"
            );
        }
    }

    #[test]
    fn result_payload_round_trips_through_escaping() {
        use distda_trace::json;
        let payload = "kernel nw\nconfig OoO \"x\"\nticks 5\n";
        let line = render_result(&ResultLine {
            kernel: "nw",
            config: "OoO",
            config_hash: "fnv1a:00",
            ok: true,
            ticks: 5,
            payload: Some(payload),
            bottleneck: Some(("mem", 0.5)),
            ..ResultLine::default()
        });
        let v = json::parse(&line).unwrap();
        assert_eq!(
            v.get("payload").and_then(json::Value::as_str),
            Some(payload)
        );
        assert_eq!(
            v.get("bottleneck").and_then(json::Value::as_str),
            Some("mem")
        );
        assert_eq!(
            v.get("bottleneck_share").and_then(json::Value::as_num),
            Some(0.5)
        );
    }
}
