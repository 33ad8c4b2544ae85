//! JSONL run manifests: one self-describing record per simulated run.
//!
//! A manifest line answers, months later, "what exactly produced this
//! number": the kernel and configuration label, a structural hash of the
//! full [`RunConfig`], the git revision of the
//! working tree, the UTC timestamp, the environment knobs in force
//! (thread count, skip-ahead, sanitizer, strict validation), the
//! simulated tick count, the host wall-clock and the validation verdict.
//!
//! Records append to `results/manifests/runs.jsonl` — one JSON object per
//! line, so `grep`/`jq` and `obs export` can stream them without a real
//! JSON-document parser. Parsing reuses the
//! workspace's hand-rolled [`distda_trace::json`].

use distda_system::RunConfig;
use distda_trace::json;
use std::path::{Path, PathBuf};

/// Default manifest stream, relative to the working directory.
pub const DEFAULT_MANIFEST_PATH: &str = "results/manifests/runs.jsonl";

/// One run's manifest record. See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestRecord {
    /// Kernel name.
    pub kernel: String,
    /// Configuration label.
    pub config: String,
    /// FNV-1a hash of the full `RunConfig` (structural identity).
    pub config_hash: String,
    /// Simulated base ticks.
    pub ticks: u64,
    /// Host wall-clock seconds for the run.
    pub host_secs: f64,
    /// Whether the final memory image matched the reference interpreter.
    pub validated: bool,
    /// Git revision of the working tree (`unknown` outside a checkout).
    pub git_rev: String,
    /// UTC timestamp, `YYYY-MM-DDTHH:MM:SSZ`.
    pub date_utc: String,
    /// Sweep worker count in force (0 = autodetect).
    pub threads: u64,
    /// `DISTDA_SKIP` policy at run time.
    pub skip: bool,
    /// `DISTDA_SANITIZE` policy at run time.
    pub sanitize: bool,
    /// `DISTDA_VALIDATE` policy at run time.
    pub validate: bool,
    /// Every `DISTDA_*` environment knob in force, verbatim and sorted by
    /// name. Values are arbitrary strings — addresses, paths, `key=value`
    /// lists — so they may contain `=` or whitespace; the JSON encoding
    /// preserves them exactly. Manifests written before this field was
    /// added parse with an empty list.
    pub env: Vec<(String, String)>,
    /// The explain verdict when the run carried causal attribution: the
    /// most-blamed component and its share of all engine stall ticks.
    /// `None` on runs without `DISTDA_EXPLAIN`; manifests written before
    /// this field existed parse as `None`.
    pub bottleneck: Option<(String, f64)>,
}

/// Snapshots every `DISTDA_*` environment variable, sorted by name.
pub fn capture_env() -> Vec<(String, String)> {
    let mut knobs: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("DISTDA_"))
        .collect();
    knobs.sort();
    knobs
}

/// FNV-1a hash of a [`RunConfig`]'s structural identity, rendered
/// `fnv1a:<16 hex digits>`. Stable for a given config across runs and
/// machines (it hashes the `Debug` rendering, which is pure data).
pub fn config_hash(cfg: &RunConfig) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{cfg:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv1a:{h:016x}")
}

/// The git revision of the repository containing `start` (or any
/// ancestor directory), read straight from `.git/HEAD` without spawning a
/// process. Returns `"unknown"` outside a checkout.
pub fn git_rev_from(start: &Path) -> String {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let head = d.join(".git/HEAD");
        if let Ok(contents) = std::fs::read_to_string(&head) {
            let contents = contents.trim();
            if let Some(reference) = contents.strip_prefix("ref: ") {
                if let Ok(rev) = std::fs::read_to_string(d.join(".git").join(reference)) {
                    return rev.trim().to_string();
                }
                // Packed refs: scan .git/packed-refs for the ref name.
                if let Ok(packed) = std::fs::read_to_string(d.join(".git/packed-refs")) {
                    for line in packed.lines() {
                        if let Some((rev, name)) = line.split_once(' ') {
                            if name.trim() == reference {
                                return rev.trim().to_string();
                            }
                        }
                    }
                }
                return "unknown".to_string();
            }
            return contents.to_string(); // detached HEAD: the rev itself
        }
        dir = d.parent();
    }
    "unknown".to_string()
}

/// [`git_rev_from`] starting at the current working directory.
pub fn git_rev() -> String {
    std::env::current_dir()
        .map(|d| git_rev_from(&d))
        .unwrap_or_else(|_| "unknown".to_string())
}

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`, derived from
/// `SystemTime` with the standard civil-from-days algorithm (no external
/// time crate).
pub fn utc_now_string() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let tod = secs % 86_400;
    // Howard Hinnant's civil_from_days, days since 1970-01-01.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        tod / 3600,
        (tod / 60) % 60,
        tod % 60
    )
}

impl ManifestRecord {
    /// Builds a record for one finished run, capturing the current git
    /// revision, UTC time and `DISTDA_*` environment policies.
    pub fn capture(
        kernel: &str,
        config: &str,
        cfg_hash: String,
        ticks: u64,
        host_secs: f64,
        validated: bool,
    ) -> Self {
        Self {
            kernel: kernel.to_string(),
            config: config.to_string(),
            config_hash: cfg_hash,
            ticks,
            host_secs,
            validated,
            git_rev: git_rev(),
            date_utc: utc_now_string(),
            threads: distda_sim::env::threads().unwrap_or(0) as u64,
            skip: distda_sim::env::skip(),
            sanitize: distda_sim::env::sanitize(),
            validate: distda_sim::env::validate(),
            env: capture_env(),
            bottleneck: None,
        }
    }

    /// Attaches the explain verdict from a run report's `explain.*` keys
    /// (no-op when the run carried no attribution).
    #[must_use]
    pub fn with_bottleneck(mut self, report: &distda_sim::Report) -> Self {
        self.bottleneck = distda_explain::top_bottleneck(report);
        self
    }

    /// Renders the record as one JSON line (no trailing newline).
    pub fn render_jsonl(&self) -> String {
        let env = self
            .env
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", json::escape(k), json::escape(v)))
            .collect::<Vec<_>>()
            .join(",");
        let verdict = match &self.bottleneck {
            Some((who, share)) => format!(
                ",\"bottleneck\":\"{}\",\"bottleneck_share\":{share}",
                json::escape(who)
            ),
            None => String::new(),
        };
        format!(
            concat!(
                "{{\"kernel\":\"{}\",\"config\":\"{}\",\"config_hash\":\"{}\",",
                "\"ticks\":{},\"host_secs\":{},\"validated\":{},",
                "\"git_rev\":\"{}\",\"date_utc\":\"{}\",\"threads\":{},",
                "\"skip\":{},\"sanitize\":{},\"validate\":{},\"env\":{{{}}}{}}}"
            ),
            json::escape(&self.kernel),
            json::escape(&self.config),
            json::escape(&self.config_hash),
            self.ticks,
            self.host_secs,
            self.validated,
            json::escape(&self.git_rev),
            json::escape(&self.date_utc),
            self.threads,
            self.skip,
            self.sanitize,
            self.validate,
            env,
            verdict,
        )
    }

    /// Parses one JSON line produced by [`ManifestRecord::render_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn parse_jsonl(line: &str) -> Result<Self, String> {
        let v = json::parse(line).map_err(|e| format!("manifest line: {e:?}"))?;
        let s = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(json::Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("manifest line missing string field `{key}`"))
        };
        let n = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(json::Value::as_num)
                .ok_or_else(|| format!("manifest line missing numeric field `{key}`"))
        };
        let b = |key: &str| -> Result<bool, String> {
            match v.get(key) {
                Some(json::Value::Bool(x)) => Ok(*x),
                _ => Err(format!("manifest line missing bool field `{key}`")),
            }
        };
        // Absent in manifests written before the knob snapshot existed.
        let env = match v.get("env") {
            None => Vec::new(),
            Some(json::Value::Obj(o)) => o
                .iter()
                .map(|(k, val)| {
                    val.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| format!("manifest `env.{k}` must be a string"))
                })
                .collect::<Result<Vec<_>, String>>()?,
            Some(_) => return Err("manifest `env` must be an object".to_string()),
        };
        // Absent before explain verdicts existed, and on runs without one.
        let bottleneck = match v.get("bottleneck") {
            None => None,
            Some(who) => {
                let who = who
                    .as_str()
                    .ok_or("manifest `bottleneck` must be a string")?;
                let share = v
                    .get("bottleneck_share")
                    .and_then(json::Value::as_num)
                    .ok_or("manifest `bottleneck` requires numeric `bottleneck_share`")?;
                Some((who.to_string(), share))
            }
        };
        Ok(Self {
            kernel: s("kernel")?,
            config: s("config")?,
            config_hash: s("config_hash")?,
            ticks: n("ticks")? as u64,
            host_secs: n("host_secs")?,
            validated: b("validated")?,
            git_rev: s("git_rev")?,
            date_utc: s("date_utc")?,
            threads: n("threads")? as u64,
            skip: b("skip")?,
            sanitize: b("sanitize")?,
            validate: b("validate")?,
            env,
            bottleneck,
        })
    }

    /// Appends this record to the JSONL stream at `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn append_to(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{}", self.render_jsonl())
    }

    /// [`ManifestRecord::append_to`] at [`DEFAULT_MANIFEST_PATH`].
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn append(&self) -> std::io::Result<()> {
        self.append_to(&PathBuf::from(DEFAULT_MANIFEST_PATH))
    }
}

/// Parses a whole JSONL manifest stream, skipping blank lines.
///
/// # Errors
///
/// Returns the first malformed line's error, 1-indexed.
pub fn parse_manifests(stream: &str) -> Result<Vec<ManifestRecord>, String> {
    stream
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| ManifestRecord::parse_jsonl(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use distda_system::{ConfigKind, RunConfig};

    #[test]
    fn config_hash_is_structural() {
        let a = RunConfig::named(ConfigKind::DistDAF);
        let b = RunConfig::named(ConfigKind::DistDAF);
        let c = RunConfig::named(ConfigKind::OoO);
        assert_eq!(config_hash(&a), config_hash(&b));
        assert_ne!(config_hash(&a), config_hash(&c));
        assert!(config_hash(&a).starts_with("fnv1a:"));
    }

    #[test]
    fn jsonl_round_trips() {
        let rec = ManifestRecord {
            kernel: "pf".to_string(),
            config: "Dist-DA-F \"quoted\"".to_string(),
            config_hash: "fnv1a:0123456789abcdef".to_string(),
            ticks: 123_456_789,
            host_secs: 1.25,
            validated: true,
            git_rev: "deadbeef".to_string(),
            date_utc: "2026-08-07T00:00:00Z".to_string(),
            threads: 8,
            skip: true,
            sanitize: false,
            validate: true,
            env: Vec::new(),
            bottleneck: Some(("engine.3".to_string(), 0.625)),
        };
        let line = rec.render_jsonl();
        assert!(!line.contains('\n'));
        assert_eq!(ManifestRecord::parse_jsonl(&line).unwrap(), rec);
        // Runs without attribution omit the verdict fields entirely.
        let plain = ManifestRecord {
            bottleneck: None,
            ..rec
        };
        let line = plain.render_jsonl();
        assert!(!line.contains("bottleneck"));
        assert_eq!(ManifestRecord::parse_jsonl(&line).unwrap(), plain);
    }

    #[test]
    fn env_knobs_with_equals_and_whitespace_round_trip() {
        let mut rec = ManifestRecord::capture("pf", "OoO", "fnv1a:0".to_string(), 10, 0.5, true);
        rec.env = vec![
            (
                "DISTDA_SERVE_ADDR".to_string(),
                "127.0.0.1:7077".to_string(),
            ),
            (
                "DISTDA_SERVE_CACHE_DIR".to_string(),
                "/tmp/my cache dir/results".to_string(),
            ),
            (
                "DISTDA_SWEEP_OVERRIDES".to_string(),
                "buffer_lines=8 issue_width=2\talloc=first-touch".to_string(),
            ),
        ];
        let line = rec.render_jsonl();
        assert!(!line.contains('\n'));
        let back = ManifestRecord::parse_jsonl(&line).unwrap();
        assert_eq!(back, rec, "`=`/whitespace values must survive verbatim");
    }

    #[test]
    fn manifests_without_env_field_still_parse() {
        // The exact shape this module wrote before the knob snapshot.
        let legacy = concat!(
            "{\"kernel\":\"pf\",\"config\":\"OoO\",\"config_hash\":\"fnv1a:0\",",
            "\"ticks\":10,\"host_secs\":0.5,\"validated\":true,",
            "\"git_rev\":\"deadbeef\",\"date_utc\":\"2026-08-07T00:00:00Z\",",
            "\"threads\":8,\"skip\":false,\"sanitize\":false,\"validate\":true}"
        );
        let rec = ManifestRecord::parse_jsonl(legacy).unwrap();
        assert!(rec.env.is_empty());
        assert_eq!(rec.kernel, "pf");
        // A mistyped snapshot is an error, not a silent drop.
        let bad = legacy.replace("\"validate\":true}", "\"validate\":true,\"env\":[1]}");
        assert!(ManifestRecord::parse_jsonl(&bad).is_err());
    }

    #[test]
    fn stream_parses_and_reports_bad_lines() {
        let rec = ManifestRecord::capture("pf", "OoO", "fnv1a:0".to_string(), 10, 0.5, true);
        let stream = format!("{}\n\n{}\n", rec.render_jsonl(), rec.render_jsonl());
        assert_eq!(parse_manifests(&stream).unwrap().len(), 2);
        let bad = "{\"kernel\":\"pf\"}";
        let err = parse_manifests(bad).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn git_rev_resolves_in_this_repo() {
        let rev = git_rev();
        assert!(rev == "unknown" || rev.len() >= 7, "{rev}");
    }

    #[test]
    fn utc_timestamp_shape() {
        let t = utc_now_string();
        assert_eq!(t.len(), 20, "{t}");
        assert!(t.ends_with('Z') && t.contains('T'));
        assert!(t.starts_with("20"), "{t}");
    }
}
