//! The performance record and its gate.
//!
//! A *run* is the standard output of the repository benchmark (the
//! command in `BENCHMARK.json`, normally with `--trace 1`): a
//! `# distda benchmark: rev … nproc … seed … trace …` header and, last, a
//! result line `{"correct", "attempted", "failed", "metrics"}`.
//! [`Record::from_runs`] folds N correct runs of one rev, seed and trace
//! flag into a [`Record`] (`BENCH_simspeed.json`): per metric as printed,
//! the median, q1 and q3, the unit, and `better` from `BENCHMARK.json`;
//! plus the `host` (hostname and `nproc`) they ran on.
//!
//! [`gate`] compares two records metric by metric. Modelled quantities
//! (unit `count` or `bytes`, bar `serve.bytes_per_job`) must match exactly on any
//! host. Every other metric fails when the current median is worse than
//! the baseline median by more than the sum of the two IQRs, and is
//! skipped when the hosts differ. Such a verdict holds only between records
//! whose runs alternated on one host: back-to-back records drift apart. A
//! baseline metric missing from the current record fails; bad input and a
//! seed or trace mismatch are [`RecordError`]s, never verdicts.

use distda_trace::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt;

/// Why runs or records could not be read, recorded or compared; each
/// variant carries the rendered reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// A run, record or `BENCHMARK.json` that does not parse or lacks a field.
    Malformed(String),
    /// A run that is not `"correct": true` with `failed` 0.
    FailedRun(String),
    /// Runs or records that differ in rev, nproc, seed, trace or metrics.
    Mismatch(String),
    /// A metric name that `BENCHMARK.json` does not list.
    UnknownMetric(String),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (Self::Malformed(m) | Self::FailedRun(m) | Self::Mismatch(m) | Self::UnknownMetric(m)) =
            self;
        f.write_str(m)
    }
}

impl std::error::Error for RecordError {}

impl From<RecordError> for String {
    fn from(e: RecordError) -> Self {
        e.to_string()
    }
}

/// `v[key]` read by `as_` (e.g. [`Value::as_num`]), or an error citing
/// `what`.
fn field<'a, T>(
    what: &str,
    v: &'a Value,
    key: &str,
    as_: fn(&'a Value) -> Option<T>,
) -> Result<T, RecordError> {
    let bad = || RecordError::Malformed(format!("{what}: no valid `{key}`"));
    v.get(key).and_then(as_).ok_or_else(bad)
}

type Header = BTreeMap<String, String>;
/// Value and unit by metric name, as printed.
type Values = BTreeMap<String, (f64, String)>;

/// Reads one run's header and result line, refusing an incorrect run.
fn parse_run(name: &str, stdout: &str) -> Result<(Header, Values), RecordError> {
    let bad = |why: String| RecordError::Malformed(format!("{name}: {why}"));
    let header = stdout
        .lines()
        .find_map(|l| l.strip_prefix("# distda benchmark:"))
        .ok_or_else(|| bad("no `# distda benchmark:` header".into()))?;
    let words: Vec<&str> = header.split_whitespace().collect();
    let header = words
        .chunks_exact(2)
        .map(|kv| (kv[0].to_string(), kv[1].to_string()))
        .collect();
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let result = json::parse(last.unwrap_or("")).unwrap_or(Value::Null);
    let metrics = (result.get("metrics").and_then(Value::as_obj))
        .ok_or_else(|| bad("no result line".into()))?;
    let failed = result.get("failed").and_then(Value::as_num).unwrap_or(0.0);
    if result.get("correct") != Some(&Value::Bool(true)) || failed > 0.0 {
        return Err(RecordError::FailedRun(format!(
            "{name}: refused, the run is not correct ({failed} failed operations)"
        )));
    }
    let mut values = BTreeMap::new();
    for (metric, m) in metrics {
        let unit = field(name, m, "unit", Value::as_str)?.to_string();
        let value = field(name, m, "value", Value::as_num)?;
        values.insert(metric.clone(), (value, unit));
    }
    Ok((header, values))
}

/// `better` by metric name, over `BENCHMARK.json`'s `end_to_end` and
/// `per_layer` lists.
fn better_by_name(benchmark_json: &str) -> Result<BTreeMap<String, String>, RecordError> {
    let what = "BENCHMARK.json";
    let v =
        json::parse(benchmark_json).map_err(|e| RecordError::Malformed(format!("{what}: {e}")))?;
    let mut out = BTreeMap::new();
    for list in ["end_to_end", "per_layer"] {
        for m in field(what, &v, list, Value::as_arr)? {
            let better = field(what, m, "better", Value::as_str)?.to_string();
            out.insert(field(what, m, "name", Value::as_str)?.to_string(), better);
        }
    }
    Ok(out)
}

/// The `q`-quantile of `xs`, interpolating linearly between closest ranks
/// (the benchmark's own rule). 0.0 for an empty sample.
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One metric across a record's runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Stat {
    /// Median of the runs' values.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Unit, as printed by the benchmark.
    pub unit: String,
    /// `lower` or `higher`, from `BENCHMARK.json`.
    pub better: String,
}

/// A performance record: N runs of one revision on one host, summarised
/// per metric. See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Hostname and `nproc` of the machine the runs were made on.
    pub host: String,
    /// Benchmarked revision, as the run header prints it.
    pub rev: String,
    /// Workload seed, as the run header prints it.
    pub seed: String,
    /// The run header's trace flag.
    pub trace: String,
    /// Number of runs summarised.
    pub runs: usize,
    /// Statistics by metric name, as printed.
    pub metrics: BTreeMap<String, Stat>,
}

impl Record {
    /// Summarises `runs`, each a (name, standard output) pair made on the
    /// machine named `hostname`, against `benchmark_json` (the text of
    /// `BENCHMARK.json`). Names are cited in errors.
    ///
    /// # Errors
    ///
    /// [`RecordError::FailedRun`] for an incorrect run,
    /// [`RecordError::Mismatch`] when the runs differ in rev, nproc, seed,
    /// trace flag or metric set, [`RecordError::UnknownMetric`] for a
    /// name `BENCHMARK.json` does not list, and [`RecordError::Malformed`]
    /// for an unreadable input or an empty run list.
    pub fn from_runs(
        runs: &[(String, String)],
        benchmark_json: &str,
        hostname: &str,
    ) -> Result<Self, RecordError> {
        let parsed = runs
            .iter()
            .map(|(name, stdout)| parse_run(name, stdout))
            .collect::<Result<Vec<_>, _>>()?;
        let (Some((name0, _)), Some((header, first))) = (runs.first(), parsed.first()) else {
            return Err(RecordError::Malformed("no runs to record".into()));
        };
        for ((name, _), (h, values)) in runs.iter().zip(&parsed) {
            let mut keys = ["rev", "nproc", "seed", "trace"].into_iter();
            let differing = keys.find(|k| h.get(*k) != header.get(*k));
            if let Some(key) = differing.or(values.keys().ne(first.keys()).then_some("metrics")) {
                return Err(RecordError::Mismatch(format!(
                    "{name0} and {name} differ in {key}"
                )));
            }
        }
        let better = better_by_name(benchmark_json)?;
        let mut metrics = BTreeMap::new();
        for (name, (_, unit)) in first {
            let listed = name.split_once('/').map_or(name.as_str(), |(_, m)| m);
            let better = better.get(listed).ok_or_else(|| {
                RecordError::UnknownMetric(format!("metric {name} is not in BENCHMARK.json"))
            })?;
            let xs: Vec<f64> = parsed.iter().map(|(_, v)| v[name].0).collect();
            let stat = Stat {
                median: quantile(&xs, 0.5),
                q1: quantile(&xs, 0.25),
                q3: quantile(&xs, 0.75),
                unit: unit.clone(),
                better: better.clone(),
            };
            metrics.insert(name.clone(), stat);
        }
        let no = |key| RecordError::Malformed(format!("{name0}: header has no `{key}`"));
        let field = |key| header.get(key).cloned().ok_or_else(|| no(key));
        Ok(Self {
            host: format!("{hostname} nproc {}", field("nproc")?),
            rev: field("rev")?,
            seed: field("seed")?,
            trace: field("trace")?,
            runs: runs.len(),
            metrics,
        })
    }

    /// Renders the record as the JSON document [`Record::parse`] reads.
    pub fn render(&self) -> String {
        let s = |v: &str| format!("\"{}\"", json::escape(v));
        let metrics: Vec<String> = (self.metrics.iter())
            .map(|(name, m)| {
                let (name, unit, better) = (s(name), s(&m.unit), s(&m.better));
                let (median, q1, q3) = (m.median, m.q1, m.q3);
                format!("    {name}: {{\"median\": {median}, \"q1\": {q1}, \"q3\": {q3}, \"unit\": {unit}, \"better\": {better}}}")
            })
            .collect();
        let (host, rev, seed, trace) = (s(&self.host), s(&self.rev), s(&self.seed), s(&self.trace));
        let (runs, metrics) = (self.runs, metrics.join(",\n"));
        format!(
            "{{\n  \"host\": {host},\n  \"rev\": {rev},\n  \"seed\": {seed},\n  \"trace\": {trace},\n  \"runs\": {runs},\n  \"metrics\": {{\n{metrics}\n  }}\n}}\n"
        )
    }

    /// Reads a record written by [`Record::render`]; `what` is cited in
    /// errors.
    ///
    /// # Errors
    ///
    /// [`RecordError::Malformed`] when the text does not parse or lacks a
    /// field.
    pub fn parse(what: &str, text: &str) -> Result<Self, RecordError> {
        let v = json::parse(text).map_err(|e| RecordError::Malformed(format!("{what}: {e}")))?;
        let s = |v: &Value, k: &str| field(what, v, k, Value::as_str).map(String::from);
        let n = |v: &Value, k: &str| field(what, v, k, Value::as_num);
        let mut metrics = BTreeMap::new();
        for (name, m) in field(what, &v, "metrics", Value::as_obj)? {
            let stat = Stat {
                median: n(m, "median")?,
                q1: n(m, "q1")?,
                q3: n(m, "q3")?,
                unit: s(m, "unit")?,
                better: s(m, "better")?,
            };
            metrics.insert(name.clone(), stat);
        }
        Ok(Self {
            host: s(&v, "host")?,
            rev: s(&v, "rev")?,
            seed: s(&v, "seed")?,
            trace: s(&v, "trace")?,
            runs: n(&v, "runs")? as usize,
            metrics,
        })
    }
}

/// One gate line's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within its rule.
    Pass,
    /// A regression.
    Fail,
    /// Not compared; the detail says why.
    Skip,
}

/// One metric's gate line.
#[derive(Debug, Clone)]
pub struct Check {
    /// Metric name, `<workload>/<metric>` for a multi-workload record.
    pub metric: String,
    /// Human-readable comparison.
    pub detail: String,
    /// The outcome.
    pub verdict: Verdict,
}

/// The gate's verdict: one line per baseline metric.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Individual checks, in metric-name order.
    pub checks: Vec<Check>,
    /// Whether both records come from one host, so timings were compared.
    pub same_host: bool,
}

impl GateReport {
    /// Whether any check failed.
    pub fn regressed(&self) -> bool {
        self.checks.iter().any(|c| c.verdict == Verdict::Fail)
    }

    /// Renders the verdict, one check per line and a closing summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut counts = [0usize; 3];
        for c in &self.checks {
            counts[c.verdict as usize] += 1;
            let tag = ["PASS", "FAIL", "SKIP"][c.verdict as usize];
            writeln!(out, "{tag} {:<48} {}", c.metric, c.detail).expect("write to a String");
        }
        let [pass, fail, skip] = counts;
        if self.same_host {
            out.push_str("note: timings hold only between records whose runs alternated\n");
        }
        let verdict = if fail > 0 { "REGRESSED" } else { "clean" };
        let summary = format!("({pass} pass, {fail} fail, {skip} skipped)");
        writeln!(out, "gate: {verdict} {summary}").expect("write to a String");
        out
    }
}

/// Compares a current record with a baseline one. See the
/// [module docs](self) for the rules.
///
/// # Errors
///
/// [`RecordError::Mismatch`] when the records differ in seed or trace
/// flag: their numbers measure different work.
pub fn gate(baseline: &Record, current: &Record) -> Result<GateReport, RecordError> {
    let (b, c) = (baseline, current);
    if (&b.seed, &b.trace) != (&c.seed, &c.trace) {
        return Err(RecordError::Mismatch(format!(
            "seed and trace differ: {} {} in the baseline, {} {} in the current record",
            b.seed, b.trace, c.seed, c.trace
        )));
    }
    let hosts = (baseline.host.as_str(), current.host.as_str());
    let checks = (baseline.metrics.iter())
        .map(|(name, b)| compare(name, b, current.metrics.get(name), hosts))
        .collect();
    let same_host = hosts.0 == hosts.1;
    Ok(GateReport { checks, same_host })
}

/// One baseline metric's gate line; `hosts` are the baseline's and the
/// current record's.
fn compare(name: &str, b: &Stat, c: Option<&Stat>, hosts: (&str, &str)) -> Check {
    let check = |verdict, detail| Check {
        metric: name.to_string(),
        detail,
        verdict,
    };
    let pass_if = |ok| if ok { Verdict::Pass } else { Verdict::Fail };
    let Some(c) = c else {
        return check(Verdict::Fail, "missing from the current record".into());
    };
    let (m, n, unit) = (b.median, c.median, &b.unit);
    // Wire bytes of job streams whose summary lines print wall-clock times.
    let host_sized = name.ends_with("serve.bytes_per_job");
    if (unit == "count" || unit == "bytes") && !host_sized {
        let detail = format!("baseline {m}, current {n} {unit} (modelled, exact match required)");
        return check(pass_if(n == m), detail);
    }
    let values = format!("baseline {m:.4}, current {n:.4} {unit}");
    let (base_host, cur_host) = hosts;
    if base_host != cur_host {
        let detail = format!("{values}: recorded on `{base_host}`, not `{cur_host}`");
        return check(Verdict::Skip, detail);
    }
    let worse = if b.better == "higher" { m - n } else { n - m };
    let allowed = (b.q3 - b.q1) + (c.q3 - c.q1);
    let margin = format!("worse by {worse:.4}, IQRs allow {allowed:.4}");
    let detail = format!("{values} ({} is better): {margin}", b.better);
    check(pass_if(worse <= allowed), detail)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{"end_to_end": [{"name": "sim_ticks_per_s", "better": "higher"}],
        "per_layer": [
          {"name": "system.net-out.ns_per_active_tick", "better": "lower"},
          {"name": "mem.ns_per_active_tick", "better": "lower"},
          {"name": "sim.ticks_executed", "better": "lower"},
          {"name": "serve.bytes_per_job", "better": "lower"}]}"#;

    /// One two-workload run's stdout with the given net-out timing.
    fn run_text(seed: &str, net_out_ns: f64, ticks: u64, tail: &str) -> String {
        format!(
            "# distda benchmark: rev abc123 nproc 2 seed {seed} seconds 35 trace 1\n\
             offload-busy: fail_ratio 0/65 = 0\n\
             {{\"correct\": true, \"attempted\": 65, \"failed\": 0, \"metrics\": {{\
             \"offload-busy/system.net-out.ns_per_active_tick\": {{\"value\": {net_out_ns}, \"unit\": \"ns\"}}, \
             \"offload-busy/mem.ns_per_active_tick\": {{\"value\": 60, \"unit\": \"ns\"}}, \
             \"offload-busy/sim.ticks_executed\": {{\"value\": {ticks}, \"unit\": \"count\"}}{tail}}}}}\n"
        )
    }

    fn record_of(texts: &[String], host: &str) -> Result<Record, RecordError> {
        let runs: Vec<_> = texts
            .iter()
            .map(|t| ("run".to_string(), t.clone()))
            .collect();
        Record::from_runs(&runs, BENCHMARK, host)
    }

    /// A record of five runs on `host` whose net-out timing has median
    /// `ns` and an IQR of 2% of it.
    fn record(host: &str, ns: f64, ticks: u64) -> Record {
        let texts = [0.98, 0.99, 1.0, 1.01, 1.02].map(|f| run_text("0xd15c0", ns * f, ticks, ""));
        record_of(&texts, host).unwrap()
    }

    fn with(rep: &GateReport, verdict: Verdict) -> Vec<&str> {
        let checks = rep.checks.iter().filter(|c| c.verdict == verdict);
        checks.map(|c| c.metric.as_str()).collect()
    }

    #[test]
    fn records_take_quartiles_and_round_trip() {
        let rec = record("box", 50.0, 548_677);
        let net = &rec.metrics["offload-busy/system.net-out.ns_per_active_tick"];
        assert_eq!((net.median, net.unit.as_str()), (50.0, "ns"));
        assert!((net.q3 - net.q1 - 1.0).abs() < 1e-9, "{net:?}");
        assert_eq!(net.better, "lower");
        assert_eq!((rec.host.as_str(), rec.runs), ("box nproc 2", 5));
        assert_eq!(Record::parse("rec", &rec.render()).unwrap(), rec);
    }

    #[test]
    fn identical_documents_pass() {
        let rec = record("box", 50.0, 548_677);
        let rep = gate(&rec, &rec).unwrap();
        assert!(!rep.regressed(), "{}", rep.render());
        assert_eq!(with(&rep, Verdict::Pass).len(), 3);
    }

    #[test]
    fn ten_percent_stage_slowdown_fails_and_names_the_stage() {
        let base = record("box", 50.0, 548_677);
        let rep = gate(&base, &record("box", 55.0, 548_677)).unwrap();
        let stage = "offload-busy/system.net-out.ns_per_active_tick";
        assert_eq!(with(&rep, Verdict::Fail), [stage], "{}", rep.render());
        assert!(rep.render().contains(&format!("FAIL {stage}")));
        assert!(rep.render().contains("note: timings hold only"));
        assert!(rep
            .render()
            .ends_with("gate: REGRESSED (2 pass, 1 fail, 0 skipped)\n"));
        // A 10% speed-up of the same stage is no regression.
        assert!(!gate(&base, &record("box", 45.0, 548_677))
            .unwrap()
            .regressed());
    }

    #[test]
    fn timings_from_another_host_are_skipped() {
        let base = record("box", 50.0, 548_677);
        let rep = gate(&base, &record("runner", 55.0, 548_677)).unwrap();
        assert!(!rep.regressed(), "{}", rep.render());
        assert_eq!(with(&rep, Verdict::Skip).len(), 2, "{}", rep.render());
        assert_eq!(
            with(&rep, Verdict::Pass),
            ["offload-busy/sim.ticks_executed"]
        );
        assert!(rep.render().contains("SKIP offload-busy/system.net-out"));
        assert!(!rep.render().contains("note:"));
    }

    #[test]
    fn wire_size_drift_on_another_host_is_skipped_not_failed() {
        let rec = |host, bytes: u64| {
            let unit = r#""unit": "bytes""#;
            let size =
                format!(r#", "offload-busy/serve.bytes_per_job": {{"value": {bytes}, {unit}}}"#);
            record_of(&[run_text("0xd15c0", 50.0, 1, &size)], host).unwrap()
        };
        let size = "offload-busy/serve.bytes_per_job";
        let rep = gate(&rec("box", 32763), &rec("runner", 32764)).unwrap();
        assert!(!rep.regressed(), "{}", rep.render());
        assert!(
            with(&rep, Verdict::Skip).contains(&size),
            "{}",
            rep.render()
        );
        // On one host it is held to the IQR rule like any timing.
        let rep = gate(&rec("box", 32763), &rec("box", 32764)).unwrap();
        assert_eq!(with(&rep, Verdict::Fail), [size], "{}", rep.render());
    }

    #[test]
    fn tick_drift_fails_regardless_of_throughput() {
        let base = record("box", 50.0, 548_677);
        for host in ["box", "runner"] {
            let rep = gate(&base, &record(host, 50.0, 548_678)).unwrap();
            assert_eq!(
                with(&rep, Verdict::Fail),
                ["offload-busy/sim.ticks_executed"]
            );
        }
    }

    #[test]
    fn a_metric_missing_from_the_current_record_fails() {
        let base = record("box", 50.0, 548_677);
        let mut cur = base.clone();
        cur.metrics.remove("offload-busy/mem.ns_per_active_tick");
        let rep = gate(&base, &cur).unwrap();
        assert_eq!(
            with(&rep, Verdict::Fail),
            ["offload-busy/mem.ns_per_active_tick"]
        );
        assert!(rep.render().contains("missing from the current record"));
    }

    #[test]
    fn malformed_input_is_an_error_not_a_verdict() {
        let refused = |text: String| record_of(&[text], "box").unwrap_err();
        let good = run_text("0xd15c0", 50.0, 1, "");
        let incorrect = good.replace("\"correct\": true", "\"correct\": false");
        assert!(matches!(refused(incorrect), RecordError::FailedRun(_)));
        let failed = good.replace("\"failed\": 0", "\"failed\": 2");
        assert!(matches!(refused(failed), RecordError::FailedRun(_)));
        let no_result = good.lines().take(2).collect::<Vec<_>>().join("\n");
        assert!(matches!(refused(no_result), RecordError::Malformed(_)));
        assert!(matches!(refused("{}".into()), RecordError::Malformed(_)));
        assert!(matches!(
            record_of(&[], "box"),
            Err(RecordError::Malformed(_))
        ));

        let seeds = [good, run_text("0x7", 50.0, 1, "")];
        let err = record_of(&seeds, "box").unwrap_err();
        assert!(
            matches!(&err, RecordError::Mismatch(m) if m.ends_with("seed")),
            "{err}"
        );
        let unlisted = ", \"offload-busy/made.up\": {\"value\": 1, \"unit\": \"ns\"}";
        let err = refused(run_text("0xd15c0", 50.0, 1, unlisted));
        assert!(
            matches!(&err, RecordError::UnknownMetric(m) if m.contains("offload-busy/made.up"))
        );

        let base = record("box", 50.0, 1);
        let mut other_seed = base.clone();
        other_seed.seed = "0x7".into();
        assert!(matches!(
            gate(&base, &other_seed),
            Err(RecordError::Mismatch(_))
        ));
        assert!(Record::parse("rec", "{").is_err());
        assert!(Record::parse("rec", "{}").is_err());
    }
}
