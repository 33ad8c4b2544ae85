//! A label-aware metrics registry with an OpenMetrics text exporter.
//!
//! The registry is the convergence point of every measurement source in
//! the workspace: simulated statistics from
//! [`RunResult`] and trace
//! [`Report`]s, host-side numbers from the
//! scheduler self-profiler, and per-component counters/histograms from
//! trace dumps. All of them land in three metric families — counters,
//! gauges and log-bucketed histograms — keyed by a metric name plus an
//! ordered label set, and render deterministically to the
//! [OpenMetrics](https://prometheus.io/docs/specs/om/open_metrics_spec/)
//! text format via [`Registry::openmetrics`].
//!
//! Everything is `BTreeMap`-backed, so the export is byte-stable for a
//! given set of observations regardless of insertion order — the property
//! the CI artifact diffs rely on.

use distda_sim::ProfileSnapshot;
use distda_system::RunResult;
use distda_trace::metrics::{bucket_upper, LogHist};
use distda_trace::stats::Report;
use distda_trace::ComponentDump;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// An ordered, owned label set (`key=value` pairs, sorted by key). Shared,
/// so cloning a registry (every `/metrics` scrape of the daemon does)
/// copies no label strings.
type Labels = Arc<[(String, String)]>;

/// Per-family storage: label set -> value, inside name -> series.
type Family<T> = BTreeMap<String, BTreeMap<Labels, T>>;

/// The fleet metrics registry. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: Family<u64>,
    gauges: Family<f64>,
    hists: Family<LogHist>,
}

/// Sanitizes a metric or label name to the OpenMetrics charset
/// (`[a-zA-Z0-9_:]`, not starting with a digit).
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label *value* per the OpenMetrics text format
/// (backslash, double quote and line feed).
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    push_escaped(&mut out, v);
    out
}

/// Appends `v` to `out`, escaped as [`escape_label_value`] does.
fn push_escaped(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn own_labels(labels: &[(&str, &str)]) -> Labels {
    let mut v: Vec<(String, String)> = labels
        .iter()
        .map(|(k, val)| (sanitize_name(k), (*val).to_string()))
        .collect();
    v.sort();
    v.into()
}

/// Appends one sample's series name and label set (`{k="v",...}`, with
/// `extra` last; nothing for an empty set) plus the separating space.
/// Renders straight into the output: a daemon scrape writes thousands of
/// series, and building per-label `String`s dominated its cost.
fn push_series(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &[(String, String)],
    extra: Option<(&str, &str)>,
) {
    out.push_str(name);
    out.push_str(suffix);
    let pairs = labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
    for (i, (k, v)) in pairs.chain(extra).enumerate() {
        out.push(if i == 0 { '{' } else { ',' });
        out.push_str(k);
        out.push_str("=\"");
        push_escaped(out, v);
        out.push('"');
    }
    if !labels.is_empty() || extra.is_some() {
        out.push('}');
    }
    out.push(' ');
}

/// Appends an f64 the OpenMetrics way: integral values without a decimal
/// point are fine, but NaN/infinities get their spec spellings.
fn push_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v.is_infinite() {
        out.push_str(if v > 0.0 { "+Inf" } else { "-Inf" });
    } else {
        write!(out, "{v}").unwrap();
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter `name{labels}`.
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], n: u64) {
        *self
            .counters
            .entry(sanitize_name(name))
            .or_default()
            .entry(own_labels(labels))
            .or_insert(0) += n;
    }

    /// Sets the gauge `name{labels}` to `v` (last write wins).
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.gauges
            .entry(sanitize_name(name))
            .or_default()
            .insert(own_labels(labels), v);
    }

    /// Records one observation into the histogram `name{labels}`.
    pub fn hist_observe(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.hists
            .entry(sanitize_name(name))
            .or_default()
            .entry(own_labels(labels))
            .or_default()
            .observe(v);
    }

    /// Folds a whole [`LogHist`] into the histogram `name{labels}`.
    pub fn hist_merge(&mut self, name: &str, labels: &[(&str, &str)], h: &LogHist) {
        self.hists
            .entry(sanitize_name(name))
            .or_default()
            .entry(own_labels(labels))
            .or_default()
            .merge(h);
    }

    /// Ingests the headline numbers of one simulated run, labelled by
    /// kernel and configuration.
    pub fn ingest_run(&mut self, r: &RunResult) {
        let labels: &[(&str, &str)] = &[("kernel", &r.kernel), ("config", &r.config)];
        self.counter_add("distda_simulated_ticks", labels, r.ticks);
        self.counter_add("distda_data_moved_bytes", labels, r.data_moved_bytes);
        self.counter_add("distda_cache_accesses", labels, r.cache_accesses);
        self.counter_add("distda_total_ops", labels, r.total_ops);
        self.gauge_set("distda_simulated_ns", labels, r.ns);
        self.gauge_set("distda_energy_pj", labels, r.energy_pj());
        self.gauge_set(
            "distda_validated",
            labels,
            if r.validated { 1.0 } else { 0.0 },
        );
        // Multi-tenant runs carry per-tenant attribution in the report
        // (`tenant.N.<what>` keys); re-expose them as series labelled by
        // tenant id so fleet dashboards can watch fairness per cell. The
        // per-tenant series partition the whole-machine totals — see the
        // `tenant_series_partition_machine_totals` invariant test.
        let tenants = r.report.get("tenancy.tenants").unwrap_or(0.0) as usize;
        if tenants > 1 {
            self.gauge_set(
                "distda_tenancy_fairness",
                labels,
                r.report.get("tenancy.fairness").unwrap_or(0.0),
            );
            self.gauge_set("distda_tenancy_tenants", labels, tenants as f64);
            for t in 0..tenants {
                let tid = t.to_string();
                let mut tl: Vec<(&str, &str)> = labels.to_vec();
                tl.push(("tenant", &tid));
                for what in [
                    "ticks",
                    "iterations",
                    "busy_cycles",
                    "stall_mem",
                    "stall_chan",
                    "intra_bytes",
                    "da_bytes",
                    "aa_bytes",
                    "hop_bytes",
                ] {
                    if let Some(v) = r.report.get(&format!("tenant.{t}.{what}")) {
                        self.counter_add(&format!("distda_tenant_{what}"), &tl, v as u64);
                    }
                }
            }
        }
        // Per-port handshake series from the `port.<name>.<what>` report
        // keys: pushed/stall counters plus a high-water gauge, labelled
        // by port so dashboards can localize back-pressure to one
        // boundary. Channel-port stall series sum to `accel.stall_chan`
        // and ACP response-port stalls to `accel.stall_mem` — see the
        // `port_series_sum_to_machine_stalls` invariant test.
        for (key, v) in r.report.iter() {
            let Some(rest) = key.strip_prefix("port.") else {
                continue;
            };
            let Some((port, what)) = rest.rsplit_once('.') else {
                continue;
            };
            let mut pl: Vec<(&str, &str)> = labels.to_vec();
            pl.push(("port", port));
            match what {
                "pushed" => self.counter_add("distda_port_pushed", &pl, v as u64),
                "stalls" => self.counter_add("distda_port_stall_cycles", &pl, v as u64),
                "high_water" => self.gauge_set("distda_port_high_water", &pl, v),
                _ => {}
            }
        }
        // Causal-attribution series from explain-enabled runs
        // (`explain.*` report keys): the headline verdict as gauges plus
        // per-node blamed/busy/idle tick counters labelled by component,
        // so dashboards carry *why* a cell is slow, not just how slow.
        if let Some(stall) = r.report.get("explain.stall_ticks") {
            self.gauge_set("distda_explain_stall_ticks", labels, stall);
            self.gauge_set(
                "distda_explain_top_share",
                labels,
                r.report.get("explain.top.share").unwrap_or(0.0),
            );
            for (key, v) in r.report.iter() {
                let Some(rest) = key.strip_prefix("explain.node.") else {
                    continue;
                };
                let Some((node, what)) = rest.rsplit_once('.') else {
                    continue;
                };
                let mut nl: Vec<(&str, &str)> = labels.to_vec();
                nl.push(("component", node));
                match what {
                    "blamed" => self.counter_add("distda_explain_blamed_ticks", &nl, v as u64),
                    "busy" => self.counter_add("distda_explain_busy_ticks", &nl, v as u64),
                    "idle" => self.counter_add("distda_explain_idle_ticks", &nl, v as u64),
                    _ => {}
                }
            }
        }
    }

    /// Ingests a statistics [`Report`] as gauges named
    /// `<prefix>_<sanitized key>{labels}`.
    pub fn ingest_report(&mut self, prefix: &str, labels: &[(&str, &str)], report: &Report) {
        for (key, value) in report.iter() {
            self.gauge_set(&format!("{prefix}_{}", sanitize_name(key)), labels, value);
        }
    }

    /// Ingests a scheduler self-profile: per-component host nanoseconds,
    /// active ticks and wakes, plus scheduler-level tick accounting.
    pub fn ingest_profile(&mut self, labels: &[(&str, &str)], snap: &ProfileSnapshot) {
        for c in &snap.comps {
            let mut with_comp: Vec<(&str, &str)> = labels.to_vec();
            with_comp.push(("component", &c.name));
            self.counter_add("distda_prof_host_ns", &with_comp, c.host_ns);
            self.counter_add("distda_prof_active_ticks", &with_comp, c.active_ticks);
            self.counter_add("distda_prof_wakes", &with_comp, c.wakes);
        }
        self.counter_add("distda_prof_ticks_executed", labels, snap.ticks_executed);
        self.counter_add("distda_prof_ticks_skipped", labels, snap.ticks_skipped);
        self.counter_add("distda_prof_skip_spans", labels, snap.skip_spans);
        self.counter_add("distda_prof_probes", labels, snap.probes);
        self.counter_add("distda_prof_probe_ns", labels, snap.probe_ns);
    }

    /// Ingests trace dumps: every per-component counter and histogram from
    /// the tracer's metrics, labelled by component name.
    pub fn ingest_trace_components(&mut self, labels: &[(&str, &str)], comps: &[ComponentDump]) {
        for d in comps {
            let mut with_comp: Vec<(&str, &str)> = labels.to_vec();
            with_comp.push(("component", &d.name));
            for (name, &n) in &d.metrics.counters {
                self.counter_add(
                    &format!("distda_trace_{}", sanitize_name(name)),
                    &with_comp,
                    n,
                );
            }
            for (name, h) in &d.metrics.hists {
                self.hist_merge(
                    &format!("distda_trace_{}", sanitize_name(name)),
                    &with_comp,
                    h,
                );
            }
        }
    }

    /// Renders the registry in the OpenMetrics text format: families
    /// sorted by name, counters with the `_total` suffix, histograms as
    /// cumulative `_bucket{le=...}` series plus `_sum`/`_count`, and the
    /// mandatory `# EOF` terminator.
    pub fn openmetrics(&self) -> String {
        let mut out = String::new();
        for (name, series) in &self.counters {
            writeln!(out, "# TYPE {name} counter").unwrap();
            for (labels, v) in series {
                push_series(&mut out, name, "_total", labels, None);
                writeln!(out, "{v}").unwrap();
            }
        }
        for (name, series) in &self.gauges {
            writeln!(out, "# TYPE {name} gauge").unwrap();
            for (labels, v) in series {
                push_series(&mut out, name, "", labels, None);
                push_f64(&mut out, *v);
                out.push('\n');
            }
        }
        let mut le = String::new();
        for (name, series) in &self.hists {
            writeln!(out, "# TYPE {name} histogram").unwrap();
            for (labels, h) in series {
                let mut cum = 0u64;
                for (i, &c) in h.buckets.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    cum += c;
                    le.clear();
                    match bucket_upper(i) {
                        u64::MAX => le.push_str("+Inf"),
                        upper => write!(le, "{upper}").unwrap(),
                    }
                    push_series(&mut out, name, "_bucket", labels, Some(("le", &le)));
                    writeln!(out, "{cum}").unwrap();
                }
                push_series(&mut out, name, "_bucket", labels, Some(("le", "+Inf")));
                writeln!(out, "{cum}").unwrap();
                push_series(&mut out, name, "_sum", labels, None);
                writeln!(out, "{}", h.sum).unwrap();
                push_series(&mut out, name, "_count", labels, None);
                writeln!(out, "{}", h.count).unwrap();
            }
        }
        out.push_str("# EOF\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize_name("mem.dram/reads"), "mem_dram_reads");
        assert_eq!(sanitize_name("2fast"), "_2fast");
        assert_eq!(sanitize_name(""), "_");
        assert_eq!(sanitize_name("ok_name:x"), "ok_name:x");
    }

    #[test]
    fn escapes_label_values() {
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }

    #[test]
    fn counters_render_with_total_suffix_and_sorted_labels() {
        let mut r = Registry::new();
        r.counter_add("runs", &[("config", "OoO")], 2);
        r.counter_add("runs", &[("config", "Dist-DA")], 1);
        r.counter_add("runs", &[("config", "OoO")], 3);
        let om = r.openmetrics();
        let dist = om.find("runs_total{config=\"Dist-DA\"} 1").unwrap();
        let ooo = om.find("runs_total{config=\"OoO\"} 5").unwrap();
        assert!(dist < ooo, "label sets must render sorted:\n{om}");
        assert!(om.contains("# TYPE runs counter"));
        assert!(om.ends_with("# EOF\n"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let mut r = Registry::new();
        for v in [1u64, 1, 3, 100] {
            r.hist_observe("lat", &[], v);
        }
        let om = r.openmetrics();
        assert!(om.contains("# TYPE lat histogram"));
        assert!(om.contains("lat_bucket{le=\"1\"} 2"));
        assert!(om.contains("lat_bucket{le=\"3\"} 3"));
        assert!(om.contains("lat_bucket{le=\"127\"} 4"));
        assert!(om.contains("lat_bucket{le=\"+Inf\"} 4"));
        assert!(om.contains("lat_sum 105"));
        assert!(om.contains("lat_count 4"));
    }

    #[test]
    fn export_is_insertion_order_independent() {
        let mut a = Registry::new();
        a.counter_add("x", &[("k", "1")], 1);
        a.gauge_set("g", &[], 2.5);
        a.counter_add("w", &[], 7);
        let mut b = Registry::new();
        b.counter_add("w", &[], 7);
        b.gauge_set("g", &[], 2.5);
        b.counter_add("x", &[("k", "1")], 1);
        assert_eq!(a.openmetrics(), b.openmetrics());
    }
}
