//! Plain-text summaries: a top-N digest of the busiest events, counters
//! and latency histograms per component, and a cycle-exact phase
//! attribution for a run.
//!
//! The attribution reads the machine's phase ledger, not the event ring:
//! the machine charges every `kernel_phase` and `mmio` span's ticks to
//! its label as it emits the span, and the spans are sequential and
//! disjoint, so the labelled buckets plus the `other` remainder partition
//! every base tick of the run, traced or not.

use crate::Tick;
use crate::{ComponentDump, Tracer};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A partition of a run's ticks into labelled buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribution {
    /// `(label, ticks)` buckets, largest first, then `other`.
    pub parts: Vec<(String, Tick)>,
    /// Total ticks of the run (the sum of all parts).
    pub total: Tick,
}

impl Attribution {
    /// Splits a `total`-tick run into the `(label, ticks)` phases of a
    /// ledger, largest first, and `other`, the remainder. Phases that
    /// overrun the run are the sanitizer's `tick-accounting` violation;
    /// `other` is zero then.
    pub fn new(phases: &[(&str, Tick)], total: Tick) -> Self {
        let mut parts: Vec<(String, Tick)> =
            phases.iter().map(|&(l, t)| (l.to_string(), t)).collect();
        parts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let phased: Tick = phases.iter().map(|(_, t)| t).sum();
        parts.push(("other".to_string(), total.saturating_sub(phased)));
        Self { parts, total }
    }
}

/// Renders an attribution as an aligned table with percentages.
pub fn render_attribution(attr: &Attribution) -> String {
    let mut out = String::from("cycle attribution\n");
    let width = attr
        .parts
        .iter()
        .map(|(l, _)| l.len())
        .max()
        .unwrap_or(5)
        .max(5);
    for (label, ticks) in &attr.parts {
        let pct = if attr.total == 0 {
            0.0
        } else {
            100.0 * *ticks as f64 / attr.total as f64
        };
        let _ = writeln!(out, "  {label:width$}  {ticks:>14}  {pct:6.2}%");
    }
    let _ = writeln!(out, "  {:width$}  {:>14}  100.00%", "total", attr.total);
    out
}

/// Renders a top-N digest of every component: busiest span labels by total
/// duration, largest counters, and histogram summaries.
pub fn render(tracer: &Tracer, top_n: usize) -> String {
    render_components(&tracer.components(), top_n)
}

/// [`render`] over a pre-snapshotted component list.
pub fn render_components(comps: &[ComponentDump], top_n: usize) -> String {
    let mut out = String::new();
    for c in comps {
        let _ = writeln!(
            out,
            "[{}] {} events{}",
            c.name,
            c.events.len(),
            if c.dropped > 0 {
                format!(" (+{} dropped)", c.dropped)
            } else {
                String::new()
            }
        );

        // Busiest labels: spans by total duration, instants by count.
        let mut durs: BTreeMap<String, (Tick, u64)> = BTreeMap::new();
        for e in &c.events {
            let entry = durs.entry(e.kind.display_name()).or_insert((0, 0));
            entry.0 += e.duration();
            entry.1 += 1;
        }
        let mut durs: Vec<(String, (Tick, u64))> = durs.into_iter().collect();
        durs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        for (label, (ticks, n)) in durs.iter().take(top_n) {
            let _ = writeln!(out, "  event {label:<16} n={n:<8} ticks={ticks}");
        }

        let mut counters: Vec<(&String, &u64)> = c.metrics.counters.iter().collect();
        counters.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        for (name, v) in counters.iter().take(top_n) {
            let _ = writeln!(out, "  count {name:<16} {v}");
        }

        for (name, h) in c.metrics.hists.iter().take(top_n) {
            let _ = writeln!(
                out,
                "  hist  {name:<16} n={} mean={:.1} p50={} p99={} max={}",
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.max
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, Tracer};

    const PHASES: [(&str, Tick); 3] = [("offload", 40), ("mmio", 10), ("host-segment", 40)];

    #[test]
    fn attribution_partitions_total_exactly() {
        let attr = Attribution::new(&PHASES, 100);
        let sum: Tick = attr.parts.iter().map(|(_, t)| t).sum();
        assert_eq!(sum, 100);
        assert_eq!(attr.total, 100);
        assert_eq!(attr.parts.last().unwrap(), &("other".to_string(), 10));
    }

    #[test]
    fn attribution_sorts_largest_first() {
        let attr = Attribution::new(&PHASES, 100);
        let labels: Vec<_> = attr.parts.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["host-segment", "offload", "mmio", "other"]);
    }

    #[test]
    fn overrun_leaves_no_other() {
        // Phases sum to 90 ticks; claim the run was only 50.
        let attr = Attribution::new(&PHASES, 50);
        assert_eq!(attr.total, 50);
        assert_eq!(attr.parts.last().unwrap().1, 0);
    }

    #[test]
    fn render_lists_components_and_counters() {
        let t = Tracer::enabled();
        let m = t.sink("machine");
        m.span(0, 40, EventKind::KernelPhase { phase: "offload" });
        t.sink("noc").count("flits", 12);
        let text = render(&t, 5);
        assert!(text.contains("[machine]"));
        assert!(text.contains("[noc]"));
        assert!(text.contains("flits"));
        let attr_text = render_attribution(&Attribution::new(&PHASES, 100));
        assert!(attr_text.contains("100.00%"));
    }
}
