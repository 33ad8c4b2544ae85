//! Scheduler self-profiling: where does *host* wall-clock go inside a run?
//!
//! The tracer ([`distda_trace`]) answers "where does simulated time go";
//! this module answers the complementary fleet-telemetry question — which
//! component of the machine the *simulator itself* spends host nanoseconds
//! in, on how many executed (non-skipped) ticks each component actually
//! ran, which component's `next_event` kept waking the machine, and how
//! much simulated time the skip-ahead fast path jumped over.
//!
//! A [`Profiler`] is one member of the scheduler's
//! [`Instruments`](crate::component::Instruments) bundle, next to the
//! tracer, the sanitizer and the explain sampler. It holds no counters of
//! its own: the [`Scheduler`](crate::component::Scheduler) counts executed
//! and skipped ticks whether or not anyone profiles it, and with a
//! profiler attached (via `DISTDA_OBS` or programmatically) also counts
//! and times every `tick()` that runs and every wake probe with the host
//! monotonic clock, in plain fields. It adds those counts to the shared
//! [`ProfileSnapshot`] once, when a run loop or a public `tick` returns
//! (and before a component registers or the instruments change), so the
//! tick loop never takes a lock and a disabled profiler costs one branch
//! per tick.
//!
//! Profiling is measurement-only by construction: it reads the host clock
//! and counts scheduler decisions, but never influences them — simulated
//! results are bit-identical with the profiler on or off (enforced by the
//! observability determinism tests).
//!
//! The snapshot renders as a "perf top"-style table
//! ([`render_table`]). With skip-ahead on, a component runs only on the
//! executed ticks it is due, so each `active_ticks` is below the executed
//! count and `ns/tick` is host time per tick that ran (bfs on
//! Dist-DA-F at tiny scale):
//!
//! ```text
//! component             host_ms  host%   active_ticks      wakes  ns/tick
//! noc                    15.140  73.4%          12633       4003     1198
//! engine.all              3.327  16.1%          10276       9589      323
//! mem                     1.022   5.0%           3572       1206      286
//! delivery                0.606   2.9%           5692       5692      106
//! net-out                 0.354   1.7%           3584         88       98
//! host                    0.170   0.8%           1113       1113      153
//! machine.chan            0.000   0.0%              0          0        0
//! ticks: 21605 executed + 52850 skipped in 14682 spans = 74455 total (71.0% skipped)
//! wake probes: 21692 taking 2.024 ms host
//! ```

use crate::time::Tick;
use std::sync::{Arc, Mutex};

const POISONED: &str = "a run panicked while adding to the profiler";

/// One component's profile, as captured in a [`ProfileSnapshot`].
#[derive(Debug, Clone)]
pub struct ComponentProfile {
    /// Component name (merged across registrations with the same name).
    pub name: String,
    /// Host nanoseconds spent inside this component's `tick()`.
    pub host_ns: u64,
    /// Base ticks on which this component's `tick()` ran: every executed
    /// tick with skip-ahead off, only the ticks it was due with it on
    /// (never, for one that never reports a wake).
    pub active_ticks: u64,
    /// Times this component's `next_event` was the scheduler's chosen wake
    /// target (it was the unit keeping the machine busy or waking it next).
    pub wakes: u64,
}

/// Everything the self-profiler measured, in component registration order.
#[derive(Debug, Clone)]
pub struct ProfileSnapshot {
    /// Per-component breakdown.
    pub comps: Vec<ComponentProfile>,
    /// Base ticks the scheduler actually executed component-by-component.
    pub ticks_executed: u64,
    /// Base ticks jumped over by idle skip-ahead.
    pub ticks_skipped: u64,
    /// Number of skip-ahead jumps (spans).
    pub skip_spans: u64,
    /// `next_wake` probes folded.
    pub probes: u64,
    /// Host nanoseconds spent inside `next_wake` probes.
    pub probe_ns: u64,
}

impl ProfileSnapshot {
    /// Total host nanoseconds across every component's `tick()`.
    pub fn total_host_ns(&self) -> u64 {
        self.comps.iter().map(|c| c.host_ns).sum()
    }

    /// The entry of component `name`, appended zeroed on first use:
    /// registrations under one name merge.
    pub(crate) fn comp_mut(&mut self, name: &str) -> &mut ComponentProfile {
        let i = match self.comps.iter().position(|c| c.name == name) {
            Some(i) => i,
            None => {
                self.comps.push(ComponentProfile {
                    name: name.to_string(),
                    host_ns: 0,
                    active_ticks: 0,
                    wakes: 0,
                });
                self.comps.len() - 1
            }
        };
        &mut self.comps[i]
    }
}

/// The self-profiling handle threaded through the scheduler's
/// [`Instruments`](crate::component::Instruments): the totals every
/// scheduler it is attached to adds into. Cheap to clone; disabled by
/// default.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    shared: Option<Arc<Mutex<ProfileSnapshot>>>,
}

impl Profiler {
    /// A profiler that records nothing and costs one branch per tick.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A live profiler with empty totals.
    pub fn enabled() -> Self {
        Self {
            shared: Some(Arc::new(Mutex::new(ProfileSnapshot {
                comps: Vec::new(),
                ticks_executed: 0,
                ticks_skipped: 0,
                skip_spans: 0,
                probes: 0,
                probe_ns: 0,
            }))),
        }
    }

    /// Whether this profiler records anything at all.
    #[inline]
    pub fn on(&self) -> bool {
        self.shared.is_some()
    }

    /// Adds a scheduler's counts to the totals, under one lock.
    pub(crate) fn add(&self, f: impl FnOnce(&mut ProfileSnapshot)) {
        if let Some(shared) = &self.shared {
            f(&mut shared.lock().expect(POISONED));
        }
    }

    /// Snapshot of everything measured so far (`None` when disabled).
    /// The snapshot does not depend on `_now`; the parameter stays
    /// because the benchmark sweep (`benchmark/src/sweep.rs`) calls this
    /// signature.
    pub fn snapshot_at(&self, _now: Tick) -> Option<ProfileSnapshot> {
        Some(self.shared.as_ref()?.lock().expect(POISONED).clone())
    }
}

/// Renders a "perf top"-style table of a snapshot: components sorted by
/// host nanoseconds, with scheduler-level totals as a footer.
pub fn render_table(snap: &ProfileSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let total_ns = snap.total_host_ns().max(1);
    writeln!(
        out,
        "{:<18} {:>10} {:>6} {:>14} {:>10} {:>8}",
        "component", "host_ms", "host%", "active_ticks", "wakes", "ns/tick"
    )
    .unwrap();
    let mut rows: Vec<&ComponentProfile> = snap.comps.iter().collect();
    rows.sort_by(|a, b| b.host_ns.cmp(&a.host_ns).then(a.name.cmp(&b.name)));
    for c in rows {
        writeln!(
            out,
            "{:<18} {:>10.3} {:>5.1}% {:>14} {:>10} {:>8}",
            c.name,
            c.host_ns as f64 / 1e6,
            100.0 * c.host_ns as f64 / total_ns as f64,
            c.active_ticks,
            c.wakes,
            c.host_ns / c.active_ticks.max(1),
        )
        .unwrap();
    }
    let total_ticks = snap.ticks_executed + snap.ticks_skipped;
    writeln!(
        out,
        "ticks: {} executed + {} skipped in {} spans = {} total ({:.1}% skipped)",
        snap.ticks_executed,
        snap.ticks_skipped,
        snap.skip_spans,
        total_ticks,
        100.0 * snap.ticks_skipped as f64 / total_ticks.max(1) as f64,
    )
    .unwrap();
    writeln!(
        out,
        "wake probes: {} taking {:.3} ms host",
        snap.probes,
        snap.probe_ns as f64 / 1e6
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_inert() {
        let p = Profiler::disabled();
        assert!(!p.on());
        p.add(|_| panic!("a disabled profiler has no totals"));
        assert!(p.snapshot_at(0).is_none());
    }

    #[test]
    fn entries_merge_by_name_in_first_use_order() {
        let p = Profiler::enabled();
        p.add(|s| {
            s.comp_mut("mem").active_ticks += 2;
            s.comp_mut("noc").wakes += 1;
            s.comp_mut("mem").active_ticks += 3;
        });
        let s = p.snapshot_at(0).unwrap();
        let names: Vec<_> = s.comps.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["mem", "noc"]);
        assert_eq!(s.comps[0].active_ticks, 5);
        assert_eq!(s.comps[1].wakes, 1);
    }

    #[test]
    fn clones_share_totals() {
        let p = Profiler::enabled();
        let q = p.clone();
        p.add(|s| s.ticks_executed += 2);
        q.add(|s| {
            s.ticks_executed += 3;
            s.comp_mut("a").host_ns += 100;
        });
        let s = p.snapshot_at(42).unwrap();
        assert_eq!(s.ticks_executed, 5);
        assert_eq!(s.total_host_ns(), 100);
    }

    #[test]
    fn table_renders_sorted_with_footer() {
        let p = Profiler::enabled();
        p.add(|s| {
            s.comp_mut("small").host_ns += 10;
            s.comp_mut("big").host_ns += 990;
            s.ticks_executed += 1;
        });
        let s = p.snapshot_at(1).unwrap();
        let t = render_table(&s);
        let big_at = t.find("big").unwrap();
        let small_at = t.find("small").unwrap();
        assert!(big_at < small_at, "rows must sort by host_ns:\n{t}");
        assert!(t.contains("executed"));
        assert!(t.contains("wake probes"));
    }
}
