//! Windowed time-series sampling of port and counter state, in a
//! bounded ring.
//!
//! The explain layer needs to know not just *that* a port accumulated
//! stall cycles but *when*: a kernel that is memory-bound for its first
//! half and channel-bound for its second looks identical to a uniformly
//! mixed one in the end-of-run totals. A [`Sampler`] records, at fixed
//! simulated-tick window boundaries, the **cumulative** statistics of
//! every named port plus a set of named counters; consumers difference
//! adjacent windows to recover per-window rates.
//!
//! A [`Sampler`] is one member of the scheduler's
//! [`Instruments`](crate::component::Instruments), next to the tracer,
//! the sanitizer and the profiler. The scheduler's run loop feeds it:
//! once the clock has passed a boundary, by an executed tick or by a
//! skip-ahead jump, it gathers every component's
//! [`Component::sample`](crate::component::Component::sample) view at
//! that boundary and calls [`Sampler::record_at`]. Nothing reports a wake
//! for sampling, so it never changes which ticks a run executes.
//!
//! Design rules (mirroring the tracer and profiler):
//!
//! * **Free when disabled.** A disabled sampler is a `None`, and the
//!   scheduler caches its next boundary as [`Tick::MAX`], so the tick
//!   loop pays one compare per tick. Nothing is ever recorded, so runs
//!   with sampling off are byte-identical to runs on a build without the
//!   sampler.
//! * **Deterministic.** Boundaries are simulated ticks, never host
//!   time. Recording the cumulative state *at* the boundary tick makes
//!   the series invariant under idle skip-ahead: skipped ticks are
//!   provably no-ops, so the state at the boundary is bit-identical
//!   whether the scheduler stepped over it or jumped past it.
//! * **Bounded.** The ring holds at most `cap` windows. When it fills,
//!   every other window is dropped and the window size doubles — since
//!   records are cumulative, discarding intermediate boundaries loses
//!   resolution, never mass. A run of any length therefore costs
//!   `O(cap · ports)` memory.
//!
//! Ports and counters are keyed by name, first-seen order, so the
//! population may grow mid-run (engines and operand channels are
//! configured after the machine is built); windows recorded before a
//! name existed implicitly hold zero for it, which is exactly the value
//! of a cumulative counter before its owner was born.

use crate::port::PortSnapshot;
use crate::time::Tick;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Default window size in base ticks (`DISTDA_EXPLAIN=1`).
pub const DEFAULT_WINDOW_TICKS: u64 = 4096;

/// Default ring capacity in windows.
pub const DEFAULT_WINDOW_CAP: usize = 512;

/// One port's cumulative statistics at a window boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PortPoint {
    /// Total elements ever accepted by the port.
    pub pushed: u64,
    /// Total producer stall cycles charged to the port.
    pub stalls: u64,
    /// Occupancy at the boundary tick.
    pub len: u64,
}

/// Cumulative state frozen at one window boundary. `ports` and
/// `counters` are indexed by the dump's `port_names`/`counter_names`;
/// entries past the end of either vec are implicitly zero (the name was
/// registered after this window was recorded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    /// The boundary tick this record was frozen at.
    pub at: Tick,
    /// Per-port cumulative statistics, indexed like `port_names`.
    pub ports: Vec<PortPoint>,
    /// Named cumulative counters, indexed like `counter_names`.
    pub counters: Vec<u64>,
}

/// A consistent copy of everything a sampler recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleDump {
    /// Window size in base ticks at the end of the run (doubles each
    /// time the ring coalesces).
    pub window_ticks: u64,
    /// Port names, first-seen order; index space of `Window::ports`.
    pub port_names: Vec<String>,
    /// Counter names, first-seen order; index space of
    /// `Window::counters`.
    pub counter_names: Vec<String>,
    /// The recorded windows, oldest first, boundary ticks strictly
    /// increasing.
    pub windows: Vec<Window>,
    /// How many times the ring halved itself to stay within `cap`.
    pub coalesced: u32,
}

impl SampleDump {
    /// The cumulative [`PortPoint`] of `name` at window index `w`
    /// (zero when the port did not exist yet).
    pub fn port_at(&self, w: usize, name: &str) -> PortPoint {
        let Some(i) = self.port_names.iter().position(|n| n == name) else {
            return PortPoint::default();
        };
        self.windows[w].ports.get(i).copied().unwrap_or_default()
    }

    /// The cumulative counter `name` at window index `w` (zero when the
    /// counter did not exist yet).
    pub fn counter_at(&self, w: usize, name: &str) -> u64 {
        let Some(i) = self.counter_names.iter().position(|n| n == name) else {
            return 0;
        };
        self.windows[w].counters.get(i).copied().unwrap_or(0)
    }
}

#[derive(Debug)]
struct SamplerState {
    window_ticks: u64,
    cap: usize,
    next_boundary: Tick,
    port_index: HashMap<String, usize>,
    port_names: Vec<String>,
    counter_index: HashMap<String, usize>,
    counter_names: Vec<String>,
    windows: Vec<Window>,
    coalesced: u32,
}

impl SamplerState {
    fn intern_port(&mut self, name: &str) -> usize {
        if let Some(&i) = self.port_index.get(name) {
            return i;
        }
        let i = self.port_names.len();
        self.port_names.push(name.to_string());
        self.port_index.insert(name.to_string(), i);
        i
    }

    fn intern_counter(&mut self, name: &str) -> usize {
        if let Some(&i) = self.counter_index.get(name) {
            return i;
        }
        let i = self.counter_names.len();
        self.counter_names.push(name.to_string());
        self.counter_index.insert(name.to_string(), i);
        i
    }

    fn coalesce(&mut self) {
        // Keep every second boundary (the later of each pair) and double
        // the window: cumulative records make this lossless in mass and
        // uniform in spacing.
        let mut keep = false;
        self.windows.retain(|_| {
            keep = !keep;
            !keep
        });
        self.window_ticks *= 2;
        self.coalesced += 1;
    }
}

/// A cheap cloneable handle to a windowed sampling ring; `None` inside
/// means disabled (the default) and costs one inlined null check.
#[derive(Debug, Clone, Default)]
pub struct Sampler(Option<Arc<Mutex<SamplerState>>>);

impl Sampler {
    /// A sampler that records nothing and reports no boundaries.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// A sampler with `window_ticks`-sized windows and a ring of at
    /// most `cap` windows.
    ///
    /// # Panics
    ///
    /// Panics if `window_ticks` is zero or `cap < 2` (coalescing needs
    /// room to halve).
    pub fn enabled(window_ticks: u64, cap: usize) -> Self {
        assert!(window_ticks > 0, "window size must be nonzero");
        assert!(cap >= 2, "ring must hold at least two windows");
        Self(Some(Arc::new(Mutex::new(SamplerState {
            window_ticks,
            cap,
            next_boundary: window_ticks,
            port_index: HashMap::new(),
            port_names: Vec::new(),
            counter_index: HashMap::new(),
            counter_names: Vec::new(),
            windows: Vec::new(),
            coalesced: 0,
        }))))
    }

    /// Whether this sampler records anything.
    #[inline]
    pub fn on(&self) -> bool {
        self.0.is_some()
    }

    /// The next boundary tick the scheduler records at ([`Tick::MAX`]
    /// when disabled).
    pub fn next_boundary(&self) -> Tick {
        match &self.0 {
            Some(s) => s.lock().unwrap().next_boundary,
            None => Tick::MAX,
        }
    }

    /// Records the cumulative state at `at` if `at` has reached the
    /// next boundary, and advances the boundary past `at`. A no-op when
    /// disabled or before the boundary, so hosts may call this every
    /// tick.
    pub fn record_at(&self, at: Tick, ports: &[PortSnapshot], counters: &[(&str, u64)]) {
        let Some(s) = &self.0 else { return };
        let mut s = s.lock().unwrap();
        if at < s.next_boundary {
            return;
        }
        let mut pts = vec![PortPoint::default(); s.port_names.len()];
        for p in ports {
            let i = s.intern_port(&p.name);
            if i >= pts.len() {
                pts.resize(i + 1, PortPoint::default());
            }
            pts[i] = PortPoint {
                pushed: p.pushed,
                stalls: p.stalls,
                len: p.len as u64,
            };
        }
        let mut cts = vec![0u64; s.counter_names.len()];
        for (name, v) in counters {
            let i = s.intern_counter(name);
            if i >= cts.len() {
                cts.resize(i + 1, 0);
            }
            cts[i] = *v;
        }
        s.windows.push(Window {
            at,
            ports: pts,
            counters: cts,
        });
        if s.windows.len() >= s.cap {
            s.coalesce();
        }
        // Next boundary strictly after `at`, on the (possibly doubled)
        // window grid.
        let w = s.window_ticks;
        s.next_boundary = (at / w + 1) * w;
    }

    /// A consistent copy of everything recorded so far (`None` when
    /// disabled).
    pub fn dump(&self) -> Option<SampleDump> {
        let s = self.0.as_ref()?.lock().unwrap();
        Some(SampleDump {
            window_ticks: s.window_ticks,
            port_names: s.port_names.clone(),
            counter_names: s.counter_names.clone(),
            windows: s.windows.clone(),
            coalesced: s.coalesced,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::Channel;

    fn snap(name: &str, pushed: u64, stalls: u64) -> PortSnapshot {
        let mut ch = Channel::<u64>::unbounded();
        for v in 0..pushed {
            ch.tx().offer(v).unwrap();
        }
        ch.note_stalls(stalls);
        ch.snapshot(name)
    }

    #[test]
    fn disabled_sampler_is_inert() {
        let s = Sampler::disabled();
        assert!(!s.on());
        assert_eq!(s.next_boundary(), Tick::MAX);
        s.record_at(1_000_000, &[snap("p", 1, 1)], &[("c", 1)]);
        assert!(s.dump().is_none());
    }

    #[test]
    fn records_only_at_boundaries_and_advances() {
        let s = Sampler::enabled(100, 16);
        s.record_at(50, &[snap("p", 1, 0)], &[]);
        assert!(s.dump().unwrap().windows.is_empty());
        s.record_at(100, &[snap("p", 2, 1)], &[("busy", 7)]);
        assert_eq!(s.next_boundary(), 200);
        s.record_at(150, &[snap("p", 3, 1)], &[("busy", 8)]);
        let d = s.dump().unwrap();
        assert_eq!(d.windows.len(), 1);
        assert_eq!(d.port_at(0, "p").pushed, 2);
        assert_eq!(d.counter_at(0, "busy"), 7);
    }

    #[test]
    fn boundary_overshoot_lands_back_on_the_grid() {
        let s = Sampler::enabled(100, 16);
        // A skip-ahead host might first observe the boundary late.
        s.record_at(130, &[], &[]);
        assert_eq!(s.next_boundary(), 200);
        s.record_at(200, &[], &[]);
        assert_eq!(s.next_boundary(), 300);
        let d = s.dump().unwrap();
        assert_eq!(d.windows[0].at, 130);
        assert_eq!(d.windows[1].at, 200);
    }

    #[test]
    fn late_born_ports_read_zero_in_earlier_windows() {
        let s = Sampler::enabled(10, 16);
        s.record_at(10, &[snap("a", 5, 0)], &[]);
        s.record_at(20, &[snap("a", 6, 0), snap("b", 2, 1)], &[("k", 3)]);
        let d = s.dump().unwrap();
        assert_eq!(d.port_at(0, "b"), PortPoint::default());
        assert_eq!(d.port_at(1, "b").stalls, 1);
        assert_eq!(d.counter_at(0, "k"), 0);
        assert_eq!(d.counter_at(1, "k"), 3);
    }

    #[test]
    fn ring_coalesces_to_stay_bounded() {
        let s = Sampler::enabled(10, 8);
        for i in 1..=64u64 {
            s.record_at(i * 10, &[snap("p", i, i)], &[]);
        }
        let d = s.dump().unwrap();
        assert!(
            d.windows.len() < 8,
            "ring stayed bounded: {}",
            d.windows.len()
        );
        assert!(d.coalesced >= 3);
        assert!(d.window_ticks >= 80);
        // Boundaries stay strictly increasing and the final cumulative
        // value survives coalescing.
        assert!(d.windows.windows(2).all(|w| w[0].at < w[1].at));
        assert_eq!(d.windows.last().unwrap().at, 640);
        assert_eq!(d.port_at(d.windows.len() - 1, "p").pushed, 64);
    }

    #[test]
    fn dump_is_deterministic_across_clones() {
        let s = Sampler::enabled(10, 8);
        let s2 = s.clone();
        s.record_at(10, &[snap("p", 1, 0)], &[("c", 1)]);
        s2.record_at(20, &[snap("p", 2, 1)], &[("c", 2)]);
        assert_eq!(s.dump(), s2.dump());
    }
}
