//! # distda-check
//!
//! The invariant sanitizer: a checker layer that components of the
//! simulated machine consult at their boundaries to assert conservation
//! laws — flits injected equal flits delivered plus in flight, channel
//! credits never exceed capacity, MSHRs drain empty, cache occupancy stays
//! within geometry, timestamps never run backwards. Violations are
//! *recorded*, not panicked on: the owning run loop surfaces them through
//! its typed error so a broken invariant reports the component, the tick
//! and a diagnostic instead of aborting a whole sweep.
//!
//! A disabled [`Sanitizer`] (the default in release builds) is a `None`
//! handle: every check short-circuits on one branch, so the hot paths pay
//! nothing. The `DISTDA_SANITIZE` environment knob (parsed by
//! `distda_sim::env`, which sits above this crate) forces it on (`1`) or
//! off (`0`); when unset it follows `cfg!(debug_assertions)` so every
//! debug test run is sanitized for free.
//!
//! ```
//! use distda_check::Sanitizer;
//! let san = Sanitizer::enabled();
//! san.check(false, "noc", "flit-conservation", 42, || "lost a flit".into());
//! assert_eq!(san.count(), 1);
//! assert!(san.render().contains("flit-conservation"));
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Base-clock tick count (6 GHz base tick in the Dist-DA machine).
///
/// Kept as a local alias so this crate sits below `distda-sim` in the
/// dependency order; `distda_sim::Tick` is the same `u64`.
pub type Tick = u64;

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Component that detected it (`"noc"`, `"mem"`, `"machine.chan"`, ...).
    pub component: String,
    /// Short invariant name (`"flit-conservation"`, `"mshr-drain"`, ...).
    pub invariant: &'static str,
    /// Base tick at which it was detected.
    pub tick: Tick,
    /// Human-readable diagnostic.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} at tick {}: {}",
            self.component, self.invariant, self.tick, self.detail
        )
    }
}

#[derive(Debug, Default)]
struct Inner {
    count: AtomicUsize,
    violations: Mutex<Vec<Violation>>,
}

/// Violations kept verbatim; later ones only bump the count.
const KEEP: usize = 64;

/// A cloneable handle to a shared violation log. Disabled handles make
/// every check a no-op; see the crate docs for the gating policy.
#[derive(Debug, Clone, Default)]
pub struct Sanitizer {
    inner: Option<Arc<Inner>>,
}

impl Sanitizer {
    /// A disabled sanitizer: every check is a cheap no-op.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled sanitizer with an empty violation log.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// Whether checks are recorded.
    pub fn on(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of violations recorded so far (0 when disabled). Cheap
    /// enough to poll every run-loop iteration.
    pub fn count(&self) -> usize {
        match &self.inner {
            Some(i) => i.count.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Records a violation unconditionally (when enabled).
    pub fn flag(&self, component: &str, invariant: &'static str, tick: Tick, detail: String) {
        if self.inner.is_some() {
            self.record(Violation {
                component: component.to_string(),
                invariant,
                tick,
                detail,
            });
        }
    }

    /// Records an already-built violation (when enabled), e.g. one from a
    /// posthoc audit that returns its findings.
    pub fn record(&self, v: Violation) {
        let Some(i) = &self.inner else { return };
        let n = i.count.fetch_add(1, Ordering::Relaxed);
        if n < KEEP {
            i.violations.lock().unwrap().push(v);
        }
    }

    /// Records a violation if `cond` is false. The diagnostic closure only
    /// runs on failure, so callers may format freely.
    pub fn check(
        &self,
        cond: bool,
        component: &str,
        invariant: &'static str,
        tick: Tick,
        detail: impl FnOnce() -> String,
    ) {
        if self.inner.is_some() && !cond {
            self.flag(component, invariant, tick, detail());
        }
    }

    /// Checked timestamp subtraction: flags an inversion (`now < earlier`)
    /// and returns the same saturating value the unchecked site computed,
    /// so recorded statistics stay bit-identical with the sanitizer on or
    /// off.
    pub fn checked_elapsed(
        &self,
        component: &str,
        invariant: &'static str,
        now: Tick,
        earlier: Tick,
    ) -> Tick {
        if self.inner.is_some() && now < earlier {
            self.flag(
                component,
                invariant,
                now,
                format!("timestamp inversion: now {now} < earlier {earlier}"),
            );
        }
        now.saturating_sub(earlier)
    }

    /// Drains the recorded violations (empty when disabled).
    pub fn take(&self) -> Vec<Violation> {
        match &self.inner {
            Some(i) => std::mem::take(&mut *i.violations.lock().unwrap()),
            None => Vec::new(),
        }
    }

    /// Renders every recorded violation, one per line, noting any that
    /// were dropped past the retention cap.
    pub fn render(&self) -> String {
        let Some(i) = &self.inner else {
            return String::new();
        };
        let total = i.count.load(Ordering::Relaxed);
        let kept = i.violations.lock().unwrap();
        let mut out = kept
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        if total > kept.len() {
            out.push_str(&format!("\n(+{} more)", total - kept.len()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let s = Sanitizer::disabled();
        s.flag("x", "inv", 0, "boom".into());
        s.check(false, "x", "inv", 0, || "boom".into());
        assert_eq!(s.count(), 0);
        assert!(s.take().is_empty());
        assert!(!s.on());
    }

    #[test]
    fn enabled_records_and_renders() {
        let s = Sanitizer::enabled();
        s.check(true, "a", "ok", 1, || unreachable!());
        s.check(false, "a", "bad", 2, || "detail".into());
        assert_eq!(s.count(), 1);
        let text = s.render();
        assert!(text.contains("[a] bad at tick 2: detail"));
        let v = s.take();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "bad");
    }

    #[test]
    fn clones_share_the_log() {
        let s = Sanitizer::enabled();
        let t = s.clone();
        t.flag("b", "shared", 7, "via clone".into());
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn checked_elapsed_matches_saturating_sub() {
        let s = Sanitizer::enabled();
        assert_eq!(s.checked_elapsed("c", "mono", 10, 4), 6);
        assert_eq!(s.count(), 0);
        // Inversion: same (saturated) value, but flagged.
        assert_eq!(s.checked_elapsed("c", "mono", 4, 10), 0);
        assert_eq!(s.count(), 1);
        // Disabled: silent and identical.
        let d = Sanitizer::disabled();
        assert_eq!(d.checked_elapsed("c", "mono", 4, 10), 0);
        assert_eq!(d.count(), 0);
    }

    #[test]
    fn retention_cap_keeps_counting() {
        let s = Sanitizer::enabled();
        for i in 0..(KEEP + 10) {
            s.flag("x", "many", i as Tick, String::new());
        }
        assert_eq!(s.count(), KEEP + 10);
        assert!(s.render().contains("(+10 more)"));
    }
}
