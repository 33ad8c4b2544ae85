//! The wake cache: one cached wake per entry, and the marks that say which
//! entries must be asked again.
//!
//! Two levels of the simulator keep one. The [`Scheduler`] caches the wake
//! of each registered component (a *stage*), and the machine's engine
//! stage caches the wake of each engine it ticks. At both levels an
//! entry is what its owner's uncached answer (`next_event` for a stage)
//! was when last asked, and a hand-over that can move that answer *marks*
//! the entry. An unmarked entry equals the uncached answer at any tick up
//! to the entry itself: only the owner's own tick or a marked hand-over
//! moves its inputs, and a wake does not move while the clock approaches
//! it. A cached wake that is too early costs a no-op tick; one that is
//! too late changes results, so the marks must cover every hand-over that
//! can move a wake earlier (extra marks are allowed).
//!
//! The cache does the level-independent part: the *due test* (a marked
//! entry is asked again, then compared with `now`), the *minimum fold*
//! (which stops at an entry equal to `now`, since no wake is earlier) and
//! the sanitizer's `wake-cache` rule, which compares an unmarked entry
//! with a fresh answer and names the level and the entry it flags.
//!
//! [`Scheduler`]: crate::component::Scheduler

use crate::time::Tick;
use distda_check::Sanitizer;
use std::cell::Cell;

/// A cache entry for an owner that only external input can wake.
pub const NO_WAKE: Tick = Tick::MAX;

/// Cached wakes and their marks, for any number of entries (see the
/// module docs). New entries start marked.
#[derive(Debug, Clone, Default)]
pub struct WakeCache {
    /// The level a `wake-cache` flag names (`stage`, `engine`).
    level: &'static str,
    /// The entries, each with its mark beside it, so that a due test
    /// reads one place.
    entries: Vec<Entry>,
    /// The tick of the last [`WakeCache::first_ask_at`], plus one (0 for
    /// never).
    asked: Cell<Tick>,
}

/// One entry of a [`WakeCache`].
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// The cached wake ([`NO_WAKE`] for none); exact while unmarked.
    at: Tick,
    /// Marked since the wake was last asked.
    marked: bool,
}

impl WakeCache {
    /// An empty cache whose flags name `level`.
    pub fn new(level: &'static str) -> Self {
        let empty = Self::default();
        Self { level, ..empty }
    }

    /// Adds an entry after the last one, marked.
    pub fn push(&mut self) {
        self.entries.push(Entry {
            at: NO_WAKE,
            marked: true,
        });
    }

    /// Marks entry `i`: its wake is asked again before it is next read.
    pub fn mark(&mut self, i: usize) {
        self.entries[i].marked = true;
    }

    /// Marks entry `b` for every bit `b` set in `bits`.
    pub fn mark_bits(&mut self, mut bits: u64) {
        while bits != 0 {
            self.mark(bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }

    /// Marks every entry.
    pub fn mark_all(&mut self) {
        self.entries.iter_mut().for_each(|e| e.marked = true);
    }

    /// Whether any entry is marked.
    pub fn any_marked(&self) -> bool {
        self.entries.iter().any(|e| e.marked)
    }

    /// Entry `i` as cached, marked or not.
    pub fn get(&self, i: usize) -> Tick {
        self.entries[i].at
    }

    /// Stores `wake` as entry `i` and unmarks it.
    pub fn set(&mut self, i: usize, wake: Tick) {
        let e = &mut self.entries[i];
        (e.at, e.marked) = (wake, false);
    }

    /// Entry `i`, first stored from `ask` if the entry is marked.
    #[inline]
    pub fn refresh(&mut self, i: usize, ask: impl FnOnce() -> Tick) -> Tick {
        let e = &mut self.entries[i];
        if e.marked {
            (e.at, e.marked) = (ask(), false);
        }
        e.at
    }

    /// The due test: whether entry `i`, refreshed, is at or before `now`.
    #[inline]
    pub fn due(&mut self, i: usize, now: Tick, ask: impl FnOnce() -> Tick) -> bool {
        self.refresh(i, ask) <= now
    }

    /// Entry `i`, or `ask`'s answer, not stored, if the entry is marked:
    /// the read of a level that probes without changing its cache.
    #[inline]
    pub fn peek(&self, i: usize, ask: impl FnOnce() -> Tick) -> Tick {
        match self.entries[i] {
            Entry { marked: true, .. } => ask(),
            Entry { at, .. } => at,
        }
    }

    /// The minimum fold over `(entry, wake)` pairs, in the given order:
    /// the earliest wake and the first entry that holds it. Every wake is
    /// `>= now`, so the fold stops at the first one equal to `now`
    /// without reading the rest.
    #[inline]
    pub fn min(now: Tick, wakes: impl IntoIterator<Item = (usize, Tick)>) -> (Tick, Option<usize>) {
        let (mut w, mut argmin) = (NO_WAKE, None);
        for (i, at) in wakes {
            if at < w {
                (w, argmin) = (at, Some(i));
                if w <= now {
                    break;
                }
            }
        }
        (w, argmin)
    }

    /// Whether this is the first call at `now`: a level whose probe runs
    /// several times a tick checks its entries on the first only. A
    /// hand-over later in the tick that misses a mark leaves an entry
    /// stale until the next tick's check.
    pub fn first_ask_at(&self, now: Tick) -> bool {
        self.asked.replace(now + 1) != now + 1
    }

    /// The `wake-cache` rule for entry `i` of `component`: unless marked,
    /// its cached wake equals `fresh`, the level's uncached answer at
    /// `now`, and `broken` (a further condition of the level, described
    /// when it fails) is `None`. The component is named only on a
    /// violation: a sanitized probe checks every entry.
    pub fn check<'a>(
        &self,
        san: &Sanitizer,
        component: impl FnOnce() -> &'a str,
        i: usize,
        fresh: Tick,
        now: Tick,
        broken: Option<&str>,
    ) {
        let e = self.entries[i];
        if e.marked || (e.at == fresh && broken.is_none()) {
            return;
        }
        let show = |t: Tick| (t != NO_WAKE).then_some(t);
        let (level, cached, fresh) = (self.level, show(e.at), show(fresh));
        let b = broken.map_or(String::new(), |b| format!(", {b}"));
        let detail = format!("{level} {i} unmarked: cached wake {cached:?}, fresh {fresh:?}{b}");
        san.flag(component(), "wake-cache", now, detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cache of `n` engine entries, each asked once so that none is
    /// marked.
    fn settled(n: usize, wake: impl Fn(usize) -> Tick) -> WakeCache {
        let mut c = WakeCache::new("engine");
        for i in 0..n {
            c.push();
            c.set(i, wake(i));
        }
        assert!(!c.any_marked());
        c
    }

    #[test]
    fn marks_reach_past_64_entries() {
        let mut c = settled(76, |i| 100 + i as Tick);
        c.mark(70);
        let marked: Vec<usize> = (0..76).filter(|&i| c.entries[i].marked).collect();
        assert_eq!(marked, [70]);
        // Only entry 70 asks again.
        let mut asked = Vec::new();
        for i in 0..76 {
            c.refresh(i, || {
                asked.push(i);
                5
            });
        }
        assert_eq!(asked, [70]);
        assert_eq!(c.get(70), 5);
        assert!(!c.any_marked());
        c.mark_bits(1 << 2 | 1 << 63);
        let marked: Vec<usize> = (0..76).filter(|&i| c.entries[i].marked).collect();
        assert_eq!(marked, [2, 63]);
        c.mark_all();
        assert!((0..76).all(|i| c.entries[i].marked));
        // A new entry starts marked: it is asked before it is read.
        let mut c = settled(76, |_| 9);
        c.push();
        assert!(c.entries[76].marked && !c.entries[75].marked);
    }

    #[test]
    fn the_due_test_asks_a_marked_entry_then_compares_with_now() {
        let mut c = settled(2, |_| 10);
        // Unmarked: the cached wake decides, and nothing is asked.
        assert!(!c.due(0, 9, || unreachable!()));
        assert!(c.due(0, 10, || unreachable!()));
        // Marked: the fresh answer is stored and decides.
        c.mark(1);
        assert!(c.due(1, 3, || 3));
        assert!(!c.entries[1].marked);
        assert_eq!(c.get(1), 3);
        // A peek asks a marked entry but keeps nothing.
        c.mark(1);
        assert_eq!(c.peek(1, || 7), 7);
        assert!(c.entries[1].marked);
        assert_eq!(c.get(1), 3);
    }

    #[test]
    fn the_minimum_stops_at_now() {
        let mut read = Vec::new();
        let wakes = [(0, 9), (1, 4), (2, 4), (3, 2)];
        let (w, argmin) = WakeCache::min(
            4,
            wakes.iter().map(|&(i, t)| {
                read.push(i);
                (i, t)
            }),
        );
        // Entry 1 holds `now`: the fold stops there, entry 3 is never read.
        assert_eq!((w, argmin), (4, Some(1)));
        assert_eq!(read, [0, 1]);
        assert_eq!(WakeCache::min(0, wakes), (2, Some(3)));
        assert_eq!(WakeCache::min(0, []), (NO_WAKE, None));
    }

    #[test]
    fn a_stale_unmarked_entry_is_flagged_with_its_level() {
        let c = settled(3, |_| 10);
        let san = Sanitizer::enabled();
        c.check(&san, || "engine.all", 1, 10, 0, None);
        assert_eq!(san.count(), 0);
        c.check(&san, || "engine.all", 1, 8, 0, None);
        c.check(
            &san,
            || "engine.all",
            2,
            10,
            0,
            Some("a response waits at its port"),
        );
        let report = san.render();
        assert_eq!(san.count(), 2, "{report}");
        assert!(report.contains("wake-cache"), "{report}");
        assert!(report.contains("engine 1 unmarked"), "{report}");
        assert!(report.contains("engine 2 unmarked"), "{report}");
        assert!(report.contains("a response waits at its port"), "{report}");
        // A marked entry is not compared.
        let mut c = c;
        c.mark(1);
        let san = Sanitizer::enabled();
        c.check(&san, || "engine.all", 1, 8, 0, None);
        assert_eq!(san.count(), 0);
        // A stage entry names its component and its level.
        let mut stages = WakeCache::new("stage");
        stages.push();
        stages.set(0, NO_WAKE);
        stages.check(&san, || "mem", 0, 12, 5, None);
        let report = san.render();
        assert!(report.contains("mem"), "{report}");
        assert!(report.contains("stage 0 unmarked"), "{report}");
        assert!(
            report.contains("cached wake None, fresh Some(12)"),
            "{report}"
        );
    }
}
