//! The component/scheduler substrate: one uniform protocol for everything
//! that does work on the 6 GHz base tick.
//!
//! The machine is a set of independently-clocked structural units (host
//! core, cache hierarchy, mesh, accelerator engines, operand channels).
//! Before this module existed, the system crate's tick loop, its skip-ahead
//! wake probe, its drain predicate and its drain audit each enumerated
//! those units by hand with ad-hoc `tick`/`next_event`/`is_active`
//! signatures — so adding a component meant updating four places, and
//! forgetting one produced exactly the stranded-packet class of bug the
//! sanitizer exists to catch. Here the enumeration happens once:
//! components implement [`Component`] and are registered with a
//! [`Scheduler`], which owns the clock, the stage-order wake probe (with
//! its `== now` early exit), idle skip-ahead, the tick budget, the drain
//! loop and the drain audit.
//!
//! ## The world parameter
//!
//! `Component<W>` is generic over a *world* `W`: the shared mutable state
//! every component operates on (for the full machine, the memory system,
//! channel buffers, functional image and so on live in the world; each
//! registered component is a thin view that knows which part of the world
//! is "its" state). This sidesteps the aliasing problem of a scheduler
//! that owns components which also need `&mut` access to each other —
//! e.g. the host and every engine issue requests into the memory system
//! during their own tick. Self-contained components (the mesh, a
//! standalone memory system) implement `Component<W>` for every `W` and
//! can be scheduled with `W = ()`.
//!
//! ## Protocol contract
//!
//! - [`Component::tick`] does one base tick of work. Components gate
//!   internally on their own [`ClockDomain`](crate::time::ClockDomain)
//!   edges. With skip-ahead off the scheduler calls every component on
//!   every simulated tick, in registration *stage* order; with it on, only
//!   the components that are due (see "Stage wakes" below). A tick
//!   returns a [`Ticked`]: the stages it handed work to, and optionally
//!   its own next wake.
//! - [`Component::next_event`] reports the earliest tick `>= now` at
//!   which the component could do observable work, or `None` when only
//!   external input (another component's action) can wake it. Reporting
//!   too early costs time; reporting too late breaks bit-identity between
//!   skipping and non-skipping runs. A tick at any tick before that wake
//!   must be a no-op. The scheduler (with the sanitizer on) flags wake
//!   times in the past.
//! - [`Component::is_quiescent`] holds when the component has no in-flight
//!   work at all — the machine may stop when every component is quiescent.
//! - [`Component::audit_drained`] asserts conservation invariants of the
//!   drained state against the [`Sanitizer`].
//! - [`Component::sample`] contributes the component's ports and counters
//!   to an explain window record; the run loop calls it, never a wake.
//!
//! ## Stage wakes
//!
//! The scheduler keeps each component's wake in a [`WakeCache`] (whose
//! docs give the argument that an unmarked entry is exact) and asks
//! `next_event` again only when the component ticked (unless the tick
//! reported its own wake) or another component *marked* it: a tick marks
//! every stage whose `next_event` its hand-overs can change (a request
//! queued, a response pushed, a packet injected or delivered). With
//! skip-ahead on, a component ticks only when its entry is due, tested
//! right before its turn in stage order so that hand-overs made earlier
//! in the same tick count, and the wake probe is the cache's minimum
//! fold. Everything that changes the world between runs (entering a run
//! loop, a public [`Scheduler::tick`], registering a component, new
//! instruments, the skip setting) marks every stage. With the sanitizer
//! on, each probe checks every unmarked entry against a fresh
//! `next_event` (`wake-cache`, level `stage`).

use crate::port::PortSnapshot;
use crate::profile::Profiler;
use crate::sample::Sampler;
use crate::time::Tick;
use crate::wake::{WakeCache, NO_WAKE};
use distda_check::Sanitizer;
use distda_trace::Tracer;
use std::time::Instant;

/// The instrumentation bundle handed to every component: the tracer, the
/// invariant sanitizer, the scheduler self-profiler and the explain
/// sampler. All four are cheap cloneable handles that are free when
/// disabled, so components hold copies rather than references. None of
/// them steers the run: a run executes the same ticks with any of them
/// attached.
#[derive(Debug, Clone, Default)]
pub struct Instruments {
    /// Event/metrics tracing (disabled by default).
    pub tracer: Tracer,
    /// Invariant sanitizer (disabled by default).
    pub san: Sanitizer,
    /// Scheduler self-profiler (disabled by default). Unlike the tracer
    /// and sanitizer, components never emit into it themselves — the
    /// scheduler times their `tick()` calls and adds its counts to it.
    pub prof: Profiler,
    /// Windowed explain sampler (disabled by default). The run loop
    /// records every window boundary the clock passes, executed or
    /// skipped, from the components' [`Component::sample`] views.
    pub sampler: Sampler,
}

impl Instruments {
    /// Every instrument disabled: zero-cost instrumentation.
    pub fn disabled() -> Self {
        Self::default()
    }
}

/// The [`Ticked::wake`] of a tick that leaves the wake to `next_event`. A
/// reported wake is later than the tick that reports it, so it is never 0.
const ASK: Tick = 0;

/// What one [`Component::tick`] hands back to the scheduler: the stages it
/// handed work to (its *marks*, see the module docs), and the component's
/// own next wake when it knows it without a `next_event` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct Ticked {
    /// Bit `s` set: the tick handed work to the components at stage `s`.
    marks: u64,
    /// The self-reported wake ([`NO_WAKE`] for none), or [`ASK`].
    wake: Tick,
}

impl Ticked {
    /// Nothing handed over; the scheduler asks `next_event` for the wake.
    pub const NOTHING: Self = Self {
        marks: 0,
        wake: ASK,
    };

    /// Marks every component at `stage` when `handed` holds: its
    /// `next_event` is asked again before its next due test.
    #[inline]
    pub fn mark_if(mut self, handed: bool, stage: u32) -> Self {
        debug_assert!(stage < 64, "stage {stage} outside the 64-bit mark set");
        self.marks |= u64::from(handed) << stage;
        self
    }

    /// Reports the ticking component's own wake: what its `next_event`
    /// would answer from the next tick on, absent further hand-overs.
    #[inline]
    pub fn wake(mut self, wake: Option<Tick>) -> Self {
        self.wake = wake.unwrap_or(NO_WAKE);
        self
    }
}

/// One structural unit of the simulated machine. See the module docs for
/// the protocol contract; `W` is the shared world state.
pub trait Component<W> {
    /// Stable diagnostic name (`"mem"`, `"noc"`, `"engine.3"`, ...).
    fn name(&self) -> &str;

    /// (Re-)binds instrumentation. Called once at registration and again
    /// whenever the scheduler's [`Instruments`] are replaced; components
    /// that hold trace sinks or sanitizer handles refresh them here.
    fn attach(&mut self, _world: &mut W, _instr: &Instruments) {}

    /// Advances one base tick of work at `now`, and reports the stages
    /// it handed work to (see [`Ticked`]).
    fn tick(&mut self, now: Tick, world: &mut W, instr: &mut Instruments) -> Ticked;

    /// Earliest tick `>= now` at which this component could do observable
    /// work, `None` if only external input can wake it.
    fn next_event(&self, now: Tick, world: &W) -> Option<Tick>;

    /// Whether the component holds no in-flight work at all.
    fn is_quiescent(&self, now: Tick, world: &W) -> bool;

    /// Audits the drained state against conservation invariants. Only
    /// called once the whole machine is quiescent, and only with the
    /// sanitizer enabled.
    fn audit_drained(&self, _now: Tick, _world: &W, _san: &Sanitizer) {}

    /// Describes this component's stalled work for deadlock/budget error
    /// reports, `None` if nothing is visibly stuck.
    fn stall(&self, _now: Tick, _world: &W) -> Option<String> {
        None
    }

    /// Appends this component's share of the explain record at window
    /// boundary `at`: cumulative port statistics and named cumulative
    /// counters, as of the end of tick `at`. Only called with a sampler
    /// attached, once the clock has passed `at`; every tick since was a
    /// no-op, so the view must be a pure function of the world and `at`.
    fn sample(
        &self,
        _at: Tick,
        _world: &W,
        _ports: &mut Vec<PortSnapshot>,
        _counters: &mut Vec<(String, u64)>,
    ) {
    }
}

/// Why a [`Scheduler`] run loop stopped short of its exit condition.
/// Phase-agnostic; callers label it with their run-loop phase when
/// converting to their own error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stop {
    /// The tick budget ran out before the exit condition held.
    Budget {
        /// Tick at which the budget was exhausted.
        now: Tick,
        /// The configured budget.
        budget: u64,
        /// Fold of every component's [`Component::stall`] report.
        stalled: String,
    },
    /// Every component reported no internally scheduled event (the wake
    /// fold returned `None`), yet the exit condition still does not hold.
    Deadlock {
        /// Tick at which the deadlock was proven.
        now: Tick,
        /// Fold of every component's [`Component::stall`] report.
        stalled: String,
    },
    /// The sanitizer recorded one or more invariant violations.
    Invariant {
        /// Tick at which the run was stopped.
        now: Tick,
        /// Total violations recorded.
        count: usize,
        /// Rendered violation log.
        report: String,
    },
}

struct Slot<W> {
    /// Tick-phase ordering key; ties broken by registration order.
    stage: u32,
    comp: Box<dyn Component<W>>,
    /// Profiled host ns inside `tick()`, ticks run and wakes chosen, not
    /// yet added to the profiler.
    host_ns: u64,
    ran: u64,
    wakes: u64,
}

/// Owns the clock and orchestrates registered components: the lock-step
/// tick loop, the skip-ahead wake probe, the tick budget, run loops and
/// the drain loop with its invariant audit. It is the one place ticks
/// are counted as executed or skipped.
///
/// Components tick in ascending *stage* order (ties in registration
/// order), so a fixed intra-tick phase structure — deliver, issue,
/// compute, inject, route — is expressed by stage numbers rather than by
/// the order of statements in a hand-written loop. [`Instruments`] attach
/// in registration order, which keeps trace track IDs stable regardless
/// of stage assignments.
pub struct Scheduler<W> {
    now: Tick,
    /// Absolute tick at which bounded runs stop with [`Stop::Budget`]
    /// (the conformance harness narrows it for one run).
    pub(crate) tick_budget: u64,
    skip: bool,
    instr: Instruments,
    /// The next window boundary the sampler records ([`Tick::MAX`] with
    /// the sampler off), cached so the per-tick test is a compare.
    sample_at: Tick,
    /// Registration order (stable track/audit order).
    comps: Vec<Slot<W>>,
    /// Indices into `comps`, sorted by (stage, registration order).
    tick_order: Vec<usize>,
    /// Each component's cached wake, by registration order; an entry is
    /// marked when the component was marked or ticked since its wake was
    /// last asked.
    wakes: WakeCache,
    /// Per stage number, the bits of the components registered at it.
    stage_slots: [u64; 64],
    /// Base ticks executed; the other `now - executed` were skipped.
    executed: u64,
    /// Skip-ahead jumps taken.
    skip_spans: u64,
    /// Profiled wake probes and their host ns, not yet added to the
    /// profiler.
    probes: u64,
    probe_ns: u64,
    /// `(now, executed, skip_spans)` when last added to the profiler.
    flushed: (Tick, u64, u64),
}

impl<W> std::fmt::Debug for Scheduler<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("tick_budget", &self.tick_budget)
            .field("skip", &self.skip)
            .field(
                "components",
                &self
                    .tick_order
                    .iter()
                    .map(|&i| self.comps[i].comp.name())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl<W> Scheduler<W> {
    /// A scheduler at tick 0 with the given budget, skip-ahead setting and
    /// disabled instrumentation.
    pub fn new(tick_budget: u64, skip: bool) -> Self {
        Self {
            now: 0,
            tick_budget,
            skip,
            instr: Instruments::disabled(),
            sample_at: Tick::MAX,
            comps: Vec::new(),
            tick_order: Vec::new(),
            wakes: WakeCache::new("stage"),
            stage_slots: [0; 64],
            executed: 0,
            skip_spans: 0,
            probes: 0,
            probe_ns: 0,
            flushed: (0, 0, 0),
        }
    }

    /// Current base tick.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// The configured tick budget.
    pub fn tick_budget(&self) -> u64 {
        self.tick_budget
    }

    /// Enables or disables idle skip-ahead. Simulated results are
    /// bit-identical either way.
    pub fn set_skip(&mut self, on: bool) {
        self.skip = on;
        self.wakes.mark_all();
    }

    /// The current instrumentation bundle.
    pub fn instruments(&self) -> &Instruments {
        &self.instr
    }

    /// Replaces the instrumentation bundle and re-attaches every
    /// component, in registration order. The outgoing profiler gets the
    /// counts it is owed; the incoming one counts from here.
    pub fn set_instruments(&mut self, world: &mut W, instr: Instruments) {
        self.flush_profile();
        self.sample_at = instr.sampler.next_boundary();
        self.instr = instr;
        for slot in &mut self.comps {
            slot.comp.attach(world, &self.instr);
        }
        self.wakes.mark_all();
    }

    /// Registers a component at tick-phase `stage` and attaches the
    /// current instruments to it. Registration is the *only* step needed
    /// to include a component in the tick loop, the wake probe, the drain
    /// predicate and the drain audit.
    ///
    /// # Panics
    ///
    /// Panics past 64 components or at a stage number of 64 or more: the
    /// wake cache's marks are 64-bit sets.
    pub fn register(&mut self, stage: u32, mut comp: Box<dyn Component<W>>, world: &mut W) {
        let idx = self.comps.len();
        assert!(
            idx < 64 && stage < 64,
            "marks cover 64 components and stages"
        );
        // The profiler counts the newcomer from here.
        self.flush_profile();
        comp.attach(world, &self.instr);
        self.comps.push(Slot {
            stage,
            comp,
            host_ns: 0,
            ran: 0,
            wakes: 0,
        });
        self.stage_slots[stage as usize] |= 1 << idx;
        self.wakes.push();
        self.wakes.mark_all();
        let pos = self
            .tick_order
            .partition_point(|&i| self.comps[i].stage <= stage);
        self.tick_order.insert(pos, idx);
    }

    /// Registered components in tick (stage) order.
    pub fn components(&self) -> impl Iterator<Item = &dyn Component<W>> {
        self.tick_order.iter().map(|&i| &*self.comps[i].comp)
    }

    /// One base tick: every component that is due (every one with
    /// skip-ahead off), in stage order, then advance the clock and
    /// record a window boundary the tick closed. With the self-profiler
    /// on, each `tick()` that runs is timed against the host monotonic
    /// clock, and the counts are added to the profiler on return;
    /// profiling never changes what components do.
    pub fn tick(&mut self, world: &mut W) {
        self.wakes.mark_all();
        self.step(world);
        self.flush_profile();
    }

    /// [`Scheduler::tick`] without marking or adding to the profiler.
    ///
    /// With skip-ahead on, each component's due test is made right before
    /// its turn: a marked entry is asked again, and the component ticks
    /// only if its entry is `now`. A component that ticked is marked
    /// unless it reported its own wake; its marks are added.
    fn step(&mut self, world: &mut W) {
        let now = self.now;
        let prof = self.instr.prof.on();
        for k in 0..self.tick_order.len() {
            let i = self.tick_order[k];
            let slot = &mut self.comps[i];
            let ask = || slot.comp.next_event(now, world).unwrap_or(NO_WAKE);
            if self.skip && !self.wakes.due(i, now, ask) {
                continue;
            }
            let t = if prof {
                let t0 = Instant::now();
                let t = slot.comp.tick(now, world, &mut self.instr);
                slot.host_ns += t0.elapsed().as_nanos() as u64;
                slot.ran += 1;
                t
            } else {
                slot.comp.tick(now, world, &mut self.instr)
            };
            if t.wake == ASK {
                self.wakes.mark(i);
            } else {
                debug_assert!(t.wake > now, "{} reported a wake <= now", slot.comp.name());
                self.wakes.set(i, t.wake);
            }
            let mut stages = t.marks;
            while stages != 0 {
                let s = stages.trailing_zeros() as usize;
                self.wakes.mark_bits(self.stage_slots[s]);
                stages &= stages - 1;
            }
        }
        self.executed += 1;
        self.now += 1;
        self.sample_passed(world);
    }

    /// Adds the counts since the last call to the profiler, if any, by
    /// component name.
    fn flush_profile(&mut self) {
        let (now, executed, spans) = (self.now, self.executed, self.skip_spans);
        let (t0, e0, s0) = std::mem::replace(&mut self.flushed, (now, executed, spans));
        let probes = std::mem::take(&mut self.probes);
        let probe_ns = std::mem::take(&mut self.probe_ns);
        let comps = &mut self.comps;
        self.instr.prof.add(|p| {
            p.ticks_executed += executed - e0;
            p.ticks_skipped += (now - t0) - (executed - e0);
            p.skip_spans += spans - s0;
            p.probes += probes;
            p.probe_ns += probe_ns;
            for slot in comps {
                let c = p.comp_mut(slot.comp.name());
                c.host_ns += std::mem::take(&mut slot.host_ns);
                c.wakes += std::mem::take(&mut slot.wakes);
                c.active_ticks += std::mem::take(&mut slot.ran);
            }
        });
    }

    /// Records every window boundary below `now` into the sampler. Ticks
    /// after a boundary were either not run yet or skipped as no-ops, so
    /// the world still holds the state at the end of the boundary tick,
    /// and the components' [`Component::sample`] views are pure in it.
    #[inline]
    fn sample_passed(&mut self, world: &W) {
        while self.sample_at < self.now {
            let at = self.sample_at;
            let (mut ports, mut counters) = (Vec::new(), Vec::new());
            for c in self.components() {
                c.sample(at, world, &mut ports, &mut counters);
            }
            let refs: Vec<(&str, u64)> = counters.iter().map(|(n, v)| (n.as_str(), *v)).collect();
            self.instr.sampler.record_at(at, &ports, &refs);
            self.sample_at = self.instr.sampler.next_boundary();
        }
    }

    /// Earliest base tick `>= now` at which any component would do
    /// observable work, `None` if no component will ever act again
    /// without new input.
    ///
    /// The fold is the wake cache's minimum over the entries in stage
    /// order; a marked entry is asked again first. Every candidate is
    /// contractually `>= now`, so an entry equal to `now` is already the
    /// global minimum and the fold stops there. With the sanitizer on,
    /// every component is first asked a fresh `next_event` and checked
    /// against its entry; the minimum is the same. The profiler times the
    /// probe and counts a wake for the component the fold settles on.
    pub fn next_wake(&mut self, world: &W) -> Option<Tick> {
        if !self.instr.prof.on() {
            return self.wake_fold(world).0;
        }
        let t0 = Instant::now();
        let (w, argmin) = self.wake_fold(world);
        self.probes += 1;
        self.probe_ns += t0.elapsed().as_nanos() as u64;
        if let Some(k) = argmin {
            self.comps[k].wakes += 1;
        }
        w
    }

    /// [`Scheduler::next_wake`] without the profiler: the minimum and the
    /// component it came from (first wins on ties). With the sanitizer on
    /// every component is asked and checked first.
    fn wake_fold(&mut self, world: &W) -> (Option<Tick>, Option<usize>) {
        let now = self.now;
        if self.instr.san.on() {
            self.check_wakes(world);
        }
        let (order, comps, wakes) = (&self.tick_order, &self.comps, &mut self.wakes);
        let ask = |k: usize| comps[k].comp.next_event(now, world).unwrap_or(NO_WAKE);
        let entries = order.iter().map(|&k| (k, wakes.refresh(k, || ask(k))));
        let (w, argmin) = WakeCache::min(now, entries);
        ((w != NO_WAKE).then_some(w), argmin)
    }

    /// The sanitizer's wake rules, stage by stage: each component's fresh
    /// wake is not in the past (`wake-in-past`) and, unless marked, equals
    /// its cached entry (`wake-cache`); the fresh wake is then stored. A
    /// component is named only on a violation: this runs for every
    /// component at every sanitized probe.
    fn check_wakes(&mut self, world: &W) {
        let (san, now) = (&self.instr.san, self.now);
        for &k in &self.tick_order {
            let comp = &self.comps[k].comp;
            let fresh = comp.next_event(now, world).unwrap_or(NO_WAKE);
            if fresh < now {
                let detail = format!("next_event reported {fresh} < now {now}");
                san.flag(comp.name(), "wake-in-past", now, detail);
            }
            self.wakes.check(san, || comp.name(), k, fresh, now, None);
            self.wakes.set(k, fresh);
        }
    }

    /// Whether every registered component is quiescent.
    pub fn quiescent(&self, world: &W) -> bool {
        let now = self.now;
        self.tick_order
            .iter()
            .all(|&i| self.comps[i].comp.is_quiescent(now, world))
    }

    /// Fold of every component's [`Component::stall`] report, for error
    /// messages.
    pub fn stall_report(&self, world: &W) -> String {
        let now = self.now;
        let parts: Vec<String> = self
            .tick_order
            .iter()
            .filter_map(|&i| self.comps[i].comp.stall(now, world))
            .collect();
        if parts.is_empty() {
            "nothing visibly stalled".to_string()
        } else {
            parts.join("; ")
        }
    }

    fn check_invariants(&self) -> Result<(), Stop> {
        let count = self.instr.san.count();
        if count > 0 {
            return Err(Stop::Invariant {
                now: self.now,
                count,
                report: self.instr.san.render(),
            });
        }
        Ok(())
    }

    /// The run loop's stop test, evaluated before every tick and again
    /// right after every jump, exactly where tick-by-tick execution would
    /// have evaluated it.
    fn halt(
        &self,
        world: &W,
        target: Option<Tick>,
        done: &mut impl FnMut(&Self, &W) -> bool,
    ) -> Option<Result<(), Stop>> {
        if target == Some(self.now) || done(self, world) {
            return Some(Ok(()));
        }
        (target.is_none() && self.now >= self.tick_budget).then(|| {
            Err(Stop::Budget {
                now: self.now,
                budget: self.tick_budget,
                stalled: self.stall_report(world),
            })
        })
    }

    /// The one run loop behind [`Scheduler::run_until`],
    /// [`Scheduler::advance_ticks`] and [`Scheduler::drain`].
    ///
    /// Each iteration stops on `done` or at `target`, then, with
    /// skip-ahead on, probes the wake fold and jumps over the provably
    /// idle stretch to the wake (clamped to `target`). The stop test runs
    /// again at the new time; the tick at the wake itself follows without
    /// re-probing. A `None` fold jumps straight to `target`, or without
    /// one is a proven deadlock. A run with a `target` is a fixed-latency
    /// charge: it neither polls the sanitizer nor checks the budget.
    /// Every window boundary the clock passes, by a tick or by a jump, is
    /// recorded into the sampler; sampling never shortens a jump.
    ///
    /// With the sanitizer on, this loop is the only place the wake
    /// protocol is checked (rules in [`crate::conformance`]). With
    /// skip-ahead off the sanitizer still probes where a skipping run
    /// would, unseen by the profiler, and ticks its way to the promised
    /// wake instead of jumping, so both settings check the same ticks.
    /// The profiler gets the loop's counts once, when it returns.
    fn run(
        &mut self,
        world: &mut W,
        target: Option<Tick>,
        done: impl FnMut(&Self, &W) -> bool,
    ) -> Result<(), Stop> {
        // The world may have changed since the last run.
        self.wakes.mark_all();
        let r = self.run_loop(world, target, done);
        self.flush_profile();
        r
    }

    fn run_loop(
        &mut self,
        world: &mut W,
        target: Option<Tick>,
        mut done: impl FnMut(&Self, &W) -> bool,
    ) -> Result<(), Stop> {
        let san = self.instr.san.on();
        // Skip off: the wake a skipping run would have jumped to.
        let mut promised: Option<Tick> = None;
        loop {
            if target.is_none() {
                self.check_invariants()?;
            }
            if let Some(r) = self.halt(world, target, &mut done) {
                return r;
            }
            if promised == Some(self.now) {
                promised = None;
                self.check_stale_wake(world, false);
            } else if promised.is_none() && (self.skip || san) {
                let wake = if self.skip {
                    self.next_wake(world)
                } else {
                    self.wake_fold(world).0
                };
                if wake.is_none() && san {
                    let now = self.now;
                    for c in self.components() {
                        self.instr.san.check(
                            c.is_quiescent(now, world),
                            c.name(),
                            "eventless-active",
                            now,
                            || "no component has a scheduled event, yet this one is busy".into(),
                        );
                    }
                }
                let to = match (wake, target) {
                    (Some(w), t) => t.map_or(w, |t| w.min(t)),
                    (None, Some(t)) => t,
                    (None, None) if self.skip => {
                        return Err(Stop::Deadlock {
                            now: self.now,
                            stalled: self.stall_report(world),
                        })
                    }
                    (None, None) => self.now,
                };
                if to > self.now && !self.skip {
                    promised = Some(to);
                } else if to > self.now {
                    self.skip_spans += 1;
                    self.now = to;
                    self.sample_passed(world);
                    if let Some(r) = self.halt(world, target, &mut done) {
                        return r;
                    }
                    if san {
                        self.check_stale_wake(world, true);
                    }
                }
            }
            self.step(world);
        }
    }

    /// At a promised wake the run did not stop at, a re-probe must find
    /// the promise kept (or the world quiescent). After a jump nothing has
    /// ticked since the sanitized probe checked every cached wake, so only
    /// the components whose entry is the promised tick are asked again.
    fn check_stale_wake(&mut self, world: &W, jumped: bool) {
        let now = self.now;
        let kept = if jumped {
            self.tick_order.iter().any(|&k| {
                self.wakes.get(k) == now && self.comps[k].comp.next_event(now, world) == Some(now)
            })
        } else {
            self.wake_fold(world).0 == Some(now)
        };
        self.instr.san.check(
            kept || self.quiescent(world),
            "scheduler",
            "stale-wake",
            now,
            || "re-probe at the promised wake finds no work there, world not quiescent".into(),
        );
    }

    /// Runs until `done(now, world)` holds, checked before every tick.
    ///
    /// With skip-ahead on, provably idle stretches are jumped over: when
    /// the wake fold says nothing observable can happen before tick `w`,
    /// the clock moves straight to `w` (re-evaluating `done` and the
    /// budget there, exactly as tick-by-tick execution would have).
    /// A wake fold of `None` while `done` does not hold is a proven
    /// deadlock.
    ///
    /// # Errors
    ///
    /// [`Stop::Budget`], [`Stop::Deadlock`], or [`Stop::Invariant`] as
    /// soon as the sanitizer has recorded anything.
    pub fn run_until(
        &mut self,
        world: &mut W,
        mut done: impl FnMut(Tick, &W) -> bool,
    ) -> Result<(), Stop> {
        self.run(world, None, |s, w| done(s.now, w))
    }

    /// Advances exactly `n` base ticks of simulated time (skipping over
    /// idle stretches when enabled). Unlike [`Scheduler::run_until`] this
    /// does not poll the sanitizer or the budget: it is the primitive for
    /// charging fixed-latency work (e.g. MMIO transfers).
    pub fn advance_ticks(&mut self, world: &mut W, n: u64) {
        // A run with a target never reports a stop.
        let _ = self.run(world, Some(self.now + n), |_, _| false);
    }

    /// Runs until every component is quiescent, then audits the drained
    /// state (fold of every component's [`Component::audit_drained`],
    /// skipped entirely with the sanitizer off).
    ///
    /// # Errors
    ///
    /// As [`Scheduler::run_until`]; additionally [`Stop::Invariant`] if
    /// the drain audit flags violations.
    pub fn drain(&mut self, world: &mut W) -> Result<(), Stop> {
        self.run(world, None, |s, w| s.quiescent(w))?;
        if self.instr.san.on() {
            for c in self.components() {
                c.audit_drained(self.now, world, &self.instr.san);
            }
        }
        self.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{earliest, ClockDomain};

    /// Toy world: a shared work queue and a completion counter.
    #[derive(Default)]
    struct World {
        queue: Vec<Tick>,
        finished: u64,
    }

    /// Produces one work item every clock edge until exhausted.
    struct Producer {
        clock: ClockDomain,
        remaining: u64,
    }

    impl Component<World> for Producer {
        fn name(&self) -> &str {
            "producer"
        }
        fn tick(&mut self, now: Tick, world: &mut World, _instr: &mut Instruments) -> Ticked {
            let fire = self.remaining > 0 && self.clock.fires_at(now);
            if fire {
                self.remaining -= 1;
                world.queue.push(now);
            }
            Ticked::NOTHING.mark_if(fire, CONSUMER)
        }
        fn next_event(&self, now: Tick, _world: &World) -> Option<Tick> {
            (self.remaining > 0).then(|| self.clock.next_edge(now))
        }
        fn is_quiescent(&self, _now: Tick, _world: &World) -> bool {
            self.remaining == 0
        }
        fn stall(&self, _now: Tick, _world: &World) -> Option<String> {
            (self.remaining > 0).then(|| format!("producer holds {}", self.remaining))
        }
        fn sample(
            &self,
            _at: Tick,
            _world: &World,
            _ports: &mut Vec<PortSnapshot>,
            counters: &mut Vec<(String, u64)>,
        ) {
            counters.push(("remaining".into(), self.remaining));
        }
    }

    /// Consumes queued items; wakes only when the queue is non-empty.
    struct Consumer;

    /// The consumer's stage, which the producer marks when it queues.
    const CONSUMER: u32 = 10;

    impl Component<World> for Consumer {
        fn name(&self) -> &str {
            "consumer"
        }
        fn tick(&mut self, _now: Tick, world: &mut World, _instr: &mut Instruments) -> Ticked {
            if world.queue.pop().is_some() {
                world.finished += 1;
            }
            Ticked::NOTHING
        }
        fn next_event(&self, now: Tick, world: &World) -> Option<Tick> {
            (!world.queue.is_empty()).then_some(now)
        }
        fn is_quiescent(&self, _now: Tick, world: &World) -> bool {
            world.queue.is_empty()
        }
        fn audit_drained(&self, now: Tick, world: &World, san: &Sanitizer) {
            san.check(
                world.queue.is_empty(),
                "consumer",
                "queue-drain",
                now,
                || format!("{} items left", world.queue.len()),
            );
        }
        fn sample(
            &self,
            _at: Tick,
            world: &World,
            _ports: &mut Vec<PortSnapshot>,
            counters: &mut Vec<(String, u64)>,
        ) {
            counters.push(("finished".into(), world.finished));
        }
    }

    fn make(budget: u64, skip: bool, items: u64) -> (Scheduler<World>, World) {
        let mut sched = Scheduler::new(budget, skip);
        let mut world = World::default();
        sched.register(
            0,
            Box::new(Producer {
                clock: ClockDomain::from_ghz(1.0),
                remaining: items,
            }),
            &mut world,
        );
        sched.register(CONSUMER, Box::new(Consumer), &mut world);
        (sched, world)
    }

    #[test]
    fn run_until_reaches_condition() {
        let (mut sched, mut world) = make(10_000, false, 5);
        sched.run_until(&mut world, |_, w| w.finished == 5).unwrap();
        assert_eq!(world.finished, 5);
    }

    #[test]
    fn skip_and_no_skip_agree_on_time_and_results() {
        let (mut a, mut wa) = make(10_000, false, 7);
        let (mut b, mut wb) = make(10_000, true, 7);
        a.run_until(&mut wa, |_, w| w.finished == 7).unwrap();
        b.run_until(&mut wb, |_, w| w.finished == 7).unwrap();
        assert_eq!(a.now(), b.now());
        assert_eq!(wa.finished, wb.finished);
    }

    #[test]
    fn unsatisfiable_condition_is_a_deadlock_with_skip() {
        let (mut sched, mut world) = make(10_000, true, 2);
        let err = sched
            .run_until(&mut world, |_, w| w.finished == 99)
            .unwrap_err();
        assert!(matches!(err, Stop::Deadlock { .. }));
    }

    #[test]
    fn budget_exhaustion_reports_stalls() {
        let (mut sched, mut world) = make(3, false, 1_000);
        let err = sched
            .run_until(&mut world, |_, w| w.finished == 1_000)
            .unwrap_err();
        match err {
            Stop::Budget {
                budget, stalled, ..
            } => {
                assert_eq!(budget, 3);
                assert!(stalled.contains("producer holds"));
            }
            other => panic!("expected budget stop, got {other:?}"),
        }
    }

    #[test]
    fn drain_runs_to_quiescence_and_audits() {
        let (mut sched, mut world) = make(10_000, true, 4);
        let mut instr = Instruments::disabled();
        instr.san = Sanitizer::enabled();
        sched.set_instruments(&mut world, instr);
        sched.drain(&mut world).unwrap();
        assert!(sched.quiescent(&world));
        assert_eq!(world.finished, 4);
        assert_eq!(sched.instruments().san.count(), 0);
    }

    #[test]
    fn sanitizer_violation_stops_the_loop() {
        let (mut sched, mut world) = make(10_000, false, 5);
        let mut instr = Instruments::disabled();
        instr.san = Sanitizer::enabled();
        sched.set_instruments(&mut world, instr);
        sched
            .instruments()
            .san
            .flag("test", "forced", 0, "boom".into());
        let err = sched
            .run_until(&mut world, |_, w| w.finished == 5)
            .unwrap_err();
        assert!(matches!(err, Stop::Invariant { count: 1, .. }));
    }

    #[test]
    fn advance_ticks_moves_exactly_n() {
        let (mut sched, mut world) = make(10_000, true, 2);
        sched.advance_ticks(&mut world, 17);
        assert_eq!(sched.now(), 17);
        // Past quiescence, skip jumps straight to the target.
        sched.advance_ticks(&mut world, 1_000_000);
        assert_eq!(sched.now(), 17 + 1_000_000);
    }

    #[test]
    fn sampler_records_the_same_windows_in_every_run_mode() {
        // 5-tick windows against the producer's 6-tick edges put most
        // boundaries inside skipped stretches; chunk ends fall inside a
        // window (3, 28, 37, 51), on a boundary (10, 15, 50, 75) and one
        // or more boundaries past the previous end (26, 75, 115). The
        // 8-window ring coalesces mid-run.
        const CHUNKS: [u64; 10] = [3, 7, 5, 11, 2, 9, 13, 1, 24, 40];
        let sampled = |skip: bool| {
            let (mut sched, mut world) = make(10_000, skip, 20);
            let mut instr = Instruments::disabled();
            instr.sampler = Sampler::enabled(5, 8);
            sched.set_instruments(&mut world, instr);
            (sched, world)
        };
        let dump = |s: &Scheduler<World>| s.instruments().sampler.dump().unwrap();
        let (mut refr, mut wr) = sampled(false);
        refr.run_until(&mut wr, |_, w| w.finished == 20).unwrap();
        assert_eq!(refr.now(), CHUNKS.iter().sum::<u64>());
        let want = dump(&refr);
        assert!(want.coalesced > 0, "{want:?}");
        assert!(want.counter_at(want.windows.len() - 1, "finished") > 0);

        let (mut skip, mut ws) = sampled(true);
        skip.run_until(&mut ws, |_, w| w.finished == 20).unwrap();
        assert_eq!(skip.now(), refr.now());
        assert_eq!(dump(&skip), want, "skip-ahead on");
        for on in [false, true] {
            let (mut sched, mut world) = sampled(on);
            for n in CHUNKS {
                sched.advance_ticks(&mut world, n);
            }
            assert_eq!(dump(&sched), want, "chunked, skip {on}");
        }
    }

    #[test]
    fn stage_order_controls_tick_phases_not_registration() {
        struct Stamp(&'static str);
        impl Component<Vec<&'static str>> for Stamp {
            fn name(&self) -> &str {
                self.0
            }
            fn tick(&mut self, _: Tick, w: &mut Vec<&'static str>, _: &mut Instruments) -> Ticked {
                w.push(self.0);
                Ticked::NOTHING
            }
            fn next_event(&self, _: Tick, _: &Vec<&'static str>) -> Option<Tick> {
                None
            }
            fn is_quiescent(&self, _: Tick, _: &Vec<&'static str>) -> bool {
                true
            }
        }
        let mut sched: Scheduler<Vec<&'static str>> = Scheduler::new(100, false);
        let mut world = Vec::new();
        sched.register(20, Box::new(Stamp("late")), &mut world);
        sched.register(10, Box::new(Stamp("early")), &mut world);
        sched.register(10, Box::new(Stamp("early2")), &mut world);
        sched.tick(&mut world);
        assert_eq!(world, vec!["early", "early2", "late"]);
        // Registration order is preserved for attach/audit purposes.
        let names: Vec<_> = sched.components().map(|c| c.name().to_string()).collect();
        assert_eq!(names, vec!["early", "early2", "late"]);
    }

    #[test]
    fn profiler_accounts_every_tick_and_skip() {
        let (mut sched, mut world) = make(1_000_000, true, 9);
        let mut instr = Instruments::disabled();
        instr.prof = crate::profile::Profiler::enabled();
        sched.set_instruments(&mut world, instr);
        sched.run_until(&mut world, |_, w| w.finished == 9).unwrap();
        let snap = sched.instruments().prof.snapshot_at(sched.now()).unwrap();
        assert_eq!(snap.comps.len(), 2);
        // Every simulated tick was either executed or skipped.
        assert_eq!(snap.ticks_executed + snap.ticks_skipped, sched.now());
        // Per-component active ticks are bounded by executed ticks, and
        // their sum by executed ticks x components.
        for c in &snap.comps {
            assert!(c.active_ticks <= snap.ticks_executed, "{c:?}");
        }
        let sum: u64 = snap.comps.iter().map(|c| c.active_ticks).sum();
        assert!(sum <= snap.ticks_executed * snap.comps.len() as u64);
        // The producer's clock edges are what wake the machine.
        assert!(snap.comps.iter().any(|c| c.wakes > 0));
        assert!(snap.probes > 0);
    }

    #[test]
    fn only_due_components_tick_with_skip_on() {
        // Skip-ahead on: the producer ticks on its five edges and the
        // consumer only on the ticks the producer marked it. Tick by
        // tick, both tick on each of the 25 ticks, with the same result.
        for (skip, executed) in [(true, 5), (false, 25)] {
            let (mut sched, mut world) = make(10_000, skip, 5);
            let [_, san, prof] = every_instrument();
            sched.set_instruments(
                &mut world,
                Instruments {
                    prof: prof.prof,
                    ..san
                },
            );
            sched.run_until(&mut world, |_, w| w.finished == 5).unwrap();
            assert_eq!(sched.now(), 25);
            let snap = sched.instruments().prof.snapshot_at(0).unwrap();
            assert_eq!(snap.ticks_executed, executed);
            let active: Vec<u64> = snap.comps.iter().map(|c| c.active_ticks).collect();
            assert_eq!(active, [executed; 2], "skip {skip}");
            assert_eq!(sched.instruments().san.count(), 0);
        }
    }

    /// Runs `comp` after a producer of 5 items, sanitized with skip-ahead
    /// on, and returns the sanitizer's report.
    fn sanitized_with(producer: Box<dyn Component<World>>) -> String {
        let mut sched = Scheduler::new(10_000, true);
        let mut world = World::default();
        sched.register(0, producer, &mut world);
        sched.register(CONSUMER, Box::new(Consumer), &mut world);
        sched.set_instruments(&mut world, every_instrument()[1].clone());
        let _ = sched.run_until(&mut world, |_, w| w.finished == 5);
        sched.instruments().san.render()
    }

    fn producer() -> Producer {
        Producer {
            clock: ClockDomain::from_ghz(1.0),
            remaining: 5,
        }
    }

    #[test]
    fn a_missing_mark_is_flagged() {
        // Queues work for the consumer without marking it: the consumer's
        // cached `None` is stale at the next sanitized probe.
        struct Forgetful(Producer);
        impl Component<World> for Forgetful {
            fn name(&self) -> &str {
                "forgetful"
            }
            fn tick(&mut self, now: Tick, world: &mut World, instr: &mut Instruments) -> Ticked {
                let _ = self.0.tick(now, world, instr);
                Ticked::NOTHING
            }
            fn next_event(&self, now: Tick, world: &World) -> Option<Tick> {
                self.0.next_event(now, world)
            }
            fn is_quiescent(&self, now: Tick, world: &World) -> bool {
                self.0.is_quiescent(now, world)
            }
        }
        assert_eq!(sanitized_with(Box::new(producer())), "");
        let report = sanitized_with(Box::new(Forgetful(producer())));
        assert!(report.contains("wake-cache"), "{report}");
        assert!(report.contains("consumer"), "{report}");
    }

    #[test]
    fn a_wrong_self_reported_wake_is_flagged() {
        // Reports its wake one tick after each tick instead of at its
        // next edge; its `next_event` disagrees at the next probe.
        struct Hasty(Producer);
        impl Component<World> for Hasty {
            fn name(&self) -> &str {
                "hasty"
            }
            fn tick(&mut self, now: Tick, world: &mut World, instr: &mut Instruments) -> Ticked {
                self.0.tick(now, world, instr).wake(Some(now + 1))
            }
            fn next_event(&self, now: Tick, world: &World) -> Option<Tick> {
                self.0.next_event(now, world)
            }
            fn is_quiescent(&self, now: Tick, world: &World) -> bool {
                self.0.is_quiescent(now, world)
            }
        }
        let report = sanitized_with(Box::new(Hasty(producer())));
        assert!(report.contains("wake-cache"), "{report}");
        assert!(report.contains("hasty"), "{report}");
    }

    #[test]
    fn profiler_does_not_perturb_results() {
        let (mut plain, mut wp) = make(1_000_000, true, 9);
        let (mut prof, mut wq) = make(1_000_000, true, 9);
        let mut instr = Instruments::disabled();
        instr.prof = crate::profile::Profiler::enabled();
        prof.set_instruments(&mut wq, instr);
        plain.run_until(&mut wp, |_, w| w.finished == 9).unwrap();
        prof.run_until(&mut wq, |_, w| w.finished == 9).unwrap();
        assert_eq!(plain.now(), prof.now());
        assert_eq!(wp.finished, wq.finished);
    }

    #[test]
    fn wakeless_components_are_audited_but_never_ticked() {
        use std::cell::Cell;
        use std::rc::Rc;

        /// Pure bookkeeping component that never reports a wake: with
        /// skip-ahead on it is never due, so ticking it would be a bug.
        struct Auditor {
            ticked: Rc<Cell<bool>>,
            audited: Rc<Cell<bool>>,
        }
        impl Component<World> for Auditor {
            fn name(&self) -> &str {
                "auditor"
            }
            fn tick(&mut self, _: Tick, _: &mut World, _: &mut Instruments) -> Ticked {
                self.ticked.set(true);
                Ticked::NOTHING
            }
            fn next_event(&self, _: Tick, _: &World) -> Option<Tick> {
                None
            }
            fn is_quiescent(&self, _: Tick, _: &World) -> bool {
                true
            }
            fn audit_drained(&self, _: Tick, _: &World, _: &Sanitizer) {
                self.audited.set(true);
            }
        }

        let ticked = Rc::new(Cell::new(false));
        let audited = Rc::new(Cell::new(false));
        let (mut sched, mut world) = make(10_000, true, 4);
        sched.register(
            5,
            Box::new(Auditor {
                ticked: ticked.clone(),
                audited: audited.clone(),
            }),
            &mut world,
        );
        let mut instr = Instruments::disabled();
        instr.san = Sanitizer::enabled();
        sched.set_instruments(&mut world, instr);
        sched.drain(&mut world).unwrap();
        assert_eq!(world.finished, 4);
        assert!(!ticked.get(), "a never-due component's tick() was called");
        assert!(audited.get(), "a wakeless component was not audited");
        // It still shows up in the component enumeration.
        assert!(sched.components().any(|c| c.name() == "auditor"));
    }

    /// The three instrument bundles a run can carry: bare, sanitized and
    /// profiled.
    fn every_instrument() -> [Instruments; 3] {
        let mut san = Instruments::disabled();
        san.san = Sanitizer::enabled();
        let mut prof = Instruments::disabled();
        prof.prof = crate::profile::Profiler::enabled();
        [Instruments::disabled(), san, prof]
    }

    #[test]
    fn probe_matches_full_fold_under_every_instrument() {
        // Step a machine tick by tick and check, at every step, that the
        // early-exiting probe returns exactly the minimum of the full fold
        // over every component, whichever instruments are attached.
        for instr in every_instrument() {
            let (mut sched, mut world) = make(10_000, true, 6);
            sched.set_instruments(&mut world, instr);
            for _ in 0..40 {
                let now = sched.now();
                let expect = sched
                    .components()
                    .fold(None, |acc, c| earliest(acc, c.next_event(now, &world)));
                assert_eq!(sched.next_wake(&world), expect, "at tick {now}");
                sched.tick(&mut world);
            }
            assert_eq!(sched.instruments().san.count(), 0);
        }
    }

    #[test]
    fn advance_ticks_across_wakes_matches_tick_by_tick() {
        // Chunk ends (4, 11, 16, 25, 38, 40, 60, 61) mostly fall between
        // the producer's 6-tick edges, so skip-on chunks both jump to a
        // wake inside the chunk and stop short of the next one; 60 lands
        // on an edge, which the following chunk must tick.
        const CHUNKS: [u64; 8] = [4, 7, 5, 9, 13, 2, 20, 1];
        let (mut refr, mut wr) = make(10_000, false, 20);
        let mut runs: Vec<_> = [false, true]
            .into_iter()
            .flat_map(|skip| {
                every_instrument().into_iter().map(move |instr| {
                    let (mut sched, mut world) = make(10_000, skip, 20);
                    sched.set_instruments(&mut world, instr);
                    (sched, world)
                })
            })
            .collect();
        for n in CHUNKS {
            refr.advance_ticks(&mut wr, n);
            for (sched, world) in &mut runs {
                sched.advance_ticks(world, n);
                assert_eq!(sched.now(), refr.now());
                assert_eq!(world.finished, wr.finished, "at tick {}", refr.now());
                assert_eq!(world.queue, wr.queue, "at tick {}", refr.now());
                if let Some(snap) = sched.instruments().prof.snapshot_at(sched.now()) {
                    assert_eq!(snap.ticks_executed + snap.ticks_skipped, sched.now());
                }
            }
        }
        // Edges 0, 6, ..., 60 fired; the producer is still mid-stream.
        assert_eq!(wr.finished, 11);
    }

    /// A one-component scheduler with skip-ahead and an enabled sanitizer.
    fn sanitized(comp: Box<dyn Component<()>>) -> Scheduler<()> {
        let mut sched: Scheduler<()> = Scheduler::new(1_000, true);
        sched.register(0, comp, &mut ());
        let mut instr = Instruments::disabled();
        instr.san = Sanitizer::enabled();
        sched.set_instruments(&mut (), instr);
        sched
    }

    #[test]
    fn stale_wake_is_still_caught_with_sanitizer_on() {
        // A component that promises a wake and then moves it: every run
        // mode re-probes after a jump and must flag the broken promise.
        struct Flake;
        impl Component<()> for Flake {
            fn name(&self) -> &str {
                "flake"
            }
            fn tick(&mut self, _: Tick, _: &mut (), _: &mut Instruments) -> Ticked {
                Ticked::NOTHING
            }
            fn next_event(&self, now: Tick, _: &()) -> Option<Tick> {
                Some(now + 3)
            }
            fn is_quiescent(&self, _: Tick, _: &()) -> bool {
                false
            }
        }
        let mut sched = sanitized(Box::new(Flake));
        let r = sched.run_until(&mut (), |_, _| false);
        assert!(matches!(r, Err(Stop::Invariant { .. })), "got {r:?}");
        assert!(sched.instruments().san.render().contains("stale-wake"));

        let mut sched = sanitized(Box::new(Flake));
        let r = sched.drain(&mut ());
        assert!(matches!(r, Err(Stop::Invariant { .. })), "got {r:?}");
        assert!(sched.instruments().san.render().contains("stale-wake"));

        let mut sched = sanitized(Box::new(Flake));
        sched.advance_ticks(&mut (), 100);
        assert_eq!(sched.now(), 100);
        assert!(sched.instruments().san.render().contains("stale-wake"));
    }

    #[test]
    fn eventless_active_is_flagged_on_deadlock() {
        // Claims work remains but never schedules an event for it.
        struct Stuck;
        impl Component<()> for Stuck {
            fn name(&self) -> &str {
                "stuck"
            }
            fn tick(&mut self, _: Tick, _: &mut (), _: &mut Instruments) -> Ticked {
                Ticked::NOTHING
            }
            fn next_event(&self, _: Tick, _: &()) -> Option<Tick> {
                None
            }
            fn is_quiescent(&self, _: Tick, _: &()) -> bool {
                false
            }
        }
        let mut sched = sanitized(Box::new(Stuck));
        let r = sched.run_until(&mut (), |_, _| false);
        assert!(matches!(r, Err(Stop::Deadlock { .. })), "got {r:?}");
        let v = sched.instruments().san.take();
        assert!(
            v.iter()
                .any(|v| v.invariant == "eventless-active" && v.component == "stuck"),
            "got {v:?}"
        );
    }

    #[test]
    fn wake_rules_are_checked_with_skip_off() {
        // Tick by tick, the sanitizer probes where a skipping run would
        // and re-probes at the promised wake, so every run mode flags the
        // same rules as with skip-ahead on.
        type Wake = fn(Tick) -> Option<Tick>;
        struct Rogue(Wake);
        impl Component<()> for Rogue {
            fn name(&self) -> &str {
                "rogue"
            }
            fn tick(&mut self, _: Tick, _: &mut (), _: &mut Instruments) -> Ticked {
                Ticked::NOTHING
            }
            fn next_event(&self, now: Tick, _: &()) -> Option<Tick> {
                (self.0)(now)
            }
            fn is_quiescent(&self, _: Tick, _: &()) -> bool {
                false
            }
        }
        let cases: [(Wake, &str); 3] = [
            (|now| Some(now + 3), "stale-wake"),
            (|now| Some(now.saturating_sub(1)), "wake-in-past"),
            (|_| None, "eventless-active"),
        ];
        for (wake, rule) in cases {
            let skip_off = || {
                let mut sched = sanitized(Box::new(Rogue(wake)));
                sched.skip = false;
                sched
            };
            let mut sched = skip_off();
            let r = sched.run_until(&mut (), |_, _| false);
            assert!(matches!(r, Err(Stop::Invariant { .. })), "{rule}: {r:?}");
            assert!(sched.instruments().san.render().contains(rule), "{rule}");

            let mut sched = skip_off();
            let r = sched.drain(&mut ());
            assert!(matches!(r, Err(Stop::Invariant { .. })), "{rule}: {r:?}");
            assert!(sched.instruments().san.render().contains(rule), "{rule}");

            let mut sched = skip_off();
            sched.advance_ticks(&mut (), 100);
            assert_eq!(sched.now(), 100);
            assert!(sched.instruments().san.render().contains(rule), "{rule}");
        }
    }

    #[test]
    fn wake_in_past_is_flagged_by_sanitizer() {
        struct Liar;
        impl Component<()> for Liar {
            fn name(&self) -> &str {
                "liar"
            }
            fn tick(&mut self, _: Tick, _: &mut (), _: &mut Instruments) -> Ticked {
                Ticked::NOTHING
            }
            fn next_event(&self, _now: Tick, _: &()) -> Option<Tick> {
                Some(0)
            }
            fn is_quiescent(&self, _: Tick, _: &()) -> bool {
                false
            }
        }
        let mut sched: Scheduler<()> = Scheduler::new(100, true);
        let mut world = ();
        sched.register(0, Box::new(Liar), &mut world);
        let mut instr = Instruments::disabled();
        instr.san = Sanitizer::enabled();
        sched.set_instruments(&mut world, instr);
        sched.now = 5;
        assert_eq!(sched.next_wake(&world), Some(0));
        assert!(sched.instruments().san.count() > 0);
        assert!(sched.instruments().san.render().contains("wake-in-past"));
    }
}
