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
//!   edges; the scheduler always calls every component on every simulated
//!   tick, in registration *stage* order.
//! - [`Component::next_event`] reports the earliest tick `>= now` at
//!   which the component could do observable work, or `None` when only
//!   external input (another component's action) can wake it. Reporting
//!   too early costs time; reporting too late breaks bit-identity between
//!   skipping and non-skipping runs. The scheduler (with the sanitizer
//!   on) flags wake times in the past.
//! - [`Component::is_quiescent`] holds when the component has no in-flight
//!   work at all — the machine may stop when every component is quiescent.
//! - [`Component::audit_drained`] asserts conservation invariants of the
//!   drained state against the [`Sanitizer`].

use crate::profile::Profiler;
use crate::time::Tick;
use distda_check::Sanitizer;
use distda_trace::Tracer;
use std::time::Instant;

/// The instrumentation bundle handed to every component: the tracer, the
/// invariant sanitizer and the scheduler self-profiler. All three are
/// cheap cloneable handles that are free when disabled, so components
/// hold copies rather than references.
#[derive(Debug, Clone, Default)]
pub struct Instruments {
    /// Event/metrics tracing (disabled by default).
    pub tracer: Tracer,
    /// Invariant sanitizer (disabled by default).
    pub san: Sanitizer,
    /// Scheduler self-profiler (disabled by default). Unlike the tracer
    /// and sanitizer, components never emit into it themselves — the
    /// scheduler times their `tick()` calls structurally.
    pub prof: Profiler,
}

impl Instruments {
    /// Disabled tracer, sanitizer and profiler: zero-cost instrumentation.
    pub fn disabled() -> Self {
        Self::default()
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

    /// Advances one base tick of work at `now`.
    fn tick(&mut self, now: Tick, world: &mut W, instr: &mut Instruments);

    /// Earliest tick `>= now` at which this component could do observable
    /// work, `None` if only external input can wake it.
    fn next_event(&self, now: Tick, world: &W) -> Option<Tick>;

    /// Whether the component holds no in-flight work at all.
    fn is_quiescent(&self, now: Tick, world: &W) -> bool;

    /// Whether this component's [`Component::tick`] is a no-op (a pure
    /// audit/bookkeeping component that only participates in the wake
    /// probe, the quiescence predicate and the drain audit). The
    /// scheduler skips calling `tick()` on passive components, removing
    /// their virtual dispatch from the hot loop; everything else about
    /// the protocol still applies. Must be constant for the component's
    /// lifetime.
    fn passive(&self) -> bool {
        false
    }

    /// Audits the drained state against conservation invariants. Only
    /// called once the whole machine is quiescent, and only with the
    /// sanitizer enabled.
    fn audit_drained(&self, _now: Tick, _world: &W, _san: &Sanitizer) {}

    /// Describes this component's stalled work for deadlock/budget error
    /// reports, `None` if nothing is visibly stuck.
    fn stall(&self, _now: Tick, _world: &W) -> Option<String> {
        None
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
}

/// Owns the clock and orchestrates registered components: the lock-step
/// tick loop, the skip-ahead wake probe, the tick budget, run loops and
/// the drain loop with its invariant audit.
///
/// Components tick in ascending *stage* order (ties in registration
/// order), so a fixed intra-tick phase structure — deliver, issue,
/// compute, inject, route — is expressed by stage numbers rather than by
/// the order of statements in a hand-written loop. [`Instruments`] attach
/// in registration order, which keeps trace track IDs stable regardless
/// of stage assignments.
pub struct Scheduler<W> {
    now: Tick,
    tick_budget: u64,
    skip: bool,
    instr: Instruments,
    /// Registration order (stable track/audit order).
    comps: Vec<Slot<W>>,
    /// Indices into `comps`, sorted by (stage, registration order).
    tick_order: Vec<usize>,
    /// `tick_order` minus passive components: the indices whose `tick()`
    /// is actually called each simulated tick.
    active_order: Vec<usize>,
    /// Per-component profiler slot, parallel to `comps`.
    prof_slots: Vec<usize>,
    /// Reused `(slot, host_ns)` buffer for profiled ticks.
    prof_scratch: Vec<(usize, u64)>,
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
            comps: Vec::new(),
            tick_order: Vec::new(),
            active_order: Vec::new(),
            prof_slots: Vec::new(),
            prof_scratch: Vec::new(),
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
    }

    /// The current instrumentation bundle.
    pub fn instruments(&self) -> &Instruments {
        &self.instr
    }

    /// Replaces the instrumentation bundle and re-attaches every
    /// component, in registration order.
    pub fn set_instruments(&mut self, world: &mut W, instr: Instruments) {
        self.instr = instr;
        self.prof_slots.clear();
        for slot in &mut self.comps {
            slot.comp.attach(world, &self.instr);
            self.prof_slots
                .push(self.instr.prof.register(slot.comp.name()));
        }
    }

    /// Registers a component at tick-phase `stage` and attaches the
    /// current instruments to it. Registration is the *only* step needed
    /// to include a component in the tick loop, the wake probe, the drain
    /// predicate and the drain audit.
    pub fn register(&mut self, stage: u32, mut comp: Box<dyn Component<W>>, world: &mut W) {
        comp.attach(world, &self.instr);
        let idx = self.comps.len();
        self.prof_slots.push(self.instr.prof.register(comp.name()));
        self.comps.push(Slot { stage, comp });
        let pos = self
            .tick_order
            .partition_point(|&i| self.comps[i].stage <= stage);
        self.tick_order.insert(pos, idx);
        self.active_order = self
            .tick_order
            .iter()
            .copied()
            .filter(|&i| !self.comps[i].comp.passive())
            .collect();
    }

    /// Registered components in tick (stage) order.
    pub fn components(&self) -> impl Iterator<Item = &dyn Component<W>> {
        self.tick_order.iter().map(|&i| &*self.comps[i].comp)
    }

    /// One base tick: every non-passive component, in stage order, then
    /// advance the clock. With the self-profiler on, each component's
    /// `tick()` is timed against the host monotonic clock (one registry
    /// lock per simulated tick); profiling never changes what components
    /// do.
    pub fn tick(&mut self, world: &mut W) {
        let now = self.now;
        if self.instr.prof.on() {
            self.prof_scratch.clear();
            for k in 0..self.active_order.len() {
                let i = self.active_order[k];
                let t0 = Instant::now();
                self.comps[i].comp.tick(now, world, &mut self.instr);
                self.prof_scratch
                    .push((self.prof_slots[i], t0.elapsed().as_nanos() as u64));
            }
            self.instr.prof.record_tick(&self.prof_scratch, now);
        } else {
            for k in 0..self.active_order.len() {
                let i = self.active_order[k];
                self.comps[i].comp.tick(now, world, &mut self.instr);
            }
        }
        self.now += 1;
    }

    /// Earliest base tick `>= now` at which any component would do
    /// observable work, `None` if no component will ever act again
    /// without new input.
    ///
    /// The fold visits components in stage order. Every candidate is
    /// contractually `>= now`, so a component reporting `now` is already
    /// the global minimum and the fold stops there: while the machine is
    /// busy, where skipping cannot pay for itself, the probe asks only the
    /// components up to the first one due. Bare, sanitized and profiled
    /// runs all execute this same fold; the sanitizer additionally checks
    /// each candidate for a wake in the past, and the profiler times the
    /// probe and attributes it to the component the fold settles on.
    pub fn next_wake(&self, world: &W) -> Option<Tick> {
        let t0 = self.instr.prof.on().then(Instant::now);
        let now = self.now;
        let mut w: Option<Tick> = None;
        // The component whose event the fold settles on (the wake target,
        // first wins on ties); the profiler attributes the probe to it.
        let mut argmin: Option<usize> = None;
        for &k in &self.tick_order {
            let slot = &self.comps[k];
            let Some(c) = slot.comp.next_event(now, world) else {
                continue;
            };
            if self.instr.san.on() {
                self.instr
                    .san
                    .check(c >= now, slot.comp.name(), "wake-in-past", now, || {
                        format!("next_event reported {c} < now {now}")
                    });
            }
            if w.is_none_or(|cur| c < cur) {
                w = Some(c);
                argmin = Some(k);
            }
            if w == Some(now) {
                break;
            }
        }
        if let Some(t0) = t0 {
            self.instr.prof.record_probe(
                t0.elapsed().as_nanos() as u64,
                argmin.map(|i| self.prof_slots[i]),
            );
        }
        w
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

    fn budget_stop<T>(&self, world: &W) -> Result<T, Stop> {
        Err(Stop::Budget {
            now: self.now,
            budget: self.tick_budget,
            stalled: self.stall_report(world),
        })
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
        loop {
            self.check_invariants()?;
            if done(self.now, world) {
                return Ok(());
            }
            if self.now >= self.tick_budget {
                return self.budget_stop(world);
            }
            if self.skip {
                match self.next_wake(world) {
                    None => {
                        return Err(Stop::Deadlock {
                            now: self.now,
                            stalled: self.stall_report(world),
                        })
                    }
                    Some(w) if w > self.now => {
                        // Jump, then tick at the wake tick without
                        // re-probing (the probe would just report `w`
                        // again). The done/budget checks must still run
                        // at the new time first: tick-by-tick execution
                        // would have evaluated them before reaching the
                        // tick at `w`.
                        if self.instr.prof.on() {
                            self.instr.prof.record_skip(w - self.now);
                        }
                        self.now = w;
                        if done(self.now, world) {
                            return Ok(());
                        }
                        if self.now >= self.tick_budget {
                            return self.budget_stop(world);
                        }
                        if self.instr.san.on() {
                            // Conformance: the run is not done, so having
                            // jumped to the promised wake tick, some
                            // component must see observable work at
                            // exactly this tick. (Checked only past the
                            // `done` test: a jump to a completion time —
                            // e.g. the host's segment finish — may leave
                            // every component legitimately eventless.)
                            let re = self.next_wake(world);
                            self.instr.san.check(
                                re == Some(self.now),
                                "scheduler",
                                "stale-wake",
                                self.now,
                                || format!("jumped to promised wake tick but re-probe says {re:?}"),
                            );
                        }
                    }
                    _ => {}
                }
            }
            self.tick(world);
        }
    }

    /// Advances exactly `n` base ticks of simulated time (skipping over
    /// idle stretches when enabled). Unlike [`Scheduler::run_until`] this
    /// does not poll the sanitizer or the budget: it is the primitive for
    /// charging fixed-latency work (e.g. MMIO transfers).
    pub fn advance_ticks(&mut self, world: &mut W, n: u64) {
        let target = self.now + n;
        while self.now < target {
            if self.skip {
                match self.next_wake(world) {
                    None => {
                        if self.instr.prof.on() {
                            self.instr.prof.record_skip(target - self.now);
                        }
                        self.now = target;
                        return;
                    }
                    Some(w) if w > self.now => {
                        // Jump, then tick at the wake tick without
                        // re-probing, as `run_until` does.
                        let to = w.min(target);
                        if self.instr.prof.on() {
                            self.instr.prof.record_skip(to - self.now);
                        }
                        self.now = to;
                        if to == target {
                            return;
                        }
                    }
                    _ => {}
                }
            }
            self.tick(world);
        }
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
        loop {
            self.check_invariants()?;
            if self.quiescent(world) {
                break;
            }
            if self.now >= self.tick_budget {
                return self.budget_stop(world);
            }
            if self.skip {
                match self.next_wake(world) {
                    None => {
                        return Err(Stop::Deadlock {
                            now: self.now,
                            stalled: self.stall_report(world),
                        })
                    }
                    Some(w) if w > self.now => {
                        if self.instr.prof.on() {
                            self.instr.prof.record_skip(w - self.now);
                        }
                        self.now = w;
                        if self.quiescent(world) {
                            break;
                        }
                        if self.now >= self.tick_budget {
                            return self.budget_stop(world);
                        }
                    }
                    _ => {}
                }
            }
            self.tick(world);
        }
        if self.instr.san.on() {
            let now = self.now;
            for k in &self.tick_order {
                self.comps[*k]
                    .comp
                    .audit_drained(now, world, &self.instr.san);
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
        fn tick(&mut self, now: Tick, world: &mut World, _instr: &mut Instruments) {
            if self.remaining > 0 && self.clock.fires_at(now) {
                self.remaining -= 1;
                world.queue.push(now);
            }
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
    }

    /// Consumes queued items; wakes only when the queue is non-empty.
    struct Consumer;

    impl Component<World> for Consumer {
        fn name(&self) -> &str {
            "consumer"
        }
        fn tick(&mut self, _now: Tick, world: &mut World, _instr: &mut Instruments) {
            if world.queue.pop().is_some() {
                world.finished += 1;
            }
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
        sched.register(10, Box::new(Consumer), &mut world);
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
    fn stage_order_controls_tick_phases_not_registration() {
        struct Stamp(&'static str);
        impl Component<Vec<&'static str>> for Stamp {
            fn name(&self) -> &str {
                self.0
            }
            fn tick(&mut self, _: Tick, w: &mut Vec<&'static str>, _: &mut Instruments) {
                w.push(self.0);
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
        let snap = sched.instruments().prof.snapshot().unwrap();
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
    fn passive_components_are_probed_and_audited_but_never_ticked() {
        use std::cell::Cell;
        use std::rc::Rc;

        /// Pure bookkeeping component: ticking it would be a bug.
        struct Auditor {
            ticked: Rc<Cell<bool>>,
            audited: Rc<Cell<bool>>,
        }
        impl Component<World> for Auditor {
            fn name(&self) -> &str {
                "auditor"
            }
            fn passive(&self) -> bool {
                true
            }
            fn tick(&mut self, _: Tick, _: &mut World, _: &mut Instruments) {
                self.ticked.set(true);
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
        assert!(!ticked.get(), "passive component's tick() was called");
        assert!(audited.get(), "passive component was left out of the audit");
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
                if let Some(snap) = sched.instruments().prof.snapshot() {
                    assert_eq!(snap.ticks_executed + snap.ticks_skipped, sched.now());
                }
            }
        }
        // Edges 0, 6, ..., 60 fired; the producer is still mid-stream.
        assert_eq!(wr.finished, 11);
    }

    #[test]
    fn stale_wake_is_still_caught_with_sanitizer_on() {
        // A component that promises a wake and then moves it: the
        // sanitized run loop re-probes after every jump and must flag the
        // broken promise.
        struct Flake;
        impl Component<()> for Flake {
            fn name(&self) -> &str {
                "flake"
            }
            fn tick(&mut self, _: Tick, _: &mut (), _: &mut Instruments) {}
            fn next_event(&self, now: Tick, _: &()) -> Option<Tick> {
                Some(now + 3)
            }
            fn is_quiescent(&self, _: Tick, _: &()) -> bool {
                false
            }
        }
        let mut sched: Scheduler<()> = Scheduler::new(1_000, true);
        let mut world = ();
        sched.register(0, Box::new(Flake), &mut world);
        let mut instr = Instruments::disabled();
        instr.san = Sanitizer::enabled();
        sched.set_instruments(&mut world, instr);
        let r = sched.run_until(&mut world, |_, _| false);
        assert!(matches!(r, Err(Stop::Invariant { .. })), "got {r:?}");
        assert!(sched.instruments().san.render().contains("stale-wake"));
    }

    #[test]
    fn wake_in_past_is_flagged_by_sanitizer() {
        struct Liar;
        impl Component<()> for Liar {
            fn name(&self) -> &str {
                "liar"
            }
            fn tick(&mut self, _: Tick, _: &mut (), _: &mut Instruments) {}
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
