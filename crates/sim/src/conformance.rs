//! Reusable conformance harness for [`Component`] implementations.
//!
//! The scheduler's skip-ahead is only sound if every component honours the
//! [`Component`] protocol contract; a component that reports wake times in
//! the past, or promises a wake it then fails to act on, silently breaks
//! bit-identity between skipping and non-skipping runs. The scheduler's
//! one run loop checks that contract whenever its sanitizer is on, so this
//! harness adds no loop of its own: it attaches a fresh enabled
//! [`Sanitizer`], runs the scheduler's own [`Scheduler::advance_ticks`] or
//! [`Scheduler::drain`], and returns what the sanitizer recorded:
//!
//! - **wake-in-past** — [`Component::next_event`] must report a tick
//!   `>= now`.
//! - **stale-wake** — after jumping to the promised global wake tick `w`,
//!   a re-probe must report `Some(w)` again (some component really does
//!   have observable work there), *unless* the jump stopped the run or
//!   every component is quiescent. After a jump the re-probe asks the
//!   components whose cached wake is `w`; nothing ticked since the
//!   probe that cached it.
//! - **wake-cache** — every cached wake the scheduler has not marked
//!   equals a fresh [`Component::next_event`] at each probe (the rule
//!   of [`WakeCache`](crate::wake::WakeCache), which the machine's engine
//!   stage also applies to its engines).
//! - **eventless-active** — when the global wake fold returns `None` (no
//!   component will ever act again without input), every component must be
//!   quiescent; a non-quiescent component with no scheduled event is a
//!   liveness bug (e.g. produced responses nobody will ever collect).
//! - **no-quiescence** — [`run_to_quiescence`] must reach global
//!   quiescence within its budget; exhausting it means ticking at the
//!   promised wake times is not making progress.
//!
//! [`run_to_quiescence`] also runs every component's drain audit. The
//! rules hold whatever the scheduler's skip setting: with it off the
//! sanitizer probes where a skipping run would and re-probes when the
//! clock reaches the promised wake. Conformance suites should run both
//! and compare final times — the protocol guarantees they agree.

use crate::component::{Scheduler, Stop};
use crate::port::PortSnapshot;
use crate::time::Tick;
use distda_check::Sanitizer;
pub use distda_check::Violation;

#[cfg(doc)]
use crate::component::Component;
#[cfg(doc)]
use crate::port::{Channel, RxPort, TxPort};

/// Runs `f` with a fresh enabled sanitizer attached (tracer and profiler
/// kept), then restores the scheduler's instruments and returns `f`'s
/// result with everything the sanitizer recorded.
fn sanitized<W, T>(
    sched: &mut Scheduler<W>,
    world: &mut W,
    f: impl FnOnce(&mut Scheduler<W>, &mut W) -> T,
) -> (T, Sanitizer) {
    let prev = sched.instruments().clone();
    let san = Sanitizer::enabled();
    let mut instr = prev.clone();
    instr.san = san.clone();
    sched.set_instruments(world, instr);
    let out = f(sched, world);
    sched.set_instruments(world, prev);
    (out, san)
}

/// Drives the scheduler for exactly `ticks` simulated base ticks with the
/// protocol checked. Skip jumps follow the scheduler's own skip setting.
/// Returns all observed violations.
pub fn run_for<W>(sched: &mut Scheduler<W>, world: &mut W, ticks: u64) -> Vec<Violation> {
    let ((), san) = sanitized(sched, world, |s, w| s.advance_ticks(w, ticks));
    san.take()
}

/// Drives the scheduler until every component is quiescent with the
/// protocol checked, then audits the drained state; flags
/// `no-quiescence` if the machine fails to drain within `budget` base
/// ticks of the starting time.
pub fn run_to_quiescence<W>(
    sched: &mut Scheduler<W>,
    world: &mut W,
    budget: u64,
) -> Vec<Violation> {
    let deadline = sched.now() + budget;
    let saved = std::mem::replace(&mut sched.tick_budget, deadline);
    let (r, san) = sanitized(sched, world, |s, w| s.drain(w));
    sched.tick_budget = saved;
    if let Err(Stop::Budget { now, .. }) = r {
        san.flag(
            "scheduler",
            "no-quiescence",
            now,
            format!("machine failed to drain within {budget} ticks"),
        );
    }
    san.take()
}

/// The generic handshake-compliance audit over a machine's
/// [`PortSnapshot`]s, taken at tick `now`:
///
/// - **port-no-loss** — every accepted offer is accounted for:
///   `pushed == popped + len`. A mismatch means a value was dropped or
///   conjured outside the [`TxPort`]/[`RxPort`] handshake.
/// - **port-capacity** — occupancy and high-water never exceed the
///   configured bound; exceeding it means a producer bypassed the
///   ready check.
/// - **port-drain** — with `drained` set (the machine claims global
///   quiescence), every port must be empty; a queued element nobody
///   will ever accept is a lost value.
///
/// The stable-data and no-pop-without-valid rules are structural in
/// [`Channel`] itself (a refused offer returns the value; `accept` on
/// empty returns `None`), so they need no posthoc audit here — the
/// property tests cover them directly.
pub fn check_ports(ports: &[PortSnapshot], now: Tick, drained: bool) -> Vec<Violation> {
    let mut out = Vec::new();
    for p in ports {
        if p.pushed != p.popped + p.len as u64 {
            out.push(Violation {
                component: p.name.clone(),
                invariant: "port-no-loss",
                tick: now,
                detail: format!(
                    "pushed {} != popped {} + occupancy {}",
                    p.pushed, p.popped, p.len
                ),
            });
        }
        if p.len > p.capacity || p.high_water > p.capacity {
            out.push(Violation {
                component: p.name.clone(),
                invariant: "port-capacity",
                tick: now,
                detail: format!(
                    "occupancy {} / high-water {} exceed capacity {}",
                    p.len, p.high_water, p.capacity
                ),
            });
        }
        if drained && p.len > 0 {
            out.push(Violation {
                component: p.name.clone(),
                invariant: "port-drain",
                tick: now,
                detail: format!("{} elements still queued after drain", p.len),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Component, Instruments, Ticked};
    use crate::time::ClockDomain;

    /// Well-behaved clocked counter: fires on every edge `n` times.
    struct Counter {
        clock: ClockDomain,
        remaining: u64,
    }

    impl Component<()> for Counter {
        fn name(&self) -> &str {
            "counter"
        }
        fn tick(&mut self, now: Tick, _w: &mut (), _i: &mut Instruments) -> Ticked {
            if self.remaining > 0 && self.clock.fires_at(now) {
                self.remaining -= 1;
            }
            Ticked::NOTHING
        }
        fn next_event(&self, now: Tick, _w: &()) -> Option<Tick> {
            (self.remaining > 0).then(|| self.clock.next_edge(now))
        }
        fn is_quiescent(&self, _now: Tick, _w: &()) -> bool {
            self.remaining == 0
        }
    }

    /// Liveness bug on purpose: claims work remains but never schedules
    /// an event for it.
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

    /// Clock bug on purpose: reports its wake one tick in the past once
    /// time has started moving — the classic off-by-one a skip-ahead
    /// scheduler would silently mask by treating the stale wake as due
    /// now.
    struct Tardy;

    impl Component<()> for Tardy {
        fn name(&self) -> &str {
            "tardy"
        }
        fn tick(&mut self, _: Tick, _: &mut (), _: &mut Instruments) -> Ticked {
            Ticked::NOTHING
        }
        fn next_event(&self, now: Tick, _: &()) -> Option<Tick> {
            Some(now.saturating_sub(1))
        }
        fn is_quiescent(&self, _: Tick, _: &()) -> bool {
            false
        }
    }

    /// Promise bug on purpose: schedules a wake it never acts on (the
    /// re-probe keeps pushing the promise one edge further out).
    struct Flake {
        clock: ClockDomain,
    }

    impl Component<()> for Flake {
        fn name(&self) -> &str {
            "flake"
        }
        fn tick(&mut self, _: Tick, _: &mut (), _: &mut Instruments) -> Ticked {
            Ticked::NOTHING
        }
        fn next_event(&self, now: Tick, _: &()) -> Option<Tick> {
            // next_edge of now+1: always strictly in the future, so a
            // jump to the promise finds it has moved.
            Some(self.clock.next_edge(now + 1))
        }
        fn is_quiescent(&self, _: Tick, _: &()) -> bool {
            false
        }
    }

    #[test]
    fn well_behaved_component_is_clean() {
        let mut sched: Scheduler<()> = Scheduler::new(100_000, true);
        sched.register(
            0,
            Box::new(Counter {
                clock: ClockDomain::from_ghz(2.0),
                remaining: 8,
            }),
            &mut (),
        );
        let v = run_to_quiescence(&mut sched, &mut (), 10_000);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
        assert!(sched.quiescent(&()));
    }

    #[test]
    fn eventless_active_component_is_flagged() {
        let mut sched: Scheduler<()> = Scheduler::new(100_000, true);
        sched.register(0, Box::new(Stuck), &mut ());
        let v = run_to_quiescence(&mut sched, &mut (), 10_000);
        assert!(v
            .iter()
            .any(|v| v.invariant == "eventless-active" && v.component == "stuck"));
    }

    #[test]
    fn wake_in_past_is_flagged() {
        let mut sched: Scheduler<()> = Scheduler::new(100_000, true);
        sched.register(0, Box::new(Tardy), &mut ());
        // A healthy neighbour keeps time moving so the tardy report is
        // genuinely in the past, not just at tick zero.
        sched.register(
            1,
            Box::new(Counter {
                clock: ClockDomain::from_ghz(2.0),
                remaining: 4,
            }),
            &mut (),
        );
        let v = run_for(&mut sched, &mut (), 16);
        assert!(
            v.iter()
                .any(|v| v.invariant == "wake-in-past" && v.component == "tardy"),
            "got {v:?}"
        );
    }

    #[test]
    fn broken_wake_promise_is_flagged() {
        let mut sched: Scheduler<()> = Scheduler::new(100_000, true);
        sched.register(
            0,
            Box::new(Flake {
                clock: ClockDomain::from_ghz(1.0),
            }),
            &mut (),
        );
        let v = run_for(&mut sched, &mut (), 64);
        assert!(v.iter().any(|v| v.invariant == "stale-wake"), "got {v:?}");
    }

    #[test]
    fn wake_rules_are_flagged_with_skip_off() {
        let skip_off = |comp: Box<dyn Component<()>>| {
            let mut s: Scheduler<()> = Scheduler::new(100_000, false);
            s.register(0, comp, &mut ());
            s
        };
        let mut s = skip_off(Box::new(Tardy));
        s.register(
            1,
            Box::new(Counter {
                clock: ClockDomain::from_ghz(2.0),
                remaining: 4,
            }),
            &mut (),
        );
        let v = run_for(&mut s, &mut (), 16);
        assert!(
            v.iter()
                .any(|v| v.invariant == "wake-in-past" && v.component == "tardy"),
            "got {v:?}"
        );

        let mut s = skip_off(Box::new(Flake {
            clock: ClockDomain::from_ghz(1.0),
        }));
        let v = run_for(&mut s, &mut (), 64);
        assert!(v.iter().any(|v| v.invariant == "stale-wake"), "got {v:?}");

        let mut s = skip_off(Box::new(Stuck));
        let v = run_to_quiescence(&mut s, &mut (), 10_000);
        assert!(
            v.iter()
                .any(|v| v.invariant == "eventless-active" && v.component == "stuck"),
            "got {v:?}"
        );
    }

    #[test]
    fn port_audit_flags_loss_capacity_and_drain() {
        use crate::port::PortSnapshot;
        let healthy = PortSnapshot {
            name: "ok".into(),
            pushed: 10,
            popped: 10,
            len: 0,
            capacity: 4,
            high_water: 4,
            stalls: 2,
        };
        let lossy = PortSnapshot {
            name: "lossy".into(),
            pushed: 10,
            popped: 8,
            len: 1,
            capacity: 4,
            high_water: 3,
            stalls: 0,
        };
        let overfull = PortSnapshot {
            name: "overfull".into(),
            pushed: 6,
            popped: 0,
            len: 6,
            capacity: 4,
            high_water: 6,
            stalls: 0,
        };
        let v = check_ports(&[healthy.clone(), lossy, overfull], 7, false);
        assert_eq!(v.len(), 2, "got {v:?}");
        assert!(v
            .iter()
            .any(|v| v.invariant == "port-no-loss" && v.component == "lossy"));
        assert!(v
            .iter()
            .any(|v| v.invariant == "port-capacity" && v.component == "overfull" && v.tick == 7));
        let stuck = PortSnapshot {
            name: "stuck".into(),
            pushed: 3,
            popped: 2,
            len: 1,
            capacity: 4,
            high_water: 2,
            stalls: 0,
        };
        let v = check_ports(&[healthy, stuck], 9, true);
        assert_eq!(v.len(), 1, "got {v:?}");
        assert_eq!(v[0].invariant, "port-drain");
    }

    #[test]
    fn skip_and_no_skip_runs_agree() {
        let mk = |skip| {
            let mut s: Scheduler<()> = Scheduler::new(100_000, skip);
            s.register(
                0,
                Box::new(Counter {
                    clock: ClockDomain::from_ghz(1.5),
                    remaining: 5,
                }),
                &mut (),
            );
            s
        };
        let mut a = mk(false);
        let mut b = mk(true);
        assert!(run_for(&mut a, &mut (), 50).is_empty());
        assert!(run_for(&mut b, &mut (), 50).is_empty());
        assert_eq!(a.now(), b.now());
        assert!(a.quiescent(&()) && b.quiescent(&()));
    }
}
