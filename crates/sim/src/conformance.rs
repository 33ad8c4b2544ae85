//! Reusable conformance harness for [`Component`] implementations.
//!
//! The scheduler's skip-ahead is only sound if every component honours the
//! [`Component`] protocol contract; a component that reports wake times in
//! the past, or promises a wake it then fails to act on, silently breaks
//! bit-identity between skipping and non-skipping runs. This module drives
//! a [`Scheduler`] exactly as the run loops do while checking the contract
//! at every decision point:
//!
//! - **wake-in-past** — [`Component::next_event`] must report a tick
//!   `>= now`.
//! - **stale-wake** — after jumping to the promised global wake tick `w`,
//!   a re-probe must report `Some(w)` again (some component really does
//!   have observable work there), *unless* the jump landed on a completion
//!   instant, in which case every component must be quiescent.
//! - **eventless-active** — when the global wake fold returns `None` (no
//!   component will ever act again without input), every component must be
//!   quiescent; a non-quiescent component with no scheduled event is a
//!   liveness bug (e.g. produced responses nobody will ever collect).
//! - **no-quiescence** — [`run_to_quiescence`] must reach global
//!   quiescence within its budget; exhausting it means ticking at the
//!   promised wake times is not making progress.
//!
//! The harness respects the scheduler's skip setting: with skip on it
//! exercises the jump/re-probe path, with skip off the tick-by-tick path.
//! Conformance suites should run both and compare final times — the
//! protocol guarantees they agree.

use crate::component::Scheduler;
use crate::port::PortSnapshot;
use crate::time::{earliest, Tick};

#[cfg(doc)]
use crate::component::Component;
#[cfg(doc)]
use crate::port::{Channel, RxPort, TxPort};

/// One observed violation of the component protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the offending component (or `"scheduler"` for global
    /// rules).
    pub comp: String,
    /// Which rule broke: `"wake-in-past"`, `"stale-wake"`,
    /// `"eventless-active"`, `"no-quiescence"`, or one of the port
    /// handshake rules from [`check_ports`] (`"port-no-loss"`,
    /// `"port-capacity"`, `"port-drain"`).
    pub rule: &'static str,
    /// Tick at which the violation was observed.
    pub now: Tick,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} at tick {}: {}",
            self.rule, self.comp, self.now, self.detail
        )
    }
}

/// Checks the probe-time rules once at the scheduler's current tick:
/// every component's wake is `>= now`, and if no component has any
/// scheduled event, every component is quiescent.
pub fn probe_violations<W>(sched: &Scheduler<W>, world: &W) -> Vec<Violation> {
    let now = sched.now();
    let mut out = Vec::new();
    let mut fold: Option<Tick> = None;
    for comp in sched.components() {
        let cand = comp.next_event(now, world);
        if let Some(c) = cand {
            if c < now {
                out.push(Violation {
                    comp: comp.name().to_string(),
                    rule: "wake-in-past",
                    now,
                    detail: format!("next_event reported {c} < now {now}"),
                });
            }
        }
        fold = earliest(fold, cand);
    }
    if fold.is_none() {
        for comp in sched.components() {
            if !comp.is_quiescent(now, world) {
                out.push(Violation {
                    comp: comp.name().to_string(),
                    rule: "eventless-active",
                    now,
                    detail: "no component has a scheduled event, yet this one is not quiescent"
                        .to_string(),
                });
            }
        }
    }
    out
}

/// The global wake fold, computed without the sanitizer side effects of
/// [`Scheduler::next_wake`] and without its early exit (so `probe` and the
/// run loops agree on the minimum).
fn wake_fold<W>(sched: &Scheduler<W>, world: &W) -> Option<Tick> {
    let now = sched.now();
    sched
        .components()
        .fold(None, |acc, c| earliest(acc, c.next_event(now, world)))
}

/// After a jump to the promised wake tick, either the promise holds on
/// re-probe or the machine has fully completed.
fn check_jump<W>(sched: &Scheduler<W>, world: &W, out: &mut Vec<Violation>) {
    let now = sched.now();
    match wake_fold(sched, world) {
        Some(w) if w == now => {}
        None if sched.quiescent(world) => {}
        other => out.push(Violation {
            comp: "scheduler".to_string(),
            rule: "stale-wake",
            now,
            detail: format!(
                "jumped to promised wake tick but re-probe says {other:?} and the machine is not quiescent"
            ),
        }),
    }
}

/// Drives the scheduler for exactly `ticks` simulated base ticks,
/// checking the protocol at every decision point. Skip jumps follow the
/// scheduler's own skip setting. Returns all observed violations.
pub fn run_for<W>(sched: &mut Scheduler<W>, world: &mut W, ticks: u64) -> Vec<Violation> {
    let target = sched.now() + ticks;
    let mut out = Vec::new();
    while sched.now() < target {
        out.extend(probe_violations(sched, world));
        match wake_fold(sched, world) {
            None => {
                // Nothing will ever happen again (probe_violations has
                // already flagged any non-quiescent component); jump to
                // the target.
                sched.advance_ticks(world, target - sched.now());
                break;
            }
            Some(w) if w > sched.now() => {
                // Jump without ticking: advance_ticks stops exactly at
                // the wake tick, at which point the promise must hold.
                let dist = w.min(target) - sched.now();
                sched.advance_ticks(world, dist);
                if sched.now() == w {
                    check_jump(sched, world, &mut out);
                }
            }
            _ => sched.tick(world),
        }
    }
    out
}

/// Drives the scheduler until every component is quiescent, checking the
/// protocol at every decision point; flags `no-quiescence` if the machine
/// fails to drain within `budget` base ticks of the starting time.
pub fn run_to_quiescence<W>(
    sched: &mut Scheduler<W>,
    world: &mut W,
    budget: u64,
) -> Vec<Violation> {
    let deadline = sched.now() + budget;
    let mut out = Vec::new();
    loop {
        if sched.quiescent(world) {
            return out;
        }
        if sched.now() >= deadline {
            out.push(Violation {
                comp: "scheduler".to_string(),
                rule: "no-quiescence",
                now: sched.now(),
                detail: format!("machine failed to drain within {budget} ticks"),
            });
            return out;
        }
        out.extend(probe_violations(sched, world));
        match wake_fold(sched, world) {
            None => {
                // Eventless but not quiescent: probe_violations flagged
                // the culprits; ticking further cannot help.
                return out;
            }
            Some(w) if w > sched.now() => {
                sched.advance_ticks(world, w - sched.now());
                check_jump(sched, world, &mut out);
            }
            _ => sched.tick(world),
        }
    }
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
                comp: p.name.clone(),
                rule: "port-no-loss",
                now,
                detail: format!(
                    "pushed {} != popped {} + occupancy {}",
                    p.pushed, p.popped, p.len
                ),
            });
        }
        if p.len > p.capacity || p.high_water > p.capacity {
            out.push(Violation {
                comp: p.name.clone(),
                rule: "port-capacity",
                now,
                detail: format!(
                    "occupancy {} / high-water {} exceed capacity {}",
                    p.len, p.high_water, p.capacity
                ),
            });
        }
        if drained && p.len > 0 {
            out.push(Violation {
                comp: p.name.clone(),
                rule: "port-drain",
                now,
                detail: format!("{} elements still queued after drain", p.len),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Component, Instruments};
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
        fn tick(&mut self, now: Tick, _w: &mut (), _i: &mut Instruments) {
            if self.remaining > 0 && self.clock.fires_at(now) {
                self.remaining -= 1;
            }
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
        fn tick(&mut self, _: Tick, _: &mut (), _: &mut Instruments) {}
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
        fn tick(&mut self, _: Tick, _: &mut (), _: &mut Instruments) {}
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
        fn tick(&mut self, _: Tick, _: &mut (), _: &mut Instruments) {}
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
            .any(|v| v.rule == "eventless-active" && v.comp == "stuck"));
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
                .any(|v| v.rule == "wake-in-past" && v.comp == "tardy"),
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
        assert!(v.iter().any(|v| v.rule == "stale-wake"), "got {v:?}");
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
            .any(|v| v.rule == "port-no-loss" && v.comp == "lossy"));
        assert!(v
            .iter()
            .any(|v| v.rule == "port-capacity" && v.comp == "overfull" && v.now == 7));
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
        assert_eq!(v[0].rule, "port-drain");
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
