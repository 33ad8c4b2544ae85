//! Scheduler-loop micro-benchmarks: synthetic machines that isolate the
//! dispatch kernel from the modeled hardware.
//!
//! Two extremes bracket the tick loop's behavior:
//!
//! - **busy**: every component reports an event on every tick, so
//!   skip-ahead never fires. This times raw dispatch plus the stage-order
//!   wake probe's `== now` early exit — the path a saturated machine
//!   lives on.
//! - **idle**: components wake once per ~100 ticks, so ~99% of simulated
//!   time is jumped over. This times the skip-ahead path, whose cost is
//!   dominated by how fast the wake fold finds the next event.
//!
//! The repository benchmark reports the two numbers separately
//! (`sim.busy_dispatch_ticks_per_s`, `sim.idle_skip_ticks_per_s`) so a
//! dispatch win on the busy path and a skip-ahead win on the idle path
//! cannot mask each other in one blended figure.

use distda_sim::component::{Component, Instruments, Scheduler};
use distda_sim::time::Tick;
use std::time::Instant;

/// Components per synthetic machine (matches the order of magnitude of a
/// real `Machine`: delivery + host + mem + noc + a few engines).
const COMPONENTS: u64 = 8;
/// Simulated ticks for the 100%-busy machine (every tick executes).
const BUSY_TICKS: u64 = 4_000_000;
/// Simulated ticks for the 99%-idle machine (one executed tick per
/// [`IDLE_STRIDE`]).
const IDLE_TICKS: u64 = 400_000_000;
/// Gap between consecutive wakes on the idle machine, across all
/// components (each component wakes once per `COMPONENTS * IDLE_STRIDE`).
const IDLE_STRIDE: u64 = 100;

struct KWorld {
    work: u64,
}

/// Always has work at `now`: the scheduler can never skip.
struct Busy;

impl Component<KWorld> for Busy {
    fn name(&self) -> &str {
        "bench.busy"
    }
    fn tick(&mut self, _now: Tick, world: &mut KWorld, _instr: &mut Instruments) {
        world.work = world.work.wrapping_add(1);
    }
    fn next_event(&self, now: Tick, _world: &KWorld) -> Option<Tick> {
        Some(now)
    }
    fn is_quiescent(&self, _now: Tick, _world: &KWorld) -> bool {
        true
    }
}

/// Wakes on ticks where `(now + phase) % period == 0`; staggered phases
/// spread the components' wakes evenly across simulated time.
struct Idle {
    period: u64,
    phase: u64,
}

impl Component<KWorld> for Idle {
    fn name(&self) -> &str {
        "bench.idle"
    }
    fn tick(&mut self, now: Tick, world: &mut KWorld, _instr: &mut Instruments) {
        if (now + self.phase).is_multiple_of(self.period) {
            world.work = world.work.wrapping_add(1);
        }
    }
    fn next_event(&self, now: Tick, _world: &KWorld) -> Option<Tick> {
        Some(now + (self.period - (now + self.phase) % self.period) % self.period)
    }
    fn is_quiescent(&self, _now: Tick, _world: &KWorld) -> bool {
        true
    }
}

/// Wall-clock results of the two micro-benchmarks.
#[derive(Debug, Clone, Copy)]
pub struct KernelBench {
    /// Simulated ticks advanced on the busy machine.
    pub busy_ticks: u64,
    /// Host seconds for the busy machine.
    pub busy_secs: f64,
    /// Simulated ticks advanced on the idle machine.
    pub idle_ticks: u64,
    /// Host seconds for the idle machine.
    pub idle_secs: f64,
}

impl KernelBench {
    /// Busy-machine throughput (every tick executed).
    pub fn busy_ticks_per_sec(&self) -> f64 {
        self.busy_ticks as f64 / self.busy_secs
    }

    /// Idle-machine throughput (~99% of ticks skipped).
    pub fn idle_ticks_per_sec(&self) -> f64 {
        self.idle_ticks as f64 / self.idle_secs
    }
}

fn time_machine(comps: impl Iterator<Item = Box<dyn Component<KWorld>>>, ticks: u64) -> f64 {
    let mut world = KWorld { work: 0 };
    let mut sched: Scheduler<KWorld> = Scheduler::new(u64::MAX, true);
    for (stage, c) in comps.enumerate() {
        sched.register(stage as u32, c, &mut world);
    }
    let t0 = Instant::now();
    sched.advance_ticks(&mut world, ticks);
    let secs = t0.elapsed().as_secs_f64();
    assert!(world.work > 0, "micro-bench machine did no work");
    secs
}

/// Runs both micro-benchmarks single-threaded and returns their timings.
pub fn run_kernel_bench() -> KernelBench {
    let busy_secs = time_machine(
        (0..COMPONENTS).map(|_| Box::new(Busy) as Box<dyn Component<KWorld>>),
        BUSY_TICKS,
    );
    let period = COMPONENTS * IDLE_STRIDE;
    let idle_secs = time_machine(
        (0..COMPONENTS).map(|i| {
            Box::new(Idle {
                period,
                phase: i * IDLE_STRIDE,
            }) as Box<dyn Component<KWorld>>
        }),
        IDLE_TICKS,
    );
    KernelBench {
        busy_ticks: BUSY_TICKS,
        busy_secs,
        idle_ticks: IDLE_TICKS,
        idle_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_machine_executes_every_tick() {
        let mut world = KWorld { work: 0 };
        let mut sched: Scheduler<KWorld> = Scheduler::new(u64::MAX, true);
        for s in 0..4u32 {
            sched.register(s, Box::new(Busy), &mut world);
        }
        sched.advance_ticks(&mut world, 1000);
        assert_eq!(world.work, 4 * 1000);
    }

    #[test]
    fn idle_machine_skips_between_staggered_wakes() {
        let mut world = KWorld { work: 0 };
        let mut sched: Scheduler<KWorld> = Scheduler::new(u64::MAX, true);
        for i in 0..4u64 {
            sched.register(
                i as u32,
                Box::new(Idle {
                    period: 40,
                    phase: i * 10,
                }),
                &mut world,
            );
        }
        // One component has work every 10 ticks; each executed tick runs
        // all four but only one counts.
        sched.advance_ticks(&mut world, 400);
        assert_eq!(world.work, 400 / 10);
    }

    #[test]
    fn busy_and_idle_rates_are_distinct() {
        let kb = KernelBench {
            busy_ticks: 100,
            busy_secs: 2.0,
            idle_ticks: 1000,
            idle_secs: 4.0,
        };
        assert!((kb.busy_ticks_per_sec() - 50.0).abs() < 1e-9);
        assert!((kb.idle_ticks_per_sec() - 250.0).abs() < 1e-9);
    }
}
