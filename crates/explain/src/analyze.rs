//! The causal analysis: exact tick accounting, blame-graph walk,
//! critical-path extraction and phase detection.
//!
//! ## Accounting invariant
//!
//! For every engine `e` over a run of `T` base ticks:
//!
//! ```text
//! blamed(e) + self_busy(e) + idle(e) == T
//! ```
//!
//! where `blamed(e)` is the sum of the engine's blame-edge waits (every
//! engine edge that missed because a port refused the handshake,
//! converted to base ticks) and `self_busy(e)` is busy engine cycles
//! converted to base ticks. `idle` is the remainder, so the *checkable*
//! content of the invariant is over-accounting: `blamed + self_busy <=
//! T`. The edges, the port series and the engine totals are all views
//! of one stall ledger that each engine owns, so there is no second
//! copy to cross-check them against. Violations are reported in
//! [`Explanation::violations`] and escalated to the sanitizer by the
//! runner.
//!
//! ## Blame walk
//!
//! Producer stalls on port P blame P's `blamed` component (the
//! topology's [`Edge`]); the critical path starts at the engine with
//! the most blamed ticks, follows its dominant port to the blamed
//! component, then recursively follows *that* component's dominant
//! wait, with a visited-set guard so cyclic wait graphs terminate.

use crate::model::{Edge, EngineObs, Observation};
use distda_sim::time::Tick;
use std::collections::BTreeMap;

/// One component's exact tick accounting over the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accounting {
    /// Component name.
    pub name: String,
    /// Base ticks blocked on ports, total.
    pub blamed_ticks: u64,
    /// Base ticks doing work.
    pub busy_ticks: u64,
    /// Base ticks neither busy nor blocked (not yet launched, done, or
    /// waiting for its own clock edge).
    pub idle_ticks: u64,
    /// The blocked ticks broken down by port, largest first.
    pub waits: Vec<Wait>,
}

/// Ticks a component spent blocked at one port, and who that indicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wait {
    /// The port the component was blocked at.
    pub port: String,
    /// The component the blocked ticks indict.
    pub blamed: String,
    /// Blocked base ticks.
    pub ticks: u64,
}

/// One step of the critical path: `component` blocked on `port`, which
/// indicts `blamed` — the next step explains `blamed` in turn.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// The waiting component.
    pub component: String,
    /// The dominant port it was blocked at.
    pub port: String,
    /// The component the wait indicts.
    pub blamed: String,
    /// Blocked ticks at that port.
    pub ticks: u64,
    /// This wait as a fraction of all engine stall ticks in the run.
    pub share: f64,
}

/// A maximal run of sampling windows dominated by the same port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// First tick of the phase (inclusive).
    pub from: Tick,
    /// Last boundary of the phase (exclusive end).
    pub to: Tick,
    /// The port that accumulated the most stall cycles in the phase,
    /// empty when no port stalled at all.
    pub port: String,
    /// Stall cycles the dominant port accumulated during the phase.
    pub stalls: u64,
}

/// The analyzer's output: a ranked causal explanation of where the
/// run's ticks went.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// Total simulated base ticks.
    pub ticks: Tick,
    /// Sum of every engine's blamed ticks (the denominator of every
    /// `share`).
    pub stall_ticks: u64,
    /// Per-engine accounting, most-blamed first.
    pub engines: Vec<Accounting>,
    /// The dominant chain of waits, starting at the most-blamed engine.
    pub critical_path: Vec<PathStep>,
    /// Time-resolved bottleneck phases (empty without sampling).
    pub phases: Vec<Phase>,
    /// Accounting-invariant violations (empty on a healthy run).
    pub violations: Vec<String>,
}

fn edges_waited_by<'a>(obs: &'a Observation, comp: &str) -> impl Iterator<Item = &'a Edge> {
    let comp = comp.to_string();
    obs.edges.iter().filter(move |e| e.waiter == comp)
}

/// The waits of one component, largest first (ties broken by port name
/// so the ordering is deterministic). Each edge carries the waiter's
/// own attributed stall cycles; engine waits are converted from engine
/// cycles to base ticks via the engine's clock period, non-engine
/// components charge their ports in base ticks already.
fn waits_of(obs: &Observation, comp: &str) -> Vec<Wait> {
    let period = obs
        .engines
        .iter()
        .find(|e| e.name == comp)
        .map(|e| e.period_ticks)
        .unwrap_or(1);
    let mut waits: Vec<Wait> = edges_waited_by(obs, comp)
        .map(|e| Wait {
            port: e.port.clone(),
            blamed: e.blamed.clone(),
            ticks: e.stalls * period,
        })
        .filter(|w| w.ticks > 0)
        .collect();
    waits.sort_by(|a, b| b.ticks.cmp(&a.ticks).then(a.port.cmp(&b.port)));
    waits
}

fn account_engine(obs: &Observation, eng: &EngineObs, violations: &mut Vec<String>) -> Accounting {
    let waits = waits_of(obs, &eng.name);
    let blamed = waits.iter().map(|w| w.ticks).sum();
    let busy = eng.busy_ticks;
    let idle = obs.ticks.saturating_sub(blamed + busy);
    if blamed + busy > obs.ticks {
        violations.push(format!(
            "{}: blamed {blamed} + busy {busy} ticks exceed run total {} — \
             blamed + self_busy + idle == ticks cannot hold",
            eng.name, obs.ticks
        ));
    }
    Accounting {
        name: eng.name.clone(),
        blamed_ticks: blamed,
        busy_ticks: busy,
        idle_ticks: idle,
        waits,
    }
}

fn critical_path(obs: &Observation, engines: &[Accounting], stall_ticks: u64) -> Vec<PathStep> {
    let mut path = Vec::new();
    let Some(start) = engines.iter().find(|e| e.blamed_ticks > 0) else {
        return path;
    };
    let mut visited = vec![start.name.clone()];
    let mut waits = start.waits.clone();
    let mut comp = start.name.clone();
    while let Some(w) = waits.first().cloned() {
        path.push(PathStep {
            component: comp.clone(),
            port: w.port.clone(),
            blamed: w.blamed.clone(),
            ticks: w.ticks,
            share: if stall_ticks > 0 {
                w.ticks as f64 / stall_ticks as f64
            } else {
                0.0
            },
        });
        if visited.contains(&w.blamed) {
            break;
        }
        visited.push(w.blamed.clone());
        comp = w.blamed;
        waits = waits_of(obs, &comp);
    }
    path
}

/// Collapses the sample windows into maximal phases dominated by one
/// port. Returns an empty vec when no sampling ran or nothing stalled.
pub fn phases(obs: &Observation) -> Vec<Phase> {
    let Some(dump) = &obs.samples else {
        return Vec::new();
    };
    let mut out: Vec<Phase> = Vec::new();
    let mut prev: BTreeMap<&str, u64> = BTreeMap::new();
    let mut from = 0;
    for win in &dump.windows {
        // Dominant port of this window by stall delta; ties break by
        // name order (BTreeMap iteration), keeping the output stable.
        let mut best: Option<(&str, u64)> = None;
        let mut cur: BTreeMap<&str, u64> = BTreeMap::new();
        for (i, name) in dump.port_names.iter().enumerate() {
            let now = win.ports.get(i).map(|p| p.stalls).unwrap_or(0);
            cur.insert(name, now);
            let delta = now - prev.get(name.as_str()).copied().unwrap_or(0);
            if delta > 0 && best.is_none_or(|(_, b)| delta > b) {
                best = Some((name, delta));
            }
        }
        let (port, stalls) = best.unwrap_or(("", 0));
        match out.last_mut() {
            Some(last) if last.port == port && last.to == from => {
                last.to = win.at;
                last.stalls += stalls;
            }
            _ => out.push(Phase {
                from,
                to: win.at,
                port: port.to_string(),
                stalls,
            }),
        }
        from = win.at;
        prev = cur;
    }
    out.retain(|p| !p.port.is_empty());
    out
}

/// Runs the full analysis over one observation.
pub fn analyze(obs: &Observation) -> Explanation {
    let mut violations = Vec::new();
    let mut engines: Vec<Accounting> = obs
        .engines
        .iter()
        .map(|e| account_engine(obs, e, &mut violations))
        .collect();
    engines.sort_by(|a, b| {
        b.blamed_ticks
            .cmp(&a.blamed_ticks)
            .then(a.name.cmp(&b.name))
    });
    let stall_ticks = engines.iter().map(|e| e.blamed_ticks).sum();
    let critical_path = critical_path(obs, &engines, stall_ticks);
    let phases = phases(obs);
    Explanation {
        ticks: obs.ticks,
        stall_ticks,
        engines,
        critical_path,
        phases,
        violations,
    }
}
