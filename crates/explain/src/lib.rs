//! # distda-explain
//!
//! Causal bottleneck attribution and critical-path analysis over the
//! port fabric.
//!
//! The paper's central claim is that offload overhead is dominated by
//! *interface waits* — time blocked on handshakes between host, memory,
//! mesh and engines. The rest of the observability stack can say where
//! time goes (the profiler's per-component host-ns, the per-port stall
//! totals); this crate says *why*: it turns the machine's blame topology
//! (the final per-port stalls, each engine's stall ledger one edge per
//! port) and the windowed port samples into a ranked causal tree — "61%
//! of stall ticks: engine.3 blocked on chan2, itself blocked on net_out
//! back-pressure" — with exact tick
//! accounting (`blamed + self_busy + idle == ticks`, checked here and
//! escalated to the sanitizer by the runner).
//!
//! Inputs are plain data (see [`Observation`]), so the analyzer can be
//! driven by synthetic machines in tests; the real feed comes from
//! `Machine::port_topology` / `Machine::engine_observations` plus the
//! windowed [`Sampler`](distda_sim::Sampler) ring that
//! `DISTDA_EXPLAIN=1` attaches to a run.
//!
//! [`Observation`]: crate::model::Observation

pub mod analyze;
pub mod model;
pub mod render;

pub use analyze::{analyze, phases, Accounting, Explanation, PathStep, Phase, Wait};
pub use model::{Edge, EngineObs, Observation};
pub use render::{render_json, render_text, to_report, top_bottleneck};

#[cfg(test)]
mod tests {
    use super::*;
    use distda_sim::port::Channel;
    use distda_sim::port::PortSnapshot;

    fn snap(name: &str, stalls: u64) -> PortSnapshot {
        let mut ch = Channel::<u8>::unbounded();
        ch.note_stalls(stalls);
        ch.snapshot(name)
    }

    /// A synthetic two-port machine whose critical path is known in
    /// closed form: engine.0 produces into chan0 (consumed by
    /// engine.1), engine.1 waits on mem.resp1 (served by mem). With
    /// engine.0 stalled 600 ticks on chan0 and engine.1 stalled 400 on
    /// its response port, the path must be
    /// engine.0 -> chan0 -> engine.1 -> mem.resp1 -> mem, and the top
    /// share exactly 600/1000.
    fn two_port() -> Observation {
        Observation {
            ticks: 2000,
            edges: vec![
                Edge::new("chan0", "engine.0", "engine.1", 600),
                Edge::new("chan0", "engine.1", "engine.0", 0),
                Edge::new("mem.resp1", "engine.1", "mem", 400),
            ],
            engines: vec![
                EngineObs {
                    name: "engine.0".into(),
                    busy_ticks: 900,
                    period_ticks: 1,
                },
                EngineObs {
                    name: "engine.1".into(),
                    busy_ticks: 1100,
                    period_ticks: 1,
                },
            ],
            samples: None,
        }
    }

    #[test]
    fn two_port_critical_path_is_closed_form() {
        let x = analyze(&two_port());
        assert!(x.violations.is_empty(), "{:?}", x.violations);
        assert_eq!(x.stall_ticks, 1000);
        let path: Vec<(&str, &str, &str, u64)> = x
            .critical_path
            .iter()
            .map(|s| {
                (
                    s.component.as_str(),
                    s.port.as_str(),
                    s.blamed.as_str(),
                    s.ticks,
                )
            })
            .collect();
        assert_eq!(
            path,
            vec![
                ("engine.0", "chan0", "engine.1", 600),
                ("engine.1", "mem.resp1", "mem", 400),
            ]
        );
        assert!((x.critical_path[0].share - 0.6).abs() < 1e-12);
        // Exact accounting: blamed + busy + idle == ticks per engine.
        for e in &x.engines {
            assert_eq!(e.blamed_ticks + e.busy_ticks + e.idle_ticks, x.ticks);
        }
        assert_eq!(x.engines[0].name, "engine.0"); // most blamed first
        assert_eq!(x.engines[0].idle_ticks, 2000 - 900 - 600);
    }

    #[test]
    fn over_accounting_is_a_violation() {
        let mut obs = two_port();
        obs.ticks = 1000; // busy + blamed of engine.1 now exceeds the run
        let x = analyze(&obs);
        assert!(x.violations.iter().any(|v| v.contains("engine.1")));
    }

    #[test]
    fn cyclic_wait_graphs_terminate() {
        let obs = Observation {
            ticks: 100,
            edges: vec![
                Edge::new("chan0", "engine.0", "engine.1", 10),
                Edge::new("chan1", "engine.1", "engine.0", 5),
            ],
            engines: vec![
                EngineObs {
                    name: "engine.0".into(),
                    ..Default::default()
                },
                EngineObs {
                    name: "engine.1".into(),
                    ..Default::default()
                },
            ],
            samples: None,
        };
        let x = analyze(&obs);
        // One full loop then stop: e0 -> e1, e1 -> e0 (already visited).
        assert_eq!(x.critical_path.len(), 2);
    }

    #[test]
    fn engine_cycle_periods_convert_port_stalls() {
        // A 1 GHz engine (period 6) whose port carries 100 stall cycles
        // must account 600 base ticks.
        let obs = Observation {
            ticks: 10_000,
            edges: vec![Edge::new("chan0", "engine.0", "engine.1", 100)],
            engines: vec![EngineObs {
                name: "engine.0".into(),
                busy_ticks: 1200,
                period_ticks: 6,
            }],
            samples: None,
        };
        let x = analyze(&obs);
        assert!(x.violations.is_empty(), "{:?}", x.violations);
        assert_eq!(x.engines[0].waits[0].ticks, 600);
        assert_eq!(x.engines[0].blamed_ticks, 600);
    }

    #[test]
    fn renders_parse_and_round_trip_the_verdict() {
        let x = analyze(&two_port());
        let txt = render_text(&x);
        assert!(txt.contains("60.0% of stall ticks"), "{txt}");
        assert!(txt.contains("engine.0 blocked on chan0 -> engine.1"));
        let json = render_json(&x);
        let v = distda_trace::json::parse(&json).expect("tree JSON parses");
        assert_eq!(v.get("stall_ticks").and_then(|n| n.as_num()), Some(1000.0));
        assert_eq!(
            v.get("critical_path")
                .and_then(|p| p.as_arr())
                .map(|a| a.len()),
            Some(2)
        );

        let mut report = distda_sim::Report::new();
        report.merge_prefixed("explain", &to_report(&x));
        let (top, share) = top_bottleneck(&report).expect("verdict");
        assert_eq!(top, "engine.0");
        assert!((share - 0.6).abs() < 1e-12);
    }

    #[test]
    fn phases_follow_the_dominant_port_over_time() {
        use distda_sim::Sampler;
        let s = Sampler::enabled(100, 64);
        // First two windows dominated by chan0, then mem.resp1 takes over.
        s.record_at(100, &[snap("chan0", 50), snap("mem.resp1", 0)], &[]);
        s.record_at(200, &[snap("chan0", 90), snap("mem.resp1", 10)], &[]);
        s.record_at(300, &[snap("chan0", 95), snap("mem.resp1", 80)], &[]);
        let obs = Observation {
            ticks: 300,
            samples: s.dump(),
            ..Default::default()
        };
        let p = phases(&obs);
        assert_eq!(p.len(), 2, "{p:?}");
        assert_eq!((p[0].port.as_str(), p[0].from, p[0].to), ("chan0", 0, 200));
        assert_eq!(p[0].stalls, 50 + 40);
        assert_eq!(
            (p[1].port.as_str(), p[1].from, p[1].to),
            ("mem.resp1", 200, 300)
        );
    }
}
