//! Randomized model-based tests on the core data structures and the
//! end-to-end invariants the system depends on.
//!
//! Cases are generated with the repo's own `SplitMix64` so the suite is
//! deterministic, reproducible across platforms, and dependency-free.

use distda::compiler::{compile, PartitionMode};
use distda::ir::prelude::*;
use distda::mem::cache::{Cache, Lookup};
use distda::mem::params::CacheParams;
use distda::noc::{Mesh, NocConfig, Packet, TrafficClass};
use distda::sim::time::ClockDomain;
use distda::sim::{Channel, CreditLoop, SplitMix64};
use distda::system::{try_simulate, ConfigKind, RunConfig, RunSpec};
use std::collections::HashSet;

/// The handshaked channel behaves exactly like a FIFO model under random
/// offer/accept interleavings: order-preserving, lossless, and
/// stable-data — a refused offer hands the value back unchanged so the
/// producer can re-offer it, exactly like holding a `valid` wire stable.
/// The snapshot accounting conserves at every step
/// (`pushed == popped + len`, `high_water <= capacity`).
#[test]
fn channel_handshake_matches_fifo_model() {
    let mut rng = SplitMix64::new(0x0FFE2);
    for _case in 0..64 {
        let cap = 1 + rng.below(15) as usize;
        let n_ops = 1 + rng.below(249) as usize;
        let mut ch: Channel<u32> = Channel::bounded(cap);
        let mut model = std::collections::VecDeque::new();
        let mut next = 0u32;
        for _ in 0..n_ops {
            if rng.below(3) < 2 {
                assert_eq!(ch.tx().ready(), model.len() < cap);
                match ch.tx().offer(next) {
                    Ok(()) => model.push_back(next),
                    Err(back) => {
                        assert_eq!(back, next, "stable-data: value must come back unchanged");
                        assert_eq!(model.len(), cap, "offer refused while not full");
                    }
                }
                next += 1;
            } else {
                assert_eq!(ch.rx().valid(), !model.is_empty());
                assert_eq!(ch.rx().peek(), model.front());
                assert_eq!(ch.rx().accept(), model.pop_front());
            }
            assert_eq!(ch.len(), model.len());
            let s = ch.snapshot("t");
            assert_eq!(s.pushed, s.popped + s.len as u64, "no-loss violated");
            assert!(s.high_water <= cap);
        }
        let mut rx = ch.rx();
        while let Some(v) = rx.accept() {
            assert_eq!(Some(v), model.pop_front());
        }
        assert!(model.is_empty());
    }
}

/// Credit loops conserve across random produce/consume/grant
/// interleavings: credits held + deferred debt + in-flight credit
/// messages + queue occupancy always account for the whole ring, the
/// producer can never overfill a channel it holds a credit for, and once
/// everything drains and grants land, `drained()` holds exactly.
#[test]
fn credit_loop_conserves_under_random_interleavings() {
    let mut rng = SplitMix64::new(0xC2ED17);
    for _case in 0..64 {
        let cap = 2 + rng.below(14) as usize;
        let batch = 1 + rng.below(7) as usize;
        let mut ch: Channel<u32> = Channel::bounded(cap);
        let mut flow = CreditLoop::new(cap, batch);
        let mut in_flight = 0usize; // flushed batches awaiting their grant
        let mut next = 0u32;
        for _ in 0..300 {
            match rng.below(3) {
                0 => {
                    // Produce: a held credit guarantees room.
                    if flow.take() {
                        assert!(ch.tx().offer(next).is_ok(), "credit must bound occupancy");
                        next += 1;
                    } else {
                        assert_eq!(flow.credits(), 0);
                    }
                }
                1 => {
                    // Consume on the remote path: defer the credit return.
                    if ch.rx().accept().is_some() {
                        if let Some(n) = flow.defer() {
                            in_flight += n;
                        }
                    }
                }
                _ => {
                    // The credit message arrives.
                    flow.grant(in_flight);
                    in_flight = 0;
                }
            }
            assert!(flow.conserves(ch.len()), "credit conservation violated");
            assert_eq!(
                flow.credits() + flow.debt() + in_flight + ch.len(),
                cap,
                "the ring must be fully accounted at every step"
            );
        }
        // Drain: consume the rest, land every grant, and the ring closes.
        while ch.rx().accept().is_some() {
            if let Some(n) = flow.defer() {
                in_flight += n;
            }
        }
        flow.grant(in_flight);
        assert!(ch.is_empty());
        assert!(flow.drained(), "drained ring must hold every credit");
    }
}

/// The cache tag array tracks presence exactly like a set model.
#[test]
fn cache_matches_reference_set_model() {
    let mut rng = SplitMix64::new(0xCAC4E);
    for _case in 0..64 {
        let n_lines = 1 + rng.below(299) as usize;
        let mut c = Cache::new(CacheParams {
            size_bytes: 16 * 64,
            assoc: 2,
            latency: 1,
            mshrs: 4,
        });
        let mut resident: HashSet<u64> = HashSet::new();
        for _ in 0..n_lines {
            let line = rng.below(64);
            match c.access(line, false) {
                Lookup::Hit => assert!(resident.contains(&line), "phantom hit on {line}"),
                Lookup::Miss => {
                    assert!(!resident.contains(&line), "missed resident line {line}");
                    c.fill(line, false);
                    resident.insert(line);
                    // Mirror an eviction if the set exceeded associativity.
                    let set = line % 8;
                    let in_set: Vec<u64> =
                        resident.iter().copied().filter(|l| l % 8 == set).collect();
                    if in_set.len() > 2 {
                        // Trust the cache: resync residency from probes.
                        for l in in_set {
                            if !c.probe(l) {
                                resident.remove(&l);
                            }
                        }
                    }
                }
            }
            assert!(c.resident_lines() <= 32);
        }
    }
}

/// Every injected packet is delivered exactly once, to its destination.
#[test]
fn mesh_delivers_everything() {
    let mut rng = SplitMix64::new(0x4E54);
    for _case in 0..64 {
        let n_pkts = 1 + rng.below(39) as usize;
        let mut mesh: Mesh<usize> =
            Mesh::new(4, 2, NocConfig::default(), ClockDomain::from_ghz(2.0));
        let mut expected: Vec<Option<usize>> = Vec::new();
        let mut t = 0u64;
        let mut accepted = 0usize;
        for i in 0..n_pkts {
            let src = rng.below(8) as usize;
            let dst = rng.below(8) as usize;
            let bytes = 1 + rng.below(255) as u32;
            if mesh
                .try_inject(t, Packet::new(src, dst, bytes, TrafficClass::AccData, i))
                .is_ok()
            {
                expected.push(Some(dst));
                accepted += 1;
            } else {
                expected.push(None);
            }
            mesh.tick(t);
            t += 1;
        }
        let mut got = 0usize;
        while mesh.is_active() {
            mesh.tick(t);
            t += 1;
            assert!(t < 1_000_000, "mesh failed to drain");
        }
        for node in 0..8 {
            for p in mesh.drain_inbox(node) {
                assert_eq!(expected[p.payload], Some(node), "misrouted packet");
                got += 1;
            }
        }
        assert_eq!(got, accepted, "lost or duplicated packets");
    }
}

/// Compiled plans are structurally valid for arbitrary map-style
/// kernels, and distributed partitioning anchors one object each.
#[test]
fn compiled_plans_validate() {
    let mut rng = SplitMix64::new(0xC0DE);
    for _case in 0..32 {
        let n_arrays = 2 + rng.below(3) as usize;
        let scale = 1 + rng.below(4) as i64;
        let offset = rng.below(5) as i64 - 2;
        let mut b = ProgramBuilder::new("gen");
        let arrays: Vec<_> = (0..n_arrays)
            .map(|k| b.array_f64(format!("a{k}"), 64))
            .collect();
        let out = *arrays.last().unwrap();
        b.for_(2, 60, 1, |b, i| {
            let mut acc = Expr::cf(1.0);
            for &a in &arrays[..n_arrays - 1] {
                acc = acc + Expr::load(a, i.clone() * Expr::c(scale) + Expr::c(offset));
            }
            b.store(out, i, acc);
        });
        let p = b.build();
        for mode in [PartitionMode::Distributed, PartitionMode::Monolithic] {
            let ck = compile(&p, mode);
            assert_eq!(ck.offloads.len(), 1);
            let plan = &ck.offloads[0];
            assert!(plan.validate().is_ok(), "{:?}", plan.validate());
            if mode == PartitionMode::Distributed {
                for part in &plan.partitions {
                    let objs: HashSet<_> = part.accesses.iter().map(|a| a.array).collect();
                    assert!(objs.len() <= 1, "partition touches {} objects", objs.len());
                }
            }
        }
    }
}

/// End-to-end: random affine map kernels produce reference-identical
/// results under distributed offload, and simulation is deterministic.
#[test]
fn simulation_is_correct_and_deterministic() {
    let mut rng = SplitMix64::new(0x51AB);
    for _case in 0..4 {
        let seed = rng.below(1000);
        let stride = 1 + rng.below(3) as i64;
        let n = 64usize;
        let mut b = ProgramBuilder::new("prop");
        let x = b.array_f64("x", n * 4);
        let y = b.array_f64("y", n * 4);
        b.for_(0, n as i64, 1, |b, i| {
            let v = Expr::load(x, i.clone() * Expr::c(stride)) * Expr::cf(1.5) + Expr::cf(1.0);
            b.store(y, i * Expr::c(stride), v);
        });
        let p = b.build();
        let init = move |mem: &mut Memory| {
            let mut r = SplitMix64::new(seed);
            for v in mem.array_mut(x) {
                *v = Value::F(r.next_f64());
            }
        };
        let cfg = RunConfig::named(ConfigKind::DistDAIO);
        let r1 = try_simulate(&p, &init, &cfg, &RunSpec::from_env())
            .unwrap()
            .result;
        let r2 = try_simulate(&p, &init, &cfg, &RunSpec::from_env())
            .unwrap()
            .result;
        assert!(r1.validated);
        assert_eq!(r1.ticks, r2.ticks, "nondeterministic timing");
        assert_eq!(r1.counters.noc_hop_bytes, r2.counters.noc_hop_bytes);
    }
}
