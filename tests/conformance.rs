//! Component-protocol conformance, applied to every `Component`
//! implementation through the reusable harness in
//! `distda_sim::conformance`: the full machine (all seven adapter
//! components together), and the standalone blanket impls of the mesh and
//! the memory system scheduled with `W = ()`.
//!
//! Cases are generated with the repo's own `SplitMix64` so the suite is
//! deterministic and dependency-free, matching `tests/property.rs`.

use distda::accel::IssueModel;
use distda::compiler::{compile, PartitionMode};
use distda::ir::prelude::*;
use distda::mem::{MemConfig, MemRequest, MemSystem, PortKind};
use distda::noc::{Mesh, NocConfig, Packet, TrafficClass};
use distda::sim::conformance::{run_for, run_to_quiescence};
use distda::sim::time::ClockDomain;
use distda::sim::{Scheduler, SplitMix64};
use distda::system::{allocate, AllocStrategy, Machine, Substrate, Topology};

fn scaled_setup(n: usize) -> (Program, distda::compiler::CompiledKernel, Machine, ArrayId) {
    scaled_setup_on(n, &Topology::paper())
}

fn scaled_setup_on(
    n: usize,
    topo: &Topology,
) -> (Program, distda::compiler::CompiledKernel, Machine, ArrayId) {
    let mut b = ProgramBuilder::new("pipe");
    let x = b.array_f64("x", n);
    let y = b.array_f64("y", n);
    b.for_(0, n as i64, 1, |b, i| {
        b.store(y, i.clone(), Expr::load(x, i) * Expr::cf(3.0));
    });
    let p = b.build();
    let ck = compile(&p, PartitionMode::Distributed);
    let mc = MemConfig {
        clusters: topo.clusters(),
        banks_per_cluster: topo.banks_per_cluster,
        ..MemConfig::default()
    };
    let mut mem = MemSystem::new(
        mc,
        ClockDomain::from_ghz(2.0),
        topo.host_node,
        topo.memctrl_node,
    );
    let alloc = allocate(
        &p,
        &ck.offloads,
        topo.clusters(),
        AllocStrategy::RoundRobin,
        &mut mem,
        0,
    );
    let mut img = Memory::for_program(&p);
    for i in 0..n {
        img.array_mut(x)[i] = Value::F(i as f64);
    }
    let machine = Machine::new(mem, vec![(img, alloc.layout)], topo);
    (p, ck, machine, y)
}

fn io_substrate(ghz: f64) -> Substrate {
    Substrate {
        model: IssueModel::InOrder { width: 1 },
        clock: ClockDomain::from_ghz(ghz),
        buffer_lines: 32,
        is_access_node: false,
        tuning: (8, 12, 16),
    }
}

/// The whole machine — host, delivery, engines, memory, injection, mesh —
/// honours the component protocol across randomized placements, engine
/// clocks and skip settings, and skip/no-skip runs agree on final time.
#[test]
fn machine_components_conform_across_random_configs() {
    let mut rng = SplitMix64::new(0xC04F);
    for _case in 0..6 {
        let n = 64 + 16 * rng.below(8) as usize;
        let p0 = rng.below(8) as usize;
        let p1 = rng.below(8) as usize;
        let ghz = [1.0, 1.5, 2.0, 3.0][rng.below(4) as usize];
        let mut finish = Vec::new();
        for skip in [false, true] {
            let (_p, ck, mut m, y) = scaled_setup(n);
            m.set_skip(skip);
            let plan = &ck.offloads[0];
            let subs = vec![io_substrate(ghz); plan.partitions.len()];
            let h = m.configure_plan(plan, &[p0, p1], &subs, &[], 0);
            m.launch(h, &[], &[vec![], vec![]], 0, n as i64, 1);
            let v = m.run_conformance(10_000_000);
            assert!(
                v.is_empty(),
                "skip={skip} placement=({p0},{p1}) ghz={ghz}: {}",
                v.iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            );
            assert!(m.plan_done(h));
            for i in 0..n {
                assert_eq!(m.memimg(0).array(y)[i], Value::F(3.0 * i as f64));
            }
            finish.push(m.now());
        }
        assert_eq!(finish[0], finish[1], "skip changed the finish time");
    }
}

/// A machine that interleaves host segments with offloads also conforms —
/// this exercises the host's finish-time wake promise (a jump to a
/// completion instant where `next_event` legitimately goes quiet).
#[test]
fn host_segment_completion_jump_conforms() {
    let (_p, ck, mut m, _y) = scaled_setup(64);
    use distda::ir::trace::{DynOp, OpKind, NO_DEP};
    let base = m.layout(0).base(ArrayId(0));
    let ops: Vec<DynOp> = (0..16)
        .map(|i| DynOp {
            kind: OpKind::Store { addr: base + i * 8 },
            dep1: NO_DEP,
            dep2: NO_DEP,
        })
        .collect();
    m.run_host_segment(ops).unwrap();
    let plan = &ck.offloads[0];
    let subs = vec![io_substrate(2.0); plan.partitions.len()];
    let h = m.configure_plan(plan, &[0, 1], &subs, &[], 0);
    m.launch(h, &[], &[vec![], vec![]], 0, 64, 1);
    let v = m.run_conformance(10_000_000);
    assert!(v.is_empty(), "{v:?}");
}

/// The mesh's standalone blanket impl (`W = ()`) keeps its wake promises
/// while routing randomized traffic.
#[test]
fn standalone_mesh_conforms_while_routing() {
    let mut rng = SplitMix64::new(0x4E5E);
    for _case in 0..8 {
        let mut mesh: Mesh<u64> = Mesh::new(4, 2, NocConfig::default(), ClockDomain::from_ghz(2.0));
        for k in 0..(1 + rng.below(12)) {
            let src = rng.below(8) as usize;
            let dst = rng.below(8) as usize;
            let bytes = 8 + 8 * rng.below(8) as u32;
            let _ = mesh.try_inject(0, Packet::new(src, dst, bytes, TrafficClass::AccData, k));
        }
        let mut sched: Scheduler<()> = Scheduler::new(1_000_000, rng.below(2) == 0);
        sched.register(0, Box::new(mesh), &mut ());
        // Inboxes are never drained here (no delivery component), so the
        // mesh stays non-quiescent by design; run a bounded window and
        // require zero protocol violations while packets route.
        let v = run_for(&mut sched, &mut (), 400);
        assert!(v.is_empty(), "{v:?}");
    }
}

/// Every port in the machine passes the generic handshake-compliance
/// audit after a drained run, across randomized mesh shapes and
/// placements: no-loss (`pushed == popped + len`), capacity never
/// exceeded (occupancy and high-water), and drained ports empty — the
/// same `check_ports` rules the sanitizer applies at drain time, here
/// asserted directly on [`Machine::port_snapshots`].
#[test]
fn ports_conform_across_random_topologies() {
    let mut rng = SplitMix64::new(0x9047);
    for _case in 0..5 {
        let cols = 2 + rng.below(3) as usize; // 2..=4 columns
        let rows = 2 + rng.below(2) as usize; // 2..=3 rows
        let topo = Topology::mesh(cols, rows);
        let clusters = topo.clusters();
        let n = 64 + 16 * rng.below(5) as usize;
        let p0 = rng.below(clusters as u64) as usize;
        let p1 = rng.below(clusters as u64) as usize;
        let (_p, ck, mut m, y) = scaled_setup_on(n, &topo);
        let plan = &ck.offloads[0];
        let subs = vec![io_substrate(2.0); plan.partitions.len()];
        let h = m.configure_plan(plan, &[p0, p1], &subs, &[], 0);
        m.launch(h, &[], &[vec![], vec![]], 0, n as i64, 1);
        let v = m.run_conformance(10_000_000);
        assert!(
            v.is_empty(),
            "{cols}x{rows} placement=({p0},{p1}): {}",
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        let snaps = m.port_snapshots();
        assert!(!snaps.is_empty(), "machine must expose its ports");
        assert!(
            snaps.iter().any(|s| s.pushed > 0),
            "run must move traffic through the ports"
        );
        let pv = distda::sim::conformance::check_ports(&snaps, m.now(), true);
        assert!(
            pv.is_empty(),
            "{cols}x{rows} placement=({p0},{p1}) port audit: {}",
            pv.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        for i in 0..n {
            assert_eq!(m.memimg(0).array(y)[i], Value::F(3.0 * i as f64));
        }
    }
}

/// The harness catches the liveness bug the drain loop exists to prevent:
/// a memory system whose responses nobody ever collects is an
/// eventless-active component. Waiting responses are their requester's
/// work, so the hierarchy reports no event for them, and the drain stops
/// at once instead of burning its budget.
#[test]
fn uncollected_memory_responses_are_flagged() {
    // Host and memory controller share node 0, and every line is homed
    // at cluster 0 (8-way line interleaving), so the whole protocol runs
    // without a mesh and only the responses are left over.
    let mut mem = MemSystem::new(MemConfig::default(), ClockDomain::from_ghz(2.0), 0, 0);
    let port = mem.register_port(PortKind::Host);
    for id in 0..4 {
        mem.request(
            0,
            MemRequest {
                port,
                id,
                addr: 64 * 8 * id,
                write: false,
            },
        );
    }
    let mut sched: Scheduler<()> = Scheduler::new(1_000_000, true);
    sched.register(0, Box::new(mem), &mut ());
    let v = run_to_quiescence(&mut sched, &mut (), 100_000);
    assert!(
        v.iter().any(|x| x.invariant == "eventless-active"),
        "expected the stranded responses to be flagged eventless-active, got {v:?}"
    );
}
