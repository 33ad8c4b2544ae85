//! The Section VI-D multithreading case study (Figure 12b).
//!
//! Models thread-level parallelism the way the paper's annotated
//! multi-threaded bfs/pathfinder do: each software thread drives its own
//! set of distributed accelerator resources, so `T` threads become `T`
//! concurrently-active plan instances sharing the NUCA L3, mesh and DRAM
//! (contention included). Host-side orchestration is serialized across
//! threads, which matches the paper's observation that per-iteration
//! scheduling limits pathfinder's scaling.

use distda_compiler::{compile, PartitionMode};
use distda_ir::interp::Memory;
use distda_ir::value::Value;
use distda_ir::Program;
use distda_system::runner::{place_partitions, substrates_for};
use distda_system::{machine_for, ConfigKind, Machine, PlanHandle, RunConfig};
use distda_workloads::{gen, Scale};

/// Result of one multithreaded run.
#[derive(Debug, Clone, Copy)]
pub struct MtResult {
    /// Threads simulated.
    pub threads: usize,
    /// Total base ticks.
    pub ticks: u64,
    /// Whether results matched the reference.
    pub validated: bool,
}

/// Compiles the one loop of `prog` under `cfg`, builds its machine with
/// [`machine_for`] (inputs installed by `init`), and configures one
/// instance of the plan per thread, all at the same placement.
fn thread_machine(
    prog: &Program,
    init: &dyn Fn(&mut Memory),
    cfg: &RunConfig,
    threads: usize,
) -> (Machine, Vec<PlanHandle>) {
    let mode = cfg
        .kind
        .partition_mode()
        .unwrap_or(PartitionMode::Monolithic);
    let mut ck = compile(prog, mode);
    assert_eq!(ck.offloads.len(), 1);
    if cfg.kind.decentralize_accesses() {
        ck.offloads[0] = distda_system::decentralize(&ck.offloads[0]);
    }
    let (mut machine, allocs) = machine_for(prog, init, cfg, &ck.offloads);
    let plan = &ck.offloads[0];
    let placement = place_partitions(plan, &allocs[0], cfg.kind, cfg.topology.host_node);
    let substrates = substrates_for(plan, cfg);
    let handles = (0..threads)
        .map(|_| machine.configure_plan(plan, &placement, &substrates, &[], 0))
        .collect();
    (machine, handles)
}

/// Multithreaded level-synchronous BFS: per level, up to `threads` frontier
/// nodes' edge loops execute concurrently on distinct accelerator
/// contexts.
pub fn bfs_mt(scale: &Scale, threads: usize, cfg: &RunConfig) -> MtResult {
    let n = scale.nodes;
    let (row_ptr, col) = gen::csr_graph(n, scale.edge_factor, scale.seed + 80);
    let (dist_ref, ecc) = gen::bfs_reference(&row_ptr, &col, 0);

    // The per-node edge loop, compiled standalone: arrays aj, visited,
    // cost, updating; the node id and its edge range arrive as rf scalars.
    let mut b = distda_ir::ProgramBuilder::new("bfs-inner");
    let aj = b.array_i64("aj", col.len());
    let visited = b.array_i64("visited", n);
    let cost = b.array_i64("cost", n);
    let updating = b.array_i64("updating", n);
    let node = b.scalar("node", 0i64);
    let lo = b.scalar("lo", 0i64);
    let hi = b.scalar("hi", 0i64);
    use distda_ir::Expr;
    b.for_(Expr::Scalar(lo), Expr::Scalar(hi), 1, |b, e| {
        let id = Expr::load(aj, e);
        let vis = Expr::load(visited, id.clone());
        let newc = Expr::load(cost, Expr::Scalar(node)) + Expr::c(1);
        b.store(
            cost,
            id.clone(),
            vis.clone().select(Expr::load(cost, id.clone()), newc),
        );
        b.store(
            updating,
            id.clone(),
            vis.select(Expr::load(updating, id), Expr::c(1)),
        );
    });
    let prog = b.build();
    let init = |img: &mut Memory| {
        for (k, v) in col.iter().enumerate() {
            img.array_mut(aj)[k] = Value::I(*v);
        }
        img.array_mut(visited)[0] = Value::I(1);
        for v in img.array_mut(cost).iter_mut().skip(1) {
            *v = Value::I(-1);
        }
    };
    let (mut machine, handles) = thread_machine(&prog, &init, cfg, threads);

    // Host-side frontier state.
    let mut mask = vec![false; n];
    mask[0] = true;
    let params_of = |machine: &Machine, v: usize| -> Vec<Value> {
        machine
            .plan_params(handles[0])
            .iter()
            .map(|sym| match sym {
                distda_compiler::Sym::Scalar(s) if s.0 == node.0 => Value::I(v as i64),
                distda_compiler::Sym::Scalar(s) if s.0 == lo.0 => Value::I(row_ptr[v]),
                distda_compiler::Sym::Scalar(s) if s.0 == hi.0 => Value::I(row_ptr[v + 1]),
                _ => Value::I(0),
            })
            .collect()
    };

    for _level in 0..=ecc {
        let frontier: Vec<usize> = (0..n).filter(|&v| mask[v]).collect();
        for v in &frontier {
            mask[*v] = false;
        }
        // Threads pull frontier nodes; up to `threads` edge loops in
        // flight at once.
        let mut next = 0usize;
        let mut busy: Vec<Option<usize>> = vec![None; threads];
        loop {
            let mut active = false;
            for (t, h) in handles.iter().enumerate() {
                if busy[t].is_some() {
                    if machine.plan_done(*h) {
                        busy[t] = None;
                    } else {
                        active = true;
                        continue;
                    }
                }
                if busy[t].is_none() && next < frontier.len() {
                    let v = frontier[next];
                    next += 1;
                    let params = params_of(&machine, v);
                    let carries: Vec<Vec<Value>> = machine
                        .plan_carry_scalars(*h)
                        .iter()
                        .map(|ss| ss.iter().map(|_| Value::I(0)).collect())
                        .collect();
                    machine.launch(*h, &params, &carries, row_ptr[v], row_ptr[v + 1], 1);
                    busy[t] = Some(v);
                    active = true;
                }
            }
            if !active && next >= frontier.len() {
                break;
            }
            // One tick (as the per-tick polling loop always made), then let
            // the machine run — skipping idle ticks — until some in-flight
            // plan finishes and the scheduler above has work to do again.
            // Re-scanning on ticks where nothing completed is a no-op, so
            // this is tick-identical to polling every tick.
            machine.tick();
            let busy_handles: Vec<_> = busy
                .iter()
                .enumerate()
                .filter_map(|(t, b)| b.map(|_| handles[t]))
                .collect();
            machine
                .run_until("mt-bfs", |_, m| {
                    busy_handles.iter().any(|&h| m.plan_done(h))
                })
                .unwrap_or_else(|e| panic!("{e}"));
        }
        // Frontier rotation on the host (fast bookkeeping, not modeled as
        // offload): mask <- updating, visited |= updating.
        for (v, m) in mask.iter_mut().enumerate().take(n) {
            let upd = machine.memimg(0).array(updating)[v].truthy();
            if upd {
                *m = true;
                machine.memimg_mut(0).store(visited, v as i64, Value::I(1));
                machine.memimg_mut(0).store(updating, v as i64, Value::I(0));
            }
        }
    }
    machine.drain().unwrap_or_else(|e| panic!("{e}"));
    let got: Vec<i64> = machine
        .memimg(0)
        .array(cost)
        .iter()
        .map(|v| v.as_i64())
        .collect();
    let mut expect = dist_ref;
    expect[0] = 0;
    let validated = got
        .iter()
        .zip(expect.iter())
        .all(|(g, e)| *g == *e || (*e == 0 && *g <= 0));
    MtResult {
        threads,
        ticks: machine.now(),
        validated,
    }
}

/// Multithreaded pathfinder: each row's interior-column loop is split into
/// `threads` chunks executing concurrently (barrier per row, as the
/// paper's per-iteration scheduling does).
pub fn pathfinder_mt(scale: &Scale, threads: usize, cfg: &RunConfig) -> MtResult {
    let (rows, cols) = (scale.rows, scale.cols);
    let mut b = distda_ir::ProgramBuilder::new("pf-inner");
    let wall = b.array_f64("wall", rows * cols);
    let src = b.array_f64("src", cols);
    let dst = b.array_f64("dst", cols);
    let row = b.scalar("row", 0i64);
    let lo = b.scalar("lo", 0i64);
    let hi = b.scalar("hi", 0i64);
    use distda_ir::Expr;
    b.for_(Expr::Scalar(lo), Expr::Scalar(hi), 1, |b, j| {
        let best = Expr::load(src, j.clone() - Expr::c(1))
            .min(Expr::load(src, j.clone()))
            .min(Expr::load(src, j.clone() + Expr::c(1)));
        b.store(
            dst,
            j.clone(),
            Expr::load(wall, Expr::Scalar(row) * Expr::c(cols as i64) + j) + best,
        );
    });
    let prog = b.build();
    let wall_vals = gen::pixels(rows * cols, scale.seed + 60);
    let init = |img: &mut Memory| img.array_mut(wall).copy_from_slice(&wall_vals);
    let (mut machine, handles) = thread_machine(&prog, &init, cfg, threads);

    let interior = cols - 2;
    let chunk = interior.div_ceil(threads);
    for i in 0..rows {
        // Launch all chunks of this row concurrently.
        let mut launched = Vec::new();
        for (t, h) in handles.iter().enumerate() {
            let c_lo = 1 + t * chunk;
            if c_lo >= cols - 1 {
                break;
            }
            let c_hi = (c_lo + chunk).min(cols - 1);
            let params: Vec<Value> = machine
                .plan_params(*h)
                .iter()
                .map(|sym| match sym {
                    distda_compiler::Sym::Scalar(s) if s.0 == row.0 => Value::I(i as i64),
                    distda_compiler::Sym::Scalar(s) if s.0 == lo.0 => Value::I(c_lo as i64),
                    distda_compiler::Sym::Scalar(s) if s.0 == hi.0 => Value::I(c_hi as i64),
                    _ => Value::I(0),
                })
                .collect();
            let carries: Vec<Vec<Value>> = machine
                .plan_carry_scalars(*h)
                .iter()
                .map(|ss| ss.iter().map(|_| Value::I(0)).collect())
                .collect();
            machine.launch(*h, &params, &carries, c_lo as i64, c_hi as i64, 1);
            launched.push(*h);
        }
        machine
            .run_until("mt-pathfinder", |_, m| {
                launched.iter().all(|h| m.plan_done(*h))
            })
            .unwrap_or_else(|e| panic!("{e}"));
        // Host: edges + roll src <- dst.
        let w0 = machine.memimg(0).load(wall, (i * cols) as i64).as_f64();
        let s0 = machine.memimg(0).load(src, 0).as_f64();
        let s1 = machine.memimg(0).load(src, 1).as_f64();
        machine
            .memimg_mut(0)
            .store(dst, 0, Value::F(w0 + s0.min(s1)));
        let wl = machine
            .memimg(0)
            .load(wall, (i * cols + cols - 1) as i64)
            .as_f64();
        let sl = machine.memimg(0).load(src, (cols - 1) as i64).as_f64();
        let sl2 = machine.memimg(0).load(src, (cols - 2) as i64).as_f64();
        machine
            .memimg_mut(0)
            .store(dst, (cols - 1) as i64, Value::F(wl + sl.min(sl2)));
        for j in 0..cols {
            let v = machine.memimg(0).load(dst, j as i64);
            machine.memimg_mut(0).store(src, j as i64, v);
        }
    }
    machine.drain().unwrap_or_else(|e| panic!("{e}"));

    // Validate against the plain-Rust oracle.
    let mut s = vec![0.0f64; cols];
    let mut d = vec![0.0f64; cols];
    let wv: Vec<f64> = wall_vals.iter().map(|v| v.as_f64()).collect();
    for i in 0..rows {
        for j in 0..cols {
            let mut best = s[j];
            if j > 0 {
                best = best.min(s[j - 1]);
            }
            if j + 1 < cols {
                best = best.min(s[j + 1]);
            }
            d[j] = wv[i * cols + j] + best;
        }
        s.copy_from_slice(&d);
    }
    let validated =
        (0..cols).all(|j| (machine.memimg(0).array(src)[j].as_f64() - s[j]).abs() < 1e-9);
    MtResult {
        threads,
        ticks: machine.now(),
        validated,
    }
}

/// Renders Figure 12b: multithreaded speedups normalized to the
/// single-threaded run of the same configuration.
pub fn fig12b(scale: &Scale) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "\n=== Figure 12b: multithreading case study ===").unwrap();
    writeln!(
        out,
        "{:<12} {:<18} {:>8} {:>12} {:>10}",
        "kernel", "config", "threads", "ticks", "speedup"
    )
    .unwrap();
    for kind in [ConfigKind::DistDAIO, ConfigKind::DistDAF] {
        let cfg = RunConfig::named(kind);
        for (name, run) in [
            ("bfs", bfs_mt as fn(&Scale, usize, &RunConfig) -> MtResult),
            ("pathfinder", pathfinder_mt),
        ] {
            let mut base = 0u64;
            for threads in [1usize, 2, 4, 8] {
                let r = run(scale, threads, &cfg);
                assert!(r.validated, "{name} x{threads} failed validation");
                if threads == 1 {
                    base = r.ticks;
                }
                writeln!(
                    out,
                    "{:<12} {:<18} {:>8} {:>12} {:>10.2}",
                    name,
                    cfg.label(),
                    threads,
                    r.ticks,
                    base as f64 / r.ticks as f64
                )
                .unwrap();
            }
        }
    }
    out
}
