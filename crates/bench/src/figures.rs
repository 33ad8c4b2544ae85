//! Renderers for every table and figure in the paper's evaluation.
//!
//! Each function returns the rendered text; binaries print and save it.
//! Normalization follows the paper: everything against OoO unless stated
//! otherwise (Figure 13 against Dist-DA-IO@1GHz, Figure 14 against
//! Dist-DA-IO).

use crate::{metric_table, run_suite_matrix, Sweep};
use distda_compiler::{compile, summarize, MechanismUse, PartitionMode};
use distda_energy::AreaModel;
use distda_system::{ConfigKind, RunConfig};
use distda_workloads::{fdtd_2d, nw_blocked, spmv, spmv_flat, suite, Scale};
use std::fmt::Write;

/// Accelerated configuration labels, in paper order.
fn accel_labels(sweep: &Sweep) -> Vec<String> {
    sweep.configs.clone()
}

/// Figure 7: normalized energy efficiency (higher is better).
pub fn fig07(sweep: &Sweep) -> String {
    metric_table(
        "Figure 7: normalized energy efficiency (vs OoO, higher = better)",
        sweep,
        &accel_labels(sweep),
        |r| r.energy_pj(),
        Some("OoO"),
        true,
    )
}

/// Figure 8: normalized cache accesses (lower is better).
pub fn fig08(sweep: &Sweep) -> String {
    metric_table(
        "Figure 8: # cache accesses normalized to OoO (lower = better)",
        sweep,
        &accel_labels(sweep),
        |r| r.cache_accesses as f64,
        Some("OoO"),
        false,
    )
}

/// Figure 9: dynamic access distribution (intra / D-A / A-A) per DA
/// configuration.
pub fn fig09(sweep: &Sweep) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "\n=== Figure 9: dynamic access distribution (% of accelerator bytes) ==="
    )
    .unwrap();
    let configs: Vec<&String> = sweep
        .configs
        .iter()
        .filter(|c| c.as_str() != "OoO")
        .collect();
    writeln!(
        out,
        "{:<14} {:<20} {:>8} {:>8} {:>8}",
        "benchmark", "config", "intra%", "D-A%", "A-A%"
    )
    .unwrap();
    for k in &sweep.kernels {
        for c in &configs {
            let r = sweep.get(k, c);
            let total = (r.intra_bytes + r.da_bytes + r.aa_bytes).max(1) as f64;
            writeln!(
                out,
                "{:<14} {:<20} {:>8.1} {:>8.1} {:>8.1}",
                k,
                c,
                100.0 * r.intra_bytes as f64 / total,
                100.0 * r.da_bytes as f64 / total,
                100.0 * r.aa_bytes as f64 / total,
            )
            .unwrap();
        }
    }
    out
}

/// Figure 10: NoC traffic breakdown, normalized to the OoO total.
pub fn fig10(sweep: &Sweep) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "\n=== Figure 10: NoC bytes by class, normalized to OoO total ==="
    )
    .unwrap();
    writeln!(
        out,
        "{:<14} {:<20} {:>8} {:>8} {:>9} {:>9} {:>9} {:>8}",
        "benchmark", "config", "ctrl", "data", "acc_ctrl", "acc_data", "mem_data", "total"
    )
    .unwrap();
    for k in &sweep.kernels {
        let base: f64 = sweep.get(k, "OoO").noc_bytes.iter().sum::<u64>().max(1) as f64;
        for c in &sweep.configs {
            let r = sweep.get(k, c);
            let nb = r.noc_bytes;
            writeln!(
                out,
                "{:<14} {:<20} {:>8.3} {:>8.3} {:>9.3} {:>9.3} {:>9.3} {:>8.3}",
                k,
                c,
                nb[0] as f64 / base,
                nb[1] as f64 / base,
                nb[2] as f64 / base,
                nb[3] as f64 / base,
                nb[4] as f64 / base,
                nb.iter().sum::<u64>() as f64 / base,
            )
            .unwrap();
        }
    }
    out
}

/// Figure 11a: normalized memory-operation rate and IPC.
pub fn fig11a(sweep: &Sweep) -> String {
    let mut out = metric_table(
        "Figure 11a (left): memory-op rate normalized to OoO",
        sweep,
        &accel_labels(sweep),
        |r| r.mem_op_rate(),
        Some("OoO"),
        false,
    );
    out.push_str(&metric_table(
        "Figure 11a (right): IPC normalized to OoO",
        sweep,
        &accel_labels(sweep),
        |r| r.ipc(),
        Some("OoO"),
        false,
    ));
    out
}

/// Figure 11b: speedup over OoO.
pub fn fig11b(sweep: &Sweep) -> String {
    metric_table(
        "Figure 11b: speedup vs OoO (higher = better)",
        sweep,
        &accel_labels(sweep),
        |r| r.ticks as f64,
        Some("OoO"),
        true,
    )
}

/// Headline data-movement reduction (abstract: 2.4x / 3.5x / 1.48x).
pub fn data_movement(sweep: &Sweep) -> String {
    metric_table(
        "Data movement (bytes) normalized to OoO (lower = better)",
        sweep,
        &accel_labels(sweep),
        |r| r.data_moved_bytes as f64,
        Some("OoO"),
        false,
    )
}

/// Figure 12a: the spmv / nw control-intensive case studies.
///
/// * Dist-DA-B  — compiler-automated innermost-loop offload (one launch
///   per row): launch overhead dominates short rows.
/// * Dist-DA-BN — user-annotated loop-nest localization, modeled by the
///   nonzero-flattened kernel (one launch per matrix).
/// * Dist-DA-BNS — BN plus a user-specified fill/drain schedule, modeled
///   by deeper prefetch/MLP tuning and affinity allocation
///   (`cp_fill_ra`/`cp_drain_ra` semantics).
pub fn fig12a(scale: &Scale) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "\n=== Figure 12a: control-intensive offload case study ==="
    )
    .unwrap();
    writeln!(out, "{:<8} {:<14} {:>10}", "kernel", "config", "speedup").unwrap();

    // spmv family.
    let row = spmv(scale);
    let flat = spmv_flat(scale);
    let ooo_cfg = RunConfig::named(ConfigKind::OoO);
    let io_cfg = RunConfig::named(ConfigKind::DistDAIO);
    let ooo = row.try_simulate(&ooo_cfg).unwrap();
    let b = row.try_simulate(&io_cfg).unwrap();
    let bn = flat.try_simulate(&io_cfg).unwrap();
    let mut bns_cfg = RunConfig::dist_da_io_sw();
    bns_cfg.alloc = distda_system::AllocStrategy::Affinity;
    let bns = flat.try_simulate(&bns_cfg).unwrap();
    for (label, r) in [
        ("Dist-DA-B", &b),
        ("Dist-DA-BN", &bn),
        ("Dist-DA-BNS", &bns),
    ] {
        assert!(r.validated);
        writeln!(
            out,
            "{:<8} {:<14} {:>10.2}",
            "spmv",
            label,
            ooo.ticks as f64 / r.ticks as f64
        )
        .unwrap();
    }

    // nw family: short inner blocks (B) vs full-row localization (BN/BNS).
    let nw_b = nw_blocked(scale, 8);
    let nw_bn = nw_blocked(scale, scale.seq);
    let ooo_nw = nw_b.try_simulate(&ooo_cfg).unwrap();
    let b = nw_b.try_simulate(&io_cfg).unwrap();
    let bn = nw_bn.try_simulate(&io_cfg).unwrap();
    let bns = nw_bn.try_simulate(&bns_cfg).unwrap();
    for (label, r) in [
        ("Dist-DA-B", &b),
        ("Dist-DA-BN", &bn),
        ("Dist-DA-BNS", &bns),
    ] {
        assert!(r.validated);
        writeln!(
            out,
            "{:<8} {:<14} {:>10.2}",
            "nw",
            label,
            ooo_nw.ticks as f64 / r.ticks as f64
        )
        .unwrap();
    }
    out
}

/// Figure 13: accelerator clock sensitivity (1-3 GHz), normalized to
/// Dist-DA-IO@1GHz.
pub fn fig13(scale: &Scale) -> String {
    let mut cfgs = Vec::new();
    for ghz in [1.0, 1.5, 2.0, 3.0] {
        cfgs.push(RunConfig {
            accel_ghz: ghz,
            ..RunConfig::named(ConfigKind::DistDAIO)
        });
        cfgs.push(RunConfig {
            accel_ghz: ghz,
            ..RunConfig::named(ConfigKind::DistDAF)
        });
    }
    let sweep = run_suite_matrix(scale, &cfgs);
    let labels = sweep.configs.clone();
    let mut out = metric_table(
        "Figure 13 (speedup): normalized to Dist-DA-IO@1GHz (higher = better)",
        &sweep,
        &labels,
        |r| r.ticks as f64,
        Some("Dist-DA-IO@1GHz"),
        true,
    );
    // The paper's Figure 13 IPC is per *accelerator* cycle: raising the
    // clock shortens the cycle, so access-dominated kernels lose IPC even
    // as wall-clock improves.
    let accel_ipc = |r: &distda_system::RunResult| {
        let ghz: f64 = r
            .config
            .rsplit('@')
            .next()
            .and_then(|s| s.trim_end_matches("GHz").parse().ok())
            .unwrap_or(2.0);
        let cycles = r.ns * ghz;
        r.total_ops as f64 / cycles.max(1.0)
    };
    out.push_str(&metric_table(
        "Figure 13 (IPC per accelerator cycle): normalized to Dist-DA-IO@1GHz",
        &sweep,
        &labels,
        accel_ipc,
        Some("Dist-DA-IO@1GHz"),
        false,
    ));
    out
}

/// Figure 14: software-optimization study, normalized to Dist-DA-IO.
pub fn fig14(scale: &Scale) -> String {
    let cfgs = vec![
        RunConfig::named(ConfigKind::DistDAIO),
        RunConfig::dist_da_io_sw(),
        RunConfig::named(ConfigKind::DistDAF),
        RunConfig::dist_da_f_alloc(),
    ];
    let sweep = run_suite_matrix(scale, &cfgs);
    let labels = sweep.configs.clone();
    let mut out = metric_table(
        "Figure 14 (speedup): normalized to Dist-DA-IO@2GHz",
        &sweep,
        &labels,
        |r| r.ticks as f64,
        Some("Dist-DA-IO@2GHz"),
        true,
    );
    out.push_str(&metric_table(
        "Figure 14 (energy efficiency): normalized to Dist-DA-IO@2GHz",
        &sweep,
        &labels,
        |r| r.energy_pj(),
        Some("Dist-DA-IO@2GHz"),
        true,
    ));
    out
}

/// Table V: coverage of interface mechanisms (C = compiler-automated,
/// U = user-annotated case study).
pub fn table05(scale: &Scale) -> String {
    let mut out = String::new();
    writeln!(out, "\n=== Table V: coverage of interface mechanisms ===").unwrap();
    let mech_names: Vec<&str> = MechanismUse::default().iter().map(|(n, _)| n).collect();
    write!(out, "{:<12}", "benchmark").unwrap();
    for n in &mech_names {
        write!(out, " {:>16}", n).unwrap();
    }
    writeln!(out).unwrap();
    for w in suite(scale) {
        let ck = compile(&w.program, PartitionMode::Distributed);
        let m = MechanismUse::of_plans(&ck.offloads);
        write!(out, "{:<12}", w.name).unwrap();
        for (_, used) in m.iter() {
            write!(out, " {:>16}", if used { "C" } else { "" }).unwrap();
        }
        writeln!(out).unwrap();
    }
    // Annotated case studies: mark the user-driven mechanisms. The
    // BNS schedule exercises cp_fill_ra/cp_drain_ra explicitly.
    for (name, w, ra) in [
        ("spmv(ann.)", spmv_flat(scale), true),
        ("nw(ann.)", nw_blocked(scale, scale.seq), true),
    ] {
        let ck = compile(&w.program, PartitionMode::Distributed);
        let mut m = MechanismUse::of_plans(&ck.offloads);
        m.cp_fill_ra = ra;
        m.cp_drain_ra = ra;
        write!(out, "{:<12}", name).unwrap();
        for (_, used) in m.iter() {
            write!(out, " {:>16}", if used { "U" } else { "" }).unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

/// Table VI: offload characteristics of the Dist-DA configuration.
pub fn table06(scale: &Scale) -> String {
    let mut out = String::new();
    writeln!(out, "\n=== Table VI: offload characteristics (Dist-DA) ===").unwrap();
    writeln!(
        out,
        "{:<14} {:>6} {:>6} {:>7} {:>5} {:>7} {:>9} {:>9}",
        "benchmark", "%cc", "%dc", "%init", "#buf", "#insts", "DFG dim", "insts(B)"
    )
    .unwrap();
    for w in suite(scale) {
        let ck = compile(&w.program, PartitionMode::Distributed);
        let dims: Vec<(usize, usize)> = ck.offloads.iter().map(|p| p.dfg_dims).collect();
        let stats = summarize(&ck.offloads, &dims);
        let run = |kind| w.try_simulate(&RunConfig::named(kind)).unwrap();
        let (ooo, dist) = (run(ConfigKind::OoO), run(ConfigKind::DistDAIO));
        assert!(ooo.validated && dist.validated);
        let accel_ops = dist.total_ops - dist.host_ops;
        let host_mem = dist.report.get("host.mem_ops").unwrap_or(0.0) as u64;
        // `RunResult::mem_ops` is host mem ops + engine mem ops, and the
        // "host.mem_ops" report entry is the same host count round-tripped
        // through f64 (exact below 2^53), so the host share can never
        // exceed the total.
        debug_assert!(
            host_mem <= dist.mem_ops,
            "host mem ops {host_mem} exceed total {}",
            dist.mem_ops
        );
        let accel_mem = dist.mem_ops - host_mem;
        let cc = 100.0 * accel_ops as f64 / ooo.total_ops.max(1) as f64;
        let dc = 100.0 * accel_mem as f64 / ooo.mem_ops.max(1) as f64;
        let init = 100.0 * dist.counters.mmio_words as f64 / ooo.mem_ops.max(1) as f64;
        writeln!(
            out,
            "{:<14} {:>6.1} {:>6.2} {:>7.2} {:>5} {:>7} {:>4}x{:<4} {:>9}",
            w.name,
            cc.min(100.0),
            dc.min(100.0),
            init,
            stats.avg_buffers,
            stats.max_insts,
            stats.dfg_dims.0,
            stats.dfg_dims.1,
            stats.max_microcode_bytes,
        )
        .unwrap();
    }
    out
}

/// Section VI-E: accelerator area overheads.
pub fn table_area() -> String {
    let a = AreaModel::nominal_32nm();
    let clusters = distda_system::Topology::paper().clusters();
    let mut out = String::new();
    writeln!(out, "\n=== Section VI-E: area overheads (32 nm) ===").unwrap();
    writeln!(
        out,
        "in-order core + access unit: {:.2}% of an L3 cluster, {:.2}% of the chip ({clusters} clusters)",
        a.io_overhead_per_cluster() * 100.0,
        a.io_overhead_chip(clusters) * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "5x5 CGRA + access unit:      {:.2}% of an L3 cluster, {:.2}% of the chip ({clusters} clusters)",
        a.cgra_overhead_per_cluster() * 100.0,
        a.cgra_overhead_chip(clusters) * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "(paper reports 1.9%/0.3% for the in-order core and 2.9%/0.48% for the CGRA)"
    )
    .unwrap();
    out
}

/// Section VI-E working-set sweep on fdtd-2d.
pub fn sweep_working_set() -> String {
    let mut out = String::new();
    writeln!(out, "\n=== Section VI-E: fdtd-2d working-set sweep ===").unwrap();
    writeln!(
        out,
        "{:>6} {:>12} {:>22} {:>20}",
        "grid", "footprint", "on-chip move reduction", "energy eff (vs Mono)"
    )
    .unwrap();
    for grid in [64usize, 128, 256, 384] {
        let mut scale = Scale::big_grid(grid);
        scale.steps = 1;
        let w = fdtd_2d(&scale);
        let run = |kind| w.try_simulate(&RunConfig::named(kind)).unwrap();
        let (mono, dist) = (run(ConfigKind::MonoDAIO), run(ConfigKind::DistDAF));
        assert!(mono.validated && dist.validated);
        // On-chip movement excludes DRAM bytes.
        let onchip = |r: &distda_system::RunResult| {
            (r.data_moved_bytes - 64 * r.counters.dram_accesses).max(1) as f64
        };
        writeln!(
            out,
            "{:>6} {:>10}KB {:>22.2} {:>20.3}",
            grid,
            w.program.footprint_bytes() / 1024,
            onchip(&mono) / onchip(&dist),
            mono.energy_pj() / dist.energy_pj(),
        )
        .unwrap();
    }
    out
}

/// Run the headline summary (abstract numbers).
pub fn headline(sweep: &Sweep) -> String {
    let mut out = String::new();
    writeln!(out, "\n=== Headline geometric means (paper abstract) ===").unwrap();
    let gm = |metric: &dyn Fn(&distda_system::RunResult) -> f64, cfg: &str, invert: bool| {
        distda_sim::geomean(sweep.kernels.iter().map(|k| {
            let v = metric(sweep.get(k, cfg));
            let b = metric(sweep.get(k, "OoO"));
            if invert {
                b / v
            } else {
                v / b
            }
        }))
        .unwrap_or(f64::NAN)
    };
    for (name, cfg) in [
        ("vs OoO       ", "OoO"),
        ("vs Mono-CA   ", "Mono-CA@2GHz"),
        ("vs Mono-DA-IO", "Mono-DA-IO@2GHz"),
    ] {
        let e_base = gm(&|r| r.energy_pj(), cfg, true);
        let e_dist = gm(&|r| r.energy_pj(), "Dist-DA-F@1GHz", true);
        let s_base = gm(&|r| r.ticks as f64, cfg, true);
        let s_dist = gm(&|r| r.ticks as f64, "Dist-DA-F@1GHz", true);
        let d_base = gm(&|r| r.data_moved_bytes as f64, cfg, false);
        let d_dist = gm(&|r| r.data_moved_bytes as f64, "Dist-DA-F@1GHz", false);
        writeln!(
            out,
            "Dist-DA-F {}: energy-eff {:.2}x, speedup {:.2}x, data-movement reduction {:.2}x",
            name,
            e_dist / e_base,
            s_dist / s_base,
            d_base / d_dist,
        )
        .unwrap();
    }
    writeln!(
        out,
        "(paper: vs OoO 3.3x/1.59x/2.4x; vs Mono-CA 2.46x/1.43x/3.5x; vs Mono-DA-IO 1.46x/1.65x/1.48x)"
    )
    .unwrap();
    // Compute-specialization component: Dist-DA-F vs Dist-DA-IO.
    let e = gm(&|r| r.energy_pj(), "Dist-DA-IO@2GHz", true);
    let ef = gm(&|r| r.energy_pj(), "Dist-DA-F@1GHz", true);
    writeln!(
        out,
        "compute specialization (Dist-DA-F vs Dist-DA-IO): energy-eff {:.2}x (paper: 1.23x)",
        ef / e
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_table_mentions_both_substrates() {
        let t = table_area();
        assert!(t.contains("CGRA") && t.contains("in-order"));
    }

    #[test]
    fn table05_marks_case_studies_user_annotated() {
        let t = table05(&Scale::tiny());
        assert!(t.contains("spmv(ann.)"));
        assert!(t.contains('U'));
        assert!(t.contains('C'));
    }
}
