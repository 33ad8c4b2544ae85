//! Regenerates every table and figure of the paper's evaluation in one
//! run, writing each to `results/`, plus the deterministic run log
//! `results/reproduce.log`, its wall-clock companion
//! `results/reproduce_timing.log` and one run manifest per simulated run.

use distda_bench::{emit, figures, paper_configs, run_suite_matrix, write_run_logs};
use distda_workloads::Scale;

fn main() {
    let t0 = std::time::Instant::now();
    let scale = Scale::eval();
    eprintln!("[1/6] suite sweep over the six configurations...");
    let sweep = run_suite_matrix(&scale, &paper_configs());
    emit("headline.txt", &figures::headline(&sweep));
    emit("fig07_energy_efficiency.txt", &figures::fig07(&sweep));
    emit("fig08_cache_accesses.txt", &figures::fig08(&sweep));
    emit("fig09_access_distribution.txt", &figures::fig09(&sweep));
    emit("fig10_noc_traffic.txt", &figures::fig10(&sweep));
    emit("fig11a_memrate_ipc.txt", &figures::fig11a(&sweep));
    emit("fig11b_speedup.txt", &figures::fig11b(&sweep));
    emit("data_movement.txt", &figures::data_movement(&sweep));
    eprintln!("[2/6] case studies (Figure 12)...");
    emit("fig12a_case_control.txt", &figures::fig12a(&scale));
    emit(
        "fig12b_case_multithread.txt",
        &distda_bench::mt::fig12b(&scale),
    );
    eprintln!("[3/6] clock sensitivity (Figure 13)...");
    emit("fig13_clock_sensitivity.txt", &figures::fig13(&scale));
    eprintln!("[4/6] software optimizations (Figure 14)...");
    emit("fig14_sw_optimizations.txt", &figures::fig14(&scale));
    eprintln!("[5/6] tables...");
    emit("table05_interface_coverage.txt", &figures::table05(&scale));
    emit(
        "table06_offload_characteristics.txt",
        &figures::table06(&scale),
    );
    emit("table_area.txt", &figures::table_area());
    eprintln!("[6/6] working-set sweep...");
    emit("sweep_working_set.txt", &figures::sweep_working_set());
    write_run_logs(t0.elapsed().as_secs_f64());
    eprintln!("done — see results/");
}
