//! Scheduler-loop micro-bench: times the dispatch kernel on a synthetic
//! 100%-busy machine and a 99%-idle machine separately, so busy-path
//! (dispatch and early-exit probe) and skip-ahead wins are visible as
//! distinct numbers.
//! The same measurement runs at the end of `reproduce`, which embeds the
//! results in `BENCH_simspeed.json`; this binary is the quick standalone
//! form.
//!
//! ```text
//! cargo run --release -p distda-bench --bin bench_kernel
//! ```

use distda_bench::run_kernel_bench;

fn main() {
    let kb = run_kernel_bench();
    println!(
        "busy machine: {:>12} ticks in {:6.3}s  = {:>12.3e} ticks/sec (every tick executed)",
        kb.busy_ticks,
        kb.busy_secs,
        kb.busy_ticks_per_sec()
    );
    println!(
        "idle machine: {:>12} ticks in {:6.3}s  = {:>12.3e} ticks/sec (~99% skipped)",
        kb.idle_ticks,
        kb.idle_secs,
        kb.idle_ticks_per_sec()
    );
    println!("kernel_bench json block:\n{}", kb.render_json_block());
}
