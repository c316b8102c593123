//! # xpass-bench — engine microbenchmarks
//!
//! `cargo bench -p xpass-bench --bench engine` measures the simulator core
//! (hold-model scheduler throughput, full-simulation flow scalability,
//! bytes per flow) and writes `BENCH_engine.json`; `examples/prof_fig15.rs`
//! is the same driver shaped for a profiler. [`count_alloc`] is the
//! counting allocator the bench measures bytes per flow with.
//!
//! The paper's tables and figures are not bench targets: each is a
//! registry experiment, run with `xpass-repro <name> [--paper-scale]`
//! (`xpass-repro --list` names them all).

#![warn(missing_docs)]
use std::time::Instant;

pub mod count_alloc;

/// Run one experiment body, printing its rendered result and wall time.
pub fn bench_main(name: &str, f: impl FnOnce() -> String) {
    // `cargo bench` passes --bench (and possibly filters); a filter that
    // doesn't match this target's name means "skip".
    let args: Vec<String> = std::env::args().skip(1).collect();
    let filters: Vec<&String> = args
        .iter()
        .filter(|a| !a.starts_with('-') && a.as_str() != "main")
        .collect();
    if !filters.is_empty() && !filters.iter().any(|f| name.contains(f.as_str())) {
        println!("{name}: skipped by filter");
        return;
    }
    println!("==== {name} ====");
    let t0 = Instant::now();
    let out = f();
    let dt = t0.elapsed();
    println!("{out}");
    println!("[{name} completed in {:.2}s]\n", dt.as_secs_f64());
}
