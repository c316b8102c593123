//! `xpass-benchmark` — the repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! xpass-benchmark [--seed <n>] [--trace]           all five workloads, one process each
//! xpass-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! xpass-benchmark compare <a.json> <b.json>
//! ```

mod api;
mod compare;
mod count_alloc;
mod loadgen;
mod proc;
mod report;
mod rng;
mod serve;
mod sim;
mod stats;
mod trace;

use report::RunResult;
use sim::SimWorkload;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

pub const WORKLOADS: [&str; 5] = [
    "fct_xpass",
    "fct_dctcp",
    "clos_xl",
    "probes_on",
    "serve_ingest",
];
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;

const USAGE: &str = "usage: xpass-benchmark [--seed <n>] [--trace]
       xpass-benchmark --workload <fct_xpass|fct_dctcp|clos_xl|probes_on|serve_ingest>
                       [--seed <n>] [--seconds <s>] [--trace <0|1>]
       xpass-benchmark compare <a.json> <b.json>
run from the repository root (benchmark/run.sh builds everything and does)";

/// The repository root: the working directory, or its parent when run
/// from `benchmark/` (as `cargo test --manifest-path` does).
pub fn root() -> PathBuf {
    if !Path::new("benchmark/scenarios").is_dir() && Path::new("../benchmark/scenarios").is_dir() {
        PathBuf::from("..")
    } else {
        PathBuf::from(".")
    }
}

/// The committed counts and digest of `workload` at its default seed.
pub fn baseline(workload: &str) -> Option<api::Json> {
    let all = api::parse_json(include_str!("../baseline.json")).ok()?;
    all.get("pinned_counts")?.get(workload).cloned()
}

fn sim_workload(name: &str) -> Option<SimWorkload> {
    [
        SimWorkload::FctXpass,
        SimWorkload::FctDctcp,
        SimWorkload::ClosXl,
        SimWorkload::ProbesOn,
    ]
    .into_iter()
    .find(|w| w.name() == name)
}

fn default_seed(workload: &str) -> u64 {
    sim_workload(workload).map_or(serve::DEFAULT_SEED, SimWorkload::pinned_seed)
}

fn result_file(out_dir: &Path, workload: &str, traced: bool) -> PathBuf {
    out_dir.join(format!(
        "result-{workload}{}.json",
        if traced { "-traced" } else { "" }
    ))
}

/// One workload, in this process: table and record file for people and
/// `compare`, the result line last for the driver.
fn run_one(workload: &str, seed: Option<u64>, seconds: u64, traced: bool) -> ExitCode {
    let out_dir = root().join("benchmark/out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("xpass-benchmark: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let seed = seed.unwrap_or_else(|| default_seed(workload));
    let res: RunResult = match sim_workload(workload) {
        Some(w) if traced => sim::run_traced(w, seed, seconds, &out_dir),
        Some(w) => sim::run_untraced(w, seed, seconds, &out_dir),
        None => serve::run(seed, seconds, traced, &out_dir, None),
    };
    print!("{}", res.table());
    let file = result_file(&out_dir, workload, traced);
    if let Err(e) = std::fs::write(&file, format!("{}\n", res.to_json())) {
        eprintln!("xpass-benchmark: cannot write {}: {e}", file.display());
        return ExitCode::FAILURE;
    }
    println!("{}", res.contract_line());
    if res.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each in a process of its own so that no workload's
/// peak memory leaks into another's; then one summary file.
fn run_all(seed: Option<u64>, trace: bool) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("xpass-benchmark: cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out_dir = root().join("benchmark/out");
    let mut ok = true;
    let mut results = Vec::new();
    for w in WORKLOADS {
        for traced in [false, true] {
            if traced && !trace {
                continue;
            }
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--seconds", &DEFAULT_SECONDS.to_string()]);
            cmd.args(["--trace", if traced { "1" } else { "0" }]);
            if let Some(s) = seed {
                cmd.args(["--seed", &s.to_string()]);
            }
            ok &= cmd.status().is_ok_and(|s| s.success());
            match std::fs::read_to_string(result_file(&out_dir, w, traced)) {
                Ok(text) => results.push(text.trim().to_string()),
                Err(_) => ok = false,
            }
        }
    }
    let summary = format!(
        "{{\"schema\":\"{}\",\"results\":[\n{}\n],\"claim\":null}}\n",
        report::SCHEMA,
        results.join(",\n")
    );
    let file = out_dir.join("summary.json");
    match std::fs::write(&file, summary) {
        Ok(()) => println!("wrote {}", file.display()),
        Err(e) => {
            eprintln!("xpass-benchmark: cannot write {}: {e}", file.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("xpass-benchmark: a workload failed a correctness check (see above)");
        ExitCode::FAILURE
    }
}

fn run_compare(a: &str, b: &str) -> ExitCode {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    match read(a).and_then(|a| compare::compare(&a, &read(b)?)) {
        Ok((text, clean)) => {
            print!("{text}");
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xpass-benchmark: compare: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return match &args[1..] {
            [a, b] => run_compare(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::FAILURE
            }
        };
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, DEFAULT_SECONDS, false);
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let ok = match a.as_str() {
            "--workload" => it
                .next()
                .filter(|w| WORKLOADS.contains(&w.as_str()))
                .map(|w| workload = Some(w.clone())),
            "--seed" => it
                .next()
                .and_then(|v| v.parse().ok())
                .map(|v| seed = Some(v)),
            "--seconds" => it
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|&v| v >= 1)
                .map(|v| seconds = v),
            "--trace" => {
                // Bare `--trace` for people, `--trace <0|1>` for the driver.
                trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1");
                Some(())
            }
            _ => None,
        };
        if ok.is_none() {
            eprintln!("xpass-benchmark: bad argument at '{a}'\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    match workload {
        Some(w) => run_one(&w, seed, seconds, trace),
        None => run_all(seed, trace),
    }
}
