//! Thread-count invariance: `xpass-repro --jobs N` must produce the same
//! bytes for every N. The parallel harness runs one single-threaded engine
//! per experiment and merges results in selection order, so stdout and the
//! `--json` directory are independent of worker count and of OS thread
//! scheduling, and so is the checkpoint tree: every job writes under its
//! own scope, whichever thread runs it. This test pins that contract by
//! diffing a `--jobs 1` run against a `--jobs 4` run.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Experiments picked to cover distinct engine workloads without making
/// the test slow: queue build-up, multi-hop fairness, convergence, faults.
const TARGETS: [&str; 4] = ["fig01", "fig10", "fig16", "faults"];

/// Every file under `dir`, recursively, as (path relative to `dir`, bytes),
/// sorted by path.
fn tree(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for e in std::fs::read_dir(&d).expect("read checkpoint dir") {
            let p = e.unwrap().path();
            if p.is_dir() {
                stack.push(p);
            } else {
                let bytes = std::fs::read(&p).unwrap();
                out.push((p.strip_prefix(dir).unwrap().to_path_buf(), bytes));
            }
        }
    }
    out.sort();
    out
}

type Run = (Vec<u8>, Vec<(String, Vec<u8>)>, Vec<(PathBuf, Vec<u8>)>);

fn run_with_jobs(jobs: &str, dir: &Path) -> Run {
    let ck = dir.join("ck");
    let out = Command::new(env!("CARGO_BIN_EXE_xpass-repro"))
        .args(TARGETS)
        .args(["--seed", "9", "--jobs", jobs, "--checkpoint-every", "1"])
        .arg("--checkpoint-dir")
        .arg(&ck)
        .arg("--json")
        .arg(dir)
        .output()
        .expect("run xpass-repro");
    assert!(out.status.success(), "xpass-repro failed: {out:?}");
    let mut records = Vec::new();
    for name in TARGETS {
        let path = dir.join(format!("{name}.json"));
        let bytes = std::fs::read(&path).expect("read JSON record");
        records.push((name.to_string(), bytes));
    }
    (out.stdout, records, tree(&ck))
}

#[test]
fn jobs_1_and_jobs_4_produce_identical_output() {
    let base = std::env::temp_dir().join(format!("xpass-jobs-inv-{}", std::process::id()));
    let serial_dir = base.join("j1");
    let parallel_dir = base.join("j4");

    let (s_stdout, s_records, s_snaps) = run_with_jobs("1", &serial_dir);
    let (p_stdout, p_records, p_snaps) = run_with_jobs("4", &parallel_dir);

    assert_eq!(
        s_stdout, p_stdout,
        "stdout differs between --jobs 1 and --jobs 4"
    );
    for ((name, s), (_, p)) in s_records.iter().zip(&p_records) {
        assert_eq!(s, p, "{name}.json differs between --jobs 1 and --jobs 4");
    }
    let paths = |t: &[(PathBuf, Vec<u8>)]| t.iter().map(|(p, _)| p.clone()).collect::<Vec<_>>();
    assert!(!s_snaps.is_empty(), "no checkpoint was written");
    assert_eq!(
        paths(&s_snaps),
        paths(&p_snaps),
        "checkpoint trees list different files"
    );
    for ((path, s), (_, p)) in s_snaps.iter().zip(&p_snaps) {
        assert!(
            s == p,
            "{} differs between --jobs 1 and --jobs 4",
            path.display()
        );
    }

    let _ = std::fs::remove_dir_all(&base);
}
