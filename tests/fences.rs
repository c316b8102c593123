//! The CLI byte-identity fences, as one table of cells. A cell is one
//! `xpass-repro` process, run once in its own directory under
//! `target/tmp/fences/` (kept until the next run). A fence compares two
//! cells' stdout sections, `--json` records, checkpoint trees or
//! `--metrics` series. F is the fence set at default configs and seeds:
//! queue build-up, multi-hop fairness, convergence, fault recovery, and a
//! nested per-seed fan-out.
//!
//! | cell | invocation | fences |
//! |------|------------|--------|
//! | A | `all --jobs <cores> --json` | goldens, record envelopes |
//! | B | `F --scheduler heap --json` | heap ≡ calendar: B = A |
//! | C | `F --jobs 4` with checkpoints every sim-ms, `--metrics`, `--trace`, `--json` | observation changes nothing: C = A |
//! | D | C at `--jobs 1` | jobs invariance: D = C, trees and series too |
//! | E | C under `--scheduler heap` | scheduler invariance: E = C, trees and series too |
//! | R | `--resume --metrics` from the earliest and the latest snapshot of each F experiment, in C's tree (calendar) and E's (heap) | resume ≡ clean: R = A or B, R's series = C's or E's |
//!
//! Each `#[test]` checks one property on cells it shares with the others.
//! The usage-error table is `telemetry::repro_rejects_bad_usage`.
//!
//! To regenerate a golden after an *intentional* change:
//! `cargo run --bin xpass-repro -- <name> > tests/golden/<name>.txt`

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::{Once, OnceLock};
use std::thread;
use xpass::experiments::registry;
use xpass::sim::json::{parse, Json};
use xpass::sim::metrics::decode_jsonl;

const F: [&str; 5] = ["fig01", "fig10", "fig16", "faults", "chaos_sweep"];

/// The flags C, D and E share: every observation-only output on.
const OBSERVED: [&str; 10] = [
    "--checkpoint-every",
    "1",
    "--checkpoint-dir",
    "ck",
    "--metrics",
    "m.jsonl",
    "--trace",
    "t.jsonl",
    "--json",
    "json",
];

fn xpass_repro(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xpass-repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn xpass-repro")
}

/// A fresh, empty directory for cell `name`.
fn cell_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("fences")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn in_repo(path: &str) -> String {
    format!("{}/{path}", env!("CARGO_MANIFEST_DIR"))
}

/// One finished cell. Relative output paths (`json`, `ck`, `m.jsonl`,
/// `t.jsonl`) land in its directory.
struct Run {
    name: String,
    dir: PathBuf,
    stdout: String,
    stderr: String,
}

fn run(name: &str, args: &[&str]) -> Run {
    let dir = cell_dir(name);
    let out = xpass_repro(&dir, args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "cell {name}: {args:?} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let name = name.to_string();
    Run {
        name,
        dir,
        stdout,
        stderr,
    }
}

impl Run {
    /// The text under `exp`'s banner: what a run of `exp` alone prints.
    fn section(&self, exp: &str) -> &str {
        let start = self.stdout.find(&format!("==== {exp} — "));
        let body = &self.stdout[start.unwrap_or_else(|| panic!("{}: no {exp}", self.name))..];
        let body = &body[body.find('\n').unwrap() + 1..];
        body.find("\n==== ").map_or(body, |end| &body[..=end])
    }

    fn read(&self, file: impl AsRef<Path>) -> Vec<u8> {
        let path = self.dir.join(file);
        std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    }

    fn record(&self, exp: &str) -> Vec<u8> {
        self.read(format!("json/{exp}.json"))
    }

    fn series(&self) -> String {
        String::from_utf8(self.read("m.jsonl")).unwrap()
    }

    /// The `--metrics` lines of `exp`'s jobs (`exp` and its nested
    /// `exp/k`), in file order.
    fn series_of(&self, exp: &str) -> String {
        let (mut keep, mut out) = (false, String::new());
        for line in self.series().split_inclusive('\n') {
            if let Some((_, rest)) = line.split_once("\"job\":\"") {
                let job = &rest[..rest.find('"').unwrap()];
                keep = job == exp || job.starts_with(&format!("{exp}/"));
            }
            if keep {
                out.push_str(line);
            }
        }
        out
    }

    /// Every file of the checkpoint tree, relative to `ck/`, sorted.
    fn checkpoints(&self) -> Vec<PathBuf> {
        let ck = self.dir.join("ck");
        let (mut found, mut stack) = (Vec::new(), vec![ck.clone()]);
        while let Some(d) = stack.pop() {
            for e in std::fs::read_dir(&d).expect("read checkpoint dir") {
                let p = e.unwrap().path();
                if p.is_dir() {
                    stack.push(p);
                } else {
                    found.push(p.strip_prefix(&ck).unwrap().to_path_buf());
                }
            }
        }
        found.sort();
        found
    }
}

/// `exp`'s stdout section and record agree.
fn assert_same_table(x: &Run, y: &Run, exp: &str) {
    let (xn, yn) = (&x.name, &y.name);
    assert!(
        x.section(exp) == y.section(exp),
        "{exp}: stdout, {xn} ≠ {yn}"
    );
    assert!(x.record(exp) == y.record(exp), "{exp}.json, {xn} ≠ {yn}");
}

/// Every F experiment's stdout section and record agree.
fn assert_same_tables(x: &Run, y: &Run) {
    for exp in F {
        assert_same_table(x, y, exp);
    }
}

/// The checkpoint trees agree, file for file.
fn assert_same_checkpoints(x: &Run, y: &Run) {
    let (xn, yn) = (&x.name, &y.name);
    let files = x.checkpoints();
    assert!(!files.is_empty(), "{xn}: no checkpoint was written");
    assert_eq!(files, y.checkpoints(), "checkpoint files, {xn} ≠ {yn}");
    for f in &files {
        let f = Path::new("ck").join(f);
        assert!(x.read(&f) == y.read(&f), "{}, {xn} ≠ {yn}", f.display());
    }
}

/// Start every cell on two lanes the first time a fence asks for one:
/// A alone on one (it spreads over every core itself), the rest on the
/// other. A fence that reaches a cell before its lane does runs it
/// itself; each cell still runs once. The lanes are detached: a cell that
/// panics on its lane stays unset, and the fence that asks for it runs it
/// again and fails with the same message.
fn start_lanes() {
    static LANES: Once = Once::new();
    LANES.call_once(|| {
        thread::spawn(a);
        thread::spawn(|| {
            b();
            c();
            d();
            e();
            resumed("calendar");
            resumed("heap");
        });
    });
}

macro_rules! cell {
    ($name:ident, $args:expr) => {
        fn $name() -> &'static Run {
            static CELL: OnceLock<Run> = OnceLock::new();
            start_lanes();
            CELL.get_or_init(|| run(stringify!($name), &$args))
        }
    };
}

fn cores() -> String {
    thread::available_parallelism().unwrap().to_string()
}

cell!(a, ["all", "--jobs", &cores(), "--json", "json"]);
cell!(
    b,
    [&F[..], &["--scheduler", "heap", "--json", "json"]].concat()
);
cell!(c, [&F[..], &["--jobs", "4"], &OBSERVED].concat());
cell!(d, [&F[..], &["--jobs", "1"], &OBSERVED].concat());
cell!(
    e,
    [&F[..], &["--jobs", "4", "--scheduler", "heap"], &OBSERVED].concat()
);

/// R under `scheduler`: `(experiment, resumed run)` for the earliest and
/// the latest snapshot of each F experiment in C's (calendar) or E's
/// (heap) tree.
fn resumed(scheduler: &'static str) -> &'static [(&'static str, Run)] {
    static CALENDAR: OnceLock<Vec<(&str, Run)>> = OnceLock::new();
    static HEAP: OnceLock<Vec<(&str, Run)>> = OnceLock::new();
    start_lanes();
    match scheduler {
        "calendar" => CALENDAR.get_or_init(|| resume_each(c(), scheduler)),
        _ => HEAP.get_or_init(|| resume_each(e(), scheduler)),
    }
}

fn resume_each(tree: &Run, scheduler: &str) -> Vec<(&'static str, Run)> {
    let (files, mut out) = (tree.checkpoints(), Vec::new());
    for (j, exp) in F.into_iter().enumerate() {
        // Job `j` writes under `scope-<j>` and, nested, `scope-<j>-<k>`.
        let snaps: Vec<&PathBuf> = files
            .iter()
            .filter(|f| f.extension().is_some_and(|x| x == "snap"))
            .filter(|f| {
                let top = f.iter().next().unwrap().to_str().unwrap();
                top == format!("scope-{j}") || top.starts_with(&format!("scope-{j}-"))
            })
            .collect();
        assert!(!snaps.is_empty(), "{exp}: no snapshot was written");
        for (at, snap) in [("earliest", snaps[0]), ("latest", snaps[snaps.len() - 1])] {
            let snap = tree.dir.join("ck").join(snap);
            let args = ["--resume", snap.to_str().unwrap(), "--scheduler", scheduler];
            let args = [&args[..], &["--metrics", "m.jsonl", "--json", "json"]].concat();
            out.push((exp, run(&format!("r-{scheduler}-{exp}-{at}"), &args)));
        }
    }
    out
}

#[test]
fn every_registered_experiment_emits_a_valid_json_record() {
    for e in registry::all() {
        let name = e.name();
        a().section(name); // its banner is there
        let record = parse(std::str::from_utf8(&a().record(name)).unwrap())
            .unwrap_or_else(|err| panic!("{name}.json does not parse: {err}"));
        let field = |k: &str| record.get(k).cloned();
        assert_eq!(field("schema"), Some(Json::str("xpass-repro/v1")), "{name}");
        assert_eq!(field("name"), Some(Json::str(name)), "{name}");
        assert_eq!(field("paper_scale"), Some(Json::Bool(false)), "{name}");
        assert_eq!(field("seed"), Some(Json::Null), "{name}");
        // Every payload is a structured object with at least one key — the
        // typed rows of the figure, never a text blob.
        match field("payload") {
            Some(Json::Obj(pairs)) => {
                assert!(!pairs.is_empty(), "{name}: empty payload");
                assert!(pairs.iter().all(|(k, _)| k != "text"), "{name}: text blob");
            }
            other => panic!("{name}: payload is not an object: {other:?}"),
        }
    }
}

/// `exp`'s section of A is `tests/golden/<exp>.txt`.
fn assert_matches_golden(exp: &str) {
    let golden = std::fs::read_to_string(in_repo(&format!("tests/golden/{exp}.txt")));
    let (golden, now) = (golden.expect("read golden"), a().section(exp));
    assert!(
        now == golden,
        "{exp} drifted from tests/golden/{exp}.txt:\n--- golden ---\n{golden}\n--- now ---\n{now}"
    );
}

/// One `#[test]` per `name => experiment`, each calling `check(experiment)`.
macro_rules! per_experiment {
    ($check:expr; $($name:ident => $exp:literal),+ $(,)?) => {
        $(#[test] fn $name() { $check($exp) })+
    };
}

per_experiment!(assert_matches_golden;
    fig01_matches_golden => "fig01",
    fig10_matches_golden => "fig10",
    fig16_matches_golden => "fig16",
    faults_matches_golden => "faults",
);

#[test]
fn parking_lot_scenario_reproduces_fig10_byte_for_byte() {
    let file = in_repo("examples/scenarios/parking_lot.json");
    let scenario = run("parking_lot", &["run", &file]);
    let fig10 = a().section("fig10");
    assert!(
        scenario.stdout == fig10,
        "scenario table differs from fig10:\n--- scenario ---\n{}\n--- fig10 ---\n{fig10}",
        scenario.stdout
    );
}

// heap ≡ calendar, per experiment: B = A.
per_experiment!(|exp| assert_same_table(b(), a(), exp);
    fig01_queue_buildup_is_scheduler_invariant => "fig01",
    fig10_parking_lot_is_scheduler_invariant => "fig10",
    fig16_convergence_is_scheduler_invariant => "fig16",
    fault_recovery_is_scheduler_invariant => "faults",
);

/// E = C: every F table and record, and the checkpoint tree, under heap
/// and calendar with every observation on (chaos_sweep's nested fan-out
/// included), and B = A for chaos_sweep.
#[test]
fn cli_json_records_are_scheduler_invariant() {
    assert_same_table(b(), a(), "chaos_sweep");
    assert_same_tables(e(), c());
    assert_same_checkpoints(e(), c());
}

/// D = C: `--jobs 1` and `--jobs 4` print the same tables, write the same
/// records and the same checkpoint tree.
#[test]
fn jobs_1_and_jobs_4_produce_identical_output() {
    assert_same_tables(d(), c());
    assert_same_checkpoints(d(), c());
}

/// The `--metrics` series is the same at `--jobs 1` and `--jobs 4`, and
/// under heap and calendar: D = C = E.
#[test]
fn series_identical_across_schedulers_and_jobs() {
    decode_jsonl(&c().series()).expect("series decode");
    assert!(d().series() == c().series(), "--metrics series, d ≠ c");
    assert!(e().series() == c().series(), "--metrics series, e ≠ c");
}

/// Checkpoints and `--trace` are observation-only: on together, they
/// change no table and no record (C = A). F records no traces, so the
/// CLI says so and writes no trace file.
#[test]
fn trace_flag_is_inert_for_fence_experiments() {
    assert_same_tables(c(), a());
    assert!(!c().dir.join("t.jsonl").exists(), "F traces nothing");
    assert!(c()
        .stderr
        .contains("does not record traces; --trace ignored"));
    assert!(!c().checkpoints().is_empty(), "no checkpoint was written");
}

/// `--metrics` is observation-only: C's stdout is A's, and a run without
/// metrics flags never mentions the subsystem.
#[test]
fn metrics_flags_off_keep_stdout_byte_identical() {
    for exp in F {
        assert!(c().section(exp) == a().section(exp), "{exp}: stdout, c ≠ a");
    }
    assert!(!a().stderr.contains("metrics"), "{}", a().stderr);
}

/// A fresh process resumed from the earliest or the latest kept snapshot
/// of `exp` prints the table and writes the record of the uninterrupted
/// run, under either scheduler.
fn assert_resumes_byte_identically(exp: &str) {
    for (scheduler, clean) in [("calendar", a()), ("heap", b())] {
        let runs = resumed(scheduler).iter().filter(|(x, _)| *x == exp);
        for (_, r) in runs {
            let name = &r.name;
            assert!(r.stdout == clean.section(exp), "{name}: stdout");
            assert!(r.record(exp) == clean.record(exp), "{name}: record");
        }
    }
}

// chaos_sweep's snapshots sit in nested per-seed scopes.
per_experiment!(assert_resumes_byte_identically;
    fig01_resumes_byte_identically => "fig01",
    fig10_resumes_byte_identically => "fig10",
    fig16_resumes_byte_identically => "fig16",
    faults_resumes_byte_identically => "faults",
    chaos_sweep_resumes_byte_identically => "chaos_sweep",
);

/// Every resume samples the series of the uninterrupted run: its
/// `--metrics` lines are that job's lines in C's (calendar) or E's (heap)
/// series.
#[test]
fn snapshot_resume_reproduces_the_identical_series() {
    for (scheduler, observed) in [("calendar", c()), ("heap", e())] {
        for (exp, r) in resumed(scheduler) {
            assert!(r.series() == observed.series_of(exp), "{}: series", r.name);
        }
    }
}

/// A snapshot of C's, taken under `--metrics`, is refused by a resume
/// without it: exit 1 and a diagnostic naming the flag, before any
/// experiment runs — not a panic out of the restore.
#[test]
fn resume_refuses_a_snapshot_taken_under_other_metering() {
    let mut snaps = c().checkpoints().into_iter();
    let snap = snaps.find(|f| f.extension().is_some_and(|x| x == "snap"));
    let snap = c().dir.join("ck").join(snap.expect("C wrote a snapshot"));
    let out = xpass_repro(&cell_dir("metering"), &["--resume", snap.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panic"), "{stderr}");
    assert!(stderr.contains("--metrics"), "{stderr}");
    assert!(out.stdout.is_empty(), "an experiment ran:\n{stderr}");
}

#[test]
fn fat_tree_fault_scenario_runs_end_to_end() {
    let file = in_repo("examples/scenarios/fat_tree_shuffle_faults.json");
    let out = run("fat_tree", &["run", &file, "--json", "json"]);
    let record = out.record("fat_tree_shuffle_faults");
    let record = parse(std::str::from_utf8(&record).unwrap()).expect("record parses");
    assert_eq!(record.get("schema"), Some(&Json::str("xpass-repro/v1")));
    let series = record.get("payload").and_then(|p| p.get("series"));
    let series = series.and_then(Json::as_array).expect("payload.series");
    assert_eq!(series.len(), 2);
    assert_eq!(series[1].get("scheme"), Some(&Json::str("DCTCP")));
    for s in series {
        // All shuffle flows finish despite the mid-run core cable failure…
        assert_eq!(s.get("unfinished").and_then(Json::as_u64), Some(0));
        // …and the fault plan demonstrably fired: 2 cable events × 2
        // directed links, with real packet loss attributed to them.
        let counter = |k: &str| s.get("counters").and_then(|c| c.get(k)?.as_u64());
        assert_eq!(counter("faults_injected"), Some(4));
        assert!(counter("pkts_lost_to_faults").unwrap() > 0);
    }
}

#[test]
fn list_flag_names_every_experiment() {
    let out = run("list", &["--list"]);
    for e in registry::all() {
        let mut lines = out.stdout.lines();
        let line = lines.find(|l| l.starts_with(e.name()));
        let line = line.unwrap_or_else(|| panic!("--list misses {}", e.name()));
        assert!(line.contains(e.describe()), "bad --list line: {line}");
    }
}
