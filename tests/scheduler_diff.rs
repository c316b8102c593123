//! Differential scheduler tests: the calendar queue must be a drop-in
//! replacement for the reference heap scheduler. Each paper experiment is
//! run once under each scheduler (on its own thread — scheduler choice is
//! thread-scoped) and the outputs are compared **byte for byte**: the
//! human-readable tables, the `xpass-repro/v1` JSON records written by the
//! CLI, and the JSONL event traces of an instrumented network run.
//!
//! These tests are the contract that lets every other test in the suite
//! run on the calendar queue without loss of coverage: any divergence in
//! event ordering, RNG stream consumption, or timer cancellation shows up
//! here as a text diff.
//!
//! Calendar ≡ heap is also the fence that the run loop's lookahead
//! prefetch is unobservable: only the calendar queue offers a lookahead
//! (`EventQueue::peek_staged`), so wherever the queue runs deep enough
//! for the loop to use it (`LOOKAHEAD_MIN_DEPTH`; the `three_tier` case
//! is sized for that) the calendar side runs with prefetching and the
//! heap side without any.

use std::process::Command;
use std::thread;
use xpass::experiments as ex;
use xpass::expresspass::{xpass_factory, XPassConfig};
use xpass::net::config::NetConfig;
use xpass::net::faults::FaultPlan;
use xpass::net::ids::{HostId, NodeId, SwitchId};
use xpass::net::network::{Network, LOOKAHEAD_MIN_DEPTH};
use xpass::net::topology::Topology;
use xpass::sim::event::{set_thread_scheduler, SchedulerKind};
use xpass::sim::time::{Dur, SimTime};
use xpass::sim::trace::JsonlSink;

const G10: u64 = 10_000_000_000;

/// Run `f` on a dedicated thread with `kind` installed as that thread's
/// scheduler. A fresh thread keeps the thread-local scheduler choice from
/// leaking into other tests running on the harness's thread pool.
fn with_scheduler<T, F>(kind: SchedulerKind, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    thread::spawn(move || {
        set_thread_scheduler(kind);
        f()
    })
    .join()
    .expect("scheduler worker panicked")
}

/// Run `f` under both schedulers and return (heap, calendar) results.
fn under_both<T, F>(f: F) -> (T, T)
where
    T: Send + 'static,
    F: Fn() -> T + Send + Clone + 'static,
{
    let heap = with_scheduler(SchedulerKind::Heap, f.clone());
    let calendar = with_scheduler(SchedulerKind::Calendar, f);
    (heap, calendar)
}

#[test]
fn fig01_queue_buildup_is_scheduler_invariant() {
    let (h, c) = under_both(|| {
        ex::fig01_queue_buildup::run(&ex::fig01_queue_buildup::Config::default()).to_string()
    });
    assert_eq!(h, c, "fig01 table differs between heap and calendar");
}

#[test]
fn fig10_parking_lot_is_scheduler_invariant() {
    let (h, c) = under_both(|| {
        ex::fig10_parking_lot::run(&ex::fig10_parking_lot::Config::default()).to_string()
    });
    assert_eq!(h, c, "fig10 table differs between heap and calendar");
}

#[test]
fn fig16_convergence_is_scheduler_invariant() {
    let (h, c) = under_both(|| {
        ex::fig16_convergence::run(&ex::fig16_convergence::Config::default()).to_string()
    });
    assert_eq!(h, c, "fig16 table differs between heap and calendar");
}

#[test]
fn fault_recovery_is_scheduler_invariant() {
    let (h, c) =
        under_both(|| ex::fault_recovery::run(&ex::fault_recovery::Config::default()).to_string());
    assert_eq!(
        h, c,
        "fault-recovery table differs between heap and calendar"
    );
}

/// One busy ExpressPass dumbbell run: counters, flow records, the engine
/// report's event tally, and (optionally) a JSONL trace on disk.
fn traced_dumbbell(trace_path: Option<std::path::PathBuf>) -> (String, u64, usize) {
    let topo = Topology::dumbbell(4, G10, Dur::us(2));
    let cfg = NetConfig::expresspass().with_seed(11);
    let mut net = Network::new(topo, cfg, xpass_factory(XPassConfig::aggressive()));
    if let Some(path) = trace_path {
        let sink = JsonlSink::create(&path).expect("create trace file");
        net.install_trace_sink(Box::new(sink));
    }
    for i in 0..4u32 {
        net.add_flow(HostId(i), HostId(4 + i), 1_500_000, SimTime::ZERO);
    }
    net.run_until_done(SimTime::ZERO + Dur::secs(2));
    let digest = format!("{:?}\n{:?}", net.counters(), net.flow_records());
    let report = net.engine_report();
    drop(net.take_trace_sink()); // flush the JSONL writer
    (digest, report.events_processed, report.peak_queue_len)
}

#[test]
fn network_run_and_jsonl_trace_are_byte_identical() {
    let dir = std::env::temp_dir();
    let heap_path = dir.join(format!("xpass-diff-heap-{}.jsonl", std::process::id()));
    let cal_path = dir.join(format!("xpass-diff-cal-{}.jsonl", std::process::id()));

    let hp = heap_path.clone();
    let (h_digest, h_events, h_peak) =
        with_scheduler(SchedulerKind::Heap, move || traced_dumbbell(Some(hp)));
    let cp = cal_path.clone();
    let (c_digest, c_events, c_peak) =
        with_scheduler(SchedulerKind::Calendar, move || traced_dumbbell(Some(cp)));

    assert_eq!(h_digest, c_digest, "counters/flow records diverged");
    assert_eq!(h_events, c_events, "event totals diverged");
    assert_eq!(h_peak, c_peak, "peak queue depth diverged");

    let h_trace = std::fs::read(&heap_path).expect("read heap trace");
    let c_trace = std::fs::read(&cal_path).expect("read calendar trace");
    assert!(!h_trace.is_empty(), "heap trace is empty");
    assert_eq!(h_trace, c_trace, "JSONL traces diverged");

    let _ = std::fs::remove_file(&heap_path);
    let _ = std::fs::remove_file(&cal_path);
}

/// Thousands of long-running cross-pod ExpressPass flows on a 256-host
/// 3-tier Clos for 300 µs, optionally with a core cable cut and restored
/// mid-run. Sized so the event queue runs deeper than
/// `LOOKAHEAD_MIN_DEPTH` — below it the run loop does not look ahead and
/// the comparison would say nothing about prefetching. The lookahead's
/// `Arrive` stage precomputes the ECMP egress only while no fault overlay
/// is installed: the plain run takes that branch, the faulted run the
/// other.
fn three_tier_shuffle(with_faults: bool) -> (String, usize) {
    let topo = Topology::three_tier(4, 2, 4, 16, 4, G10, G10, G10, Dur::us(2));
    let cfg = NetConfig::expresspass().with_seed(23);
    let mut net = Network::new(topo, cfg, xpass_factory(XPassConfig::aggressive()));
    if with_faults {
        // Agg 0 of pod 0 ↔ core 0: switches are numbered ToRs, aggs, cores.
        let (agg, core) = (NodeId::Switch(SwitchId(16)), NodeId::Switch(SwitchId(24)));
        let up = net.topo().dlink_between(agg, core).expect("agg-core cable");
        let down = net.topo().dlink_between(core, agg).expect("core-agg cable");
        let t = |d: Dur| SimTime::ZERO + d;
        net.install_fault_plan(
            FaultPlan::new()
                .cable_down(t(Dur::us(100)), up, down)
                .cable_up(t(Dur::us(200)), up, down),
        );
    }
    let n = net.topo().n_hosts as u32;
    for i in 0..n {
        for j in 0..24 {
            net.add_flow(
                HostId(i),
                HostId((i + n / 2 + j) % n),
                10_000_000,
                SimTime::ZERO,
            );
        }
    }
    net.run_until(SimTime::ZERO + Dur::us(300));
    let report = net.engine_report();
    let digest = format!(
        "{:?}\n{:?}\n{:?}",
        net.counters(),
        net.flow_records(),
        report.events_processed
    );
    (digest, report.peak_queue_len)
}

#[test]
fn three_tier_with_and_without_fault_overlay_is_scheduler_invariant() {
    for with_faults in [false, true] {
        let ((h, h_peak), (c, c_peak)) = under_both(move || three_tier_shuffle(with_faults));
        assert_eq!(
            h, c,
            "three_tier (faults: {with_faults}) diverged between heap and calendar"
        );
        assert_eq!(h_peak, c_peak);
        assert!(
            c_peak >= LOOKAHEAD_MIN_DEPTH,
            "queue only {c_peak} deep: the calendar run never looked ahead"
        );
        assert_eq!(
            h.contains("faults_injected: 0"),
            !with_faults,
            "the fault plan must apply exactly when installed"
        );
    }
}

/// Run the CLI on a set of experiments with `--json`, returning stdout and
/// the bytes of every record file (in experiment order).
fn cli_json_run(scheduler: &str, dir: &std::path::Path) -> (Vec<u8>, Vec<(String, Vec<u8>)>) {
    let out = Command::new(env!("CARGO_BIN_EXE_xpass-repro"))
        .args([
            "fig01",
            "fig10",
            "fig16",
            "faults",
            "--seed",
            "5",
            "--scheduler",
            scheduler,
            "--json",
        ])
        .arg(dir)
        .output()
        .expect("run xpass-repro");
    assert!(out.status.success(), "xpass-repro failed: {out:?}");
    let mut records = Vec::new();
    for name in ["fig01", "fig10", "fig16", "faults"] {
        let path = dir.join(format!("{name}.json"));
        let bytes = std::fs::read(&path).expect("read JSON record");
        records.push((name.to_string(), bytes));
    }
    (out.stdout, records)
}

#[test]
fn cli_json_records_are_scheduler_invariant() {
    let base = std::env::temp_dir().join(format!("xpass-diff-cli-{}", std::process::id()));
    let heap_dir = base.join("heap");
    let cal_dir = base.join("calendar");

    let (h_stdout, h_records) = cli_json_run("heap", &heap_dir);
    let (c_stdout, c_records) = cli_json_run("calendar", &cal_dir);

    assert_eq!(h_stdout, c_stdout, "CLI stdout diverged between schedulers");
    for ((name, h), (_, c)) in h_records.iter().zip(&c_records) {
        assert_eq!(h, c, "{name}.json diverged between schedulers");
        let text = String::from_utf8(h.clone()).expect("record is UTF-8");
        assert!(
            text.contains("\"schema\":\"xpass-repro/v1\""),
            "{name}.json is missing the schema tag: {text}"
        );
    }

    let _ = std::fs::remove_dir_all(&base);
}
