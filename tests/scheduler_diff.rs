//! Differential scheduler tests at the library level: the calendar queue
//! must be a drop-in replacement for the reference heap scheduler. A
//! network run under each scheduler must give the same counters, flow
//! records, event totals and JSONL event trace, **byte for byte**. The CLI
//! half of the fence (every table and record of the fence experiments,
//! their checkpoint trees and metrics series) is `tests/fences.rs`.
//!
//! Calendar ≡ heap is also the fence that the run loop's lookahead
//! prefetch is unobservable: only the calendar queue offers a lookahead
//! (`EventQueue::peek_staged`), so wherever the queue runs deep enough
//! for the loop to use it (`LOOKAHEAD_MIN_DEPTH`; the `three_tier` case
//! is sized for that) the calendar side runs with prefetching and the
//! heap side without any.

use std::collections::BTreeMap;
use xpass::expresspass::{xpass_factory, XPassConfig};
use xpass::net::config::NetConfig;
use xpass::net::faults::FaultPlan;
use xpass::net::ids::{HostId, NodeId, SwitchId};
use xpass::net::network::{Counters, Network, LOOKAHEAD_MIN_DEPTH};
use xpass::net::topology::Topology;
use xpass::sim::event::SchedulerKind;
use xpass::sim::run_ctx;
use xpass::sim::time::{Dur, SimTime};
use xpass::sim::trace::{JsonlSink, RingSink, TraceEvent};

const G10: u64 = 10_000_000_000;

/// Run `f` with `kind` as this thread's scheduler.
fn under<T>(kind: SchedulerKind, f: impl FnOnce() -> T) -> T {
    let _sched = run_ctx::enter(run_ctx::current().with_scheduler(kind));
    f()
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

    let (h_digest, h_events, h_peak) = under(SchedulerKind::Heap, || {
        traced_dumbbell(Some(heap_path.clone()))
    });
    let (c_digest, c_events, c_peak) = under(SchedulerKind::Calendar, || {
        traced_dumbbell(Some(cal_path.clone()))
    });

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

/// Credits sent and wasted per flow, tallied from a ring that holds every
/// event of a dumbbell run (flow id → (sent, wasted)), plus the run's
/// counters.
fn credit_tallies() -> (BTreeMap<u32, (u64, u64)>, Counters) {
    const CAP: usize = 1 << 16;
    let topo = Topology::dumbbell(4, G10, Dur::us(2));
    let cfg = NetConfig::expresspass().with_seed(13);
    let mut net = Network::new(topo, cfg, xpass_factory(XPassConfig::aggressive()));
    net.install_trace_sink(Box::new(RingSink::new(CAP)));
    for i in 0..4u32 {
        let start = SimTime::ZERO + Dur::us(30 * i as u64);
        net.add_flow(HostId(i), HostId(4 + i), 300_000 * (i as u64 + 1), start);
    }
    net.run_until_done(SimTime::ZERO + Dur::ms(50));
    let mut sink = net.take_trace_sink().expect("sink installed");
    let ring = sink.as_any().downcast_mut::<RingSink>().unwrap();
    assert_eq!(
        ring.total_recorded(),
        ring.len() as u64,
        "the ring overflowed"
    );
    let mut tally = BTreeMap::<u32, (u64, u64)>::new();
    for ev in ring.events() {
        match *ev {
            TraceEvent::CreditSent { flow, .. } => tally.entry(flow).or_default().0 += 1,
            TraceEvent::CreditWasted { flow, .. } => tally.entry(flow).or_default().1 += 1,
            _ => {}
        }
    }
    (tally, net.counters().clone())
}

/// Credit accounting is run-wide (`Counters`), and flow records carry no
/// credit counts; the trace is where per-flow credit accounting is seen.
/// It must not depend on the scheduler, and it must add up to the
/// counters.
#[test]
fn per_flow_credit_tallies_are_scheduler_invariant_and_sum_to_the_counters() {
    let (heap, counters) = under(SchedulerKind::Heap, credit_tallies);
    let (calendar, _) = under(SchedulerKind::Calendar, credit_tallies);
    assert_eq!(heap, calendar, "per-flow credit tallies diverged");
    assert_eq!(heap.len(), 4, "every flow was credited: {heap:?}");
    assert!(
        heap.values()
            .all(|&(sent, wasted)| sent > wasted && wasted > 0),
        "{heap:?}"
    );
    let sent: u64 = heap.values().map(|t| t.0).sum();
    let wasted: u64 = heap.values().map(|t| t.1).sum();
    assert_eq!(
        (sent, wasted),
        (counters.credits_sent, counters.credits_wasted)
    );
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
        let (h, h_peak) = under(SchedulerKind::Heap, || three_tier_shuffle(with_faults));
        let (c, c_peak) = under(SchedulerKind::Calendar, || three_tier_shuffle(with_faults));
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
