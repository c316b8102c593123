//! Fences on what the probes cost when they are on: checkpoints leave the
//! scheduler exactly as they found it (on the write path and on resume),
//! and a polled metrics plane serves current views while the run goes on.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use xpass::experiments::harness::Scheme;
use xpass::expresspass::XPassConfig;
use xpass::net::network::Network;
use xpass::net::topology::Topology;
use xpass::sim::checkpoint::{self, CheckpointConfig};
use xpass::sim::json;
use xpass::sim::metrics::{self, MetricsSpec, Plane};
use xpass::sim::time::{Dur, SimTime};
use xpass::workloads::{add_all, PoissonWorkload, Workload};

const G10: u64 = 10_000_000_000;
const CAP: SimTime = SimTime(10_000_000_000_000); // 10 s in ps

/// fig19's Cache Follower cell under ExpressPass, scaled down to `flows`
/// Poisson arrivals: a shallow queue of near-`now` credit and data events
/// with the next flow starts queued far ahead of them.
fn fct_net(flows: usize) -> Network {
    fct_net_and_last_start(flows).0
}

/// [`fct_net`] and the instant its last flow starts at.
fn fct_net_and_last_start(flows: usize) -> (Network, SimTime) {
    let topo = Topology::eval_fat_tree(G10);
    let mut net = Scheme::XPass(XPassConfig::default()).build(topo, G10, 53);
    let specs = PoissonWorkload::new(Workload::CacheFollower.dist(), 0.6, flows, 53 ^ 0xABCD)
        .generate(net.topo());
    add_all(&mut net, &specs);
    (net, specs.last().expect("workload has flows").start)
}

/// Every test here runs a simulation flat out, and the plane tests watch
/// one from a second thread in real time: one at a time, so the watched
/// simulation is never the thread left without a core.
static CPU_BOUND: Mutex<()> = Mutex::new(());

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("xpass-probe-cost-{}-{tag}", std::process::id()))
}

/// Writing checkpoints must not rearrange the scheduler: the run ends with
/// the bucket width and the allocated queue slots of a run that wrote
/// none. (Draining the calendar to serialise it used to leave its window
/// at the last queued flow start; every later event then went through one
/// sorted `Vec` that kept all popped entries.)
#[test]
fn checkpoint_writes_leave_the_scheduler_untouched() {
    let _alone = CPU_BOUND.lock().unwrap_or_else(|e| e.into_inner());
    let mut plain = fct_net(150);
    plain.run_until_done(CAP);

    let dir = tmp("write");
    let _ = std::fs::remove_dir_all(&dir);
    checkpoint::install(
        Some(CheckpointConfig {
            every: Dur::ms(2),
            dir: dir.clone(),
            keep: 2,
        }),
        None,
    );
    let mut ck = fct_net(150);
    ck.run_until_done(CAP);
    let newest = checkpoint::latest_checkpoint().expect("checkpoints were written");
    checkpoint::clear();
    assert!(
        newest.file_name().unwrap().to_str().unwrap() >= "ck-000002.snap",
        "expected at least three snapshots, newest is {newest:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(plain.flow_records(), ck.flow_records());
    let (pe, ce) = (plain.engine_report(), ck.engine_report());
    assert_eq!(pe.events_processed, ce.events_processed);
    assert_eq!(pe.peak_queue_len, ce.peak_queue_len);
    assert_eq!(pe.bucket_bits, ce.bucket_bits);
    assert_eq!(plain.event_queue_capacity(), ck.event_queue_capacity());
}

/// A run resumed from a mid-run snapshot keeps the queue's allocation in
/// proportion to what is queued, to the end — restore builds a fresh
/// scheduler instead of reusing one whose window a drain had moved.
#[test]
fn resumed_run_keeps_queue_allocation_bounded() {
    let _alone = CPU_BOUND.lock().unwrap_or_else(|e| e.into_inner());
    let (mut plain, last_start) = fct_net_and_last_start(150);
    plain.run_until_done(CAP);
    let end = plain.now();

    // Early enough that most flow starts are still queued far ahead.
    let mut donor = fct_net(150);
    donor.run_until(SimTime(last_start.as_ps() / 4));
    let mut w = xpass::sim::snap::SnapWriter::new();
    donor.snapshot_into(&mut w);
    let body = w.into_body();

    let mut resumed = fct_net(150);
    resumed.restore_from(&body).expect("twin restore");
    let mut worst = 0usize;
    for k in 3..=10u64 {
        resumed.run_until(SimTime(end.as_ps() / 10 * k));
        worst = worst.max(resumed.event_queue_capacity());
    }
    resumed.run_until_done(CAP);
    worst = worst.max(resumed.event_queue_capacity());
    assert_eq!(plain.flow_records(), resumed.flow_records());
    // The yardstick is the uninterrupted run, not the queue depth: a
    // healthy calendar's allocation is dominated by its 4096 bucket
    // vectors whatever the depth. The leak grew by one slot per event.
    assert!(
        worst <= 2 * plain.event_queue_capacity(),
        "resumed run reached {worst} queue slots (peak depth {}), the uninterrupted run ends with {}",
        resumed.engine_report().peak_queue_len,
        plain.event_queue_capacity()
    );
}

/// Run `fct_net(flows)` to completion on its own thread with the metrics
/// runtime publishing to `plane`; `done` flips when the run has returned.
fn metered_run_in_background(
    plane: &Plane,
    flows: usize,
    done: &'static AtomicBool,
) -> std::thread::JoinHandle<u64> {
    let plane = plane.clone();
    std::thread::spawn(move || {
        metrics::install(MetricsSpec::default(), Some(plane));
        let mut net = fct_net(flows);
        net.run_until_done(CAP);
        metrics::clear();
        done.store(true, Ordering::SeqCst);
        net.engine_report().events_processed
    })
}

fn events_of(engine_json: &str) -> Option<u64> {
    json::parse(engine_json)
        .ok()?
        .get("jobs")?
        .get("main#net0")?
        .get("events_processed")?
        .as_u64()
}

/// A polled plane serves, mid-run, text rendered from the same
/// publication as the progress row — never older than a row that was
/// already visible when the request arrived — and progress rows advance
/// while the run does. A publication is at most one throttle period (plus
/// one event-count check) old. The final views are complete.
#[test]
fn polled_plane_serves_text_no_older_than_progress() {
    let _alone = CPU_BOUND.lock().unwrap_or_else(|e| e.into_inner());
    static DONE: AtomicBool = AtomicBool::new(false);
    let plane = Plane::new();
    let sim = metered_run_in_background(&plane, 600, &DONE);
    let (mut mid_run, mut scrapes) = (0u32, 0u32);
    let mut seen: Vec<u64> = Vec::new();
    while !DONE.load(Ordering::SeqCst) {
        let row = plane.progress_rows().first().map(|(_, p)| p.clone());
        let before = row.as_ref().map_or(0, |p| p.events);
        let text = events_of(&plane.render_engine()).unwrap_or(0);
        assert!(
            text >= before,
            "scrape {scrapes}: text from event {text}, progress already showed {before}"
        );
        scrapes += 1;
        if text > 0 {
            mid_run += 1;
        }
        if let Some(p) = row {
            let unsettled = p.flows_completed + p.flows_aborted < p.flows_total;
            if unsettled && seen.last() != Some(&p.events) {
                seen.push(p.events);
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let total = sim.join().expect("sim thread");
    assert!(
        mid_run >= 3,
        "only {mid_run} of {scrapes} scrapes saw a running sim"
    );
    assert!(
        seen.len() >= 3 && seen.windows(2).all(|w| w[0] < w[1]),
        "progress must advance mid-run; saw {seen:?} of {total} events"
    );
    assert_eq!(events_of(&plane.render_engine()), Some(total));
    assert!(plane.render_metrics().contains("xpass_engine_events_total"));
}
