//! Chaos-engineering integration tests: the `chaos_sweep` report is
//! byte-identical across event-scheduler implementations and job counts
//! (through the real CLI), the sweep holds the paper's invariants over all
//! 64 generated schedules, and the simulation watchdog demonstrably aborts
//! a deliberately livelocked network instead of hanging.

use std::any::Any;
use std::path::Path;
use std::process::Command;
use xpass::net::config::NetConfig;
use xpass::net::endpoint::{Ctx, Endpoint, EndpointFactory};
use xpass::net::ids::{HostId, Side};
use xpass::net::network::Network;
use xpass::net::packet::Packet;
use xpass::net::topology::Topology;
use xpass::sim::json::{parse, Json};
use xpass::sim::time::{Dur, SimTime};
use xpass::sim::watchdog::{TripReason, WatchdogSpec};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xpass-repro"))
}

fn read_record(dir: &Path) -> (String, Json) {
    let path = dir.join("chaos_sweep.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let json = parse(&text).unwrap_or_else(|e| panic!("chaos_sweep.json does not parse: {e}"));
    (text, json)
}

/// One CLI sweep run; returns (stdout bytes, record bytes, parsed record).
fn sweep(scheduler: &str, jobs: &str, tag: &str) -> (Vec<u8>, String, Json) {
    let dir = std::env::temp_dir().join(format!("xpass-chaos-{tag}-{}", std::process::id()));
    let out = bin()
        .args([
            "chaos_sweep",
            "--scheduler",
            scheduler,
            "--jobs",
            jobs,
            "--json",
        ])
        .arg(&dir)
        .output()
        .expect("run chaos_sweep");
    assert!(out.status.success(), "chaos_sweep failed: {out:?}");
    let (text, json) = read_record(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    (out.stdout, text, json)
}

#[test]
fn sweep_report_is_scheduler_and_jobs_invariant() {
    // Crossing both dimensions at once: heap/1 worker vs calendar/4
    // workers must agree byte for byte on stdout AND the JSON record.
    let (stdout_a, rec_a, json_a) = sweep("heap", "1", "h1");
    let (stdout_b, rec_b, json_b) = sweep("calendar", "4", "c4");
    assert_eq!(
        stdout_a,
        stdout_b,
        "stdout diverged:\n--- heap/1 ---\n{}\n--- calendar/4 ---\n{}",
        String::from_utf8_lossy(&stdout_a),
        String::from_utf8_lossy(&stdout_b)
    );
    assert_eq!(rec_a, rec_b, "JSON records diverged across scheduler/jobs");

    // The acceptance bar: >= 64 generated schedules, zero conservation or
    // liveness violations, and the faults demonstrably fired.
    let payload = json_a.get("payload").expect("payload");
    assert!(payload.get("n_seeds").unwrap().as_u64().unwrap() >= 64);
    assert_eq!(payload.get("violations").unwrap().as_u64(), Some(0));
    assert_eq!(payload.get("ok").unwrap().as_bool(), Some(true));
    assert!(payload.get("total_faults").unwrap().as_u64().unwrap() > 0);
    let seeds = payload.get("seeds").unwrap().as_array().unwrap();
    assert!(seeds.len() >= 64);
    for s in seeds {
        assert_eq!(s.get("balanced").unwrap().as_bool(), Some(true));
        assert_eq!(s.get("unfinished").unwrap().as_u64(), Some(0));
        assert_eq!(s.get("watchdog").unwrap(), &Json::Null);
    }
    drop(json_b);
}

/// An endpoint that re-arms a zero-delay timer forever: simulation time
/// can never advance past the first firing — a genuine livelock.
struct Spinner;

impl Endpoint for Spinner {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.arm_timer(0, Dur::ZERO);
    }
    fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut Ctx<'_>) {}
    fn on_timer(&mut self, _kind: u8, _gen: u64, ctx: &mut Ctx<'_>) {
        ctx.arm_timer(0, Dur::ZERO);
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
    fn persist(&mut self, _io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        Ok(())
    }
}

fn spinner_factory() -> EndpointFactory {
    Box::new(|_side: Side, _info| Box::new(Spinner))
}

#[test]
fn watchdog_aborts_a_livelocked_network() {
    let topo = Topology::dumbbell(1, 10_000_000_000, Dur::us(1));
    let cfg = NetConfig::expresspass().with_seed(1);
    let mut net = Network::new(topo, cfg, spinner_factory());
    net.install_watchdog(WatchdogSpec {
        max_events: None,
        max_wall: None,
        max_events_per_instant: Some(10_000),
    });
    net.add_flow(HostId(0), HostId(1), 1_000_000, SimTime::ZERO);
    net.set_phase("livelock");
    // Without the watchdog this loops forever at t=0; with it the run
    // aborts after the same-instant budget and reports why.
    net.run_until_done(SimTime::ZERO + Dur::secs(1));
    let report = net.watchdog_report().expect("watchdog must trip");
    assert_eq!(report.reason, TripReason::TimeStuck);
    assert_eq!(report.at, SimTime::ZERO, "time advanced during a livelock?");
    assert_eq!(report.phase, "livelock");
    assert_eq!(report.hottest_event, "timer");
    // The diagnostic JSON carries no wall-clock fields (determinism).
    let j = report.to_json().to_string();
    assert!(j.contains("\"reason\":\"time_stuck\""), "{j}");
    assert!(
        !j.contains("wall"),
        "wall-clock leaked into the report: {j}"
    );
}

#[test]
fn watchdog_event_budget_bounds_a_runaway_run() {
    // A healthy network, but with an event budget far below what the run
    // needs: the watchdog must stop it and report the budget trip.
    let topo = Topology::dumbbell(2, 10_000_000_000, Dur::us(1));
    let cfg = NetConfig::expresspass().with_seed(3);
    let mut net = Network::new(
        topo,
        cfg,
        xpass::expresspass::xpass_factory(xpass::expresspass::XPassConfig::aggressive()),
    );
    net.install_watchdog(WatchdogSpec {
        max_events: Some(5_000),
        max_wall: None,
        max_events_per_instant: None,
    });
    for i in 0..2u32 {
        net.add_flow(HostId(i), HostId(2 + i), 50_000_000, SimTime::ZERO);
    }
    net.run_until_done(SimTime::ZERO + Dur::secs(10));
    let report = net.watchdog_report().expect("budget must trip");
    assert_eq!(report.reason, TripReason::EventBudget);
    assert!(report.events_observed >= 5_000);
    assert!(report.queue_len > 0, "a stopped run leaves events queued");
}
