//! Snapshot/resume fences at the library level: `Network::snapshot_into`
//! / `restore_from` round trips across schedulers (far-future events,
//! reserved queue positions, a faulted Clos), the budget-kill → resume
//! path of the robustness story, a DCTCP scenario resumed in a fresh
//! process, the committed wire-format digests, and truncation errors that
//! name their section. The CLI resume fence — every fence experiment
//! resumed from its earliest and latest snapshot under both schedulers —
//! is `tests/fences.rs`.

use std::path::{Path, PathBuf};
use std::process::Command;
use xpass::expresspass::{xpass_factory, XPassConfig};
use xpass::net::config::NetConfig;
use xpass::net::ids::HostId;
use xpass::net::network::Network;
use xpass::net::topology::Topology;
use xpass::sim::checkpoint::{self, CheckpointConfig};
use xpass::sim::event::SchedulerKind;
use xpass::sim::run_ctx;
use xpass::sim::snap::SnapWriter;
use xpass::sim::time::{Dur, SimTime};
use xpass::sim::watchdog::{TripReason, WatchdogSpec};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xpass-repro"))
}

/// Make `kind` this thread's scheduler until the guard drops.
fn scheduler(kind: SchedulerKind) -> run_ctx::Entered {
    run_ctx::enter(run_ctx::current().with_scheduler(kind))
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("xpass-snapdet-{tag}-{}", std::process::id()))
}

/// Every `.snap` file under `dir`, recursively, sorted by path.
fn snaps(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "snap") {
                found.push(p);
            }
        }
    }
    found.sort();
    found
}

/// Run the CLI, assert success, return (stdout, `<exp>.json` record text).
fn run(args: &[&str], json_dir: &Path, exp: &str) -> (Vec<u8>, String) {
    let out = bin()
        .args(args)
        .args(["--json"])
        .arg(json_dir)
        .output()
        .expect("spawn xpass-repro");
    assert!(
        out.status.success(),
        "xpass-repro {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rec_path = json_dir.join(format!("{exp}.json"));
    let rec = std::fs::read_to_string(&rec_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", rec_path.display()));
    (out.stdout, rec)
}

fn demo_net(max_events: Option<u64>) -> Network {
    let topo = Topology::dumbbell(2, 10_000_000_000, Dur::us(1));
    let cfg = NetConfig::expresspass().with_seed(11);
    let mut net = Network::new(topo, cfg, xpass_factory(XPassConfig::aggressive()));
    net.install_ledger();
    net.install_watchdog(WatchdogSpec {
        max_events,
        max_wall: None,
        max_events_per_instant: Some(100_000),
    });
    for i in 0..2u32 {
        net.add_flow(HostId(i), HostId(2 + i), 2_000_000, SimTime::ZERO);
    }
    net
}

const CAP: SimTime = SimTime(10_000_000_000); // 10 ms in ps

/// Library-level round trip: snapshot a network mid-run, restore the bytes
/// into a freshly built twin — under the *other* scheduler — and continue
/// both to completion. Identical final state proves the snapshot captures
/// everything the run depends on, in scheduler-independent bytes.
#[test]
fn network_state_round_trips_in_process_across_schedulers() {
    let _heap = scheduler(SchedulerKind::Heap);
    let mut a = demo_net(None);
    a.run_until(SimTime::ZERO + Dur::us(300));
    let mut w = SnapWriter::new();
    a.snapshot_into(&mut w);
    let body = w.into_body();
    a.run_until_done(CAP);

    let _calendar = scheduler(SchedulerKind::Calendar);
    let mut b = demo_net(None);
    b.restore_from(&body).expect("twin restore");
    b.run_until_done(CAP);

    assert_eq!(a.flow_records(), b.flow_records());
    assert_eq!(a.counters(), b.counters());
    assert_eq!(a.now(), b.now());
    assert_eq!(a.completed_count(), 2);
}

/// The shape that used to wreck the calendar scheduler: a snapshot taken
/// while a far-future event (a flow starting many wheel windows ahead) is
/// queued. Taking it must be inert — same results *and* same scheduler
/// layout as a run that never snapshots — its bytes must not depend on the
/// scheduler, and a twin restored from it must finish identically.
#[test]
fn snapshot_with_a_far_future_event_queued_is_inert_and_portable() {
    fn net() -> Network {
        let mut n = demo_net(None);
        n.add_flow(HostId(0), HostId(3), 500_000, SimTime::ZERO + Dur::ms(8));
        n
    }
    let mut bodies = Vec::new();
    for (kind, other) in [
        (SchedulerKind::Heap, SchedulerKind::Calendar),
        (SchedulerKind::Calendar, SchedulerKind::Heap),
    ] {
        let _kind = scheduler(kind);
        let mut plain = net();
        plain.run_until_done(CAP);

        let mut a = net();
        a.run_until(SimTime::ZERO + Dur::us(300));
        let mut w = SnapWriter::new();
        a.snapshot_into(&mut w);
        let body = w.into_body();
        a.run_until_done(CAP);
        assert_eq!(plain.flow_records(), a.flow_records());
        assert_eq!(plain.counters(), a.counters());
        assert_eq!(plain.now(), a.now());
        assert_eq!(a.completed_count(), 3);
        let (pe, ae) = (plain.engine_report(), a.engine_report());
        assert_eq!(pe.events_processed, ae.events_processed);
        assert_eq!(pe.peak_queue_len, ae.peak_queue_len);
        assert_eq!(pe.bucket_bits, ae.bucket_bits, "{kind:?}");
        assert_eq!(
            plain.event_queue_capacity(),
            a.event_queue_capacity(),
            "{kind:?}: the snapshot rearranged the scheduler"
        );

        let _other = scheduler(other);
        let mut b = net();
        b.restore_from(&body).expect("twin restore");
        b.run_until_done(CAP);
        assert_eq!(a.flow_records(), b.flow_records());
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.now(), b.now());
        bodies.push(body);
    }
    assert_eq!(
        bodies[0], bodies[1],
        "snapshot bytes depend on the scheduler"
    );
}

/// A small fig15_xl-style 3-tier Clos with a cable cut at 100 µs, healed
/// at 600 µs.
fn clos_net() -> Network {
    use xpass::net::faults::FaultPlan;
    use xpass::net::ids::NodeId;

    // 4 pods × 2 ToRs × 6 hosts = 48 hosts, the fig15_xl quick shape.
    let topo = Topology::three_tier(
        4,
        2,
        2,
        6,
        4,
        10_000_000_000,
        10_000_000_000,
        10_000_000_000,
        Dur::us(1),
    );
    let cfg = NetConfig::expresspass().with_seed(29);
    let mut net = Network::new(topo, cfg, xpass_factory(XPassConfig::aggressive()));
    for i in 0..24u32 {
        net.add_flow(HostId(i), HostId(24 + i), 400_000, SimTime::ZERO);
    }
    // Cut one ToR uplink mid-run so the fault layer's live routes hold
    // excluded slices at the snapshot point.
    let tor = net.topo().tor_switches()[0];
    let up = net.topo().route_choices(tor, HostId(47))[0];
    let agg = match net.topo().dlinks[up.0 as usize].to {
        NodeId::Switch(s) => s,
        other => panic!("ToR uplink must reach a switch, got {other:?}"),
    };
    let down = net
        .topo()
        .dlink_between(NodeId::Switch(agg), NodeId::Switch(tor))
        .unwrap();
    net.install_fault_plan(
        FaultPlan::new()
            .cable_down(SimTime::ZERO + Dur::us(100), up, down)
            .cable_up(SimTime::ZERO + Dur::us(600), up, down),
    );
    net
}

/// The million-flow memory layout round-trips: a small fig15_xl-style
/// 3-tier Clos, snapshotted while timers are armed and a mid-run cable
/// cut holds two links down, restores into a twin under the other
/// scheduler — arena slots (with SoA lanes), per-host timer generations
/// and the downed links all travel through the bytes, and the twin
/// rebuilds its live routes from those links.
#[test]
fn three_tier_with_faults_round_trips_across_schedulers() {
    // Generous cap: a SYN blackholed by the cut retries on exponential
    // backoff and may settle tens of ms after the heal.
    let cap = SimTime::ZERO + Dur::ms(200);
    let _heap = scheduler(SchedulerKind::Heap);
    let mut a = clos_net();
    a.run_until(SimTime::ZERO + Dur::us(250));
    let mut w = SnapWriter::new();
    a.snapshot_into(&mut w);
    let body = w.into_body();
    a.run_until_done(cap);

    let _calendar = scheduler(SchedulerKind::Calendar);
    let mut b = clos_net();
    b.restore_from(&body).expect("clos twin restore");
    b.run_until_done(cap);

    assert_eq!(a.flow_records(), b.flow_records());
    assert_eq!(a.counters(), b.counters());
    assert_eq!(a.now(), b.now());
    // The cut can abort a SYN-blackholed flow or two; every flow must
    // still settle, identically on both sides.
    assert_eq!(a.completed_count() + a.aborted_count(), 24);
    assert_eq!(a.completed_count(), b.completed_count());
    assert_eq!(a.aborted_count(), b.aborted_count());
}

/// Satellite: a run killed by its event budget leaves a valid latest
/// snapshot behind, and resuming with a larger budget completes
/// byte-identically to the run that was never killed.
#[test]
fn budget_killed_run_resumes_to_the_unbudgeted_result() {
    // Reference: generous budget, never trips.
    let mut reference = demo_net(Some(10_000_000));
    reference.run_until_done(CAP);
    assert!(reference.watchdog_report().is_none());

    let dir = tmp("budget-kill");
    let _ = std::fs::remove_dir_all(&dir);
    checkpoint::install(
        Some(CheckpointConfig {
            every: Dur::us(50),
            dir: dir.clone(),
            keep: 3,
        }),
        None,
    );
    // Killed run: tight budget trips the watchdog mid-flight, well after
    // the first checkpoint (50 µs of sim time is a few hundred events).
    let mut killed = demo_net(Some(10_000));
    killed.run_until_done(CAP);
    let report = killed.watchdog_report().expect("tight budget must trip");
    assert_eq!(report.reason, TripReason::EventBudget);
    let snap = checkpoint::latest_checkpoint().expect("a snapshot survives the kill");
    let img = checkpoint::load_image(&snap).expect("the latest snapshot is valid");
    assert!(img.time < CAP);

    // Resume: fresh scope (the net-index counter restarts), generous
    // budget, image armed — the twin restores mid-flight and finishes.
    run_ctx::restart_scope();
    checkpoint::arm_resume(img);
    let mut resumed = demo_net(Some(10_000_000));
    resumed.run_until_done(CAP);
    checkpoint::clear();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(resumed.watchdog_report().is_none());
    assert_eq!(reference.flow_records(), resumed.flow_records());
    assert_eq!(reference.counters(), resumed.counters());
    assert_eq!(reference.now(), resumed.now());
}

const G10: u64 = 10_000_000_000;

/// Four DCTCP flows across a 10G dumbbell.
fn dctcp_net() -> Network {
    use xpass::experiments::Scheme;

    let mut n = Scheme::Dctcp.build(Topology::dumbbell(4, G10, Dur::us(4)), G10, 31);
    for i in 0..4u32 {
        n.add_flow(HostId(i), HostId(4 + i), 4_000_000, SimTime::ZERO);
    }
    n
}
/// True when both kinds of reserved position are pending: a port
/// serializing with its end-of-serialization wake deferred, and a sender
/// whose RTO is armed with only an earlier arming's event queued.
fn reserved_positions_pending(n: &mut Network) -> bool {
    use xpass::baselines::dctcp::DctcpCc;
    use xpass::baselines::window::WindowSender;
    use xpass::net::ids::{DLinkId, FlowId, Side};

    let now = n.now();
    let wake = (0..n.ports().len()).any(|i| {
        let dlink = DLinkId(i as u32);
        n.port(dlink).is_busy(now) && n.reserved_wake(dlink).is_some()
    });
    let mut carried = false;
    for f in 0..4 {
        n.poke(FlowId(f), Side::Sender, |ep, _| {
            let tx = ep.as_any().downcast_mut::<WindowSender<DctcpCc>>();
            carried |= tx.unwrap().rto_deadline().is_carried();
        });
    }
    wake && carried
}

/// Reserved queue positions survive a checkpoint. A DCTCP run — long
/// enough that the RTO carriers of the first milliseconds come due and
/// hop before it ends — is snapshotted at 24 instants half a microsecond
/// apart, some of which must catch both kinds pending — a port serializing with its
/// end-of-serialization wake deferred, and a sender whose RTO is armed
/// with only an earlier arming's event queued. The snapshot has to carry
/// the port's reserved sequence number, the deadline's reserved
/// `(expiry, seq)` and the queue's horizon for a twin to finish with the
/// same results *and the same event count*: a position dropped or doubled
/// on resume changes `events_processed` even where no flow notices.
#[test]
fn dctcp_snapshot_with_reserved_positions_pending_round_trips() {
    let cap = SimTime::ZERO + Dur::ms(50);
    let mut per_scheduler = Vec::new();
    for (kind, other) in [
        (SchedulerKind::Heap, SchedulerKind::Calendar),
        (SchedulerKind::Calendar, SchedulerKind::Heap),
    ] {
        let _kind = scheduler(kind);
        let mut plain = dctcp_net();
        let done = plain.run_until_done(cap);
        assert_eq!(plain.completed_count(), 4);
        assert!(
            done > SimTime::ZERO + Dur::ms(11),
            "no RTO came due: {done}"
        );
        // Drain: the carriers that hopped fire (dead by then) after the
        // last flow is done, and each must be counted by every twin.
        plain.run_until(cap);

        let mut a = dctcp_net();
        let (mut bodies, mut pending) = (Vec::new(), 0);
        for k in 0..24u64 {
            a.run_until(SimTime::ZERO + Dur::us(300) + Dur::ns(500 * k));
            pending += reserved_positions_pending(&mut a) as u32;
            let mut w = SnapWriter::new();
            a.snapshot_into(&mut w);
            bodies.push(w.into_body());
        }
        assert!(pending >= 4, "only {pending} instants with both pending");
        a.run_until(cap);

        let _other = scheduler(other);
        let same_as_plain = |name: &str, n: &Network| {
            assert_eq!(plain.flow_records(), n.flow_records(), "{name}");
            assert_eq!(plain.counters(), n.counters(), "{name}");
            assert_eq!(plain.now(), n.now(), "{name}");
            let (pe, ne) = (plain.engine_report(), n.engine_report());
            assert_eq!(pe.events_processed, ne.events_processed, "{name}");
            assert_eq!(pe.events_by_kind, ne.events_by_kind, "{name}");
            assert_eq!(pe.peak_queue_len, ne.peak_queue_len, "{name}");
        };
        same_as_plain("snapshotted", &a);
        for (k, body) in bodies.iter().enumerate() {
            let mut b = dctcp_net();
            b.restore_from(body).expect("twin restore");
            b.run_until(cap);
            same_as_plain(&format!("restored from snapshot {k}"), &b);
        }
        per_scheduler.push(bodies);
    }
    assert!(
        per_scheduler[0] == per_scheduler[1],
        "snapshot bytes depend on the scheduler"
    );
}

/// A wake held at its own instant survives a checkpoint. A credit that
/// reaches a port whose meter already has a wake pending asks for a wake
/// that would do nothing: its position `(now, seq)` is reserved, and a
/// later enqueue at that instant may still fill it. Runs stopped by their
/// event budget stop mid-instant, right after an event; the first one to
/// stop with such a reservation still ahead is snapshotted there, and a
/// twin restored from it — under either scheduler — must finish in the
/// very state of the run that was never stopped: the same snapshot bytes
/// at the end, its event counts included.
#[test]
fn snapshot_with_a_same_instant_wake_reserved_resumes_byte_identically() {
    use xpass::net::ids::DLinkId;

    let mut plain = demo_net(Some(10_000_000));
    plain.run_until_done(CAP);
    let (k, body) = (2_000..4_000u64)
        .find_map(|k| {
            let mut net = demo_net(Some(k));
            net.run_until_done(CAP);
            let now = net.now();
            let held = (0..net.ports().len()).any(|i| {
                net.reserved_wake(DLinkId(i as u32))
                    .is_some_and(|w| w.same_instant && w.at == now)
            });
            held.then(|| (k, body_of(&mut net)))
        })
        .expect("no budget stopped with a same-instant wake reserved");
    let want = body_of(&mut plain);
    for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
        let _kind = scheduler(kind);
        let mut twin = demo_net(Some(10_000_000));
        twin.restore_from(&body).expect("twin restore");
        twin.run_until_done(CAP);
        assert_eq!(
            twin.flow_records(),
            plain.flow_records(),
            "after {k} events"
        );
        assert_eq!(
            twin.engine_report().events_by_kind,
            plain.engine_report().events_by_kind,
            "after {k} events, {kind:?}"
        );
        assert!(body_of(&mut twin) == want, "after {k} events, {kind:?}");
    }
}

/// The same across a process boundary: a DCTCP shuffle checkpointed every
/// simulated millisecond (every snapshot lands mid-transfer, wakes
/// deferred and RTOs carried all over the fabric) and resumed by a fresh
/// `xpass-repro` prints byte-identical tables and counts the very same
/// events, under both schedulers. (Scenario records carry wall-clock
/// fields, so the record is compared on its deterministic part.)
#[test]
fn dctcp_scenario_resumes_in_a_fresh_process_to_the_same_event_count() {
    use xpass::sim::json::{self, Json};

    const SCENARIO: &str = r#"{
      "schema": "xpass-scenario/v1",
      "name": "dctcp_shuffle",
      "title": "DCTCP shuffle on a k=4 fat tree",
      "seed": 19,
      "link_bps": 10000000000,
      "topology": {"kind": "fat_tree", "k": 4, "prop_us": 2},
      "series": [{"label": "DCTCP", "scheme": {"kind": "dctcp"}}],
      "workload": {"kind": "shuffle", "tasks_per_host": 1, "bytes_per_pair": 200000},
      "measure": {"kind": "fct", "cap_ms": 400}
    }"#;
    /// `(events_processed, events_by_kind)` of the record's one series.
    fn event_counts(record: &str) -> (Json, Json) {
        let rec = json::parse(record).expect("record parses");
        let series = rec.get("payload").and_then(|p| p.get("series")).unwrap();
        let Json::Arr(series) = series else {
            panic!("series is not an array")
        };
        let engine = series[0].get("engine").unwrap();
        (
            engine.get("events_processed").unwrap().clone(),
            engine.get("events_by_kind").unwrap().clone(),
        )
    }

    for sched in ["heap", "calendar"] {
        let root = tmp(&format!("dctcp-scenario-{sched}"));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let scenario = root.join("dctcp_shuffle.json");
        std::fs::write(&scenario, SCENARIO).unwrap();
        let (scenario_s, ckd) = (scenario.to_str().unwrap(), root.join("ckd"));
        let ckd_s = ckd.to_str().unwrap();

        let clean_args = ["run", scenario_s, "--scheduler", sched];
        let (clean_out, clean_rec) = run(&clean_args, &root.join("j-clean"), "dctcp_shuffle");
        let mut ck_args = clean_args.to_vec();
        ck_args.extend_from_slice(&["--checkpoint-every", "1", "--checkpoint-dir", ckd_s]);
        let (ck_out, ck_rec) = run(&ck_args, &root.join("j-ck"), "dctcp_shuffle");
        assert_eq!(clean_out, ck_out, "{sched}: checkpointing changed stdout");
        assert_eq!(event_counts(&clean_rec), event_counts(&ck_rec), "{sched}");

        let written = snaps(&ckd);
        assert!(written.len() >= 2, "{sched}: the run outlasts 2 ms");
        for (k, snap) in [&written[0], &written[written.len() - 1]]
            .iter()
            .enumerate()
        {
            let resume = ["--resume", snap.to_str().unwrap(), "run", scenario_s];
            let resume = [&resume[..], &["--scheduler", sched]].concat();
            let (r_out, r_rec) = run(&resume, &root.join(format!("j-r{k}")), "dctcp_shuffle");
            assert_eq!(clean_out, r_out, "{sched}: resume from {}", snap.display());
            assert_eq!(
                event_counts(&clean_rec),
                event_counts(&r_rec),
                "{sched}: resume from {} counted other events",
                snap.display()
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Every probe whose state rides in a snapshot, on `net`: ledger,
/// invariant monitors, watchdog, and the sampler with one flow and one
/// port tracked. (The metrics sampler is thread-scoped: install it before
/// the network is built.)
fn install_probes(net: &mut Network) {
    use xpass::net::health::InvariantSpec;
    use xpass::net::ids::FlowId;

    net.install_ledger();
    net.install_invariants(InvariantSpec {
        data_queue_bound_bytes: Some(1_000_000),
        zero_data_loss: true,
    });
    net.install_watchdog(WatchdogSpec {
        max_events: None,
        max_wall: None,
        max_events_per_instant: Some(100_000),
    });
    net.set_sample_interval(Dur::us(40));
    net.track_flow(FlowId(0));
    let uplink = net.topo().host_uplink[0];
    net.track_port(uplink);
}

/// The network `fuzz_robustness.rs` mutates: two ExpressPass flows across
/// a 10G dumbbell.
fn dumbbell_net() -> Network {
    let topo = Topology::dumbbell(2, G10, Dur::us(1));
    let cfg = NetConfig::expresspass().with_seed(5);
    let mut net = Network::new(topo, cfg, xpass_factory(XPassConfig::aggressive()));
    for i in 0..2u32 {
        net.add_flow(HostId(i), HostId(2 + i), 500_000, SimTime::ZERO);
    }
    net
}

fn body_of(net: &mut Network) -> Vec<u8> {
    let mut w = SnapWriter::new();
    net.snapshot_into(&mut w);
    w.into_body()
}

/// The wire format, pinned across commits. `(length, CRC-32)` of three
/// snapshot bodies, as v7 writes them: each port's held wake position
/// (time, sequence number, queued or reserved, same-instant or ending a
/// transmission) and its meter wake with the head credit's size; no
/// queue statistics beyond a data
/// queue's tail drops and occupancy, no port payload-byte count, no
/// `routing` section (the live routes are rebuilt from the fault layer's
/// links), no arena slot
/// occupancy, generation or free list, no timer occupancy wheel, no flow
/// generation in a queued timer, none of v3's always-empty reserved
/// slots. They may change only together with `snap::VERSION`.
#[test]
fn snapshot_bodies_match_the_committed_digests() {
    use xpass::sim::metrics::{self, MetricsSpec};
    use xpass::sim::snap::crc32;

    const DUMBBELL: (usize, u32) = (3_832, 0x488d_0cc0);
    const DCTCP: (usize, u32) = (15_076, 0x1df8_cea1);
    const CLOS: (usize, u32) = (67_435, 0x8e81_92c8);
    let digest = |net: &mut Network| {
        let body = body_of(net);
        (body.len(), crc32(&body))
    };
    for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
        let _kind = scheduler(kind);
        let mut net = dumbbell_net();
        net.run_until(SimTime::ZERO + Dur::us(200));
        assert_eq!(digest(&mut net), DUMBBELL, "dumbbell, {kind:?}");

        // DCTCP at the first instant that has a deferred port wake and a
        // carried RTO deadline pending.
        let mut net = dctcp_net();
        let mut at = SimTime::ZERO + Dur::us(300);
        net.run_until(at);
        while !reserved_positions_pending(&mut net) {
            at += Dur::ns(500);
            assert!(at < SimTime::ZERO + Dur::us(312), "nothing pending");
            net.run_until(at);
        }
        assert_eq!(digest(&mut net), DCTCP, "dctcp at {at}, {kind:?}");

        // The Clos after its cable cut, every probe on.
        metrics::install(
            MetricsSpec {
                interval: Dur::us(100),
                ..MetricsSpec::default()
            },
            None,
        );
        let mut net = clos_net();
        install_probes(&mut net);
        net.run_until(SimTime::ZERO + Dur::us(250));
        assert_eq!(digest(&mut net), CLOS, "clos, {kind:?}");
        metrics::clear();

        // One mid-run row per scheme whose endpoints, controller or
        // switch state no row above reaches; each also resumes in a twin
        // to the uninterrupted run.
        for (name, build, want) in SCHEME_ROWS {
            let cap = SimTime::ZERO + Dur::ms(100);
            let mut plain = build();
            plain.run_until_done(cap);
            let mut net = build();
            net.run_until(SCHEME_SNAPSHOT_AT);
            assert!(
                net.completed_count() < plain.completed_count(),
                "{name}: nothing left to run after the snapshot"
            );
            let body = body_of(&mut net);
            assert_eq!((body.len(), crc32(&body)), want, "{name}, {kind:?}");
            let mut twin = build();
            twin.restore_from(&body)
                .unwrap_or_else(|e| panic!("{name}, {kind:?}: {e}"));
            twin.run_until_done(cap);
            assert_eq!(plain.flow_records(), twin.flow_records(), "{name}");
            assert_eq!(plain.counters(), twin.counters(), "{name}");
            assert_eq!(
                plain.engine_report().events_processed,
                twin.engine_report().events_processed,
                "{name}, {kind:?}"
            );
        }
    }
}

/// Writing a snapshot borrows the network mutably — one traversal serves
/// both directions — and must still change nothing. The mid-run Clos with
/// its cable cut, every probe and the metrics sampler snapshots to the
/// same bytes twice over, then runs on to the records, counters and event
/// counts of a twin that was never snapshotted, and ends in the same state.
#[test]
fn taking_a_snapshot_changes_nothing() {
    use xpass::sim::metrics::{self, MetricsSpec};

    metrics::install(
        MetricsSpec {
            interval: Dur::us(100),
            ..MetricsSpec::default()
        },
        None,
    );
    let build = || {
        let mut net = clos_net();
        install_probes(&mut net);
        net
    };
    let (mut net, mut plain) = (build(), build());
    let at = SimTime::ZERO + Dur::us(250);
    net.run_until(at);
    plain.run_until(at);
    let first = body_of(&mut net);
    assert!(body_of(&mut net) == first, "a second snapshot differs");
    assert!(body_of(&mut net) == first, "a third snapshot differs");

    let cap = SimTime::ZERO + Dur::ms(200);
    net.run_until_done(cap);
    plain.run_until_done(cap);
    assert_eq!(net.flow_records(), plain.flow_records());
    assert_eq!(net.counters(), plain.counters());
    let (got, want) = (net.engine_report(), plain.engine_report());
    assert_eq!(got.events_processed, want.events_processed);
    assert_eq!(got.events_by_kind, want.events_by_kind);
    assert_eq!(got.peak_queue_len, want.peak_queue_len);
    assert!(
        body_of(&mut net) == body_of(&mut plain),
        "end states differ"
    );
    metrics::clear();
}

/// When the per-scheme rows are snapshotted.
const SCHEME_SNAPSHOT_AT: SimTime = SimTime(300_000_000); // 300 µs in ps

/// Four flows of `scheme` across a 10G dumbbell, arriving 40 µs apart.
fn scheme_net(scheme: xpass::experiments::Scheme) -> Network {
    let mut n = scheme.build(Topology::dumbbell(4, G10, Dur::us(4)), G10, 37);
    for i in 0..4u32 {
        let start = SimTime::ZERO + Dur::us(40 * i as u64);
        n.add_flow(HostId(i), HostId(4 + i), 1_000_000, start);
    }
    n
}

/// Two constant-rate UDP blasts, 4 Gbps each, across a 10G dumbbell.
fn udp_net() -> Network {
    use xpass::baselines::udp_blast_factory;

    let topo = Topology::dumbbell(2, G10, Dur::us(4));
    let mut n = Network::new(
        topo,
        NetConfig::default().with_seed(41),
        udp_blast_factory(4e9),
    );
    for i in 0..2u32 {
        n.add_flow(HostId(i), HostId(2 + i), 400_000, SimTime::ZERO);
    }
    n
}

/// Fig 1's partition/aggregate application over DCTCP: a master fanning
/// requests out to eight worker tasks on four hosts, round after round.
fn partition_aggregate_net() -> Network {
    use xpass::experiments::Scheme;
    use xpass::workloads::patterns::start_partition_aggregate;
    use xpass::workloads::PartitionAggregate;

    let mut n = Scheme::Dctcp.build(Topology::dumbbell(4, G10, Dur::us(4)), G10, 43);
    let workers = (4..8).map(HostId).collect();
    start_partition_aggregate(&mut n, PartitionAggregate::new(HostId(0), workers, 8, 40));
    n
}

type SchemeRow = (&'static str, fn() -> Network, (usize, u32));

/// `(length, CRC-32)` of each scheme's body at [`SCHEME_SNAPSHOT_AT`].
const SCHEME_ROWS: [SchemeRow; 9] = {
    use xpass::experiments::Scheme;
    [
        ("reno", || scheme_net(Scheme::Reno), (23_958, 0xbd37_27d1)),
        ("cubic", || scheme_net(Scheme::Cubic), (24_058, 0xba9d_42cc)),
        ("hull", || scheme_net(Scheme::Hull), (6_883, 0xa6a9_fcb8)),
        ("dx", || scheme_net(Scheme::Dx), (6_902, 0x5ec3_1f20)),
        ("rcp", || scheme_net(Scheme::Rcp), (15_361, 0x64b1_53c0)),
        (
            "naive credit",
            || scheme_net(Scheme::NaiveCredit),
            (10_219, 0xa8e7_59f7),
        ),
        ("ideal", || scheme_net(Scheme::Ideal), (6_434, 0x5db3_c23a)),
        ("udp blast", udp_net, (2_857, 0x68b7_a482)),
        (
            "partition/aggregate",
            partition_aggregate_net,
            (20_071, 0xd51f_0547),
        ),
    ]
};

/// A restored id must name something the network has. The first queued
/// event's first field — a directed link or a flow for every event but a
/// fault — is patched to `u32::MAX` in a clean body: the restore refuses
/// it under `network.*` instead of accepting an index the run would take
/// out of bounds later.
#[test]
fn a_restored_id_out_of_range_is_refused() {
    let mut donor = dumbbell_net();
    donor.run_until(SimTime::ZERO + Dur::us(200));
    let mut body = body_of(&mut donor);
    // now (8), queue length (8), then the entry: time (8), sequence
    // number (8), event tag (1), and the id.
    const TAG: usize = 32;
    assert_ne!(body[TAG], 7, "the first event is a fault");
    body[TAG + 1..TAG + 5].copy_from_slice(&u32::MAX.to_le_bytes());
    let e = dumbbell_net()
        .restore_from(&body)
        .expect_err("an id out of range restores");
    assert!(e.path.starts_with("network."), "{e}");
    assert!(e.msg.contains("out of range"), "{e}");
}

/// A port's held wake position must carry a sequence number the restored
/// queue handed out, since an enqueue may queue the wake there. A clean
/// DCTCP body's reserved wake gets a sequence number past any the queue
/// reserved: the restore refuses it under `network.ports.<i>` instead of
/// the run later queueing an event at a position nobody reserved.
#[test]
fn a_restored_wake_the_queue_never_reserved_is_refused() {
    use xpass::net::ids::DLinkId;

    let mut donor = dctcp_net();
    let mut at = SimTime::ZERO + Dur::us(300);
    donor.run_until(at);
    let (port, wake) = loop {
        let held = (0..donor.ports().len())
            .find_map(|i| donor.reserved_wake(DLinkId(i as u32)).map(|w| (i, w)));
        if let Some(held) = held {
            break held;
        }
        at += Dur::ns(500);
        assert!(at < SimTime::ZERO + Dur::us(312), "no wake reserved");
        donor.run_until(at);
    };
    let mut body = body_of(&mut donor);
    // The slot as a port writes it: present, time, sequence number,
    // queued, same-instant.
    let mut slot = vec![1];
    slot.extend(wake.at.0.to_le_bytes());
    slot.extend(wake.seq.to_le_bytes());
    slot.extend([wake.queued as u8, wake.same_instant as u8]);
    let found: Vec<usize> = (body.windows(slot.len()).enumerate())
        .filter(|(_, bytes)| *bytes == slot)
        .map(|(at, _)| at)
        .collect();
    assert_eq!(found.len(), 1, "the slot's bytes are not unique");
    let seq = found[0] + 9;
    body[seq..seq + 8].copy_from_slice(&(u64::MAX >> 1).to_le_bytes());
    let e = dctcp_net()
        .restore_from(&body)
        .expect_err("a wake at a position never reserved restores");
    assert_eq!(e.path, format!("network.ports.{port}"), "{e}");
    assert!(e.msg.contains("never reserved"), "{e}");
}

/// Offset of each queued event's tag in a body taken without a fault
/// plan: now (8), queue length (8), then per entry its time (8), sequence
/// number (8), tag (1) and payload, whose size the tag gives.
fn queued_event_tags(body: &[u8]) -> Vec<usize> {
    const PACKET: usize = 88;
    let n = u64::from_le_bytes(body[8..16].try_into().unwrap());
    let mut at = 16;
    (0..n)
        .map(|_| {
            let tag = at + 16;
            at = tag
                + 1
                + match body[tag] {
                    0 => 4 + PACKET, // Arrive: link, packet
                    1 | 4 | 5 => 4,  // PortWake, FlowStart, RcpUpdate
                    2 => PACKET,     // HostRx
                    3 => 18,         // Timer: flow, host, side, kind, generation
                    t => panic!("event tag {t}"),
                };
            tag
        })
        .collect()
}

/// A packet arriving over a link into a host lands there, so it must be
/// addressed to that host. A clean body's first such arrival gets another
/// host, in range, as its destination: the restore refuses it under
/// `network.events` instead of the run delivering it to the wrong host.
#[test]
fn a_restored_arrival_for_another_host_is_refused() {
    use xpass::net::ids::NodeId;

    let mut donor = dumbbell_net();
    donor.run_until(SimTime::ZERO + Dur::us(200));
    let mut body = body_of(&mut donor);
    let word = |body: &[u8], at: usize| u32::from_le_bytes(body[at..at + 4].try_into().unwrap());
    // An Arrive's tag is followed by its link, then the packet's flow,
    // source and destination.
    let (dst, host) = queued_event_tags(&body)
        .into_iter()
        .filter(|&tag| body[tag] == 0)
        .find_map(
            |tag| match donor.topo().dlinks[word(&body, tag + 1) as usize].to {
                NodeId::Host(h) => Some((tag + 13, h)),
                NodeId::Switch(_) => None,
            },
        )
        .expect("an arrival at a host is queued");
    assert_eq!(word(&body, dst), host.0, "the walk lost its place");
    let other = (host.0 + 1) % donor.topo().n_hosts as u32;
    body[dst..dst + 4].copy_from_slice(&other.to_le_bytes());
    let e = dumbbell_net()
        .restore_from(&body)
        .expect_err("an arrival for another host restores");
    assert_eq!(e.path, "network.events", "{e}");
    assert!(e.msg.contains(&format!("into host {}", host.0)), "{e}");
}

/// A damaged snapshot says where: every strict prefix of a body — taken
/// with a fault plan, every probe and the sampler installed, so every
/// section is there — is refused with an error whose path names the
/// section the bytes ran out in, one level below `network`. Each layer
/// enters its own context: the timer generations report `network.timers`, not
/// `network.flows.timers` as they did while the arena's context was still
/// open around them.
#[test]
fn every_truncation_of_a_snapshot_names_the_section_it_broke() {
    use std::collections::BTreeSet;
    use xpass::net::faults::FaultPlan;

    fn net() -> Network {
        let mut net = dumbbell_net();
        let uplink = net.topo().host_uplink[0];
        net.install_fault_plan(
            FaultPlan::new()
                .set_loss(SimTime::ZERO + Dur::us(50), uplink, 0.01, 0.01)
                .host_pause(SimTime::ZERO + Dur::us(150), HostId(3))
                .host_resume(SimTime::ZERO + Dur::us(400), HostId(3)),
        );
        install_probes(&mut net);
        net
    }
    let mut donor = net();
    donor.run_until(SimTime::ZERO + Dur::us(200));
    let body = body_of(&mut donor);
    net().restore_from(&body).expect("the whole body restores");

    let mut sections = BTreeSet::new();
    for k in 0..body.len() {
        let e = net()
            .restore_from(&body[..k])
            .expect_err("a strict prefix cannot restore");
        let mut path = e.path.split('.');
        assert_eq!(path.next(), Some("network"), "cut at {k}: {e}");
        let section = path.next().unwrap_or_else(|| panic!("cut at {k}: {e}"));
        assert!(!e.path.contains("flows.timers"), "cut at {k}: {e}");
        sections.insert(section.to_string());
    }
    let expected = [
        "now",
        "events",
        "rng",
        "ports",
        "flows",
        "timers",
        "pending",
        "settled",
        "controller",
        "faults",
        "invariants",
        "ledger",
        "watchdog",
        "counters",
        "sampler",
        "metrics",
    ];
    assert_eq!(
        sections,
        expected.iter().map(|s| s.to_string()).collect(),
        "sections named by the {} truncations",
        body.len()
    );
}
