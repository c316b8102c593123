//! Telemetry integration tests: the zero-cost guarantee (tracing and
//! invariant monitoring leave runs byte-identical), trace-event coverage,
//! JSONL output, engine profiling consistency, invariant monitors on
//! healthy and deliberately broken configurations, and the `xpass-repro`
//! CLI surface (`--json`, `--seed`, usage errors).

use std::process::Command;
use xpass::baselines::cubic_factory;
use xpass::expresspass::{xpass_factory, XPassConfig};
use xpass::net::config::NetConfig;
use xpass::net::health::InvariantSpec;
use xpass::net::ids::HostId;
use xpass::net::network::{Counters, FlowRecord, Network};
use xpass::net::topology::Topology;
use xpass::sim::json;
use xpass::sim::time::{Dur, SimTime};
use xpass::sim::trace::{JsonlSink, RingSink, TraceSink};

const G10: u64 = 10_000_000_000;

fn xpass_dumbbell(n_pairs: usize, seed: u64) -> Network {
    let topo = Topology::dumbbell(n_pairs, G10, Dur::us(2));
    let cfg = NetConfig::expresspass().with_seed(seed);
    Network::new(topo, cfg, xpass_factory(XPassConfig::aggressive()))
}

/// Run a busy 4-pair dumbbell to completion with optional telemetry.
fn observed_run(
    seed: u64,
    trace: bool,
    monitor: bool,
) -> (
    Counters,
    Vec<FlowRecord>,
    Option<Box<dyn TraceSink>>,
    Network,
) {
    let mut net = xpass_dumbbell(4, seed);
    if trace {
        net.install_trace_sink(Box::new(RingSink::new(1 << 20)));
    }
    if monitor {
        net.install_invariants(InvariantSpec {
            data_queue_bound_bytes: Some(net.cfg().switch_queue_bytes),
            zero_data_loss: true,
        });
    }
    for i in 0..4u32 {
        net.add_flow(HostId(i), HostId(4 + i), 2_000_000, SimTime::ZERO);
    }
    net.run_until_done(SimTime::ZERO + Dur::secs(2));
    let counters = net.counters().clone();
    let records = net.flow_records();
    let sink = net.take_trace_sink();
    (counters, records, sink, net)
}

#[test]
fn telemetry_does_not_perturb_the_run() {
    let (c_plain, r_plain, _, _) = observed_run(41, false, false);
    let (c_traced, r_traced, sink, _) = observed_run(41, true, false);
    let (c_full, r_full, _, _) = observed_run(41, true, true);
    assert_eq!(c_plain, c_traced, "tracing changed the counters");
    assert_eq!(r_plain, r_traced, "tracing changed the flow records");
    assert_eq!(c_plain, c_full, "monitoring changed the counters");
    assert_eq!(r_plain, r_full, "monitoring changed the flow records");
    // The traced run genuinely observed something.
    let mut sink = sink.expect("sink must be returned");
    let ring = sink.as_any().downcast_mut::<RingSink>().unwrap();
    assert!(ring.total_recorded() > 1000, "{}", ring.total_recorded());
}

#[test]
fn ring_sink_sees_the_expected_event_kinds() {
    let (counters, records, sink, _) = observed_run(43, true, false);
    let mut sink = sink.unwrap();
    let ring = sink.as_any().downcast_mut::<RingSink>().unwrap();
    let events = ring.drain();
    // Timestamps never go backwards (events are emitted in processing order).
    for w in events.windows(2) {
        assert!(w[0].at() <= w[1].at(), "{:?} then {:?}", w[0], w[1]);
    }
    let count = |name: &str| events.iter().filter(|e| e.name() == name).count() as u64;
    assert_eq!(count("flow_started"), 4);
    assert_eq!(count("flow_completed"), 4);
    assert_eq!(count("credit_sent"), counters.credits_sent);
    assert_eq!(count("credit_wasted"), counters.credits_wasted);
    assert_eq!(count("ecn_mark"), counters.ecn_marked);
    assert!(count("pkt_enqueue") > 0);
    assert!(count("pkt_dequeue") > 0);
    assert!(
        count("feedback_update") > 0,
        "no Algorithm-1 updates traced"
    );
    // Cross-check one flow-completion record against the trace.
    let done: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            xpass::sim::trace::TraceEvent::FlowCompleted { flow, fct_ps, .. } => {
                Some((*flow, *fct_ps))
            }
            _ => None,
        })
        .collect();
    for r in &records {
        let fct = r.fct.expect("all flows complete").as_ps();
        assert!(done.contains(&(r.id.0, fct)), "flow {} not traced", r.id.0);
    }
}

#[test]
fn jsonl_sink_writes_parseable_lines() {
    let path = std::env::temp_dir().join(format!("xpass-telemetry-{}.jsonl", std::process::id()));
    {
        let mut net = xpass_dumbbell(1, 47);
        net.install_trace_sink(Box::new(JsonlSink::create(&path).unwrap()));
        net.add_flow(HostId(0), HostId(1), 100_000, SimTime::ZERO);
        net.run_until_done(SimTime::ZERO + Dur::secs(1));
        let mut sink = net.take_trace_sink().unwrap();
        let jsonl = sink.as_any().downcast_mut::<JsonlSink>().unwrap();
        assert_eq!(jsonl.write_errors(), 0);
    }
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 100, "only {} trace lines", lines.len());
    for line in &lines {
        let j = json::parse(line).expect("every trace line parses");
        assert!(j.get("ev").unwrap().as_str().is_some());
        assert!(j.get("t_ps").unwrap().as_u64().is_some());
    }
}

#[test]
fn engine_report_is_consistent() {
    let (_, _, _, net) = observed_run(53, false, false);
    let rep = net.engine_report();
    let by_kind: u64 = rep.events_by_kind.iter().map(|&(_, n)| n).sum();
    assert_eq!(by_kind, rep.events_processed, "per-kind counts must sum");
    assert!(rep.events_processed > 1000);
    assert!(rep.peak_queue_len > 0);
    // Regression fence: a 4-pair dumbbell keeps ~38 live events at peak
    // (a handful per flow plus per-port timers). A leak of cancelled
    // timers or a scheduler that stops consuming would blow well past 64.
    assert!(
        rep.peak_queue_len <= 64,
        "peak queue depth regressed: {} live events (expected <= 64)",
        rep.peak_queue_len
    );
    assert!(rep.sim_secs > 0.0);
    assert!(rep.wall_secs > 0.0);
    assert!(rep.events_per_sec() > 0.0);
    let j = json::parse(&rep.to_json().to_string()).unwrap();
    assert_eq!(
        j.get("events_processed").unwrap().as_u64(),
        Some(rep.events_processed)
    );
    assert_eq!(
        j.get("scheduler").unwrap().as_str(),
        Some(rep.scheduler),
        "report must name the scheduler that ran the queue"
    );
}

#[test]
fn stock_run_reports_healthy() {
    let (counters, _, _, net) = observed_run(59, false, true);
    let h = net.health_report();
    assert!(h.monitored);
    assert!(h.ok(), "{h:?}");
    assert_eq!(h.queue_violations, 0);
    assert_eq!(h.loss_violations, 0);
    assert!(h.peak_switch_queue_bytes > 0, "monitor saw no traffic");
    assert_eq!(counters.data_dropped, 0, "ExpressPass must not lose data");
}

#[test]
fn unmonitored_network_reports_unmonitored() {
    let (_, _, _, net) = observed_run(61, false, false);
    let h = net.health_report();
    assert!(!h.monitored);
    assert!(h.ok());
    assert_eq!(h.peak_switch_queue_bytes, 0);
}

#[test]
fn undersized_buffer_trips_the_invariant_monitors() {
    // A TCP sender into a 3-MTU switch buffer: guaranteed overflow drops
    // and queue levels above an (artificially tight) 1000-byte bound.
    let topo = Topology::dumbbell(2, G10, Dur::us(2));
    let mut cfg = NetConfig::default().with_seed(67);
    cfg.switch_queue_bytes = 3 * 1538;
    let mut net = Network::new(topo, cfg, cubic_factory());
    net.install_trace_sink(Box::new(RingSink::new(1 << 16)));
    net.install_invariants(InvariantSpec {
        data_queue_bound_bytes: Some(1000),
        zero_data_loss: true,
    });
    for i in 0..2u32 {
        net.add_flow(HostId(i), HostId(2 + i), 1_000_000, SimTime::ZERO);
    }
    net.run_until_done(SimTime::ZERO + Dur::secs(2));
    let h = net.health_report();
    assert!(!h.ok());
    assert!(h.queue_violations > 0, "no queue-bound violations seen");
    assert!(h.loss_violations > 0, "no loss violations seen");
    assert!(h.first_queue_violation.is_some());
    assert!(h.first_loss.is_some());
    assert_eq!(h.loss_violations, net.counters().data_dropped);
    // Violations also surface as trace events.
    let mut sink = net.take_trace_sink().unwrap();
    let ring = sink.as_any().downcast_mut::<RingSink>().unwrap();
    let violations = ring
        .events()
        .filter(|e| e.name() == "invariant_violation")
        .count() as u64;
    assert_eq!(violations, h.queue_violations + h.loss_violations);
    // The health report serializes and flags the failure.
    let j = json::parse(&h.to_json().to_string()).unwrap();
    assert_eq!(j.get("ok").unwrap().as_bool(), Some(false));
}

// --- xpass-repro CLI surface ---------------------------------------------

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_xpass-repro"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn repro_json_record_round_trips() {
    let dir = std::env::temp_dir().join(format!("xpass-repro-json-{}", std::process::id()));
    let out = repro(&["fig12", "--seed", "5", "--json", dir.to_str().unwrap()]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(dir.join("fig12.json")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let j = json::parse(&text).expect("record parses");
    assert_eq!(j.get("schema").unwrap().as_str(), Some("xpass-repro/v1"));
    assert_eq!(j.get("name").unwrap().as_str(), Some("fig12"));
    assert_eq!(j.get("paper_scale").unwrap().as_bool(), Some(false));
    assert_eq!(j.get("seed").unwrap().as_u64(), Some(5));
    // Every experiment now emits a structured payload, never a text blob;
    // fig12's carries its utilization trace and convergence summary.
    let payload = j.get("payload").unwrap();
    assert!(payload.get("text").is_none(), "payload fell back to text");
    assert!(payload.get("trace").is_some());
    assert!(payload.get("converged_at").is_some());
    assert!(String::from_utf8_lossy(&out.stdout).contains("Fig 12"));
}

/// Every usage error exits non-zero and says what was wrong.
#[test]
fn repro_rejects_bad_usage() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("usage");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"schema\": \"nope\"}").unwrap();
    let table: [(&[&str], &[&str]); 13] = [
        (&["--definitely-not-a-flag"], &["usage:"]),
        (&["fig99"], &["unknown experiment 'fig99'", "  fig10 "]),
        (
            &["fig12", "--seed", "x"],
            &["--seed needs an unsigned integer"],
        ),
        (&["fig12", "--json"], &["--json needs an output directory"]),
        // Intervals whose picoseconds overflow the clock are refused, not wrapped.
        (
            &["fig12", "--metrics-interval-ms", "18446744074"],
            &["--metrics-interval-ms needs a sim-time interval in ms"],
        ),
        (
            &["fig12", "--checkpoint-every", "18446744074"],
            &["--checkpoint-every needs a sim-time interval in ms"],
        ),
        (&["fig12", "--jobs", "0"], &["--jobs needs an integer >= 1"]),
        (
            &["fig12", "--budget-secs", "0"],
            &["--budget-secs needs an integer >= 1"],
        ),
        (
            &["fig12", "--scheduler", "fifo"],
            &["--scheduler needs 'heap' or 'calendar'"],
        ),
        (
            &["fig12", "--progress", "0"],
            &["--progress needs a sim-seconds period (> 0)"],
        ),
        (
            &["fig12", "--ingest-rate", "nan"],
            &["--ingest-rate needs arrivals per second (> 0)"],
        ),
        (
            &["run", "/nonexistent.json"],
            &["cannot read scenario file"],
        ),
        (&["run", bad.to_str().unwrap()], &["unsupported schema"]),
    ];
    for (args, fragments) in table {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        let err = String::from_utf8_lossy(&out.stderr);
        for f in fragments {
            assert!(err.contains(f), "{args:?}: no {f:?} in\n{err}");
        }
    }
}

/// A trace event names no experiment, so two tracing experiments cannot
/// share one `--trace` file (the second would truncate the first's trace,
/// and under `--jobs 2` their lines would tear): the command is refused
/// before either runs.
#[test]
fn repro_refuses_one_trace_file_for_two_tracing_experiments() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("two_traces");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.jsonl");
    let scenarios = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/scenarios/");
    let a = format!("{scenarios}fat_tree_shuffle_faults.json");
    let b = format!("{scenarios}parking_lot.json");
    for jobs in ["1", "2"] {
        let out = repro(&[
            "run",
            &a,
            &b,
            "--trace",
            trace.to_str().unwrap(),
            "--jobs",
            jobs,
        ]);
        assert!(
            !out.status.success(),
            "--jobs {jobs}: two traced runs accepted"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--trace takes one tracing experiment"),
            "{err}"
        );
        assert!(err.contains("usage:"), "{err}");
        assert!(out.stdout.is_empty(), "an experiment ran");
        assert!(!trace.exists(), "the trace file was opened");
    }
}

#[test]
fn repro_seed_changes_stochastic_output() {
    let a = repro(&["fig06", "--seed", "1"]);
    let b = repro(&["fig06", "--seed", "1"]);
    let c = repro(&["fig06", "--seed", "2"]);
    assert!(a.status.success() && b.status.success() && c.status.success());
    assert_eq!(a.stdout, b.stdout, "same seed must reproduce exactly");
    assert_ne!(a.stdout, c.stdout, "seed override had no effect");
}
