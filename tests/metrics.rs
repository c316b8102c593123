//! Live-metrics-plane integration tests: metrics on leave simulation
//! results untouched, `xpass-metrics/v1` decode, Prometheus exposition
//! parse-back, live HTTP endpoints, the `--progress` heartbeat, and the
//! health-violation and feedback-update counters. The CLI series fences
//! (metrics off ≡ on, identical series across schedulers, jobs and
//! resume) are `tests/fences.rs`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use xpass::baselines::cubic_factory;
use xpass::expresspass::{xpass_factory, XPassConfig};
use xpass::net::config::NetConfig;
use xpass::net::health::InvariantSpec;
use xpass::net::ids::HostId;
use xpass::net::network::Network;
use xpass::net::topology::Topology;
use xpass::sim::json;
use xpass::sim::metrics::{self, decode_jsonl, parse_exposition, MetricsSpec, Plane};
use xpass::sim::time::{Dur, SimTime};
use xpass::sim::watchdog::WatchdogSpec;

const G10: u64 = 10_000_000_000;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_xpass-repro"))
        .args(args)
        .output()
        .expect("binary runs")
}

// --- in-process: sampling, exposition, counters ---------------------------

/// Run a 4-pair ExpressPass dumbbell with the metrics runtime installed on
/// this thread, `setup` applied before the run, returning the plane and
/// the finished network.
fn metered_run(seed: u64, interval: Dur, setup: impl FnOnce(&mut Network)) -> (Plane, Network) {
    let plane = Plane::new();
    metrics::install(
        MetricsSpec {
            interval,
            ..MetricsSpec::default()
        },
        Some(plane.clone()),
    );
    let topo = Topology::dumbbell(4, G10, Dur::us(2));
    let cfg = NetConfig::expresspass().with_seed(seed);
    let mut net = Network::new(topo, cfg, xpass_factory(XPassConfig::aggressive()));
    for i in 0..4u32 {
        net.add_flow(HostId(i), HostId(4 + i), 1_000_000, SimTime::ZERO);
    }
    setup(&mut net);
    net.run_until_done(SimTime::ZERO + Dur::secs(2));
    metrics::clear();
    (plane, net)
}

#[test]
fn metrics_do_not_perturb_the_run() {
    let plain = {
        let topo = Topology::dumbbell(4, G10, Dur::us(2));
        let cfg = NetConfig::expresspass().with_seed(71);
        let mut net = Network::new(topo, cfg, xpass_factory(XPassConfig::aggressive()));
        for i in 0..4u32 {
            net.add_flow(HostId(i), HostId(4 + i), 1_000_000, SimTime::ZERO);
        }
        net.run_until_done(SimTime::ZERO + Dur::secs(2));
        (net.counters().clone(), net.flow_records())
    };
    let (_, net) = metered_run(71, Dur::us(50), |_| {});
    assert_eq!(plain.0, *net.counters(), "metrics changed the counters");
    assert_eq!(plain.1, net.flow_records(), "metrics changed flow records");
}

#[test]
fn exposition_parses_back_and_matches_the_run() {
    const BUDGET: u64 = 1 << 40;
    let (plane, net) = metered_run(73, Dur::us(50), |net| {
        net.install_ledger();
        net.install_watchdog(WatchdogSpec {
            max_events: Some(BUDGET),
            ..WatchdogSpec::default()
        });
    });
    let text = plane.render_metrics();
    let samples = parse_exposition(&text).expect("exposition parses");
    assert!(!samples.is_empty());
    let get = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing from exposition"))
            .value
    };
    // The final scrape matches the end-of-run state.
    let c = net.counters();
    assert_eq!(get("xpass_credits_sent_total") as u64, c.credits_sent);
    assert_eq!(get("xpass_credits_wasted_total") as u64, c.credits_wasted);
    assert_eq!(get("xpass_data_dropped_total") as u64, c.data_dropped);
    assert_eq!(get("xpass_flows_completed") as u64, 4);
    assert_eq!(get("xpass_flows_active") as u64, 0);
    assert_eq!(get("xpass_fct_seconds_count") as u64, 4);
    assert_eq!(get("xpass_health_violations_total") as u64, 0);
    assert!(
        get("xpass_feedback_updates_total") > 0.0,
        "ExpressPass must count Algorithm-1 feedback updates"
    );
    let events = net.engine_report().events_processed;
    assert_eq!(get("xpass_engine_events_total") as u64, events);
    // Credit drops are counted once, by the network's counters.
    assert!(net.total_credit_drops() > 0, "the run must drop credits");
    assert_eq!(
        get("xpass_credits_dropped_total") as u64,
        net.total_credit_drops()
    );
    // The monitors' columns: one gauge per ledger account, each equal to
    // the report's packet count, and the watchdog's remaining budget.
    let lr = net.ledger_report();
    let accounts = [
        ("emitted", lr.emitted),
        ("delivered", lr.delivered),
        ("queue_dropped", lr.queue_dropped),
        ("fault_lost", lr.fault_lost),
        ("corrupted", lr.corrupted),
        ("in_flight", lr.in_flight),
        ("queued", lr.queued),
        ("stashed", lr.stashed),
    ];
    let fates: Vec<_> = samples
        .iter()
        .filter(|s| s.name == "xpass_ledger_pkts")
        .collect();
    assert_eq!(fates.len(), accounts.len());
    for (fate, entry) in accounts {
        let s = (fates.iter())
            .find(|s| s.labels.iter().any(|(k, v)| k == "fate" && v == fate))
            .unwrap_or_else(|| panic!("no xpass_ledger_pkts{{fate={fate:?}}}"));
        assert_eq!(s.value as u64, entry.pkts, "fate {fate}");
    }
    assert!(lr.emitted.pkts > 0 && lr.balanced(), "{lr:?}");
    assert_eq!(
        get("xpass_watchdog_headroom_events") as u64,
        BUDGET - events
    );
    // Every sample carries the job/net identity labels.
    for s in &samples {
        assert_eq!(
            s.labels
                .iter()
                .find(|(k, _)| k == "job")
                .map(|(_, v)| v.as_str()),
            Some("main")
        );
        assert!(s.labels.iter().any(|(k, _)| k == "net"), "{}", s.name);
    }
}

#[test]
fn series_rings_decode_and_are_well_formed() {
    let interval = Dur::us(50);
    let (plane, net) = metered_run(79, interval, |_| {});
    let jsonl = plane.jsonl_for_jobs(&["main".to_string()]);
    let dumps = decode_jsonl(&jsonl).expect("series decode");
    assert_eq!(dumps.len(), 1);
    let d = &dumps[0];
    assert_eq!(d.job, "main");
    assert_eq!(d.interval_ps, interval.as_ps());
    assert!(d.keys.iter().any(|k| k == "xpass_sim_seconds"));
    assert!(d
        .keys
        .iter()
        .any(|k| k.starts_with("xpass_link_utilization")));
    assert!(d.ticks.len() > 10, "only {} ticks sampled", d.ticks.len());
    for w in d.ticks.windows(2) {
        assert_eq!(
            w[1].0 - w[0].0,
            interval.as_ps(),
            "ticks must be interval-spaced"
        );
    }
    for (_, row) in &d.ticks {
        assert_eq!(row.len(), d.keys.len(), "row width must match the keys");
        assert!(row.iter().all(|v| v.is_finite()));
    }
    // Utilization is a ratio; flows gauges are consistent with the run.
    let col = |name: &str| d.keys.iter().position(|k| k == name).unwrap();
    let last = &d.ticks.last().unwrap().1;
    assert_eq!(last[col("xpass_flows_total")], 4.0);
    assert!((0.0..=4.0).contains(&last[col("xpass_flows_active")]));
    for (_, row) in &d.ticks {
        for (i, k) in d.keys.iter().enumerate() {
            if k.starts_with("xpass_link_utilization") {
                assert!(
                    (0.0..=1.05).contains(&row[i]),
                    "{k} out of range: {}",
                    row[i]
                );
            }
        }
    }
    let _ = net;
}

#[test]
fn health_violations_surface_on_the_counter() {
    // The telemetry suite's undersized-buffer CUBIC setup: guaranteed
    // queue-bound and loss violations; the live counter must see each one.
    let plane = Plane::new();
    metrics::install(MetricsSpec::default(), Some(plane.clone()));
    let topo = Topology::dumbbell(2, G10, Dur::us(2));
    let mut cfg = NetConfig::default().with_seed(67);
    cfg.switch_queue_bytes = 3 * 1538;
    let mut net = Network::new(topo, cfg, cubic_factory());
    net.install_invariants(InvariantSpec {
        data_queue_bound_bytes: Some(1000),
        zero_data_loss: true,
    });
    for i in 0..2u32 {
        net.add_flow(HostId(i), HostId(2 + i), 1_000_000, SimTime::ZERO);
    }
    net.run_until_done(SimTime::ZERO + Dur::secs(2));
    metrics::clear();
    let h = net.health_report();
    assert!(h.queue_violations > 0 && h.loss_violations > 0);
    let samples = parse_exposition(&plane.render_metrics()).unwrap();
    let counted = samples
        .iter()
        .find(|s| s.name == "xpass_health_violations_total")
        .expect("violation counter exposed")
        .value as u64;
    assert_eq!(counted, h.queue_violations + h.loss_violations);
}

// --- CLI: heartbeat, HTTP ------------------------------------------------

#[test]
fn progress_heartbeat_prints_on_stderr() {
    let out = repro(&["fig10", "--seed", "9", "--progress", "0.0005"]);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("xpass-repro: [fig10#net0] t="),
        "no heartbeat lines:\n{err}"
    );
    let line = err
        .lines()
        .find(|l| l.contains("[fig10#net0]"))
        .unwrap()
        .to_string();
    assert!(line.contains("events="), "{line}");
    assert!(line.contains("flows"), "{line}");
    let silent = repro(&["fig10", "--seed", "9"]);
    assert!(
        !String::from_utf8_lossy(&silent.stderr).contains("[fig10#net0]"),
        "heartbeat must be off by default"
    );
}

/// Minimal HTTP/1.0-style GET over a std TcpStream (the server answers
/// every request with `Connection: close`, so read-to-end is the framing).
fn http_get(addr: &str, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    write!(s, "GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n").unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("read response");
    let status: u16 = buf
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status code");
    let body = buf
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn serve_exposes_live_endpoints_and_final_scrape_matches() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_xpass-repro"))
        .args(["serve", "fig10", "--seed", "9", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let stderr = child.stderr.take().unwrap();
    let mut lines = BufReader::new(stderr).lines();
    let mut addr = None;
    // Wait for the bind line, then for run completion (the process parks).
    for line in &mut lines {
        let line = line.expect("stderr line");
        if let Some(rest) = line.strip_prefix("xpass-repro: serving live metrics on http://") {
            addr = Some(rest.trim_end_matches("/metrics").to_string());
        }
        if line.contains("runs complete; still serving") {
            break;
        }
    }
    let addr = addr.expect("server never reported its address");

    let (code, text) = http_get(&addr, "/metrics");
    assert_eq!(code, 200);
    let samples = parse_exposition(&text).expect("live exposition parses");
    // fig10 simulates many networks; pin assertions to net 0.
    let get = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name && s.labels.iter().any(|(k, v)| k == "net" && v == "0"))
            .unwrap_or_else(|| panic!("{name} missing for net 0"))
            .value
    };
    assert!(get("xpass_engine_events_total") > 0.0);
    assert!(samples
        .iter()
        .all(|s| s.labels.iter().any(|(k, v)| k == "job" && v == "fig10")));

    // The final scrape agrees with the end-of-run reports.
    let (code, body) = http_get(&addr, "/progress");
    assert_eq!(code, 200);
    let j = json::parse(&body).expect("/progress is JSON");
    let p = j.get("jobs").unwrap().get("fig10#net0").expect("progress");
    for (gauge, field) in [
        ("xpass_flows_total", "flows_total"),
        ("xpass_flows_active", "flows_active"),
        ("xpass_flows_completed", "flows_completed"),
        ("xpass_flows_aborted", "flows_aborted"),
    ] {
        assert_eq!(
            get(gauge) as u64,
            p.get(field).unwrap().as_u64().unwrap(),
            "{gauge} disagrees with /progress {field}"
        );
    }
    let sim_secs = p.get("sim_secs").unwrap().as_f64().unwrap();
    assert!((get("xpass_sim_seconds") - sim_secs).abs() < 1e-12);

    let (code, body) = http_get(&addr, "/engine");
    assert_eq!(code, 200);
    let j = json::parse(&body).expect("/engine is JSON");
    let eng = j.get("jobs").unwrap().get("fig10#net0").expect("engine");
    assert_eq!(
        get("xpass_engine_events_total") as u64,
        eng.get("events_processed").unwrap().as_u64().unwrap(),
        "event counter disagrees with /engine"
    );

    let (code, body) = http_get(&addr, "/health");
    assert_eq!(code, 200);
    json::parse(&body).expect("/health is JSON");

    let (code, _) = http_get(&addr, "/definitely-not-here");
    assert_eq!(code, 404);

    child.kill().expect("kill serve");
    let _ = child.wait();
}
