//! Live-service fences: streaming ingestion record/replay determinism,
//! SIGKILL auto-resume, admission-control shedding, slow WebSocket
//! consumers, and crash-loop health degradation — all driven through the
//! real `xpass-repro` binary over real sockets and signals.
//!
//! The load-bearing guarantee: a live `serve --ingest` session and an
//! offline `--ingest-replay` of its journal produce **byte-identical**
//! records and metrics series, across both event schedulers, across a
//! `kill -9` mid-session, and regardless of anything a WebSocket client
//! does.

#![cfg(unix)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Per-test scratch dir under the system temp dir, wiped on entry.
fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("xpass-service-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

/// Write a single-series `$stream` scenario and return its path.
fn stream_scenario(dir: &Path, name: &str, cap_ms: u64, link_bps: u64) -> PathBuf {
    let path = dir.join(format!("{name}.json"));
    std::fs::write(
        &path,
        format!(
            r#"{{
  "schema": "xpass-scenario/v1",
  "name": "{name}",
  "title": "service fence: {name}",
  "seed": 1,
  "link_bps": {link_bps},
  "topology": {{"kind": "fat_tree", "k": 4, "prop_us": 2}},
  "series": [{{"label": "ExpressPass", "scheme": {{"kind": "xpass"}}}}],
  "workload": {{"$stream": true}},
  "measure": {{"kind": "fct", "cap_ms": {cap_ms}}}
}}
"#
        ),
    )
    .expect("write scenario");
    path
}

/// A spawned `xpass-repro`, killed and reaped when dropped, so that a
/// failing assert never leaves a daemon running past its test.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl std::ops::Deref for Daemon {
    type Target = Child;
    fn deref(&self) -> &Child {
        &self.0
    }
}

impl std::ops::DerefMut for Daemon {
    fn deref_mut(&mut self) -> &mut Child {
        &mut self.0
    }
}

/// Spawn `xpass-repro` with stderr redirected to `log` (a file, not a
/// pipe — the service must never block on a full stderr pipe).
fn spawn_repro(args: &[&str], log: &Path, env: &[(&str, &str)]) -> Daemon {
    let logfile = std::fs::File::create(log).expect("create log file");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_xpass-repro"));
    cmd.args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::from(logfile));
    for (k, v) in env {
        cmd.env(k, v);
    }
    Daemon(cmd.spawn().expect("spawn xpass-repro"))
}

/// Poll `log` until `needle` appears (returning the full contents) or
/// panic after `secs`.
fn wait_in_log(log: &Path, needle: &str, secs: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        let text = std::fs::read_to_string(log).unwrap_or_default();
        if text.contains(needle) {
            return text;
        }
        assert!(
            Instant::now() < deadline,
            "'{needle}' never appeared in {}; log so far:\n{text}",
            log.display()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The `ip:port` the service bound, from its stderr bind line.
fn served_addr(log: &Path) -> String {
    let text = wait_in_log(log, "serving live metrics on http://", 30);
    let line = text
        .lines()
        .find(|l| l.contains("serving live metrics on http://"))
        .unwrap();
    let rest = line.split("http://").nth(1).unwrap();
    rest.trim_end_matches("/metrics").trim().to_string()
}

/// Minimal HTTP/1.1 request over a fresh connection; returns
/// `(status, full response head, body)`.
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).expect("send request");
    let mut buf = String::new();
    let _ = s.read_to_string(&mut buf);
    let status: u16 = buf
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("no status line in response: {buf:?}"));
    let (head, payload) = buf.split_once("\r\n\r\n").unwrap_or((buf.as_str(), ""));
    (status, head.to_string(), payload.to_string())
}

fn post_arrival(addr: &str, src: u32, dst: u32, bytes: u64) -> (u16, String, String) {
    http(
        addr,
        "POST",
        "/ingest",
        &format!(r#"{{"src":{src},"dst":{dst},"size_bytes":{bytes}}}"#),
    )
}

fn send_signal(child: &Child, sig: &str) {
    let ok = Command::new("kill")
        .args([sig, &child.id().to_string()])
        .status()
        .expect("run kill")
        .success();
    assert!(ok, "kill {sig} failed");
}

/// Wait for the child to exit, up to `secs`.
fn wait_exit(child: &mut Child, secs: u64) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(st) = child.try_wait().expect("try_wait") {
            return st;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("service did not exit within {secs}s");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Run an offline `--ingest-replay` of `journal` and return the record
/// and metrics-series bytes.
fn replay(
    scenario: &Path,
    journal: &Path,
    dir: &Path,
    tag: &str,
    scheduler: &str,
) -> (Vec<u8>, Vec<u8>) {
    let out = dir.join(format!("replay-{tag}"));
    let metrics = dir.join(format!("replay-{tag}.metrics.jsonl"));
    let status = Command::new(env!("CARGO_BIN_EXE_xpass-repro"))
        .args([
            "run",
            scenario.to_str().unwrap(),
            "--ingest-replay",
            journal.to_str().unwrap(),
            "--scheduler",
            scheduler,
            "--json",
            out.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run replay");
    assert!(status.success(), "replay ({tag}) failed");
    let name = scenario.file_stem().unwrap().to_str().unwrap();
    let record = std::fs::read(out.join(format!("{name}.json"))).expect("replay record");
    let series = std::fs::read(&metrics).expect("replay series");
    (record, series)
}

// ---------------------------------------------------------------------------
// Fence 1: live session == offline replay, byte for byte, both schedulers.
// ---------------------------------------------------------------------------

#[test]
fn live_ingest_and_journal_replay_are_byte_identical() {
    let dir = scratch("ident");
    let scn = stream_scenario(&dir, "svc_ident", 50, 10_000_000_000);
    let journal = dir.join("ingest.jsonl");
    let out = dir.join("live");
    let metrics = dir.join("live.metrics.jsonl");
    let log = dir.join("serve.log");
    let mut child = spawn_repro(
        &[
            "serve",
            "run",
            scn.to_str().unwrap(),
            "--ingest",
            journal.to_str().unwrap(),
            "--json",
            out.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ],
        &log,
        &[],
    );
    let addr = served_addr(&log);
    for (src, dst, bytes) in [(0, 5, 200_000), (1, 9, 80_000), (12, 3, 50_000)] {
        let (code, _, body) = post_arrival(&addr, src, dst, bytes);
        assert_eq!(code, 200, "ingest rejected: {body}");
        std::thread::sleep(Duration::from_millis(120));
    }
    wait_in_log(&log, "(group 3)", 30);
    send_signal(&child, "-TERM");
    let st = wait_exit(&mut child, 60);
    assert!(st.success(), "graceful shutdown must exit 0, got {st:?}");
    let text = std::fs::read_to_string(&log).unwrap();
    assert!(text.contains("journal sealed"), "journal was not sealed");

    let live_record = std::fs::read(out.join("svc_ident.json")).expect("live record");
    let live_series = std::fs::read(&metrics).expect("live series");
    for sched in ["calendar", "heap"] {
        let (r, s) = replay(&scn, &journal, &dir, sched, sched);
        assert_eq!(
            live_record, r,
            "record differs from {sched}-scheduler replay"
        );
        assert_eq!(
            live_series, s,
            "metrics series differs from {sched}-scheduler replay"
        );
    }
}

// ---------------------------------------------------------------------------
// Fence 2: kill -9 mid-ingest; restart resumes and converges to the same
// bytes as an uninterrupted replay.
// ---------------------------------------------------------------------------

#[test]
fn sigkill_mid_ingest_auto_resumes_and_converges() {
    let dir = scratch("sigkill");
    let scn = stream_scenario(&dir, "svc_kill", 50, 10_000_000_000);
    let journal = dir.join("ingest.jsonl");
    let ck = dir.join("ck");
    let out = dir.join("out");
    let args = [
        "serve",
        "run",
        scn.to_str().unwrap(),
        "--ingest",
        journal.to_str().unwrap(),
        "--checkpoint-every",
        "1",
        "--checkpoint-dir",
        ck.to_str().unwrap(),
        "--json",
        out.to_str().unwrap(),
    ];
    let log1 = dir.join("serve1.log");
    let mut child = spawn_repro(&args, &log1, &[]);
    let addr = served_addr(&log1);
    for i in 1..=3u32 {
        let (code, _, _) = post_arrival(&addr, i, 0, 150_000);
        assert_eq!(code, 200);
        std::thread::sleep(Duration::from_millis(120));
    }
    wait_in_log(&log1, "(group 3)", 30);
    child.kill().expect("SIGKILL the service"); // kill(2) SIGKILL, no cleanup
    let _ = child.wait();
    // The journal survived the kill: header + 3 groups, no seal.
    let j = std::fs::read_to_string(&journal).expect("journal survives kill -9");
    assert_eq!(j.lines().count(), 4, "unexpected journal: {j}");
    assert!(!j.contains("end_t_ps"), "killed journal must not be sealed");

    // Restart the identical command: it must replay the journal (arming
    // the newest checkpoint if one was written), then continue live.
    let log2 = dir.join("serve2.log");
    let mut child = spawn_repro(&args, &log2, &[]);
    let text = wait_in_log(&log2, "replayed 3 group(s)", 30);
    assert!(
        text.contains("arming resume from checkpoint"),
        "restart did not arm the snapshot:\n{text}"
    );
    let addr = served_addr(&log2);
    let (code, _, _) = post_arrival(&addr, 4, 0, 150_000);
    assert_eq!(code, 200);
    wait_in_log(&log2, "(group 4)", 30);
    send_signal(&child, "-TERM");
    let st = wait_exit(&mut child, 60);
    assert!(st.success(), "restarted service must exit 0, got {st:?}");

    // The resumed run's record matches a from-scratch offline replay.
    let resumed = std::fs::read(out.join("svc_kill.json")).expect("resumed record");
    let (fresh, _) = replay(&scn, &journal, &dir, "fresh", "calendar");
    assert_eq!(resumed, fresh, "resumed live run diverged from replay");
}

// ---------------------------------------------------------------------------
// Fence 3: flood past the token bucket => 429 + Retry-After; the service
// keeps running and accepted work is unaffected.
// ---------------------------------------------------------------------------

#[test]
fn ingest_flood_is_shed_with_429() {
    let dir = scratch("flood");
    let scn = stream_scenario(&dir, "svc_flood", 50, 10_000_000_000);
    let journal = dir.join("ingest.jsonl");
    let log = dir.join("serve.log");
    let mut child = spawn_repro(
        &[
            "serve",
            "run",
            scn.to_str().unwrap(),
            "--ingest",
            journal.to_str().unwrap(),
            "--ingest-rate",
            "1",
        ],
        &log,
        &[],
    );
    let addr = served_addr(&log);
    // Burst capacity is one arrival at rate 1/s: the first offer lands,
    // an immediate flood of follow-ups is shed.
    let (code, _, _) = post_arrival(&addr, 0, 1, 1_000);
    assert_eq!(code, 200);
    let mut shed = 0;
    for _ in 0..5 {
        let (code, head, body) = post_arrival(&addr, 0, 1, 1_000);
        if code == 429 {
            assert!(
                head.to_ascii_lowercase().contains("retry-after:"),
                "429 without Retry-After:\n{head}"
            );
            assert!(body.contains("rate limited") || body.contains("queue full"));
            shed += 1;
        }
    }
    assert!(shed >= 4, "flood was not shed (only {shed} of 5 got 429)");
    // The service is still healthy and still ingesting once tokens refill.
    let (code, _, _) = http(&addr, "GET", "/health", "");
    assert_eq!(code, 200);
    std::thread::sleep(Duration::from_millis(1100));
    let (code, _, _) = post_arrival(&addr, 2, 3, 1_000);
    assert_eq!(code, 200, "token bucket never refilled");
    send_signal(&child, "-TERM");
    let st = wait_exit(&mut child, 60);
    assert!(st.success());
    // Only the accepted arrivals were journaled.
    let j = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(
        j.lines().filter(|l| l.contains("\"src\"")).count(),
        2,
        "shed arrivals leaked into the journal: {j}"
    );
}

// ---------------------------------------------------------------------------
// Fence 4: a WebSocket client that never reads is disconnected as a slow
// consumer while the simulation finishes untouched.
// ---------------------------------------------------------------------------

#[test]
fn slow_ws_consumer_is_disconnected_without_perturbing_the_run() {
    let dir = scratch("slowws");
    // A slow link + one large flow: >6 seconds of simulated traffic at a
    // modest event rate, pushing thousands of feed lines — far more than
    // kernel socket buffers absorb for a client that never reads. The
    // disconnect needs those buffers full *and* a write stalled for
    // 250 ms, all before the run ends and the daemon exits: measured on
    // the debug build, the stall is declared ~0.65 s after SIGTERM and a
    // 400 MB flow left the daemon 0.9 s (1.0 s before idle-port wakes
    // stopped being queued) — too little under a loaded test runner —
    // where this one leaves it 1.6 s.
    let scn = stream_scenario(&dir, "svc_slowws", 9000, 1_000_000_000);
    let journal = dir.join("ingest.jsonl");
    let out = dir.join("out");
    let log = dir.join("serve.log");
    let mut child = spawn_repro(
        &[
            "serve",
            "run",
            scn.to_str().unwrap(),
            "--ingest",
            journal.to_str().unwrap(),
            "--json",
            out.to_str().unwrap(),
        ],
        &log,
        &[],
    );
    let addr = served_addr(&log);
    // Handshake a WS client, then never read from it again.
    let mut ws = TcpStream::connect(&addr).expect("connect ws");
    ws.write_all(
        b"GET /ws HTTP/1.1\r\nHost: t\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n\
          Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\nSec-WebSocket-Version: 13\r\n\r\n",
    )
    .unwrap();
    ws.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut hello = [0u8; 12]; // "HTTP/1.1 101"
    ws.read_exact(&mut hello).expect("read upgrade status");
    assert!(hello.ends_with(b"101"), "no 101: {hello:?}");

    let (code, _, _) = post_arrival(&addr, 0, 5, 800_000_000);
    assert_eq!(code, 200);
    wait_in_log(&log, "(group 1)", 30);
    send_signal(&child, "-TERM");
    let st = wait_exit(&mut child, 180);
    assert!(st.success(), "run failed under a stuck WS client: {st:?}");
    let text = std::fs::read_to_string(&log).unwrap();
    assert!(
        text.contains("disconnecting slow consumer"),
        "slow consumer was never disconnected:\n{text}"
    );
    // The simulation was untouched: the flow ran to completion and the
    // record parses with zero unfinished flows.
    let record = std::fs::read_to_string(out.join("svc_slowws.json")).expect("record");
    assert!(record.contains("\"unfinished\":0"), "flow never finished");
    assert!(record.contains("\"admitted\":1"));
    drop(ws);
}

// ---------------------------------------------------------------------------
// Fence 5: a deterministic crash loop degrades /health to 503 and retry
// exhaustion exits non-zero.
// ---------------------------------------------------------------------------

#[test]
fn crash_loop_degrades_health_and_exits_nonzero() {
    let dir = scratch("crashloop");
    let scn = stream_scenario(&dir, "svc_crash", 50, 10_000_000_000);
    let journal = dir.join("ingest.jsonl");
    let log = dir.join("serve.log");
    let mut child = spawn_repro(
        &[
            "serve",
            "run",
            scn.to_str().unwrap(),
            "--ingest",
            journal.to_str().unwrap(),
            "--retries",
            "2",
        ],
        &log,
        &[("XPASS_CRASH_AT_GROUP", "1")],
    );
    let addr = served_addr(&log);
    let (code, _, _) = post_arrival(&addr, 0, 1, 10_000);
    assert_eq!(code, 200);
    // Initial attempt + 2 retries all hit the injected crash; the retry
    // loop replays the journal, so every attempt dies at group 1.
    let text = wait_in_log(&log, "experiment(s) failed", 60);
    assert!(
        text.matches("injected crash at ingest group 1").count() >= 3,
        "expected 3 crashing attempts:\n{text}"
    );
    // /health now answers 503 with the degradation reason.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (code, _, body) = http(&addr, "GET", "/health", "");
        if code == 503 {
            assert!(body.contains("degraded"), "503 without a reason: {body}");
            break;
        }
        assert!(Instant::now() < deadline, "/health never degraded");
        std::thread::sleep(Duration::from_millis(100));
    }
    send_signal(&child, "-TERM");
    let st = wait_exit(&mut child, 60);
    assert!(
        !st.success(),
        "retry exhaustion must exit non-zero, got {st:?}"
    );
}

// ---------------------------------------------------------------------------
// Fence 6: a restart under other metering ignores the checkpoint (a
// network restores only under the metering it was snapshotted with) and
// replays the journal from zero, to the bytes of a fresh run.
// ---------------------------------------------------------------------------

#[test]
fn restart_under_other_metering_replays_from_zero() {
    let dir = scratch("remeter");
    let scn = stream_scenario(&dir, "svc_remeter", 50, 10_000_000_000);
    let journal = dir.join("ingest.jsonl");
    std::fs::write(&journal, killed_journal("svc_remeter", 5)).expect("write journal");
    let ck = dir.join("ck");
    let out = dir.join("out");
    let metrics = dir.join("live.metrics.jsonl");
    let serve = |interval: &str, extra: &[&str], log: &Path| {
        let mut args = vec![
            "serve",
            "run",
            scn.to_str().unwrap(),
            "--ingest",
            journal.to_str().unwrap(),
            "--checkpoint-every",
            "1",
            "--checkpoint-dir",
            ck.to_str().unwrap(),
            "--metrics-interval-ms",
            interval,
        ];
        args.extend_from_slice(extra);
        spawn_repro(&args, log, &[])
    };
    let log1 = dir.join("serve1.log");
    let mut child = serve("1", &[], &log1);
    wait_in_log(&log1, "replayed 20 group(s)", 30);
    child.kill().expect("SIGKILL the service");
    let _ = child.wait();
    let kept = std::fs::read_dir(ck.join("scope-0").join("net0")).map_or(0, |d| d.count());
    assert!(kept > 0, "the 1 ms session wrote no checkpoint");

    let log2 = dir.join("serve2.log");
    let extra = [
        "--metrics",
        metrics.to_str().unwrap(),
        "--json",
        out.to_str().unwrap(),
    ];
    let mut child = serve("2", &extra, &log2);
    let text = wait_in_log(&log2, "replayed 20 group(s)", 30);
    send_signal(&child, "-TERM");
    let st = wait_exit(&mut child, 60);
    assert!(
        text.contains("ignoring checkpoint") && !text.contains("arming resume"),
        "restart armed a snapshot taken under other metering:\n{text}"
    );
    assert!(st.success(), "restarted service must exit 0, got {st:?}");

    let fresh = dir.join("fresh");
    let fresh_series = dir.join("fresh.metrics.jsonl");
    let status = Command::new(env!("CARGO_BIN_EXE_xpass-repro"))
        .args([
            "run",
            scn.to_str().unwrap(),
            "--ingest-replay",
            journal.to_str().unwrap(),
            "--metrics-interval-ms",
            "2",
            "--json",
            fresh.to_str().unwrap(),
            "--metrics",
            fresh_series.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run replay");
    assert!(status.success(), "fresh 2 ms replay failed");
    let series = std::fs::read(&metrics).expect("restarted series");
    assert_eq!(
        series,
        std::fs::read(&fresh_series).expect("fresh series"),
        "restarted series differs from a fresh 2 ms run"
    );
    assert_eq!(
        std::fs::read(out.join("svc_remeter.json")).expect("restarted record"),
        std::fs::read(fresh.join("svc_remeter.json")).expect("fresh record"),
        "restarted record differs from a fresh 2 ms run"
    );
}

/// A killed session's journal: a header and 20 groups 1 ms apart, one
/// arrival each, `src → (src + shift) % 16` with `src = k % 16`.
fn killed_journal(job: &str, shift: u64) -> String {
    forked_journal(job, 0, shift)
}

/// [`killed_journal`] with `shift = 5` for groups `1..=common`, then
/// `shift` for the rest.
fn forked_journal(job: &str, common: u64, shift: u64) -> String {
    let mut j = format!("{{\"schema\":\"xpass-ingest/v1\",\"job\":\"{job}\"}}\n");
    for k in 1..=20u64 {
        let shift = if k <= common { 5 } else { shift };
        j.push_str(&format!(
            "{{\"t_ps\":{},\"src\":{},\"dst\":{},\"size_bytes\":100000}}\n",
            k * 1_000_000_000,
            k % 16,
            (k + shift) % 16
        ));
    }
    j
}

// ---------------------------------------------------------------------------
// Fence 6b: a restart over another session's checkpoints ignores them (the
// snapshot's flows are that session's) and replays its own journal from
// zero, to the bytes of a fresh run — no crash, no retry.
// ---------------------------------------------------------------------------

#[test]
fn restart_over_another_sessions_checkpoint_replays_from_zero() {
    let dir = scratch("rejournal");
    let scn = stream_scenario(&dir, "svc_rejournal", 50, 10_000_000_000);
    let ck = dir.join("ck");
    let serve = |journal: &Path, extra: &[&str], log: &Path| {
        let mut args = vec![
            "serve",
            "run",
            scn.to_str().unwrap(),
            "--ingest",
            journal.to_str().unwrap(),
            "--checkpoint-every",
            "1",
            "--checkpoint-dir",
            ck.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        spawn_repro(&args, log, &[])
    };
    let first = dir.join("first.jsonl");
    std::fs::write(&first, killed_journal("svc_rejournal", 5)).expect("write journal");
    let log1 = dir.join("serve1.log");
    let mut child = serve(&first, &[], &log1);
    wait_in_log(&log1, "replayed 20 group(s)", 30);
    child.kill().expect("SIGKILL the service");
    let _ = child.wait();
    let kept = std::fs::read_dir(ck.join("scope-0").join("net0")).map_or(0, |d| d.count());
    assert!(kept > 0, "the first session wrote no checkpoint");

    // A second session, its own journal, the first one's checkpoints. Its
    // first ten groups are the first session's: the snapshot holds later
    // ones, which differ.
    let second = dir.join("second.jsonl");
    let forked = forked_journal("svc_rejournal", 10, 7);
    std::fs::write(&second, forked).expect("write journal");
    let out = dir.join("out");
    let log2 = dir.join("serve2.log");
    let mut child = serve(&second, &["--json", out.to_str().unwrap()], &log2);
    let text = wait_in_log(&log2, "replayed 20 group(s)", 30);
    send_signal(&child, "-TERM");
    let st = wait_exit(&mut child, 60);
    let text = std::fs::read_to_string(&log2).unwrap_or(text);
    assert!(
        text.contains("ignoring checkpoint") && !text.contains("arming resume"),
        "restart armed another session's snapshot:\n{text}"
    );
    assert!(
        !text.contains("panicked") && !text.contains("crashed and was resumed"),
        "restart crashed:\n{text}"
    );
    assert!(st.success(), "restarted service must exit 0, got {st:?}");

    let (fresh, _) = replay(&scn, &second, &dir, "fresh", "calendar");
    assert_eq!(
        std::fs::read(out.join("svc_rejournal.json")).expect("restarted record"),
        fresh,
        "restarted record differs from a fresh replay"
    );
}

// ---------------------------------------------------------------------------
// Fence 6c: an offline replay of a sealed journal over its session's
// checkpoints ignores the shutdown snapshot — taken after the last group
// was admitted, it would re-enter that group's run call and admit the
// group a second time — and replays from zero, to a fresh replay's bytes.
// ---------------------------------------------------------------------------

#[test]
fn replay_over_a_shutdown_checkpoint_admits_each_group_once() {
    let dir = scratch("sealed");
    let scn = stream_scenario(&dir, "svc_sealed", 50, 10_000_000_000);
    let journal = dir.join("ingest.jsonl");
    let ck = dir.join("ck");
    let ckpt = [
        "--checkpoint-every",
        "1",
        "--checkpoint-dir",
        ck.to_str().unwrap(),
    ];
    let mut args = vec![
        "serve",
        "run",
        scn.to_str().unwrap(),
        "--ingest",
        journal.to_str().unwrap(),
    ];
    args.extend_from_slice(&ckpt);
    let log1 = dir.join("serve.log");
    let mut child = spawn_repro(&args, &log1, &[]);
    let addr = served_addr(&log1);
    for i in 1..=3u32 {
        let (code, _, _) = post_arrival(&addr, i, 0, 150_000);
        assert_eq!(code, 200);
        std::thread::sleep(Duration::from_millis(120));
    }
    wait_in_log(&log1, "(group 3)", 30);
    send_signal(&child, "-TERM");
    assert!(wait_exit(&mut child, 60).success(), "serve must exit 0");

    let out = dir.join("out");
    let metrics = dir.join("again.metrics.jsonl");
    let mut args = vec![
        "run",
        scn.to_str().unwrap(),
        "--ingest-replay",
        journal.to_str().unwrap(),
        "--json",
        out.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ];
    args.extend_from_slice(&ckpt);
    let log2 = dir.join("again.log");
    let mut child = spawn_repro(&args, &log2, &[]);
    assert!(wait_exit(&mut child, 60).success(), "replay must exit 0");
    let text = std::fs::read_to_string(&log2).unwrap();
    assert!(
        text.contains("ignoring checkpoint") && !text.contains("arming resume"),
        "the replay armed the shutdown snapshot:\n{text}"
    );
    let (fresh, _) = replay(&scn, &journal, &dir, "fresh", "calendar");
    assert_eq!(
        std::fs::read(out.join("svc_sealed.json")).expect("replayed record"),
        fresh,
        "replay over the checkpoints differs from a fresh replay"
    );
}

// ---------------------------------------------------------------------------
// Fence 7: a refused `--resume` ends a serve before it serves.
// ---------------------------------------------------------------------------

#[test]
fn serve_with_a_corrupt_resume_exits_1_without_serving() {
    let dir = scratch("badresume");
    let snap = dir.join("corrupt.snap");
    std::fs::write(&snap, b"xpass-snap: not a snapshot").expect("write snapshot");
    let log = dir.join("serve.log");
    let mut child = spawn_repro(
        &["serve", "fig10", "--resume", snap.to_str().unwrap()],
        &log,
        &[],
    );
    let st = wait_exit(&mut child, 30);
    let text = std::fs::read_to_string(&log).unwrap();
    assert_eq!(st.code(), Some(1), "{text}");
    assert!(text.contains("cannot resume from"), "{text}");
    assert!(!text.contains("still serving"), "{text}");
}

// ---------------------------------------------------------------------------
// Fence 8: a shutdown before any arrival leaves no snapshot a restart
// would refuse — which, being the newest, would hide every valid one.
// ---------------------------------------------------------------------------

#[test]
fn shutdown_before_any_arrival_leaves_no_unloadable_checkpoint() {
    let dir = scratch("earlyterm");
    let scn = stream_scenario(&dir, "svc_early", 50, 10_000_000_000);
    let ck = dir.join("ck");
    let serve = |journal: &str, log: &Path| {
        let journal = dir.join(journal);
        let args = [
            "serve",
            "run",
            scn.to_str().unwrap(),
            "--ingest",
            journal.to_str().unwrap(),
            "--checkpoint-every",
            "1",
            "--checkpoint-dir",
            ck.to_str().unwrap(),
        ];
        spawn_repro(&args, log, &[])
    };
    let log1 = dir.join("serve1.log");
    let mut child = serve("first.jsonl", &log1);
    served_addr(&log1);
    send_signal(&child, "-TERM");
    let st = wait_exit(&mut child, 60);
    assert!(st.success(), "graceful shutdown must exit 0, got {st:?}");

    // The restart picks its checkpoint before it binds.
    let log2 = dir.join("serve2.log");
    let mut child = serve("second.jsonl", &log2);
    served_addr(&log2);
    send_signal(&child, "-TERM");
    let st = wait_exit(&mut child, 60);
    let text = std::fs::read_to_string(&log2).unwrap();
    assert!(st.success(), "restarted service must exit 0, got {st:?}");
    assert!(!text.contains("invalid run-call index"), "{text}");
}
