//! The `serve_ingest` workload: the real `xpass-repro serve` daemon under
//! open-loop load over loopback, then offline journal replays. Everything
//! here goes through the CLI and sockets; the direct layer timers of the
//! traced pass are the only calls into [`crate::api`].

use crate::loadgen::{self, Issued, Stamps, WallClock, WsReport};
use crate::report::RunResult;
use crate::rng::SplitMix;
use crate::trace::Recorder;
use crate::{api, proc, stats};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

pub const NAME: &str = "serve_ingest";
pub const DEFAULT_SEED: u64 = 1;
fn scenario() -> PathBuf {
    crate::root().join("benchmark/scenarios/serve_ingest.json")
}
/// Hosts of the scenario's k=4 fat tree.
const HOSTS: u64 = 16;

/// Open loop: POSTs and scrapes per second, arrivals per POST.
const POST_HZ: f64 = 50.0;
const SCRAPE_HZ: f64 = 5.0;
const ARRIVALS_PER_POST: usize = 16;
/// Flow sizes of one POST, in seeded order: 16 arrivals, 120 kB.
const POST_SIZES: [u64; 8] = [1_000, 2_000, 3_000, 5_000, 8_000, 10_000, 13_000, 18_000];

/// The fixed journal: groups one simulated ms apart.
pub const FIXED_GROUPS: u64 = 3_000;
pub const FIXED_PER_GROUP: u64 = 8;
const FIXED_SIZES: [u64; 8] = [1_000, 2_000, 4_000, 6_000, 9_000, 12_000, 16_000, 30_000];
/// Timed replays of the fixed journal; `run_s` is their median.
const REPLAYS: usize = 5;
/// Daemon start-ups timed for `setup_s` (the measured daemon is the last).
const SETUPS: usize = 7;

fn shuffled(sizes: &[u64; 8], rng: &mut SplitMix) -> [u64; 8] {
    let mut s = *sizes;
    for i in (1..s.len()).rev() {
        s.swap(i, rng.below(i as u64 + 1) as usize);
    }
    s
}

fn endpoints(rng: &mut SplitMix) -> (u64, u64) {
    let src = rng.below(HOSTS);
    let dst = (src + 1 + rng.below(HOSTS - 1)) % HOSTS;
    (src, dst)
}

/// Body of POST number `i`: a JSON array of [`ARRIVALS_PER_POST`]
/// arrivals. Every body carries the same bytes in total, so the daemon's
/// simulation load does not follow the seed.
fn post_body(rng: &mut SplitMix) -> String {
    let mut out = String::from("[");
    for half in 0..ARRIVALS_PER_POST / POST_SIZES.len() {
        for (k, size) in shuffled(&POST_SIZES, rng).iter().enumerate() {
            if half + k > 0 {
                out.push(',');
            }
            let (src, dst) = endpoints(rng);
            out.push_str(&format!(
                "{{\"src\":{src},\"dst\":{dst},\"size_bytes\":{size}}}"
            ));
        }
    }
    out.push(']');
    out
}

/// A sealed `xpass-ingest/v1` journal of [`FIXED_GROUPS`] groups of
/// [`FIXED_PER_GROUP`] seeded arrivals, one simulated ms apart.
pub fn fixed_journal(seed: u64) -> String {
    const MS_PS: u64 = 1_000_000_000;
    let mut rng = SplitMix(seed ^ 0xF1_7ED);
    let mut out = format!("{{\"schema\":\"xpass-ingest/v1\",\"job\":\"{NAME}\"}}\n");
    for g in 1..=FIXED_GROUPS {
        for size in shuffled(&FIXED_SIZES, &mut rng) {
            let (src, dst) = endpoints(&mut rng);
            out.push_str(&format!(
                "{{\"t_ps\":{},\"src\":{src},\"dst\":{dst},\"size_bytes\":{size}}}\n",
                g * MS_PS
            ));
        }
    }
    out.push_str(&format!("{{\"end_t_ps\":{}}}\n", FIXED_GROUPS * MS_PS));
    out
}

/// Where `cargo build --release --bin xpass-repro` put the binary.
pub fn repro_bin() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from("target"), PathBuf::from);
    crate::root()
        .join(target)
        .join("release")
        .join("xpass-repro")
}

/// A running daemon and where it keeps its files.
struct Daemon {
    child: Child,
    addr: String,
    log: PathBuf,
    /// Spawn → first 200 from `/health`.
    healthy_after: Duration,
    spawned: Instant,
}

fn wait_for<T>(what: &str, secs: u64, mut f: impl FnMut() -> Option<T>) -> Result<T, String> {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(v) = f() {
            return Ok(v);
        }
        if Instant::now() >= deadline {
            return Err(format!("timed out after {secs}s waiting for {what}"));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

impl Daemon {
    /// `xpass-repro serve run <scenario> --ingest <dir>/ingest.jsonl …`,
    /// stderr to a file (the service must never block on a full pipe).
    fn spawn(bin: &Path, dir: &Path, journal: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let log = dir.join("serve.log");
        let logfile =
            std::fs::File::create(&log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .args(["serve", "run"])
            .arg(scenario())
            .arg("--ingest")
            .arg(journal)
            .args(["--ingest-rate", "100000", "--json"])
            .arg(dir.join("live"))
            .args(["--checkpoint-every", "5", "--checkpoint-dir"])
            .arg(dir.join("ck"))
            .stdout(Stdio::null())
            .stderr(Stdio::from(logfile))
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let ready = (|| {
            let addr = wait_for("the daemon's bind line", 30, || {
                if let Ok(Some(st)) = child.try_wait() {
                    return Some(Err(format!("daemon exited early ({st})")));
                }
                // The daemon writes the line in pieces: take it only whole.
                let text = std::fs::read_to_string(&log).ok()?;
                let line = text
                    .lines()
                    .find(|l| l.contains("serving live metrics on http://"))?;
                Some(Ok(line
                    .split("http://")
                    .nth(1)?
                    .strip_suffix("/metrics")?
                    .to_string()))
            })??;
            let health = wait_for("an answer from /health", 30, || {
                loadgen::http(&addr, "GET", "/health", "")
                    .ok()
                    .map(|(status, _)| status)
            })?;
            if health != 200 {
                return Err(format!("/health answered {health}"));
            }
            Ok::<String, String>(addr)
        })();
        match ready {
            Ok(addr) => Ok(Daemon {
                child,
                addr,
                log,
                healthy_after: spawned.elapsed(),
                spawned,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                let tail = std::fs::read_to_string(&log).unwrap_or_default();
                Err(format!("{e}; daemon log: {}", tail.trim()))
            }
        }
    }

    /// SIGTERM, then wait for the exit; returns (exit ok, seconds).
    fn terminate(mut self) -> Result<(bool, f64, String), String> {
        let t = Instant::now();
        let killed = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .map_err(|e| format!("run kill: {e}"))?;
        if !killed.success() {
            let _ = self.child.kill();
        }
        let status = wait_for("the daemon to exit", 60, || {
            self.child.try_wait().ok().flatten()
        });
        let status = match status {
            Ok(s) => s,
            Err(e) => {
                let _ = self.child.kill();
                let _ = self.child.wait();
                return Err(e);
            }
        };
        let log = std::fs::read_to_string(&self.log).unwrap_or_default();
        Ok((status.success(), t.elapsed().as_secs_f64(), log))
    }
}

impl Drop for Daemon {
    /// Whatever path the run took, no daemon outlives it. After
    /// `terminate` the child has been waited for and both calls are no-ops.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One `xpass-repro run <scenario> --ingest-replay <journal> --json <out>`:
/// (record bytes, seconds from process start to exit).
fn replay(bin: &Path, journal: &Path, out: &Path) -> Result<(Vec<u8>, f64), String> {
    let t = Instant::now();
    let st = Command::new(bin)
        .arg("run")
        .arg(scenario())
        .arg("--ingest-replay")
        .arg(journal)
        .arg("--json")
        .arg(out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("spawn replay: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    if !st.success() {
        return Err(format!("replay of {} exited with {st}", journal.display()));
    }
    let record = out.join(format!("{NAME}.json"));
    let bytes = std::fs::read(&record).map_err(|e| format!("read {}: {e}", record.display()))?;
    Ok((bytes, secs))
}

/// A whole-number field of a compact JSON record, by text search: the
/// record is the CLI's output and the harness reads it as such.
fn record_field(record: &[u8], key: &str) -> Option<u64> {
    let text = std::str::from_utf8(record).ok()?;
    let at = text.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[derive(Clone, Copy, PartialEq)]
enum ReqKind {
    Post,
    Scrape,
}

struct Sent {
    kind: ReqKind,
    issued: Issued,
    /// Status and the client-side instants; `None` when the request failed.
    ok: Option<(u16, Stamps)>,
}

/// The live phase: the open loop on this thread, the subscriber on a
/// second one.
fn live_phase(addr: &str, seed: u64, secs: f64) -> (Vec<Sent>, WsReport) {
    let mut rng = SplitMix(seed);
    // POSTs at k / POST_HZ; scrapes offset by half a POST period so the
    // two never fall due together.
    let mut plan: Vec<(f64, ReqKind)> = (0..(secs * POST_HZ) as usize)
        .map(|k| (k as f64 / POST_HZ, ReqKind::Post))
        .chain(
            (0..(secs * SCRAPE_HZ) as usize)
                .map(|k| (k as f64 / SCRAPE_HZ + 0.5 / POST_HZ, ReqKind::Scrape)),
        )
        .collect();
    plan.sort_by(|a, b| a.0.total_cmp(&b.0));
    let bodies: Vec<String> = plan
        .iter()
        .map(|(_, k)| {
            if *k == ReqKind::Post {
                post_body(&mut rng)
            } else {
                String::new()
            }
        })
        .collect();
    let due: Vec<f64> = plan.iter().map(|p| p.0).collect();
    let stop = AtomicBool::new(false);
    let mut results: Vec<Option<(u16, Stamps)>> = Vec::with_capacity(plan.len());
    let (issued, ws) = std::thread::scope(|s| {
        let sub = s.spawn(|| loadgen::ws_subscribe(addr, &stop));
        let issued = loadgen::open_loop(&due, &mut WallClock(Instant::now()), |i| {
            let r = match plan[i].1 {
                ReqKind::Post => loadgen::http(addr, "POST", "/ingest", &bodies[i]),
                ReqKind::Scrape => loadgen::http(addr, "GET", "/metrics", ""),
            };
            results.push(r.ok());
        });
        // Let the feed drain what the last admissions published.
        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, Ordering::SeqCst);
        (issued, sub.join().expect("subscriber thread panicked"))
    });
    let sent = plan
        .iter()
        .zip(issued)
        .zip(results)
        .map(|((p, issued), ok)| Sent {
            kind: p.1,
            issued,
            ok,
        })
        .collect();
    (sent, ws)
}

fn ms(samples: impl Iterator<Item = f64>) -> Vec<f64> {
    samples.map(|s| s * 1e3).collect()
}

/// Run the workload. `journal`: where the daemon journals; the CLI passes
/// `None` for a fresh file, a test passes a sealed one to show the run
/// fails.
pub fn run(
    seed: u64,
    seconds: u64,
    traced: bool,
    out_dir: &Path,
    journal: Option<&Path>,
) -> RunResult {
    let mut res = RunResult {
        workload: NAME.to_string(),
        seed,
        seconds,
        traced,
        reps: 1,
        ..RunResult::default()
    };
    let tmp = out_dir.join(format!("tmp-{NAME}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let mut rec = Recorder::new();
    if let Err(e) = drive(seed, seconds, traced, &tmp, journal, &mut rec, &mut res) {
        res.check("workload_completed", false, e);
    }
    if traced {
        let file = out_dir.join(format!("trace-{NAME}.json"));
        if let Err(e) = std::fs::write(&file, crate::trace::to_json(NAME, rec.spans())) {
            res.check(
                "trace_file_written",
                false,
                format!("{}: {e}", file.display()),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
    res
}

fn drive(
    seed: u64,
    seconds: u64,
    traced: bool,
    tmp: &Path,
    journal: Option<&Path>,
    rec: &mut Recorder,
    res: &mut RunResult,
) -> Result<(), String> {
    let bin = repro_bin();
    if !bin.is_file() {
        return Err(format!(
            "{} not found: build it with `cargo build --release --bin xpass-repro` (benchmark/run.sh does)",
            bin.display()
        ));
    }
    std::fs::create_dir_all(tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;

    // Set-up: start the daemon several times; the last one is measured.
    let mut setups = Vec::new();
    for i in 0..SETUPS - 1 {
        let dir = tmp.join(format!("setup{i}"));
        let d = Daemon::spawn(&bin, &dir, &dir.join("ingest.jsonl"))?;
        setups.push(d.healthy_after.as_secs_f64());
        d.terminate()?;
    }
    let live_dir = tmp.join("live");
    let live_journal = journal.map_or(live_dir.join("ingest.jsonl"), Path::to_path_buf);
    let daemon = Daemon::spawn(&bin, &live_dir, &live_journal)?;
    setups.push(daemon.healthy_after.as_secs_f64());
    let spawn_ns = daemon.spawned.duration_since(rec.epoch()).as_nanos() as u64;
    rec.add(
        "spawn_to_healthy",
        0,
        None,
        spawn_ns,
        spawn_ns + daemon.healthy_after.as_nanos() as u64,
    );
    let pid = daemon.child.id();

    let (sent, ws) = live_phase(&daemon.addr, seed, seconds as f64);
    let rss = proc::peak_rss_mb(Some(pid)).unwrap_or(0.0);
    let cpu = proc::cpu_secs(pid).unwrap_or(0.0);
    let (exit_ok, shutdown_s, log) = {
        let idx = rec.open("sigterm_to_exit");
        let r = daemon.terminate();
        rec.close(idx);
        r?
    };

    // The live session.
    let posts: Vec<&Sent> = sent.iter().filter(|s| s.kind == ReqKind::Post).collect();
    let scrapes: Vec<&Sent> = sent.iter().filter(|s| s.kind == ReqKind::Scrape).collect();
    // Status of a request; 0 when it got no response at all.
    let code = |s: &Sent| s.ok.map_or(0, |(c, _)| c);
    let status =
        |lo: u16, hi: u16| sent.iter().filter(|s| (lo..hi).contains(&code(s))).count() as u64;
    let failed_posts = posts
        .iter()
        .filter(|s| !(200..300).contains(&code(s)))
        .count() as u64;
    let failed_scrapes = scrapes.iter().filter(|s| code(s) != 200).count() as u64;
    res.attempted = sent.len() as u64;
    res.failed = failed_posts + failed_scrapes;
    res.check(
        "every_post_2xx",
        failed_posts == 0 && !posts.is_empty(),
        format!("{failed_posts} of {} failed", posts.len()),
    );
    res.check(
        "every_scrape_200",
        failed_scrapes == 0,
        format!("{failed_scrapes} of {} failed", scrapes.len()),
    );
    res.check("daemon_exits_0", exit_ok, "");
    res.check("journal_sealed", log.contains("journal sealed"), "");
    res.check(
        "subscriber_never_lagged",
        ws.lag_disconnects == 0 && ws.error.is_none() && ws.frames > 0,
        ws.error
            .clone()
            .unwrap_or_else(|| format!("{} frames", ws.frames)),
    );

    let live_record = std::fs::read(tmp.join("live/live").join(format!("{NAME}.json")))
        .map_err(|e| format!("read the live record: {e}"))?;
    let admitted = record_field(&live_record, "admitted").unwrap_or(0);
    let want = (posts.len() * ARRIVALS_PER_POST) as u64;
    res.check(
        "all_arrivals_admitted",
        admitted == want,
        format!("{admitted} of {want}"),
    );
    res.check(
        "live_sim_clean",
        record_field(&live_record, "unfinished") == Some(0)
            && record_field(&live_record, "data_dropped") == Some(0),
        "",
    );

    // Replay of the live journal must reproduce the live record, byte for byte.
    let (replayed, _) = {
        let idx = rec.open("replay.live");
        let r = replay(&bin, &live_journal, &tmp.join("replay-live"));
        rec.close(idx);
        r?
    };
    res.check(
        "replay_equals_live",
        replayed == live_record,
        format!("{} vs {} bytes", replayed.len(), live_record.len()),
    );

    // Timed replays of the fixed journal.
    let fixed = tmp.join("fixed.jsonl");
    let fixed_text = fixed_journal(seed);
    std::fs::write(&fixed, &fixed_text).map_err(|e| format!("write {}: {e}", fixed.display()))?;
    let mut replays = Vec::new();
    let mut fixed_record = Vec::new();
    for i in 0..REPLAYS {
        let idx = rec.open("replay.fixed");
        let r = replay(&bin, &fixed, &tmp.join(format!("replay-fixed{i}")));
        rec.close(idx);
        let (record, secs) = r?;
        replays.push(secs);
        fixed_record = record;
    }
    let fixed_admitted = record_field(&fixed_record, "admitted").unwrap_or(0);
    res.check(
        "fixed_journal_replayed",
        fixed_admitted == FIXED_GROUPS * FIXED_PER_GROUP
            && record_field(&fixed_record, "unfinished") == Some(0),
        format!("{fixed_admitted} admitted"),
    );

    let lag_p99 = stats::percentile_or_zero(&ms(sent.iter().map(|s| s.issued.lag)), 99.0);
    if lag_p99 > 1.0 {
        res.notes.push(format!(
            "the generator issued its p99 request {lag_p99:.3} ms late: the latencies include that wait"
        ));
    }

    if !traced {
        res.set_median("setup_s", setups);
        res.set_median("run_s", replays);
        res.set("peak_rss_mb", rss);
        return Ok(());
    }

    // Per-request spans, from the client's instants.
    for (i, s) in sent.iter().enumerate() {
        let Some((_, st)) = s.ok else { continue };
        let epoch = rec.epoch();
        let at = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
        let name = if s.kind == ReqKind::Post {
            "request.post_ingest"
        } else {
            "request.get_metrics"
        };
        let id = i as u32 + 1;
        let root = rec.add(name, id, None, at(st.start), at(st.last_byte));
        rec.add("connect", id, Some(root), at(st.start), at(st.connected));
        rec.add("write", id, Some(root), at(st.connected), at(st.written));
        rec.add(
            "first_byte",
            id,
            Some(root),
            at(st.written),
            at(st.first_byte),
        );
        rec.add(
            "last_byte",
            id,
            Some(root),
            at(st.first_byte),
            at(st.last_byte),
        );
    }

    let post_ms = ms(posts.iter().map(|s| s.issued.latency));
    let scrape_ms = ms(scrapes.iter().map(|s| s.issued.latency));
    res.set(
        "http.ingest_p50_ms",
        stats::percentile_or_zero(&post_ms, 50.0),
    );
    res.set(
        "http.ingest_p99_ms",
        stats::percentile_or_zero(&post_ms, 99.0),
    );
    res.set(
        "http.ingest_max_ms",
        post_ms.iter().cloned().fold(0.0, f64::max),
    );
    res.set(
        "http.scrape_p50_ms",
        stats::percentile_or_zero(&scrape_ms, 50.0),
    );
    res.set(
        "http.scrape_p90_ms",
        stats::percentile_or_zero(&scrape_ms, 90.0),
    );
    res.set("http.status_2xx", status(200, 300) as f64);
    res.set("http.status_429", status(429, 430) as f64);
    res.set(
        "http.status_other",
        sent.len() as f64 - status(200, 300) as f64 - status(429, 430) as f64,
    );
    res.set("http.daemon_cpu_s", cpu);
    res.set(
        "ingest.groups",
        record_field(&live_record, "groups").unwrap_or(0) as f64,
    );
    res.set("ingest.admitted", admitted as f64);
    res.set("ws.handshake_ms", ws.handshake_ms);
    res.set("ws.frames", ws.frames as f64);
    res.set("ws.bytes", ws.bytes as f64);
    res.set("ws.lag_disconnects", ws.lag_disconnects as f64);
    res.set("service.shutdown_ms", shutdown_s * 1e3);
    res.set("service.generator_lag_p99_ms", lag_p99);
    res.set(
        "event.events",
        record_field(&fixed_record, "events_processed").unwrap_or(0) as f64,
    );

    // Direct layer timers, on the inputs this workload really sends.
    let body = post_body(&mut SplitMix(seed));
    let head = format!(
        "POST /ingest HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close",
        body.len()
    );
    res.set(
        "http.parse_request_ns",
        api::http_parse_request_ns(head.as_bytes())?,
    );
    let it = api::ingest_times(&body, &tmp.join("direct.jsonl"))?;
    res.set("ingest.parse_arrivals_ns", it.parse_arrivals_ns);
    res.set("ingest.offer_drain_ns", it.offer_drain_ns);
    res.set("ingest.journal_group_us", it.journal_group_us);
    let (facts, parse_ms) = api::parse_journal(&fixed_text)?;
    res.check(
        "fixed_journal_accepted",
        facts.groups == FIXED_GROUPS
            && facts.arrivals == FIXED_GROUPS * FIXED_PER_GROUP
            && facts.sealed,
        format!("{facts:?}"),
    );
    res.set("ingest.parse_journal_ms", parse_ms);
    // A feed line of the size the daemon pushes per sample.
    let line = format!(
        "{{\"t_ps\":1000000000,\"v\":[{}]}}",
        vec!["0.125"; 40].join(",")
    );
    let (encode_ns, push_poll_ns) = api::ws_times(&line);
    res.set("ws.encode_frame_ns", encode_ns);
    res.set("ws.push_poll_ns", push_poll_ns);
    res.set("scenario.load_us", api::scenario_load_us(&scenario())?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_journal_is_accepted_by_the_ingest_layer() {
        let text = fixed_journal(DEFAULT_SEED);
        let (facts, _) = api::parse_journal(&text).expect("parse_journal accepts it");
        assert_eq!(
            facts,
            api::JournalFacts {
                groups: 3_000,
                arrivals: 24_000,
                sealed: true
            }
        );
        // Same seed, same journal; another seed, another journal of the
        // same payload.
        assert_eq!(text, fixed_journal(DEFAULT_SEED));
        let other = fixed_journal(DEFAULT_SEED + 1);
        assert_ne!(text, other);
        let bytes = |t: &str| -> u64 {
            t.lines()
                .filter_map(|l| record_field(l.as_bytes(), "size_bytes"))
                .sum()
        };
        assert_eq!(bytes(&text), bytes(&other));
        assert_eq!(bytes(&text), 3_000 * FIXED_SIZES.iter().sum::<u64>());
    }

    #[test]
    fn post_bodies_hold_sixteen_valid_arrivals_of_constant_payload() {
        let mut rng = SplitMix(7);
        for _ in 0..50 {
            let body = post_body(&mut rng);
            assert_eq!(body.matches("\"src\"").count(), ARRIVALS_PER_POST);
            let total: u64 = body
                .split('{')
                .filter_map(|a| record_field(a.as_bytes(), "size_bytes"))
                .sum();
            assert_eq!(total, 2 * POST_SIZES.iter().sum::<u64>());
        }
        let (src, dst) = endpoints(&mut rng);
        assert!(src != dst && src < HOSTS && dst < HOSTS);
    }

    #[test]
    fn record_fields_are_found_by_name() {
        let r = br#"{"a":{"admitted":16000,"rejected":0},"unfinished":0}"#;
        assert_eq!(record_field(r, "admitted"), Some(16000));
        assert_eq!(record_field(r, "unfinished"), Some(0));
        assert_eq!(record_field(r, "missing"), None);
    }

    /// Pointed at a sealed journal the daemon must refuse to serve, and
    /// the run must come back incorrect. Needs the release binary; says
    /// so and passes when it is not built.
    #[test]
    fn a_sealed_journal_fails_the_run() {
        if !repro_bin().is_file() || !scenario().is_file() {
            eprintln!(
                "skipped: run from the repo root after `cargo build --release --bin xpass-repro`"
            );
            return;
        }
        let out = crate::root().join("benchmark/out/test-sealed");
        std::fs::create_dir_all(&out).unwrap();
        let sealed = out.join("sealed.jsonl");
        let journal = format!(
            "{{\"schema\":\"xpass-ingest/v1\",\"job\":\"{NAME}\"}}\n\
             {{\"t_ps\":1000000000,\"src\":0,\"dst\":1,\"size_bytes\":1000}}\n{{\"end_t_ps\":2000000000}}\n"
        );
        std::fs::write(&sealed, journal).unwrap();
        let res = run(1, 2, false, &out, Some(&sealed));
        assert!(!res.correct(), "{}", res.table());
        let _ = std::fs::remove_dir_all(&out);
    }
}
