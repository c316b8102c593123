//! Streaming flow-arrival ingestion: the `xpass-ingest/v1` record format,
//! the append-only ingest journal, and the bounded cross-thread admission
//! queue behind `POST /ingest`.
//!
//! Determinism model: clients deliver [`Arrival`]s over a wall-clock
//! channel (`POST /ingest`) into an [`IngestQueue`]; the
//! service driver admits queued arrivals only at **sim-time boundaries**
//! on the metrics sampling grid, and appends every admitted arrival to a
//! journal *before* continuing. The journal therefore captures the exact
//! `(boundary, arrivals)` sequence the simulation consumed — replaying it
//! offline ([`parse_journal`]) reproduces the live run byte-for-byte.
//! Arrivals accepted into the queue but not yet admitted (journaled) when
//! the process dies are lost: ingestion is at-most-once by design, and
//! the journal — not the queue — is the source of truth.
//!
//! Admission control is wall-clock domain (token-bucket rate limit,
//! bounded queue with load shedding) and never touches simulation state,
//! so it cannot perturb determinism: shed arrivals simply never reach a
//! boundary.
//!
//! The decoders here ([`parse_arrivals`], [`parse_journal`]) are strict
//! and total — malformed input yields a path-carrying `Err`, never a
//! panic — and are fuzzed in `tests/fuzz_robustness.rs`.

use crate::json::{self, Json};
use crate::run_ctx;
use crate::time::SimTime;
use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Schema tag carried by ingest bodies and journal headers.
pub const SCHEMA: &str = "xpass-ingest/v1";

/// Maximum arrivals accepted in one `POST /ingest` body.
pub const MAX_BATCH: usize = 4096;

/// One flow-arrival record: "host `src` starts a `size_bytes`-byte flow
/// to host `dst`". Host ids are topology indices (`0..n_hosts`); range
/// validation happens at admission, where the topology is known.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Sending host index.
    pub src: u32,
    /// Receiving host index.
    pub dst: u32,
    /// Flow size in bytes (>= 1).
    pub size_bytes: u64,
}

fn arrival_from(j: &Json, ctx: &str) -> Result<Arrival, String> {
    if let Some(schema) = j.get("schema") {
        if schema.as_str() != Some(SCHEMA) {
            return Err(format!(
                "{ctx}: unsupported schema {:?} (expected {SCHEMA})",
                schema.as_str().unwrap_or("<non-string>")
            ));
        }
    }
    let field = |k: &str| -> Result<u64, String> {
        j.get(k)
            .and_then(Json::as_u64)
            .ok_or(format!("{ctx}: missing unsigned integer '{k}'"))
    };
    let src = field("src")?;
    let dst = field("dst")?;
    let size_bytes = field("size_bytes")?;
    if src > u32::MAX as u64 || dst > u32::MAX as u64 {
        return Err(format!("{ctx}: host id out of range (max {})", u32::MAX));
    }
    if src == dst {
        return Err(format!("{ctx}: src == dst ({src})"));
    }
    if size_bytes == 0 {
        return Err(format!("{ctx}: 'size_bytes' must be >= 1"));
    }
    Ok(Arrival {
        src: src as u32,
        dst: dst as u32,
        size_bytes,
    })
}

/// Parse an ingest body: a single `xpass-ingest/v1` arrival object, a
/// JSON array of them, or JSON Lines (one object per line). Total:
/// malformed input is an `Err` naming the offending record, never a
/// panic; batches over [`MAX_BATCH`] are rejected before allocation
/// grows past the cap.
pub fn parse_arrivals(body: &str) -> Result<Vec<Arrival>, String> {
    let text = body.trim();
    if text.is_empty() {
        return Err("empty ingest body".to_string());
    }
    if text.starts_with('[') {
        let j = json::parse(text).map_err(|e| e.to_string())?;
        let arr = j.as_array().ok_or("expected a JSON array")?;
        if arr.len() > MAX_BATCH {
            return Err(format!("batch of {} over the {MAX_BATCH} cap", arr.len()));
        }
        return arr
            .iter()
            .enumerate()
            .map(|(i, v)| arrival_from(v, &format!("record {i}")))
            .collect();
    }
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if out.len() >= MAX_BATCH {
            return Err(format!("batch over the {MAX_BATCH} cap"));
        }
        let ctx = format!("line {}", ln + 1);
        let j = json::parse(line).map_err(|e| format!("{ctx}: {e}"))?;
        out.push(arrival_from(&j, &ctx)?);
    }
    if out.is_empty() {
        return Err("no arrival records in body".to_string());
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Ingest journal
// ---------------------------------------------------------------------------

/// A decoded ingest journal: the `(admission boundary, arrivals)` groups
/// a live run consumed, in order, plus the seal written on clean
/// shutdown.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Journal {
    /// Job (scenario) name from the header, when the journal has one.
    pub job: Option<String>,
    /// `(t_ps, arrivals)` per admission boundary, strictly increasing.
    pub groups: Vec<(u64, Vec<Arrival>)>,
    /// Final sim time of the live loop; present only when the run shut
    /// down cleanly ("sealed"). A crashed journal has no seal and may be
    /// extended by a restarted live run.
    pub end_t_ps: Option<u64>,
}

impl Journal {
    /// Total arrivals across all groups.
    pub fn arrivals(&self) -> usize {
        self.groups.iter().map(|(_, b)| b.len()).sum()
    }

    /// Whether a run over this journal re-enters, with the same flows, a
    /// snapshot taken at `time` in run call `run_call` whose run had
    /// admitted groups of [digest](fold) `digest`. The driver makes one
    /// run call per group, so the snapshot must have admitted exactly the
    /// journal's first `run_call - 1` groups, and the next group may not
    /// come before `time`. Otherwise the reason, for the refusal.
    pub fn resumes(&self, digest: u32, run_call: u64, time: SimTime) -> Result<(), String> {
        let g = run_call.saturating_sub(1) as usize;
        let ours = self
            .groups
            .iter()
            .take(g)
            .fold(0, |d, (t, b)| fold(d, *t, b));
        if self.groups.len() < g || ours != digest {
            return Err(format!(
                "taken in run call {run_call}, it did not admit exactly the journal's first {g} group(s)"
            ));
        }
        match self.groups.get(g) {
            Some((t, _)) if *t < time.as_ps() => Err(format!(
                "the journal admits group {} at t_ps={t}, before the snapshot's {}",
                g + 1,
                time.as_ps()
            )),
            _ => Ok(()),
        }
    }
}

/// Parse an ingest journal (strict): a header line, then arrival lines
/// carrying their admission boundary `t_ps` (non-decreasing; equal
/// boundaries merge into one group), then optionally one seal line
/// `{"end_t_ps": N}` with nothing after it. Total: malformed input is an
/// `Err` naming the line, never a panic.
pub fn parse_journal(text: &str) -> Result<Journal, String> {
    let mut j = Journal::default();
    let mut seen_header = false;
    let mut sealed_at: Option<usize> = None;
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(at) = sealed_at {
            return Err(format!("line {ln}: content after the seal on line {at}"));
        }
        let v = json::parse(line).map_err(|e| format!("line {ln}: {e}"))?;
        if !seen_header {
            match v.get("schema").and_then(Json::as_str) {
                Some(s) if s == SCHEMA => {}
                Some(s) => {
                    return Err(format!(
                        "line {ln}: unsupported schema {s:?} (expected {SCHEMA})"
                    ))
                }
                None => {
                    return Err(format!(
                        "line {ln}: journal must start with a {SCHEMA} header"
                    ))
                }
            }
            j.job = v.get("job").and_then(Json::as_str).map(str::to_string);
            seen_header = true;
            continue;
        }
        if let Some(end) = v.get("end_t_ps") {
            let end = end
                .as_u64()
                .ok_or(format!("line {ln}: 'end_t_ps' must be an unsigned integer"))?;
            if let Some((last, _)) = j.groups.last() {
                if end < *last {
                    return Err(format!(
                        "line {ln}: seal end_t_ps={end} before the last group at {last}"
                    ));
                }
            }
            j.end_t_ps = Some(end);
            sealed_at = Some(ln);
            continue;
        }
        let t = v
            .get("t_ps")
            .and_then(Json::as_u64)
            .ok_or(format!("line {ln}: missing unsigned integer 't_ps'"))?;
        let a = arrival_from(&v, &format!("line {ln}"))?;
        match j.groups.last_mut() {
            Some((last, batch)) if *last == t => batch.push(a),
            Some((last, _)) if *last > t => {
                return Err(format!(
                    "line {ln}: t_ps={t} goes backwards (previous group at {last})"
                ));
            }
            _ => j.groups.push((t, vec![a])),
        }
    }
    Ok(j)
}

/// Read a journal file for recovery. A missing or empty file is an empty
/// journal (a fresh live run). Because the journal is append-only, a
/// crash can corrupt at most its tail: when strict parsing fails, retry
/// with the final line dropped and report the truncation as a warning;
/// any deeper corruption stays a hard error.
pub fn read_journal(path: &Path) -> Result<(Journal, Option<String>), String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok((Journal::default(), None))
        }
        Err(e) => return Err(format!("cannot read journal {}: {e}", path.display())),
    };
    match parse_journal(&text) {
        Ok(j) => Ok((j, None)),
        Err(first) => {
            // Drop the trailing (possibly partial) line and retry once.
            let body = text.trim_end_matches('\n');
            let cut = body.rfind('\n').map(|i| &body[..i]).unwrap_or("");
            match parse_journal(cut) {
                Ok(j) => {
                    let warn = format!(
                        "journal {}: dropped truncated trailing line ({first})",
                        path.display()
                    );
                    Ok((j, Some(warn)))
                }
                Err(_) => Err(format!("journal {}: {first}", path.display())),
            }
        }
    }
}

/// `digest` with the admitted group `(t_ps, batch)` folded in: the
/// CRC-32 of each group's `t_ps`, then each arrival's `src`, `dst` and
/// `size_bytes`, little-endian, in order; 0 before the first group. Each
/// checkpoint of an ingest run records it, and a restart arms only a
/// snapshot that [fits](Journal::resumes) its own journal.
pub fn fold(digest: u32, t_ps: u64, batch: &[Arrival]) -> u32 {
    use crate::snap::crc32_from as crc;
    let mut digest = crc(digest, &t_ps.to_le_bytes());
    for a in batch {
        digest = crc(digest, &a.src.to_le_bytes());
        digest = crc(digest, &a.dst.to_le_bytes());
        digest = crc(digest, &a.size_bytes.to_le_bytes());
    }
    digest
}

/// Fold an admitted group into this thread's digest, which every
/// checkpoint its network writes records.
pub fn admit(t_ps: u64, batch: &[Arrival]) {
    run_ctx::with(|c| c.admitted = fold(c.admitted, t_ps, batch));
}

/// Start this thread's digest afresh: a drive begins with nothing admitted.
pub fn reset_admitted() {
    run_ctx::with(|c| c.admitted = 0);
}

/// Appends admitted arrival groups to a journal file. Lines go straight
/// to the file descriptor (no userspace buffering), so everything up to
/// the last completed group survives a `kill -9`.
pub struct JournalWriter {
    file: std::fs::File,
    path: PathBuf,
}

impl JournalWriter {
    /// Open `path` for appending, creating it (and parent directories,
    /// and the header line) when absent or empty.
    pub fn append(path: &Path, job: &str) -> Result<JournalWriter, String> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
        let mut w = JournalWriter {
            file,
            path: path.to_path_buf(),
        };
        let len = w
            .file
            .metadata()
            .map_err(|e| format!("cannot stat journal {}: {e}", w.path.display()))?
            .len();
        if len == 0 {
            let header = Json::obj()
                .with("schema", Json::str(SCHEMA))
                .with("job", Json::str(job));
            w.write_line(&header.to_string())?;
        }
        Ok(w)
    }

    fn write_line(&mut self, line: &str) -> Result<(), String> {
        self.file
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("cannot append to journal {}: {e}", self.path.display()))
    }

    /// Append one admitted group (every arrival tagged with its
    /// admission boundary).
    pub fn group(&mut self, t_ps: u64, batch: &[Arrival]) -> Result<(), String> {
        for a in batch {
            let line = Json::obj()
                .with("t_ps", Json::num_u64(t_ps))
                .with("src", Json::num_u64(a.src as u64))
                .with("dst", Json::num_u64(a.dst as u64))
                .with("size_bytes", Json::num_u64(a.size_bytes));
            self.write_line(&line.to_string())?;
        }
        Ok(())
    }

    /// Seal the journal at the live loop's final sim time. A sealed
    /// journal is complete: replays drain from `end_t_ps`, and live runs
    /// refuse to extend it.
    pub fn seal(mut self, end_t_ps: u64) -> Result<(), String> {
        let line = Json::obj().with("end_t_ps", Json::num_u64(end_t_ps));
        self.write_line(&line.to_string())
    }
}

// ---------------------------------------------------------------------------
// Admission queue (wall-clock domain)
// ---------------------------------------------------------------------------

/// Outcome of [`IngestQueue::offer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Offer {
    /// The whole batch was queued for admission.
    Accepted(usize),
    /// Shed by the token-bucket rate limit; retry after this many secs.
    RateLimited(u64),
    /// Shed because the queue is full; retry after this many secs.
    QueueFull(u64),
}

struct QueueInner {
    q: VecDeque<Arrival>,
    cap: usize,
    accepted: u64,
    shed: u64,
    tokens: f64,
    rate: f64,
    burst: f64,
    last: Instant,
}

/// Bounded cross-thread arrival queue with token-bucket admission
/// control. HTTP workers (and the trace tail thread) [`offer`] batches;
/// the service driver [`drain`]s them at sim-time boundaries. Entirely
/// wall-clock domain — shedding never touches simulation state.
///
/// [`offer`]: IngestQueue::offer
/// [`drain`]: IngestQueue::drain
#[derive(Clone)]
pub struct IngestQueue(Arc<Mutex<QueueInner>>);

impl IngestQueue {
    /// A queue holding at most `cap` arrivals, rate-limited to
    /// `rate_per_sec` arrivals per second with a one-second burst.
    pub fn new(cap: usize, rate_per_sec: f64) -> IngestQueue {
        let rate = rate_per_sec.max(0.001);
        IngestQueue(Arc::new(Mutex::new(QueueInner {
            q: VecDeque::new(),
            cap,
            accepted: 0,
            shed: 0,
            tokens: rate,
            rate,
            burst: rate,
            last: Instant::now(),
        })))
    }

    /// Offer a batch; all-or-nothing. Shed batches report a retry-after
    /// hint (seconds) for the HTTP 429.
    pub fn offer(&self, batch: &[Arrival]) -> Offer {
        let n = batch.len();
        let mut st = self.0.lock().unwrap();
        let now = Instant::now();
        let dt = now.duration_since(st.last).as_secs_f64();
        st.last = now;
        st.tokens = (st.tokens + dt * st.rate).min(st.burst);
        if st.tokens < n as f64 {
            st.shed += n as u64;
            let wait = ((n as f64 - st.tokens) / st.rate).ceil().max(1.0);
            return Offer::RateLimited(wait as u64);
        }
        if st.q.len() + n > st.cap {
            st.shed += n as u64;
            return Offer::QueueFull(1);
        }
        st.tokens -= n as f64;
        st.q.extend(batch.iter().copied());
        st.accepted += n as u64;
        Offer::Accepted(n)
    }

    /// Take everything queued so far (the service driver admits the
    /// whole batch at the next boundary).
    pub fn drain(&self) -> Vec<Arrival> {
        self.0.lock().unwrap().q.drain(..).collect()
    }

    /// `(accepted, shed, currently queued)` totals, for diagnostics.
    pub fn stats(&self) -> (u64, u64, usize) {
        let st = self.0.lock().unwrap();
        (st.accepted, st.shed, st.q.len())
    }
}

/// The ingest source a stream-workload scenario consumes: where the
/// journal lives, and — for live runs — the queue arrivals flow in on.
#[derive(Clone)]
pub struct Source {
    /// Journal path: read (replay/recovery) and, live, appended to.
    pub journal: PathBuf,
    /// The live admission queue; `None` for offline replay.
    pub queue: Option<IngestQueue>,
    /// Live mode: replay the existing journal, then keep admitting from
    /// the queue. Off: replay the journal and stop.
    pub live: bool,
}

/// Install the ingest source in this thread's
/// [run context](crate::run_ctx) (the CLI does this before dispatching a
/// `--ingest`/`--ingest-replay` run).
pub fn install(source: Source) {
    run_ctx::with(|c| c.ingest = Some(source));
}

/// Remove the ingest source from this thread's run context.
pub fn clear() {
    run_ctx::with(|c| c.ingest = None);
}

/// The ingest source of this thread's run context, if one is installed.
pub fn current() -> Option<Source> {
    run_ctx::with(|c| c.ingest.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    #[test]
    fn parses_object_array_and_jsonl_bodies() {
        let one = parse_arrivals(r#"{"src":0,"dst":1,"size_bytes":100}"#).unwrap();
        assert_eq!(
            one,
            vec![Arrival {
                src: 0,
                dst: 1,
                size_bytes: 100
            }]
        );
        let arr = parse_arrivals(
            r#"[{"src":0,"dst":1,"size_bytes":1},{"src":2,"dst":3,"size_bytes":2}]"#,
        )
        .unwrap();
        assert_eq!(arr.len(), 2);
        let jsonl = parse_arrivals(
            "{\"src\":0,\"dst\":1,\"size_bytes\":1}\n{\"src\":1,\"dst\":0,\"size_bytes\":9}\n",
        )
        .unwrap();
        assert_eq!(jsonl.len(), 2);
    }

    #[test]
    fn rejects_malformed_bodies() {
        assert!(parse_arrivals("").is_err());
        assert!(parse_arrivals("not json").is_err());
        assert!(parse_arrivals(r#"{"src":0,"dst":0,"size_bytes":1}"#).is_err());
        assert!(parse_arrivals(r#"{"src":0,"dst":1,"size_bytes":0}"#).is_err());
        assert!(parse_arrivals(r#"{"src":0,"dst":1}"#).is_err());
        assert!(parse_arrivals(r#"{"schema":"nope","src":0,"dst":1,"size_bytes":1}"#).is_err());
        assert!(parse_arrivals(r#"{"src":5000000000,"dst":1,"size_bytes":1}"#).is_err());
        assert!(parse_arrivals("[]").unwrap().is_empty());
    }

    #[test]
    fn journal_roundtrip_and_grouping() {
        let text = format!(
            "{}\n{}\n{}\n{}\n{}\n",
            r#"{"schema":"xpass-ingest/v1","job":"demo"}"#,
            r#"{"t_ps":1000,"src":0,"dst":1,"size_bytes":10}"#,
            r#"{"t_ps":1000,"src":1,"dst":2,"size_bytes":20}"#,
            r#"{"t_ps":2000,"src":2,"dst":0,"size_bytes":30}"#,
            r#"{"end_t_ps":2000}"#,
        );
        let j = parse_journal(&text).unwrap();
        assert_eq!(j.job.as_deref(), Some("demo"));
        assert_eq!(j.groups.len(), 2);
        assert_eq!(j.groups[0].1.len(), 2);
        assert_eq!(j.end_t_ps, Some(2000));
        assert_eq!(j.arrivals(), 3);
    }

    #[test]
    fn journal_rejects_disorder_and_post_seal_content() {
        let hdr = r#"{"schema":"xpass-ingest/v1"}"#;
        let back = format!(
            "{hdr}\n{}\n{}\n",
            r#"{"t_ps":2000,"src":0,"dst":1,"size_bytes":1}"#,
            r#"{"t_ps":1000,"src":0,"dst":1,"size_bytes":1}"#
        );
        assert!(parse_journal(&back).is_err());
        let after = format!(
            "{hdr}\n{}\n{}\n",
            r#"{"end_t_ps":5}"#, r#"{"t_ps":9,"src":0,"dst":1,"size_bytes":1}"#
        );
        assert!(parse_journal(&after).is_err());
        assert!(parse_journal("{\"t_ps\":1,\"src\":0,\"dst\":1,\"size_bytes\":1}\n").is_err());
    }

    #[test]
    fn writer_appends_and_reader_recovers_truncation() {
        let dir = std::env::temp_dir().join(format!("xpass-ingest-{}", std::process::id()));
        let path = dir.join("j.jsonl");
        let _ = std::fs::remove_file(&path);
        let w = JournalWriter::append(&path, "demo").unwrap();
        let mut w = w;
        w.group(
            1000,
            &[Arrival {
                src: 0,
                dst: 1,
                size_bytes: 7,
            }],
        )
        .unwrap();
        drop(w);
        // Re-open appends without a second header.
        let mut w = JournalWriter::append(&path, "demo").unwrap();
        w.group(
            2000,
            &[Arrival {
                src: 1,
                dst: 0,
                size_bytes: 8,
            }],
        )
        .unwrap();
        w.seal(2000).unwrap();
        let (j, warn) = read_journal(&path).unwrap();
        assert!(warn.is_none());
        assert_eq!(j.groups.len(), 2);
        assert_eq!(j.end_t_ps, Some(2000));
        // Simulate a crash mid-append: a partial trailing line recovers
        // with a warning.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text = text.replace("{\"end_t_ps\":2000}\n", "{\"t_ps\":3000,\"sr");
        std::fs::write(&path, text).unwrap();
        let (j, warn) = read_journal(&path).unwrap();
        assert!(warn.is_some());
        assert_eq!(j.groups.len(), 2);
        assert_eq!(j.end_t_ps, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A journal of `n` groups 1 ms apart, one arrival each; `alt`
    /// changes the arrivals from group `alt` on.
    fn journal_of(n: u64, alt: Option<u64>) -> Journal {
        Journal {
            job: Some("demo".into()),
            groups: (1..=n)
                .map(|k| {
                    let dst = if alt.is_some_and(|a| k >= a) { 3 } else { 1 };
                    let a = Arrival {
                        src: 0,
                        dst,
                        size_bytes: 7,
                    };
                    (k * 1_000_000_000, vec![a])
                })
                .collect(),
            end_t_ps: None,
        }
    }

    /// The digest of the first `g` groups of `j`.
    fn digest(j: &Journal, g: usize) -> u32 {
        j.groups[..g].iter().fold(0, |d, (t, b)| fold(d, *t, b))
    }

    /// A snapshot resumes only over a journal that begins with every
    /// group it admitted — not merely the first — in the run call before
    /// the next group, and before that group's boundary.
    #[test]
    fn a_snapshot_resumes_only_over_its_own_admitted_groups() {
        let ms = |v: u64| SimTime(v * 1_000_000_000);
        let own = journal_of(5, None);
        // Taken in run call 4, at 3.5 ms, after three groups.
        let d = digest(&own, 3);
        let at = ms(3) + Dur::us(500);
        assert_eq!(own.resumes(d, 4, at), Ok(()));
        // The same first groups, then other ones: fine up to group 3 ...
        assert_eq!(journal_of(5, Some(4)).resumes(d, 4, at), Ok(()));
        assert_eq!(journal_of(3, None).resumes(d, 4, at), Ok(()));
        // ... refused once a group the snapshot holds differs or is
        // missing, or the snapshot's run call is not the one before group 4
        // (a shutdown snapshot is taken in the last group's run call).
        for (other, call) in [
            (journal_of(5, Some(3)), 4),
            (journal_of(2, None), 4),
            (own.clone(), 3),
        ] {
            let e = other.resumes(d, call, at).unwrap_err();
            assert!(
                e.contains("did not admit exactly the journal's first"),
                "{e}"
            );
        }
        // The next group may not come before the snapshot's time.
        let e = own.resumes(d, 4, ms(4) + Dur::us(1)).unwrap_err();
        assert!(e.contains("admits group 4 at t_ps=4000000000"), "{e}");
        // A snapshot from before any arrival fits any journal of the job
        // whose first group comes at or after it.
        assert_eq!(own.resumes(0, 1, ms(1)), Ok(()));
        assert_eq!(Journal::default().resumes(0, 1, ms(1)), Ok(()));
        assert!(own.resumes(0, 1, ms(2)).is_err());
    }

    /// The digest is the CRC-32 of the admitted facts as one byte stream.
    #[test]
    fn digest_is_the_crc_of_the_admitted_facts() {
        let a = Arrival {
            src: 1,
            dst: 2,
            size_bytes: 3,
        };
        let mut bytes = 5u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&3u64.to_le_bytes());
        let once = fold(0, 5, &[a]);
        assert_eq!(once, crate::snap::crc32(&bytes));
        bytes.extend_from_slice(&bytes.clone());
        assert_eq!(fold(once, 5, &[a]), crate::snap::crc32(&bytes));
    }

    #[test]
    fn missing_journal_is_empty() {
        let (j, warn) = read_journal(Path::new("/nonexistent/xpass/j.jsonl")).unwrap();
        assert_eq!(j, Journal::default());
        assert!(warn.is_none());
    }

    #[test]
    fn queue_rate_limits_and_sheds() {
        let q = IngestQueue::new(4, 1000.0);
        let a = Arrival {
            src: 0,
            dst: 1,
            size_bytes: 1,
        };
        assert_eq!(q.offer(&[a, a]), Offer::Accepted(2));
        // Queue cap: 3 more would exceed cap 4.
        assert_eq!(q.offer(&[a, a, a]), Offer::QueueFull(1));
        assert_eq!(q.drain().len(), 2);
        // Rate limit: a burst far over one second's tokens is shed with
        // a retry hint.
        let slow = IngestQueue::new(1 << 20, 2.0);
        let big = vec![a; 100];
        match slow.offer(&big) {
            Offer::RateLimited(retry) => assert!(retry >= 1),
            other => panic!("expected rate limit, got {other:?}"),
        }
        let (acc, shed, depth) = slow.stats();
        assert_eq!((acc, shed, depth), (0, 100, 0));
    }

    #[test]
    fn thread_scoped_source_installs_and_clears() {
        clear();
        assert!(current().is_none());
        install(Source {
            journal: PathBuf::from("/tmp/j.jsonl"),
            queue: Some(IngestQueue::new(8, 1.0)),
            live: true,
        });
        let s = current().unwrap();
        assert!(s.live);
        assert!(s.queue.is_some());
        clear();
        assert!(current().is_none());
    }
}
