//! The streaming-ingest service driver: feeds externally-supplied flow
//! arrivals into a running simulation at deterministic sim-time
//! boundaries, journaling every admission so the run can be reproduced
//! offline byte-for-byte.
//!
//! # Determinism model
//!
//! Wall-clock timing (when a `POST /ingest` lands, how fast the queue
//! drains) must never influence simulation results. Two rules make that
//! hold:
//!
//! 1. **Grid admission.** Queued arrivals are admitted only at the next
//!    boundary of the metrics sampling grid strictly after `net.now()`:
//!    the driver runs the net up to that boundary, then adds each flow
//!    with `start == boundary`. Between admissions, sim time does not
//!    advance — an idle service sits still in sim time (the documented
//!    trade-off: live `/metrics` freezes when no arrivals come in).
//! 2. **One run call per journaled group.** The driver calls
//!    `run_until` exactly once per admission group, plus one final
//!    `run_until_done` drain — in live *and* replay mode. Boundary
//!    sampling retroactively covers all elapsed boundaries regardless of
//!    stepping granularity, so the metrics ring is invariant; identical
//!    run-call sequences also make snapshot arming safe (an image
//!    recorded at run call *k* overlays at the same driver position on
//!    retry or restart).
//!
//! Every admitted group is appended to the ingest journal **before** the
//! next group is admitted; the journal — not the queue — is the source
//! of truth. Arrivals accepted into the queue but not yet journaled when
//! the process dies are lost (at-most-once). A restarted live run
//! replays its journal first, then continues live from where it ended;
//! `--ingest-replay` replays and stops.
//!
//! For crash-path testing, `XPASS_CRASH_AT_GROUP=<k>` panics right after
//! group `k` is journaled — in live and replay mode alike, so a crash
//! injected once keeps firing on every supervised retry, driving a
//! deterministic crash loop.

use std::time::Duration;
use xpass_net::ids::HostId;
use xpass_net::network::Network;
use xpass_sim::ingest::{self, Arrival, JournalWriter};
use xpass_sim::metrics;
use xpass_sim::signal;
use xpass_sim::time::{Dur, SimTime};

/// How long the live loop sleeps when the queue is empty.
const IDLE_POLL: Duration = Duration::from_millis(2);

/// What a stream drive consumed, for the experiment record.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamReport {
    /// Arrivals admitted into the simulation (replayed + live).
    pub admitted: u64,
    /// Live arrivals dropped at admission (bad host ids); journal
    /// records never reject — a bad journal line is a hard error.
    pub rejected: u64,
    /// Admission groups consumed (each one run call).
    pub groups: u64,
    /// Sim time the live loop ended at (the journal seal).
    pub end: SimTime,
}

/// Drive `net` from the thread's installed [`ingest::Source`]: replay
/// the journal, then (live mode) admit queued arrivals until a shutdown
/// signal, seal the journal, write a final checkpoint, and drain the
/// simulation for `settle` past the end.
pub fn drive(net: &mut Network, job: &str, settle: Dur) -> Result<StreamReport, String> {
    let src = ingest::current()
        .ok_or_else(|| "no ingest source installed (use --ingest/--ingest-replay)".to_string())?;
    let hosts = net.topo().n_hosts;
    let grid = metrics::sample_interval().unwrap_or(Dur::ms(1));
    if grid.is_zero() {
        return Err("metrics interval must be > 0 for streaming ingestion".to_string());
    }
    let crash_at: Option<u64> = std::env::var("XPASS_CRASH_AT_GROUP")
        .ok()
        .and_then(|v| v.parse().ok());
    let mut rep = StreamReport::default();
    ingest::reset_admitted();

    // Phase 1: replay the journal (recovery for live mode, the whole run
    // for replay mode).
    let (journal, warn) = ingest::read_journal(&src.journal)?;
    if let Some(w) = warn {
        eprintln!("xpass-repro: ingest: {w}");
    }
    if let Some(jjob) = &journal.job {
        if jjob != job {
            return Err(format!(
                "journal {} belongs to job '{jjob}', not '{job}'",
                src.journal.display()
            ));
        }
    }
    for (t_ps, batch) in &journal.groups {
        let t = SimTime(*t_ps);
        if t <= net.now() {
            return Err(format!(
                "journal {}: group at t_ps={t_ps} is not ahead of sim time",
                src.journal.display()
            ));
        }
        net.run_until(t);
        for a in batch {
            check(a, hosts).map_err(|e| format!("journal {}: {e}", src.journal.display()))?;
            net.add_flow(HostId(a.src), HostId(a.dst), a.size_bytes, t);
            rep.admitted += 1;
        }
        ingest::admit(*t_ps, batch);
        rep.groups += 1;
        crash_check(rep.groups, crash_at);
    }
    if !journal.groups.is_empty() {
        eprintln!(
            "xpass-repro: ingest: replayed {} group(s) ({} arrivals) from {}",
            journal.groups.len(),
            journal.arrivals(),
            src.journal.display()
        );
    }

    // Phase 2: live admission (or honor the seal in replay mode).
    let end = if src.live {
        if journal.end_t_ps.is_some() {
            return Err(format!(
                "journal {} is sealed; replay it with --ingest-replay or start a new journal",
                src.journal.display()
            ));
        }
        live_loop(net, &src, job, hosts, grid, crash_at, &mut rep)?
    } else {
        journal.end_t_ps.map(SimTime).unwrap_or_else(|| net.now())
    };
    if end > net.now() {
        net.run_until(end);
    }
    rep.end = end;

    // Phase 3: drain in-flight flows.
    net.run_until_done(end + settle);
    Ok(rep)
}

/// The live admission loop: drain the queue, admit at the next grid
/// boundary, journal, repeat — until a shutdown signal, then seal.
fn live_loop(
    net: &mut Network,
    src: &ingest::Source,
    job: &str,
    hosts: usize,
    grid: Dur,
    crash_at: Option<u64>,
    rep: &mut StreamReport,
) -> Result<SimTime, String> {
    let queue = src
        .queue
        .clone()
        .ok_or_else(|| "live ingest source has no queue".to_string())?;
    let mut journal = JournalWriter::append(&src.journal, job)?;
    loop {
        let batch = queue.drain();
        if batch.is_empty() {
            if signal::shutdown_requested() {
                break;
            }
            std::thread::sleep(IDLE_POLL);
            continue;
        }
        // First grid boundary strictly after now: sim time advances to
        // the boundary (sampling it pre-admission), then the flows start
        // exactly there.
        let g = grid.as_ps();
        let t = SimTime((net.now().as_ps() / g + 1) * g);
        net.run_until(t);
        let mut kept: Vec<Arrival> = Vec::with_capacity(batch.len());
        for a in batch {
            match check(&a, hosts) {
                Ok(()) => {
                    net.add_flow(HostId(a.src), HostId(a.dst), a.size_bytes, t);
                    kept.push(a);
                    rep.admitted += 1;
                }
                Err(e) => {
                    rep.rejected += 1;
                    eprintln!("xpass-repro: ingest: rejected arrival: {e}");
                }
            }
        }
        if !kept.is_empty() {
            journal.group(t.as_ps(), &kept)?;
            ingest::admit(t.as_ps(), &kept);
            rep.groups += 1;
            eprintln!(
                "xpass-repro: ingest: admitted {} arrival(s) at t_ps={} (group {})",
                kept.len(),
                t.as_ps(),
                rep.groups
            );
            crash_check(rep.groups, crash_at);
        }
    }
    let end = net.now();
    journal.seal(end.as_ps())?;
    eprintln!(
        "xpass-repro: ingest: journal sealed at t_ps={} ({} arrivals in {} groups)",
        end.as_ps(),
        rep.admitted,
        rep.groups
    );
    // A graceful shutdown always leaves a fresh resume point.
    net.checkpoint_now();
    Ok(end)
}

/// Validate an arrival against the topology. Schema-level validity
/// (src != dst, size >= 1) is already enforced by the decoders.
fn check(a: &Arrival, hosts: usize) -> Result<(), String> {
    if (a.src as usize) >= hosts || (a.dst as usize) >= hosts {
        return Err(format!(
            "arrival {}->{} outside the topology's {hosts} hosts",
            a.src, a.dst
        ));
    }
    Ok(())
}

/// Injected crash point (`XPASS_CRASH_AT_GROUP`): fires after the given
/// group is journaled, in live and replay mode alike.
fn crash_check(group: u64, crash_at: Option<u64>) {
    if Some(group) == crash_at {
        panic!("injected crash at ingest group {group} (XPASS_CRASH_AT_GROUP)");
    }
}
