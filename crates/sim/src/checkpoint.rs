//! Checkpoint runtime: the plumbing that connects the engine's snapshot
//! machinery ([`crate::snap`]) to experiment runs.
//!
//! A *run* in this repo is a pure function of its configuration and seed:
//! an experiment's `run()` builds one or more `Network`s deterministically
//! and drives each through one or more `run_until`/`run_until_done` calls.
//! A checkpoint therefore only needs to record **where** in that structure
//! it was taken — (scope path, network index, run-call index, sim time) —
//! plus the network's serialized state. Resuming re-executes the
//! experiment's deterministic setup, replays any run calls *before* the
//! recorded one (byte-identical by determinism), and overlays the saved
//! state at the recorded call, then continues. Output is byte-identical to
//! an uninterrupted run; `tests/fences.rs` is the fence.
//!
//! The *scope path* addresses a run inside nested fan-out: the parallel
//! harness assigns index `i` to each job, so a top-level experiment is
//! scope `[i]` and a chaos-sweep seed run inside it is `[i, k]`. The scope,
//! the network index and this runtime itself live in the
//! [run context](crate::run_ctx).
//!
//! Everything here is **zero-cost when off**: with no runtime installed
//! (the default), a network gets no [`NetHook`] and the engine's hot loops
//! skip the checkpoint check entirely.

use crate::run_ctx::{self, RunCtx};
use crate::snap::{self, SnapError, SnapReader, SnapWriter};
use crate::time::{Dur, SimTime};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Periodic checkpointing configuration (`--checkpoint-every`).
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Sim-time interval between snapshots.
    pub every: Dur,
    /// Directory snapshots are written under (one subdir per scope).
    pub dir: PathBuf,
    /// How many snapshots to keep per network (older ones are pruned).
    pub keep: usize,
}

/// Identifies the run being checkpointed, for the snapshot header and for
/// `--resume` validation. Set per job via [`run_ctx::set_label`].
#[derive(Clone, Debug, Default)]
pub struct RunLabel {
    /// Experiment name (registry name or scenario file).
    pub name: String,
    /// Seed override in effect, if any.
    pub seed: Option<u64>,
    /// Whether `--paper-scale` was in effect.
    pub paper_scale: bool,
}

/// A parsed snapshot file: header metadata plus the opaque network state.
#[derive(Clone, Debug)]
pub struct ResumeImage {
    /// Scope path of the run the snapshot was taken in.
    pub scope: Vec<u64>,
    /// Index of the network within that scope (creation order, 0-based).
    pub net_index: u64,
    /// 1-based index of the `run_until`/`run_until_done` call the snapshot
    /// was taken during.
    pub run_call: u64,
    /// Sim time at the snapshot point.
    pub time: SimTime,
    /// Label of the run (experiment name, seed, paper-scale).
    pub label: RunLabel,
    /// The metering the run was under: the metrics sampler's interval, or
    /// `None` with no sampler. A network restores only under the same one.
    pub metering: Option<Dur>,
    /// Serialized network state (consumed by `Network::restore_from`).
    pub net_state: Vec<u8>,
}

/// The installed runtime, shared by every scope forked from the one it was
/// installed in.
pub(crate) struct Shared {
    cfg: Option<CheckpointConfig>,
    /// Pending resume image; taken (consumed) by the network it targets.
    resume: Mutex<Option<ResumeImage>>,
    /// Every snapshot written this run: (scope, write order, path).
    registry: Mutex<Vec<(Vec<u64>, u64, PathBuf)>>,
    write_ctr: AtomicU64,
}

/// Install the checkpoint runtime in this thread's
/// [run context](crate::run_ctx). `cfg` enables periodic snapshot writing;
/// `resume` arms a one-shot restore. Passing both `None` still installs a
/// runtime (useful only for tests); call [`clear`] to tear down.
pub fn install(cfg: Option<CheckpointConfig>, resume: Option<ResumeImage>) {
    let shared = Arc::new(Shared {
        cfg,
        resume: Mutex::new(resume),
        registry: Mutex::new(Vec::new()),
        write_ctr: AtomicU64::new(0),
    });
    run_ctx::install(|c| c.ckpt = Some(shared));
}

/// Remove the checkpoint runtime from this thread's run context.
pub fn clear() {
    run_ctx::with(|c| c.ckpt = None);
}

/// Newest snapshot written for the current scope (or any scope nested
/// under it). This is the path the failure summary reports and the one
/// auto-resume loads.
pub fn latest_checkpoint() -> Option<PathBuf> {
    run_ctx::with(|c| {
        let reg = c.ckpt.as_ref()?.registry.lock().unwrap();
        reg.iter()
            .filter(|(scope, _, _)| scope.starts_with(&c.scope))
            .max_by_key(|(_, order, _)| *order)
            .map(|(_, _, p)| p.clone())
    })
}

/// Arm the shared runtime with a resume image (used by auto-resume after
/// a crash: load the latest checkpoint, arm it, re-run the job).
pub fn arm_resume(image: ResumeImage) {
    run_ctx::with(|c| {
        if let Some(sh) = &c.ckpt {
            *sh.resume.lock().unwrap() = Some(image);
        }
    });
}

/// Directory name for a scope path (`scope-3`, `scope-3-17`, …).
fn scope_dirname(scope: &[u64]) -> String {
    let mut s = String::from("scope");
    for seg in scope {
        s.push('-');
        s.push_str(&seg.to_string());
    }
    s
}

/// Hook handed to every `Network` created while a runtime is installed.
/// Carries this network's identity, the write schedule, and (for at most
/// one network per resume) the pending restore payload.
pub struct NetHook {
    every: Option<Dur>,
    next: SimTime,
    /// Writes allowed? False while a pending resume image exists (replay
    /// must not clobber the snapshots it is replaying from).
    enabled: bool,
    pending_resume: Option<ResumeImage>,
    run_calls: u64,
    dir: PathBuf,
    keep: usize,
    file_seq: u64,
    scope: Vec<u64>,
    net_index: u64,
    label: RunLabel,
    metering: Option<Dur>,
    shared: Arc<Shared>,
}

/// The hook of network `net_index` in `ctx`'s scope, or `None` when it
/// has nothing to do: no runtime, not writing, not the armed image's target.
pub(crate) fn hook(ctx: &RunCtx, net_index: u64) -> Option<NetHook> {
    let (shared, scope) = (ctx.ckpt.as_ref()?, &ctx.scope[..]);
    // Take the resume image if it targets exactly this network; its
    // presence (targeting anyone) suppresses writes during replay.
    let mut resume_slot = shared.resume.lock().unwrap();
    let targets_me = resume_slot
        .as_ref()
        .is_some_and(|img| img.scope == scope && img.net_index == net_index);
    let pending_resume = if targets_me { resume_slot.take() } else { None };
    let replaying = resume_slot.is_some() || pending_resume.is_some();
    drop(resume_slot);

    let every = shared.cfg.as_ref().map(|c| c.every);
    if every.is_none() && pending_resume.is_none() {
        return None;
    }
    let (dir, keep) = match &shared.cfg {
        Some(c) => (
            c.dir
                .join(scope_dirname(scope))
                .join(format!("net{net_index}")),
            c.keep.max(1),
        ),
        None => (PathBuf::new(), 1),
    };
    Some(NetHook {
        every,
        next: every.map_or(SimTime::MAX, |e| SimTime::ZERO + e),
        enabled: every.is_some() && !replaying,
        pending_resume,
        run_calls: 0,
        dir,
        keep,
        file_seq: 0,
        scope: scope.to_vec(),
        net_index,
        label: ctx.label.clone(),
        metering: ctx.metrics.as_ref().map(|spec| spec.interval),
        shared: Arc::clone(shared),
    })
}

impl NetHook {
    /// Called at the start of every `run_until`/`run_until_done` call.
    /// Returns the serialized network state to overlay when this call is
    /// the one the armed resume image recorded.
    pub fn on_run_call(&mut self) -> Option<Vec<u8>> {
        self.run_calls += 1;
        if self
            .pending_resume
            .as_ref()
            .is_some_and(|img| img.run_call == self.run_calls)
        {
            let img = self.pending_resume.take().unwrap();
            self.enabled = self.every.is_some();
            return Some(img.net_state);
        }
        None
    }

    /// Called after a successful restore: schedule the next snapshot one
    /// interval past the restored time.
    pub fn after_restore(&mut self, now: SimTime) {
        if let Some(e) = self.every {
            self.next = now + e;
        }
    }

    /// Cheap per-event check: is a snapshot due at `now`?
    #[inline]
    pub fn due(&self, now: SimTime) -> bool {
        self.enabled && now >= self.next
    }

    /// Write a snapshot of `net_state` taken at `now`, atomically; prune
    /// old files past `keep`; register the path for the failure summary.
    /// I/O failures are reported to stderr but never abort the run.
    pub fn write(&mut self, now: SimTime, net_state: &[u8]) {
        if let Some(e) = self.every {
            self.next = now + e;
        }
        let mut w = SnapWriter::new();
        w.seq(&self.scope, |w, s| w.u64(*s));
        w.u64(self.net_index);
        w.u64(self.run_calls);
        w.u64(now.0);
        w.str(&self.label.name);
        w.opt(self.label.seed.as_ref(), |w, s| w.u64(*s));
        w.bool(self.label.paper_scale);
        w.opt(self.metering.as_ref(), |w, d| w.u64(d.as_ps()));
        w.bytes(net_state);
        let path = self.dir.join(format!("ck-{:06}.snap", self.file_seq));
        self.file_seq += 1;
        if let Err(e) = snap::write_atomic(&path, &w.into_body()) {
            eprintln!("xpass: checkpoint write failed at {}: {e}", path.display());
            return;
        }
        if self.file_seq > self.keep as u64 {
            let old = self.dir.join(format!(
                "ck-{:06}.snap",
                self.file_seq - 1 - self.keep as u64
            ));
            let _ = std::fs::remove_file(old);
        }
        let order = self.shared.write_ctr.fetch_add(1, Ordering::Relaxed);
        self.shared
            .registry
            .lock()
            .unwrap()
            .push((self.scope.clone(), order, path));
    }
}

/// Parse a snapshot body (already envelope-validated) into a
/// [`ResumeImage`].
pub fn parse_image(body: &[u8]) -> Result<ResumeImage, SnapError> {
    let mut r = SnapReader::new(body, snap::HEADER_LEN);
    r.enter("meta");
    let n = r.seq_len(8)?;
    let scope = (0..n).map(|_| r.u64()).collect::<Result<Vec<_>, _>>()?;
    let net_index = r.u64()?;
    let run_call = r.u64()?;
    if run_call == 0 {
        return Err(r.err("invalid run-call index: expected ≥ 1, found 0"));
    }
    let time = SimTime(r.u64()?);
    let name = r.str()?;
    let seed = r.opt(|r| r.u64())?;
    let paper_scale = r.bool()?;
    let metering = r.opt(|r| r.u64().map(Dur))?;
    let net_state = r.bytes()?;
    r.leave();
    r.expect_end()?;
    Ok(ResumeImage {
        scope,
        net_index,
        run_call,
        time,
        label: RunLabel {
            name,
            seed,
            paper_scale,
        },
        metering,
        net_state,
    })
}

/// Load and parse a snapshot file into a [`ResumeImage`].
pub fn load_image(path: &Path) -> Result<ResumeImage, SnapError> {
    let body = snap::load(path)?;
    parse_image(&body)
}

/// Rebase an image's top-level scope segment (the experiment's job index)
/// to `i`. `--resume` runs exactly one experiment, so the image taken at
/// job index 3 of a batch must map onto job 0 of the resume run.
pub fn rebase_scope(image: &mut ResumeImage, i: u64) {
    if let Some(first) = image.scope.first_mut() {
        *first = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn register_network() -> Option<NetHook> {
        run_ctx::register_network().0
    }

    fn image(scope: Vec<u64>, net_index: u64, run_call: u64) -> ResumeImage {
        ResumeImage {
            scope,
            net_index,
            run_call,
            time: SimTime(123),
            label: RunLabel {
                name: "t".into(),
                seed: Some(7),
                paper_scale: false,
            },
            metering: None,
            net_state: vec![1, 2, 3],
        }
    }

    #[test]
    fn image_round_trips_through_file() {
        let dir = std::env::temp_dir().join(format!("xpass-ckpt-test-{}", std::process::id()));
        let path = dir.join("img.snap");
        // Write via a hook so the production writer is what we parse.
        install(
            Some(CheckpointConfig {
                every: Dur::ms(1),
                dir: dir.clone(),
                keep: 2,
            }),
            None,
        );
        run_ctx::set_label(RunLabel {
            name: "fig10".into(),
            seed: Some(9),
            paper_scale: true,
        });
        crate::metrics::install(
            crate::metrics::MetricsSpec {
                interval: Dur::us(250),
                ..Default::default()
            },
            None,
        );
        let mut hook = register_network().expect("hook");
        assert!(hook.on_run_call().is_none());
        hook.write(SimTime(5_000_000), b"netstate");
        let written = latest_checkpoint().expect("registered path");
        let img = load_image(&written).expect("parse back");
        assert_eq!(img.scope, Vec::<u64>::new());
        assert_eq!(img.net_index, 0);
        assert_eq!(img.run_call, 1);
        assert_eq!(img.time, SimTime(5_000_000));
        assert_eq!(img.label.name, "fig10");
        assert_eq!(img.label.seed, Some(9));
        assert!(img.label.paper_scale);
        assert_eq!(img.metering, Some(Dur::us(250)));
        assert_eq!(img.net_state, b"netstate");
        let _ = path;
        clear();
        crate::metrics::clear();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_image_is_consumed_by_matching_network_and_call() {
        install(None, Some(image(vec![], 1, 2)));
        // Network 0: not the target and nothing to write → no hook at all
        // (it replays normally).
        assert!(register_network().is_none());
        // Network 1: the target; restores on its second run call.
        let mut h1 = register_network().expect("target hook");
        assert!(h1.on_run_call().is_none(), "call 1 replays");
        assert_eq!(h1.on_run_call().as_deref(), Some(&[1u8, 2, 3][..]));
        // Network 2, created after consumption: plain (no cfg → None).
        assert!(register_network().is_none());
        clear();
    }

    #[test]
    fn keep_prunes_old_snapshots() {
        let dir = std::env::temp_dir().join(format!("xpass-ckpt-prune-{}", std::process::id()));
        install(
            Some(CheckpointConfig {
                every: Dur::ms(1),
                dir: dir.clone(),
                keep: 2,
            }),
            None,
        );
        let mut hook = register_network().expect("hook");
        hook.on_run_call();
        for i in 0..5u64 {
            hook.write(SimTime(i * 1_000_000), b"s");
        }
        let net_dir = dir.join("scope").join("net0");
        let mut files: Vec<_> = std::fs::read_dir(&net_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, vec!["ck-000003.snap", "ck-000004.snap"]);
        clear();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_image_is_rejected_with_context() {
        let body = {
            let mut w = SnapWriter::new();
            w.seq(&[0u64], |w, s| w.u64(*s));
            w.into_body() // truncated: missing everything after scope
        };
        let e = parse_image(&body).unwrap_err();
        assert_eq!(e.path, "meta");
        assert!(e.msg.contains("truncated"), "{e}");
    }
}
