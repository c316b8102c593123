//! The run context: what a job tells the networks it builds, in the
//! tree's one thread-scoped slot. An experiment's `run()` takes no context
//! argument, so `Network::new` reads it from here: the scheduler, the
//! scope path and job key that name its checkpoints (`scope-0-3/net0`) and
//! metrics (`fig10/3#net0`), and the parts installed by
//! [`checkpoint::install`], [`metrics::install`](crate::metrics::install)
//! and [`ingest::install`](crate::ingest::install). With no part
//! installed — the default — a network gets no hooks.
//!
//! The parallel harness [`enter`]s `current().child(i)` around job `i`,
//! and the guard puts the caller's context back when the job returns or
//! unwinds, so a job's names never depend on which thread ran it.

use crate::checkpoint::{self, NetHook, RunLabel};
use crate::event::SchedulerKind;
use crate::ingest::Source;
use crate::metrics::{MetricsSpec, NetMetricsHook, Plane};
use std::cell::RefCell;
use std::sync::Arc;

/// One job's settings for the networks it builds (see the module docs).
/// The default is a thread's context before anything is installed.
#[derive(Clone)]
pub struct RunCtx {
    pub(crate) scheduler: SchedulerKind,
    /// `[i]` for job `i` of a batch, `[i, k]` for job `k` nested in it.
    pub(crate) scope: Vec<u64>,
    /// `main`, the label's name once [`set_label`] ran, plus `/k` per
    /// nested job `k`.
    pub(crate) job: String,
    pub(crate) label: RunLabel,
    /// Networks built so far in this scope: the next `net_index`.
    nets: u64,
    pub(crate) ckpt: Option<Arc<checkpoint::Shared>>,
    pub(crate) metrics: Option<MetricsSpec>,
    /// The plane the sampler publishes to; set only beside `metrics`.
    pub(crate) plane: Option<Plane>,
    pub(crate) ingest: Option<Source>,
    /// The [digest](crate::ingest::fold) of the groups the ingest driver
    /// on this thread has admitted.
    pub(crate) admitted: u32,
}

impl Default for RunCtx {
    fn default() -> RunCtx {
        RunCtx {
            scheduler: SchedulerKind::default(),
            scope: Vec::new(),
            job: "main".to_string(),
            label: RunLabel::default(),
            nets: 0,
            ckpt: None,
            metrics: None,
            plane: None,
            ingest: None,
            admitted: 0,
        }
    }
}

impl RunCtx {
    /// The context of job `i` of a fan-out under this one: the scope path
    /// gains `i`, the job key gains `/i`, and network numbering restarts.
    pub fn child(&self, i: u64) -> RunCtx {
        let mut c = self.clone();
        c.scope.push(i);
        c.job = format!("{}/{i}", c.job);
        c.nets = 0;
        c
    }

    /// This context with `kind` as its scheduler.
    pub fn with_scheduler(mut self, kind: SchedulerKind) -> RunCtx {
        self.scheduler = kind;
        self
    }
}

thread_local! {
    static CURRENT: RefCell<RunCtx> = RefCell::new(RunCtx::default());
}

pub(crate) fn with<R>(f: impl FnOnce(&mut RunCtx) -> R) -> R {
    CURRENT.with(|c| f(&mut c.borrow_mut()))
}

/// Install a part with `f`; the scope's network numbering restarts.
pub(crate) fn install(f: impl FnOnce(&mut RunCtx)) {
    with(|c| {
        f(c);
        c.nets = 0;
    });
}

/// A copy of this thread's context.
pub fn current() -> RunCtx {
    with(|c| c.clone())
}

/// Make `ctx` this thread's context until the returned guard drops, which
/// puts the previous one back — on return and on unwind alike.
pub fn enter(ctx: RunCtx) -> Entered {
    Entered(with(|c| std::mem::replace(c, ctx)))
}

/// Guard returned by [`enter`]; holds the context it displaced.
#[must_use = "the context is restored when the guard drops"]
pub struct Entered(RunCtx);

impl Drop for Entered {
    fn drop(&mut self) {
        with(|c| std::mem::swap(c, &mut self.0));
    }
}

/// Name the current job before it builds a network: the label goes into
/// snapshot headers and its name becomes the job key.
pub fn set_label(label: RunLabel) {
    with(|c| {
        c.job.clone_from(&label.name);
        c.label = label;
    });
}

/// Restart the current scope's network numbering, so a retried job
/// numbers its networks as its first attempt did.
pub fn restart_scope() {
    with(|c| c.nets = 0);
}

/// Called by `Network::new`: number the network within the current scope
/// and hand it the hooks of the installed parts.
pub fn register_network() -> (Option<NetHook>, Option<NetMetricsHook>) {
    with(|c| {
        let net_index = c.nets;
        c.nets += 1;
        let metrics = c.metrics.as_ref().map(|spec| NetMetricsHook {
            spec: spec.clone(),
            plane: c.plane.clone(),
            job: c.job.as_str().into(),
            net_index,
        });
        (checkpoint::hook(c, net_index), metrics)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointConfig;
    use crate::metrics;
    use crate::time::{Dur, SimTime};

    /// Build one network and return what its hooks name it: the plane key
    /// and the directory, under the checkpoint root, its snapshots go to.
    fn names(root: &std::path::Path) -> (Option<String>, Option<String>) {
        let (ckpt, metrics) = register_network();
        let dir = ckpt.map(|mut h| {
            h.on_run_call();
            h.write(SimTime(1), b"s".to_vec());
            let snap = checkpoint::latest_checkpoint().unwrap();
            let rel = snap.parent().unwrap().strip_prefix(root).unwrap();
            rel.to_str().unwrap().to_string()
        });
        (metrics.map(|h| h.plane_key()), dir)
    }

    #[test]
    fn one_naming_table_for_both_hooks() {
        let root = std::env::temp_dir().join(format!("xpass-runctx-{}", std::process::id()));
        let cfg = CheckpointConfig {
            every: Dur::ms(1),
            dir: root.clone(),
            keep: 1,
        };
        let ck = || checkpoint::install(Some(cfg.clone()), None);
        let met = || metrics::install(metrics::MetricsSpec::default(), None);
        let some = |pair: (&str, &str)| (Some(pair.0.to_string()), Some(pair.1.to_string()));
        let names = || names(&root);

        let (ckpt, metrics) = register_network();
        assert!(ckpt.is_none() && metrics.is_none(), "nothing installed");

        // Metrics only, checkpoint only, both: one net_index sequence.
        met();
        assert_eq!(names(), (Some("main#net0".into()), None));
        assert_eq!(names(), (Some("main#net1".into()), None));
        metrics::clear();
        ck();
        assert_eq!(names(), (None, Some("scope/net0".into())));
        assert_eq!(names(), (None, Some("scope/net1".into())));
        met();
        assert_eq!(names(), some(("main#net0", "scope/net0")));
        assert_eq!(names(), some(("main#net1", "scope/net1")));
        // Installing either part restarts the numbering.
        ck();
        assert_eq!(names(), some(("main#net0", "scope/net0")));
        met();
        assert_eq!(names(), some(("main#net0", "scope/net0")));

        // A labelled job and a nested child 3 inside it.
        let job = enter(current().child(0));
        set_label(RunLabel {
            name: "fig10".into(),
            ..RunLabel::default()
        });
        assert_eq!(names(), some(("fig10#net0", "scope-0/net0")));
        let nested = enter(current().child(3));
        assert_eq!(names(), some(("fig10/3#net0", "scope-0-3/net0")));
        drop(nested);
        // The job's newest snapshot includes those of its nested scopes.
        let newest = checkpoint::latest_checkpoint().unwrap();
        assert!(newest.starts_with(root.join("scope-0-3")), "{newest:?}");
        assert_eq!(names(), some(("fig10#net1", "scope-0/net1")));
        drop(job);
        assert_eq!(names(), some(("main#net1", "scope/net1")));

        checkpoint::clear();
        metrics::clear();
        let _ = std::fs::remove_dir_all(&root);
    }
}
