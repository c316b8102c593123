//! Deterministic parallel experiment execution.
//!
//! A tiny scoped-thread work pool: each job owns one input, runs the
//! supplied closure on its own worker thread (one simulation engine per
//! experiment/seed — engines are single-threaded and share nothing), and
//! writes its result into the slot matching the input's index. Results are
//! therefore merged in **input order**, never completion order, so output
//! is byte-identical for any `jobs` setting — thread scheduling can change
//! only wall-clock time.
//!
//! Each job runs in its own fork of the caller's
//! [run context](xpass_sim::run_ctx): the pool enters `child(i)` of the
//! caller's context, with the requested [`SchedulerKind`], around job `i`
//! on whichever thread happens to run it, and puts the thread's previous
//! context back when the job returns or unwinds. So a run under
//! `--scheduler heap --jobs 8` uses the heap everywhere, and a `--jobs N`
//! batch publishes per-job series and writes checkpoints under per-job
//! directories. [`run_isolated`] additionally auto-resumes a panicked job
//! once from its latest checkpoint.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use xpass_sim::event::SchedulerKind;
use xpass_sim::{checkpoint, metrics, run_ctx};

/// Run `f(index, input)` for every input and return the results in input
/// order. `jobs <= 1` runs inline (no threads spawned); otherwise up to
/// `jobs` scoped worker threads pull inputs from a shared queue.
pub fn run_indexed<T, R, F>(inputs: Vec<T>, jobs: usize, scheduler: SchedulerKind, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = inputs.len();
    let parent = run_ctx::current().with_scheduler(scheduler);
    let job = |i: usize, x: T| {
        let _ctx = run_ctx::enter(parent.child(i as u64));
        f(i, x)
    };
    if jobs <= 1 || n <= 1 {
        return inputs
            .into_iter()
            .enumerate()
            .map(|(i, x)| job(i, x))
            .collect();
    }
    let slots: Mutex<Vec<Option<T>>> = Mutex::new(inputs.into_iter().map(Some).collect());
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    let workers = jobs.min(n);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let input = slots.lock().unwrap()[i].take().expect("job taken twice");
                let r = job(i, input);
                results.lock().unwrap()[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("worker died before finishing its job"))
        .collect()
}

/// Outcome of one isolated job run by [`run_isolated`].
#[derive(Debug)]
pub struct JobResult<R> {
    /// The job's return value, or the panic message when it unwound.
    pub result: Result<R, String>,
    /// Wall-clock time the job took.
    pub wall: Duration,
    /// True when the job finished but blew through the wall-clock budget.
    /// Budgets are post-hoc — a scoped thread cannot be killed, so an
    /// over-budget job still runs to completion (true in-run hang
    /// protection is the simulator watchdog); the flag lets the driver
    /// report it and fail the batch.
    pub over_budget: bool,
    /// Newest checkpoint written in this job's scope, when checkpointing
    /// was on. Reported in the failure summary so a killed batch can be
    /// resumed by hand, and used by the in-process auto-resume.
    pub last_checkpoint: Option<PathBuf>,
    /// True when the job panicked and was re-run from its latest
    /// checkpoint (whether or not the re-run then succeeded).
    pub resumed: bool,
}

impl<R> JobResult<R> {
    /// Did this job finish normally and within budget?
    pub fn ok(&self) -> bool {
        self.result.is_ok() && !self.over_budget
    }
}

/// One guarded attempt at a job: the panic message becomes `Err`.
fn attempt<T, R>(f: &(impl Fn(usize, T) -> R + Sync), i: usize, x: T) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(|| f(i, x))).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic with non-string payload".to_string()
        }
    })
}

/// Supervisor retry policy for [`run_isolated_with`].
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Maximum re-attempts after the first failure.
    pub retries: u32,
    /// Backoff slept before the first retry, doubling per further retry
    /// (each sleep capped at 5 s). Zero sleeps not at all.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            retries: 1,
            backoff: Duration::ZERO,
        }
    }
}

/// Like [`run_indexed`], but each job is isolated: a panicking job is
/// caught and reported as `Err(message)` in its slot instead of tearing
/// down the whole batch, and each job's wall-clock time is measured
/// against an optional `budget`. Results remain in input order.
///
/// When checkpointing is on and a job panics after writing at least one
/// snapshot, the job is re-run **once** with that snapshot armed as a
/// resume image: the re-run replays the experiment's deterministic setup
/// and overlays the saved state mid-flight, so a transient crash costs
/// only the work since the last checkpoint. The original panic message is
/// kept if the re-run fails too.
pub fn run_isolated<T, R, F>(
    inputs: Vec<T>,
    jobs: usize,
    scheduler: SchedulerKind,
    budget: Option<Duration>,
    f: F,
) -> Vec<JobResult<R>>
where
    T: Send + Clone,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    run_isolated_with(inputs, jobs, scheduler, budget, RetryPolicy::default(), f)
}

/// [`run_isolated`] under an explicit supervisor [`RetryPolicy`]: up to
/// `policy.retries` re-attempts with exponential backoff. A re-attempt
/// needs a recovery path — either a checkpoint image to arm, or an
/// installed [`xpass_sim::ingest`] source (journal replay rebuilds the
/// run deterministically); with neither, the job fails plainly.
///
/// Crash-looping (two or more consecutive failures) marks the metrics
/// plane degraded — `/health` answers 503 — until a retry succeeds;
/// retry exhaustion leaves the plane degraded with the final reason.
pub fn run_isolated_with<T, R, F>(
    inputs: Vec<T>,
    jobs: usize,
    scheduler: SchedulerKind,
    budget: Option<Duration>,
    policy: RetryPolicy,
    f: F,
) -> Vec<JobResult<R>>
where
    T: Send + Clone,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    run_indexed(inputs, jobs, scheduler, |i, x| {
        let start = Instant::now();
        let mut result = attempt(&f, i, x.clone());
        let mut attempts = 0u32;
        let mut marked = false;
        while result.is_err() && attempts < policy.retries {
            let img = checkpoint::latest_checkpoint().and_then(|p| checkpoint::load_image(&p).ok());
            let journaled = xpass_sim::ingest::current().is_some();
            if img.is_none() && !journaled {
                break; // nothing to resume from
            }
            attempts += 1;
            if attempts >= 2 {
                if let Some(p) = metrics::plane() {
                    let last = result.as_ref().err().cloned().unwrap_or_default();
                    p.set_degraded(Some(format!(
                        "crash-looping: {attempts} consecutive failures (last: {last})"
                    )));
                    marked = true;
                }
            }
            if !policy.backoff.is_zero() {
                let exp = policy.backoff.saturating_mul(1u32 << (attempts - 1).min(6));
                std::thread::sleep(exp.min(Duration::from_secs(5)));
            }
            // Number the networks from 0 again, as in the original attempt,
            // then arm the image — when there is one — so the network it
            // targets restores at the recorded run call. Journal-backed jobs
            // rebuild by replaying the journal.
            run_ctx::restart_scope();
            if let Some(img) = img {
                checkpoint::arm_resume(img);
            }
            result = attempt(&f, i, x.clone()).or(result);
        }
        if marked {
            if let Some(p) = metrics::plane() {
                if result.is_ok() {
                    p.set_degraded(None);
                } else {
                    p.set_degraded(Some(format!(
                        "supervisor retry budget exhausted after {attempts} retries"
                    )));
                }
            }
        }
        let wall = start.elapsed();
        JobResult {
            result,
            wall,
            over_budget: budget.is_some_and(|b| wall > b),
            last_checkpoint: checkpoint::latest_checkpoint(),
            resumed: attempts > 0,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order_for_any_job_count() {
        let inputs: Vec<u64> = (0..37).collect();
        let serial = run_indexed(inputs.clone(), 1, SchedulerKind::Calendar, |i, x| {
            (i, x * x)
        });
        for jobs in [2, 4, 16, 64] {
            let par = run_indexed(inputs.clone(), jobs, SchedulerKind::Calendar, |i, x| {
                (i, x * x)
            });
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn workers_inherit_the_requested_scheduler() {
        use xpass_sim::event::{thread_scheduler, EventQueue};
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let got = run_indexed(vec![(); 8], 4, kind, |_, _| {
                assert_eq!(thread_scheduler(), kind);
                EventQueue::<()>::new().scheduler()
            });
            assert!(got.iter().all(|&k| k == kind));
        }
    }

    #[test]
    fn more_jobs_than_inputs_is_fine() {
        let r = run_indexed(vec![1, 2], 16, SchedulerKind::Calendar, |_, x| x + 1);
        assert_eq!(r, vec![2, 3]);
    }

    #[test]
    fn empty_input_returns_empty() {
        let r: Vec<u32> = run_indexed(Vec::<u32>::new(), 4, SchedulerKind::Calendar, |_, x| x);
        assert!(r.is_empty());
    }

    #[test]
    fn a_panicking_job_does_not_sink_the_batch() {
        // Quiet the default panic hook: the unwinds here are deliberate.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = run_isolated(vec![1, 2, 3], 4, SchedulerKind::Calendar, None, |_, x| {
            if x == 2 {
                panic!("boom on {x}");
            }
            x * 10
        });
        std::panic::set_hook(prev);
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].result.as_ref().unwrap(), &10);
        assert_eq!(r[1].result.as_ref().unwrap_err(), "boom on 2");
        assert!(!r[1].ok());
        assert_eq!(r[2].result.as_ref().unwrap(), &30);
        assert!(r[0].ok() && r[2].ok());
    }

    #[test]
    fn over_budget_jobs_are_flagged_but_complete() {
        let budget = Some(Duration::from_nanos(1));
        let r = run_isolated(vec![0u64; 2], 1, SchedulerKind::Calendar, budget, |_, _| {
            // Any real work exceeds a 1 ns budget.
            std::thread::sleep(Duration::from_millis(2));
            7u64
        });
        assert!(r.iter().all(|j| j.result.is_ok()), "jobs still complete");
        assert!(r.iter().all(|j| j.over_budget && !j.ok()));
    }

    #[test]
    fn in_budget_jobs_are_ok() {
        let budget = Some(Duration::from_secs(3600));
        let r = run_isolated(vec![1u32], 1, SchedulerKind::Calendar, budget, |_, x| x);
        assert!(r[0].ok());
        assert!(r[0].wall <= Duration::from_secs(3600));
        assert!(r[0].last_checkpoint.is_none(), "no checkpointing was on");
        assert!(!r[0].resumed);
    }

    #[test]
    fn the_callers_context_survives_a_return_and_a_panic() {
        use xpass_sim::checkpoint::CheckpointConfig;
        use xpass_sim::event::thread_scheduler;
        use xpass_sim::time::{Dur, SimTime};
        let dir = std::env::temp_dir().join(format!("xpass-par-restore-{}", std::process::id()));
        checkpoint::install(
            Some(CheckpointConfig {
                every: Dur::ms(1),
                dir: dir.clone(),
                keep: 1,
            }),
            None,
        );
        metrics::install(metrics::MetricsSpec::default(), None);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for (round, panics) in [false, true].into_iter().enumerate() {
            let r = catch_unwind(|| {
                run_indexed(vec![()], 1, SchedulerKind::Heap, |_, _| {
                    assert_eq!(thread_scheduler(), SchedulerKind::Heap);
                    assert!(!panics, "job fails");
                })
            });
            assert_eq!(r.is_err(), panics);
            // The caller's scheduler, job key, scope path and network count.
            assert_eq!(thread_scheduler(), SchedulerKind::Calendar);
            let (ckpt, sampler) = run_ctx::register_network();
            assert_eq!(sampler.unwrap().plane_key(), format!("main#net{round}"));
            let mut hook = ckpt.unwrap();
            hook.on_run_call();
            hook.write(SimTime(1), b"s");
            let img = checkpoint::load_image(&checkpoint::latest_checkpoint().unwrap()).unwrap();
            assert_eq!((img.scope, img.net_index), (vec![], round as u64));
        }
        std::panic::set_hook(prev);
        checkpoint::clear();
        metrics::clear();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn workers_inherit_scoped_checkpoint_contexts() {
        use xpass_sim::checkpoint::CheckpointConfig;
        use xpass_sim::time::{Dur, SimTime};
        let dir = std::env::temp_dir().join(format!("xpass-par-scope-{}", std::process::id()));
        checkpoint::install(
            Some(CheckpointConfig {
                every: Dur::ms(1),
                dir: dir.clone(),
                keep: 2,
            }),
            None,
        );
        // 3 jobs on 3 workers: each must see its own scope, not the
        // caller's and not another job's.
        run_indexed(vec![(); 3], 3, SchedulerKind::Calendar, |_, _| {
            let mut hook = run_ctx::register_network().0.expect("scope on worker");
            hook.on_run_call();
            hook.write(SimTime(1), b"s");
        });
        for i in 0..3 {
            let d = dir.join(format!("scope-{i}")).join("net0");
            assert!(d.is_dir(), "missing per-job snapshot dir {}", d.display());
        }
        checkpoint::clear();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicked_job_auto_resumes_from_its_checkpoint() {
        use xpass_sim::checkpoint::CheckpointConfig;
        use xpass_sim::time::{Dur, SimTime};
        let dir = std::env::temp_dir().join(format!("xpass-par-resume-{}", std::process::id()));
        checkpoint::install(
            Some(CheckpointConfig {
                every: Dur::ms(1),
                dir: dir.clone(),
                keep: 2,
            }),
            None,
        );
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        // First attempt: checkpoint mid-"run", then die. The harness must
        // re-run the job with the image armed, and the retry's first run
        // call then sees the saved state instead of starting over.
        let r = run_isolated(vec![()], 1, SchedulerKind::Calendar, None, |_, _| {
            let mut hook = run_ctx::register_network().0.expect("hook");
            match hook.on_run_call() {
                Some(state) => String::from_utf8(state).unwrap(),
                None => {
                    hook.write(SimTime(1), b"mid-run state");
                    panic!("crash after the checkpoint");
                }
            }
        });
        std::panic::set_hook(prev);
        assert_eq!(r[0].result.as_ref().unwrap(), "mid-run state");
        assert!(r[0].resumed, "retry must go through the resume path");
        assert!(r[0].last_checkpoint.is_some());
        checkpoint::clear();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_backed_jobs_retry_without_checkpoints() {
        use std::sync::atomic::AtomicU32;
        checkpoint::clear();
        xpass_sim::ingest::install(xpass_sim::ingest::Source {
            journal: PathBuf::from("/nonexistent/xpass-journal.jsonl"),
            queue: None,
            live: false,
        });
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let tries = AtomicU32::new(0);
        let r = run_isolated_with(
            vec![()],
            1,
            SchedulerKind::Calendar,
            None,
            RetryPolicy {
                retries: 3,
                backoff: Duration::ZERO,
            },
            |_, _| {
                if tries.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("flaky");
                }
                42u32
            },
        );
        std::panic::set_hook(prev);
        xpass_sim::ingest::clear();
        assert_eq!(r[0].result.as_ref().unwrap(), &42);
        assert!(r[0].resumed, "journal presence must permit retries");
    }

    #[test]
    fn a_job_without_checkpoints_fails_plainly() {
        checkpoint::clear();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = run_isolated(vec![()], 1, SchedulerKind::Calendar, None, |_, _| {
            panic!("no safety net");
        });
        std::panic::set_hook(prev);
        assert_eq!(r[0].result.as_ref().unwrap_err(), "no safety net");
        assert!(!r[0].resumed);
        assert!(r[0].last_checkpoint.is_none());
    }
}
