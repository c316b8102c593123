//! `xpass-repro` — run any paper experiment from the command line.
//!
//! ```text
//! xpass-repro list                    # show available experiments
//! xpass-repro --list                  # machine-friendly name/description list
//! xpass-repro fig16                   # run one experiment, print its table
//! xpass-repro all                     # run everything
//! xpass-repro fig01 fig10 fig16       # run several experiments
//! xpass-repro all --jobs 4            # run experiments on 4 worker threads
//! xpass-repro fig16 --scheduler heap  # use the reference heap scheduler
//! xpass-repro fig17 --paper-scale     # use the paper's full parameters
//! xpass-repro fig19 --seed 7          # override the experiment RNG seed
//! xpass-repro fig19 --json out/       # also write out/fig19.json
//! xpass-repro fig19 --trace t.jsonl   # record a structured event trace
//! xpass-repro run scenario.json       # run a declarative scenario file
//! ```
//!
//! Every experiment implements the [`Experiment`] trait and is dispatched
//! through [`registry`] — the binary holds no
//! per-experiment code.
//!
//! `--json <dir>` writes one machine-readable record per experiment to
//! `<dir>/<name>.json`, shaped `{schema, name, paper_scale, seed,
//! payload}` with schema `xpass-repro/v1`. The payload is the experiment's
//! structured result (the same rows as the text table, plus
//! counters/engine/health where captured).
//!
//! `--trace <file>` streams trace events as JSON Lines from experiments
//! that support tracing (fig19 and scenarios).
//!
//! `--jobs N` runs the selected experiments on up to N worker threads
//! (one single-threaded engine per experiment). Results are printed and
//! written in experiment order regardless of completion order, so stdout
//! and the `--json` directory are byte-identical for every N.
//!
//! Experiments run isolated: a panicking experiment is caught and
//! reported instead of sinking the batch — the rest still run, the
//! failures are summarised on stderr, and the process exits non-zero.
//! `--budget-secs N` additionally fails any experiment whose wall-clock
//! time exceeds N seconds (it still runs to completion and prints; true
//! in-run hang protection is the simulator watchdog).
//!
//! `--scheduler heap|calendar` selects the event-queue implementation
//! (default: calendar, the fast path). Both produce identical results —
//! the differential test suite pins it — so this flag only exists for
//! benchmarking and verification.
//!
//! `run <file.json...>` executes declarative scenarios (schema
//! `xpass-scenario/v1`, see `EXPERIMENTS.md` and `examples/scenarios/`)
//! through the same pipeline: `--seed`, `--json`, `--trace`, and `--jobs`
//! all apply.
//!
//! `--metrics <file>` turns on the live metrics plane and writes every
//! network's sampled time-series (schema `xpass-metrics/v1`, JSON Lines)
//! at the end of the run, in experiment-selection order. The sampler runs
//! on simulation time (`--metrics-interval-ms`, default 1 ms) and is
//! observation-only: results are identical with or without it, and runs
//! with all metrics flags off remain byte-identical to a build without
//! the subsystem. `--http-addr <ip:port>` additionally serves the live
//! plane over HTTP while the run executes: `/metrics` (Prometheus text
//! exposition), `/health`, `/engine`, and `/progress` (JSON), one labelled
//! section per job under `--jobs N`. `serve <experiment...>` is the
//! long-lived variant: it keeps the process alive (still serving the
//! final state) after the runs complete; `--addr` is an alias for
//! `--http-addr` (default `127.0.0.1:0`, the bound address is printed on
//! stderr). `--progress <secs>` prints a one-line stderr heartbeat every
//! N simulated seconds (sim time, events/s, flow counts, ETA).
//!
//! `serve <target> --ingest <journal>` turns the process into a
//! long-lived streaming service: the target must be a single experiment
//! (or `run <scenario.json>`) whose workload is `{"$stream": true}` —
//! flows arrive at runtime via `POST /ingest` (schema `xpass-ingest/v1`:
//! objects, arrays, or JSON Lines of `{"src","dst","size_bytes"}`)
//! and/or a tailed trace file (`--ingest-tail <file>`, one record per
//! appended line). Arrivals pass token-bucket admission control
//! (`--ingest-rate <per-sec>`, default 10000; shed requests get HTTP 429
//! with `Retry-After`) into a bounded queue, are admitted at
//! deterministic sim-time boundaries, and every admission is appended to
//! the journal — so `--ingest-replay <journal>` re-runs the live session
//! offline, byte-identically. `GET /ws` upgrades to a WebSocket pushing
//! `xpass-metrics/v1` samples and health transitions; slow consumers are
//! disconnected without perturbing the run. `--retries <n>` sets the
//! supervisor retry budget (default 3 under serve, 1 otherwise): a
//! crashed job auto-resumes from its newest checkpoint (or by journal
//! replay) with exponential backoff; a crash loop degrades `/health` to
//! 503, and retry exhaustion exits non-zero naming the last snapshot.
//! SIGINT/SIGTERM end a serve gracefully: the journal is sealed, a final
//! checkpoint is written, and the process exits 0.
//!
//! `--checkpoint-every <sim-ms> --checkpoint-dir <dir>` writes a
//! `xpass-snap/v5` snapshot of every simulated network each `<sim-ms>`
//! milliseconds of *simulation* time (atomic write + rename, last few
//! kept per network). A crashed job is retried once in-process from its
//! latest snapshot; the failure summary names the snapshot so a killed
//! batch can be resumed by hand. `--resume <file>` re-runs the one
//! experiment the snapshot was taken in — replaying its deterministic
//! setup, overlaying the saved state mid-flight — and produces output
//! byte-identical to the uninterrupted run (`--seed`/`--paper-scale`
//! come from the snapshot; for a scenario snapshot pass the scenario
//! file too: `--resume <snap> run <file.json>`). A snapshot resumes only
//! under the metering it was taken with: `--resume` refuses a `--metrics`
//! on/off or `--metrics-interval-ms` mismatch before the run starts.

use std::env;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use xpass::experiments::{parallel, registry, scenario, Experiment, ExperimentOutput};
use xpass::sim::checkpoint::{self, CheckpointConfig, RunLabel};
use xpass::sim::event::SchedulerKind;
use xpass::sim::http;
use xpass::sim::ingest::{self, IngestQueue};
use xpass::sim::json::Json;
use xpass::sim::metrics::{self, MetricsSpec, Plane};
use xpass::sim::run_ctx;
use xpass::sim::signal;
use xpass::sim::time::Dur;
use xpass::sim::trace::{JsonlSink, TraceSink};
use xpass::sim::ws;

/// Snapshots kept per network before old ones are pruned.
const CHECKPOINT_KEEP: usize = 3;

/// Bound on arrivals queued between admission boundaries.
const INGEST_QUEUE_CAP: usize = 65_536;

/// Lines buffered for WebSocket push before slow consumers start lagging.
const WS_FEED_CAP: usize = 1024;

/// Options shared by every experiment runner.
struct RunOpts {
    /// Use the paper's full-scale parameters.
    paper_scale: bool,
    /// RNG seed override (experiments keep their defaults when `None`).
    seed: Option<u64>,
    /// JSONL trace destination, for experiments that support tracing.
    trace: Option<PathBuf>,
}

/// Apply the CLI options to every selected experiment, through the trait.
fn configure(exps: &mut [Box<dyn Experiment>], opts: &RunOpts) {
    for e in exps.iter_mut() {
        e.default_config();
        if opts.paper_scale {
            // Returns false (config untouched) for experiments with no
            // separate paper scale — silently, matching the old CLI.
            e.paper_scale_config();
        }
        if let Some(s) = opts.seed {
            e.set_seed(s);
        }
    }
}

/// Open the `--trace` destination as a boxed sink (or `None`).
fn open_trace(path: Option<&Path>) -> Option<Box<dyn TraceSink>> {
    let path = path?;
    match JsonlSink::create(path) {
        Ok(sink) => Some(Box::new(sink)),
        Err(e) => {
            eprintln!(
                "xpass-repro: cannot open trace file {}: {e}",
                path.display()
            );
            None
        }
    }
}

fn usage() -> String {
    let mut s = String::from(
        "usage: xpass-repro <experiment...|all|list> [--paper-scale] [--seed <u64>]\n\
         \x20                 [--json <dir>] [--trace <file>] [--jobs <n>]\n\
         \x20                 [--scheduler heap|calendar] [--budget-secs <n>]\n\
         \x20                 [--checkpoint-every <sim-ms> --checkpoint-dir <dir>]\n\
         \x20                 [--metrics <file>] [--metrics-interval-ms <n>]\n\
         \x20                 [--http-addr <ip:port>] [--progress <secs>]\n\
         \x20      xpass-repro run <scenario.json...> [same flags]\n\
         \x20      xpass-repro serve <experiment...> [--addr <ip:port>] [--retries <n>]\n\
         \x20                 [--ingest <journal> [--ingest-rate <per-sec>]\n\
         \x20                  [--ingest-tail <file>] | --ingest-replay <journal>]\n\
         \x20                 [same flags]\n\
         \x20      xpass-repro --resume <snapshot.snap> [run <scenario.json>] [same flags]\n\nexperiments:\n",
    );
    for e in registry::all() {
        s.push_str(&format!("  {:<10} {}\n", e.name(), e.describe()));
    }
    s
}

/// Write `<dir>/<name>.json`: the experiment's machine-readable record.
fn write_json_record(
    dir: &Path,
    e: &dyn Experiment,
    opts: &RunOpts,
    out: &ExperimentOutput,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let record = Json::obj()
        .with("schema", Json::str("xpass-repro/v1"))
        .with("name", Json::str(e.name()))
        .with("paper_scale", Json::Bool(opts.paper_scale))
        .with(
            "seed",
            match opts.seed {
                Some(s) => Json::num_u64(s),
                None => Json::Null,
            },
        )
        .with("payload", out.json.clone());
    let path = dir.join(format!("{}.json", e.name()));
    std::fs::write(&path, format!("{record}\n"))?;
    Ok(path)
}

/// Run the selected experiments — serially inline for `jobs <= 1`, on a
/// scoped worker pool otherwise — then print tables and write `--json`
/// records **in selection order**, so output bytes are independent of the
/// job count and of thread scheduling.
///
/// Each experiment runs isolated: one panicking (or over-budget)
/// experiment never sinks the batch. The rest still run and print; the
/// failures are summarised on stderr at the end and the run exits
/// non-zero.
#[allow(clippy::too_many_arguments)]
fn run_selected(
    selected: &[Box<dyn Experiment>],
    opts: &RunOpts,
    json_dir: Option<&Path>,
    jobs: usize,
    scheduler: SchedulerKind,
    budget: Option<Duration>,
    policy: parallel::RetryPolicy,
    banners: bool,
    metrics_out: Option<&Path>,
) -> bool {
    if opts.trace.is_some() {
        for e in selected {
            if !e.traces() {
                eprintln!(
                    "xpass-repro: note: {} does not record traces; --trace ignored",
                    e.name()
                );
            }
        }
    }
    let refs: Vec<&dyn Experiment> = selected.iter().map(Box::as_ref).collect();
    let outputs = parallel::run_isolated_with(refs, jobs, scheduler, budget, policy, |_, e| {
        // Name the job before it builds a network: its metrics publish
        // under the experiment name, and snapshot headers carry what
        // `--resume` needs to rebuild the exact run.
        run_ctx::set_label(RunLabel {
            name: e.name().to_string(),
            seed: opts.seed,
            paper_scale: opts.paper_scale,
        });
        let sink = if e.traces() {
            open_trace(opts.trace.as_deref())
        } else {
            None
        };
        e.run(sink)
    });
    let mut ok = true;
    let mut failures: Vec<String> = Vec::new();
    for (e, job) in selected.iter().zip(&outputs) {
        if banners {
            println!("==== {} — {} ====", e.name(), e.describe());
        }
        let ckpt_note = |s: &mut String| {
            if let Some(p) = &job.last_checkpoint {
                s.push_str(&format!(" (latest checkpoint: {})", p.display()));
            }
        };
        if job.resumed && job.result.is_ok() {
            eprintln!(
                "xpass-repro: {} crashed and was resumed (latest checkpoint or \
                 ingest-journal replay)",
                e.name()
            );
        }
        match &job.result {
            Ok(out) => {
                println!("{}", out.text);
                if let Some(dir) = json_dir {
                    match write_json_record(dir, e.as_ref(), opts, out) {
                        Ok(path) => eprintln!("xpass-repro: wrote {}", path.display()),
                        Err(err) => {
                            eprintln!("xpass-repro: cannot write JSON record: {err}");
                            ok = false;
                        }
                    }
                }
            }
            Err(msg) => {
                let mut line = format!("{}: panicked: {msg}", e.name());
                ckpt_note(&mut line);
                failures.push(line);
            }
        }
        if job.over_budget {
            let mut line = format!(
                "{}: exceeded the {:?} wall-clock budget (took {:.1?})",
                e.name(),
                budget.unwrap_or_default(),
                job.wall,
            );
            ckpt_note(&mut line);
            failures.push(line);
        }
    }
    if let Some(path) = metrics_out {
        let names: Vec<String> = selected.iter().map(|e| e.name().to_string()).collect();
        let series = metrics::plane().map(|p| p.jsonl_for_jobs(&names));
        match std::fs::write(path, series.unwrap_or_default()) {
            Ok(()) => eprintln!("xpass-repro: wrote {}", path.display()),
            Err(err) => {
                eprintln!(
                    "xpass-repro: cannot write metrics file {}: {err}",
                    path.display()
                );
                ok = false;
            }
        }
    }
    if !failures.is_empty() {
        let n = selected
            .iter()
            .zip(&outputs)
            .filter(|(_, j)| !j.ok())
            .count();
        eprintln!(
            "xpass-repro: {n} of {} experiment(s) failed:",
            selected.len()
        );
        for f in &failures {
            eprintln!("  {f}");
        }
        ok = false;
    }
    ok
}

fn exit(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--resume <file>`: load the snapshot, rebuild the one experiment it was
/// taken in, arm the image, and run to completion. Every failure mode here
/// is a clean diagnostic + non-zero exit — a corrupt, truncated, or
/// version-mismatched snapshot must never panic.
#[allow(clippy::too_many_arguments)]
fn run_resume(
    snap_path: &Path,
    targets: &[String],
    opts: &mut RunOpts,
    json_dir: Option<&Path>,
    jobs: usize,
    scheduler: SchedulerKind,
    budget: Option<Duration>,
    ckpt_cfg: Option<CheckpointConfig>,
    metrics_out: Option<&Path>,
) -> ExitCode {
    let mut img = match checkpoint::load_image(snap_path) {
        Ok(img) => img,
        Err(e) => {
            eprintln!(
                "xpass-repro: cannot resume from {}: {e}",
                snap_path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    if opts.seed.is_some() || opts.paper_scale {
        eprintln!(
            "xpass-repro: --resume restores --seed and --paper-scale from the \
             snapshot; drop the explicit flags"
        );
        return ExitCode::FAILURE;
    }
    // A network restores only under the metering it was snapshotted with.
    let (taken, now) = (img.metering, metrics::sample_interval());
    if taken != now {
        let under = |m: Option<Dur>| {
            m.map_or("without --metrics".into(), |d| {
                format!("with --metrics sampling every {d}")
            })
        };
        eprintln!(
            "xpass-repro: snapshot {} was taken {} but would resume {}; resume \
             with the same --metrics and --metrics-interval-ms",
            snap_path.display(),
            under(taken),
            under(now)
        );
        return ExitCode::FAILURE;
    }
    let name = img.label.name.clone();
    // Rebuild the experiment the snapshot names: from the registry, or —
    // for scenario snapshots, whose config lives in the file — from a
    // `run <file.json>` target whose name must match.
    let exp: Box<dyn Experiment> = match targets {
        [] => match registry::find(&name) {
            Some(e) => e,
            None => {
                eprintln!(
                    "xpass-repro: snapshot {} was taken in '{name}', which is not a \
                     registry experiment; if it is a scenario, pass the file: \
                     xpass-repro --resume <snap> run <scenario.json>",
                    snap_path.display()
                );
                return ExitCode::FAILURE;
            }
        },
        [t] if *t == name => match registry::find(&name) {
            Some(e) => e,
            None => {
                eprintln!("xpass-repro: unknown experiment '{name}'");
                return ExitCode::FAILURE;
            }
        },
        [run, file] if run == "run" => match scenario::load(Path::new(file)) {
            Ok(e) => {
                if e.name() != name {
                    eprintln!(
                        "xpass-repro: snapshot {} was taken in '{name}' but {file} \
                         defines '{}'",
                        snap_path.display(),
                        e.name()
                    );
                    return ExitCode::FAILURE;
                }
                Box::new(e)
            }
            Err(e) => {
                eprintln!("xpass-repro: {e}");
                return ExitCode::FAILURE;
            }
        },
        _ => {
            eprintln!(
                "xpass-repro: --resume runs exactly the experiment the snapshot was \
                 taken in ('{name}'); drop the extra targets"
            );
            return ExitCode::FAILURE;
        }
    };
    // The run must be bit-for-bit the one the snapshot interrupted.
    opts.seed = img.label.seed;
    opts.paper_scale = img.label.paper_scale;
    let mut selected = vec![exp];
    configure(&mut selected, opts);
    // The image may come from any job index of the original batch; the
    // resume run has exactly one job, index 0.
    checkpoint::rebase_scope(&mut img, 0);
    checkpoint::install(ckpt_cfg, Some(img));
    exit(run_selected(
        &selected,
        opts,
        json_dir,
        jobs,
        scheduler,
        budget,
        parallel::RetryPolicy::default(),
        false,
        metrics_out,
    ))
}

/// Newest `*.snap` under `dir` (recursing into per-scope subdirs), by
/// modification time — what `serve --ingest` arms on startup so a
/// SIGKILLed service resumes mid-flight instead of replaying from zero.
fn newest_snapshot(dir: &Path) -> Option<PathBuf> {
    let mut best: Option<(std::time::SystemTime, PathBuf)> = None;
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
                let t = e
                    .metadata()
                    .and_then(|m| m.modified())
                    .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                if best.as_ref().is_none_or(|(bt, _)| t >= *bt) {
                    best = Some((t, p));
                }
            }
        }
    }
    best.map(|(_, p)| p)
}

/// Follow `path` for appended JSON Lines of arrivals and offer them to
/// the admission queue. Runs on its own thread until shutdown; shed
/// batches are retried after the queue's hint, bad lines are skipped
/// with a diagnostic. A truncated file restarts from offset zero.
fn tail_loop(path: PathBuf, queue: IngestQueue) {
    use std::io::{Read, Seek, SeekFrom};
    let mut offset: u64 = 0;
    let mut pending = String::new();
    while !signal::shutdown_requested() {
        if let Ok(mut f) = std::fs::File::open(&path) {
            let len = f.metadata().map(|m| m.len()).unwrap_or(0);
            if len < offset {
                offset = 0;
                pending.clear();
            }
            if len > offset && f.seek(SeekFrom::Start(offset)).is_ok() {
                let mut buf = String::new();
                if f.read_to_string(&mut buf).is_ok() {
                    offset = len;
                    pending.push_str(&buf);
                }
            }
        }
        while let Some(nl) = pending.find('\n') {
            let line: String = pending.drain(..=nl).collect();
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match ingest::parse_arrivals(line) {
                Ok(batch) => loop {
                    match queue.offer(&batch) {
                        ingest::Offer::Accepted(_) => break,
                        ingest::Offer::RateLimited(secs) | ingest::Offer::QueueFull(secs) => {
                            std::thread::sleep(Duration::from_millis(
                                (secs * 1000).clamp(50, 1000),
                            ));
                            if signal::shutdown_requested() {
                                return;
                            }
                        }
                    }
                },
                Err(e) => eprintln!("xpass-repro: ingest tail: skipping bad line: {e}"),
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn main() -> ExitCode {
    let mut args = env::args().skip(1);
    let mut opts = RunOpts {
        paper_scale: false,
        seed: None,
        trace: None,
    };
    let mut json_dir: Option<PathBuf> = None;
    let mut jobs: usize = 1;
    let mut budget: Option<Duration> = None;
    let mut list = false;
    let mut scheduler = SchedulerKind::default();
    let mut ckpt_every: Option<Dur> = None;
    let mut ckpt_dir: Option<PathBuf> = None;
    let mut resume: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut metrics_interval = Dur::ms(1);
    let mut http_addr: Option<String> = None;
    let mut progress: Option<Dur> = None;
    let mut ingest_live: Option<PathBuf> = None;
    let mut ingest_replay: Option<PathBuf> = None;
    let mut ingest_rate: f64 = 10_000.0;
    let mut ingest_tail: Option<PathBuf> = None;
    let mut retries: Option<u32> = None;
    let mut targets: Vec<String> = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--checkpoint-every" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n >= 1 => ckpt_every = Some(Dur::ms(n)),
                _ => {
                    eprintln!(
                        "xpass-repro: --checkpoint-every needs a sim-time interval \
                         in ms (integer >= 1)\n"
                    );
                    eprint!("{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--checkpoint-dir" => match args.next() {
                Some(d) => ckpt_dir = Some(PathBuf::from(d)),
                None => {
                    eprintln!("xpass-repro: --checkpoint-dir needs a directory\n");
                    eprint!("{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--resume" => match args.next() {
                Some(f) => resume = Some(PathBuf::from(f)),
                None => {
                    eprintln!("xpass-repro: --resume needs a snapshot file\n");
                    eprint!("{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--paper-scale" => opts.paper_scale = true,
            "--list" => list = true,
            "--seed" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(s) => opts.seed = Some(s),
                None => {
                    eprintln!("xpass-repro: --seed needs an unsigned integer\n");
                    eprint!("{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => jobs = n,
                _ => {
                    eprintln!("xpass-repro: --jobs needs an integer >= 1\n");
                    eprint!("{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--scheduler" => match args.next().as_deref().and_then(SchedulerKind::parse) {
                Some(k) => scheduler = k,
                None => {
                    eprintln!("xpass-repro: --scheduler needs 'heap' or 'calendar'\n");
                    eprint!("{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--budget-secs" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n >= 1 => budget = Some(Duration::from_secs(n)),
                _ => {
                    eprintln!("xpass-repro: --budget-secs needs an integer >= 1\n");
                    eprint!("{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--json" => match args.next() {
                Some(d) => json_dir = Some(PathBuf::from(d)),
                None => {
                    eprintln!("xpass-repro: --json needs an output directory\n");
                    eprint!("{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => match args.next() {
                Some(f) => opts.trace = Some(PathBuf::from(f)),
                None => {
                    eprintln!("xpass-repro: --trace needs an output file\n");
                    eprint!("{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--metrics" => match args.next() {
                Some(f) => metrics_out = Some(PathBuf::from(f)),
                None => {
                    eprintln!("xpass-repro: --metrics needs an output file\n");
                    eprint!("{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--metrics-interval-ms" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n >= 1 => metrics_interval = Dur::ms(n),
                _ => {
                    eprintln!(
                        "xpass-repro: --metrics-interval-ms needs a sim-time interval \
                         in ms (integer >= 1)\n"
                    );
                    eprint!("{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--http-addr" | "--addr" => match args.next() {
                Some(a) => http_addr = Some(a),
                None => {
                    eprintln!("xpass-repro: {a} needs an <ip:port> address\n");
                    eprint!("{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--ingest" => match args.next() {
                Some(f) => ingest_live = Some(PathBuf::from(f)),
                None => {
                    eprintln!("xpass-repro: --ingest needs a journal file\n");
                    eprint!("{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--ingest-replay" => match args.next() {
                Some(f) => ingest_replay = Some(PathBuf::from(f)),
                None => {
                    eprintln!("xpass-repro: --ingest-replay needs a journal file\n");
                    eprint!("{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--ingest-rate" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(r) if r > 0.0 && r.is_finite() => ingest_rate = r,
                _ => {
                    eprintln!("xpass-repro: --ingest-rate needs arrivals per second (> 0)\n");
                    eprint!("{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--ingest-tail" => match args.next() {
                Some(f) => ingest_tail = Some(PathBuf::from(f)),
                None => {
                    eprintln!("xpass-repro: --ingest-tail needs a trace file to follow\n");
                    eprint!("{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--retries" => match args.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(n) => retries = Some(n),
                None => {
                    eprintln!("xpass-repro: --retries needs an unsigned integer\n");
                    eprint!("{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--progress" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if s > 0.0 && s.is_finite() => progress = Some(Dur::from_secs_f64(s)),
                _ => {
                    eprintln!("xpass-repro: --progress needs a sim-seconds period (> 0)\n");
                    eprint!("{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            f if f.starts_with("--") => {
                eprintln!("xpass-repro: unknown flag '{f}'\n");
                eprint!("{}", usage());
                return ExitCode::FAILURE;
            }
            t => targets.push(t.to_string()),
        }
    }

    if list {
        for e in registry::all() {
            println!("{:<10} {}", e.name(), e.describe());
        }
        return ExitCode::SUCCESS;
    }

    let serve = targets.first().is_some_and(|t| t == "serve");
    if serve {
        targets.remove(0);
        if targets.is_empty() {
            eprintln!("xpass-repro: serve needs at least one experiment (e.g. serve fig10)\n");
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
        // Batch runs keep default signal behavior; only the long-lived
        // service shuts down gracefully (seal journal, final checkpoint).
        signal::install_shutdown_handler();
    }

    if ingest_live.is_some() && ingest_replay.is_some() {
        eprintln!("xpass-repro: --ingest and --ingest-replay are mutually exclusive\n");
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    }
    if ingest_live.is_some() && !serve {
        eprintln!("xpass-repro: --ingest requires serve (it keeps the process alive)\n");
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    }
    if ingest_tail.is_some() && ingest_live.is_none() {
        eprintln!("xpass-repro: --ingest-tail requires --ingest\n");
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    }
    let ingest_on = ingest_live.is_some() || ingest_replay.is_some();
    if ingest_on {
        let one_target = match targets.first().map(|s| s.as_str()) {
            Some("run") => targets.len() == 2,
            Some("all") | Some("list") | Some("help") | None => false,
            Some(_) => targets.len() == 1,
        };
        if !one_target || jobs != 1 {
            eprintln!(
                "xpass-repro: --ingest/--ingest-replay drive exactly one experiment \
                 on one job (a stream has a single journal)\n"
            );
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
        if resume.is_some() {
            eprintln!(
                "xpass-repro: --resume is implicit under --ingest (the newest \
                 checkpoint in --checkpoint-dir is armed automatically)\n"
            );
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
    }
    // Install the ingest source before the run dispatch: every job's run
    // context is forked from this thread's, so the experiment sees it.
    let mut ingest_queue: Option<IngestQueue> = None;
    if let Some(journal) = ingest_live.clone() {
        let q = IngestQueue::new(INGEST_QUEUE_CAP, ingest_rate);
        ingest_queue = Some(q.clone());
        ingest::install(ingest::Source {
            journal,
            queue: Some(q),
            live: true,
        });
    } else if let Some(journal) = ingest_replay.clone() {
        ingest::install(ingest::Source {
            journal,
            queue: None,
            live: false,
        });
    }
    if let (Some(path), Some(q)) = (ingest_tail.clone(), ingest_queue.clone()) {
        std::thread::Builder::new()
            .name("xpass-ingest-tail".to_string())
            .spawn(move || tail_loop(path, q))
            .expect("spawn ingest tail thread");
    }

    // Any metrics-facing flag turns the plane on; with everything off the
    // runtime is never installed and runs stay byte-identical.
    let metrics_on = metrics_out.is_some() || http_addr.is_some() || progress.is_some() || serve;
    let mut server: Option<http::Server> = None;
    if metrics_on {
        let plane = Plane::new();
        metrics::install(
            MetricsSpec {
                interval: metrics_interval,
                progress_every: progress,
                ..MetricsSpec::default()
            },
            Some(plane.clone()),
        );
        let addr = http_addr
            .clone()
            .or_else(|| serve.then(|| "127.0.0.1:0".to_string()));
        if let Some(addr) = addr {
            plane.set_feed(ws::Broadcast::new(WS_FEED_CAP));
            let cfg = http::ServerCfg {
                ingest: ingest_queue.clone(),
                ..http::ServerCfg::default()
            };
            match http::Server::serve_with(&addr, plane, cfg) {
                Ok(s) => {
                    eprintln!(
                        "xpass-repro: serving live metrics on http://{}/metrics",
                        s.local_addr()
                    );
                    server = Some(s);
                }
                Err(e) => {
                    eprintln!("xpass-repro: cannot bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    let ckpt_cfg = match (ckpt_every, ckpt_dir) {
        (Some(every), Some(dir)) => Some(CheckpointConfig {
            every,
            dir,
            keep: CHECKPOINT_KEEP,
        }),
        (Some(_), None) => {
            eprintln!("xpass-repro: --checkpoint-every needs --checkpoint-dir\n");
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
        (None, Some(_)) => {
            eprintln!("xpass-repro: --checkpoint-dir needs --checkpoint-every\n");
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
        (None, None) => None,
    };

    // Serve mode supervises harder by default: more retries, with
    // exponential backoff between attempts.
    let policy = parallel::RetryPolicy {
        retries: retries.unwrap_or(if serve { 3 } else { 1 }),
        backoff: if serve {
            Duration::from_millis(200)
        } else {
            Duration::ZERO
        },
    };

    let code = if let Some(snap_path) = resume {
        run_resume(
            &snap_path,
            &targets,
            &mut opts,
            json_dir.as_deref(),
            jobs,
            scheduler,
            budget,
            ckpt_cfg,
            metrics_out.as_deref(),
        )
    } else {
        if ckpt_cfg.is_some() {
            // A restarted ingest service resumes mid-flight: arm the
            // newest snapshot in the checkpoint dir (if any) so the
            // journal replay overlays it at the recorded run call
            // instead of re-simulating from zero.
            let mut resume_img = None;
            if ingest_on {
                if let Some(cfg) = &ckpt_cfg {
                    if let Some(p) = newest_snapshot(&cfg.dir) {
                        match checkpoint::load_image(&p) {
                            Ok(mut img) => {
                                checkpoint::rebase_scope(&mut img, 0);
                                eprintln!(
                                    "xpass-repro: arming resume from checkpoint {}",
                                    p.display()
                                );
                                resume_img = Some(img);
                            }
                            Err(e) => eprintln!(
                                "xpass-repro: ignoring unreadable checkpoint {}: {e}",
                                p.display()
                            ),
                        }
                    }
                }
            }
            checkpoint::install(ckpt_cfg, resume_img);
        }
        match targets.first().map(|s| s.as_str()) {
            None | Some("list") | Some("help") => {
                print!("{}", usage());
                ExitCode::SUCCESS
            }
            Some("run") => {
                let files = &targets[1..];
                if files.is_empty() {
                    eprintln!("xpass-repro: run needs at least one scenario file\n");
                    eprint!("{}", usage());
                    return ExitCode::FAILURE;
                }
                let mut selected: Vec<Box<dyn Experiment>> = Vec::with_capacity(files.len());
                for f in files {
                    match scenario::load(Path::new(f)) {
                        Ok(exp) => selected.push(Box::new(exp)),
                        Err(e) => {
                            eprintln!("xpass-repro: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                configure(&mut selected, &opts);
                let banners = selected.len() > 1;
                exit(run_selected(
                    &selected,
                    &opts,
                    json_dir.as_deref(),
                    jobs,
                    scheduler,
                    budget,
                    policy,
                    banners,
                    metrics_out.as_deref(),
                ))
            }
            Some("all") if targets.len() == 1 => {
                let mut selected = registry::all();
                configure(&mut selected, &opts);
                exit(run_selected(
                    &selected,
                    &opts,
                    json_dir.as_deref(),
                    jobs,
                    scheduler,
                    budget,
                    policy,
                    true,
                    metrics_out.as_deref(),
                ))
            }
            Some(_) => {
                let mut selected: Vec<Box<dyn Experiment>> = Vec::with_capacity(targets.len());
                for name in &targets {
                    match registry::find(name) {
                        Some(e) => selected.push(e),
                        None => {
                            eprintln!("xpass-repro: unknown experiment '{name}'\n");
                            eprint!("{}", usage());
                            return ExitCode::FAILURE;
                        }
                    }
                }
                configure(&mut selected, &opts);
                let banners = selected.len() > 1;
                exit(run_selected(
                    &selected,
                    &opts,
                    json_dir.as_deref(),
                    jobs,
                    scheduler,
                    budget,
                    policy,
                    banners,
                    metrics_out.as_deref(),
                ))
            }
        }
    };
    if serve {
        if let Some(srv) = &server {
            eprintln!(
                "xpass-repro: runs complete; still serving on http://{} (ctrl-c to exit)",
                srv.local_addr()
            );
            while !signal::shutdown_requested() {
                std::thread::sleep(Duration::from_millis(100));
            }
            eprintln!("xpass-repro: shutdown signal received; exiting");
        }
    }
    code
}
