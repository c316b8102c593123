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
//! objects, arrays, or JSON Lines of `{"src","dst","size_bytes"}`).
//! Arrivals pass token-bucket admission control
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
//! checkpoint is written, and the process exits 0. A restarted `serve
//! --ingest` re-enters its run from the newest snapshot in
//! `--checkpoint-dir` only when that snapshot passes the same gate as
//! `--resume` (below); otherwise it prints `ignoring checkpoint <path>:
//! <reason>` and replays the journal from zero, which rebuilds the run
//! deterministically.
//!
//! `--checkpoint-every <sim-ms> --checkpoint-dir <dir>` writes a
//! `xpass-snap/v6` snapshot of every simulated network each `<sim-ms>`
//! milliseconds of *simulation* time (atomic write + rename, last few
//! kept per network). A crashed job is retried once in-process from its
//! latest snapshot; the failure summary names the snapshot so a killed
//! batch can be resumed by hand. `--resume <file>` re-runs the one
//! experiment the snapshot was taken in — replaying its deterministic
//! setup, overlaying the saved state mid-flight — and produces output
//! byte-identical to the uninterrupted run (`--seed`/`--paper-scale`
//! come from the snapshot; for a scenario snapshot pass the scenario
//! file too: `--resume <snap> run <file.json>`). A snapshot re-enters a
//! run only through one gate: it must load, must have been taken in the
//! experiment the run executes, under its seed and paper scale, and under
//! its metering — `--resume` refuses a `--metrics` on/off or
//! `--metrics-interval-ms` mismatch. Every refusal of the command line
//! exits 1 before any experiment runs or the HTTP server binds, `serve`
//! included. `--retries` applies to a `--resume` run as to any other.

use std::env;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use xpass::experiments::{parallel, registry, scenario, Experiment, ExperimentOutput};
use xpass::sim::checkpoint::{self, CheckpointConfig, ResumeImage, RunLabel};
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
         \x20                  | --ingest-replay <journal>]\n\
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
/// non-zero. A banner heads each table when more than one experiment runs.
#[allow(clippy::too_many_arguments)]
fn run_selected(
    selected: &[Box<dyn Experiment>],
    opts: &RunOpts,
    json_dir: Option<&Path>,
    jobs: usize,
    scheduler: SchedulerKind,
    budget: Option<Duration>,
    policy: parallel::RetryPolicy,
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
        if selected.len() > 1 {
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

/// The one gate a snapshot at `path` passes to re-enter a run. It must
/// load; it must have been taken in `exp` under `opts`' seed and paper
/// scale; and it must have been taken under `metering` (the sampler's
/// interval, `None` without one), the only metering its network restores
/// under. Under `--resume`, `exp` is `None`: the snapshot names the
/// experiment and restores the seed and scale, so explicit ones are
/// refused. The image comes back rebased onto job 0, the one job of the
/// run it re-enters; a refusal is the diagnostic.
fn gate(
    path: &Path,
    exp: Option<&dyn Experiment>,
    opts: &RunOpts,
    metering: Option<Dur>,
) -> Result<ResumeImage, String> {
    let shown = path.display();
    let mut img =
        checkpoint::load_image(path).map_err(|e| format!("cannot resume from {shown}: {e}"))?;
    let label = &img.label;
    match exp {
        None if opts.seed.is_some() || opts.paper_scale => {
            return Err("--resume restores --seed and --paper-scale from the \
                 snapshot; drop the explicit flags"
                .to_string());
        }
        Some(e) if label.name != e.name() => {
            return Err(format!(
                "snapshot {shown} was taken in '{}', not in '{}'",
                label.name,
                e.name()
            ));
        }
        Some(_) if (label.seed, label.paper_scale) != (opts.seed, opts.paper_scale) => {
            let with = |seed: Option<u64>, scale: bool| match (seed, scale) {
                (Some(s), true) => format!("with --seed {s} --paper-scale"),
                (Some(s), false) => format!("with --seed {s}"),
                (None, true) => "with --paper-scale".to_string(),
                (None, false) => "without --seed or --paper-scale".to_string(),
            };
            return Err(format!(
                "snapshot {shown} was taken {} but would resume {}",
                with(label.seed, label.paper_scale),
                with(opts.seed, opts.paper_scale)
            ));
        }
        _ => {}
    }
    if img.metering != metering {
        let under = |m: Option<Dur>| {
            m.map_or("without --metrics".into(), |d| {
                format!("with --metrics sampling every {d}")
            })
        };
        return Err(format!(
            "snapshot {shown} was taken {} but would resume {}; resume \
             with the same --metrics and --metrics-interval-ms",
            under(img.metering),
            under(metering)
        ));
    }
    checkpoint::rebase_scope(&mut img, 0);
    Ok(img)
}

/// The experiment a `--resume` snapshot taken in `name` re-enters: the
/// registry's, or — for a scenario, whose config lives in its file — the
/// `run <file.json>` target's, whose name must match.
fn resumed(path: &Path, name: &str, targets: &[String]) -> Result<Box<dyn Experiment>, String> {
    let shown = path.display();
    match targets {
        [] => registry::find(name).ok_or_else(|| {
            format!(
                "snapshot {shown} was taken in '{name}', which is not a \
                 registry experiment; if it is a scenario, pass the file: \
                 xpass-repro --resume <snap> run <scenario.json>"
            )
        }),
        [t] if t == name => {
            registry::find(name).ok_or_else(|| format!("unknown experiment '{name}'"))
        }
        [run, file] if run == "run" => {
            let e = scenario::load(Path::new(file)).map_err(|e| e.to_string())?;
            if e.name() != name {
                return Err(format!(
                    "snapshot {shown} was taken in '{name}' but {file} defines '{}'",
                    e.name()
                ));
            }
            Ok(Box::new(e))
        }
        _ => Err(format!(
            "--resume runs exactly the experiment the snapshot was \
             taken in ('{name}'); drop the extra targets"
        )),
    }
}

/// What a command line runs: the selected experiments, in selection
/// order, and the image (if any) the run re-enters.
type Run = (Vec<Box<dyn Experiment>>, Option<ResumeImage>);

/// The one target resolver: `help`/`list`, `run <scenario.json...>`,
/// `all`, experiment names, or the snapshot `--resume` names become the
/// selected experiments, configured from `opts`, and the image the run
/// re-enters. `Err` is the exit code of a command line that runs nothing:
/// the usage was asked for, or a refusal has been printed.
fn resolve(
    targets: &[String],
    resume: Option<&Path>,
    opts: &mut RunOpts,
    metering: Option<Dur>,
) -> Result<Run, ExitCode> {
    let mut selected: Vec<Box<dyn Experiment>> = Vec::new();
    let mut image = None;
    if let Some(path) = resume {
        let img = gate(path, None, opts, metering).map_err(refuse)?;
        selected.push(resumed(path, &img.label.name, targets).map_err(refuse)?);
        // The run must be bit-for-bit the one the snapshot interrupted.
        opts.seed = img.label.seed;
        opts.paper_scale = img.label.paper_scale;
        image = Some(img);
    } else {
        match targets.first().map(String::as_str) {
            None | Some("list" | "help") => {
                print!("{}", usage());
                return Err(ExitCode::SUCCESS);
            }
            Some("run") => {
                let files = &targets[1..];
                if files.is_empty() {
                    return Err(bad_usage("run needs at least one scenario file"));
                }
                for f in files {
                    let exp = scenario::load(Path::new(f)).map_err(|e| refuse(e.to_string()))?;
                    selected.push(Box::new(exp));
                }
            }
            Some("all") if targets.len() == 1 => selected = registry::all(),
            Some(_) => {
                for name in targets {
                    let exp = registry::find(name)
                        .ok_or_else(|| bad_usage(format!("unknown experiment '{name}'")))?;
                    selected.push(exp);
                }
            }
        }
    }
    configure(&mut selected, opts);
    Ok((selected, image))
}

/// Newest `*.snap` under `dir` (recursing into per-scope subdirs), by
/// modification time — what a restarted `serve --ingest` offers the
/// [`gate`], so a SIGKILLed service resumes mid-flight instead of
/// replaying from zero.
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

/// Print `xpass-repro: <msg>`, a blank line and the usage to stderr;
/// the exit code of a refused command line.
fn bad_usage(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("xpass-repro: {msg}\n");
    eprint!("{}", usage());
    ExitCode::FAILURE
}

/// Print `xpass-repro: <msg>` to stderr; the exit code of a refused run.
fn refuse(msg: String) -> ExitCode {
    eprintln!("xpass-repro: {msg}");
    ExitCode::FAILURE
}

/// The value after `flag`, read by `parse`. Missing, or refused by
/// `parse`, it is the diagnostic `<flag> needs <needs>`.
fn value<T>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    needs: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, String> {
    args.next()
        .as_deref()
        .and_then(parse)
        .ok_or_else(|| format!("{flag} needs {needs}"))
}

fn path(v: &str) -> Option<PathBuf> {
    Some(PathBuf::from(v))
}

fn parsed<T: std::str::FromStr>(v: &str) -> Option<T> {
    v.parse().ok()
}

fn at_least_one<T: std::str::FromStr + PartialOrd + From<u8>>(v: &str) -> Option<T> {
    parsed(v).filter(|n| *n >= T::from(1))
}

fn positive(v: &str) -> Option<f64> {
    parsed(v).filter(|r: &f64| *r > 0.0 && r.is_finite())
}

const SIM_MS: &str = "a sim-time interval in ms (integer >= 1)";

/// A sim-time interval in whole ms, refused when its picoseconds overflow
/// the clock.
fn sim_ms(v: &str) -> Option<Dur> {
    at_least_one(v).and_then(Dur::checked_ms)
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
    let mut retries: Option<u32> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut read_flags = || -> Result<(), String> {
        while let Some(a) = args.next() {
            let args = &mut args;
            match a.as_str() {
                "--checkpoint-every" => ckpt_every = Some(value(args, &a, SIM_MS, sim_ms)?),
                "--checkpoint-dir" => ckpt_dir = Some(value(args, &a, "a directory", path)?),
                "--resume" => resume = Some(value(args, &a, "a snapshot file", path)?),
                "--paper-scale" => opts.paper_scale = true,
                "--list" => list = true,
                "--seed" => opts.seed = Some(value(args, &a, "an unsigned integer", parsed)?),
                "--jobs" => jobs = value(args, &a, "an integer >= 1", at_least_one)?,
                "--scheduler" => {
                    scheduler = value(args, &a, "'heap' or 'calendar'", SchedulerKind::parse)?
                }
                "--budget-secs" => {
                    let n = value(args, &a, "an integer >= 1", at_least_one)?;
                    budget = Some(Duration::from_secs(n));
                }
                "--json" => json_dir = Some(value(args, &a, "an output directory", path)?),
                "--trace" => opts.trace = Some(value(args, &a, "an output file", path)?),
                "--metrics" => metrics_out = Some(value(args, &a, "an output file", path)?),
                "--metrics-interval-ms" => metrics_interval = value(args, &a, SIM_MS, sim_ms)?,
                "--http-addr" | "--addr" => {
                    http_addr = Some(value(args, &a, "an <ip:port> address", |v| {
                        Some(v.to_string())
                    })?);
                }
                "--ingest" => ingest_live = Some(value(args, &a, "a journal file", path)?),
                "--ingest-replay" => ingest_replay = Some(value(args, &a, "a journal file", path)?),
                "--ingest-rate" => {
                    ingest_rate = value(args, &a, "arrivals per second (> 0)", positive)?
                }
                "--retries" => retries = Some(value(args, &a, "an unsigned integer", parsed)?),
                "--progress" => {
                    let s = value(args, &a, "a sim-seconds period (> 0)", positive)?;
                    progress = Some(Dur::from_secs_f64(s));
                }
                f if f.starts_with("--") => return Err(format!("unknown flag '{f}'")),
                t => targets.push(t.to_string()),
            }
        }
        Ok(())
    };
    if let Err(msg) = read_flags() {
        return bad_usage(msg);
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
            return bad_usage("serve needs at least one experiment (e.g. serve fig10)");
        }
        // Batch runs keep default signal behavior; only the long-lived
        // service shuts down gracefully (seal journal, final checkpoint).
        signal::install_shutdown_handler();
    }

    if ingest_live.is_some() && ingest_replay.is_some() {
        return bad_usage("--ingest and --ingest-replay are mutually exclusive");
    }
    if ingest_live.is_some() && !serve {
        return bad_usage("--ingest requires serve (it keeps the process alive)");
    }
    let ingest_on = ingest_live.is_some() || ingest_replay.is_some();
    if ingest_on {
        let one_target = match targets.first().map(|s| s.as_str()) {
            Some("run") => targets.len() == 2,
            Some("all") | Some("list") | Some("help") | None => false,
            Some(_) => targets.len() == 1,
        };
        if !one_target || jobs != 1 {
            return bad_usage(
                "--ingest/--ingest-replay drive exactly one experiment \
                 on one job (a stream has a single journal)",
            );
        }
        if resume.is_some() {
            return bad_usage(
                "--resume is implicit under --ingest (the newest \
                 checkpoint in --checkpoint-dir is armed automatically)",
            );
        }
    }

    let ckpt_cfg = match (ckpt_every, ckpt_dir) {
        (Some(every), Some(dir)) => Some(CheckpointConfig {
            every,
            dir,
            keep: CHECKPOINT_KEEP,
        }),
        (Some(_), None) => {
            return bad_usage("--checkpoint-every needs --checkpoint-dir");
        }
        (None, Some(_)) => {
            return bad_usage("--checkpoint-dir needs --checkpoint-every");
        }
        (None, None) => None,
    };

    // Any metrics-facing flag turns the plane on; with everything off the
    // runtime is never installed and runs stay byte-identical.
    let metrics_on = metrics_out.is_some() || http_addr.is_some() || progress.is_some() || serve;
    let metering = metrics_on.then_some(metrics_interval);
    let (selected, mut image) = match resolve(&targets, resume.as_deref(), &mut opts, metering) {
        Ok(run) => run,
        Err(code) => return code,
    };
    // A restarted ingest service re-enters its run from the newest
    // checkpoint when that passes the gate, so the journal replay overlays
    // it at the recorded run call; otherwise the replay rebuilds the run
    // from zero.
    if let Some(p) = ckpt_cfg
        .as_ref()
        .filter(|_| ingest_on)
        .and_then(|c| newest_snapshot(&c.dir))
    {
        match gate(&p, Some(selected[0].as_ref()), &opts, metering) {
            Ok(img) => {
                eprintln!("xpass-repro: arming resume from checkpoint {}", p.display());
                image = Some(img);
            }
            Err(why) => eprintln!("xpass-repro: ignoring checkpoint {}: {why}", p.display()),
        }
    }

    // Install the ingest source before the run: every job's run context is
    // forked from this thread's, so the experiment sees it.
    let ingest_queue = ingest_live
        .as_ref()
        .map(|_| IngestQueue::new(INGEST_QUEUE_CAP, ingest_rate));
    if let Some(journal) = ingest_live.or(ingest_replay) {
        ingest::install(ingest::Source {
            journal,
            queue: ingest_queue.clone(),
            live: ingest_queue.is_some(),
        });
    }

    let mut server: Option<http::Server> = None;
    if metrics_on {
        let plane = Plane::new();
        metrics::install(
            MetricsSpec {
                interval: metrics_interval,
                progress_every: progress,
            },
            Some(plane.clone()),
        );
        let addr = http_addr.or_else(|| serve.then(|| "127.0.0.1:0".to_string()));
        if let Some(addr) = addr {
            plane.set_feed(ws::Broadcast::new(WS_FEED_CAP));
            let cfg = http::ServerCfg {
                ingest: ingest_queue,
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

    if ckpt_cfg.is_some() || image.is_some() {
        checkpoint::install(ckpt_cfg, image);
    }

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
    let ok = run_selected(
        &selected,
        &opts,
        json_dir.as_deref(),
        jobs,
        scheduler,
        budget,
        policy,
        metrics_out.as_deref(),
    );
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
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
