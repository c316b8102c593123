//! The [`Experiment`] trait — one uniform interface over every paper
//! reproduction module.
//!
//! Each experiment module exposes an adapter type (conventionally named
//! `Exp`) that owns the module's config struct and implements
//! [`Experiment`]. The CLI and the test suite dispatch exclusively through
//! the trait (see [`crate::registry`]), so every experiment uniformly
//! supports seed overrides, paper-scale parameters, machine-readable JSON
//! output, and — where the module records events — structured tracing.
//!
//! Contract for implementors:
//!
//! * `run` must produce **exactly** the text the module's `Display` impl
//!   renders (the byte-identity fences in `tests/fences.rs` pin
//!   this), plus a structured JSON payload mirroring the typed rows.
//! * `set_seed` threads a CLI `--seed` into the config; experiments whose
//!   output is seed-independent ignore it.
//! * `paper_scale_config` switches to the paper's full parameters and
//!   returns `true`, or returns `false` (config untouched) when the module
//!   has no separate paper scale.

use xpass_sim::json::Json;
use xpass_sim::trace::TraceSink;

/// What one experiment run produced.
pub struct ExperimentOutput {
    /// The human-readable table(s), exactly as `Display` renders them.
    pub text: String,
    /// Structured payload for `--json` records: the typed rows of the
    /// figure/table, plus counters/engine/health where the experiment
    /// captures them.
    pub json: Json,
}

impl ExperimentOutput {
    /// Bundle a displayable result with its JSON payload.
    pub fn new(text: impl Into<String>, json: Json) -> ExperimentOutput {
        ExperimentOutput {
            text: text.into(),
            json,
        }
    }
}

/// A paper experiment, runnable through the uniform registry pipeline.
///
/// `Send + Sync` so the CLI's `--jobs` worker pool can run experiments on
/// scoped threads (each run builds its own single-threaded engines).
pub trait Experiment: Send + Sync {
    /// Registry name (`fig10`, `table3`, `faults`, ...).
    fn name(&self) -> &str;

    /// One-line description shown by `--list`.
    fn describe(&self) -> &str;

    /// Switch to the paper's full-scale parameters. Returns `false` when
    /// the experiment has no separate paper scale (config unchanged).
    fn paper_scale_config(&mut self) -> bool {
        false
    }

    /// Override the RNG seed. No-op for seed-independent experiments
    /// (analytical tables such as `table1`/`fig05`).
    fn set_seed(&mut self, _seed: u64) {}

    /// Whether [`run`](Experiment::run) records events into a trace sink.
    fn traces(&self) -> bool {
        false
    }

    /// Execute the experiment. `trace` is installed into the simulated
    /// network(s) for the duration of the run when the experiment supports
    /// tracing ([`traces`](Experiment::traces)); other experiments drop it.
    fn run(&self, trace: Option<Box<dyn TraceSink>>) -> ExperimentOutput;
}

/// Serialize an optional duration as seconds (`null` when absent) —
/// shared shorthand for `to_json` impls.
pub fn json_opt_secs(d: Option<xpass_sim::time::Dur>) -> Json {
    match d {
        Some(d) => Json::Num(d.as_secs_f64()),
        None => Json::Null,
    }
}

/// Serialize an optional float (`null` when absent).
pub fn json_opt_f64(v: Option<f64>) -> Json {
    match v {
        Some(v) => Json::Num(v),
        None => Json::Null,
    }
}
