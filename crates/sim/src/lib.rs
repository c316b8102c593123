//! # xpass-sim — deterministic discrete-event simulation engine
//!
//! This crate is the foundation of the ExpressPass reproduction: a small,
//! fast, fully deterministic discrete-event kernel in the role ns-2 played
//! for the original paper.
//!
//! Components:
//!
//! * [`time`] — simulation clock. Time is an integer number of **picoseconds**
//!   ([`SimTime`], [`Dur`]); at 100 Gbps one byte serializes in exactly 80 ps,
//!   so every transmission time used by the paper (10/25/40/100 Gbps) is exact
//!   with no floating-point drift.
//! * [`event`] — the event queue: two interchangeable schedulers (the
//!   reference binary heap and the fast-path hierarchical [`calendar`]
//!   queue) with a stable tie-break sequence number, so same-timestamp
//!   events fire in insertion order and runs are reproducible bit-for-bit
//!   under either scheduler; cancellable timers ride on the same order.
//! * [`calendar`] — the calendar-queue / timing-wheel implementation
//!   behind [`event::SchedulerKind::Calendar`]: O(1) amortized insert/pop
//!   for the near-future band (~1 ms window of ~1 µs buckets) plus a
//!   binary-heap overflow band for far-future timers.
//! * [`rng`] — a seedable xoshiro256++ PRNG plus the distributions the
//!   workloads need (uniform, exponential, empirical CDF).
//! * [`stats`] — online statistics, percentiles, time-weighted averages
//!   (queue occupancy), histograms, CDFs, and Jain's fairness index.
//! * [`bucket`] — token/leaky bucket used by credit rate-limiters.
//! * [`json`] — a hand-rolled JSON value type (serializer + parser) for
//!   machine-readable output; the workspace builds offline with no crates.
//! * [`trace`] — typed [`trace::TraceEvent`] stream with pluggable
//!   [`trace::TraceSink`]s (ring buffer, JSONL file); zero-cost when no
//!   sink is installed.
//! * [`profile`] — [`profile::EngineReport`] summarizing engine activity
//!   (events per kind, peak heap depth, wall-clock events/sec).
//! * [`metrics`] — live metrics plane: counter/gauge/histogram registry
//!   with interned labels, a sim-time sampler ring, the
//!   `xpass-metrics/v1` JSONL series format, Prometheus-style text
//!   exposition, and the cross-thread [`metrics::Plane`]; zero-cost when
//!   not installed.
//! * [`http`] — minimal hand-rolled HTTP/1.1 server (std `TcpListener`,
//!   no deps) serving the plane at `/metrics`, `/health`, `/engine`,
//!   `/progress`, plus streaming ingestion at `POST /ingest` and the
//!   metrics push channel at `/ws`; hardened against slowloris and
//!   oversized requests (read deadlines, header/body caps, connection
//!   limit).
//! * [`ingest`] — streaming flow-arrival ingestion: the
//!   `xpass-ingest/v1` record format, the append-only ingest journal
//!   (record/replay determinism), and the bounded token-bucket admission
//!   queue.
//! * [`ws`] — minimal RFC 6455 WebSocket (server side, no extensions):
//!   handshake digest, strict frame codec, and the bounded broadcast
//!   ring behind `/ws`.
//! * [`signal`] — cooperative SIGINT/SIGTERM shutdown flag for serve
//!   mode.
//! * [`run_ctx`] — the run context: the scheduler, the scope and job
//!   names, and the installed checkpoint, metrics and ingest parts that a
//!   network reads when it is built; forked once per parallel job.
//! * [`watchdog`] — hang/livelock detection: event-count, wall-clock, and
//!   sim-time-not-advancing budgets that abort a stuck run with a
//!   diagnostic [`watchdog::WatchdogReport`].

#![warn(missing_docs)]
pub mod bucket;
pub mod calendar;
pub mod checkpoint;
pub mod event;
pub mod http;
pub mod ingest;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod rng;
pub mod run_ctx;
pub mod signal;
pub mod snap;
pub mod stats;
pub mod time;
pub mod trace;
pub mod watchdog;
pub mod ws;

pub use bucket::TokenBucket;
pub use event::{EventQueue, SchedulerKind};
pub use json::Json;
pub use profile::EngineReport;
pub use rng::Rng;
pub use snap::{SnapError, SnapIo, SnapReader, SnapSeq, SnapWriter};
pub use stats::{Cdf, Percentiles, TimeWeighted};
pub use time::{Dur, SimTime};
pub use trace::{JsonlSink, RingSink, TraceEvent, TraceSink};
