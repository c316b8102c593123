//! Live metrics plane: a zero-dependency time-series registry with three
//! expositions.
//!
//! * [`Registry`] — counters, gauges, and fixed-bucket histograms with
//!   interned label sets. Hot-path updates go through pre-registered
//!   [`MetricId`]s (a plain index — no hashing per increment).
//! * [`Ring`] — an in-memory ring of time-series: one row of scalar
//!   samples per sampler tick, capped at a fixed number of ticks.
//! * `xpass-metrics/v1` — a JSONL series format ([`encode_jsonl`] /
//!   [`decode_jsonl`]) written by `xpass-repro --metrics <file>`.
//! * Prometheus-style text exposition ([`Registry::render_prometheus`],
//!   parsed back by [`parse_exposition`]) served live over HTTP (see
//!   [`crate::http`]).
//! * [`Plane`] — the cross-thread publishing surface: each simulation
//!   thread publishes its numbers ([`JobView`]) under its job key; the
//!   HTTP server and the `--metrics` writer render them on their own
//!   threads.
//!
//! Like tracing and checkpointing, the plane is **zero-cost when off**:
//! with no sampler installed in the [run context](crate::run_ctx) (the
//! default), a network gets no [`NetMetricsHook`], the engine's hot loops
//! skip every metrics check, and runs are byte-identical to a build
//! without this module.
//! Sampling itself is observation-only — it never touches the RNG or the
//! event queue — so even a metrics-on run produces the same simulation
//! results as a metrics-off run.

use crate::json::{self, Json};
use crate::profile::EngineReport;
use crate::run_ctx;
use crate::snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
use crate::time::Dur;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Schema identifier of the JSONL series format.
pub const SCHEMA: &str = "xpass-metrics/v1";

/// What kind of metric a family holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing `u64`.
    Counter,
    /// Instantaneous `f64`.
    Gauge,
    /// Fixed-bucket histogram (`le` upper bounds + sum + count).
    Histogram,
}

impl MetricKind {
    fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Handle to one registered series (family + label set). A plain index:
/// updates through it are O(1) with no hashing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricId(u32);

#[derive(Clone)]
struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    /// Histogram bucket upper bounds (ascending); empty otherwise.
    bounds: Vec<f64>,
}

/// One series: unified storage for all three kinds. A counter lives in
/// `count`, a gauge in `sum`, a histogram in all three fields.
#[derive(Clone)]
struct Series {
    family: u32,
    labels: u32,
    count: u64,
    sum: f64,
    buckets: Vec<u64>,
}

/// Families, interned label sets and the series index: fixed once a
/// network has registered its families, so clones share it.
#[derive(Clone, Default)]
struct Schema {
    families: Vec<Family>,
    fam_idx: HashMap<String, u32>,
    label_sets: Vec<Vec<(String, String)>>,
    label_idx: HashMap<String, u32>,
    series_idx: HashMap<(u32, u32), u32>,
}

/// The metric registry: families, interned label sets, and series values.
/// A clone copies the values and shares the rest — what a publication to
/// the [`Plane`] holds.
#[derive(Clone, Default)]
pub struct Registry {
    schema: Arc<Schema>,
    series: Vec<Series>,
}

/// Canonical text form of a label set: `k="v",k="v"` in given order.
fn label_key(labels: &[(String, String)]) -> String {
    let mut s = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(k);
        s.push_str("=\"");
        for c in v.chars() {
            match c {
                '"' => s.push_str("\\\""),
                '\\' => s.push_str("\\\\"),
                '\n' => s.push_str("\\n"),
                c => s.push(c),
            }
        }
        s.push('"');
    }
    s
}

impl Schema {
    fn family(&mut self, name: &str, help: &str, kind: MetricKind, bounds: &[f64]) -> u32 {
        if let Some(&i) = self.fam_idx.get(name) {
            let f = &self.families[i as usize];
            assert!(
                f.kind == kind,
                "metric {name} re-registered as {:?}, was {:?}",
                kind,
                f.kind
            );
            return i;
        }
        let i = self.families.len() as u32;
        self.families.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            bounds: bounds.to_vec(),
        });
        self.fam_idx.insert(name.to_string(), i);
        i
    }

    fn intern_labels(&mut self, labels: &[(&str, &str)]) -> u32 {
        let owned: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let key = label_key(&owned);
        if let Some(&i) = self.label_idx.get(&key) {
            return i;
        }
        let i = self.label_sets.len() as u32;
        self.label_sets.push(owned);
        self.label_idx.insert(key, i);
        i
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register(
        &mut self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> MetricId {
        let schema = Arc::make_mut(&mut self.schema);
        let fam = schema.family(name, help, kind, bounds);
        let lab = schema.intern_labels(labels);
        if let Some(&i) = schema.series_idx.get(&(fam, lab)) {
            return MetricId(i);
        }
        let i = self.series.len() as u32;
        let n_buckets = schema.families[fam as usize].bounds.len();
        self.series.push(Series {
            family: fam,
            labels: lab,
            count: 0,
            sum: 0.0,
            buckets: vec![0; n_buckets],
        });
        schema.series_idx.insert((fam, lab), i);
        MetricId(i)
    }

    /// Register (or look up) a counter series.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> MetricId {
        self.register(name, help, MetricKind::Counter, labels, &[])
    }

    /// Register (or look up) a gauge series.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> MetricId {
        self.register(name, help, MetricKind::Gauge, labels, &[])
    }

    /// Register (or look up) a histogram series with these ascending
    /// bucket upper bounds (an implicit `+Inf` bucket is always rendered).
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> MetricId {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        self.register(name, help, MetricKind::Histogram, labels, bounds)
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&mut self, id: MetricId) {
        self.series[id.0 as usize].count += 1;
    }

    /// Add to a counter.
    #[inline]
    pub fn add(&mut self, id: MetricId, n: u64) {
        self.series[id.0 as usize].count += n;
    }

    /// Overwrite a counter with a running total maintained elsewhere.
    #[inline]
    pub fn set_counter(&mut self, id: MetricId, total: u64) {
        self.series[id.0 as usize].count = total;
    }

    /// Set a gauge (non-finite values are recorded as 0).
    #[inline]
    pub fn set(&mut self, id: MetricId, v: f64) {
        self.series[id.0 as usize].sum = if v.is_finite() { v } else { 0.0 };
    }

    /// Record one histogram observation.
    pub fn observe(&mut self, id: MetricId, v: f64) {
        let s = &mut self.series[id.0 as usize];
        let bounds = &self.schema.families[s.family as usize].bounds;
        for (i, b) in bounds.iter().enumerate() {
            if v <= *b {
                s.buckets[i] += 1;
                break;
            }
        }
        s.count += 1;
        s.sum += v;
    }

    /// Current value of a counter series.
    pub fn counter_value(&self, id: MetricId) -> u64 {
        self.series[id.0 as usize].count
    }

    /// Current value of a gauge series.
    pub fn gauge_value(&self, id: MetricId) -> f64 {
        self.series[id.0 as usize].sum
    }

    /// Number of registered series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Keys (`name{labels}` / bare `name`) of every **scalar** series
    /// (counters and gauges) in registration order — the ring's column
    /// order and the JSONL header's `series` array.
    pub fn scalar_keys(&self) -> Vec<String> {
        self.scalar_series()
            .map(|s| {
                let f = &self.schema.families[s.family as usize];
                let labels = &self.schema.label_sets[s.labels as usize];
                if labels.is_empty() {
                    f.name.clone()
                } else {
                    format!("{}{{{}}}", f.name, label_key(labels))
                }
            })
            .collect()
    }

    fn scalar_series(&self) -> impl Iterator<Item = &Series> {
        self.series
            .iter()
            .filter(|s| self.schema.families[s.family as usize].kind != MetricKind::Histogram)
    }

    /// Current values of every scalar series, aligned with
    /// [`scalar_keys`](Self::scalar_keys) (counters widen to `f64`).
    pub fn scalar_values(&self) -> Vec<f64> {
        self.scalar_series()
            .map(|s| match self.schema.families[s.family as usize].kind {
                MetricKind::Counter => s.count as f64,
                _ => s.sum,
            })
            .collect()
    }

    /// Render the registry as Prometheus-style text exposition. `extra`
    /// labels (e.g. `job`, `net`) are prepended to every sample's label
    /// set.
    pub fn render_prometheus(&self, extra: &[(&str, &str)]) -> String {
        let extra: Vec<(String, String)> = extra
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut out = String::new();
        for (fi, f) in self.schema.families.iter().enumerate() {
            out.push_str(&format!("# HELP {} {}\n", f.name, f.help));
            out.push_str(&format!("# TYPE {} {}\n", f.name, f.kind.name()));
            for s in self.series.iter().filter(|s| s.family as usize == fi) {
                let mut labels = extra.clone();
                labels.extend(self.schema.label_sets[s.labels as usize].iter().cloned());
                match f.kind {
                    MetricKind::Counter => {
                        write_sample(&mut out, &f.name, &labels, s.count as f64);
                    }
                    MetricKind::Gauge => {
                        write_sample(&mut out, &f.name, &labels, s.sum);
                    }
                    MetricKind::Histogram => {
                        let mut cum = 0u64;
                        for (b, n) in f.bounds.iter().zip(&s.buckets) {
                            cum += n;
                            let mut ls = labels.clone();
                            ls.push(("le".to_string(), fmt_f64(*b)));
                            write_sample(&mut out, &format!("{}_bucket", f.name), &ls, cum as f64);
                        }
                        let mut ls = labels.clone();
                        ls.push(("le".to_string(), "+Inf".to_string()));
                        write_sample(&mut out, &format!("{}_bucket", f.name), &ls, s.count as f64);
                        write_sample(&mut out, &format!("{}_sum", f.name), &labels, s.sum);
                        write_sample(
                            &mut out,
                            &format!("{}_count", f.name),
                            &labels,
                            s.count as f64,
                        );
                    }
                }
            }
        }
        out
    }
}

/// `f64` in the plain decimal form both the exposition and its parser use.
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        "0".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn write_sample(out: &mut String, name: &str, labels: &[(String, String)], v: f64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        out.push_str(&label_key(labels));
        out.push('}');
    }
    out.push(' ');
    out.push_str(&fmt_f64(v));
    out.push('\n');
}

impl Snapshot for Registry {
    /// Values only: the family/label structure is deterministic setup
    /// state, re-created before a restore overlays onto it.
    fn snap(&self, w: &mut SnapWriter) {
        w.usize(self.series.len());
        for s in &self.series {
            w.u64(s.count);
            w.f64(s.sum);
            w.seq(&s.buckets, |w, b| w.u64(*b));
        }
    }
}

impl Restore for Registry {
    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        r.seq_len_of("series", self.series.len(), 17)?;
        for s in &mut self.series {
            s.count = r.u64()?;
            s.sum = r.f64()?;
            r.seq_len_of("bucket", s.buckets.len(), 8)?;
            for b in &mut s.buckets {
                *b = r.u64()?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Sampler ring
// ---------------------------------------------------------------------------

/// In-memory ring of time-series: one row of scalar samples per sampler
/// tick, all series sharing the tick timestamps. Oldest ticks are evicted
/// past `cap`. Rows are immutable once recorded, so a clone shares them.
#[derive(Clone)]
pub struct Ring {
    cap: usize,
    rows: VecDeque<(u64, Arc<[f64]>)>,
}

impl Ring {
    /// An empty ring holding at most `cap` ticks.
    pub fn new(cap: usize) -> Ring {
        Ring {
            cap: cap.max(1),
            rows: VecDeque::new(),
        }
    }

    /// Record one tick at sim time `t_ps` with this row of scalar values.
    pub fn record(&mut self, t_ps: u64, row: Vec<f64>) {
        if let Some((_, first)) = self.rows.front() {
            assert_eq!(first.len(), row.len(), "ring row width changed mid-run");
        }
        self.rows.push_back((t_ps, row.into()));
        while self.rows.len() > self.cap {
            self.rows.pop_front();
        }
    }

    /// Number of recorded ticks.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True before the first recorded tick.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The recorded ticks in order: `(t_ps, row)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[f64])> {
        self.rows.iter().map(|(t, r)| (*t, &r[..]))
    }
}

impl Snapshot for Ring {
    fn snap(&self, w: &mut SnapWriter) {
        w.usize(self.rows.len());
        for (t, row) in self.iter() {
            w.u64(t);
            w.seq(row, |w, v| w.f64(*v));
        }
    }
}

impl Restore for Ring {
    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let n = r.seq_len(9)?;
        self.rows.clear();
        for _ in 0..n {
            let t = r.u64()?;
            let nv = r.seq_len(8)?;
            let row = (0..nv).map(|_| r.f64()).collect::<Result<Vec<_>, _>>()?;
            self.rows.push_back((t, row.into()));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// xpass-metrics/v1 JSONL series format
// ---------------------------------------------------------------------------

/// One decoded (or to-be-encoded) series block: a header naming the job
/// and its series, followed by one row per sampler tick.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesDump {
    /// Job key (experiment name, with `/i` segments for nested fan-out).
    pub job: String,
    /// Network index within the job (creation order, 0-based).
    pub net: u64,
    /// Sampler interval in picoseconds.
    pub interval_ps: u64,
    /// Scalar series keys, in column order.
    pub keys: Vec<String>,
    /// `(t_ps, values)` per tick; `values.len() == keys.len()`.
    pub ticks: Vec<(u64, Vec<f64>)>,
}

/// Encode one series block as `xpass-metrics/v1` JSON Lines: a header
/// line, then one line per tick.
pub fn encode_jsonl(d: &SeriesDump) -> String {
    let header = Json::obj()
        .with("schema", Json::str(SCHEMA))
        .with("job", Json::str(&*d.job))
        .with("net", Json::num_u64(d.net))
        .with("interval_ps", Json::num_u64(d.interval_ps))
        .with("series", Json::Arr(d.keys.iter().map(Json::str).collect()));
    let mut out = format!("{header}\n");
    for (t, row) in &d.ticks {
        out.push_str(&jsonl_row(Json::obj(), *t, row).to_string());
        out.push('\n');
    }
    out
}

/// One tick of an `xpass-metrics/v1` block: `lead` (an empty object for a
/// block's row lines) with `t_ps` and `v` appended.
pub fn jsonl_row(lead: Json, t_ps: u64, row: &[f64]) -> Json {
    lead.with("t_ps", Json::num_u64(t_ps))
        .with("v", Json::Arr(row.iter().map(|v| Json::Num(*v)).collect()))
}

/// Decode an `xpass-metrics/v1` JSONL stream (one or more concatenated
/// series blocks). Total: every malformed input is an `Err`, never a
/// panic.
pub fn decode_jsonl(input: &str) -> Result<Vec<SeriesDump>, String> {
    let mut dumps: Vec<SeriesDump> = Vec::new();
    for (ln, line) in input.lines().enumerate() {
        let ln = ln + 1;
        if line.trim().is_empty() {
            continue;
        }
        let j = json::parse(line).map_err(|e| format!("line {ln}: {e}"))?;
        if let Some(schema) = j.get("schema") {
            // Header line: starts a new block.
            if schema.as_str() != Some(SCHEMA) {
                return Err(format!(
                    "line {ln}: unsupported schema {:?} (expected {SCHEMA})",
                    schema.as_str().unwrap_or("<non-string>")
                ));
            }
            let job = j
                .get("job")
                .and_then(|v| v.as_str())
                .ok_or(format!("line {ln}: header missing string 'job'"))?
                .to_string();
            let net = j
                .get("net")
                .and_then(|v| v.as_u64())
                .ok_or(format!("line {ln}: header missing integer 'net'"))?;
            let interval_ps = j
                .get("interval_ps")
                .and_then(|v| v.as_u64())
                .ok_or(format!("line {ln}: header missing integer 'interval_ps'"))?;
            let keys = j
                .get("series")
                .and_then(|v| v.as_array())
                .ok_or(format!("line {ln}: header missing array 'series'"))?
                .iter()
                .map(|k| {
                    k.as_str()
                        .map(str::to_string)
                        .ok_or(format!("line {ln}: non-string series key"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            dumps.push(SeriesDump {
                job,
                net,
                interval_ps,
                keys,
                ticks: Vec::new(),
            });
        } else {
            let d = dumps
                .last_mut()
                .ok_or(format!("line {ln}: tick before any header"))?;
            let t = j
                .get("t_ps")
                .and_then(|v| v.as_u64())
                .ok_or(format!("line {ln}: tick missing integer 't_ps'"))?;
            let row = j
                .get("v")
                .and_then(|v| v.as_array())
                .ok_or(format!("line {ln}: tick missing array 'v'"))?
                .iter()
                .map(|v| {
                    v.as_f64()
                        .ok_or(format!("line {ln}: non-numeric sample value"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            if row.len() != d.keys.len() {
                return Err(format!(
                    "line {ln}: {} values for {} series",
                    row.len(),
                    d.keys.len()
                ));
            }
            d.ticks.push((t, row));
        }
    }
    Ok(dumps)
}

// ---------------------------------------------------------------------------
// Prometheus exposition parse-back
// ---------------------------------------------------------------------------

/// One parsed exposition sample.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpoSample {
    /// Metric name (for histograms, the `_bucket`/`_sum`/`_count` form).
    pub name: String,
    /// Label pairs in exposition order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// Parse a Prometheus-style text exposition back into samples. Comments
/// (`# …`) and blank lines are skipped. Total: malformed input is an
/// `Err`, never a panic.
pub fn parse_exposition(text: &str) -> Result<Vec<ExpoSample>, String> {
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, rest) = match line.find(['{', ' ']) {
            Some(i) => (&line[..i], &line[i..]),
            None => return Err(format!("line {ln}: sample has no value")),
        };
        let name_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
        if !name_ok {
            return Err(format!("line {ln}: invalid metric name"));
        }
        let (labels, value_str) = if let Some(body) = rest.strip_prefix('{') {
            let close = find_label_end(body).ok_or(format!("line {ln}: unterminated labels"))?;
            let labels = parse_labels(&body[..close]).map_err(|e| format!("line {ln}: {e}"))?;
            (labels, body[close + 1..].trim())
        } else {
            (Vec::new(), rest.trim())
        };
        let value = match value_str {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v
                .parse::<f64>()
                .map_err(|_| format!("line {ln}: invalid value {v:?}"))?,
        };
        out.push(ExpoSample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    Ok(out)
}

/// Index of the `}` closing a label body, honouring quoted strings.
fn find_label_end(body: &str) -> Option<usize> {
    let mut in_str = false;
    let mut escape = false;
    for (i, c) in body.char_indices() {
        if escape {
            escape = false;
        } else if in_str {
            match c {
                '\\' => escape = true,
                '"' => in_str = false,
                _ => {}
            }
        } else {
            match c {
                '"' => in_str = true,
                '}' => return Some(i),
                _ => {}
            }
        }
    }
    None
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or("label without '='")?;
        let key = rest[..eq].trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("invalid label name {key:?}"));
        }
        let after = rest[eq + 1..].trim_start();
        let inner = after.strip_prefix('"').ok_or("label value not quoted")?;
        let (value, used) = unescape_label_value(inner)?;
        out.push((key.to_string(), value));
        rest = inner[used..].trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    Ok(out)
}

/// Unescape up to the closing quote; returns the value and the byte count
/// consumed **including** the closing quote.
fn unescape_label_value(s: &str) -> Result<(String, usize), String> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, i + 1)),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, other)) => return Err(format!("invalid escape \\{other}")),
                None => return Err("dangling escape".to_string()),
            },
            c => out.push(c),
        }
    }
    Err("unterminated label value".to_string())
}

// ---------------------------------------------------------------------------
// Cross-thread publishing plane
// ---------------------------------------------------------------------------

/// Live per-flow/run progress, published alongside the exposition and
/// rendered by `/progress`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Progress {
    /// Simulation time reached.
    pub sim_secs: f64,
    /// Events processed so far.
    pub events: u64,
    /// Wall-clock event throughput so far.
    pub events_per_sec: f64,
    /// Flows added.
    pub flows_total: u64,
    /// Flows started but not yet settled.
    pub flows_active: u64,
    /// Flows completed.
    pub flows_completed: u64,
    /// Flows aborted by their endpoints.
    pub flows_aborted: u64,
}

impl Progress {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("sim_secs", Json::Num(self.sim_secs))
            .with("events", Json::num_u64(self.events))
            .with("events_per_sec", Json::Num(self.events_per_sec))
            .with("flows_total", Json::num_u64(self.flows_total))
            .with("flows_active", Json::num_u64(self.flows_active))
            .with("flows_completed", Json::num_u64(self.flows_completed))
            .with("flows_aborted", Json::num_u64(self.flows_aborted))
    }
}

/// One simulated network's publication: numbers, not text. The registry
/// and the ring share their structure and rows with the network's own, so
/// a publish copies only the series values; the plane's readers render.
#[derive(Clone)]
pub struct JobView {
    /// Job key of the publishing scope (the `job` label).
    pub job: Arc<str>,
    /// Network index within the job (the `net` label).
    pub net: u64,
    /// Sampler interval in picoseconds (the series block's header).
    pub interval_ps: u64,
    /// The network's metrics as of the publish.
    pub registry: Registry,
    /// The network's series ring as of the publish.
    pub ring: Ring,
    /// Health report as JSON text.
    pub health: String,
    /// Engine report.
    pub engine: EngineReport,
    /// Live progress.
    pub progress: Progress,
}

impl JobView {
    /// The ring as one `xpass-metrics/v1` series block.
    fn series_dump(&self) -> SeriesDump {
        SeriesDump {
            job: self.job.to_string(),
            net: self.net,
            interval_ps: self.interval_ps,
            keys: self.registry.scalar_keys(),
            ticks: self.ring.iter().map(|(t, r)| (t, r.to_vec())).collect(),
        }
    }
}

/// Minimum wall time between a network's plane publications during a
/// run; every run call's exit forces one regardless.
pub const PUBLISH_EVERY: Duration = Duration::from_millis(25);

/// The shared publishing surface: simulation threads publish a
/// [`JobView`] under their job key; the HTTP server (and the `--metrics`
/// file writer) render the latest ones on their own threads. Keys are
/// `job#netN` with `/i` segments for nested fan-out.
#[derive(Clone, Default)]
pub struct Plane {
    jobs: Arc<Mutex<BTreeMap<String, JobView>>>,
    degraded: Arc<Mutex<Option<String>>>,
    feed: Arc<Mutex<Option<crate::ws::Broadcast>>>,
}

impl Plane {
    /// A fresh, empty plane.
    pub fn new() -> Plane {
        Plane::default()
    }

    /// Mark the plane degraded (`Some(reason)`) or healthy (`None`). The
    /// supervisor sets this while a job crash-loops; `/health` answers
    /// 503 while set.
    pub fn set_degraded(&self, reason: Option<String>) {
        *self.degraded.lock().unwrap() = reason;
    }

    /// The degradation reason, when the supervisor has marked one.
    pub fn degraded(&self) -> Option<String> {
        self.degraded.lock().unwrap().clone()
    }

    /// Attach the WS push feed; the metrics publish path pushes new
    /// sample/health lines into it once set.
    pub fn set_feed(&self, feed: crate::ws::Broadcast) {
        *self.feed.lock().unwrap() = Some(feed);
    }

    /// The WS push feed, when one is attached.
    pub fn feed(&self) -> Option<crate::ws::Broadcast> {
        self.feed.lock().unwrap().clone()
    }

    /// The latest publications, locked. Holders only replace or read map
    /// entries, so a poisoned lock means a panic inside `BTreeMap` itself.
    fn jobs(&self) -> MutexGuard<'_, BTreeMap<String, JobView>> {
        self.jobs.lock().expect("plane lock poisoned")
    }

    /// Publish (replace) the view under `key`.
    pub fn publish(&self, key: &str, view: JobView) {
        self.jobs().insert(key.to_string(), view);
    }

    /// Concatenated Prometheus exposition of every published view, in key
    /// order, each sample labelled with its view's `job` and `net`.
    pub fn render_metrics(&self) -> String {
        let mut out = String::new();
        for v in self.jobs().values() {
            let net = v.net.to_string();
            let labels = [("job", &*v.job), ("net", &net)];
            out.push_str(&v.registry.render_prometheus(&labels));
        }
        out
    }

    /// `/health`: `{"jobs":{key: <health report>}}`.
    pub fn render_health(&self) -> String {
        render_json_map(&self.jobs(), |v| v.health.clone())
    }

    /// `/engine`: `{"jobs":{key: <engine report>}}`.
    pub fn render_engine(&self) -> String {
        render_json_map(&self.jobs(), |v| v.engine.to_json().to_string())
    }

    /// `/progress`: `{"jobs":{key: <progress>}}`.
    pub fn render_progress(&self) -> String {
        render_json_map(&self.jobs(), |v| v.progress.to_json().to_string())
    }

    /// Concatenated `xpass-metrics/v1` blocks for the given top-level job
    /// names, in the given order (nested-scope and per-net keys of a job
    /// ride along in key order). Used to write `--metrics <file>` in
    /// selection order, independent of `--jobs`.
    pub fn jsonl_for_jobs(&self, jobs_in_order: &[String]) -> String {
        let jobs = self.jobs();
        let mut out = String::new();
        for job in jobs_in_order {
            for (key, view) in jobs.iter() {
                let root = key.split(['#', '/']).next().unwrap_or(key);
                if root == job {
                    out.push_str(&encode_jsonl(&view.series_dump()));
                }
            }
        }
        out
    }

    /// Snapshot of all published progress rows (for heartbeats/tests).
    pub fn progress_rows(&self) -> Vec<(String, Progress)> {
        self.jobs()
            .iter()
            .map(|(k, v)| (k.clone(), v.progress.clone()))
            .collect()
    }
}

/// Splice rendered JSON values (trusted: produced by [`Json`]) into a
/// `{"jobs":{...}}` wrapper without re-parsing them.
fn render_json_map(jobs: &BTreeMap<String, JobView>, f: impl Fn(&JobView) -> String) -> String {
    let mut out = String::from("{\"jobs\":{");
    for (i, (k, v)) in jobs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&Json::str(&**k).to_string());
        out.push(':');
        out.push_str(&f(v));
    }
    out.push_str("}}");
    out
}

/// Ring capacity in ticks of every network's sampler (oldest evicted
/// past this).
pub const RING_CAP: usize = 4096;

/// Sampler configuration carried by the run context.
#[derive(Clone, Debug)]
pub struct MetricsSpec {
    /// Sim-time sampling interval.
    pub interval: Dur,
    /// `--progress`: stderr heartbeat period in sim time, when on.
    pub progress_every: Option<Dur>,
}

impl Default for MetricsSpec {
    fn default() -> MetricsSpec {
        MetricsSpec {
            interval: Dur::ms(1),
            progress_every: None,
        }
    }
}

/// Install the metrics sampler, publishing to `plane` when given, in this
/// thread's [run context](crate::run_ctx). Call [`clear`] to tear down.
pub fn install(spec: MetricsSpec, plane: Option<Plane>) {
    run_ctx::install(|c| {
        c.metrics = Some(spec);
        c.plane = plane;
    });
}

/// Remove the metrics sampler and plane from this thread's run context.
pub fn clear() {
    run_ctx::with(|c| {
        c.metrics = None;
        c.plane = None;
    });
}

/// The plane this thread's run context publishes to, if any (the driver
/// uses this to write `--metrics` files).
pub fn plane() -> Option<Plane> {
    run_ctx::with(|c| c.plane.clone())
}

/// The installed sampler's sim-time interval. The streaming-ingest driver
/// uses this as its admission grid so arrivals always land on sampling
/// boundaries.
pub fn sample_interval() -> Option<Dur> {
    run_ctx::with(|c| c.metrics.as_ref().map(|spec| spec.interval))
}

/// Hook handed to every `Network` created while a sampler is installed:
/// the spec, the plane to publish to, and this network's identity.
pub struct NetMetricsHook {
    /// Sampler configuration.
    pub spec: MetricsSpec,
    /// Shared plane, when serving/collecting.
    pub plane: Option<Plane>,
    /// Job key of the creating scope (shared with every publication).
    pub job: Arc<str>,
    /// Index of this network within the scope (creation order).
    pub net_index: u64,
}

impl NetMetricsHook {
    /// The plane key this network publishes under.
    pub fn plane_key(&self) -> String {
        format!("{}#net{}", self.job, self.net_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> (Registry, MetricId, MetricId, MetricId) {
        let mut reg = Registry::new();
        let c = reg.counter("xpass_credits_sent_total", "credits emitted", &[]);
        let g = reg.gauge("xpass_data_queue_bytes", "queue depth", &[("dlink", "3")]);
        let h = reg.histogram("xpass_fct_seconds", "fct", &[], &[0.001, 0.01, 0.1]);
        (reg, c, g, h)
    }

    #[test]
    fn registration_interns_series() {
        let (mut reg, c, _, _) = sample_registry();
        let c2 = reg.counter("xpass_credits_sent_total", "credits emitted", &[]);
        assert_eq!(c, c2);
        let g2 = reg.gauge("xpass_data_queue_bytes", "queue depth", &[("dlink", "4")]);
        reg.set(g2, 9.0);
        assert_eq!(reg.series_count(), 4);
    }

    #[test]
    fn exposition_round_trips() {
        let (mut reg, c, g, h) = sample_registry();
        reg.add(c, 41);
        reg.inc(c);
        reg.set(g, 1500.0);
        reg.observe(h, 0.004);
        reg.observe(h, 5.0);
        let text = reg.render_prometheus(&[("job", "t")]);
        let samples = parse_exposition(&text).expect("parse back");
        let get = |name: &str, le: Option<&str>| {
            samples
                .iter()
                .find(|s| {
                    s.name == name
                        && le
                            .is_none_or(|want| s.labels.iter().any(|(k, v)| k == "le" && v == want))
                })
                .unwrap_or_else(|| panic!("missing {name}"))
                .value
        };
        assert_eq!(get("xpass_credits_sent_total", None), 42.0);
        assert_eq!(get("xpass_data_queue_bytes", None), 1500.0);
        assert_eq!(get("xpass_fct_seconds_bucket", Some("0.01")), 1.0);
        assert_eq!(get("xpass_fct_seconds_bucket", Some("+Inf")), 2.0);
        assert_eq!(get("xpass_fct_seconds_count", None), 2.0);
        assert!(samples.iter().all(|s| {
            s.name.starts_with("xpass_fct_seconds")
                || s.labels.first().map(|(k, _)| k.as_str()) == Some("job")
        }));
    }

    #[test]
    fn jsonl_round_trips() {
        let (mut reg, c, g, _) = sample_registry();
        reg.add(c, 7);
        reg.set(g, 2.5);
        let mut ring = Ring::new(8);
        ring.record(1_000_000, reg.scalar_values());
        reg.add(c, 3);
        ring.record(2_000_000, reg.scalar_values());
        let dump = SeriesDump {
            job: "fig10".to_string(),
            net: 0,
            interval_ps: 1_000_000,
            keys: reg.scalar_keys(),
            ticks: ring.iter().map(|(t, r)| (t, r.to_vec())).collect(),
        };
        let text = encode_jsonl(&dump);
        let back = decode_jsonl(&text).expect("decode");
        assert_eq!(back, vec![dump]);
    }

    #[test]
    fn jsonl_decoder_rejects_malformed_input() {
        assert!(decode_jsonl("{\"t_ps\":1,\"v\":[]}").is_err(), "tick first");
        assert!(decode_jsonl("{\"schema\":\"nope/v9\"}").is_err());
        let ok = "{\"schema\":\"xpass-metrics/v1\",\"job\":\"a\",\"net\":0,\
                  \"interval_ps\":5,\"series\":[\"x\"]}\n";
        assert!(decode_jsonl(ok).is_ok());
        assert!(decode_jsonl(&format!("{ok}{{\"t_ps\":1,\"v\":[1,2]}}\n")).is_err());
    }

    #[test]
    fn ring_caps_and_snapshots() {
        let mut ring = Ring::new(2);
        for i in 0..5u64 {
            ring.record(i, vec![i as f64]);
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.iter().map(|(t, _)| t).collect::<Vec<_>>(), vec![3, 4]);
        let mut w = SnapWriter::new();
        ring.snap(&mut w);
        let body = w.into_body();
        let mut twin = Ring::new(2);
        let mut r = SnapReader::new(&body, 0);
        twin.restore(&mut r).expect("restore");
        assert_eq!(
            twin.iter().collect::<Vec<_>>(),
            ring.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn registry_snapshot_overlays_values() {
        let (mut reg, c, g, h) = sample_registry();
        reg.add(c, 10);
        reg.set(g, 4.0);
        reg.observe(h, 0.05);
        let mut w = SnapWriter::new();
        reg.snap(&mut w);
        let body = w.into_body();
        let (mut twin, tc, tg, th) = sample_registry();
        let mut r = SnapReader::new(&body, 0);
        twin.restore(&mut r).expect("restore");
        assert_eq!(twin.counter_value(tc), 10);
        assert_eq!(twin.gauge_value(tg), 4.0);
        assert_eq!(twin.counter_value(th), 1);
        // A structurally different registry is rejected with a message.
        let mut other = Registry::new();
        other.counter("only_one", "x", &[]);
        let mut r = SnapReader::new(&body, 0);
        let e = other.restore(&mut r).unwrap_err();
        assert!(e.msg.contains("series count mismatch"), "{e}");
    }

    const TICK_PS: u64 = 1_000_000;

    fn view(job: &str, reg: &Registry, ring: &Ring) -> JobView {
        JobView {
            job: job.into(),
            net: 0,
            interval_ps: TICK_PS,
            registry: reg.clone(),
            ring: ring.clone(),
            health: "null".to_string(),
            engine: EngineReport::default(),
            progress: Progress::default(),
        }
    }

    /// The header-only block a view with no series writes for `job`.
    fn empty_block(job: &str) -> String {
        encode_jsonl(&SeriesDump {
            job: job.to_string(),
            net: 0,
            interval_ps: TICK_PS,
            keys: Vec::new(),
            ticks: Vec::new(),
        })
    }

    #[test]
    fn plane_orders_jsonl_by_job_selection() {
        let plane = Plane::new();
        let (reg, ring) = (Registry::new(), Ring::new(1));
        for job in ["fig10", "fig1", "fig10/2"] {
            plane.publish(&format!("{job}#net0"), view(job, &reg, &ring));
        }
        let out = plane.jsonl_for_jobs(&["fig10".to_string(), "fig1".to_string()]);
        // fig10's keys (including the nested scope) come first, and the
        // "fig1" root never prefix-matches "fig10".
        assert_eq!(out, ["fig10", "fig10/2", "fig1"].map(empty_block).concat());
    }

    /// A publication is a snapshot: the network keeps sampling, counting
    /// and even registering after it, and the plane still renders the
    /// bytes the encoders gave at publish time.
    #[test]
    fn plane_renders_the_publication_not_the_live_state() {
        let (mut reg, c, g, h) = sample_registry();
        let mut ring = Ring::new(3);
        for k in 1..=4u64 {
            reg.add(c, k);
            reg.set(g, k as f64 * 1.5);
            reg.observe(h, 0.002 * k as f64);
            ring.record(k * TICK_PS, reg.scalar_values());
        }
        let plane = Plane::new();
        let net2 = JobView {
            net: 2,
            ..view("fig10", &reg, &ring)
        };
        plane.publish("fig10#net2", net2);
        let labels = [("job", "fig10"), ("net", "2")];
        let exposition = reg.render_prometheus(&labels);
        let block = encode_jsonl(&SeriesDump {
            job: "fig10".to_string(),
            net: 2,
            interval_ps: TICK_PS,
            keys: reg.scalar_keys(),
            ticks: ring.iter().map(|(t, r)| (t, r.to_vec())).collect(),
        });

        reg.add(c, 100);
        reg.set(g, -1.0);
        reg.observe(h, 9.0);
        reg.counter("xpass_late_total", "registered after the publish", &[]);
        ring.record(5 * TICK_PS, vec![0.0, 0.0]);
        ring.record(6 * TICK_PS, vec![0.0, 0.0]);

        assert_eq!(plane.render_metrics(), exposition);
        assert_eq!(plane.jsonl_for_jobs(&["fig10".to_string()]), block);
        assert_ne!(reg.render_prometheus(&labels), exposition);
    }

    #[test]
    fn exposition_parser_handles_escapes_and_rejects_garbage() {
        let samples =
            parse_exposition("m{k=\"a\\\"b\\\\c\"} 1\n# comment\n\nplain 2.5\n").expect("parse");
        assert_eq!(samples[0].labels[0].1, "a\"b\\c");
        assert_eq!(samples[1].value, 2.5);
        assert!(parse_exposition("m{k=\"v\" 1").is_err());
        assert!(parse_exposition("m{k=v} 1").is_err());
        assert!(parse_exposition("m}{ x").is_err());
        assert!(parse_exposition("1name 2").is_err());
    }
}
