//! Metric names, units and bounds; the result record of one workload
//! run; and its renderings: the table for people, the record file for
//! `compare`, and the one-line result for the driver.

use crate::api::Json;
use crate::stats;
use std::collections::BTreeMap;

pub const SCHEMA: &str = "xpass-benchmark/v1";

/// An end-to-end metric: lower is better for all of them.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
    /// Differences below this are never a verdict (`setup_s` of the
    /// fat-tree workloads is 1–3 ms; a quarter of that is timer noise).
    pub floor: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        floor: 0.05,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.1,
        floor: 0.0,
    },
];

/// What kind of number a layer metric is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Made by the program; repeats exactly for one seed.
    Count,
    /// Measured on the host; never repeats exactly.
    Measured,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub kind: Kind,
}

const fn layer(name: &'static str, unit: &'static str, kind: Kind) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: false,
        kind,
    }
}

const fn count(name: &'static str) -> Layer {
    layer(name, "count", Kind::Count)
}

const fn measured(name: &'static str, unit: &'static str) -> Layer {
    layer(name, unit, Kind::Measured)
}

const fn higher(mut l: Layer) -> Layer {
    l.higher_is_better = true;
    l
}

/// Every per-layer metric, grouped by layer (= module name). A metric a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[Layer] = &[
    // event (xpass-sim::event / calendar)
    count("event.events"),
    count("event.peak_queue_len"),
    measured("event.ns_per_event", "ns"),
    measured("event.hold_ns", "ns"),
    // network (xpass-net::network)
    count("network.ev_arrive"),
    count("network.ev_port_wake"),
    count("network.ev_host_rx"),
    count("network.ev_timer"),
    count("network.ev_flow_start"),
    measured("network.new_ms", "ms"),
    measured("network.add_flow_us", "us"),
    measured("network.finish_ms", "ms"),
    measured("network.run_slice_max_over_mean", "ratio"),
    // topology (+ routing)
    measured("topology.build_ms", "ms"),
    count("topology.route_pool_len"),
    measured("topology.route_lookup_ns", "ns"),
    // port / queue
    count("port.max_data_queue_bytes"),
    count("port.data_drops"),
    count("port.credit_drops"),
    count("port.ecn_marked"),
    // arena / timers
    count("arena.slots"),
    // Exact on the probe-free simulations; with the metrics plane on, the
    // published views hold wall-clock numbers whose text varies in length.
    measured("arena.live_bytes_per_flow", "B"),
    measured("timers.event_share", "ratio"),
    measured("timers.arm_fire_ns", "ns"),
    // core (expresspass)
    count("core.credits_sent"),
    count("core.credits_wasted"),
    count("core.credits_dropped"),
    measured("core.feedback_update_ns", "ns"),
    measured("core.netcalc_us", "us"),
    // baselines
    count("baselines.ecn_marked"),
    count("baselines.data_drops"),
    count("baselines.unfinished"),
    // workloads
    measured("workloads.generate_ms", "ms"),
    // probes
    measured("ledger.overhead_ratio", "ratio"),
    measured("health.overhead_ratio", "ratio"),
    measured("watchdog.overhead_ratio", "ratio"),
    measured("trace.overhead_ratio", "ratio"),
    measured("metrics.overhead_ratio", "ratio"),
    measured("checkpoint.overhead_ratio", "ratio"),
    measured("probes.base_run_s", "s"),
    count("metrics.samples"),
    measured("metrics.render_us", "us"),
    measured("metrics.encode_jsonl_ms", "ms"),
    count("trace.events"),
    count("checkpoint.count"),
    measured("snap.snapshot_ms", "ms"),
    layer("snap.bytes", "B", Kind::Count),
    measured("snap.write_ms", "ms"),
    measured("snap.restore_ms", "ms"),
    measured("snap.rss_delta_mb", "MB"),
    // http
    measured("http.ingest_p50_ms", "ms"),
    measured("http.ingest_p99_ms", "ms"),
    measured("http.ingest_max_ms", "ms"),
    measured("http.scrape_p50_ms", "ms"),
    measured("http.scrape_p90_ms", "ms"),
    higher(count("http.status_2xx")),
    count("http.status_429"),
    count("http.status_other"),
    measured("http.parse_request_ns", "ns"),
    measured("http.daemon_cpu_s", "s"),
    // ingest
    measured("ingest.parse_arrivals_ns", "ns"),
    measured("ingest.offer_drain_ns", "ns"),
    measured("ingest.journal_group_us", "us"),
    measured("ingest.parse_journal_ms", "ms"),
    // How arrivals batch into admission groups follows the wall clock.
    layer("ingest.groups", "count", Kind::Measured),
    higher(count("ingest.admitted")),
    // ws
    measured("ws.handshake_ms", "ms"),
    higher(layer("ws.frames", "count", Kind::Measured)),
    higher(layer("ws.bytes", "B", Kind::Measured)),
    count("ws.lag_disconnects"),
    measured("ws.encode_frame_ns", "ns"),
    measured("ws.push_poll_ns", "ns"),
    // service (experiments::service, signal)
    measured("service.shutdown_ms", "ms"),
    measured("service.generator_lag_p99_ms", "ms"),
    // experiments
    measured("scenario.load_us", "us"),
    higher(measured("parallel.jobs2_speedup", "ratio")),
    // the harness's own tracing
    measured("harness.trace_overhead_ratio", "ratio"),
    higher(measured("harness.span_coverage", "ratio")),
];

/// One metric of one run: the reported value and the per-rep samples it
/// is the median of (empty when it is a single reading).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn single(value: f64) -> Metric {
        Metric {
            value,
            samples: Vec::new(),
        }
    }

    pub fn median_of(samples: Vec<f64>) -> Metric {
        Metric {
            value: stats::median(&samples),
            samples,
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub reps: u64,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub digest: Option<u64>,
    /// The digest differs from the committed one (default seed only).
    pub digest_changed: Option<bool>,
    pub metrics: BTreeMap<String, Metric>,
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), Metric::single(value));
    }

    pub fn set_median(&mut self, name: &str, samples: Vec<f64>) {
        self.metrics
            .insert(name.to_string(), Metric::median_of(samples));
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |m| m.value)
    }

    /// Names and units of the metrics this pass reports, in table order.
    fn reported(&self) -> Vec<(&'static str, &'static str)> {
        if self.traced {
            PER_LAYER.iter().map(|l| (l.name, l.unit)).collect()
        } else {
            END_TO_END.iter().map(|e| (e.name, e.unit)).collect()
        }
    }

    /// The driver's result: the last line of standard output.
    pub fn contract_line(&self) -> String {
        let mut metrics = Json::obj();
        for (name, unit) in self.reported() {
            metrics.set(
                name,
                Json::obj()
                    .with("value", Json::Num(self.value(name)))
                    .with("unit", Json::str(unit)),
            );
        }
        Json::obj()
            .with("correct", Json::Bool(self.correct()))
            .with("attempted", Json::num_u64(self.attempted.max(1)))
            .with("failed", Json::num_u64(self.failed))
            .with("metrics", metrics)
            .to_string()
    }

    /// Every metric by name with its unit, then the checks.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} seed {} ({}, {} rep{}) ==\n",
            self.workload,
            self.seed,
            if self.traced {
                "traced pass: per-layer"
            } else {
                "untraced pass: end-to-end"
            },
            self.reps,
            if self.reps == 1 { "" } else { "s" },
        );
        for (name, unit) in self.reported() {
            let m = self.metrics.get(name);
            let spread = match m {
                Some(m) if m.samples.len() > 1 => {
                    let (q1, _, q3) = stats::quartiles(&m.samples);
                    format!("   [q1 {q1:.6}  q3 {q3:.6}  n {}]", m.samples.len())
                }
                _ => String::new(),
            };
            out.push_str(&format!(
                "{name:<34} {:>16.6} {unit}{spread}\n",
                self.value(name)
            ));
        }
        if let Some(d) = self.digest {
            out.push_str(&format!("digest {d:#018x}"));
            if self.digest_changed == Some(true) {
                out.push_str("  digest_changed (differs from benchmark/baseline.json)");
            }
            out.push('\n');
        }
        for c in &self.checks {
            out.push_str(&format!(
                "check {:<40} {}{}\n",
                c.name,
                if c.ok { "ok" } else { "FAILED" },
                if c.detail.is_empty() {
                    String::new()
                } else {
                    format!("  ({})", c.detail)
                }
            ));
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }

    /// The record `compare` reads. Ends with `"claim": null`: a run of the
    /// benchmark measures, it claims nothing.
    pub fn to_json(&self) -> Json {
        let mut metrics = Json::obj();
        for (name, unit) in self.reported() {
            let m = self.metrics.get(name).cloned().unwrap_or_default();
            metrics.set(
                name,
                Json::obj()
                    .with("value", Json::Num(m.value))
                    .with("unit", Json::str(unit))
                    .with(
                        "samples",
                        Json::Arr(m.samples.iter().map(|v| Json::Num(*v)).collect()),
                    ),
            );
        }
        let (nproc, cpu) = crate::proc::host();
        Json::obj()
            .with("schema", Json::str(SCHEMA))
            .with("workload", Json::str(&*self.workload))
            .with("seed", Json::num_u64(self.seed))
            .with("seconds", Json::num_u64(self.seconds))
            .with("traced", Json::Bool(self.traced))
            .with("reps", Json::num_u64(self.reps))
            .with("correct", Json::Bool(self.correct()))
            .with("attempted", Json::num_u64(self.attempted))
            .with("failed", Json::num_u64(self.failed))
            .with(
                "digest",
                self.digest
                    .map_or(Json::Null, |d| Json::str(format!("{d:#018x}"))),
            )
            .with(
                "digest_changed",
                self.digest_changed.map_or(Json::Null, Json::Bool),
            )
            .with(
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Json::obj()
                                .with("name", Json::str(&*c.name))
                                .with("ok", Json::Bool(c.ok))
                                .with("detail", Json::str(&*c.detail))
                        })
                        .collect(),
                ),
            )
            .with("metrics", metrics)
            .with(
                "notes",
                Json::Arr(self.notes.iter().map(|n| Json::str(&**n)).collect()),
            )
            .with(
                "host",
                Json::obj()
                    .with("nproc", Json::num_u64(nproc as u64))
                    .with("cpu", Json::str(cpu)),
            )
            .with("claim", Json::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::parse_json;

    /// `BENCHMARK.json` and the tables above name the same metrics with
    /// the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let b = parse_json(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let list = |key: &str| b.get(key).and_then(Json::as_array).expect(key).to_vec();
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, e) in e2e.iter().zip(END_TO_END) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(e.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(e.unit));
            assert_eq!(j.get("better").and_then(Json::as_str), Some("lower"));
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(e.bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (j, l) in layers.iter().zip(PER_LAYER) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(l.name));
            assert_eq!(
                j.get("unit").and_then(Json::as_str),
                Some(l.unit),
                "{}",
                l.name
            );
            let better = if l.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(better),
                "{}",
                l.name
            );
        }
        let workloads = list("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, crate::WORKLOADS);
        assert_eq!(
            b.get("run_seconds").and_then(Json::as_u64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let mut r = RunResult {
            workload: "fct_xpass".into(),
            attempted: 1200,
            ..RunResult::default()
        };
        r.set_median("run_s", vec![2.9, 2.7, 2.8]);
        r.check("zero_unfinished", true, "");
        let j = parse_json(&r.contract_line()).unwrap();
        let Json::Obj(pairs) = &j else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = j.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            j.get("metrics")
                .unwrap()
                .get("run_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(2.8)
        );
        // A failed check flips `correct`; the traced pass lists every layer metric.
        r.check("digest", false, "differs");
        r.traced = true;
        let j = parse_json(&r.contract_line()).unwrap();
        assert_eq!(j.get("correct"), Some(&Json::Bool(false)));
        let Some(Json::Obj(metrics)) = j.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
        // The record ends with the claim, and the claim is null.
        assert!(r.to_json().to_string().ends_with("\"claim\":null}"));
    }
}
