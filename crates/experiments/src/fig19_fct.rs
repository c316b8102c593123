//! Fig 19 — average and 99th-percentile FCT per flow-size bucket for the
//! realistic workloads at load 0.6, across the five schemes (ExpressPass,
//! RCP, DCTCP, DX, HULL) on the 192-host 3:1 fat tree.
//!
//! Paper shape: ExpressPass wins S and M buckets (1.3–5.1× faster average
//! than DCTCP, more at the tail); DCTCP/RCP win L and XL (ExpressPass pays
//! its ~5 % bandwidth reservation and credit waste).
//!
//! The scaled default runs fewer flows on the lighter workloads;
//! `paper_scale()` uses 100k flows including Data Mining.

use crate::harness::{fmt_secs, text_table, RealisticRun, Scheme, SizeBucket};
use std::fmt;
use xpass_net::health::HealthReport;
use xpass_net::network::Counters;
use xpass_sim::json::Json;
use xpass_sim::profile::EngineReport;
use xpass_sim::trace::TraceSink;
use xpass_workloads::Workload;

/// Fig 19 configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workloads and per-workload flow counts.
    pub workloads: Vec<(Workload, usize)>,
    /// Target load.
    pub load: f64,
    /// Link speed.
    pub link_bps: u64,
    /// Schemes (defaults to the paper's five).
    pub schemes: Vec<Scheme>,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            workloads: vec![
                (Workload::WebServer, 3000),
                (Workload::CacheFollower, 1200),
                (Workload::WebSearch, 600),
            ],
            load: 0.6,
            link_bps: 10_000_000_000,
            schemes: Scheme::comparison_set(),
            seed: 53,
        }
    }
}

impl Config {
    /// The paper's configuration (100k flows, all heavy workloads).
    pub fn paper_scale() -> Config {
        Config {
            workloads: vec![
                (Workload::WebServer, 100_000),
                (Workload::CacheFollower, 100_000),
                (Workload::WebSearch, 100_000),
                (Workload::DataMining, 100_000),
            ],
            ..Config::default()
        }
    }
}

/// One (workload, scheme) cell.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Workload name.
    pub workload: &'static str,
    /// Scheme name.
    pub scheme: &'static str,
    /// (avg, p99) per bucket, seconds.
    pub buckets: [(f64, f64); 4],
    /// Completed flows per bucket.
    pub counts: [usize; 4],
    /// (median, p99) FCT over all buckets combined, seconds.
    pub overall: (f64, f64),
    /// Unfinished flows.
    pub unfinished: usize,
    /// Mean time-weighted switch-egress queue occupancy, bytes.
    pub avg_queue_bytes: f64,
    /// Peak instantaneous switch queue, bytes.
    pub max_queue_bytes: u64,
    /// Global packet/credit counters for the run.
    pub counters: Counters,
    /// Engine profile for the run.
    pub engine: EngineReport,
    /// Invariant-monitor outcome (monitored for ExpressPass only).
    pub health: HealthReport,
}

impl Cell {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        let buckets = SizeBucket::all()
            .iter()
            .zip(self.buckets.iter().zip(self.counts.iter()))
            .map(|(b, (&(avg, p99), &count))| {
                Json::obj()
                    .with("bucket", Json::str(b.label()))
                    .with("avg_s", Json::Num(avg))
                    .with("p99_s", Json::Num(p99))
                    .with("count", Json::num_u64(count as u64))
            })
            .collect();
        Json::obj()
            .with("workload", Json::str(self.workload))
            .with("scheme", Json::str(self.scheme))
            .with("fct_buckets", Json::Arr(buckets))
            .with(
                "fct_overall",
                Json::obj()
                    .with("p50_s", Json::Num(self.overall.0))
                    .with("p99_s", Json::Num(self.overall.1)),
            )
            .with("unfinished", Json::num_u64(self.unfinished as u64))
            .with(
                "queue",
                Json::obj()
                    .with("avg_switch_bytes", Json::Num(self.avg_queue_bytes))
                    .with("max_switch_bytes", Json::num_u64(self.max_queue_bytes)),
            )
            .with("counters", self.counters.to_json())
            .with("engine", self.engine.to_json())
            .with("health", self.health.to_json())
    }
}

/// Fig 19 result.
#[derive(Clone, Debug)]
pub struct Fig19 {
    /// All cells.
    pub cells: Vec<Cell>,
}

impl Fig19 {
    /// Render the whole grid as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj().with(
            "cells",
            Json::Arr(self.cells.iter().map(Cell::to_json).collect()),
        )
    }
}

/// Run the grid.
pub fn run(cfg: &Config) -> Fig19 {
    run_traced(cfg, None).0
}

/// Run the grid with an optional trace sink threaded through every cell's
/// simulation (all cells append to the same stream, in grid order).
pub fn run_traced(
    cfg: &Config,
    mut sink: Option<Box<dyn TraceSink>>,
) -> (Fig19, Option<Box<dyn TraceSink>>) {
    let mut cells = Vec::new();
    for &(w, n) in &cfg.workloads {
        for &scheme in &cfg.schemes {
            let (r, returned) = RealisticRun {
                workload: w,
                load: cfg.load,
                n_flows: n,
                link_bps: cfg.link_bps,
                scheme,
                seed: cfg.seed,
            }
            .run_traced(sink.take());
            sink = returned;
            let mut fct = r.fct.clone();
            let buckets = SizeBucket::all().map(|b| (fct.avg(b), fct.p99(b)));
            let counts = SizeBucket::all().map(|b| fct.count(b));
            let mut overall = fct.overall();
            let overall = if overall.is_empty() {
                (0.0, 0.0)
            } else {
                (overall.median(), overall.p99())
            };
            cells.push(Cell {
                workload: w.name(),
                scheme: scheme.name(),
                buckets,
                counts,
                overall,
                unfinished: r.unfinished,
                avg_queue_bytes: r.avg_queue_bytes,
                max_queue_bytes: r.max_queue_bytes,
                counters: r.counters,
                engine: r.engine,
                health: r.health,
            });
        }
    }
    (Fig19 { cells }, sink)
}

impl fmt::Display for Fig19 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 19: avg / 99% FCT per size bucket (load 0.6)")?;
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                let mut row = vec![c.workload.to_string(), c.scheme.to_string()];
                for (avg, p99) in c.buckets {
                    row.push(format!("{}/{}", fmt_secs(avg), fmt_secs(p99)));
                }
                row.push(c.unfinished.to_string());
                row
            })
            .collect();
        write!(
            f,
            "{}",
            text_table(&["Workload", "Scheme", "S", "M", "L", "XL", "unfin"], &rows)
        )
    }
}

/// Registry adapter: drives Fig 19 through the [`crate::Experiment`] trait.
/// The only experiment that records `--trace` events.
#[derive(Default)]
pub struct Exp(Config);

impl crate::Experiment for Exp {
    fn name(&self) -> &str {
        "fig19"
    }
    fn describe(&self) -> &str {
        "realistic-workload FCTs"
    }
    fn paper_scale_config(&mut self) -> bool {
        self.0 = Config::paper_scale();
        true
    }
    fn set_seed(&mut self, seed: u64) {
        self.0.seed = seed;
    }
    fn traces(&self) -> bool {
        true
    }
    fn run(&self, trace: Option<Box<dyn TraceSink>>) -> crate::ExperimentOutput {
        let (r, sink) = run_traced(&self.0, trace);
        drop(sink); // flush
        crate::ExperimentOutput::new(r.to_string(), r.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Config {
        Config {
            workloads: vec![(Workload::WebServer, 600)],
            schemes: vec![
                Scheme::XPass(expresspass::XPassConfig::default()),
                Scheme::Dctcp,
            ],
            ..Config::default()
        }
    }

    #[test]
    fn expresspass_wins_small_flows() {
        let r = run(&quick());
        let xp = &r.cells[0];
        let dc = &r.cells[1];
        assert_eq!(xp.unfinished, 0);
        assert_eq!(dc.unfinished, 0);
        // S-bucket average: ExpressPass at least comparable, typically
        // faster (paper: 1.3–5.1x faster).
        let (xp_s, _) = xp.buckets[0];
        let (dc_s, _) = dc.buckets[0];
        assert!(
            xp_s < dc_s * 1.3,
            "S avg: xpass {} vs dctcp {}",
            fmt_secs(xp_s),
            fmt_secs(dc_s)
        );
    }

    #[test]
    fn json_round_trip_cross_checks() {
        let r = run(&quick());
        let j = xpass_sim::json::parse(&r.to_json().to_string()).unwrap();
        let cells = j.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), r.cells.len());
        let c0 = &cells[0];
        assert_eq!(c0.get("scheme").unwrap().as_str(), Some("ExpressPass"));
        assert_eq!(
            c0.get("counters")
                .unwrap()
                .get("credits_sent")
                .unwrap()
                .as_u64(),
            Some(r.cells[0].counters.credits_sent)
        );
        assert_eq!(
            c0.get("engine")
                .unwrap()
                .get("events_processed")
                .unwrap()
                .as_u64(),
            Some(r.cells[0].engine.events_processed)
        );
        let buckets = c0.get("fct_buckets").unwrap().as_array().unwrap();
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[0].get("bucket").unwrap().as_str(), Some("S"));
        assert_eq!(
            buckets[0].get("avg_s").unwrap().as_f64(),
            Some(r.cells[0].buckets[0].0)
        );
        // The ExpressPass cell is invariant-monitored and healthy on the
        // stock config; the DCTCP baseline is not monitored.
        let health = c0.get("health").unwrap();
        assert_eq!(health.get("monitored").unwrap().as_bool(), Some(true));
        assert_eq!(health.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(
            cells[1]
                .get("health")
                .unwrap()
                .get("monitored")
                .unwrap()
                .as_bool(),
            Some(false)
        );
    }

    #[test]
    fn renders() {
        let r = run(&quick());
        let s = r.to_string();
        assert!(s.contains("Fig 19"));
        assert!(s.contains("ExpressPass"));
    }
}
