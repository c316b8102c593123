//! Table 3 — average / maximum switch queue occupancy for the realistic
//! workloads across loads and schemes.
//!
//! Paper shape: ExpressPass averages well under 1 KB with a max bound set
//! by the topology (independent of load); RCP pins the max at queue
//! capacity; DCTCP's average and max grow with load; DX/HULL keep small
//! averages with moderate maxima.

use crate::harness::{fmt_bytes, text_table, RealisticRun, Scheme};
use std::fmt;
use xpass_workloads::Workload;

/// Table 3 configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workloads and flow counts.
    pub workloads: Vec<(Workload, usize)>,
    /// Target loads (paper: 0.2 / 0.4 / 0.6).
    pub loads: Vec<f64>,
    /// Schemes.
    pub schemes: Vec<Scheme>,
    /// Link speed.
    pub link_bps: u64,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            workloads: vec![(Workload::WebServer, 1500), (Workload::CacheFollower, 600)],
            loads: vec![0.2, 0.6],
            schemes: Scheme::comparison_set(),
            link_bps: 10_000_000_000,
            seed: 71,
        }
    }
}

impl Config {
    /// The paper's full grid.
    pub fn paper_scale() -> Config {
        Config {
            workloads: vec![
                (Workload::DataMining, 100_000),
                (Workload::WebSearch, 100_000),
                (Workload::CacheFollower, 100_000),
                (Workload::WebServer, 100_000),
            ],
            loads: vec![0.2, 0.4, 0.6],
            ..Config::default()
        }
    }
}

/// One cell.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Workload name.
    pub workload: &'static str,
    /// Load.
    pub load: f64,
    /// Scheme name.
    pub scheme: &'static str,
    /// Time-weighted average queue (bytes, mean over switch ports).
    pub avg_bytes: f64,
    /// Maximum queue (bytes).
    pub max_bytes: u64,
}

/// Table 3 result.
#[derive(Clone, Debug)]
pub struct Table3 {
    /// All cells.
    pub cells: Vec<Cell>,
}

/// Run the grid.
pub fn run(cfg: &Config) -> Table3 {
    let mut cells = Vec::new();
    for &(w, n) in &cfg.workloads {
        for &load in &cfg.loads {
            for &scheme in &cfg.schemes {
                let r = RealisticRun {
                    workload: w,
                    load,
                    n_flows: n,
                    link_bps: cfg.link_bps,
                    scheme,
                    seed: cfg.seed,
                }
                .run();
                cells.push(Cell {
                    workload: w.name(),
                    load,
                    scheme: scheme.name(),
                    avg_bytes: r.avg_queue_bytes,
                    max_bytes: r.max_queue_bytes,
                });
            }
        }
    }
    Table3 { cells }
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.workload.to_string(),
                    format!("{:.1}", c.load),
                    c.scheme.to_string(),
                    fmt_bytes(c.avg_bytes),
                    fmt_bytes(c.max_bytes as f64),
                ]
            })
            .collect();
        writeln!(f, "Table 3: average / max switch queue occupancy")?;
        write!(
            f,
            "{}",
            text_table(&["Workload", "Load", "Scheme", "Avg", "Max"], &rows)
        )
    }
}

use xpass_sim::json::Json;

impl Table3 {
    /// Structured payload: avg/max queue bytes per (workload, load, scheme).
    pub fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Json::obj()
                    .with("workload", Json::str(c.workload))
                    .with("load", Json::Num(c.load))
                    .with("scheme", Json::str(c.scheme))
                    .with("avg_bytes", Json::Num(c.avg_bytes))
                    .with("max_bytes", Json::num_u64(c.max_bytes))
            })
            .collect();
        Json::obj().with("cells", Json::Arr(cells))
    }
}

/// Registry adapter: drives Table 3 through the [`crate::Experiment`] trait.
#[derive(Default)]
pub struct Exp(Config);

impl crate::Experiment for Exp {
    fn name(&self) -> &str {
        "table3"
    }
    fn describe(&self) -> &str {
        "queue occupancy"
    }
    fn paper_scale_config(&mut self) -> bool {
        self.0 = Config::paper_scale();
        true
    }
    fn set_seed(&mut self, seed: u64) {
        self.0.seed = seed;
    }
    fn run(&self, _trace: Option<Box<dyn xpass_sim::trace::TraceSink>>) -> crate::ExperimentOutput {
        let r = run(&self.0);
        crate::ExperimentOutput::new(r.to_string(), r.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Config {
        Config {
            workloads: vec![(Workload::WebServer, 600)],
            loads: vec![0.6],
            schemes: vec![
                Scheme::XPass(expresspass::XPassConfig::default()),
                Scheme::Dctcp,
            ],
            ..Config::default()
        }
    }

    #[test]
    fn expresspass_queues_smaller_than_dctcp() {
        let r = run(&quick());
        let xp = &r.cells[0];
        let dc = &r.cells[1];
        assert!(
            xp.avg_bytes < dc.avg_bytes,
            "avg: xpass {} vs dctcp {}",
            xp.avg_bytes,
            dc.avg_bytes
        );
        assert!(
            xp.max_bytes < dc.max_bytes,
            "max: xpass {} vs dctcp {}",
            xp.max_bytes,
            dc.max_bytes
        );
    }

    #[test]
    fn renders() {
        assert!(run(&quick()).to_string().contains("Table 3"));
    }
}
