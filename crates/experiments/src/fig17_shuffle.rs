//! Fig 17 — MapReduce shuffle on a single rack: all-to-all transfers among
//! tasks on every host. The paper (40 hosts × 8 tasks × 1 MB ⇒ ~100k
//! flows) finds DCTCP slightly ahead at the median but ExpressPass 1.51×
//! better at the 99th percentile and 6.65× at the tail, where DCTCP's
//! stragglers time out repeatedly.
//!
//! The scaled default shrinks hosts/tasks/bytes; `paper_scale()` restores
//! the full workload.

use crate::harness::{fmt_secs, text_table, Scheme};
use std::fmt;
use xpass_net::topology::Topology;
use xpass_sim::stats::Percentiles;
use xpass_sim::time::{Dur, SimTime};
use xpass_workloads::{add_all, shuffle};

/// Fig 17 configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Hosts on the rack (paper: 40).
    pub hosts: usize,
    /// Tasks per host (paper: 8).
    pub tasks_per_host: usize,
    /// Bytes per task pair (paper: 1 MB).
    pub bytes: u64,
    /// Link speed.
    pub link_bps: u64,
    /// Run cap.
    pub cap: Dur,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            hosts: 16,
            tasks_per_host: 6,
            bytes: 100_000,
            link_bps: 10_000_000_000,
            cap: Dur::secs(30),
            seed: 47,
        }
    }
}

impl Config {
    /// The paper's full-scale shuffle (~100k flows — minutes of runtime).
    pub fn paper_scale() -> Config {
        Config {
            hosts: 40,
            tasks_per_host: 8,
            bytes: 1_000_000,
            cap: Dur::secs(120),
            ..Config::default()
        }
    }
}

/// One scheme's FCT distribution.
#[derive(Clone, Debug)]
pub struct Row {
    /// Scheme name.
    pub scheme: &'static str,
    /// Median FCT (s).
    pub median: f64,
    /// 99th percentile FCT (s).
    pub p99: f64,
    /// Max FCT (s).
    pub max: f64,
    /// Flows that missed the cap.
    pub unfinished: usize,
}

/// Fig 17 result.
#[derive(Clone, Debug)]
pub struct Fig17 {
    /// ExpressPass and DCTCP rows.
    pub rows: Vec<Row>,
    /// Total flows per run.
    pub n_flows: usize,
}

/// Run one scheme.
pub fn run_scheme(cfg: &Config, scheme: Scheme) -> Row {
    let topo = Topology::star(cfg.hosts, cfg.link_bps, Dur::us(5));
    let mut net = scheme.build(topo, cfg.link_bps, cfg.seed);
    let specs = shuffle(cfg.hosts, cfg.tasks_per_host, cfg.bytes, net.rng());
    add_all(&mut net, &specs);
    net.run_until_done(SimTime::ZERO + cfg.cap);
    let mut fcts = Percentiles::new();
    let mut unfinished = 0;
    for r in net.flow_records() {
        match r.fct {
            Some(d) => fcts.add(d.as_secs_f64()),
            None => unfinished += 1,
        }
    }
    Row {
        scheme: scheme.name(),
        median: fcts.median(),
        p99: fcts.p99(),
        max: fcts.max(),
        unfinished,
    }
}

/// Run the ExpressPass vs DCTCP comparison.
pub fn run(cfg: &Config) -> Fig17 {
    let n = cfg.hosts * (cfg.hosts - 1) * cfg.tasks_per_host * cfg.tasks_per_host;
    Fig17 {
        rows: vec![
            run_scheme(cfg, Scheme::XPass(expresspass::XPassConfig::default())),
            run_scheme(cfg, Scheme::Dctcp),
        ],
        n_flows: n,
    }
}

impl fmt::Display for Fig17 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.scheme.to_string(),
                    fmt_secs(r.median),
                    fmt_secs(r.p99),
                    fmt_secs(r.max),
                    r.unfinished.to_string(),
                ]
            })
            .collect();
        writeln!(f, "Fig 17: shuffle FCTs over {} flows", self.n_flows)?;
        write!(
            f,
            "{}",
            text_table(&["Scheme", "Median", "99%-ile", "Max", "Unfinished"], &rows)
        )
    }
}

use xpass_sim::json::Json;

impl Fig17 {
    /// Structured payload: FCT distribution summary per scheme (seconds).
    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                Json::obj()
                    .with("scheme", Json::str(r.scheme))
                    .with("median_s", Json::Num(r.median))
                    .with("p99_s", Json::Num(r.p99))
                    .with("max_s", Json::Num(r.max))
                    .with("unfinished", Json::num_u64(r.unfinished as u64))
            })
            .collect();
        Json::obj()
            .with("n_flows", Json::num_u64(self.n_flows as u64))
            .with("rows", Json::Arr(rows))
    }
}

/// Registry adapter: drives Fig 17 through the [`crate::Experiment`] trait.
#[derive(Default)]
pub struct Exp(Config);

impl crate::Experiment for Exp {
    fn name(&self) -> &str {
        "fig17"
    }
    fn describe(&self) -> &str {
        "MapReduce shuffle FCTs"
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
        Config::default()
    }

    #[test]
    fn shuffle_completes_and_medians_close() {
        // At this scaled-down fan-in the paper's 6.65x DCTCP tail blow-up
        // (driven by cascaded timeouts at 2496 flows/host) does not fully
        // materialize; we assert what does reproduce — zero data loss for
        // the credit scheme, comparable-or-better medians — and record the
        // tail comparison in EXPERIMENTS.md.
        let r = run(&quick());
        let xp = &r.rows[0];
        let dc = &r.rows[1];
        assert_eq!(xp.unfinished, 0, "xpass unfinished");
        assert_eq!(dc.unfinished, 0, "dctcp unfinished");
        assert!(
            xp.median < dc.median * 1.1,
            "median: xpass {:.4}s vs dctcp {:.4}s",
            xp.median,
            dc.median
        );
        let tail_ratio = xp.max / dc.max;
        assert!(tail_ratio < 2.0, "xpass tail {tail_ratio:.2}x dctcp's");
    }

    #[test]
    fn all_to_all_count() {
        let r = run(&quick());
        let c = quick();
        assert_eq!(
            r.n_flows,
            c.hosts * (c.hosts - 1) * c.tasks_per_host * c.tasks_per_host
        );
    }

    #[test]
    fn renders() {
        assert!(run(&quick()).to_string().contains("Fig 17"));
    }
}
