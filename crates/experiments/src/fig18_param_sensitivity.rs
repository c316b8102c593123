//! Fig 18 — parameter sensitivity: 99th-percentile FCT of short (S) and
//! large (L) flows under realistic workloads, for (α, w_init) pairs from
//! (1/2, 1/2) down to (1/32, 1/32). Small α improves large flows (less
//! credit waste from mice) at the cost of short-flow FCT; the paper picks
//! (1/16, 1/16).

use crate::harness::{fmt_secs, text_table, RealisticRun, Scheme, SizeBucket};
use expresspass::XPassConfig;
use std::fmt;
use xpass_workloads::Workload;

/// Fig 18 configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// (α, w_init) pairs, in the paper's order.
    pub params: Vec<(f64, f64)>,
    /// Workload and flow count.
    pub workload: Workload,
    /// Flows per run.
    pub n_flows: usize,
    /// Target load.
    pub load: f64,
    /// Link speed.
    pub link_bps: u64,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            params: vec![
                (0.5, 0.5),
                (1.0 / 16.0, 0.5),
                (1.0 / 16.0, 1.0 / 16.0),
                (1.0 / 32.0, 1.0 / 16.0),
                (1.0 / 32.0, 1.0 / 32.0),
            ],
            workload: Workload::CacheFollower,
            n_flows: 1000,
            load: 0.6,
            link_bps: 10_000_000_000,
            seed: 59,
        }
    }
}

/// One parameter point.
#[derive(Clone, Debug)]
pub struct Row {
    /// (α, w_init).
    pub alpha: f64,
    /// w_init.
    pub w_init: f64,
    /// 99% FCT of S flows (s).
    pub p99_s: f64,
    /// 99% FCT of L flows (s).
    pub p99_l: f64,
    /// Credit waste ratio for context.
    pub waste: f64,
}

/// Fig 18 result.
#[derive(Clone, Debug)]
pub struct Fig18 {
    /// Rows in sweep order.
    pub rows: Vec<Row>,
}

/// Run the sweep.
pub fn run(cfg: &Config) -> Fig18 {
    let rows = cfg
        .params
        .iter()
        .map(|&(alpha, w_init)| {
            let xp = XPassConfig::default().with_alpha_winit(alpha, w_init);
            let r = RealisticRun {
                workload: cfg.workload,
                load: cfg.load,
                n_flows: cfg.n_flows,
                link_bps: cfg.link_bps,
                scheme: Scheme::XPass(xp),
                seed: cfg.seed,
            }
            .run();
            let mut fct = r.fct.clone();
            Row {
                alpha,
                w_init,
                p99_s: fct.p99(SizeBucket::S),
                p99_l: fct.p99(SizeBucket::L),
                waste: if r.credits_sent > 0 {
                    r.credits_wasted as f64 / r.credits_sent as f64
                } else {
                    0.0
                },
            }
        })
        .collect();
    Fig18 { rows }
}

impl fmt::Display for Fig18 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    format!("1/{:.0}", 1.0 / r.alpha),
                    format!("1/{:.0}", 1.0 / r.w_init),
                    fmt_secs(r.p99_s),
                    fmt_secs(r.p99_l),
                    format!("{:.1}%", r.waste * 100.0),
                ]
            })
            .collect();
        writeln!(f, "Fig 18: 99%-ile FCT vs (alpha, w_init)")?;
        write!(
            f,
            "{}",
            text_table(&["alpha", "w_init", "S p99", "L p99", "waste"], &rows)
        )
    }
}

use xpass_sim::json::Json;

impl Fig18 {
    /// Structured payload: short/large p99 FCTs and waste per (α, w_init).
    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                Json::obj()
                    .with("alpha", Json::Num(r.alpha))
                    .with("w_init", Json::Num(r.w_init))
                    .with("p99_s_s", Json::Num(r.p99_s))
                    .with("p99_l_s", Json::Num(r.p99_l))
                    .with("waste", Json::Num(r.waste))
            })
            .collect();
        Json::obj().with("rows", Json::Arr(rows))
    }
}

/// Registry adapter: drives Fig 18 through the [`crate::Experiment`] trait.
#[derive(Default)]
pub struct Exp(Config);

impl crate::Experiment for Exp {
    fn name(&self) -> &str {
        "fig18"
    }
    fn describe(&self) -> &str {
        "(alpha, w_init) sensitivity"
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
            params: vec![(0.5, 0.5), (1.0 / 16.0, 1.0 / 16.0)],
            n_flows: 400,
            ..Config::default()
        }
    }

    #[test]
    fn smaller_alpha_reduces_waste() {
        let r = run(&quick());
        assert!(
            r.rows[1].waste < r.rows[0].waste,
            "waste: α=1/2 {:.3} vs α=1/16 {:.3}",
            r.rows[0].waste,
            r.rows[1].waste
        );
    }

    #[test]
    fn all_runs_complete() {
        let r = run(&quick());
        for row in &r.rows {
            assert!(row.p99_s > 0.0, "S p99 missing");
            assert!(row.p99_l > 0.0, "L p99 missing");
        }
    }

    #[test]
    fn renders() {
        assert!(run(&quick()).to_string().contains("Fig 18"));
    }
}
