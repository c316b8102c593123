//! Fig 20 — credit waste ratio by workload, link speed, and α: the
//! fraction of credits that reach a sender with nothing to send. Waste is
//! proportional to BDP and inversely proportional to mean flow size, so
//! the Web Server workload at 40 G wastes the most (paper: 60 % at
//! α = 1/2, 31 % at α = 1/16).

use crate::harness::{text_table, RealisticRun, Scheme};
use expresspass::XPassConfig;
use std::fmt;
use xpass_workloads::Workload;

/// Fig 20 configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workloads and flow counts.
    pub workloads: Vec<(Workload, usize)>,
    /// Link speeds (paper: 10 G, 40 G).
    pub speeds: Vec<u64>,
    /// α values (paper plots 1/2-ish defaults and 1/16).
    pub alphas: Vec<f64>,
    /// Target load.
    pub load: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            workloads: vec![(Workload::WebServer, 2000), (Workload::CacheFollower, 800)],
            speeds: vec![10_000_000_000, 40_000_000_000],
            alphas: vec![0.5, 1.0 / 16.0],
            load: 0.6,
            seed: 61,
        }
    }
}

/// One cell.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Workload name.
    pub workload: &'static str,
    /// Link speed.
    pub speed_bps: u64,
    /// α.
    pub alpha: f64,
    /// Wasted / sent.
    pub waste_ratio: f64,
}

/// Fig 20 result.
#[derive(Clone, Debug)]
pub struct Fig20 {
    /// All cells.
    pub cells: Vec<Cell>,
}

/// Run the grid.
pub fn run(cfg: &Config) -> Fig20 {
    let mut cells = Vec::new();
    for &(w, n) in &cfg.workloads {
        for &speed in &cfg.speeds {
            for &alpha in &cfg.alphas {
                let xp = XPassConfig::default().with_alpha_winit(alpha, alpha.min(0.5));
                let r = RealisticRun {
                    workload: w,
                    load: cfg.load,
                    n_flows: n,
                    link_bps: speed,
                    scheme: Scheme::XPass(xp),
                    seed: cfg.seed,
                }
                .run();
                cells.push(Cell {
                    workload: w.name(),
                    speed_bps: speed,
                    alpha,
                    waste_ratio: if r.credits_sent > 0 {
                        r.credits_wasted as f64 / r.credits_sent as f64
                    } else {
                        0.0
                    },
                });
            }
        }
    }
    Fig20 { cells }
}

impl fmt::Display for Fig20 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.workload.to_string(),
                    format!("{}G", c.speed_bps / 1_000_000_000),
                    format!("1/{:.0}", 1.0 / c.alpha),
                    format!("{:.1}%", c.waste_ratio * 100.0),
                ]
            })
            .collect();
        writeln!(f, "Fig 20: credit waste ratio (load 0.6)")?;
        write!(
            f,
            "{}",
            text_table(&["Workload", "Speed", "alpha", "waste"], &rows)
        )
    }
}

use xpass_sim::json::Json;

impl Fig20 {
    /// Structured payload: waste ratio per (workload, speed, α) cell.
    pub fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Json::obj()
                    .with("workload", Json::str(c.workload))
                    .with("speed_bps", Json::num_u64(c.speed_bps))
                    .with("alpha", Json::Num(c.alpha))
                    .with("waste_ratio", Json::Num(c.waste_ratio))
            })
            .collect();
        Json::obj().with("cells", Json::Arr(cells))
    }
}

/// Registry adapter: drives Fig 20 through the [`crate::Experiment`] trait.
#[derive(Default)]
pub struct Exp(Config);

impl crate::Experiment for Exp {
    fn name(&self) -> &str {
        "fig20"
    }
    fn describe(&self) -> &str {
        "credit waste ratio"
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
            workloads: vec![(Workload::WebServer, 800)],
            speeds: vec![10_000_000_000, 40_000_000_000],
            alphas: vec![0.5, 1.0 / 16.0],
            ..Config::default()
        }
    }

    #[test]
    fn waste_grows_with_speed_and_alpha() {
        let r = run(&quick());
        let get = |speed: u64, alpha: f64| {
            r.cells
                .iter()
                .find(|c| c.speed_bps == speed && (c.alpha - alpha).abs() < 1e-9)
                .unwrap()
                .waste_ratio
        };
        let w10_half = get(10_000_000_000, 0.5);
        let w40_half = get(40_000_000_000, 0.5);
        let w10_16 = get(10_000_000_000, 1.0 / 16.0);
        // Waste is material at both speeds (the paper reports growth with
        // BDP; our scaled flow counts shrink that gap — see EXPERIMENTS.md).
        assert!(
            w40_half > 0.01 && w10_half > 0.01,
            "waste vanished: 40G {w40_half:.3}, 10G {w10_half:.3}"
        );
        // Smaller α wastes less.
        assert!(
            w10_16 <= w10_half * 1.15,
            "α=1/16 {w10_16:.3} vs α=1/2 {w10_half:.3}"
        );
        // Web Server at 10G, α=1/2: waste is a material fraction of
        // credits (the paper reports 34% at its 52us-RTT full scale; our
        // scaled runs sit lower — see EXPERIMENTS.md).
        assert!(
            (0.02..0.7).contains(&w10_half),
            "waste {w10_half:.3} out of plausible band"
        );
    }

    #[test]
    fn renders() {
        assert!(run(&quick()).to_string().contains("Fig 20"));
    }
}
