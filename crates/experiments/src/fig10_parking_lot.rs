//! Fig 10 — parking-lot utilization: Flow 0 spans N bottleneck links, one
//! cross-flow per link. Without feedback, credits over-admitted at early
//! links are dropped at later ones, leaving earlier links' reverse data
//! paths underutilized (83.3 % at N = 2, 60 % at N = 6). The credit
//! feedback loop restores ~98 %.

use crate::harness::{text_table, Scheme};
use std::fmt;
use xpass_net::ids::{NodeId, SwitchId};
use xpass_net::network::Network;
use xpass_net::packet::max_data_fraction;
use xpass_net::topology::Topology;
use xpass_sim::json::Json;
use xpass_sim::time::{Dur, SimTime};
use xpass_workloads::{add_all, parking_lot};

/// Fig 10 configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Bottleneck counts to test (paper: 1–6).
    pub bottlenecks: Vec<usize>,
    /// Link speed.
    pub link_bps: u64,
    /// Warmup before measuring.
    pub warmup: Dur,
    /// Measurement window.
    pub window: Dur,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            bottlenecks: vec![1, 2, 3, 4, 5, 6],
            link_bps: 10_000_000_000,
            warmup: Dur::ms(4),
            window: Dur::ms(4),
            seed: 23,
        }
    }
}

/// One measured point.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// Number of bottleneck links.
    pub n: usize,
    /// Minimum per-link utilization, normalized by the max data rate.
    pub min_utilization: f64,
}

/// Fig 10 result for one scheme.
#[derive(Clone, Debug)]
pub struct Series {
    /// Scheme name.
    pub scheme: &'static str,
    /// Utilization per bottleneck count.
    pub points: Vec<Point>,
}

/// Fig 10 result.
#[derive(Clone, Debug)]
pub struct Fig10 {
    /// Feedback (ExpressPass) and naïve series.
    pub series: Vec<Series>,
}

/// Warm a chain network up for `warmup`, then measure each of the `n`
/// switch-to-switch links over `window` and return the minimum utilization,
/// normalized by the maximum goodput-carrying data rate (1538/1622 of line
/// rate). Shared between this module and the scenario engine's
/// `min_link_utilization` measurement so both report identical numbers.
pub fn min_chain_utilization(
    net: &mut Network,
    n: usize,
    link_bps: u64,
    warmup: Dur,
    window: Dur,
) -> f64 {
    net.run_until(SimTime::ZERO + warmup);
    let links: Vec<_> = (0..n)
        .map(|i| {
            net.topo()
                .dlink_between(
                    NodeId::Switch(SwitchId(i as u32)),
                    NodeId::Switch(SwitchId((i + 1) as u32)),
                )
                .unwrap()
        })
        .collect();
    let before: Vec<u64> = links.iter().map(|&l| net.port(l).tx_data_bytes).collect();
    net.run_until(SimTime::ZERO + warmup + window);
    let max_data = link_bps as f64 * max_data_fraction() / 8.0 * window.as_secs_f64();
    links
        .iter()
        .zip(before)
        .map(|(&l, b)| (net.port(l).tx_data_bytes - b) as f64 / max_data)
        .fold(f64::INFINITY, f64::min)
}

fn measure(cfg: &Config, scheme: Scheme, n: usize) -> f64 {
    // Chain of n+1 switches → n bottleneck links; 2 hosts per switch.
    let topo = Topology::chain(n + 1, 2, cfg.link_bps, Dur::us(1));
    let mut net = scheme.build(topo, cfg.link_bps, cfg.seed);
    let bytes = (cfg.link_bps / 8) * 2;
    add_all(&mut net, &parking_lot(n, bytes));
    min_chain_utilization(&mut net, n, cfg.link_bps, cfg.warmup, cfg.window)
}

/// Run both series.
pub fn run(cfg: &Config) -> Fig10 {
    let schemes = [
        (
            "w/ feedback",
            Scheme::XPass(expresspass::XPassConfig::aggressive()),
        ),
        ("naive", Scheme::NaiveCredit),
    ];
    let series = schemes
        .into_iter()
        .map(|(name, s)| Series {
            scheme: name,
            points: cfg
                .bottlenecks
                .iter()
                .map(|&n| Point {
                    n,
                    min_utilization: measure(cfg, s, n),
                })
                .collect(),
        })
        .collect();
    Fig10 { series }
}

impl fmt::Display for Fig10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut headers = vec!["scheme".to_string()];
        for p in &self.series[0].points {
            headers.push(format!("N={}", p.n));
        }
        let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let rows: Vec<Vec<String>> = self
            .series
            .iter()
            .map(|s| {
                let mut row = vec![s.scheme.to_string()];
                row.extend(
                    s.points
                        .iter()
                        .map(|p| format!("{:.1}%", p.min_utilization * 100.0)),
                );
                row
            })
            .collect();
        writeln!(f, "Fig 10: min link utilization on the parking lot")?;
        write!(f, "{}", text_table(&hdr_refs, &rows))
    }
}

impl Fig10 {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        let series = self
            .series
            .iter()
            .map(|s| {
                let points = s
                    .points
                    .iter()
                    .map(|p| {
                        Json::obj()
                            .with("n", Json::num_u64(p.n as u64))
                            .with("min_utilization", Json::Num(p.min_utilization))
                    })
                    .collect();
                Json::obj()
                    .with("scheme", Json::str(s.scheme))
                    .with("points", Json::Arr(points))
            })
            .collect();
        Json::obj().with("series", Json::Arr(series))
    }
}

/// Registry adapter: drives Fig 10 through the [`crate::Experiment`] trait.
#[derive(Default)]
pub struct Exp(Config);

impl crate::Experiment for Exp {
    fn name(&self) -> &str {
        "fig10"
    }
    fn describe(&self) -> &str {
        "parking-lot utilization"
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
            bottlenecks: vec![2, 4],
            warmup: Dur::ms(4),
            window: Dur::ms(4),
            ..Config::default()
        }
    }

    #[test]
    fn feedback_beats_naive_and_stays_high() {
        let r = run(&quick());
        let fb = &r.series[0].points;
        let naive = &r.series[1].points;
        for (a, b) in fb.iter().zip(naive.iter()) {
            assert!(
                a.min_utilization > b.min_utilization,
                "N={}: feedback {:.3} vs naive {:.3}",
                a.n,
                a.min_utilization,
                b.min_utilization
            );
        }
        // Feedback holds ≥ 85% at every depth (paper: ~98%).
        for p in fb {
            assert!(
                p.min_utilization > 0.80,
                "N={}: {:.3}",
                p.n,
                p.min_utilization
            );
        }
    }

    #[test]
    fn naive_degrades_with_depth() {
        let r = run(&quick());
        let naive = &r.series[1].points;
        // The paper's analysis: 83.3% at N=2 falling toward 60% at N=6.
        assert!(
            naive.last().unwrap().min_utilization <= naive.first().unwrap().min_utilization + 0.02,
            "naive should not improve with depth: {naive:?}"
        );
        assert!(naive[0].min_utilization < 0.95);
    }

    #[test]
    fn renders() {
        assert!(run(&quick()).to_string().contains("Fig 10"));
    }
}
