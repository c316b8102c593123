//! Fig 6(a) — credit pacing jitter vs fairness on drop-tail credit queues.
//!
//! N concurrent ExpressPass flows share one bottleneck; the credit queues
//! use plain **drop-tail** overflow (the commodity-switch behaviour) and the
//! host-side pacing jitter `j` is swept. Perfect pacing (j = 0) synchronizes
//! credit arrivals and skews drops badly; tens of nanoseconds of jitter
//! restore fairness — the result that motivates §3.1's jitter mechanism.

use crate::harness::text_table;
use expresspass::{xpass_factory, XPassConfig};
use std::fmt;
use xpass_net::config::{HostDelayModel, NetConfig};
use xpass_net::ids::HostId;
use xpass_net::network::Network;
use xpass_net::queue::CreditDropPolicy;
use xpass_net::topology::Topology;
use xpass_sim::stats::jain_fairness;
use xpass_sim::time::{Dur, SimTime};

/// Fig 6a configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Concurrent flow counts to test (paper: 1–1024).
    pub flow_counts: Vec<usize>,
    /// Jitter levels `j` relative to the inter-credit gap (paper: 0–0.08).
    pub jitters: Vec<f64>,
    /// Link speed.
    pub link_bps: u64,
    /// Fairness measurement interval (paper: 1 ms).
    pub interval: Dur,
    /// Warmup before measuring.
    pub warmup: Dur,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            flow_counts: vec![4, 16, 64, 128],
            jitters: vec![0.0, 0.01, 0.02, 0.04, 0.08],
            link_bps: 10_000_000_000,
            interval: Dur::ms(5),
            warmup: Dur::ms(20),
            seed: 5,
        }
    }
}

/// One measured point.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// Concurrent flows.
    pub flows: usize,
    /// Jitter level j (`None` = uniform-random-drop reference run).
    pub jitter: Option<f64>,
    /// Jain's fairness index over the measurement interval.
    pub fairness: f64,
}

/// Fig 6a result.
#[derive(Clone, Debug)]
pub struct Fig6a {
    /// All points (flows × jitters).
    pub points: Vec<Point>,
}

fn measure(cfg: &Config, n: usize, j: Option<f64>) -> f64 {
    let topo = Topology::dumbbell(n, cfg.link_bps, Dur::us(8));
    let mut net_cfg = NetConfig::expresspass().with_seed(cfg.seed);
    // The droptail behaviour under test; also disable the credit-size
    // randomization and host jitter so pacing jitter is the only source of
    // randomness in credit arrival order.
    net_cfg.credit_drop = match j {
        Some(_) => CreditDropPolicy::Tail,
        None => CreditDropPolicy::UniformRandom,
    };
    net_cfg.host_delay = HostDelayModel {
        min: Dur::us(1),
        max: Dur::us(1),
    };
    let mut xp = XPassConfig::aggressive().with_jitter(j.unwrap_or(0.05));
    xp.randomize_credit_size = false;
    let mut net = Network::new(topo, net_cfg, xpass_factory(xp));
    let bytes = cfg.link_bps / 8;
    let flows: Vec<_> = (0..n)
        .map(|i| {
            net.add_flow(
                HostId(i as u32),
                HostId((n + i) as u32),
                bytes,
                SimTime::ZERO,
            )
        })
        .collect();
    net.run_until(SimTime::ZERO + cfg.warmup);
    let before: Vec<u64> = flows.iter().map(|&f| net.delivered_bytes(f)).collect();
    net.run_until(SimTime::ZERO + cfg.warmup + cfg.interval);
    let deltas: Vec<f64> = flows
        .iter()
        .zip(before)
        .map(|(&f, b)| (net.delivered_bytes(f) - b) as f64)
        .collect();
    jain_fairness(&deltas)
}

/// Run the sweep.
pub fn run(cfg: &Config) -> Fig6a {
    let mut points = Vec::new();
    for &n in &cfg.flow_counts {
        for &j in &cfg.jitters {
            points.push(Point {
                flows: n,
                jitter: Some(j),
                fairness: measure(cfg, n, Some(j)),
            });
        }
        // Reference: the uniform-random drop policy the rest of the
        // reproduction uses (the behaviour the paper's jitter approximates).
        points.push(Point {
            flows: n,
            jitter: None,
            fairness: measure(cfg, n, None),
        });
    }
    Fig6a { points }
}

impl fmt::Display for Fig6a {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut jitters: Vec<Option<f64>> = Vec::new();
        for p in &self.points {
            if !jitters.contains(&p.jitter) {
                jitters.push(p.jitter);
            }
        }
        let mut headers = vec!["flows".to_string()];
        headers.extend(jitters.iter().map(|j| match j {
            Some(j) => format!("j={j}"),
            None => "rand-drop".to_string(),
        }));
        let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut rows = Vec::new();
        let mut flows: Vec<usize> = Vec::new();
        for p in &self.points {
            if !flows.contains(&p.flows) {
                flows.push(p.flows);
            }
        }
        for n in flows {
            let mut row = vec![n.to_string()];
            for p in self.points.iter().filter(|p| p.flows == n) {
                row.push(format!("{:.3}", p.fairness));
            }
            rows.push(row);
        }
        writeln!(
            f,
            "Fig 6a: Jain fairness vs pacing jitter (drop-tail credit queues)"
        )?;
        write!(f, "{}", text_table(&hdr_refs, &rows))
    }
}

use xpass_sim::json::Json;

impl Fig6a {
    /// Structured payload: Jain index per (flows, jitter) point. `jitter`
    /// is `null` for the uniform-random-drop reference runs.
    pub fn to_json(&self) -> Json {
        let points = self
            .points
            .iter()
            .map(|p| {
                Json::obj()
                    .with("flows", Json::num_u64(p.flows as u64))
                    .with("jitter", crate::experiment::json_opt_f64(p.jitter))
                    .with("fairness", Json::Num(p.fairness))
            })
            .collect();
        Json::obj().with("points", Json::Arr(points))
    }
}

/// Registry adapter: drives Fig 6a through the [`crate::Experiment`] trait.
#[derive(Default)]
pub struct Exp(Config);

impl crate::Experiment for Exp {
    fn name(&self) -> &str {
        "fig06"
    }
    fn describe(&self) -> &str {
        "pacing jitter vs credit-drop fairness"
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

    fn quick_cfg() -> Config {
        Config {
            flow_counts: vec![16],
            jitters: vec![0.0, 0.08],
            ..Config::default()
        }
    }

    #[test]
    fn jitter_improves_droptail_fairness() {
        // The figure's claims: perfect pacing over drop-tail credit queues
        // is unfair, and small pacing jitter restores most of the fairness;
        // the uniform-random-drop reference is comparably fair.
        let r = run(&quick_cfg());
        let j0 = r.points[0].fairness;
        let j_hi = r
            .points
            .iter()
            .filter(|p| p.jitter == Some(0.08))
            .map(|p| p.fairness)
            .next()
            .unwrap();
        let rand = r
            .points
            .iter()
            .find(|p| p.jitter.is_none())
            .unwrap()
            .fairness;
        assert!(j_hi > j0, "j=0.08 {j_hi:.3} not above j=0 {j0:.3}");
        assert!(j_hi > 0.7, "jittered fairness {j_hi:.3}");
        assert!(rand > 0.7, "random-drop fairness {rand:.3}");
    }

    #[test]
    fn renders() {
        let s = run(&quick_cfg()).to_string();
        assert!(s.contains("Fig 6a"));
        assert!(s.contains("j=0.08"));
    }
}
