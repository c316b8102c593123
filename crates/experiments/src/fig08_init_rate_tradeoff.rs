//! Fig 8 — the initial-rate trade-off: (a) convergence time of a new flow
//! joining an existing one, versus α = initial_rate/max_rate; (b) credits
//! wasted by a single-packet flow in an idle network (RTT 100 µs), versus α.
//!
//! Small α saves credits on mice but slows ramp-up: the paper picks
//! α = w_init = 1/16 as the sweet spot (§6.3).

use crate::harness::{convergence_time, text_table};
use expresspass::{xpass_factory, XPassConfig};
use std::fmt;
use xpass_net::config::{HostDelayModel, NetConfig};
use xpass_net::ids::HostId;
use xpass_net::network::Network;
use xpass_net::topology::Topology;
use xpass_sim::time::{Dur, SimTime};

/// Fig 8 configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// α values (paper: 1, 1/2, …, 1/32).
    pub alphas: Vec<f64>,
    /// Link speed.
    pub link_bps: u64,
    /// Per-link propagation chosen so RTT ≈ 100 µs (paper's Fig 8b).
    pub prop: Dur,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            alphas: vec![1.0, 0.5, 0.25, 0.125, 1.0 / 16.0, 1.0 / 32.0],
            link_bps: 10_000_000_000,
            prop: Dur::us(16),
            seed: 11,
        }
    }
}

/// One α row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Initial-rate fraction.
    pub alpha: f64,
    /// Convergence time of a joining flow, in RTTs (None = not converged).
    pub convergence_rtts: Option<f64>,
    /// Credits wasted by a 1-packet flow.
    pub wasted_credits: u64,
}

/// Fig 8 result.
#[derive(Clone, Debug)]
pub struct Fig8 {
    /// Rows in α order.
    pub rows: Vec<Row>,
    /// The base RTT used to normalize (seconds).
    pub rtt: f64,
}

fn xpass_net(cfg: &Config, alpha: f64, seed: u64, n_pairs: usize) -> Network {
    let topo = Topology::dumbbell(n_pairs, cfg.link_bps, cfg.prop);
    let mut net_cfg = NetConfig::expresspass().with_seed(seed);
    net_cfg.host_delay = HostDelayModel {
        min: Dur::us(1),
        max: Dur::us(1),
    };
    let xp = XPassConfig::default().with_alpha_winit(alpha, 0.5);
    Network::new(topo, net_cfg, xpass_factory(xp))
}

/// Run both panels.
pub fn run(cfg: &Config) -> Fig8 {
    // Base RTT: 3 hops × 2 × (prop + MTU serialization) + host delays.
    let rtt = 6.0 * (cfg.prop.as_secs_f64() + 1538.0 * 8.0 / cfg.link_bps as f64) + 2e-6;
    let mut rows = Vec::new();
    for &alpha in &cfg.alphas {
        // (a) convergence of a joining flow.
        let mut net = xpass_net(cfg, alpha, cfg.seed, 2);
        net.set_sample_interval(Dur::from_secs_f64(rtt));
        let bytes = cfg.link_bps / 8;
        net.add_flow(HostId(0), HostId(2), bytes, SimTime::ZERO);
        let join = SimTime::ZERO + Dur::ms(4);
        let late = net.add_flow(HostId(1), HostId(3), bytes, join);
        net.track_flow(late);
        net.run_until(join + Dur::ms(20));
        let fair = cfg.link_bps as f64 / 2.0 * 0.9482 * (1460.0 / 1538.0) / 1e9;
        let conv =
            convergence_time(&net, late, join, fair, 0.30, 15).map(|d| d.as_secs_f64() / rtt);

        // (b) credit waste of a single-packet flow in an idle network.
        let mut net = xpass_net(cfg, alpha, cfg.seed + 1, 1);
        net.add_flow(HostId(0), HostId(1), 1000, SimTime::ZERO);
        net.run_until_done(SimTime::ZERO + Dur::ms(50));
        net.run_until(net.now() + Dur::ms(5));
        let wasted = net.counters().credits_wasted;

        rows.push(Row {
            alpha,
            convergence_rtts: conv,
            wasted_credits: wasted,
        });
    }
    Fig8 { rows, rtt }
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    format!("1/{:.0}", 1.0 / r.alpha),
                    r.convergence_rtts
                        .map(|c| format!("{c:.1}"))
                        .unwrap_or_else(|| "-".into()),
                    r.wasted_credits.to_string(),
                ]
            })
            .collect();
        writeln!(
            f,
            "Fig 8: initial-rate trade-off (RTT = {:.0}us)",
            self.rtt * 1e6
        )?;
        write!(
            f,
            "{}",
            text_table(
                &["init/max rate", "convergence (RTTs)", "wasted credits"],
                &rows
            )
        )
    }
}

use xpass_sim::json::Json;

impl Fig8 {
    /// Structured payload: per-α convergence (in RTTs) and credit waste.
    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                Json::obj()
                    .with("alpha", Json::Num(r.alpha))
                    .with(
                        "convergence_rtts",
                        crate::experiment::json_opt_f64(r.convergence_rtts),
                    )
                    .with("wasted_credits", Json::num_u64(r.wasted_credits))
            })
            .collect();
        Json::obj()
            .with("rtt_s", Json::Num(self.rtt))
            .with("rows", Json::Arr(rows))
    }
}

/// Registry adapter: drives Fig 8 through the [`crate::Experiment`] trait.
#[derive(Default)]
pub struct Exp(Config);

impl crate::Experiment for Exp {
    fn name(&self) -> &str {
        "fig08"
    }
    fn describe(&self) -> &str {
        "initial-rate trade-off"
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

    #[test]
    fn tradeoff_shapes() {
        let cfg = Config {
            alphas: vec![0.5, 1.0 / 32.0],
            ..Config::default()
        };
        let r = run(&cfg);
        let hi = &r.rows[0];
        let lo = &r.rows[1];
        // Larger α wastes more credits on a 1-packet flow...
        assert!(
            hi.wasted_credits > lo.wasted_credits,
            "waste: α=1/2 {} vs α=1/32 {}",
            hi.wasted_credits,
            lo.wasted_credits
        );
        // ...but converges in fewer RTTs.
        let c_hi = hi.convergence_rtts.expect("α=1/2 converges");
        let c_lo = lo.convergence_rtts.expect("α=1/32 converges");
        assert!(c_hi < c_lo, "convergence: {c_hi} vs {c_lo}");
    }

    #[test]
    fn waste_magnitude_reasonable() {
        // Paper Fig 8b: ~80 wasted credits at α=1, ~2 at 1/32 (100us RTT).
        let cfg = Config {
            alphas: vec![1.0],
            ..Config::default()
        };
        let r = run(&cfg);
        let w = r.rows[0].wasted_credits;
        assert!((20..200).contains(&w), "wasted {w}");
    }

    #[test]
    fn renders() {
        let cfg = Config {
            alphas: vec![0.5],
            ..Config::default()
        };
        assert!(run(&cfg).to_string().contains("Fig 8"));
    }
}
