//! Fig 16 — convergence time at 10 G and 100 G with 100 µs base RTT: a
//! second flow joins a saturated bottleneck; we count RTTs until fair
//! share.
//!
//! Paper shape: ExpressPass converges in ~3 RTTs (α = 1/2) or ~6 RTTs
//! (α = 1/16) **independent of link speed**; DCTCP needs ~260 RTTs at 10 G
//! and ~2350 at 100 G (convergence ∝ BDP); RCP ~3 RTTs at both.

use crate::harness::{convergence_time, text_table, Scheme};
use expresspass::XPassConfig;
use std::fmt;
use xpass_net::ids::HostId;
use xpass_net::packet::{MAX_FRAME, MSS};
use xpass_net::topology::Topology;
use xpass_sim::time::{Dur, SimTime};

/// Fig 16 configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Link speeds (paper: 10 G and 100 G).
    pub speeds: Vec<u64>,
    /// Base RTT (paper: 100 µs).
    pub base_rtt: Dur,
    /// Observation window after the join.
    pub window: Dur,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            speeds: vec![10_000_000_000, 100_000_000_000],
            base_rtt: Dur::us(100),
            window: Dur::ms(60),
            seed: 43,
        }
    }
}

/// One (scheme, speed) cell.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Scheme label.
    pub scheme: String,
    /// Link speed.
    pub speed_bps: u64,
    /// Convergence time in RTTs (None = did not converge in the window).
    pub rtts: Option<f64>,
}

/// Fig 16 result.
#[derive(Clone, Debug)]
pub struct Fig16 {
    /// All cells.
    pub cells: Vec<Cell>,
}

/// Measure one scheme at one speed.
pub fn measure(cfg: &Config, scheme: Scheme, label: &str, speed: u64) -> Cell {
    // Dumbbell with per-link propagation so the 6-hop RTT ≈ base_rtt.
    let prop = cfg.base_rtt / 6 / 2;
    let topo = Topology::dumbbell(2, speed, prop);
    let mut net = scheme.build(topo, speed, cfg.seed);
    net.set_sample_interval(cfg.base_rtt);
    let bytes = speed / 8; // 1 second of traffic: outlives the run
    net.add_flow(HostId(0), HostId(2), bytes, SimTime::ZERO);
    let join = SimTime::ZERO + Dur::ms(8);
    let late = net.add_flow(HostId(1), HostId(3), bytes, join);
    net.track_flow(late);
    net.run_until(join + cfg.window);
    let eff = match scheme {
        Scheme::XPass(_) | Scheme::NaiveCredit => 0.9482 * MSS as f64 / MAX_FRAME as f64,
        _ => MSS as f64 / MAX_FRAME as f64,
    };
    let fair = speed as f64 / 2.0 * eff / 1e9;
    let conv = convergence_time(&net, late, join, fair, 0.30, 15);
    Cell {
        scheme: label.to_string(),
        speed_bps: speed,
        rtts: conv.map(|d| d.as_secs_f64() / cfg.base_rtt.as_secs_f64()),
    }
}

/// Run the full grid.
pub fn run(cfg: &Config) -> Fig16 {
    let schemes: Vec<(String, Scheme)> = vec![
        (
            "ExpressPass a=1/2".into(),
            Scheme::XPass(XPassConfig::aggressive()),
        ),
        (
            "ExpressPass a=1/16".into(),
            Scheme::XPass(XPassConfig::default().with_alpha_winit(1.0 / 16.0, 1.0 / 16.0)),
        ),
        ("DCTCP".into(), Scheme::Dctcp),
        ("RCP".into(), Scheme::Rcp),
    ];
    let mut cells = Vec::new();
    for (label, s) in &schemes {
        for &speed in &cfg.speeds {
            cells.push(measure(cfg, *s, label, speed));
        }
    }
    Fig16 { cells }
}

impl fmt::Display for Fig16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.scheme.clone(),
                    format!("{}G", c.speed_bps / 1_000_000_000),
                    c.rtts
                        .map(|r| format!("{r:.0} RTTs"))
                        .unwrap_or_else(|| "> window".into()),
                ]
            })
            .collect();
        writeln!(
            f,
            "Fig 16: convergence time of a joining flow (RTT = 100us)"
        )?;
        write!(
            f,
            "{}",
            text_table(&["Scheme", "Speed", "Convergence"], &rows)
        )
    }
}

use xpass_sim::json::Json;

impl Fig16 {
    /// Structured payload: convergence in RTTs per (scheme, speed) cell.
    /// `rtts` is `null` when the flow did not converge in the window.
    pub fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Json::obj()
                    .with("scheme", Json::str(&c.scheme))
                    .with("speed_bps", Json::num_u64(c.speed_bps))
                    .with("rtts", crate::experiment::json_opt_f64(c.rtts))
            })
            .collect();
        Json::obj().with("cells", Json::Arr(cells))
    }
}

/// Registry adapter: drives Fig 16 through the [`crate::Experiment`] trait.
#[derive(Default)]
pub struct Exp(Config);

impl crate::Experiment for Exp {
    fn name(&self) -> &str {
        "fig16"
    }
    fn describe(&self) -> &str {
        "convergence time at 10G/100G"
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
    fn expresspass_converges_in_few_rtts_speed_independent() {
        let cfg = Config::default();
        let a = measure(
            &cfg,
            Scheme::XPass(XPassConfig::aggressive()),
            "xp",
            10_000_000_000,
        );
        let b = measure(
            &cfg,
            Scheme::XPass(XPassConfig::aggressive()),
            "xp",
            100_000_000_000,
        );
        let ra = a.rtts.expect("converges at 10G");
        let rb = b.rtts.expect("converges at 100G");
        assert!(ra < 60.0, "10G: {ra} RTTs");
        assert!(rb < 60.0, "100G: {rb} RTTs");
        // Speed-independence: within a small factor of each other.
        assert!(rb < ra * 4.0 + 5.0, "{ra} vs {rb}");
    }

    #[test]
    fn dctcp_needs_orders_of_magnitude_longer() {
        let cfg = Config {
            window: Dur::ms(50),
            ..Config::default()
        };
        let xp = measure(
            &cfg,
            Scheme::XPass(XPassConfig::aggressive()),
            "xp",
            10_000_000_000,
        )
        .rtts
        .expect("xp converges");
        let dc = measure(&cfg, Scheme::Dctcp, "dctcp", 10_000_000_000);
        // DCTCP either converges much later or not within the window.
        // DCTCP not converging in 50ms = 500 RTTs is also consistent.
        if let Some(r) = dc.rtts {
            assert!(r > xp * 4.0, "dctcp {r} vs xpass {xp}");
        }
    }

    #[test]
    fn rcp_fast_too() {
        let cfg = Config::default();
        let rcp = measure(&cfg, Scheme::Rcp, "rcp", 10_000_000_000)
            .rtts
            .expect("rcp converges");
        assert!(rcp < 60.0, "rcp {rcp} RTTs");
    }
}
