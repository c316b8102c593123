//! Fig 2 — convergence time of the naïve credit scheme vs TCP CUBIC vs
//! DCTCP (testbed experiment, reproduced in the simulator): a second flow
//! joins a saturated 10 G bottleneck, and we measure how long it takes to
//! reach its fair share. The paper reports ~25 µs for the naïve credit
//! scheme, 47 ms for CUBIC, and 70 ms for DCTCP.

use crate::harness::{convergence_time, convergence_time_cumulative, text_table, Scheme};
use std::fmt;
use xpass_net::ids::HostId;
use xpass_net::packet::{MAX_FRAME, MSS};
use xpass_sim::time::{Dur, SimTime};

/// Fig 2 configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Link speed.
    pub link_bps: u64,
    /// Per-link propagation delay (the testbed's RTT is ~25 µs).
    pub prop: Dur,
    /// Time the second flow joins.
    pub join_at: Dur,
    /// How long to run after the join.
    pub window: Dur,
    /// Throughput sample interval.
    pub sample: Dur,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            link_bps: 10_000_000_000,
            prop: Dur::us(10),
            join_at: Dur::ms(5),
            window: Dur::ms(1000),
            sample: Dur::us(65),
            seed: 3,
        }
    }
}

/// Per-scheme outcome.
#[derive(Clone, Debug)]
pub struct Row {
    /// Scheme name.
    pub scheme: &'static str,
    /// Time from join to sustained fair share, if reached.
    pub convergence: Option<Dur>,
}

/// Fig 2 result.
#[derive(Clone, Debug)]
pub struct Fig2 {
    /// Naïve credit, CUBIC, DCTCP rows.
    pub rows: Vec<Row>,
}

/// Measure convergence of one scheme.
pub fn run_scheme(cfg: &Config, scheme: Scheme) -> Option<Dur> {
    let topo = xpass_net::topology::Topology::dumbbell(2, cfg.link_bps, cfg.prop);
    let mut net = scheme.build(topo, cfg.link_bps, cfg.seed);
    net.set_sample_interval(cfg.sample);
    // Long-running flows (sized to outlast the window).
    let bytes = cfg.link_bps / 8;
    net.add_flow(HostId(0), HostId(2), bytes, SimTime::ZERO);
    let join = SimTime::ZERO + cfg.join_at;
    let late = net.add_flow(HostId(1), HostId(3), bytes, join);
    net.track_flow(late);
    net.run_until(join + cfg.window);
    // Fair share for the late flow ≈ half the data capacity.
    let eff = match scheme {
        Scheme::XPass(_) | Scheme::NaiveCredit => 0.9482 * MSS as f64 / MAX_FRAME as f64,
        _ => MSS as f64 / MAX_FRAME as f64,
    };
    let fair = cfg.link_bps as f64 / 2.0 * eff / 1e9;
    match scheme {
        // Loss-based TCPs keep a deep sawtooth around fairness: use the
        // smooth cumulative-average metric.
        Scheme::Cubic | Scheme::Reno => convergence_time_cumulative(&net, late, join, fair, 0.30),
        _ => convergence_time(&net, late, join, fair, 0.35, 20),
    }
}

/// Run the three-scheme comparison.
pub fn run(cfg: &Config) -> Fig2 {
    let schemes = [
        ("NaiveCredit", Scheme::NaiveCredit),
        ("CUBIC", Scheme::Cubic),
        ("DCTCP", Scheme::Dctcp),
    ];
    let rows = schemes
        .into_iter()
        .map(|(name, s)| Row {
            scheme: name,
            convergence: run_scheme(cfg, s),
        })
        .collect();
    Fig2 { rows }
}

impl fmt::Display for Fig2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.scheme.to_string(),
                    r.convergence
                        .map(|d| format!("{d}"))
                        .unwrap_or_else(|| "not converged".into()),
                ]
            })
            .collect();
        writeln!(f, "Fig 2: time for a joining flow to reach fair share")?;
        write!(f, "{}", text_table(&["Scheme", "Convergence"], &rows))
    }
}

use xpass_sim::json::Json;

impl Fig2 {
    /// Structured payload: per-scheme convergence time (seconds, `null`
    /// when the flow never reached its fair share in the window).
    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                Json::obj().with("scheme", Json::str(r.scheme)).with(
                    "convergence_s",
                    crate::experiment::json_opt_secs(r.convergence),
                )
            })
            .collect();
        Json::obj().with("rows", Json::Arr(rows))
    }
}

/// Registry adapter: drives Fig 2 through the [`crate::Experiment`] trait.
#[derive(Default)]
pub struct Exp(Config);

impl crate::Experiment for Exp {
    fn name(&self) -> &str {
        "fig02"
    }
    fn describe(&self) -> &str {
        "naive credit vs CUBIC vs DCTCP convergence"
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
    fn naive_credit_converges_orders_of_magnitude_faster() {
        let cfg = Config::default();
        let r = run(&cfg);
        let naive = r.rows[0].convergence.expect("naive converges");
        let dctcp = r.rows[2].convergence.expect("dctcp converges");
        // Paper: 25us vs 70ms (~2800x). Require ≥ 20x in the scaled run.
        assert!(
            dctcp.as_ps() > naive.as_ps() * 20,
            "naive {naive} vs dctcp {dctcp}"
        );
        // Naïve credit converges within a few RTTs (~25us in the paper).
        assert!(naive < Dur::ms(2), "naive {naive}");
    }

    #[test]
    fn cubic_slower_than_naive() {
        let cfg = Config::default();
        let naive = run_scheme(&cfg, Scheme::NaiveCredit).unwrap();
        let cubic = run_scheme(&cfg, Scheme::Cubic).expect("cubic converges");
        assert!(cubic >= naive * 2, "cubic {cubic} vs naive {naive}");
    }
}
