//! Fig 6(b) / Fig 14 — host-model distributions: the credit-processing
//! delay CDF at the host (Fig 14a) and the inter-credit gap measured before
//! and after the NIC/switch metering (Fig 6b / 14b).
//!
//! The paper measured these on the SoftNIC testbed; here the host delay
//! comes from the configured [`HostDelayModel`] and the gaps are measured
//! in-simulator on a saturated single-flow run.

use expresspass::{xpass_factory, XPassConfig};
use std::fmt;
use xpass_net::config::{HostDelayModel, NetConfig};
use xpass_net::ids::HostId;
use xpass_net::network::Network;
use xpass_net::topology::Topology;
use xpass_sim::rng::Rng;
use xpass_sim::stats::Cdf;
use xpass_sim::time::{Dur, SimTime};

/// Fig 14 configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Host delay model under test (Fig 14a: the software implementation).
    pub host_delay: HostDelayModel,
    /// Link speed.
    pub link_bps: u64,
    /// Measurement duration.
    pub duration: Dur,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            host_delay: HostDelayModel::software(),
            link_bps: 10_000_000_000,
            duration: Dur::ms(20),
            seed: 7,
        }
    }
}

/// Fig 14 result.
#[derive(Clone, Debug)]
pub struct Fig14 {
    /// Host credit-processing delay CDF (seconds) — Fig 14a.
    pub host_delay_cdf: Cdf,
    /// Inter-credit gap CDF at the receiver NIC egress (TX) — Fig 6b/14b.
    pub tx_gap_cdf: Cdf,
    /// Inter-credit gap CDF after the bottleneck switch (RX side).
    pub rx_gap_cdf: Cdf,
    /// The ideal gap (one credit per 1622 byte-times), seconds.
    pub ideal_gap: f64,
    /// Standard deviation of the TX gap, seconds (paper: 772.52 ns).
    pub tx_gap_stddev: f64,
}

/// Run the measurement.
pub fn run(cfg: &Config) -> Fig14 {
    // Host-delay CDF directly from the model.
    let mut rng = Rng::new(cfg.seed);
    let mut delays = xpass_sim::stats::Percentiles::new();
    for _ in 0..100_000 {
        delays.add(
            rng.range_dur(cfg.host_delay.min, cfg.host_delay.max)
                .as_secs_f64(),
        );
    }

    // Saturated single flow; collect gaps at the host NIC egress and at the
    // switch egress toward the sender.
    let topo = Topology::dumbbell(1, cfg.link_bps, Dur::us(1));
    let mut net_cfg = NetConfig::expresspass().with_seed(cfg.seed);
    net_cfg.host_delay = cfg.host_delay;
    let mut net = Network::new(topo, net_cfg, xpass_factory(XPassConfig::aggressive()));
    // Receiver is host 1; its uplink carries credits toward the switch.
    let tx_dlink = net.topo().host_uplink[1];
    net.collect_credit_gaps(tx_dlink);
    // The switch egress delivering credits to the sender host 0.
    let rx_dlink = {
        let topo = net.topo();
        let to_sender = xpass_net::ids::NodeId::Host(HostId(0));
        topo.dlinks
            .iter()
            .position(|l| l.to == to_sender)
            .map(|i| xpass_net::ids::DLinkId(i as u32))
            .expect("sender downlink")
    };
    net.collect_credit_gaps(rx_dlink);
    let size = cfg.link_bps / 8; // ~1s worth; run is time-capped
    net.add_flow(HostId(0), HostId(1), size, SimTime::ZERO);
    net.run_until(SimTime::ZERO + cfg.duration);

    let tx = net.credit_gaps_mut(tx_dlink).expect("tx gaps");
    let tx_gap_cdf = tx.cdf(200);
    let n = tx.count();
    let mean: f64 = (1..=n)
        .map(|i| tx.quantile(i as f64 / n as f64))
        .sum::<f64>()
        / n as f64;
    let var: f64 = (1..=n)
        .map(|i| {
            let v = tx.quantile(i as f64 / n as f64) - mean;
            v * v
        })
        .sum::<f64>()
        / n as f64;
    let rx_gap_cdf = net.credit_gaps_mut(rx_dlink).expect("rx gaps").cdf(200);

    Fig14 {
        host_delay_cdf: delays.cdf(200),
        tx_gap_cdf,
        rx_gap_cdf,
        ideal_gap: 1622.0 * 8.0 / cfg.link_bps as f64,
        tx_gap_stddev: var.sqrt(),
    }
}

impl fmt::Display for Fig14 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 6b/14: host model distributions")?;
        writeln!(
            f,
            "host delay    p50={:.2}us p99={:.2}us max={:.2}us",
            self.host_delay_cdf.value_at(0.5) * 1e6,
            self.host_delay_cdf.value_at(0.99) * 1e6,
            self.host_delay_cdf.value_at(1.0) * 1e6
        )?;
        writeln!(
            f,
            "ideal gap     {:.3}us; TX gap p50={:.3}us p99={:.3}us (std {:.0}ns)",
            self.ideal_gap * 1e6,
            self.tx_gap_cdf.value_at(0.5) * 1e6,
            self.tx_gap_cdf.value_at(0.99) * 1e6,
            self.tx_gap_stddev * 1e9
        )?;
        writeln!(
            f,
            "RX gap        p50={:.3}us p99={:.3}us",
            self.rx_gap_cdf.value_at(0.5) * 1e6,
            self.rx_gap_cdf.value_at(0.99) * 1e6
        )
    }
}

use xpass_sim::json::Json;

fn cdf_json(cdf: &Cdf) -> Json {
    let qs = [0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0];
    Json::Arr(
        qs.iter()
            .map(|&q| {
                Json::obj()
                    .with("q", Json::Num(q))
                    .with("v", Json::Num(cdf.value_at(q)))
            })
            .collect(),
    )
}

impl Fig14 {
    /// Structured payload: quantile summaries of the three CDFs plus the
    /// ideal gap and TX-gap standard deviation (seconds throughout).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("host_delay_cdf", cdf_json(&self.host_delay_cdf))
            .with("tx_gap_cdf", cdf_json(&self.tx_gap_cdf))
            .with("rx_gap_cdf", cdf_json(&self.rx_gap_cdf))
            .with("ideal_gap_s", Json::Num(self.ideal_gap))
            .with("tx_gap_stddev_s", Json::Num(self.tx_gap_stddev))
    }
}

/// Registry adapter: drives Fig 14 through the [`crate::Experiment`] trait.
#[derive(Default)]
pub struct Exp(Config);

impl crate::Experiment for Exp {
    fn name(&self) -> &str {
        "fig14"
    }
    fn describe(&self) -> &str {
        "host model distributions"
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
    fn gaps_center_on_ideal() {
        let cfg = Config {
            duration: Dur::ms(5),
            ..Config::default()
        };
        let r = run(&cfg);
        let p50 = r.tx_gap_cdf.value_at(0.5);
        // Median TX gap within 25% of the 1.2976us ideal.
        assert!(
            (p50 - r.ideal_gap).abs() < 0.25 * r.ideal_gap,
            "p50 {p50} vs ideal {}",
            r.ideal_gap
        );
        // RX (post-switch) gap is re-paced by the meter: still near ideal.
        let rx50 = r.rx_gap_cdf.value_at(0.5);
        assert!(
            (rx50 - r.ideal_gap).abs() < 0.25 * r.ideal_gap,
            "rx p50 {rx50}"
        );
    }

    #[test]
    fn host_delay_cdf_matches_model() {
        let cfg = Config {
            duration: Dur::ms(2),
            ..Config::default()
        };
        let r = run(&cfg);
        // Software model: 0.9..6.2us uniform.
        let p50 = r.host_delay_cdf.value_at(0.5) * 1e6;
        assert!((3.0..4.2).contains(&p50), "p50 {p50}us");
        let max = r.host_delay_cdf.value_at(1.0) * 1e6;
        assert!(max <= 6.3, "max {max}us");
    }

    #[test]
    fn jitter_visible_in_tx_spread() {
        let cfg = Config {
            duration: Dur::ms(5),
            ..Config::default()
        };
        let r = run(&cfg);
        // Pacing jitter + size randomization produce nonzero spread.
        assert!(r.tx_gap_stddev > 1e-9, "stddev {}", r.tx_gap_stddev);
    }

    #[test]
    fn renders() {
        let cfg = Config {
            duration: Dur::ms(2),
            ..Config::default()
        };
        let s = run(&cfg).to_string();
        assert!(s.contains("ideal gap"));
    }
}
