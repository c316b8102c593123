//! Fig 9 — credit queue capacity vs utilization: N flows arrive from
//! different ports and depart through one port; too-small credit buffers
//! drop bursts of credits arriving simultaneously across ports and leave
//! the data path underutilized. The paper finds 8 credits suffice.

use crate::harness::text_table;
use expresspass::{xpass_factory, XPassConfig};
use std::fmt;
use xpass_net::config::{HostDelayModel, NetConfig};
use xpass_net::ids::HostId;
use xpass_net::network::Network;
use xpass_net::topology::Topology;
use xpass_sim::time::{Dur, SimTime};

/// Fig 9 configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Flow counts (paper: 2–32).
    pub flow_counts: Vec<usize>,
    /// Credit queue capacities (paper: 1–32).
    pub capacities: Vec<usize>,
    /// Link speed.
    pub link_bps: u64,
    /// Measurement window.
    pub window: Dur,
    /// Warmup.
    pub warmup: Dur,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            flow_counts: vec![2, 8, 32],
            capacities: vec![1, 2, 4, 8, 16, 32],
            link_bps: 10_000_000_000,
            window: Dur::ms(4),
            warmup: Dur::ms(2),
            seed: 17,
        }
    }
}

/// One measured point.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// Concurrent fan-in flows.
    pub flows: usize,
    /// Credit queue capacity (credits).
    pub capacity: usize,
    /// Under-utilization normalized by the maximum data rate.
    pub underutilization: f64,
}

/// Fig 9 result.
#[derive(Clone, Debug)]
pub struct Fig9 {
    /// Points (flows × capacity).
    pub points: Vec<Point>,
}

fn measure(cfg: &Config, n: usize, cap: usize) -> f64 {
    // N senders on a star, one receiver: the receiver's downlink is the
    // shared egress where credits from all sender-side... the *credit*
    // bottleneck is the receiver's credit path fan-in at the switch.
    let topo = Topology::star(n + 1, cfg.link_bps, Dur::us(1));
    let mut net_cfg = NetConfig::expresspass().with_seed(cfg.seed);
    net_cfg.credit_queue_pkts = cap;
    net_cfg.host_delay = HostDelayModel {
        min: Dur::us(1),
        max: Dur::us(1),
    };
    let mut net = Network::new(topo, net_cfg, xpass_factory(XPassConfig::aggressive()));
    let bytes = cfg.link_bps / 8;
    let dst = HostId(n as u32);
    for i in 0..n {
        net.add_flow(HostId(i as u32), dst, bytes, SimTime::ZERO);
    }
    net.run_until(SimTime::ZERO + cfg.warmup);
    // Measure payload delivered over the window at the receiver downlink.
    let dl = net
        .topo()
        .dlinks
        .iter()
        .position(|l| l.to == xpass_net::ids::NodeId::Host(dst))
        .map(|i| xpass_net::ids::DLinkId(i as u32))
        .unwrap();
    let before = net.port(dl).tx_data_bytes;
    net.run_until(SimTime::ZERO + cfg.warmup + cfg.window);
    let wire_bytes = net.port(dl).tx_data_bytes - before;
    let max_data = cfg.link_bps as f64 * (1538.0 / 1622.0) / 8.0 * cfg.window.as_secs_f64();
    (1.0 - wire_bytes as f64 / max_data).max(0.0)
}

/// Run the sweep.
pub fn run(cfg: &Config) -> Fig9 {
    let mut points = Vec::new();
    for &n in &cfg.flow_counts {
        for &cap in &cfg.capacities {
            points.push(Point {
                flows: n,
                capacity: cap,
                underutilization: measure(cfg, n, cap),
            });
        }
    }
    Fig9 { points }
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut caps: Vec<usize> = Vec::new();
        for p in &self.points {
            if !caps.contains(&p.capacity) {
                caps.push(p.capacity);
            }
        }
        let mut headers = vec!["flows".to_string()];
        headers.extend(caps.iter().map(|c| format!("cq={c}")));
        let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut flows: Vec<usize> = Vec::new();
        for p in &self.points {
            if !flows.contains(&p.flows) {
                flows.push(p.flows);
            }
        }
        let rows: Vec<Vec<String>> = flows
            .iter()
            .map(|&n| {
                let mut row = vec![n.to_string()];
                for p in self.points.iter().filter(|p| p.flows == n) {
                    row.push(format!("{:.2}%", p.underutilization * 100.0));
                }
                row
            })
            .collect();
        writeln!(f, "Fig 9: under-utilization vs credit queue capacity")?;
        write!(f, "{}", text_table(&hdr_refs, &rows))
    }
}

use xpass_sim::json::Json;

impl Fig9 {
    /// Structured payload: underutilization per (flows, capacity) point.
    pub fn to_json(&self) -> Json {
        let points = self
            .points
            .iter()
            .map(|p| {
                Json::obj()
                    .with("flows", Json::num_u64(p.flows as u64))
                    .with("capacity", Json::num_u64(p.capacity as u64))
                    .with("underutilization", Json::Num(p.underutilization))
            })
            .collect();
        Json::obj().with("points", Json::Arr(points))
    }
}

/// Registry adapter: drives Fig 9 through the [`crate::Experiment`] trait.
#[derive(Default)]
pub struct Exp(Config);

impl crate::Experiment for Exp {
    fn name(&self) -> &str {
        "fig09"
    }
    fn describe(&self) -> &str {
        "credit queue capacity vs utilization"
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
            flow_counts: vec![8],
            capacities: vec![1, 8],
            window: Dur::ms(3),
            warmup: Dur::ms(2),
            ..Config::default()
        }
    }

    #[test]
    fn eight_credit_queue_is_sufficient() {
        let r = run(&quick());
        let cq8 = r
            .points
            .iter()
            .find(|p| p.capacity == 8)
            .unwrap()
            .underutilization;
        // Paper: ≤ ~1-2% under-utilization at 8 credits.
        assert!(cq8 < 0.06, "under-utilization {cq8:.3} at cq=8");
    }

    #[test]
    fn tiny_queue_hurts_no_more_than_modestly_but_consistently() {
        let r = run(&quick());
        let cq1 = r.points.iter().find(|p| p.capacity == 1).unwrap();
        let cq8 = r.points.iter().find(|p| p.capacity == 8).unwrap();
        assert!(
            cq1.underutilization >= cq8.underutilization - 0.01,
            "cq=1 {:.3} vs cq=8 {:.3}",
            cq1.underutilization,
            cq8.underutilization
        );
    }

    #[test]
    fn renders() {
        assert!(run(&quick()).to_string().contains("cq=8"));
    }
}
