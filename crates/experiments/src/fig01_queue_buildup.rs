//! Fig 1 — data queue length under partition/aggregate traffic, for (a)
//! the hypothetical ideal rate control, (b) DCTCP, and (c) the credit-based
//! scheme.
//!
//! A master continuously fans 200 B requests out to `fan_out` worker tasks
//! (multiple tasks per host when the fan-out exceeds the host count) and
//! each responds with 1000 B. Even with oracle-perfect per-flow rates, the
//! responses of *different* flows arrive in bursts, so the queue at the
//! master's ToR downlink grows with the fan-out — only credit scheduling
//! bounds it.
//!
//! The paper runs an 8-ary fat tree; the scaled default uses a 4-ary tree
//! and fan-outs up to 256 (`paper_scale()` restores 8-ary / 2048).

use crate::harness::{text_table, Scheme};
use std::fmt;
use xpass_net::ids::{DLinkId, HostId, NodeId};
use xpass_net::network::Network;
use xpass_net::topology::Topology;
use xpass_sim::time::{Dur, SimTime};
use xpass_workloads::{patterns::start_partition_aggregate, PartitionAggregate};

/// Fig 1 configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Fat-tree arity (paper: 8).
    pub fat_tree_k: usize,
    /// Fan-outs to sweep (paper: 32–2048).
    pub fan_outs: Vec<usize>,
    /// Request/response rounds per run.
    pub rounds: usize,
    /// Link speed.
    pub link_bps: u64,
    /// Queue-depth sample interval.
    pub sample: Dur,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            fat_tree_k: 4,
            fan_outs: vec![32, 64, 128, 256],
            rounds: 5,
            link_bps: 10_000_000_000,
            sample: Dur::us(5),
            seed: 31,
        }
    }
}

impl Config {
    /// The paper's full-scale configuration (8-ary fat tree, fan-out 2048).
    pub fn paper_scale() -> Config {
        Config {
            fat_tree_k: 8,
            fan_outs: vec![32, 64, 128, 256, 512, 1024, 2048],
            rounds: 10,
            ..Config::default()
        }
    }
}

/// Queue statistics for one (scheme, fan-out) cell, in packets.
#[derive(Clone, Copy, Debug)]
pub struct QueuePoint {
    /// Fan-out.
    pub fan_out: usize,
    /// Max sampled queue (packets).
    pub max_pkts: f64,
    /// Median sampled queue (packets).
    pub p50_pkts: f64,
    /// 75th percentile (packets).
    pub p75_pkts: f64,
}

/// One scheme's series.
#[derive(Clone, Debug)]
pub struct Series {
    /// Scheme name.
    pub scheme: &'static str,
    /// Points per fan-out.
    pub points: Vec<QueuePoint>,
}

/// Fig 1 result.
#[derive(Clone, Debug)]
pub struct Fig1 {
    /// Ideal, DCTCP, credit-based series.
    pub series: Vec<Series>,
}

fn master_downlink(net: &Network, master: HostId) -> DLinkId {
    let topo = net.topo();
    topo.dlinks
        .iter()
        .position(|l| l.to == NodeId::Host(master))
        .map(|i| DLinkId(i as u32))
        .expect("master downlink")
}

fn measure(cfg: &Config, scheme: Scheme, fan_out: usize) -> QueuePoint {
    let topo = Topology::fat_tree(cfg.fat_tree_k, cfg.link_bps, cfg.link_bps, Dur::us(1));
    let n_hosts = topo.n_hosts;
    // Huge queues so queue *growth* is observable rather than truncated by
    // drops (the paper's Fig 1 shows queues up to 10k packets).
    let mut big = scheme.net_config(cfg.link_bps).with_seed(cfg.seed);
    big.switch_queue_bytes = 64 << 20;
    let mut net = Network::new(topo, big, scheme.factory(cfg.link_bps));
    if matches!(scheme, Scheme::Ideal) {
        net.set_controller(Box::new(xpass_baselines::MaxMinOracle::new(0.95)));
    }
    let master = HostId(0);
    // Worker tasks over all other hosts, wrapping when fan_out > hosts.
    let workers: Vec<HostId> = (1..n_hosts).map(|h| HostId(h as u32)).collect();
    net.set_sample_interval(cfg.sample);
    let dl = master_downlink(&net, master);
    net.track_port(dl);
    let app = PartitionAggregate::new(master, workers, fan_out, cfg.rounds);
    start_partition_aggregate(&mut net, app);
    net.run_until_done(SimTime::ZERO + Dur::secs(5));
    let series = net.port_series(dl).expect("tracked port");
    let mut pkts = xpass_sim::stats::Percentiles::new();
    for &(_, bytes) in &series.samples {
        pkts.add(bytes / 1078.0); // 1000B payload + overhead ≈ 1078B wire
    }
    // The sampler may miss the instantaneous peak; include the port's own
    // max-bytes counter.
    let max_bytes = net.port(dl).data.stats.occupancy.max();
    QueuePoint {
        fan_out,
        max_pkts: (max_bytes / 1078.0).max(pkts.max()),
        p50_pkts: pkts.median(),
        p75_pkts: pkts.quantile(0.75),
    }
}

/// Run all three schemes over the fan-out sweep.
pub fn run(cfg: &Config) -> Fig1 {
    let schemes = [
        ("Ideal", Scheme::Ideal),
        ("DCTCP", Scheme::Dctcp),
        (
            "Credit",
            Scheme::XPass(expresspass::XPassConfig::aggressive()),
        ),
    ];
    Fig1 {
        series: schemes
            .into_iter()
            .map(|(name, s)| Series {
                scheme: name,
                points: cfg.fan_outs.iter().map(|&fo| measure(cfg, s, fo)).collect(),
            })
            .collect(),
    }
}

impl fmt::Display for Fig1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut headers = vec!["scheme".to_string()];
        for p in &self.series[0].points {
            headers.push(format!("fo={}", p.fan_out));
        }
        let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let rows: Vec<Vec<String>> = self
            .series
            .iter()
            .map(|s| {
                let mut row = vec![s.scheme.to_string()];
                row.extend(s.points.iter().map(|p| format!("{:.0}", p.max_pkts)));
                row
            })
            .collect();
        writeln!(
            f,
            "Fig 1: max data queue (packets) at the master's downlink"
        )?;
        write!(f, "{}", text_table(&hdr_refs, &rows))
    }
}

use xpass_sim::json::Json;

impl Fig1 {
    /// Structured payload: every series with its per-fan-out queue stats.
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
                            .with("fan_out", Json::num_u64(p.fan_out as u64))
                            .with("max_pkts", Json::Num(p.max_pkts))
                            .with("p50_pkts", Json::Num(p.p50_pkts))
                            .with("p75_pkts", Json::Num(p.p75_pkts))
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

/// Registry adapter: drives Fig 1 through the [`crate::Experiment`] trait.
#[derive(Default)]
pub struct Exp(Config);

impl crate::Experiment for Exp {
    fn name(&self) -> &str {
        "fig01"
    }
    fn describe(&self) -> &str {
        "queue build-up under partition/aggregate"
    }
    fn default_config(&mut self) {
        self.0 = Config::default();
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
        Config {
            fan_outs: vec![16, 64],
            rounds: 3,
            ..Config::default()
        }
    }

    #[test]
    fn ideal_queue_grows_with_fanout_credit_stays_bounded() {
        let r = run(&quick());
        let ideal = &r.series[0].points;
        let credit = &r.series[2].points;
        // Ideal rate control: max queue grows roughly with fan-out.
        assert!(
            ideal[1].max_pkts > ideal[0].max_pkts * 1.5,
            "ideal: {} → {}",
            ideal[0].max_pkts,
            ideal[1].max_pkts
        );
        // Credit scheme: bounded — far below ideal at the large fan-out.
        assert!(
            credit[1].max_pkts < ideal[1].max_pkts / 3.0,
            "credit {} vs ideal {}",
            credit[1].max_pkts,
            ideal[1].max_pkts
        );
        // And it barely grows between the two fan-outs.
        assert!(
            credit[1].max_pkts < credit[0].max_pkts * 3.0 + 10.0,
            "credit growth {} → {}",
            credit[0].max_pkts,
            credit[1].max_pkts
        );
    }

    #[test]
    fn dctcp_worse_than_ideal() {
        let r = run(&quick());
        let ideal = &r.series[0].points;
        let dctcp = &r.series[1].points;
        // DCTCP's convergence lag adds queueing over the ideal.
        assert!(
            dctcp[1].max_pkts >= ideal[1].max_pkts * 0.8,
            "dctcp {} vs ideal {}",
            dctcp[1].max_pkts,
            ideal[1].max_pkts
        );
    }

    #[test]
    fn renders() {
        assert!(run(&quick()).to_string().contains("Fig 1"));
    }
}
