//! Fig 15 XL — flow scalability at datacenter fabric scale: a 3-tier Clos
//! at 10k+ hosts carrying 100k+ concurrent ExpressPass flows, exercising
//! the arena flow state, struct-of-arrays credit hot path, shared timer
//! wheels, and flat routing tables end-to-end.
//!
//! Where Fig 15 proper sweeps flow counts over a single dumbbell
//! bottleneck, this XL variant sweeps to fabric scale: a stride
//! permutation of long-running flows across every host of an
//! oversubscribed Clos, measured over a short steady window. The paper's
//! scalability claim (§5, Fig 15) is that credit-based control keeps
//! queues bounded and control per-flow cheap as the flow count grows; the
//! XL run demonstrates the reproduction holds that property at the
//! 10k–100k-host scales the Shah–Xie centralized-scheduling work assumes.
//!
//! The default configuration runs a 10 240-host fabric up to 131 072
//! concurrent flows at 1 Gbps hosts (scaled down to keep the event count
//! CI-friendly); `--paper-scale` stretches to the 65 536-host fabric with
//! 1 048 576 concurrent flows at 10 Gbps.

use crate::harness::{text_table, Scheme};
use std::fmt;
use xpass_net::ids::HostId;
use xpass_net::topology::Topology;
use xpass_sim::time::{Dur, SimTime};

/// Fig 15 XL configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Clos pods.
    pub pods: usize,
    /// Aggregation switches per pod.
    pub aggs_per_pod: usize,
    /// ToR switches per pod.
    pub tors_per_pod: usize,
    /// Hosts per ToR.
    pub hosts_per_tor: usize,
    /// Core switches (must be a multiple of `aggs_per_pod`).
    pub cores: usize,
    /// Concurrent-flow counts to sweep (each point starts this many
    /// long-running flows at once).
    pub flow_counts: Vec<usize>,
    /// Host and ToR-uplink speed.
    pub host_bps: u64,
    /// Agg/core speeds.
    pub up_bps: u64,
    /// Warmup before the measurement window.
    pub warmup: Dur,
    /// Measurement window.
    pub window: Dur,
    /// Per-flow size — large enough that no flow completes inside the
    /// window, so the started count **is** the concurrency.
    pub flow_bytes: u64,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            // 16 pods × 16 ToRs × 40 hosts = 10 240 hosts, 448 switches.
            pods: 16,
            aggs_per_pod: 8,
            tors_per_pod: 16,
            hosts_per_tor: 40,
            cores: 64,
            flow_counts: vec![16_384, 131_072],
            host_bps: 1_000_000_000,
            up_bps: 1_000_000_000,
            warmup: Dur::us(300),
            window: Dur::us(700),
            flow_bytes: 100_000_000,
            seed: 71,
        }
    }
}

impl Config {
    /// The paper-scale stretch: 65 536 hosts, 1 048 576 concurrent flows,
    /// 10 Gbps links.
    pub fn paper() -> Config {
        Config {
            pods: 32,
            aggs_per_pod: 16,
            tors_per_pod: 32,
            hosts_per_tor: 64,
            cores: 128,
            flow_counts: vec![1_048_576],
            host_bps: 10_000_000_000,
            up_bps: 10_000_000_000,
            ..Config::default()
        }
    }
}

/// One measured sweep point.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// Flows started.
    pub flows: usize,
    /// Flows still in flight at the end of the window (the concurrency).
    pub concurrent: usize,
    /// Aggregate goodput over the window (bits/sec).
    pub goodput_bps: f64,
    /// Maximum switch data queue (bytes).
    pub max_queue_bytes: u64,
    /// Data packets dropped.
    pub drops: u64,
    /// Engine events processed by the run.
    pub events: u64,
}

/// Fig 15 XL result.
#[derive(Clone, Debug)]
pub struct Fig15Xl {
    /// Fabric hosts.
    pub n_hosts: usize,
    /// Fabric switches.
    pub n_switches: usize,
    /// ToR switches.
    pub n_tors: usize,
    /// One point per swept flow count.
    pub points: Vec<Point>,
}

fn measure(cfg: &Config, n: usize) -> (Point, usize, usize, usize) {
    let topo = Topology::three_tier(
        cfg.pods,
        cfg.aggs_per_pod,
        cfg.tors_per_pod,
        cfg.hosts_per_tor,
        cfg.cores,
        cfg.host_bps,
        cfg.host_bps,
        cfg.up_bps,
        Dur::us(1),
    );
    let hosts = topo.n_hosts;
    let switches = topo.n_switches;
    let tors = topo.n_tors();
    let mut net =
        Scheme::XPass(expresspass::XPassConfig::aggressive()).build(topo, cfg.host_bps, cfg.seed);
    // Stride permutation: round r of host h talks to the host half the
    // fabric away, rotated by the round so repeat rounds pick distinct
    // (mostly inter-pod) peers. Starts are staggered a few µs to avoid a
    // synchronized SYN burst.
    let flows: Vec<_> = (0..n)
        .map(|i| {
            let src = i % hosts;
            let round = i / hosts;
            let mut dst = (src + hosts / 2 + round * 131) % hosts;
            if dst == src {
                dst = (dst + 1) % hosts;
            }
            let start = SimTime::ZERO + Dur::us((i as u64 * 13) % 100);
            net.add_flow(
                HostId(src as u32),
                HostId(dst as u32),
                cfg.flow_bytes,
                start,
            )
        })
        .collect();
    net.run_until(SimTime::ZERO + cfg.warmup);
    let before: Vec<u64> = flows.iter().map(|&f| net.delivered_bytes(f)).collect();
    net.run_until(SimTime::ZERO + cfg.warmup + cfg.window);
    let delivered: u64 = flows
        .iter()
        .zip(&before)
        .map(|(&f, &b)| net.delivered_bytes(f) - b)
        .sum();
    let concurrent = n - net.completed_count() - net.aborted_count();
    let point = Point {
        flows: n,
        concurrent,
        goodput_bps: delivered as f64 * 8.0 / cfg.window.as_secs_f64(),
        max_queue_bytes: net.max_switch_queue_bytes(),
        drops: net.total_data_drops(),
        events: net.engine_report().events_processed,
    };
    (point, hosts, switches, tors)
}

/// Run the sweep.
pub fn run(cfg: &Config) -> Fig15Xl {
    let mut n_hosts = 0;
    let mut n_switches = 0;
    let mut n_tors = 0;
    let points = cfg
        .flow_counts
        .iter()
        .map(|&n| {
            let (p, h, s, t) = measure(cfg, n);
            n_hosts = h;
            n_switches = s;
            n_tors = t;
            p
        })
        .collect();
    Fig15Xl {
        n_hosts,
        n_switches,
        n_tors,
        points,
    }
}

impl fmt::Display for Fig15Xl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig 15 XL: fabric-scale flow scalability ({} hosts, {} switches, {} ToRs)",
            self.n_hosts, self.n_switches, self.n_tors
        )?;
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.flows.to_string(),
                    p.concurrent.to_string(),
                    format!("{:.2}", p.goodput_bps / 1e9),
                    format!("{:.0}", p.max_queue_bytes as f64 / 1e3),
                    p.drops.to_string(),
                    format!("{:.1}", p.events as f64 / 1e6),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            text_table(
                &[
                    "flows",
                    "concurrent",
                    "goodput Gbps",
                    "max queue KB",
                    "drops",
                    "events M"
                ],
                &rows
            )
        )
    }
}

use xpass_sim::json::Json;

impl Fig15Xl {
    /// Structured payload: the fabric shape plus one object per sweep
    /// point.
    pub fn to_json(&self) -> Json {
        let points = self
            .points
            .iter()
            .map(|p| {
                Json::obj()
                    .with("flows", Json::num_u64(p.flows as u64))
                    .with("concurrent", Json::num_u64(p.concurrent as u64))
                    .with("goodput_bps", Json::Num(p.goodput_bps))
                    .with("max_queue_bytes", Json::num_u64(p.max_queue_bytes))
                    .with("drops", Json::num_u64(p.drops))
                    .with("events", Json::num_u64(p.events))
            })
            .collect();
        Json::obj()
            .with("n_hosts", Json::num_u64(self.n_hosts as u64))
            .with("n_switches", Json::num_u64(self.n_switches as u64))
            .with("n_tors", Json::num_u64(self.n_tors as u64))
            .with("points", Json::Arr(points))
    }
}

/// Registry adapter: drives Fig 15 XL through the [`crate::Experiment`]
/// trait.
#[derive(Default)]
pub struct Exp(Config);

impl crate::Experiment for Exp {
    fn name(&self) -> &str {
        "fig15_xl"
    }
    fn describe(&self) -> &str {
        "fabric-scale flow scalability (3-tier Clos)"
    }
    fn paper_scale_config(&mut self) -> bool {
        self.0 = Config::paper();
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

    /// Tiny fabric the unit tests can afford: 48 hosts, 4 pods.
    fn quick() -> Config {
        Config {
            pods: 4,
            aggs_per_pod: 2,
            tors_per_pod: 2,
            hosts_per_tor: 6,
            cores: 4,
            flow_counts: vec![16, 96],
            warmup: Dur::us(200),
            window: Dur::us(500),
            ..Config::default()
        }
    }

    #[test]
    fn all_flows_stay_concurrent_and_deliver() {
        let r = run(&quick());
        assert_eq!(r.n_hosts, 48);
        assert_eq!(r.n_tors, 8);
        for p in &r.points {
            assert_eq!(
                p.concurrent, p.flows,
                "N={}: long-running flows must not complete inside the window",
                p.flows
            );
            assert!(p.goodput_bps > 0.0, "N={}: no goodput", p.flows);
        }
    }

    #[test]
    fn renders() {
        let r = run(&quick());
        let s = r.to_string();
        assert!(s.contains("Fig 15 XL"), "{s}");
        assert!(s.contains("48 hosts"), "{s}");
    }
}
