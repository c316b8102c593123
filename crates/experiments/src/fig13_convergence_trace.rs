//! Fig 13 — convergence behaviour: five flows arrive and depart over time
//! on one 10 G bottleneck; we record per-flow throughput and the bottleneck
//! queue. ExpressPass shows stable plateaus at each fair share and a
//! near-empty queue; DCTCP shows noisy shares and a standing queue.

use crate::harness::Scheme;
use std::fmt;
use xpass_net::ids::{FlowId, HostId, NodeId, SwitchId};
use xpass_net::topology::Topology;
use xpass_sim::stats::TimeSeries;
use xpass_sim::time::{Dur, SimTime};

/// Fig 13 configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Link speed.
    pub link_bps: u64,
    /// Interval between flow arrivals (each flow also departs after
    /// `5 × stagger` — the testbed used 2 s steps; scaled default 2 ms).
    pub stagger: Dur,
    /// Throughput/queue sample interval.
    pub sample: Dur,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            link_bps: 10_000_000_000,
            stagger: Dur::ms(2),
            sample: Dur::us(100),
            seed: 37,
        }
    }
}

/// Fig 13 result for one scheme.
#[derive(Clone, Debug)]
pub struct Fig13 {
    /// Scheme name.
    pub scheme: &'static str,
    /// Per-flow throughput series (Gbps).
    pub flows: Vec<TimeSeries>,
    /// Bottleneck queue series (bytes).
    pub queue: TimeSeries,
    /// Max bottleneck queue over the run (bytes).
    pub max_queue_bytes: u64,
    /// Mean aggregate throughput during the full-load phase (Gbps).
    pub full_load_gbps: f64,
}

/// Run the five-flow scenario for one scheme.
pub fn run(cfg: &Config, scheme: Scheme) -> Fig13 {
    let topo = Topology::dumbbell(5, cfg.link_bps, Dur::us(1));
    let mut net = scheme.build(topo, cfg.link_bps, cfg.seed);
    net.set_sample_interval(cfg.sample);
    let bottleneck = net
        .topo()
        .dlink_between(NodeId::Switch(SwitchId(0)), NodeId::Switch(SwitchId(1)))
        .unwrap();
    net.track_port(bottleneck);
    // Flow i arrives at i×stagger and carries enough bytes to outlive the
    // run; all five overlap in the middle.
    let horizon = cfg.stagger * 10;
    let bytes = (cfg.link_bps as f64 / 8.0 * horizon.as_secs_f64()) as u64;
    let mut ids: Vec<FlowId> = Vec::new();
    for i in 0..5u32 {
        let f = net.add_flow(
            HostId(i),
            HostId(5 + i),
            bytes / 3,
            SimTime::ZERO + cfg.stagger * i as u64,
        );
        net.track_flow(f);
        ids.push(f);
    }
    net.run_until(SimTime::ZERO + horizon);
    net.finish_stats();
    // Aggregate throughput while all five flows are active.
    let t0 = SimTime::ZERO + cfg.stagger * 4;
    let t1 = SimTime::ZERO + cfg.stagger * 5;
    let mut agg = 0.0;
    let mut n = 0usize;
    for &f in &ids {
        let s = net.flow_series(f).unwrap();
        let vals: Vec<f64> = s
            .samples
            .iter()
            .filter(|&&(t, _)| t >= t0 && t < t1)
            .map(|&(_, v)| v)
            .collect();
        if !vals.is_empty() {
            agg += vals.iter().sum::<f64>() / vals.len() as f64;
            n += 1;
        }
    }
    let _ = n;
    Fig13 {
        scheme: scheme.name(),
        flows: ids
            .iter()
            .map(|&f| net.flow_series(f).unwrap().clone())
            .collect(),
        queue: net.port_series(bottleneck).unwrap().clone(),
        max_queue_bytes: net.port(bottleneck).data.stats.occupancy.max() as u64,
        full_load_gbps: agg,
    }
}

/// Run both schemes (ExpressPass, DCTCP) as the figure does.
pub fn run_both(cfg: &Config) -> (Fig13, Fig13) {
    (
        run(cfg, Scheme::XPass(expresspass::XPassConfig::aggressive())),
        run(cfg, Scheme::Dctcp),
    )
}

impl fmt::Display for Fig13 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 13 [{}]:", self.scheme)?;
        writeln!(
            f,
            "  aggregate @ full load: {:.2} Gbps; max queue: {:.1} KB",
            self.full_load_gbps,
            self.max_queue_bytes as f64 / 1e3
        )?;
        // Sparkline of the queue series.
        let max = self
            .queue
            .samples
            .iter()
            .map(|&(_, v)| v)
            .fold(1.0, f64::max);
        let line: String = self
            .queue
            .samples
            .iter()
            .step_by((self.queue.samples.len() / 60).max(1))
            .map(|&(_, v)| match (v / max * 4.0) as usize {
                0 => '_',
                1 => '.',
                2 => '-',
                3 => '=',
                _ => '#',
            })
            .collect();
        writeln!(f, "  queue trace: {line}")
    }
}

use xpass_sim::json::Json;

fn series_json(s: &TimeSeries) -> Json {
    Json::Arr(
        s.samples
            .iter()
            .map(|&(t, v)| {
                Json::obj()
                    .with("t", Json::Num(t.as_secs_f64()))
                    .with("v", Json::Num(v))
            })
            .collect(),
    )
}

impl Fig13 {
    /// Structured payload: per-flow throughput series, the queue series,
    /// and the headline numbers.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("scheme", Json::str(self.scheme))
            .with(
                "flows",
                Json::Arr(self.flows.iter().map(series_json).collect()),
            )
            .with("queue", series_json(&self.queue))
            .with("max_queue_bytes", Json::num_u64(self.max_queue_bytes))
            .with("full_load_gbps", Json::Num(self.full_load_gbps))
    }
}

/// Registry adapter: drives Fig 13 (both schemes) through the
/// [`crate::Experiment`] trait.
#[derive(Default)]
pub struct Exp(Config);

impl crate::Experiment for Exp {
    fn name(&self) -> &str {
        "fig13"
    }
    fn describe(&self) -> &str {
        "five staggered flows trace"
    }
    fn set_seed(&mut self, seed: u64) {
        self.0.seed = seed;
    }
    fn run(&self, _trace: Option<Box<dyn xpass_sim::trace::TraceSink>>) -> crate::ExperimentOutput {
        let (a, b) = run_both(&self.0);
        crate::ExperimentOutput::new(
            format!("{a}\n{b}"),
            Json::obj().with("runs", Json::Arr(vec![a.to_json(), b.to_json()])),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xpass_stable_small_queue_high_utilization() {
        let r = run(
            &Config::default(),
            Scheme::XPass(expresspass::XPassConfig::aggressive()),
        );
        // Paper: max 18KB queue on the testbed; allow some slack.
        assert!(
            r.max_queue_bytes < 40_000,
            "max queue {} bytes",
            r.max_queue_bytes
        );
        // Aggregate throughput ≈ 94.8% × payload efficiency ≈ 9.0 Gbps.
        assert!(
            r.full_load_gbps > 7.5,
            "aggregate {:.2} Gbps",
            r.full_load_gbps
        );
    }

    #[test]
    fn dctcp_builds_much_larger_queue() {
        let cfg = Config::default();
        let (xp, dc) = run_both(&cfg);
        // Paper: 240.7KB vs 18KB max queue.
        assert!(
            dc.max_queue_bytes > 3 * xp.max_queue_bytes,
            "dctcp {} vs xpass {}",
            dc.max_queue_bytes,
            xp.max_queue_bytes
        );
        assert!(dc.full_load_gbps > 7.5);
    }

    #[test]
    fn renders() {
        let r = run(
            &Config::default(),
            Scheme::XPass(expresspass::XPassConfig::aggressive()),
        );
        assert!(r.to_string().contains("queue trace"));
    }
}
