//! Fig 11 — fairness with multiple bottlenecks: flows 1…N cross Link 1 and
//! Link 2; Flow 0 crosses only Link 2. Under max-min fairness Flow 0
//! should get C/(N+1). The naïve scheme gives Flow 0 far more (its credits
//! are never thinned at Link 1); the feedback loop tracks max-min closely
//! until the sub-credit-per-RTT regime.

use crate::harness::{text_table, Scheme};
use std::fmt;
use xpass_net::ids::HostId;
use xpass_net::topology::{TopoBuilder, Topology};
use xpass_sim::time::{Dur, SimTime};

/// Fig 11 configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Competing flow counts N (paper: 1–1024).
    pub flow_counts: Vec<usize>,
    /// Link speed.
    pub link_bps: u64,
    /// Warmup.
    pub warmup: Dur,
    /// Measurement window.
    pub window: Dur,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            flow_counts: vec![1, 4, 16, 64],
            link_bps: 10_000_000_000,
            warmup: Dur::ms(5),
            window: Dur::ms(5),
            seed: 29,
        }
    }
}

/// One measured point.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// Competing flows N.
    pub n: usize,
    /// Flow 0 goodput in Gbps.
    pub flow0_gbps: f64,
    /// The max-min ideal C/(N+1) in Gbps (data-rate normalized).
    pub ideal_gbps: f64,
}

/// Fig 11 result.
#[derive(Clone, Debug)]
pub struct Series {
    /// Scheme label.
    pub scheme: &'static str,
    /// Points per N.
    pub points: Vec<Point>,
}

/// Fig 11 result set.
#[derive(Clone, Debug)]
pub struct Fig11 {
    /// Feedback and naïve series.
    pub series: Vec<Series>,
}

/// Multi-bottleneck topology (the Fig 4a / Fig 11a structure): all flows
/// share the *first* data link sw0→sw1; flows 1..N continue over sw1→sw2.
/// In the credit direction, flows 1..N's credits are thinned at the
/// sw2→sw1 meter before competing at sw1→sw0 with Flow 0's fresh credits —
/// so the naïve scheme over-serves Flow 0 (≈ half the link, regardless of
/// N), while the feedback loop converges toward max-min.
///
/// Hosts: N+1 senders on sw0, Flow 0's receiver on sw1, N receivers on sw2.
fn build_topo(n: usize, link_bps: u64) -> (Topology, Vec<HostId>, HostId, Vec<HostId>) {
    let mut b = TopoBuilder::new();
    let senders = b.add_hosts(n + 1); // on sw0 (last one is Flow 0's source)
    let f0_dst = b.add_hosts(1)[0]; // on sw1
    let receivers = b.add_hosts(n); // on sw2
    let sw0 = b.add_switch();
    let sw1 = b.add_switch();
    let sw2 = b.add_switch();
    for &h in &senders {
        b.connect(
            xpass_net::ids::NodeId::Host(h),
            xpass_net::ids::NodeId::Switch(sw0),
            link_bps,
            Dur::us(1),
        );
    }
    b.connect(
        xpass_net::ids::NodeId::Host(f0_dst),
        xpass_net::ids::NodeId::Switch(sw1),
        link_bps,
        Dur::us(1),
    );
    for &h in &receivers {
        b.connect(
            xpass_net::ids::NodeId::Host(h),
            xpass_net::ids::NodeId::Switch(sw2),
            link_bps,
            Dur::us(1),
        );
    }
    b.connect(
        xpass_net::ids::NodeId::Switch(sw0),
        xpass_net::ids::NodeId::Switch(sw1),
        link_bps,
        Dur::us(1),
    );
    b.connect(
        xpass_net::ids::NodeId::Switch(sw1),
        xpass_net::ids::NodeId::Switch(sw2),
        link_bps,
        Dur::us(1),
    );
    (b.build("multi-bottleneck"), senders, f0_dst, receivers)
}

fn measure(cfg: &Config, scheme: Scheme, n: usize) -> f64 {
    let (topo, senders, f0_dst, receivers) = build_topo(n, cfg.link_bps);
    let mut net = scheme.build(topo, cfg.link_bps, cfg.seed);
    let bytes = (cfg.link_bps / 8) * 2;
    let f0 = net.add_flow(senders[n], f0_dst, bytes, SimTime::ZERO);
    for i in 0..n {
        net.add_flow(senders[i], receivers[i], bytes, SimTime::ZERO);
    }
    net.run_until(SimTime::ZERO + cfg.warmup);
    let before = net.delivered_bytes(f0);
    net.run_until(SimTime::ZERO + cfg.warmup + cfg.window);
    (net.delivered_bytes(f0) - before) as f64 * 8.0 / cfg.window.as_secs_f64() / 1e9
}

/// Run both series.
pub fn run(cfg: &Config) -> Fig11 {
    let schemes = [
        (
            "w/ feedback",
            Scheme::XPass(expresspass::XPassConfig::aggressive()),
        ),
        ("naive", Scheme::NaiveCredit),
    ];
    let max_data_gbps = cfg.link_bps as f64 * (1538.0 / 1622.0) * (1460.0 / 1538.0) / 1e9;
    let series = schemes
        .into_iter()
        .map(|(name, s)| Series {
            scheme: name,
            points: cfg
                .flow_counts
                .iter()
                .map(|&n| Point {
                    n,
                    flow0_gbps: measure(cfg, s, n),
                    ideal_gbps: max_data_gbps / (n + 1) as f64,
                })
                .collect(),
        })
        .collect();
    Fig11 { series }
}

impl fmt::Display for Fig11 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut headers = vec!["scheme".to_string()];
        for p in &self.series[0].points {
            headers.push(format!("N={}", p.n));
        }
        let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut rows: Vec<Vec<String>> = self
            .series
            .iter()
            .map(|s| {
                let mut row = vec![s.scheme.to_string()];
                row.extend(s.points.iter().map(|p| format!("{:.2}G", p.flow0_gbps)));
                row
            })
            .collect();
        let mut ideal = vec!["max-min ideal".to_string()];
        ideal.extend(
            self.series[0]
                .points
                .iter()
                .map(|p| format!("{:.2}G", p.ideal_gbps)),
        );
        rows.push(ideal);
        writeln!(f, "Fig 11: Flow 0 throughput vs competing flows")?;
        write!(f, "{}", text_table(&hdr_refs, &rows))
    }
}

use xpass_sim::json::Json;

impl Fig11 {
    /// Structured payload: flow-0 throughput vs the max-min ideal per
    /// bottleneck count, for every scheme series.
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
                            .with("flow0_gbps", Json::Num(p.flow0_gbps))
                            .with("ideal_gbps", Json::Num(p.ideal_gbps))
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

/// Registry adapter: drives Fig 11 through the [`crate::Experiment`] trait.
#[derive(Default)]
pub struct Exp(Config);

impl crate::Experiment for Exp {
    fn name(&self) -> &str {
        "fig11"
    }
    fn describe(&self) -> &str {
        "multi-bottleneck fairness"
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
            flow_counts: vec![4, 16],
            warmup: Dur::ms(5),
            window: Dur::ms(5),
            ..Config::default()
        }
    }

    #[test]
    fn feedback_between_ideal_and_naive() {
        let r = run(&quick());
        let fb = &r.series[0].points;
        let naive = &r.series[1].points;
        for (a, b) in fb.iter().zip(naive.iter()) {
            // Flow 0 must not be starved below its max-min share…
            assert!(
                a.flow0_gbps > a.ideal_gbps * 0.7,
                "N={}: feedback flow0 {:.2} starved vs ideal {:.2}",
                a.n,
                a.flow0_gbps,
                a.ideal_gbps
            );
            // …and the naïve scheme over-serves it more than feedback does
            // (its credits are never thinned before the shared meter).
            assert!(
                b.flow0_gbps > a.flow0_gbps,
                "N={}: naive {:.2} should exceed feedback {:.2}",
                b.n,
                b.flow0_gbps,
                a.flow0_gbps
            );
        }
    }

    #[test]
    fn naive_overserves_flat_while_ideal_shrinks() {
        // The paper's Fig 11b: the naïve curve stays near C/2 regardless of
        // N while max-min drops as 1/(N+1).
        let r = run(&quick());
        let naive = &r.series[1].points;
        assert!(
            naive[1].flow0_gbps > naive[1].ideal_gbps * 2.0,
            "N={}: naive {:.2} vs ideal {:.2}",
            naive[1].n,
            naive[1].flow0_gbps,
            naive[1].ideal_gbps
        );
        let flat = naive[1].flow0_gbps / naive[0].flow0_gbps;
        assert!((0.5..1.6).contains(&flat), "naive not flat: {flat}");
    }

    #[test]
    fn renders() {
        assert!(run(&quick()).to_string().contains("max-min ideal"));
    }
}
