//! Shared experiment machinery: scheme selection, FCT bucketing,
//! convergence detection, and text-table rendering.

use expresspass::netcalc::{buffer_bounds, HierTopo, LinkClass, NetCalcParams};
use expresspass::{xpass_factory, XPassConfig};
use xpass_baselines::{
    cubic_factory, dctcp_factory, dx_factory, hull_factory, ideal_factory, naive_credit_factory,
    rcp_factory, reno_factory, MaxMinOracle,
};
use xpass_net::config::{HostDelayModel, NetConfig};
use xpass_net::endpoint::EndpointFactory;
use xpass_net::health::{HealthReport, InvariantSpec};
use xpass_net::ids::FlowId;
use xpass_net::network::{Counters, FlowRecord, Network};
use xpass_net::topology::Topology;
use xpass_sim::profile::EngineReport;
use xpass_sim::stats::Percentiles;
use xpass_sim::time::{Dur, SimTime};
use xpass_sim::trace::TraceSink;
use xpass_workloads;

/// A congestion-control scheme under test.
#[derive(Clone, Copy, Debug)]
pub enum Scheme {
    /// ExpressPass with the given parameters.
    XPass(XPassConfig),
    /// DCTCP (ECN threshold K scaled to link speed).
    Dctcp,
    /// RCP explicit rates.
    Rcp,
    /// HULL phantom queues.
    Hull,
    /// DX delay feedback.
    Dx,
    /// TCP CUBIC.
    Cubic,
    /// TCP Reno.
    Reno,
    /// Credits at maximum rate, no feedback (§2's naïve scheme).
    NaiveCredit,
    /// Omniscient max-min rate oracle (§2's ideal rate control).
    Ideal,
}

impl Scheme {
    /// Display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::XPass(_) => "ExpressPass",
            Scheme::Dctcp => "DCTCP",
            Scheme::Rcp => "RCP",
            Scheme::Hull => "HULL",
            Scheme::Dx => "DX",
            Scheme::Cubic => "CUBIC",
            Scheme::Reno => "Reno",
            Scheme::NaiveCredit => "NaiveCredit",
            Scheme::Ideal => "Ideal",
        }
    }

    /// The paper's five-way FCT comparison set (Fig 19, Table 3).
    pub fn comparison_set() -> Vec<Scheme> {
        vec![
            Scheme::XPass(XPassConfig::default()),
            Scheme::Rcp,
            Scheme::Dctcp,
            Scheme::Dx,
            Scheme::Hull,
        ]
    }

    /// Network configuration for this scheme at a given link speed.
    pub fn net_config(&self, link_bps: u64) -> NetConfig {
        let cfg = match self {
            Scheme::XPass(_) | Scheme::NaiveCredit => NetConfig::expresspass(),
            Scheme::Dctcp => NetConfig::dctcp(link_bps),
            Scheme::Rcp => NetConfig::rcp(),
            Scheme::Hull => NetConfig::hull(link_bps),
            Scheme::Dx | Scheme::Cubic | Scheme::Reno | Scheme::Ideal => NetConfig::default(),
        };
        let mut cfg = cfg.with_queue_for_speed(link_bps);
        // ~1 µs mean host delay (the paper's simulation setting) with a
        // ±0.5 µs spread: real hosts are never perfectly deterministic, and
        // a little delay noise prevents artificial phase locks (e.g. an
        // ack-clocked sender monopolizing every drain slot of a full
        // drop-tail queue forever).
        cfg.host_delay = HostDelayModel::hardware();
        cfg
    }

    /// Endpoint factory for this scheme.
    pub fn factory(&self, link_bps: u64) -> EndpointFactory {
        match self {
            Scheme::XPass(x) => xpass_factory(*x),
            Scheme::Dctcp => dctcp_factory(link_bps),
            Scheme::Rcp => rcp_factory(),
            Scheme::Hull => hull_factory(link_bps),
            Scheme::Dx => dx_factory(),
            Scheme::Cubic => cubic_factory(),
            Scheme::Reno => reno_factory(),
            Scheme::NaiveCredit => naive_credit_factory(),
            Scheme::Ideal => ideal_factory(1e9),
        }
    }

    /// Build a ready-to-run network for this scheme (installs the max-min
    /// oracle controller for [`Scheme::Ideal`]).
    pub fn build(&self, topo: Topology, link_bps: u64, seed: u64) -> Network {
        let cfg = self.net_config(link_bps).with_seed(seed);
        let mut net = Network::new(topo, cfg, self.factory(link_bps));
        if matches!(self, Scheme::Ideal) {
            net.set_controller(Box::new(MaxMinOracle::new(0.95)));
        }
        net
    }
}

/// The paper's flow-size buckets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SizeBucket {
    /// 0–10 KB.
    S,
    /// 10–100 KB.
    M,
    /// 100 KB–1 MB.
    L,
    /// > 1 MB.
    Xl,
}

impl SizeBucket {
    /// Bucket of a flow size.
    pub fn of(bytes: u64) -> SizeBucket {
        if bytes <= 10_000 {
            SizeBucket::S
        } else if bytes <= 100_000 {
            SizeBucket::M
        } else if bytes <= 1_000_000 {
            SizeBucket::L
        } else {
            SizeBucket::Xl
        }
    }

    /// All buckets, in order.
    pub fn all() -> [SizeBucket; 4] {
        [SizeBucket::S, SizeBucket::M, SizeBucket::L, SizeBucket::Xl]
    }

    /// Bucket label as in the paper ("S", "M", "L", "XL").
    pub fn label(&self) -> &'static str {
        match self {
            SizeBucket::S => "S",
            SizeBucket::M => "M",
            SizeBucket::L => "L",
            SizeBucket::Xl => "XL",
        }
    }
}

/// FCT statistics per size bucket.
#[derive(Clone, Debug, Default)]
pub struct FctBuckets {
    per_bucket: [Percentiles; 4],
    unfinished: usize,
}

impl FctBuckets {
    /// Aggregate FCTs from completed flow records.
    pub fn from_records(records: &[FlowRecord]) -> FctBuckets {
        let mut b = FctBuckets::default();
        for r in records {
            match r.fct {
                Some(fct) => {
                    let idx = match SizeBucket::of(r.size_bytes) {
                        SizeBucket::S => 0,
                        SizeBucket::M => 1,
                        SizeBucket::L => 2,
                        SizeBucket::Xl => 3,
                    };
                    b.per_bucket[idx].add(fct.as_secs_f64());
                }
                None => b.unfinished += 1,
            }
        }
        b
    }

    fn idx(bucket: SizeBucket) -> usize {
        match bucket {
            SizeBucket::S => 0,
            SizeBucket::M => 1,
            SizeBucket::L => 2,
            SizeBucket::Xl => 3,
        }
    }

    /// Average FCT (seconds) in a bucket.
    pub fn avg(&self, bucket: SizeBucket) -> f64 {
        self.per_bucket[Self::idx(bucket)].mean()
    }

    /// 99th-percentile FCT (seconds) in a bucket.
    pub fn p99(&mut self, bucket: SizeBucket) -> f64 {
        self.per_bucket[Self::idx(bucket)].p99()
    }

    /// Flows counted in a bucket.
    pub fn count(&self, bucket: SizeBucket) -> usize {
        self.per_bucket[Self::idx(bucket)].count()
    }

    /// Flows that never finished (should be zero in healthy runs).
    pub fn unfinished(&self) -> usize {
        self.unfinished
    }

    /// FCT percentiles over all buckets combined. Exact: merges the raw
    /// samples of every bucket (quantiles of the union, not a union of
    /// quantiles).
    pub fn overall(&self) -> Percentiles {
        let mut all = Percentiles::new();
        for b in &self.per_bucket {
            all.merge(b);
        }
        all
    }
}

/// Detect when a tracked flow's throughput converged to a band around the
/// fair share: the first sample time at which the rolling mean over
/// `window` samples lies within `tol` of `fair_gbps` (the rolling mean
/// absorbs the deliberate rate oscillation of the feedback loops).
/// Returns time since `t0`.
pub fn convergence_time(
    net: &Network,
    flow: FlowId,
    t0: SimTime,
    fair_gbps: f64,
    tol: f64,
    window: usize,
) -> Option<Dur> {
    let series = net.flow_series(flow)?;
    let samples: Vec<(SimTime, f64)> = series
        .samples
        .iter()
        .filter(|&&(t, _)| t >= t0)
        .copied()
        .collect();
    convergence_time_samples(&samples, t0, fair_gbps, tol, window)
}

/// Core of [`convergence_time`], operating on an explicit `(time, gbps)`
/// sample slice (samples before `t0` must already be excluded).
pub fn convergence_time_samples(
    samples: &[(SimTime, f64)],
    t0: SimTime,
    fair_gbps: f64,
    tol: f64,
    window: usize,
) -> Option<Dur> {
    if window == 0 || samples.len() < window {
        return None;
    }
    // Sustained convergence: find the LAST window whose mean is outside the
    // band; convergence is the start of the next window. A transient
    // crossing during ramp-up therefore does not count.
    let n_windows = samples.len() - window + 1;
    let in_band = |i: usize| {
        let mean: f64 = samples[i..i + window].iter().map(|&(_, v)| v).sum::<f64>() / window as f64;
        (mean - fair_gbps).abs() <= tol * fair_gbps
    };
    if !in_band(n_windows - 1) {
        return None; // not converged by the end of the observation
    }
    let mut first_sustained = n_windows - 1;
    while first_sustained > 0 && in_band(first_sustained - 1) {
        first_sustained -= 1;
    }
    Some(samples[first_sustained].0.since(t0))
}

/// One realistic-workload simulation (the §6.3 setup): Poisson arrivals of
/// a Table-2 workload on the 192-host 3:1 fat tree, one scheme, one load.
/// Shared by Figs 18–21 and Table 3.
#[derive(Clone, Debug)]
pub struct RealisticRun {
    /// Flow-size workload.
    pub workload: xpass_workloads::Workload,
    /// Target ToR-uplink load.
    pub load: f64,
    /// Flows to simulate (paper: 100k; scaled defaults use fewer).
    pub n_flows: usize,
    /// Link speed (all tiers; the paper compares 10 G vs 40 G).
    pub link_bps: u64,
    /// Scheme under test.
    pub scheme: Scheme,
    /// RNG seed.
    pub seed: u64,
}

/// Outcome of a [`RealisticRun`].
#[derive(Clone, Debug)]
pub struct RealisticResult {
    /// FCT statistics per size bucket.
    pub fct: FctBuckets,
    /// Mean of per-switch-port time-weighted queue occupancy (bytes).
    pub avg_queue_bytes: f64,
    /// Maximum instantaneous switch queue (bytes).
    pub max_queue_bytes: u64,
    /// Flows that did not complete within the run cap.
    pub unfinished: usize,
    /// Full global packet/credit counters.
    pub counters: Counters,
    /// Engine profile: events processed (per kind), peak heap depth,
    /// wall-clock throughput.
    pub engine: EngineReport,
    /// Invariant-monitor outcome. For [`Scheme::XPass`] runs the Table-1
    /// data-queue bound and the zero-data-loss claim are monitored;
    /// `monitored` is false for the baselines.
    pub health: HealthReport,
}

/// [`Topology::eval_fat_tree`] at `link_bps` as the Eq 1 bound sees it:
/// uniform tier speeds, 4 µs propagation, 6 hosts and 2 uplinks per ToR
/// (3:1). A unit test reads each of these back from the built topology.
fn eval_fat_tree_shape(link_bps: u64) -> HierTopo {
    let link = LinkClass {
        speed_bps: link_bps,
        prop: Dur::us(4),
    };
    HierTopo {
        name: "eval fat tree".to_string(),
        host_link: link,
        tor_agg: link,
        agg_core: link,
        tor_down_ports: 6,
        tor_up_ports: 2,
    }
}

/// The Table-1 network-calculus invariant spec for [`Topology::eval_fat_tree`]
/// at `link_bps` (uniform tier speeds, 4 µs propagation, 6 hosts and 2
/// uplinks per ToR) with the scheme's net-config host-delay and
/// credit-queue parameters: monitor every switch-egress data queue against
/// the worst port-class buffer bound, and assert zero data loss.
pub fn eval_fat_tree_invariants(link_bps: u64, cfg: &NetConfig) -> InvariantSpec {
    let p = NetCalcParams {
        credit_queue: cfg.credit_queue_pkts,
        dhost_min: cfg.host_delay.min,
        dhost_max: cfg.host_delay.max,
        switch_latency: Dur::ZERO,
    };
    let b = buffer_bounds(&eval_fat_tree_shape(link_bps), &p);
    let bound = b
        .tor_down
        .buffer_bytes
        .max(b.tor_up.buffer_bytes)
        .max(b.core.buffer_bytes);
    InvariantSpec {
        data_queue_bound_bytes: Some(bound),
        zero_data_loss: true,
    }
}

impl RealisticRun {
    /// Execute the run.
    pub fn run(&self) -> RealisticResult {
        self.run_traced(None).0
    }

    /// Execute the run with an optional trace sink installed for its
    /// duration. The sink is returned (flushed) so callers can thread one
    /// sink through a sequence of runs into a single output stream.
    /// ExpressPass runs additionally monitor the Table-1 queue bound and
    /// zero-data-loss invariants ([`eval_fat_tree_invariants`]).
    pub fn run_traced(
        &self,
        sink: Option<Box<dyn TraceSink>>,
    ) -> (RealisticResult, Option<Box<dyn TraceSink>>) {
        let topo = Topology::eval_fat_tree(self.link_bps);
        let mut net = self.scheme.build(topo.clone(), self.link_bps, self.seed);
        if let Some(sink) = sink {
            net.install_trace_sink(sink);
        }
        if matches!(self.scheme, Scheme::XPass(_)) {
            let cfg = self.scheme.net_config(self.link_bps);
            net.install_invariants(eval_fat_tree_invariants(self.link_bps, &cfg));
        }
        let wl = xpass_workloads::PoissonWorkload::new(
            self.workload.dist(),
            self.load,
            self.n_flows,
            self.seed ^ 0xABCD,
        );
        let specs = wl.generate(&topo);
        xpass_workloads::add_all(&mut net, &specs);
        let last_start = specs.last().unwrap().start;
        net.run_until_done(last_start + Dur::secs(10));
        net.finish_stats();
        let fct = FctBuckets::from_records(&net.flow_records());
        let mut qsum = 0.0;
        let mut nports = 0usize;
        for p in net.ports() {
            if matches!(
                net.topo().dlinks[p.dlink.0 as usize].from,
                xpass_net::ids::NodeId::Switch(_)
            ) {
                qsum += p.data.stats.occupancy.mean();
                nports += 1;
            }
        }
        let result = RealisticResult {
            unfinished: fct.unfinished(),
            avg_queue_bytes: if nports > 0 {
                qsum / nports as f64
            } else {
                0.0
            },
            max_queue_bytes: net.max_switch_queue_bytes(),
            counters: net.counters().clone(),
            engine: net.engine_report(),
            health: net.health_report(),
            fct,
        };
        (result, net.take_trace_sink())
    }
}

/// Cumulative-average variant of [`convergence_time`]: the last time the
/// running average throughput since `t0` enters the band and stays there.
/// The cumulative average is smooth by construction, which makes this
/// metric robust for loss-based protocols whose instantaneous rate is a
/// deep sawtooth (TCP CUBIC/Reno); it slightly over-estimates convergence
/// time because early slow samples keep dragging on the average.
pub fn convergence_time_cumulative(
    net: &Network,
    flow: FlowId,
    t0: SimTime,
    fair_gbps: f64,
    tol: f64,
) -> Option<Dur> {
    let series = net.flow_series(flow)?;
    let samples: Vec<(SimTime, f64)> = series
        .samples
        .iter()
        .filter(|&&(t, _)| t >= t0)
        .copied()
        .collect();
    convergence_time_cumulative_samples(&samples, t0, fair_gbps, tol)
}

/// Core of [`convergence_time_cumulative`], operating on an explicit
/// `(time, gbps)` sample slice (samples before `t0` must already be
/// excluded).
pub fn convergence_time_cumulative_samples(
    samples: &[(SimTime, f64)],
    t0: SimTime,
    fair_gbps: f64,
    tol: f64,
) -> Option<Dur> {
    if samples.is_empty() {
        return None;
    }
    let mut cum = Vec::with_capacity(samples.len());
    let mut acc = 0.0;
    for (i, &(t, v)) in samples.iter().enumerate() {
        acc += v;
        cum.push((t, acc / (i + 1) as f64));
    }
    let in_band = |v: f64| (v - fair_gbps).abs() <= tol * fair_gbps;
    if !in_band(cum.last().unwrap().1) {
        return None;
    }
    let mut first = cum.len() - 1;
    while first > 0 && in_band(cum[first - 1].1) {
        first -= 1;
    }
    Some(cum[first].0.since(t0))
}

/// Render rows as a fixed-width text table.
pub fn text_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncol = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncol) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        line.trim_end().to_string() + "\n"
    };
    out.push_str(&fmt_row(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push_str(&format!(
        "{}\n",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    ));
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Format seconds with an adaptive unit (for FCT tables).
pub fn fmt_secs(s: f64) -> String {
    if s <= 0.0 {
        "-".into()
    } else if s < 1e-3 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.2}s", s)
    }
}

/// Format bytes with an adaptive unit.
pub fn fmt_bytes(b: f64) -> String {
    if b >= 1e6 {
        format!("{:.2}MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1}KB", b / 1e3)
    } else {
        format!("{:.0}B", b)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use xpass_net::ids::{HostId, NodeId};
    use xpass_net::topology::DirectedLink;

    /// Assert that `topo` has the shape an Eq 1 bound is computed from:
    /// the speed and propagation delay of every link by tier, and each
    /// ToR's host-facing and switch-facing port counts.
    pub(crate) fn assert_has_shape(topo: &Topology, shape: &HierTopo) {
        let tors = topo.tor_switches();
        let class = |l: &DirectedLink| match (l.from, l.to) {
            (NodeId::Host(_), _) | (_, NodeId::Host(_)) => shape.host_link,
            (NodeId::Switch(a), NodeId::Switch(b)) if tors.contains(&a) || tors.contains(&b) => {
                shape.tor_agg
            }
            _ => shape.agg_core,
        };
        for l in &topo.dlinks {
            let c = class(l);
            assert_eq!((l.speed_bps, l.prop_delay), (c.speed_bps, c.prop), "{l:?}");
        }
        for &tor in tors {
            let out = || {
                topo.dlinks
                    .iter()
                    .filter(move |l| l.from == NodeId::Switch(tor))
            };
            let down = out().filter(|l| matches!(l.to, NodeId::Host(_))).count();
            let up = out().count() - down;
            let want = (shape.tor_down_ports, shape.tor_up_ports);
            assert_eq!((down, up), want, "ToR {tor:?}");
        }
    }

    #[test]
    fn eval_fat_tree_shape_is_the_built_topology() {
        for link_bps in [10_000_000_000, 40_000_000_000] {
            let shape = eval_fat_tree_shape(link_bps);
            assert_has_shape(&Topology::eval_fat_tree(link_bps), &shape);
        }
    }

    #[test]
    fn size_buckets() {
        assert_eq!(SizeBucket::of(1), SizeBucket::S);
        assert_eq!(SizeBucket::of(10_000), SizeBucket::S);
        assert_eq!(SizeBucket::of(10_001), SizeBucket::M);
        assert_eq!(SizeBucket::of(100_001), SizeBucket::L);
        assert_eq!(SizeBucket::of(2_000_000), SizeBucket::Xl);
    }

    #[test]
    fn fct_bucketing() {
        let recs = vec![
            FlowRecord {
                id: FlowId(0),
                src: HostId(0),
                dst: HostId(1),
                size_bytes: 5_000,
                start: SimTime::ZERO,
                fct: Some(Dur::us(100)),
                outcome: None,
            },
            FlowRecord {
                id: FlowId(1),
                src: HostId(0),
                dst: HostId(1),
                size_bytes: 5_000_000,
                start: SimTime::ZERO,
                fct: Some(Dur::ms(5)),
                outcome: None,
            },
            FlowRecord {
                id: FlowId(2),
                src: HostId(0),
                dst: HostId(1),
                size_bytes: 500,
                start: SimTime::ZERO,
                fct: None,
                outcome: None,
            },
        ];
        let mut b = FctBuckets::from_records(&recs);
        assert_eq!(b.count(SizeBucket::S), 1);
        assert_eq!(b.count(SizeBucket::Xl), 1);
        assert_eq!(b.unfinished(), 1);
        assert!((b.avg(SizeBucket::S) - 100e-6).abs() < 1e-12);
        assert!((b.p99(SizeBucket::Xl) - 5e-3).abs() < 1e-12);
    }

    #[test]
    fn schemes_build_networks() {
        let speed = 10_000_000_000;
        for scheme in [
            Scheme::XPass(XPassConfig::default()),
            Scheme::Dctcp,
            Scheme::Rcp,
            Scheme::Hull,
            Scheme::Dx,
            Scheme::Cubic,
            Scheme::Reno,
            Scheme::NaiveCredit,
            Scheme::Ideal,
        ] {
            let topo = Topology::dumbbell(2, speed, Dur::us(1));
            let net = scheme.build(topo, speed, 1);
            assert_eq!(net.flow_count(), 0);
            // Credit class only for the credit schemes.
            let has_credit = net.port(xpass_net::ids::DLinkId(0)).credit.is_some();
            match scheme {
                Scheme::XPass(_) | Scheme::NaiveCredit => assert!(has_credit),
                _ => assert!(!has_credit),
            }
        }
    }

    #[test]
    fn table_rendering_aligns() {
        let t = text_table(
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("a    bbbb"));
        assert!(t.lines().count() == 4);
    }

    #[test]
    fn overall_is_exact_union_of_buckets() {
        let mk = |size: u64, fct_us: u64| FlowRecord {
            id: FlowId(0),
            src: HostId(0),
            dst: HostId(1),
            size_bytes: size,
            start: SimTime::ZERO,
            fct: Some(Dur::us(fct_us)),
            outcome: None,
        };
        // Two S flows and two XL flows with well-separated FCTs: the exact
        // overall median must interpolate between the 2nd and 3rd sample,
        // which a quantile-of-quantiles resampling would miss.
        let recs = vec![
            mk(100, 10),
            mk(200, 20),
            mk(2_000_000, 1000),
            mk(3_000_000, 2000),
        ];
        let b = FctBuckets::from_records(&recs);
        let mut all = b.overall();
        assert_eq!(all.count(), 4);
        let mut direct = Percentiles::new();
        for us in [10, 20, 1000, 2000] {
            direct.add(Dur::us(us).as_secs_f64());
        }
        assert_eq!(all.quantile(0.5), direct.quantile(0.5));
        assert_eq!(all.quantile(0.99), direct.quantile(0.99));
        assert_eq!(all.min(), Dur::us(10).as_secs_f64());
        assert_eq!(all.max(), Dur::us(2000).as_secs_f64());
    }

    #[test]
    fn convergence_fewer_samples_than_window() {
        let s: Vec<(SimTime, f64)> = (0..3).map(|i| (SimTime(i), 1.0)).collect();
        assert_eq!(
            convergence_time_samples(&s, SimTime::ZERO, 1.0, 0.1, 4),
            None
        );
        assert_eq!(
            convergence_time_samples(&[], SimTime::ZERO, 1.0, 0.1, 1),
            None
        );
        assert_eq!(
            convergence_time_cumulative_samples(&[], SimTime::ZERO, 1.0, 0.1),
            None
        );
    }

    #[test]
    fn convergence_never_converged() {
        // Steady throughput far below the fair share: no window is in band.
        let s: Vec<(SimTime, f64)> = (0..20).map(|i| (SimTime(i * 100), 0.2)).collect();
        assert_eq!(
            convergence_time_samples(&s, SimTime::ZERO, 1.0, 0.1, 4),
            None
        );
        assert_eq!(
            convergence_time_cumulative_samples(&s, SimTime::ZERO, 1.0, 0.1),
            None
        );
    }

    #[test]
    fn convergence_in_band_from_first_window() {
        // In band from the very first sample: convergence at the first
        // sample time, i.e. zero delay after t0.
        let s: Vec<(SimTime, f64)> = (0..10).map(|i| (SimTime(i * 100), 1.0)).collect();
        assert_eq!(
            convergence_time_samples(&s, SimTime::ZERO, 1.0, 0.1, 4),
            Some(Dur::ZERO)
        );
        assert_eq!(
            convergence_time_cumulative_samples(&s, SimTime::ZERO, 1.0, 0.1),
            Some(Dur::ZERO)
        );
        // Ramp-up then sustained band entry: convergence at the start of
        // the first sustained in-band window, not the transient.
        let mut ramp: Vec<(SimTime, f64)> = vec![
            (SimTime(0), 0.0),
            (SimTime(100), 1.0), // transient spike, not sustained
            (SimTime(200), 0.0),
            (SimTime(300), 0.1),
        ];
        ramp.extend((4..14).map(|i| (SimTime(i * 100), 1.0)));
        let got = convergence_time_samples(&ramp, SimTime::ZERO, 1.0, 0.05, 2).unwrap();
        assert_eq!(got, Dur(400));
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_secs(0.0), "-");
        assert_eq!(fmt_secs(50e-6), "50.0us");
        assert_eq!(fmt_secs(0.0123), "12.30ms");
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_bytes(500.0), "500B");
        assert_eq!(fmt_bytes(1_500.0), "1.5KB");
        assert_eq!(fmt_bytes(2_000_000.0), "2.00MB");
    }
}
