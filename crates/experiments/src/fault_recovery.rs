//! Link-failure recovery — robustness companion to Fig 16's convergence
//! study: how fast does ExpressPass re-converge after a mid-run fault, and
//! does the zero-data-loss property survive a disturbance of the credit
//! class alone?
//!
//! Two scenarios, both driven by a deterministic [`FaultPlan`]:
//!
//! * **Credit-class disturbance** — long flows across a dumbbell
//!   bottleneck; mid-run, both directions of the bottleneck cable start
//!   dropping a large fraction of *credit* packets (data untouched). The
//!   feedback loop throttles, and once the loss clears the recovery-reset
//!   `w` closes the gap to the ceiling in a few RTTs. Because only credits
//!   were disturbed, the run must end with **zero data-queue drops** — the
//!   paper's core invariant under credit starvation.
//! * **Link down/up** — cross-pod flows on a k-ary fat tree; one ToR–agg
//!   cable goes down (queues frozen) and later comes back. ECMP re-hashes
//!   around the dead cable, go-back-N repairs in-flight data lost on the
//!   wire, and every flow still completes.
//!
//! A third check runs the credit scenario twice with the same seed and
//! asserts bit-identical counters and flow records — the deterministic
//! replay guarantee of the fault layer.

use crate::harness::text_table;
use expresspass::{xpass_factory, XPassConfig};
use std::fmt;
use xpass_net::config::NetConfig;
use xpass_net::faults::FaultPlan;
use xpass_net::ids::{HostId, NodeId, SwitchId};
use xpass_net::network::{Counters, FlowRecord, Network};
use xpass_net::topology::Topology;
use xpass_sim::time::{Dur, SimTime};

/// Fault-recovery experiment configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Sender/receiver pairs across the dumbbell bottleneck.
    pub n_pairs: usize,
    /// Link speed everywhere (dumbbell) / host speed (fat tree).
    pub speed_bps: u64,
    /// When the fault is injected.
    pub fault_at: Dur,
    /// When the fault clears.
    pub fault_clear: Dur,
    /// Observation end (credit scenario runs exactly this long).
    pub end: Dur,
    /// Credit loss probability on the disturbed bottleneck.
    pub credit_loss: f64,
    /// Sampling interval for the goodput series.
    pub sample: Dur,
    /// Startup transient excluded from the pre-fault goodput mean.
    pub sample_warmup: Dur,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            n_pairs: 4,
            speed_bps: 10_000_000_000,
            fault_at: Dur::ms(5),
            fault_clear: Dur::ms(10),
            end: Dur::ms(16),
            credit_loss: 0.8,
            sample: Dur::us(100),
            sample_warmup: Dur::ms(2),
            seed: 61,
        }
    }
}

/// Result of both scenarios.
#[derive(Clone, Debug)]
pub struct FaultRecovery {
    /// Aggregate goodput before the fault (Gbps, mean over the pre-window).
    pub pre_gbps: f64,
    /// Aggregate goodput while the credit class is disturbed.
    pub during_gbps: f64,
    /// Aggregate goodput after the fault cleared.
    pub post_gbps: f64,
    /// Time from fault-clear until aggregate goodput is back within 90 % of
    /// the pre-fault mean (3 consecutive samples); `None` = never in window.
    pub reconvergence: Option<Dur>,
    /// Data-queue drops in the credit scenario (must be 0).
    pub credit_data_drops: u64,
    /// Counters of the credit scenario.
    pub credit_counters: Counters,
    /// Completed flows in the link-failure scenario.
    pub linkfail_completed: usize,
    /// Total flows in the link-failure scenario.
    pub linkfail_total: usize,
    /// Counters of the link-failure scenario.
    pub linkfail_counters: Counters,
    /// Replays of the credit scenario were bit-identical.
    pub deterministic: bool,
}

/// Build and run the credit-class disturbance scenario once.
fn run_credit_scenario(cfg: &Config) -> (Network, Vec<xpass_net::ids::FlowId>) {
    let topo = Topology::dumbbell(cfg.n_pairs, cfg.speed_bps, Dur::us(1));
    let fwd = topo
        .dlink_between(NodeId::Switch(SwitchId(0)), NodeId::Switch(SwitchId(1)))
        .expect("dumbbell bottleneck");
    let rev = topo
        .dlink_between(NodeId::Switch(SwitchId(1)), NodeId::Switch(SwitchId(0)))
        .expect("dumbbell bottleneck reverse");
    let net_cfg = NetConfig::expresspass().with_seed(cfg.seed);
    let mut net = Network::new(topo, net_cfg, xpass_factory(XPassConfig::aggressive()));
    net.set_sample_interval(cfg.sample);
    let t0 = SimTime::ZERO;
    let bytes = cfg.speed_bps / 8; // 1 s of traffic: outlives the window
    let mut flows = Vec::new();
    for i in 0..cfg.n_pairs {
        let f = net.add_flow(
            HostId(i as u32),
            HostId((cfg.n_pairs + i) as u32),
            bytes,
            t0,
        );
        net.track_flow(f);
        flows.push(f);
    }
    // Disturb ONLY the credit class, both directions for symmetry.
    net.install_fault_plan(
        FaultPlan::new()
            .set_loss(t0 + cfg.fault_at, fwd, 0.0, cfg.credit_loss)
            .set_loss(t0 + cfg.fault_at, rev, 0.0, cfg.credit_loss)
            .set_loss(t0 + cfg.fault_clear, fwd, 0.0, 0.0)
            .set_loss(t0 + cfg.fault_clear, rev, 0.0, 0.0),
    );
    net.run_until(t0 + cfg.end);
    (net, flows)
}

/// Aggregate tracked-flow goodput per sample instant.
fn aggregate_series(net: &Network, flows: &[xpass_net::ids::FlowId]) -> Vec<(SimTime, f64)> {
    let mut agg: Vec<(SimTime, f64)> = Vec::new();
    for (fi, f) in flows.iter().enumerate() {
        let series = net.flow_series(*f).expect("tracked");
        for (i, &(t, v)) in series.samples.iter().enumerate() {
            if fi == 0 {
                agg.push((t, v));
            } else if let Some(slot) = agg.get_mut(i) {
                debug_assert_eq!(slot.0, t, "sample instants align across flows");
                slot.1 += v;
            }
        }
    }
    agg
}

fn mean_in(agg: &[(SimTime, f64)], from: SimTime, to: SimTime) -> f64 {
    let vals: Vec<f64> = agg
        .iter()
        .filter(|&&(t, _)| t > from && t <= to)
        .map(|&(_, v)| v)
        .collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// Run both scenarios plus the determinism replay.
pub fn run(cfg: &Config) -> FaultRecovery {
    // --- credit-class disturbance -------------------------------------
    let (net, flows) = run_credit_scenario(cfg);
    let agg = aggregate_series(&net, &flows);
    let t0 = SimTime::ZERO;
    let pre_gbps = mean_in(&agg, t0 + cfg.sample_warmup, t0 + cfg.fault_at);
    let during_gbps = mean_in(&agg, t0 + cfg.fault_at, t0 + cfg.fault_clear);
    let post_gbps = mean_in(&agg, t0 + cfg.fault_clear, t0 + cfg.end);
    // Re-convergence: first of 3 consecutive post-clear samples at ≥ 90 %
    // of the pre-fault aggregate.
    let clear = t0 + cfg.fault_clear;
    let threshold = 0.9 * pre_gbps;
    let post: Vec<(SimTime, f64)> = agg.iter().filter(|&&(t, _)| t > clear).copied().collect();
    let mut reconvergence = None;
    let mut streak = 0usize;
    for &(t, v) in &post {
        if v >= threshold {
            streak += 1;
            if streak == 3 {
                // Anchor at the first sample of the streak.
                let third = t.since(clear);
                let back = cfg.sample * 2;
                reconvergence = Some(Dur((third.0).saturating_sub(back.0)));
                break;
            }
        } else {
            streak = 0;
        }
    }
    let credit_data_drops = net.total_data_drops();
    let credit_counters = net.counters().clone();
    let credit_records: Vec<FlowRecord> = net.flow_records();

    // --- determinism replay -------------------------------------------
    let (net2, _) = run_credit_scenario(cfg);
    let deterministic =
        *net2.counters() == credit_counters && net2.flow_records() == credit_records;

    // --- link down/up on a fat tree -----------------------------------
    let topo = Topology::fat_tree(4, cfg.speed_bps, 4 * cfg.speed_bps, Dur::us(1));
    // ToR 0 ↔ its first agg (pod 0): host 0's default uplink path. The
    // second agg keeps the pod connected while the cable is down.
    let tor0 = NodeId::Switch(SwitchId(0));
    let agg0 = NodeId::Switch(SwitchId(8));
    let up = topo.dlink_between(tor0, agg0).expect("tor-agg cable");
    let down = topo.dlink_between(agg0, tor0).expect("agg-tor cable");
    let net_cfg = NetConfig::expresspass().with_seed(cfg.seed ^ 1);
    let mut lf_net = Network::new(topo, net_cfg, xpass_factory(XPassConfig::aggressive()));
    // Cross-pod flows into and out of pod 0 so traffic crosses the cable.
    // Sized to outlive the fault window (≈10 ms at line rate), so every
    // flow experiences the outage and must recover.
    let pairs: &[(u32, u32)] = &[(0, 4), (1, 8), (5, 2), (12, 3)];
    let lf_bytes = cfg.speed_bps / 8 * cfg.fault_clear.as_ps() / 1_000_000_000_000;
    for &(s, d) in pairs {
        lf_net.add_flow(HostId(s), HostId(d), lf_bytes, SimTime::ZERO);
    }
    lf_net.install_fault_plan(
        FaultPlan::new()
            .cable_down(SimTime::ZERO + cfg.fault_at, up, down)
            .cable_up(SimTime::ZERO + cfg.fault_clear, up, down),
    );
    lf_net.run_until_done(SimTime::ZERO + Dur::secs(1));
    FaultRecovery {
        pre_gbps,
        during_gbps,
        post_gbps,
        reconvergence,
        credit_data_drops,
        credit_counters,
        linkfail_completed: lf_net.completed_count(),
        linkfail_total: pairs.len(),
        linkfail_counters: lf_net.counters().clone(),
        deterministic,
    }
}

impl fmt::Display for FaultRecovery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fault recovery: credit-class disturbance + ToR-agg link down/up"
        )?;
        let rows = vec![
            vec![
                "credit disturbance".into(),
                format!("{:.2} Gbps", self.pre_gbps),
                format!("{:.2} Gbps", self.during_gbps),
                format!("{:.2} Gbps", self.post_gbps),
                self.reconvergence
                    .map(|d| format!("{:.0} us", d.as_micros_f64()))
                    .unwrap_or_else(|| "> window".into()),
                format!("{} data drops", self.credit_data_drops),
            ],
            vec![
                "tor-agg down/up".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                format!(
                    "{}/{} completed",
                    self.linkfail_completed, self.linkfail_total
                ),
            ],
        ];
        write!(
            f,
            "{}",
            text_table(
                &["Scenario", "Pre", "During", "Post", "Reconverge", "Outcome"],
                &rows
            )
        )?;
        writeln!(
            f,
            "faults injected: {} (credit) + {} (linkfail); \
             credit pkts lost to faults: {}; deterministic replay: {}",
            self.credit_counters.faults_injected,
            self.linkfail_counters.faults_injected,
            self.credit_counters.pkts_lost_to_faults,
            if self.deterministic { "yes" } else { "NO" },
        )
    }
}

use xpass_sim::json::Json;

impl FaultRecovery {
    /// Structured payload: both scenarios' headline numbers plus the full
    /// counter sets (the determinism check rides along as a bool).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("pre_gbps", Json::Num(self.pre_gbps))
            .with("during_gbps", Json::Num(self.during_gbps))
            .with("post_gbps", Json::Num(self.post_gbps))
            .with(
                "reconvergence_s",
                crate::experiment::json_opt_secs(self.reconvergence),
            )
            .with("credit_data_drops", Json::num_u64(self.credit_data_drops))
            .with("credit_counters", self.credit_counters.to_json())
            .with(
                "linkfail_completed",
                Json::num_u64(self.linkfail_completed as u64),
            )
            .with("linkfail_total", Json::num_u64(self.linkfail_total as u64))
            .with("linkfail_counters", self.linkfail_counters.to_json())
            .with("deterministic", Json::Bool(self.deterministic))
    }
}

/// Registry adapter: drives the fault-recovery study through the
/// [`crate::Experiment`] trait.
#[derive(Default)]
pub struct Exp(Config);

impl crate::Experiment for Exp {
    fn name(&self) -> &str {
        "faults"
    }
    fn describe(&self) -> &str {
        "fault injection: re-convergence after failures"
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
    fn credit_disturbance_throttles_then_reconverges_with_zero_data_loss() {
        let r = run(&Config::default());
        // The fault must actually bite …
        assert!(
            r.during_gbps < 0.7 * r.pre_gbps,
            "fault did not throttle: pre {:.2} during {:.2}",
            r.pre_gbps,
            r.during_gbps
        );
        assert!(r.credit_counters.pkts_lost_to_faults > 0);
        assert_eq!(r.credit_counters.faults_injected, 4);
        // … yet with only the credit class disturbed, no data is ever lost.
        assert_eq!(r.credit_data_drops, 0, "data loss under credit-only fault");
        // And the feedback loop recovers quickly once the loss clears.
        let rec = r.reconvergence.expect("re-converges within window");
        assert!(
            rec < Dur::ms(3),
            "re-convergence took {:.0} us",
            rec.as_micros_f64()
        );
        assert!(
            r.post_gbps > 0.85 * r.pre_gbps,
            "post-fault goodput {:.2} vs pre {:.2}",
            r.post_gbps,
            r.pre_gbps
        );
    }

    #[test]
    fn link_failure_reroutes_and_all_flows_complete() {
        let r = run(&Config::default());
        assert_eq!(
            r.linkfail_completed, r.linkfail_total,
            "flows lost to link failure"
        );
        assert!(r.linkfail_counters.faults_injected >= 4);
    }

    #[test]
    fn replay_is_bit_identical() {
        let r = run(&Config::default());
        assert!(r.deterministic, "fault replay diverged");
    }
}
