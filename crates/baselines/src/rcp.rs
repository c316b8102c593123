//! RCP (Rate Control Protocol, Dukkipati) sender policy.
//!
//! The per-link rate computation lives in the network
//! ([`RcpLink`](xpass_net::rcplink::RcpLink), enabled by
//! [`NetConfig::rcp`](xpass_net::NetConfig)): switches stamp every data
//! packet with `min(header rate, link rate)` and receivers echo the
//! bottleneck rate in ACKs. The sender paces at the echoed rate.
//!
//! A new flow sends a small initial window and adopts the advertised rate
//! from its first ACK — RCP's "new flows start at the rate of existing
//! flows" behaviour, which gives instant convergence (Fig 16 i/j) but also
//! the queue overshoot under flow churn that Fig 15(f) reports.

use crate::window::{window_factory, AckEvent, CongestionControl};
use xpass_net::endpoint::EndpointFactory;
use xpass_net::packet::MSS;
use xpass_sim::time::SimTime;

/// RCP sender policy: pace at the bottleneck-advertised rate.
pub struct RcpCc {
    /// Latest advertised bottleneck rate (bits/s); `None` before feedback.
    rate_bps: Option<f64>,
    /// Smoothed RTT estimate for the in-flight cap.
    srtt_s: f64,
    init_cwnd: f64,
}

impl RcpCc {
    /// New policy.
    pub fn new() -> RcpCc {
        RcpCc {
            rate_bps: None,
            srtt_s: 100e-6,
            init_cwnd: 2.0,
        }
    }

    /// Latest advertised rate, if any.
    pub fn advertised_rate(&self) -> Option<f64> {
        self.rate_bps
    }
}

impl Default for RcpCc {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for RcpCc {
    fn cwnd(&self) -> f64 {
        match self.rate_bps {
            // In-flight cap: two rate-delay products (pacing is the real
            // control; the cap only bounds memory under loss).
            Some(r) => (2.0 * r * self.srtt_s / (MSS as f64 * 8.0)).max(2.0),
            None => self.init_cwnd,
        }
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        if ev.rate_bps.is_finite() && ev.rate_bps > 0.0 {
            self.rate_bps = Some(ev.rate_bps);
        }
        if let Some(r) = ev.rtt {
            let s = r.as_secs_f64();
            if s > 0.0 {
                self.srtt_s = 0.875 * self.srtt_s + 0.125 * s;
            }
        }
    }

    fn on_fast_retransmit(&mut self, _now: SimTime) {
        // Rate-based: loss does not change the advertised rate.
    }

    fn on_timeout(&mut self) {}

    fn pacing_bps(&self) -> Option<f64> {
        self.rate_bps
    }

    fn persist(&mut self, io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        io.opt(&mut self.rate_bps, |io, r| io.f64(r))?;
        io.f64(&mut self.srtt_s)
    }
}

/// Endpoint factory for RCP. Combine with
/// [`NetConfig::rcp`](xpass_net::NetConfig::rcp) so switches compute rates.
pub fn rcp_factory() -> EndpointFactory {
    window_factory(RcpCc::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpass_net::config::{HostDelayModel, NetConfig};
    use xpass_net::ids::HostId;
    use xpass_net::network::Network;
    use xpass_net::topology::Topology;
    use xpass_sim::time::Dur;

    const G10: u64 = 10_000_000_000;

    fn rcp_net(topo: Topology, seed: u64) -> Network {
        let mut cfg = NetConfig::rcp().with_seed(seed);
        cfg.host_delay = HostDelayModel {
            min: Dur::us(1),
            max: Dur::us(1),
        };
        Network::new(topo, cfg, rcp_factory())
    }

    #[test]
    fn policy_adopts_echoed_rate() {
        let mut cc = RcpCc::new();
        assert!(cc.pacing_bps().is_none());
        cc.on_ack(&AckEvent {
            newly_acked: 1,
            ece: false,
            rtt: Some(Dur::us(100)),
            qdelay: Dur::ZERO,
            rate_bps: 2.5e9,
            now: SimTime::ZERO,
            snd_una: 1,
            snd_nxt: 2,
        });
        assert_eq!(cc.pacing_bps(), Some(2.5e9));
        assert!(cc.cwnd() > 2.0);
    }

    #[test]
    fn single_flow_fills_link() {
        let mut net = rcp_net(Topology::dumbbell(1, G10, Dur::us(1)), 51);
        let size = 10_000_000u64;
        let f = net.add_flow(HostId(0), HostId(1), size, SimTime::ZERO);
        let done = net.run_until_done(SimTime::ZERO + Dur::ms(500));
        assert!(net.flow_done(f));
        let gbps = size as f64 * 8.0 / done.as_secs_f64() / 1e9;
        assert!(gbps > 7.5, "goodput {gbps}");
    }

    #[test]
    fn four_flows_processor_share() {
        let mut net = rcp_net(Topology::dumbbell(4, G10, Dur::us(1)), 53);
        let size = 5_000_000u64;
        for i in 0..4u32 {
            net.add_flow(HostId(i), HostId(4 + i), size, SimTime::ZERO);
        }
        net.run_until_done(SimTime::ZERO + Dur::secs(1));
        assert_eq!(net.completed_count(), 4);
        let recs = net.flow_records();
        let fcts: Vec<f64> = recs.iter().map(|r| r.fct.unwrap().as_secs_f64()).collect();
        let max = fcts.iter().cloned().fold(0.0, f64::max);
        let min = fcts.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min < 1.4, "unfair: {fcts:?}");
    }

    #[test]
    fn late_flow_converges_within_few_rtts() {
        // Fig 16(i): RCP converges in ~3 RTTs because the switch hands the
        // new flow the current rate directly.
        let mut net = rcp_net(Topology::dumbbell(2, G10, Dur::us(25)), 55);
        net.add_flow(HostId(0), HostId(2), 50_000_000, SimTime::ZERO);
        let late = net.add_flow(HostId(1), HostId(3), 50_000_000, SimTime::ZERO + Dur::ms(2));
        net.run_until(SimTime::ZERO + Dur::ms(4));
        // 2ms after joining (≈ 13 RTTs of 150us), the late flow must have a
        // rate near the 50% fair share.
        let mut rate = None;
        net.poke(late, xpass_net::ids::Side::Sender, |ep, _| {
            rate = ep
                .as_any()
                .downcast_mut::<crate::window::WindowSender<RcpCc>>()
                .unwrap()
                .cc()
                .advertised_rate();
        });
        let r = rate.expect("rate advertised");
        // RCP's α/β gains settle a little under the exact C/2 share.
        assert!(
            (2.5e9..7.5e9).contains(&r),
            "advertised rate {r:.2e} not near fair share"
        );
    }

    #[test]
    fn new_flows_cause_queue_overshoot() {
        // Fig 15(f): RCP's full-rate admission of new flows overloads the
        // queue when many flows join; the queue must clearly exceed what a
        // converged run would need.
        let mut net = rcp_net(Topology::dumbbell(32, G10, Dur::us(4)), 57);
        for i in 0..32u32 {
            net.add_flow(
                HostId(i),
                HostId(32 + i),
                2_000_000,
                SimTime::ZERO + Dur::us(100 * i as u64),
            );
        }
        net.run_until_done(SimTime::ZERO + Dur::secs(2));
        assert_eq!(net.completed_count(), 32);
        let maxq = net.max_switch_queue_bytes();
        // Far above the ~2 KB a converged credit scheme shows (Fig 15 e/f):
        // the initial windows of simultaneous joiners pile up before the
        // advertised rate reflects them.
        assert!(maxq > 90_000, "expected overshoot, max queue {maxq}");
    }
}
