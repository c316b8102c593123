//! HULL (Alizadeh et al., NSDI 2012): phantom queues + DCTCP control +
//! hardware pacing.
//!
//! The network side is enabled by [`NetConfig::hull`](xpass_net::NetConfig):
//! each switch port simulates a virtual queue draining at γ·C (γ = 0.95)
//! and ECN-marks packets when the virtual backlog exceeds a threshold —
//! congestion is signalled *before* any real queue forms, trading ~5 % of
//! bandwidth for near-zero latency. The host side below is DCTCP's
//! estimator/decrease plus pacing of transmissions at the current
//! window rate (HULL's "hardware pacer" module).

use crate::dctcp::DctcpCc;
use crate::window::{window_factory, AckEvent, CongestionControl};
use xpass_net::endpoint::EndpointFactory;
use xpass_net::packet::MAX_FRAME;
use xpass_sim::time::{Dur, SimTime};

/// HULL host policy: DCTCP with window-rate pacing.
pub struct HullCc {
    inner: DctcpCc,
    /// Latest smoothed RTT (for the pacing rate).
    srtt: Dur,
}

impl HullCc {
    /// New policy for the given link speed.
    pub fn new(link_bps: u64) -> HullCc {
        HullCc {
            inner: DctcpCc::new(link_bps),
            srtt: Dur::us(100),
        }
    }
}

impl CongestionControl for HullCc {
    fn cwnd(&self) -> f64 {
        self.inner.cwnd()
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        if let Some(r) = ev.rtt {
            if !r.is_zero() {
                self.srtt = self.srtt.mul_f64(0.875) + r.mul_f64(0.125);
            }
        }
        self.inner.on_ack(ev);
    }

    fn on_fast_retransmit(&mut self, now: SimTime) {
        self.inner.on_fast_retransmit(now);
    }

    fn on_timeout(&mut self) {
        self.inner.on_timeout();
    }

    fn pacing_bps(&self) -> Option<f64> {
        // Pace at the window rate: cwnd × wire-frame / RTT.
        let rtt = self.srtt.as_secs_f64().max(1e-6);
        Some((self.cwnd() * MAX_FRAME as f64 * 8.0 / rtt).max(1e6))
    }

    fn persist(&mut self, io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        self.inner.persist(io)?;
        io.u64(&mut self.srtt.0)
    }
}

/// Endpoint factory for HULL at the given link speed. Combine with
/// [`NetConfig::hull`](xpass_net::NetConfig::hull) for phantom queues.
pub fn hull_factory(link_bps: u64) -> EndpointFactory {
    window_factory(move || HullCc::new(link_bps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpass_net::config::{HostDelayModel, NetConfig};
    use xpass_net::ids::HostId;
    use xpass_net::network::Network;
    use xpass_net::topology::Topology;

    const G10: u64 = 10_000_000_000;

    fn hull_net(topo: Topology, seed: u64) -> Network {
        let mut cfg = NetConfig::hull(G10).with_seed(seed);
        cfg.host_delay = HostDelayModel {
            min: Dur::us(1),
            max: Dur::us(1),
        };
        Network::new(topo, cfg, hull_factory(G10))
    }

    #[test]
    fn pacing_rate_scales_with_window() {
        let mut cc = HullCc::new(G10);
        let r1 = cc.pacing_bps().unwrap();
        // Grow the window via clean acks.
        for i in 0..40 {
            cc.on_ack(&AckEvent {
                newly_acked: 1,
                ece: false,
                rtt: Some(Dur::us(100)),
                qdelay: Dur::ZERO,
                rate_bps: f64::INFINITY,
                now: SimTime::ZERO,
                snd_una: i + 1,
                snd_nxt: i + 20,
            });
        }
        let r2 = cc.pacing_bps().unwrap();
        assert!(r2 > r1, "{r1} → {r2}");
    }

    #[test]
    fn queues_far_below_dctcp() {
        // Same 2-flow scenario as the DCTCP test; HULL's phantom queue must
        // keep the real queue an order of magnitude smaller than DCTCP's K.
        let mut net = hull_net(Topology::dumbbell(2, G10, Dur::us(1)), 41);
        net.add_flow(HostId(0), HostId(2), 10_000_000, SimTime::ZERO);
        net.add_flow(HostId(1), HostId(3), 10_000_000, SimTime::ZERO);
        net.run_until_done(SimTime::ZERO + Dur::secs(1));
        assert_eq!(net.completed_count(), 2);
        net.finish_stats();
        let maxq = net.max_switch_queue_bytes();
        assert!(maxq < 65 * 1538, "max queue {maxq} not below K");
        assert_eq!(net.total_data_drops(), 0);
    }

    #[test]
    fn sacrifices_some_bandwidth() {
        let mut net = hull_net(Topology::dumbbell(1, G10, Dur::us(1)), 43);
        let size = 10_000_000u64;
        let f = net.add_flow(HostId(0), HostId(1), size, SimTime::ZERO);
        let done = net.run_until_done(SimTime::ZERO + Dur::secs(1));
        assert!(net.flow_done(f));
        let gbps = size as f64 * 8.0 / done.as_secs_f64() / 1e9;
        // Under the 9.49 goodput ceiling and under DCTCP's typical rate,
        // but still most of the link (γ = 0.95 of capacity).
        assert!(gbps > 5.0 && gbps < 9.4, "goodput {gbps}");
    }
}
