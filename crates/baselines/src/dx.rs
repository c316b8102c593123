//! DX congestion control (Lee et al., USENIX ATC 2015): delay-based window
//! control from *accurate* queuing-delay feedback.
//!
//! The simulator accumulates each packet's exact time-in-queue
//! ([`Packet::qdelay`](xpass_net::packet::Packet)) and the receiver echoes
//! it, playing the role of DX's precise NIC timestamping. Once per window
//! the sender averages the echoed queuing delays `Q` and updates:
//!
//! * `Q ≤ thresh` → `W ← W + 1` (additive increase)
//! * `Q > thresh` → `W ← W · (1 − Q/(Q + V))` (proportional decrease),
//!
//! with `V` a latency headroom scale (the average RTT in DX's derivation).
//! This is a documented approximation of DX's control law; its qualitative
//! behaviour — near-empty queues, conservative throughput — matches the
//! paper's DX columns.

use crate::window::{window_factory, AckEvent, CongestionControl};
use xpass_net::endpoint::EndpointFactory;
use xpass_sim::time::{Dur, SimTime};

/// Queuing delay below which the network is considered uncongested.
const THRESH: Dur = Dur::us(3);
/// Headroom scale `V` in the proportional decrease.
const V: Dur = Dur::us(100);
/// Initial window.
const INIT_CWND: f64 = 10.0;

/// DX window policy.
pub struct DxCc {
    cwnd: f64,
    ssthresh: f64,
    window_end: u64,
    q_sum: f64,
    q_n: u64,
}

impl DxCc {
    /// New policy.
    pub fn new() -> DxCc {
        DxCc {
            cwnd: INIT_CWND,
            ssthresh: f64::INFINITY,
            window_end: 0,
            q_sum: 0.0,
            q_n: 0,
        }
    }
}

impl Default for DxCc {
    fn default() -> DxCc {
        DxCc::new()
    }
}

impl CongestionControl for DxCc {
    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        self.q_sum += ev.qdelay.as_secs_f64();
        self.q_n += ev.newly_acked;
        if ev.snd_una >= self.window_end {
            let q = if self.q_n > 0 {
                self.q_sum / self.q_n as f64
            } else {
                0.0
            };
            self.q_sum = 0.0;
            self.q_n = 0;
            self.window_end = ev.snd_nxt;
            if q > THRESH.as_secs_f64() {
                let v = V.as_secs_f64();
                self.cwnd = (self.cwnd * (1.0 - q / (q + v))).max(2.0);
                self.ssthresh = self.cwnd;
            } else if self.cwnd < self.ssthresh {
                self.cwnd += self.cwnd.max(1.0); // slow start: double per window
            } else {
                self.cwnd += 1.0;
            }
        }
    }

    fn on_fast_retransmit(&mut self, _now: SimTime) {
        self.cwnd = (self.cwnd / 2.0).max(2.0);
        self.ssthresh = self.cwnd;
    }

    fn on_timeout(&mut self) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 2.0;
    }

    fn persist(&mut self, io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        io.f64(&mut self.cwnd)?;
        io.f64(&mut self.ssthresh)?;
        io.u64(&mut self.window_end)?;
        io.f64(&mut self.q_sum)?;
        io.u64(&mut self.q_n)
    }
}

/// Endpoint factory for DX.
pub fn dx_factory() -> EndpointFactory {
    window_factory(DxCc::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpass_net::config::{HostDelayModel, NetConfig};
    use xpass_net::ids::HostId;
    use xpass_net::network::Network;
    use xpass_net::topology::Topology;

    const G10: u64 = 10_000_000_000;

    fn ev(q: Dur, una: u64, nxt: u64) -> AckEvent {
        AckEvent {
            newly_acked: 1,
            ece: false,
            rtt: Some(Dur::us(50)),
            qdelay: q,
            rate_bps: f64::INFINITY,
            now: SimTime::ZERO,
            snd_una: una,
            snd_nxt: nxt,
        }
    }

    #[test]
    fn grows_when_queue_empty() {
        let mut cc = DxCc::new();
        cc.ssthresh = 10.0; // skip slow start
        let w0 = cc.cwnd();
        cc.on_ack(&ev(Dur::ZERO, 1, 10));
        assert!((cc.cwnd() - (w0 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn decrease_proportional_to_delay() {
        let mut cc = DxCc::new();
        cc.cwnd = 100.0;
        // Q = V → halve.
        cc.on_ack(&ev(Dur::us(100), 1, 10));
        assert!((cc.cwnd() - 50.0).abs() < 1.0, "{}", cc.cwnd());
        // Larger Q → deeper cut.
        let mut cc2 = DxCc::new();
        cc2.cwnd = 100.0;
        cc2.on_ack(&ev(Dur::us(300), 1, 10));
        assert!(cc2.cwnd() < 30.0, "{}", cc2.cwnd());
    }

    #[test]
    fn keeps_queue_near_zero_end_to_end() {
        let mut cfg = NetConfig::default().with_seed(31);
        cfg.host_delay = HostDelayModel {
            min: Dur::us(1),
            max: Dur::us(1),
        };
        let mut net = Network::new(Topology::dumbbell(2, G10, Dur::us(1)), cfg, dx_factory());
        net.add_flow(HostId(0), HostId(2), 10_000_000, SimTime::ZERO);
        net.add_flow(HostId(1), HostId(3), 10_000_000, SimTime::ZERO);
        net.run_until_done(SimTime::ZERO + Dur::secs(1));
        assert_eq!(net.completed_count(), 2);
        net.finish_stats();
        // DX's hallmark: small queues (well under DCTCP's K ≈ 100 KB).
        let maxq = net.max_switch_queue_bytes();
        assert!(maxq < 60_000, "max queue {maxq}");
        assert_eq!(net.total_data_drops(), 0);
    }

    #[test]
    fn utilization_reasonable_despite_conservatism() {
        let mut cfg = NetConfig::default().with_seed(33);
        cfg.host_delay = HostDelayModel {
            min: Dur::us(1),
            max: Dur::us(1),
        };
        let mut net = Network::new(Topology::dumbbell(1, G10, Dur::us(1)), cfg, dx_factory());
        let size = 10_000_000u64;
        let f = net.add_flow(HostId(0), HostId(1), size, SimTime::ZERO);
        let done = net.run_until_done(SimTime::ZERO + Dur::secs(1));
        assert!(net.flow_done(f));
        let gbps = size as f64 * 8.0 / done.as_secs_f64() / 1e9;
        assert!(gbps > 5.0, "goodput {gbps}");
    }
}
