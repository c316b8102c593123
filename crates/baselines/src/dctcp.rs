//! DCTCP congestion control (Alizadeh et al., SIGCOMM 2010) — the paper's
//! primary comparator.
//!
//! Switches mark ECN when the instantaneous queue exceeds K
//! (`NetConfig::dctcp` enables this). The sender maintains a running
//! estimate `α` of the marked fraction, updated once per window:
//! `α ← (1−g)·α + g·F`, and on any mark in a window cuts
//! `cwnd ← cwnd·(1 − α/2)`. Unmarked windows grow by slow start (below
//! ssthresh) or one packet per RTT.

use crate::window::{window_factory, AckEvent, CongestionControl};
use xpass_net::endpoint::EndpointFactory;
use xpass_sim::time::SimTime;

/// Initial window in packets.
const INIT_CWND: f64 = 10.0;
/// Minimum window (the paper's DCTCP runs bottom out at 2).
pub const MIN_CWND: f64 = 2.0;

/// DCTCP window policy.
pub struct DctcpCc {
    /// EWMA gain `g` (paper footnote: 0.0625 at 10 G, 0.01976 at 100 G).
    g: f64,
    cwnd: f64,
    ssthresh: f64,
    /// Marked-fraction estimate.
    alpha: f64,
    /// Window-accounting: update α when `snd_una` passes this mark.
    window_end: u64,
    acked_in_window: u64,
    marked_in_window: u64,
    /// At most one multiplicative decrease per window.
    cut_this_window: bool,
}

impl DctcpCc {
    /// New policy for a given link speed, which sets the gain `g` (paper's
    /// Fig 16 footnote).
    pub fn new(link_bps: u64) -> DctcpCc {
        let g = if link_bps >= 100_000_000_000 {
            0.01976
        } else {
            0.0625
        };
        DctcpCc {
            g,
            cwnd: INIT_CWND,
            ssthresh: f64::INFINITY,
            alpha: 1.0,
            window_end: 0,
            acked_in_window: 0,
            marked_in_window: 0,
            cut_this_window: false,
        }
    }

    /// Current α estimate.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl CongestionControl for DctcpCc {
    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        self.acked_in_window += ev.newly_acked;
        if ev.ece {
            self.marked_in_window += ev.newly_acked;
            if !self.cut_this_window {
                // React immediately (once per window) with the current α.
                self.cwnd = (self.cwnd * (1.0 - self.alpha / 2.0)).max(MIN_CWND);
                self.ssthresh = self.cwnd;
                self.cut_this_window = true;
            }
        } else if self.cwnd < self.ssthresh {
            // Slow start: +1 per acked packet.
            self.cwnd += ev.newly_acked as f64;
        } else {
            // Congestion avoidance: +1 per window.
            self.cwnd += ev.newly_acked as f64 / self.cwnd;
        }
        if ev.snd_una >= self.window_end {
            let f = if self.acked_in_window > 0 {
                self.marked_in_window as f64 / self.acked_in_window as f64
            } else {
                0.0
            };
            self.alpha = (1.0 - self.g) * self.alpha + self.g * f;
            self.acked_in_window = 0;
            self.marked_in_window = 0;
            self.cut_this_window = false;
            self.window_end = ev.snd_nxt;
        }
    }

    fn on_fast_retransmit(&mut self, _now: SimTime) {
        self.cwnd = (self.cwnd / 2.0).max(MIN_CWND);
        self.ssthresh = self.cwnd;
    }

    fn persist(&mut self, io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        io.f64(&mut self.cwnd)?;
        io.f64(&mut self.ssthresh)?;
        io.f64(&mut self.alpha)?;
        io.u64(&mut self.window_end)?;
        io.u64(&mut self.acked_in_window)?;
        io.u64(&mut self.marked_in_window)?;
        io.bool(&mut self.cut_this_window)
    }

    fn on_timeout(&mut self) {
        self.ssthresh = (self.cwnd / 2.0).max(MIN_CWND);
        self.cwnd = MIN_CWND;
    }
}

/// Endpoint factory for DCTCP at the given link speed. Combine with
/// [`NetConfig::dctcp`](xpass_net::NetConfig::dctcp) so switches mark ECN.
pub fn dctcp_factory(link_bps: u64) -> EndpointFactory {
    window_factory(move || DctcpCc::new(link_bps))
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

    fn dctcp_net(topo: Topology, seed: u64) -> Network {
        let mut cfg = NetConfig::dctcp(G10).with_seed(seed);
        cfg.host_delay = HostDelayModel {
            min: Dur::us(1),
            max: Dur::us(1),
        };
        Network::new(topo, cfg, dctcp_factory(G10))
    }

    #[test]
    fn alpha_tracks_marking_fraction() {
        let mut cc = DctcpCc::new(G10);
        // Feed 50 windows of fully-marked acks: α → 1.
        for w in 0..50u64 {
            for i in 0..10 {
                let ev = AckEvent {
                    newly_acked: 1,
                    ece: true,
                    rtt: None,
                    qdelay: Dur::ZERO,
                    rate_bps: f64::INFINITY,
                    now: SimTime::ZERO,
                    snd_una: w * 10 + i + 1,
                    snd_nxt: (w + 1) * 10,
                };
                cc.on_ack(&ev);
            }
        }
        assert!(cc.alpha() > 0.9, "alpha {}", cc.alpha());
        // Now clean windows: α decays.
        for w in 50..120u64 {
            for i in 0..10 {
                let ev = AckEvent {
                    newly_acked: 1,
                    ece: false,
                    rtt: None,
                    qdelay: Dur::ZERO,
                    rate_bps: f64::INFINITY,
                    now: SimTime::ZERO,
                    snd_una: w * 10 + i + 1,
                    snd_nxt: (w + 1) * 10,
                };
                cc.on_ack(&ev);
            }
        }
        assert!(cc.alpha() < 0.05, "alpha {}", cc.alpha());
    }

    #[test]
    fn cut_at_most_once_per_window() {
        let mut cc = DctcpCc::new(G10);
        cc.cwnd = 100.0;
        cc.alpha = 1.0;
        cc.window_end = 100; // acks 1..10 all fall inside this window
        let before = cc.cwnd();
        for i in 0..10 {
            let ev = AckEvent {
                newly_acked: 1,
                ece: true,
                rtt: None,
                qdelay: Dur::ZERO,
                rate_bps: f64::INFINITY,
                now: SimTime::ZERO,
                snd_una: i + 1,
                snd_nxt: 100,
            };
            cc.on_ack(&ev);
        }
        // One halving only (α=1 → factor 0.5), not ten.
        assert!(cc.cwnd() >= before * 0.49, "{}", cc.cwnd());
    }

    #[test]
    fn min_window_floor() {
        let mut cc = DctcpCc::new(G10);
        for _ in 0..20 {
            cc.on_timeout();
        }
        assert!(cc.cwnd() >= 2.0);
    }

    #[test]
    fn single_flow_fills_link() {
        let mut net = dctcp_net(Topology::dumbbell(1, G10, Dur::us(1)), 21);
        let size = 10_000_000u64;
        let f = net.add_flow(HostId(0), HostId(1), size, SimTime::ZERO);
        let done = net.run_until_done(SimTime::ZERO + Dur::ms(200));
        assert!(net.flow_done(f));
        let gbps = size as f64 * 8.0 / done.as_secs_f64() / 1e9;
        // DCTCP fills the pipe (goodput ceiling 10G×1460/1538 = 9.49).
        assert!(gbps > 8.0, "goodput {gbps}");
    }

    #[test]
    fn queue_hovers_near_k() {
        let mut net = dctcp_net(Topology::dumbbell(2, G10, Dur::us(1)), 23);
        net.add_flow(HostId(0), HostId(2), 20_000_000, SimTime::ZERO);
        net.add_flow(HostId(1), HostId(3), 20_000_000, SimTime::ZERO);
        net.run_until_done(SimTime::ZERO + Dur::ms(200));
        net.finish_stats();
        let k = net.cfg().ecn_k_bytes.unwrap();
        let maxq = net.max_switch_queue_bytes();
        // Max queue is above K (marking lags) but far below capacity.
        assert!(maxq > k / 2, "max queue {maxq} vs K {k}");
        assert!(maxq < net.cfg().switch_queue_bytes, "queue at capacity");
    }

    #[test]
    fn incast_collapses_less_gracefully_than_credit() {
        // 16:1 incast with DCTCP: queue grows to (or near) capacity and
        // drops appear — the behaviour ExpressPass eliminates.
        let mut net = dctcp_net(Topology::star(17, G10, Dur::us(1)), 25);
        for i in 0..16u32 {
            net.add_flow(HostId(i), HostId(16), 500_000, SimTime::ZERO);
        }
        net.run_until_done(SimTime::ZERO + Dur::secs(2));
        assert_eq!(net.completed_count(), 16);
        let maxq = net.max_switch_queue_bytes();
        // With IW=10, 16 flows dump 160 packets at a 250-pkt queue at once.
        assert!(maxq > 100_000, "max queue only {maxq}");
    }

    #[test]
    fn two_flows_share_reasonably() {
        let mut net = dctcp_net(Topology::dumbbell(2, G10, Dur::us(1)), 27);
        let size = 10_000_000u64;
        net.add_flow(HostId(0), HostId(2), size, SimTime::ZERO);
        net.add_flow(HostId(1), HostId(3), size, SimTime::ZERO);
        net.run_until_done(SimTime::ZERO + Dur::ms(500));
        let recs = net.flow_records();
        let fa = recs[0].fct.unwrap().as_secs_f64();
        let fb = recs[1].fct.unwrap().as_secs_f64();
        let ratio = fa.max(fb) / fa.min(fb);
        assert!(ratio < 1.5, "unfair: {fa} vs {fb}");
    }
}
