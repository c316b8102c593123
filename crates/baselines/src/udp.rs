//! Uncredited constant-rate traffic (§7 "Presence of other traffic").
//!
//! Some datacenter traffic — ARP, link-layer control, legacy UDP — cannot
//! request credits in advance. The paper's answer: absorb it in the network
//! data queues (ExpressPass's queues are near-empty, so there is headroom)
//! and, if persistent, apply reactive control. This module provides the
//! *generator* side: a sender that blasts paced, uncredited data at a fixed
//! rate with no feedback of any kind, used to test coexistence.

use std::any::Any;
use xpass_net::endpoint::{Ctx, Endpoint, EndpointFactory, TimerSlot};
use xpass_net::ids::Side;
use xpass_net::packet::{data_wire_size, Packet, PktKind, MSS};
use xpass_sim::time::Dur;

mod timer {
    pub const PACE: u8 = 20;
}

/// Fixed-rate uncredited sender: transmits MSS-sized data packets at
/// `rate_bps` (wire rate) until the flow size is exhausted. No
/// retransmission, no congestion response — losses reduce goodput.
pub struct UdpBlastSender {
    rate_bps: f64,
    next_seq: u64,
    pace: TimerSlot,
}

impl UdpBlastSender {
    /// New sender at the given wire rate.
    pub fn new(rate_bps: f64) -> UdpBlastSender {
        assert!(rate_bps > 0.0);
        UdpBlastSender {
            rate_bps,
            next_seq: 0,
            pace: TimerSlot::new(),
        }
    }

    fn send_next(&mut self, ctx: &mut Ctx<'_>) {
        let size = ctx.info().size_bytes;
        if self.next_seq >= size {
            return;
        }
        let payload = MSS.min((size - self.next_seq) as u32);
        let mut p = ctx.make_pkt(PktKind::Data, data_wire_size(payload));
        p.payload = payload;
        p.seq = self.next_seq;
        self.next_seq += payload as u64;
        ctx.send(p);
        if self.next_seq < size {
            let gap = Dur::from_secs_f64(data_wire_size(payload) as f64 * 8.0 / self.rate_bps);
            self.pace.arm(ctx, timer::PACE, gap);
        }
    }
}

impl Endpoint for UdpBlastSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.send_next(ctx);
    }

    fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut Ctx<'_>) {}

    fn on_timer(&mut self, kind: u8, gen: u64, ctx: &mut Ctx<'_>) {
        if kind == timer::PACE && self.pace.matches(gen) {
            self.send_next(ctx);
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn persist(&mut self, io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        io.u64(&mut self.next_seq)?;
        self.pace.persist(io)
    }
}

/// Receiver: counts whatever arrives (datagram semantics — duplicates and
/// ordering are irrelevant, losses simply never arrive).
pub struct UdpBlastReceiver;

impl Endpoint for UdpBlastReceiver {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx<'_>) {
        if pkt.kind == PktKind::Data {
            ctx.deliver(pkt.payload as u64);
        }
    }

    fn on_timer(&mut self, _kind: u8, _gen: u64, _ctx: &mut Ctx<'_>) {}

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn persist(&mut self, _io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        Ok(())
    }
}

/// Factory for uncredited constant-rate flows.
pub fn udp_blast_factory(rate_bps: f64) -> EndpointFactory {
    Box::new(move |side, _info| match side {
        Side::Sender => Box::new(UdpBlastSender::new(rate_bps)),
        Side::Receiver => Box::new(UdpBlastReceiver),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpass_net::config::NetConfig;
    use xpass_net::ids::HostId;
    use xpass_net::network::Network;
    use xpass_net::topology::Topology;
    use xpass_sim::time::SimTime;

    const G10: u64 = 10_000_000_000;

    #[test]
    fn blasts_at_configured_rate() {
        let topo = Topology::dumbbell(1, G10, Dur::us(2));
        let cfg = NetConfig::default().with_seed(1);
        let mut net = Network::new(topo, cfg, udp_blast_factory(2e9));
        let f = net.add_flow(HostId(0), HostId(1), 10_000_000, SimTime::ZERO);
        let done = net.run_until_done(SimTime::ZERO + Dur::secs(1));
        assert!(net.flow_done(f));
        let gbps = 10_000_000.0 * 8.0 / done.as_secs_f64() / 1e9;
        // Payload rate ≈ wire rate × 1460/1538 ≈ 1.9 Gbps.
        assert!((1.6..2.1).contains(&gbps), "{gbps}");
    }

    #[test]
    fn overload_loses_packets_without_recovery() {
        // 3 blasters at 5G each into a 10G link: losses, no completion of
        // all bytes for everyone.
        let topo = Topology::dumbbell(3, G10, Dur::us(2));
        let cfg = NetConfig::default().with_seed(3);
        let mut net = Network::new(topo, cfg, udp_blast_factory(5e9));
        for i in 0..3u32 {
            net.add_flow(HostId(i), HostId(3 + i), 5_000_000, SimTime::ZERO);
        }
        net.run_until(SimTime::ZERO + Dur::ms(50));
        assert!(net.total_data_drops() > 0, "overload must drop");
        assert!(net.completed_count() < 3, "datagram losses are final");
    }
}
