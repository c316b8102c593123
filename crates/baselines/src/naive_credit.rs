//! The naïve credit scheme of §2 / Fig 2(a): the receiver sends credits at
//! the maximum credit rate from the moment the flow opens, with no feedback
//! whatsoever. Excess credits are shed by switch rate-limiting.
//!
//! On a single bottleneck this converges in one RTT (Fig 2a) — but it
//! wastes bandwidth with multiple bottlenecks (Fig 10, 83.3 % → 60 % as
//! the parking lot deepens) and is unfair in multi-bottleneck topologies
//! (Fig 11), which motivates the credit feedback loop.
//!
//! The sender side is identical to ExpressPass
//! ([`expresspass::XPassSender`]): transmit one data frame per
//! credit.

use expresspass::feedback::max_credit_rate;
use expresspass::XPassSender;
use std::any::Any;
use xpass_net::endpoint::{Ctx, Endpoint, EndpointFactory, TimerSlot};
use xpass_net::ids::Side;
use xpass_net::packet::{ctrl, Packet, PktKind, CREDIT_SIZE, CREDIT_SIZE_MAX};
use xpass_sim::time::Dur;

mod timer {
    pub const PACE: u8 = 1;
}

/// Pacing jitter: each credit gap is drawn within ±5 % of the nominal one.
const JITTER: f64 = 0.05;

/// Receiver that blasts credits at the maximum rate, no feedback.
#[derive(Default)]
pub struct NaiveCreditReceiver {
    credit_seq: u64,
    pace_slot: TimerSlot,
    sending: bool,
    stopped: bool,
}

impl NaiveCreditReceiver {
    /// New receiver: jittered pacing, randomized credit sizes (§3.1).
    pub fn new() -> NaiveCreditReceiver {
        NaiveCreditReceiver::default()
    }

    fn gap(&self, ctx: &Ctx<'_>) -> Dur {
        // One credit per (84 + 1538) byte-times of the host link.
        let rate = max_credit_rate(ctx.host_link_bps());
        Dur::from_secs_f64(1.0 / rate)
    }

    fn send_credit(&mut self, ctx: &mut Ctx<'_>) {
        self.credit_seq += 1;
        let size = ctx
            .rng()
            .range_u64(CREDIT_SIZE as u64, CREDIT_SIZE_MAX as u64) as u32;
        let mut p = ctx.make_pkt(PktKind::Credit, size);
        p.seq = self.credit_seq;
        p.ack = ctx.delivered_bytes();
        ctx.send(p);
    }

    fn arm(&mut self, ctx: &mut Ctx<'_>) {
        let base = self.gap(ctx);
        let spread = base.mul_f64(JITTER);
        let d = ctx.rng().jitter(base, spread);
        self.pace_slot.arm(ctx, timer::PACE, d);
    }
}

impl Endpoint for NaiveCreditReceiver {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx<'_>) {
        match pkt.kind {
            PktKind::Ctrl => match pkt.flag {
                ctrl::SYN | ctrl::CREDIT_REQUEST if !self.sending && !self.stopped => {
                    self.sending = true;
                    self.send_credit(ctx);
                    self.arm(ctx);
                }
                ctrl::CREDIT_STOP | ctrl::FIN => {
                    self.stopped = true;
                    self.sending = false;
                    self.pace_slot.cancel();
                }
                _ => {}
            },
            PktKind::Data => {
                let delivered = ctx.delivered_bytes();
                if pkt.seq == delivered {
                    ctx.deliver(pkt.payload as u64);
                } else if pkt.seq < delivered {
                    let end = pkt.seq + pkt.payload as u64;
                    if end > delivered {
                        ctx.deliver(end - delivered);
                    }
                }
                if ctx.flow_done() {
                    self.stopped = true;
                    self.sending = false;
                    self.pace_slot.cancel();
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, kind: u8, gen: u64, ctx: &mut Ctx<'_>) {
        if kind == timer::PACE && self.pace_slot.matches(gen) && self.sending && !self.stopped {
            self.send_credit(ctx);
            self.arm(ctx);
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn persist(&mut self, io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        io.u64(&mut self.credit_seq)?;
        self.pace_slot.persist(io)?;
        io.bool(&mut self.sending)?;
        io.bool(&mut self.stopped)
    }
}

/// Endpoint factory for the naïve credit scheme.
pub fn naive_credit_factory() -> EndpointFactory {
    Box::new(|side, _info| match side {
        Side::Sender => Box::new(XPassSender::new()),
        Side::Receiver => Box::new(NaiveCreditReceiver::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpass_net::config::{HostDelayModel, NetConfig};
    use xpass_net::ids::HostId;
    use xpass_net::network::Network;
    use xpass_net::topology::Topology;
    use xpass_sim::time::SimTime;

    const G10: u64 = 10_000_000_000;

    fn naive_net(topo: Topology, seed: u64) -> Network {
        let mut cfg = NetConfig::expresspass().with_seed(seed);
        cfg.host_delay = HostDelayModel {
            min: Dur::us(1),
            max: Dur::us(1),
        };
        Network::new(topo, cfg, naive_credit_factory())
    }

    /// The receiver box holds per-flow state only: its pacing jitter and
    /// size randomization are constants, not fields.
    #[test]
    fn receiver_box_holds_only_per_flow_state() {
        assert_eq!(std::mem::size_of::<NaiveCreditReceiver>(), 24);
    }

    #[test]
    fn converges_in_about_one_rtt_single_bottleneck() {
        // Fig 2(a): two flows, instant fair share. Flow 2 joins late; within
        // a few RTTs both serve ~half capacity.
        let mut net = naive_net(Topology::dumbbell(2, G10, Dur::us(5)), 71);
        net.set_sample_interval(Dur::us(25));
        let a = net.add_flow(HostId(0), HostId(2), 100_000_000, SimTime::ZERO);
        let b = net.add_flow(
            HostId(1),
            HostId(3),
            100_000_000,
            SimTime::ZERO + Dur::ms(1),
        );
        net.track_flow(a);
        net.track_flow(b);
        net.run_until(SimTime::ZERO + Dur::ms(2));
        // Average Gbps over the window 1.2ms–2.0ms (well after b joined).
        let avg = |f| {
            let s = net.flow_series(f).unwrap();
            let vals: Vec<f64> = s
                .samples
                .iter()
                .filter(|&&(t, _)| t >= SimTime::ZERO + Dur::us(1200))
                .map(|&(_, v)| v)
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        let (ra, rb) = (avg(a), avg(b));
        assert!((3.5..5.5).contains(&ra), "flow a at {ra} Gbps");
        assert!((3.5..5.5).contains(&rb), "flow b at {rb} Gbps");
    }

    #[test]
    fn zero_data_loss_under_incast() {
        let mut net = naive_net(Topology::star(17, G10, Dur::us(1)), 73);
        for i in 0..16u32 {
            net.add_flow(HostId(i), HostId(16), 300_000, SimTime::ZERO);
        }
        net.run_until_done(SimTime::ZERO + Dur::secs(1));
        assert_eq!(net.completed_count(), 16);
        assert_eq!(net.total_data_drops(), 0);
        // Naïve scheme floods credits: most are dropped.
        assert!(net.counters().credits_dropped > 1000);
    }

    #[test]
    fn parking_lot_underutilizes() {
        // Fig 10: with 2 bottlenecks the naïve scheme leaves Link 1's
        // reverse data path underutilized (83.3% in the paper's analysis).
        let mut net = naive_net(Topology::chain(3, 4, G10, Dur::us(1)), 75);
        // Flow 0: spans both inter-switch links; Flow 1: only the first.
        // Long-running flows measured over a window.
        net.add_flow(HostId(0), HostId(8), 1_000_000_000, SimTime::ZERO);
        net.add_flow(HostId(1), HostId(5), 1_000_000_000, SimTime::ZERO);
        net.run_until(SimTime::ZERO + Dur::ms(5));
        // Utilization of link sw0→sw1 (data direction for both flows).
        let topo = net.topo();
        let dl = topo
            .dlink_between(
                NodeId::Switch(xpass_net::ids::SwitchId(0)),
                NodeId::Switch(xpass_net::ids::SwitchId(1)),
            )
            .unwrap();
        let bytes = net.port(dl).tx_data_bytes;
        let util = bytes as f64 * 8.0 / (10e9 * 0.005);
        // Clearly below the ~95% a feedback scheme achieves, but nontrivial.
        assert!((0.55..0.93).contains(&util), "link1 utilization {util}");
    }

    use xpass_net::ids::NodeId;
}
