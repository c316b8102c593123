//! The shared reliable window transport.
//!
//! All window-based baselines (DCTCP, Reno, CUBIC, DX, HULL) and the
//! rate-based RCP share this machinery: packet sequencing, cumulative ACKs
//! with per-packet ECN echo, duplicate-ACK fast retransmit, RTO with
//! exponential backoff and go-back-N, RTT estimation, and optional pacing.
//! Each scheme supplies a [`CongestionControl`] policy that owns the
//! congestion window (and optionally a pacing rate).
//!
//! Sequencing is in MSS-sized packets (the last packet may be short), which
//! is how datacenter simulators (including the paper's ns-2 setup) model
//! these protocols.

use std::any::Any;
use xpass_net::endpoint::{Ctx, Deadline, Endpoint, EndpointFactory, TimerSlot};
use xpass_net::ids::Side;
use xpass_net::packet::{data_wire_size, flags, Packet, PktKind, ACK_SIZE, MSS};
use xpass_sim::time::{Dur, SimTime};

/// Information about one cumulative ACK, handed to the policy.
#[derive(Clone, Copy, Debug)]
pub struct AckEvent {
    /// Packets newly acknowledged by this ACK.
    pub newly_acked: u64,
    /// ECN-Echo flag (the receiver saw a CE mark on the acked packet).
    pub ece: bool,
    /// RTT sample from this ACK, if measurable.
    pub rtt: Option<Dur>,
    /// Total queuing delay the data packet experienced (DX feedback).
    pub qdelay: Dur,
    /// Explicit rate echoed by the receiver (RCP), bits/s.
    pub rate_bps: f64,
    /// Current time.
    pub now: SimTime,
    /// Lowest unacknowledged packet after this ACK.
    pub snd_una: u64,
    /// Next fresh packet index.
    pub snd_nxt: u64,
}

/// A congestion-control policy plugged into [`WindowSender`].
pub trait CongestionControl: Send + 'static {
    /// Current congestion window in packets, which the sender uses as
    /// is: each policy keeps its own at or above one packet.
    fn cwnd(&self) -> f64;
    /// A new cumulative ACK arrived.
    fn on_ack(&mut self, ev: &AckEvent);
    /// Triple-duplicate-ACK fast retransmit triggered.
    fn on_fast_retransmit(&mut self, now: SimTime);
    /// Retransmission timeout fired.
    fn on_timeout(&mut self);
    /// If `Some(bps)`, new transmissions are paced at this wire rate
    /// instead of being released back-to-back by ACK clocking.
    fn pacing_bps(&self) -> Option<f64> {
        None
    }

    /// Snapshot traversal of the policy's dynamic state. Policies whose
    /// behaviour depends only on construction parameters may leave the
    /// default (persists nothing).
    fn persist(&mut self, _io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        Ok(())
    }
}

/// Minimum retransmission timeout: the DCTCP paper's datacenter-tuned
/// 10 ms; timeout-driven incast tails depend on this (Fig 17).
const MIN_RTO: Dur = Dur::ms(10);
/// RTO cap.
const MAX_RTO: Dur = Dur::ms(320);
/// Initial RTO before any RTT sample.
const INIT_RTO: Dur = Dur::ms(10);
/// Duplicate-ACK threshold for fast retransmit.
const DUPACK_THRESH: u32 = 3;

mod timer {
    pub const RTO: u8 = 10;
    pub const PACE: u8 = 11;
    pub const SYN_RTX: u8 = 12;
}

/// Sender half of the window transport.
pub struct WindowSender<C: CongestionControl> {
    cc: C,
    /// Total packets this flow must transfer.
    n_pkts: u64,
    /// Payload bytes of the final packet.
    last_payload: u32,
    snd_una: u64,
    snd_nxt: u64,
    dup_acks: u32,
    /// NewReno-style recovery high-water mark.
    recover: u64,
    in_recovery: bool,
    srtt: Option<Dur>,
    rttvar: Dur,
    rto_backoff: u32,
    /// Re-armed by every new ACK while pending: carried, not re-pushed.
    rto_slot: Deadline,
    pace_slot: TimerSlot,
    syn_slot: TimerSlot,
    established: bool,
    /// Retransmitted packet count (statistics).
    pub retransmits: u64,
    done: bool,
}

impl<C: CongestionControl> WindowSender<C> {
    /// New sender with the given policy.
    pub fn new(cc: C) -> WindowSender<C> {
        WindowSender {
            cc,
            n_pkts: 0,
            last_payload: MSS,
            snd_una: 0,
            snd_nxt: 0,
            dup_acks: 0,
            recover: 0,
            in_recovery: false,
            srtt: None,
            rttvar: Dur::ZERO,
            rto_backoff: 0,
            rto_slot: Deadline::new(),
            pace_slot: TimerSlot::new(),
            syn_slot: TimerSlot::new(),
            established: false,
            retransmits: 0,
            done: false,
        }
    }

    fn send_syn(&mut self, ctx: &mut Ctx<'_>) {
        let mut p = ctx.make_pkt(PktKind::Ctrl, xpass_net::packet::CTRL_SIZE);
        p.flag = xpass_net::packet::ctrl::SYN;
        ctx.send(p);
        self.syn_slot.arm(ctx, timer::SYN_RTX, INIT_RTO);
    }

    /// Access the policy (for oracle-style control and inspection).
    pub fn cc(&mut self) -> &mut C {
        &mut self.cc
    }

    /// The retransmission deadline (inspection: armed? carried?).
    pub fn rto_deadline(&self) -> &Deadline {
        &self.rto_slot
    }

    /// Smoothed RTT, once measured.
    pub fn srtt(&self) -> Option<Dur> {
        self.srtt
    }

    /// Re-evaluate sending immediately (used after an external rate change,
    /// e.g. by the ideal-rate oracle): re-arms the pacer without waiting
    /// for the previously scheduled gap.
    pub fn kick(&mut self, ctx: &mut Ctx<'_>) {
        if !self.done && self.can_send_new() {
            match self.cc.pacing_bps() {
                Some(_) => self.pace_slot.arm(ctx, timer::PACE, Dur::ZERO),
                None => self.try_send(ctx),
            }
        }
    }

    fn inflight(&self) -> u64 {
        self.snd_nxt.saturating_sub(self.snd_una)
    }

    fn payload_of(&self, idx: u64) -> u32 {
        if idx + 1 == self.n_pkts {
            self.last_payload
        } else {
            MSS
        }
    }

    fn transmit(&mut self, ctx: &mut Ctx<'_>, idx: u64, is_retx: bool) {
        let payload = self.payload_of(idx);
        let mut p = ctx.make_pkt(PktKind::Data, data_wire_size(payload));
        p.payload = payload;
        p.seq = idx;
        if let Some(s) = self.srtt {
            p.rtt_est = s;
        }
        if idx + 1 == self.n_pkts {
            p.flag |= flags::FIN_DATA;
        }
        if is_retx {
            self.retransmits += 1;
            // RTT samples from retransmissions are ambiguous (Karn): mark by
            // zeroing the timestamp the receiver will echo.
            p.t_sent = SimTime::ZERO;
        }
        ctx.send(p);
    }

    fn rto(&self) -> Dur {
        let base = match self.srtt {
            Some(s) => (s + self.rttvar * 4).max(MIN_RTO),
            None => INIT_RTO,
        };
        let backed = base * (1u64 << self.rto_backoff.min(6));
        backed.min(MAX_RTO)
    }

    fn arm_rto(&mut self, ctx: &mut Ctx<'_>) {
        let d = self.rto();
        self.rto_slot.arm(ctx, timer::RTO, d);
    }

    /// Release as many new packets as window (and pacing) allow.
    fn try_send(&mut self, ctx: &mut Ctx<'_>) {
        if self.done {
            return;
        }
        match self.cc.pacing_bps() {
            Some(_) => {
                // Paced: the pace timer releases packets one at a time.
                if !self.pace_slot.is_armed() && self.can_send_new() {
                    self.pace_slot.arm(ctx, timer::PACE, Dur::ZERO);
                }
            }
            None => {
                while self.can_send_new() {
                    let idx = self.snd_nxt;
                    self.snd_nxt += 1;
                    self.transmit(ctx, idx, false);
                }
            }
        }
    }

    fn can_send_new(&self) -> bool {
        self.snd_nxt < self.n_pkts && (self.inflight() as f64) < self.cc.cwnd()
    }

    fn on_pace_fire(&mut self, ctx: &mut Ctx<'_>) {
        if self.done || !self.can_send_new() {
            return;
        }
        let idx = self.snd_nxt;
        self.snd_nxt += 1;
        self.transmit(ctx, idx, false);
        if self.can_send_new() {
            let bps = self.cc.pacing_bps().unwrap_or(0.0);
            let gap = if bps > 0.0 {
                Dur::from_secs_f64((self.payload_of(self.snd_nxt) as f64 + 78.0) * 8.0 / bps)
            } else {
                Dur::ZERO
            };
            self.pace_slot.arm(ctx, timer::PACE, gap);
        }
    }

    fn on_ack_pkt(&mut self, pkt: &Packet, ctx: &mut Ctx<'_>) {
        if self.done {
            return;
        }
        let ack = pkt.ack;
        if ack > self.snd_una {
            let newly = ack - self.snd_una;
            self.snd_una = ack;
            // After a go-back-N rewind, a late ACK for the original
            // transmissions can move snd_una past the rewound snd_nxt.
            self.snd_nxt = self.snd_nxt.max(self.snd_una);
            self.dup_acks = 0;
            self.rto_backoff = 0;
            // RTT sample (skip retransmission echoes).
            let rtt = if pkt.t_echo > SimTime::ZERO {
                let sample = ctx.now().since(pkt.t_echo);
                self.update_rtt(sample);
                Some(sample)
            } else {
                None
            };
            if self.in_recovery && ack >= self.recover {
                self.in_recovery = false;
            } else if self.in_recovery {
                // Partial ACK: retransmit the next hole immediately.
                let idx = self.snd_una;
                self.transmit(ctx, idx, true);
            }
            let ev = AckEvent {
                newly_acked: newly,
                ece: pkt.flag & flags::ECE != 0,
                rtt,
                qdelay: pkt.qdelay,
                rate_bps: pkt.rate,
                now: ctx.now(),
                snd_una: self.snd_una,
                snd_nxt: self.snd_nxt,
            };
            self.cc.on_ack(&ev);
            if self.snd_una >= self.n_pkts {
                self.done = true;
                self.rto_slot.cancel();
                self.pace_slot.cancel();
                return;
            }
            self.arm_rto(ctx);
            self.try_send(ctx);
        } else {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks == DUPACK_THRESH && !self.in_recovery {
                self.in_recovery = true;
                self.recover = self.snd_nxt;
                self.cc.on_fast_retransmit(ctx.now());
                let idx = self.snd_una;
                self.transmit(ctx, idx, true);
                self.arm_rto(ctx);
            } else if self.in_recovery {
                // Window inflation substitute: allow sends as cwnd permits.
                self.try_send(ctx);
            }
        }
    }

    fn on_rto(&mut self, ctx: &mut Ctx<'_>) {
        if self.done || self.snd_una >= self.n_pkts {
            return;
        }
        self.cc.on_timeout();
        self.in_recovery = false;
        self.dup_acks = 0;
        self.rto_backoff += 1;
        // Go-back-N: rewind and resend the head.
        self.snd_nxt = self.snd_una + 1;
        let idx = self.snd_una;
        self.transmit(ctx, idx, true);
        self.arm_rto(ctx);
    }

    fn update_rtt(&mut self, sample: Dur) {
        match self.srtt {
            Some(s) => {
                let diff = if s > sample { s - sample } else { sample - s };
                self.rttvar = self.rttvar.mul_f64(0.75) + diff.mul_f64(0.25);
                self.srtt = Some(s.mul_f64(0.875) + sample.mul_f64(0.125));
            }
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
        }
    }
}

impl<C: CongestionControl> Endpoint for WindowSender<C> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let size = ctx.info().size_bytes;
        self.n_pkts = size.div_ceil(MSS as u64).max(1);
        let rem = (size % MSS as u64) as u32;
        self.last_payload = if rem == 0 && size > 0 {
            MSS
        } else {
            rem.max(1)
        };
        // Three-way handshake: data flows after the SYN-ACK (the paper's
        // ExpressPass likewise starts credits after its handshake).
        self.send_syn(ctx);
    }

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx<'_>) {
        match pkt.kind {
            PktKind::Ack => self.on_ack_pkt(pkt, ctx),
            PktKind::Ctrl if pkt.flag == xpass_net::packet::ctrl::SYN && !self.established => {
                // SYN-ACK (receiver echoes the SYN flag).
                self.established = true;
                self.syn_slot.cancel();
                self.arm_rto(ctx);
                self.try_send(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, kind: u8, gen: u64, ctx: &mut Ctx<'_>) {
        match kind {
            timer::RTO if self.rto_slot.fired(ctx, timer::RTO, gen) => self.on_rto(ctx),
            timer::PACE if self.pace_slot.matches(gen) => self.on_pace_fire(ctx),
            timer::SYN_RTX if self.syn_slot.matches(gen) && !self.established => {
                self.send_syn(ctx);
            }
            _ => {}
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn persist(&mut self, io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        io.u64(&mut self.n_pkts)?;
        io.u32(&mut self.last_payload)?;
        io.u64(&mut self.snd_una)?;
        io.u64(&mut self.snd_nxt)?;
        io.u32(&mut self.dup_acks)?;
        io.u64(&mut self.recover)?;
        io.bool(&mut self.in_recovery)?;
        io.opt(&mut self.srtt, |io, d| io.u64(&mut d.0))?;
        io.u64(&mut self.rttvar.0)?;
        io.u32(&mut self.rto_backoff)?;
        self.rto_slot.persist(io)?;
        self.pace_slot.persist(io)?;
        self.syn_slot.persist(io)?;
        io.bool(&mut self.established)?;
        io.u64(&mut self.retransmits)?;
        io.bool(&mut self.done)?;
        self.cc.persist(io)
    }
}

/// Receiver half: per-packet cumulative ACKs with ECN echo, duplicate
/// suppression, and delivery accounting.
pub struct WindowReceiver {
    rcv_next: u64,
    /// Out-of-order packets already received (sparse, short-lived).
    ooo: std::collections::BTreeSet<u64>,
}

impl WindowReceiver {
    /// New receiver.
    pub fn new() -> WindowReceiver {
        WindowReceiver {
            rcv_next: 0,
            ooo: std::collections::BTreeSet::new(),
        }
    }
}

impl Default for WindowReceiver {
    fn default() -> Self {
        Self::new()
    }
}

impl Endpoint for WindowReceiver {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx<'_>) {
        if pkt.kind == PktKind::Ctrl && pkt.flag == xpass_net::packet::ctrl::SYN {
            let mut p = ctx.make_pkt(PktKind::Ctrl, xpass_net::packet::CTRL_SIZE);
            p.flag = xpass_net::packet::ctrl::SYN; // SYN-ACK
            ctx.send(p);
            return;
        }
        if pkt.kind != PktKind::Data {
            return;
        }
        let seq = pkt.seq;
        let is_new = if seq == self.rcv_next {
            self.rcv_next += 1;
            while self.ooo.remove(&self.rcv_next) {
                self.rcv_next += 1;
            }
            true
        } else if seq > self.rcv_next {
            self.ooo.insert(seq)
        } else {
            false
        };
        if is_new {
            // Bytes counted on first receipt; completion requires all bytes,
            // which (with cumulative byte totals per packet) equals all
            // packets received at least once.
            ctx.deliver(pkt.payload as u64);
        }
        let mut ack = ctx.make_pkt(PktKind::Ack, ACK_SIZE);
        ack.ack = self.rcv_next;
        ack.t_echo = pkt.t_sent;
        ack.qdelay = pkt.qdelay;
        ack.rate = pkt.rate;
        if pkt.ecn {
            ack.flag |= flags::ECE;
        }
        ctx.send(ack);
    }

    fn on_timer(&mut self, _kind: u8, _gen: u64, _ctx: &mut Ctx<'_>) {}

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn persist(&mut self, io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        io.u64(&mut self.rcv_next)?;
        let mut ooo: Vec<u64> = self.ooo.iter().copied().collect();
        io.seq(&mut ooo, 8, |io, seq| io.u64(seq))?;
        if io.reading() {
            self.ooo = ooo.into_iter().collect();
        }
        Ok(())
    }
}

/// Factory for a window protocol with policy constructor `mk`.
pub fn window_factory<C: CongestionControl>(mk: impl Fn() -> C + 'static) -> EndpointFactory {
    Box::new(move |side, _info| match side {
        Side::Sender => Box::new(WindowSender::new(mk())),
        Side::Receiver => Box::new(WindowReceiver::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpass_net::config::{HostDelayModel, NetConfig};
    use xpass_net::ids::HostId;
    use xpass_net::network::Network;
    use xpass_net::topology::Topology;

    const G10: u64 = 10_000_000_000;

    /// Fixed-window policy for exercising the transport machinery alone.
    struct FixedWindow {
        w: f64,
        fast_retx: u32,
        timeouts: u32,
    }

    impl FixedWindow {
        fn new(w: f64) -> FixedWindow {
            FixedWindow {
                w,
                fast_retx: 0,
                timeouts: 0,
            }
        }
    }

    impl CongestionControl for FixedWindow {
        fn cwnd(&self) -> f64 {
            self.w
        }
        fn on_ack(&mut self, _ev: &AckEvent) {}
        fn on_fast_retransmit(&mut self, _now: SimTime) {
            self.fast_retx += 1;
        }
        fn on_timeout(&mut self) {
            self.timeouts += 1;
        }
    }

    fn net_with_window(w: f64, seed: u64) -> Network {
        let mut cfg = NetConfig::default().with_seed(seed);
        cfg.host_delay = HostDelayModel {
            min: Dur::us(1),
            max: Dur::us(1),
        };
        Network::new(
            Topology::dumbbell(2, G10, Dur::us(1)),
            cfg,
            window_factory(move || FixedWindow::new(w)),
        )
    }

    #[test]
    fn transfers_complete_and_bytes_exact() {
        let mut net = net_with_window(16.0, 1);
        let f = net.add_flow(HostId(0), HostId(2), 1_000_000, SimTime::ZERO);
        net.run_until_done(SimTime::ZERO + Dur::ms(100));
        assert!(net.flow_done(f));
        assert_eq!(net.delivered_bytes(f), 1_000_000);
    }

    #[test]
    fn single_packet_flow() {
        let mut net = net_with_window(10.0, 2);
        let f = net.add_flow(HostId(0), HostId(2), 200, SimTime::ZERO);
        net.run_until_done(SimTime::ZERO + Dur::ms(10));
        assert!(net.flow_done(f));
        assert_eq!(net.delivered_bytes(f), 200);
    }

    #[test]
    fn exact_mss_multiple() {
        let mut net = net_with_window(10.0, 3);
        let size = (MSS as u64) * 7;
        let f = net.add_flow(HostId(0), HostId(2), size, SimTime::ZERO);
        net.run_until_done(SimTime::ZERO + Dur::ms(10));
        assert!(net.flow_done(f));
        assert_eq!(net.delivered_bytes(f), size);
    }

    #[test]
    fn throughput_matches_window_over_rtt() {
        // One flow, fixed window 8, RTT ≈ 12us → rate ≈ 8×1460B/12us.
        let mut net = net_with_window(8.0, 4);
        let size = 5_000_000u64;
        let f = net.add_flow(HostId(0), HostId(2), size, SimTime::ZERO);
        let done = net.run_until_done(SimTime::ZERO + Dur::secs(1));
        assert!(net.flow_done(f));
        let gbps = size as f64 * 8.0 / done.as_secs_f64() / 1e9;
        // Window-limited: well under line rate but substantial.
        assert!(gbps > 2.0 && gbps < 9.6, "{gbps}");
    }

    #[test]
    fn recovers_from_heavy_loss() {
        // Tiny switch buffers + big window force drops; the transport must
        // still complete the transfer via fast retransmit / RTO.
        let mut cfg = NetConfig::default().with_seed(5);
        cfg.switch_queue_bytes = 5 * 1538;
        cfg.host_delay = HostDelayModel {
            min: Dur::us(1),
            max: Dur::us(1),
        };
        let mut net = Network::new(
            Topology::dumbbell(4, G10, Dur::us(1)),
            cfg,
            window_factory(|| FixedWindow::new(64.0)),
        );
        for i in 0..4u32 {
            net.add_flow(HostId(i), HostId(4 + i), 400_000, SimTime::ZERO);
        }
        net.run_until_done(SimTime::ZERO + Dur::secs(2));
        assert_eq!(net.completed_count(), 4);
        assert!(net.total_data_drops() > 0, "test meant to induce loss");
    }

    #[test]
    fn no_spurious_retransmits_without_loss() {
        let mut net = net_with_window(8.0, 6);
        let f = net.add_flow(HostId(0), HostId(2), 2_000_000, SimTime::ZERO);
        net.run_until_done(SimTime::ZERO + Dur::ms(200));
        assert!(net.flow_done(f));
        assert_eq!(net.total_data_drops(), 0);
        let mut retx = 0;
        net.poke(f, Side::Sender, |ep, _| {
            retx = ep
                .as_any()
                .downcast_mut::<WindowSender<FixedWindow>>()
                .unwrap()
                .retransmits;
        });
        assert_eq!(retx, 0);
    }

    #[test]
    fn rtt_estimate_sane() {
        let mut net = net_with_window(4.0, 7);
        let f = net.add_flow(HostId(0), HostId(2), 1_000_000, SimTime::ZERO);
        net.run_until_done(SimTime::ZERO + Dur::ms(100));
        let mut srtt = None;
        net.poke(f, Side::Sender, |ep, _| {
            srtt = ep
                .as_any()
                .downcast_mut::<WindowSender<FixedWindow>>()
                .unwrap()
                .srtt();
        });
        let s = srtt.expect("srtt measured");
        // 3 hops, 1us prop links, 1us host delay: base ≈ 10-20us.
        assert!(s > Dur::us(5) && s < Dur::us(60), "{s}");
    }

    #[test]
    fn paced_policy_completes() {
        struct Paced;
        impl CongestionControl for Paced {
            fn cwnd(&self) -> f64 {
                1000.0
            }
            fn on_ack(&mut self, _ev: &AckEvent) {}
            fn on_fast_retransmit(&mut self, _now: SimTime) {}
            fn on_timeout(&mut self) {}
            fn pacing_bps(&self) -> Option<f64> {
                Some(2e9)
            }
        }
        let mut cfg = NetConfig::default().with_seed(8);
        cfg.host_delay = HostDelayModel {
            min: Dur::us(1),
            max: Dur::us(1),
        };
        let mut net = Network::new(
            Topology::dumbbell(1, G10, Dur::us(1)),
            cfg,
            window_factory(|| Paced),
        );
        let size = 2_500_000u64;
        let f = net.add_flow(HostId(0), HostId(1), size, SimTime::ZERO);
        let done = net.run_until_done(SimTime::ZERO + Dur::ms(100));
        assert!(net.flow_done(f));
        // 2.5MB at 2Gbps wire ≈ 10.5ms; must be pace-limited, not line-rate.
        let secs = done.as_secs_f64();
        assert!(secs > 0.008 && secs < 0.020, "{secs}");
    }

    #[test]
    fn rto_is_carried_by_one_queued_event() {
        // 2 MB at window 8 is ~1 370 ACKs, each re-arming the 10 ms RTO:
        // one carrier event serves them all.
        let mut net = net_with_window(8.0, 9);
        let f = net.add_flow(HostId(0), HostId(2), 2_000_000, SimTime::ZERO);
        net.run_until_done(SimTime::ZERO + Dur::ms(200));
        assert!(net.flow_done(f));
        net.run_until(SimTime::ZERO + Dur::ms(400));
        let report = net.engine_report();
        let timers = report.events_by_kind.iter().find(|(k, _)| *k == "timer");
        let (_, timers) = timers.unwrap();
        assert!(
            *timers <= 4,
            "{timers} timer events for one SYN and one RTO"
        );
        assert!(report.peak_queue_len < 64, "{}", report.peak_queue_len);
    }

    #[test]
    fn rto_window_config_bounds() {
        const { assert!(MIN_RTO.0 <= INIT_RTO.0 && INIT_RTO.0 <= MAX_RTO.0) };
        const { assert!(DUPACK_THRESH >= 1) };
    }
}
