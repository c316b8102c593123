//! The ExpressPass sender and receiver state machines (paper Fig 7) as
//! `xpass-net` endpoints.
//!
//! Roles:
//!
//! * **Sender** (at the flow source): opens with a SYN carrying the credit
//!   request; transmits exactly one data frame per arriving credit, echoing
//!   the credit's sequence number and timestamp; retransmits (go-back-N from
//!   the receiver's cumulative delivered count, carried in credits) only on
//!   triple-duplicate evidence; emits CREDIT_STOP after an idle timeout.
//! * **Receiver** (at the flow destination): on the credit request, starts
//!   pacing credits at the feedback-controlled rate with per-credit jitter
//!   and randomized 84–92 B sizes; measures credit loss from gaps in echoed
//!   credit sequence numbers; runs Algorithm 1 once per measured RTT.
//!
//! Reliability note: ExpressPass is engineered for zero data loss, so there
//! is no ack clock. The receiver advertises its cumulative delivered byte
//! count in every credit; if data is ever lost (undersized switch buffers),
//! the sender detects three credits with the same stalled count and rewinds.

use crate::config::XPassConfig;
use crate::feedback::{max_credit_rate, CreditFeedback, TARGET_LOSS};
use std::any::Any;
use std::rc::Rc;
use xpass_net::endpoint::{Ctx, Endpoint, EndpointFactory, TimerSlot};
use xpass_net::ids::Side;
use xpass_net::packet::{
    ctrl, data_wire_size, flags, Packet, PktKind, CREDIT_SIZE, CREDIT_SIZE_MAX, CTRL_SIZE, MSS,
};
use xpass_sim::time::{Dur, SimTime};
use xpass_sim::trace::TraceEvent;

/// Update period to use before the first RTT measurement.
const INIT_UPDATE_PERIOD: Dur = Dur::us(100);
/// Idle time after the last data send before the sender emits
/// CREDIT_STOP (Fig 7's "no data for timeout").
const STOP_TIMEOUT: Dur = Dur::us(200);
/// Maximum number of SYN (credit-request) transmissions before the
/// sender aborts the flow. The first transmission counts, so `1` means
/// no retries. Retries back off exponentially from
/// `INIT_UPDATE_PERIOD · 10` up to [`SYN_RTX_CAP`].
const SYN_RTX_MAX: u32 = 8;
/// Ceiling on the exponential SYN retransmission backoff.
const SYN_RTX_CAP: Dur = Dur::ms(10);
/// Receiver-side stall detector: with crediting active and no data
/// progress for this long, the flow is flagged
/// [`Stalled`](xpass_net::network::FlowOutcome::Stalled) on its record
/// (cleared on the next progress). Checked at update-period granularity,
/// so values below the RTT degenerate to one RTT.
const STALL_TIMEOUT: Dur = Dur::ms(5);

/// Timer kinds used by the ExpressPass endpoints.
mod timer {
    /// Receiver: send the next credit.
    pub const PACE: u8 = 1;
    /// Receiver: run the feedback update.
    pub const UPDATE: u8 = 2;
    /// Sender: idle timeout → CREDIT_STOP.
    pub const STOP: u8 = 3;
    /// Sender: SYN retransmission safety timer.
    pub const SYN_RTX: u8 = 4;
}

// --------------------------------------------------------------------------
// Sender
// --------------------------------------------------------------------------

/// ExpressPass sender endpoint. It reads no [`XPassConfig`] field: its
/// timers are the module's constants.
#[derive(Default)]
pub struct XPassSender {
    /// Next application byte offset to transmit.
    next_seq: u64,

    /// Duplicate-delivered-count evidence for loss recovery.
    last_ack: u64,
    dup_count: u32,
    stop_slot: TimerSlot,
    syn_slot: TimerSlot,
    /// SYN transmissions so far (first send included).
    syn_attempts: u32,
    /// Set once CREDIT_STOP has been sent.
    stopped: bool,
}

impl XPassSender {
    /// New sender.
    pub fn new() -> XPassSender {
        XPassSender::default()
    }

    /// SYN transmissions so far.
    pub fn syn_attempts(&self) -> u32 {
        self.syn_attempts
    }

    fn send_syn(&mut self, ctx: &mut Ctx<'_>) {
        self.syn_attempts += 1;
        let mut p = ctx.make_pkt(PktKind::Ctrl, CTRL_SIZE);
        p.flag = ctrl::SYN;
        ctx.send(p);
        // Safety retransmit in case the SYN (or every early credit) is lost:
        // exponential backoff from the initial interval, capped so a healed
        // path is re-probed promptly after long outages.
        let base = INIT_UPDATE_PERIOD * 10;
        let shift = (self.syn_attempts - 1).min(16);
        let mut backoff = base * (1u64 << shift);
        if backoff > SYN_RTX_CAP {
            backoff = SYN_RTX_CAP;
        }
        self.syn_slot.arm(ctx, timer::SYN_RTX, backoff);
    }

    fn on_credit(&mut self, credit: &Packet, ctx: &mut Ctx<'_>) {
        // First credit proves the SYN arrived.
        self.syn_slot.cancel();
        let size = ctx.info().size_bytes;
        let delivered = credit.ack;

        if delivered >= size {
            // Receiver already has everything: pure waste.
            ctx.count_wasted_credit();
            return;
        }
        if delivered == self.last_ack {
            self.dup_count += 1;
        } else {
            self.last_ack = delivered;
            self.dup_count = 1;
        }
        if self.next_seq >= size {
            // Everything sent once; retransmit only on stall evidence.
            if self.dup_count >= 3 {
                self.next_seq = delivered; // go-back-N rewind
                self.dup_count = 0;
            } else {
                ctx.count_wasted_credit();
                return;
            }
        } else if self.dup_count >= 64 && self.next_seq > delivered {
            // Mid-flow hole: the receiver's cumulative count has not moved
            // for 64 credits (far beyond any reordering horizon) while we
            // kept sending — a data packet was lost. Go-back-N.
            self.next_seq = delivered;
            self.dup_count = 0;
        }

        let payload = MSS.min((size - self.next_seq) as u32);
        let mut p = ctx.make_pkt(PktKind::Data, data_wire_size(payload));
        p.payload = payload;
        p.seq = self.next_seq;
        p.ack = credit.seq; // echo credit sequence for loss accounting
        p.t_echo = credit.t_sent; // credit-loop RTT sample
        self.next_seq += payload as u64;
        if self.next_seq >= size {
            p.flag |= flags::FIN_DATA;
            self.stop_slot.arm(ctx, timer::STOP, STOP_TIMEOUT);
        }
        ctx.send(p);
    }

    fn send_credit_stop(&mut self, ctx: &mut Ctx<'_>) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        let mut p = ctx.make_pkt(PktKind::Ctrl, CTRL_SIZE);
        p.flag = ctrl::CREDIT_STOP;
        ctx.send(p);
    }
}

impl Endpoint for XPassSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.send_syn(ctx);
    }

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx<'_>) {
        if pkt.kind == PktKind::Credit && !self.stopped {
            self.on_credit(pkt, ctx);
        }
    }

    fn on_timer(&mut self, kind: u8, gen: u64, ctx: &mut Ctx<'_>) {
        match kind {
            timer::STOP if self.stop_slot.matches(gen) => {
                if ctx.flow_done() {
                    // Idle and delivered: tell the receiver to stop.
                    self.send_credit_stop(ctx);
                } else {
                    // Data still missing (lost packets): keep the flow
                    // alive so arriving credits can trigger the rewind.
                    self.stop_slot.arm(ctx, timer::STOP, STOP_TIMEOUT);
                }
            }
            timer::SYN_RTX if self.syn_slot.matches(gen) => {
                if self.stopped || ctx.flow_done() || ctx.flow_aborted() {
                    // Settled while the timer was in flight; nothing to do.
                } else if ctx.local_paused() || ctx.peer_paused() {
                    // A HostPause fault is deliberately freezing one of our
                    // hosts: unreachability is injected, not a dead peer.
                    // Keep the flow alive (without burning attempts) and
                    // re-probe after the pause lifts.
                    self.syn_slot.arm(ctx, timer::SYN_RTX, SYN_RTX_CAP);
                } else if self.syn_attempts >= SYN_RTX_MAX {
                    // Connection establishment failed: the receiver is
                    // unreachable (blackholed path, dead host). Give up so
                    // the run can settle instead of retrying forever.
                    ctx.abort_flow();
                } else {
                    self.send_syn(ctx);
                }
            }
            _ => {}
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn persist(&mut self, io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        io.u64(&mut self.next_seq)?;
        io.u64(&mut self.last_ack)?;
        io.u32(&mut self.dup_count)?;
        self.stop_slot.persist(io)?;
        self.syn_slot.persist(io)?;
        io.u32(&mut self.syn_attempts)?;
        io.bool(&mut self.stopped)
    }
}

// --------------------------------------------------------------------------
// Receiver
// --------------------------------------------------------------------------

/// ExpressPass receiver endpoint: the active party of the protocol.
pub struct XPassReceiver {
    /// Shared with the feedback controller, once there is one.
    cfg: Rc<XPassConfig>,
    feedback: Option<CreditFeedback>,
    /// Out-of-order reassembly buffer: byte offset → payload length.
    /// Host processing jitter reorders packets when it exceeds the
    /// serialization gap (routine at 100 G).
    ooo: std::collections::BTreeMap<u64, u32>,
    /// Next credit sequence number (1-based; 0 means none sent).
    credit_seq: u64,
    /// Highest credit sequence echoed by data so far.
    last_echo: u64,
    /// Per-update-period counters.
    period_recv: u64,
    period_lost: u64,
    period_sent: u64,
    /// Consecutive update periods with credits sent but nothing echoed.
    silent_periods: u32,
    /// Smoothed credit-loop RTT.
    srtt: Option<Dur>,
    pace_slot: TimerSlot,
    update_slot: TimerSlot,
    sending: bool,
    stopped: bool,
    /// §7 early-stop: pacing paused because the credits already in flight
    /// should cover the rest of the flow; the update watchdog resumes
    /// pacing if they turn out not to.
    paused: bool,
    /// Delivered-byte count at the previous update (watchdog progress check).
    delivered_at_update: u64,
    /// Time of the last forward delivery progress (stall detector).
    last_progress: SimTime,
    /// Whether the flow is currently flagged as stalled on its record.
    stall_flagged: bool,
}

impl XPassReceiver {
    /// New receiver, with its own configuration or one shared through an
    /// `Rc` (as [`xpass_factory`] shares one with every endpoint it makes).
    pub fn new(cfg: impl Into<Rc<XPassConfig>>) -> XPassReceiver {
        XPassReceiver {
            cfg: cfg.into(),
            feedback: None,
            ooo: std::collections::BTreeMap::new(),
            credit_seq: 0,
            last_echo: 0,
            period_recv: 0,
            period_lost: 0,
            period_sent: 0,
            silent_periods: 0,
            srtt: None,
            pace_slot: TimerSlot::new(),
            update_slot: TimerSlot::new(),
            sending: false,
            stopped: false,
            paused: false,
            delivered_at_update: 0,
            last_progress: SimTime::ZERO,
            stall_flagged: false,
        }
    }

    /// §7 preemptive stop: pause pacing once the expected survivors of the
    /// credits in flight cover the remaining bytes. Uses the flow size the
    /// simulator gives both endpoints (standing in for the send-buffer
    /// advertisement of [1] the paper cites).
    fn maybe_early_stop(&mut self, ctx: &Ctx<'_>) {
        if !self.cfg.early_credit_stop || self.paused || self.stopped {
            return;
        }
        let size = ctx.info().size_bytes;
        let delivered = ctx.delivered_bytes();
        if delivered >= size {
            return;
        }
        let in_flight = self.credit_seq.saturating_sub(self.last_echo);
        let expected_survivors = (in_flight as f64 * (1.0 - TARGET_LOSS)) as u64;
        let remaining = (size - delivered).div_ceil(MSS as u64);
        if expected_survivors >= remaining {
            self.paused = true;
            self.pace_slot.cancel();
        }
    }

    /// Current credit sending rate in credits/s (0 before start).
    pub fn credit_rate(&self) -> f64 {
        self.feedback.as_ref().map_or(0.0, |f| f.rate())
    }

    /// Smoothed credit-loop RTT, once measured.
    pub fn srtt(&self) -> Option<Dur> {
        self.srtt
    }

    fn start_crediting(&mut self, ctx: &mut Ctx<'_>) {
        if self.sending || self.stopped {
            return;
        }
        self.sending = true;
        self.last_progress = ctx.now();
        if self.feedback.is_none() {
            let max = max_credit_rate(ctx.host_link_bps());
            self.feedback = Some(CreditFeedback::new(max, self.cfg.clone()));
        }
        // First credit immediately, then paced.
        self.send_credit(ctx);
        self.arm_pace(ctx);
        let period = self.update_period();
        self.update_slot.arm(ctx, timer::UPDATE, period);
    }

    fn stop_crediting(&mut self) {
        self.stopped = true;
        self.sending = false;
        self.pace_slot.cancel();
        self.update_slot.cancel();
    }

    /// The feedback update period: the measured RTT (the paper's default),
    /// identical for every flow regardless of its rate. Cadence uniformity
    /// is essential for fairness: if throttled flows measured over longer
    /// windows they would average across the aggregate's oscillation and
    /// never observe the under-utilized phases faster flows exploit.
    fn update_period(&self) -> Dur {
        let rtt = self.srtt.unwrap_or(INIT_UPDATE_PERIOD);
        rtt.clamp(Dur::us(20), Dur::ms(2))
    }

    fn send_credit(&mut self, ctx: &mut Ctx<'_>) {
        self.credit_seq += 1;
        self.period_sent += 1;
        let size = if self.cfg.randomize_credit_size {
            ctx.rng()
                .range_u64(CREDIT_SIZE as u64, CREDIT_SIZE_MAX as u64) as u32
        } else {
            CREDIT_SIZE
        };
        let mut p = ctx.make_pkt(PktKind::Credit, size);
        p.seq = self.credit_seq;
        p.ack = ctx.delivered_bytes(); // cumulative delivered advertisement
        ctx.send(p);
    }

    fn arm_pace(&mut self, ctx: &mut Ctx<'_>) {
        let fb = self.feedback.as_ref().expect("feedback exists when pacing");
        let rate = fb.rate().max(1.0);
        let base = Dur::from_secs_f64(1.0 / rate);
        // Jitter relative to the current inter-credit gap (Fig 6a's j).
        let spread = base.mul_f64(self.cfg.jitter);
        let delay = ctx.rng().jitter(base, spread);
        self.pace_slot.arm(ctx, timer::PACE, delay);
    }

    fn on_data(&mut self, pkt: &Packet, ctx: &mut Ctx<'_>) {
        // Credit-loss accounting from the echoed credit sequence. Credits and
        // data follow symmetric FIFO paths, so echoes arrive in order.
        if pkt.ack > self.last_echo {
            self.period_lost += pkt.ack - self.last_echo - 1;
            self.period_recv += 1;
            self.last_echo = pkt.ack;
        } else {
            // Late echo of a credit already counted as a gap loss: credits
            // reorder when per-packet host processing delays vary (§2's
            // jitter model). Reclassify one loss as a receipt.
            self.period_recv += 1;
            self.period_lost = self.period_lost.saturating_sub(1);
        }
        // Credit-loop RTT sample.
        let rtt = ctx.now().since(pkt.t_echo);
        if pkt.t_echo > SimTime::ZERO && !rtt.is_zero() {
            self.srtt = Some(match self.srtt {
                Some(s) => s.mul_f64(0.875) + rtt.mul_f64(0.125),
                None => rtt,
            });
        }
        // In-order delivery with reassembly of reordered packets and
        // duplicate suppression (retransmissions may resend delivered bytes).
        let delivered = ctx.delivered_bytes();
        if pkt.seq > delivered {
            self.ooo.insert(pkt.seq, pkt.payload);
        } else {
            let end = pkt.seq + pkt.payload as u64;
            if end > delivered {
                ctx.deliver(end - delivered);
            }
            // Drain whatever became contiguous.
            loop {
                let head = ctx.delivered_bytes();
                let Some((&seq, &len)) = self.ooo.range(..=head).next() else {
                    break;
                };
                self.ooo.remove(&seq);
                let end = seq + len as u64;
                if end > head {
                    ctx.deliver(end - head);
                }
            }
        }

        if ctx.delivered_bytes() > delivered {
            self.last_progress = ctx.now();
            if self.stall_flagged {
                self.stall_flagged = false;
                ctx.set_stalled(false);
            }
        }

        if ctx.flow_done() {
            self.ooo.clear();
            self.stop_crediting();
        }
    }

    fn on_update(&mut self, ctx: &mut Ctx<'_>) {
        let fb = self.feedback.as_mut().expect("feedback exists");
        let observed = self.period_recv + self.period_lost;
        if observed > 0 {
            // Unbiased loss ratio, with the decrease capped at 50% per
            // period: at low rates a period may cover a single credit, and
            // a raw 1/1 loss would multiply the rate to zero on one unlucky
            // drop. The cap leaves steady-state dynamics (losses near the
            // 10% target) untouched.
            let loss = (self.period_lost as f64 / observed as f64).min(0.5);
            fb.on_update(loss);
            self.silent_periods = 0;
            ctx.note_feedback_update();
            if ctx.trace_enabled() {
                let snap = fb.snapshot();
                ctx.trace(TraceEvent::FeedbackUpdate {
                    at: ctx.now(),
                    flow: ctx.flow.0,
                    loss,
                    w: snap.w,
                    rate_cps: snap.rate,
                });
            }
        } else if self.period_sent >= 4 && self.srtt.is_some() {
            // A meaningful number of credits went out and nothing echoed.
            // One silent period can be in-flight timing; three in a row is
            // starvation — maximal decrease (everything dropped).
            self.silent_periods += 1;
            if self.silent_periods >= 3 {
                fb.on_update(1.0);
                // Starvation is a failure signal, not steady-state noise:
                // restore w to its initial aggressiveness so that when the
                // path heals (link back up, loss cleared) the rate closes
                // the gap to the ceiling in a few RTTs instead of crawling
                // with the post-decrease w near w_min.
                fb.reset_w_for_recovery();
                self.silent_periods = 0;
                ctx.note_feedback_update();
                if ctx.trace_enabled() {
                    let snap = fb.snapshot();
                    ctx.trace(TraceEvent::FeedbackUpdate {
                        at: ctx.now(),
                        flow: ctx.flow.0,
                        loss: 1.0,
                        w: snap.w,
                        rate_cps: snap.rate,
                    });
                }
            }
        }
        // else: nothing sent this period (deep throttle) — hold.
        self.period_recv = 0;
        self.period_lost = 0;
        self.period_sent = 0;
        let period = self.update_period();
        self.update_slot.arm(ctx, timer::UPDATE, period);
    }
}

impl Endpoint for XPassReceiver {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {
        // Passive until the credit request (SYN) arrives.
    }

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx<'_>) {
        match pkt.kind {
            PktKind::Ctrl => match pkt.flag {
                ctrl::SYN | ctrl::CREDIT_REQUEST => self.start_crediting(ctx),
                ctrl::CREDIT_STOP | ctrl::FIN => self.stop_crediting(),
                _ => {}
            },
            PktKind::Data => self.on_data(pkt, ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, kind: u8, gen: u64, ctx: &mut Ctx<'_>) {
        match kind {
            timer::PACE
                if self.pace_slot.matches(gen) && self.sending && !self.stopped && !self.paused =>
            {
                self.send_credit(ctx);
                self.arm_pace(ctx);
                self.maybe_early_stop(ctx);
            }
            timer::UPDATE if self.update_slot.matches(gen) && self.sending && !self.stopped => {
                let delivered = ctx.delivered_bytes();
                if self.paused && !ctx.flow_done() && delivered == self.delivered_at_update {
                    // Early-stop watchdog: a full update period passed
                    // with no delivery progress while paused — the
                    // in-flight credits were thinner than the margin
                    // assumed (or lost). Resume pacing.
                    self.paused = false;
                    self.send_credit(ctx);
                    self.arm_pace(ctx);
                }
                self.delivered_at_update = delivered;
                // Stall detector, piggybacked on the update cadence so
                // it adds no events of its own: no delivery progress
                // for a full stall timeout flags the flow's record.
                // While a HostPause fault freezes either host the lack of
                // progress is injected, not a protocol stall: hold the
                // stall clock so it restarts when the pause lifts.
                if ctx.local_paused() || ctx.peer_paused() {
                    self.last_progress = ctx.now();
                }
                if !self.stall_flagged
                    && !ctx.flow_done()
                    && ctx.now().since(self.last_progress) >= STALL_TIMEOUT
                {
                    self.stall_flagged = true;
                    ctx.set_stalled(true);
                }
                self.on_update(ctx);
            }
            _ => {}
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn persist(&mut self, io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        // A restored controller starts as a placeholder; every dynamic
        // field (including max_rate) is overlaid from the snapshot.
        let cfg = &self.cfg;
        io.opt_with(
            &mut self.feedback,
            || CreditFeedback::new(1.0, cfg.clone()),
            |io, fb| fb.persist(io),
        )?;
        io.map(&mut self.ooo, 12, |io, seq, len| {
            io.u64(seq)?;
            io.u32(len)
        })?;
        io.u64(&mut self.credit_seq)?;
        io.u64(&mut self.last_echo)?;
        io.u64(&mut self.period_recv)?;
        io.u64(&mut self.period_lost)?;
        io.u64(&mut self.period_sent)?;
        io.u32(&mut self.silent_periods)?;
        io.opt(&mut self.srtt, |io, d| io.u64(&mut d.0))?;
        self.pace_slot.persist(io)?;
        self.update_slot.persist(io)?;
        io.bool(&mut self.sending)?;
        io.bool(&mut self.stopped)?;
        io.bool(&mut self.paused)?;
        io.u64(&mut self.delivered_at_update)?;
        io.u64(&mut self.last_progress.0)?;
        io.bool(&mut self.stall_flagged)
    }
}

/// Endpoint factory for ExpressPass flows with the given configuration.
/// The configuration is global to the scheme, so every endpoint the
/// factory makes, and each receiver's feedback controller, shares this
/// one copy.
pub fn xpass_factory(cfg: XPassConfig) -> EndpointFactory {
    cfg.validate();
    let cfg = Rc::new(cfg);
    Box::new(move |side, _info| match side {
        Side::Sender => Box::new(XPassSender::new()),
        Side::Receiver => Box::new(XPassReceiver::new(cfg.clone())),
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

    fn xpass_net(topo: Topology, cfg: XPassConfig, seed: u64) -> Network {
        let mut net_cfg = NetConfig::expresspass().with_seed(seed);
        net_cfg.host_delay = HostDelayModel {
            min: Dur::us(1),
            max: Dur::us(1),
        };
        Network::new(topo, net_cfg, xpass_factory(cfg))
    }

    /// Every flow carries one box per side, so the boxes hold per-flow
    /// state only: the configuration is one `Rc` shared by the factory's
    /// receivers and their controllers, and the sender holds none.
    #[test]
    fn endpoint_boxes_hold_only_per_flow_state() {
        use std::mem::size_of;
        let sizes = (
            size_of::<XPassSender>(),
            size_of::<XPassReceiver>(),
            size_of::<CreditFeedback>(),
        );
        assert!(
            sizes.0 <= 48 && sizes.1 <= 168 && sizes.2 <= 40,
            "{sizes:?}"
        );

        let factory = xpass_factory(XPassConfig::aggressive());
        let info = xpass_net::endpoint::FlowInfo {
            id: xpass_net::ids::FlowId(0),
            src: HostId(0),
            dst: HostId(1),
            size_bytes: 1,
            start: SimTime::ZERO,
        };
        let mut rx1 = factory(Side::Receiver, &info);
        let mut rx2 = factory(Side::Receiver, &info);
        let rx1 = rx1.as_any().downcast_mut::<XPassReceiver>().unwrap();
        let rx2 = rx2.as_any().downcast_mut::<XPassReceiver>().unwrap();
        assert!(
            Rc::ptr_eq(&rx1.cfg, &rx2.cfg),
            "one configuration per factory"
        );
    }

    #[test]
    fn single_flow_completes_with_zero_data_loss() {
        let topo = Topology::dumbbell(1, G10, Dur::us(1));
        let mut net = xpass_net(topo, XPassConfig::aggressive(), 7);
        let f = net.add_flow(HostId(0), HostId(1), 1_000_000, SimTime::ZERO);
        let done = net.run_until_done(SimTime::ZERO + Dur::ms(100));
        assert!(net.flow_done(f), "flow did not finish");
        assert_eq!(net.total_data_drops(), 0);
        // 1MB at ~9.5Gbps ≈ 0.84ms + startup; must finish well under 5ms.
        assert!(done < SimTime::ZERO + Dur::ms(5), "done at {done}");
    }

    #[test]
    fn throughput_close_to_data_fraction() {
        // One long flow: goodput must approach 94.82% of line rate times
        // payload efficiency (1460/1538).
        let topo = Topology::dumbbell(1, G10, Dur::us(1));
        let mut net = xpass_net(topo, XPassConfig::aggressive(), 11);
        let size = 20_000_000u64; // 20 MB
        net.add_flow(HostId(0), HostId(1), size, SimTime::ZERO);
        let done = net.run_until_done(SimTime::ZERO + Dur::ms(200));
        let secs = done.as_secs_f64();
        let gbps = size as f64 * 8.0 / secs / 1e9;
        // Payload ceiling: 10G × (1538/1622) × (1460/1538) = 9.0G.
        assert!(gbps > 8.0, "goodput {gbps:.2} Gbps too low");
        assert!(gbps < 9.1, "goodput {gbps:.2} Gbps above theoretical max");
    }

    #[test]
    fn two_flows_share_fairly() {
        let topo = Topology::dumbbell(2, G10, Dur::us(1));
        let mut net = xpass_net(topo, XPassConfig::aggressive(), 13);
        // Two long flows started together; compare FCTs (equal share → equal
        // completion).
        let a = net.add_flow(HostId(0), HostId(2), 5_000_000, SimTime::ZERO);
        let b = net.add_flow(HostId(1), HostId(3), 5_000_000, SimTime::ZERO);
        net.run_until_done(SimTime::ZERO + Dur::ms(200));
        assert!(net.flow_done(a) && net.flow_done(b));
        let recs = net.flow_records();
        let fa = recs[0].fct.unwrap().as_secs_f64();
        let fb = recs[1].fct.unwrap().as_secs_f64();
        let ratio = fa.max(fb) / fa.min(fb);
        assert!(ratio < 1.25, "unfair FCTs: {fa:.6} vs {fb:.6}");
        assert_eq!(net.total_data_drops(), 0);
    }

    #[test]
    fn data_queue_stays_tiny() {
        // 8 senders incast to one receiver through a star: the hallmark
        // result — data queue bounded to a few packets.
        let topo = Topology::star(9, G10, Dur::us(1));
        let mut net = xpass_net(topo, XPassConfig::aggressive(), 17);
        for i in 0..8u32 {
            net.add_flow(HostId(i), HostId(8), 500_000, SimTime::ZERO);
        }
        net.run_until_done(SimTime::ZERO + Dur::ms(100));
        assert_eq!(net.completed_count(), 8);
        assert_eq!(net.total_data_drops(), 0);
        let maxq = net.max_switch_queue_bytes();
        // Paper: bounded by delay spread; with 1us fixed host delay this is
        // a handful of MTUs.
        assert!(maxq <= 20 * 1538, "max queue {maxq} bytes");
    }

    #[test]
    fn credit_drops_happen_but_data_survives_incast() {
        let topo = Topology::star(17, G10, Dur::us(1));
        let mut net = xpass_net(topo, XPassConfig::aggressive(), 19);
        for i in 0..16u32 {
            net.add_flow(HostId(i), HostId(16), 200_000, SimTime::ZERO);
        }
        net.run_until_done(SimTime::ZERO + Dur::ms(100));
        assert_eq!(net.completed_count(), 16);
        assert_eq!(
            net.total_data_drops(),
            0,
            "credit scheme must not drop data"
        );
        assert!(
            net.counters().credits_dropped > 0,
            "16:1 overload must shed credits"
        );
    }

    #[test]
    fn single_packet_flow_wastes_initial_credits() {
        // Fig 8(b): a 1-packet flow wastes all but one credit of the first
        // RTT. With α = 1/2 that is a measurable amount; with tiny α, less.
        let topo = Topology::dumbbell(1, G10, Dur::us(50)); // long RTT
        let mut net = xpass_net(topo, XPassConfig::aggressive(), 23);
        let f = net.add_flow(HostId(0), HostId(1), 1000, SimTime::ZERO);
        net.run_until_done(SimTime::ZERO + Dur::ms(50));
        // Let CREDIT_STOP wind down the receiver.
        net.run_until(SimTime::ZERO + Dur::ms(60));
        assert!(net.flow_done(f));
        // The only flow: the run's credit counters are its own.
        let c = net.counters();
        assert!(
            c.credits_wasted > 5,
            "expected waste from α/2 start, got {}",
            c.credits_wasted
        );
        assert!(c.credits_sent > c.credits_wasted);
    }

    #[test]
    fn credit_stop_halts_receiver() {
        // After the flow completes and the stop timeout passes, no further
        // credits may be generated.
        let topo = Topology::dumbbell(1, G10, Dur::us(1));
        let mut net = xpass_net(topo, XPassConfig::aggressive(), 29);
        net.add_flow(HostId(0), HostId(1), 100_000, SimTime::ZERO);
        net.run_until_done(SimTime::ZERO + Dur::ms(50));
        net.run_until(net.now() + Dur::ms(2));
        let sent_after_drain = net.counters().credits_sent;
        net.run_until(net.now() + Dur::ms(10));
        assert_eq!(
            net.counters().credits_sent,
            sent_after_drain,
            "credits still flowing after stop"
        );
    }

    #[test]
    fn smaller_alpha_wastes_fewer_credits_on_small_flows() {
        let run = |alpha: f64| -> u64 {
            let topo = Topology::dumbbell(1, G10, Dur::us(50));
            let cfg = XPassConfig::default().with_alpha_winit(alpha, 0.5);
            let mut net = xpass_net(topo, cfg, 31);
            net.add_flow(HostId(0), HostId(1), 1000, SimTime::ZERO);
            net.run_until_done(SimTime::ZERO + Dur::ms(50));
            net.run_until(net.now() + Dur::ms(10));
            net.counters().credits_wasted
        };
        let waste_half = run(0.5);
        let waste_32nd = run(1.0 / 32.0);
        assert!(
            waste_32nd < waste_half,
            "α=1/32 wasted {waste_32nd} ≥ α=1/2 wasted {waste_half}"
        );
    }

    #[test]
    fn survives_data_loss_with_tiny_buffers() {
        // Sanity for the go-back-N fallback: shrink switch buffers below the
        // paper's bound so data drops occur; the flow must still complete.
        let topo = Topology::star(9, G10, Dur::us(1));
        let mut cfg = NetConfig::expresspass().with_seed(37);
        cfg.switch_queue_bytes = 2 * 1538; // absurdly small
        cfg.host_delay = HostDelayModel::software(); // big jitter
        let mut net = Network::new(topo, cfg, xpass_factory(XPassConfig::aggressive()));
        for i in 0..8u32 {
            net.add_flow(HostId(i), HostId(8), 300_000, SimTime::ZERO);
        }
        net.run_until_done(SimTime::ZERO + Dur::secs(2));
        assert_eq!(net.completed_count(), 8, "flows must survive data loss");
    }

    #[test]
    fn receiver_rate_converges_up_for_lone_flow() {
        let topo = Topology::dumbbell(1, G10, Dur::us(1));
        let mut net = xpass_net(topo, XPassConfig::default(), 41);
        let f = net.add_flow(HostId(0), HostId(1), 50_000_000, SimTime::ZERO);
        net.run_until(SimTime::ZERO + Dur::ms(5));
        let mut rate = 0.0;
        net.poke(f, Side::Receiver, |ep, _| {
            let r = ep.as_any().downcast_mut::<XPassReceiver>().unwrap();
            rate = r.credit_rate();
        });
        let max = max_credit_rate(G10);
        assert!(
            rate > 0.9 * max,
            "lone flow should be near max credit rate: {rate} vs {max}"
        );
    }

    #[test]
    fn srtt_measured_reasonably() {
        let topo = Topology::dumbbell(1, G10, Dur::us(10));
        let mut net = xpass_net(topo, XPassConfig::default(), 43);
        let f = net.add_flow(HostId(0), HostId(1), 10_000_000, SimTime::ZERO);
        net.run_until(SimTime::ZERO + Dur::ms(3));
        let mut srtt = None;
        net.poke(f, Side::Receiver, |ep, _| {
            srtt = ep.as_any().downcast_mut::<XPassReceiver>().unwrap().srtt();
        });
        let srtt = srtt.expect("srtt measured");
        // 3 hops × 10us × 2 = 60us propagation + serialization + host delay.
        assert!(
            srtt > Dur::us(55) && srtt < Dur::us(120),
            "srtt {srtt} out of range"
        );
    }
}

#[cfg(test)]
mod early_stop_tests {
    use super::*;
    use xpass_net::config::{HostDelayModel, NetConfig};
    use xpass_net::ids::HostId;
    use xpass_net::network::Network;
    use xpass_net::topology::Topology;
    use xpass_sim::time::SimTime;

    const G10: u64 = 10_000_000_000;

    fn waste_for(cfg: XPassConfig, seed: u64) -> (u64, f64) {
        // Long-RTT path so plenty of credits are in flight near flow end.
        let topo = Topology::dumbbell(1, G10, Dur::us(25));
        let mut net_cfg = NetConfig::expresspass().with_seed(seed);
        net_cfg.host_delay = HostDelayModel {
            min: Dur::us(1),
            max: Dur::us(1),
        };
        let mut net = Network::new(topo, net_cfg, xpass_factory(cfg));
        let f = net.add_flow(HostId(0), HostId(1), 400_000, SimTime::ZERO);
        let done = net.run_until_done(SimTime::ZERO + Dur::ms(100));
        assert!(net.flow_done(f));
        net.run_until(net.now() + Dur::ms(5));
        (net.counters().credits_wasted, done.as_secs_f64())
    }

    #[test]
    fn early_stop_reduces_waste_without_breaking_completion() {
        let base = XPassConfig::aggressive();
        let (waste_off, fct_off) = waste_for(base, 91);
        let (waste_on, fct_on) = waste_for(base.with_early_credit_stop(), 91);
        assert!(
            waste_on < waste_off,
            "early stop did not reduce waste: {waste_on} vs {waste_off}"
        );
        // FCT penalty bounded: the margin may cost at most a small slowdown.
        assert!(
            fct_on < fct_off * 1.3,
            "early stop FCT regression: {fct_on} vs {fct_off}"
        );
    }

    #[test]
    fn early_stop_survives_credit_loss_via_watchdog() {
        // Heavy incast: lots of credit loss; early-stopped flows must still
        // complete (the watchdog resumes pacing when the margin was wrong).
        let topo = Topology::star(17, G10, Dur::us(5));
        let mut net_cfg = NetConfig::expresspass().with_seed(93);
        net_cfg.host_delay = HostDelayModel {
            min: Dur::us(1),
            max: Dur::us(1),
        };
        let mut net = Network::new(
            topo,
            net_cfg,
            xpass_factory(XPassConfig::aggressive().with_early_credit_stop()),
        );
        for i in 0..16u32 {
            net.add_flow(HostId(i), HostId(16), 150_000, SimTime::ZERO);
        }
        net.run_until_done(SimTime::ZERO + Dur::secs(2));
        assert_eq!(net.completed_count(), 16, "early-stop flows must finish");
        assert!(net.counters().credits_dropped > 0, "test needs credit loss");
    }
}
