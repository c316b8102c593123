//! The `Endpoint` trait every congestion-control protocol implements, and
//! the `Ctx` handle endpoints act through.
//!
//! A flow has two endpoints — a sender at the source host and a receiver at
//! the destination — each a boxed `Endpoint`. The network delivers three
//! kinds of callbacks: `on_start` (flow activation), `on_packet` (a packet
//! addressed to this endpoint arrived, after host processing delay), and
//! `on_timer` (a timer armed via [`Ctx::arm_timer`] fired).
//!
//! The same structure serves ExpressPass (where the *receiver* is the active
//! party, pacing credits) and the window/rate baselines (where the sender
//! is).

use crate::ids::{FlowId, HostId, Side};
use crate::network::Network;
use crate::packet::{Packet, PktKind};
use std::any::Any;
use std::num::NonZeroU64;
use xpass_sim::rng::Rng;
use xpass_sim::time::{Dur, SimTime};

/// Immutable per-flow facts available to endpoints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowInfo {
    /// Flow id.
    pub id: FlowId,
    /// Data source host.
    pub src: HostId,
    /// Data destination host.
    pub dst: HostId,
    /// Application bytes to transfer.
    pub size_bytes: u64,
    /// Scheduled start time.
    pub start: SimTime,
    /// Traffic class (0 = highest priority; see §7 multi-class credits).
    pub class: u8,
}

/// A congestion-control protocol endpoint (one side of one flow).
pub trait Endpoint {
    /// The flow has started (fires at `FlowInfo::start` on both sides).
    fn on_start(&mut self, ctx: &mut Ctx<'_>);

    /// A packet addressed to this endpoint arrived.
    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx<'_>);

    /// A timer armed with [`Ctx::arm_timer`] fired. `gen` is the arming
    /// generation; compare against the latest armed generation to ignore
    /// stale timers (see [`TimerSlot`]).
    fn on_timer(&mut self, kind: u8, gen: u64, ctx: &mut Ctx<'_>);

    /// Downcasting hook for out-of-band control (e.g. the ideal-rate oracle
    /// setting sender rates).
    fn as_any(&mut self) -> &mut dyn Any;

    /// Snapshot traversal of this endpoint's dynamic state. Every protocol
    /// must persist *all* state that influences future behaviour — a
    /// restored run must be byte-identical to an uninterrupted one. A read
    /// overlays the dynamic fields onto a freshly constructed endpoint (the
    /// factory rebuilds configuration).
    fn persist(&mut self, io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError>;
}

/// Constructor for protocol endpoints: called once per flow per side, when
/// the flow is added — or, on restore, when a flow the snapshotted run
/// added is rebuilt. The endpoints live as long as the network.
pub type EndpointFactory = Box<dyn Fn(Side, &FlowInfo) -> Box<dyn Endpoint>>;

/// The capability handle endpoints act through. Wraps the network with the
/// identity of the flow/side being called back.
pub struct Ctx<'a> {
    pub(crate) net: &'a mut Network,
    /// The flow this callback concerns.
    pub flow: FlowId,
    /// The side being called back.
    pub side: Side,
}

impl<'a> Ctx<'a> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// The run's RNG.
    pub fn rng(&mut self) -> &mut Rng {
        self.net.rng()
    }

    /// Flow facts.
    pub fn info(&self) -> &FlowInfo {
        self.net.flow_info(self.flow)
    }

    /// The host this endpoint lives on.
    pub fn local_host(&self) -> HostId {
        let info = self.info();
        match self.side {
            Side::Sender => info.src,
            Side::Receiver => info.dst,
        }
    }

    /// Line rate of this endpoint's host uplink, in bits/s. Protocols use
    /// this as `max_rate` (the paper assumes uniform host link speeds, §7).
    pub fn host_link_bps(&self) -> u64 {
        self.net.host_link_bps(self.local_host())
    }

    /// A packet template originating at this endpoint, addressed to the
    /// peer, with `t_sent` stamped.
    pub fn make_pkt(&self, kind: PktKind, size: u32) -> Packet {
        let info = self.info();
        let (src, dst) = match self.side {
            Side::Sender => (info.src, info.dst),
            Side::Receiver => (info.dst, info.src),
        };
        let mut p = Packet::new(self.flow, src, dst, kind, size);
        p.t_sent = self.now();
        p.class = info.class;
        p
    }

    /// Emit a packet from this endpoint's host NIC.
    pub fn send(&mut self, pkt: Packet) {
        debug_assert_eq!(pkt.src, self.local_host(), "packet src must be local host");
        self.net.host_emit(pkt);
    }

    /// Arm a timer; returns the arming generation to match in `on_timer`.
    pub fn arm_timer(&mut self, kind: u8, delay: Dur) -> u64 {
        self.net.arm_timer(self.flow, self.side, kind, delay)
    }

    /// Receiver side: record `bytes` of in-order application data delivered.
    /// Completion (and FCT) is recorded when the cumulative total reaches
    /// the flow size.
    pub fn deliver(&mut self, bytes: u64) {
        debug_assert_eq!(self.side, Side::Receiver, "only receivers deliver data");
        self.net.deliver(self.flow, bytes);
    }

    /// Application bytes delivered so far (receiver-side progress).
    pub fn delivered_bytes(&self) -> u64 {
        self.net.delivered_bytes(self.flow)
    }

    /// True once the flow has fully delivered.
    pub fn flow_done(&self) -> bool {
        self.net.flow_done(self.flow)
    }

    /// Sender side: account a credit that arrived but triggered no data
    /// (paper §6.3, "credit waste").
    pub fn count_wasted_credit(&mut self) {
        self.net.count_wasted_credit(self.flow);
    }

    /// Give up on this flow (e.g. connection-establishment retries
    /// exhausted). The flow counts as settled for
    /// [`run_until_done`](Network::run_until_done), its record reports
    /// [`FlowOutcome::Aborted`](crate::network::FlowOutcome::Aborted), and
    /// `counters.flows_aborted` increments. Idempotent; a no-op once done.
    pub fn abort_flow(&mut self) {
        self.net.abort_flow(self.flow);
    }

    /// True once this flow was aborted.
    pub fn flow_aborted(&self) -> bool {
        self.net.flow_aborted(self.flow)
    }

    /// Flag (or clear) a forward-progress stall on this flow's record.
    /// Purely observational — the flow keeps running and the flag clears
    /// automatically when it completes.
    pub fn set_stalled(&mut self, stalled: bool) {
        self.net.mark_stalled(self.flow, stalled);
    }

    /// True while this endpoint's own host is frozen by an injected
    /// `HostPause` fault. Endpoints use this (and
    /// [`peer_paused`](Self::peer_paused)) to suppress liveness judgements —
    /// a flow is not *stalled* or *dead* while a fault is deliberately
    /// holding one of its hosts.
    pub fn local_paused(&self) -> bool {
        self.net.host_paused(self.local_host())
    }

    /// True while the peer endpoint's host is frozen by an injected
    /// `HostPause` fault.
    pub fn peer_paused(&self) -> bool {
        let info = self.info();
        let peer = match self.side {
            Side::Sender => info.dst,
            Side::Receiver => info.src,
        };
        self.net.host_paused(peer)
    }

    /// True when a trace sink is installed. Endpoints gate any work needed
    /// only to *build* a trace event behind this, keeping no-sink runs free
    /// of telemetry cost.
    pub fn trace_enabled(&self) -> bool {
        self.net.trace_enabled()
    }

    /// Record a trace event (no-op without a sink). Tracing is
    /// observation-only: it must never touch the RNG or schedule events.
    pub fn trace(&mut self, ev: xpass_sim::trace::TraceEvent) {
        self.net.trace_emit(ev);
    }

    /// Count one credit feedback-loop rate update on the live metrics
    /// plane (no-op when metrics are off; safe to call unconditionally).
    #[inline]
    pub fn note_feedback_update(&mut self) {
        self.net.note_feedback_update();
    }
}

/// Helper tracking the latest armed generation of one timer kind, so
/// endpoints can cancel/rearm logically: stale firings are filtered by
/// generation mismatch (a generation is minted per arming, unique on the
/// endpoint's host — see [`crate::timers`]). Every arming queues an event,
/// so this is for timers that are not re-armed while pending (one-shot
/// pacing and handshake timers); one that is, on every ACK say, wants a
/// [`Deadline`]. Minted generations are never 0, so the slot is one word.
#[derive(Clone, Copy, Debug, Default)]
pub struct TimerSlot {
    armed: Option<NonZeroU64>,
}

impl TimerSlot {
    /// Unarmed slot.
    pub fn new() -> TimerSlot {
        TimerSlot::default()
    }

    /// Arm (or re-arm) this slot's timer.
    pub fn arm(&mut self, ctx: &mut Ctx<'_>, kind: u8, delay: Dur) {
        let gen = ctx.arm_timer(kind, delay);
        self.armed = NonZeroU64::new(gen);
        debug_assert!(self.armed.is_some(), "minted timer generation 0");
    }

    /// Logically cancel: any in-flight firing will be ignored.
    pub fn cancel(&mut self) {
        self.armed = None;
    }

    /// Whether a firing with this generation is the latest arming. Consumes
    /// the arming (one-shot semantics); re-arm for periodic behaviour.
    pub fn matches(&mut self, gen: u64) -> bool {
        if self.armed.is_some_and(|a| a.get() == gen) {
            self.armed = None;
            true
        } else {
            false
        }
    }

    /// True if armed and not yet fired/cancelled.
    pub fn is_armed(&self) -> bool {
        self.armed.is_some()
    }
}

impl TimerSlot {
    /// Snapshot traversal: the armed generation, if any. A generation of
    /// 0 was never minted and is refused.
    pub fn persist(&mut self, io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        let mut gen = self.armed.map(NonZeroU64::get);
        io.opt(&mut gen, |io, g| {
            io.u64(g)?;
            if *g == 0 {
                return Err(io.err("armed timer generation 0 was never minted"));
            }
            Ok(())
        })?;
        self.armed = gen.and_then(NonZeroU64::new);
        Ok(())
    }
}

/// A timer that is re-armed while pending — a retransmission timeout
/// pushed back by every ACK — kept in the event queue as **one** event
/// instead of one per arming.
///
/// Every arming still mints its generation and takes its sequence number
/// exactly as [`TimerSlot::arm`] does, but only *reserves* the queue
/// position ([`EventQueue::reserve_seq`](xpass_sim::event::EventQueue::reserve_seq)).
/// While an event of this deadline is queued and the deadline only moves
/// later, nothing more is queued: that event — the *carrier* — pops first,
/// and [`fired`](Self::fired) has it hop to the latest arming's reserved
/// `(expiry, seq)`, which lies strictly ahead of it (later-or-equal expiry,
/// later sequence number). So the firing that counts happens at the very
/// key an eager push at arm time would have had, every other event keeps
/// its key because every sequence number is still consumed, and the
/// superseded armings — 99.4 % of the timer events of a DCTCP run — are
/// never queued at all. A deadline that moves *earlier* is queued at once
/// and becomes the carrier; the old carrier then fires as an ignored orphan.
#[derive(Clone, Copy, Debug, Default)]
pub struct Deadline {
    /// Generation of the latest arming; 0 (never minted) when disarmed.
    gen: u64,
    /// Expiry of the latest arming — kept across `cancel`, as the bound
    /// the carrier's own expiry is known not to exceed.
    expiry: SimTime,
    /// Queue sequence number reserved for the latest arming.
    seq: u64,
    /// Generation carried by this deadline's one useful queued event;
    /// 0 when no such event is queued.
    carrier: u64,
}

impl Deadline {
    /// Disarmed deadline.
    pub fn new() -> Deadline {
        Deadline::default()
    }

    /// Arm, or move, the deadline to `delay` from now.
    pub fn arm(&mut self, ctx: &mut Ctx<'_>, kind: u8, delay: Dur) {
        let (gen, expiry, seq) = ctx.net.reserve_timer(ctx.flow, ctx.side, delay);
        let carried = self.carrier != 0 && expiry >= self.expiry;
        (self.gen, self.expiry, self.seq) = (gen, expiry, seq);
        if !carried {
            ctx.net
                .queue_timer(ctx.flow, ctx.side, kind, gen, expiry, seq);
            self.carrier = gen;
        }
    }

    /// Disarm: no firing is accepted until the next [`arm`](Self::arm).
    pub fn cancel(&mut self) {
        self.gen = 0;
    }

    /// A timer event of this deadline's `kind` fired with generation
    /// `gen`: true when it is the latest arming (consumed — one-shot, as
    /// [`TimerSlot::matches`]). Anything but the carrier is ignored; a
    /// carrier the deadline has moved on from re-queues itself at the
    /// latest arming's reserved position. Make this the first operand of
    /// the `on_timer` guard, so the carrier hops whatever else is tested.
    pub fn fired(&mut self, ctx: &mut Ctx<'_>, kind: u8, gen: u64) -> bool {
        if gen != self.carrier {
            return false; // an orphan, or (minted generations are never 0) nothing queued
        }
        self.carrier = 0;
        if gen == self.gen {
            self.gen = 0;
            return true;
        }
        if self.gen != 0 {
            ctx.net
                .queue_timer(ctx.flow, ctx.side, kind, self.gen, self.expiry, self.seq);
            self.carrier = self.gen;
        }
        false
    }

    /// True if armed and not yet fired/cancelled.
    pub fn is_armed(&self) -> bool {
        self.gen != 0
    }

    /// True while armed with no event of its own queued: the queued event
    /// of an earlier arming is carrying it.
    pub fn is_carried(&self) -> bool {
        self.gen != 0 && self.gen != self.carrier
    }
}

impl Deadline {
    /// Snapshot traversal, reserved position included.
    pub fn persist(&mut self, io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        io.u64(&mut self.gen)?;
        io.u64(&mut self.expiry.0)?;
        io.u64(&mut self.seq)?;
        io.u64(&mut self.carrier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn timer_slot_one_shot_semantics() {
        let mut s = TimerSlot::new();
        assert!(!s.is_armed());
        s.armed = NonZeroU64::new(7);
        assert!(s.is_armed());
        assert!(!s.matches(6));
        assert!(s.matches(7));
        assert!(!s.matches(7), "second firing with same gen must not match");
        assert!(!s.is_armed());
    }

    #[test]
    fn timer_slot_cancel() {
        let mut s = TimerSlot::new();
        s.armed = NonZeroU64::new(3);
        s.cancel();
        assert!(!s.matches(3));
    }

    #[test]
    fn timer_slot_refuses_a_restored_generation_of_zero() {
        use xpass_sim::{SnapIo, SnapReader, SnapWriter};
        let mut armed = TimerSlot::new();
        armed.armed = NonZeroU64::new(9);
        let mut w = SnapWriter::new();
        armed.persist(&mut SnapIo::Write(&mut w)).unwrap();
        let mut body = w.into_body();
        // Present flag, then the generation, little-endian.
        assert_eq!(body, [1, 9, 0, 0, 0, 0, 0, 0, 0]);

        let mut twin = TimerSlot::new();
        twin.persist(&mut SnapIo::Read(SnapReader::new(&body, 0)))
            .unwrap();
        assert!(twin.matches(9));

        body[1] = 0;
        let e = TimerSlot::new()
            .persist(&mut SnapIo::Read(SnapReader::new(&body, 0)))
            .unwrap_err();
        assert!(e.msg.contains("generation 0"), "{e}");
    }

    #[test]
    fn timer_slot_is_one_word_and_deadline_four() {
        assert_eq!(std::mem::size_of::<TimerSlot>(), 8);
        assert_eq!(std::mem::size_of::<Deadline>(), 32);
    }

    /// One timer two ways: carried ([`Deadline`]) or pushed at every
    /// arming ([`TimerSlot`], the reference).
    enum Slot {
        Carried(Deadline),
        Eager(TimerSlot),
    }

    const DRIVE: u8 = 1;
    const EXPIRY: u8 = 2;

    /// Sender that works through a seeded script of arm / cancel / re-arm
    /// operations on its slot, one per firing of a plain driver timer, and
    /// logs where each accepted firing sat in the event order.
    struct Scripted {
        slot: Slot,
        rng: Rng,
        steps_left: u32,
        last_expiry: SimTime,
        fires: Rc<RefCell<Vec<(SimTime, u64)>>>,
    }

    impl Scripted {
        fn arm(&mut self, ctx: &mut Ctx<'_>, delay: Dur) {
            self.last_expiry = ctx.now() + delay;
            match &mut self.slot {
                Slot::Carried(d) => d.arm(ctx, EXPIRY, delay),
                Slot::Eager(s) => s.arm(ctx, EXPIRY, delay),
            }
        }

        fn cancel(&mut self) {
            match &mut self.slot {
                Slot::Carried(d) => d.cancel(),
                Slot::Eager(s) => s.cancel(),
            }
        }

        fn drive(&mut self, ctx: &mut Ctx<'_>) {
            let later = Dur::us(100) + Dur::ns(self.rng.below(50_000));
            match self.rng.below(10) {
                // The common case: the deadline moves later.
                0..=4 => self.arm(ctx, later),
                // The very same expiry again.
                5 if self.last_expiry >= ctx.now() => {
                    let same = self.last_expiry.since(ctx.now());
                    self.arm(ctx, same);
                }
                // Earlier than what is pending (these mostly get to fire).
                5..=7 => {
                    let soon = Dur::ns(self.rng.below(20_000));
                    self.arm(ctx, soon);
                }
                8 => self.cancel(),
                // Cancel, then re-arm before the carrier has fired.
                _ => {
                    self.cancel();
                    self.arm(ctx, later);
                }
            }
            self.steps_left -= 1;
            if self.steps_left > 0 {
                let gap = Dur::ns(1 + self.rng.below(30_000));
                ctx.arm_timer(DRIVE, gap);
            }
        }
    }

    impl Endpoint for Scripted {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.arm_timer(DRIVE, Dur::us(1));
        }
        fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, kind: u8, gen: u64, ctx: &mut Ctx<'_>) {
            match kind {
                DRIVE => self.drive(ctx),
                _ => {
                    let live = match &mut self.slot {
                        Slot::Carried(d) => d.fired(ctx, EXPIRY, gen),
                        Slot::Eager(s) => s.matches(gen),
                    };
                    if live {
                        self.fires.borrow_mut().push(ctx.net.current_event_key());
                    }
                }
            }
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
        fn persist(&mut self, _io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
            Ok(())
        }
    }

    struct Inert;
    impl Endpoint for Inert {
        fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
        fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, _kind: u8, _gen: u64, _ctx: &mut Ctx<'_>) {}
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
        fn persist(&mut self, _io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
            Ok(())
        }
    }

    /// Run the script for `seed`; returns the accepted firings as
    /// `(time, seq)`, events processed, and peak queue depth.
    fn run_script(seed: u64, carried: bool) -> (Vec<(SimTime, u64)>, u64, usize) {
        let fires = Rc::new(RefCell::new(Vec::new()));
        let log = fires.clone();
        let topo = crate::topology::Topology::dumbbell(1, 10_000_000_000, Dur::us(1));
        let cfg = crate::config::NetConfig::default().with_seed(seed);
        let mut net = Network::new(
            topo,
            cfg,
            Box::new(move |side, _info| -> Box<dyn Endpoint> {
                match side {
                    Side::Receiver => Box::new(Inert),
                    Side::Sender => Box::new(Scripted {
                        slot: if carried {
                            Slot::Carried(Deadline::new())
                        } else {
                            Slot::Eager(TimerSlot::new())
                        },
                        rng: Rng::new(seed),
                        steps_left: 400,
                        last_expiry: SimTime::ZERO,
                        fires: log.clone(),
                    }),
                }
            }),
        );
        net.add_flow(HostId(0), HostId(1), 1, SimTime::ZERO);
        net.run_until(SimTime::ZERO + Dur::ms(50));
        let report = net.engine_report();
        let fires = fires.borrow().clone();
        (fires, report.events_processed, report.peak_queue_len)
    }

    #[test]
    fn deadline_fires_where_an_eager_timer_slot_would() {
        use xpass_sim::event::SchedulerKind;
        use xpass_sim::run_ctx;
        let (mut fired, mut saved) = (0, 0);
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let _sched = run_ctx::enter(run_ctx::current().with_scheduler(kind));
            for seed in 0..20u64 {
                let (eager, eager_events, eager_peak) = run_script(seed, false);
                let (lazy, lazy_events, lazy_peak) = run_script(seed, true);
                assert_eq!(lazy, eager, "seed {seed}: firings moved ({kind:?})");
                assert!(lazy_events < eager_events, "seed {seed}");
                assert!(lazy_peak < eager_peak, "seed {seed}");
                fired += lazy.len();
                saved += eager_events - lazy_events;
            }
        }
        assert!(fired > 400 && saved > 4_000, "{fired} fired, {saved} saved");
    }
}
