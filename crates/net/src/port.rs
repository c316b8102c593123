//! The egress-port scheduler.
//!
//! Every directed link has one egress port at its transmitting end holding a
//! data queue and (in credit-enabled runs) a credit queue. When the wire is
//! free the port sends, in order of preference:
//!
//! 1. the head credit, if the credit meter has tokens for it;
//! 2. the head data packet;
//! 3. nothing — but if credits are waiting for tokens, it asks to be woken
//!    when the meter will conform.
//!
//! This realizes the paper's switch behaviour: credits are a strictly
//! metered class (max-bandwidth metering, burst 2), data is work-conserving
//! in the remaining capacity.

use crate::ids::DLinkId;
use crate::packet::{Packet, PktKind};
use crate::queue::{CreditQueue, DataQueue};
use crate::rcplink::RcpLink;
use xpass_sim::time::{tx_time, Dur, SimTime};
use xpass_sim::trace::{TraceEvent, TraceSink};

/// What an idle port wants to do next.
#[derive(Debug)]
pub enum TxDecision {
    /// Start serializing this packet now.
    Transmit(Packet),
    /// Nothing conforming now; wake me at this time (credit meter refill).
    WaitUntil(SimTime),
    /// Nothing to send.
    Idle,
}

/// A queue position an egress port holds for a wake of its transmitter:
/// `(at, seq)`, either queued there or only reserved. A reserved wake is
/// one that would find nothing to do; `Network::enqueue_at` queues it at
/// exactly this position the moment that stops being true, and otherwise
/// nothing ever does.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WakeSlot {
    /// When the wake fires.
    pub at: SimTime,
    /// Its sequence number at `at`.
    pub seq: u64,
    /// Whether the wake is in the event queue (else only reserved).
    pub queued: bool,
    /// Whether an enqueue at `at` itself asked for this wake; otherwise
    /// it is the wake that ends a transmission, taken when it began.
    pub same_instant: bool,
}

/// Egress port state for one directed link.
pub struct EgressPort {
    /// The directed link this port feeds.
    pub dlink: DLinkId,
    /// Line rate.
    pub speed_bps: u64,
    /// Propagation delay to the far end.
    pub prop_delay: Dur,
    /// Data-class queue.
    pub data: DataQueue,
    /// Credit-class queue (credit-enabled runs only).
    pub credit: Option<CreditQueue>,
    /// RCP per-link rate state (RCP runs only; boxed, so ports of other
    /// schemes carry one word for it).
    pub rcp: Option<Box<RcpLink>>,
    /// The wire is busy until this time.
    pub busy_until: SimTime,
    /// Pending meter-refill wake, to avoid duplicate wake events: its
    /// time, and the wire bytes of the head credit it was computed for.
    token_wake: Option<(SimTime, u32)>,
    /// The latest wake position the network holds for this port: the
    /// wake ending the transmission in progress (reserved, not queued,
    /// when it began with both queues drained), or the wake an enqueue at
    /// an idle port asked for (reserved when it would be a no-op). See
    /// `Network::enqueue_at`.
    pub(crate) wake: Option<WakeSlot>,
    /// Total wire bytes transmitted.
    pub tx_bytes: u64,
    /// Wire bytes of data packets transmitted.
    pub tx_data_bytes: u64,
    /// Wire bytes of credit packets transmitted.
    pub tx_credit_bytes: u64,
    /// Optional inter-credit-gap collection (Fig 6b / Fig 14b): picosecond
    /// gaps between consecutive credit transmissions on this port (boxed:
    /// a few ports of a few runs collect).
    pub credit_gaps: Option<Box<(SimTime, xpass_sim::stats::Percentiles)>>,
}

impl EgressPort {
    /// New port with the given queues.
    pub fn new(
        dlink: DLinkId,
        speed_bps: u64,
        prop_delay: Dur,
        data: DataQueue,
        credit: Option<CreditQueue>,
        rcp: Option<RcpLink>,
    ) -> EgressPort {
        EgressPort {
            dlink,
            speed_bps,
            prop_delay,
            data,
            credit,
            rcp: rcp.map(Box::new),
            busy_until: SimTime::ZERO,
            token_wake: None,
            wake: None,
            tx_bytes: 0,
            tx_data_bytes: 0,
            tx_credit_bytes: 0,
            credit_gaps: None,
        }
    }

    /// Start collecting inter-credit gaps on this port.
    pub fn collect_credit_gaps(&mut self) {
        self.credit_gaps = Some(Box::new((
            SimTime::ZERO,
            xpass_sim::stats::Percentiles::new(),
        )));
    }

    /// True if the transmitter is currently serializing a packet.
    #[inline]
    pub fn is_busy(&self, now: SimTime) -> bool {
        now < self.busy_until
    }

    /// True when a wake at `at` that finds the transmitter free would be a
    /// no-op — [`try_transmit`](Self::try_transmit) deciding `Idle` and
    /// changing nothing a later decision reads — provided nothing is
    /// enqueued, sent or flushed first. Either both queues are empty, or
    /// only credits wait and the meter wake already pending was computed
    /// for a head of this size and falls after `at`. The meter changes
    /// only when a credit is sent, which clears that wake, so no meter
    /// arithmetic is needed here.
    #[inline]
    pub fn idle_at(&self, at: SimTime) -> bool {
        if !self.data.is_empty() {
            return false;
        }
        match self.credit.as_ref().and_then(|cq| cq.head_bytes()) {
            None => true,
            Some(bytes) => matches!(self.token_wake, Some((t, b)) if at < t && b == bytes),
        }
    }

    /// Decide what to do at `now` (must be called only when not busy).
    /// On `Transmit`, the transmitter is marked busy through the packet's
    /// serialization time and byte counters are updated; the caller delivers
    /// the packet to the far end after `prop_delay`.
    ///
    /// `trace` (pass `None` when tracing is off) receives a
    /// [`TraceEvent::PktDequeue`] for each packet leaving a queue; it never
    /// affects the decision.
    pub fn try_transmit(
        &mut self,
        now: SimTime,
        mut trace: Option<&mut (dyn TraceSink + 'static)>,
    ) -> TxDecision {
        if self.is_busy(now) {
            // A wake is already pending at busy_until; spurious call.
            return TxDecision::Idle;
        }
        // Conforming credits have priority (they are tiny and strictly
        // metered, so they cannot starve data).
        if let Some(cq) = self.credit.as_mut() {
            if cq.head_conforms(now) {
                let pkt = cq.dequeue(now).expect("head_conforms implies nonempty");
                if let Some(sink) = trace.as_deref_mut() {
                    sink.record(&dequeue_event(now, self.dlink, &pkt));
                }
                return TxDecision::Transmit(self.start_tx(now, pkt));
            }
        }
        if let Some(mut pkt) = self.data.dequeue(now) {
            // RCP: stamp the advertised rate and account the packet.
            if let Some(rcp) = self.rcp.as_mut() {
                if pkt.kind == PktKind::Data {
                    pkt.rate = rcp.stamp(pkt.rate);
                    let rtt = if pkt.rtt_est.is_zero() {
                        None
                    } else {
                        Some(pkt.rtt_est)
                    };
                    rcp.on_packet(pkt.size, rtt);
                }
            }
            if let Some(sink) = trace {
                sink.record(&dequeue_event(now, self.dlink, &pkt));
            }
            return TxDecision::Transmit(self.start_tx(now, pkt));
        }
        // Only non-conforming credits remain (if anything).
        if let Some(cq) = self.credit.as_mut() {
            if let Some(t) = cq.head_ready_at(now) {
                if self.token_wake.is_some_and(|(w, _)| w == t) {
                    return TxDecision::Idle; // wake already scheduled
                }
                self.token_wake = Some((t, cq.head_bytes().expect("a head to wait for")));
                return TxDecision::WaitUntil(t);
            }
        }
        TxDecision::Idle
    }

    fn start_tx(&mut self, now: SimTime, pkt: Packet) -> Packet {
        let tx = tx_time(pkt.size as u64, self.speed_bps);
        self.busy_until = now + tx;
        self.token_wake = None;
        self.tx_bytes += pkt.size as u64;
        match pkt.kind {
            PktKind::Credit => {
                self.tx_credit_bytes += pkt.size as u64;
                if let Some((last, gaps)) = self.credit_gaps.as_deref_mut() {
                    if *last > SimTime::ZERO {
                        gaps.add(now.since(*last).as_secs_f64());
                    }
                    *last = now;
                }
            }
            PktKind::Data => self.tx_data_bytes += pkt.size as u64,
            _ => {}
        }
        pkt
    }

    /// Hint that the queues' out-of-line storage is about to be touched:
    /// the data ring's ends and the credit classes' FIFO headers. Reads
    /// this port's own fields, so prefetch the port itself one step
    /// earlier.
    #[inline]
    pub fn prefetch_queues(&self) {
        self.data.prefetch_ring();
        if let Some(cq) = self.credit.as_ref() {
            cq.prefetch_classes();
        }
    }

    /// Drop both queues' backlog (a flushing link failure). Returns the
    /// packets and wire bytes discarded.
    pub(crate) fn flush(&mut self, now: SimTime) -> (u64, u64) {
        let (mut pkts, mut bytes) = self.data.flush(now);
        if let Some(cq) = self.credit.as_mut() {
            let (p, b) = cq.flush();
            pkts += p;
            bytes += b;
        }
        (pkts as u64, bytes)
    }

    /// Time the current serialization finishes (== now when idle).
    pub fn tx_done_at(&self) -> SimTime {
        self.busy_until
    }
}

impl EgressPort {
    /// Snapshot traversal of the dynamic state only: dlink, speed and
    /// propagation delay are configuration rebuilt by setup. Queue
    /// contents, the transmitter busy horizon, the pending meter wake, the
    /// wake position held (queued or reserved), byte counters, and the
    /// optional gap collector all carry over.
    pub fn persist(&mut self, io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        self.data.persist(io)?;
        io.opt_onto("credit queue", self.credit.as_mut(), |io, cq| {
            cq.persist(io)
        })?;
        io.opt_onto("rcp link state", self.rcp.as_deref_mut(), |io, rcp| {
            rcp.persist(io)
        })?;
        io.u64(&mut self.busy_until.0)?;
        io.opt(&mut self.token_wake, |io, (t, bytes)| {
            io.u64(&mut t.0)?;
            io.u32(bytes)
        })?;
        io.opt(&mut self.wake, |io, s| {
            io.u64(&mut s.at.0)?;
            io.u64(&mut s.seq)?;
            io.bool(&mut s.queued)?;
            io.bool(&mut s.same_instant)
        })?;
        io.u64(&mut self.tx_bytes)?;
        io.u64(&mut self.tx_data_bytes)?;
        io.u64(&mut self.tx_credit_bytes)?;
        io.opt(&mut self.credit_gaps, |io, collected| {
            let (last, gaps) = &mut **collected;
            io.u64(&mut last.0)?;
            gaps.persist(io)
        })
    }
}

fn dequeue_event(now: SimTime, dlink: DLinkId, pkt: &Packet) -> TraceEvent {
    TraceEvent::PktDequeue {
        at: now,
        dlink: dlink.0,
        class: pkt.kind.trace_class(),
        flow: pkt.flow.0,
        bytes: pkt.size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, HostId};
    use crate::packet::{CREDIT_SIZE, MAX_FRAME};

    const G10: u64 = 10_000_000_000;

    fn port(credit: bool) -> EgressPort {
        EgressPort::new(
            DLinkId(0),
            G10,
            Dur::us(1),
            DataQueue::new(1 << 20),
            credit.then(|| CreditQueue::new(G10, 8)),
            None,
        )
    }

    fn data_pkt() -> Packet {
        let mut p = Packet::new(FlowId(0), HostId(0), HostId(1), PktKind::Data, MAX_FRAME);
        p.payload = 1460;
        p
    }

    fn credit_pkt() -> Packet {
        Packet::new(
            FlowId(0),
            HostId(1),
            HostId(0),
            PktKind::Credit,
            CREDIT_SIZE,
        )
    }

    fn rng() -> xpass_sim::rng::Rng {
        xpass_sim::rng::Rng::new(99)
    }

    /// RCP, HULL and the gap collector are boxed, so a port of any other
    /// run carries a word for each.
    #[test]
    fn port_boxes_what_few_runs_use() {
        let size = std::mem::size_of::<EgressPort>();
        assert!(size <= 352, "EgressPort is {size} B");
    }

    #[test]
    fn transmits_data_when_idle() {
        let mut p = port(false);
        p.data.enqueue(SimTime::ZERO, data_pkt());
        match p.try_transmit(SimTime::ZERO, None) {
            TxDecision::Transmit(pkt) => assert_eq!(pkt.size, MAX_FRAME),
            other => panic!("{other:?}"),
        }
        // Busy for one MTU time (1.2304us at 10G).
        assert!(p.is_busy(SimTime::ZERO + Dur::ns(1230)));
        assert!(!p.is_busy(SimTime::ZERO + Dur::ns(1231)));
        assert_eq!(p.tx_data_bytes, MAX_FRAME as u64);
    }

    #[test]
    fn idle_when_busy() {
        let mut p = port(false);
        p.data.enqueue(SimTime::ZERO, data_pkt());
        let _ = p.try_transmit(SimTime::ZERO, None);
        p.data.enqueue(SimTime::ZERO, data_pkt());
        match p.try_transmit(SimTime::ZERO + Dur::ns(100), None) {
            TxDecision::Idle => {}
            other => panic!("{other:?}"),
        }
        // After serialization completes, the next packet goes out.
        match p.try_transmit(p.tx_done_at(), None) {
            TxDecision::Transmit(_) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn conforming_credit_beats_data() {
        let mut p = port(true);
        p.data.enqueue(SimTime::ZERO, data_pkt());
        p.credit
            .as_mut()
            .unwrap()
            .enqueue(SimTime::ZERO, credit_pkt(), &mut rng());
        match p.try_transmit(SimTime::ZERO, None) {
            TxDecision::Transmit(pkt) => assert_eq!(pkt.kind, PktKind::Credit),
            other => panic!("{other:?}"),
        }
        assert_eq!(p.tx_credit_bytes, 84);
    }

    #[test]
    fn nonconforming_credit_yields_to_data() {
        let mut p = port(true);
        // Exhaust the meter burst.
        for _ in 0..2 {
            p.credit
                .as_mut()
                .unwrap()
                .enqueue(SimTime::ZERO, credit_pkt(), &mut rng());
        }
        let _ = p.try_transmit(SimTime::ZERO, None);
        let t1 = p.tx_done_at();
        let _ = p.try_transmit(t1, None);
        let t2 = p.tx_done_at();
        // Third credit has no tokens; data must flow instead.
        p.credit
            .as_mut()
            .unwrap()
            .enqueue(t2, credit_pkt(), &mut rng());
        p.data.enqueue(t2, data_pkt());
        match p.try_transmit(t2, None) {
            TxDecision::Transmit(pkt) => assert_eq!(pkt.kind, PktKind::Data),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn waits_for_meter_when_only_credits() {
        let mut p = port(true);
        for _ in 0..3 {
            p.credit
                .as_mut()
                .unwrap()
                .enqueue(SimTime::ZERO, credit_pkt(), &mut rng());
        }
        let _ = p.try_transmit(SimTime::ZERO, None); // burst 1
        let _ = p.try_transmit(p.tx_done_at(), None); // burst 2
        let t = p.tx_done_at();
        match p.try_transmit(t, None) {
            TxDecision::WaitUntil(w) => {
                assert!(w > t);
                // Asking again returns Idle (wake already pending).
                match p.try_transmit(t, None) {
                    TxDecision::Idle => {}
                    other => panic!("{other:?}"),
                }
                // At the wake time the credit goes out.
                match p.try_transmit(w, None) {
                    TxDecision::Transmit(pkt) => assert_eq!(pkt.kind, PktKind::Credit),
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_wake_idle_at_its_instant_is_a_no_op() {
        // What lets the network leave a wake unqueued: it would decide
        // `Idle` and change nothing a later decision reads.
        let mut p = port(true);
        p.data.enqueue(SimTime::ZERO, data_pkt());
        assert!(!p.idle_at(SimTime::ZERO));
        let _ = p.try_transmit(SimTime::ZERO, None);
        let done = p.tx_done_at();
        assert!(p.idle_at(done), "the only packet is on the wire");
        let before = (p.busy_until, p.token_wake, p.tx_bytes);
        assert!(matches!(p.try_transmit(done, None), TxDecision::Idle));
        assert_eq!(before, (p.busy_until, p.token_wake, p.tx_bytes));
        // A queued credit is work: no meter wake is pending for it yet.
        let cq = p.credit.as_mut().unwrap();
        cq.enqueue(done, credit_pkt(), &mut rng());
        assert!(!p.idle_at(done));

        // Once the meter holds a credit back and its wake is pending, a
        // wake before that time is idle, more credits behind the head or
        // not; at the meter's time, or with data queued, it is not.
        let mut now = done;
        let t = loop {
            match p.try_transmit(now, None) {
                TxDecision::Transmit(_) => now = p.tx_done_at(),
                TxDecision::WaitUntil(t) => break t,
                TxDecision::Idle => panic!("credits are queued"),
            }
            let cq = p.credit.as_mut().unwrap();
            cq.enqueue(now, credit_pkt(), &mut rng());
        };
        assert!(p.idle_at(now) && p.idle_at(SimTime(t.0 - 1)));
        assert!(!p.idle_at(t));
        let cq = p.credit.as_mut().unwrap();
        cq.enqueue(now, credit_pkt(), &mut rng());
        assert!(p.idle_at(now), "the head is unchanged");
        assert!(matches!(p.try_transmit(now, None), TxDecision::Idle));
        p.data.enqueue(now, data_pkt());
        assert!(!p.idle_at(now));
    }

    #[test]
    fn empty_port_is_idle() {
        let mut p = port(true);
        match p.try_transmit(SimTime::ZERO, None) {
            TxDecision::Idle => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn credit_class_throughput_is_metered() {
        // Saturate the credit queue for 10ms; credits transmitted must match
        // the 5.18% meter, leaving the rest for data.
        let mut p = port(true);
        let mut now = SimTime::ZERO;
        let horizon = SimTime::ZERO + Dur::ms(10);
        let mut queued = 0;
        while now < horizon {
            let cq = p.credit.as_mut().unwrap();
            while cq.len() < 8 && queued < 100_000 {
                cq.enqueue(now, credit_pkt(), &mut rng());
                queued += 1;
            }
            match p.try_transmit(now, None) {
                TxDecision::Transmit(_) => now = p.tx_done_at(),
                TxDecision::WaitUntil(w) => now = w,
                TxDecision::Idle => break,
            }
        }
        let rate = p.tx_credit_bytes as f64 * 8.0 / 0.01;
        let expect = 10e9 * 84.0 / 1622.0;
        assert!(
            (rate - expect).abs() / expect < 0.01,
            "credit rate {rate:.3e} vs {expect:.3e}"
        );
    }
}
