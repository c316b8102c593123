//! Egress-port queues: the drop-tail data queue (with optional ECN marking
//! and a HULL phantom queue) and the tiny leaky-bucket-metered credit queue.
//!
//! Credit queues follow §3.1/§5 of the paper: a separate per-port class with
//! a fixed buffer of a handful of credit packets ("buffer carving"), paced by
//! maximum-bandwidth metering with a burst of 2 credits, so at peak rate
//! credits are spaced exactly one MTU-time apart.
//!
//! Each enqueue reports its outcome and the network books it: credit drops
//! and ECN marks are counted once, in the network's counters. A data queue
//! keeps only what reports read — its tail drops (the one count of control
//! and ACK drops) and its time-weighted occupancy, whose maximum is the
//! queue's peak; a credit queue keeps no statistics.
//!
//! Both rings hold 8-byte [`Queued`] slots: a handle into the network's
//! [`Packets`] store and the packet's wire size, which is all that byte
//! counts, the meter and the port's idle test read. The queue stamps the
//! packet in place (ECN mark, enqueue time, queuing delay), and frees
//! every packet it drops.

use crate::packet::{Packets, PktRef, CREDIT_SIZE};
use std::collections::VecDeque;
use xpass_sim::bucket::TokenBucket;
use xpass_sim::event::prefetch_obj;
use xpass_sim::stats::TimeWeighted;
use xpass_sim::time::SimTime;

/// ECN marking configuration for a data queue.
#[derive(Clone, Copy, Debug)]
pub struct EcnCfg {
    /// Instantaneous marking threshold in bytes (DCTCP's K).
    pub k_bytes: u64,
}

/// HULL phantom ("virtual") queue: a counter that drains at a fraction of
/// link speed and marks ECN when it exceeds a threshold, signalling
/// congestion *before* any real queue forms.
#[derive(Clone, Debug)]
pub struct PhantomQueue {
    /// Drain rate in bits per second (γ·C, e.g. 0.95·C).
    pub drain_bps: u64,
    /// Marking threshold in bytes.
    pub thresh_bytes: u64,
    vq_bits: u128,
    last: SimTime,
}

impl PhantomQueue {
    /// New phantom queue draining at `drain_bps`, marking above
    /// `thresh_bytes`.
    pub fn new(drain_bps: u64, thresh_bytes: u64) -> PhantomQueue {
        PhantomQueue {
            drain_bps,
            thresh_bytes,
            vq_bits: 0,
            last: SimTime::ZERO,
        }
    }

    /// Account a packet of `bytes` arriving at `now`; returns `true` if the
    /// packet must be ECN-marked.
    pub fn on_packet(&mut self, now: SimTime, bytes: u32) -> bool {
        let dt_ps = now.since(self.last).as_ps() as u128;
        self.last = now;
        let drained = dt_ps * self.drain_bps as u128 / 1_000_000_000_000;
        self.vq_bits = self.vq_bits.saturating_sub(drained);
        self.vq_bits += bytes as u128 * 8;
        self.vq_bits > self.thresh_bytes as u128 * 8
    }

    /// Current virtual queue length in bytes.
    pub fn len_bytes(&self) -> u64 {
        (self.vq_bits / 8) as u64
    }
}

/// Statistics a data queue keeps: only what a report reads.
#[derive(Clone, Debug, Default)]
pub struct QueueStats {
    /// Packets dropped at the tail: the only count of control and ACK
    /// tail drops (data tail drops are also in the network's counters).
    pub dropped: u64,
    /// Time-weighted occupancy (bytes) and its maximum.
    pub occupancy: TimeWeighted,
}

/// What happened to a packet offered to a [`DataQueue`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnqueueOutcome {
    /// The packet was accepted (false = tail drop).
    pub accepted: bool,
    /// The packet picked up an ECN mark on this enqueue (it arrived
    /// unmarked and left the admission path marked).
    pub newly_marked: bool,
    /// Queue occupancy in bytes after the operation.
    pub qlen_bytes: u64,
}

/// One ring slot: a packet in the store and its wire size.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Queued {
    /// The queued packet.
    pub pkt: PktRef,
    /// Its wire size in bytes.
    pub size: u32,
}

impl Queued {
    /// Snapshot traversal: the packet, written where its handle sits.
    fn persist(&mut self, io: &mut SnapIo, store: &mut Packets) -> Result<(), SnapError> {
        store.persist(io, &mut self.pkt)?;
        self.size = store.get(self.pkt).size;
        Ok(())
    }
}

/// Prefetch a ring's head and its next free slot.
#[inline]
fn prefetch_ring(q: &VecDeque<Queued>) {
    let head = q.as_slices().0.as_ptr();
    prefetch_obj(head);
    // Ignores wrap-around: a hint may miss, it cannot be wrong.
    prefetch_obj(head.wrapping_add(q.len()));
}

/// Drop-tail FIFO data queue with optional ECN and phantom-queue marking.
#[derive(Debug)]
pub struct DataQueue {
    q: VecDeque<Queued>,
    len_bytes: u64,
    cap_bytes: u64,
    /// ECN marking config, if enabled.
    pub ecn: Option<EcnCfg>,
    /// HULL phantom queue, if enabled (boxed: only HULL runs have one).
    pub phantom: Option<Box<PhantomQueue>>,
    /// Occupancy and tail-drop counters.
    pub stats: QueueStats,
}

impl DataQueue {
    /// New queue with the given byte capacity.
    pub fn new(cap_bytes: u64) -> DataQueue {
        DataQueue {
            q: VecDeque::new(),
            len_bytes: 0,
            cap_bytes,
            ecn: None,
            phantom: None,
            stats: QueueStats::default(),
        }
    }

    /// Attempt to enqueue the packet `r` of `size` wire bytes, counting
    /// (and freeing) a tail drop when it does not fit and applying
    /// ECN/phantom marking to an accepted one; the [`EnqueueOutcome`] says
    /// which (accepted / newly ECN-marked / resulting occupancy).
    pub fn enqueue(
        &mut self,
        now: SimTime,
        r: PktRef,
        size: u32,
        store: &mut Packets,
    ) -> EnqueueOutcome {
        if self.len_bytes + size as u64 > self.cap_bytes {
            self.stats.dropped += 1;
            store.free(r);
            return EnqueueOutcome {
                accepted: false,
                newly_marked: false,
                qlen_bytes: self.len_bytes,
            };
        }
        let pkt = store.get_mut(r);
        let was_marked = pkt.ecn;
        self.len_bytes += size as u64;
        self.stats.occupancy.set(now, self.len_bytes as f64);
        if let Some(ecn) = self.ecn {
            // DCTCP marks on instantaneous queue exceeding K at arrival.
            if self.len_bytes > ecn.k_bytes {
                pkt.ecn = true;
            }
        }
        if let Some(ph) = self.phantom.as_mut() {
            if ph.on_packet(now, size) {
                pkt.ecn = true;
            }
        }
        let newly_marked = pkt.ecn && !was_marked;
        pkt.enq_t = now;
        self.q.push_back(Queued { pkt: r, size });
        EnqueueOutcome {
            accepted: true,
            newly_marked,
            qlen_bytes: self.len_bytes,
        }
    }

    /// Dequeue the head packet, updating its accumulated queuing delay.
    pub fn dequeue(&mut self, now: SimTime, store: &mut Packets) -> Option<PktRef> {
        let Queued { pkt: r, size } = self.q.pop_front()?;
        self.len_bytes -= size as u64;
        self.stats.occupancy.set(now, self.len_bytes as f64);
        let pkt = store.get_mut(r);
        pkt.qdelay += now.since(pkt.enq_t);
        Some(r)
    }

    /// Drop (and free) every queued packet (hard port reset, e.g. a
    /// flushing link failure). Returns the packets and bytes discarded;
    /// they are *not* counted in `stats.dropped`, which tracks tail drops
    /// only.
    pub fn flush(&mut self, now: SimTime, store: &mut Packets) -> (usize, u64) {
        let n = self.q.len();
        let bytes = self.len_bytes;
        self.q.drain(..).for_each(|s| store.free(s.pkt));
        self.len_bytes = 0;
        self.stats.occupancy.set(now, 0.0);
        (n, bytes)
    }

    /// Hint that the head slot and the next free ring slot are about
    /// to be touched (lookahead prefetch; reads only the inline header).
    #[inline]
    pub fn prefetch_ring(&self) {
        prefetch_ring(&self.q);
    }

    /// Current length in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.len_bytes
    }

    /// Current length in packets.
    pub fn len_pkts(&self) -> usize {
        self.q.len()
    }

    /// True when no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Capacity in bytes.
    pub fn cap_bytes(&self) -> u64 {
        self.cap_bytes
    }
}

/// How a full credit queue sheds load.
///
/// Credit drops *are* ExpressPass's congestion signal, and fairness requires
/// them to fall uniformly across flows (§3.1 "Ensuring fair credit drop").
/// `Tail` models a plain drop-tail buffer, whose arrival-order sensitivity
/// the paper shows causes severe unfairness under synchronized pacing
/// (Fig 6a); `UniformRandom` drops a uniformly random credit among the
/// queued ones and the arrival — the idealized behaviour the paper's
/// end-host jitter and credit-size randomization approximate on commodity
/// drop-tail hardware.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CreditDropPolicy {
    /// Drop the arriving credit when full.
    Tail,
    /// Drop a uniformly random credit among residents + arrival when full.
    UniformRandom,
    /// Drop the oldest credit of the flow occupying the most queue slots
    /// (counting the arrival). Longest-queue-drop sheds load proportionally
    /// with far lower per-flow variance than uniform random choice, which
    /// keeps per-RTT loss estimates stable — the low-noise behaviour the
    /// paper's deterministically-paced testbed exhibits.
    LongestQueueDrop,
}

/// What happened to a credit offered to a [`CreditQueue`]: on overflow
/// exactly one credit dies — the arrival or an evicted resident, whose
/// sizes can differ under the §3.1 size randomization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CreditEnqueueOutcome {
    /// Wire bytes of the credit dropped by this enqueue (`None` = clean
    /// admission, no drop).
    pub dropped_bytes: Option<u32>,
}

/// The credit-class queue at an egress port: one tiny FIFO (4–8 credits)
/// drained through a token bucket at the credit rate limit.
#[derive(Debug)]
pub struct CreditQueue {
    q: VecDeque<Queued>,
    cap_pkts: usize,
    /// Overflow behaviour.
    pub drop_policy: CreditDropPolicy,
    /// Leaky bucket enforcing the credit rate (burst = 2 credits).
    pub bucket: TokenBucket,
}

impl CreditQueue {
    /// New credit queue for a link of `link_bps`, buffering at most
    /// `cap_pkts` credits (paper default 8).
    pub fn new(link_bps: u64, cap_pkts: usize) -> CreditQueue {
        let rate = crate::packet::credit_rate_bps(link_bps);
        CreditQueue {
            q: VecDeque::with_capacity(cap_pkts),
            cap_pkts,
            drop_policy: CreditDropPolicy::UniformRandom,
            bucket: TokenBucket::new(rate, 2 * CREDIT_SIZE as u64),
        }
    }

    /// Hint that the head slot and the next free ring slot are about to
    /// be touched (lookahead prefetch; reads only the inline header).
    #[inline]
    pub fn prefetch_ring(&self) {
        prefetch_ring(&self.q);
    }

    /// Attempt to enqueue the credit `r` of `size` wire bytes. On
    /// overflow one credit is dropped (and freed) according to
    /// [`drop_policy`](Self::drop_policy) — the arrival may still be
    /// admitted at the expense of a resident — and the outcome reports the
    /// dropped credit's size. Credit sizes are randomized (84–92 B, §3.1),
    /// so an evicted resident's size can differ from the arrival's —
    /// conservation ledgers need the victim's true size. The queue counts
    /// nothing: the network books every drop.
    pub fn enqueue(
        &mut self,
        now: SimTime,
        r: PktRef,
        size: u32,
        store: &mut Packets,
        rng: &mut xpass_sim::rng::Rng,
    ) -> CreditEnqueueOutcome {
        let q = &mut self.q;
        let mut dropped_bytes = None;
        if q.len() >= self.cap_pkts {
            let victim = match self.drop_policy {
                CreditDropPolicy::Tail => None,
                CreditDropPolicy::UniformRandom => {
                    // `q.len()` is the arrival itself.
                    Some(rng.index(q.len() + 1)).filter(|&v| v < q.len())
                }
                CreditDropPolicy::LongestQueueDrop => {
                    // Count per-flow occupancy among residents + arrival.
                    let flow = |s: &Queued| store.get(s.pkt).flow;
                    let arrival = store.get(r).flow;
                    let mut best_flow = arrival;
                    let mut best_count = 1usize;
                    for c in q.iter() {
                        let n = q.iter().filter(|o| flow(o) == flow(c)).count()
                            + usize::from(arrival == flow(c));
                        if n > best_count {
                            best_count = n;
                            best_flow = flow(c);
                        }
                    }
                    // The oldest credit of the most-represented flow; none
                    // when the arrival's flow is the (singleton) max.
                    q.iter().position(|c| flow(c) == best_flow)
                }
            };
            let Some(victim) = victim else {
                store.free(r);
                return CreditEnqueueOutcome {
                    dropped_bytes: Some(size),
                };
            };
            // Evict the victim and append the arrival at the tail: FIFO
            // order of surviving credits must be preserved, or echoed
            // sequence numbers reorder and the receiver miscounts losses.
            let evicted = q.remove(victim).expect("victim index in range");
            store.free(evicted.pkt);
            dropped_bytes = Some(evicted.size);
        }
        store.get_mut(r).enq_t = now;
        q.push_back(Queued { pkt: r, size });
        CreditEnqueueOutcome { dropped_bytes }
    }

    /// Whether the head credit conforms to the meter right now. Metering is
    /// in actual wire bytes, so the 84–92 B size randomization (§3.1)
    /// translates into jittered drain times at every switch — the mechanism
    /// the paper uses to break credit-drop synchronization across switches.
    pub fn head_conforms(&mut self, now: SimTime) -> bool {
        match self.head_bytes() {
            Some(sz) => self.bucket.conforms(now, sz as u64),
            None => false,
        }
    }

    /// Earliest time the head credit could conform (`None` if empty).
    pub fn head_ready_at(&mut self, now: SimTime) -> Option<SimTime> {
        let sz = self.head_bytes()?;
        Some(self.bucket.time_until_conforming(now, sz as u64))
    }

    /// Wire bytes of the head credit, the one the meter admits next
    /// (`None` if empty). With the meter untouched, its ready time depends
    /// on nothing else.
    pub fn head_bytes(&self) -> Option<u32> {
        self.q.front().map(|s| s.size)
    }

    /// Dequeue the head credit, consuming meter tokens.
    pub fn dequeue(&mut self, now: SimTime, store: &mut Packets) -> Option<PktRef> {
        let Queued { pkt: r, size } = self.q.pop_front()?;
        self.bucket.consume(now, size as u64);
        let pkt = store.get_mut(r);
        pkt.qdelay += now.since(pkt.enq_t);
        Some(r)
    }

    /// Drop (and free) every queued credit without touching the meter
    /// (hard port reset). Returns the credits and wire bytes discarded; the
    /// network books them as fault losses, not as credit drops, which are
    /// the congestion signal.
    pub fn flush(&mut self, store: &mut Packets) -> (usize, u64) {
        let n = self.len();
        let bytes = self.len_bytes();
        self.q.drain(..).for_each(|s| store.free(s.pkt));
        (n, bytes)
    }

    /// Credits currently queued.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Wire bytes currently queued.
    pub fn len_bytes(&self) -> u64 {
        self.q.iter().map(|s| s.size as u64).sum()
    }

    /// True when no credits are queued.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Buffer capacity, in credits.
    pub fn cap_pkts(&self) -> usize {
        self.cap_pkts
    }
}

// --- Snapshot traversal -----------------------------------------------------
//
// Queues capture queued packets, the credit meter and the data queue's
// statistics; capacities, ECN thresholds, drop policies, and meter rates
// are configuration rebuilt by setup.

use xpass_sim::snap::{SnapError, SnapIo};

impl QueueStats {
    /// Snapshot traversal.
    pub fn persist(&mut self, io: &mut SnapIo) -> Result<(), SnapError> {
        io.u64(&mut self.dropped)?;
        self.occupancy.persist(io)
    }
}

impl PhantomQueue {
    /// Snapshot traversal.
    pub fn persist(&mut self, io: &mut SnapIo) -> Result<(), SnapError> {
        io.u128(&mut self.vq_bits)?;
        io.u64(&mut self.last.0)
    }
}

impl DataQueue {
    /// Snapshot traversal; the queued packets live in `store`.
    pub fn persist(&mut self, io: &mut SnapIo, store: &mut Packets) -> Result<(), SnapError> {
        io.seq(&mut self.q, 8, |io, s: &mut Queued| s.persist(io, store))?;
        if io.reading() {
            // The byte count is the queued packets' sum, never a stored
            // figure that could disagree with them.
            self.len_bytes = self.q.iter().map(|s| s.size as u64).sum();
        }
        let mut had_phantom = self.phantom.is_some();
        io.bool(&mut had_phantom)?;
        match (had_phantom, self.phantom.as_mut()) {
            (true, Some(ph)) => ph.persist(io)?,
            (false, None) => {}
            (true, None) => {
                return Err(io.err("snapshot has a phantom queue, configuration does not"))
            }
            (false, Some(_)) => {
                return Err(io.err("configuration has a phantom queue, snapshot does not"))
            }
        }
        self.stats.persist(io)
    }

    /// The queued packets, head first.
    pub(crate) fn packets(&self) -> impl Iterator<Item = PktRef> + '_ {
        self.q.iter().map(|s| s.pkt)
    }
}

impl CreditQueue {
    /// Snapshot traversal; the queued credits live in `store`.
    pub fn persist(&mut self, io: &mut SnapIo, store: &mut Packets) -> Result<(), SnapError> {
        io.seq(&mut self.q, 8, |io, s: &mut Queued| s.persist(io, store))?;
        self.bucket.persist(io)
    }

    /// The queued credits, head first.
    pub(crate) fn packets(&self) -> impl Iterator<Item = PktRef> + '_ {
        self.q.iter().map(|s| s.pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, HostId};
    use crate::packet::{Packet, PktKind};
    use xpass_sim::time::Dur;

    /// Store `pkt` and offer it to `q`.
    fn offer(q: &mut DataQueue, store: &mut Packets, now: SimTime, pkt: Packet) -> EnqueueOutcome {
        let size = pkt.size;
        let r = store.store(pkt);
        q.enqueue(now, r, size, store)
    }

    /// Dequeue `q`'s head and take it out of the store.
    fn take(q: &mut DataQueue, store: &mut Packets, now: SimTime) -> Option<Packet> {
        q.dequeue(now, store).map(|r| store.take(r))
    }

    /// Store a credit and offer it to `cq`.
    fn offer_credit(
        cq: &mut CreditQueue,
        store: &mut Packets,
        now: SimTime,
        rng: &mut xpass_sim::rng::Rng,
    ) -> CreditEnqueueOutcome {
        let r = store.store(credit_pkt());
        cq.enqueue(now, r, CREDIT_SIZE, store, rng)
    }

    fn data_pkt(size: u32) -> Packet {
        Packet::new(FlowId(0), HostId(0), HostId(1), PktKind::Data, size)
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

    #[test]
    fn droptail_drops_when_full() {
        let (mut q, mut st) = (DataQueue::new(3000), Packets::new());
        assert!(offer(&mut q, &mut st, SimTime::ZERO, data_pkt(1538)).accepted);
        assert!(offer(&mut q, &mut st, SimTime::ZERO, data_pkt(1400)).accepted);
        assert!(!offer(&mut q, &mut st, SimTime::ZERO, data_pkt(100)).accepted);
        assert_eq!(q.stats.dropped, 1);
        assert_eq!(q.len_bytes(), 2938);
        assert_eq!(q.len_pkts(), 2);
        assert_eq!(st.live(), 2, "the tail drop is freed");
    }

    #[test]
    fn fifo_order_and_qdelay() {
        let (mut q, mut st) = (DataQueue::new(1 << 20), Packets::new());
        let mut p1 = data_pkt(100);
        p1.seq = 1;
        let mut p2 = data_pkt(100);
        p2.seq = 2;
        offer(&mut q, &mut st, SimTime::ZERO, p1);
        offer(&mut q, &mut st, SimTime::ZERO, p2);
        let out = take(&mut q, &mut st, SimTime::ZERO + Dur::us(5)).unwrap();
        assert_eq!(out.seq, 1);
        assert_eq!(out.qdelay, Dur::us(5));
        let out2 = take(&mut q, &mut st, SimTime::ZERO + Dur::us(9)).unwrap();
        assert_eq!(out2.seq, 2);
        assert_eq!(out2.qdelay, Dur::us(9));
        assert!(take(&mut q, &mut st, SimTime::ZERO + Dur::us(9)).is_none());
    }

    #[test]
    fn ecn_marks_above_k() {
        let (mut q, mut st) = (DataQueue::new(1 << 20), Packets::new());
        q.ecn = Some(EcnCfg { k_bytes: 3000 });
        let clean = offer(&mut q, &mut st, SimTime::ZERO, data_pkt(1538)); // 1538 ≤ 3000
        let marked = offer(&mut q, &mut st, SimTime::ZERO, data_pkt(1538)); // 3076 > 3000
        assert!(clean.accepted && !clean.newly_marked);
        assert!(marked.accepted && marked.newly_marked);
        let a = take(&mut q, &mut st, SimTime::ZERO).unwrap();
        let b = take(&mut q, &mut st, SimTime::ZERO).unwrap();
        assert!(!a.ecn);
        assert!(b.ecn);
    }

    #[test]
    fn phantom_queue_marks_when_over_virtual_capacity() {
        // Drain at 95% of 10G; feed at 10G for a while → vq grows, marks.
        let mut ph = PhantomQueue::new(9_500_000_000, 3000);
        let mut now = SimTime::ZERO;
        let mut marked = false;
        for _ in 0..1000 {
            marked |= ph.on_packet(now, 1538);
            now += xpass_sim::time::tx_time(1538, 10_000_000_000);
        }
        assert!(marked, "vq={}", ph.len_bytes());
    }

    #[test]
    fn phantom_queue_stays_clean_below_drain_rate() {
        // Feed at 50% of drain rate → no marking.
        let mut ph = PhantomQueue::new(9_500_000_000, 3000);
        let mut now = SimTime::ZERO;
        for _ in 0..1000 {
            assert!(!ph.on_packet(now, 1538));
            now += xpass_sim::time::tx_time(1538, 5_000_000_000).mul_f64(2.0);
        }
    }

    #[test]
    fn credit_queue_caps_at_configured_depth() {
        let (mut cq, mut st) = (CreditQueue::new(10_000_000_000, 8), Packets::new());
        for _ in 0..8 {
            let out = offer_credit(&mut cq, &mut st, SimTime::ZERO, &mut rng());
            assert_eq!(out.dropped_bytes, None);
        }
        // Exactly one credit dies on overflow, whichever policy picks it.
        let full = offer_credit(&mut cq, &mut st, SimTime::ZERO, &mut rng());
        assert_eq!(full.dropped_bytes, Some(CREDIT_SIZE));
        assert_eq!(cq.len(), 8);
        assert_eq!(cq.cap_pkts(), 8);
        assert_eq!(st.live(), 8, "the dropped credit is freed");
    }

    #[test]
    fn credit_queue_metering_paces_credits() {
        let (mut cq, mut st) = (CreditQueue::new(10_000_000_000, 8), Packets::new());
        for _ in 0..4 {
            offer_credit(&mut cq, &mut st, SimTime::ZERO, &mut rng());
        }
        // Burst of 2 allowed immediately.
        assert!(cq.head_conforms(SimTime::ZERO));
        cq.dequeue(SimTime::ZERO, &mut st);
        assert!(cq.head_conforms(SimTime::ZERO));
        cq.dequeue(SimTime::ZERO, &mut st);
        // Third credit must wait ~one credit interval (1622B at 10G ≈ 1.3us).
        assert!(!cq.head_conforms(SimTime::ZERO));
        let ready = cq.head_ready_at(SimTime::ZERO).unwrap();
        let ps = ready.as_ps();
        assert!((1_290_000..1_310_000).contains(&ps), "ready at {ps}ps");
    }

    #[test]
    fn credit_queue_empty_behaviour() {
        let mut cq = CreditQueue::new(10_000_000_000, 8);
        assert!(!cq.head_conforms(SimTime::ZERO));
        assert!(cq.head_ready_at(SimTime::ZERO).is_none());
        assert!(cq.dequeue(SimTime::ZERO, &mut Packets::new()).is_none());
        assert!(cq.is_empty());
    }

    #[test]
    fn enqueue_outcome_reports_admission_and_marking() {
        let (mut q, mut st) = (DataQueue::new(4000), Packets::new());
        q.ecn = Some(EcnCfg { k_bytes: 1600 });
        let ok = offer(&mut q, &mut st, SimTime::ZERO, data_pkt(1538));
        assert!(ok.accepted);
        assert!(!ok.newly_marked);
        assert_eq!(ok.qlen_bytes, 1538);
        let marked = offer(&mut q, &mut st, SimTime::ZERO, data_pkt(1538));
        assert!(marked.accepted);
        assert!(marked.newly_marked, "3076 > K=1600");
        assert_eq!(marked.qlen_bytes, 3076);
        // Already-marked arrivals are not "newly" marked.
        let mut pre = data_pkt(100);
        pre.ecn = true;
        let pre_out = offer(&mut q, &mut st, SimTime::ZERO, pre);
        assert!(pre_out.accepted && !pre_out.newly_marked);
        // Overflow: rejected, occupancy unchanged.
        let full = offer(&mut q, &mut st, SimTime::ZERO, data_pkt(1538));
        assert!(!full.accepted);
        assert_eq!(full.qlen_bytes, 3176);
        assert_eq!(q.stats.dropped, 1);
    }

    #[test]
    fn occupancy_stats_track_time_weighted_mean() {
        let (mut q, mut st) = (DataQueue::new(1 << 20), Packets::new());
        offer(&mut q, &mut st, SimTime::ZERO, data_pkt(1000));
        q.dequeue(SimTime::ZERO + Dur::us(10), &mut st);
        q.stats.occupancy.finish(SimTime::ZERO + Dur::us(20));
        // 1000B for 10us, 0 for 10us → mean 500.
        assert!((q.stats.occupancy.mean() - 500.0).abs() < 1.0);
        assert_eq!(q.stats.occupancy.max(), 1000.0);
    }

    /// A restored data queue's byte count is the sum of its restored
    /// packets, so the next dequeue subtracts exactly what is queued.
    #[test]
    fn data_queue_byte_count_comes_from_its_packets() {
        use xpass_sim::snap::{SnapIo, SnapReader, SnapWriter};
        let (mut q, mut st) = (DataQueue::new(1 << 20), Packets::new());
        for size in [1538, 64, 900] {
            offer(&mut q, &mut st, SimTime::ZERO, data_pkt(size));
        }
        let mut w = SnapWriter::new();
        q.persist(&mut SnapIo::Write(&mut w), &mut st).unwrap();
        let body = w.into_body();

        let (mut twin, mut twin_st) = (DataQueue::new(1 << 20), Packets::new());
        let mut r = SnapIo::Read(SnapReader::new(&body, 0));
        twin.persist(&mut r, &mut twin_st).unwrap();
        r.expect_end().unwrap();
        let queued: u64 = twin.packets().map(|p| twin_st.get(p).size as u64).sum();
        assert_eq!(twin.len_bytes(), queued);
        assert_eq!(twin.len_bytes(), 2502);
        assert_eq!(twin.len_pkts(), 3);
        assert_eq!(twin_st.live(), 3, "a restore stores each queued packet");
        for left in [964, 900, 0] {
            twin.dequeue(SimTime::ZERO, &mut twin_st);
            assert_eq!(twin.len_bytes(), left);
        }
    }
}
