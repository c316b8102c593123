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

use crate::packet::{Packet, CREDIT_SIZE};
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

/// Prefetch a packet ring's head and its next free slot.
#[inline]
fn prefetch_ring(q: &VecDeque<Packet>) {
    let head = q.as_slices().0.as_ptr();
    prefetch_obj(head);
    // Ignores wrap-around: a hint may miss, it cannot be wrong.
    prefetch_obj(head.wrapping_add(q.len()));
}

/// Drop-tail FIFO data queue with optional ECN and phantom-queue marking.
#[derive(Debug)]
pub struct DataQueue {
    q: VecDeque<Packet>,
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

    /// Attempt to enqueue, counting a tail drop when the packet does not
    /// fit and applying ECN/phantom marking to an accepted one; the
    /// [`EnqueueOutcome`] says which (accepted / newly ECN-marked /
    /// resulting occupancy).
    pub fn enqueue(&mut self, now: SimTime, mut pkt: Packet) -> EnqueueOutcome {
        if self.len_bytes + pkt.size as u64 > self.cap_bytes {
            self.stats.dropped += 1;
            return EnqueueOutcome {
                accepted: false,
                newly_marked: false,
                qlen_bytes: self.len_bytes,
            };
        }
        let was_marked = pkt.ecn;
        self.len_bytes += pkt.size as u64;
        self.stats.occupancy.set(now, self.len_bytes as f64);
        if let Some(ecn) = self.ecn {
            // DCTCP marks on instantaneous queue exceeding K at arrival.
            if self.len_bytes > ecn.k_bytes {
                pkt.ecn = true;
            }
        }
        if let Some(ph) = self.phantom.as_mut() {
            if ph.on_packet(now, pkt.size) {
                pkt.ecn = true;
            }
        }
        let newly_marked = pkt.ecn && !was_marked;
        pkt.enq_t = now;
        self.q.push_back(pkt);
        EnqueueOutcome {
            accepted: true,
            newly_marked,
            qlen_bytes: self.len_bytes,
        }
    }

    /// Dequeue the head packet, updating its accumulated queuing delay.
    pub fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        let mut pkt = self.q.pop_front()?;
        self.len_bytes -= pkt.size as u64;
        self.stats.occupancy.set(now, self.len_bytes as f64);
        pkt.qdelay += now.since(pkt.enq_t);
        Some(pkt)
    }

    /// Drop every queued packet (hard port reset, e.g. a flushing link
    /// failure). Returns the packets and bytes discarded; they are *not*
    /// counted in `stats.dropped`, which tracks tail drops only.
    pub fn flush(&mut self, now: SimTime) -> (usize, u64) {
        let n = self.q.len();
        let bytes = self.len_bytes;
        self.q.clear();
        self.len_bytes = 0;
        self.stats.occupancy.set(now, 0.0);
        (n, bytes)
    }

    /// Hint that the head packet and the next free ring slot are about
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
    q: VecDeque<Packet>,
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

    /// Hint that the head credit and the next free ring slot are about to
    /// be touched (lookahead prefetch; reads only the inline header).
    #[inline]
    pub fn prefetch_ring(&self) {
        prefetch_ring(&self.q);
    }

    /// Attempt to enqueue a credit. On overflow one credit is dropped
    /// according to [`drop_policy`](Self::drop_policy) — the arrival may
    /// still be admitted at the expense of a resident — and the outcome
    /// reports the dropped credit's size. Credit sizes are
    /// randomized (84–92 B, §3.1), so an evicted resident's size can differ
    /// from the arrival's — conservation ledgers need the victim's true
    /// size. The queue counts nothing: the network books every drop.
    pub fn enqueue(
        &mut self,
        now: SimTime,
        mut pkt: Packet,
        rng: &mut xpass_sim::rng::Rng,
    ) -> CreditEnqueueOutcome {
        let q = &mut self.q;
        if q.len() >= self.cap_pkts {
            match self.drop_policy {
                CreditDropPolicy::Tail => {
                    return CreditEnqueueOutcome {
                        dropped_bytes: Some(pkt.size),
                    }
                }
                CreditDropPolicy::UniformRandom => {
                    let victim = rng.index(q.len() + 1);
                    if victim == q.len() {
                        // The arrival itself is the victim.
                        return CreditEnqueueOutcome {
                            dropped_bytes: Some(pkt.size),
                        };
                    }
                    // Evict the victim and append the arrival at the tail:
                    // FIFO order of surviving credits must be preserved, or
                    // echoed sequence numbers reorder and the receiver
                    // miscounts losses.
                    let evicted = q.remove(victim).expect("victim index in range");
                    pkt.enq_t = now;
                    q.push_back(pkt);
                    return CreditEnqueueOutcome {
                        dropped_bytes: Some(evicted.size),
                    };
                }
                CreditDropPolicy::LongestQueueDrop => {
                    // Count per-flow occupancy among residents + arrival.
                    let mut best_flow = pkt.flow;
                    let mut best_count = 1usize;
                    for c in q.iter() {
                        let n = q.iter().filter(|o| o.flow == c.flow).count()
                            + usize::from(pkt.flow == c.flow);
                        if n > best_count {
                            best_count = n;
                            best_flow = c.flow;
                        }
                    }
                    if best_flow == pkt.flow && !q.iter().any(|c| c.flow == pkt.flow) {
                        // Arrival's flow is the (singleton) max: drop it.
                        return CreditEnqueueOutcome {
                            dropped_bytes: Some(pkt.size),
                        };
                    }
                    // Evict the oldest credit of the most-represented flow.
                    let mut dropped = pkt.size;
                    if let Some(idx) = q.iter().position(|c| c.flow == best_flow) {
                        let evicted = q.remove(idx).expect("victim index in range");
                        dropped = evicted.size;
                        pkt.enq_t = now;
                        q.push_back(pkt);
                    }
                    return CreditEnqueueOutcome {
                        dropped_bytes: Some(dropped),
                    };
                }
            }
        }
        pkt.enq_t = now;
        q.push_back(pkt);
        CreditEnqueueOutcome {
            dropped_bytes: None,
        }
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
        self.q.front().map(|p| p.size)
    }

    /// Dequeue the head credit, consuming meter tokens.
    pub fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        let mut pkt = self.q.pop_front()?;
        self.bucket.consume(now, pkt.size as u64);
        pkt.qdelay += now.since(pkt.enq_t);
        Some(pkt)
    }

    /// Drop every queued credit without touching the meter (hard port
    /// reset). Returns the credits and wire bytes discarded; the network
    /// books them as fault losses, not as credit drops, which are the
    /// congestion signal.
    pub fn flush(&mut self) -> (usize, u64) {
        let n = self.len();
        let bytes = self.len_bytes();
        self.q.clear();
        (n, bytes)
    }

    /// Credits currently queued.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Wire bytes currently queued.
    pub fn len_bytes(&self) -> u64 {
        self.q.iter().map(|p| p.size as u64).sum()
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
    /// Snapshot traversal.
    pub fn persist(&mut self, io: &mut SnapIo) -> Result<(), SnapError> {
        io.seq(&mut self.q, 8, |io, p: &mut Packet| p.persist(io))?;
        if io.reading() {
            // The byte count is the queued packets' sum, never a stored
            // figure that could disagree with them.
            self.len_bytes = self.q.iter().map(|p| p.size as u64).sum();
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
    pub(crate) fn packets(&self) -> impl Iterator<Item = &Packet> {
        self.q.iter()
    }
}

impl CreditQueue {
    /// Snapshot traversal.
    pub fn persist(&mut self, io: &mut SnapIo) -> Result<(), SnapError> {
        io.seq(&mut self.q, 8, |io, p: &mut Packet| p.persist(io))?;
        self.bucket.persist(io)
    }

    /// The queued credits, head first.
    pub(crate) fn packets(&self) -> impl Iterator<Item = &Packet> {
        self.q.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, HostId};
    use crate::packet::PktKind;
    use xpass_sim::time::Dur;

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
        let mut q = DataQueue::new(3000);
        assert!(q.enqueue(SimTime::ZERO, data_pkt(1538)).accepted);
        assert!(q.enqueue(SimTime::ZERO, data_pkt(1400)).accepted);
        assert!(!q.enqueue(SimTime::ZERO, data_pkt(100)).accepted);
        assert_eq!(q.stats.dropped, 1);
        assert_eq!(q.len_bytes(), 2938);
        assert_eq!(q.len_pkts(), 2);
    }

    #[test]
    fn fifo_order_and_qdelay() {
        let mut q = DataQueue::new(1 << 20);
        let mut p1 = data_pkt(100);
        p1.seq = 1;
        let mut p2 = data_pkt(100);
        p2.seq = 2;
        q.enqueue(SimTime::ZERO, p1);
        q.enqueue(SimTime::ZERO, p2);
        let out = q.dequeue(SimTime::ZERO + Dur::us(5)).unwrap();
        assert_eq!(out.seq, 1);
        assert_eq!(out.qdelay, Dur::us(5));
        let out2 = q.dequeue(SimTime::ZERO + Dur::us(9)).unwrap();
        assert_eq!(out2.seq, 2);
        assert_eq!(out2.qdelay, Dur::us(9));
        assert!(q.dequeue(SimTime::ZERO + Dur::us(9)).is_none());
    }

    #[test]
    fn ecn_marks_above_k() {
        let mut q = DataQueue::new(1 << 20);
        q.ecn = Some(EcnCfg { k_bytes: 3000 });
        let clean = q.enqueue(SimTime::ZERO, data_pkt(1538)); // 1538 ≤ 3000
        let marked = q.enqueue(SimTime::ZERO, data_pkt(1538)); // 3076 > 3000
        assert!(clean.accepted && !clean.newly_marked);
        assert!(marked.accepted && marked.newly_marked);
        let a = q.dequeue(SimTime::ZERO).unwrap();
        let b = q.dequeue(SimTime::ZERO).unwrap();
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
        let mut cq = CreditQueue::new(10_000_000_000, 8);
        for _ in 0..8 {
            let out = cq.enqueue(SimTime::ZERO, credit_pkt(), &mut rng());
            assert_eq!(out.dropped_bytes, None);
        }
        // Exactly one credit dies on overflow, whichever policy picks it.
        let full = cq.enqueue(SimTime::ZERO, credit_pkt(), &mut rng());
        assert_eq!(full.dropped_bytes, Some(CREDIT_SIZE));
        assert_eq!(cq.len(), 8);
        assert_eq!(cq.cap_pkts(), 8);
    }

    #[test]
    fn credit_queue_metering_paces_credits() {
        let mut cq = CreditQueue::new(10_000_000_000, 8);
        for _ in 0..4 {
            cq.enqueue(SimTime::ZERO, credit_pkt(), &mut rng());
        }
        // Burst of 2 allowed immediately.
        assert!(cq.head_conforms(SimTime::ZERO));
        cq.dequeue(SimTime::ZERO);
        assert!(cq.head_conforms(SimTime::ZERO));
        cq.dequeue(SimTime::ZERO);
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
        assert!(cq.dequeue(SimTime::ZERO).is_none());
        assert!(cq.is_empty());
    }

    #[test]
    fn enqueue_outcome_reports_admission_and_marking() {
        let mut q = DataQueue::new(4000);
        q.ecn = Some(EcnCfg { k_bytes: 1600 });
        let ok = q.enqueue(SimTime::ZERO, data_pkt(1538));
        assert!(ok.accepted);
        assert!(!ok.newly_marked);
        assert_eq!(ok.qlen_bytes, 1538);
        let marked = q.enqueue(SimTime::ZERO, data_pkt(1538));
        assert!(marked.accepted);
        assert!(marked.newly_marked, "3076 > K=1600");
        assert_eq!(marked.qlen_bytes, 3076);
        // Already-marked arrivals are not "newly" marked.
        let mut pre = data_pkt(100);
        pre.ecn = true;
        let pre_out = q.enqueue(SimTime::ZERO, pre);
        assert!(pre_out.accepted && !pre_out.newly_marked);
        // Overflow: rejected, occupancy unchanged.
        let full = q.enqueue(SimTime::ZERO, data_pkt(1538));
        assert!(!full.accepted);
        assert_eq!(full.qlen_bytes, 3176);
        assert_eq!(q.stats.dropped, 1);
    }

    #[test]
    fn occupancy_stats_track_time_weighted_mean() {
        let mut q = DataQueue::new(1 << 20);
        q.enqueue(SimTime::ZERO, data_pkt(1000));
        q.dequeue(SimTime::ZERO + Dur::us(10));
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
        let mut q = DataQueue::new(1 << 20);
        for size in [1538, 64, 900] {
            q.enqueue(SimTime::ZERO, data_pkt(size));
        }
        let mut w = SnapWriter::new();
        q.persist(&mut SnapIo::Write(&mut w)).unwrap();
        let body = w.into_body();

        let mut twin = DataQueue::new(1 << 20);
        let mut r = SnapIo::Read(SnapReader::new(&body, 0));
        twin.persist(&mut r).unwrap();
        r.expect_end().unwrap();
        let queued: u64 = twin.packets().map(|p| p.size as u64).sum();
        assert_eq!(twin.len_bytes(), queued);
        assert_eq!(twin.len_bytes(), 2502);
        assert_eq!(twin.len_pkts(), 3);
        for left in [964, 900, 0] {
            twin.dequeue(SimTime::ZERO);
            assert_eq!(twin.len_bytes(), left);
        }
    }
}
