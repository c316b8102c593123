//! Property-based scheduler equivalence: randomized insert/pop sequences
//! driven through the calendar queue and the reference heap must produce
//! identical observable behavior — pop order (including same-timestamp
//! FIFO ties), peeks, lengths and processed counts. Seeded with
//! `xpass_sim::rng` only; no external property-testing dependency.
//!
//! The same scripts pin the scheduler's read-only lookahead
//! (`peek_staged`): what it names is what the following pops return, the
//! heap offers none, and a queue that is peeked at every step is
//! indistinguishable from a twin that never is.
//!
//! And they pin reserved positions (`reserve_seq` / `push_reserved`): a
//! position filled late pops exactly where an eager push would have, on
//! both schedulers and in every band, and one never filled is as if an
//! eager twin had queued a tombstone there and skipped it.
//!
//! Heap and calendar queues share the same-instant lane above the
//! scheduler, so comparing the two cannot catch a fault of the lane. The
//! lane's oracle is [`Bare`]: a plain `BinaryHeap` of `(time, seq)` keys
//! with no lane at all, which both queues are held to pop for pop —
//! through same-instant pushes, reservations filled at the current
//! instant (older ones too, which bypass the lane), `advance_to`,
//! snapshots taken while the lane holds entries, and lookahead.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use xpass_sim::event::{EventQueue, SchedulerKind};
use xpass_sim::rng::Rng;
use xpass_sim::snap::{SnapIo, SnapReader, SnapWriter};
use xpass_sim::time::SimTime;

/// Time deltas that exercise every band of the calendar: zero (ties and
/// behind-cursor inserts), sub-bucket, multi-bucket, window-crossing, and
/// multi-window far-future jumps.
fn random_delta(rng: &mut Rng) -> u64 {
    match rng.below(10) {
        0 => 0,
        1..=4 => rng.below(1 << 20),           // within one ~1 µs bucket
        5..=7 => rng.below(1 << 27),           // across buckets
        8 => rng.below(1 << 31),               // crosses the ~1 ms window
        _ => (1 << 30) * (1 + rng.below(100)), // far future, many windows
    }
}

/// How far ahead the lookahead properties peek (the engine uses 0 and 1).
const PEEK_DEPTH: usize = 4;

struct Pair {
    /// The reference the calendar under test is compared against: the
    /// heap scheduler, or ([`Pair::twins`]) a second calendar.
    heap: EventQueue<u64>,
    cal: EventQueue<u64>,
    /// Lower bound for new event times (sim contract: never in the past).
    now: SimTime,
    next_payload: u64,
}

impl Pair {
    fn new() -> Pair {
        Pair::against(SchedulerKind::Heap)
    }

    /// Two calendar queues fed the same script: `cal` is the one a test
    /// peeks, `heap` (the reference slot) the twin left alone.
    fn twins() -> Pair {
        Pair::against(SchedulerKind::Calendar)
    }

    fn against(reference: SchedulerKind) -> Pair {
        Pair {
            heap: EventQueue::with_scheduler(reference),
            cal: EventQueue::with_scheduler(SchedulerKind::Calendar),
            now: SimTime::ZERO,
            next_payload: 0,
        }
    }

    fn push(&mut self, rng: &mut Rng) {
        let at = SimTime(self.now.0 + random_delta(rng));
        let p = self.next_payload;
        self.next_payload += 1;
        self.heap.push(at, p);
        self.cal.push(at, p);
    }

    fn pop_and_check(&mut self) -> Option<(SimTime, u64)> {
        let a = self.heap.pop();
        let b = self.cal.pop();
        assert_eq!(a, b, "pop diverged (heap vs calendar)");
        if let Some((t, _)) = a {
            assert!(t >= self.now, "time went backwards");
            self.now = t;
        }
        a
    }

    /// One random script step (the op mix of every property below).
    fn step(&mut self, rng: &mut Rng) {
        match rng.below(10) {
            0..=5 => self.push(rng),
            6..=8 => {
                self.pop_and_check();
            }
            _ => self.check_metadata(),
        }
    }

    /// What the calendar's lookahead names right now, nearest first.
    fn peeks(&self) -> [Option<u64>; PEEK_DEPTH] {
        std::array::from_fn(|k| self.cal.peek_staged(k).copied())
    }

    /// Pop until empty, checking agreement to the last event.
    fn drain_and_check(&mut self) {
        loop {
            self.check_metadata();
            if self.pop_and_check().is_none() {
                break;
            }
        }
        assert!(self.heap.is_empty() && self.cal.is_empty());
    }

    fn check_metadata(&mut self) {
        assert_eq!(self.heap.len(), self.cal.len(), "len diverged");
        assert_eq!(self.heap.is_empty(), self.cal.is_empty());
        assert_eq!(self.heap.peek_time(), self.cal.peek_time(), "peek diverged");
        assert_eq!(self.heap.events_processed(), self.cal.events_processed());
    }
}

#[test]
fn randomized_push_pop_matches_reference_heap() {
    for trial in 0..30u64 {
        let mut rng = Rng::new(0x5EED_0000 + trial);
        let mut pair = Pair::new();
        for _ in 0..2_000 {
            pair.step(&mut rng);
        }
        // Full drain must agree to the last event.
        pair.drain_and_check();
    }
}

#[test]
fn peek_staged_names_the_following_pops() {
    let mut checked = 0u32;
    for trial in 0..30u64 {
        let mut rng = Rng::new(0x9EE4_0000 + trial);
        let mut pair = Pair::new();
        for _ in 0..2_000 {
            pair.step(&mut rng);
            for k in 0..PEEK_DEPTH {
                assert!(
                    pair.heap.peek_staged(k).is_none(),
                    "the heap has no lookahead"
                );
            }
            // With nothing pushed in between, the k-th peek — whenever
            // the scheduler offers one — is the k-th following pop.
            if rng.below(4) == 0 {
                for peek in pair.peeks() {
                    let popped = pair.pop_and_check();
                    if let Some(p) = peek {
                        assert_eq!(popped.map(|(_, p)| p), Some(p), "peek named another event");
                        checked += 1;
                    }
                }
            }
        }
        pair.drain_and_check();
    }
    assert!(checked > 1_000, "lookahead offered only {checked} events");
}

#[test]
fn peeking_leaves_no_trace() {
    for trial in 0..30u64 {
        let mut rng = Rng::new(0x7B1A_0000 + trial);
        let mut pair = Pair::twins();
        let layout = |q: &EventQueue<u64>| (q.len(), q.peak_len(), q.capacity(), q.bucket_bits());
        for _ in 0..2_000 {
            pair.step(&mut rng);
            pair.peeks();
            assert_eq!(
                layout(&pair.cal),
                layout(&pair.heap),
                "peeked twin diverged"
            );
        }
        // Every later pop agrees too (checked pairwise by the drain).
        pair.drain_and_check();
    }
}

#[test]
fn massive_same_timestamp_ties_stay_fifo() {
    let mut rng = Rng::new(77);
    let mut heap = EventQueue::with_scheduler(SchedulerKind::Heap);
    let mut cal = EventQueue::with_scheduler(SchedulerKind::Calendar);
    // A handful of distinct timestamps, thousands of events: FIFO within
    // each timestamp is the whole ordering story.
    let times: Vec<SimTime> = (0..5).map(|i| SimTime(i * 3_000_000)).collect();
    for p in 0..5_000u64 {
        let t = times[rng.index(times.len())];
        heap.push(t, p);
        cal.push(t, p);
    }
    let mut last: Option<(SimTime, u64)> = None;
    loop {
        let (a, b) = (heap.pop(), cal.pop());
        assert_eq!(a, b);
        let Some((t, p)) = a else { break };
        if let Some((lt, lp)) = last {
            assert!(t > lt || (t == lt && p > lp), "FIFO tie order violated");
        }
        last = Some((t, p));
    }
}

/// A heap and a calendar that reserve positions and fill some of them
/// late, against a twin that pushed every reserved position eagerly.
struct Reserving {
    /// `[heap, calendar]`, fed the identical reserve/fill script.
    lazy: [EventQueue<u64>; 2],
    /// Pushed `(at, payload)` at the moment the lazy pair only reserved.
    eager: EventQueue<u64>,
    /// Reserved and not (yet) filled: `(at, seq, payload)`.
    open: Vec<(SimTime, u64, u64)>,
    /// Payloads the eager twin holds for a reservation …
    reserved: HashSet<u64>,
    /// … and those of them the lazy pair went on to fill. The rest are
    /// the eager twin's tombstones.
    filled: HashSet<u64>,
    tombstones_skipped: u64,
    now: SimTime,
    next_payload: u64,
}

impl Reserving {
    fn new() -> Reserving {
        Reserving {
            lazy: [
                EventQueue::with_scheduler(SchedulerKind::Heap),
                EventQueue::with_scheduler(SchedulerKind::Calendar),
            ],
            eager: EventQueue::with_scheduler(SchedulerKind::Calendar),
            open: Vec::new(),
            reserved: HashSet::new(),
            filled: HashSet::new(),
            tombstones_skipped: 0,
            now: SimTime::ZERO,
            next_payload: 0,
        }
    }

    fn payload(&mut self) -> u64 {
        self.next_payload += 1;
        self.next_payload - 1
    }

    fn push(&mut self, at: SimTime) {
        let p = self.payload();
        for q in self.lazy.iter_mut().chain([&mut self.eager]) {
            q.push(at, p);
        }
    }

    fn reserve(&mut self, at: SimTime) {
        let p = self.payload();
        let seq = self.lazy[0].reserve_seq();
        assert_eq!(seq, self.lazy[1].reserve_seq());
        self.eager.push(at, p);
        self.reserved.insert(p);
        self.open.push((at, seq, p));
    }

    /// Fill open reservation `i` if its position is still ahead; a
    /// position gone by is dropped (the eager twin skips its tombstone).
    fn fill(&mut self, i: usize) {
        let (at, seq, p) = self.open.swap_remove(i);
        let ahead = self.lazy[0].is_ahead(at, seq);
        assert_eq!(ahead, self.lazy[1].is_ahead(at, seq));
        if ahead {
            for q in &mut self.lazy {
                q.push_reserved(at, seq, p);
            }
            self.filled.insert(p);
        }
    }

    fn pop_and_check(&mut self) -> Option<(SimTime, u64)> {
        let a = self.lazy[0].pop();
        assert_eq!(a, self.lazy[1].pop(), "pop diverged (heap vs calendar)");
        let Some((t, _)) = a else {
            // All the eager twin still holds are unfilled positions; the
            // script may go on to fill the open ones, so leave them be.
            let unfilled = (self.reserved.len() - self.filled.len()) as u64;
            assert_eq!(self.eager.len() as u64, unfilled - self.tombstones_skipped);
            return None;
        };
        let e = loop {
            match self.eager.pop() {
                Some((_, p)) if self.reserved.contains(&p) && !self.filled.contains(&p) => {
                    self.tombstones_skipped += 1;
                }
                e => break e,
            }
        };
        assert_eq!(a, e, "pop diverged (reserved vs eagerly pushed)");
        assert!(t >= self.now, "time went backwards");
        self.now = t;
        a
    }

    /// Pop until empty; open reservations stay unfilled for good.
    fn drain_and_check(&mut self) {
        while self.pop_and_check().is_some() {}
        assert!(self.lazy.iter().all(|q| q.is_empty()));
        self.tombstones_skipped += self.eager.len() as u64;
        while self.eager.pop().is_some() {}
        for q in &self.lazy {
            assert_eq!(
                q.events_processed() + self.tombstones_skipped,
                self.eager.events_processed(),
                "a position never filled is an event never processed"
            );
        }
    }
}

#[test]
fn reserved_positions_fill_late_in_every_band() {
    const BUCKET: u64 = 1 << 18;
    const WINDOW: u64 = 4096 * BUCKET;
    let t0 = 4 * BUCKET;
    let mut r = Reserving::new();
    r.push(SimTime(t0));
    assert_eq!(r.pop_and_check(), Some((SimTime(t0), 0)));
    // Reserve, then push an ordinary event at the same instant, in: the
    // current instant, the staged bucket, a future bucket, the overflow
    // band — and one position that is never filled.
    let ats = [t0, t0 + 100, t0 + 5 * BUCKET, t0 + 3 * WINDOW];
    for at in ats {
        r.reserve(SimTime(at));
        r.push(SimTime(at));
    }
    r.reserve(SimTime(t0 + 7 * BUCKET));
    let never = r.open.pop().unwrap();
    r.push(SimTime(t0)); // one more same-instant event above the reservation
    for q in &r.lazy {
        assert_eq!(q.len(), 5, "a reserved position occupies nothing");
    }
    // Fill in reverse order of reservation, all of them late.
    while !r.open.is_empty() {
        r.fill(r.open.len() - 1);
    }
    assert_eq!(r.filled.len(), 4);
    let order: Vec<u64> = std::iter::from_fn(|| r.pop_and_check().map(|(_, p)| p)).collect();
    // Payloads: 1/2 reserved/pushed at t0, 3/4 staged, 5/6 future, 7/8
    // overflow, 9 never filled, 10 the late same-instant push.
    assert_eq!(order, [1, 2, 10, 3, 4, 5, 6, 7, 8]);
    let (at, seq, _) = never;
    assert!(r.lazy.iter().all(|q| !q.is_ahead(at, seq)), "gone by");
    r.drain_and_check();
    assert_eq!(r.tombstones_skipped, 1);
}

#[test]
fn randomized_reserve_and_fill_matches_eager_tombstones() {
    let (mut filled, mut dropped) = (0usize, 0u64);
    for trial in 0..30u64 {
        let mut rng = Rng::new(0x4E5E_0000 + trial);
        let mut r = Reserving::new();
        for _ in 0..2_000 {
            let at = SimTime(r.now.0 + random_delta(&mut rng));
            match rng.below(10) {
                0..=2 => r.push(at),
                3..=5 => r.reserve(at),
                6..=7 if !r.open.is_empty() => r.fill(rng.index(r.open.len())),
                _ => {
                    r.pop_and_check();
                }
            }
        }
        r.drain_and_check();
        filled += r.filled.len();
        dropped += r.tombstones_skipped;
    }
    assert!(filled > 1_000 && dropped > 1_000, "{filled} / {dropped}");
}

/// Both schedulers' queues against a bare `(time, seq)` heap that knows
/// nothing of the lane. Payloads are the sequence numbers, so a pop names
/// its own key.
struct Bare {
    /// `[heap, calendar]`, fed the identical script.
    queues: [EventQueue<u64>; 2],
    oracle: BinaryHeap<Reverse<(u64, u64)>>,
    /// The oracle's horizon: just past the last key popped, or where
    /// `advance_to` left it.
    horizon: (u64, u64),
    next_seq: u64,
    /// Reserved and not (yet) filled: `(at, seq)`.
    open: Vec<(u64, u64)>,
    /// A fresh position was filled at the current instant since the last
    /// pop: its sequence number is above every other, so the lane holds
    /// it until a pop takes it.
    lane_holds: bool,
    /// Checks made while `lane_holds`: snapshots, peeks, late fills.
    with_lane: [u32; 3],
}

impl Bare {
    fn new() -> Bare {
        Bare {
            queues: [SchedulerKind::Heap, SchedulerKind::Calendar].map(EventQueue::with_scheduler),
            oracle: BinaryHeap::new(),
            horizon: (0, 0),
            next_seq: 0,
            open: Vec::new(),
            lane_holds: false,
            with_lane: [0; 3],
        }
    }

    fn now(&self) -> u64 {
        self.horizon.0
    }

    fn reserve(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        for q in &mut self.queues {
            assert_eq!(q.reserve_seq(), seq, "sequence counters diverged");
        }
        seq
    }

    fn fill(&mut self, at: u64, seq: u64) {
        let ahead = (at, seq) >= self.horizon;
        for q in &self.queues {
            assert_eq!(q.is_ahead(SimTime(at), seq), ahead, "horizon diverged");
        }
        if !ahead {
            return;
        }
        for q in &mut self.queues {
            q.push_reserved(SimTime(at), seq, seq);
        }
        self.oracle.push(Reverse((at, seq)));
        if at == self.now() {
            if seq + 1 == self.next_seq {
                self.lane_holds = true;
            } else if self.lane_holds {
                // An older reservation filled at the current instant,
                // behind the lane's tail: it goes to the scheduler.
                self.with_lane[2] += 1;
            }
        }
    }

    fn push(&mut self, at: u64) {
        let seq = self.reserve();
        self.fill(at, seq);
    }

    /// Pop through `pop_before(t)` on both queues and the oracle.
    fn pop_before(&mut self, t: u64) -> Option<(u64, u64)> {
        let want = match self.oracle.peek() {
            Some(&Reverse((at, _))) if at <= t => self.oracle.pop().map(|Reverse(k)| k),
            _ => None,
        };
        for q in &mut self.queues {
            let got = q.pop_before(SimTime(t)).map(|(at, p)| (at.0, p));
            assert_eq!(got, want, "{:?} diverged from the bare heap", q.scheduler());
        }
        if let Some((at, seq)) = want {
            self.horizon = (at, seq + 1);
            self.lane_holds = false;
        }
        want
    }

    /// Drain through `t`, then declare it passed, as the run loop does.
    fn advance_to(&mut self, t: u64) {
        while self.pop_before(t).is_some() {}
        for q in &mut self.queues {
            q.advance_to(SimTime(t));
        }
        self.horizon = self.horizon.max((t, self.next_seq));
    }

    fn check_metadata(&mut self) {
        let peek = self.oracle.peek().map(|&Reverse((at, _))| SimTime(at));
        for q in &mut self.queues {
            assert_eq!(q.len(), self.oracle.len(), "len diverged");
            assert_eq!(q.peek_time(), peek, "peek diverged");
        }
    }

    /// Peek `depth` events ahead on the calendar queue, then pop as many:
    /// whatever the lookahead named is what popped.
    fn peek_then_pop(&mut self, depth: usize) {
        let named: Vec<Option<u64>> = (0..depth)
            .map(|k| self.queues[1].peek_staged(k).copied())
            .collect();
        if self.lane_holds && named[0].is_some() {
            self.with_lane[1] += 1;
        }
        for peek in named {
            let popped = self.pop_before(u64::MAX);
            if let Some(p) = peek {
                assert_eq!(
                    popped.map(|(_, seq)| seq),
                    Some(p),
                    "peek named another event"
                );
            }
        }
    }

    /// Snapshot both queues, check they wrote the same bytes, and carry on
    /// with queues restored from them — each onto the other scheduler.
    fn snapshot_and_restore(&mut self) {
        let bytes: Vec<Vec<u8>> = self
            .queues
            .iter_mut()
            .map(|q| {
                let mut w = SnapWriter::new();
                q.persist(&mut SnapIo::Write(&mut w), |io, e| io.u64(e))
                    .unwrap();
                w.into_body()
            })
            .collect();
        assert_eq!(
            bytes[0], bytes[1],
            "heap and calendar wrote different bytes"
        );
        // Entries in `(time, seq)` order, lane or not: the bare heap's.
        let mut sorted = self.oracle.clone().into_sorted_vec();
        sorted.reverse();
        let mut w = SnapWriter::new();
        let mut io = SnapIo::Write(&mut w);
        io.seq_len(sorted.len(), 16).unwrap();
        for Reverse((mut at, mut seq)) in sorted {
            let mut payload = seq;
            for field in [&mut at, &mut seq, &mut payload] {
                io.u64(field).unwrap();
            }
        }
        let entries = w.into_body();
        assert_eq!(bytes[0][..entries.len()], entries, "entries out of order");
        if self.lane_holds {
            self.with_lane[0] += 1;
        }
        for (q, kind) in self
            .queues
            .iter_mut()
            .zip([SchedulerKind::Calendar, SchedulerKind::Heap])
        {
            let mut twin = EventQueue::with_scheduler(kind);
            let mut io = SnapIo::Read(SnapReader::new(&bytes[0], 0));
            twin.persist(&mut io, |io, e| io.u64(e)).unwrap();
            io.expect_end().unwrap();
            assert_eq!(twin.events_processed(), q.events_processed());
            *q = twin;
        }
        self.queues.swap(0, 1);
    }

    /// Pop everything left; open reservations stay unfilled for good.
    fn drain(&mut self) {
        while self.pop_before(u64::MAX).is_some() {}
        self.check_metadata();
    }
}

/// Time deltas biased to the current instant, where the lane lives.
fn lane_delta(rng: &mut Rng) -> u64 {
    if rng.below(3) == 0 {
        0
    } else {
        random_delta(rng)
    }
}

#[test]
fn same_instant_lane_matches_a_bare_heap() {
    let mut with_lane = [0u32; 3];
    for trial in 0..30u64 {
        let mut rng = Rng::new(0x1A4E_0000 + trial);
        let mut b = Bare::new();
        for _ in 0..3_000 {
            let now = b.now();
            match rng.below(20) {
                0..=6 => b.push(now + lane_delta(&mut rng)),
                7..=8 => {
                    let at = now + lane_delta(&mut rng);
                    let seq = b.reserve();
                    b.open.push((at, seq));
                }
                9..=10 if !b.open.is_empty() => {
                    let (at, seq) = b.open.swap_remove(rng.index(b.open.len()));
                    // Some reservations are filled at whatever the current
                    // instant is by now, which may lie past their own.
                    let at = if rng.below(2) == 0 { at.max(now) } else { at };
                    b.fill(at, seq);
                }
                11..=14 => {
                    b.pop_before(now + random_delta(&mut rng));
                }
                15 => b.advance_to(now + random_delta(&mut rng)),
                16 => b.peek_then_pop(1 + rng.index(4)),
                17 => b.snapshot_and_restore(),
                _ => b.check_metadata(),
            }
        }
        b.drain();
        for (total, n) in with_lane.iter_mut().zip(b.with_lane) {
            *total += n;
        }
    }
    let [snapshots, peeks, older_fills] = with_lane;
    assert!(
        snapshots > 300 && peeks > 300 && older_fills > 30,
        "the lane held entries at {snapshots} snapshots, {peeks} peeks, {older_fills} older fills"
    );
}

#[test]
fn lane_corner_cases_match_a_bare_heap() {
    let mut b = Bare::new();
    // Set-up pushes at t = 0, before anything has popped.
    for _ in 0..3 {
        b.push(0);
    }
    b.push(500);
    assert_eq!(b.pop_before(0), Some((0, 0)));
    // Reserve-then-fill at the current instant, and an older reservation
    // filled there behind the lane's tail.
    let older = b.reserve();
    let fresh = b.reserve();
    b.fill(0, fresh);
    b.push(0);
    b.fill(0, older);
    assert_eq!(
        b.with_lane[2], 1,
        "the older fill came behind the lane's tail"
    );
    // Scheduled 1, 2 and the older fill pop before the lane's 5 and 6.
    b.peek_then_pop(3);
    b.snapshot_and_restore();
    b.check_metadata();
    assert_eq!(b.pop_before(0), Some((0, fresh)));
    // `advance_to(t)` drains what is due (6), then same-instant pushes at
    // `t` fill the lane again, ahead of the event queued for 500.
    b.advance_to(300);
    b.push(300);
    b.push(300);
    b.snapshot_and_restore();
    let order: Vec<u64> = std::iter::from_fn(|| b.pop_before(u64::MAX).map(|(_, s)| s)).collect();
    assert_eq!(order, [7, 8, 3]);
    b.drain();
}
