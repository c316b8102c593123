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

use std::collections::HashSet;
use xpass_sim::event::{EventQueue, SchedulerKind};
use xpass_sim::rng::Rng;
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
