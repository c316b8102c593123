//! Property-based scheduler equivalence: randomized insert/cancel/pop
//! sequences driven through the calendar queue and the reference heap must
//! produce identical observable behavior — pop order (including
//! same-timestamp FIFO ties), peeks, lengths, processed counts, and
//! cancelled-timers-never-fire. Seeded with `xpass_sim::rng` only; no
//! external property-testing dependency.
//!
//! The same scripts pin the scheduler's read-only lookahead
//! (`peek_staged`): what it names is what the following pops return, the
//! heap offers none, and a queue that is peeked at every step is
//! indistinguishable from a twin that never is.

use xpass_sim::event::{EventQueue, SchedulerKind, TimerHandle};
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
    /// Pending cancellable handles (same order in both queues).
    pending: Vec<(TimerHandle, TimerHandle, u64)>,
    cancelled_payloads: Vec<u64>,
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
            pending: Vec::new(),
            cancelled_payloads: Vec::new(),
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

    fn push_cancellable(&mut self, rng: &mut Rng) {
        let at = SimTime(self.now.0 + random_delta(rng));
        let p = self.next_payload;
        self.next_payload += 1;
        let h = self.heap.push_cancellable(at, p);
        let c = self.cal.push_cancellable(at, p);
        self.pending.push((h, c, p));
    }

    fn cancel_random(&mut self, rng: &mut Rng) {
        if self.pending.is_empty() {
            return;
        }
        let i = rng.index(self.pending.len());
        let (h, c, p) = self.pending.swap_remove(i);
        let a = self.heap.cancel(h);
        let b = self.cal.cancel(c);
        assert_eq!(a, b, "cancel outcome diverged for payload {p}");
        if a {
            self.cancelled_payloads.push(p);
        }
    }

    fn pop_and_check(&mut self) -> Option<(SimTime, u64)> {
        let a = self.heap.pop();
        let b = self.cal.pop();
        assert_eq!(a, b, "pop diverged (heap vs calendar)");
        if let Some((t, p)) = a {
            assert!(t >= self.now, "time went backwards");
            self.now = t;
            assert!(
                !self.cancelled_payloads.contains(&p),
                "cancelled timer {p} fired"
            );
            // Retire the pending record if this was an uncancelled timer.
            self.pending.retain(|&(_, _, pp)| pp != p);
        }
        a
    }

    /// One random script step (the op mix of every property below).
    fn step(&mut self, rng: &mut Rng) {
        match rng.below(10) {
            0..=4 => self.push(rng),
            5 => self.push_cancellable(rng),
            6 => self.cancel_random(rng),
            7..=8 => {
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

#[test]
fn cancel_then_fire_never() {
    // Directed version of the property: cancel every other timer, across
    // bands, then verify exactly the survivors fire, in order.
    for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
        let mut q = EventQueue::with_scheduler(kind);
        let mut handles = Vec::new();
        for p in 0..1_000u64 {
            let at = SimTime(p * 7_000_000_000); // spans many windows
            handles.push((q.push_cancellable(at, p), p));
        }
        for &(h, p) in &handles {
            if p % 2 == 0 {
                assert!(q.cancel(h));
            }
        }
        let mut fired = Vec::new();
        while let Some((_, p)) = q.pop() {
            fired.push(p);
        }
        let expect: Vec<u64> = (0..1_000).filter(|p| p % 2 == 1).collect();
        assert_eq!(fired, expect, "scheduler {:?}", kind);
        assert_eq!(q.events_processed(), 500);
    }
}
