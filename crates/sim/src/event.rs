//! The event queue at the heart of the discrete-event engine.
//!
//! Two interchangeable schedulers live behind one API, both totally
//! ordered on `(time, seq)` where `seq` is a monotonically increasing
//! insertion counter — events scheduled for the same instant fire in the
//! order they were scheduled, which makes runs deterministic and debugging
//! sane:
//!
//! * [`SchedulerKind::Heap`] — the reference `BinaryHeap` (the seed
//!   implementation, kept as the differential-testing oracle).
//! * [`SchedulerKind::Calendar`] — the fast path: a hierarchical calendar
//!   queue ([`crate::calendar`]) with O(1) amortized insert/pop for the
//!   near-future band.
//!
//! The two produce *identical* pop sequences for any push/pop sequence;
//! `tests/fences.rs` and `tests/scheduler_diff.rs` (workspace root) and
//! the property suite in `crates/sim/tests` pin that equivalence, so the
//! calendar queue is unobservable except in wall-clock time.
//!
//! A queue position can be **reserved now and filled later, or never**:
//! [`EventQueue::reserve_seq`] takes the next sequence number without
//! queueing anything, and [`EventQueue::push_reserved`] queues an event at
//! that number any time before the position pops
//! ([`EventQueue::is_ahead`]). `push(at, ev)` *is*
//! `push_reserved(at, reserve_seq(), ev)`, so a caller that defers a push
//! this way leaves every other event's key — and its own, if it does push
//! — exactly where an eager push would have put it.
//!
//! There is no way to take a queued event back out. Whoever queues an
//! event that may go stale makes its *payload* tell: the network's timer
//! events carry a generation (`xpass-net`'s `TimerSlot`, `Deadline`) and a
//! firing whose generation has moved on is dropped by its handler.
//!
//! Queues start at a caller-controlled capacity
//! ([`EventQueue::with_capacity`]) and release excess memory whenever they
//! drain completely, so a burst does not pin its peak allocation forever.
//!
//! The queue owns its wire format: [`EventQueue::persist`] writes and
//! reads every entry in `(time, seq)` order — the same bytes under either
//! scheduler — plus the counters and the horizon, taking only the payload
//! traversal from the caller.

use crate::calendar::CalendarQueue;
use crate::run_ctx;
use crate::snap::{SnapError, SnapIo};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which scheduler implementation an [`EventQueue`] uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedulerKind {
    /// Reference binary heap keyed on `(time, seq)`.
    Heap,
    /// Calendar queue / timing wheel with an overflow band (the default).
    #[default]
    Calendar,
}

impl SchedulerKind {
    /// Parse a command-line name (`"heap"` / `"calendar"`).
    pub fn parse(s: &str) -> Option<SchedulerKind> {
        match s {
            "heap" => Some(SchedulerKind::Heap),
            "calendar" => Some(SchedulerKind::Calendar),
            _ => None,
        }
    }

    /// Stable lowercase name (inverse of [`parse`](Self::parse)).
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::Heap => "heap",
            SchedulerKind::Calendar => "calendar",
        }
    }
}

/// The scheduler [`EventQueue::new`] will use on this thread: its
/// [run context](crate::run_ctx)'s, chosen with
/// `run_ctx::enter(run_ctx::current().with_scheduler(kind))`.
pub fn thread_scheduler() -> SchedulerKind {
    run_ctx::with(|c| c.scheduler)
}

/// Bytes per cache line on every target the prefetch hint is compiled for.
pub const CACHE_LINE: usize = 64;

/// Hint the CPU to start loading the cache line that holds `p`. Purely a
/// performance hint: it reads nothing, writes nothing, and is compiled to
/// nothing off x86-64 and under miri — so no result of a program can
/// depend on it, whatever address it is given.
#[inline(always)]
pub fn prefetch<T>(p: *const T) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: PREFETCHT0 performs no architectural memory access: it
        // cannot fault on any address — null, dangling or unmapped — and
        // SSE is part of the x86-64 baseline, so the instruction exists.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>()) };
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = p;
}

/// [`prefetch`] every cache line the `len` bytes starting at `p` overlap.
/// `p` need not be valid for `len` bytes (or at all).
#[inline(always)]
pub fn prefetch_bytes<T>(p: *const T, len: usize) {
    let p = p.cast::<u8>();
    let mut off = 0;
    while off < len {
        prefetch(p.wrapping_add(off));
        off += CACHE_LINE;
    }
    // An unaligned start can push the last byte one line further.
    prefetch(p.wrapping_add(len.saturating_sub(1)));
}

/// [`prefetch`] every cache line a `T` stored at `p` would occupy.
#[inline(always)]
pub fn prefetch_obj<T>(p: *const T) {
    prefetch_bytes(p, std::mem::size_of::<T>());
}

/// Default initial capacity (the seed's former hard-coded value).
pub const DEFAULT_CAPACITY: usize = 1024;

/// A time-ordered queue of events of type `E`.
///
/// `E` needs no trait bounds; ordering is entirely on `(time, seq)`.
pub struct EventQueue<E> {
    imp: Impl<E>,
    seq: u64,
    popped: u64,
    /// The first position that has not gone by: just past the key of the
    /// last event popped, or where [`advance_to`](Self::advance_to) left
    /// it.
    horizon: (SimTime, u64),
    peak: usize,
    /// Entries currently queued, cached so the hot push/pop paths never
    /// re-derive it through the scheduler.
    len: usize,
    initial_cap: usize,
    /// True once the queue outgrew its initial capacity; armed by `push`,
    /// consumed by the post-drain shrink so the empty-queue check is O(1).
    needs_shrink: bool,
}

// The calendar's inline header (bitmap + cursors) is ~700 bytes, but there
// is exactly one `EventQueue` per engine and every push/pop goes through
// it — boxing the variant would trade a few hundred one-off bytes for a
// pointer chase on the hot path.
#[allow(clippy::large_enum_variant)]
enum Impl<E> {
    Heap(BinaryHeap<Entry<E>>),
    Calendar(CalendarQueue<E>),
}

struct Entry<E> {
    key: Reverse<(SimTime, u64)>,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue using this thread's scheduler
    /// ([`thread_scheduler`]).
    pub fn new() -> EventQueue<E> {
        Self::with_scheduler(thread_scheduler())
    }

    /// Create an empty queue with an explicit scheduler.
    pub fn with_scheduler(kind: SchedulerKind) -> EventQueue<E> {
        Self::with_capacity(kind, DEFAULT_CAPACITY)
    }

    /// Create an empty queue with an explicit scheduler and initial
    /// capacity (also the floor the queue shrinks back to after a drain).
    pub fn with_capacity(kind: SchedulerKind, cap: usize) -> EventQueue<E> {
        let imp = match kind {
            SchedulerKind::Heap => Impl::Heap(BinaryHeap::with_capacity(cap)),
            SchedulerKind::Calendar => Impl::Calendar(CalendarQueue::with_capacity(cap)),
        };
        EventQueue {
            imp,
            seq: 0,
            popped: 0,
            horizon: (SimTime::ZERO, 0),
            peak: 0,
            len: 0,
            initial_cap: cap,
            needs_shrink: false,
        }
    }

    /// Which scheduler this queue runs on.
    pub fn scheduler(&self) -> SchedulerKind {
        match self.imp {
            Impl::Heap(_) => SchedulerKind::Heap,
            Impl::Calendar(_) => SchedulerKind::Calendar,
        }
    }

    /// Take the next sequence number without queueing anything: the
    /// position `(at, seq)` — for whatever `at` the caller has in mind —
    /// may be filled later with [`push_reserved`](Self::push_reserved), or
    /// never.
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Queue `event` at a position reserved with
    /// [`reserve_seq`](Self::reserve_seq). Valid any time before the
    /// position pops ([`is_ahead`](Self::is_ahead)), on both schedulers:
    /// the heap orders by key, and the calendar sorts a bucket when it
    /// stages it, inserts by key into the staged one and keeps its far
    /// band in a heap — neither assumes keys arrive in sequence order.
    #[inline]
    pub fn push_reserved(&mut self, at: SimTime, seq: u64, event: E) {
        debug_assert!(
            self.was_reserved(seq) && self.is_ahead(at, seq),
            "position ({at:?}, {seq}) was never reserved or has gone by"
        );
        self.restore_entry(at, seq, event);
        if self.len > self.peak {
            self.peak = self.len;
        }
        if self.len > self.initial_cap {
            self.needs_shrink = true;
        }
    }

    /// Schedule `event` to fire at absolute time `at` (never earlier than
    /// the last event popped).
    #[inline]
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.reserve_seq();
        self.push_reserved(at, seq, event);
    }

    /// True when `seq` has been handed out — by
    /// [`reserve_seq`](Self::reserve_seq) or a push — so a position with it
    /// may be filled.
    #[inline]
    pub fn was_reserved(&self, seq: u64) -> bool {
        seq < self.seq
    }

    /// True while the position `(at, seq)` is still to come: no pop has
    /// returned an event at or after it, and no
    /// [`advance_to`](Self::advance_to) has passed it.
    #[inline]
    pub fn is_ahead(&self, at: SimTime, seq: u64) -> bool {
        (at, seq) >= self.horizon
    }

    /// Declare every position reserved so far at or before `t` gone by.
    /// For a driver that moves its clock to `t` after
    /// [`pop_before`](Self::pop_before)`(t)` came back empty: had such a
    /// position been filled, that drain would have popped it. Positions
    /// reserved from here on, at `t` included, are ahead.
    pub fn advance_to(&mut self, t: SimTime) {
        self.horizon = self.horizon.max((t, self.seq));
    }

    /// Pop the earliest event, returning `(time, event)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_before(SimTime::MAX)
    }

    /// Pop the earliest event if it fires at or before `t` — the engine's
    /// fused peek-then-pop: one scheduler settle per event instead of two.
    #[inline]
    pub fn pop_before(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        let (at, seq, event) = match &mut self.imp {
            Impl::Heap(h) => {
                if h.peek()?.key.0 .0 > t {
                    return None;
                }
                let e = h.pop().expect("peeked entry vanished");
                (e.key.0 .0, e.key.0 .1, e.event)
            }
            Impl::Calendar(c) => c.pop_if_le(t)?,
        };
        self.len -= 1;
        self.popped += 1;
        self.horizon = (at, seq + 1);
        if self.needs_shrink && self.len == 0 {
            self.shrink_after_drain();
            self.needs_shrink = false;
        }
        Some((at, event))
    }

    /// Timestamp of the next event without removing it.
    #[inline]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match &mut self.imp {
            Impl::Heap(h) => h.peek().map(|e| e.key.0 .0),
            Impl::Calendar(c) => c.peek_key().map(|(at, _)| at),
        }
    }

    /// Read-only lookahead: the payload of the `k`-th event from the front
    /// (`k = 0` is what the next pop returns), when the scheduler already
    /// holds it in sorted order — the calendar's staged bucket. `None`
    /// otherwise: past the staged bucket, or on the heap scheduler. Never
    /// settles, sorts or moves anything, so a queue that is peeked behaves
    /// exactly like one that is not; a later push may still land ahead of
    /// a peeked event. For prefetching only.
    #[inline]
    pub fn peek_staged(&self, k: usize) -> Option<&E> {
        match &self.imp {
            Impl::Calendar(c) => c.peek_staged(k),
            Impl::Heap(_) => None,
        }
    }

    /// Number of events currently queued.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events processed so far (for perf reporting).
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Deepest the queue has been since creation (for perf reporting).
    #[inline]
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// The calendar scheduler's current adaptive bucket width (log2 ps);
    /// `None` on the heap scheduler. A perf-diagnostic stat.
    pub fn bucket_bits(&self) -> Option<u32> {
        match &self.imp {
            Impl::Heap(_) => None,
            Impl::Calendar(c) => Some(c.bucket_bits()),
        }
    }

    /// Allocated entry slots (heap capacity, or the calendar's staging +
    /// overflow + bucket slots).
    pub fn capacity(&self) -> usize {
        match &self.imp {
            Impl::Heap(h) => h.capacity(),
            Impl::Calendar(c) => c.capacity(),
        }
    }

    /// Every queued entry in `(time, seq)` order, payload by reference.
    /// Both schedulers yield the identical sequence. Read-only: the
    /// scheduler's internal layout (the calendar's window, cursors and
    /// bucket width) is exactly as it was.
    fn sorted_entries(&self) -> Vec<(SimTime, u64, &E)> {
        match &self.imp {
            Impl::Heap(h) => {
                let mut v: Vec<_> = h
                    .iter()
                    .map(|e| (e.key.0 .0, e.key.0 .1, &e.event))
                    .collect();
                v.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
                v
            }
            Impl::Calendar(c) => c.sorted_entries(),
        }
    }

    /// Every queued payload, in no particular order.
    pub fn payloads(&self) -> impl Iterator<Item = &E> {
        let (heap, calendar) = match &self.imp {
            Impl::Heap(h) => (Some(h.iter().map(|e| &e.event)), None),
            Impl::Calendar(c) => (None, Some(c.payloads())),
        };
        heap.into_iter()
            .flatten()
            .chain(calendar.into_iter().flatten())
    }

    /// Insert an entry with an **explicit** sequence number, bypassing the
    /// sequence counter and the peak/shrink bookkeeping.
    #[inline]
    fn restore_entry(&mut self, at: SimTime, seq: u64, event: E) {
        match &mut self.imp {
            Impl::Heap(h) => h.push(Entry {
                key: Reverse((at, seq)),
                event,
            }),
            Impl::Calendar(c) => c.push(at, seq, event),
        }
        self.len += 1;
    }

    /// Snapshot traversal: every entry in `(time, seq)` order with its
    /// payload through `payload`, then the counters and the horizon —
    /// identical bytes under either scheduler.
    ///
    /// The one traversal with two branches. Writing walks a sorted view of
    /// the queue and hands `payload` a copy of one event at a time, leaving
    /// the scheduler's layout exactly as it was, so a run that snapshots
    /// continues precisely like one that does not; sharing one walk would
    /// mean copying every entry first. Reading builds a fresh queue on the
    /// same scheduler, so its window rotates to the snapshot's earliest
    /// event on the first pop exactly as a live queue's does, instead of
    /// inheriting a window some earlier drain left behind.
    pub fn persist(
        &mut self,
        io: &mut SnapIo,
        mut payload: impl FnMut(&mut SnapIo, &mut E) -> Result<(), SnapError>,
    ) -> Result<(), SnapError>
    where
        E: Clone + Default,
    {
        let n = io.seq_len(self.len, 16)?;
        if io.reading() {
            let mut q = EventQueue::with_scheduler(self.scheduler());
            for _ in 0..n {
                let (mut at, mut seq, mut event) = (SimTime::ZERO, 0, E::default());
                io.u64(&mut at.0)?;
                io.u64(&mut seq)?;
                payload(io, &mut event)?;
                q.restore_entry(at, seq, event);
            }
            q.needs_shrink = q.len > q.initial_cap;
            *self = q;
        } else {
            for (mut at, mut seq, event) in self.sorted_entries() {
                io.u64(&mut at.0)?;
                io.u64(&mut seq)?;
                payload(io, &mut event.clone())?;
            }
        }
        io.u64(&mut self.seq)?;
        io.u64(&mut self.popped)?;
        io.usize(&mut self.peak)?;
        // Which reserved positions are still ahead must survive a resume.
        io.u64(&mut self.horizon.0 .0)?;
        io.u64(&mut self.horizon.1)
    }

    /// Release memory accumulated during a burst, back down to the initial
    /// capacity. Called automatically whenever the queue drains; safe (and
    /// cheap) to call at any time — it never affects event order.
    pub fn shrink_after_drain(&mut self) {
        match &mut self.imp {
            Impl::Heap(h) => h.shrink_to(self.initial_cap),
            Impl::Calendar(c) => c.shrink_to(self.initial_cap),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snap::{SnapReader, SnapWriter};
    use crate::time::Dur;

    const KINDS: [SchedulerKind; 2] = [SchedulerKind::Heap, SchedulerKind::Calendar];

    fn both() -> [EventQueue<u64>; 2] {
        KINDS.map(EventQueue::with_scheduler)
    }

    #[test]
    fn pops_in_time_order() {
        for mut q in both() {
            q.push(SimTime::ZERO + Dur::us(3), 3);
            q.push(SimTime::ZERO + Dur::us(1), 1);
            q.push(SimTime::ZERO + Dur::us(2), 2);
            assert_eq!(q.pop().unwrap().1, 1);
            assert_eq!(q.pop().unwrap().1, 2);
            assert_eq!(q.pop().unwrap().1, 3);
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn fifo_within_same_timestamp() {
        for mut q in both() {
            let t = SimTime::ZERO + Dur::us(5);
            for i in 0..100 {
                q.push(t, i);
            }
            for i in 0..100 {
                let (at, v) = q.pop().unwrap();
                assert_eq!(at, t);
                assert_eq!(v, i);
            }
        }
    }

    #[test]
    fn peek_does_not_remove() {
        for mut q in both() {
            q.push(SimTime(10), 0);
            assert_eq!(q.peek_time(), Some(SimTime(10)));
            assert_eq!(q.len(), 1);
            q.pop();
            assert_eq!(q.peek_time(), None);
            assert!(q.is_empty());
        }
    }

    #[test]
    fn counts_processed() {
        for mut q in both() {
            for i in 0..10u64 {
                q.push(SimTime(i), i);
            }
            while q.pop().is_some() {}
            assert_eq!(q.events_processed(), 10);
        }
    }

    #[test]
    fn tracks_peak_depth() {
        for mut q in both() {
            assert_eq!(q.peak_len(), 0);
            q.push(SimTime(1), 0);
            q.push(SimTime(2), 0);
            q.push(SimTime(3), 0);
            q.pop();
            q.pop();
            q.push(SimTime(4), 0);
            assert_eq!(q.peak_len(), 3, "peak survives drains");
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        for mut q in both() {
            q.push(SimTime(5), 5u64);
            q.push(SimTime(1), 1);
            assert_eq!(q.pop().unwrap().0, SimTime(1));
            q.push(SimTime(3), 3);
            q.push(SimTime(2), 2);
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                assert!(t >= last);
                last = t;
            }
        }
    }

    #[test]
    fn thread_scheduler_is_scoped() {
        assert_eq!(thread_scheduler(), SchedulerKind::Calendar);
        {
            let _heap = run_ctx::enter(run_ctx::current().with_scheduler(SchedulerKind::Heap));
            assert_eq!(EventQueue::<()>::new().scheduler(), SchedulerKind::Heap);
            let other = std::thread::spawn(|| EventQueue::<()>::new().scheduler())
                .join()
                .unwrap();
            assert_eq!(other, SchedulerKind::Calendar, "override is per-thread");
        }
        assert_eq!(
            thread_scheduler(),
            SchedulerKind::Calendar,
            "guard restores"
        );
    }

    #[test]
    fn reserved_position_is_ahead_until_popped_past_or_advanced_over() {
        for mut q in both() {
            q.push(SimTime(10), 1);
            let here = q.reserve_seq(); // meant for t = 10
            let later = q.reserve_seq(); // meant for t = 20
            q.push(SimTime(10), 2);
            assert_eq!(q.len(), 2, "a reservation queues nothing");
            assert_eq!(q.pop(), Some((SimTime(10), 1)));
            assert!(q.is_ahead(SimTime(10), here), "same instant, later seq");
            assert_eq!(q.pop(), Some((SimTime(10), 2)));
            assert!(!q.is_ahead(SimTime(10), here), "a later seq has popped");
            assert!(q.is_ahead(SimTime(20), later));
            q.advance_to(SimTime(20));
            assert!(!q.is_ahead(SimTime(20), later), "the clock moved over it");
            // What is reserved from here on at the same instant is ahead.
            let fresh = q.reserve_seq();
            q.push_reserved(SimTime(20), fresh, 3);
            q.push(SimTime(20), 4);
            assert_eq!(q.pop(), Some((SimTime(20), 3)));
            assert_eq!(q.pop(), Some((SimTime(20), 4)));
            assert_eq!(q.peak_len(), 2, "push_reserved keeps the peak");
            assert_eq!(q.events_processed(), 4);
        }
    }

    /// Near events, a far-future one (the calendar's overflow band) and a
    /// late-filled reserved position; pops in between so the calendar has
    /// a staged, partly consumed bucket.
    fn busy(kind: SchedulerKind) -> EventQueue<u64> {
        let mut q = EventQueue::with_scheduler(kind);
        for i in 0..200u64 {
            q.push(SimTime(1_000 + i * 37_000), i);
        }
        q.push(SimTime::ZERO + Dur::secs(5), 1000);
        let reserved = q.reserve_seq();
        q.push(SimTime::ZERO + Dur::us(900), 1001);
        for _ in 0..50 {
            q.pop().unwrap();
        }
        let next = q.peek_time().unwrap();
        q.push(next, 1002);
        q.push_reserved(next, reserved, 1003);
        q
    }

    fn snap_bytes(q: &mut EventQueue<u64>) -> Vec<u8> {
        let mut w = SnapWriter::new();
        q.persist(&mut SnapIo::Write(&mut w), |io, e| io.u64(e))
            .unwrap();
        w.into_body()
    }

    /// A queue on scheduler `kind` restored from `bytes`; the reader is
    /// returned for its end check.
    fn restored(
        kind: SchedulerKind,
        bytes: &[u8],
    ) -> Result<(EventQueue<u64>, SnapIo<'_>), SnapError> {
        let mut q = EventQueue::with_scheduler(kind);
        let mut io = SnapIo::Read(SnapReader::new(bytes, 0));
        q.persist(&mut io, |io, e| io.u64(e))?;
        Ok((q, io))
    }

    fn drain(mut q: EventQueue<u64>) -> Vec<(SimTime, u64)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn snap_bytes_agree_across_schedulers_and_leave_the_queue_alone() {
        let bytes = KINDS.map(|kind| {
            let (plain, mut q) = (busy(kind), busy(kind));
            let before = (q.len(), q.peak_len(), q.capacity(), q.bucket_bits());
            let bytes = snap_bytes(&mut q);
            assert_eq!(
                before,
                (q.len(), q.peak_len(), q.capacity(), q.bucket_bits())
            );
            // A queue that was snapshotted pops exactly like one that was
            // not.
            assert_eq!(drain(q), drain(plain));
            bytes
        });
        assert_eq!(bytes[0], bytes[1], "heap and calendar bytes differ");
    }

    #[test]
    fn restored_queue_continues_like_the_original_on_either_scheduler() {
        for (from, to) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let mut q = busy(KINDS[from]);
            let bytes = snap_bytes(&mut q);
            let (mut twin, r) = restored(KINDS[to], &bytes).unwrap();
            r.expect_end().unwrap();
            assert_eq!(twin.scheduler(), KINDS[to]);
            assert_eq!(snap_bytes(&mut twin), bytes);
            assert_eq!(
                (twin.len(), twin.peak_len(), twin.events_processed()),
                (q.len(), q.peak_len(), q.events_processed())
            );
            // Sequence counter and horizon came along: the next push and
            // the next reservation land where the original's do.
            let at = twin.peek_time().unwrap();
            assert_eq!(twin.reserve_seq(), q.reserve_seq());
            twin.push(at, 7);
            q.push(at, 7);
            let last = SimTime(1_000 + 49 * 37_000); // the 50th pop of `busy`
            for seq in [0, 49, 50, u64::MAX] {
                assert_eq!(twin.is_ahead(last, seq), q.is_ahead(last, seq), "{seq}");
            }
            assert!(!twin.is_ahead(last, 49) && twin.is_ahead(last, 50));
            assert_eq!(drain(twin), drain(q));
        }
    }

    #[test]
    fn restore_refuses_truncation() {
        let bytes = snap_bytes(&mut busy(SchedulerKind::Calendar));
        let restore = |b: &[u8]| restored(SchedulerKind::Calendar, b).map(|_| ());
        assert!(restore(&bytes).is_ok());
        for cut in 0..bytes.len() {
            assert!(restore(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn with_capacity_and_shrink_after_drain() {
        let mut q: EventQueue<u64> = EventQueue::with_capacity(SchedulerKind::Heap, 16);
        assert!(q.capacity() >= 16);
        for i in 0..100_000u64 {
            q.push(SimTime(i), i);
        }
        assert!(q.capacity() >= 100_000, "burst grows the heap");
        while q.pop().is_some() {}
        assert!(
            q.capacity() <= 64,
            "drain shrinks back to near the initial capacity (got {})",
            q.capacity()
        );
        assert_eq!(q.peak_len(), 100_000, "peak still reflects the burst");
    }

    #[test]
    fn default_capacity_no_longer_hardcoded() {
        let q: EventQueue<u64> = EventQueue::with_capacity(SchedulerKind::Heap, 4);
        assert!(q.capacity() < DEFAULT_CAPACITY);
    }
}
