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
//! `tests/scheduler_diff.rs` (workspace root) and the property suite in
//! `crates/sim/tests` pin that equivalence, so the calendar queue is
//! unobservable except in wall-clock time.
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
//! Timers pushed via [`EventQueue::push_cancellable`] can be revoked with
//! [`EventQueue::cancel`]; cancelled entries never fire and are skipped
//! (and reclaimed) on pop. Queues start at a caller-controlled capacity
//! ([`EventQueue::with_capacity`]) and release excess memory whenever they
//! drain completely, so a burst does not pin its peak allocation forever.

use crate::calendar::CalendarQueue;
use crate::time::SimTime;
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

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

thread_local! {
    static THREAD_SCHEDULER: Cell<SchedulerKind> = const { Cell::new(SchedulerKind::Calendar) };
}

/// Set the scheduler that [`EventQueue::new`] uses **on this thread**.
///
/// Scheduler choice is thread-scoped so concurrent experiment runs (the
/// parallel harness) and concurrent tests cannot race on a process global;
/// the parallel runner propagates the requested kind into each worker.
pub fn set_thread_scheduler(kind: SchedulerKind) {
    THREAD_SCHEDULER.with(|c| c.set(kind));
}

/// The scheduler [`EventQueue::new`] will use on this thread.
pub fn thread_scheduler() -> SchedulerKind {
    THREAD_SCHEDULER.with(|c| c.get())
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

/// Handle to a cancellable timer returned by
/// [`EventQueue::push_cancellable`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimerHandle(u64);

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
    /// last live event popped, or where [`advance_to`](Self::advance_to)
    /// left it.
    horizon: (SimTime, u64),
    peak: usize,
    /// Entries currently queued (including cancelled tombstones), cached
    /// so the hot push/pop paths never re-derive it through the scheduler.
    raw: usize,
    initial_cap: usize,
    /// True once the queue outgrew its initial capacity; armed by `push`,
    /// consumed by the post-drain shrink so the empty-queue check is O(1).
    needs_shrink: bool,
    /// Seqs of live cancellable timers (empty unless the feature is used,
    /// so plain `push`/`pop` traffic never touches a hash set).
    cancellable: HashSet<u64>,
    /// Seqs cancelled while still queued; skipped and reclaimed on pop.
    cancelled: HashSet<u64>,
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
    /// Create an empty queue using this thread's default scheduler
    /// ([`set_thread_scheduler`]).
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
            raw: 0,
            initial_cap: cap,
            needs_shrink: false,
            cancellable: HashSet::new(),
            cancelled: HashSet::new(),
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
            seq < self.seq && self.is_ahead(at, seq),
            "position ({at:?}, {seq}) was never reserved or has gone by"
        );
        self.restore_entry(at, seq, event);
        let live = self.raw - self.cancelled.len();
        if live > self.peak {
            self.peak = live;
        }
        if live > self.initial_cap {
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

    /// Schedule a cancellable timer; the handle revokes it via
    /// [`cancel`](Self::cancel) any time before it fires.
    pub fn push_cancellable(&mut self, at: SimTime, event: E) -> TimerHandle {
        let seq = self.reserve_seq();
        self.push_reserved(at, seq, event);
        self.cancellable.insert(seq);
        TimerHandle(seq)
    }

    /// Cancel a pending timer. Returns `true` if it was still queued (it
    /// will never fire); `false` if it already fired or was cancelled.
    pub fn cancel(&mut self, h: TimerHandle) -> bool {
        if self.cancellable.remove(&h.0) {
            self.cancelled.insert(h.0);
            true
        } else {
            false
        }
    }

    #[inline]
    fn pop_raw(&mut self) -> Option<(SimTime, u64, E)> {
        let out = match &mut self.imp {
            Impl::Heap(h) => h.pop().map(|e| (e.key.0 .0, e.key.0 .1, e.event)),
            Impl::Calendar(c) => c.pop(),
        };
        if out.is_some() {
            self.raw -= 1;
        }
        out
    }

    /// Bookkeeping shared by every pop of a live event.
    #[inline]
    fn note_pop(&mut self, at: SimTime, seq: u64) {
        self.popped += 1;
        self.horizon = (at, seq + 1);
        if self.needs_shrink && self.raw == 0 {
            self.shrink_after_drain();
            self.needs_shrink = false;
        }
    }

    /// Pop the earliest live event, returning `(time, event)`. Cancelled
    /// timers are skipped (and never counted as processed).
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let (at, seq, event) = self.pop_raw()?;
            if !self.cancelled.is_empty() && self.cancelled.remove(&seq) {
                continue;
            }
            if !self.cancellable.is_empty() {
                self.cancellable.remove(&seq);
            }
            self.note_pop(at, seq);
            return Some((at, event));
        }
    }

    /// Pop the earliest live event if it fires at or before `t` — the
    /// engine's fused peek-then-pop fast path: one scheduler settle and
    /// one tombstone pass per event instead of two of each.
    #[inline]
    pub fn pop_before(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        if self.cancelled.is_empty() && self.cancellable.is_empty() {
            // No timer tombstones in play (the common engine state): one
            // fused scheduler call, no hash-set traffic at all.
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
            self.raw -= 1;
            self.note_pop(at, seq);
            return Some((at, event));
        }
        loop {
            let key = match &mut self.imp {
                Impl::Heap(h) => h.peek().map(|e| e.key.0),
                Impl::Calendar(c) => c.peek_key(),
            };
            let (at, seq) = key?;
            if !self.cancelled.is_empty() && self.cancelled.contains(&seq) {
                self.cancelled.remove(&seq);
                self.pop_raw();
                continue;
            }
            if at > t {
                return None;
            }
            let (at, seq, event) = self.pop_raw().expect("peeked entry vanished");
            if !self.cancellable.is_empty() {
                self.cancellable.remove(&seq);
            }
            self.note_pop(at, seq);
            return Some((at, event));
        }
    }

    /// Timestamp of the next live event without removing it.
    #[inline]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Skim off cancelled entries so the reported time is a live event's.
        loop {
            let key = match &mut self.imp {
                Impl::Heap(h) => h.peek().map(|e| e.key.0),
                Impl::Calendar(c) => c.peek_key(),
            };
            let (at, seq) = key?;
            if !self.cancelled.is_empty() && self.cancelled.contains(&seq) {
                self.cancelled.remove(&seq);
                self.pop_raw();
                continue;
            }
            return Some(at);
        }
    }

    /// Read-only lookahead: the payload of the `k`-th event from the front
    /// (`k = 0` is what the next pop returns), when the scheduler already
    /// holds it in sorted order — the calendar's staged bucket. `None`
    /// otherwise: past the staged bucket, on the heap scheduler, or while
    /// cancelled tombstones are queued (a staged entry may then never
    /// fire). Never settles, sorts or moves anything, so a queue that is
    /// peeked behaves exactly like one that is not; a later push may still
    /// land ahead of a peeked event. For prefetching only.
    #[inline]
    pub fn peek_staged(&self, k: usize) -> Option<&E> {
        match &self.imp {
            Impl::Calendar(c) if self.cancelled.is_empty() => c.peek_staged(k),
            _ => None,
        }
    }

    /// Number of live (non-cancelled) events currently queued.
    #[inline]
    pub fn len(&self) -> usize {
        self.raw - self.cancelled.len()
    }

    /// True when no live events remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// Snapshot support: **every** queued entry — live and cancelled
    /// tombstones alike — in `(time, seq)` order, payload by reference.
    /// Both schedulers yield the identical sequence, so bytes serialized
    /// from the result are scheduler-independent. Read-only: the
    /// scheduler's internal layout (the calendar's window, cursors and
    /// bucket width) is exactly as it was, so a run that snapshots
    /// continues precisely like one that does not.
    pub fn snapshot_entries(&self) -> Vec<(SimTime, u64, &E)> {
        match &self.imp {
            Impl::Heap(h) => {
                let mut v: Vec<_> = h
                    .iter()
                    .map(|e| (e.key.0 .0, e.key.0 .1, &e.event))
                    .collect();
                v.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
                v
            }
            Impl::Calendar(c) => c.snapshot_entries(),
        }
    }

    /// Restore support: insert an entry with an **explicit** sequence
    /// number, as yielded by [`snapshot_entries`](Self::snapshot_entries).
    /// Bypasses the sequence counter and the peak/shrink bookkeeping
    /// (overwritten afterwards by [`restore_counters`](Self::restore_counters)).
    /// Restore into a freshly constructed queue: its window then rotates
    /// to the snapshot's earliest event on the first pop, exactly as a
    /// live queue's does, instead of inheriting a window some earlier
    /// drain left behind.
    pub fn restore_entry(&mut self, at: SimTime, seq: u64, event: E) {
        match &mut self.imp {
            Impl::Heap(h) => h.push(Entry {
                key: Reverse((at, seq)),
                event,
            }),
            Impl::Calendar(c) => c.push(at, seq, event),
        }
        self.raw += 1;
    }

    /// Snapshot support: the first position that has not gone by (see
    /// [`is_ahead`](Self::is_ahead)).
    pub fn snapshot_horizon(&self) -> (SimTime, u64) {
        self.horizon
    }

    /// Snapshot support: overwrite the horizon captured by
    /// [`snapshot_horizon`](Self::snapshot_horizon).
    pub fn restore_horizon(&mut self, at: SimTime, seq: u64) {
        self.horizon = (at, seq);
    }

    /// Snapshot support: the queue's counters `(seq, popped, peak)`.
    pub fn snapshot_counters(&self) -> (u64, u64, u64) {
        (self.seq, self.popped, self.peak as u64)
    }

    /// Snapshot support: overwrite the counters captured by
    /// [`snapshot_counters`](Self::snapshot_counters).
    pub fn restore_counters(&mut self, seq: u64, popped: u64, peak: u64) {
        self.seq = seq;
        self.popped = popped;
        self.peak = peak as usize;
        self.needs_shrink = self.raw.saturating_sub(self.cancelled.len()) > self.initial_cap;
    }

    /// Snapshot support: the live-cancellable and cancelled-tombstone seq
    /// sets, each sorted so serialization is deterministic.
    pub fn snapshot_cancel_sets(&self) -> (Vec<u64>, Vec<u64>) {
        let mut a: Vec<u64> = self.cancellable.iter().copied().collect();
        let mut b: Vec<u64> = self.cancelled.iter().copied().collect();
        a.sort_unstable();
        b.sort_unstable();
        (a, b)
    }

    /// Snapshot support: overwrite the cancel sets captured by
    /// [`snapshot_cancel_sets`](Self::snapshot_cancel_sets).
    pub fn restore_cancel_sets(&mut self, cancellable: Vec<u64>, cancelled: Vec<u64>) {
        self.cancellable = cancellable.into_iter().collect();
        self.cancelled = cancelled.into_iter().collect();
    }

    /// Release memory accumulated during a burst, back down to the initial
    /// capacity. Called automatically whenever the queue drains; safe (and
    /// cheap) to call at any time — it never affects event order.
    pub fn shrink_after_drain(&mut self) {
        match &mut self.imp {
            Impl::Heap(h) => h.shrink_to(self.initial_cap),
            Impl::Calendar(c) => c.shrink_to(self.initial_cap),
        }
        self.cancelled.shrink_to_fit();
        self.cancellable.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    fn both() -> [EventQueue<u64>; 2] {
        [
            EventQueue::with_scheduler(SchedulerKind::Heap),
            EventQueue::with_scheduler(SchedulerKind::Calendar),
        ]
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
        set_thread_scheduler(SchedulerKind::Heap);
        assert_eq!(EventQueue::<()>::new().scheduler(), SchedulerKind::Heap);
        let other = std::thread::spawn(|| EventQueue::<()>::new().scheduler())
            .join()
            .unwrap();
        assert_eq!(other, SchedulerKind::Calendar, "override is per-thread");
        set_thread_scheduler(SchedulerKind::Calendar);
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

    #[test]
    fn cancelled_timer_never_fires() {
        for mut q in both() {
            q.push(SimTime(1), 1);
            let h = q.push_cancellable(SimTime(2), 2);
            q.push(SimTime(3), 3);
            assert_eq!(q.len(), 3);
            assert!(q.cancel(h));
            assert!(!q.cancel(h), "double cancel is a no-op");
            assert_eq!(q.len(), 2);
            assert_eq!(q.pop().unwrap().1, 1);
            assert_eq!(q.peek_time(), Some(SimTime(3)), "peek skips cancelled");
            assert_eq!(q.pop().unwrap().1, 3);
            assert!(q.pop().is_none());
            assert_eq!(q.events_processed(), 2, "cancelled events don't count");
        }
    }

    #[test]
    fn cancel_after_fire_returns_false() {
        for mut q in both() {
            let h = q.push_cancellable(SimTime(1), 1);
            assert_eq!(q.pop().unwrap().1, 1);
            assert!(!q.cancel(h));
        }
    }

    #[test]
    fn snapshot_entries_agree_across_schedulers_and_leave_the_queue_alone() {
        let views: Vec<Vec<(SimTime, u64, u64)>> = both()
            .into_iter()
            .map(|mut q| {
                // Near events, a far-future one (the calendar's overflow
                // band), a live cancellable timer and a tombstone; pops in
                // between so the calendar has a staged, partly consumed
                // bucket.
                for i in 0..200u64 {
                    q.push(SimTime(1_000 + i * 37_000), i);
                }
                q.push(SimTime::ZERO + Dur::secs(5), 1000);
                let live = q.push_cancellable(SimTime::ZERO + Dur::us(900), 1001);
                let dead = q.push_cancellable(SimTime::ZERO + Dur::us(3), 1002);
                assert!(q.cancel(dead));
                for _ in 0..50 {
                    q.pop().unwrap();
                }
                let next = q.peek_time().unwrap();
                q.push(next, 1003);
                let before = (q.len(), q.peak_len(), q.capacity(), q.bucket_bits());
                let view: Vec<_> = q
                    .snapshot_entries()
                    .into_iter()
                    .map(|(at, seq, e)| (at, seq, *e))
                    .collect();
                assert_eq!(
                    before,
                    (q.len(), q.peak_len(), q.capacity(), q.bucket_bits())
                );
                assert_eq!(view.len(), q.len() + 1, "the tombstone is included");
                assert!(view.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
                // The queue still pops what the view listed, minus the tombstone.
                let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
                let listed: Vec<u64> = view
                    .iter()
                    .map(|&(_, _, e)| e)
                    .filter(|&e| e != 1002)
                    .collect();
                assert_eq!(popped, listed);
                assert!(!q.cancel(live), "the live timer fired");
                view
            })
            .collect();
        assert_eq!(views[0], views[1], "heap and calendar views differ");
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
