//! A hierarchical calendar queue (adaptive timing wheel + overflow band) —
//! the engine's fast path.
//!
//! The near future is a fixed wheel of `N_BUCKETS` buckets, each
//! `2^bucket_bits` picoseconds wide. Inserting into the wheel is an O(1)
//! append of a 24-byte `(key, slot)` entry — payloads live out-of-line in
//! a slab, so scheduler data movement is independent of the event type's
//! size. Popping stages one bucket at a time by sorting it (O(k log k))
//! on the global `(time, seq)` pair and walking it with a cursor — each
//! pop is one indexed read, no sift — so the pop order is *identical* to
//! the reference binary heap, including FIFO tie-breaking of
//! same-timestamp events by insertion sequence number. Events that land
//! at or behind the staged bucket are a binary-search insert into the
//! staged slice — k is one bucket's occupancy (held to a handful by the
//! adaptive width below), and the moved entries are 24 bytes each. Such
//! late inserts are rare: pushes for the current instant, the common case
//! in packet simulations, never reach the calendar, because
//! [`EventQueue`](crate::event::EventQueue)'s same-instant lane takes
//! them; what is left is a reschedule inside the staged bucket's span
//! and an older reservation filled at the current instant.
//!
//! The bucket width **adapts** to the workload (Brown's classic calendar
//! queue resize rule, driven here by average staged-bucket occupancy):
//! dense credit/packet traffic narrows buckets so each stage handles a
//! handful of events; sparse timer workloads widen them so events don't
//! pay a whole stage cycle each. Resizes are rare (checked every
//! [`RESIZE_CHECK`] staged buckets), rebuild only the wheel band, and are
//! driven purely by push/pop counts — never wall-clock — so they preserve
//! determinism.
//!
//! Events beyond the wheel's current window (`N_BUCKETS` buckets wide) go
//! to an overflow binary heap — the far band of the hierarchy. Whenever
//! the wheel drains, the day is fast-forwarded to the overflow's earliest
//! event and every overflow event inside the new window is pulled into
//! buckets. Each event therefore pays at most one heap push + pop (far
//! band) or one bucket append + one share of a small heapify (near band).
//!
//! Determinism contract: the pop sequence is a pure function of the
//! push/pop call sequence — wall clock, thread identity, and allocator
//! state never influence it. `(time, seq)` keys are unique (the wrapper
//! hands each sequence number out once), so heap order is total and the
//! differential tests in the workspace root can pin byte-identical
//! experiment output against the heap scheduler.

use crate::event::prefetch_obj;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Initial log2 of the bucket width in picoseconds (2^18 ps ≈ 0.26 µs —
/// a fit for 10–100 G packet event spacing; adaptation takes it from
/// there).
pub const INITIAL_BUCKET_BITS: u32 = 18;
/// Smallest allowed bucket width (2^12 ps ≈ 4 ns).
pub const MIN_BUCKET_BITS: u32 = 12;
/// Largest allowed bucket width (2^26 ps ≈ 67 µs).
pub const MAX_BUCKET_BITS: u32 = 26;
/// Number of wheel buckets (must be a power of two).
pub const N_BUCKETS: usize = 4096;
/// Re-evaluate the bucket width after this many staged buckets.
pub const RESIZE_CHECK: u64 = 1024;
/// Most entry slots an emptied bucket keeps allocated. The adaptive width
/// narrows once staged buckets average more than 16 entries (the resize
/// rule in the module docs), so a bucket within 4× that keeps its
/// allocation and steady traffic reallocates nothing; a larger one was a
/// burst, or the staging area's late inserts, and is returned. The wheel's
/// idle slack is then at most `N_BUCKETS` × 64 × 24 B = 6 MiB.
pub const BUCKET_KEEP: usize = 64;
const WORDS: usize = N_BUCKETS / 64;
/// How many pops ahead of the cursor a staged entry's slab payload is
/// prefetched: far enough for a DRAM miss to land before the engine's
/// lookahead ([`CalendarQueue::peek_staged`]) reads it, near enough that
/// the lines are still in L1 when it does.
const SLAB_PREFETCH_DIST: usize = 8;

/// A queue entry ordered by `Reverse((time ps, insertion seq))` so both
/// the staging heap and the overflow heap are min-heaps on `(time, seq)`.
/// The event payload lives out-of-line in the slab — entries are 24 bytes,
/// so heapify/sift traffic stays small no matter how big `E` is.
#[derive(Clone, Copy)]
struct Entry {
    key: Reverse<(u64, u64)>,
    slot: u32,
}

impl Entry {
    #[inline]
    fn new(t: u64, seq: u64, slot: u32) -> Entry {
        Entry {
            key: Reverse((t, seq)),
            slot,
        }
    }

    #[inline]
    fn time(&self) -> u64 {
        self.key.0 .0
    }

    #[inline]
    fn seq(&self) -> u64 {
        self.key.0 .1
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// The two-band calendar scheduler. Total order over `(time, seq)` — the
/// caller supplies a unique `seq` per push (the [`EventQueue`] wrapper's
/// counter does), which makes every tie deterministic.
///
/// [`EventQueue`]: crate::event::EventQueue
pub struct CalendarQueue<E> {
    /// Near band: unsorted per-bucket appends.
    buckets: Vec<Vec<Entry>>,
    /// Occupancy bitmap over `buckets` (bit set ⇔ bucket non-empty).
    occupied: [u64; WORDS],
    /// The staged current bucket, sorted ascending on `(time, seq)` and
    /// consumed from `scursor`; also receives pushes at or behind the
    /// wheel cursor (binary-search insert into the unpopped tail).
    staging: Vec<Entry>,
    /// Next staging index to pop (everything before it is already out).
    scursor: usize,
    /// Far band: everything at or beyond `day_start + WINDOW_PS`.
    overflow: BinaryHeap<Entry>,
    /// Out-of-line event payloads, indexed by `Entry::slot`.
    slab: Vec<Option<E>>,
    /// Free slots in `slab`, reused LIFO (deterministic).
    free: Vec<u32>,
    /// Start of the wheel's current window (multiple of the bucket width).
    day_start: u64,
    /// Bucket index the wheel has drained up to within this window.
    cursor: usize,
    /// Whether `buckets[cursor]` has already been merged into `staging`.
    staged: bool,
    /// Items currently in `buckets` (excludes `staging` and `overflow`).
    wheel_len: usize,
    /// Total items across all three structures.
    len: usize,
    /// Current log2 bucket width (adaptive; see module docs).
    bucket_bits: u32,
    /// `N_BUCKETS << bucket_bits` — one wheel rotation in ps.
    window_ps: u64,
    /// Buckets staged since the last resize check.
    stage_count: u64,
    /// Items those staged buckets held (occupancy numerator).
    staged_items: u64,
}

impl<E> CalendarQueue<E> {
    /// Create an empty calendar; `cap` sizes the overflow heap and staging
    /// area (the wheel itself is lazily allocated per bucket).
    pub fn with_capacity(cap: usize) -> CalendarQueue<E> {
        let mut buckets = Vec::with_capacity(N_BUCKETS);
        buckets.resize_with(N_BUCKETS, Vec::new);
        CalendarQueue {
            buckets,
            occupied: [0; WORDS],
            staging: Vec::with_capacity(cap.min(4096)),
            scursor: 0,
            overflow: BinaryHeap::with_capacity(cap),
            slab: Vec::with_capacity(cap),
            free: Vec::new(),
            day_start: 0,
            cursor: 0,
            staged: false,
            wheel_len: 0,
            len: 0,
            bucket_bits: INITIAL_BUCKET_BITS,
            window_ps: (N_BUCKETS as u64) << INITIAL_BUCKET_BITS,
            stage_count: 0,
            staged_items: 0,
        }
    }

    /// Current bucket width as a power-of-two exponent (for tests/stats).
    pub fn bucket_bits(&self) -> u32 {
        self.bucket_bits
    }

    /// Park `event` in the slab and return its slot index.
    #[inline]
    fn store(&mut self, event: E) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                (self.slab.len() - 1) as u32
            }
        }
    }

    /// Take the payload for `slot` back out of the slab.
    #[inline]
    fn take(&mut self, slot: u32) -> E {
        self.free.push(slot);
        self.slab[slot as usize].take().expect("empty slab slot")
    }

    /// Insert into the unpopped tail of the staged slice, keeping it
    /// sorted ascending on `(time, seq)`. Keys at or below the last
    /// popped key land at `scursor` and pop next — exactly the reference
    /// heap's behaviour for late pushes.
    #[inline]
    fn staging_insert(&mut self, e: Entry) {
        let k = e.key.0;
        let tail = &self.staging[self.scursor..];
        let pos = self.scursor + tail.partition_point(|x| x.key.0 < k);
        if pos == self.staging.len() {
            self.staging.push(e);
        } else {
            self.staging.insert(pos, e);
        }
    }

    /// Number of queued items.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert `(at, seq, event)`. Keys are unique; a key may be pushed any
    /// time before its position pops — sequence numbers need not arrive in
    /// order (a reserved one is pushed late, see
    /// [`EventQueue::push_reserved`](crate::event::EventQueue::push_reserved),
    /// which holds the `debug_assert!` that the key is ahead of the last
    /// live pop: only the wrapper knows which pops were tombstones).
    pub fn push(&mut self, at: SimTime, seq: u64, event: E) {
        let t = at.0;
        self.len += 1;
        let slot = self.store(event);
        match t.checked_sub(self.day_start) {
            // Far band: at or beyond the current window.
            Some(rel) if rel >= self.window_ps => self.overflow.push(Entry::new(t, seq, slot)),
            Some(rel) => {
                let idx = (rel >> self.bucket_bits) as usize;
                if idx < self.cursor || (idx == self.cursor && self.staged) {
                    // The wheel already drained past this bucket: insert
                    // into the staged slice (a reschedule inside the
                    // staged span — a binary search plus a few 24-byte
                    // entry moves).
                    self.staging_insert(Entry::new(t, seq, slot));
                } else {
                    self.buckets[idx].push(Entry::new(t, seq, slot));
                    self.occupied[idx / 64] |= 1 << (idx % 64);
                    self.wheel_len += 1;
                }
            }
            // Before the window start with nothing else queued (a full
            // drain fast-forwarded the window to its last event): re-anchor
            // the window here. Staging instead would turn the wheel into one
            // sorted `Vec` whose popped prefix is never reclaimed, for as
            // long as pushes keep landing before the stale `day_start`.
            None if self.len == 1 => {
                self.day_start = (t >> self.bucket_bits) << self.bucket_bits;
                self.cursor = 0;
                self.staged = false;
                self.staging.clear();
                self.scursor = 0;
                self.buckets[0].push(Entry::new(t, seq, slot));
                self.occupied[0] |= 1;
                self.wheel_len = 1;
            }
            // Before the window start (only after an aggressive
            // fast-forward): earlier than everything else, so staging —
            // which always pops first — keeps the order correct.
            None => self.staging_insert(Entry::new(t, seq, slot)),
        }
    }

    /// Hand every queued entry to `f` in `(time, seq)` order — the pop
    /// order — payload in place, stopping at the first error. The window,
    /// cursors, buckets and adaptive-width statistics are exactly as
    /// before the call.
    pub(crate) fn try_for_each_sorted<X>(
        &mut self,
        mut f: impl FnMut(SimTime, u64, &mut E) -> Result<(), X>,
    ) -> Result<(), X> {
        let mut keys: Vec<Entry> = Vec::with_capacity(self.len);
        keys.extend_from_slice(&self.staging[self.scursor..]);
        for b in &self.buckets {
            keys.extend_from_slice(b);
        }
        keys.extend(self.overflow.iter());
        debug_assert_eq!(keys.len(), self.len);
        keys.sort_unstable_by_key(|e| e.key.0);
        keys.iter().try_for_each(|e| {
            let event = self.slab[e.slot as usize]
                .as_mut()
                .expect("queued entry without a payload");
            f(SimTime(e.time()), e.seq(), event)
        })
    }

    /// Every queued payload, in slab order.
    pub(crate) fn payloads(&self) -> impl Iterator<Item = &E> {
        self.slab.iter().flatten()
    }

    /// First occupied bucket index at or after `from`, if any.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let (mut w, bit) = (from / 64, from % 64);
        let mut word = self.occupied[w] & (!0u64 << bit);
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            if w == WORDS {
                return None;
            }
            word = self.occupied[w];
        }
    }

    /// Move bucket `j` into (drained) staging by sorting it in place; the
    /// drained staging allocation is recycled as the new empty bucket,
    /// unless it is larger than [`BUCKET_KEEP`].
    fn stage(&mut self, j: usize) {
        debug_assert!(self.scursor == self.staging.len());
        self.staging.clear();
        self.scursor = 0;
        std::mem::swap(&mut self.staging, &mut self.buckets[j]);
        release_if_large(&mut self.buckets[j]);
        self.wheel_len -= self.staging.len();
        self.occupied[j / 64] &= !(1 << (j % 64));
        self.cursor = j;
        self.staged = true;
        self.stage_count += 1;
        self.staged_items += self.staging.len() as u64;
        self.staging.sort_unstable_by_key(|e| e.key.0);
        // Slab slots are handed out LIFO, so consecutive pops read payloads
        // scattered over the whole slab: start the first misses now, and
        // let every pop start the one `SLAB_PREFETCH_DIST` entries on.
        for e in self.staging.iter().take(SLAB_PREFETCH_DIST) {
            self.prefetch_payload(e.slot);
        }
    }

    /// Hint that the slab payload in `slot` is about to be read.
    #[inline]
    fn prefetch_payload(&self, slot: u32) {
        prefetch_obj(self.slab.as_ptr().wrapping_add(slot as usize));
    }

    /// The payload of the `k`-th unpopped entry of the staged bucket —
    /// the `k`-th next pop, as long as nothing earlier is pushed first.
    /// `None` past the end of the staged bucket. Read-only by contract:
    /// it must never settle the wheel, or peeking would change when
    /// buckets are staged and the adaptive width with it.
    #[inline]
    pub fn peek_staged(&self, k: usize) -> Option<&E> {
        let e = self.staging.get(self.scursor + k)?;
        self.slab[e.slot as usize].as_ref()
    }

    /// The key of the entry [`peek_staged`](Self::peek_staged)`(k)` names,
    /// read without touching its payload.
    #[inline]
    pub fn staged_key(&self, k: usize) -> Option<(SimTime, u64)> {
        let e = self.staging.get(self.scursor + k)?;
        Some((SimTime(e.time()), e.seq()))
    }

    /// Ensure staging holds the wheel's minimum (or the wheel is empty).
    fn settle_wheel(&mut self) {
        if self.scursor < self.staging.len() || self.wheel_len == 0 {
            return;
        }
        if self.stage_count >= RESIZE_CHECK {
            self.maybe_resize();
        }
        let from = if self.staged {
            self.cursor + 1
        } else {
            self.cursor
        };
        // wheel_len > 0 and nothing is behind the cursor (those inserts go
        // to staging), so an occupied bucket must exist at or after it.
        let j = self.next_occupied(from).expect("wheel accounting broken");
        self.stage(j);
    }

    /// Adapt the bucket width to the observed staged-bucket occupancy:
    /// narrow when buckets are crowded (each stage heapifies too much),
    /// widen when they are nearly empty (each event pays a whole stage
    /// cycle). Only called from `settle_wheel` while staging is empty, so
    /// the rebuild has a clean wheel to work on. Deterministic: driven by
    /// push/pop counts only.
    fn maybe_resize(&mut self) {
        let (stages, items) = (self.stage_count, self.staged_items);
        self.stage_count = 0;
        self.staged_items = 0;
        let new_bits = if items > 16 * stages {
            self.bucket_bits.saturating_sub(1).max(MIN_BUCKET_BITS)
        } else if 2 * items < 3 * stages {
            (self.bucket_bits + 1).min(MAX_BUCKET_BITS)
        } else {
            return;
        };
        if new_bits == self.bucket_bits {
            return;
        }
        self.rebuild(new_bits);
    }

    /// Re-bucket every wheel entry under a new bucket width. Staging is
    /// empty (caller guarantees it) and the overflow band needs no work:
    /// events that now fit the (possibly larger) window are pulled in by
    /// the next `fast_forward` as usual.
    fn rebuild(&mut self, new_bits: u32) {
        let mut scratch: Vec<Entry> = Vec::with_capacity(self.wheel_len);
        if self.wheel_len > 0 {
            let mut from = 0;
            while let Some(j) = self.next_occupied(from) {
                scratch.append(&mut self.buckets[j]);
                release_if_large(&mut self.buckets[j]);
                self.occupied[j / 64] &= !(1 << (j % 64));
                if j + 1 == N_BUCKETS {
                    break;
                }
                from = j + 1;
            }
        }
        debug_assert_eq!(scratch.len(), self.wheel_len);
        self.bucket_bits = new_bits;
        self.window_ps = (N_BUCKETS as u64) << new_bits;
        self.cursor = 0;
        self.staged = false;
        // Align the window to the earliest remaining wheel entry (or keep
        // the old origin when the wheel is empty). Entries are never
        // behind the new day_start by construction.
        let min_t = scratch.iter().map(|e| e.time()).min();
        self.day_start = (min_t.unwrap_or(self.day_start) >> new_bits) << new_bits;
        let mut to_overflow = 0;
        for e in scratch {
            let rel = e.time() - self.day_start;
            if rel >= self.window_ps {
                self.overflow.push(e);
                to_overflow += 1;
            } else {
                let idx = (rel >> new_bits) as usize;
                self.buckets[idx].push(e);
                self.occupied[idx / 64] |= 1 << (idx % 64);
            }
        }
        self.wheel_len -= to_overflow;
        // The window may now end later than before (wider buckets, or
        // day_start advanced): overflow events that fall inside it must
        // move into the wheel, or later wheel events would pop first.
        let day_end = self.day_start + self.window_ps;
        while let Some(e) = self.overflow.peek() {
            let t = e.time();
            if t >= day_end {
                break;
            }
            let e = self.overflow.pop().unwrap();
            let idx = ((t - self.day_start) >> new_bits) as usize;
            self.buckets[idx].push(e);
            self.occupied[idx / 64] |= 1 << (idx % 64);
            self.wheel_len += 1;
        }
    }

    /// Rotate the wheel to the window containing the overflow minimum and
    /// pull every overflow event inside the new window into buckets.
    fn fast_forward(&mut self) {
        debug_assert!(self.scursor == self.staging.len() && self.wheel_len == 0);
        let min_t = self.overflow.peek().expect("fast_forward on empty").time();
        self.day_start = (min_t >> self.bucket_bits) << self.bucket_bits;
        self.cursor = 0;
        self.staged = false;
        let day_end = self.day_start + self.window_ps;
        while let Some(e) = self.overflow.peek() {
            let t = e.time();
            if t >= day_end {
                break;
            }
            let e = self.overflow.pop().unwrap();
            let idx = ((t - self.day_start) >> self.bucket_bits) as usize;
            self.buckets[idx].push(e);
            self.occupied[idx / 64] |= 1 << (idx % 64);
            self.wheel_len += 1;
        }
    }

    /// Key of the earliest entry without removing it.
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        if self.len == 0 {
            return None;
        }
        self.settle_wheel();
        if let Some(e) = self.staging.get(self.scursor) {
            return Some((SimTime(e.time()), e.seq()));
        }
        // Wheel empty: the minimum lives in overflow; no need to rotate yet.
        self.overflow.peek().map(|e| (SimTime(e.time()), e.seq()))
    }

    /// Remove and return the earliest entry.
    pub fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        self.pop_if_le(SimTime::MAX)
    }

    /// Remove and return the earliest entry **if** it fires at or before
    /// `t` — the engine's fused peek-then-pop: one settle and one ordering
    /// check per event instead of two of each. Always inlined: the payload
    /// is returned by value, and an outlined copy of this function costs
    /// every pop a second move of it.
    #[inline(always)]
    pub fn pop_if_le(&mut self, t: SimTime) -> Option<(SimTime, u64, E)> {
        if self.len == 0 {
            return None;
        }
        self.settle_wheel();
        if self.scursor == self.staging.len() {
            // Wheel drained: the minimum lives in overflow — check it
            // before paying for a rotation.
            if self.overflow.peek()?.time() > t.0 {
                return None;
            }
            self.fast_forward();
            self.settle_wheel();
        }
        let e = self.staging[self.scursor];
        if e.time() > t.0 {
            return None;
        }
        self.scursor += 1;
        self.len -= 1;
        if let Some(ahead) = self.staging.get(self.scursor + SLAB_PREFETCH_DIST - 1) {
            self.prefetch_payload(ahead.slot);
        }
        let event = self.take(e.slot);
        Some((SimTime(e.time()), e.seq(), event))
    }

    /// Allocated entry slots across the slab, staging, and the overflow
    /// heap (the dominant growable allocations; wheel buckets too).
    pub fn capacity(&self) -> usize {
        self.slab.capacity()
            + self.staging.capacity()
            + self.overflow.capacity()
            + self.buckets.iter().map(|b| b.capacity()).sum::<usize>()
    }

    /// Release excess memory down to roughly `cap` retained slots. Called
    /// by the wrapper after a full drain; a no-op on simulation state.
    pub fn shrink_to(&mut self, cap: usize) {
        self.staging.shrink_to(cap.min(4096));
        self.overflow.shrink_to(cap);
        if self.len == 0 {
            // Safe only when empty: live `Entry::slot` indices would dangle
            // otherwise.
            self.slab.clear();
            self.slab.shrink_to(cap);
            self.free.clear();
            self.free.shrink_to(cap);
        }
        for b in &mut self.buckets {
            if b.capacity() > 16 && b.is_empty() {
                *b = Vec::new();
            }
        }
    }
}

/// Give back an emptied bucket's allocation when it holds more than
/// [`BUCKET_KEEP`] slots. Every bucket is then either empty with at most
/// that many, or filled by pushes alone — at most twice its length — so
/// the wheel's slots stay within `2 × wheel_len + N_BUCKETS × BUCKET_KEEP`.
#[inline]
fn release_if_large(bucket: &mut Vec<Entry>) {
    debug_assert!(bucket.is_empty());
    if bucket.capacity() > BUCKET_KEEP {
        *bucket = Vec::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    /// The wheel window before any adaptation kicks in.
    const WINDOW_PS: u64 = (N_BUCKETS as u64) << INITIAL_BUCKET_BITS;

    fn drain<E>(q: &mut CalendarQueue<E>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((t, s, _)) = q.pop() {
            out.push((t.0, s));
        }
        out
    }

    #[test]
    fn orders_within_one_bucket() {
        let mut q = CalendarQueue::with_capacity(8);
        q.push(SimTime(500), 0, "a");
        q.push(SimTime(100), 1, "b");
        q.push(SimTime(100), 2, "c");
        assert_eq!(q.pop().unwrap().2, "b");
        assert_eq!(q.pop().unwrap().2, "c");
        assert_eq!(q.pop().unwrap().2, "a");
        assert!(q.pop().is_none());
    }

    #[test]
    fn orders_across_buckets_and_overflow() {
        let mut q = CalendarQueue::with_capacity(8);
        let far = WINDOW_PS * 3 + 17; // overflow band
        let mid = WINDOW_PS / 2; // later bucket
        q.push(SimTime(far), 0, ());
        q.push(SimTime(mid), 1, ());
        q.push(SimTime(3), 2, ());
        assert_eq!(drain(&mut q), vec![(3, 2), (mid, 1), (far, 0)]);
    }

    #[test]
    fn push_behind_cursor_goes_to_staging() {
        let mut q = CalendarQueue::with_capacity(8);
        q.push(SimTime::ZERO + Dur::us(50), 0, "later");
        // Drain cursor forward to the 50 µs bucket.
        assert_eq!(q.peek_key().unwrap().0, SimTime::ZERO + Dur::us(50));
        // Now push an earlier event (same instant as "now" would be).
        q.push(SimTime::ZERO + Dur::us(49), 1, "earlier-bucket");
        q.push(SimTime::ZERO + Dur::us(50), 2, "tie-later-seq");
        assert_eq!(q.pop().unwrap().2, "earlier-bucket");
        assert_eq!(q.pop().unwrap().2, "later");
        assert_eq!(q.pop().unwrap().2, "tie-later-seq");
    }

    #[test]
    fn fast_forward_many_windows() {
        let mut q = CalendarQueue::with_capacity(8);
        for i in 0..5u64 {
            q.push(SimTime(i * 40 * WINDOW_PS), i, i);
        }
        let got = drain(&mut q);
        assert_eq!(got.len(), 5);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn interleaves_push_pop_deterministically() {
        let mut q = CalendarQueue::with_capacity(8);
        let mut last = (0u64, 0u64);
        let mut popped = 0usize;
        for (seq, round) in (0..2000u64).enumerate() {
            let t = (round * 7919) % (WINDOW_PS * 2);
            // Keep time monotone relative to pops by offsetting with last.
            q.push(SimTime(last.0 + t), seq as u64, ());
            if round % 3 == 0 {
                if let Some((t, s, _)) = q.pop() {
                    assert!((t.0, s) > last || popped == 0, "regressed order");
                    last = (t.0, s);
                    popped += 1;
                }
            }
        }
        let rest = drain(&mut q);
        assert_eq!(popped + rest.len(), 2000);
        assert!(rest.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn shrink_releases_memory() {
        let mut q = CalendarQueue::with_capacity(16);
        for i in 0..100_000u64 {
            q.push(SimTime(i * (WINDOW_PS / 64)), i, i);
        }
        while q.pop().is_some() {}
        let before = q.capacity();
        q.shrink_to(16);
        assert!(q.capacity() < before);
        assert!(q.is_empty());
    }

    /// A packet-simulation-like refill starting near t = 10: `n` pushes a
    /// few µs ahead of the last pop, seven pops per eight pushes, every
    /// pop checked against a reference heap. Returns the peak live count.
    fn refill_near_now(q: &mut CalendarQueue<()>, first_seq: u64, n: u64) -> usize {
        let mut oracle: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let (mut now, mut peak_live) = (10u64, 0usize);
        for seq in first_seq..first_seq + n {
            let t = now + 1 + (seq * 7919) % (WINDOW_PS / 256);
            q.push(SimTime(t), seq, ());
            oracle.push(Reverse((t, seq)));
            peak_live = peak_live.max(q.len());
            if seq % 8 != 0 {
                let (pt, ps, _) = q.pop().expect("just pushed");
                assert_eq!(Some(Reverse((pt.0, ps))), oracle.pop());
                now = pt.0;
            }
        }
        assert_eq!(q.len(), oracle.len());
        peak_live
    }

    #[test]
    fn refill_after_a_far_future_drain_reanchors_the_window() {
        // Draining a queue whose last event lies 1000 windows ahead leaves
        // `day_start` there. A refill near the old `now` must land back in
        // the wheel, not pile up in staging behind a dead prefix.
        let mut q = CalendarQueue::with_capacity(16);
        q.push(SimTime(5), 0, ());
        q.push(SimTime(1000 * WINDOW_PS), 1, ());
        assert_eq!(drain(&mut q).len(), 2);
        let peak_live = refill_near_now(&mut q, 2, 100_000);

        // Staging is the store the sorted-`Vec` mode grows without bound
        // (one slot per entry ever pushed): it must hold about one
        // bucket's worth, not the refill's history.
        assert!(
            q.staging.capacity() <= 2 * peak_live,
            "staging holds {} slots for {peak_live} live entries",
            q.staging.capacity()
        );
        // And the queue as a whole is no bigger than one that was never
        // fast-forwarded (bucket allocations dominate both).
        let mut fresh = CalendarQueue::with_capacity(16);
        refill_near_now(&mut fresh, 2, 100_000);
        assert!(
            q.capacity() <= 2 * fresh.capacity(),
            "capacity {} against {} for a never-drained queue",
            q.capacity(),
            fresh.capacity()
        );
        let left = q.len();
        let rest = drain(&mut q);
        assert!(rest.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(rest.len(), left);
    }

    /// Entry slots allocated across the wheel's buckets.
    fn bucket_slots<E>(q: &CalendarQueue<E>) -> usize {
        q.buckets.iter().map(|b| b.capacity()).sum()
    }

    fn assert_buckets_bounded<E>(q: &CalendarQueue<E>, when: &str) {
        let bound = 2 * q.wheel_len + N_BUCKETS * BUCKET_KEEP;
        let slots = bucket_slots(q);
        assert!(
            slots <= bound,
            "{when}: {slots} bucket slots for {} wheel entries (bound {bound})",
            q.wheel_len
        );
    }

    #[test]
    fn bucket_slots_stay_bounded_by_what_the_wheel_queues() {
        // A dense burst at the initial, wide width: ~200 entries a bucket
        // across the whole window, each pop followed by a push into the
        // staged bucket, so staging grows well past one bucket's share.
        let mut q = CalendarQueue::with_capacity(16);
        let n = 200 * N_BUCKETS as u64;
        let step = WINDOW_PS / n;
        for seq in 0..n {
            q.push(SimTime(seq * step), seq, ());
        }
        let mut seq = n;
        let mut last = (0u64, 0u64);
        for i in 0..n {
            let (t, s, _) = q.pop().expect("burst entry");
            assert!((t.0, s) >= last, "order regressed at pop {i}");
            last = (t.0, s);
            if i % 2 == 0 {
                q.push(SimTime(t.0 + step / 2), seq, ());
                seq += 1;
            }
            if i % 4096 == 0 {
                assert_buckets_bounded(&q, "dense burst");
            }
        }
        // The sparse tail: one event every eight buckets of whatever width
        // the burst left, popped one at a time.
        let gap = 8u64 << q.bucket_bits();
        let t0 = last.0 + gap;
        for k in 0..512u64 {
            q.push(SimTime(t0 + k * gap), seq, ());
            seq += 1;
        }
        assert_buckets_bounded(&q, "sparse tail queued");
        while let Some((t, s, _)) = q.pop() {
            assert!((t.0, s) > last, "order regressed in the tail");
            last = (t.0, s);
            assert_buckets_bounded(&q, "sparse tail");
        }
    }

    #[test]
    fn sorted_walk_is_complete_and_leaves_the_layout() {
        let mut q = CalendarQueue::with_capacity(8);
        let far = WINDOW_PS * 3 + 17;
        for (seq, t) in [far, WINDOW_PS / 2, 900, 3, 900, far + 1]
            .into_iter()
            .enumerate()
        {
            q.push(SimTime(t), seq as u64, t);
        }
        // Stage a bucket and leave part of it unpopped, then push behind
        // the cursor, so staging, buckets and overflow all hold entries.
        assert_eq!(q.pop().unwrap().2, 3);
        q.push(SimTime(4), 6, 4);
        let (cap, bits, len) = (q.capacity(), q.bucket_bits(), q.len());
        let mut got: Vec<(u64, u64, u64)> = Vec::new();
        q.try_for_each_sorted(|t, s, e| {
            got.push((t.0, s, *e));
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!((q.capacity(), q.bucket_bits(), q.len()), (cap, bits, len));
        let popped: Vec<(u64, u64, u64)> =
            std::iter::from_fn(|| q.pop().map(|(t, s, e)| (t.0, s, e))).collect();
        assert_eq!(got, popped);
        assert_eq!(got.len(), 6);
    }

    #[test]
    fn adapts_width_to_sparse_workload_and_stays_ordered() {
        // Hold pattern with one event every ~8 buckets: occupancy « 1.5,
        // so the queue should widen its buckets, and the pop stream must
        // stay ordered through every rebuild.
        let mut q = CalendarQueue::with_capacity(64);
        let gap = 8u64 << INITIAL_BUCKET_BITS;
        let mut seq = 0u64;
        let mut t = 0u64;
        for _ in 0..64 {
            q.push(SimTime(t), seq, ());
            seq += 1;
            t += gap;
        }
        let mut last = (0u64, 0u64);
        for i in 0..20_000u64 {
            let (pt, ps, _) = q.pop().expect("steady-state hold never empties");
            assert!((pt.0, ps) > last || i == 0, "order regressed at {i}");
            last = (pt.0, ps);
            q.push(SimTime(pt.0 + 64 * gap), seq, ());
            seq += 1;
        }
        assert!(
            q.bucket_bits() > INITIAL_BUCKET_BITS,
            "sparse hold workload should widen buckets (still {})",
            q.bucket_bits()
        );
    }

    #[test]
    fn adapts_width_to_dense_workload_and_stays_ordered() {
        // ~64 events per initial bucket: occupancy » 16, so the queue
        // should narrow its buckets; order must hold through rebuilds.
        let mut q = CalendarQueue::with_capacity(4096);
        let step = (1u64 << INITIAL_BUCKET_BITS) / 64;
        let mut seq = 0u64;
        let mut t = 1u64;
        for _ in 0..4096 {
            q.push(SimTime(t), seq, ());
            seq += 1;
            t += step;
        }
        let mut last = (0u64, 0u64);
        for i in 0..300_000u64 {
            let (pt, ps, _) = q.pop().expect("steady-state hold never empties");
            assert!((pt.0, ps) > last || i == 0, "order regressed at {i}");
            last = (pt.0, ps);
            q.push(SimTime(pt.0 + 4096 * step), seq, ());
            seq += 1;
        }
        assert!(
            q.bucket_bits() < INITIAL_BUCKET_BITS,
            "dense workload should narrow buckets (still {})",
            q.bucket_bits()
        );
    }
}
