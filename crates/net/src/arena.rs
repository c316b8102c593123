//! Generational flow arena: the million-flow state layout.
//!
//! Flow state used to live in a `Vec<FlowRuntime>` — one large struct per
//! flow, with the per-credit hot counters (`rx_bytes`, `credits_sent`,
//! `credits_wasted`, the done/aborted/stalled bits) interleaved with cold
//! identity and boxed endpoint pointers. At 10⁵–10⁶ flows that layout
//! wastes cache on every credit: touching one `u64` counter drags a ~200 B
//! struct line in with it.
//!
//! [`FlowArena`] splits the state three ways:
//!
//! * **Slots** (cold): identity ([`FlowInfo`]), the two boxed endpoints
//!   (kept boxed so the take/put-back dispatch dance keeps working), the
//!   recorded FCT, and a generation counter.
//! * **Struct-of-arrays hot fields**: `rx_bytes`, `credits_sent`,
//!   `credits_wasted`, and a packed flag byte per flow, each in its own
//!   dense array touched by the per-credit loop.
//! * **Free list**: retired slots are reused; each reuse bumps the slot
//!   generation so stale [`FlowHandle`]s (and timers carrying them)
//!   are detected and dropped instead of acting on the wrong flow.
//!
//! `FlowId` remains the public identity and equals the slot index. In
//! production runs flows are never retired, so ids stay dense and every
//! observable output is byte-identical to the old layout; the free list is
//! exercised by churn workloads (and tests) via
//! [`Network::retire_flow`](crate::network::Network::retire_flow).
//!
//! The arena owns its wire format ([`FlowArena::snap`] /
//! [`FlowArena::restore`]): nothing outside this module can set a
//! generation or the free list, so the guarantee a [`FlowHandle`] gives
//! cannot be broken from outside — a restored arena refuses exactly the
//! handles the one that was snapshotted refuses.

use crate::endpoint::{Endpoint, EndpointFactory, FlowInfo};
use crate::ids::{FlowId, HostId, Side};
use xpass_sim::event::{prefetch, prefetch_bytes, prefetch_obj, CACHE_LINE};
use xpass_sim::snap::{SnapError, SnapReader, SnapWriter};
use xpass_sim::time::{Dur, SimTime};

/// Flow is fully delivered.
pub const FLAG_DONE: u8 = 1 << 0;
/// Flow gave up (connection-establishment retries exhausted, …).
pub const FLAG_ABORTED: u8 = 1 << 1;
/// Flow is currently flagged as stalled (observational).
pub const FLAG_STALLED: u8 = 1 << 2;

/// Bytes of an endpoint box the dispatch prefetch covers: six cache lines,
/// the size of the largest hot endpoint (the 360-byte ExpressPass
/// receiver). Over-reaching past a smaller box only warms a neighbour.
const ENDPOINT_PREFETCH_BYTES: usize = 6 * CACHE_LINE;

/// A generational handle to an arena slot. The index aliases the
/// [`FlowId`]; the generation detects slot reuse — a handle (or timer)
/// minted before a slot was retired never acts on its successor.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FlowHandle {
    /// Slot index (== `FlowId.0`).
    pub idx: u32,
    /// Slot generation at mint time.
    pub gen: u32,
}

impl FlowHandle {
    /// The flow id this handle addresses.
    pub fn flow(self) -> FlowId {
        FlowId(self.idx)
    }
}

/// Cold per-flow state: identity, endpoints, outcome.
struct Slot {
    /// Bumped each time the slot is retired; handles embed the value.
    gen: u32,
    occupied: bool,
    info: FlowInfo,
    sender: Option<Box<dyn Endpoint>>,
    receiver: Option<Box<dyn Endpoint>>,
    fct: Option<Dur>,
}

/// Arena of flow slots with struct-of-arrays hot fields. See module docs.
pub struct FlowArena {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    // Hot arrays, indexed by slot. Kept parallel to `slots`.
    rx_bytes: Vec<u64>,
    credits_sent: Vec<u64>,
    credits_wasted: Vec<u64>,
    flags: Vec<u8>,
}

impl FlowArena {
    /// Empty arena.
    pub fn new() -> FlowArena {
        FlowArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            rx_bytes: Vec::new(),
            credits_sent: Vec::new(),
            credits_wasted: Vec::new(),
            flags: Vec::new(),
        }
    }

    /// Number of slots (live + vacant). Equals the dense flow-id space.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of live (occupied) flows.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Reserve a slot and return its handle. The caller must follow with
    /// [`commit`](Self::commit); the slot is not live until then. Reuses
    /// the most recently freed slot first (LIFO), else appends.
    pub fn alloc(&mut self) -> FlowHandle {
        let idx = match self.free.pop() {
            Some(i) => i,
            None => self.push_vacant(0),
        };
        FlowHandle {
            idx,
            gen: self.slots[idx as usize].gen,
        }
    }

    /// Fill a slot reserved with [`alloc`](Self::alloc) and mark it live.
    pub fn commit(
        &mut self,
        h: FlowHandle,
        info: FlowInfo,
        sender: Box<dyn Endpoint>,
        receiver: Box<dyn Endpoint>,
    ) {
        let s = &mut self.slots[h.idx as usize];
        assert_eq!(s.gen, h.gen, "commit with stale handle");
        assert!(!s.occupied, "commit to occupied slot");
        debug_assert_eq!(info.id.0, h.idx, "flow id must equal slot index");
        s.occupied = true;
        s.info = info;
        s.sender = Some(sender);
        s.receiver = Some(receiver);
        s.fct = None;
        let i = h.idx as usize;
        self.rx_bytes[i] = 0;
        self.credits_sent[i] = 0;
        self.credits_wasted[i] = 0;
        self.flags[i] = 0;
        self.live += 1;
    }

    /// Retire a live slot: drop its endpoints, bump the generation (so
    /// stale handles and timers go dead), and push it on the free list.
    /// Returns the flow's identity and final counters.
    pub fn retire(&mut self, h: FlowHandle) -> (FlowInfo, Option<Dur>) {
        let s = &mut self.slots[h.idx as usize];
        assert_eq!(s.gen, h.gen, "retire with stale handle");
        assert!(s.occupied, "retire of vacant slot");
        s.occupied = false;
        s.gen = s.gen.wrapping_add(1);
        s.sender = None;
        s.receiver = None;
        let fct = s.fct.take();
        let info = s.info.clone();
        self.free.push(h.idx);
        self.live -= 1;
        (info, fct)
    }

    /// Handle for a flow id, if the slot is live.
    pub fn handle(&self, flow: FlowId) -> Option<FlowHandle> {
        let s = self.slots.get(flow.0 as usize)?;
        if s.occupied {
            Some(FlowHandle {
                idx: flow.0,
                gen: s.gen,
            })
        } else {
            None
        }
    }

    /// True when the slot is live and the handle generation is current.
    #[inline]
    pub fn check_gen(&self, flow: FlowId, gen: u32) -> bool {
        match self.slots.get(flow.0 as usize) {
            Some(s) => s.occupied && s.gen == gen,
            None => false,
        }
    }

    /// True when the flow id addresses a live slot.
    #[inline]
    pub fn is_live(&self, flow: FlowId) -> bool {
        matches!(self.slots.get(flow.0 as usize), Some(s) if s.occupied)
    }

    /// Current generation of a slot (live or vacant). Panics out of range.
    pub fn gen(&self, flow: FlowId) -> u32 {
        self.slots[flow.0 as usize].gen
    }

    /// Flow identity. Panics if the slot is vacant or out of range.
    #[inline]
    pub fn info(&self, flow: FlowId) -> &FlowInfo {
        let s = &self.slots[flow.0 as usize];
        debug_assert!(s.occupied, "info() on vacant slot {flow}");
        &s.info
    }

    /// Recorded flow-completion time, if completed.
    pub fn fct(&self, flow: FlowId) -> Option<Dur> {
        self.slots[flow.0 as usize].fct
    }

    /// Record the flow-completion time.
    pub fn set_fct(&mut self, flow: FlowId, fct: Dur) {
        self.slots[flow.0 as usize].fct = Some(fct);
    }

    // ---- SoA hot-field accessors -------------------------------------

    /// Receiver-side delivered bytes.
    #[inline]
    pub fn rx_bytes(&self, flow: FlowId) -> u64 {
        self.rx_bytes[flow.0 as usize]
    }

    /// Add delivered bytes; returns the new total.
    #[inline]
    pub fn add_rx_bytes(&mut self, flow: FlowId, bytes: u64) -> u64 {
        let r = &mut self.rx_bytes[flow.0 as usize];
        *r += bytes;
        *r
    }

    /// Credits sent by this flow's receiver.
    #[inline]
    pub fn credits_sent(&self, flow: FlowId) -> u64 {
        self.credits_sent[flow.0 as usize]
    }

    /// Count one credit sent.
    #[inline]
    pub fn incr_credits_sent(&mut self, flow: FlowId) {
        self.credits_sent[flow.0 as usize] += 1;
    }

    /// Credits that arrived but triggered no data (paper §6.3).
    #[inline]
    pub fn credits_wasted(&self, flow: FlowId) -> u64 {
        self.credits_wasted[flow.0 as usize]
    }

    /// Count one wasted credit.
    #[inline]
    pub fn incr_credits_wasted(&mut self, flow: FlowId) {
        self.credits_wasted[flow.0 as usize] += 1;
    }

    /// Raw flag byte (`FLAG_*` bits).
    #[inline]
    pub fn flags(&self, flow: FlowId) -> u8 {
        self.flags[flow.0 as usize]
    }

    /// True once fully delivered.
    #[inline]
    pub fn is_done(&self, flow: FlowId) -> bool {
        self.flags[flow.0 as usize] & FLAG_DONE != 0
    }

    /// True once aborted.
    #[inline]
    pub fn is_aborted(&self, flow: FlowId) -> bool {
        self.flags[flow.0 as usize] & FLAG_ABORTED != 0
    }

    /// True while flagged stalled.
    #[inline]
    pub fn is_stalled(&self, flow: FlowId) -> bool {
        self.flags[flow.0 as usize] & FLAG_STALLED != 0
    }

    /// Set or clear a flag bit; returns true if the byte changed.
    #[inline]
    pub fn set_flag(&mut self, flow: FlowId, bit: u8, on: bool) -> bool {
        let f = &mut self.flags[flow.0 as usize];
        let old = *f;
        if on {
            *f |= bit;
        } else {
            *f &= !bit;
        }
        *f != old
    }

    // ---- endpoint take/put-back (dispatch + snapshot) ----------------

    /// Take an endpoint out for dispatch; `None` if absent (re-entrant
    /// dispatch, retired slot, or still checked out).
    pub fn take_endpoint(&mut self, flow: FlowId, side: Side) -> Option<Box<dyn Endpoint>> {
        let s = self.slots.get_mut(flow.0 as usize)?;
        match side {
            Side::Sender => s.sender.take(),
            Side::Receiver => s.receiver.take(),
        }
    }

    /// Put a dispatched endpoint back.
    pub fn put_endpoint(&mut self, flow: FlowId, side: Side, ep: Box<dyn Endpoint>) {
        let s = &mut self.slots[flow.0 as usize];
        let slot = match side {
            Side::Sender => &mut s.sender,
            Side::Receiver => &mut s.receiver,
        };
        debug_assert!(slot.is_none(), "put_endpoint over a present endpoint");
        *slot = Some(ep);
    }

    /// Borrow an endpoint immutably.
    fn endpoint(&self, flow: FlowId, side: Side) -> Option<&dyn Endpoint> {
        let s = self.slots.get(flow.0 as usize)?;
        match side {
            Side::Sender => s.sender.as_deref(),
            Side::Receiver => s.receiver.as_deref(),
        }
    }

    // ---- prefetch hints (run-loop lookahead; never observable) ----------

    /// Hint that `flow`'s slot and its `rx_bytes` / `credits_sent` lane
    /// entries are about to be touched. Any id is acceptable, in range or
    /// not: nothing is read.
    #[inline]
    pub fn prefetch_flow(&self, flow: FlowId) {
        let i = flow.0 as usize;
        prefetch_obj(self.slots.as_ptr().wrapping_add(i));
        prefetch(self.rx_bytes.as_ptr().wrapping_add(i));
        prefetch(self.credits_sent.as_ptr().wrapping_add(i));
    }

    /// Hint that `flow`'s endpoint on `side` is about to be dispatched.
    /// Reads the slot for the box pointer — cheap once
    /// [`prefetch_flow`](Self::prefetch_flow) has made it resident.
    #[inline]
    pub fn prefetch_endpoint(&self, flow: FlowId, side: Side) {
        if let Some(ep) = self.endpoint(flow, side) {
            prefetch_bytes(std::ptr::from_ref(ep).cast::<u8>(), ENDPOINT_PREFETCH_BYTES);
        }
    }

    /// Iterate live flow ids in index order.
    pub fn live_ids(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.occupied)
            .map(|(i, _)| FlowId(i as u32))
    }

    // ---- snapshot / restore ------------------------------------------

    /// Append a vacant slot with the given generation; returns its index.
    fn push_vacant(&mut self, gen: u32) -> u32 {
        let i = self.slots.len() as u32;
        self.slots.push(Slot {
            gen,
            occupied: false,
            info: FlowInfo {
                id: FlowId(i),
                src: HostId(0),
                dst: HostId(0),
                size_bytes: 0,
                start: SimTime::ZERO,
                class: 0,
            },
            sender: None,
            receiver: None,
            fct: None,
        });
        self.rx_bytes.push(0);
        self.credits_sent.push(0);
        self.credits_wasted.push(0);
        self.flags.push(0);
        i
    }

    /// Serialize every slot — occupancy and generation, and for a live one
    /// its identity (so that a flow added during the run can be rebuilt
    /// from the factory on restore), hot lanes, FCT and both endpoints —
    /// then the free list, most recently freed last. No endpoint may be
    /// checked out.
    pub fn snap(&self, w: &mut SnapWriter) {
        w.usize(self.slots.len());
        for (i, s) in self.slots.iter().enumerate() {
            w.bool(s.occupied);
            w.u32(s.gen);
            if !s.occupied {
                continue;
            }
            w.u32(s.info.src.0);
            w.u32(s.info.dst.0);
            w.u64(s.info.size_bytes);
            w.u64(s.info.start.0);
            w.u8(s.info.class);
            w.u64(self.rx_bytes[i]);
            w.u8(self.flags[i]);
            w.opt(s.fct.as_ref(), |w, d| w.u64(d.0));
            w.u64(self.credits_sent[i]);
            w.u64(self.credits_wasted[i]);
            for ep in [&s.sender, &s.receiver] {
                ep.as_ref()
                    .expect("endpoint checked out during snapshot")
                    .snap_state(w);
            }
        }
        w.seq(&self.free, |w, i| w.u32(*i));
    }

    /// Overlay state written by [`snap`](Self::snap) onto the arena the
    /// deterministic setup rebuilt. Slots the setup filled must agree with
    /// the snapshot on occupancy and identity; slots past them — flows
    /// added (and perhaps retired) during the snapshotted run — are
    /// rebuilt from `factory`.
    pub fn restore(
        &mut self,
        r: &mut SnapReader<'_>,
        factory: &EndpointFactory,
    ) -> Result<(), SnapError> {
        let configured = self.slots.len();
        let n = r.seq_len(1)?;
        if n < configured {
            return Err(r.err(format!(
                "flow count mismatch: configuration has {configured}, snapshot has only {n}"
            )));
        }
        for i in 0..n {
            r.within(i.to_string(), |r| {
                self.restore_slot(r, i, i >= configured, factory)
            })?;
        }
        r.within("free_list", |r| {
            self.free.clear();
            for _ in 0..r.seq_len(4)? {
                let idx = r.u32()?;
                if self.slots.get(idx as usize).is_none_or(|s| s.occupied) {
                    return Err(r.err(format!(
                        "free list entry {idx} does not address a vacant slot"
                    )));
                }
                self.free.push(idx);
            }
            Ok(())
        })
    }

    /// One slot of [`restore`](Self::restore): slot `i`, which is `added`
    /// when the setup did not build it.
    fn restore_slot(
        &mut self,
        r: &mut SnapReader<'_>,
        i: usize,
        added: bool,
        factory: &EndpointFactory,
    ) -> Result<(), SnapError> {
        let occupied = r.bool()?;
        let gen = r.u32()?;
        if added {
            self.push_vacant(gen);
        } else if self.slots[i].occupied == occupied {
            self.slots[i].gen = gen;
        } else {
            let word = |b: bool| if b { "live" } else { "vacant" };
            return Err(r.err(format!(
                "flow slot occupancy mismatch: configuration has slot {i} {}, \
                 snapshot has it {}",
                word(!occupied),
                word(occupied)
            )));
        }
        if !occupied {
            return Ok(());
        }
        let info = FlowInfo {
            id: FlowId(i as u32),
            src: HostId(r.u32()?),
            dst: HostId(r.u32()?),
            size_bytes: r.u64()?,
            start: SimTime(r.u64()?),
            class: r.u8()?,
        };
        if added {
            // No `FlowStart` is scheduled: the restored event queue holds
            // whatever remains of this flow's events.
            let h = FlowHandle { idx: i as u32, gen };
            let sender = factory(Side::Sender, &info, h);
            let receiver = factory(Side::Receiver, &info, h);
            self.commit(h, info, sender, receiver);
        } else if self.slots[i].info != info {
            let have = &self.slots[i].info;
            return Err(r.err(format!(
                "flow identity mismatch: configuration has {} → {} ({} B), \
                 snapshot has {} → {} ({} B)",
                have.src, have.dst, have.size_bytes, info.src, info.dst, info.size_bytes
            )));
        }
        self.rx_bytes[i] = r.u64()?;
        self.flags[i] = r.u8()?;
        self.slots[i].fct = r.opt(|r| r.u64())?.map(Dur);
        self.credits_sent[i] = r.u64()?;
        self.credits_wasted[i] = r.u64()?;
        let s = &mut self.slots[i];
        for (side, ep) in [("sender", &mut s.sender), ("receiver", &mut s.receiver)] {
            let ep = ep.as_mut().expect("endpoint checked out during restore");
            r.within(side, |r| ep.restore_state(r))?;
        }
        Ok(())
    }
}

impl Default for FlowArena {
    fn default() -> Self {
        FlowArena::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    struct Dummy;
    impl Endpoint for Dummy {
        fn on_start(&mut self, _ctx: &mut crate::endpoint::Ctx<'_>) {}
        fn on_packet(&mut self, _pkt: &crate::packet::Packet, _ctx: &mut crate::endpoint::Ctx<'_>) {
        }
        fn on_timer(&mut self, _kind: u8, _gen: u64, _ctx: &mut crate::endpoint::Ctx<'_>) {}
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
        fn snap_state(&self, _w: &mut xpass_sim::SnapWriter) {}
        fn restore_state(
            &mut self,
            _r: &mut xpass_sim::SnapReader,
        ) -> Result<(), xpass_sim::SnapError> {
            Ok(())
        }
    }

    fn info(idx: u32) -> FlowInfo {
        FlowInfo {
            id: FlowId(idx),
            src: HostId(0),
            dst: HostId(1),
            size_bytes: 100,
            start: SimTime::ZERO,
            class: 0,
        }
    }

    fn add(a: &mut FlowArena) -> FlowHandle {
        let h = a.alloc();
        a.commit(h, info(h.idx), Box::new(Dummy), Box::new(Dummy));
        h
    }

    #[test]
    fn dense_ids_without_retirement() {
        let mut a = FlowArena::new();
        for i in 0..5u32 {
            let h = add(&mut a);
            assert_eq!(h.idx, i);
            assert_eq!(h.gen, 0);
        }
        assert_eq!(a.slot_count(), 5);
        assert_eq!(a.live_count(), 5);
        assert!(a.free.is_empty());
    }

    #[test]
    fn retire_bumps_generation_and_reuses_slot() {
        let mut a = FlowArena::new();
        let h0 = add(&mut a);
        let _h1 = add(&mut a);
        a.retire(h0);
        assert_eq!(a.live_count(), 1);
        assert!(!a.is_live(FlowId(0)));
        assert!(!a.check_gen(FlowId(0), h0.gen));

        let h2 = a.alloc();
        assert_eq!(h2.idx, 0, "freed slot is reused");
        assert_eq!(h2.gen, 1, "reuse sees the bumped generation");
        a.commit(h2, info(0), Box::new(Dummy), Box::new(Dummy));
        assert!(a.check_gen(FlowId(0), 1));
        assert!(!a.check_gen(FlowId(0), 0), "stale handle stays dead");
    }

    #[test]
    fn soa_fields_reset_on_reuse() {
        let mut a = FlowArena::new();
        let h = add(&mut a);
        a.add_rx_bytes(h.flow(), 42);
        a.incr_credits_sent(h.flow());
        a.set_flag(h.flow(), FLAG_DONE, true);
        a.retire(h);
        let h2 = a.alloc();
        a.commit(h2, info(0), Box::new(Dummy), Box::new(Dummy));
        assert_eq!(a.rx_bytes(h2.flow()), 0);
        assert_eq!(a.credits_sent(h2.flow()), 0);
        assert_eq!(a.flags(h2.flow()), 0);
    }

    #[test]
    fn take_put_endpoint_roundtrip() {
        let mut a = FlowArena::new();
        let h = add(&mut a);
        let ep = a.take_endpoint(h.flow(), Side::Sender).unwrap();
        assert!(
            a.take_endpoint(h.flow(), Side::Sender).is_none(),
            "checked-out endpoint is absent (re-entrant dispatch drops)"
        );
        a.put_endpoint(h.flow(), Side::Sender, ep);
        assert!(a.endpoint(h.flow(), Side::Sender).is_some());
    }

    #[test]
    fn flag_set_reports_change() {
        let mut a = FlowArena::new();
        let h = add(&mut a);
        assert!(a.set_flag(h.flow(), FLAG_STALLED, true));
        assert!(!a.set_flag(h.flow(), FLAG_STALLED, true));
        assert!(a.set_flag(h.flow(), FLAG_STALLED, false));
        assert!(!a.is_done(h.flow()) && !a.is_aborted(h.flow()));
    }

    fn snap_bytes(a: &FlowArena) -> Vec<u8> {
        let mut w = SnapWriter::new();
        a.snap(&mut w);
        w.into_body()
    }

    fn restore(a: &mut FlowArena, bytes: &[u8]) -> Result<(), SnapError> {
        let factory: EndpointFactory = Box::new(|_, _, _| Box::new(Dummy));
        let mut r = SnapReader::new(bytes, 0);
        r.enter("flows");
        a.restore(&mut r, &factory)?;
        r.expect_end()
    }

    #[test]
    fn restored_arena_refuses_stale_handles_like_the_original() {
        // Slot 0 live since setup; slots 1 and 2 added and retired during
        // the run, 2 reused since (generation 1), 1 still on the free list.
        let mut a = FlowArena::new();
        let kept = add(&mut a);
        let (stale1, stale2) = (add(&mut a), add(&mut a));
        a.retire(stale1);
        a.retire(stale2);
        let reused = add(&mut a);
        assert_eq!((reused.idx, reused.gen), (2, 1));
        a.add_rx_bytes(kept.flow(), 42);
        a.set_flag(reused.flow(), FLAG_DONE, true);
        a.set_fct(reused.flow(), Dur::us(7));
        let bytes = snap_bytes(&a);

        // The twin's setup rebuilt slot 0 alone.
        let mut b = FlowArena::new();
        add(&mut b);
        restore(&mut b, &bytes).unwrap();
        assert_eq!(snap_bytes(&b), bytes);
        assert_eq!(
            (b.slot_count(), b.live_count()),
            (a.slot_count(), a.live_count())
        );
        for h in [kept, stale1, stale2, reused] {
            assert_eq!(b.check_gen(h.flow(), h.gen), a.check_gen(h.flow(), h.gen));
            assert_eq!(b.handle(h.flow()), a.handle(h.flow()));
        }
        assert!(!b.check_gen(stale2.flow(), stale2.gen), "slot 2 moved on");
        assert!(b.check_gen(reused.flow(), reused.gen));
        assert_eq!(b.rx_bytes(kept.flow()), 42);
        assert_eq!(b.fct(reused.flow()), Some(Dur::us(7)));
        // The free list came along: the next flow lands in the same slot,
        // at the same generation, as it does in the original.
        assert_eq!(b.alloc(), a.alloc());
        assert_eq!(b.alloc(), a.alloc());
    }

    #[test]
    fn restore_refuses_a_free_list_entry_that_is_not_a_vacant_slot() {
        let mut a = FlowArena::new();
        add(&mut a);
        let bytes = snap_bytes(&a);
        // The last 8 bytes are the (empty) free list's length.
        for idx in [0u32, 7] {
            let mut bad = bytes[..bytes.len() - 8].to_vec();
            bad.extend_from_slice(&1u64.to_le_bytes());
            bad.extend_from_slice(&idx.to_le_bytes());
            let mut b = FlowArena::new();
            add(&mut b);
            let e = restore(&mut b, &bad).unwrap_err();
            assert_eq!(e.path, "flows.free_list");
            assert!(e.msg.contains("does not address a vacant slot"), "{e}");
        }
        // Nor may the snapshot disagree with the setup about a slot.
        let mut b = FlowArena::new();
        let h = add(&mut b);
        b.retire(h);
        let e = restore(&mut b, &bytes).unwrap_err();
        assert_eq!(e.path, "flows.0");
        assert!(e.msg.contains("occupancy mismatch"), "{e}");
    }

    #[test]
    #[should_panic(expected = "retire with stale handle")]
    fn stale_retire_panics() {
        let mut a = FlowArena::new();
        let h = add(&mut a);
        a.retire(h);
        let h2 = a.alloc();
        a.commit(h2, info(0), Box::new(Dummy), Box::new(Dummy));
        a.retire(h); // stale
    }
}
