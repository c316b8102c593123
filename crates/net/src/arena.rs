//! Dense flow arena: the million-flow state layout.
//!
//! Flow state used to live in a `Vec<FlowRuntime>` — one large struct per
//! flow, with the per-credit hot counters (`rx_bytes`, `credits_sent`,
//! `credits_wasted`, the done/aborted/stalled bits) interleaved with cold
//! identity and boxed endpoint pointers. At 10⁵–10⁶ flows that layout
//! wastes cache on every credit: touching one `u64` counter drags a ~200 B
//! struct line in with it.
//!
//! [`FlowArena`] splits the state two ways:
//!
//! * **Slots** (cold): identity ([`FlowInfo`]), the two boxed endpoints
//!   (kept boxed so the take/put-back dispatch dance keeps working) and
//!   the recorded FCT.
//! * **Struct-of-arrays hot fields**: `rx_bytes`, `credits_sent`,
//!   `credits_wasted`, and a packed flag byte per flow, each in its own
//!   dense array touched by the per-credit loop.
//!
//! A flow lives for the whole run: the table is append-only and a
//! [`FlowId`] is its slot index, so an id — or a timer event naming one —
//! can never come to address another flow.
//!
//! The arena owns its wire format ([`FlowArena::persist`]): a restore
//! checks every flow the setup rebuilt against the snapshot's identity and
//! rebuilds, from the factory, the flows added during the snapshotted run.

use crate::endpoint::{Endpoint, EndpointFactory, FlowInfo};
use crate::ids::{FlowId, HostId, Side};
use xpass_sim::event::{prefetch, prefetch_bytes, prefetch_obj};
use xpass_sim::snap::{SnapError, SnapIo};
use xpass_sim::time::{Dur, SimTime};

/// Flow is fully delivered.
pub const FLAG_DONE: u8 = 1 << 0;
/// Flow gave up (connection-establishment retries exhausted, …).
pub const FLAG_ABORTED: u8 = 1 << 1;
/// Flow is currently flagged as stalled (observational).
pub const FLAG_STALLED: u8 = 1 << 2;

/// Cold per-flow state: identity, endpoints, outcome.
struct Slot {
    info: FlowInfo,
    sender: Option<Box<dyn Endpoint>>,
    receiver: Option<Box<dyn Endpoint>>,
    fct: Option<Dur>,
}

/// Append-only table of flow slots with struct-of-arrays hot fields. See
/// module docs.
#[derive(Default)]
pub struct FlowArena {
    slots: Vec<Slot>,
    // Hot arrays, indexed by slot. Kept parallel to `slots`.
    rx_bytes: Vec<u64>,
    credits_sent: Vec<u64>,
    credits_wasted: Vec<u64>,
    flags: Vec<u8>,
}

impl FlowArena {
    /// Empty arena.
    pub fn new() -> FlowArena {
        FlowArena::default()
    }

    /// Number of flows; their ids are `0..slot_count`.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Append a flow. Its id must be the next slot index.
    pub(crate) fn push(
        &mut self,
        info: FlowInfo,
        sender: Box<dyn Endpoint>,
        receiver: Box<dyn Endpoint>,
    ) {
        debug_assert_eq!(
            info.id.0 as usize,
            self.slots.len(),
            "flow id must equal slot index"
        );
        self.slots.push(Slot {
            info,
            sender: Some(sender),
            receiver: Some(receiver),
            fct: None,
        });
        self.rx_bytes.push(0);
        self.credits_sent.push(0);
        self.credits_wasted.push(0);
        self.flags.push(0);
    }

    /// True when the flow id addresses a slot.
    #[inline]
    pub(crate) fn contains(&self, flow: FlowId) -> bool {
        (flow.0 as usize) < self.slots.len()
    }

    /// Every flow id, in index order.
    pub(crate) fn ids(&self) -> impl Iterator<Item = FlowId> {
        (0..self.slots.len() as u32).map(FlowId)
    }

    /// Flow identity. Panics out of range.
    #[inline]
    pub fn info(&self, flow: FlowId) -> &FlowInfo {
        &self.slots[flow.0 as usize].info
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
    /// dispatch — still checked out — or no such flow).
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

    /// Hint that `flow`'s endpoint on `side` is about to be dispatched:
    /// every line of its box, whose size the vtable gives (56 B for an
    /// ExpressPass sender, 168 B for a receiver). Reads the slot for the
    /// box pointer — cheap once [`prefetch_flow`](Self::prefetch_flow) has
    /// made it resident.
    #[inline]
    pub fn prefetch_endpoint(&self, flow: FlowId, side: Side) {
        if let Some(ep) = self.endpoint(flow, side) {
            prefetch_bytes(
                std::ptr::from_ref(ep).cast::<u8>(),
                std::mem::size_of_val(ep),
            );
        }
    }

    // ---- snapshot / restore ------------------------------------------

    /// Snapshot traversal of every flow: its identity (so that a flow
    /// added during the run can be rebuilt from the factory on restore),
    /// hot lanes, FCT and both endpoints. No endpoint may be checked out.
    /// Reading overlays onto the arena the deterministic setup rebuilt:
    /// the flows the setup added must agree with the snapshot on identity;
    /// the ones past them — added during the snapshotted run — are rebuilt
    /// from `factory`.
    pub fn persist(
        &mut self,
        io: &mut SnapIo<'_>,
        factory: &EndpointFactory,
    ) -> Result<(), SnapError> {
        let configured = self.slots.len();
        let n = io.seq_len(configured, 1)?;
        if n < configured {
            return Err(io.err(format!(
                "flow count mismatch: configuration has {configured}, snapshot has only {n}"
            )));
        }
        for i in 0..n {
            io.within(i, |io| self.persist_slot(io, i, factory))?;
        }
        Ok(())
    }

    /// One flow of [`persist`](Self::persist): slot `i`.
    fn persist_slot(
        &mut self,
        io: &mut SnapIo<'_>,
        i: usize,
        factory: &EndpointFactory,
    ) -> Result<(), SnapError> {
        let mut info = match self.slots.get(i) {
            Some(s) => s.info.clone(),
            None => FlowInfo {
                id: FlowId(i as u32),
                src: HostId(0),
                dst: HostId(0),
                size_bytes: 0,
                start: SimTime::ZERO,
                class: 0,
            },
        };
        io.u32(&mut info.src.0)?;
        io.u32(&mut info.dst.0)?;
        io.u64(&mut info.size_bytes)?;
        io.u64(&mut info.start.0)?;
        io.u8(&mut info.class)?;
        if i == self.slots.len() {
            // No `FlowStart` is scheduled: the restored event queue holds
            // whatever remains of this flow's events.
            let sender = factory(Side::Sender, &info);
            let receiver = factory(Side::Receiver, &info);
            self.push(info, sender, receiver);
        } else if self.slots[i].info != info {
            let have = &self.slots[i].info;
            return Err(io.err(format!(
                "flow identity mismatch: configuration has {} → {} ({} B), \
                 snapshot has {} → {} ({} B)",
                have.src, have.dst, have.size_bytes, info.src, info.dst, info.size_bytes
            )));
        }
        io.u64(&mut self.rx_bytes[i])?;
        io.u8(&mut self.flags[i])?;
        io.opt(&mut self.slots[i].fct, |io, d| io.u64(&mut d.0))?;
        io.u64(&mut self.credits_sent[i])?;
        io.u64(&mut self.credits_wasted[i])?;
        let s = &mut self.slots[i];
        for (side, ep) in [("sender", &mut s.sender), ("receiver", &mut s.receiver)] {
            let ep = ep.as_mut().expect("endpoint checked out during snapshot");
            io.within(side, |io| ep.persist(io))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;
    use xpass_sim::snap::{SnapReader, SnapWriter};

    /// An endpoint whose whole state is one counter.
    struct Counter(u64);
    impl Endpoint for Counter {
        fn on_start(&mut self, _ctx: &mut crate::endpoint::Ctx<'_>) {}
        fn on_packet(&mut self, _pkt: &crate::packet::Packet, _ctx: &mut crate::endpoint::Ctx<'_>) {
        }
        fn on_timer(&mut self, _kind: u8, _gen: u64, _ctx: &mut crate::endpoint::Ctx<'_>) {}
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
        fn persist(&mut self, io: &mut SnapIo) -> Result<(), SnapError> {
            io.u64(&mut self.0)
        }
    }

    fn info(idx: u32) -> FlowInfo {
        FlowInfo {
            id: FlowId(idx),
            src: HostId(0),
            dst: HostId(1 + idx),
            size_bytes: 100,
            start: SimTime::ZERO,
            class: 0,
        }
    }

    fn add(a: &mut FlowArena) -> FlowId {
        let id = FlowId(a.slot_count() as u32);
        a.push(info(id.0), Box::new(Counter(0)), Box::new(Counter(0)));
        id
    }

    #[test]
    fn flow_ids_are_slot_indices() {
        let mut a = FlowArena::new();
        for i in 0..5u32 {
            assert_eq!(add(&mut a), FlowId(i));
        }
        assert_eq!(a.slot_count(), 5);
        assert!(a.contains(FlowId(4)) && !a.contains(FlowId(5)));
        assert_eq!(
            a.ids().collect::<Vec<_>>(),
            (0..5).map(FlowId).collect::<Vec<_>>()
        );
    }

    #[test]
    fn take_put_endpoint_roundtrip() {
        let mut a = FlowArena::new();
        let f = add(&mut a);
        let ep = a.take_endpoint(f, Side::Sender).unwrap();
        assert!(
            a.take_endpoint(f, Side::Sender).is_none(),
            "checked-out endpoint is absent (re-entrant dispatch drops)"
        );
        a.put_endpoint(f, Side::Sender, ep);
        assert!(a.endpoint(f, Side::Sender).is_some());
        assert!(
            a.take_endpoint(FlowId(1), Side::Sender).is_none(),
            "no such flow"
        );
    }

    #[test]
    fn flag_set_reports_change() {
        let mut a = FlowArena::new();
        let f = add(&mut a);
        assert!(a.set_flag(f, FLAG_STALLED, true));
        assert!(!a.set_flag(f, FLAG_STALLED, true));
        assert!(a.set_flag(f, FLAG_STALLED, false));
        assert!(!a.is_done(f) && !a.is_aborted(f));
    }

    fn snap_bytes(a: &mut FlowArena) -> Vec<u8> {
        let factory: EndpointFactory = Box::new(|_, _| Box::new(Counter(0)));
        let mut w = SnapWriter::new();
        a.persist(&mut SnapIo::Write(&mut w), &factory).unwrap();
        w.into_body()
    }

    fn restore(a: &mut FlowArena, bytes: &[u8]) -> Result<(), SnapError> {
        let factory: EndpointFactory = Box::new(|_, _| Box::new(Counter(0)));
        let mut r = SnapReader::new(bytes, 0);
        r.enter("flows");
        let mut io = SnapIo::Read(r);
        a.persist(&mut io, &factory)?;
        io.expect_end()
    }

    fn counter(a: &mut FlowArena, f: FlowId, side: Side) -> u64 {
        let mut ep = a.take_endpoint(f, side).unwrap();
        let v = ep.as_any().downcast_mut::<Counter>().unwrap().0;
        a.put_endpoint(f, side, ep);
        v
    }

    fn set_counter(a: &mut FlowArena, f: FlowId, side: Side, v: u64) {
        let mut ep = a.take_endpoint(f, side).unwrap();
        ep.as_any().downcast_mut::<Counter>().unwrap().0 = v;
        a.put_endpoint(f, side, ep);
    }

    #[test]
    fn restored_arena_rebuilds_the_flows_added_during_the_run() {
        // Flow 0 came from the setup; flows 1 and 2 were added during the
        // run, so the twin's setup rebuilds flow 0 alone.
        let mut a = FlowArena::new();
        let kept = add(&mut a);
        let (added, done) = (add(&mut a), add(&mut a));
        a.add_rx_bytes(kept, 42);
        a.add_rx_bytes(added, 7);
        a.incr_credits_sent(added);
        a.incr_credits_wasted(added);
        a.set_flag(added, FLAG_STALLED, true);
        a.set_flag(done, FLAG_DONE, true);
        a.set_fct(done, Dur::us(7));
        set_counter(&mut a, added, Side::Sender, 11);
        set_counter(&mut a, done, Side::Receiver, 12);
        let bytes = snap_bytes(&mut a);

        let mut b = FlowArena::new();
        add(&mut b);
        restore(&mut b, &bytes).unwrap();
        assert_eq!(snap_bytes(&mut b), bytes);
        assert_eq!(b.slot_count(), 3);
        for f in a.ids() {
            assert_eq!(b.info(f), a.info(f));
            assert_eq!(
                (b.rx_bytes(f), b.credits_sent(f), b.credits_wasted(f)),
                (a.rx_bytes(f), a.credits_sent(f), a.credits_wasted(f))
            );
            assert_eq!((b.flags(f), b.fct(f)), (a.flags(f), a.fct(f)));
            for side in [Side::Sender, Side::Receiver] {
                assert_eq!(counter(&mut b, f, side), counter(&mut a, f, side));
            }
        }
        assert_eq!(b.fct(done), Some(Dur::us(7)));
        assert_eq!(counter(&mut b, added, Side::Sender), 11);
    }

    #[test]
    fn restore_refuses_fewer_flows_or_another_identity() {
        let mut a = FlowArena::new();
        add(&mut a);
        let bytes = snap_bytes(&mut a);

        // The setup built two flows; the snapshot knows one.
        let mut b = FlowArena::new();
        add(&mut b);
        add(&mut b);
        let e = restore(&mut b, &bytes).unwrap_err();
        assert_eq!(e.path, "flows");
        assert!(
            e.msg.contains("configuration has 2, snapshot has only 1"),
            "{e}"
        );

        // The setup built flow 0 to another host.
        let mut b = FlowArena::new();
        b.push(
            FlowInfo {
                dst: HostId(9),
                ..info(0)
            },
            Box::new(Counter(0)),
            Box::new(Counter(0)),
        );
        let e = restore(&mut b, &bytes).unwrap_err();
        assert_eq!(e.path, "flows.0");
        assert!(e.msg.contains("flow identity mismatch"), "{e}");
    }
}
