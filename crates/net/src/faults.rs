//! Deterministic fault injection: scheduled link failures, lossy and
//! corrupting links, and host pauses.
//!
//! A [`FaultPlan`] is a list of events scheduled at absolute [`SimTime`]s,
//! installed into a [`Network`](crate::network::Network) with
//! [`install_fault_plan`](crate::network::Network::install_fault_plan). The
//! network applies each event through its own event loop (`Ev::Fault`), so a
//! run with a plan is exactly as deterministic as a run without one: every
//! random fault decision (per-packet loss and corruption) is drawn from a
//! dedicated [`Rng`] seeded from the run seed, independent of the traffic
//! RNG, and the whole run replays bit-identically from its seed.
//!
//! Fault semantics:
//!
//! * **Link down** (per [`DLinkId`], i.e. one direction of a cable): the
//!   egress port stops transmitting and packets in flight on the wire are
//!   lost on arrival. The queued backlog either *freezes* (kept, resumes on
//!   link-up — a lossless pause, e.g. LACP flap) or is *flushed* (dropped —
//!   a hard port reset). Switch routing excludes dead egress links on the
//!   next arrival, re-hashing ECMP over the surviving choices; to keep the
//!   credit/data paths symmetric (§3.1), fail *both* directions of a cable.
//! * **Loss / corruption** (per [`DLinkId`]): each packet arriving over the
//!   link is independently dropped with the configured probability.
//!   Loss is configured separately for the credit class and everything else
//!   (data + control), so experiments can disturb only the credit class —
//!   the regime where ExpressPass promises zero data loss. Corruption
//!   models CRC-failed frames discarded at the receiving node, counted
//!   separately (`pkts_corrupted`) from clean losses (`pkts_lost_to_faults`).
//! * **Host pause / resume**: a paused host's NIC neither delivers arriving
//!   packets to endpoints nor emits new ones; both directions are stashed
//!   in order and replayed at resume time. Endpoint timers keep firing, so
//!   protocol timeout machinery (SYN backoff, stall detection) observes the
//!   outage — this models an endhost freeze (VM migration, GC pause) as
//!   seen from the network.
//!
//! ## One layer
//!
//! `FaultState` is the network's only fault state — link states, host
//! pause flags and stashes, the fault RNG, and the live routes (the
//! topology's flat ECMP slices minus the dead next hops, derived from the
//! links, so a restore rebuilds them instead of reading them) — and it
//! answers every fault rule with what happened. The network only acts on
//! the answer: moves packets, pushes events, books the loss. DESIGN.md §8
//! lists the rules.
//!
//! The fault layer is strictly zero-cost when no plan is installed: the
//! network holds `Option<FaultState>` and every hook is gated on `is_some()`
//! without touching any RNG, so fault-free runs produce byte-identical
//! counters and flow records to a build without this module.

use crate::ids::{DLinkId, HostId, SwitchId};
use crate::ledger::{LedgerEntry, Loss};
use crate::packet::{Packet, PktKind};
use crate::topology::Topology;
use xpass_sim::rng::Rng;
use xpass_sim::time::SimTime;
use xpass_sim::Restore as _;

/// Seed salt for the dedicated fault RNG, so installing a plan never
/// perturbs the traffic RNG stream.
pub(crate) const FAULT_RNG_SALT: u64 = 0x5EED_FA17_0BAD_CAB1;

/// One kind of fault event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Take a directed link down. `flush` drops the queued backlog at the
    /// egress port; otherwise the queues freeze and survive to link-up.
    LinkDown {
        /// The directed link to fail.
        dlink: DLinkId,
        /// Drop the queued backlog instead of freezing it.
        flush: bool,
    },
    /// Restore a downed directed link; frozen queues resume draining.
    LinkUp {
        /// The directed link to restore.
        dlink: DLinkId,
    },
    /// Set independent per-packet loss probabilities on a directed link.
    /// `credit` applies to the credit class, `data` to everything else
    /// (data and control packets). Set both to 0 to clear.
    SetLoss {
        /// The directed link to disturb.
        dlink: DLinkId,
        /// Loss probability for non-credit packets, in `[0, 1]`.
        data: f64,
        /// Loss probability for credit packets, in `[0, 1]`.
        credit: f64,
    },
    /// Set a per-packet corruption probability on a directed link (CRC-drop
    /// at the receiving node). Set to 0 to clear.
    SetCorrupt {
        /// The directed link to disturb.
        dlink: DLinkId,
        /// Corruption probability in `[0, 1]`.
        prob: f64,
    },
    /// Pause a host: arriving packets and emissions are stashed in order.
    HostPause {
        /// The host to pause.
        host: HostId,
    },
    /// Resume a paused host, replaying everything stashed while paused.
    HostResume {
        /// The host to resume.
        host: HostId,
    },
}

impl FaultKind {
    /// Serialize for the network snapshot (scheduled `Ev::Fault` events
    /// still in the queue ride through checkpoints).
    pub(crate) fn snap(&self, w: &mut xpass_sim::SnapWriter) {
        match *self {
            FaultKind::LinkDown { dlink, flush } => {
                w.u8(0);
                w.u32(dlink.0);
                w.bool(flush);
            }
            FaultKind::LinkUp { dlink } => {
                w.u8(1);
                w.u32(dlink.0);
            }
            FaultKind::SetLoss {
                dlink,
                data,
                credit,
            } => {
                w.u8(2);
                w.u32(dlink.0);
                w.f64(data);
                w.f64(credit);
            }
            FaultKind::SetCorrupt { dlink, prob } => {
                w.u8(3);
                w.u32(dlink.0);
                w.f64(prob);
            }
            FaultKind::HostPause { host } => {
                w.u8(4);
                w.u32(host.0);
            }
            FaultKind::HostResume { host } => {
                w.u8(5);
                w.u32(host.0);
            }
        }
    }

    /// Counterpart of [`snap`](Self::snap).
    pub(crate) fn from_snap(
        r: &mut xpass_sim::SnapReader,
    ) -> Result<FaultKind, xpass_sim::SnapError> {
        Ok(match r.u8()? {
            0 => FaultKind::LinkDown {
                dlink: DLinkId(r.u32()?),
                flush: r.bool()?,
            },
            1 => FaultKind::LinkUp {
                dlink: DLinkId(r.u32()?),
            },
            2 => FaultKind::SetLoss {
                dlink: DLinkId(r.u32()?),
                data: r.f64()?,
                credit: r.f64()?,
            },
            3 => FaultKind::SetCorrupt {
                dlink: DLinkId(r.u32()?),
                prob: r.f64()?,
            },
            4 => FaultKind::HostPause {
                host: HostId(r.u32()?),
            },
            5 => FaultKind::HostResume {
                host: HostId(r.u32()?),
            },
            t => return Err(r.err(format!("invalid fault kind tag: expected 0–5, found {t}"))),
        })
    }
}

/// A fault event scheduled at an absolute simulation time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// When the event applies.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A schedule of fault events, built up-front and installed into a
/// [`Network`](crate::network::Network) before (or during) a run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// The scheduled events, in insertion order (the event queue orders
    /// them by time; ties break by insertion order).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn push(mut self, at: SimTime, kind: FaultKind) -> FaultPlan {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Schedule a link-down that freezes the egress queues (lossless pause
    /// of the queued backlog; in-flight packets are still lost).
    pub fn link_down(self, at: SimTime, dlink: DLinkId) -> FaultPlan {
        self.push(
            at,
            FaultKind::LinkDown {
                dlink,
                flush: false,
            },
        )
    }

    /// Schedule a link-down that flushes (drops) the egress queue backlog.
    pub fn link_down_flush(self, at: SimTime, dlink: DLinkId) -> FaultPlan {
        self.push(at, FaultKind::LinkDown { dlink, flush: true })
    }

    /// Schedule a link restoration.
    pub fn link_up(self, at: SimTime, dlink: DLinkId) -> FaultPlan {
        self.push(at, FaultKind::LinkUp { dlink })
    }

    /// Schedule both directions of a cable down (freeze), preserving path
    /// symmetry as §3.1 requires for failed links.
    pub fn cable_down(self, at: SimTime, ab: DLinkId, ba: DLinkId) -> FaultPlan {
        self.link_down(at, ab).link_down(at, ba)
    }

    /// Schedule both directions of a cable back up.
    pub fn cable_up(self, at: SimTime, ab: DLinkId, ba: DLinkId) -> FaultPlan {
        self.link_up(at, ab).link_up(at, ba)
    }

    /// Schedule per-packet loss probabilities on a directed link.
    pub fn set_loss(self, at: SimTime, dlink: DLinkId, data: f64, credit: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&data), "data loss prob in [0,1]");
        assert!((0.0..=1.0).contains(&credit), "credit loss prob in [0,1]");
        self.push(
            at,
            FaultKind::SetLoss {
                dlink,
                data,
                credit,
            },
        )
    }

    /// Schedule a per-packet corruption probability on a directed link.
    pub fn set_corrupt(self, at: SimTime, dlink: DLinkId, prob: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&prob), "corruption prob in [0,1]");
        self.push(at, FaultKind::SetCorrupt { dlink, prob })
    }

    /// Schedule a host pause.
    pub fn host_pause(self, at: SimTime, host: HostId) -> FaultPlan {
        self.push(at, FaultKind::HostPause { host })
    }

    /// Schedule a host resume.
    pub fn host_resume(self, at: SimTime, host: HostId) -> FaultPlan {
        self.push(at, FaultKind::HostResume { host })
    }
}

/// Live per-link fault state.
#[derive(Clone, Copy, Debug, Default)]
struct LinkFaultState {
    /// Link is down: no transmission, arrivals are lost. The only copy of
    /// a link's down state; the live routes are derived from it.
    down: bool,
    /// Down with queues frozen (kept) rather than flushed.
    frozen: bool,
    /// Per-packet loss probability for non-credit packets.
    loss_data: f64,
    /// Per-packet loss probability for credit packets.
    loss_credit: f64,
    /// Per-packet corruption probability.
    corrupt: f64,
}

/// What an enqueue onto a link's egress port meets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Admit {
    /// The link is up: queue, and wake the transmitter as usual.
    Open,
    /// Down with its queues frozen: the queue keeps accepting (subject to
    /// its normal capacity) but the transmitter stays asleep.
    Frozen,
    /// Hard down: the packet is lost outright.
    Dead,
}

/// What the network must do after the fault layer applied one
/// [`FaultKind`].
pub(crate) enum Effect {
    /// Nothing beyond the fault layer's own state.
    None,
    /// Drop the backlog queued at this egress port (a flushing link-down).
    Flush(DLinkId),
    /// Wake this port's transmitter: the frozen backlog, and anything
    /// enqueued while the link was down, resumes.
    Wake(DLinkId),
    /// A resumed host's stash in original order: `rx` delivers now, `tx`
    /// re-enters the host's uplink queue.
    Replay { rx: Vec<Packet>, tx: Vec<Packet> },
}

/// The live-route overlay over the topology's flat ECMP tables: per flat
/// slice, the next hops whose links are up, packed at the base pool's
/// offsets (a live slice is an order-preserving prefix rewrite of its base
/// slice, so ECMP ordering is untouched). A link state change recomputes
/// only the slices that contain the link, found through a reverse
/// link→slice index.
struct LiveRoutes {
    /// Live entries: the live slice for flat slice `b` is
    /// `entries[index[b] .. index[b] + len[b]]`.
    entries: Vec<DLinkId>,
    /// Live entry count per flat slice.
    len: Vec<u32>,
    /// Reverse CSR index: the flat slices containing dlink `d` are
    /// `rev_pool[rev_index[d] .. rev_index[d+1]]`.
    rev_index: Vec<u32>,
    rev_pool: Vec<u32>,
}

impl LiveRoutes {
    /// The overlay with every link up: the topology's base table.
    fn new(topo: &Topology) -> LiveRoutes {
        let flat = &topo.flat;
        let n_slices = flat.index.len() - 1;
        let len = flat.index.windows(2).map(|w| w[1] - w[0]).collect();
        // The reverse index by counting sort: count, prefix-sum, place.
        let mut rev_index = vec![0u32; topo.dlinks.len() + 1];
        for &dl in &flat.pool {
            rev_index[dl.0 as usize + 1] += 1;
        }
        for d in 1..rev_index.len() {
            rev_index[d] += rev_index[d - 1];
        }
        let mut cursor = rev_index.clone();
        let mut rev_pool = vec![0u32; flat.pool.len()];
        for b in 0..n_slices {
            for dl in &flat.pool[flat.index[b] as usize..flat.index[b + 1] as usize] {
                let at = &mut cursor[dl.0 as usize];
                rev_pool[*at as usize] = b as u32;
                *at += 1;
            }
        }
        LiveRoutes {
            entries: flat.pool.clone(),
            len,
            rev_index,
            rev_pool,
        }
    }

    /// Recompute the slices containing `dl` from the base table, keeping
    /// the next hops `links` holds up.
    fn update(&mut self, topo: &Topology, links: &[LinkFaultState], dl: DLinkId) {
        let flat = &topo.flat;
        let d = dl.0 as usize;
        let (rlo, rhi) = (self.rev_index[d], self.rev_index[d + 1]);
        for &b in &self.rev_pool[rlo as usize..rhi as usize] {
            let (lo, hi) = (flat.index[b as usize], flat.index[b as usize + 1]);
            let mut n = 0u32;
            for i in lo..hi {
                let e = flat.pool[i as usize];
                if !links[e.0 as usize].down {
                    self.entries[(lo + n) as usize] = e;
                    n += 1;
                }
            }
            self.len[b as usize] = n;
        }
    }
}

/// The fault layer: every piece of fault state the network holds while a
/// plan is installed, and every fault rule (see the module docs).
pub(crate) struct FaultState {
    /// Per-directed-link fault state, indexed by `DLinkId`.
    links: Vec<LinkFaultState>,
    /// Live next hops, derived from `links` and the topology.
    routes: LiveRoutes,
    /// Per-host pause flags.
    paused: Vec<bool>,
    /// Packets that arrived for a paused host, in arrival order.
    stash_rx: Vec<Packet>,
    /// Packets a paused host tried to emit, in emission order.
    stash_tx: Vec<Packet>,
    /// Dedicated RNG for loss/corruption draws (independent of traffic).
    rng: Rng,
}

impl FaultState {
    /// No fault in force on `topo`: every link up, every host running.
    pub(crate) fn new(topo: &Topology, rng: Rng) -> FaultState {
        FaultState {
            links: vec![LinkFaultState::default(); topo.dlinks.len()],
            routes: LiveRoutes::new(topo),
            paused: vec![false; topo.n_hosts],
            stash_rx: Vec::new(),
            stash_tx: Vec::new(),
            rng,
        }
    }

    /// Apply one fault event and say what the network must do about it.
    pub(crate) fn apply(&mut self, kind: FaultKind, topo: &Topology) -> Effect {
        match kind {
            FaultKind::LinkDown { dlink, flush } => {
                self.set_down(topo, dlink, true);
                self.links[dlink.0 as usize].frozen = !flush;
                if flush {
                    Effect::Flush(dlink)
                } else {
                    Effect::None
                }
            }
            FaultKind::LinkUp { dlink } => {
                self.set_down(topo, dlink, false);
                self.links[dlink.0 as usize].frozen = false;
                Effect::Wake(dlink)
            }
            FaultKind::SetLoss {
                dlink,
                data,
                credit,
            } => {
                let lf = &mut self.links[dlink.0 as usize];
                lf.loss_data = data;
                lf.loss_credit = credit;
                Effect::None
            }
            FaultKind::SetCorrupt { dlink, prob } => {
                self.links[dlink.0 as usize].corrupt = prob;
                Effect::None
            }
            FaultKind::HostPause { host } => {
                self.paused[host.0 as usize] = true;
                Effect::None
            }
            FaultKind::HostResume { host } => {
                self.paused[host.0 as usize] = false;
                let (rx, keep_rx) = self.stash_rx.drain(..).partition(|p| p.dst == host);
                self.stash_rx = keep_rx;
                let (tx, keep_tx) = self.stash_tx.drain(..).partition(|p| p.src == host);
                self.stash_tx = keep_tx;
                Effect::Replay { rx, tx }
            }
        }
    }

    /// Record a link going down or coming back up; the live routes follow.
    fn set_down(&mut self, topo: &Topology, dlink: DLinkId, down: bool) {
        let d = dlink.0 as usize;
        if self.links[d].down != down {
            self.links[d].down = down;
            self.routes.update(topo, &self.links, dlink);
        }
    }

    /// The fate of a packet of `kind` coming off `dlink`: `None` when it
    /// passes, else the loss it is booked as. A dead link loses what was on
    /// its wire; otherwise random loss is drawn before corruption, each
    /// from the fault RNG and only when its probability is above 0.
    pub(crate) fn arrival(&mut self, dlink: DLinkId, kind: PktKind) -> Option<Loss> {
        let lf = self.links[dlink.0 as usize];
        if lf.down {
            return Some(Loss::Fault);
        }
        let loss_p = if kind == PktKind::Credit {
            lf.loss_credit
        } else {
            lf.loss_data
        };
        if loss_p > 0.0 && self.rng.chance(loss_p) {
            return Some(Loss::Fault);
        }
        if lf.corrupt > 0.0 && self.rng.chance(lf.corrupt) {
            return Some(Loss::Corrupt);
        }
        None
    }

    /// What an enqueue onto `dlink`'s egress port meets.
    pub(crate) fn admit(&self, dlink: DLinkId) -> Admit {
        match self.links[dlink.0 as usize] {
            LinkFaultState { down: false, .. } => Admit::Open,
            LinkFaultState { frozen: true, .. } => Admit::Frozen,
            _ => Admit::Dead,
        }
    }

    /// Is `dlink`'s transmitter down? Link-up wakes it again.
    pub(crate) fn tx_down(&self, dlink: DLinkId) -> bool {
        self.links[dlink.0 as usize].down
    }

    /// Is `host` paused?
    pub(crate) fn paused(&self, host: HostId) -> bool {
        self.paused[host.0 as usize]
    }

    /// Stash-or-pass for a packet reaching its destination host: true when
    /// the host is paused and keeps a copy until resume, in which case the
    /// caller drops its own.
    pub(crate) fn stashes_rx(&mut self, pkt: &Packet) -> bool {
        let paused = self.paused(pkt.dst);
        if paused {
            self.stash_rx.push(pkt.clone());
        }
        paused
    }

    /// Stash-or-pass for a packet its source host emits (see
    /// [`stashes_rx`](Self::stashes_rx)).
    pub(crate) fn stashes_tx(&mut self, pkt: &Packet) -> bool {
        let paused = self.paused(pkt.src);
        if paused {
            self.stash_tx.push(pkt.clone());
        }
        paused
    }

    /// The packets both stashes hold, for the ledger's `stashed` account.
    pub(crate) fn stashed(&self) -> LedgerEntry {
        let mut stashed = LedgerEntry::default();
        for pkt in self.stash_rx.iter().chain(&self.stash_tx) {
            stashed.add(pkt.size);
        }
        stashed
    }

    /// Live equal-cost next hops at `sw` toward `dst`: what
    /// [`Topology::route_choices`] answers, minus every down link; empty
    /// when every path (or the destination's downlink) is dead.
    #[inline]
    pub(crate) fn route_choices<'a>(
        &'a self,
        topo: &'a Topology,
        sw: SwitchId,
        dst: HostId,
    ) -> &'a [DLinkId] {
        let tor = topo.host_tor[dst.0 as usize];
        if tor == sw {
            let down = &topo.host_downlink[dst.0 as usize];
            return if self.links[down.0 as usize].down {
                &[]
            } else {
                std::slice::from_ref(down)
            };
        }
        let t = topo.flat.tor_index[tor.0 as usize] as usize;
        let (lo, _) = topo.flat.slice_bounds(topo.n_switches, t, sw.0 as usize);
        let b = t * topo.n_switches + sw.0 as usize;
        &self.routes.entries[lo as usize..(lo + self.routes.len[b]) as usize]
    }

    /// Counterpart of [`snap`](xpass_sim::Snapshot::snap), onto the fault
    /// layer of a network freshly built on `topo`. The live routes are not
    /// in the snapshot: they are rebuilt from the restored links.
    pub(crate) fn restore(
        &mut self,
        r: &mut xpass_sim::SnapReader,
        topo: &Topology,
    ) -> Result<(), xpass_sim::SnapError> {
        r.seq_len_of("fault link", self.links.len(), 26)?;
        for l in &mut self.links {
            l.down = r.bool()?;
            l.frozen = r.bool()?;
            l.loss_data = r.f64()?;
            l.loss_credit = r.f64()?;
            l.corrupt = r.f64()?;
        }
        self.routes = LiveRoutes::new(topo);
        for d in 0..self.links.len() {
            if self.links[d].down {
                self.routes.update(topo, &self.links, DLinkId(d as u32));
            }
        }
        r.seq_len_of("fault host", self.paused.len(), 1)?;
        for p in &mut self.paused {
            *p = r.bool()?;
        }
        for stash in [&mut self.stash_rx, &mut self.stash_tx] {
            *stash = (0..r.seq_len(8)?)
                .map(|_| Packet::from_snap(r))
                .collect::<Result<_, _>>()?;
        }
        self.rng.restore(r)
    }
}

impl xpass_sim::Snapshot for FaultState {
    fn snap(&self, w: &mut xpass_sim::SnapWriter) {
        w.seq(&self.links, |w, l| {
            w.bool(l.down);
            w.bool(l.frozen);
            w.f64(l.loss_data);
            w.f64(l.loss_credit);
            w.f64(l.corrupt);
        });
        w.seq(&self.paused, |w, &p| w.bool(p));
        w.seq(&self.stash_rx, |w, p| p.snap(w));
        w.seq(&self.stash_tx, |w, p| p.snap(w));
        self.rng.snap(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpass_sim::time::Dur;

    #[test]
    fn plan_builder_accumulates_in_order() {
        let t0 = SimTime::ZERO + Dur::ms(1);
        let t1 = SimTime::ZERO + Dur::ms(2);
        let plan = FaultPlan::new()
            .cable_down(t0, DLinkId(4), DLinkId(5))
            .cable_up(t1, DLinkId(4), DLinkId(5))
            .set_loss(t0, DLinkId(0), 0.0, 0.5)
            .host_pause(t0, HostId(2))
            .host_resume(t1, HostId(2));
        assert_eq!(plan.events.len(), 7);
        assert_eq!(
            plan.events[0].kind,
            FaultKind::LinkDown {
                dlink: DLinkId(4),
                flush: false
            }
        );
        assert_eq!(plan.events[2].kind, FaultKind::LinkUp { dlink: DLinkId(4) });
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    /// The live routes against a reference: after each of 64 seeded link
    /// events on a k=4 fat tree, every (switch, host) pair's live choices
    /// are `Topology::route_choices` minus the links held down — and a
    /// fault state restored from a snapshot answers the same.
    #[test]
    fn live_routes_are_the_base_table_minus_down_links() {
        use xpass_sim::snap::{SnapReader, SnapWriter, Snapshot};

        let topo = Topology::fat_tree(4, 10_000_000_000, 10_000_000_000, Dur::us(1));
        let check = |st: &FaultState, down: &[bool], step: usize| {
            for sw in (0..topo.n_switches as u32).map(SwitchId) {
                for dst in (0..topo.n_hosts as u32).map(HostId) {
                    let base = topo.route_choices(sw, dst).iter();
                    let want: Vec<DLinkId> =
                        base.filter(|d| !down[d.0 as usize]).copied().collect();
                    let got = st.route_choices(&topo, sw, dst);
                    assert_eq!(got, &want[..], "step {step}: {sw:?} → {dst:?}");
                }
            }
        };
        let mut st = FaultState::new(&topo, Rng::new(1));
        let mut down = vec![false; topo.dlinks.len()];
        let mut pick = Rng::new(0xFA17);
        let mut most_down = 0;
        check(&st, &down, 0);
        for step in 1..=64 {
            let held: Vec<usize> = (0..down.len()).filter(|&d| down[d]).collect();
            let kind = if !held.is_empty() && pick.chance(0.4) {
                let d = held[pick.index(held.len())];
                down[d] = false;
                FaultKind::LinkUp {
                    dlink: DLinkId(d as u32),
                }
            } else {
                let d = pick.index(down.len());
                down[d] = true;
                FaultKind::LinkDown {
                    dlink: DLinkId(d as u32),
                    flush: pick.chance(0.5),
                }
            };
            st.apply(kind, &topo);
            check(&st, &down, step);
            most_down = most_down.max(down.iter().filter(|&&d| d).count());

            let mut w = SnapWriter::new();
            st.snap(&mut w);
            let body = w.into_body();
            let mut twin = FaultState::new(&topo, Rng::new(2));
            twin.restore(&mut SnapReader::new(&body, 0), &topo)
                .expect("restore");
            check(&twin, &down, step);
        }
        assert!(
            most_down >= 10,
            "only {most_down} links were ever down at once"
        );
    }

    #[test]
    #[should_panic(expected = "credit loss prob")]
    fn invalid_loss_probability_rejected() {
        let _ = FaultPlan::new().set_loss(SimTime::ZERO, DLinkId(0), 0.0, 1.5);
    }

    #[test]
    #[should_panic(expected = "corruption prob")]
    fn invalid_corrupt_probability_rejected() {
        let _ = FaultPlan::new().set_corrupt(SimTime::ZERO, DLinkId(0), -0.1);
    }
}
