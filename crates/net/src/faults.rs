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
//! The fault layer is strictly zero-cost when no plan is installed: the
//! network holds `Option<FaultState>` and every hook is gated on `is_some()`
//! without touching any RNG, so fault-free runs produce byte-identical
//! counters and flow records to a build without this module.

use crate::ids::{DLinkId, HostId};
use crate::packet::Packet;
use xpass_sim::rng::Rng;
use xpass_sim::time::SimTime;

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
pub(crate) struct LinkFaultState {
    /// Link is down: no transmission, arrivals are lost.
    pub down: bool,
    /// Down with queues frozen (kept) rather than flushed.
    pub frozen: bool,
    /// Per-packet loss probability for non-credit packets.
    pub loss_data: f64,
    /// Per-packet loss probability for credit packets.
    pub loss_credit: f64,
    /// Per-packet corruption probability.
    pub corrupt: f64,
}

/// Runtime fault state held by the network while a plan is installed.
pub(crate) struct FaultState {
    /// Per-directed-link fault state, indexed by `DLinkId`.
    pub links: Vec<LinkFaultState>,
    /// Per-host pause flags.
    pub paused: Vec<bool>,
    /// Packets that arrived for a paused host, in arrival order.
    pub stash_rx: Vec<Packet>,
    /// Packets a paused host tried to emit, in emission order.
    pub stash_tx: Vec<Packet>,
    /// Dedicated RNG for loss/corruption draws (independent of traffic).
    pub rng: Rng,
}

impl FaultState {
    pub(crate) fn new(n_dlinks: usize, n_hosts: usize, rng: Rng) -> FaultState {
        FaultState {
            links: vec![LinkFaultState::default(); n_dlinks],
            paused: vec![false; n_hosts],
            stash_rx: Vec::new(),
            stash_tx: Vec::new(),
            rng,
        }
    }

    /// The links currently held down, in id order.
    pub(crate) fn down_links(&self) -> impl Iterator<Item = DLinkId> + '_ {
        (0u32..)
            .zip(&self.links)
            .filter(|(_, l)| l.down)
            .map(|(i, _)| DLinkId(i))
    }
}

impl xpass_sim::Snapshot for FaultState {
    fn snap(&self, w: &mut xpass_sim::SnapWriter) {
        w.usize(self.links.len());
        for l in &self.links {
            w.bool(l.down);
            w.bool(l.frozen);
            w.f64(l.loss_data);
            w.f64(l.loss_credit);
            w.f64(l.corrupt);
        }
        w.usize(self.paused.len());
        for &p in &self.paused {
            w.bool(p);
        }
        w.usize(self.stash_rx.len());
        for p in &self.stash_rx {
            p.snap(w);
        }
        w.usize(self.stash_tx.len());
        for p in &self.stash_tx {
            p.snap(w);
        }
        self.rng.snap(w);
    }
}

impl xpass_sim::Restore for FaultState {
    fn restore(&mut self, r: &mut xpass_sim::SnapReader) -> Result<(), xpass_sim::SnapError> {
        let n_links = r.seq_len(26)?;
        if n_links != self.links.len() {
            return Err(r.err(format!(
                "fault link count mismatch: configuration has {}, snapshot has {n_links}",
                self.links.len()
            )));
        }
        for l in &mut self.links {
            l.down = r.bool()?;
            l.frozen = r.bool()?;
            l.loss_data = r.f64()?;
            l.loss_credit = r.f64()?;
            l.corrupt = r.f64()?;
        }
        let n_hosts = r.seq_len(1)?;
        if n_hosts != self.paused.len() {
            return Err(r.err(format!(
                "fault host count mismatch: configuration has {}, snapshot has {n_hosts}",
                self.paused.len()
            )));
        }
        for p in &mut self.paused {
            *p = r.bool()?;
        }
        let n_rx = r.seq_len(8)?;
        self.stash_rx = (0..n_rx)
            .map(|_| Packet::from_snap(r))
            .collect::<Result<_, _>>()?;
        let n_tx = r.seq_len(8)?;
        self.stash_tx = (0..n_tx)
            .map(|_| Packet::from_snap(r))
            .collect::<Result<_, _>>()?;
        self.rng.restore(r)
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
