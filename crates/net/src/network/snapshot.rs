//! Snapshot and restore of a [`Network`] (DESIGN.md §12). A layer's wire
//! format is private to the layer — the event queue, the arena, the timer
//! generations, each port and each probe write and read their own bytes — so
//! what lives here is only what no layer can know: the order of the
//! sections, and the codec of the two payload types the network defines
//! itself, [`Ev`] and [`Pending`].

use super::{Ev, Network, Pending};
use crate::faults::FaultKind;
use crate::ids::{DLinkId, FlowId, HostId, Side};
use crate::packet::Packet;
use xpass_sim::event::EventQueue;
use xpass_sim::snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
use xpass_sim::time::SimTime;

impl Ev {
    /// Serialize one queued event (tag + payload).
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            Ev::Arrive { dlink, pkt } => {
                w.u8(0);
                w.u32(dlink.0);
                pkt.snap(w);
            }
            Ev::PortWake { dlink } => {
                w.u8(1);
                w.u32(dlink.0);
            }
            Ev::HostRx { pkt } => {
                w.u8(2);
                pkt.snap(w);
            }
            Ev::Timer {
                flow,
                host,
                side,
                kind,
                gen,
            } => {
                w.u8(3);
                w.u32(flow.0);
                w.u32(host.0);
                w.bool(matches!(side, Side::Sender));
                w.u8(*kind);
                w.u64(*gen);
            }
            Ev::FlowStart { flow } => {
                w.u8(4);
                w.u32(flow.0);
            }
            Ev::RcpUpdate { dlink } => {
                w.u8(5);
                w.u32(dlink.0);
            }
            Ev::Fault { kind } => {
                w.u8(7);
                kind.snap(w);
            }
        }
    }

    /// Counterpart of [`snap`](Self::snap).
    fn from_snap(r: &mut SnapReader) -> Result<Ev, SnapError> {
        Ok(match r.u8()? {
            0 => Ev::Arrive {
                dlink: DLinkId(r.u32()?),
                pkt: Packet::from_snap(r)?,
            },
            1 => Ev::PortWake {
                dlink: DLinkId(r.u32()?),
            },
            2 => Ev::HostRx {
                pkt: Packet::from_snap(r)?,
            },
            3 => Ev::Timer {
                flow: FlowId(r.u32()?),
                host: HostId(r.u32()?),
                side: if r.bool()? {
                    Side::Sender
                } else {
                    Side::Receiver
                },
                kind: r.u8()?,
                gen: r.u64()?,
            },
            4 => Ev::FlowStart {
                flow: FlowId(r.u32()?),
            },
            5 => Ev::RcpUpdate {
                dlink: DLinkId(r.u32()?),
            },
            7 => Ev::Fault {
                kind: FaultKind::from_snap(r)?,
            },
            t => return Err(r.err(format!("invalid event tag: expected 0–5 or 7, found {t}"))),
        })
    }
}

impl Pending {
    fn snap(&self, w: &mut SnapWriter) {
        let (tag, flow) = match self {
            Pending::Started(f) => (0, f),
            Pending::Completed(f) => (1, f),
        };
        w.u8(tag);
        w.u32(flow.0);
    }

    fn from_snap(r: &mut SnapReader) -> Result<Pending, SnapError> {
        let (tag, flow) = (r.u8()?, FlowId(r.u32()?));
        match tag {
            0 => Ok(Pending::Started(flow)),
            1 => Ok(Pending::Completed(flow)),
            t => Err(r.err(format!("invalid pending tag: expected 0 or 1, found {t}"))),
        }
    }
}

/// The section of an optional subsystem: the snapshot must carry it exactly
/// when the setup installed one.
fn optional<T: ?Sized>(
    r: &mut SnapReader<'_>,
    name: &str,
    installed: Option<&mut T>,
    restore: impl FnOnce(&mut T, &mut SnapReader<'_>) -> Result<(), SnapError>,
) -> Result<(), SnapError> {
    r.within(name, |r| r.opt_onto(name, installed, restore))
}

impl Network {
    /// Serialize the network's complete *dynamic* state as an
    /// `xpass-snap/v5` body, one section per layer. Static configuration —
    /// topology, [`NetConfig`](crate::config::NetConfig), endpoint factory,
    /// installed monitor specs — is not written: a restore overlays onto a
    /// freshly built network whose deterministic setup already re-created
    /// all of it. Wall-clock state (`wall_secs`) and the trace sink are
    /// deliberately excluded: restores happen at a different wall time by
    /// definition, and trace sinks are external observers re-attached by
    /// the driver. Read-only: the event queue is laid out after the
    /// snapshot exactly as before it.
    pub fn snapshot_into(&self, w: &mut SnapWriter) {
        w.u64(self.now.0);
        self.events.snap(w, |w, ev| ev.snap(w));
        self.rng.snap(w);
        w.seq(&self.ports, |w, p| p.snap(w));
        self.arena.snap(w);
        self.timers.snap(w);
        w.seq(&self.pending, |w, p| p.snap(w));
        w.usize(self.completed);
        w.usize(self.aborted);
        w.opt(self.controller.as_ref(), |w, c| c.snap_ctl(w));
        w.opt(self.faults.as_ref(), |w, st| st.snap(w));
        w.opt(self.invariants.as_ref(), |w, st| st.snap(w));
        w.opt(self.ledger.as_ref(), |w, l| l.snap(w));
        w.opt(self.watchdog.as_ref(), |w, wd| wd.snap(w));
        for c in &self.ev_counts {
            w.u64(*c);
        }
        self.counters.snap(w);
        self.sampler.snap(w);
        // Metrics state rides along so a resumed run emits exactly the
        // series an uninterrupted one would (same boundaries, same ring).
        w.opt(self.sampler.metrics.as_deref(), |w, m| m.snap(w));
    }

    /// Overlay a snapshot body written by [`snapshot_into`](Self::snapshot_into)
    /// onto this freshly built network. The network must have been rebuilt
    /// by the same deterministic setup (same topology, config, flows,
    /// installed monitors) that preceded the snapshot; mismatches are
    /// reported as [`SnapError`]s whose path names the section
    /// (`network.timers.host_gen`, `network.flows.3.sender`), never a panic.
    pub fn restore_from(&mut self, body: &[u8]) -> Result<(), SnapError> {
        let r = &mut SnapReader::new(body, 0);
        r.enter("network");
        self.now = r.within("now", |r| r.u64().map(SimTime))?;
        // Whatever deterministic setup scheduled is superseded wholesale by
        // the snapshot's queue (which evolved from exactly those events).
        let kind = self.events.scheduler();
        self.events = r.within("events", |r| EventQueue::restore(kind, r, Ev::from_snap))?;
        r.within("rng", |r| self.rng.restore(r))?;
        r.within("ports", |r| {
            r.seq_len_of("port", self.ports.len(), 1)?;
            (self.ports.iter_mut().enumerate())
                .try_for_each(|(i, p)| r.within(i.to_string(), |r| p.restore(r)))
        })?;
        r.within("flows", |r| self.arena.restore(r, &self.factory))?;
        r.within("timers", |r| self.timers.restore(r))?;
        self.pending = r.within("pending", |r| {
            (0..r.seq_len(5)?).map(|_| Pending::from_snap(r)).collect()
        })?;
        (self.completed, self.aborted) = r.within("settled", |r| Ok((r.usize()?, r.usize()?)))?;
        optional(r, "controller", self.controller.as_mut(), |c, r| {
            c.restore_ctl(r)
        })?;
        optional(r, "faults", self.faults.as_mut(), |st, r| {
            st.restore(r, &self.topo)
        })?;
        optional(r, "invariants", self.invariants.as_mut(), |st, r| {
            st.restore(r)
        })?;
        optional(r, "ledger", self.ledger.as_mut(), |l, r| l.restore(r))?;
        optional(r, "watchdog", self.watchdog.as_mut(), |wd, r| wd.restore(r))?;
        r.within("counters", |r| {
            for c in &mut self.ev_counts {
                *c = r.u64()?;
            }
            self.counters.restore(r)
        })?;
        r.within("sampler", |r| self.sampler.restore(r))?;
        // Taken out so the restore can re-register the sampled families
        // against `&self` without aliasing.
        let mut m = self.sampler.metrics.take();
        let restored = optional(r, "metrics", m.as_deref_mut(), |m, r| {
            m.restore(r, &self.fam_spec())
        });
        self.sampler.metrics = m;
        self.sampler.rearm();
        restored?;
        // Still inside the "network" context: a trailing-garbage error must
        // name where it was detected.
        r.expect_end()?;
        r.leave();
        Ok(())
    }
}
