//! Snapshot and restore of a [`Network`] (DESIGN.md §12). A layer's wire
//! format is private to the layer — the event queue, the arena, the timer
//! generations, each port and each probe persist their own bytes — so
//! what lives here is only what no layer can know: the order of the
//! sections, the traversal of the two payload types the network defines
//! itself, [`Ev`] and [`Pending`], and the checks that what was restored
//! can run: ids in range, packets bound for the host their link reaches,
//! wake positions the queue handed out.

use super::{Ev, Network, Pending};
use crate::faults::FaultKind;
use crate::ids::{DLinkId, FlowId, HostId, NodeId, Side};
use crate::packet::Packet;
use xpass_sim::snap::{SnapError, SnapIo, SnapReader, SnapWriter};

/// The blank a restored event is read onto.
impl Default for Ev {
    fn default() -> Ev {
        Ev::PortWake {
            dlink: DLinkId::default(),
        }
    }
}

impl Ev {
    /// Snapshot traversal of one queued event: the tag, then the variant's
    /// fields in place — a read first replaces `self` with the tag's blank
    /// variant.
    fn persist(&mut self, io: &mut SnapIo) -> Result<(), SnapError> {
        let mut tag = match self {
            Ev::Arrive { .. } => 0,
            Ev::PortWake { .. } => 1,
            Ev::HostRx { .. } => 2,
            Ev::Timer { .. } => 3,
            Ev::FlowStart { .. } => 4,
            Ev::RcpUpdate { .. } => 5,
            Ev::Fault { .. } => 7,
        };
        io.u8(&mut tag)?;
        if io.reading() {
            let (dlink, flow, pkt) = Default::default();
            *self = match tag {
                0 => Ev::Arrive { dlink, pkt },
                1 => Ev::PortWake { dlink },
                2 => Ev::HostRx { pkt },
                3 => Ev::Timer {
                    flow,
                    host: HostId::default(),
                    side: Side::Sender,
                    kind: 0,
                    gen: 0,
                },
                4 => Ev::FlowStart { flow },
                5 => Ev::RcpUpdate { dlink },
                7 => Ev::Fault {
                    kind: FaultKind::LinkUp { dlink },
                },
                t => return Err(io.err(format!("invalid event tag: expected 0–5 or 7, found {t}"))),
            };
        }
        match self {
            Ev::Arrive { dlink, pkt } => {
                io.u32(&mut dlink.0)?;
                pkt.persist(io)
            }
            Ev::PortWake { dlink } | Ev::RcpUpdate { dlink } => io.u32(&mut dlink.0),
            Ev::HostRx { pkt } => pkt.persist(io),
            Ev::Timer {
                flow,
                host,
                side,
                kind,
                gen,
            } => {
                io.u32(&mut flow.0)?;
                io.u32(&mut host.0)?;
                let mut sender = *side == Side::Sender;
                io.bool(&mut sender)?;
                *side = if sender { Side::Sender } else { Side::Receiver };
                io.u8(kind)?;
                io.u64(gen)
            }
            Ev::FlowStart { flow } => io.u32(&mut flow.0),
            Ev::Fault { kind } => kind.persist(io),
        }
    }
}

/// The blank a restored note is read onto.
impl Default for Pending {
    fn default() -> Pending {
        Pending::Started(Default::default())
    }
}

impl Pending {
    /// Snapshot traversal: the tag, then the flow.
    fn persist(&mut self, io: &mut SnapIo) -> Result<(), SnapError> {
        let (mut tag, mut flow) = match *self {
            Pending::Started(f) => (0, f),
            Pending::Completed(f) => (1, f),
        };
        io.u8(&mut tag)?;
        io.u32(&mut flow.0)?;
        *self = match tag {
            0 => Pending::Started(flow),
            1 => Pending::Completed(flow),
            t => return Err(io.err(format!("invalid pending tag: expected 0 or 1, found {t}"))),
        };
        Ok(())
    }
}

/// The section of an optional subsystem: the snapshot must carry it exactly
/// when the setup installed one.
fn optional<T: ?Sized>(
    io: &mut SnapIo,
    name: &str,
    installed: Option<&mut T>,
    f: impl FnOnce(&mut SnapIo, &mut T) -> Result<(), SnapError>,
) -> Result<(), SnapError> {
    io.within(name, |io| io.opt_onto(name, installed, f))
}

/// `Err` naming `id` unless it indexes one of the network's `n` `what`s.
fn in_range(what: &str, id: u32, n: usize) -> Result<(), String> {
    if (id as usize) < n {
        Ok(())
    } else {
        Err(format!("{what} id {id} out of range: the network has {n}"))
    }
}

impl Network {
    /// Serialize the network's complete *dynamic* state as an
    /// `xpass-snap/v9` body, one section per layer. Static configuration —
    /// topology, [`NetConfig`](crate::config::NetConfig), endpoint factory,
    /// installed monitor specs — is not written: a restore overlays onto a
    /// freshly built network whose deterministic setup already re-created
    /// all of it. Wall-clock state (`wall_secs`) and the trace sink are
    /// deliberately excluded: restores happen at a different wall time by
    /// definition, and trace sinks are external observers re-attached by
    /// the driver. Writing changes nothing: the network continues exactly
    /// as if no snapshot had been taken.
    pub fn snapshot_into(&mut self, w: &mut SnapWriter) {
        self.persist(&mut SnapIo::Write(w))
            .expect("writing a snapshot cannot fail");
    }

    /// Overlay a snapshot body written by [`snapshot_into`](Self::snapshot_into)
    /// onto this freshly built network. The network must have been rebuilt
    /// by the same deterministic setup (same topology, config, flows,
    /// installed monitors) that preceded the snapshot; mismatches — ids
    /// naming a link, host or flow the network does not have, a packet
    /// bound for another host than its link leads to, a port wake at a
    /// position the queue never handed out — are reported as
    /// [`SnapError`]s whose path names the section
    /// (`network.timers.host_gen`, `network.flows.3.sender`,
    /// `network.ports.7`), never a panic.
    pub fn restore_from(&mut self, body: &[u8]) -> Result<(), SnapError> {
        self.persist(&mut SnapIo::Read(SnapReader::new(body, 0)))
    }

    /// The one traversal behind [`snapshot_into`](Self::snapshot_into) and
    /// [`restore_from`](Self::restore_from).
    fn persist(&mut self, io: &mut SnapIo) -> Result<(), SnapError> {
        io.within("network", |io| {
            io.within("now", |io| io.u64(&mut self.now.0))?;
            // A read supersedes whatever deterministic setup scheduled with
            // the snapshot's queue (which evolved from exactly those events).
            io.within("events", |io| {
                self.events.persist(io, |io, ev| ev.persist(io))
            })?;
            io.within("rng", |io| self.rng.persist(io))?;
            io.within("ports", |io| {
                io.seq_len_of("port", self.ports.len(), 1)?;
                (self.ports.iter_mut().enumerate())
                    .try_for_each(|(i, p)| io.within(i, |io| p.persist(io)))
            })?;
            io.within("flows", |io| self.arena.persist(io, &self.factory))?;
            io.within("timers", |io| self.timers.persist(io))?;
            io.within("pending", |io| {
                io.seq(&mut self.pending, 5, |io, p: &mut Pending| p.persist(io))
            })?;
            io.within("settled", |io| io.usize(&mut self.completed))?;
            optional(io, "controller", self.controller.as_mut(), |io, c| {
                c.persist(io)
            })?;
            optional(io, "faults", self.faults.as_mut(), |io, st| {
                st.persist(io, &self.topo)
            })?;
            optional(io, "invariants", self.invariants.as_mut(), |io, st| {
                st.persist(io)
            })?;
            optional(io, "ledger", self.ledger.as_mut(), |io, l| l.persist(io))?;
            optional(io, "watchdog", self.watchdog.as_mut(), |io, wd| {
                wd.persist(io)
            })?;
            io.within("counters", |io| {
                self.ev_counts.iter_mut().try_for_each(|c| io.u64(c))?;
                self.counters.persist(io)
            })?;
            io.within("sampler", |io| self.sampler.persist(io))?;
            // Metrics state rides along so a resumed run emits exactly the
            // series an uninterrupted one would (same boundaries, same
            // ring). Taken out so a read can re-register the sampled
            // families against `&self` without aliasing.
            let mut m = self.sampler.metrics.take();
            let net = &*self;
            let persisted = optional(io, "metrics", m.as_deref_mut(), |io, m| m.persist(io, net));
            self.sampler.metrics = m;
            if io.reading() {
                self.sampler.rearm();
            }
            persisted?;
            if io.reading() {
                self.refuse_what_cannot_run(io)?;
            }
            // Still inside the "network" context: a trailing-garbage error
            // must name where it was detected.
            io.expect_end()
        })
    }

    /// After a read: every id the run would index by must name one of this
    /// network's links, hosts or flows — the links of queued events, the
    /// hosts of queued, in-flight and stashed packets, timers and flows,
    /// and the flows of flow starts, timers, pending notes and stashed
    /// packets (re-emitting one counts its credits against its flow). A
    /// packet in flight may belong to no flow: delivery drops it. A packet
    /// queued at, or arriving over, a link into a host must be addressed
    /// to that host, which it is about to land at. A port's held wake
    /// position must carry a sequence number the restored queue handed
    /// out: an enqueue may queue the wake there. (One that has gone by is
    /// what every port whose last wake has passed holds; the run never
    /// fills it.) The error names the section the fault came from.
    fn refuse_what_cannot_run(&self, io: &mut SnapIo) -> Result<(), SnapError> {
        let (links, hosts) = (self.ports.len(), self.topo.n_hosts);
        let flows = self.arena.slot_count();
        let link = |d: &DLinkId| in_range("link", d.0, links);
        let host = |h: &HostId| in_range("host", h.0, hosts);
        let flow = |f: &FlowId| in_range("flow", f.0, flows);
        let packet = |p: &Packet| host(&p.src).and_then(|_| host(&p.dst));
        // For a link already found in range.
        let lands = |d: &DLinkId, p: &Packet| match self.topo.dlinks[d.0 as usize].to {
            NodeId::Host(h) if h != p.dst => Err(format!(
                "packet for host {} on link {} into host {}",
                p.dst.0, d.0, h.0
            )),
            _ => Ok(()),
        };
        let events = self.events.payloads().try_for_each(|ev| match ev {
            Ev::Arrive { dlink, pkt } => link(dlink)
                .and_then(|_| packet(pkt))
                .and_then(|_| lands(dlink, pkt)),
            Ev::PortWake { dlink } | Ev::RcpUpdate { dlink } => link(dlink),
            Ev::HostRx { pkt } => packet(pkt),
            Ev::Timer {
                flow: f, host: h, ..
            } => flow(f).and_then(|_| host(h)),
            Ev::FlowStart { flow: f } => flow(f),
            Ev::Fault { kind } => match kind {
                FaultKind::HostPause { host: h } | FaultKind::HostResume { host: h } => host(h),
                FaultKind::LinkDown { dlink, .. }
                | FaultKind::LinkUp { dlink }
                | FaultKind::SetLoss { dlink, .. }
                | FaultKind::SetCorrupt { dlink, .. } => link(dlink),
            },
        });
        let port = |d: DLinkId| {
            let p = &self.ports[d.0 as usize];
            (p.data
                .packets()
                .chain(p.credit.iter().flat_map(|c| c.packets())))
            .try_for_each(|pkt| packet(pkt).and_then(|_| lands(&d, pkt)))?;
            match p.wake {
                Some(w) if !self.events.was_reserved(w.seq) => Err(format!(
                    "wake position ({} ps, {}) was never reserved",
                    w.at.0, w.seq
                )),
                _ => Ok(()),
            }
        };
        let ports = (0..links)
            .try_for_each(|i| port(DLinkId(i as u32)).map_err(|msg| (format!("ports.{i}"), msg)));
        let flow_hosts = self.arena.ids().try_for_each(|f| {
            let info = self.arena.info(f);
            host(&info.src).and_then(|_| host(&info.dst))
        });
        let pending = self.pending.iter().try_for_each(|p| match p {
            Pending::Started(f) | Pending::Completed(f) => flow(f),
        });
        let stashed = (self.faults.iter())
            .flat_map(|st| st.stashed_packets())
            .try_for_each(|p| flow(&p.flow).and_then(|_| packet(p)));
        let section = |name: &str, checked: Result<(), String>| {
            checked.map_err(|msg| (name.to_string(), msg))
        };
        for checked in [
            section("events", events),
            ports,
            section("flows", flow_hosts),
            section("pending", pending),
            section("faults", stashed),
        ] {
            if let Err((path, msg)) = checked {
                return io.within(path, |io| Err(io.err(msg)));
            }
        }
        Ok(())
    }
}
