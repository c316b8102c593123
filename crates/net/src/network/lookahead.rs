//! The run loop's lookahead stage (DESIGN.md §10 "Lookahead and
//! prefetch"). It mirrors the handlers in the parent module — what
//! `Timer`, `HostRx`, `PortWake` and `Arrive` are about to touch. When a
//! handler starts touching something else, only the hit rate of these
//! hints changes, never a result.

use super::{Ev, Network};
use crate::config::RoutingMode;
use crate::ids::{DLinkId, HostId, NodeId, Side};
use crate::packet::Packet;
use crate::routing::ecmp_index;
use xpass_sim::event::{prefetch, prefetch_obj};

/// Queue depth from which the run loop looks ahead. The depth of the
/// event queue is the reuse distance of simulation state: with a shallow
/// queue, what the next event touches was touched microseconds ago and is
/// still cached, and at 70–90 ns an event the hints are pure overhead
/// (+10 % CPU on the 16-host `serve_ingest` replay). The depth was
/// chosen where the queued events alone outgrew a 2 MiB L2, at 120 B
/// each when an event carried its packet; at 48 B (a 24-byte payload and
/// a 24-byte entry) they no longer do, but the state they name still
/// misses: on `clos_xl`, 304 B of arena slot and endpoint boxes for each
/// of 65 536 flows, a 352-byte port for each of 26 624 links, and the
/// packets in the store. Of the
/// benchmark's workloads only `clos_xl` (213 080 deep at its peak) is
/// past it; the 192-host `fct_dctcp` was too while dead RTO timers made
/// its queue 235 k deep, and at the ~4 k its traffic needs no longer is.
pub const LOOKAHEAD_MIN_DEPTH: usize = 16_384;

impl Network {
    /// Start the cache misses of the next two events while the current one
    /// is handled. The calendar queue keeps its staged bucket sorted and
    /// the same-instant lane is in order, so the events are known; on `clos_xl` each would otherwise walk a
    /// chain of dependent DRAM misses (slab payload → arena slot →
    /// endpoint box → port → queue storage) with nothing to overlap them.
    /// The scheduler itself prefetches slab payloads further out; here,
    /// two stages, so that no stage reads through a pointer the previous
    /// one has not already made resident:
    ///
    /// * two events ahead — what the event names: the flow's arena slot
    ///   and lanes, the port that will transmit (for a timer, the uplink
    ///   its endpoint will emit on), the link record, the packet's slot in
    ///   the store;
    /// * one event ahead — what those lead to: the endpoint box, the
    ///   port's queue storage, and what the packet names — the egress
    ///   port ECMP will pick, or the flow's arena slot and the uplink
    ///   its endpoint will answer on.
    ///
    /// Observation-only: nothing is written, no RNG is drawn, and no
    /// simulation branch depends on a peeked event — which an earlier push
    /// may still overtake. The heap scheduler offers no lookahead and
    /// simply prefetches nothing; nor does a queue shallower than
    /// [`LOOKAHEAD_MIN_DEPTH`].
    #[inline]
    pub(super) fn prefetch_ahead(&self) {
        if self.events.len() < LOOKAHEAD_MIN_DEPTH {
            return;
        }
        match self.events.peek_staged(1) {
            Some(Ev::Timer {
                flow, host, side, ..
            }) => {
                self.arena.prefetch_flow(*flow);
                // Only receivers emit from a timer (the pace timer's credit).
                if *side == Side::Receiver {
                    self.prefetch_port(self.uplink_of(*host));
                }
            }
            Some(Ev::HostRx { pkt }) => self.packets.prefetch(*pkt),
            Some(Ev::PortWake { dlink }) => self.prefetch_port(Some(*dlink)),
            Some(Ev::Arrive { dlink, pkt }) => {
                prefetch(self.topo.dlinks.as_ptr().wrapping_add(dlink.0 as usize));
                self.packets.prefetch(*pkt);
            }
            _ => {}
        }
        match self.events.peek_staged(0) {
            Some(Ev::Timer {
                flow, host, side, ..
            }) => {
                self.arena.prefetch_endpoint(*flow, *side);
                if *side == Side::Receiver {
                    self.prefetch_queues(self.uplink_of(*host));
                }
            }
            Some(Ev::HostRx { pkt }) => {
                let pkt = self.packets.get(*pkt);
                self.arena.prefetch_flow(pkt.flow);
                self.prefetch_port(self.uplink_of(pkt.dst));
            }
            Some(Ev::PortWake { dlink }) => self.prefetch_queues(Some(*dlink)),
            Some(Ev::Arrive { dlink, pkt }) => {
                let pkt = self.packets.get(*pkt);
                self.prefetch_port(self.ecmp_egress(*dlink, pkt))
            }
            _ => {}
        }
    }

    /// The egress port the `Arrive` handler will pick for `pkt` coming off
    /// `dlink` — where that is a pure function of the packet: symmetric
    /// ECMP at a switch with no fault plan installed. (Spraying draws from
    /// the RNG; the fault layer's live routes are not worth a second lookup
    /// path for a hint.)
    #[inline]
    fn ecmp_egress(&self, dlink: DLinkId, pkt: &Packet) -> Option<DLinkId> {
        if self.faults.is_some() || self.cfg.routing != RoutingMode::EcmpSymmetric {
            return None;
        }
        let NodeId::Switch(sw) = self.topo.dlinks.get(dlink.0 as usize)?.to else {
            return None;
        };
        let choices = self.topo.route_choices(sw, pkt.dst);
        if choices.is_empty() {
            return None;
        }
        Some(choices[ecmp_index(pkt.src, pkt.dst, pkt.flow, choices.len())])
    }

    /// The egress port a host's endpoints emit on.
    #[inline]
    fn uplink_of(&self, host: HostId) -> Option<DLinkId> {
        self.topo.host_uplink.get(host.0 as usize).copied()
    }

    /// Hint that `ports[dlink]` is about to transmit or be enqueued on.
    #[inline]
    fn prefetch_port(&self, dlink: Option<DLinkId>) {
        if let Some(dl) = dlink {
            prefetch_obj(self.ports.as_ptr().wrapping_add(dl.0 as usize));
        }
    }

    /// Second step of [`prefetch_port`](Self::prefetch_port): the port's
    /// queue storage, through the port made resident one event earlier.
    #[inline]
    fn prefetch_queues(&self, dlink: Option<DLinkId>) {
        if let Some(port) = dlink.and_then(|dl| self.ports.get(dl.0 as usize)) {
            port.prefetch_queues();
        }
    }
}
