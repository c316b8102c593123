//! Typed indices for the objects the network model manipulates.
//!
//! Everything is a dense `u32` index into a `Vec`, which keeps the event loop
//! allocation-free and cache-friendly; the newtypes keep hosts, switches,
//! links, and flows from being confused for one another.

use std::fmt;

/// Index of a host (server) in the topology.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct HostId(pub u32);

/// Index of a switch in the topology.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SwitchId(pub u32);

/// Either end of a link.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum NodeId {
    /// A server.
    Host(HostId),
    /// A switch.
    Switch(SwitchId),
}

impl NodeId {
    /// The switch id, panicking if this is a host.
    pub fn expect_switch(self) -> SwitchId {
        match self {
            NodeId::Switch(s) => s,
            NodeId::Host(h) => panic!("expected switch, got host {h:?}"),
        }
    }

    /// The host id, panicking if this is a switch.
    pub fn expect_host(self) -> HostId {
        match self {
            NodeId::Host(h) => h,
            NodeId::Switch(s) => panic!("expected host, got switch {s:?}"),
        }
    }

    /// A total-order key used to sort ECMP next hops deterministically
    /// ("deterministic ECMP sorts next-hop entries by next-hop address").
    pub fn sort_key(self) -> u64 {
        match self {
            NodeId::Host(HostId(i)) => i as u64,
            NodeId::Switch(SwitchId(i)) => (1u64 << 32) | i as u64,
        }
    }
}

/// Index of a *directed* link. A full-duplex cable is two directed links;
/// the egress port (queues + transmitter) lives at the source end of each.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DLinkId(pub u32);

/// Index of a flow.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub u32);

/// Which endpoint of a flow a packet or callback concerns.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Side {
    /// The data sender (the flow's source host).
    Sender,
    /// The data receiver (the flow's destination host) — in ExpressPass,
    /// the credit *sender*.
    Receiver,
}

impl Side {
    /// The opposite side.
    pub fn other(self) -> Side {
        match self {
            Side::Sender => Side::Receiver,
            Side::Receiver => Side::Sender,
        }
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sw{}", self.0)
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_keys_order_hosts_before_switches() {
        assert!(NodeId::Host(HostId(999)).sort_key() < NodeId::Switch(SwitchId(0)).sort_key());
        assert!(NodeId::Switch(SwitchId(1)).sort_key() < NodeId::Switch(SwitchId(2)).sort_key());
    }

    #[test]
    fn side_other_roundtrips() {
        assert_eq!(Side::Sender.other(), Side::Receiver);
        assert_eq!(Side::Receiver.other(), Side::Sender);
        assert_eq!(Side::Sender.other().other(), Side::Sender);
    }

    #[test]
    #[should_panic(expected = "expected switch")]
    fn expect_switch_panics_on_host() {
        NodeId::Host(HostId(0)).expect_switch();
    }

    #[test]
    fn expect_accessors() {
        assert_eq!(NodeId::Host(HostId(3)).expect_host(), HostId(3));
        assert_eq!(NodeId::Switch(SwitchId(4)).expect_switch(), SwitchId(4));
    }

    #[test]
    fn display_formats() {
        assert_eq!(HostId(1).to_string(), "h1");
        assert_eq!(SwitchId(2).to_string(), "sw2");
        assert_eq!(FlowId(3).to_string(), "f3");
    }
}
