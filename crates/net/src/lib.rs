//! # xpass-net — packet-level datacenter network model
//!
//! The simulator substrate that plays the role ns-2 (and the hardware
//! testbed) played in the ExpressPass paper: hosts with NICs, switches with
//! per-port output queues, full-duplex links, ECMP routing, and the
//! credit-class machinery the paper adds to commodity switches.
//!
//! Layout:
//!
//! * [`ids`] — typed indices for hosts, switches, links, flows.
//! * [`packet`] — wire-format constants (84 B credits, 1538 B max frames) and
//!   the [`Packet`] struct every protocol shares.
//! * [`queue`] — drop-tail data queues with optional ECN marking and HULL
//!   phantom queues; tiny credit queues with leaky-bucket metering.
//! * [`rcplink`] — per-link explicit-rate state for the RCP baseline.
//! * [`port`] — the egress-port scheduler arbitrating the credit and data
//!   classes onto the wire.
//! * [`topology`] — graph construction (dumbbell, parking lot,
//!   multi-bottleneck, k-ary fat tree, oversubscribed 3-tier Clos) and
//!   flat precomputed per-(switch, dst-ToR) ECMP route tables.
//! * [`arena`] — dense, append-only table of per-flow state with the
//!   credit-pacer hot fields split struct-of-arrays.
//! * [`timers`] — per-host timer generations.
//! * [`routing`] — symmetric flow hashing for deterministic, path-symmetric
//!   ECMP (paper §3.1).
//! * [`endpoint`] — the `Endpoint` trait all congestion-control protocols
//!   implement, plus the `Ctx` handle they act through.
//! * [`faults`] — deterministic fault-injection schedules: link failures,
//!   lossy/corrupting links, and host pauses, replayable from the run seed;
//!   and the fault layer that holds the live routes and answers every
//!   fault rule.
//! * [`ledger`] — global byte/packet conservation ledger proving every
//!   emitted packet is accounted for (delivered, dropped, fault-lost,
//!   corrupted, in flight, queued, or stashed).
//! * `metrics` (private) — per-network live metrics state bridging the
//!   event loop to [`xpass_sim::metrics`]: boundary-checked sampling of
//!   queue depths, link utilization, flow counts, ledger fates, and
//!   watchdog headroom, published to the cross-thread plane.
//! * [`network`] — the event loop tying everything together.
//! * [`config`] — per-run knobs (queue capacity, ECN K, credit queue size,
//!   host jitter model, …).

#![warn(missing_docs)]
pub mod arena;
pub mod config;
pub mod endpoint;
pub mod faults;
pub mod health;
pub mod ids;
pub mod ledger;
mod metrics;
pub mod network;
pub mod packet;
pub mod port;
pub mod queue;
pub mod rcplink;
pub mod routing;
pub mod timers;
pub mod topology;

pub use arena::FlowArena;
pub use config::NetConfig;
pub use endpoint::{Ctx, Endpoint, EndpointFactory};
pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use ids::{DLinkId, FlowId, HostId, NodeId, Side, SwitchId};
pub use network::{Controller, FlowOutcome, FlowRecord, Network, NoController};
pub use packet::{Packet, PktKind};
pub use topology::Topology;
