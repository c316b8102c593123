//! Topology construction and route computation.
//!
//! Every topology used in the paper's evaluation is available as a builder:
//!
//! * [`Topology::star`] — one switch, N hosts (incast, Fig 9; shuffle, Fig 17)
//! * [`Topology::dumbbell`] — N sender/receiver pairs over one bottleneck
//!   (Figs 2, 13, 15, 16)
//! * [`Topology::chain`] — switches in a line (parking lot Fig 10,
//!   multi-bottleneck Fig 11)
//! * [`Topology::fat_tree`] — canonical k-ary fat tree (Fig 1's 8-ary)
//! * [`Topology::three_tier`] — generalized 3-tier Clos, including the
//!   oversubscribed 192-host eval topology (Figs 18–21, Table 3) and the
//!   10k/65k-host scale presets ([`Topology::three_tier_10k`],
//!   [`Topology::three_tier_65k`])
//!
//! ## Flat routing tables
//!
//! Routes are all-pairs shortest-path with ECMP, stored **flat**: because
//! hosts are single-homed, every host behind one ToR shares the same
//! next-hop set at every other switch, so the table is indexed by
//! (destination *ToR*, switch) rather than (switch, destination host) —
//! `O(switches × ToRs)` slices instead of `O(switches × hosts)` vectors.
//! All next-hop entries live in one pooled array; a slice is two offsets.
//! At the destination's own ToR the next hop is the host's downlink,
//! answered from a dense per-host array. Lookup
//! ([`Topology::route_choices`]) is three array reads — no per-packet
//! topology walk, no per-host route storage.
//!
//! Construction runs one BFS per ToR over the switch-only graph (hop
//! counts to a host are hop counts to its ToR plus one, so next-hop sets
//! and their deterministic sort order are identical to the per-host BFS
//! this replaces). Each switch keeps every neighbor on a shortest path as
//! a next hop, sorted by neighbor id for deterministic (and therefore
//! symmetric, see [`crate::routing`]) ECMP.
//!
//! The tables are immutable. The only mutable routing state in a run is
//! the fault layer's live routes ([`crate::faults`]): these slices minus
//! the next hops whose links are down, held by the fault state of a
//! network with a fault plan installed.

use crate::ids::{DLinkId, HostId, NodeId, SwitchId};
use std::collections::VecDeque;
use xpass_sim::time::Dur;

/// One direction of a cable. The egress port (queues + transmitter) lives at
/// `from`.
#[derive(Clone, Debug)]
pub struct DirectedLink {
    /// Transmitting end.
    pub from: NodeId,
    /// Receiving end.
    pub to: NodeId,
    /// Line rate in bits per second.
    pub speed_bps: u64,
    /// Propagation delay.
    pub prop_delay: Dur,
}

/// Flat ECMP tables: per-(destination-ToR, switch) next-hop slices in one
/// pooled array. See the module docs for the layout rationale.
#[derive(Clone, Debug)]
pub(crate) struct FlatRoutes {
    /// Number of ToR switches (switches with at least one host).
    pub(crate) n_tors: usize,
    /// Per switch: compact ToR index, or `u32::MAX` for non-ToRs.
    pub(crate) tor_index: Vec<u32>,
    /// Compact ToR index → switch id.
    pub(crate) tor_ids: Vec<SwitchId>,
    /// Slice offsets into `pool`; slice for (tor `t`, switch `s`) is
    /// `pool[index[t*n_switches + s] .. index[t*n_switches + s + 1]]`.
    pub(crate) index: Vec<u32>,
    /// All next-hop entries, slice-contiguous.
    pub(crate) pool: Vec<DLinkId>,
}

impl FlatRoutes {
    /// Bounds of the (tor, switch) slice in `pool`.
    #[inline]
    pub(crate) fn slice_bounds(&self, n_switches: usize, tor_idx: usize, sw: usize) -> (u32, u32) {
        let base = tor_idx * n_switches + sw;
        (self.index[base], self.index[base + 1])
    }
}

/// An immutable network graph plus its precomputed ECMP routing tables.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Human-readable topology name (for reports).
    pub name: String,
    /// Number of hosts (ids `0..n_hosts`).
    pub n_hosts: usize,
    /// Number of switches (ids `0..n_switches`).
    pub n_switches: usize,
    /// All directed links; a cable is two consecutive entries.
    pub dlinks: Vec<DirectedLink>,
    /// Each host's single egress link (host → ToR).
    pub host_uplink: Vec<DLinkId>,
    /// Each host's ToR switch (the single switch its uplink attaches to).
    pub host_tor: Vec<SwitchId>,
    /// The ToR → host downlink of each host (reverse of `host_uplink`).
    pub host_downlink: Vec<DLinkId>,
    /// Flat per-(ToR, switch) ECMP tables.
    pub(crate) flat: FlatRoutes,
}

/// Incremental topology builder.
#[derive(Default)]
pub struct TopoBuilder {
    n_hosts: usize,
    n_switches: usize,
    links: Vec<DirectedLink>,
}

impl TopoBuilder {
    /// Empty builder.
    pub fn new() -> TopoBuilder {
        TopoBuilder::default()
    }

    /// Empty builder with link storage preallocated for `n_cables`
    /// full-duplex cables (two directed links each).
    pub fn with_capacity(n_cables: usize) -> TopoBuilder {
        TopoBuilder {
            n_hosts: 0,
            n_switches: 0,
            links: Vec::with_capacity(2 * n_cables),
        }
    }

    /// Add `n` hosts, returning their ids.
    pub fn add_hosts(&mut self, n: usize) -> Vec<HostId> {
        let start = self.n_hosts as u32;
        self.n_hosts += n;
        (start..start + n as u32).map(HostId).collect()
    }

    /// Add one switch.
    pub fn add_switch(&mut self) -> SwitchId {
        let id = SwitchId(self.n_switches as u32);
        self.n_switches += 1;
        id
    }

    /// Add `n` switches, returning their ids.
    pub fn add_switches(&mut self, n: usize) -> Vec<SwitchId> {
        (0..n).map(|_| self.add_switch()).collect()
    }

    /// Connect two nodes with a full-duplex cable (two directed links of the
    /// same speed and propagation delay).
    pub fn connect(&mut self, a: NodeId, b: NodeId, speed_bps: u64, prop_delay: Dur) {
        assert!(speed_bps > 0);
        self.links.push(DirectedLink {
            from: a,
            to: b,
            speed_bps,
            prop_delay,
        });
        self.links.push(DirectedLink {
            from: b,
            to: a,
            speed_bps,
            prop_delay,
        });
    }

    /// Finalize: verify single-homed hosts and compute flat ECMP tables
    /// (one BFS per ToR over the switch-only graph).
    pub fn build(self, name: &str) -> Topology {
        let n_hosts = self.n_hosts;
        let n_switches = self.n_switches;
        let dlinks = self.links;

        // One pass over the links: host attachment arrays and switch-only
        // adjacency (host links never appear on a shortest inter-switch
        // path — a host is a leaf).
        let mut uplinks_per_host = vec![0u32; n_hosts];
        let mut host_uplink = vec![DLinkId(u32::MAX); n_hosts];
        let mut host_tor = vec![SwitchId(u32::MAX); n_hosts];
        let mut host_downlink = vec![DLinkId(u32::MAX); n_hosts];
        let mut sw_adj: Vec<Vec<DLinkId>> = vec![Vec::new(); n_switches];
        for (i, l) in dlinks.iter().enumerate() {
            let dl = DLinkId(i as u32);
            match (l.from, l.to) {
                (NodeId::Host(h), to) => {
                    let hi = h.0 as usize;
                    uplinks_per_host[hi] += 1;
                    host_uplink[hi] = dl;
                    match to {
                        NodeId::Switch(s) => host_tor[hi] = s,
                        NodeId::Host(_) => panic!("host {h} uplink must attach to a switch"),
                    }
                }
                (NodeId::Switch(s), NodeId::Host(h)) => {
                    host_downlink[h.0 as usize] = dl;
                    let _ = s;
                }
                (NodeId::Switch(s), NodeId::Switch(_)) => {
                    sw_adj[s.0 as usize].push(dl);
                }
            }
        }
        for (h, &n) in uplinks_per_host.iter().enumerate() {
            assert_eq!(n, 1, "host {h} must have exactly one uplink, has {n}");
        }

        // ToRs: switches with at least one attached host, in id order.
        let mut tor_index = vec![u32::MAX; n_switches];
        let mut tor_ids = Vec::new();
        for &tor in host_tor.iter() {
            if tor_index[tor.0 as usize] == u32::MAX {
                tor_index[tor.0 as usize] = 0; // mark; number below in id order
            }
        }
        for (s, ti) in tor_index.iter_mut().enumerate() {
            if *ti != u32::MAX {
                *ti = tor_ids.len() as u32;
                tor_ids.push(SwitchId(s as u32));
            }
        }
        let n_tors = tor_ids.len();

        // Per-ToR BFS over the switch graph; fill slices in (tor-major,
        // switch id) order so the pool is slice-contiguous.
        let mut index: Vec<u32> = Vec::with_capacity(n_tors * n_switches + 1);
        index.push(0);
        let mut pool: Vec<DLinkId> = Vec::with_capacity(n_tors * n_switches.max(1));
        let mut dist = vec![u32::MAX; n_switches];
        let mut q = VecDeque::new();
        let mut hops: Vec<DLinkId> = Vec::new();
        for &tor in &tor_ids {
            dist.iter_mut().for_each(|d| *d = u32::MAX);
            dist[tor.0 as usize] = 0;
            q.clear();
            q.push_back(tor.0 as usize);
            while let Some(u) = q.pop_front() {
                for &dl in &sw_adj[u] {
                    let v = dlinks[dl.0 as usize].to.expect_switch().0 as usize;
                    if dist[v] == u32::MAX {
                        dist[v] = dist[u] + 1;
                        q.push_back(v);
                    }
                }
            }
            for (s, adj) in sw_adj.iter().enumerate() {
                // The ToR itself routes its hosts out of their downlinks,
                // answered from `host_downlink`; its slice stays empty.
                if s != tor.0 as usize && dist[s] != u32::MAX {
                    hops.clear();
                    hops.extend(adj.iter().copied().filter(|&dl| {
                        let v = dlinks[dl.0 as usize].to.expect_switch().0 as usize;
                        dist[v] != u32::MAX && dist[v] + 1 == dist[s]
                    }));
                    // Deterministic ECMP: sort by neighbor address.
                    hops.sort_by_key(|&dl| dlinks[dl.0 as usize].to.sort_key());
                    pool.extend_from_slice(&hops);
                }
                index.push(pool.len() as u32);
            }
        }

        Topology {
            name: name.to_string(),
            n_hosts,
            n_switches,
            dlinks,
            host_uplink,
            host_tor,
            host_downlink,
            flat: FlatRoutes {
                n_tors,
                tor_index,
                tor_ids,
                index,
                pool,
            },
        }
    }
}

impl Topology {
    /// Sorted equal-cost next hops at `sw` toward `dst`: the host's
    /// downlink at its own ToR, else the flat (ToR, switch) ECMP slice.
    /// Empty when `sw` cannot reach `dst`.
    #[inline]
    pub fn route_choices(&self, sw: SwitchId, dst: HostId) -> &[DLinkId] {
        let tor = self.host_tor[dst.0 as usize];
        if tor == sw {
            return std::slice::from_ref(&self.host_downlink[dst.0 as usize]);
        }
        let t = self.flat.tor_index[tor.0 as usize] as usize;
        let (lo, hi) = self.flat.slice_bounds(self.n_switches, t, sw.0 as usize);
        &self.flat.pool[lo as usize..hi as usize]
    }

    /// Number of ToR switches (switches with attached hosts).
    pub fn n_tors(&self) -> usize {
        self.flat.n_tors
    }

    /// ToR switch ids in compact-index order.
    pub fn tor_switches(&self) -> &[SwitchId] {
        &self.flat.tor_ids
    }

    /// Total next-hop entries across all flat ECMP slices.
    pub fn route_pool_len(&self) -> usize {
        self.flat.pool.len()
    }

    /// The directed link from `from` to `to`, if the nodes are adjacent.
    pub fn dlink_between(&self, from: NodeId, to: NodeId) -> Option<DLinkId> {
        self.dlinks
            .iter()
            .position(|l| l.from == from && l.to == to)
            .map(|i| DLinkId(i as u32))
    }

    /// Speed of the slowest host uplink (used as `max_rate` by protocols).
    pub fn min_host_speed(&self) -> u64 {
        self.host_uplink
            .iter()
            .map(|&dl| self.dlinks[dl.0 as usize].speed_bps)
            .min()
            .expect("topology has no hosts")
    }

    /// Hop count of the shortest path between two hosts (for RTT estimates).
    pub fn hop_count(&self, a: HostId, b: HostId) -> usize {
        // BFS (small graphs; used only at configuration time).
        let n_nodes = self.n_hosts + self.n_switches;
        let node_index = |n: NodeId| -> usize {
            match n {
                NodeId::Host(HostId(h)) => h as usize,
                NodeId::Switch(SwitchId(s)) => self.n_hosts + s as usize,
            }
        };
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];
        for l in &self.dlinks {
            adj[node_index(l.from)].push(node_index(l.to));
        }
        let mut dist = vec![u32::MAX; n_nodes];
        dist[a.0 as usize] = 0;
        let mut q = VecDeque::new();
        q.push_back(a.0 as usize);
        while let Some(u) = q.pop_front() {
            if u == b.0 as usize {
                return dist[u] as usize;
            }
            for &v in &adj[u] {
                if dist[v] == u32::MAX {
                    dist[v] = dist[u] + 1;
                    q.push_back(v);
                }
            }
        }
        panic!("hosts {a} and {b} are not connected");
    }

    /// Base (zero-queue) RTT between two hosts: propagation + serialization
    /// of a full frame on every hop, both directions.
    pub fn base_rtt(&self, a: HostId, b: HostId) -> Dur {
        // Conservative estimate: sum of 2× propagation along shortest path
        // plus one MTU serialization per hop each way. Computed by BFS with
        // delay weights (all links here have uniform per-tier delay, so
        // hop-count BFS then summing is adequate for estimates).
        let hops = self.hop_count(a, b);
        // Use the first host uplink's parameters as representative.
        let up = &self.dlinks[self.host_uplink[a.0 as usize].0 as usize];
        let per_hop = up.prop_delay + xpass_sim::time::tx_time(1538, up.speed_bps);
        per_hop * (2 * hops) as u64
    }

    /// A copy of this topology with the cable between `a` and `b` removed
    /// (both directions — §3.1 requires excluding unidirectionally failed
    /// links so credit/data paths stay symmetric) and routes recomputed.
    ///
    /// Panics if removal would disconnect any host.
    pub fn without_cable(&self, a: NodeId, b: NodeId) -> Topology {
        let mut builder = TopoBuilder {
            n_hosts: self.n_hosts,
            n_switches: self.n_switches,
            links: Vec::with_capacity(self.dlinks.len()),
        };
        let mut removed = 0;
        let mut i = 0;
        while i < self.dlinks.len() {
            let l = &self.dlinks[i];
            // Cables were added as consecutive directed pairs.
            if (l.from == a && l.to == b) || (l.from == b && l.to == a) {
                removed += 1;
            } else {
                builder.links.push(l.clone());
            }
            i += 1;
        }
        assert!(removed == 2, "no cable between {a:?} and {b:?}");
        let topo = builder.build(&format!("{}-minus-cable", self.name));
        // Enforce the documented invariant: the link graph is symmetric
        // (cables are directed pairs and we removed both directions), so
        // reachability from one host covers every pair.
        let reachable = topo.connected_host_count();
        assert!(
            reachable == topo.n_hosts,
            "removing cable {a:?}-{b:?} disconnects the network \
             ({reachable}/{} hosts reachable)",
            topo.n_hosts
        );
        topo
    }

    /// Number of hosts reachable from host 0 over directed links (the whole
    /// host set iff the topology is connected, since cables are symmetric
    /// directed pairs).
    fn connected_host_count(&self) -> usize {
        let n_nodes = self.n_hosts + self.n_switches;
        let node_index = |n: NodeId| -> usize {
            match n {
                NodeId::Host(HostId(h)) => h as usize,
                NodeId::Switch(SwitchId(s)) => self.n_hosts + s as usize,
            }
        };
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];
        for l in &self.dlinks {
            adj[node_index(l.from)].push(node_index(l.to));
        }
        let mut seen = vec![false; n_nodes];
        seen[0] = true;
        let mut q = VecDeque::from([0usize]);
        while let Some(u) = q.pop_front() {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    q.push_back(v);
                }
            }
        }
        seen.iter().take(self.n_hosts).filter(|&&s| s).count()
    }

    // ----- canonical topologies -------------------------------------------

    /// One switch with `n` hosts. Covers single-rack scenarios: incast
    /// (Fig 9), shuffle (Fig 17).
    pub fn star(n: usize, speed_bps: u64, prop: Dur) -> Topology {
        let mut b = TopoBuilder::with_capacity(n);
        let hosts = b.add_hosts(n);
        let sw = b.add_switch();
        for h in hosts {
            b.connect(NodeId::Host(h), NodeId::Switch(sw), speed_bps, prop);
        }
        b.build(&format!("star-{n}"))
    }

    /// `n_pairs` senders on one switch, `n_pairs` receivers on another,
    /// joined by a single bottleneck of the same speed. Host `i` pairs with
    /// host `n_pairs + i`.
    pub fn dumbbell(n_pairs: usize, speed_bps: u64, prop: Dur) -> Topology {
        let mut b = TopoBuilder::with_capacity(2 * n_pairs + 1);
        let senders = b.add_hosts(n_pairs);
        let receivers = b.add_hosts(n_pairs);
        let s0 = b.add_switch();
        let s1 = b.add_switch();
        for h in senders {
            b.connect(NodeId::Host(h), NodeId::Switch(s0), speed_bps, prop);
        }
        for h in receivers {
            b.connect(NodeId::Host(h), NodeId::Switch(s1), speed_bps, prop);
        }
        b.connect(NodeId::Switch(s0), NodeId::Switch(s1), speed_bps, prop);
        b.build(&format!("dumbbell-{n_pairs}"))
    }

    /// A chain of `n_switches` switches with `hosts_per_switch` hosts on
    /// each; inter-switch links form the "parking lot" bottlenecks.
    /// Host `s * hosts_per_switch + i` sits on switch `s`.
    pub fn chain(
        n_switches: usize,
        hosts_per_switch: usize,
        speed_bps: u64,
        prop: Dur,
    ) -> Topology {
        assert!(n_switches >= 2);
        let mut b = TopoBuilder::with_capacity(n_switches * hosts_per_switch + n_switches - 1);
        let hosts = b.add_hosts(n_switches * hosts_per_switch);
        let sws = b.add_switches(n_switches);
        for (i, h) in hosts.iter().enumerate() {
            let sw = sws[i / hosts_per_switch];
            b.connect(NodeId::Host(*h), NodeId::Switch(sw), speed_bps, prop);
        }
        for w in sws.windows(2) {
            b.connect(NodeId::Switch(w[0]), NodeId::Switch(w[1]), speed_bps, prop);
        }
        b.build(&format!("chain-{n_switches}x{hosts_per_switch}"))
    }

    /// Canonical k-ary fat tree: `k` pods of `k/2` ToR + `k/2` agg switches,
    /// `(k/2)²` cores, `k³/4` hosts. The paper's Fig 1 uses `k = 8`
    /// (16 cores, 32 agg, 32 ToR, 128 hosts).
    ///
    /// Switch id layout: ToRs `[0, k²/2)`, aggs `[k²/2, k²)`,
    /// cores `[k², k² + k²/4)`.
    pub fn fat_tree(k: usize, host_bps: u64, up_bps: u64, prop: Dur) -> Topology {
        assert!(k >= 2 && k.is_multiple_of(2), "fat tree requires even k");
        let half = k / 2;
        // hosts + ToR-agg + agg-core cables.
        let mut b = TopoBuilder::with_capacity(3 * k * half * half);
        let hosts = b.add_hosts(k * half * half);
        let tors = b.add_switches(k * half);
        let aggs = b.add_switches(k * half);
        let cores = b.add_switches(half * half);

        // Hosts to ToRs.
        for (i, h) in hosts.iter().enumerate() {
            let tor = tors[i / half];
            b.connect(NodeId::Host(*h), NodeId::Switch(tor), host_bps, prop);
        }
        // ToRs to aggs within each pod.
        for pod in 0..k {
            for t in 0..half {
                for a in 0..half {
                    b.connect(
                        NodeId::Switch(tors[pod * half + t]),
                        NodeId::Switch(aggs[pod * half + a]),
                        up_bps,
                        prop,
                    );
                }
            }
        }
        // Aggs to cores: agg `a` of every pod connects to core group `a`.
        for pod in 0..k {
            for a in 0..half {
                for c in 0..half {
                    b.connect(
                        NodeId::Switch(aggs[pod * half + a]),
                        NodeId::Switch(cores[a * half + c]),
                        up_bps,
                        prop,
                    );
                }
            }
        }
        b.build(&format!("fat-tree-{k}"))
    }

    /// Generalized 3-tier Clos with per-tier speeds and explicit
    /// oversubscription. `cores` must be divisible by `aggs_per_pod`; agg
    /// `a` of every pod connects to core group `a`.
    #[allow(clippy::too_many_arguments)]
    pub fn three_tier(
        pods: usize,
        aggs_per_pod: usize,
        tors_per_pod: usize,
        hosts_per_tor: usize,
        cores: usize,
        host_bps: u64,
        up_bps: u64,
        core_bps: u64,
        prop: Dur,
    ) -> Topology {
        assert!(
            cores.is_multiple_of(aggs_per_pod),
            "cores must split evenly over agg groups"
        );
        let cores_per_group = cores / aggs_per_pod;
        let n_hosts = pods * tors_per_pod * hosts_per_tor;
        let n_cables =
            n_hosts + pods * tors_per_pod * aggs_per_pod + pods * aggs_per_pod * cores_per_group;
        let mut b = TopoBuilder::with_capacity(n_cables);
        let hosts = b.add_hosts(n_hosts);
        let tors = b.add_switches(pods * tors_per_pod);
        let aggs = b.add_switches(pods * aggs_per_pod);
        let core_sw = b.add_switches(cores);

        for (i, h) in hosts.iter().enumerate() {
            let tor = tors[i / hosts_per_tor];
            b.connect(NodeId::Host(*h), NodeId::Switch(tor), host_bps, prop);
        }
        for pod in 0..pods {
            for t in 0..tors_per_pod {
                for a in 0..aggs_per_pod {
                    b.connect(
                        NodeId::Switch(tors[pod * tors_per_pod + t]),
                        NodeId::Switch(aggs[pod * aggs_per_pod + a]),
                        up_bps,
                        prop,
                    );
                }
            }
            for a in 0..aggs_per_pod {
                for c in 0..cores_per_group {
                    b.connect(
                        NodeId::Switch(aggs[pod * aggs_per_pod + a]),
                        NodeId::Switch(core_sw[a * cores_per_group + c]),
                        core_bps,
                        prop,
                    );
                }
            }
        }
        b.build(&format!(
            "clos-{pods}x{aggs_per_pod}x{tors_per_pod}x{hosts_per_tor}"
        ))
    }

    /// The paper's evaluation topology (§6.3): 8 cores, 16 aggs, 32 ToRs,
    /// 192 hosts, 3:1 oversubscription at the ToR layer, 4 µs link delays.
    pub fn eval_fat_tree(link_bps: u64) -> Topology {
        Topology::three_tier(8, 2, 4, 6, 8, link_bps, link_bps, link_bps, Dur::us(4))
    }

    /// 10 240-host 3-tier Clos: 16 pods × 16 ToRs × 40 hosts, 8 aggs per
    /// pod, 64 cores — the scale the Shah–Xie centralized-scheduling work
    /// assumes for a mid-size datacenter. 2.5:1 oversubscribed at the ToR.
    pub fn three_tier_10k(host_bps: u64, up_bps: u64, core_bps: u64, prop: Dur) -> Topology {
        Topology::three_tier(16, 8, 16, 40, 64, host_bps, up_bps, core_bps, prop)
    }

    /// 65 536-host 3-tier Clos: 32 pods × 32 ToRs × 64 hosts, 16 aggs per
    /// pod, 128 cores — the 100k-class fabric scale. 4:1 oversubscribed at
    /// the ToR.
    pub fn three_tier_65k(host_bps: u64, up_bps: u64, core_bps: u64, prop: Dur) -> Topology {
        Topology::three_tier(32, 16, 32, 64, 128, host_bps, up_bps, core_bps, prop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FlowId;
    use crate::routing::ecmp_index;

    const G10: u64 = 10_000_000_000;

    #[test]
    fn star_routes_direct() {
        let t = Topology::star(4, G10, Dur::us(1));
        assert_eq!(t.n_hosts, 4);
        assert_eq!(t.n_switches, 1);
        assert_eq!(t.n_tors(), 1);
        // Switch routes every host out of exactly one port.
        for h in 0..4u32 {
            let choices = t.route_choices(SwitchId(0), HostId(h));
            assert_eq!(choices.len(), 1);
            assert_eq!(t.dlinks[choices[0].0 as usize].to, NodeId::Host(HostId(h)));
        }
        assert_eq!(t.hop_count(HostId(0), HostId(3)), 2);
    }

    #[test]
    fn dumbbell_structure() {
        let t = Topology::dumbbell(3, G10, Dur::us(1));
        assert_eq!(t.n_hosts, 6);
        assert_eq!(t.n_switches, 2);
        // Sender-side switch reaches receivers via the bottleneck.
        let bottleneck = t
            .dlink_between(NodeId::Switch(SwitchId(0)), NodeId::Switch(SwitchId(1)))
            .unwrap();
        for dst in 3..6u32 {
            assert_eq!(t.route_choices(SwitchId(0), HostId(dst)), &[bottleneck]);
        }
        assert_eq!(t.hop_count(HostId(0), HostId(3)), 3);
    }

    #[test]
    fn chain_parking_lot_paths() {
        let t = Topology::chain(4, 2, G10, Dur::us(1));
        assert_eq!(t.n_hosts, 8);
        assert_eq!(t.n_switches, 4);
        // End-to-end flow crosses all 3 inter-switch links: 5 hops total.
        assert_eq!(t.hop_count(HostId(0), HostId(7)), 5);
        // Neighbors: 3 hops.
        assert_eq!(t.hop_count(HostId(0), HostId(2)), 3);
    }

    #[test]
    fn fat_tree_8ary_matches_paper_counts() {
        let t = Topology::fat_tree(8, G10, 40_000_000_000, Dur::us(1));
        assert_eq!(t.n_hosts, 128);
        // 32 ToR + 32 agg + 16 core.
        assert_eq!(t.n_switches, 80);
        assert_eq!(t.n_tors(), 32);
        // Intra-pod pair: host0 and host4 on different ToRs of pod 0.
        assert_eq!(t.hop_count(HostId(0), HostId(4)), 4);
        // Cross-pod pair traverses core: 6 hops.
        assert_eq!(t.hop_count(HostId(0), HostId(127)), 6);
    }

    #[test]
    fn fat_tree_ecmp_choices() {
        let t = Topology::fat_tree(4, G10, G10, Dur::us(1));
        // k=4: each ToR has 2 agg uplinks; remote destinations must have 2
        // equal-cost choices at the ToR.
        let remote_host = HostId((t.n_hosts - 1) as u32);
        assert_eq!(t.route_choices(SwitchId(0), remote_host).len(), 2);
        // Local host: single downlink.
        assert_eq!(t.route_choices(SwitchId(0), HostId(0)).len(), 1);
        assert_eq!(
            t.route_choices(SwitchId(0), HostId(0)),
            std::slice::from_ref(&t.host_downlink[0])
        );
    }

    #[test]
    fn eval_topology_oversubscription() {
        let t = Topology::eval_fat_tree(G10);
        assert_eq!(t.n_hosts, 192);
        assert_eq!(t.n_switches, 32 + 16 + 8);
        // ToR 0: 6 host downlinks + 2 agg uplinks.
        let tor0 = NodeId::Switch(SwitchId(0));
        let out: Vec<_> = t.dlinks.iter().filter(|l| l.from == tor0).collect();
        assert_eq!(out.len(), 8);
        // Max RTT estimate: 6 hops × (4us + 1.23us) × 2 ≈ 63us ≥ paper's 52.
        let rtt = t.base_rtt(HostId(0), HostId(191));
        assert!(rtt >= Dur::us(48) && rtt <= Dur::us(80), "{rtt}");
    }

    #[test]
    fn host_attachment_arrays() {
        let t = Topology::eval_fat_tree(G10);
        for h in 0..t.n_hosts {
            let up = &t.dlinks[t.host_uplink[h].0 as usize];
            let down = &t.dlinks[t.host_downlink[h].0 as usize];
            assert_eq!(up.from, NodeId::Host(HostId(h as u32)));
            assert_eq!(up.to, NodeId::Switch(t.host_tor[h]));
            assert_eq!(down.from, NodeId::Switch(t.host_tor[h]));
            assert_eq!(down.to, NodeId::Host(HostId(h as u32)));
        }
    }

    #[test]
    fn path_symmetry_under_symmetric_hash() {
        // Trace the ECMP path forward and backward through a fat tree and
        // verify the traversed cables match (paper §3.1 requirement).
        let t = Topology::fat_tree(8, G10, G10, Dur::us(1));
        let trace = |src: HostId, dst: HostId, flow: FlowId| -> Vec<usize> {
            // Returns cable ids (dlink index / 2) from src to dst.
            let mut cables = Vec::new();
            let mut dl = t.host_uplink[src.0 as usize];
            loop {
                cables.push(dl.0 as usize / 2);
                let to = t.dlinks[dl.0 as usize].to;
                match to {
                    NodeId::Host(h) => {
                        assert_eq!(h, dst);
                        return cables;
                    }
                    NodeId::Switch(s) => {
                        let choices = t.route_choices(s, dst);
                        assert!(!choices.is_empty());
                        let idx = ecmp_index(src, dst, flow, choices.len());
                        dl = choices[idx];
                    }
                }
            }
        };
        for f in 0..200u32 {
            let a = HostId(f % 16);
            let b = HostId(127 - (f % 16));
            let fwd = trace(a, b, FlowId(f));
            let mut rev = trace(b, a, FlowId(f));
            rev.reverse();
            assert_eq!(fwd, rev, "asymmetric path for flow {f}");
        }
    }

    #[test]
    fn ecmp_spreads_flows_across_uplinks() {
        let t = Topology::fat_tree(8, G10, G10, Dur::us(1));
        // ToR 0 toward a cross-pod host: 4 agg choices.
        let choices = t.route_choices(SwitchId(0), HostId(127));
        assert_eq!(choices.len(), 4);
        let mut used = vec![0usize; choices.len()];
        for f in 0..1000u32 {
            used[ecmp_index(HostId(0), HostId(127), FlowId(f), choices.len())] += 1;
        }
        for &u in &used {
            assert!(u > 150, "skewed ECMP: {used:?}");
        }
    }

    #[test]
    fn flat_tables_share_slices_per_tor() {
        // All hosts behind one remote ToR must return the *same* slice at
        // any given switch — the flat layout's defining property.
        let t = Topology::fat_tree(4, G10, G10, Dur::us(1));
        let a = t.route_choices(SwitchId(0), HostId((t.n_hosts - 1) as u32));
        let b = t.route_choices(SwitchId(0), HostId((t.n_hosts - 2) as u32));
        assert_eq!(t.host_tor[t.n_hosts - 1], t.host_tor[t.n_hosts - 2]);
        assert_eq!(a.as_ptr(), b.as_ptr(), "slices must be shared, not copied");
    }

    #[test]
    #[should_panic(expected = "exactly one uplink")]
    fn multihomed_host_rejected() {
        let mut b = TopoBuilder::new();
        let h = b.add_hosts(1)[0];
        let s1 = b.add_switch();
        let s2 = b.add_switch();
        b.connect(NodeId::Host(h), NodeId::Switch(s1), G10, Dur::us(1));
        b.connect(NodeId::Host(h), NodeId::Switch(s2), G10, Dur::us(1));
        b.build("bad");
    }

    #[test]
    fn min_host_speed() {
        let t = Topology::star(3, G10, Dur::us(1));
        assert_eq!(t.min_host_speed(), G10);
    }
}
