//! The hypothetical *ideal* rate control of §2 (Fig 1a): an omniscient
//! oracle that recomputes exact max-min fair rates at every flow arrival
//! and departure, and senders that pace perfectly at their assigned rate.
//!
//! The paper uses this to show that **even perfect rate control cannot
//! bound queues** under partition/aggregate workloads: every flow knows its
//! fair rate, but packets of *different* flows still arrive in bursts, so
//! the queue grows with the number of flows — only credit-based arrival
//! scheduling (Fig 1c) bounds it.

use crate::window::{window_factory, AckEvent, CongestionControl, WindowSender};
use std::collections::{BTreeMap, BTreeSet};
use xpass_net::endpoint::EndpointFactory;
use xpass_net::ids::{DLinkId, FlowId, NodeId, Side};
use xpass_net::network::{Controller, Network};
use xpass_net::routing::ecmp_index;
use xpass_sim::time::SimTime;

/// Sender policy whose rate is dictated by the oracle.
pub struct OracleCc {
    rate_bps: f64,
}

impl OracleCc {
    /// New policy; the oracle sets the real rate on flow start.
    pub fn new(init_bps: f64) -> OracleCc {
        OracleCc { rate_bps: init_bps }
    }

    /// Oracle-assigned rate.
    pub fn set_rate(&mut self, bps: f64) {
        self.rate_bps = bps.max(1e3);
    }

    /// Current assigned rate.
    pub fn rate(&self) -> f64 {
        self.rate_bps
    }
}

impl CongestionControl for OracleCc {
    fn cwnd(&self) -> f64 {
        // Effectively unbounded: pacing is the only control.
        1e9
    }
    fn on_ack(&mut self, _ev: &AckEvent) {}
    fn on_fast_retransmit(&mut self, _now: SimTime) {}
    fn on_timeout(&mut self) {}
    fn pacing_bps(&self) -> Option<f64> {
        Some(self.rate_bps)
    }

    fn persist(&mut self, io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        io.f64(&mut self.rate_bps)
    }
}

/// Endpoint factory for oracle-paced flows. Pair with a
/// [`MaxMinOracle`] controller installed on the network.
pub fn ideal_factory(init_bps: f64) -> EndpointFactory {
    window_factory(move || OracleCc::new(init_bps))
}

/// Controller recomputing global max-min fair rates (water-filling over the
/// exact ECMP paths flows take) at every flow arrival and departure.
///
/// Every map is ordered: the iteration order fixes which link wins a tie,
/// the order shares are subtracted in, and which sender is poked first, so
/// a hash map's per-process order would make the run depend on more than
/// its seed.
pub struct MaxMinOracle {
    /// Fraction of each link's capacity available to data (≤ 1.0).
    pub efficiency: f64,
    active: BTreeMap<u32, Vec<DLinkId>>,
}

impl MaxMinOracle {
    /// New oracle; `efficiency` discounts wire overhead headroom.
    pub fn new(efficiency: f64) -> MaxMinOracle {
        assert!(efficiency > 0.0 && efficiency <= 1.0);
        MaxMinOracle {
            efficiency,
            active: BTreeMap::new(),
        }
    }

    /// The exact sequence of directed links a flow's data traverses.
    fn trace_path(net: &Network, flow: FlowId) -> Vec<DLinkId> {
        let topo = net.topo();
        let info = net.flow_info(flow);
        let mut path = Vec::new();
        let mut dl = topo.host_uplink[info.src.0 as usize];
        loop {
            path.push(dl);
            match topo.dlinks[dl.0 as usize].to {
                NodeId::Host(h) => {
                    debug_assert_eq!(h, info.dst);
                    return path;
                }
                NodeId::Switch(s) => {
                    let choices = topo.route_choices(s, info.dst);
                    let idx = ecmp_index(info.src, info.dst, flow, choices.len());
                    dl = choices[idx];
                }
            }
        }
    }

    /// Water-filling max-min allocation over the active flows.
    fn compute_rates(&self, net: &Network) -> BTreeMap<u32, f64> {
        let mut remaining: BTreeMap<u32, f64> = BTreeMap::new();
        let mut link_flows: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for (&f, path) in &self.active {
            for dl in path {
                let cap = net.topo().dlinks[dl.0 as usize].speed_bps as f64 * self.efficiency;
                remaining.entry(dl.0).or_insert(cap);
                link_flows.entry(dl.0).or_default().push(f);
            }
        }
        let mut rates: BTreeMap<u32, f64> = BTreeMap::new();
        let mut unfixed: BTreeSet<u32> = self.active.keys().copied().collect();
        while !unfixed.is_empty() {
            // Bottleneck link: smallest per-flow share among links with
            // unfixed flows.
            let mut best: Option<(u32, f64)> = None;
            for (&l, flows) in &link_flows {
                let n = flows.iter().filter(|f| unfixed.contains(f)).count();
                if n == 0 {
                    continue;
                }
                let share = remaining[&l] / n as f64;
                if best.is_none_or(|(_, s)| share < s) {
                    best = Some((l, share));
                }
            }
            let Some((bottleneck, share)) = best else {
                break;
            };
            let fixed: Vec<u32> = link_flows[&bottleneck]
                .iter()
                .copied()
                .filter(|f| unfixed.contains(f))
                .collect();
            for f in fixed {
                rates.insert(f, share);
                unfixed.remove(&f);
                for dl in &self.active[&f] {
                    if let Some(r) = remaining.get_mut(&dl.0) {
                        *r = (*r - share).max(0.0);
                    }
                }
            }
        }
        rates
    }

    fn apply(&self, net: &mut Network) {
        let rates = self.compute_rates(net);
        for (&f, &r) in &rates {
            net.poke(FlowId(f), Side::Sender, |ep, ctx| {
                if let Some(ws) = ep.as_any().downcast_mut::<WindowSender<OracleCc>>() {
                    ws.cc().set_rate(r);
                    ws.kick(ctx);
                }
            });
        }
    }
}

impl Controller for MaxMinOracle {
    fn on_flow_start(&mut self, net: &mut Network, flow: FlowId) {
        let path = Self::trace_path(net, flow);
        self.active.insert(flow.0, path);
        self.apply(net);
    }

    fn on_flow_complete(&mut self, net: &mut Network, flow: FlowId) {
        self.active.remove(&flow.0);
        self.apply(net);
    }

    fn persist(&mut self, io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        io.within("oracle.active", |io| {
            io.map(&mut self.active, 8, |io, f, path| {
                io.u32(f)?;
                io.seq(path, 4, |io, dl| io.u32(&mut dl.0))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpass_net::config::{HostDelayModel, NetConfig};
    use xpass_net::ids::HostId;
    use xpass_net::topology::Topology;
    use xpass_sim::time::Dur;

    const G10: u64 = 10_000_000_000;

    fn ideal_net(topo: Topology, seed: u64) -> Network {
        let mut cfg = NetConfig::default().with_seed(seed);
        cfg.host_delay = HostDelayModel {
            min: Dur::us(1),
            max: Dur::us(1),
        };
        let mut net = Network::new(topo, cfg, ideal_factory(1e9));
        net.set_controller(Box::new(MaxMinOracle::new(0.95)));
        net
    }

    #[test]
    fn lone_flow_gets_full_capacity() {
        let mut net = ideal_net(Topology::dumbbell(1, G10, Dur::us(1)), 61);
        let size = 10_000_000u64;
        let f = net.add_flow(HostId(0), HostId(1), size, SimTime::ZERO);
        let done = net.run_until_done(SimTime::ZERO + Dur::ms(100));
        assert!(net.flow_done(f));
        let gbps = size as f64 * 8.0 / done.as_secs_f64() / 1e9;
        assert!(gbps > 8.0, "goodput {gbps}");
    }

    #[test]
    fn instant_fair_share_on_arrival() {
        let mut net = ideal_net(Topology::dumbbell(2, G10, Dur::us(1)), 63);
        let a = net.add_flow(HostId(0), HostId(2), 50_000_000, SimTime::ZERO);
        let b = net.add_flow(HostId(1), HostId(3), 50_000_000, SimTime::ZERO + Dur::ms(1));
        net.run_until(SimTime::ZERO + Dur::ms(2));
        let mut ra = 0.0;
        let mut rb = 0.0;
        net.poke(a, Side::Sender, |ep, _| {
            ra = ep
                .as_any()
                .downcast_mut::<WindowSender<OracleCc>>()
                .unwrap()
                .cc()
                .rate();
        });
        net.poke(b, Side::Sender, |ep, _| {
            rb = ep
                .as_any()
                .downcast_mut::<WindowSender<OracleCc>>()
                .unwrap()
                .cc()
                .rate();
        });
        // Both at exactly C·0.95/2.
        let fair = 10e9 * 0.95 / 2.0;
        assert!((ra - fair).abs() < 1e6, "{ra}");
        assert!((rb - fair).abs() < 1e6, "{rb}");
    }

    #[test]
    fn water_filling_multi_bottleneck() {
        // Parking lot: flow 0 spans two links, flows 1 and 2 one link each.
        // Max-min: every flow gets C/2.
        let mut net = ideal_net(Topology::chain(3, 2, G10, Dur::us(1)), 65);
        // flow0: host on sw0 → host on sw2 (both links).
        let f0 = net.add_flow(HostId(0), HostId(4), 50_000_000, SimTime::ZERO);
        // flow1: sw0 → sw1; flow2: sw1 → sw2.
        net.add_flow(HostId(1), HostId(2), 50_000_000, SimTime::ZERO);
        net.add_flow(HostId(3), HostId(5), 50_000_000, SimTime::ZERO);
        net.run_until(SimTime::ZERO + Dur::ms(1));
        let mut r0 = 0.0;
        net.poke(f0, Side::Sender, |ep, _| {
            r0 = ep
                .as_any()
                .downcast_mut::<WindowSender<OracleCc>>()
                .unwrap()
                .cc()
                .rate();
        });
        let fair = 10e9 * 0.95 / 2.0;
        assert!((r0 - fair).abs() < 1e6, "{r0} vs {fair}");
    }

    #[test]
    fn departures_release_bandwidth() {
        let mut net = ideal_net(Topology::dumbbell(2, G10, Dur::us(1)), 67);
        let a = net.add_flow(HostId(0), HostId(2), 40_000_000, SimTime::ZERO);
        let b = net.add_flow(HostId(1), HostId(3), 1_000_000, SimTime::ZERO);
        net.run_until_done(SimTime::ZERO + Dur::ms(200));
        assert!(net.flow_done(a) && net.flow_done(b));
        // Flow a finishes much faster than 2× the b-share period would
        // suggest, because it reclaims the link after b leaves.
        let fct_a = net.flow_records()[0].fct.unwrap().as_secs_f64();
        let lower = 40_000_000.0 * 8.0 / (10e9 * 0.95); // full-rate bound
        assert!(fct_a < lower * 1.35, "fct {fct_a} vs bound {lower}");
    }

    #[test]
    fn identically_seeded_runs_are_identical() {
        // Staggered arrivals over one bottleneck: every arrival and
        // departure re-runs the water-filling, whose float subtraction
        // order and poke order must not depend on map iteration order.
        let run = || {
            let mut net = ideal_net(Topology::dumbbell(4, G10, Dur::us(1)), 69);
            for i in 0..4u32 {
                let start = SimTime::ZERO + Dur::us(40 * i as u64);
                net.add_flow(HostId(i), HostId(4 + i), 1_000_000, start);
            }
            net.run_until_done(SimTime::ZERO + Dur::ms(100));
            (net.flow_records(), net.engine_report().events_processed)
        };
        let first = run();
        for k in 1..8 {
            assert_eq!(run(), first, "run {k}");
        }
    }
}
