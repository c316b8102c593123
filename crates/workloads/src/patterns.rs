//! Synthetic traffic patterns: incast, permutation, MapReduce shuffle, and
//! the partition/aggregate request/response application of Fig 1.

use crate::FlowSpec;
use std::collections::BTreeMap;
use xpass_net::ids::{FlowId, HostId};
use xpass_net::network::{Controller, Network};
use xpass_sim::time::{Dur, SimTime};

/// N-to-1 incast: every sender ships `size_bytes` to `dst` at `start`.
pub fn incast(senders: &[HostId], dst: HostId, size_bytes: u64, start: SimTime) -> Vec<FlowSpec> {
    senders
        .iter()
        .filter(|&&s| s != dst)
        .map(|&src| FlowSpec {
            src,
            dst,
            size_bytes,
            start,
        })
        .collect()
}

/// Permutation traffic: host `i` sends to host `(i + 1) mod n`.
pub fn permutation(n_hosts: usize, size_bytes: u64, start: SimTime) -> Vec<FlowSpec> {
    (0..n_hosts)
        .map(|i| FlowSpec {
            src: HostId(i as u32),
            dst: HostId(((i + 1) % n_hosts) as u32),
            size_bytes,
            start,
        })
        .collect()
}

/// Parking-lot traffic (Fig 10) over `Topology::chain(n + 1, 2, ..)`,
/// which gives switch `i` the hosts `2i` and `2i + 1`: flow 0 spans all
/// `n` switch-to-switch links (host 0 on the first switch to the upper
/// host of the last), and cross-flow `i` crosses only link `i` (lower
/// host of switch `i` to upper host of switch `i + 1`). All flows start
/// at time zero.
pub fn parking_lot(n_bottlenecks: usize, size_bytes: u64) -> Vec<FlowSpec> {
    let n = n_bottlenecks;
    let mut specs = vec![FlowSpec {
        src: HostId(0),
        dst: HostId((2 * n + 1) as u32),
        size_bytes,
        start: SimTime::ZERO,
    }];
    for i in 0..n {
        specs.push(FlowSpec {
            src: HostId((2 * i + 1) as u32),
            dst: HostId((2 * (i + 1)) as u32),
            size_bytes,
            start: SimTime::ZERO,
        });
    }
    specs
}

/// MapReduce shuffle (Fig 17): `tasks_per_host` tasks on each of `n_hosts`
/// hosts; every task sends `bytes_per_pair` to every task on every *other*
/// host. Flow count: `n_hosts · tasks² · (n_hosts − 1)`.
///
/// Task starts are staggered by a tiny per-flow offset so the simulator's
/// event ordering does not artificially synchronize 100k SYNs.
pub fn shuffle(
    n_hosts: usize,
    tasks_per_host: usize,
    bytes_per_pair: u64,
    rng: &mut xpass_sim::rng::Rng,
) -> Vec<FlowSpec> {
    let mut specs = Vec::new();
    for src_h in 0..n_hosts {
        for dst_h in 0..n_hosts {
            if src_h == dst_h {
                continue;
            }
            for _src_task in 0..tasks_per_host {
                for _dst_task in 0..tasks_per_host {
                    specs.push(FlowSpec {
                        src: HostId(src_h as u32),
                        dst: HostId(dst_h as u32),
                        size_bytes: bytes_per_pair,
                        start: SimTime::ZERO + Dur::ps(rng.below(1_000_000_000)),
                    });
                }
            }
        }
    }
    specs
}

/// The partition/aggregate application of Fig 1, run as a network
/// controller: a master continuously sends `request_bytes` to each of
/// `fan_out` workers (round-robin over worker hosts — multiple worker tasks
/// may share a host, footnote 2); each worker answers with
/// `response_bytes`; when every response of a round completes, the next
/// round starts, up to `rounds`.
pub struct PartitionAggregate {
    /// Aggregator host.
    pub master: HostId,
    /// Worker hosts (tasks are assigned round-robin).
    pub worker_hosts: Vec<HostId>,
    /// Number of worker tasks per round (the fan-out).
    pub fan_out: usize,
    /// Request size (paper: 200 B).
    pub request_bytes: u64,
    /// Response size (paper: 1000 B).
    pub response_bytes: u64,
    /// Rounds to run.
    pub rounds: usize,
    state: PaState,
}

struct PaState {
    round: usize,
    pending_requests: BTreeMap<u32, HostId>,
    pending_responses: usize,
    started: bool,
}

impl PartitionAggregate {
    /// New application in the paper's Fig 1 configuration
    /// (200 B requests, 1000 B responses).
    pub fn new(
        master: HostId,
        worker_hosts: Vec<HostId>,
        fan_out: usize,
        rounds: usize,
    ) -> PartitionAggregate {
        assert!(!worker_hosts.is_empty());
        assert!(rounds >= 1);
        PartitionAggregate {
            master,
            worker_hosts,
            fan_out,
            request_bytes: 200,
            response_bytes: 1000,
            rounds,
            state: PaState {
                round: 0,
                pending_requests: BTreeMap::new(),
                pending_responses: 0,
                started: false,
            },
        }
    }

    fn launch_round(&mut self, net: &mut Network) {
        let now = net.now();
        for i in 0..self.fan_out {
            let worker = self.worker_hosts[i % self.worker_hosts.len()];
            let f = net.add_flow(self.master, worker, self.request_bytes, now);
            self.state.pending_requests.insert(f.0, worker);
        }
        self.state.pending_responses = self.fan_out;
    }
}

impl Controller for PartitionAggregate {
    fn on_flow_start(&mut self, net: &mut Network, _flow: FlowId) {
        if !self.state.started {
            // The very first flow start in the run triggers round 1; flows
            // added by launch_round re-enter here harmlessly.
            self.state.started = true;
            if self.state.pending_responses == 0 && self.state.pending_requests.is_empty() {
                self.launch_round(net);
            }
        }
    }

    fn on_flow_complete(&mut self, net: &mut Network, flow: FlowId) {
        if let Some(worker) = self.state.pending_requests.remove(&flow.0) {
            // Request delivered → worker responds.
            let now = net.now();
            net.add_flow(worker, self.master, self.response_bytes, now);
        } else {
            // A response completed.
            self.state.pending_responses -= 1;
            if self.state.pending_responses == 0 && self.state.pending_requests.is_empty() {
                self.state.round += 1;
                if self.state.round < self.rounds {
                    self.launch_round(net);
                }
            }
        }
    }

    fn persist(&mut self, io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        io.within("partition_aggregate", |io| {
            let st = &mut self.state;
            io.usize(&mut st.round)?;
            io.map(&mut st.pending_requests, 8, |io, f, h| {
                io.u32(f)?;
                io.u32(&mut h.0)
            })?;
            io.usize(&mut st.pending_responses)?;
            io.bool(&mut st.started)
        })
    }
}

/// Kick off a partition/aggregate run: installs the controller and injects
/// a sentinel first round. Returns nothing; run the network to completion.
pub fn start_partition_aggregate(net: &mut Network, mut app: PartitionAggregate) {
    app.launch_round(net);
    app.state.started = true;
    net.set_controller(Box::new(app));
}

#[cfg(test)]
mod tests {
    use super::*;
    use expresspass::{xpass_factory, XPassConfig};
    use xpass_net::config::{HostDelayModel, NetConfig};
    use xpass_net::topology::Topology;

    const G10: u64 = 10_000_000_000;

    #[test]
    fn incast_excludes_destination() {
        let senders: Vec<HostId> = (0..8).map(HostId).collect();
        let specs = incast(&senders, HostId(3), 1000, SimTime::ZERO);
        assert_eq!(specs.len(), 7);
        assert!(specs.iter().all(|s| s.dst == HostId(3) && s.src != s.dst));
    }

    #[test]
    fn permutation_is_a_ring() {
        let specs = permutation(5, 100, SimTime::ZERO);
        assert_eq!(specs.len(), 5);
        assert_eq!(specs[4].dst, HostId(0));
    }

    #[test]
    fn shuffle_flow_count_matches_formula() {
        // Fig 17 text: each host sends 39×8×8 flows with 40 hosts, 8 tasks.
        let mut rng = xpass_sim::rng::Rng::new(1);
        let specs = shuffle(4, 2, 1000, &mut rng);
        // n_hosts × (n_hosts−1) × tasks² = 4×3×4 = 48.
        assert_eq!(specs.len(), 48);
        let from_h0 = specs.iter().filter(|s| s.src == HostId(0)).count();
        assert_eq!(from_h0, 12); // (n−1)×tasks² = 3×4
    }

    #[test]
    fn partition_aggregate_runs_rounds() {
        let topo = Topology::star(9, G10, Dur::us(1));
        let mut cfg = NetConfig::expresspass().with_seed(3);
        cfg.host_delay = HostDelayModel {
            min: Dur::us(1),
            max: Dur::us(1),
        };
        let mut net =
            xpass_net::network::Network::new(topo, cfg, xpass_factory(XPassConfig::aggressive()));
        let workers: Vec<HostId> = (1..9).map(HostId).collect();
        let app = PartitionAggregate::new(HostId(0), workers, 16, 3);
        start_partition_aggregate(&mut net, app);
        net.run_until_done(SimTime::ZERO + Dur::secs(1));
        // 3 rounds × (16 requests + 16 responses) flows, all complete.
        assert_eq!(net.flow_count(), 96);
        assert_eq!(net.completed_count(), 96);
    }
}
