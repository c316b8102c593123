//! The network's packet store holds exactly the packets in flight. Under
//! DCTCP, ExpressPass with uniform-random and with longest-queue credit
//! drops, and a fault plan that flushes a link, loses packets and pauses a
//! host, every sampled slice finds the store's live count equal to the
//! distinct handles that port rings and queued `Arrive`/`HostRx` events
//! carry. A drained run leaves the store empty, and a twin restored from a
//! mid-run snapshot holds as many packets as the original.

use xpass::baselines::dctcp_factory;
use xpass::expresspass::{xpass_factory, XPassConfig};
use xpass::net::config::NetConfig;
use xpass::net::faults::FaultPlan;
use xpass::net::ids::{HostId, NodeId, SwitchId};
use xpass::net::network::Network;
use xpass::net::queue::CreditDropPolicy;
use xpass::net::topology::Topology;
use xpass::sim::snap::SnapWriter;
use xpass::sim::time::{Dur, SimTime};

const G10: u64 = 10_000_000_000;
const PAIRS: u32 = 6;

#[derive(Clone, Copy, Debug)]
enum Case {
    /// DCTCP over a shallow bottleneck queue, so it tail-drops too.
    Dctcp,
    /// ExpressPass, credit queues shedding with `policy`.
    XPass(CreditDropPolicy),
    /// ExpressPass under a flushing link-down, random loss and a host pause.
    Faults,
}

fn at(d: Dur) -> SimTime {
    SimTime::ZERO + d
}

/// A dumbbell of `PAIRS` flows `i → PAIRS + i` sharing one bottleneck.
fn build(case: Case) -> Network {
    let topo = Topology::dumbbell(PAIRS as usize, G10, Dur::us(2));
    let mut net = match case {
        Case::Dctcp => {
            let mut cfg = NetConfig::dctcp(G10).with_seed(3);
            cfg.switch_queue_bytes = 24_000;
            Network::new(topo, cfg, dctcp_factory(G10))
        }
        Case::XPass(policy) => {
            let mut cfg = NetConfig::expresspass().with_seed(3);
            cfg.credit_drop = policy;
            Network::new(topo, cfg, xpass_factory(XPassConfig::aggressive()))
        }
        Case::Faults => {
            let cfg = NetConfig::expresspass().with_seed(3);
            Network::new(topo, cfg, xpass_factory(XPassConfig::aggressive()))
        }
    };
    for i in 0..PAIRS {
        net.add_flow(HostId(i), HostId(PAIRS + i), 2_000_000, SimTime::ZERO);
    }
    if let Case::Faults = case {
        let fwd = (net.topo())
            .dlink_between(NodeId::Switch(SwitchId(0)), NodeId::Switch(SwitchId(1)))
            .unwrap();
        net.install_fault_plan(
            FaultPlan::new()
                .set_loss(at(Dur::us(300)), fwd, 0.02, 0.2)
                .link_down_flush(at(Dur::us(800)), fwd)
                .link_up(at(Dur::us(1100)), fwd)
                .host_pause(at(Dur::us(1400)), HostId(PAIRS + 1))
                .host_resume(at(Dur::us(1900)), HostId(PAIRS + 1))
                .set_loss(at(Dur::ms(3)), fwd, 0.0, 0.0),
        );
    }
    net
}

/// Run to `end` in slices of `step`, checking the census after each; the
/// most packets the store held at a slice.
fn run_checked(net: &mut Network, end: SimTime, step: Dur) -> usize {
    let mut most = 0;
    while net.now() < end {
        net.run_until(net.now() + step);
        let (live, held) = net.packet_census();
        assert_eq!(
            live,
            held,
            "at {:?}: store holds {live}, handles {held}",
            net.now()
        );
        most = most.max(live);
    }
    most
}

fn check(case: Case) -> Network {
    let mut net = build(case);
    let most = run_checked(&mut net, at(Dur::ms(2)), Dur::us(50));
    assert!(most > 0, "{case:?}: nothing was ever in flight");

    // A twin restored from a mid-run snapshot rebuilds the same store.
    let mut w = SnapWriter::new();
    net.snapshot_into(&mut w);
    let mut twin = build(case);
    twin.restore_from(&w.into_body()).expect("restore");
    assert_eq!(twin.packet_census(), net.packet_census(), "{case:?} twin");

    let done = net.run_until_done(at(Dur::secs(1)));
    run_checked(&mut net, done + Dur::ms(5), Dur::us(250));
    assert_eq!(
        net.packet_census(),
        (0, 0),
        "{case:?}: a drained run holds packets"
    );
    net
}

#[test]
fn dctcp_store_holds_exactly_the_packets_in_flight() {
    let net = check(Case::Dctcp);
    assert!(net.counters().data_dropped > 0, "no tail drop exercised");
}

#[test]
fn uniform_random_evictions_free_their_credits() {
    let net = check(Case::XPass(CreditDropPolicy::UniformRandom));
    assert!(
        net.counters().credits_dropped > 0,
        "no credit drop exercised"
    );
}

#[test]
fn longest_queue_drop_frees_its_credits() {
    let net = check(Case::XPass(CreditDropPolicy::LongestQueueDrop));
    assert!(
        net.counters().credits_dropped > 0,
        "no credit drop exercised"
    );
}

#[test]
fn fault_losses_flushes_and_pauses_free_their_packets() {
    let net = check(Case::Faults);
    let c = net.counters();
    assert_eq!(c.faults_injected, 6);
    assert!(c.pkts_lost_to_faults > 0, "no fault loss exercised");
}
