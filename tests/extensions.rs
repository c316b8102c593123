//! Integration tests for the §7 extension features: multi-class credit
//! priority, packet-spray routing, the preemptive CREDIT_STOP, and the
//! documented heterogeneous-link-speed limitation.

use xpass::expresspass::{xpass_factory, XPassConfig};
use xpass::net::config::{NetConfig, RoutingMode};
use xpass::net::ids::{HostId, NodeId};
use xpass::net::network::Network;
use xpass::net::topology::{TopoBuilder, Topology};
use xpass::sim::time::{Dur, SimTime};

const G10: u64 = 10_000_000_000;

fn xpass_net(topo: Topology, mut cfg: NetConfig, xp: XPassConfig) -> Network {
    cfg.credit = true;
    Network::new(topo, cfg, xpass_factory(xp))
}

#[test]
fn class_zero_credits_strictly_preempt_class_one() {
    // §7: "prioritizing flow A's credits over flow B's ... will result in
    // the strict prioritization of A over B." Two long flows share a
    // bottleneck; the high-priority one must take nearly the whole link.
    let topo = Topology::dumbbell(2, G10, Dur::us(4));
    let mut cfg = NetConfig::expresspass().with_seed(31);
    cfg.credit_classes = 2;
    let mut net = Network::new(topo, cfg, xpass_factory(XPassConfig::aggressive()));
    let hi = net.add_flow_in_class(HostId(0), HostId(2), 1 << 30, SimTime::ZERO, 0);
    let lo = net.add_flow_in_class(HostId(1), HostId(3), 1 << 30, SimTime::ZERO, 1);
    net.run_until(SimTime::ZERO + Dur::ms(20));
    let hi_bytes = net.delivered_bytes(hi);
    let lo_bytes = net.delivered_bytes(lo);
    assert!(
        hi_bytes > lo_bytes * 4,
        "no strict priority: hi {hi_bytes} vs lo {lo_bytes}"
    );
    // High-priority flow runs at near-solo throughput.
    let hi_gbps = hi_bytes as f64 * 8.0 / 0.020 / 1e9;
    assert!(hi_gbps > 7.0, "hi class at {hi_gbps:.2} Gbps");
}

#[test]
fn same_class_flows_still_share_fairly() {
    // With multiple classes configured but both flows in class 0, sharing
    // is unchanged.
    let topo = Topology::dumbbell(2, G10, Dur::us(4));
    let mut cfg = NetConfig::expresspass().with_seed(33);
    cfg.credit_classes = 2;
    let mut net = Network::new(topo, cfg, xpass_factory(XPassConfig::aggressive()));
    let a = net.add_flow_in_class(HostId(0), HostId(2), 1 << 30, SimTime::ZERO, 0);
    let b = net.add_flow_in_class(HostId(1), HostId(3), 1 << 30, SimTime::ZERO, 0);
    net.run_until(SimTime::ZERO + Dur::ms(20));
    let (da, db) = (net.delivered_bytes(a) as f64, net.delivered_bytes(b) as f64);
    let ratio = da.max(db) / da.min(db);
    assert!(ratio < 1.5, "same-class flows unfair: {da} vs {db}");
}

#[test]
#[should_panic(expected = "outside configured credit_classes")]
fn class_must_be_configured() {
    let topo = Topology::dumbbell(1, G10, Dur::us(4));
    let cfg = NetConfig::expresspass();
    let mut net = Network::new(topo, cfg, xpass_factory(XPassConfig::default()));
    net.add_flow_in_class(HostId(0), HostId(1), 1, SimTime::ZERO, 3);
}

#[test]
fn packet_spray_completes_with_bounded_queues() {
    // §7: packet spraying as the path-symmetry alternative — the bounded
    // queuing property also bounds reordering, so ExpressPass still works.
    let topo = Topology::fat_tree(4, G10, G10, Dur::us(2));
    let mut cfg = NetConfig::expresspass().with_seed(35);
    cfg.routing = RoutingMode::PacketSpray;
    let mut net = Network::new(topo, cfg, xpass_factory(XPassConfig::default()));
    for i in 0..8u32 {
        net.add_flow(HostId(i), HostId(15 - i), 2_000_000, SimTime::ZERO);
    }
    net.run_until_done(SimTime::ZERO + Dur::secs(2));
    assert_eq!(net.completed_count(), 8);
    assert_eq!(
        net.total_data_drops(),
        0,
        "spraying must not cause data loss"
    );
    assert!(
        net.max_switch_queue_bytes() < 30_000,
        "queue {} under spraying",
        net.max_switch_queue_bytes()
    );
}

#[test]
fn spray_balances_core_load_better_than_hash_collisions() {
    // Per-packet spraying equalizes bytes across a ToR's uplinks even when
    // symmetric hashing collides flows onto one uplink.
    let measure = |mode: RoutingMode| -> f64 {
        let topo = Topology::fat_tree(4, G10, G10, Dur::us(2));
        let mut cfg = NetConfig::expresspass().with_seed(37);
        cfg.routing = mode;
        let mut net = Network::new(topo, cfg, xpass_factory(XPassConfig::default()));
        // Two cross-pod flows from the same ToR.
        net.add_flow(HostId(0), HostId(12), 5_000_000, SimTime::ZERO);
        net.add_flow(HostId(1), HostId(13), 5_000_000, SimTime::ZERO);
        net.run_until_done(SimTime::ZERO + Dur::secs(2));
        // Imbalance across ToR 0's two uplinks.
        let topo = net.topo().clone();
        let ups: Vec<u64> = topo
            .dlinks
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                l.from == NodeId::Switch(xpass::net::ids::SwitchId(0))
                    && matches!(l.to, NodeId::Switch(_))
            })
            .map(|(i, _)| net.port(xpass::net::ids::DLinkId(i as u32)).tx_data_bytes)
            .collect();
        let hi = *ups.iter().max().unwrap() as f64;
        let lo = *ups.iter().min().unwrap() as f64;
        hi / lo.max(1.0)
    };
    let spray = measure(RoutingMode::PacketSpray);
    assert!(spray < 1.2, "spray imbalance {spray:.2}");
}

#[test]
fn heterogeneous_host_speeds_document_the_limitation() {
    // §7: "when host link speeds are different, the algorithm does not
    // achieve fairness" — the feedback assumes a uniform max_rate. Build a
    // 10G sender and a 40G sender sharing a 10G bottleneck: the 40G flow's
    // receiver targets 4x the credit ceiling and grabs the larger share.
    let mut b = TopoBuilder::new();
    let h = b.add_hosts(4);
    let s0 = b.add_switch();
    let s1 = b.add_switch();
    b.connect(NodeId::Host(h[0]), NodeId::Switch(s0), G10, Dur::us(4));
    b.connect(NodeId::Host(h[1]), NodeId::Switch(s0), 4 * G10, Dur::us(4));
    b.connect(NodeId::Host(h[2]), NodeId::Switch(s1), G10, Dur::us(4));
    b.connect(NodeId::Host(h[3]), NodeId::Switch(s1), 4 * G10, Dur::us(4));
    b.connect(NodeId::Switch(s0), NodeId::Switch(s1), G10, Dur::us(4));
    let topo = b.build("hetero");
    let cfg = NetConfig::expresspass().with_seed(39);
    let mut net = Network::new(topo, cfg, xpass_factory(XPassConfig::aggressive()));
    let slow = net.add_flow(HostId(0), HostId(2), 1 << 30, SimTime::ZERO);
    let fast = net.add_flow(HostId(1), HostId(3), 1 << 30, SimTime::ZERO);
    net.run_until(SimTime::ZERO + Dur::ms(20));
    let (ds, df) = (net.delivered_bytes(slow), net.delivered_bytes(fast));
    // Documented limitation: the faster-NIC flow wins a super-fair share.
    assert!(
        df as f64 > ds as f64 * 1.3,
        "expected unfairness toward the 40G flow: slow {ds} vs fast {df}"
    );
    // But the system still operates: no data loss, bounded queue.
    assert_eq!(net.total_data_drops(), 0);
}

#[test]
fn early_credit_stop_reduces_fleet_waste() {
    // Many mice with the §7 preemptive stop: total waste drops vs default.
    let run = |early: bool| -> u64 {
        let topo = Topology::star(9, G10, Dur::us(25));
        let cfg = NetConfig::expresspass().with_seed(41);
        let xp = if early {
            XPassConfig::aggressive().with_early_credit_stop()
        } else {
            XPassConfig::aggressive()
        };
        let mut net = xpass_net(topo, cfg, xp);
        for i in 0..8u32 {
            for k in 0..5u32 {
                net.add_flow(
                    HostId(i),
                    HostId(8),
                    300_000,
                    SimTime::ZERO + Dur::ms(k as u64),
                );
            }
        }
        net.run_until_done(SimTime::ZERO + Dur::secs(2));
        assert_eq!(net.completed_count(), 40);
        net.drain_until(net.now() + Dur::ms(5));
        net.counters().credits_wasted
    };
    let off = run(false);
    let on = run(true);
    assert!(on < off, "early stop: {on} wasted vs {off} without");
}

#[test]
fn uncredited_background_traffic_is_absorbed() {
    // §7 "Presence of other traffic": a modest uncredited stream coexists
    // with ExpressPass flows — the near-empty data queues absorb it, the
    // credit flows keep their zero-loss property, and the background bytes
    // get through.
    use xpass::baselines::udp::{UdpBlastReceiver, UdpBlastSender};
    use xpass::expresspass::{XPassReceiver, XPassSender};
    use xpass::net::ids::Side;

    let topo = Topology::dumbbell(3, G10, Dur::us(4));
    let cfg = NetConfig::expresspass().with_seed(51);
    // Mixed factory: flow 2 (the third added) is the uncredited blaster at
    // 300 Mbps; the rest are ExpressPass.
    let mut net = Network::new(
        topo,
        cfg,
        Box::new(|side, info| {
            if info.id.0 == 2 {
                match side {
                    Side::Sender => Box::new(UdpBlastSender::new(3e8)),
                    Side::Receiver => Box::new(UdpBlastReceiver),
                }
            } else {
                match side {
                    Side::Sender => Box::new(XPassSender::new(XPassConfig::aggressive())),
                    Side::Receiver => Box::new(XPassReceiver::new(XPassConfig::aggressive())),
                }
            }
        }),
    );
    let a = net.add_flow(HostId(0), HostId(3), 8_000_000, SimTime::ZERO);
    let b = net.add_flow(HostId(1), HostId(4), 8_000_000, SimTime::ZERO);
    let bg = net.add_flow(HostId(2), HostId(5), 1_000_000, SimTime::ZERO);
    net.run_until_done(SimTime::ZERO + Dur::secs(1));
    assert!(net.flow_done(a) && net.flow_done(b) && net.flow_done(bg));
    // Nothing dropped: the credit headroom absorbed the background stream.
    assert_eq!(net.total_data_drops(), 0);
}

#[test]
fn link_failure_reroutes_and_preserves_symmetry() {
    // §3.1: failed links must be excluded (bidirectionally) so credit/data
    // symmetry holds on the surviving paths. Kill one ToR-agg cable of a
    // fat tree and run ExpressPass across it.
    use xpass::net::ids::SwitchId;
    let topo = Topology::fat_tree(4, G10, G10, Dur::us(2));
    // ToR 0 (switch 0) to its first agg (aggs start at k*half = 8).
    let failed = topo.without_cable(NodeId::Switch(SwitchId(0)), NodeId::Switch(SwitchId(8)));
    // ToR 0 now has a single uplink toward remote pods.
    assert_eq!(
        failed
            .route_choices(SwitchId(0), HostId(failed.n_hosts as u32 - 1))
            .len(),
        1
    );
    let cfg = NetConfig::expresspass().with_seed(61);
    let mut net = Network::new(failed, cfg, xpass_factory(XPassConfig::default()));
    for i in 0..4u32 {
        net.add_flow(HostId(i), HostId(12 + i), 1_500_000, SimTime::ZERO);
    }
    net.run_until_done(SimTime::ZERO + Dur::secs(2));
    assert_eq!(net.completed_count(), 4);
    assert_eq!(
        net.total_data_drops(),
        0,
        "rerouted flows must stay lossless"
    );
}

#[test]
#[should_panic(expected = "no cable")]
fn removing_missing_cable_panics() {
    let topo = Topology::dumbbell(1, G10, Dur::us(1));
    let _ = topo.without_cable(NodeId::Host(HostId(0)), NodeId::Host(HostId(1)));
}
