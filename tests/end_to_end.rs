//! Cross-crate integration: every congestion-control scheme completes the
//! same scenarios on the same substrate, with scheme-appropriate behaviour.

use xpass::experiments::Scheme;
use xpass::expresspass::XPassConfig;
use xpass::net::ids::HostId;
use xpass::net::topology::Topology;
use xpass::sim::time::{Dur, SimTime};
use xpass::workloads::{PoissonWorkload, Workload};

const G10: u64 = 10_000_000_000;

fn all_schemes() -> Vec<Scheme> {
    vec![
        Scheme::XPass(XPassConfig::default()),
        Scheme::Dctcp,
        Scheme::Rcp,
        Scheme::Hull,
        Scheme::Dx,
        Scheme::Cubic,
        Scheme::Reno,
        Scheme::NaiveCredit,
        Scheme::Ideal,
    ]
}

#[test]
fn every_scheme_completes_a_simple_transfer() {
    for scheme in all_schemes() {
        let topo = Topology::dumbbell(1, G10, Dur::us(4));
        let mut net = scheme.build(topo, G10, 5);
        let f = net.add_flow(HostId(0), HostId(1), 3_000_000, SimTime::ZERO);
        let done = net.run_until_done(SimTime::ZERO + Dur::secs(2));
        assert!(net.flow_done(f), "{}: flow incomplete", scheme.name());
        assert_eq!(net.delivered_bytes(f), 3_000_000, "{}", scheme.name());
        // 3MB at worst-case ~2Gbps: must finish within 20ms.
        assert!(
            done < SimTime::ZERO + Dur::ms(40),
            "{}: done at {done}",
            scheme.name()
        );
    }
}

#[test]
fn every_scheme_survives_fan_in_on_a_fat_tree() {
    for scheme in all_schemes() {
        let topo = Topology::fat_tree(4, G10, G10, Dur::us(2));
        let mut net = scheme.build(topo, G10, 9);
        // 6 flows from distinct pods into one host.
        for i in 0..6u32 {
            net.add_flow(HostId(4 + i), HostId(0), 400_000, SimTime::ZERO);
        }
        net.run_until_done(SimTime::ZERO + Dur::secs(2));
        assert_eq!(net.completed_count(), 6, "{}", scheme.name());
    }
}

#[test]
fn credit_schemes_never_drop_data_under_incast() {
    for scheme in [Scheme::XPass(XPassConfig::default()), Scheme::NaiveCredit] {
        let topo = Topology::star(25, G10, Dur::us(2));
        let mut net = scheme.build(topo, G10, 13);
        for i in 0..24u32 {
            net.add_flow(HostId(i), HostId(24), 250_000, SimTime::ZERO);
        }
        net.run_until_done(SimTime::ZERO + Dur::secs(2));
        assert_eq!(net.completed_count(), 24, "{}", scheme.name());
        assert_eq!(net.total_data_drops(), 0, "{}: dropped data", scheme.name());
    }
}

#[test]
fn window_schemes_drop_but_recover_under_incast() {
    // The contrast case: loss-based schemes shed packets at the incast
    // point yet still complete via retransmission.
    let topo = Topology::star(25, G10, Dur::us(2));
    let mut net = Scheme::Dctcp.build(topo, G10, 13);
    for i in 0..24u32 {
        net.add_flow(HostId(i), HostId(24), 250_000, SimTime::ZERO);
    }
    net.run_until_done(SimTime::ZERO + Dur::secs(2));
    assert_eq!(net.completed_count(), 24);
    assert!(
        net.total_data_drops() > 0,
        "expected incast drops for DCTCP"
    );
}

#[test]
fn expresspass_beats_dctcp_queue_by_an_order_of_magnitude() {
    let measure = |scheme: Scheme| {
        let topo = Topology::dumbbell(8, G10, Dur::us(4));
        let mut net = scheme.build(topo, G10, 17);
        for i in 0..8u32 {
            net.add_flow(HostId(i), HostId(8 + i), 4_000_000, SimTime::ZERO);
        }
        net.run_until_done(SimTime::ZERO + Dur::secs(2));
        assert_eq!(net.completed_count(), 8, "{}", scheme.name());
        net.max_switch_queue_bytes()
    };
    let xp = measure(Scheme::XPass(XPassConfig::default()));
    let dc = measure(Scheme::Dctcp);
    assert!(
        dc >= xp * 8,
        "paper: ≥8x buffer advantage; got xpass {xp} vs dctcp {dc}"
    );
}

#[test]
fn path_symmetry_holds_for_credit_flows_on_fat_tree() {
    // Run ExpressPass across a fat tree and verify no switch saw credits
    // without the matching reverse data (gross asymmetry would show up as
    // wild credit drops on idle paths and stalled flows).
    let topo = Topology::fat_tree(4, G10, G10, Dur::us(2));
    let mut net = Scheme::XPass(XPassConfig::default()).build(topo, G10, 21);
    for i in 0..8u32 {
        net.add_flow(HostId(i), HostId(15 - i), 1_000_000, SimTime::ZERO);
    }
    net.run_until_done(SimTime::ZERO + Dur::secs(2));
    assert_eq!(net.completed_count(), 8);
    assert_eq!(net.total_data_drops(), 0);
    // Every cable that carried credits must have carried data in reverse.
    let topo = net.topo().clone();
    for (i, l) in topo.dlinks.iter().enumerate() {
        let port = net.port(xpass::net::ids::DLinkId(i as u32));
        if port.tx_credit_bytes > 10_000 {
            let rev = topo
                .dlink_between(l.to, l.from)
                .expect("reverse link exists");
            assert!(
                net.port(rev).tx_data_bytes > 0,
                "credits on {i} without reverse data"
            );
        }
    }
}

#[test]
fn deterministic_given_seed() {
    let run = |seed: u64| {
        let topo = Topology::dumbbell(4, G10, Dur::us(4));
        let mut net = Scheme::XPass(XPassConfig::default()).build(topo, G10, seed);
        for i in 0..4u32 {
            net.add_flow(HostId(i), HostId(4 + i), 2_000_000, SimTime::ZERO);
        }
        net.run_until_done(SimTime::ZERO + Dur::secs(1));
        let fcts: Vec<u64> = net
            .flow_records()
            .iter()
            .map(|r| r.fct.unwrap().as_ps())
            .collect();
        (
            fcts,
            net.counters().credits_sent,
            net.counters().credits_dropped,
        )
    };
    let a = run(77);
    let b = run(77);
    assert_eq!(a, b, "same seed must reproduce bit-for-bit");
    let c = run(78);
    assert_ne!(a, c, "different seeds must differ");
}

#[test]
fn ideal_oracle_matches_water_filling_on_fat_tree() {
    // One flow per pod pair on a 4-ary fat tree: all can run at full rate.
    let topo = Topology::fat_tree(4, G10, G10, Dur::us(2));
    let mut net = Scheme::Ideal.build(topo, G10, 23);
    let f = net.add_flow(HostId(0), HostId(12), 10_000_000, SimTime::ZERO);
    let done = net.run_until_done(SimTime::ZERO + Dur::secs(1));
    assert!(net.flow_done(f));
    let gbps = 10_000_000.0 * 8.0 / done.as_secs_f64() / 1e9;
    assert!(gbps > 8.0, "oracle flow at {gbps:.2} Gbps");
}

#[test]
fn capped_then_continued_run_equals_uninterrupted() {
    // `run_until_done(cap)` must leave the first event past `cap` queued:
    // a run driven in 100 µs slices then reaches exactly the state — flow
    // records, counters, event count — of one uninterrupted call. (It used
    // to pop that event and drop it: a pace timer, a port wake or an
    // in-flight packet vanished at every cap, and no flow ever finished.)
    let build = || {
        let topo = Topology::dumbbell(4, G10, Dur::us(2));
        let mut net = Scheme::XPass(XPassConfig::aggressive()).build(topo, G10, 11);
        net.install_ledger();
        for i in 0..4u32 {
            net.add_flow(HostId(i), HostId(4 + i), 1_500_000, SimTime::ZERO);
        }
        net
    };
    let end = SimTime::ZERO + Dur::secs(2);

    let mut whole = build();
    let whole_done = whole.run_until_done(end);
    assert_eq!(whole.completed_count(), 4);

    let mut sliced = build();
    for k in 1..=39u64 {
        let cap = SimTime::ZERO + Dur::us(100 * k);
        assert_eq!(
            sliced.run_until_done(cap),
            cap,
            "slice {k} ran up to its cap"
        );
        assert_eq!(sliced.now(), cap);
    }
    assert_eq!(sliced.run_until_done(end), whole_done);

    assert_eq!(sliced.flow_records(), whole.flow_records());
    assert_eq!(sliced.counters(), whole.counters());
    assert_eq!(
        sliced.engine_report().events_processed,
        whole.engine_report().events_processed
    );
    assert!(
        sliced.ledger_report().balanced(),
        "a dropped event unbalances the ledger"
    );
}

#[test]
fn dctcp_queue_depth_follows_live_flows_not_acks() {
    // The benchmark's `fct_dctcp` run: 1 200 Cache Follower flows on the
    // 192-host fat tree. Every new ACK re-arms the sender's 10 ms RTO;
    // when each arming queued a timer event of its own the queue held
    // 235 073 entries at its deepest, nearly all of them dead timers. A
    // carried deadline queues one per flow.
    let topo = Topology::eval_fat_tree(G10);
    let mut net = Scheme::Dctcp.build(topo.clone(), G10, 53);
    let specs = PoissonWorkload::new(Workload::CacheFollower.dist(), 0.6, 1200, 53 ^ 0xABCD)
        .generate(&topo);
    xpass::workloads::add_all(&mut net, &specs);
    net.run_until_done(specs.last().unwrap().start + Dur::secs(10));
    assert_eq!(net.completed_count(), 1200);

    // What the queue has to hold: a `FlowStart` per flow still to come,
    // and per flow under way its packets in flight and one RTO carrier —
    // a few entries per live flow (`flow_count`: nothing retires here).
    let peak_queue = net.engine_report().peak_queue_len;
    let peak_live = net.flow_count();
    assert!(
        peak_queue < 8 * peak_live,
        "queue {peak_queue} deep for {peak_live} live flows"
    );
}

#[test]
fn sampling_is_observation_only() {
    // The figure series record their points at reserved queue positions
    // and queue no event: a tracked network runs exactly the events of its
    // untracked twin, under either scheduler.
    use xpass::net::ids::{DLinkId, FlowId};
    use xpass::sim::event::SchedulerKind;
    use xpass::sim::run_ctx;

    for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
        let _sched = run_ctx::enter(run_ctx::current().with_scheduler(kind));
        let run = |tracked: bool| {
            let topo = Topology::dumbbell(4, G10, Dur::us(2));
            let mut net = Scheme::XPass(XPassConfig::aggressive()).build(topo, G10, 23);
            for i in 0..4u32 {
                net.add_flow(HostId(i), HostId(4 + i), 1_000_000, SimTime::ZERO);
            }
            if tracked {
                net.set_sample_interval(Dur::us(20));
                for f in 0..4 {
                    net.track_flow(FlowId(f));
                }
                for d in 0..net.ports().len() as u32 {
                    net.track_port(DLinkId(d));
                }
            }
            net.run_until_done(SimTime::ZERO + Dur::secs(1));
            assert_eq!(net.completed_count(), 4, "{kind:?}");
            net
        };
        let (tracked, plain) = (run(true), run(false));
        let points = tracked.flow_series(FlowId(0)).unwrap().samples.len();
        assert!(points > 10, "{kind:?}: only {points} points");
        assert_eq!(tracked.flow_records(), plain.flow_records(), "{kind:?}");
        assert_eq!(tracked.counters(), plain.counters(), "{kind:?}");
        assert_eq!(tracked.now(), plain.now(), "{kind:?}");
        let (t, p) = (tracked.engine_report(), plain.engine_report());
        assert_eq!(t.events_processed, p.events_processed, "{kind:?}");
        assert_eq!(t.events_by_kind, p.events_by_kind, "{kind:?}");
        assert_eq!(t.peak_queue_len, p.peak_queue_len, "{kind:?}");
    }
}
