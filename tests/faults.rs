//! Fault-injection integration tests: deterministic replay, the
//! zero-data-loss invariant under credit-only disturbance, link down/up
//! recovery, host pauses, SYN-blackhole aborts, the zero-cost guarantee of
//! an empty plan, and routing regressions for `Topology::without_cable`.

use xpass::expresspass::{xpass_factory, XPassConfig};
use xpass::net::config::NetConfig;
use xpass::net::faults::FaultPlan;
use xpass::net::ids::{HostId, NodeId, SwitchId};
use xpass::net::network::{Counters, FlowOutcome, FlowRecord, Network};
use xpass::net::topology::Topology;
use xpass::sim::time::{Dur, SimTime};

const G10: u64 = 10_000_000_000;

fn xpass_dumbbell(n_pairs: usize, seed: u64) -> Network {
    let topo = Topology::dumbbell(n_pairs, G10, Dur::us(2));
    let cfg = NetConfig::expresspass().with_seed(seed);
    Network::new(topo, cfg, xpass_factory(XPassConfig::aggressive()))
}

/// Both directions of the dumbbell bottleneck cable.
fn bottleneck(net: &Network) -> (xpass::net::ids::DLinkId, xpass::net::ids::DLinkId) {
    let fwd = net
        .topo()
        .dlink_between(NodeId::Switch(SwitchId(0)), NodeId::Switch(SwitchId(1)))
        .unwrap();
    let rev = net
        .topo()
        .dlink_between(NodeId::Switch(SwitchId(1)), NodeId::Switch(SwitchId(0)))
        .unwrap();
    (fwd, rev)
}

/// A busy scenario exercising every fault kind, returning its evidence.
fn eventful_run(seed: u64) -> (Counters, Vec<FlowRecord>) {
    let mut net = xpass_dumbbell(4, seed);
    let (fwd, rev) = bottleneck(&net);
    for i in 0..4u32 {
        net.add_flow(HostId(i), HostId(4 + i), 3_000_000, SimTime::ZERO);
    }
    let t = |d: Dur| SimTime::ZERO + d;
    net.install_fault_plan(
        FaultPlan::new()
            .set_loss(t(Dur::us(500)), fwd, 0.02, 0.3)
            .set_corrupt(t(Dur::us(500)), rev, 0.01)
            .cable_down(t(Dur::ms(2)), fwd, rev)
            .cable_up(t(Dur::ms(3)), fwd, rev)
            .host_pause(t(Dur::ms(4)), HostId(5))
            .host_resume(t(Dur::us(4500)), HostId(5))
            .set_loss(t(Dur::ms(5)), fwd, 0.0, 0.0)
            .set_corrupt(t(Dur::ms(5)), rev, 0.0),
    );
    net.run_until_done(SimTime::ZERO + Dur::secs(2));
    net.run_until(net.now() + Dur::ms(5));
    (net.counters().clone(), net.flow_records())
}

#[test]
fn fault_plan_replay_is_bit_identical() {
    let (c1, r1) = eventful_run(71);
    let (c2, r2) = eventful_run(71);
    assert_eq!(c1, c2, "counters diverged across replays");
    assert_eq!(r1, r2, "flow records diverged across replays");
    // The scenario actually exercised the fault machinery.
    assert_eq!(c1.faults_injected, 10);
    assert!(c1.pkts_lost_to_faults > 0, "no fault losses observed");
    assert!(c1.pkts_corrupted > 0, "no corruption observed");
    // And a different seed gives a genuinely different run.
    let (c3, _) = eventful_run(72);
    assert_ne!(c1, c3, "seed had no effect");
}

#[test]
fn eventful_run_still_completes_every_flow() {
    let (c, recs) = eventful_run(73);
    assert_eq!(c.flows_aborted, 0);
    for r in &recs {
        assert_eq!(r.outcome, Some(FlowOutcome::Completed), "{:?}", r.id);
        assert!(r.fct.is_some());
    }
}

#[test]
fn credit_only_disturbance_never_drops_data() {
    let mut net = xpass_dumbbell(4, 77);
    let (fwd, rev) = bottleneck(&net);
    for i in 0..4u32 {
        net.add_flow(HostId(i), HostId(4 + i), 2_000_000, SimTime::ZERO);
    }
    net.install_fault_plan(
        FaultPlan::new()
            .set_loss(SimTime::ZERO + Dur::ms(1), fwd, 0.0, 0.7)
            .set_loss(SimTime::ZERO + Dur::ms(1), rev, 0.0, 0.7)
            .set_loss(SimTime::ZERO + Dur::ms(6), fwd, 0.0, 0.0)
            .set_loss(SimTime::ZERO + Dur::ms(6), rev, 0.0, 0.0),
    );
    net.run_until_done(SimTime::ZERO + Dur::secs(2));
    assert_eq!(
        net.completed_count(),
        4,
        "flows must survive a credit storm"
    );
    assert_eq!(
        net.total_data_drops(),
        0,
        "credit-only disturbance must not cost data"
    );
    assert!(
        net.counters().pkts_lost_to_faults > 0,
        "storm had no effect"
    );
}

#[test]
fn link_down_and_up_recovers_all_flows() {
    let mut net = xpass_dumbbell(2, 79);
    let (fwd, rev) = bottleneck(&net);
    for i in 0..2u32 {
        net.add_flow(HostId(i), HostId(2 + i), 4_000_000, SimTime::ZERO);
    }
    net.install_fault_plan(
        FaultPlan::new()
            .cable_down(SimTime::ZERO + Dur::ms(1), fwd, rev)
            .cable_up(SimTime::ZERO + Dur::ms(3), fwd, rev),
    );
    let done = net.run_until_done(SimTime::ZERO + Dur::secs(2));
    assert_eq!(net.completed_count(), 2, "flows must survive link flap");
    // The outage must actually be visible: packets in flight on the wire
    // when the cable died were lost, and completion happens after link-up.
    assert!(net.counters().pkts_lost_to_faults > 0);
    assert!(done > SimTime::ZERO + Dur::ms(3), "done at {done}");
}

#[test]
fn host_pause_defers_completion_until_resume() {
    let mut net = xpass_dumbbell(1, 83);
    let f = net.add_flow(HostId(0), HostId(1), 1_000_000, SimTime::ZERO);
    // Pause the receiver host over the window where the flow would finish
    // (1MB at ~9Gbps ≈ 0.9ms): nothing is delivered while frozen.
    net.install_fault_plan(
        FaultPlan::new()
            .host_pause(SimTime::ZERO + Dur::us(300), HostId(1))
            .host_resume(SimTime::ZERO + Dur::ms(4), HostId(1)),
    );
    let done = net.run_until_done(SimTime::ZERO + Dur::secs(2));
    assert!(net.flow_done(f), "flow must complete after resume");
    assert!(
        done >= SimTime::ZERO + Dur::ms(4),
        "completed at {done} while the receiver host was paused"
    );
    assert_eq!(net.delivered_bytes(f), 1_000_000);
}

#[test]
fn paused_peer_is_not_misclassified_as_stalled() {
    let mut net = xpass_dumbbell(1, 93);
    let f = net.add_flow(HostId(0), HostId(1), 4_000_000, SimTime::ZERO);
    // Freeze the receiver mid-transfer for 10 ms — twice the 5 ms stall
    // timeout. The missing progress is injected by the fault layer, not a
    // protocol failure, so the flow must never be classified Stalled.
    net.install_fault_plan(
        FaultPlan::new()
            .host_pause(SimTime::ZERO + Dur::us(300), HostId(1))
            .host_resume(SimTime::ZERO + Dur::ms(10), HostId(1)),
    );
    // Probe mid-pause, well past the stall timeout.
    net.run_until(SimTime::ZERO + Dur::ms(8));
    let rec = &net.flow_records()[0];
    assert_eq!(
        rec.outcome, None,
        "paused peer misclassified as {:?}",
        rec.outcome
    );
    // And the run still finishes cleanly once the pause lifts.
    net.run_until_done(SimTime::ZERO + Dur::secs(2));
    assert!(net.flow_done(f));
    assert_eq!(net.flow_records()[0].outcome, Some(FlowOutcome::Completed));
}

#[test]
fn syn_to_a_paused_peer_survives_past_the_retry_budget() {
    let mut net = xpass_dumbbell(1, 95);
    // The receiver is frozen before the flow starts and stays down for
    // 100 ms — far beyond the SYN retry budget (8 attempts, backoff
    // capped at 10 ms ≈ 65 ms). The pause must suspend the attempt
    // counter, not burn it: the flow completes after resume.
    net.install_fault_plan(
        FaultPlan::new()
            .host_pause(SimTime::ZERO, HostId(1))
            .host_resume(SimTime::ZERO + Dur::ms(100), HostId(1)),
    );
    let f = net.add_flow(HostId(0), HostId(1), 1_000_000, SimTime::ZERO + Dur::us(10));
    let done = net.run_until_done(SimTime::ZERO + Dur::secs(2));
    assert!(net.flow_done(f), "flow aborted during a host pause");
    assert_eq!(net.counters().flows_aborted, 0);
    assert!(
        done >= SimTime::ZERO + Dur::ms(100),
        "completed at {done} while the receiver was frozen"
    );
}

#[test]
fn syn_blackhole_aborts_after_bounded_retries() {
    let mut net = xpass_dumbbell(1, 89);
    let uplink = net
        .topo()
        .dlink_between(NodeId::Host(HostId(0)), NodeId::Switch(SwitchId(0)))
        .unwrap();
    // The sender's uplink is dead (flushing) from the start: every SYN is
    // swallowed, no credit ever arrives.
    net.install_fault_plan(FaultPlan::new().link_down_flush(SimTime::ZERO, uplink));
    let f = net.add_flow(HostId(0), HostId(1), 1_000_000, SimTime::ZERO);
    let settled = net.run_until_done(SimTime::ZERO + Dur::secs(30));
    // run_until_done terminates because the abort settles the flow — well
    // before the cap (8 attempts with backoff capped at 10ms ≈ 65ms).
    assert!(
        settled < SimTime::ZERO + Dur::secs(1),
        "settled at {settled}"
    );
    assert!(net.flow_aborted(f));
    assert!(!net.flow_done(f));
    assert_eq!(net.aborted_count(), 1);
    assert_eq!(net.counters().flows_aborted, 1);
    let rec = &net.flow_records()[0];
    assert_eq!(rec.outcome, Some(FlowOutcome::Aborted));
    assert!(rec.fct.is_none());
}

#[test]
fn empty_plan_is_byte_identical_to_no_plan() {
    // The zero-cost guarantee, tested end to end: installing an *empty*
    // plan allocates fault state and routes arrivals through the fault
    // filter, yet every counter and flow record must match a run that
    // never touched the fault layer.
    let run = |install: bool| -> (Counters, Vec<FlowRecord>) {
        let mut net = xpass_dumbbell(4, 91);
        if install {
            net.install_fault_plan(FaultPlan::new());
        }
        for i in 0..4u32 {
            net.add_flow(HostId(i), HostId(4 + i), 1_500_000, SimTime::ZERO);
        }
        net.run_until_done(SimTime::ZERO + Dur::secs(2));
        net.run_until(net.now() + Dur::ms(5));
        (net.counters().clone(), net.flow_records())
    };
    let (c_plain, r_plain) = run(false);
    let (c_empty, r_empty) = run(true);
    assert_eq!(c_plain, c_empty, "empty plan perturbed the counters");
    assert_eq!(r_plain, r_empty, "empty plan perturbed the flow records");
    assert_eq!(c_empty.faults_injected, 0);
}

// -------------------------------------------------------------------------
// Routing regressions: Topology::without_cable
// -------------------------------------------------------------------------

mod without_cable {
    use super::*;

    #[test]
    fn fat_tree_routes_avoid_the_removed_cable() {
        let topo = Topology::fat_tree(4, G10, 4 * G10, Dur::us(1));
        let a = NodeId::Switch(SwitchId(0)); // ToR 0
        let b = NodeId::Switch(SwitchId(8)); // its first agg
        assert!(topo.dlink_between(a, b).is_some());
        let cut = topo.without_cable(a, b);
        // The cable is gone in both directions …
        assert!(cut.dlink_between(a, b).is_none());
        assert!(cut.dlink_between(b, a).is_none());
        // … no recomputed path uses any link touching the removed pair …
        for s in 0..cut.n_switches {
            for h in 0..cut.n_hosts {
                let choices = cut.route_choices(SwitchId(s as u32), HostId(h as u32));
                assert!(
                    !choices.is_empty(),
                    "switch {s} lost all routes to host {h}"
                );
                for dl in choices {
                    let l = &cut.dlinks[dl.0 as usize];
                    assert!(
                        !((l.from == a && l.to == b) || (l.from == b && l.to == a)),
                        "route via removed cable"
                    );
                }
            }
        }
        // … and every host pair still connects (redundant agg survives).
        for x in 0..cut.n_hosts {
            for y in 0..cut.n_hosts {
                if x != y {
                    let _ = cut.hop_count(HostId(x as u32), HostId(y as u32));
                }
            }
        }
    }

    #[test]
    fn dumbbell_keeps_host_cables_removable_only_when_connected() {
        // Removing a parallel-free bottleneck disconnects the two racks.
        let topo = Topology::dumbbell(2, G10, Dur::us(1));
        let caught = std::panic::catch_unwind(|| {
            topo.without_cable(NodeId::Switch(SwitchId(0)), NodeId::Switch(SwitchId(1)))
        });
        assert!(caught.is_err(), "disconnecting removal must panic");
    }

    #[test]
    fn star_host_cable_removal_panics_as_disconnecting() {
        let topo = Topology::star(4, G10, Dur::us(1));
        let caught = std::panic::catch_unwind(|| {
            topo.without_cable(NodeId::Host(HostId(0)), NodeId::Switch(SwitchId(0)))
        });
        assert!(caught.is_err(), "single-homed host removal must panic");
    }

    #[test]
    fn unknown_cable_rejected() {
        let topo = Topology::star(4, G10, Dur::us(1));
        let caught = std::panic::catch_unwind(|| {
            topo.without_cable(NodeId::Host(HostId(0)), NodeId::Host(HostId(1)))
        });
        assert!(caught.is_err(), "hosts are not directly cabled");
    }
}
