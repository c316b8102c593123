//! Randomized invariant tests over the core data structures and protocol.
//!
//! These were originally proptest suites; the offline build cannot resolve
//! external registries, so each property is now exercised over a fixed
//! number of cases drawn from the workspace's own seeded deterministic
//! `xpass::sim::rng::Rng`. Same invariants, bit-identical replay, zero
//! external dependencies.

use xpass::expresspass::feedback::{max_credit_rate, CreditFeedback, MIN_RATE_FRAC, W_MAX};
use xpass::expresspass::netcalc::{buffer_bounds, HierTopo, NetCalcParams};
use xpass::expresspass::XPassConfig;
use xpass::net::ids::{FlowId, HostId, SwitchId};
use xpass::net::packet::{data_wire_size, Packet, Packets, PktKind, MAX_FRAME, MIN_FRAME};
use xpass::net::queue::{CreditDropPolicy, CreditQueue, DataQueue};
use xpass::net::routing::{ecmp_index, symmetric_flow_hash};
use xpass::net::topology::Topology;
use xpass::sim::bucket::TokenBucket;
use xpass::sim::event::EventQueue;
use xpass::sim::rng::Rng;
use xpass::sim::stats::{jain_fairness, Percentiles};
use xpass::sim::time::{tx_time, Dur, SimTime};

/// Uniform draw in `[lo, hi)` — helper mirroring proptest's integer ranges.
fn below(rng: &mut Rng, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

// ---- sim core -------------------------------------------------------------

#[test]
fn event_queue_pops_sorted() {
    let mut rng = Rng::new(0x5EED_0001);
    for _ in 0..64 {
        let n = below(&mut rng, 1, 200) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.below(1_000_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            popped += 1;
        }
        assert_eq!(popped, times.len());
    }
}

#[test]
fn tx_time_monotone_in_bytes() {
    let mut rng = Rng::new(0x5EED_0002);
    for _ in 0..256 {
        let a = below(&mut rng, 1, 100_000);
        let b = below(&mut rng, 1, 100_000);
        let bps = below(&mut rng, 1_000_000, 200_000_000_000);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(tx_time(lo, bps) <= tx_time(hi, bps));
    }
}

#[test]
fn token_bucket_never_exceeds_cap() {
    let mut rng = Rng::new(0x5EED_0003);
    for _ in 0..64 {
        let rate = below(&mut rng, 1_000_000, 10_000_000_000);
        let cap = below(&mut rng, 84, 10_000);
        let mut tb = TokenBucket::new(rate, cap);
        let mut now = SimTime::ZERO;
        let steps = below(&mut rng, 1, 50);
        for _ in 0..steps {
            let dt = rng.below(1_000_000);
            let bytes = below(&mut rng, 1, 200);
            now += Dur::ps(dt);
            assert!(tb.level_bytes() <= cap);
            if tb.conforms(now, bytes) {
                tb.consume(now, bytes);
            }
            assert!(tb.level_bytes() <= cap);
        }
    }
}

#[test]
fn token_bucket_conforming_time_is_earliest() {
    let mut rng = Rng::new(0x5EED_0004);
    for _ in 0..128 {
        let rate = below(&mut rng, 1_000_000, 10_000_000_000);
        let bytes = below(&mut rng, 1, 2_000);
        let mut tb = TokenBucket::new(rate, 2 * bytes);
        tb.drain();
        let t = tb.time_until_conforming(SimTime::ZERO, bytes);
        assert!(tb.conforms(t, bytes));
        if t.as_ps() > 1 {
            let mut tb2 = TokenBucket::new(rate, 2 * bytes);
            tb2.drain();
            assert!(!tb2.conforms(SimTime(t.as_ps() - 2), bytes));
        }
    }
}

#[test]
fn percentiles_are_order_statistics() {
    let mut rng = Rng::new(0x5EED_0005);
    for _ in 0..64 {
        let n = below(&mut rng, 1, 300) as usize;
        let mut xs: Vec<f64> = (0..n)
            .map(|_| (rng.below(2_000_000_000) as f64) - 1e9)
            .collect();
        let mut p = Percentiles::new();
        for &x in &xs {
            p.add(x);
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(p.min(), xs[0]);
        assert_eq!(p.max(), *xs.last().unwrap());
        let med = p.median();
        assert!(xs.contains(&med));
        assert!(p.quantile(0.25) <= p.quantile(0.75));
    }
}

#[test]
fn jain_index_in_unit_interval() {
    let mut rng = Rng::new(0x5EED_0006);
    for _ in 0..128 {
        let n = below(&mut rng, 1, 100) as usize;
        let xs: Vec<f64> = (0..n).map(|_| rng.below(1_000_000_000) as f64).collect();
        let j = jain_fairness(&xs);
        assert!((0.0..=1.0 + 1e-12).contains(&j));
    }
}

#[test]
fn rng_jitter_stays_in_band() {
    let mut meta = Rng::new(0x5EED_0007);
    for _ in 0..32 {
        let seed = meta.next_u64();
        let base_us = below(&mut meta, 1, 1000);
        let spread_us = meta.below(100);
        let mut rng = Rng::new(seed);
        let base = Dur::us(base_us);
        let spread = Dur::us(spread_us);
        // jitter = base + uniform[0, spread] - spread/2, clamped at zero.
        let half = spread.as_ps() / 2;
        let lo = Dur::ps(base.as_ps().saturating_sub(half));
        let hi = Dur::ps(base.as_ps() + (spread.as_ps() - half));
        for _ in 0..50 {
            let j = rng.jitter(base, spread);
            assert!(j >= lo, "{j} < {lo}");
            assert!(j <= hi, "{j} > {hi}");
        }
    }
}

// ---- net ------------------------------------------------------------------

#[test]
fn data_queue_conserves_bytes() {
    let mut rng = Rng::new(0x5EED_0008);
    for _ in 0..64 {
        let n = below(&mut rng, 1, 100) as usize;
        let cap = below(&mut rng, 2_000, 100_000);
        let (mut q, mut store) = (DataQueue::new(cap), Packets::new());
        let mut accepted_bytes = 0u64;
        for i in 0..n {
            let s = below(&mut rng, 84, 1538) as u32;
            let mut p = Packet::new(FlowId(0), HostId(0), HostId(1), PktKind::Data, s);
            p.seq = i as u64;
            let r = store.store(p);
            if q.enqueue(SimTime(i as u64), r, s, &mut store).accepted {
                accepted_bytes += s as u64;
            }
            assert!(q.len_bytes() <= cap);
        }
        let mut drained = 0u64;
        while let Some(r) = q.dequeue(SimTime(1_000_000), &mut store) {
            drained += store.take(r).size as u64;
        }
        assert_eq!(drained, accepted_bytes);
        assert_eq!(q.len_bytes(), 0);
        assert_eq!(store.live(), 0);
    }
}

#[test]
fn credit_queue_never_exceeds_capacity() {
    let mut meta = Rng::new(0x5EED_0009);
    for _ in 0..48 {
        let policy = match meta.below(3) {
            0 => CreditDropPolicy::Tail,
            1 => CreditDropPolicy::UniformRandom,
            _ => CreditDropPolicy::LongestQueueDrop,
        };
        let n = below(&mut meta, 1, 200) as usize;
        let cap = below(&mut meta, 1, 16) as usize;
        let (mut q, mut store) = (CreditQueue::new(10_000_000_000, cap), Packets::new());
        q.drop_policy = policy;
        let mut rng = Rng::new(42);
        let mut drops = 0;
        for i in 0..n {
            let f = meta.below(4) as u32;
            let mut p = Packet::new(FlowId(f), HostId(f), HostId(9), PktKind::Credit, 84);
            p.seq = i as u64;
            let r = store.store(p);
            let out = q.enqueue(SimTime(i as u64 * 1000), r, 84, &mut store, &mut rng);
            drops += usize::from(out.dropped_bytes.is_some());
            assert!(q.len() <= cap);
        }
        // Conservation: nothing is dequeued, so every credit offered was
        // either dropped (one per overflow) or is still queued.
        assert_eq!(drops + q.len(), n);
        assert_eq!(store.live(), q.len(), "every dropped credit is freed");
    }
}

#[test]
fn credit_queue_fifo_order_survives_drops() {
    let mut meta = Rng::new(0x5EED_000A);
    for _ in 0..16 {
        let n = below(&mut meta, 10, 150) as usize;
        // Per-flow sequence numbers of dequeued credits must be increasing
        // regardless of drop policy (the receiver's loss accounting relies
        // on it).
        for policy in [
            CreditDropPolicy::Tail,
            CreditDropPolicy::UniformRandom,
            CreditDropPolicy::LongestQueueDrop,
        ] {
            let (mut q, mut store) = (CreditQueue::new(10_000_000_000, 8), Packets::new());
            q.drop_policy = policy;
            let mut rng = Rng::new(9);
            let mut now = SimTime::ZERO;
            let mut last_seq = [0u64; 2];
            for i in 0..n {
                let f = (i % 2) as u32;
                let mut p = Packet::new(FlowId(f), HostId(f), HostId(9), PktKind::Credit, 84);
                p.seq = i as u64;
                let r = store.store(p);
                q.enqueue(now, r, 84, &mut store, &mut rng);
                now += Dur::ns(400);
                if q.head_conforms(now) {
                    let r = q.dequeue(now, &mut store).unwrap();
                    let out = store.take(r);
                    let fl = out.src.0 as usize;
                    assert!(out.seq >= last_seq[fl], "{policy:?}: reordered");
                    last_seq[fl] = out.seq;
                }
            }
        }
    }
}

#[test]
fn symmetric_hash_property() {
    let mut rng = Rng::new(0x5EED_000B);
    for _ in 0..256 {
        let a = rng.below(100_000) as u32;
        let b = rng.below(100_000) as u32;
        let f = rng.next_u64() as u32;
        assert_eq!(
            symmetric_flow_hash(HostId(a), HostId(b), FlowId(f)),
            symmetric_flow_hash(HostId(b), HostId(a), FlowId(f))
        );
        if a != b {
            let n = 1 + (f as usize % 8);
            assert_eq!(
                ecmp_index(HostId(a), HostId(b), FlowId(f), n),
                ecmp_index(HostId(b), HostId(a), FlowId(f), n)
            );
        }
    }
}

#[test]
fn wire_sizes_bounded() {
    for app in 0u32..1461 {
        let w = data_wire_size(app);
        assert!(w >= MIN_FRAME);
        assert!(w <= MAX_FRAME);
    }
}

#[test]
fn fat_tree_routes_complete() {
    for k in [2usize, 4, 6, 8] {
        let topo = Topology::fat_tree(k, 10_000_000_000, 10_000_000_000, Dur::us(1));
        // Every switch can route to every host with ≥1 next hop.
        for s in 0..topo.n_switches {
            for h in 0..topo.n_hosts {
                assert!(
                    !topo
                        .route_choices(SwitchId(s as u32), HostId(h as u32))
                        .is_empty(),
                    "sw{s} cannot reach h{h}"
                );
            }
        }
    }
}

// ---- expresspass feedback -------------------------------------------------

#[test]
fn feedback_rate_always_within_bounds() {
    let mut rng = Rng::new(0x5EED_000C);
    for _ in 0..32 {
        let alpha_inv = below(&mut rng, 1, 33) as u32;
        let cfg = XPassConfig::default().with_alpha_winit(1.0 / alpha_inv as f64, 0.5);
        let max = max_credit_rate(10_000_000_000);
        let mut fb = CreditFeedback::new(max, cfg);
        let floor = max * MIN_RATE_FRAC;
        let n = below(&mut rng, 1, 300);
        for _ in 0..n {
            let loss = rng.below(1_000_000) as f64 / 1_000_000.0;
            let r = fb.on_update(loss);
            assert!(r >= floor - 1e-9, "rate {r} under floor {floor}");
            assert!(r <= fb.ceiling() + 1e-9, "rate {r} over ceiling");
            assert!(fb.w() >= cfg.w_min - 1e-12);
            assert!(fb.w() <= W_MAX + 1e-12);
        }
    }
}

#[test]
fn feedback_clean_periods_monotone_toward_ceiling() {
    let mut fb = CreditFeedback::new(1e6, XPassConfig::default());
    let mut last = fb.rate();
    for _ in 0..100 {
        let r = fb.on_update(0.0);
        assert!(r >= last - 1e-9, "clean update decreased rate");
        last = r;
    }
}

#[test]
fn netcalc_bounds_monotone_in_credit_queue() {
    for cq in 1usize..33 {
        let mut p1 = NetCalcParams::testbed();
        p1.credit_queue = cq;
        let mut p2 = p1;
        p2.credit_queue = cq + 1;
        let topo = HierTopo::fat32_10_40();
        let b1 = buffer_bounds(&topo, &p1);
        let b2 = buffer_bounds(&topo, &p2);
        assert!(b2.tor_down.buffer_bytes >= b1.tor_down.buffer_bytes);
        assert!(b2.core.buffer_bytes >= b1.core.buffer_bytes);
    }
}

/// Protocol-level invariants over randomized scenarios (fewer cases — each
/// case is a full packet-level simulation).
mod protocol_props {
    use super::*;
    use xpass::expresspass::xpass_factory;
    use xpass::net::config::NetConfig;
    use xpass::net::network::Network;

    /// ExpressPass never drops data and always completes, for random
    /// topology shapes, flow matrices, sizes, and seeds.
    #[test]
    fn xpass_zero_loss_everywhere() {
        let mut meta = Rng::new(0x5EED_0100);
        for _ in 0..12 {
            let seed = below(&mut meta, 1, 10_000);
            let shape = meta.below(3);
            let n_flows = below(&mut meta, 1, 10) as usize;
            let size_kb = below(&mut meta, 1, 400);
            let topo = match shape {
                0 => Topology::star(8, 10_000_000_000, Dur::us(2)),
                1 => Topology::dumbbell(8, 10_000_000_000, Dur::us(4)),
                _ => Topology::fat_tree(4, 10_000_000_000, 10_000_000_000, Dur::us(2)),
            };
            let n_hosts = topo.n_hosts as u32;
            let cfg = NetConfig::expresspass().with_seed(seed);
            let mut net = Network::new(topo, cfg, xpass_factory(XPassConfig::default()));
            let mut rng = Rng::new(seed ^ 0xF00D);
            for _ in 0..n_flows {
                let src = HostId(rng.below(n_hosts as u64) as u32);
                let dst = loop {
                    let d = HostId(rng.below(n_hosts as u64) as u32);
                    if d != src {
                        break d;
                    }
                };
                let start = SimTime::ZERO + Dur::us(rng.below(500));
                net.add_flow(src, dst, size_kb * 1000, start);
            }
            net.run_until_done(SimTime::ZERO + Dur::secs(5));
            assert_eq!(net.completed_count(), n_flows, "incomplete flows");
            assert_eq!(net.total_data_drops(), 0, "data loss");
        }
    }

    /// The window transport completes under arbitrary loss pressure
    /// (random tiny buffers), for DCTCP.
    #[test]
    fn dctcp_completes_despite_random_buffers() {
        let mut meta = Rng::new(0x5EED_0200);
        for _ in 0..12 {
            let seed = below(&mut meta, 1, 10_000);
            let queue_mtus = below(&mut meta, 4, 60);
            let n_flows = below(&mut meta, 1, 8) as usize;
            let topo = Topology::star(9, 10_000_000_000, Dur::us(2));
            let mut cfg = NetConfig::dctcp(10_000_000_000).with_seed(seed);
            cfg.switch_queue_bytes = queue_mtus * 1538;
            let mut net = Network::new(topo, cfg, xpass::baselines::dctcp_factory(10_000_000_000));
            for i in 0..n_flows {
                net.add_flow(HostId(i as u32), HostId(8), 150_000, SimTime::ZERO);
            }
            net.run_until_done(SimTime::ZERO + Dur::secs(5));
            assert_eq!(net.completed_count(), n_flows);
        }
    }

    /// Determinism as a property: identical seeds give identical FCTs
    /// regardless of the scenario.
    #[test]
    fn any_scenario_is_deterministic() {
        let mut meta = Rng::new(0x5EED_0300);
        for _ in 0..6 {
            let seed = below(&mut meta, 1, 10_000);
            let n = below(&mut meta, 2, 6) as usize;
            let run = || {
                let topo = Topology::dumbbell(n, 10_000_000_000, Dur::us(4));
                let cfg = NetConfig::expresspass().with_seed(seed);
                let mut net = Network::new(topo, cfg, xpass_factory(XPassConfig::default()));
                for i in 0..n {
                    net.add_flow(
                        HostId(i as u32),
                        HostId((n + i) as u32),
                        500_000,
                        SimTime::ZERO,
                    );
                }
                net.run_until_done(SimTime::ZERO + Dur::secs(2));
                net.flow_records()
                    .iter()
                    .map(|r| r.fct.map(|d| d.as_ps()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(run(), run());
        }
    }
}
