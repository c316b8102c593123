//! Microbenchmarks of the simulation engine itself: event-queue
//! throughput (heap vs calendar), RNG draws, token-bucket accounting, and
//! end-to-end simulated packet throughput of a saturated ExpressPass flow —
//! plus the **flow-scalability benchmark suite** that tracks the engine's
//! perf trajectory across PRs.
//!
//! Self-contained timing harness (no external bench framework): each case
//! is warmed up, then timed over enough iterations to smooth scheduler
//! noise, reporting ns/iter.
//!
//! The flow-scalability suite writes `BENCH_engine.json` (repo root, or
//! `$XPASS_BENCH_OUT`): hold-model scheduler throughput at fig15 queue
//! depths, full fig15-style simulations under both schedulers, a parallel
//! batch (`xpass_experiments::parallel`, one engine per seed), a memory
//! suite measuring steady-state `bytes_per_flow` on a reduced fig15_xl
//! Clos under the crate's counting global allocator, and the headline
//! `calendar+parallel vs heap serial` events/sec speedup plus
//! `events_per_sec_at_depth` and `bytes_per_flow`.
//! Environment knobs:
//!
//! * `XPASS_BENCH_FAST=1` — CI smoke mode (smaller depths/iterations).
//! * `XPASS_BENCH_OUT=<path>` — where to write the JSON report.
//! * `XPASS_BENCH_BASELINE=<path>` — compare against a committed report
//!   and exit non-zero if a calendar/heap speedup ratio (the
//!   machine-independent signal) regressed > 20 %, or if steady-state
//!   `bytes_per_flow` grew > 20 %.

use expresspass::{xpass_factory, XPassConfig};
use std::hint::black_box;
use std::time::Instant;
use xpass_experiments::harness::Scheme;
use xpass_experiments::parallel;
use xpass_net::config::NetConfig;
use xpass_net::ids::HostId;
use xpass_net::network::Network;
use xpass_net::topology::Topology;
use xpass_sim::bucket::TokenBucket;
use xpass_sim::event::{EventQueue, SchedulerKind};
use xpass_sim::json::{self, Json};
use xpass_sim::rng::Rng;
use xpass_sim::run_ctx;
use xpass_sim::time::{Dur, SimTime};

/// Time `f` and print a ns/iter line. `iters` is chosen per-case so fast
/// microbenches run long enough to measure and slow end-to-end cases stay
/// bounded.
fn bench_case(name: &str, iters: u64, mut f: impl FnMut()) {
    for _ in 0..(iters / 10).max(1) {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    let dt = t0.elapsed();
    let per = dt.as_nanos() as f64 / iters as f64;
    println!(
        "{name:<40} {per:>14.1} ns/iter  ({iters} iters, {:.3}s total)",
        dt.as_secs_f64()
    );
}

fn fast_mode() -> bool {
    std::env::var_os("XPASS_BENCH_FAST").is_some_and(|v| v != "0")
}

fn bench_event_queue() {
    for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
        let mut rng = Rng::new(1);
        bench_case(
            &format!("event_queue_push_pop_1k_{}", kind.name()),
            2_000,
            || {
                let mut q = EventQueue::with_scheduler(kind);
                for i in 0..1000u64 {
                    q.push(SimTime(rng.next_u64() % 1_000_000), i);
                }
                let mut acc = 0u64;
                while let Some((_, v)) = q.pop() {
                    acc = acc.wrapping_add(v);
                }
                black_box(acc);
            },
        );
    }
}

fn bench_rng() {
    let mut rng = Rng::new(7);
    bench_case("rng_next_u64", 10_000_000, || {
        black_box(rng.next_u64());
    });
    let mut rng = Rng::new(7);
    bench_case("rng_exp_dur", 5_000_000, || {
        black_box(rng.exp_dur(Dur::us(100)));
    });
}

fn bench_token_bucket() {
    let mut tb = TokenBucket::new(10_000_000_000 * 84 / 1622, 168);
    let mut now = SimTime::ZERO;
    bench_case("token_bucket_conform_consume", 5_000_000, || {
        now = tb.time_until_conforming(now, 84);
        tb.consume(now, 84);
        black_box(now);
    });
}

fn bench_end_to_end() {
    // Simulated-packet throughput of the full stack: one saturated 10G
    // ExpressPass flow for 1ms of simulated time per iteration.
    bench_case("xpass_saturated_flow_1ms", 50, || {
        let topo = Topology::dumbbell(1, 10_000_000_000, Dur::us(1));
        let cfg = NetConfig::expresspass().with_seed(3);
        let mut net = Network::new(topo, cfg, xpass_factory(XPassConfig::aggressive()));
        net.add_flow(HostId(0), HostId(1), 1 << 30, SimTime::ZERO);
        net.run_until(SimTime::ZERO + Dur::ms(1));
        black_box(net.counters().payload_delivered);
    });
}

fn bench_topology() {
    bench_case("fat_tree_8ary_build_with_routes", 50, || {
        black_box(Topology::fat_tree(
            8,
            10_000_000_000,
            40_000_000_000,
            Dur::us(1),
        ));
    });
    bench_case("eval_fat_tree_192_build_with_routes", 10, || {
        black_box(Topology::eval_fat_tree(10_000_000_000));
    });
}

fn bench_netcalc() {
    use expresspass::netcalc::{buffer_bounds, HierTopo, NetCalcParams};
    let topo = HierTopo::fat32_10_40();
    let p = NetCalcParams::testbed();
    bench_case("netcalc_table1_row", 1_000, || {
        black_box(buffer_bounds(&topo, &p));
    });
}

fn bench_incast() {
    // 16:1 incast, 100KB each: a complete mini-experiment per iteration.
    bench_case("xpass_incast_16to1_complete", 10, || {
        let topo = Topology::star(17, 10_000_000_000, Dur::us(2));
        let cfg = NetConfig::expresspass().with_seed(7);
        let mut net = Network::new(topo, cfg, xpass_factory(XPassConfig::default()));
        for i in 0..16u32 {
            net.add_flow(HostId(i), HostId(16), 100_000, SimTime::ZERO);
        }
        net.run_until_done(SimTime::ZERO + Dur::secs(1));
        black_box(net.completed_count());
    });
}

// ---------------------------------------------------------------------------
// Memory suite: steady-state bytes per flow under the counting allocator
// ---------------------------------------------------------------------------

/// One steady-state bytes-per-flow measurement under the crate's counting
/// [`xpass_bench::count_alloc`] global allocator: build the Clos and the
/// empty network, note the live baseline, start `n` long-running fig15_xl
/// stride-permutation flows, run past warmup, and charge the live-byte
/// delta to the flows. The delta covers everything a flow pins at steady
/// state — its arena slot and SoA lanes, the boxed endpoint pair, queued
/// events, timer-wheel occupancy, and its share of in-flight packets —
/// while the pre-built fabric (ports, routing tables, wheels) cancels out
/// in the subtraction.
fn mem_case(cfg: &xpass_experiments::fig15_xl::Config) -> Json {
    let n = cfg.flow_counts[0];
    let topo = Topology::three_tier(
        cfg.pods,
        cfg.aggs_per_pod,
        cfg.tors_per_pod,
        cfg.hosts_per_tor,
        cfg.cores,
        cfg.host_bps,
        cfg.host_bps,
        cfg.up_bps,
        Dur::us(1),
    );
    let hosts = topo.n_hosts;
    let mut net = Scheme::XPass(XPassConfig::aggressive()).build(topo, cfg.host_bps, cfg.seed);
    let base = xpass_bench::count_alloc::live_bytes();
    for i in 0..n {
        let src = i % hosts;
        let round = i / hosts;
        let mut dst = (src + hosts / 2 + round * 131) % hosts;
        if dst == src {
            dst = (dst + 1) % hosts;
        }
        let start = SimTime::ZERO + Dur::us((i as u64 * 13) % 100);
        net.add_flow(
            HostId(src as u32),
            HostId(dst as u32),
            cfg.flow_bytes,
            start,
        );
    }
    net.run_until(SimTime::ZERO + cfg.warmup);
    let steady = xpass_bench::count_alloc::live_bytes();
    let concurrent = n - net.completed_count() - net.aborted_count();
    assert_eq!(concurrent, n, "flows must stay concurrent through warmup");
    let bytes_per_flow = steady.saturating_sub(base) as f64 / n as f64;
    let events = net.engine_report().events_processed;
    black_box(net.counters().payload_delivered);
    let name = format!("mem_fig15xl_h{hosts}_n{n}");
    println!("{name:<28} {bytes_per_flow:>14.1} bytes/flow  ({events} events to warmup)");
    Json::obj()
        .with("name", Json::str(name))
        .with("hosts", Json::num_u64(hosts as u64))
        .with("flows", Json::num_u64(n as u64))
        .with("live_bytes_base", Json::num_u64(base))
        .with("live_bytes_steady", Json::num_u64(steady))
        .with("bytes_per_flow", Json::Num(bytes_per_flow))
}

/// The memory suite. The reduced 48-host shape runs in *both* modes so a
/// fast (CI smoke) run always has a same-name case to gate against in the
/// committed full-mode baseline; the full mode adds the real 10 240-host
/// fig15_xl fabric, whose figure becomes the `bytes_per_flow` headline.
fn bench_memory() -> Vec<Json> {
    let reduced = xpass_experiments::fig15_xl::Config {
        pods: 4,
        aggs_per_pod: 2,
        tors_per_pod: 2,
        hosts_per_tor: 6,
        cores: 4,
        flow_counts: vec![4_096],
        ..Default::default()
    };
    let mut cases = vec![mem_case(&reduced)];
    if !fast_mode() {
        let full = xpass_experiments::fig15_xl::Config {
            flow_counts: vec![16_384],
            ..Default::default()
        };
        cases.push(mem_case(&full));
    }
    cases
}

// ---------------------------------------------------------------------------
// Flow-scalability suite (BENCH_engine.json)
// ---------------------------------------------------------------------------

/// An event payload sized like the engine's real `Ev` enum (96 bytes, a
/// packet plus discriminant), so the hold model measures what each
/// scheduler actually moves: the heap sifts whole entries; the calendar
/// parks them in its slab and moves 24-byte keys.
#[derive(Clone)]
struct HoldEv {
    id: u64,
    _body: [u64; 11],
}

/// Hold-model scheduler throughput at steady queue depth `depth`: pop the
/// earliest event, schedule a replacement a pseudo-random packet-scale
/// delta later — the access pattern of `depth` concurrent flows (fig 15),
/// with per-event handler work reduced to one RNG draw so the scheduler
/// dominates. Returns events/sec.
fn hold_model(kind: SchedulerKind, depth: usize, ops: u64) -> f64 {
    let mut rng = Rng::new(0xF1015 + depth as u64);
    let mut q = EventQueue::with_scheduler(kind);
    // Each "flow" reschedules within a fixed ~6 µs horizon — the per-flow
    // credit-pacing interval on its own dumbbell access link — so aggregate
    // event density scales with depth exactly as the measured fig15 runs do
    // (~1000 events/µs at n=1024, queue spread over a few µs).
    let horizon = 6_000_000u64;
    for i in 0..depth as u64 {
        let ev = HoldEv {
            id: i,
            _body: [i; 11],
        };
        q.push(SimTime(rng.below(horizon)), ev);
    }
    // Warm up: reach steady-state occupancy before timing.
    for _ in 0..ops / 10 {
        let (t, v) = q.pop().unwrap();
        q.push(t + Dur::ps(1 + rng.below(horizon)), v);
    }
    let t0 = Instant::now();
    let mut acc = 0u64;
    for _ in 0..ops {
        let (t, v) = q.pop().unwrap();
        acc = acc.wrapping_add(v.id);
        q.push(t + Dur::ps(1 + rng.below(horizon)), v);
    }
    let wall = t0.elapsed().as_secs_f64();
    black_box(acc);
    black_box(q.len());
    ops as f64 / wall
}

/// One fig15-style flow-scalability simulation: `n` long-running
/// ExpressPass flow pairs over a dumbbell bottleneck, 2 ms warmup plus a
/// measurement window. Returns `(events_processed, wall_secs)` from the
/// engine report.
fn fig15_style_run(kind: SchedulerKind, n: usize, window: Dur, seed: u64) -> (u64, f64) {
    let _sched = run_ctx::enter(run_ctx::current().with_scheduler(kind));
    let link = 10_000_000_000u64;
    let topo = Topology::dumbbell(n, link, Dur::us(8));
    let mut net = Scheme::XPass(XPassConfig::aggressive()).build(topo, link, seed);
    let bytes = (link / 8) * 2;
    for i in 0..n {
        let start = SimTime::ZERO + Dur::us((i as u64 * 37) % 500);
        net.add_flow(HostId(i as u32), HostId((n + i) as u32), bytes, start);
    }
    net.run_until(SimTime::ZERO + Dur::ms(2) + window);
    let r = net.engine_report();
    (r.events_processed, r.wall_secs)
}

struct ScaleCase {
    name: String,
    flows: usize,
    scheduler: SchedulerKind,
    jobs: usize,
    events: u64,
    wall_secs: f64,
}

impl ScaleCase {
    fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .with("name", Json::str(&self.name))
            .with("flows", Json::num_u64(self.flows as u64))
            .with("scheduler", Json::str(self.scheduler.name()))
            .with("jobs", Json::num_u64(self.jobs as u64))
            .with("events", Json::num_u64(self.events))
            .with("wall_secs", Json::Num(self.wall_secs))
            .with("events_per_sec", Json::Num(self.events_per_sec()))
    }
}

fn bench_flow_scalability() -> Json {
    let fast = fast_mode();
    let (depths, hold_ops): (&[usize], u64) = if fast {
        (&[256, 1024], 300_000)
    } else {
        (&[256, 1024, 4096], 2_000_000)
    };
    let window = if fast { Dur::ms(2) } else { Dur::ms(8) };
    let sim_flows: &[usize] = if fast { &[256] } else { &[256, 1024, 4096] };
    let par_seeds: u64 = if fast { 2 } else { 4 };
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Interleaved best-of-N: heap and calendar alternate within each
    // repetition, so a noisy-neighbour slowdown hits both sides instead of
    // biasing whichever ran during the bad window.
    let reps = if fast { 2 } else { 5 };
    const KINDS: [SchedulerKind; 2] = [SchedulerKind::Heap, SchedulerKind::Calendar];

    // --- hold model: the scheduler alone at fig15 queue depths ---
    let mut hold = Vec::new();
    for &depth in depths {
        let mut best = [0.0f64; 2];
        for _ in 0..reps {
            for (i, kind) in KINDS.iter().enumerate() {
                best[i] = best[i].max(hold_model(*kind, depth, hold_ops));
            }
        }
        for (i, kind) in KINDS.iter().enumerate() {
            let eps = best[i];
            println!(
                "{:<28} {eps:>14.0} events/sec",
                format!("hold_d{depth}_{}", kind.name())
            );
            hold.push(
                Json::obj()
                    .with("name", Json::str(format!("hold_d{depth}_{}", kind.name())))
                    .with("depth", Json::num_u64(depth as u64))
                    .with("scheduler", Json::str(kind.name()))
                    .with("events_per_sec", Json::Num(eps)),
            );
        }
    }

    // --- full fig15-style simulations, serial, heap vs calendar ---
    let mut cases: Vec<ScaleCase> = Vec::new();
    for &n in sim_flows {
        let mut best: [Option<(u64, f64)>; 2] = [None, None];
        for _ in 0..reps {
            for (i, kind) in KINDS.iter().enumerate() {
                let (events, wall) = fig15_style_run(*kind, n, window, 41);
                best[i] = match best[i] {
                    Some((e, w)) if w <= wall => Some((e, w)),
                    _ => Some((events, wall)),
                };
            }
        }
        for (i, kind) in KINDS.iter().enumerate() {
            let (events, wall) = best[i].unwrap();
            let c = ScaleCase {
                name: format!("fig15_n{n}_{}_serial", kind.name()),
                flows: n,
                scheduler: *kind,
                jobs: 1,
                events,
                wall_secs: wall,
            };
            println!(
                "{:<28} {:>14.0} events/sec ({} events)",
                c.name,
                c.events_per_sec(),
                events
            );
            cases.push(c);
        }
    }

    // --- parallel batch: independent seeds, one engine per worker ---
    // Capped at n=1024 so a full batch (par_seeds × par_reps whole
    // simulations per scheduler) stays minutes, not tens of minutes.
    let top_n = sim_flows.iter().copied().rfind(|&n| n <= 1024).unwrap();
    // The parallel batch is the headline numerator; fewer best-of rounds
    // (it is `par_seeds` whole simulations per measurement) but still
    // interleaved across schedulers.
    let par_reps = if fast { 1 } else { 3 };
    // The headline's two terms are the *same batch of simulations*, timed
    // the same way: under the seed heap on one worker (the baseline is
    // serial by definition) and under the calendar queue on every
    // available core. Measuring the denominator as a batch too keeps the
    // comparison symmetric — a single-run sprint would see less allocator
    // and cache churn than a batch and bias the ratio.
    let batch_jobs = |kind: SchedulerKind| match kind {
        SchedulerKind::Heap => 1,
        SchedulerKind::Calendar => jobs,
    };
    let batch_name = |kind: SchedulerKind| match kind {
        SchedulerKind::Heap => format!("fig15_n{top_n}_heap_batch_serial"),
        SchedulerKind::Calendar => format!("fig15_n{top_n}_calendar_batch_parallel"),
    };
    let mut par_best: [Option<(u64, f64)>; 2] = [None, None];
    for _ in 0..par_reps {
        for (i, kind) in KINDS.iter().enumerate() {
            let kind = *kind;
            let seeds: Vec<u64> = (0..par_seeds).collect();
            let t0 = Instant::now();
            let results = parallel::run_indexed(seeds, batch_jobs(kind), kind, |_, seed| {
                fig15_style_run(kind, top_n, window, 41 + seed)
            });
            let wall = t0.elapsed().as_secs_f64();
            let events: u64 = results.iter().map(|&(e, _)| e).sum();
            par_best[i] = match par_best[i] {
                Some((e, w)) if w <= wall => Some((e, w)),
                _ => Some((events, wall)),
            };
        }
    }
    for (i, kind) in KINDS.iter().enumerate() {
        let (events, wall) = par_best[i].unwrap();
        let c = ScaleCase {
            name: batch_name(*kind),
            flows: top_n,
            scheduler: *kind,
            jobs: batch_jobs(*kind),
            events,
            wall_secs: wall,
        };
        println!(
            "{:<28} {:>14.0} events/sec ({} runs, {} jobs)",
            c.name,
            c.events_per_sec(),
            par_seeds,
            c.jobs
        );
        cases.push(c);
    }

    // --- headline: the acceptance metric tracked across PRs ---
    let eps_of = |name: &str| {
        cases
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.events_per_sec())
            .unwrap_or(0.0)
    };
    let hold_eps = |name: &str| {
        hold.iter()
            .find(|j| j.get("name").and_then(|n| n.as_str()) == Some(name))
            .and_then(|j| j.get("events_per_sec"))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    let top_d = *depths.last().unwrap();
    let heap_serial = eps_of(&format!("fig15_n{top_n}_heap_batch_serial"));
    let cal_parallel = eps_of(&format!("fig15_n{top_n}_calendar_batch_parallel"));
    let hold_heap = hold_eps(&format!("hold_d{top_d}_heap"));
    let hold_cal = hold_eps(&format!("hold_d{top_d}_calendar"));
    let sim_speedup = if heap_serial > 0.0 {
        cal_parallel / heap_serial
    } else {
        0.0
    };
    let hold_speedup = if hold_heap > 0.0 {
        hold_cal / hold_heap
    } else {
        0.0
    };
    println!(
        "headline: scheduler hold-model {hold_speedup:.2}x at depth {top_d}; \
         full-sim calendar+parallel vs heap serial {sim_speedup:.2}x at n={top_n}"
    );

    Json::obj()
        .with("queue_hold", Json::Arr(hold))
        .with(
            "flow_scalability",
            Json::Arr(cases.iter().map(|c| c.to_json()).collect()),
        )
        .with(
            "headline",
            Json::obj()
                .with("cores", Json::num_u64(jobs as u64))
                .with("heap_serial_events_per_sec", Json::Num(heap_serial))
                .with("calendar_parallel_events_per_sec", Json::Num(cal_parallel))
                .with(
                    "speedup_calendar_parallel_vs_heap_serial",
                    Json::Num(sim_speedup),
                )
                .with("hold_heap_events_per_sec", Json::Num(hold_heap))
                .with("hold_calendar_events_per_sec", Json::Num(hold_cal))
                .with("speedup_scheduler_hold_model", Json::Num(hold_speedup))
                .with("hold_depth", Json::num_u64(top_d as u64))
                // The deepest hold-model calendar rate: the per-PR signal
                // for "how fast does the scheduler move events at fig15
                // queue depth" (machine-dependent; recorded, not gated).
                .with("events_per_sec_at_depth", Json::Num(hold_cal)),
        )
}

/// Where to write `BENCH_engine.json`: `$XPASS_BENCH_OUT`, else repo root.
fn out_path() -> std::path::PathBuf {
    env_path("XPASS_BENCH_OUT").unwrap_or_else(|| {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json")
    })
}

/// Read a path from `var`, resolving relative values against the repo root
/// — cargo runs bench binaries with CWD = the package dir, so a bare
/// `BENCH_engine.json` would otherwise point inside `crates/bench/`.
fn env_path(var: &str) -> Option<std::path::PathBuf> {
    let p = std::path::PathBuf::from(std::env::var_os(var)?);
    if p.is_absolute() {
        Some(p)
    } else {
        Some(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(p),
        )
    }
}

/// `(name, events_per_sec)` pairs from a report section.
fn case_rates(report: &Json, section: &str) -> Vec<(String, f64)> {
    report
        .get(section)
        .and_then(|s| s.as_array())
        .map(|xs| {
            xs.iter()
                .filter_map(|x| {
                    Some((
                        x.get("name")?.as_str()?.to_string(),
                        x.get("events_per_sec")?.as_f64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Calendar/heap speedup ratios derivable from one report: for every
/// `*_heap*` case whose name has a same-suffix `*_calendar*` partner
/// (hold depths, serial simulations), `calendar eps / heap eps`. The
/// asymmetric batch pair (serial vs parallel) has no same-suffix partner
/// and is covered by the headline ratio instead.
fn speedup_ratios(report: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for section in ["queue_hold", "flow_scalability"] {
        let rates = case_rates(report, section);
        for (name, heap_eps) in &rates {
            if !name.contains("_heap") || *heap_eps <= 0.0 {
                continue;
            }
            let partner = name.replace("_heap", "_calendar");
            if let Some((_, cal_eps)) = rates.iter().find(|(n, _)| *n == partner) {
                out.push((name.replace("_heap", ""), cal_eps / heap_eps));
            }
        }
    }
    out
}

/// Compare a fresh report against the committed baseline; returns failure
/// messages (empty = pass). Only machine-independent quantities are
/// gated: the per-case calendar/heap speedup ratios (for case names
/// present in both reports — fast and full mode sweep different
/// depths/flow counts) and the headline speedup ratios, each with 20 %
/// tolerance. Absolute events/sec figures are recorded but never
/// compared — they track the runner's hardware, not the code.
fn regressions(baseline: &Json, fresh: &Json) -> Vec<String> {
    let mut fails = Vec::new();
    let mut check = |label: &str, old: f64, new: f64| {
        if old > 0.0 && new < 0.8 * old {
            fails.push(format!("{label}: {new:.2}x < 80% of baseline {old:.2}x"));
        }
    };
    let old_ratios = speedup_ratios(baseline);
    for (name, new) in speedup_ratios(fresh) {
        if let Some((_, old)) = old_ratios.iter().find(|(n, _)| *n == name) {
            check(&format!("speedup({name})"), *old, new);
        }
    }
    let head = |j: &Json, k: &str| {
        j.get("headline")
            .and_then(|h| h.get(k))
            .and_then(|v| v.as_f64())
    };
    for k in [
        "speedup_scheduler_hold_model",
        "speedup_calendar_parallel_vs_heap_serial",
    ] {
        if let (Some(old), Some(new)) = (head(baseline, k), head(fresh, k)) {
            check(&format!("headline.{k}"), old, new);
        }
    }
    // Memory footprint gates the other way: growth is the regression.
    // Bytes per flow is a property of the data layout, not the runner's
    // clock, so same-name cases (the reduced shape runs in both fast and
    // full modes) are compared directly with the same 20 % tolerance.
    let mem_cases = |j: &Json| -> Vec<(String, f64)> {
        j.get("memory")
            .and_then(|s| s.as_array())
            .map(|xs| {
                xs.iter()
                    .filter_map(|x| {
                        Some((
                            x.get("name")?.as_str()?.to_string(),
                            x.get("bytes_per_flow")?.as_f64()?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let old_mem = mem_cases(baseline);
    for (name, new) in mem_cases(fresh) {
        if let Some((_, old)) = old_mem.iter().find(|(n, _)| *n == name) {
            if *old > 0.0 && new > 1.2 * old {
                fails.push(format!(
                    "memory({name}): {new:.0} B/flow > 120% of baseline {old:.0} B/flow"
                ));
            }
        }
    }
    fails
}

fn main() {
    xpass_bench::bench_main("engine", || {
        bench_event_queue();
        bench_rng();
        bench_token_bucket();
        bench_end_to_end();
        bench_topology();
        bench_netcalc();
        bench_incast();

        let mem = bench_memory();
        let scale = bench_flow_scalability();
        // Headline figure: the largest fabric measured this run.
        let bytes_per_flow = mem
            .last()
            .and_then(|c| c.get("bytes_per_flow"))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        let headline = scale
            .get("headline")
            .unwrap()
            .clone()
            .with("bytes_per_flow", Json::Num(bytes_per_flow));
        println!("headline: {bytes_per_flow:.0} bytes/flow at steady state");
        let report = Json::obj()
            .with("schema", Json::str("xpass-bench-engine/v1"))
            .with("fast", Json::Bool(fast_mode()))
            .with("queue_hold", scale.get("queue_hold").unwrap().clone())
            .with(
                "flow_scalability",
                scale.get("flow_scalability").unwrap().clone(),
            )
            .with("memory", Json::Arr(mem))
            .with("headline", headline);
        let path = out_path();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).expect("create bench output dir");
        }
        std::fs::write(&path, format!("{report}\n")).expect("write BENCH_engine.json");
        println!("wrote {}", path.display());

        if let Some(base_path) = env_path("XPASS_BENCH_BASELINE") {
            let raw = std::fs::read_to_string(&base_path).expect("read baseline");
            let baseline = json::parse(&raw).expect("parse baseline");
            let fails = regressions(&baseline, &report);
            if fails.is_empty() {
                println!("baseline check: ok (within 20% of committed figures)");
            } else {
                for f in &fails {
                    eprintln!("REGRESSION: {f}");
                }
                std::process::exit(1);
            }
        }
        String::from("engine microbenchmarks complete")
    });
}
