//! The adapter: the only file of the benchmark that names an item of the
//! repository's crates. Everything else — the serve driver, the load
//! generator, stats, spans, reports, compare — uses `std`, the CLI of
//! `xpass-repro`, and the plain-data types defined here. When `Network`
//! or the `http`/`ws`/`ingest` modules move, this file is the benchmark
//! change.
//!
//! Items imported, exactly:
//!
//! * `expresspass`: `XPassConfig::{default, aggressive}`,
//!   `feedback::{max_credit_rate, CreditFeedback::{new, on_update}}`
//! * `xpass_experiments`: `harness::{Scheme::{build, net_config},
//!   eval_fat_tree_invariants, FctBuckets::{from_records, unfinished}}`,
//!   `parallel::run_indexed`, `scenario::load`
//! * `xpass_net`: `Network::{install_invariants, install_ledger,
//!   install_watchdog, install_trace_sink, take_trace_sink, add_flow,
//!   run_until, run_until_done, finish_stats, flow_records, now,
//!   engine_report, counters, completed_count, aborted_count,
//!   max_switch_queue_bytes, total_data_drops, total_credit_drops,
//!   health_report, ledger_report, watchdog_report, arena, topo,
//!   snapshot_into, restore_from}`, `FlowOutcome`, `FlowArena::slot_count`,
//!   `Topology::{eval_fat_tree, three_tier_10k, route_choices,
//!   route_pool_len, n_hosts, n_switches}`, `routing::ecmp_index`,
//!   `timers::TimerWheels::{new, arm, fired}`, `ids::{FlowId, HostId,
//!   SwitchId}`
//! * `xpass_sim`: `event::{EventQueue::{with_scheduler, push, pop},
//!   SchedulerKind}`, `time::{Dur, SimTime}`, `trace::RingSink`,
//!   `watchdog::WatchdogSpec`, `metrics::{install, clear, MetricsSpec,
//!   Plane::{new, jsonl_for_jobs, render_metrics}, decode_jsonl,
//!   encode_jsonl}`, `checkpoint::{install, clear, latest_checkpoint,
//!   load_image, CheckpointConfig}`, `snap::{SnapWriter, write_atomic,
//!   decode_file}`, `http::parse_request`, `ingest::{parse_arrivals,
//!   parse_journal, Arrival, IngestQueue::{new, offer, drain},
//!   JournalWriter::{append, group}}`, `ws::{encode_frame, opcode::TEXT,
//!   Broadcast::{new, push, poll}, Poll}`, `json::{parse, Json}`
//! * `xpass_workloads`: `Workload::CacheFollower`,
//!   `PoissonWorkload::{new, generate}`, `add_all`

use crate::rng::SplitMix;
use crate::trace::Recorder;
use expresspass::feedback::{max_credit_rate, CreditFeedback};
use expresspass::XPassConfig;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use xpass_experiments::harness::{eval_fat_tree_invariants, FctBuckets, Scheme};
use xpass_experiments::{parallel, scenario};
use xpass_net::ids::{FlowId, HostId, SwitchId};
use xpass_net::network::{FlowOutcome, Network};
use xpass_net::routing::ecmp_index;
use xpass_net::timers::TimerWheels;
use xpass_net::topology::Topology;
use xpass_sim::checkpoint::{self, CheckpointConfig};
use xpass_sim::event::{EventQueue, SchedulerKind};
use xpass_sim::http::parse_request;
use xpass_sim::ingest::{self, Arrival, IngestQueue, JournalWriter};
use xpass_sim::metrics::{self, MetricsSpec, Plane};
use xpass_sim::snap::{self, SnapWriter};
use xpass_sim::time::{Dur, SimTime};
use xpass_sim::trace::RingSink;
use xpass_sim::watchdog::WatchdogSpec;
use xpass_sim::ws;
use xpass_workloads::{PoissonWorkload, Workload};

pub use xpass_sim::json::{parse as parse_json, Json};

/// Link speed of the fat-tree workloads (all tiers).
const FCT_LINK_BPS: u64 = 10_000_000_000;
/// fig19's scaled default: flows per cell, at this ToR-uplink load.
pub const FCT_FLOWS: usize = 1200;
const FCT_LOAD: f64 = 0.6;
/// fig19's default seed; also the seed of the traffic trace, whatever
/// seed the network's own RNG gets.
pub const FCT_SEED: u64 = 53;
/// fig15_xl's default seed.
pub const CLOS_SEED: u64 = 71;
/// fig15_xl's stride permutation at this many long-running flows …
pub const CLOS_FLOWS: usize = 65_536;
/// … observed for one simulated millisecond.
const CLOS_END: SimTime = SimTime(1_000_000_000);
const CLOS_HOST_BPS: u64 = 1_000_000_000;
const CLOS_FLOW_BYTES: u64 = 100_000_000;

/// Ring capacity of the trace probe.
const TRACE_RING: usize = 65_536;
/// The metrics probe samples on this sim-time grid …
const METRICS_INTERVAL: Dur = Dur::ms(1);
/// … and the checkpoint probe snapshots this often, keeping this many.
pub const CHECKPOINT_EVERY_PS: u64 = 15_000_000_000;
const CHECKPOINT_KEEP: usize = 2;

/// Which simulation a [`Sim`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimKind {
    /// fig19's Cache Follower cell under ExpressPass.
    FctXpass,
    /// The same arrivals under DCTCP.
    FctDctcp,
    /// fig15_xl's 65 536-flow point on the 10 240-host Clos.
    ClosXl,
}

impl SimKind {
    fn link_bps(self) -> u64 {
        match self {
            SimKind::ClosXl => CLOS_HOST_BPS,
            _ => FCT_LINK_BPS,
        }
    }

    fn topology(self) -> Topology {
        match self {
            SimKind::ClosXl => {
                Topology::three_tier_10k(CLOS_HOST_BPS, CLOS_HOST_BPS, CLOS_HOST_BPS, Dur::us(1))
            }
            _ => Topology::eval_fat_tree(FCT_LINK_BPS),
        }
    }

    fn scheme(self) -> Scheme {
        match self {
            SimKind::FctXpass => Scheme::XPass(XPassConfig::default()),
            SimKind::FctDctcp => Scheme::Dctcp,
            SimKind::ClosXl => Scheme::XPass(XPassConfig::aggressive()),
        }
    }

    /// True for the credit-scheduled schemes (zero data loss expected).
    pub fn is_xpass(self) -> bool {
        !matches!(self, SimKind::FctDctcp)
    }

    /// Flows one rep simulates.
    pub fn flows(self) -> usize {
        match self {
            SimKind::ClosXl => CLOS_FLOWS,
            _ => FCT_FLOWS,
        }
    }
}

/// The optional subsystems, each installable alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Probes {
    pub ledger: bool,
    /// Eq 1 queue bound + zero data loss (`xpass-net::health`).
    pub health: bool,
    pub watchdog: bool,
    pub trace: bool,
    pub metrics: bool,
    pub checkpoint: bool,
}

impl Probes {
    pub const NONE: Probes = Probes {
        ledger: false,
        health: false,
        watchdog: false,
        trace: false,
        metrics: false,
        checkpoint: false,
    };
    pub const ALL: Probes = Probes {
        ledger: true,
        health: true,
        watchdog: true,
        trace: true,
        metrics: true,
        checkpoint: true,
    };
    /// What `RealisticRun` installs for an ExpressPass run.
    pub const HEALTH: Probes = Probes {
        health: true,
        ..Probes::NONE
    };
}

/// A network with its flows, ready to run.
pub struct Sim {
    kind: SimKind,
    net: Network,
    probes: Probes,
    plane: Option<Plane>,
    /// Simulated time the last flow starts at (fat-tree workloads).
    last_start: SimTime,
}

/// Everything the harness reads off a finished simulation, as plain data.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    pub events: u64,
    pub peak_queue_len: u64,
    pub ev_arrive: u64,
    pub ev_port_wake: u64,
    pub ev_host_rx: u64,
    pub ev_timer: u64,
    pub ev_flow_start: u64,
    pub flows: u64,
    pub completed: u64,
    pub aborted: u64,
    /// Flow records without a completion time.
    pub unfinished: u64,
    /// FNV-1a over every flow record's (id, FCT ps, outcome).
    pub digest: u64,
    pub sim_end_ps: u64,
    pub credits_sent: u64,
    pub credits_wasted: u64,
    pub credits_dropped: u64,
    pub ecn_marked: u64,
    pub max_switch_queue_bytes: u64,
    pub data_drops: u64,
    pub credit_drops: u64,
    pub health_monitored: bool,
    pub health_violations: u64,
    pub arena_slots: u64,
    pub route_pool_len: u64,
    pub probes: ProbeOutcome,
}

/// What the installed probes observed (zero / `None` when not installed).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProbeOutcome {
    pub ledger_balanced: Option<bool>,
    pub watchdog_tripped: Option<bool>,
    pub trace_events: u64,
    pub metrics_samples: u64,
    /// `encode_jsonl(decode_jsonl(series)) == series`.
    pub metrics_roundtrip: Option<bool>,
    /// `Plane::render_metrics`, µs per call.
    pub metrics_render_us: f64,
    /// `encode_jsonl` of the whole series, ms.
    pub metrics_encode_jsonl_ms: f64,
    pub checkpoints_written: u64,
    /// The newest snapshot passes `checkpoint::load_image`.
    pub newest_checkpoint_loads: Option<bool>,
}

fn fat_tree_specs(topo: &Topology) -> Vec<xpass_workloads::FlowSpec> {
    PoissonWorkload::new(
        Workload::CacheFollower.dist(),
        FCT_LOAD,
        FCT_FLOWS,
        FCT_SEED ^ 0xABCD,
    )
    .generate(topo)
}

impl Sim {
    /// Topology, thread-scoped probe contexts, `Network::new`, probe
    /// installs — each under its own span. `seed` is the network's RNG
    /// seed; the checkpoint probe writes under `checkpoint_dir`.
    pub fn new(
        kind: SimKind,
        seed: u64,
        probes: Probes,
        checkpoint_dir: &Path,
        rec: &mut Recorder,
    ) -> Sim {
        let (topo, _) = rec.time("topology.build", |_| kind.topology());
        let link_bps = kind.link_bps();
        // Both contexts are thread-scoped and read by `Network::new`.
        let mut plane = None;
        if probes.metrics {
            rec.time("metrics.install", |_| {
                let p = Plane::new();
                metrics::install(
                    MetricsSpec {
                        interval: METRICS_INTERVAL,
                        ..MetricsSpec::default()
                    },
                    Some(p.clone()),
                );
                plane = Some(p);
            });
        }
        if probes.checkpoint {
            rec.time("checkpoint.install", |_| {
                checkpoint::install(
                    Some(CheckpointConfig {
                        every: Dur::ps(CHECKPOINT_EVERY_PS),
                        dir: checkpoint_dir.to_path_buf(),
                        keep: CHECKPOINT_KEEP,
                    }),
                    None,
                );
            });
        }
        let scheme = kind.scheme();
        let (mut net, _) = rec.time("network.new", |_| scheme.build(topo, link_bps, seed));
        if probes.ledger {
            rec.time("ledger.install", |_| net.install_ledger());
        }
        if probes.health {
            rec.time("health.install", |_| {
                let cfg = scheme.net_config(link_bps);
                net.install_invariants(eval_fat_tree_invariants(link_bps, &cfg));
            });
        }
        if probes.watchdog {
            // Budgets far beyond any workload here: armed, never reached.
            rec.time("watchdog.install", |_| {
                net.install_watchdog(WatchdogSpec {
                    max_events: Some(1 << 40),
                    max_wall: Some(Duration::from_secs(3600)),
                    max_events_per_instant: Some(1 << 30),
                });
            });
        }
        if probes.trace {
            rec.time("trace.install", |_| {
                net.install_trace_sink(Box::new(RingSink::new(TRACE_RING)));
            });
        }
        Sim {
            kind,
            net,
            probes,
            plane,
            last_start: SimTime::ZERO,
        }
    }

    /// Generate this workload's arrivals and add them.
    pub fn add_flows(&mut self, rec: &mut Recorder) {
        if self.kind == SimKind::ClosXl {
            // fig15_xl's stride permutation: round r of host h talks to
            // the host half the fabric away, rotated by the round; starts
            // staggered over 100 µs.
            let net = &mut self.net;
            rec.time("network.add_flows", |_| {
                let hosts = net.topo().n_hosts;
                for i in 0..CLOS_FLOWS {
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
                        CLOS_FLOW_BYTES,
                        start,
                    );
                }
            });
            return;
        }
        let (specs, _) = rec.time("workloads.generate", |_| fat_tree_specs(self.net.topo()));
        rec.time("network.add_flows", |_| {
            xpass_workloads::add_all(&mut self.net, &specs)
        });
        self.last_start = specs.last().expect("workload has flows").start;
    }

    /// The whole run in one call, as the experiments make it. Returns the
    /// simulated time reached, in ps.
    pub fn run(&mut self) -> u64 {
        match self.kind {
            SimKind::ClosXl => self.net.run_until(CLOS_END),
            _ => {
                self.net.run_until_done(self.last_start + Dur::secs(10));
            }
        }
        self.net.now().as_ps()
    }

    /// The same run split into `slices` equal sim-time `run_until` calls
    /// up to `end_ps` (what [`run`](Self::run) returned for this input),
    /// one span each; the last slice is the workload's own run call, so
    /// the events processed are identical.
    pub fn run_sliced(&mut self, end_ps: u64, slices: u64, rec: &mut Recorder) {
        for k in 1..slices {
            rec.time("network.run_slice", |_| {
                self.net.run_until(SimTime(end_ps / slices * k));
            });
        }
        rec.time("network.run_slice", |_| {
            self.run();
        });
    }

    /// Close the statistics and read everything off the network.
    pub fn finish(mut self, rec: &mut Recorder) -> Outcome {
        let (records, _) = rec.time("network.finish", |_| {
            self.net.finish_stats();
            self.net.flow_records()
        });
        let (unfinished, _) = rec.time("harness.fct_buckets", |_| {
            FctBuckets::from_records(&records).unfinished() as u64
        });
        let mut digest = Fnv::new();
        for r in &records {
            digest.u64(r.id.0 as u64);
            digest.u64(r.fct.map_or(u64::MAX, |d| d.as_ps()));
            digest.u64(match r.outcome {
                None => 0,
                Some(FlowOutcome::Completed) => 1,
                Some(FlowOutcome::Stalled) => 2,
                Some(FlowOutcome::Aborted) => 3,
            });
        }
        let probes = rec
            .time("harness.probe_outputs", |_| self.probe_outcome())
            .0;
        let net = &self.net;
        let er = net.engine_report();
        let kind_count = |name: &str| {
            er.events_by_kind
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, c)| *c)
        };
        let c = net.counters();
        let health = net.health_report();
        Outcome {
            events: er.events_processed,
            peak_queue_len: er.peak_queue_len as u64,
            ev_arrive: kind_count("arrive"),
            ev_port_wake: kind_count("port_wake"),
            ev_host_rx: kind_count("host_rx"),
            ev_timer: kind_count("timer"),
            ev_flow_start: kind_count("flow_start"),
            flows: records.len() as u64,
            completed: net.completed_count() as u64,
            aborted: net.aborted_count() as u64,
            unfinished,
            digest: digest.0,
            sim_end_ps: net.now().as_ps(),
            credits_sent: c.credits_sent,
            credits_wasted: c.credits_wasted,
            credits_dropped: c.credits_dropped,
            ecn_marked: c.ecn_marked,
            max_switch_queue_bytes: net.max_switch_queue_bytes(),
            data_drops: net.total_data_drops(),
            credit_drops: net.total_credit_drops(),
            health_monitored: health.monitored,
            health_violations: health.queue_violations + health.loss_violations,
            arena_slots: net.arena().slot_count() as u64,
            route_pool_len: net.topo().route_pool_len() as u64,
            probes,
        }
    }

    /// Collect what the probes saw.
    fn probe_outcome(&mut self) -> ProbeOutcome {
        let mut out = ProbeOutcome::default();
        if self.probes.ledger {
            out.ledger_balanced = Some(self.net.ledger_report().balanced());
        }
        if self.probes.watchdog {
            out.watchdog_tripped = Some(self.net.watchdog_report().is_some());
        }
        if let Some(mut sink) = self.net.take_trace_sink() {
            if let Some(ring) = sink.as_any().downcast_mut::<RingSink>() {
                out.trace_events = ring.total_recorded();
            }
        }
        if let Some(plane) = self.plane.take() {
            let series = plane.jsonl_for_jobs(&["main".to_string()]);
            let dumps = metrics::decode_jsonl(&series);
            if let Ok(dumps) = &dumps {
                out.metrics_samples = dumps.iter().map(|d| d.ticks.len() as u64).sum();
                let t = Instant::now();
                let again: String = dumps.iter().map(metrics::encode_jsonl).collect();
                out.metrics_encode_jsonl_ms = t.elapsed().as_secs_f64() * 1e3;
                out.metrics_roundtrip = Some(again == series);
            } else {
                out.metrics_roundtrip = Some(false);
            }
            const RENDERS: u32 = 20;
            let t = Instant::now();
            for _ in 0..RENDERS {
                black_box(plane.render_metrics());
            }
            out.metrics_render_us = t.elapsed().as_secs_f64() * 1e6 / RENDERS as f64;
        }
        if self.probes.checkpoint {
            if let Some(newest) = checkpoint::latest_checkpoint() {
                // Files are named ck-NNNNNN.snap in write order.
                out.checkpoints_written = newest
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .and_then(|s| s.strip_prefix("ck-"))
                    .and_then(|n| n.parse::<u64>().ok())
                    .map_or(0, |n| n + 1);
                out.newest_checkpoint_loads = Some(checkpoint::load_image(&newest).is_ok());
            }
        }
        out
    }
}

impl Drop for Sim {
    /// Tear down the thread-scoped probe contexts, so that the next
    /// network — of a rep or of a set-up-only round — starts clean.
    fn drop(&mut self) {
        if self.probes.metrics {
            metrics::clear();
        }
        if self.probes.checkpoint {
            checkpoint::clear();
        }
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

// ---------------------------------------------------------------------------
// Direct layer timers: one public function of one layer, in a loop.
// ---------------------------------------------------------------------------

fn ns_per_op(ops: u64, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e9 / ops as f64
}

/// A 96-byte event payload: the size of the network's own event enum.
struct HoldEv {
    id: u64,
    _body: [u64; 11],
}

/// Hold model on `EventQueue` at a steady `depth`: pop the earliest
/// event, push a replacement a packet-scale delta later. ns per pop+push.
pub fn event_hold_ns(depth: usize, seed: u64) -> f64 {
    const OPS: u64 = 1_000_000;
    const HORIZON_PS: u64 = 6_000_000;
    let mut rng = SplitMix(seed);
    let mut q = EventQueue::with_scheduler(SchedulerKind::default());
    for i in 0..depth.max(1) as u64 {
        q.push(
            SimTime(rng.below(HORIZON_PS)),
            HoldEv {
                id: i,
                _body: [i; 11],
            },
        );
    }
    let mut acc = 0u64;
    let mut hold = |q: &mut EventQueue<HoldEv>, n: u64| {
        for _ in 0..n {
            let (t, ev) = q.pop().expect("hold model keeps the queue non-empty");
            acc = acc.wrapping_add(ev.id);
            q.push(t + Dur::ps(1 + rng.below(HORIZON_PS)), ev);
        }
    };
    hold(&mut q, OPS / 10);
    let ns = ns_per_op(OPS, || hold(&mut q, OPS));
    black_box(acc);
    ns
}

/// `TimerWheels::arm` + `fired` on a wheel for `kind`'s hosts, ns per pair.
pub fn timers_arm_fire_ns(kind: SimKind, seed: u64) -> f64 {
    const OPS: u64 = 2_000_000;
    let hosts = kind.topology().n_hosts;
    let mut rng = SplitMix(seed);
    let mut w = TimerWheels::new(hosts);
    let mut now = 0u64;
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            let r = rng.next();
            let host = HostId((r % hosts as u64) as u32);
            now += 1 + (r >> 40) % 1000;
            // Delays from 1 µs to ~1 ms: RTO- and credit-timer scale.
            let expiry = SimTime(now + 1_000_000 + (r >> 20) % 1_000_000_000);
            let gen = w.arm(host, SimTime(now), expiry);
            w.fired(host, black_box(gen), expiry);
        }
    })
}

/// `CreditFeedback::on_update` over a cycling loss pattern, ns per call.
pub fn feedback_update_ns() -> f64 {
    const OPS: u64 = 5_000_000;
    const LOSS: [f64; 8] = [0.0, 0.02, 0.3, 0.0, 0.0, 0.12, 0.0, 0.6];
    let mut fb = CreditFeedback::new(max_credit_rate(FCT_LINK_BPS), XPassConfig::default());
    let mut acc = 0.0;
    let ns = ns_per_op(OPS, || {
        for i in 0..OPS {
            acc += fb.on_update(black_box(LOSS[(i % 8) as usize]));
        }
    });
    black_box(acc);
    ns
}

/// `buffer_bounds` through `eval_fat_tree_invariants`, µs per call.
pub fn netcalc_us() -> f64 {
    const OPS: u64 = 20_000;
    let cfg = SimKind::FctXpass.scheme().net_config(FCT_LINK_BPS);
    let mut acc = 0u64;
    let ns = ns_per_op(OPS, || {
        for _ in 0..OPS {
            let spec = eval_fat_tree_invariants(black_box(FCT_LINK_BPS), &cfg);
            acc = acc.wrapping_add(spec.data_queue_bound_bytes.unwrap_or(0));
        }
    });
    black_box(acc);
    ns / 1e3
}

/// `route_choices` + `ecmp_index` over a seeded (switch, dst, flow)
/// stream on `kind`'s topology, ns per lookup.
pub fn route_lookup_ns(kind: SimKind, seed: u64) -> f64 {
    const STREAM: usize = 1 << 18;
    const PASSES: u64 = 4;
    let topo = kind.topology();
    let mut rng = SplitMix(seed);
    let (hosts, switches) = (topo.n_hosts as u64, topo.n_switches as u64);
    let stream: Vec<(u32, u32, u32, u32)> = (0..STREAM)
        .map(|i| {
            (
                rng.below(switches) as u32,
                rng.below(hosts) as u32,
                rng.below(hosts) as u32,
                i as u32,
            )
        })
        .collect();
    let mut acc = 0usize;
    let ns = ns_per_op(STREAM as u64 * PASSES, || {
        for _ in 0..PASSES {
            for &(sw, src, dst, flow) in &stream {
                let choices = topo.route_choices(SwitchId(sw), HostId(dst));
                if !choices.is_empty() {
                    let i = ecmp_index(HostId(src), HostId(dst), FlowId(flow), choices.len());
                    acc = acc.wrapping_add(choices[i].0 as usize);
                }
            }
        }
    });
    black_box(acc);
    ns
}

/// Mid-run snapshot costs of the fct_xpass simulation.
#[derive(Clone, Debug, Default)]
pub struct SnapTimes {
    pub snapshot_ms: f64,
    pub bytes: u64,
    pub write_ms: f64,
    pub restore_ms: f64,
    /// The restored twin finished with the original's digest.
    pub restored_ok: bool,
}

/// `Network::snapshot_into` at `at_ps`, `write_atomic` (which applies
/// `encode_file`), then `decode_file` + `restore_from` onto a freshly
/// built twin.
pub fn snap_times(seed: u64, at_ps: u64, file: &Path) -> SnapTimes {
    let mut rec = Recorder::new();
    let build = |rec: &mut Recorder| {
        let mut sim = Sim::new(SimKind::FctXpass, seed, Probes::HEALTH, Path::new(""), rec);
        sim.add_flows(rec);
        sim
    };
    let mut sim = build(&mut rec);
    sim.net.run_until(SimTime(at_ps));
    let mut out = SnapTimes::default();
    let t = Instant::now();
    let mut w = SnapWriter::new();
    sim.net.snapshot_into(&mut w);
    let body = w.into_body();
    out.snapshot_ms = t.elapsed().as_secs_f64() * 1e3;
    out.bytes = body.len() as u64;
    let t = Instant::now();
    let written = snap::write_atomic(file, &body);
    out.write_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut twin = build(&mut rec);
    let t = Instant::now();
    out.restored_ok = written.is_ok()
        && std::fs::read(file).is_ok_and(|bytes| {
            snap::decode_file(&bytes).is_ok_and(|b| twin.net.restore_from(b).is_ok())
        });
    out.restore_ms = t.elapsed().as_secs_f64() * 1e3;
    // The restored twin must finish exactly like the original.
    out.restored_ok &=
        sim.run() == twin.run() && sim.finish(&mut rec).digest == twin.finish(&mut rec).digest;
    out
}

/// `run_indexed` over two fct_xpass simulations at `jobs` 1 and 2;
/// returns (serial seconds, parallel seconds).
pub fn parallel_jobs2(seeds: [u64; 2]) -> (f64, f64) {
    let wall = |jobs: usize| {
        let t = Instant::now();
        let ends = parallel::run_indexed(seeds.to_vec(), jobs, SchedulerKind::default(), |_, s| {
            let mut rec = Recorder::new();
            let mut sim = Sim::new(
                SimKind::FctXpass,
                s,
                Probes::HEALTH,
                Path::new(""),
                &mut rec,
            );
            sim.add_flows(&mut rec);
            sim.run()
        });
        black_box(ends);
        t.elapsed().as_secs_f64()
    };
    (wall(1), wall(2))
}

/// `scenario::load`, µs per call.
pub fn scenario_load_us(path: &Path) -> Result<f64, String> {
    const OPS: u64 = 200;
    scenario::load(path).map_err(|e| e.to_string())?;
    let ns = ns_per_op(OPS, || {
        for _ in 0..OPS {
            black_box(scenario::load(path).is_ok());
        }
    });
    Ok(ns / 1e3)
}

/// `http::parse_request` on a `POST /ingest` head, ns per call.
pub fn http_parse_request_ns(head: &[u8]) -> Result<f64, String> {
    const OPS: u64 = 200_000;
    parse_request(head)?;
    Ok(ns_per_op(OPS, || {
        for _ in 0..OPS {
            black_box(parse_request(black_box(head)).is_ok());
        }
    }))
}

/// Direct timings of the `ingest` layer on one request body.
#[derive(Clone, Debug, Default)]
pub struct IngestTimes {
    /// `parse_arrivals`, ns per arrival.
    pub parse_arrivals_ns: f64,
    /// `IngestQueue::offer` + `drain`, ns per arrival.
    pub offer_drain_ns: f64,
    /// `JournalWriter::group`, µs per group of the body's arrivals.
    pub journal_group_us: f64,
}

pub fn ingest_times(body: &str, journal: &Path) -> Result<IngestTimes, String> {
    const PARSES: u64 = 20_000;
    const OFFERS: u64 = 200_000;
    const GROUPS: u64 = 2_000;
    let batch: Vec<Arrival> = ingest::parse_arrivals(body)?;
    let n = batch.len() as f64;
    let parse = ns_per_op(PARSES, || {
        for _ in 0..PARSES {
            black_box(ingest::parse_arrivals(black_box(body)).is_ok());
        }
    });
    // A rate no loop can reach, so the token bucket never sheds.
    let q = IngestQueue::new(65_536, 1e12);
    let offer = ns_per_op(OFFERS, || {
        for _ in 0..OFFERS {
            black_box(q.offer(&batch));
            black_box(q.drain());
        }
    });
    let mut w = JournalWriter::append(journal, "bench")?;
    let mut err = None;
    let group = ns_per_op(GROUPS, || {
        for g in 0..GROUPS {
            if let Err(e) = w.group(g * 1_000_000_000, &batch) {
                err = Some(e);
                break;
            }
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    Ok(IngestTimes {
        parse_arrivals_ns: parse / n,
        offer_drain_ns: offer / n,
        journal_group_us: group / 1e3,
    })
}

/// What `ingest::parse_journal` makes of a journal text.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JournalFacts {
    pub groups: u64,
    pub arrivals: u64,
    pub sealed: bool,
}

/// `parse_journal`: the facts, and ms per parse.
pub fn parse_journal(text: &str) -> Result<(JournalFacts, f64), String> {
    let t = Instant::now();
    let j = ingest::parse_journal(text)?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    Ok((
        JournalFacts {
            groups: j.groups.len() as u64,
            arrivals: j.arrivals() as u64,
            sealed: j.end_t_ps.is_some(),
        },
        ms,
    ))
}

/// (`ws::encode_frame` ns per text frame, `Broadcast::push` + `poll` ns
/// per line) for one feed line.
pub fn ws_times(line: &str) -> (f64, f64) {
    const OPS: u64 = 500_000;
    let encode = ns_per_op(OPS, || {
        for _ in 0..OPS {
            black_box(ws::encode_frame(
                ws::opcode::TEXT,
                black_box(line.as_bytes()),
            ));
        }
    });
    let feed = ws::Broadcast::new(1024);
    let mut cursor = feed.tail();
    let push_poll = ns_per_op(OPS, || {
        for _ in 0..OPS {
            feed.push(line.to_string());
            if let ws::Poll::Items(items, next) = feed.poll(cursor) {
                black_box(items);
                cursor = next;
            }
        }
    });
    (encode, push_poll)
}
