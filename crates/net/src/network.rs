//! The network runtime: owns the topology instantiation (egress ports), the
//! flow table (protocol endpoints), and the event loop.
//!
//! Event kinds:
//!
//! * `Arrive` — a packet finished serialization + propagation and reached
//!   the next node; switches route and enqueue it, hosts apply processing
//!   delay and hand it to the endpoint.
//! * `PortWake` — an egress transmitter may be able to send (previous
//!   serialization done, new packet enqueued, or credit meter refilled).
//! * `HostRx` — host processing delay elapsed; deliver to the endpoint.
//! * `Timer` — an endpoint timer fired.
//! * `FlowStart` — activate a flow's endpoints.
//! * `RcpUpdate` — periodic per-link RCP rate computation.
//! * `Fault` — a scheduled fault-injection event from an installed
//!   [`FaultPlan`] fires (see [`crate::faults`]).
//!
//! Child modules: `lookahead` (the run loop's prefetch stage), `sampler`
//! (the figure series and the metrics ring: periodic observation that
//! queues no event), `metrics` (the ring's rows and the plane glue, read
//! straight off the network) and `snapshot` (`snapshot_into` /
//! `restore_from`: the order of the layers' sections and the `Ev` codec —
//! every layer serialises itself).

use crate::arena::{FlowArena, FLAG_ABORTED, FLAG_DONE, FLAG_STALLED};
use crate::config::{NetConfig, RoutingMode};
use crate::endpoint::{Ctx, Endpoint, EndpointFactory, FlowInfo};
use crate::faults::{Admit, Effect, FaultKind, FaultPlan, FaultState, FAULT_RNG_SALT};
use crate::health::{HealthReport, InvariantSpec, InvariantState};
use crate::ids::{DLinkId, FlowId, HostId, NodeId, Side};
use crate::ledger::{Ledger, LedgerEntry, LedgerReport, Loss};
use crate::packet::{Packet, PktKind};
use crate::port::{EgressPort, TxDecision, WakeSlot};
use crate::queue::{CreditQueue, DataQueue, EcnCfg, PhantomQueue};
use crate::rcplink::RcpLink;
use crate::routing::ecmp_index;
use crate::timers::TimerWheels;
use crate::topology::Topology;
use xpass_sim::checkpoint::NetHook;
use xpass_sim::event::EventQueue;
use xpass_sim::profile::EngineReport;
use xpass_sim::rng::Rng;
use xpass_sim::run_ctx;
use xpass_sim::snap::{SnapError, SnapIo, SnapWriter};
use xpass_sim::stats::TimeSeries;
use xpass_sim::time::{Dur, SimTime};
use xpass_sim::trace::{TraceEvent, TraceSink};
use xpass_sim::watchdog::{Watchdog, WatchdogReport, WatchdogSpec, WALL_CHECK_MASK};

mod lookahead;
mod metrics;
mod sampler;
mod snapshot;
pub use lookahead::LOOKAHEAD_MIN_DEPTH;
use metrics::MetricsState;
use sampler::Sampler;

/// Simulation events.
#[derive(Clone)]
enum Ev {
    Arrive {
        dlink: DLinkId,
        pkt: Packet,
    },
    PortWake {
        dlink: DLinkId,
    },
    HostRx {
        pkt: Packet,
    },
    Timer {
        flow: FlowId,
        /// Host the arming endpoint lives on (sender → src, receiver →
        /// dst). Carried so the run loop's lookahead can prefetch the
        /// uplink a pace timer's credit leaves on without reading the
        /// flow's arena slot first.
        host: HostId,
        side: Side,
        kind: u8,
        gen: u64,
    },
    FlowStart {
        flow: FlowId,
    },
    RcpUpdate {
        dlink: DLinkId,
    },
    Fault {
        kind: FaultKind,
    },
}

/// Stable names for the per-kind event counters in [`EngineReport`],
/// indexed by [`ev_kind_idx`].
const EV_KIND_NAMES: [&str; 7] = [
    "arrive",
    "port_wake",
    "host_rx",
    "timer",
    "flow_start",
    "rcp_update",
    "fault",
];

fn ev_kind_idx(ev: &Ev) -> usize {
    match ev {
        Ev::Arrive { .. } => 0,
        Ev::PortWake { .. } => 1,
        Ev::HostRx { .. } => 2,
        Ev::Timer { .. } => 3,
        Ev::FlowStart { .. } => 4,
        Ev::RcpUpdate { .. } => 5,
        Ev::Fault { .. } => 6,
    }
}

/// Global run counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Credit packets emitted by receivers.
    pub credits_sent: u64,
    /// Credits dropped at any credit queue (the congestion signal).
    pub credits_dropped: u64,
    /// Credits that reached a sender with no data to send (waste).
    pub credits_wasted: u64,
    /// Data packets dropped at any data queue.
    pub data_dropped: u64,
    /// Application payload bytes delivered to receivers.
    pub payload_delivered: u64,
    /// Data packets ECN-marked.
    pub ecn_marked: u64,
    /// Fault events applied from an installed [`FaultPlan`].
    pub faults_injected: u64,
    /// Packets discarded as corrupted (CRC-drop) by an injected fault.
    pub pkts_corrupted: u64,
    /// Packets lost to injected faults: dead-link arrivals, random link
    /// loss, flushed backlogs, and routing dead-ends (excludes corruption).
    pub pkts_lost_to_faults: u64,
    /// Flows aborted by their endpoints (e.g. SYN retries exhausted).
    pub flows_aborted: u64,
}

impl Counters {
    /// Every counter with its JSON key, in snapshot order.
    fn fields(&mut self) -> [(&'static str, &mut u64); 10] {
        [
            ("credits_sent", &mut self.credits_sent),
            ("credits_dropped", &mut self.credits_dropped),
            ("credits_wasted", &mut self.credits_wasted),
            ("data_dropped", &mut self.data_dropped),
            ("payload_delivered", &mut self.payload_delivered),
            ("ecn_marked", &mut self.ecn_marked),
            ("faults_injected", &mut self.faults_injected),
            ("pkts_corrupted", &mut self.pkts_corrupted),
            ("pkts_lost_to_faults", &mut self.pkts_lost_to_faults),
            ("flows_aborted", &mut self.flows_aborted),
        ]
    }

    /// Credits wasted per credit sent (0 with none sent).
    pub fn credit_waste_ratio(&self) -> f64 {
        if self.credits_sent > 0 {
            self.credits_wasted as f64 / self.credits_sent as f64
        } else {
            0.0
        }
    }

    /// Render as a JSON object (one key per counter).
    pub fn to_json(&self) -> xpass_sim::json::Json {
        use xpass_sim::json::Json;
        let mut j = Json::obj();
        for (k, v) in self.clone().fields() {
            j = j.with(k, Json::num_u64(*v));
        }
        j
    }
}

impl Counters {
    /// Snapshot traversal: every counter, in declaration order.
    pub fn persist(&mut self, io: &mut SnapIo) -> Result<(), SnapError> {
        self.fields().into_iter().try_for_each(|(_, v)| io.u64(v))
    }
}

/// How a flow ended (or is currently faring), on its [`FlowRecord`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowOutcome {
    /// All bytes delivered.
    Completed,
    /// No forward progress for at least the endpoint's stall timeout; the
    /// flow is still live and may yet complete.
    Stalled,
    /// The endpoint gave up (e.g. SYN retransmissions exhausted).
    Aborted,
}

/// Per-flow outcome, available after (or during) a run.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowRecord {
    /// Flow id.
    pub id: FlowId,
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Application bytes.
    pub size_bytes: u64,
    /// Start time.
    pub start: SimTime,
    /// Flow completion time, if the flow finished.
    pub fct: Option<Dur>,
    /// Outcome so far: `None` while running normally, otherwise the latest
    /// of Completed / Stalled / Aborted.
    pub outcome: Option<FlowOutcome>,
}

/// Out-of-band run orchestration: reacts to flow lifecycle events with full
/// `&mut Network` access. Used for request/response applications (Fig 1's
/// partition/aggregate), the ideal-rate oracle, and dynamic arrival loops.
pub trait Controller {
    /// A flow's endpoints were just started.
    fn on_flow_start(&mut self, _net: &mut Network, _flow: FlowId) {}
    /// A flow just delivered its last byte.
    fn on_flow_complete(&mut self, _net: &mut Network, _flow: FlowId) {}
    /// Snapshot traversal of mutable controller state (see
    /// [`crate::network::Network::snapshot_into`]); a read overlays it onto
    /// a freshly constructed controller. Stateless controllers keep the
    /// no-op default.
    fn persist(&mut self, _io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        Ok(())
    }
}

/// The do-nothing controller.
pub struct NoController;
impl Controller for NoController {}

enum Pending {
    Started(FlowId),
    Completed(FlowId),
}

/// The simulated network: topology instantiation + flows + event loop.
pub struct Network {
    now: SimTime,
    events: EventQueue<Ev>,
    rng: Rng,
    topo: Topology,
    cfg: NetConfig,
    ports: Vec<EgressPort>,
    /// All flow state: append-only slots (identity + boxed endpoints) and
    /// struct-of-arrays hot counters. `FlowId` == slot index.
    arena: FlowArena,
    /// Per-host timer generations.
    timers: TimerWheels,
    factory: EndpointFactory,
    controller: Option<Box<dyn Controller>>,
    pending: Vec<Pending>,
    completed: usize,
    /// The fault layer: link and host state, live routes and every fault
    /// rule (see [`crate::faults`]). `None` unless a plan was installed,
    /// and every fault hook is gated on that, so fault-free runs route
    /// straight from the flat tables and are byte-identical.
    faults: Option<FaultState>,
    /// Trace sink; `None` unless installed. Every emission site is gated on
    /// `is_some()` and tracing never touches the RNG or event queue, so
    /// sink-free runs are byte-identical.
    trace: Option<Box<dyn TraceSink>>,
    /// Invariant monitors; `None` unless installed (same contract).
    invariants: Option<InvariantState>,
    /// Byte/packet conservation ledger; `None` unless installed (same
    /// contract — observation-only, never touches RNG or event order).
    ledger: Option<Ledger>,
    /// Hang/livelock watchdog; `None` unless installed. Checked after every
    /// handled event inside the run loop, which refuses to continue once it
    /// holds a trip.
    watchdog: Option<Watchdog>,
    /// Driver-set phase label surfaced in watchdog reports.
    phase: &'static str,
    /// Checkpoint hook; `None` unless a checkpoint runtime is installed in
    /// the run context (see [`xpass_sim::run_ctx`]) — the common, zero-cost
    /// case. Drives periodic snapshot writes and the one-shot resume
    /// overlay at the recorded run call.
    ckpt: Option<NetHook>,
    /// Events handled per kind (indexed by [`ev_kind_idx`]); always on —
    /// plain counters that cannot affect simulation state.
    ev_counts: [u64; 7],
    /// Wall-clock seconds accumulated inside the run loop (reporting only).
    wall_secs: f64,
    /// Global counters.
    counters: Counters,
    /// Periodic observation: the tracked flows' and ports' series, and the
    /// live metrics ring when a metrics context is installed on this
    /// thread. Observation-only — it never touches the RNG or queues an
    /// event — so sampled runs produce the results of unsampled ones.
    sampler: Sampler,
}

/// Data queue capacity at host NICs (effectively unbounded: the
/// transport, not the NIC, is the limit at the sender).
const HOST_QUEUE_BYTES: u64 = 1 << 30;

impl Network {
    /// Build a network from a topology, a configuration, and the protocol
    /// factory used for flows added with [`add_flow`](Self::add_flow).
    pub fn new(topo: Topology, cfg: NetConfig, factory: EndpointFactory) -> Network {
        let mut rng = Rng::new(cfg.seed);
        let mut ports = Vec::with_capacity(topo.dlinks.len());
        let mut events = EventQueue::new();
        for (i, l) in topo.dlinks.iter().enumerate() {
            let dlink = DLinkId(i as u32);
            let is_host_egress = matches!(l.from, NodeId::Host(_));
            let cap = if is_host_egress {
                HOST_QUEUE_BYTES
            } else {
                cfg.switch_queue_bytes
            };
            let mut data = DataQueue::new(cap);
            if !is_host_egress {
                if let Some(k) = cfg.ecn_k_bytes {
                    data.ecn = Some(EcnCfg { k_bytes: k });
                }
                if let Some((gamma, thresh)) = cfg.phantom {
                    data.phantom = Some(Box::new(PhantomQueue::new(
                        (l.speed_bps as f64 * gamma) as u64,
                        thresh,
                    )));
                }
            }
            let credit = cfg.credit.then(|| {
                let mut cq = CreditQueue::new(l.speed_bps, cfg.credit_queue_pkts);
                cq.drop_policy = cfg.credit_drop;
                cq
            });
            let rcp = if !is_host_egress {
                cfg.rcp.then(|| {
                    let state = RcpLink::new(l.speed_bps);
                    let first = state.update_interval();
                    events.push(SimTime::ZERO + first, Ev::RcpUpdate { dlink });
                    state
                })
            } else {
                None
            };
            ports.push(EgressPort::new(
                dlink,
                l.speed_bps,
                l.prop_delay,
                data,
                credit,
                rcp,
            ));
        }
        // Fork so per-run structural randomness is independent of traffic.
        let traffic_rng = rng.fork();
        let timers = TimerWheels::new(topo.n_hosts);
        let (ckpt, metrics) = run_ctx::register_network();
        Network {
            now: SimTime::ZERO,
            events,
            rng: traffic_rng,
            topo,
            cfg,
            ports,
            arena: FlowArena::new(),
            timers,
            factory,
            controller: None,
            pending: Vec::new(),
            completed: 0,
            faults: None,
            trace: None,
            invariants: None,
            ledger: None,
            watchdog: None,
            phase: "run",
            ckpt,
            ev_counts: [0; 7],
            wall_secs: 0.0,
            counters: Counters::default(),
            sampler: Sampler::new(metrics.map(|h| Box::new(MetricsState::new(h)))),
        }
    }

    // ----- construction-time API -------------------------------------------

    /// Add a flow; its endpoints are created from the network's factory and
    /// started at `start` (which must not be in the past).
    pub fn add_flow(
        &mut self,
        src: HostId,
        dst: HostId,
        size_bytes: u64,
        start: SimTime,
    ) -> FlowId {
        assert!(src != dst, "flow endpoints must differ");
        assert!(start >= self.now, "flow start in the past");
        let id = FlowId(self.arena.slot_count() as u32);
        let info = FlowInfo {
            id,
            src,
            dst,
            size_bytes,
            start,
        };
        let sender = (self.factory)(Side::Sender, &info);
        let receiver = (self.factory)(Side::Receiver, &info);
        self.arena.push(info, sender, receiver);
        self.events.push(start, Ev::FlowStart { flow: id });
        id
    }

    /// Install a run controller.
    pub fn set_controller(&mut self, c: Box<dyn Controller>) {
        self.controller = Some(c);
    }

    /// Install (or extend) a deterministic fault schedule. Events must not
    /// be in the past; they apply through the event loop at their scheduled
    /// times. Loss/corruption draws use a dedicated RNG seeded from the run
    /// seed, so runs with the same seed and plan replay bit-identically —
    /// and runs with no plan never touch the fault path at all.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        let n_dlinks = self.topo.dlinks.len();
        let n_hosts = self.topo.n_hosts;
        if self.faults.is_none() {
            let rng = Rng::new(self.cfg.seed ^ FAULT_RNG_SALT);
            self.faults = Some(FaultState::new(&self.topo, rng));
        }
        for ev in plan.events {
            assert!(ev.at >= self.now, "fault event scheduled in the past");
            match ev.kind {
                FaultKind::LinkDown { dlink, .. }
                | FaultKind::LinkUp { dlink }
                | FaultKind::SetLoss { dlink, .. }
                | FaultKind::SetCorrupt { dlink, .. } => {
                    assert!(
                        (dlink.0 as usize) < n_dlinks,
                        "fault on unknown dlink {dlink:?}"
                    );
                }
                FaultKind::HostPause { host } | FaultKind::HostResume { host } => {
                    assert!((host.0 as usize) < n_hosts, "fault on unknown host {host}");
                }
            }
            self.events.push(ev.at, Ev::Fault { kind: ev.kind });
        }
    }

    /// Install a trace sink; subsequent simulation activity is narrated to
    /// it as [`TraceEvent`]s. Replaces any previously installed sink.
    /// Tracing is purely observational: a run with a sink installed produces
    /// exactly the same counters and flow records as one without.
    pub fn install_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Remove and return the installed trace sink (flushed), e.g. to inspect
    /// a ring buffer after a run.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        let mut sink = self.trace.take();
        if let Some(s) = sink.as_deref_mut() {
            s.flush();
        }
        sink
    }

    /// True while a trace sink is installed. Endpoints use this to skip
    /// building trace events entirely when tracing is off.
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Record one event on the installed sink (no-op without one).
    #[inline]
    pub(crate) fn trace_emit(&mut self, ev: TraceEvent) {
        if let Some(sink) = self.trace.as_deref_mut() {
            sink.record(&ev);
        }
    }

    /// Install runtime invariant monitors (see [`crate::health`]). Checks
    /// run at every switch-egress data enqueue; violations become trace
    /// events (when a sink is installed) and accumulate in the
    /// [`HealthReport`]. Replaces any previously installed monitors.
    pub fn install_invariants(&mut self, spec: InvariantSpec) {
        let is_switch_egress = self
            .topo
            .dlinks
            .iter()
            .map(|l| matches!(l.from, NodeId::Switch(_)))
            .collect();
        self.invariants = Some(InvariantState::new(spec, is_switch_egress));
    }

    /// The invariant monitors' findings. `monitored == false` (and all
    /// counts zero) when [`install_invariants`](Self::install_invariants)
    /// was never called. When a conservation ledger is installed
    /// ([`install_ledger`](Self::install_ledger)) its snapshot rides along
    /// and an unbalanced ledger fails [`HealthReport::ok`].
    pub fn health_report(&self) -> HealthReport {
        let mut report = match self.invariants.as_ref() {
            Some(st) => st.report().clone(),
            None => HealthReport::default(),
        };
        if self.ledger.is_some() {
            report.ledger = Some(self.ledger_report());
        }
        report
    }

    /// Install the byte/packet conservation ledger (see [`crate::ledger`]).
    /// Must be called before the network runs: packets already in flight
    /// would never have been credited to the `emitted` account.
    pub fn install_ledger(&mut self) {
        assert_eq!(
            self.events.events_processed(),
            0,
            "install_ledger after the network ran"
        );
        self.ledger = Some(Ledger::default());
    }

    /// Conservation snapshot at the current instant. Panics when no ledger
    /// was installed; see [`LedgerReport::balanced`] for the invariant.
    pub fn ledger_report(&self) -> LedgerReport {
        let l = self.ledger.as_ref().expect("no ledger installed");
        let mut queued = LedgerEntry::default();
        for p in &self.ports {
            queued.pkts += p.data.len_pkts() as u64;
            queued.bytes += p.data.len_bytes();
            if let Some(cq) = p.credit.as_ref() {
                queued.pkts += cq.len() as u64;
                queued.bytes += cq.len_bytes();
            }
        }
        let stashed = self.faults.as_ref().map(FaultState::stashed);
        l.report(queued, stashed.unwrap_or_default())
    }

    /// Arm a hang/livelock watchdog (see [`xpass_sim::watchdog`]). The run
    /// loop observes it after every handled event and aborts on the first
    /// exceeded budget, leaving a diagnostic in
    /// [`watchdog_report`](Self::watchdog_report). Replaces any previous
    /// watchdog and clears a previous trip.
    pub fn install_watchdog(&mut self, spec: WatchdogSpec) {
        self.watchdog = Some(Watchdog::new(spec));
    }

    /// Label the current driver phase (e.g. `"warmup"`, `"drain"`) so a
    /// watchdog trip reports where the run was stuck.
    pub fn set_phase(&mut self, phase: &'static str) {
        self.phase = phase;
    }

    /// The first watchdog trip of this run, if any. `None` means the run
    /// (so far) stayed within every armed budget.
    pub fn watchdog_report(&self) -> Option<&WatchdogReport> {
        self.watchdog.as_ref()?.trip()
    }

    /// Engine profile of the run so far: events per kind, peak heap depth,
    /// and wall-clock throughput. Wall time is measured around the run
    /// loop and never feeds back into the simulation.
    pub fn engine_report(&self) -> EngineReport {
        EngineReport {
            events_processed: self.events.events_processed(),
            events_by_kind: EV_KIND_NAMES
                .iter()
                .zip(self.ev_counts.iter())
                .map(|(&n, &c)| (n, c))
                .collect(),
            peak_queue_len: self.events.peak_len(),
            wall_secs: self.wall_secs,
            sim_secs: self.now.as_secs_f64(),
            scheduler: self.events.scheduler().name(),
            bucket_bits: self.events.bucket_bits(),
        }
    }

    /// Entry slots the event queue currently has allocated (see
    /// [`EventQueue::capacity`]) — a memory diagnostic kept out of
    /// [`EngineReport`], whose JSON is byte-compared across runs.
    pub fn event_queue_capacity(&self) -> usize {
        self.events.capacity()
    }

    /// Enable periodic sampling with this interval (required before
    /// [`track_flow`](Self::track_flow) / [`track_port`](Self::track_port)).
    pub fn set_sample_interval(&mut self, interval: Dur) {
        self.sampler
            .set_interval(interval, self.now, &mut self.events);
    }

    /// Record this flow's delivered throughput (Gbps) every sample interval.
    pub fn track_flow(&mut self, flow: FlowId) {
        self.sampler.track_flow(flow);
    }

    /// Record this port's data-queue depth (bytes) every sample interval.
    pub fn track_port(&mut self, dlink: DLinkId) {
        self.sampler.track_port(dlink);
    }

    // ----- run API ----------------------------------------------------------

    /// Process events until (and including) time `t`; leaves `now == t` —
    /// unless an installed watchdog trips, in which case the loop aborts at
    /// the tripping event (see [`watchdog_report`](Self::watchdog_report)).
    pub fn run_until(&mut self, t: SimTime) {
        self.run_loop(t, false);
    }

    /// Run until every flow added so far (and any added by controllers
    /// during the run) settles — completes or is aborted by its endpoint —
    /// or until `cap`. Returns the time the last flow settled (or `cap`).
    /// An event due after `cap` stays queued for the next run call.
    pub fn run_until_done(&mut self, cap: SimTime) -> SimTime {
        self.run_loop(cap, true)
    }

    /// The event loop behind both run calls: pop every event due at or
    /// before `limit` and handle it — stopping early, when `until_settled`,
    /// once every live flow has settled. Returns `limit` when the loop ran
    /// up to it, the tripping instant when the watchdog aborts, and
    /// otherwise (`until_settled` only: all flows settled, or the queue ran
    /// dry with `now` left at the last event) the time of the last settle.
    fn run_loop(&mut self, limit: SimTime, until_settled: bool) -> SimTime {
        if self.ckpt.is_some() {
            self.ckpt_enter_run();
        }
        if self.watchdog_report().is_some() {
            return self.now; // a previous trip already aborted this run
        }
        let wall = std::time::Instant::now();
        let mut last_done = self.now;
        let end = loop {
            if until_settled && self.settled() >= self.arena.slot_count() {
                break last_done;
            }
            let Some((et, ev)) = self.events.pop_before(limit) else {
                // A pending series point holds a queue position, and keeps
                // the run going to `limit` as a queued event would.
                if until_settled && self.events.is_empty() && !self.sampler.is_pending() {
                    break last_done;
                }
                if limit >= self.sampler.next_due {
                    self.sample_due(limit, true);
                }
                // After a resume overlay `now` may already be past `limit`;
                // never rewind simulation time.
                if limit > self.now {
                    self.now = limit;
                }
                // Everything due by `limit` has run — so has every reserved
                // position up to it that was never filled.
                self.events.advance_to(limit);
                break limit;
            };
            if et >= self.sampler.next_due {
                self.sample_due(et, false);
            }
            if self.events.events_processed() & WALL_CHECK_MASK == 0 {
                self.publish_metrics(false);
            }
            self.prefetch_ahead();
            self.now = et;
            let settled = self.settled();
            self.handle(ev);
            if self.settled() > settled {
                last_done = et;
            }
            if self.watchdog.is_some() && self.watchdog_tripped() {
                break et;
            }
            if self.ckpt.as_ref().is_some_and(|h| h.due(et)) {
                self.write_checkpoint();
            }
        };
        self.wall_secs += wall.elapsed().as_secs_f64();
        self.publish_metrics(true);
        end
    }

    /// Count this run call on the checkpoint hook; when an armed resume
    /// image recorded this exact call, overlay the saved network state
    /// before any event is processed.
    fn ckpt_enter_run(&mut self) {
        let Some(hook) = self.ckpt.as_mut() else {
            return;
        };
        let Some(state) = hook.on_run_call() else {
            return;
        };
        if let Err(e) = self.restore_from(&state) {
            // The envelope CRC already vouched for the bytes, so a decode
            // failure means the snapshot does not match this scenario or
            // binary — not something the run can recover from.
            panic!("snapshot restore failed: {e}");
        }
        let now = self.now;
        if let Some(hook) = self.ckpt.as_mut() {
            hook.after_restore(now);
        }
    }

    /// Write a snapshot immediately, ignoring the periodic cadence; a
    /// no-op unless checkpointing is installed. The service driver calls
    /// this on graceful shutdown so SIGINT/SIGTERM always leave a fresh
    /// resume point. Call only between run calls (never mid-event).
    pub fn checkpoint_now(&mut self) {
        if self.ckpt.is_some() {
            self.write_checkpoint();
        }
    }

    /// Serialize the full network state and hand it to the checkpoint hook
    /// for an atomic write. Called between events, where no endpoint is
    /// checked out and lifecycle notifications have been flushed.
    fn write_checkpoint(&mut self) {
        let Some(mut hook) = self.ckpt.take() else {
            return;
        };
        let mut w = SnapWriter::new();
        self.snapshot_into(&mut w);
        hook.write(self.now, w.into_body());
        self.ckpt = Some(hook);
    }

    /// Observe one handled event on the installed watchdog; on a trip,
    /// file the diagnostic report with it and tell the run loop to abort.
    /// Only called with a watchdog installed.
    fn watchdog_tripped(&mut self) -> bool {
        let wd = self.watchdog.as_mut().expect("watchdog check without one");
        let Some(reason) = wd.observe(self.now) else {
            return false;
        };
        let (mut hot, mut hot_count) = (0usize, 0u64);
        for (i, &c) in self.ev_counts.iter().enumerate() {
            if c > hot_count {
                hot = i;
                hot_count = c;
            }
        }
        wd.record_trip(WatchdogReport {
            reason,
            at: self.now,
            events_observed: wd.events_observed(),
            queue_len: self.events.len(),
            phase: self.phase,
            hottest_event: EV_KIND_NAMES[hot],
            hottest_count: hot_count,
        });
        true
    }

    /// Finalize time-weighted statistics at the current time. Call once
    /// after the run, before reading port occupancy stats.
    pub fn finish_stats(&mut self) {
        let now = self.now;
        for p in &mut self.ports {
            p.data.stats.occupancy.finish(now);
        }
    }

    // ----- inspection API ---------------------------------------------------

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The run RNG (also used by endpoints through `Ctx`).
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// The topology.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// The network configuration.
    pub fn cfg(&self) -> &NetConfig {
        &self.cfg
    }

    /// Global counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Egress port state (queue stats, byte counters).
    pub fn port(&self, dlink: DLinkId) -> &EgressPort {
        &self.ports[dlink.0 as usize]
    }

    /// All egress ports.
    pub fn ports(&self) -> &[EgressPort] {
        &self.ports
    }

    /// Enable inter-credit-gap collection on one port (Fig 6b / Fig 14b).
    pub fn collect_credit_gaps(&mut self, dlink: DLinkId) {
        self.ports[dlink.0 as usize].collect_credit_gaps();
    }

    /// Collected inter-credit gaps of a port, if enabled.
    pub fn credit_gaps_mut(
        &mut self,
        dlink: DLinkId,
    ) -> Option<&mut xpass_sim::stats::Percentiles> {
        self.ports[dlink.0 as usize]
            .credit_gaps
            .as_deref_mut()
            .map(|(_, p)| p)
    }

    /// Number of flows added so far, by setup or during the run: a flow
    /// keeps its slot for the whole run.
    pub fn flow_count(&self) -> usize {
        self.arena.slot_count()
    }

    /// The flow arena.
    pub fn arena(&self) -> &FlowArena {
        &self.arena
    }

    /// Number of completed flows.
    pub fn completed_count(&self) -> usize {
        self.completed
    }

    /// Flow facts.
    pub fn flow_info(&self, flow: FlowId) -> &FlowInfo {
        self.arena.info(flow)
    }

    /// Bytes delivered so far for a flow.
    pub fn delivered_bytes(&self, flow: FlowId) -> u64 {
        self.arena.rx_bytes(flow)
    }

    /// True once a flow completed.
    pub fn flow_done(&self, flow: FlowId) -> bool {
        self.arena.is_done(flow)
    }

    /// Number of aborted flows.
    pub fn aborted_count(&self) -> usize {
        self.counters.flows_aborted as usize
    }

    /// Flows that completed or were aborted.
    #[inline]
    fn settled(&self) -> usize {
        self.completed + self.aborted_count()
    }

    /// True once a flow's endpoint aborted it.
    pub fn flow_aborted(&self, flow: FlowId) -> bool {
        self.arena.is_aborted(flow)
    }

    /// Per-flow outcome records, in flow-id order.
    pub fn flow_records(&self) -> Vec<FlowRecord> {
        self.arena
            .ids()
            .map(|f| {
                let info = self.arena.info(f);
                let flags = self.arena.flags(f);
                FlowRecord {
                    id: info.id,
                    src: info.src,
                    dst: info.dst,
                    size_bytes: info.size_bytes,
                    start: info.start,
                    fct: self.arena.fct(f),
                    outcome: if flags & FLAG_DONE != 0 {
                        Some(FlowOutcome::Completed)
                    } else if flags & FLAG_ABORTED != 0 {
                        Some(FlowOutcome::Aborted)
                    } else if flags & FLAG_STALLED != 0 {
                        Some(FlowOutcome::Stalled)
                    } else {
                        None
                    },
                }
            })
            .collect()
    }

    /// Throughput time series of a tracked flow.
    pub fn flow_series(&self, flow: FlowId) -> Option<&TimeSeries> {
        self.sampler.flow_series(flow)
    }

    /// Queue-depth time series of a tracked port.
    pub fn port_series(&self, dlink: DLinkId) -> Option<&TimeSeries> {
        self.sampler.port_series(dlink)
    }

    /// Maximum data-queue depth over all switch egress ports, in bytes.
    pub fn max_switch_queue_bytes(&self) -> u64 {
        self.ports
            .iter()
            .filter(|p| matches!(self.topo.dlinks[p.dlink.0 as usize].from, NodeId::Switch(_)))
            .map(|p| p.data.stats.occupancy.max() as u64)
            .max()
            .unwrap_or(0)
    }

    /// Sum of data drops across all ports.
    pub fn total_data_drops(&self) -> u64 {
        self.ports.iter().map(|p| p.data.stats.dropped).sum()
    }

    /// The wake position `dlink`'s port holds without having queued it —
    /// reserved because the wake would be a no-op — while it is still to
    /// come, so that an enqueue may yet fill it.
    pub fn reserved_wake(&self, dlink: DLinkId) -> Option<WakeSlot> {
        let w = self.ports[dlink.0 as usize].wake?;
        (!w.queued && self.events.is_ahead(w.at, w.seq)).then_some(w)
    }

    /// Sum of credit drops across all ports.
    pub fn total_credit_drops(&self) -> u64 {
        self.counters.credits_dropped
    }

    /// Invoke a closure on one endpoint with a live context (used by the
    /// ideal-rate oracle to push rate changes).
    pub fn poke(
        &mut self,
        flow: FlowId,
        side: Side,
        f: impl FnOnce(&mut dyn Endpoint, &mut Ctx<'_>),
    ) {
        self.dispatch(flow, side, |ep, ctx| f(ep.as_mut(), ctx));
    }

    // ----- endpoint-facing internals (called via Ctx) -----------------------

    pub(crate) fn host_link_bps(&self, host: HostId) -> u64 {
        let dl = self.topo.host_uplink[host.0 as usize];
        self.topo.dlinks[dl.0 as usize].speed_bps
    }

    /// Is this host currently frozen by an injected `HostPause` fault?
    pub fn host_paused(&self, host: HostId) -> bool {
        self.faults.as_ref().is_some_and(|st| st.paused(host))
    }

    pub(crate) fn host_emit(&mut self, pkt: Packet) {
        if let Some(l) = self.ledger.as_mut() {
            l.emit(pkt.size);
        }
        if pkt.kind == PktKind::Credit {
            self.counters.credits_sent += 1;
            if self.trace.is_some() {
                let ev = TraceEvent::CreditSent {
                    at: self.now,
                    flow: pkt.flow.0,
                    seq: pkt.seq,
                };
                self.trace_emit(ev);
            }
        }
        if self.faults.as_mut().is_some_and(|st| st.stashes_tx(&pkt)) {
            return;
        }
        let dl = self.topo.host_uplink[pkt.src.0 as usize];
        self.enqueue_at(dl, pkt);
    }

    /// The host a flow's `side` endpoint lives on (sender → src, receiver
    /// → dst): whose generation counter its timers use.
    #[inline]
    fn timer_host(&self, flow: FlowId, side: Side) -> HostId {
        let info = self.arena.info(flow);
        match side {
            Side::Sender => info.src,
            Side::Receiver => info.dst,
        }
    }

    pub(crate) fn arm_timer(&mut self, flow: FlowId, side: Side, kind: u8, delay: Dur) -> u64 {
        let (gen, expiry, seq) = self.reserve_timer(flow, side, delay);
        self.queue_timer(flow, side, kind, gen, expiry, seq);
        gen
    }

    /// First half of [`arm_timer`](Self::arm_timer): mint the generation
    /// and reserve the queue position, queueing nothing. Returns
    /// `(gen, expiry, seq)`; [`queue_timer`](Self::queue_timer) may fill
    /// the position later, or nothing ever does.
    pub(crate) fn reserve_timer(
        &mut self,
        flow: FlowId,
        side: Side,
        delay: Dur,
    ) -> (u64, SimTime, u64) {
        let host = self.timer_host(flow, side);
        let expiry = self.now + delay;
        let gen = self.timers.arm(host, self.now, expiry);
        (gen, expiry, self.events.reserve_seq())
    }

    /// Second half of [`arm_timer`](Self::arm_timer): queue the timer
    /// event of an arming at the position
    /// [`reserve_timer`](Self::reserve_timer) gave it.
    pub(crate) fn queue_timer(
        &mut self,
        flow: FlowId,
        side: Side,
        kind: u8,
        gen: u64,
        expiry: SimTime,
        seq: u64,
    ) {
        let ev = Ev::Timer {
            flow,
            host: self.timer_host(flow, side),
            side,
            kind,
            gen,
        };
        self.events.push_reserved(expiry, seq, ev);
    }

    /// Key of the event being handled (test support: where a firing sits).
    /// The queue's horizon is just past it, so its sequence number is the
    /// last one at `now` that is no longer ahead.
    #[cfg(test)]
    pub(crate) fn current_event_key(&self) -> (SimTime, u64) {
        let (mut gone, mut ahead) = (0, u64::MAX);
        while ahead - gone > 1 {
            let mid = gone + (ahead - gone) / 2;
            if self.events.is_ahead(self.now, mid) {
                ahead = mid;
            } else {
                gone = mid;
            }
        }
        (self.now, gone)
    }

    pub(crate) fn deliver(&mut self, flow: FlowId, bytes: u64) {
        self.counters.payload_delivered += bytes;
        let rx = self.arena.add_rx_bytes(flow, bytes);
        if !self.arena.is_done(flow) && rx >= self.arena.info(flow).size_bytes {
            self.arena.set_flag(flow, FLAG_DONE, true);
            let fct = self.now.since(self.arena.info(flow).start);
            self.arena.set_fct(flow, fct);
            self.completed += 1;
            self.pending.push(Pending::Completed(flow));
            if let Some(m) = self.sampler.metrics.as_mut() {
                m.observe_fct(fct.as_secs_f64());
            }
            if self.trace.is_some() {
                let ev = TraceEvent::FlowCompleted {
                    at: self.now,
                    flow: flow.0,
                    fct_ps: fct.as_ps(),
                };
                self.trace_emit(ev);
            }
        }
    }

    pub(crate) fn count_wasted_credit(&mut self, flow: FlowId) {
        self.counters.credits_wasted += 1;
        if self.trace.is_some() {
            let ev = TraceEvent::CreditWasted {
                at: self.now,
                flow: flow.0,
            };
            self.trace_emit(ev);
        }
    }

    pub(crate) fn abort_flow(&mut self, flow: FlowId) {
        if self.arena.flags(flow) & (FLAG_DONE | FLAG_ABORTED) != 0 {
            return;
        }
        self.arena.set_flag(flow, FLAG_ABORTED, true);
        self.counters.flows_aborted += 1;
        if self.trace.is_some() {
            let ev = TraceEvent::FlowAborted {
                at: self.now,
                flow: flow.0,
            };
            self.trace_emit(ev);
        }
    }

    pub(crate) fn mark_stalled(&mut self, flow: FlowId, stalled: bool) {
        let changed = self.arena.flags(flow) & (FLAG_DONE | FLAG_ABORTED) == 0
            && self.arena.set_flag(flow, FLAG_STALLED, stalled);
        if changed && self.trace.is_some() {
            let ev = TraceEvent::FlowStalled {
                at: self.now,
                flow: flow.0,
                stalled,
            };
            self.trace_emit(ev);
        }
    }

    // ----- event handling ----------------------------------------------------

    /// Dispatch one popped event. Called from the run loop alone, so it
    /// inlines there and the event (with its packet) is consumed where the
    /// pop left it instead of being moved into a callee's frame first.
    #[inline]
    fn handle(&mut self, ev: Ev) {
        self.ev_counts[ev_kind_idx(&ev)] += 1;
        match ev {
            Ev::Arrive { dlink, pkt } => self.on_arrive(dlink, pkt),
            Ev::PortWake { dlink } => self.port_wake(dlink),
            Ev::HostRx { pkt } => self.on_host_rx(pkt),
            Ev::Timer {
                flow,
                side,
                kind,
                gen,
                ..
            } => self.dispatch(flow, side, |ep, ctx| ep.on_timer(kind, gen, ctx)),
            Ev::FlowStart { flow } => {
                if self.trace.is_some() {
                    let info = self.arena.info(flow);
                    let ev = TraceEvent::FlowStarted {
                        at: self.now,
                        flow: flow.0,
                        size_bytes: info.size_bytes,
                    };
                    self.trace_emit(ev);
                }
                self.dispatch(flow, Side::Receiver, |ep, ctx| ep.on_start(ctx));
                self.dispatch(flow, Side::Sender, |ep, ctx| ep.on_start(ctx));
                self.pending.push(Pending::Started(flow));
                self.flush_pending();
            }
            Ev::RcpUpdate { dlink } => {
                let port = &mut self.ports[dlink.0 as usize];
                if let Some(rcp) = port.rcp.as_mut() {
                    rcp.update(self.now, port.data.len_bytes());
                    let next = rcp.update_interval();
                    self.events.push(self.now + next, Ev::RcpUpdate { dlink });
                }
            }
            Ev::Fault { kind } => self.apply_fault(kind),
        }
    }

    /// Apply one scheduled fault event (only reachable with a plan installed).
    fn apply_fault(&mut self, kind: FaultKind) {
        self.counters.faults_injected += 1;
        let now = self.now;
        if self.trace.is_some() {
            let ev = TraceEvent::FaultApplied {
                at: now,
                desc: format!("{kind:?}"),
            };
            self.trace_emit(ev);
        }
        let st = self.faults.as_mut().expect("Ev::Fault without fault state");
        match st.apply(kind, &self.topo) {
            Effect::None => {}
            Effect::Flush(dlink) => {
                let (pkts, bytes) = self.ports[dlink.0 as usize].flush(now);
                self.book_loss(Loss::Fault, pkts, bytes);
            }
            Effect::Wake(dlink) => self.events.push(now, Ev::PortWake { dlink }),
            Effect::Replay { rx, tx } => {
                for pkt in rx {
                    if let Some(l) = self.ledger.as_mut() {
                        l.flight_begin(pkt.size); // leaves the stash account
                    }
                    self.events.push(now, Ev::HostRx { pkt });
                }
                for pkt in tx {
                    let dl = self.topo.host_uplink[pkt.src.0 as usize];
                    self.enqueue_at(dl, pkt);
                }
            }
        }
    }

    /// Book `pkts` lost packets of `bytes` wire bytes: the one place that
    /// moves a loss counter or a ledger loss account.
    #[inline]
    fn book_loss(&mut self, loss: Loss, pkts: u64, bytes: u64) {
        let c = &mut self.counters;
        match loss {
            Loss::CreditQueue => c.credits_dropped += pkts,
            Loss::DataQueue => c.data_dropped += pkts,
            Loss::CtrlQueue => {}
            Loss::Fault => c.pkts_lost_to_faults += pkts,
            Loss::Corrupt => c.pkts_corrupted += pkts,
        }
        if let Some(l) = self.ledger.as_mut() {
            l.lose(loss, pkts, bytes);
        }
    }

    fn on_arrive(&mut self, dlink: DLinkId, pkt: Packet) {
        if let Some(l) = self.ledger.as_mut() {
            l.flight_end(pkt.size); // off the wire; refiled below by fate
        }
        let faults = self.faults.as_mut();
        if let Some(loss) = faults.and_then(|st| st.arrival(dlink, pkt.kind)) {
            return self.book_loss(loss, 1, pkt.size as u64);
        }
        let to = self.topo.dlinks[dlink.0 as usize].to;
        match to {
            NodeId::Switch(sw) => {
                let choices = self.topo.route_choices(sw, pkt.dst);
                assert!(
                    !choices.is_empty(),
                    "switch {sw} has no route to {}",
                    pkt.dst
                );
                // Routing excludes dead links: the fault layer's live
                // routes change at each link up/down event — next-Arrive
                // granularity, like a switch reacting to loss-of-signal —
                // and ECMP re-hashes over the survivors. Without a fault
                // plan the base slice is used directly.
                let live = match self.faults.as_ref() {
                    Some(st) => st.route_choices(&self.topo, sw, pkt.dst),
                    None => choices,
                };
                if live.is_empty() {
                    return self.book_loss(Loss::Fault, 1, pkt.size as u64);
                }
                let idx = match self.cfg.routing {
                    RoutingMode::EcmpSymmetric => {
                        ecmp_index(pkt.src, pkt.dst, pkt.flow, live.len())
                    }
                    RoutingMode::PacketSpray => self.rng.index(live.len()),
                };
                let out = live[idx];
                self.enqueue_at(out, pkt);
            }
            NodeId::Host(h) => {
                debug_assert_eq!(h, pkt.dst, "packet delivered to wrong host");
                let d = self
                    .rng
                    .range_dur(self.cfg.host_delay.min, self.cfg.host_delay.max);
                if let Some(l) = self.ledger.as_mut() {
                    l.flight_begin(pkt.size); // host processing delay
                }
                self.events.push(self.now + d, Ev::HostRx { pkt });
            }
        }
    }

    fn enqueue_at(&mut self, dlink: DLinkId, pkt: Packet) {
        let now = self.now;
        let faults = self.faults.as_ref();
        let admit = faults.map_or(Admit::Open, |st| st.admit(dlink));
        if admit == Admit::Dead {
            return self.book_loss(Loss::Fault, 1, pkt.size as u64);
        }
        let tracing = self.trace.is_some();
        let (kind, flow, bytes) = (pkt.kind, pkt.flow.0, pkt.size);
        let rng = &mut self.rng;
        let port = &mut self.ports[dlink.0 as usize];
        let (accepted, qlen_bytes, newly_marked) = if kind == PktKind::Credit {
            let cq = port
                .credit
                .as_mut()
                .expect("credit packet on a network without credit queues");
            let out = cq.enqueue(now, pkt, rng);
            // Occupancy for the credit class is in packets, not bytes.
            let qlen = if tracing { cq.len() as u64 } else { 0 };
            if let Some(victim_bytes) = out.dropped_bytes {
                // The victim may be an evicted resident of a different
                // size than the arrival; charge the actual bytes lost.
                self.book_loss(Loss::CreditQueue, 1, victim_bytes as u64);
            }
            (out.dropped_bytes.is_none(), qlen, false)
        } else {
            let out = port.data.enqueue(now, pkt);
            if !out.accepted {
                let loss = if kind == PktKind::Data {
                    Loss::DataQueue
                } else {
                    Loss::CtrlQueue
                };
                self.book_loss(loss, 1, bytes as u64);
            } else if out.newly_marked {
                self.counters.ecn_marked += 1;
            }
            (out.accepted, out.qlen_bytes, out.newly_marked)
        };
        if tracing {
            // A refused credit may have evicted a random resident instead
            // of itself; the trace charges the arrival's identity either way.
            let (at, class) = (now, kind.trace_class());
            let ev = if accepted {
                TraceEvent::PktEnqueue {
                    at,
                    dlink: dlink.0,
                    class,
                    flow,
                    bytes,
                    qlen_bytes,
                }
            } else {
                TraceEvent::PktDrop {
                    at,
                    dlink: dlink.0,
                    class,
                    flow,
                    bytes,
                }
            };
            self.trace_emit(ev);
            if newly_marked {
                let ev = TraceEvent::EcnMark {
                    at,
                    dlink: dlink.0,
                    flow,
                    qlen_bytes,
                };
                self.trace_emit(ev);
            }
        }
        if kind == PktKind::Data {
            if let Some(inv) = self.invariants.as_mut() {
                if inv.is_switch_egress[dlink.0 as usize] {
                    let violation = if accepted {
                        inv.on_switch_data_enqueue(now, dlink.0, qlen_bytes)
                    } else {
                        inv.on_switch_data_drop(now, dlink.0, bytes)
                    };
                    if let Some(ev) = violation {
                        if let Some(m) = self.sampler.metrics.as_mut() {
                            m.note_health_violation();
                        }
                        if let Some(sink) = self.trace.as_mut() {
                            sink.record(&ev);
                        }
                    }
                }
            }
        }
        let port = &mut self.ports[dlink.0 as usize];
        // A wake this port holds only a reservation for may have work now:
        // queue it where it was reserved — even on a frozen link, whose
        // backlog must find the wake ending its transmission once `LinkUp`
        // comes. A position already gone by is one where the wake would
        // have done nothing; the wake below serves this packet instead.
        if let Some(w) = port.wake.filter(|w| !w.queued) {
            if !self.events.is_ahead(w.at, w.seq) {
                port.wake = None;
            } else if !port.idle_at(w.at) {
                self.events
                    .push_reserved(w.at, w.seq, Ev::PortWake { dlink });
                port.wake = Some(WakeSlot { queued: true, ..w });
            }
        }
        if admit == Admit::Open && !port.is_busy(now) {
            self.wake_now(dlink);
        }
    }

    /// The wake an enqueue onto idle port `dlink` asks for, at `(now,
    /// seq)` with `seq` the next sequence number — taken, and queued only
    /// when it may act. Every wake that is queued keeps the `(time, seq)`
    /// an eager push would have given it. Without a fault plan two kinds
    /// of wake are left out:
    ///
    /// - One behind a same-instant wake of this port that is still ahead:
    ///   it only takes its sequence number. With data queued that earlier
    ///   wake is queued and transmits (data leaves a queue only on the
    ///   wire), so this one finds the transmitter busy. At a switch, an
    ///   earlier wake asked for at this instant settles the port — it
    ///   sends, or leaves only credits waiting on a pending meter wake —
    ///   and nothing else changes the port before this one: only
    ///   arrivals enqueue there, and an arrival at `now` was queued at an
    ///   earlier instant, so ahead of both. (A host's uplink also takes
    ///   packets from timers and deliveries queued for `now` itself, which
    ///   may sit between the two.)
    /// - One that would be a no-op ([`EgressPort::idle_at`]): its position
    ///   is reserved and [`enqueue_at`](Self::enqueue_at) fills it when a
    ///   later enqueue, still ahead of it, gives it work.
    ///
    /// With a fault plan, whose flushes and link state change a port
    /// outside `enqueue_at`, every wake is queued.
    fn wake_now(&mut self, dlink: DLinkId) {
        let now = self.now;
        let faults = self.faults.is_some();
        let port = &mut self.ports[dlink.0 as usize];
        let ahead = port
            .wake
            .filter(|w| w.at == now && self.events.is_ahead(now, w.seq));
        if let Some(w) = ahead {
            let behind = (w.queued && !port.data.is_empty())
                || (w.same_instant
                    && matches!(self.topo.dlinks[dlink.0 as usize].from, NodeId::Switch(_)));
            if behind && !faults {
                self.events.reserve_seq();
                return;
            }
            // Superseded below: a reservation must not be forgotten.
            if !w.queued {
                self.events
                    .push_reserved(now, w.seq, Ev::PortWake { dlink });
            }
        }
        let seq = self.events.reserve_seq();
        let queued = faults || !port.idle_at(now);
        if queued {
            self.events.push_reserved(now, seq, Ev::PortWake { dlink });
        }
        port.wake = Some(WakeSlot {
            at: now,
            seq,
            queued,
            same_instant: true,
        });
    }

    fn port_wake(&mut self, dlink: DLinkId) {
        if self.faults.as_ref().is_some_and(|st| st.tx_down(dlink)) {
            return; // downed transmitter; LinkUp re-wakes it
        }
        let now = self.now;
        let port = &mut self.ports[dlink.0 as usize];
        match port.try_transmit(now, self.trace.as_deref_mut()) {
            TxDecision::Transmit(pkt) => {
                let done = port.tx_done_at();
                let prop = port.prop_delay;
                if let Some(l) = self.ledger.as_mut() {
                    l.flight_begin(pkt.size); // leaves the queue, on the wire
                }
                self.events.push(done + prop, Ev::Arrive { dlink, pkt });
                // The wake at `done` has work only if something is queued
                // by then. With both queues drained, keep its position and
                // let `enqueue_at` fill it if a packet does turn up. Any
                // same-instant wake held before is a no-op now: the
                // transmitter is busy for the rest of this instant.
                let seq = self.events.reserve_seq();
                let queued = !port.idle_at(done);
                if queued {
                    self.events.push_reserved(done, seq, Ev::PortWake { dlink });
                }
                port.wake = Some(WakeSlot {
                    at: done,
                    seq,
                    queued,
                    same_instant: false,
                });
            }
            TxDecision::WaitUntil(t) => {
                self.events.push(t, Ev::PortWake { dlink });
            }
            TxDecision::Idle => {}
        }
    }

    fn on_host_rx(&mut self, pkt: Packet) {
        if let Some(l) = self.ledger.as_mut() {
            l.flight_end(pkt.size);
        }
        if self.faults.as_mut().is_some_and(|st| st.stashes_rx(&pkt)) {
            return; // accounted in the stash snapshot
        }
        // Absorbed at its terminal host from here on, whether or not the
        // flow still exists to consume it.
        if let Some(l) = self.ledger.as_mut() {
            l.deliver(pkt.size);
        }
        if let Some(side) = self.rx_side(&pkt) {
            self.dispatch(pkt.flow, side, |ep, ctx| ep.on_packet(&pkt, ctx));
        }
    }

    /// Which endpoint of its flow a packet arriving at its destination
    /// host is for; `None` when no such flow exists to consume it.
    #[inline]
    fn rx_side(&self, pkt: &Packet) -> Option<Side> {
        if !self.arena.contains(pkt.flow) {
            return None;
        }
        Some(if pkt.dst == self.arena.info(pkt.flow).src {
            Side::Sender
        } else {
            Side::Receiver
        })
    }

    /// Take the endpoint out, run the callback with a context, put it back,
    /// then deliver any lifecycle notifications to the controller.
    fn dispatch(
        &mut self,
        flow: FlowId,
        side: Side,
        f: impl FnOnce(&mut Box<dyn Endpoint>, &mut Ctx<'_>),
    ) {
        let Some(mut ep) = self.arena.take_endpoint(flow, side) else {
            return; // re-entrant dispatch on the same endpoint: drop silently
        };
        {
            let mut ctx = Ctx {
                net: self,
                flow,
                side,
            };
            f(&mut ep, &mut ctx);
        }
        self.arena.put_endpoint(flow, side, ep);
        self.flush_pending();
    }

    fn flush_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let Some(mut c) = self.controller.take() else {
            self.pending.clear();
            return;
        };
        while let Some(p) = self.pending.pop() {
            match p {
                Pending::Started(f) => c.on_flow_start(self, f),
                Pending::Completed(f) => c.on_flow_complete(self, f),
            }
        }
        self.controller = Some(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HostDelayModel;
    use crate::endpoint::Endpoint;
    use crate::packet::{ctrl, PktKind, CTRL_SIZE};
    use std::any::Any;
    use std::cell::RefCell;
    use std::rc::Rc;
    use xpass_sim::time::tx_time;
    use xpass_sim::time::Dur;

    const G10: u64 = 10_000_000_000;

    /// A scripted endpoint that records everything it sees.
    struct Probe {
        log: Rc<RefCell<Vec<String>>>,
        side: &'static str,
        echo_data: bool,
    }

    impl Endpoint for Probe {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.log.borrow_mut().push(format!("{}:start", self.side));
            if self.side == "tx" {
                // Send one 1000B data packet and a ctrl packet.
                let mut p = ctx.make_pkt(PktKind::Data, 1078);
                p.payload = 1000;
                p.seq = 0;
                ctx.send(p);
                let mut c = ctx.make_pkt(PktKind::Ctrl, CTRL_SIZE);
                c.flag = ctrl::SYN;
                ctx.send(c);
                ctx.arm_timer(7, Dur::us(50));
            }
        }

        fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx<'_>) {
            self.log
                .borrow_mut()
                .push(format!("{}:pkt:{:?}:{}", self.side, pkt.kind, pkt.seq));
            if self.side == "rx" && pkt.kind == PktKind::Data && self.echo_data {
                ctx.deliver(pkt.payload as u64);
            }
        }

        fn on_timer(&mut self, kind: u8, _gen: u64, _ctx: &mut Ctx<'_>) {
            self.log
                .borrow_mut()
                .push(format!("{}:timer:{kind}", self.side));
        }

        fn as_any(&mut self) -> &mut dyn Any {
            self
        }

        fn persist(&mut self, _io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
            Ok(())
        }
    }

    fn probe_net(log: Rc<RefCell<Vec<String>>>) -> Network {
        probe_net_with(NetConfig::default(), log)
    }

    /// [`probe_net`] under another configuration.
    fn probe_net_with(cfg: NetConfig, log: Rc<RefCell<Vec<String>>>) -> Network {
        let topo = crate::topology::Topology::dumbbell(1, G10, Dur::us(1));
        let mut cfg = cfg.with_seed(1);
        cfg.host_delay = HostDelayModel {
            min: Dur::us(1),
            max: Dur::us(1),
        };
        let l2 = log.clone();
        Network::new(
            topo,
            cfg,
            Box::new(move |side, _info| {
                Box::new(Probe {
                    log: l2.clone(),
                    side: match side {
                        Side::Sender => "tx",
                        Side::Receiver => "rx",
                    },
                    echo_data: true,
                })
            }),
        )
    }

    #[test]
    fn lifecycle_start_deliver_timer() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut net = probe_net(log.clone());
        let f = net.add_flow(HostId(0), HostId(1), 1000, SimTime::ZERO + Dur::us(5));
        net.run_until(SimTime::ZERO + Dur::ms(1));
        let entries = log.borrow().clone();
        // Both sides started; receiver saw data then ctrl; timer fired.
        assert!(entries.contains(&"tx:start".to_string()));
        assert!(entries.contains(&"rx:start".to_string()));
        assert!(entries.iter().any(|e| e.starts_with("rx:pkt:Data")));
        assert!(entries.iter().any(|e| e.starts_with("rx:pkt:Ctrl")));
        assert!(entries.contains(&"tx:timer:7".to_string()));
        // The 1000-byte delivery completed the flow.
        assert!(net.flow_done(f));
        assert_eq!(net.completed_count(), 1);
    }

    #[test]
    fn start_order_receiver_before_sender() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut net = probe_net(log.clone());
        net.add_flow(HostId(0), HostId(1), 1000, SimTime::ZERO);
        net.run_until(SimTime::ZERO + Dur::us(1));
        let entries = log.borrow().clone();
        let rx = entries.iter().position(|e| e == "rx:start").unwrap();
        let tx = entries.iter().position(|e| e == "tx:start").unwrap();
        assert!(rx < tx, "receiver must be started before the sender");
    }

    #[test]
    fn data_and_ctrl_keep_fifo_order_on_one_path() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut net = probe_net(log.clone());
        net.add_flow(HostId(0), HostId(1), 1_000_000, SimTime::ZERO);
        net.run_until(SimTime::ZERO + Dur::ms(1));
        let entries = log.borrow().clone();
        let d = entries
            .iter()
            .position(|e| e.starts_with("rx:pkt:Data"))
            .unwrap();
        let c = entries
            .iter()
            .position(|e| e.starts_with("rx:pkt:Ctrl"))
            .unwrap();
        // Data was sent first and both share the FIFO data class: with
        // deterministic host delay the ctrl packet cannot overtake.
        assert!(d < c);
    }

    #[test]
    fn stale_timer_firings_are_suppressed_by_generation() {
        use crate::endpoint::TimerSlot;

        /// Sender that arms the same [`TimerSlot`] twice in `on_start`
        /// (re-arming before the first firing), then logs which firings
        /// the slot accepts. The first generation is stale by the time it
        /// fires and must be ignored.
        struct Rearm {
            log: Rc<RefCell<Vec<String>>>,
            slot: TimerSlot,
        }
        impl Endpoint for Rearm {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.slot.arm(ctx, 9, Dur::us(10));
                self.slot.arm(ctx, 9, Dur::us(20)); // supersedes the first
            }
            fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut Ctx<'_>) {}
            fn on_timer(&mut self, kind: u8, gen: u64, _ctx: &mut Ctx<'_>) {
                let verdict = if self.slot.matches(gen) {
                    "live"
                } else {
                    "stale"
                };
                self.log
                    .borrow_mut()
                    .push(format!("timer:{kind}:{verdict}"));
            }
            fn as_any(&mut self) -> &mut dyn Any {
                self
            }
            fn persist(&mut self, _io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
                Ok(())
            }
        }

        let log = Rc::new(RefCell::new(Vec::new()));
        let topo = crate::topology::Topology::dumbbell(1, G10, Dur::us(1));
        let cfg = NetConfig::default().with_seed(1);
        let l2 = log.clone();
        let mut net = Network::new(
            topo,
            cfg,
            Box::new(move |side, _info| -> Box<dyn Endpoint> {
                match side {
                    Side::Sender => Box::new(Rearm {
                        log: l2.clone(),
                        slot: TimerSlot::new(),
                    }),
                    Side::Receiver => Box::new(Probe {
                        log: Rc::new(RefCell::new(Vec::new())),
                        side: "rx",
                        echo_data: false,
                    }),
                }
            }),
        );
        net.add_flow(HostId(0), HostId(1), 1000, SimTime::ZERO);
        net.run_until(SimTime::ZERO + Dur::ms(1));
        // Both armings fire as events, but only the latest generation is
        // accepted — the superseded one is filtered as stale.
        let entries = log.borrow().clone();
        assert_eq!(entries, vec!["timer:9:stale", "timer:9:live"]);
    }

    // ----- deferred end-of-serialization wake -------------------------------

    /// Pop the next event and handle it as the run loop does; returns its
    /// time and kind name.
    fn step(net: &mut Network) -> (SimTime, &'static str) {
        let (t, ev) = net.events.pop().expect("an event is queued");
        if t >= net.sampler.next_due {
            net.sample_due(t, false);
        }
        net.now = t;
        let kind = EV_KIND_NAMES[ev_kind_idx(&ev)];
        net.handle(ev);
        (t, kind)
    }

    /// A full-size data packet from host 0 to host 1 of [`probe_net`],
    /// for a flow that does not exist (delivery drops it silently).
    fn data_pkt() -> Packet {
        let mut p = Packet::new(FlowId(0), HostId(0), HostId(1), PktKind::Data, 1538);
        p.payload = 1460;
        p
    }

    /// An event that does nothing when handled: an RCP update of a port
    /// without RCP state. A marker of a queue position.
    fn marker(dlink: DLinkId) -> Ev {
        Ev::RcpUpdate { dlink }
    }

    /// [`probe_net`] with `data_pkt` put on host 0's uplink and its wake
    /// handled: the port is serializing with both queues drained.
    fn net_mid_transmission() -> (Network, DLinkId, SimTime) {
        let mut net = probe_net(Rc::new(RefCell::new(Vec::new())));
        let up = net.topo.host_uplink[0];
        net.enqueue_at(up, data_pkt());
        assert_eq!(step(&mut net), (SimTime::ZERO, "port_wake"));
        let done = net.ports[up.0 as usize].tx_done_at();
        assert!(done > net.now);
        (net, up, done)
    }

    fn deferred(net: &Network, dlink: DLinkId) -> Option<u64> {
        net.reserved_wake(dlink).map(|w| w.seq)
    }

    #[test]
    fn a_drained_port_queues_no_wake_at_end_of_serialization() {
        let (mut net, up, _) = net_mid_transmission();
        assert!(deferred(&net, up).is_some(), "position kept, not filled");
        assert_eq!(net.events.len(), 1, "only the packet's arrival is queued");
        // Three hops, nothing behind the packet on any of them: one wake a
        // hop (the eager engine ran two, the second finding nothing).
        net.run_until(SimTime::ZERO + Dur::ms(1));
        let report = net.engine_report();
        let count = |name| {
            let (_, n) = report
                .events_by_kind
                .iter()
                .find(|(k, _)| *k == name)
                .unwrap();
            *n
        };
        assert_eq!(
            (count("port_wake"), count("arrive"), count("host_rx")),
            (3, 3, 1)
        );
        assert_eq!(report.events_processed, 7);
        assert!(net.events.is_empty());
    }

    #[test]
    fn packet_arriving_mid_serialization_fills_the_reserved_position() {
        let (mut net, up, done) = net_mid_transmission();
        // Pushed at `done` after the reservation: must pop after the wake.
        net.events.push(done, marker(up));
        net.now = SimTime(done.0 / 2);
        net.enqueue_at(up, data_pkt());
        assert_eq!(deferred(&net, up), None, "materialised");
        assert_eq!(step(&mut net), (done, "port_wake"));
        assert!(
            net.ports[up.0 as usize].is_busy(done),
            "the wake at `done` sent the second packet"
        );
        assert_eq!(step(&mut net), (done, "rcp_update"));
    }

    #[test]
    fn packet_arriving_at_busy_until_fills_only_a_position_still_ahead() {
        // From an event that sits *before* the reserved position (pushed
        // at `done` ahead of the transmission): the wake is materialised
        // in front of the enqueue's own now-wake, and does the sending.
        let mut net = probe_net(Rc::new(RefCell::new(Vec::new())));
        let up = net.topo.host_uplink[0];
        let done = SimTime::ZERO + tx_time(1538, G10);
        net.events.push(done, marker(up));
        net.enqueue_at(up, data_pkt());
        assert_eq!(step(&mut net), (SimTime::ZERO, "port_wake"));
        assert_eq!(net.ports[up.0 as usize].tx_done_at(), done);
        assert_eq!(step(&mut net), (done, "rcp_update"));
        let queued = net.events.len();
        net.enqueue_at(up, data_pkt());
        assert_eq!(deferred(&net, up), None);
        // The now-wake would find the transmitter busy: it only takes its
        // sequence number.
        assert_eq!(net.events.len(), queued + 1, "the reserved wake alone");
        assert_eq!(step(&mut net), (done, "port_wake"));
        assert!(
            net.ports[up.0 as usize].is_busy(done),
            "reserved wake sent it"
        );
        assert!(net.events.peek_time() > Some(done), "no now-wake behind it");

        // From an event *behind* the reserved position (pushed at `done`
        // after the transmission began): the eager wake has been and gone,
        // finding nothing — nothing is materialised, the now-wake sends.
        let (mut net, up, done) = net_mid_transmission();
        net.events.push(done, marker(up));
        assert_eq!(step(&mut net), (done, "rcp_update"));
        let queued = net.events.len();
        net.enqueue_at(up, data_pkt());
        assert_eq!(deferred(&net, up), None, "a position gone by is dropped");
        assert_eq!(net.events.len(), queued + 1, "the now-wake alone");
        assert_eq!(step(&mut net), (done, "port_wake"));
        assert!(net.ports[up.0 as usize].is_busy(done));
    }

    #[test]
    fn a_clock_moved_to_busy_until_passes_the_reserved_position() {
        // `run_until(done)` drains the queue through `done`; the eager
        // wake would have run inside it. An enqueue from outside the loop
        // at that instant must not resurrect the position ahead of events
        // pushed since — nor after a snapshot/restore, which is why the
        // queue's horizon rides in the snapshot.
        let (mut net, up, done) = net_mid_transmission();
        net.run_until(done);
        assert_eq!(net.now(), done);
        let mut w = SnapWriter::new();
        net.snapshot_into(&mut w);
        let mut twin = probe_net(Rc::new(RefCell::new(Vec::new())));
        twin.restore_from(&w.into_body()).expect("twin restore");
        for mut net in [net, twin] {
            net.events.push(done, marker(up));
            net.enqueue_at(up, data_pkt());
            assert_eq!(deferred(&net, up), None);
            assert_eq!(step(&mut net), (done, "rcp_update"));
            assert_eq!(step(&mut net), (done, "port_wake"));
            assert!(net.ports[up.0 as usize].is_busy(done));
        }
    }

    #[test]
    fn frozen_link_backlog_drains_when_link_up_comes_before_busy_until() {
        let (mut net, up, done) = net_mid_transmission();
        let (down_at, up_at) = (SimTime(done.0 / 4), SimTime(done.0 / 2));
        net.install_fault_plan(FaultPlan::new().link_down(down_at, up).link_up(up_at, up));
        net.run_until(down_at);
        // Frozen: the enqueue's own wake is suppressed, so the reserved
        // one is the only wake this packet will ever get.
        net.enqueue_at(up, data_pkt());
        assert_eq!(deferred(&net, up), None);
        net.run_until(SimTime::ZERO + Dur::ms(1));
        let port = &net.ports[up.0 as usize];
        assert!(port.data.is_empty(), "backlog stuck behind a dead wake");
        assert_eq!(port.tx_data_bytes, 2 * 1538);
        assert_eq!(net.counters().pkts_lost_to_faults, 0);
    }

    // ----- same-instant wakes ------------------------------------------------

    /// A [`probe_net`] whose every port has a metered credit queue, and
    /// its switch-to-switch port toward host 1. With `eager`, an empty
    /// fault plan is installed, under which every wake is queued: the twin
    /// whose event keys a wake left unqueued must not move.
    fn credit_net(eager: bool) -> (Network, DLinkId) {
        let mut net = probe_net_with(NetConfig::expresspass(), Rc::default());
        if eager {
            net.install_fault_plan(FaultPlan::new());
        }
        let topo = &net.topo;
        let sw = (0..topo.dlinks.len())
            .map(|i| DLinkId(i as u32))
            .find(|&d| {
                let l = &topo.dlinks[d.0 as usize];
                match (l.from, l.to) {
                    (NodeId::Switch(s), NodeId::Switch(_)) => {
                        topo.route_choices(s, HostId(1)) == [d]
                    }
                    _ => false,
                }
            })
            .expect("a dumbbell has a switch-to-switch link toward host 1");
        (net, sw)
    }

    /// A minimum-size credit headed for host 1.
    fn credit_pkt() -> Packet {
        Packet::new(
            FlowId(0),
            HostId(0),
            HostId(1),
            PktKind::Credit,
            crate::packet::CREDIT_SIZE,
        )
    }

    /// Handle every event due by `until`, one at a time; returns each
    /// one's `(time, seq)` key and kind.
    fn keyed_run(net: &mut Network, until: SimTime) -> Vec<(SimTime, u64, &'static str)> {
        let mut out = Vec::new();
        while net.events.peek_time().is_some_and(|t| t <= until) {
            let (t, kind) = step(net);
            out.push((t, net.current_event_key().1, kind));
        }
        out
    }

    /// `kept` is `eager` less some port wakes: every event kept fires at
    /// the key it has in the eager twin. Returns how many were left out.
    fn assert_only_wakes_left_out(
        kept: &[(SimTime, u64, &'static str)],
        eager: &[(SimTime, u64, &'static str)],
    ) -> usize {
        let mut twin = eager.iter();
        for k in kept {
            loop {
                let e = twin
                    .next()
                    .unwrap_or_else(|| panic!("{k:?} not in the twin"));
                if e == k {
                    break;
                }
                assert_eq!(e.2, "port_wake", "{e:?} left out");
            }
        }
        assert!(twin.all(|e| e.2 == "port_wake"), "an event left out");
        eager.len() - kept.len()
    }

    /// Three credits at one instant on the idle switch port of both
    /// twins: one wake sends the first, and the other two would find the
    /// port busy. Run to when the second has gone and the third waits for
    /// the meter, whose wake is pending; returns that instant.
    fn credits_waiting_on_the_meter(nets: &mut [(Network, DLinkId); 2]) -> SimTime {
        let t = SimTime::ZERO + tx_time(crate::packet::CREDIT_SIZE as u64, G10) * 2;
        for (net, sw) in nets.iter_mut() {
            for _ in 0..3 {
                net.enqueue_at(*sw, credit_pkt());
            }
        }
        assert_eq!(nets[0].0.events.len(), 1);
        assert_eq!(nets[1].0.events.len(), 3);
        let [(kept, sw), (eager, _)] = nets;
        let (k, e) = (keyed_run(kept, t), keyed_run(eager, t));
        assert_eq!(assert_only_wakes_left_out(&k, &e), 2);
        assert_eq!(kept.now, t);
        assert!(kept.ports[sw.0 as usize].idle_at(t), "the meter holds it");
        t
    }

    #[test]
    fn a_credit_on_a_metered_idle_port_queues_nothing() {
        let mut nets = [credit_net(false), credit_net(true)];
        let t = credits_waiting_on_the_meter(&mut nets);
        let [(kept, sw), (eager, _)] = &mut nets;
        let sw = *sw;
        // A fourth credit, arriving now, would wake the port for nothing:
        // its position is reserved only.
        let queued = kept.events.len();
        kept.enqueue_at(sw, credit_pkt());
        assert_eq!(kept.events.len(), queued, "nothing queued");
        let w = kept.reserved_wake(sw).expect("position reserved");
        assert_eq!((w.at, w.same_instant), (t, true));
        eager.enqueue_at(sw, credit_pkt());
        let until = SimTime::ZERO + Dur::ms(1);
        let (k, e) = (keyed_run(kept, until), keyed_run(eager, until));
        assert_eq!(assert_only_wakes_left_out(&k, &e), 1);
        assert_eq!(kept.ports[sw.0 as usize].tx_credit_bytes, 4 * 84);
    }

    #[test]
    fn data_at_the_same_instant_fills_the_reserved_position() {
        let mut nets = [credit_net(false), credit_net(true)];
        let t = credits_waiting_on_the_meter(&mut nets);
        let [(kept, sw), (eager, _)] = &mut nets;
        let sw = *sw;
        kept.enqueue_at(sw, credit_pkt());
        let w = kept.reserved_wake(sw).expect("position reserved");
        let queued = kept.events.len();
        // Data makes the reserved wake one that sends: it is queued at
        // its reserved key, and the data's own wake, which would find the
        // port busy, only takes a sequence number.
        kept.enqueue_at(sw, data_pkt());
        assert_eq!(kept.reserved_wake(sw), None);
        assert_eq!(kept.events.len(), queued + 1);
        assert_eq!(step(kept), (t, "port_wake"));
        assert_eq!(kept.current_event_key(), (t, w.seq));
        assert_eq!(kept.ports[sw.0 as usize].tx_data_bytes, 1538);
        for pkt in [credit_pkt(), data_pkt()] {
            eager.enqueue_at(sw, pkt);
        }
        // The eager twin sends the data from the same key, so its arrival
        // — and everything after — carries the same keys too.
        let until = SimTime::ZERO + Dur::ms(1);
        let (mut k, e) = (keyed_run(kept, until), keyed_run(eager, until));
        k.insert(0, (t, w.seq, "port_wake"));
        assert_eq!(assert_only_wakes_left_out(&k, &e), 1);
        let arrive = |run: &[(SimTime, u64, &'static str)]| {
            let hop = Dur::us(1) + tx_time(1538, G10);
            *run.iter()
                .find(|e| e.0 == t + hop && e.2 == "arrive")
                .unwrap()
        };
        assert_eq!(arrive(&k), arrive(&e));
    }

    #[test]
    fn an_unfilled_reservation_is_dropped_once_passed() {
        let mut nets = [credit_net(false), credit_net(true)];
        let t = credits_waiting_on_the_meter(&mut nets);
        let [(kept, sw), (eager, _)] = &mut nets;
        let sw = *sw;
        kept.enqueue_at(sw, credit_pkt());
        let w = kept.reserved_wake(sw).expect("position reserved");
        eager.enqueue_at(sw, credit_pkt());
        // The eager twin's wake at that very key finds nothing to do.
        assert_eq!(keyed_run(eager, t), [(t, w.seq, "port_wake")]);
        assert_eq!(keyed_run(kept, t), []);
        // Everything due at `t` has run: the position has gone by empty.
        for net in [&mut *kept, &mut *eager] {
            net.run_until(t);
        }
        assert_eq!(kept.reserved_wake(sw), None);
        let queued = kept.events.len();
        kept.enqueue_at(sw, data_pkt());
        assert_eq!(
            kept.events.len(),
            queued + 1,
            "a fresh wake, not the old one"
        );
        let fresh = kept.ports[sw.0 as usize].wake.unwrap();
        assert!(fresh.queued && fresh.at == t && fresh.seq > w.seq);
        eager.enqueue_at(sw, data_pkt());
        let until = SimTime::ZERO + Dur::ms(1);
        let (k, e) = (keyed_run(kept, until), keyed_run(eager, until));
        assert_eq!(assert_only_wakes_left_out(&k, &e), 0);
    }

    #[test]
    fn a_second_same_instant_data_wake_is_left_out() {
        let mut nets = [credit_net(false), credit_net(true)];
        for (net, _) in &mut nets {
            let up = net.topo.host_uplink[0];
            net.enqueue_at(up, data_pkt());
            net.enqueue_at(up, data_pkt());
        }
        // The first wake sends one packet; the second would find the port
        // busy. (A host uplink: the rule needs no switch.)
        assert_eq!(nets[0].0.events.len(), 1);
        assert_eq!(nets[1].0.events.len(), 2);
        let [(kept, _), (eager, _)] = &mut nets;
        let until = SimTime::ZERO + Dur::ms(1);
        let (k, e) = (keyed_run(kept, until), keyed_run(eager, until));
        assert!(assert_only_wakes_left_out(&k, &e) >= 1);
        assert_eq!(k.iter().filter(|e| e.2 == "host_rx").count(), 2);
    }

    #[test]
    fn controller_hooks_fire() {
        struct Hooks {
            started: Rc<RefCell<u32>>,
            completed: Rc<RefCell<u32>>,
        }
        impl Controller for Hooks {
            fn on_flow_start(&mut self, _net: &mut Network, _f: FlowId) {
                *self.started.borrow_mut() += 1;
            }
            fn on_flow_complete(&mut self, _net: &mut Network, _f: FlowId) {
                *self.completed.borrow_mut() += 1;
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut net = probe_net(log);
        let started = Rc::new(RefCell::new(0));
        let completed = Rc::new(RefCell::new(0));
        net.set_controller(Box::new(Hooks {
            started: started.clone(),
            completed: completed.clone(),
        }));
        net.add_flow(HostId(0), HostId(1), 1000, SimTime::ZERO);
        net.run_until(SimTime::ZERO + Dur::ms(1));
        assert_eq!(*started.borrow(), 1);
        assert_eq!(*completed.borrow(), 1);
    }

    #[test]
    fn run_until_done_caps_at_deadline() {
        // A flow that can never finish (sender only sends 1000 of 10^9
        // bytes) must not hang run_until_done.
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut net = probe_net(log);
        net.add_flow(HostId(0), HostId(1), 1 << 30, SimTime::ZERO);
        let end = net.run_until_done(SimTime::ZERO + Dur::ms(2));
        assert!(end <= SimTime::ZERO + Dur::ms(2));
        assert_eq!(net.completed_count(), 0);
    }

    #[test]
    fn sampling_series_collects() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut net = probe_net(log);
        net.set_sample_interval(Dur::us(100));
        let f = net.add_flow(HostId(0), HostId(1), 1000, SimTime::ZERO);
        net.track_flow(f);
        net.track_port(DLinkId(0));
        net.run_until(SimTime::ZERO + Dur::ms(1));
        // Sampling stops when all flows are done, so a few samples exist.
        assert!(net.flow_series(f).is_some());
        assert!(net.port_series(DLinkId(0)).is_some());
        assert!(!net.port_series(DLinkId(0)).unwrap().samples.is_empty());
    }

    /// A delivery of `bytes` to host 1 for `flow`.
    fn rx_pkt(flow: FlowId, bytes: u32) -> Ev {
        let mut pkt = Packet::new(flow, HostId(0), HostId(1), PktKind::Data, bytes + 78);
        pkt.payload = bytes;
        Ev::HostRx { pkt }
    }

    #[test]
    fn a_series_point_sees_the_events_ahead_of_its_position_only() {
        // Two deliveries at the sample instant: one queued before the
        // interval was set (ahead of the point's position), one after
        // (behind it). The point counts the first and not the second — a
        // metrics boundary at the same instant would count neither.
        let mut net = probe_net(Rc::new(RefCell::new(Vec::new())));
        let f = net.add_flow(HostId(0), HostId(1), 1 << 30, SimTime::ZERO + Dur::ms(1));
        let at = SimTime::ZERO + Dur::us(10);
        net.events.push(at, rx_pkt(f, 1000));
        net.set_sample_interval(Dur::us(10));
        net.track_flow(f);
        net.events.push(at, rx_pkt(f, 500));
        assert_eq!(step(&mut net), (at, "host_rx"));
        assert!(net.flow_series(f).unwrap().samples.is_empty());
        assert_eq!(step(&mut net), (at, "host_rx"));
        assert_eq!(net.delivered_bytes(f), 1500);
        let gbps = 1000.0 * 8.0 / Dur::us(10).as_secs_f64() / 1e9;
        assert_eq!(net.flow_series(f).unwrap().samples, vec![(at, gbps)]);
    }

    #[test]
    fn run_until_done_runs_on_to_the_cap_while_a_point_is_pending() {
        // The flow can never finish and its events drain early; the queue
        // runs dry with a series point pending. The run still ends at the
        // cap, with every point up to it recorded — as when a queued sample
        // event kept the queue going — while an untracked twin stops at
        // its last event.
        let cap = SimTime::ZERO + Dur::ms(1);
        let run = |tracked: bool| {
            let mut net = probe_net(Rc::new(RefCell::new(Vec::new())));
            let f = net.add_flow(HostId(0), HostId(1), 1 << 30, SimTime::ZERO);
            if tracked {
                net.set_sample_interval(Dur::us(100));
                net.track_flow(f);
            }
            let end = net.run_until_done(cap);
            assert!(net.events.is_empty());
            (net, f, end)
        };
        let (net, f, end) = run(true);
        assert_eq!((end, net.now()), (cap, cap));
        let points = &net.flow_series(f).unwrap().samples;
        assert_eq!(points.len(), 10);
        assert_eq!(points.last().unwrap().0, cap);
        let (twin, _, end) = run(false);
        assert_eq!(end, SimTime::ZERO, "no flow settled");
        assert!(twin.now() < cap);
        let (a, b) = (net.engine_report(), twin.engine_report());
        assert_eq!(a.events_by_kind, b.events_by_kind);
    }

    #[test]
    fn flow_records_expose_outcomes() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut net = probe_net(log);
        net.add_flow(HostId(0), HostId(1), 1000, SimTime::ZERO);
        net.add_flow(HostId(0), HostId(1), 1 << 30, SimTime::ZERO);
        net.run_until(SimTime::ZERO + Dur::ms(1));
        let recs = net.flow_records();
        assert_eq!(recs.len(), 2);
        assert!(recs[0].fct.is_some());
        assert!(recs[1].fct.is_none());
        assert_eq!(recs[0].size_bytes, 1000);
    }

    #[test]
    #[should_panic(expected = "flow endpoints must differ")]
    fn self_flow_rejected() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut net = probe_net(log);
        net.add_flow(HostId(0), HostId(0), 1, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "start in the past")]
    fn past_start_rejected() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut net = probe_net(log);
        net.run_until(SimTime::ZERO + Dur::ms(1));
        net.add_flow(HostId(0), HostId(1), 1, SimTime::ZERO);
    }
}
