//! Per-network live metrics state: the glue between the event loop and
//! [`xpass_sim::metrics`].
//!
//! A [`MetricsState`] exists on a [`Network`] only while a metrics context
//! is installed on the constructing thread
//! (see [`xpass_sim::metrics::install`]); otherwise the field is `None`
//! and every hook in the engine is a single `is_some()` check. Sampling
//! is **boundary-checked**, not event-driven: before handling each event
//! the run loop compares its time with the network sampler's cached next
//! due instant, and every elapsed interval boundary `k·interval` records
//! one row of scalar samples using the state *strictly before* the events
//! at that instant. Each row reads the network itself — ports, counters,
//! flow flags and the installed monitors — with nothing copied in between;
//! the ledger's accounts come from [`LedgerReport::fields`], the one list
//! of their names. No event is scheduled and the RNG is never touched, so
//! a metrics-on run replays bit-identically to a metrics-off run — and
//! identically across the heap and calendar schedulers, whose event order
//! at equal `(time, seq)` is pinned.
//!
//! Wall-clock figures (events/s) are deliberately kept out of the
//! sampled rows — they go only to the live HTTP exposition and the
//! progress heartbeat, so the ring (and the `--metrics` JSONL file
//! derived from it) stays deterministic. The wall clock itself is
//! read only on the event-count cadence of
//! [`xpass_sim::watchdog::WALL_CHECK_MASK`], to throttle publications.
//! A publication hands the plane numbers; its readers render them (see
//! [`xpass_sim::metrics::Plane`]).

use super::Network;
use crate::arena::{FLAG_ABORTED, FLAG_DONE, FLAG_STALLED};
use crate::ledger::LedgerReport;
use xpass_sim::json::Json;
use xpass_sim::metrics::{
    self as plane, JobView, MetricId, NetMetricsHook, Progress, Registry, Ring, SeriesDump,
    PUBLISH_EVERY, RING_CAP,
};
use xpass_sim::profile::EngineReport;
use xpass_sim::snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
use xpass_sim::time::SimTime;

/// Fixed FCT histogram bucket bounds, in seconds.
const FCT_BOUNDS: [f64; 7] = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

/// Ids of the per-boundary sampled series (registered once, on the first
/// boundary after monitors are installed).
struct SampledIds {
    sim_seconds: MetricId,
    data_q: Vec<MetricId>,
    credit_q: Vec<Option<MetricId>>,
    util: Vec<MetricId>,
    flows_total: MetricId,
    flows_active: MetricId,
    flows_stalled: MetricId,
    flows_completed: MetricId,
    flows_aborted: MetricId,
    credit_waste_ratio: MetricId,
    credits_sent: MetricId,
    credits_dropped: MetricId,
    credits_wasted: MetricId,
    data_dropped: MetricId,
    payload_bytes: MetricId,
    ecn_marked: MetricId,
    engine_events: MetricId,
    /// One gauge per ledger account, in [`LedgerReport::fields`] order.
    ledger: Vec<MetricId>,
    watchdog_headroom: Option<MetricId>,
}

/// The metrics side-state of one network. See the module docs for the
/// sampling contract.
pub(super) struct MetricsState {
    hook: NetMetricsHook,
    reg: Registry,
    ring: Ring,
    /// Next boundary to record (`k·interval`; starts at 0).
    next: SimTime,
    /// Whether the sampled families have been registered yet.
    families_done: bool,
    sampled: Option<SampledIds>,
    /// Per-port `tx_bytes` at the previous boundary (utilization deltas).
    last_tx: Vec<u64>,
    // Live-incremented series, registered at construction so hooks can
    // fire before the first boundary.
    health_violations: MetricId,
    feedback_updates: MetricId,
    fct: MetricId,
    /// Next sim instant the `--progress` heartbeat prints at.
    progress_next: SimTime,
    /// Wall clock at the first advance (events/s, ETA; never sampled).
    wall_start: Option<std::time::Instant>,
    last_publish: Option<std::time::Instant>,
    // WS push cursors (wall/telemetry domain: deliberately NOT part of
    // snapshots — an in-process resume keeps pushing from where the feed
    // left off, a fresh process re-pushes the replayed ring).
    /// Last ring timestamp pushed to the plane's WS feed.
    pushed_t: Option<u64>,
    /// Whether the `xpass-metrics/v1` header line went to the feed.
    pushed_header: bool,
    /// Last health JSON pushed (pushes happen only on change).
    pushed_health: Option<String>,
}

impl MetricsState {
    pub(super) fn new(hook: NetMetricsHook) -> MetricsState {
        let mut reg = Registry::new();
        let health_violations = reg.counter(
            "xpass_health_violations_total",
            "invariant monitor violations observed",
            &[],
        );
        let feedback_updates = reg.counter(
            "xpass_feedback_updates_total",
            "credit feedback-loop rate updates",
            &[],
        );
        let fct = reg.histogram(
            "xpass_fct_seconds",
            "flow completion time",
            &[],
            &FCT_BOUNDS,
        );
        let progress_next = SimTime::ZERO
            + hook
                .spec
                .progress_every
                .unwrap_or(xpass_sim::time::Dur::ZERO);
        MetricsState {
            hook,
            reg,
            ring: Ring::new(0),
            next: SimTime::ZERO,
            families_done: false,
            sampled: None,
            last_tx: Vec::new(),
            health_violations,
            feedback_updates,
            fct,
            progress_next,
            wall_start: None,
            last_publish: None,
            pushed_t: None,
            pushed_header: false,
            pushed_health: None,
        }
    }

    /// Next boundary to record.
    #[inline]
    pub(super) fn next_boundary(&self) -> SimTime {
        self.next
    }

    pub(super) fn note_health_violation(&mut self) {
        self.reg.inc(self.health_violations);
    }

    pub(super) fn note_feedback_update(&mut self) {
        self.reg.inc(self.feedback_updates);
    }

    pub(super) fn observe_fct(&mut self, secs: f64) {
        self.reg.observe(self.fct, secs);
    }

    /// Register the sampled families (idempotent). Deferred to the first
    /// boundary so installed monitors — ledger, watchdog — are known;
    /// after this the ring's row width is fixed.
    pub(super) fn ensure_families(&mut self, net: &Network) {
        if self.families_done {
            return;
        }
        self.families_done = true;
        self.ring = Ring::new(RING_CAP);
        let r = &mut self.reg;
        let sim_seconds = r.gauge("xpass_sim_seconds", "simulation time reached", &[]);
        let mut data_q = Vec::with_capacity(net.ports.len());
        let mut credit_q = Vec::with_capacity(net.ports.len());
        let mut util = Vec::with_capacity(net.ports.len());
        for (i, p) in net.ports.iter().enumerate() {
            let is = i.to_string();
            let labels: &[(&str, &str)] = &[("dlink", &is)];
            data_q.push(r.gauge("xpass_data_queue_bytes", "data queue depth", labels));
            credit_q.push(
                p.credit
                    .is_some()
                    .then(|| r.gauge("xpass_credit_queue_pkts", "credit queue depth", labels)),
            );
            util.push(r.gauge(
                "xpass_link_utilization",
                "fraction of link capacity used over the last interval",
                labels,
            ));
        }
        let sampled = SampledIds {
            sim_seconds,
            data_q,
            credit_q,
            util,
            flows_total: r.gauge("xpass_flows_total", "flows added", &[]),
            flows_active: r.gauge("xpass_flows_active", "flows started and unsettled", &[]),
            flows_stalled: r.gauge("xpass_flows_stalled", "live flows marked stalled", &[]),
            flows_completed: r.gauge("xpass_flows_completed", "flows completed", &[]),
            flows_aborted: r.gauge("xpass_flows_aborted", "flows aborted", &[]),
            credit_waste_ratio: r.gauge(
                "xpass_credit_waste_ratio",
                "credits wasted / credits sent",
                &[],
            ),
            credits_sent: r.counter("xpass_credits_sent_total", "credits emitted", &[]),
            credits_dropped: r.counter("xpass_credits_dropped_total", "credits dropped", &[]),
            credits_wasted: r.counter("xpass_credits_wasted_total", "credits wasted", &[]),
            data_dropped: r.counter("xpass_data_dropped_total", "data packets dropped", &[]),
            payload_bytes: r.counter("xpass_payload_bytes_total", "payload bytes delivered", &[]),
            ecn_marked: r.counter("xpass_ecn_marked_total", "data packets ECN-marked", &[]),
            engine_events: r.counter("xpass_engine_events_total", "events processed", &[]),
            ledger: if net.ledger.is_some() {
                (LedgerReport::default().fields().into_iter())
                    .map(|(fate, _)| {
                        r.gauge(
                            "xpass_ledger_pkts",
                            "conservation ledger packet fates",
                            &[("fate", fate)],
                        )
                    })
                    .collect()
            } else {
                Vec::new()
            },
            watchdog_headroom: watchdog_headroom(net).map(|_| {
                r.gauge(
                    "xpass_watchdog_headroom_events",
                    "events left before the watchdog budget trips",
                    &[],
                )
            }),
        };
        self.sampled = Some(sampled);
        self.last_tx = net.ports.iter().map(|p| p.tx_bytes).collect();
    }

    /// Record the row of the boundary at [`next_boundary`](Self::next_boundary)
    /// from `net`'s current state and advance it. Families must have been
    /// ensured.
    pub(super) fn sample(&mut self, net: &Network) {
        let t = self.next;
        // Taken out so `ids` and `self.reg` can be used together.
        let ids = self.sampled.take().expect("ensure_families first");
        self.set_state_gauges(&ids, net, t);
        // The interval series: utilization since the previous boundary,
        // and the waste ratio.
        let interval = self.hook.spec.interval;
        for (i, p) in net.ports.iter().enumerate() {
            let delta = p.tx_bytes.saturating_sub(self.last_tx[i]);
            self.last_tx[i] = p.tx_bytes;
            let cap_bytes = p.speed_bps as f64 / 8.0 * interval.as_secs_f64();
            let u = if cap_bytes > 0.0 {
                delta as f64 / cap_bytes
            } else {
                0.0
            };
            self.reg.set(ids.util[i], u);
        }
        let c = &net.counters;
        let waste = if c.credits_sent > 0 {
            c.credits_wasted as f64 / c.credits_sent as f64
        } else {
            0.0
        };
        self.reg.set(ids.credit_waste_ratio, waste);
        self.sampled = Some(ids);
        self.ring.record(t.as_ps(), self.reg.scalar_values());
        self.next = t + interval;
    }

    /// Overlay `net`'s current state onto the instantaneous sampled gauges
    /// ahead of a *forced* publish, so the final scrape matches the end-of-run
    /// report even when the run ended between boundaries. Interval-defined
    /// series (utilization, waste ratio) keep their last boundary value
    /// and `last_tx` is untouched; every gauge here is re-set by the next
    /// boundary [`sample`](Self::sample), so ring contents — and therefore
    /// resumed series — are unaffected. Callers invoke this only at
    /// deterministic points (run-call exits), keeping registry state
    /// reproducible for snapshots. A no-op before the first boundary.
    pub(super) fn refresh_final(&mut self, net: &Network) {
        if let Some(ids) = self.sampled.take() {
            self.set_state_gauges(&ids, net, net.now);
            self.sampled = Some(ids);
        }
    }

    /// Set every sampled series that reads the state at `t` alone: queue
    /// depths, flow counts, the global counters and the monitors.
    fn set_state_gauges(&mut self, ids: &SampledIds, net: &Network, t: SimTime) {
        let reg = &mut self.reg;
        reg.set(ids.sim_seconds, t.as_secs_f64());
        for (i, p) in net.ports.iter().enumerate() {
            reg.set(ids.data_q[i], p.data.len_bytes() as f64);
            if let (Some(id), Some(cq)) = (ids.credit_q[i], p.credit.as_ref()) {
                reg.set(id, cq.len() as f64);
            }
        }
        let (active, stalled) = active_flows(net, t);
        reg.set(ids.flows_total, net.arena.slot_count() as f64);
        reg.set(ids.flows_active, active as f64);
        reg.set(ids.flows_stalled, stalled as f64);
        reg.set(ids.flows_completed, net.completed as f64);
        reg.set(ids.flows_aborted, net.aborted as f64);
        let c = &net.counters;
        reg.set_counter(ids.credits_sent, c.credits_sent);
        reg.set_counter(ids.credits_dropped, c.credits_dropped);
        reg.set_counter(ids.credits_wasted, c.credits_wasted);
        reg.set_counter(ids.data_dropped, c.data_dropped);
        reg.set_counter(ids.payload_bytes, c.payload_delivered);
        reg.set_counter(ids.ecn_marked, c.ecn_marked);
        reg.set_counter(ids.engine_events, net.events.events_processed());
        if net.ledger.is_some() {
            for (id, (_, e)) in ids.ledger.iter().zip(net.ledger_report().fields()) {
                reg.set(*id, e.pkts as f64);
            }
        }
        if let (Some(id), Some(left)) = (ids.watchdog_headroom, watchdog_headroom(net)) {
            reg.set(id, left as f64);
        }
    }

    /// `--progress` heartbeat: true when a line is due at boundary `t`
    /// (advances the next-heartbeat instant).
    pub(super) fn heartbeat_due(&mut self, t: SimTime) -> bool {
        let Some(every) = self.hook.spec.progress_every else {
            return false;
        };
        if every.is_zero() || t < self.progress_next {
            return false;
        }
        while self.progress_next <= t {
            self.progress_next += every;
        }
        true
    }

    /// The plane key this network publishes under (also the heartbeat
    /// label).
    pub(super) fn plane_key(&self) -> String {
        self.hook.plane_key()
    }

    /// Wall seconds since the first advance (events/s, ETA; lazily
    /// started so construction time is excluded).
    pub(super) fn wall_elapsed(&mut self) -> f64 {
        self.wall_start
            .get_or_insert_with(std::time::Instant::now)
            .elapsed()
            .as_secs_f64()
    }

    /// Whether a plane publication is due: always when forced, otherwise
    /// once [`PUBLISH_EVERY`] of wall time has passed since the last one.
    /// Reads the wall clock — the run loop asks only on the event-count
    /// cadence of [`xpass_sim::watchdog::WALL_CHECK_MASK`].
    pub(super) fn publish_due(&self, force: bool) -> bool {
        if self.hook.plane.is_none() {
            return false;
        }
        force
            || self
                .last_publish
                .is_none_or(|at| at.elapsed() >= PUBLISH_EVERY)
    }

    /// Publish the registry, the ring and these reports to the plane (call
    /// after [`publish_due`](Self::publish_due)). The registry's structure
    /// and the ring's rows are shared, not copied; the plane's readers
    /// render them.
    pub(super) fn publish(&mut self, engine: EngineReport, health: String, progress: Progress) {
        let Some(p) = self.hook.plane.clone() else {
            return;
        };
        self.last_publish = Some(std::time::Instant::now());
        self.push_feed(&p, &health);
        let view = JobView {
            job: self.hook.job.clone(),
            net: self.hook.net_index,
            interval_ps: self.hook.spec.interval.as_ps(),
            registry: self.reg.clone(),
            ring: self.ring.clone(),
            health,
            engine,
            progress,
        };
        p.publish(&self.plane_key(), view);
    }

    /// Push whatever is new since the last publish into the plane's WS
    /// feed (when one is attached): one `xpass-metrics/v1` header line,
    /// then each not-yet-pushed ring row as a `{"job",...,"t_ps","v"}`
    /// line — each row encoded once, however often this runs — then the
    /// health report whenever it changes. Producers never block — slow
    /// consumers are the feed's problem (see [`xpass_sim::ws::Broadcast`]).
    fn push_feed(&mut self, p: &plane::Plane, health: &str) {
        let Some(feed) = p.feed() else {
            return;
        };
        let key = self.plane_key();
        if self.families_done {
            if !self.pushed_header {
                feed.push(self.jsonl_header().trim_end().to_string());
                self.pushed_header = true;
            }
            for (t, row) in self.ring.iter() {
                if self.pushed_t.is_some_and(|pt| t <= pt) {
                    continue;
                }
                let line = plane::jsonl_row(Json::obj().with("job", Json::str(&key)), t, row);
                feed.push(line.to_string());
                self.pushed_t = Some(t);
            }
        }
        if self.pushed_health.as_deref() != Some(health) {
            feed.push(format!(
                "{{\"job\":{},\"health\":{health}}}",
                Json::str(&key)
            ));
            self.pushed_health = Some(health.to_string());
        }
    }

    /// The `xpass-metrics/v1` header line of this network's block.
    fn jsonl_header(&self) -> String {
        plane::encode_jsonl(&SeriesDump {
            job: self.hook.job.to_string(),
            net: self.hook.net_index,
            interval_ps: self.hook.spec.interval.as_ps(),
            keys: self.reg.scalar_keys(),
            ticks: Vec::new(),
        })
    }

    pub(super) fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.next.0);
        w.bool(self.families_done);
        w.u64(self.progress_next.0);
        w.seq(&self.last_tx, |w, b| w.u64(*b));
        self.reg.snap(w);
        self.ring.snap(w);
    }

    /// Overlay snapshot state. The sampled families are re-registered
    /// against `net` first when the donor had passed its first boundary,
    /// so the series sets line up; mismatches surface as [`SnapError`]s.
    pub(super) fn restore(
        &mut self,
        r: &mut SnapReader<'_>,
        net: &Network,
    ) -> Result<(), SnapError> {
        self.next = SimTime(r.u64()?);
        let donor_families = r.bool()?;
        self.progress_next = SimTime(r.u64()?);
        if donor_families {
            self.ensure_families(net);
        }
        r.enter("last_tx");
        let n = r.seq_len(8)?;
        if donor_families && n != self.last_tx.len() {
            return Err(r.err(format!(
                "port count mismatch: configuration has {}, snapshot has {n}",
                self.last_tx.len()
            )));
        }
        let tx = (0..n).map(|_| r.u64()).collect::<Result<Vec<_>, _>>()?;
        if donor_families {
            self.last_tx = tx;
        }
        r.leave();
        r.enter("registry");
        self.reg.restore(r)?;
        r.leave();
        r.enter("ring");
        self.ring.restore(r)?;
        r.leave();
        Ok(())
    }
}

/// Events left before the armed watchdog's event budget trips, when it
/// has one.
fn watchdog_headroom(net: &Network) -> Option<u64> {
    let wd = net.watchdog.as_ref()?;
    Some(wd.spec().max_events?.saturating_sub(wd.events_observed()))
}

/// Flows started by `t` and not yet settled, and how many of those are
/// currently marked stalled.
fn active_flows(net: &Network, t: SimTime) -> (u64, u64) {
    let (mut active, mut stalled) = (0u64, 0u64);
    for f in net.arena.ids() {
        let flags = net.arena.flags(f);
        if flags & (FLAG_DONE | FLAG_ABORTED) == 0 && net.arena.info(f).start <= t {
            active += 1;
            if flags & FLAG_STALLED != 0 {
                stalled += 1;
            }
        }
    }
    (active, stalled)
}

/// The heartbeat's and the plane's progress line, as of `t`, `wall`
/// seconds into the run.
pub(super) fn progress(net: &Network, t: SimTime, wall: f64) -> Progress {
    let events = net.events.events_processed();
    Progress {
        sim_secs: t.as_secs_f64(),
        events,
        events_per_sec: if wall > 0.0 {
            events as f64 / wall
        } else {
            0.0
        },
        flows_total: net.arena.slot_count() as u64,
        flows_active: active_flows(net, t).0,
        flows_completed: net.completed as u64,
        flows_aborted: net.aborted as u64,
    }
}
