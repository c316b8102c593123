//! The network's one sampler (DESIGN.md §13). It keeps two schedules and
//! queues no event for either:
//!
//! * the **figure series** — every interval, the delivered throughput of
//!   each tracked flow and the data-queue depth of each tracked port go
//!   into a [`TimeSeries`] (Figs 1, 10, 13, 16 plot them);
//! * the **metrics ring** — with a metrics context installed on the
//!   constructing thread (see [`xpass_sim::metrics`]), one row of scalar
//!   gauges per boundary `k·interval` ([`MetricsState`]).
//!
//! A series point sits at a queue *position*: the `(time, seq)` a sample
//! event would have had, reserved with [`EventQueue::reserve_seq`] where
//! that event would have been pushed. The point is recorded when the run
//! loop pops the first event past its position, or when a run call's exit
//! passes it, so it sees exactly the events that precede it — same-instant
//! ones included — and every other event keeps its key. A metrics
//! boundary is an *instant*: its row is the state strictly before every
//! event at `k·interval`. Both are observation-only (no RNG draw, no
//! event), and the run loop asks one question of both per event: has the
//! popped event reached [`Sampler::next_due`]?

use super::Network;
use crate::arena::{FLAG_ABORTED, FLAG_DONE, FLAG_STALLED};
use crate::ids::{DLinkId, FlowId};
use crate::metrics::{FamSpec, MetricsState, SampleView};
use std::collections::BTreeMap;
use xpass_sim::event::EventQueue;
use xpass_sim::metrics as sim_metrics;
use xpass_sim::snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
use xpass_sim::stats::TimeSeries;
use xpass_sim::time::{Dur, SimTime};

/// Sampling state of one network. The series are inert until an interval
/// is set; the metrics ring exists only with a metrics context.
pub(super) struct Sampler {
    interval: Option<Dur>,
    /// Queue position of the next series point; `None` before an interval
    /// is set, and after a point found every flow settled.
    pending: Option<(SimTime, u64)>,
    /// Tracked flows, each with its delivered bytes at the last sample.
    flows: Vec<(FlowId, u64)>,
    ports: Vec<DLinkId>,
    /// One series per flow / port tracked, by id. Ordered maps: the
    /// snapshot lists them by ascending id.
    flow_series: BTreeMap<u32, TimeSeries>,
    port_series: BTreeMap<u32, TimeSeries>,
    /// Live metrics state; `None` unless a metrics context is installed,
    /// and every metrics hook in the engine is gated on that.
    pub(super) metrics: Option<Box<MetricsState>>,
    /// The earliest instant either schedule can be due — the pending
    /// point's time or the next metrics boundary, `SimTime::MAX` when
    /// neither is armed — so the run loop's check is one compare.
    pub(super) next_due: SimTime,
}

impl Sampler {
    pub(super) fn new(metrics: Option<Box<MetricsState>>) -> Sampler {
        let mut s = Sampler {
            interval: None,
            pending: None,
            flows: Vec::new(),
            ports: Vec::new(),
            flow_series: BTreeMap::new(),
            port_series: BTreeMap::new(),
            metrics,
            next_due: SimTime::MAX,
        };
        s.rearm();
        s
    }

    /// Recompute [`next_due`](Self::next_due) after either schedule moved.
    pub(super) fn rearm(&mut self) {
        let point = self.pending.map_or(SimTime::MAX, |(t, _)| t);
        let boundary = self
            .metrics
            .as_ref()
            .map_or(SimTime::MAX, |m| m.next_boundary());
        self.next_due = point.min(boundary);
    }

    /// Set the series interval. With no point pending, the first one goes
    /// an interval from `now`, at the next sequence number of `events`.
    pub(super) fn set_interval<E>(
        &mut self,
        interval: Dur,
        now: SimTime,
        events: &mut EventQueue<E>,
    ) {
        assert!(!interval.is_zero());
        self.interval = Some(interval);
        if self.pending.is_none() {
            self.pending = Some((now + interval, events.reserve_seq()));
            self.rearm();
        }
    }

    /// True while a series point is pending.
    pub(super) fn is_pending(&self) -> bool {
        self.pending.is_some()
    }

    pub(super) fn track_flow(&mut self, flow: FlowId) {
        let interval = self.interval.expect("set_sample_interval first");
        self.flows.push((flow, 0));
        self.flow_series.insert(flow.0, TimeSeries::new(interval));
    }

    pub(super) fn track_port(&mut self, dlink: DLinkId) {
        let interval = self.interval.expect("set_sample_interval first");
        self.ports.push(dlink);
        self.port_series.insert(dlink.0, TimeSeries::new(interval));
    }

    pub(super) fn flow_series(&self, flow: FlowId) -> Option<&TimeSeries> {
        self.flow_series.get(&flow.0)
    }

    pub(super) fn port_series(&self, dlink: DLinkId) -> Option<&TimeSeries> {
        self.port_series.get(&dlink.0)
    }
}

impl Network {
    /// The run loop's sample work, once `t` has reached
    /// [`Sampler::next_due`]: record every metrics boundary at or before
    /// `t`, then every series point whose position the queue has passed —
    /// `t` being the event just popped — or, at a run call's `exit` with
    /// `t` its limit, every point at or before `t`.
    pub(super) fn sample_due(&mut self, t: SimTime, exit: bool) {
        if self
            .sampler
            .metrics
            .as_ref()
            .is_some_and(|m| m.next_boundary() <= t)
        {
            self.record_boundaries(t);
        }
        while let Some((at, seq)) = self.sampler.pending {
            let passed = if exit {
                at <= t
            } else {
                !self.events.is_ahead(at, seq)
            };
            if !passed {
                break;
            }
            self.record_point(at);
        }
        self.sampler.rearm();
    }

    /// Record the series point at `at` and reserve the next one an
    /// interval later — while work remains, so that `run_until_done`
    /// terminates.
    fn record_point(&mut self, at: SimTime) {
        let s = &mut self.sampler;
        let interval = s.interval.expect("a pending point has an interval");
        for (flow, last) in &mut s.flows {
            let cur = self.arena.rx_bytes(*flow);
            let gbps = (cur - *last) as f64 * 8.0 / interval.as_secs_f64() / 1e9;
            *last = cur;
            if let Some(series) = s.flow_series.get_mut(&flow.0) {
                series.push(at, gbps);
            }
        }
        for dl in &s.ports {
            let bytes = self.ports[dl.0 as usize].data.len_bytes();
            if let Some(series) = s.port_series.get_mut(&dl.0) {
                series.push(at, bytes as f64);
            }
        }
        let work_remains = self.completed + self.aborted < self.arena.slot_count();
        s.pending = work_remains.then(|| (at + interval, self.events.reserve_seq()));
    }

    /// Record every metrics boundary `k·interval ≤ t` not recorded yet,
    /// from the current state: the state before the events at `t`.
    fn record_boundaries(&mut self, t: SimTime) {
        let mut m = self
            .sampler
            .metrics
            .take()
            .expect("boundaries without metrics");
        while m.next_boundary() <= t {
            m.ensure_families(&self.fam_spec());
            let b = m.next_boundary();
            let fates = self.ledger_fates();
            let view = self.sample_view(b, fates.as_ref().map(|f| f.as_slice()));
            m.sample(&view);
            if m.heartbeat_due(b) {
                let wall = m.wall_elapsed();
                let events = view.events_processed;
                let eps = if wall > 0.0 {
                    events as f64 / wall
                } else {
                    0.0
                };
                let done = self.completed + self.aborted;
                let total = self.arena.slot_count();
                let eta = if done > 0 && total > done {
                    format!("{:.1}s", wall * (total - done) as f64 / done as f64)
                } else {
                    "?".to_string()
                };
                eprintln!(
                    "xpass-repro: [{}] t={:.3}s events={events} ({eps:.0}/s) \
                     flows {done}/{total} active={} eta={eta}",
                    m.plane_key(),
                    b.as_secs_f64(),
                    view.flows_active,
                );
            }
        }
        self.sampler.metrics = Some(m);
    }

    /// Publish the current views to the metrics plane — wall-throttled
    /// unless `force` (the run loop forces one at every exit, so the last
    /// scrape always matches the end-of-run reports). A throttled publish
    /// always refreshes the progress row but renders the text views only
    /// when a reader touched the plane since the previous publish. A no-op
    /// without metrics.
    pub(super) fn publish_metrics(&mut self, force: bool) {
        let Some(mut m) = self.sampler.metrics.take() else {
            return;
        };
        if m.publish_due(force) {
            let wall = m.wall_elapsed();
            let fates = if force { self.ledger_fates() } else { None };
            let view = self.sample_view(self.now, fates.as_ref().map(|f| f.as_slice()));
            let progress = sim_metrics::Progress {
                sim_secs: self.now.as_secs_f64(),
                events: view.events_processed,
                events_per_sec: if wall > 0.0 {
                    view.events_processed as f64 / wall
                } else {
                    0.0
                },
                flows_total: view.flows_total,
                flows_active: view.flows_active,
                flows_completed: view.flows_completed,
                flows_aborted: view.flows_aborted,
            };
            if force {
                // Run-call exit: bring the instantaneous gauges up to the
                // final state so the last scrape matches the reports.
                m.refresh_final(&view);
            }
            if m.wants_text(force) {
                let health = self.health_report().to_json().to_string();
                m.publish(self.engine_report(), health, progress, force);
            } else {
                m.publish_progress(progress);
            }
        }
        self.sampler.metrics = Some(m);
    }

    /// Count one credit feedback-loop rate update (no-op without metrics;
    /// called unconditionally by endpoints through `Ctx`).
    #[inline]
    pub(crate) fn note_feedback_update(&mut self) {
        if let Some(m) = self.sampler.metrics.as_mut() {
            m.note_feedback_update();
        }
    }

    /// The static facts the sampled metric families are built from; only
    /// meaningful once monitors (ledger, watchdog) are installed.
    pub(super) fn fam_spec(&self) -> FamSpec<'_> {
        FamSpec {
            ports: &self.ports,
            has_ledger: self.ledger.is_some(),
            watchdog_max_events: self.watchdog.as_ref().and_then(|w| w.spec().max_events),
        }
    }

    /// Ledger fate totals, in the order the `xpass_ledger_pkts` family
    /// registers them; `None` without a ledger.
    fn ledger_fates(&self) -> Option<[(&'static str, u64); 8]> {
        self.ledger.as_ref()?;
        let lr = self.ledger_report();
        Some([
            ("emitted", lr.emitted.pkts),
            ("delivered", lr.delivered.pkts),
            ("queue_dropped", lr.queue_dropped.pkts),
            ("fault_lost", lr.fault_lost.pkts),
            ("corrupted", lr.corrupted.pkts),
            ("in_flight", lr.in_flight.pkts),
            ("queued", lr.queued.pkts),
            ("stashed", lr.stashed.pkts),
        ])
    }

    /// The signals one metrics row is built from, as of instant `t`.
    fn sample_view<'a>(
        &'a self,
        t: SimTime,
        fates: Option<&'a [(&'static str, u64)]>,
    ) -> SampleView<'a> {
        // Flows started at `t` and not yet settled, and how many of those
        // are currently marked stalled.
        let (mut active, mut stalled) = (0u64, 0u64);
        for f in self.arena.ids() {
            let flags = self.arena.flags(f);
            if flags & (FLAG_DONE | FLAG_ABORTED) == 0 && self.arena.info(f).start <= t {
                active += 1;
                if flags & FLAG_STALLED != 0 {
                    stalled += 1;
                }
            }
        }
        SampleView {
            t,
            ports: &self.ports,
            flows_total: self.arena.slot_count() as u64,
            flows_active: active,
            flows_stalled: stalled,
            flows_completed: self.completed as u64,
            flows_aborted: self.aborted as u64,
            counters: &self.counters,
            events_processed: self.events.events_processed(),
            ledger: fates,
            watchdog_events: self.watchdog.as_ref().map(|w| w.events_observed()),
        }
    }
}

fn snap_series(w: &mut SnapWriter, series: &BTreeMap<u32, TimeSeries>) {
    w.usize(series.len());
    for (k, s) in series {
        w.u32(*k);
        s.snap(w);
    }
}

/// Every series of the snapshot must be one the setup tracked too.
fn restore_series(
    r: &mut SnapReader<'_>,
    what: &str,
    series: &mut BTreeMap<u32, TimeSeries>,
) -> Result<(), SnapError> {
    for _ in 0..r.seq_len(4)? {
        let k = r.u32()?;
        match series.get_mut(&k) {
            Some(s) => s.restore(r)?,
            None => return Err(r.err(format!("tracked {what} {k} not in configuration"))),
        }
    }
    Ok(())
}

/// The series half; the metrics state has its own `metrics` section, and
/// the network re-arms [`Sampler::next_due`] once both are restored.
impl Snapshot for Sampler {
    fn snap(&self, w: &mut SnapWriter) {
        w.opt(self.interval.as_ref(), |w, d| w.u64(d.0));
        // `opt(None)` is the byte v2 wrote for "no sample event queued".
        w.opt(self.pending.as_ref(), |w, (t, seq)| {
            w.u64(t.0);
            w.u64(*seq);
        });
        w.seq(&self.flows, |w, (f, last)| {
            w.u32(f.0);
            w.u64(*last);
        });
        snap_series(w, &self.flow_series);
        snap_series(w, &self.port_series);
    }
}

impl Restore for Sampler {
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.interval = r.opt(|r| r.u64())?.map(Dur);
        self.pending = r.opt(|r| Ok((SimTime(r.u64()?), r.u64()?)))?;
        if self.pending.is_some() && self.interval.is_none() {
            return Err(r.err("a series point is pending without an interval"));
        }
        self.flows = r.within("tracked_flows", |r| {
            (0..r.seq_len(12)?)
                .map(|_| Ok((FlowId(r.u32()?), r.u64()?)))
                .collect()
        })?;
        r.within("flow_series", |r| {
            restore_series(r, "flow", &mut self.flow_series)
        })?;
        r.within("port_series", |r| {
            restore_series(r, "port", &mut self.port_series)
        })
    }
}
