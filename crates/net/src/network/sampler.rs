//! The `Ev::Sample` sampler: every interval, the delivered throughput of
//! each tracked flow and the data-queue depth of each tracked port go
//! into a [`TimeSeries`] (Figs 1, 10, 13, 16 plot them).

use crate::arena::FlowArena;
use crate::ids::{DLinkId, FlowId};
use crate::port::EgressPort;
use std::collections::BTreeMap;
use xpass_sim::snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
use xpass_sim::stats::TimeSeries;
use xpass_sim::time::{Dur, SimTime};

/// Sampling state of one network. Inert until an interval is set.
#[derive(Default)]
pub(super) struct Sampler {
    interval: Option<Dur>,
    /// True while an `Ev::Sample` is queued.
    scheduled: bool,
    /// Tracked flows, each with its delivered bytes at the last sample.
    flows: Vec<(FlowId, u64)>,
    ports: Vec<DLinkId>,
    /// One series per flow / port ever tracked, by id. Ordered maps: a
    /// series outlives its flow's retirement, and the snapshot lists them
    /// by ascending id.
    flow_series: BTreeMap<u32, TimeSeries>,
    port_series: BTreeMap<u32, TimeSeries>,
}

impl Sampler {
    /// Set the sampling interval. True when no sample is queued yet: the
    /// caller queues the first one, an interval from now.
    pub(super) fn set_interval(&mut self, interval: Dur) -> bool {
        assert!(!interval.is_zero());
        self.interval = Some(interval);
        !std::mem::replace(&mut self.scheduled, true)
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

    /// Stop sampling a flow (it is being retired); its series stays.
    pub(super) fn untrack_flow(&mut self, flow: FlowId) {
        self.flows.retain(|(f, _)| *f != flow);
    }

    pub(super) fn flow_series(&self, flow: FlowId) -> Option<&TimeSeries> {
        self.flow_series.get(&flow.0)
    }

    pub(super) fn port_series(&self, dlink: DLinkId) -> Option<&TimeSeries> {
        self.port_series.get(&dlink.0)
    }

    /// An `Ev::Sample` fired at `now`: record one point per tracked flow
    /// and port. Returns when the next sample is due — `None` once
    /// `work_remains` is false, so that `run_until_done` terminates.
    pub(super) fn on_sample(
        &mut self,
        now: SimTime,
        arena: &FlowArena,
        ports: &[EgressPort],
        work_remains: bool,
    ) -> Option<SimTime> {
        let interval = self.interval?;
        for (flow, last) in &mut self.flows {
            let cur = arena.rx_bytes(*flow);
            let gbps = (cur - *last) as f64 * 8.0 / interval.as_secs_f64() / 1e9;
            *last = cur;
            if let Some(s) = self.flow_series.get_mut(&flow.0) {
                s.push(now, gbps);
            }
        }
        for dl in &self.ports {
            let bytes = ports[dl.0 as usize].data.len_bytes();
            if let Some(s) = self.port_series.get_mut(&dl.0) {
                s.push(now, bytes as f64);
            }
        }
        self.scheduled = work_remains;
        work_remains.then(|| now + interval)
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

impl Snapshot for Sampler {
    fn snap(&self, w: &mut SnapWriter) {
        w.opt(self.interval.as_ref(), |w, d| w.u64(d.0));
        w.bool(self.scheduled);
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
        self.scheduled = r.bool()?;
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
