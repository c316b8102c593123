//! Runtime invariant monitors: check the paper's core claims *during* a run.
//!
//! ExpressPass's headline properties are invariants, not averages: switch
//! data queues stay below the Table-1 network-calculus bound, and no data
//! packet is ever dropped. With an [`InvariantSpec`] installed
//! ([`Network::install_invariants`](crate::network::Network::install_invariants)),
//! the network checks both conditions at every switch-egress data enqueue,
//! surfaces violations as [`TraceEvent::InvariantViolation`] trace events
//! (when a sink is installed), and accumulates a structured [`HealthReport`].
//!
//! Like tracing and fault injection, monitoring is `Option`-gated: with no
//! spec installed the checks are a single `is_some()` test and runs are
//! byte-identical to an unmonitored simulator.

use crate::ledger::LedgerReport;
use xpass_sim::json::Json;
use xpass_sim::time::SimTime;
use xpass_sim::trace::TraceEvent;

/// What to monitor during a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct InvariantSpec {
    /// Assert every switch-egress data queue stays at or below this many
    /// bytes (the Table-1 bound for the topology's worst port).
    pub data_queue_bound_bytes: Option<u64>,
    /// Assert no data packet is tail-dropped at a switch egress queue.
    pub zero_data_loss: bool,
}

/// Structured outcome of the invariant monitors for one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HealthReport {
    /// True when monitors were installed (all other fields are meaningful
    /// only in that case).
    pub monitored: bool,
    /// The configured queue bound, if any.
    pub queue_bound_bytes: Option<u64>,
    /// Switch-egress data enqueues observed above the bound.
    pub queue_violations: u64,
    /// Time of the first queue-bound violation.
    pub first_queue_violation: Option<SimTime>,
    /// Peak switch-egress data-queue occupancy seen by the monitor, bytes.
    pub peak_switch_queue_bytes: u64,
    /// Data packets tail-dropped at switch egress queues (zero-loss
    /// violations when `zero_data_loss` was requested).
    pub loss_violations: u64,
    /// Time of the first data loss.
    pub first_loss: Option<SimTime>,
    /// Byte/packet conservation snapshot, when a ledger was installed
    /// ([`Network::install_ledger`](crate::network::Network::install_ledger));
    /// an unbalanced ledger fails [`ok`](Self::ok).
    pub ledger: Option<LedgerReport>,
}

impl HealthReport {
    /// True when every monitored invariant held for the whole run.
    pub fn ok(&self) -> bool {
        self.queue_violations == 0
            && self.loss_violations == 0
            && self.ledger.as_ref().is_none_or(LedgerReport::balanced)
    }

    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("monitored", Json::Bool(self.monitored))
            .with(
                "queue_bound_bytes",
                match self.queue_bound_bytes {
                    Some(b) => Json::num_u64(b),
                    None => Json::Null,
                },
            )
            .with("queue_violations", Json::num_u64(self.queue_violations))
            .with(
                "first_queue_violation_ps",
                match self.first_queue_violation {
                    Some(t) => Json::num_u64(t.as_ps()),
                    None => Json::Null,
                },
            )
            .with(
                "peak_switch_queue_bytes",
                Json::num_u64(self.peak_switch_queue_bytes),
            )
            .with("loss_violations", Json::num_u64(self.loss_violations))
            .with(
                "first_loss_ps",
                match self.first_loss {
                    Some(t) => Json::num_u64(t.as_ps()),
                    None => Json::Null,
                },
            )
            .with(
                "ledger",
                match self.ledger.as_ref() {
                    Some(l) => l.to_json(),
                    None => Json::Null,
                },
            )
            .with("ok", Json::Bool(self.ok()))
    }
}

/// Live monitor state held by the network while a spec is installed.
pub(crate) struct InvariantState {
    spec: InvariantSpec,
    /// Per-dlink: is this a switch egress port (the monitored set)?
    pub(crate) is_switch_egress: Vec<bool>,
    report: HealthReport,
}

impl InvariantState {
    pub(crate) fn new(spec: InvariantSpec, is_switch_egress: Vec<bool>) -> InvariantState {
        InvariantState {
            spec,
            is_switch_egress,
            report: HealthReport {
                monitored: true,
                queue_bound_bytes: spec.data_queue_bound_bytes,
                ..HealthReport::default()
            },
        }
    }

    pub(crate) fn report(&self) -> &HealthReport {
        &self.report
    }

    /// A data packet was accepted at a switch egress queue, leaving it at
    /// `qlen_bytes`. Returns a violation event when the bound is exceeded.
    pub(crate) fn on_switch_data_enqueue(
        &mut self,
        now: SimTime,
        dlink: u32,
        qlen_bytes: u64,
    ) -> Option<TraceEvent> {
        if qlen_bytes > self.report.peak_switch_queue_bytes {
            self.report.peak_switch_queue_bytes = qlen_bytes;
        }
        let bound = self.spec.data_queue_bound_bytes?;
        if qlen_bytes <= bound {
            return None;
        }
        self.report.queue_violations += 1;
        if self.report.first_queue_violation.is_none() {
            self.report.first_queue_violation = Some(now);
        }
        Some(TraceEvent::InvariantViolation {
            at: now,
            invariant: "data_queue_bound",
            dlink,
            observed: qlen_bytes,
            bound,
        })
    }

    /// A data packet was tail-dropped at a switch egress queue. Returns a
    /// violation event when zero-loss was requested.
    pub(crate) fn on_switch_data_drop(
        &mut self,
        now: SimTime,
        dlink: u32,
        bytes: u32,
    ) -> Option<TraceEvent> {
        if !self.spec.zero_data_loss {
            return None;
        }
        self.report.loss_violations += 1;
        if self.report.first_loss.is_none() {
            self.report.first_loss = Some(now);
        }
        Some(TraceEvent::InvariantViolation {
            at: now,
            invariant: "zero_data_loss",
            dlink,
            observed: bytes as u64,
            bound: 0,
        })
    }
}

impl InvariantState {
    /// Snapshot traversal. The spec and switch-egress map are
    /// configuration; only the accumulated violation counters carry over.
    /// The report's `ledger` field is filled from the network's own ledger
    /// at report-build time, never here.
    pub fn persist(&mut self, io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        let r = &mut self.report;
        io.u64(&mut r.queue_violations)?;
        io.opt(&mut r.first_queue_violation, |io, t| io.u64(&mut t.0))?;
        io.u64(&mut r.peak_switch_queue_bytes)?;
        io.u64(&mut r.loss_violations)?;
        io.opt(&mut r.first_loss, |io, t| io.u64(&mut t.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_bound_violations_accumulate() {
        let spec = InvariantSpec {
            data_queue_bound_bytes: Some(1000),
            zero_data_loss: true,
        };
        let mut st = InvariantState::new(spec, vec![true, false]);
        assert!(st.on_switch_data_enqueue(SimTime(1), 0, 900).is_none());
        let v = st.on_switch_data_enqueue(SimTime(2), 0, 1500).unwrap();
        match v {
            TraceEvent::InvariantViolation {
                invariant,
                observed,
                bound,
                ..
            } => {
                assert_eq!(invariant, "data_queue_bound");
                assert_eq!(observed, 1500);
                assert_eq!(bound, 1000);
            }
            other => panic!("{other:?}"),
        }
        assert!(st.on_switch_data_enqueue(SimTime(3), 0, 1600).is_some());
        let r = st.report();
        assert!(!r.ok());
        assert_eq!(r.queue_violations, 2);
        assert_eq!(r.first_queue_violation, Some(SimTime(2)));
        assert_eq!(r.peak_switch_queue_bytes, 1600);
    }

    #[test]
    fn loss_violations_only_when_requested() {
        let mut quiet = InvariantState::new(
            InvariantSpec {
                data_queue_bound_bytes: None,
                zero_data_loss: false,
            },
            vec![true],
        );
        assert!(quiet.on_switch_data_drop(SimTime(5), 0, 1538).is_none());
        assert!(quiet.report().ok());

        let mut strict = InvariantState::new(
            InvariantSpec {
                data_queue_bound_bytes: None,
                zero_data_loss: true,
            },
            vec![true],
        );
        assert!(strict.on_switch_data_drop(SimTime(5), 0, 1538).is_some());
        assert_eq!(strict.report().loss_violations, 1);
        assert_eq!(strict.report().first_loss, Some(SimTime(5)));
        assert!(!strict.report().ok());
    }

    #[test]
    fn report_json_shape() {
        let spec = InvariantSpec {
            data_queue_bound_bytes: Some(577_000),
            zero_data_loss: true,
        };
        let st = InvariantState::new(spec, vec![]);
        let j = xpass_sim::json::parse(&st.report().to_json().to_string()).unwrap();
        assert_eq!(j.get("monitored").unwrap().as_bool(), Some(true));
        assert_eq!(j.get("queue_bound_bytes").unwrap().as_u64(), Some(577_000));
        assert_eq!(j.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(j.get("first_loss_ps"), Some(&Json::Null));
    }
}
