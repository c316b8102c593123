//! Engine profiling: what the discrete-event kernel did and how fast.
//!
//! The network layer fills in an [`EngineReport`] at the end of a run:
//! events processed broken down by kind, the deepest the event heap got,
//! and wall-clock throughput. The wall-clock figures are measured outside
//! the simulation (they never feed back into it), so profiling does not
//! perturb determinism. Where the time goes layer by layer is the repo
//! benchmark's job (`benchmark/`): it times the layers from outside, so
//! nothing in the engine is instrumented for it.

use crate::json::Json;

/// A summary of one simulation run's engine activity.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineReport {
    /// Total events popped from the queue.
    pub events_processed: u64,
    /// Events broken down by kind name (stable order).
    pub events_by_kind: Vec<(&'static str, u64)>,
    /// Deepest the event heap got during the run.
    pub peak_queue_len: usize,
    /// Wall-clock seconds spent inside the run loop.
    pub wall_secs: f64,
    /// Simulated seconds covered by the run.
    pub sim_secs: f64,
    /// Which scheduler ran the queue (`"heap"` / `"calendar"`).
    pub scheduler: &'static str,
    /// The calendar's adaptive bucket width (log2 ps) at report time;
    /// `None` under the heap scheduler.
    pub bucket_bits: Option<u32>,
}

impl EngineReport {
    /// Events processed per wall-clock second (0 if no time elapsed).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events_processed as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut by_kind = Json::obj();
        for (name, n) in &self.events_by_kind {
            by_kind.set(name, Json::num_u64(*n));
        }
        let mut j = Json::obj()
            .with("events_processed", Json::num_u64(self.events_processed))
            .with("events_by_kind", by_kind)
            .with("peak_queue_len", Json::num_u64(self.peak_queue_len as u64))
            .with("wall_secs", Json::Num(self.wall_secs))
            .with("sim_secs", Json::Num(self.sim_secs))
            .with("events_per_sec", Json::Num(self.events_per_sec()))
            .with("scheduler", Json::str(self.scheduler));
        if let Some(bits) = self.bucket_bits {
            j.set("bucket_bits", Json::num_u64(bits as u64));
        }
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn events_per_sec_guards_zero_wall_time() {
        let r = EngineReport {
            events_processed: 100,
            ..Default::default()
        };
        assert_eq!(r.events_per_sec(), 0.0);
    }

    #[test]
    fn json_round_trips_counts() {
        let r = EngineReport {
            events_processed: 12,
            events_by_kind: vec![("arrive", 7), ("timer", 5)],
            peak_queue_len: 4,
            wall_secs: 0.5,
            sim_secs: 2.0,
            scheduler: "calendar",
            bucket_bits: Some(18),
        };
        let j = json::parse(&r.to_json().to_string()).unwrap();
        assert_eq!(j.get("events_processed").unwrap().as_u64(), Some(12));
        assert_eq!(
            j.get("events_by_kind")
                .unwrap()
                .get("arrive")
                .unwrap()
                .as_u64(),
            Some(7)
        );
        assert_eq!(j.get("events_per_sec").unwrap().as_f64(), Some(24.0));
    }
}
