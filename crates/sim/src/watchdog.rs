//! Hang and livelock detection for simulation runs.
//!
//! A discrete-event simulation can get stuck in three distinct ways: the
//! event population explodes (runaway feedback loop), wall-clock time blows
//! past any reasonable budget (pathological slowdown), or simulation time
//! stops advancing because events keep scheduling more events at the same
//! instant (a zero-delay livelock). A [`Watchdog`] armed with a
//! [`WatchdogSpec`] observes every handled event and trips on the first
//! exceeded budget, letting the driver abort the run with a diagnostic
//! [`WatchdogReport`] instead of spinning forever.
//!
//! The watchdog follows the workspace's zero-cost-when-disabled contract:
//! drivers hold an `Option<Watchdog>` and only call
//! [`observe`](Watchdog::observe) when one is installed. `observe` itself is
//! a handful of integer compares; the wall clock is sampled only once every
//! [`WALL_CHECK_MASK`]`+1` events so the hot loop never syscalls.
//!
//! Determinism: the event-count and same-instant budgets are functions of
//! the simulated event stream alone, so a trip (and the resulting report)
//! replays bit-identically from a seed. The wall-clock budget is inherently
//! nondeterministic — use it as a last-resort backstop and keep it out of
//! byte-compared output (reports expose the reason, not elapsed wall time).

use crate::time::SimTime;
use std::time::{Duration, Instant};

/// The wall clock is consulted once every `WALL_CHECK_MASK + 1` observed
/// events (must be a power of two minus one). Shared by every wall-clock
/// reader on the run loop's per-event path — the watchdog's budget check
/// here and the metrics plane's publish throttle — so that path never
/// makes a clock syscall per event.
pub const WALL_CHECK_MASK: u64 = 0xFFF;

/// Budgets for one run. Unset budgets are not checked.
#[derive(Clone, Copy, Debug, Default)]
pub struct WatchdogSpec {
    /// Trip after this many observed events.
    pub max_events: Option<u64>,
    /// Trip once the run has consumed this much wall-clock time (checked
    /// every [`WALL_CHECK_MASK`]`+1` events).
    pub max_wall: Option<Duration>,
    /// Trip after this many consecutive events at one simulation instant
    /// (zero-delay livelock detection).
    pub max_events_per_instant: Option<u64>,
}

/// Which budget tripped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TripReason {
    /// The event-count budget was exhausted.
    EventBudget,
    /// The wall-clock budget was exhausted.
    WallClock,
    /// Simulation time stopped advancing (same-instant event streak).
    TimeStuck,
}

impl TripReason {
    /// Stable machine-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            TripReason::EventBudget => "event_budget",
            TripReason::WallClock => "wall_clock",
            TripReason::TimeStuck => "time_stuck",
        }
    }
}

/// Diagnostic snapshot built by the driver when its watchdog trips.
#[derive(Clone, Debug)]
pub struct WatchdogReport {
    /// Which budget tripped.
    pub reason: TripReason,
    /// Simulation time at the trip.
    pub at: SimTime,
    /// Events the watchdog observed before tripping.
    pub events_observed: u64,
    /// Pending events in the scheduler queue at the trip.
    pub queue_len: usize,
    /// The driver's current phase label (e.g. `"run"`, `"drain"`).
    pub phase: &'static str,
    /// The most frequently handled event kind so far (the likely culprit).
    pub hottest_event: &'static str,
    /// How many times the hottest kind was handled.
    pub hottest_count: u64,
}

impl WatchdogReport {
    /// Render as JSON. Contains only deterministic fields (no wall-clock
    /// measurements), so reports from event-budget and same-instant trips
    /// byte-compare across schedulers and job counts.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj()
            .with("reason", Json::Str(self.reason.name().to_string()))
            .with("at_ps", Json::num_u64(self.at.as_ps()))
            .with("events_observed", Json::num_u64(self.events_observed))
            .with("queue_len", Json::num_u64(self.queue_len as u64))
            .with("phase", Json::Str(self.phase.to_string()))
            .with("hottest_event", Json::Str(self.hottest_event.to_string()))
            .with("hottest_count", Json::num_u64(self.hottest_count))
    }
}

/// Live watchdog state: call [`observe`](Watchdog::observe) after every
/// handled event; a `Some(reason)` return means the run must abort, and
/// the driver files its diagnostic with [`record_trip`](Watchdog::record_trip).
#[derive(Debug)]
pub struct Watchdog {
    spec: WatchdogSpec,
    events: u64,
    last_now: SimTime,
    instant_streak: u64,
    /// Set on the first observation so installation cost is nil.
    wall_start: Option<Instant>,
    /// The first trip's diagnostic; a driver refuses to run on once set.
    trip: Option<WatchdogReport>,
}

impl Watchdog {
    /// Arm a watchdog with the given budgets.
    pub fn new(spec: WatchdogSpec) -> Watchdog {
        Watchdog {
            spec,
            events: 0,
            last_now: SimTime::ZERO,
            instant_streak: 0,
            wall_start: None,
            trip: None,
        }
    }

    /// The first trip's diagnostic, if the watchdog has tripped.
    pub fn trip(&self) -> Option<&WatchdogReport> {
        self.trip.as_ref()
    }

    /// File the diagnostic of a trip; only the first one is kept.
    pub fn record_trip(&mut self, report: WatchdogReport) {
        self.trip.get_or_insert(report);
    }

    /// The armed budgets.
    pub fn spec(&self) -> &WatchdogSpec {
        &self.spec
    }

    /// Events observed so far.
    pub fn events_observed(&self) -> u64 {
        self.events
    }

    /// Record one handled event at simulation time `now`. Returns the trip
    /// reason when a budget is exhausted; the caller should abort the run
    /// and surface a [`WatchdogReport`].
    #[inline]
    pub fn observe(&mut self, now: SimTime) -> Option<TripReason> {
        self.events += 1;
        if now != self.last_now {
            self.last_now = now;
            self.instant_streak = 1;
        } else {
            self.instant_streak += 1;
            if let Some(cap) = self.spec.max_events_per_instant {
                if self.instant_streak > cap {
                    return Some(TripReason::TimeStuck);
                }
            }
        }
        if let Some(cap) = self.spec.max_events {
            if self.events > cap {
                return Some(TripReason::EventBudget);
            }
        }
        if let Some(budget) = self.spec.max_wall {
            if self.events & WALL_CHECK_MASK == 0 {
                let start = *self.wall_start.get_or_insert_with(Instant::now);
                if start.elapsed() > budget {
                    return Some(TripReason::WallClock);
                }
            }
        }
        None
    }
}

impl Watchdog {
    /// Snapshot traversal. The spec is configuration. `wall_start` is
    /// deliberately excluded: wall time must never enter a snapshot, so a
    /// restored run's wall budget restarts from the restore point. The trip
    /// report stays out as well: it is a diagnostic for the process that
    /// tripped, not run state.
    pub fn persist(&mut self, io: &mut crate::snap::SnapIo) -> Result<(), crate::snap::SnapError> {
        io.u64(&mut self.events)?;
        io.u64(&mut self.last_now.0)?;
        io.u64(&mut self.instant_streak)?;
        if io.reading() {
            self.wall_start = None;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    #[test]
    fn unbounded_spec_never_trips() {
        let mut w = Watchdog::new(WatchdogSpec::default());
        for i in 0..100_000u64 {
            assert_eq!(w.observe(SimTime(i % 3)), None);
        }
        assert_eq!(w.events_observed(), 100_000);
    }

    #[test]
    fn event_budget_trips_exactly_once_exceeded() {
        let mut w = Watchdog::new(WatchdogSpec {
            max_events: Some(10),
            ..WatchdogSpec::default()
        });
        for i in 0..10u64 {
            assert_eq!(w.observe(SimTime(i)), None, "event {i}");
        }
        assert_eq!(w.observe(SimTime(11)), Some(TripReason::EventBudget));
    }

    #[test]
    fn same_instant_streak_trips_time_stuck() {
        let mut w = Watchdog::new(WatchdogSpec {
            max_events_per_instant: Some(5),
            ..WatchdogSpec::default()
        });
        let t = SimTime::ZERO + Dur::us(3);
        for _ in 0..5 {
            assert_eq!(w.observe(t), None);
        }
        assert_eq!(w.observe(t), Some(TripReason::TimeStuck));
    }

    #[test]
    fn advancing_time_resets_the_streak() {
        let mut w = Watchdog::new(WatchdogSpec {
            max_events_per_instant: Some(3),
            ..WatchdogSpec::default()
        });
        for step in 1..50u64 {
            let t = SimTime(step * 1000);
            for _ in 0..3 {
                assert_eq!(w.observe(t), None);
            }
        }
    }

    #[test]
    fn wall_budget_trips_on_elapsed_time() {
        let mut w = Watchdog::new(WatchdogSpec {
            max_wall: Some(Duration::from_millis(1)),
            ..WatchdogSpec::default()
        });
        // First wall check (event 4096) starts the clock; busy-wait past the
        // budget and keep observing until the next check fires.
        let mut tripped = None;
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut i = 0u64;
        while tripped.is_none() && Instant::now() < deadline {
            i += 1;
            tripped = w.observe(SimTime(i));
            if i.is_multiple_of(4096) {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        assert_eq!(tripped, Some(TripReason::WallClock));
    }

    #[test]
    fn report_json_is_deterministic_shape() {
        let r = WatchdogReport {
            reason: TripReason::TimeStuck,
            at: SimTime(42),
            events_observed: 7,
            queue_len: 3,
            phase: "run",
            hottest_event: "timer",
            hottest_count: 6,
        };
        let j = crate::json::parse(&r.to_json().to_string()).unwrap();
        assert_eq!(j.get("reason").unwrap().as_str(), Some("time_stuck"));
        assert_eq!(j.get("at_ps").unwrap().as_u64(), Some(42));
        assert_eq!(j.get("hottest_event").unwrap().as_str(), Some("timer"));
        assert_eq!(j.get("phase").unwrap().as_str(), Some("run"));
    }
}
