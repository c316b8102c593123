//! Per-host timer generations and a shared hierarchical occupancy wheel.
//!
//! The old layout gave every flow its own `timer_gen: u64` counter — 8 bytes
//! per flow whose only job was minting unique generations for the
//! logical-cancel protocol ([`TimerSlot`](crate::endpoint::TimerSlot)
//! filters stale firings by generation mismatch). Generations only need to
//! be unique *per arming endpoint*, and every endpoint lives on a fixed
//! host (the sender on `src`, the receiver on `dst`), so one monotone
//! counter per **host** suffices — million-flow runs carry `n_hosts`
//! counters instead of `n_flows`.
//!
//! On top of the counters, [`TimerWheels`] keeps a shared hierarchical
//! occupancy wheel: four levels of 64 slots at geometrically coarser
//! granularity (≈1 µs, 67 µs, 4.3 ms, 275 ms per slot), layered over the
//! calendar event queue that actually fires the events. Arming picks the
//! finest level whose horizon covers the delay and packs the level into
//! the generation's top bits, so the fire path can decrement the exact
//! slot without a search. The wheel is pure accounting — an O(1) histogram
//! of outstanding timers by expiry horizon, plus an exact per-host pending
//! count — and never influences event order, so observable outputs stay
//! byte-identical.
//!
//! Every `arm` is matched by exactly one `fired`, so the occupancy counts
//! are exact even across slot aliasing (windows 64 apart share a slot; the
//! sum stays right). Which call settles an arming depends on whether its
//! event was ever queued:
//!
//! * a one-shot [`TimerSlot`](crate::endpoint::TimerSlot) arming always
//!   queues its event, which is never removed (cancellation is logical, in
//!   the slot): the event's pop calls `fired`, live or stale;
//! * a [`Deadline`](crate::endpoint::Deadline) — the window transports'
//!   RTO, re-armed by every ACK — reserves a queue position per arming but
//!   keeps one event queued: an arming whose event *is* queued settles at
//!   its pop as above; one that never is settles, with its own expiry, when
//!   a later arming supersedes it or the deadline is cancelled.
//!
//! Measured on the repo benchmark before the `Deadline` existed: 99.4 % of
//! `fct_dctcp`'s 497 832 timer events were stale RTO armings (2 756 live),
//! and 0 % of `fct_xpass`'s or `clos_xl`'s — ExpressPass pace timers are
//! never re-armed while pending. The stale ones are no longer queued, so
//! the event queue holds live deadlines and the wheel remains what it
//! says: accounting, with no part in firing anything.

use crate::ids::HostId;
use xpass_sim::time::SimTime;
use xpass_sim::{SnapError, SnapReader, SnapWriter};

/// Wheel levels (finest → coarsest).
pub const LEVELS: usize = 4;
/// Slots per level.
pub const SLOTS: usize = 64;
/// log2 of each level's slot width in picoseconds: ≈1 µs, 67 µs, 4.3 ms,
/// 275 ms. A level's horizon is 64 slots: ≈67 µs, 4.3 ms, 275 ms, 17.6 s.
const SHIFT: [u32; LEVELS] = [20, 26, 32, 38];
/// Generation bits below the packed level tag.
const LEVEL_SHIFT: u32 = 58;
const GEN_MASK: u64 = (1 << LEVEL_SHIFT) - 1;
/// Level tag for delays beyond the top level's horizon.
const OVERFLOW: u64 = LEVELS as u64;

/// Per-host timer generations + shared hierarchical occupancy wheel.
pub struct TimerWheels {
    /// Monotone generation counter per host (low 58 bits of minted gens).
    host_gen: Vec<u64>,
    /// Outstanding (armed, not yet fired) timers per host. Exact.
    host_pending: Vec<u32>,
    /// Occupancy counts per level and slot.
    counts: [[u32; SLOTS]; LEVELS],
    /// Outstanding timers per level.
    level_pending: [u64; LEVELS],
    /// Timers beyond the top level's horizon.
    overflow: u64,
}

impl TimerWheels {
    /// Wheels for a topology with `n_hosts` hosts.
    pub fn new(n_hosts: usize) -> TimerWheels {
        TimerWheels {
            host_gen: vec![0; n_hosts],
            host_pending: vec![0; n_hosts],
            counts: [[0; SLOTS]; LEVELS],
            level_pending: [0; LEVELS],
            overflow: 0,
        }
    }

    /// Mint a generation for a timer on `host` expiring at `expiry`, and
    /// count it into the wheel. The returned generation is unique per host
    /// (level tag in the top bits, monotone counter below).
    #[inline]
    pub fn arm(&mut self, host: HostId, now: SimTime, expiry: SimTime) -> u64 {
        let h = host.0 as usize;
        self.host_gen[h] += 1;
        let counter = self.host_gen[h];
        debug_assert!(counter <= GEN_MASK, "per-host timer generation overflow");
        self.host_pending[h] += 1;

        let delay = expiry.as_ps().saturating_sub(now.as_ps());
        let level = Self::level_for(delay);
        if level == OVERFLOW {
            self.overflow += 1;
        } else {
            let l = level as usize;
            let slot = (expiry.as_ps() >> SHIFT[l]) as usize % SLOTS;
            self.counts[l][slot] += 1;
            self.level_pending[l] += 1;
        }
        (level << LEVEL_SHIFT) | counter
    }

    /// Account a timer firing: decrement the exact slot the generation's
    /// level tag names. Called for every popped timer event, live or stale,
    /// and — with the arming's own `expiry` — for an arming that is
    /// superseded or cancelled without ever having been queued.
    ///
    /// Saturating rather than asserting: a restored (possibly adversarial)
    /// snapshot may carry counts inconsistent with its pending events, and
    /// the wheel is pure accounting — it must never abort the run.
    #[inline]
    pub fn fired(&mut self, host: HostId, gen: u64, expiry: SimTime) {
        let h = host.0 as usize;
        if let Some(p) = self.host_pending.get_mut(h) {
            *p = p.saturating_sub(1);
        }

        let level = gen >> LEVEL_SHIFT;
        if level >= OVERFLOW {
            self.overflow = self.overflow.saturating_sub(1);
        } else {
            let l = level as usize;
            let slot = (expiry.as_ps() >> SHIFT[l]) as usize % SLOTS;
            self.counts[l][slot] = self.counts[l][slot].saturating_sub(1);
            self.level_pending[l] = self.level_pending[l].saturating_sub(1);
        }
    }

    /// Finest level whose 64-slot horizon covers `delay_ps`, or the
    /// overflow tag.
    #[inline]
    fn level_for(delay_ps: u64) -> u64 {
        for (l, shift) in SHIFT.iter().enumerate() {
            if delay_ps < (SLOTS as u64) << shift {
                return l as u64;
            }
        }
        OVERFLOW
    }

    /// Outstanding timers on one host.
    pub fn pending(&self, host: HostId) -> u32 {
        self.host_pending[host.0 as usize]
    }

    /// Outstanding timers across all hosts.
    pub fn total_pending(&self) -> u64 {
        self.level_pending.iter().sum::<u64>() + self.overflow
    }

    /// Outstanding timers per level (finest → coarsest) plus overflow.
    pub fn occupancy(&self) -> ([u64; LEVELS], u64) {
        (self.level_pending, self.overflow)
    }

    /// Number of hosts the wheels were sized for.
    pub fn n_hosts(&self) -> usize {
        self.host_gen.len()
    }

    /// Serialize all wheel state.
    pub fn snap(&self, w: &mut SnapWriter) {
        w.seq(&self.host_gen, |w, g| w.u64(*g));
        w.seq(&self.host_pending, |w, p| w.u32(*p));
        for l in 0..LEVELS {
            for s in 0..SLOTS {
                w.u32(self.counts[l][s]);
            }
            w.u64(self.level_pending[l]);
        }
        w.u64(self.overflow);
    }

    /// Restore state written by [`snap`](Self::snap). The host count must
    /// match the configured topology.
    pub fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let n = self.host_gen.len();
        r.enter("host_gen");
        let ng = r.seq_len(8)?;
        if ng != n {
            return Err(r.err(format!(
                "timer wheel host count mismatch: configuration has {n}, snapshot has {ng}"
            )));
        }
        for g in self.host_gen.iter_mut() {
            *g = r.u64()?;
        }
        r.leave();
        r.enter("host_pending");
        let np = r.seq_len(4)?;
        if np != n {
            return Err(r.err(format!(
                "timer wheel host count mismatch: configuration has {n}, snapshot has {np}"
            )));
        }
        for p in self.host_pending.iter_mut() {
            *p = r.u32()?;
        }
        r.leave();
        r.enter("wheel");
        for l in 0..LEVELS {
            for s in 0..SLOTS {
                self.counts[l][s] = r.u32()?;
            }
            self.level_pending[l] = r.u64()?;
        }
        self.overflow = r.u64()?;
        r.leave();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpass_sim::time::Dur;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + Dur::us(us)
    }

    #[test]
    fn gens_are_unique_and_monotone_per_host() {
        let mut w = TimerWheels::new(2);
        let g1 = w.arm(HostId(0), t(0), t(10));
        let g2 = w.arm(HostId(0), t(0), t(10));
        let g3 = w.arm(HostId(1), t(0), t(10));
        assert_ne!(g1, g2);
        assert!((g1 & GEN_MASK) < (g2 & GEN_MASK));
        // Different hosts may mint equal counters; uniqueness is per host.
        assert_eq!(g3 & GEN_MASK, g1 & GEN_MASK);
    }

    #[test]
    fn level_selection_by_horizon() {
        // 10 µs fits level 0 (67 µs horizon); 1 ms → level 1; 100 ms →
        // level 2 (275 ms horizon); 1 s → level 3; 60 s → overflow.
        assert_eq!(TimerWheels::level_for(Dur::us(10).as_ps()), 0);
        assert_eq!(TimerWheels::level_for(Dur::us(1000).as_ps()), 1);
        assert_eq!(TimerWheels::level_for(Dur::ms(100).as_ps()), 2);
        assert_eq!(TimerWheels::level_for(Dur::ms(1000).as_ps()), 3);
        assert_eq!(TimerWheels::level_for(Dur::ms(60_000).as_ps()), OVERFLOW);
    }

    #[test]
    fn arm_fire_roundtrip_zeroes_occupancy() {
        let mut w = TimerWheels::new(3);
        let mut armed = Vec::new();
        for (i, us) in [5u64, 50, 500, 5_000, 50_000, 500_000, 30_000_000]
            .iter()
            .enumerate()
        {
            let host = HostId((i % 3) as u32);
            let expiry = t(100 + *us);
            let gen = w.arm(host, t(100), expiry);
            armed.push((host, gen, expiry));
        }
        assert_eq!(w.total_pending(), 7);
        for (host, gen, expiry) in armed {
            w.fired(host, gen, expiry);
        }
        assert_eq!(w.total_pending(), 0);
        for h in 0..3 {
            assert_eq!(w.pending(HostId(h)), 0);
        }
    }

    #[test]
    fn per_host_pending_is_exact() {
        let mut w = TimerWheels::new(2);
        let g0 = w.arm(HostId(0), t(0), t(1));
        let _g1 = w.arm(HostId(1), t(0), t(2));
        assert_eq!(w.pending(HostId(0)), 1);
        assert_eq!(w.pending(HostId(1)), 1);
        w.fired(HostId(0), g0, t(1));
        assert_eq!(w.pending(HostId(0)), 0);
        assert_eq!(w.pending(HostId(1)), 1);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut w = TimerWheels::new(4);
        let mut fired_later = Vec::new();
        for i in 0..20u64 {
            let host = HostId((i % 4) as u32);
            let expiry = t(i * 37 + 1);
            let gen = w.arm(host, t(0), expiry);
            if i % 3 == 0 {
                w.fired(host, gen, expiry);
            } else {
                fired_later.push((host, gen, expiry));
            }
        }
        let mut sw = SnapWriter::new();
        w.snap(&mut sw);
        let body = sw.into_body();

        let mut w2 = TimerWheels::new(4);
        let mut r = SnapReader::new(&body, 0);
        w2.restore(&mut r).unwrap();
        assert_eq!(w2.total_pending(), w.total_pending());
        for h in 0..4 {
            assert_eq!(w2.pending(HostId(h)), w.pending(HostId(h)));
        }
        // The restored wheels keep accounting exactly.
        for (host, gen, expiry) in fired_later {
            w2.fired(host, gen, expiry);
        }
        assert_eq!(w2.total_pending(), 0);
    }

    #[test]
    fn restore_rejects_host_count_mismatch() {
        let mut w = TimerWheels::new(2);
        let mut sw = SnapWriter::new();
        w.arm(HostId(0), t(0), t(5));
        w.snap(&mut sw);
        let body = sw.into_body();
        let mut w3 = TimerWheels::new(3);
        let mut r = SnapReader::new(&body, 0);
        let err = w3.restore(&mut r).unwrap_err();
        assert!(
            err.to_string().contains("timer wheel host count mismatch"),
            "got: {err}"
        );
    }
}
