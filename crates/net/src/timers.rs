//! Per-host timer generations.
//!
//! An endpoint timer is a generation minted here plus one queued
//! `Ev::Timer` event; cancellation is logical, in the endpoint
//! ([`TimerSlot`](crate::endpoint::TimerSlot) and
//! [`Deadline`](crate::endpoint::Deadline) ignore a firing whose
//! generation is not the latest arming's). Generations only need to be
//! unique *per arming endpoint*, and every endpoint lives on a fixed host
//! (the sender on `src`, the receiver on `dst`), so one monotone counter
//! per **host** suffices — million-flow runs carry `n_hosts` counters
//! instead of `n_flows`. A minted generation is never 0, which is how a
//! `Deadline` spells "nothing armed".

use crate::ids::HostId;
use xpass_sim::time::SimTime;
use xpass_sim::{SnapError, SnapReader, SnapWriter};

/// Per-host timer generation counters. (The name is older than the
/// removal of the occupancy wheel it once held; the benchmark imports it.)
pub struct TimerWheels {
    /// Last generation minted per host.
    host_gen: Vec<u64>,
}

impl TimerWheels {
    /// Counters for a topology with `n_hosts` hosts.
    pub fn new(n_hosts: usize) -> TimerWheels {
        TimerWheels {
            host_gen: vec![0; n_hosts],
        }
    }

    /// Mint a generation for a timer on `host`: unique per host, monotone,
    /// never 0. The times are not used.
    #[inline]
    pub fn arm(&mut self, host: HostId, _now: SimTime, _expiry: SimTime) -> u64 {
        let g = &mut self.host_gen[host.0 as usize];
        *g += 1;
        *g
    }

    /// Does nothing. Kept, with [`arm`](Self::arm)'s signature, for its
    /// one caller: the benchmark's `timers.arm_fire_ns` measurement, which
    /// goes together with it.
    #[inline]
    pub fn fired(&mut self, _host: HostId, _gen: u64, _expiry: SimTime) {}

    /// Serialize the counters: a generation minted after a resume must
    /// differ from every one a restored endpoint may still hold.
    pub fn snap(&self, w: &mut SnapWriter) {
        w.seq(&self.host_gen, |w, g| w.u64(*g));
    }

    /// Restore state written by [`snap`](Self::snap). The host count must
    /// match the configured topology.
    pub fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        r.within("host_gen", |r| {
            r.seq_len_of("timer host", self.host_gen.len(), 8)?;
            self.host_gen.iter_mut().try_for_each(|g| {
                *g = r.u64()?;
                Ok(())
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arm(w: &mut TimerWheels, host: u32) -> u64 {
        w.arm(HostId(host), SimTime::ZERO, SimTime::ZERO)
    }

    #[test]
    fn gens_are_non_zero_and_monotone_per_host() {
        let mut w = TimerWheels::new(2);
        let g1 = arm(&mut w, 0);
        let g2 = arm(&mut w, 0);
        let g3 = arm(&mut w, 1);
        assert!(g1 != 0 && g3 != 0);
        assert!(g1 < g2);
        // Different hosts may mint equal generations; uniqueness is per host.
        assert_eq!(g3, g1);
    }

    #[test]
    fn host_gens_survive_a_snapshot() {
        let mut w = TimerWheels::new(3);
        let minted: Vec<(u32, u64)> = (0..20).map(|i| (i % 3, arm(&mut w, i % 3))).collect();
        let mut sw = SnapWriter::new();
        w.snap(&mut sw);
        let body = sw.into_body();

        let mut twin = TimerWheels::new(3);
        let mut r = SnapReader::new(&body, 0);
        twin.restore(&mut r).unwrap();
        r.expect_end().unwrap();
        for h in 0..3 {
            let g = arm(&mut twin, h);
            assert!(!minted.contains(&(h, g)), "host {h} reminted {g}");
            assert_eq!(g, arm(&mut w, h));
        }

        let e = TimerWheels::new(2)
            .restore(&mut SnapReader::new(&body, 0))
            .unwrap_err();
        assert!(e.msg.contains("timer host count mismatch"), "{e}");
    }
}
