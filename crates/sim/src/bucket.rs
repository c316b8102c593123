//! Token (leaky) bucket used to rate-limit the credit class.
//!
//! The paper configures "maximum bandwidth metering" on Broadcom chipsets
//! with a burst of 2 credit packets (§3.1): at peak credit rate credits are
//! spaced exactly one MTU-time apart, and the 2-credit burst capacity keeps
//! fractional token remainders from being discarded so the average credit
//! rate reaches the configured maximum.
//!
//! Tokens are accounted in **byte-picoseconds** style: we track byte-fractions
//! exactly using integer math — tokens accrue at `rate_bps / 8` bytes per
//! second, i.e. `rate_bps` bits per second, stored as bit-picoseconds to stay
//! integral.

use crate::time::{Dur, SimTime};

/// A token bucket that accrues credit at a fixed bit rate up to a byte cap.
///
/// Internally tracks *bit-picoseconds* (bits × 1e12) so every arithmetic step
/// is exact for integer bit rates.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    /// Fill rate in bits per second.
    rate_bps: u64,
    /// Capacity in bit-ps (bits × 1e12).
    cap_bitps: u128,
    /// Current level in bit-ps.
    level_bitps: u128,
    /// Last accrual timestamp.
    last: SimTime,
}

const BITPS_PER_BIT: u128 = 1_000_000_000_000;

impl TokenBucket {
    /// Create a bucket filling at `rate_bps` with capacity `cap_bytes`,
    /// starting full (a fresh port can send a burst immediately).
    pub fn new(rate_bps: u64, cap_bytes: u64) -> TokenBucket {
        assert!(rate_bps > 0, "token bucket rate must be positive");
        let cap = cap_bytes as u128 * 8 * BITPS_PER_BIT;
        TokenBucket {
            rate_bps,
            cap_bitps: cap,
            level_bitps: cap,
            last: SimTime::ZERO,
        }
    }

    /// Accrue tokens up to `now`.
    #[inline]
    pub fn advance(&mut self, now: SimTime) {
        if now <= self.last {
            return;
        }
        let dt_ps = now.since(self.last).as_ps() as u128;
        self.level_bitps = (self.level_bitps + dt_ps * self.rate_bps as u128).min(self.cap_bitps);
        self.last = now;
    }

    /// Whether `bytes` can be sent right now (after accruing to `now`).
    #[inline]
    pub fn conforms(&mut self, now: SimTime, bytes: u64) -> bool {
        self.advance(now);
        self.level_bitps >= bytes as u128 * 8 * BITPS_PER_BIT
    }

    /// Consume tokens for `bytes`. The level may go slightly negative-free:
    /// callers must check [`conforms`](Self::conforms) first; consuming more
    /// than available saturates at zero (and debug-asserts).
    #[inline]
    pub fn consume(&mut self, now: SimTime, bytes: u64) {
        self.advance(now);
        let need = bytes as u128 * 8 * BITPS_PER_BIT;
        debug_assert!(self.level_bitps >= need, "token bucket overdraw");
        self.level_bitps = self.level_bitps.saturating_sub(need);
    }

    /// Earliest time at which `bytes` worth of tokens will be available.
    /// Returns `now` if already conforming.
    pub fn time_until_conforming(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.advance(now);
        let need = bytes as u128 * 8 * BITPS_PER_BIT;
        if self.level_bitps >= need {
            return now;
        }
        let deficit = need - self.level_bitps;
        let wait_ps = deficit.div_ceil(self.rate_bps as u128) as u64;
        now + Dur::ps(wait_ps)
    }

    /// Current level in whole bytes (for inspection/tests).
    pub fn level_bytes(&self) -> u64 {
        (self.level_bitps / (8 * BITPS_PER_BIT)) as u64
    }

    /// Drain the bucket to empty (used when (re)configuring).
    pub fn drain(&mut self) {
        self.level_bitps = 0;
    }
}

impl TokenBucket {
    /// Snapshot traversal. Rate and capacity are configuration (rebuilt by
    /// setup); only the fill level and accrual timestamp are dynamic.
    pub fn persist(&mut self, io: &mut crate::snap::SnapIo) -> Result<(), crate::snap::SnapError> {
        io.u128(&mut self.level_bitps)?;
        io.u64(&mut self.last.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CREDIT: u64 = 84;

    fn bucket_10g() -> TokenBucket {
        // Credit rate on a 10G link: 10G * 84/1622.
        let rate = 10_000_000_000u64 * 84 / 1622;
        TokenBucket::new(rate, 2 * CREDIT)
    }

    #[test]
    fn starts_full() {
        let mut b = bucket_10g();
        assert!(b.conforms(SimTime::ZERO, 2 * CREDIT));
        assert!(!b.conforms(SimTime::ZERO, 2 * CREDIT + 1));
    }

    #[test]
    fn consume_then_refill() {
        let mut b = bucket_10g();
        b.consume(SimTime::ZERO, 2 * CREDIT);
        assert!(!b.conforms(SimTime::ZERO, CREDIT));
        // After one credit-interval the bucket holds one credit again.
        // interval = 84B / rate = 84*8 / (10e9*84/1622) s = 1622*8/10e9 s ≈ 1.2976us
        let t = b.time_until_conforming(SimTime::ZERO, CREDIT);
        let expect_ps = 1_297_600; // 1622 bytes at 10 Gbps
        let got = t.as_ps();
        assert!(
            (got as i64 - expect_ps as i64).abs() <= 1,
            "got {got}, expected ~{expect_ps}"
        );
        assert!(b.conforms(t, CREDIT));
    }

    #[test]
    fn refill_caps_at_capacity() {
        let mut b = bucket_10g();
        b.consume(SimTime::ZERO, CREDIT);
        b.advance(SimTime::ZERO + Dur::secs(1));
        assert_eq!(b.level_bytes(), 2 * CREDIT);
    }

    #[test]
    fn time_until_conforming_is_now_when_full() {
        let mut b = bucket_10g();
        assert_eq!(b.time_until_conforming(SimTime(123), CREDIT), SimTime(123));
    }

    #[test]
    fn average_rate_converges_to_configured() {
        // Send credits greedily for a while; average spacing must equal the
        // credit rate (the 2-credit cap must not leak extra bandwidth).
        let mut b = bucket_10g();
        b.drain();
        let mut now = SimTime::ZERO;
        let mut sent = 0u64;
        let horizon = SimTime::ZERO + Dur::ms(10);
        loop {
            now = b.time_until_conforming(now, CREDIT);
            if now >= horizon {
                break;
            }
            b.consume(now, CREDIT);
            sent += 1;
        }
        let rate_bits = sent as f64 * 84.0 * 8.0 / 0.01;
        let expect = 10e9 * 84.0 / 1622.0;
        assert!(
            (rate_bits - expect).abs() / expect < 0.001,
            "rate {rate_bits} vs {expect}"
        );
    }

    #[test]
    fn advance_is_monotone() {
        let mut b = bucket_10g();
        b.consume(SimTime::ZERO, CREDIT);
        let lvl = b.level_bytes();
        b.advance(SimTime::ZERO); // same time: no change
        assert_eq!(b.level_bytes(), lvl);
    }

    #[test]
    fn drain_empties() {
        let mut b = bucket_10g();
        b.drain();
        assert_eq!(b.level_bytes(), 0);
        assert!(!b.conforms(SimTime::ZERO, 1));
    }
}
