//! Per-link explicit-rate state for the RCP baseline.
//!
//! RCP (Dukkipati, *Rate Control Protocol*) switches compute a single rate
//! `R` per link that every flow through the link is entitled to, updated
//! every control interval `T`:
//!
//! ```text
//! R ← R · [ 1 + (T/d₀) · ( α·(C − y) − β·q/d₀ ) / C ]
//! ```
//!
//! where `C` is link capacity, `y` the measured input rate over the last
//! interval, `q` the instantaneous queue, and `d₀` the moving-average RTT of
//! packets through the link. Data packets carry a rate field that each
//! switch lowers to its `R`; the receiver echoes the bottleneck rate to the
//! sender, which paces at it. New flows start at the current `R` — the
//! behaviour responsible for the queue overshoot the paper reports in
//! Fig 15(f).

use xpass_sim::time::{Dur, SimTime};

/// Gain on spare capacity (classic default 0.4).
const ALPHA: f64 = 0.4;
/// Gain on queue drain (classic default 0.2).
const BETA: f64 = 0.2;
/// Initial moving-average RTT before any sample arrives.
const INIT_RTT: Dur = Dur::us(100);
/// Floor on the advertised rate as a fraction of capacity (keeps the
/// fixed point away from zero with huge flow counts).
const MIN_RATE_FRAC: f64 = 1e-4;

/// Explicit-rate state attached to one directed link.
#[derive(Clone, Debug)]
pub struct RcpLink {
    cap_bps: f64,
    /// Current advertised rate (bits/s).
    rate_bps: f64,
    /// Moving-average RTT (seconds).
    avg_rtt: f64,
    /// Bytes that arrived at this port since the last update.
    bytes_in: u64,
    last_update: SimTime,
}

impl RcpLink {
    /// New state for a link of `cap_bps`; the initial advertised rate is the
    /// full capacity (RCP processor-sharing start).
    pub fn new(cap_bps: u64) -> RcpLink {
        RcpLink {
            cap_bps: cap_bps as f64,
            rate_bps: cap_bps as f64,
            avg_rtt: INIT_RTT.as_secs_f64(),
            bytes_in: 0,
            last_update: SimTime::ZERO,
        }
    }

    /// Current advertised rate in bits/s.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    /// The control interval: `min(avg RTT, 10 ms)`, the RCP default.
    pub fn update_interval(&self) -> Dur {
        Dur::from_secs_f64(self.avg_rtt.clamp(1e-6, 0.01))
    }

    /// Record a data packet traversing the port: accumulate the input-rate
    /// estimate and fold its RTT sample into the moving average.
    pub fn on_packet(&mut self, wire_bytes: u32, rtt_sample: Option<Dur>) {
        self.bytes_in += wire_bytes as u64;
        if let Some(rtt) = rtt_sample {
            let s = rtt.as_secs_f64();
            if s > 0.0 {
                // Standard RCP running average with gain 0.02.
                self.avg_rtt = 0.98 * self.avg_rtt + 0.02 * s;
            }
        }
    }

    /// Periodic rate update. `queue_bytes` is the instantaneous data queue.
    pub fn update(&mut self, now: SimTime, queue_bytes: u64) {
        let t = now.since(self.last_update).as_secs_f64();
        self.last_update = now;
        if t <= 0.0 {
            return;
        }
        let y = self.bytes_in as f64 * 8.0 / t; // measured input, bits/s
        self.bytes_in = 0;
        let d0 = self.avg_rtt.max(1e-6);
        let q_bits = queue_bytes as f64 * 8.0;
        let spare = ALPHA * (self.cap_bps - y);
        let drain = BETA * q_bits / d0;
        let factor = 1.0 + (t / d0) * (spare - drain) / self.cap_bps;
        self.rate_bps = (self.rate_bps * factor).clamp(self.cap_bps * MIN_RATE_FRAC, self.cap_bps);
    }

    /// Stamp a packet's rate field with `min(current, R)`.
    pub fn stamp(&self, rate_field: f64) -> f64 {
        rate_field.min(self.rate_bps)
    }
}

impl RcpLink {
    /// Snapshot traversal. Capacity is configuration; the
    /// advertised rate, RTT average, input-rate accumulator and update
    /// timestamp are dynamic.
    pub fn persist(&mut self, io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        io.f64(&mut self.rate_bps)?;
        io.f64(&mut self.avg_rtt)?;
        io.u64(&mut self.bytes_in)?;
        io.u64(&mut self.last_update.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: u64 = 10_000_000_000;

    #[test]
    fn idle_link_advertises_full_capacity() {
        let mut l = RcpLink::new(C);
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            now += Dur::us(100);
            l.update(now, 0);
        }
        assert!((l.rate_bps() - C as f64).abs() < C as f64 * 1e-6);
    }

    #[test]
    fn overloaded_link_reduces_rate_toward_fair_share() {
        let mut l = RcpLink::new(C);
        let mut now = SimTime::ZERO;
        // Simulate 4 flows each sending at the advertised rate: input is
        // 4×R; rate should fall until 4×R ≈ C, i.e. R → C/4.
        for _ in 0..3000 {
            let dt = Dur::us(100);
            now += dt;
            let bytes = (4.0 * l.rate_bps() * dt.as_secs_f64() / 8.0) as u64;
            // queue grows if input exceeds capacity
            let q = ((4.0 * l.rate_bps() - C as f64) * 0.0001 / 8.0).max(0.0) as u64;
            for _ in 0..1 {
                l.on_packet(0, Some(Dur::us(100)));
            }
            l.bytes_in += bytes;
            l.update(now, q);
        }
        let share = l.rate_bps() / C as f64;
        assert!(
            (share - 0.25).abs() < 0.05,
            "converged share {share} (want ~0.25)"
        );
    }

    #[test]
    fn queue_pressure_lowers_rate() {
        let mut l = RcpLink::new(C);
        let before = l.rate_bps();
        l.bytes_in = C / 8 / 10_000; // input ≈ capacity over 100us
        l.update(SimTime::ZERO + Dur::us(100), 500_000); // big queue
        assert!(l.rate_bps() < before);
    }

    #[test]
    fn rate_never_exceeds_capacity_nor_floor() {
        let mut l = RcpLink::new(C);
        let mut now = SimTime::ZERO;
        for i in 0..1000 {
            now += Dur::us(100);
            // Alternate famine and flood.
            if i % 2 == 0 {
                l.bytes_in = 10_000_000;
            }
            l.update(now, if i % 3 == 0 { 1_000_000 } else { 0 });
            assert!(l.rate_bps() <= C as f64 + 1.0);
            assert!(l.rate_bps() >= C as f64 * 1e-4 - 1.0);
        }
    }

    #[test]
    fn stamp_takes_minimum() {
        let l = RcpLink::new(C);
        assert_eq!(l.stamp(f64::INFINITY), C as f64);
        assert_eq!(l.stamp(1e9), 1e9);
    }

    #[test]
    fn rtt_average_tracks_samples() {
        let mut l = RcpLink::new(C);
        for _ in 0..500 {
            l.on_packet(1538, Some(Dur::us(50)));
        }
        assert!((l.avg_rtt - 50e-6).abs() < 5e-6, "{}", l.avg_rtt);
        assert!(l.update_interval() >= Dur::us(40));
    }
}
