//! TCP CUBIC and TCP Reno window policies (Fig 2 compares the naïve credit
//! scheme against kernel TCP CUBIC; Reno is included as the classic
//! loss-based reference).

use crate::window::{window_factory, AckEvent, CongestionControl};
use xpass_net::endpoint::EndpointFactory;
use xpass_sim::time::SimTime;

/// TCP Reno: slow start, AIMD congestion avoidance.
pub struct RenoCc {
    cwnd: f64,
    ssthresh: f64,
}

impl RenoCc {
    /// New policy with the given initial window.
    pub fn new(init_cwnd: f64) -> RenoCc {
        RenoCc {
            cwnd: init_cwnd,
            ssthresh: f64::INFINITY,
        }
    }
}

impl CongestionControl for RenoCc {
    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        if self.cwnd < self.ssthresh {
            self.cwnd += ev.newly_acked as f64;
        } else {
            self.cwnd += ev.newly_acked as f64 / self.cwnd;
        }
    }

    fn on_fast_retransmit(&mut self, _now: SimTime) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = self.ssthresh;
    }

    fn on_timeout(&mut self) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
    }

    fn persist(&mut self, io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        io.f64(&mut self.cwnd)?;
        io.f64(&mut self.ssthresh)
    }
}

/// TCP CUBIC (Ha, Rhee, Xu): the cubic window function
/// `W(t) = C·(t−K)³ + W_max` with β = 0.7, C = 0.4.
pub struct CubicCc {
    cwnd: f64,
    ssthresh: f64,
    w_max: f64,
    /// Epoch start (time of the last loss event).
    epoch_start: Option<SimTime>,
    k: f64,
    c: f64,
    beta: f64,
    /// Reno-equivalent window for the TCP-friendly region (standard CUBIC:
    /// grows at 3(1−β)/(1+β) ≈ 0.53 per RTT; dominates at datacenter RTTs).
    w_tcp: f64,
}

impl CubicCc {
    /// New policy with the given initial window.
    pub fn new(init_cwnd: f64) -> CubicCc {
        CubicCc {
            cwnd: init_cwnd,
            ssthresh: f64::INFINITY,
            w_max: init_cwnd,
            epoch_start: None,
            k: 0.0,
            c: 0.4,
            beta: 0.7,
            w_tcp: init_cwnd,
        }
    }

    fn enter_epoch(&mut self, now: SimTime) {
        self.w_max = self.cwnd;
        self.cwnd = (self.cwnd * self.beta).max(2.0);
        self.ssthresh = self.cwnd;
        self.epoch_start = Some(now);
        self.k = (self.w_max * (1.0 - self.beta) / self.c).cbrt();
        self.w_tcp = self.cwnd;
    }
}

impl CongestionControl for CubicCc {
    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        if self.cwnd < self.ssthresh {
            self.cwnd += ev.newly_acked as f64;
            return;
        }
        match self.epoch_start {
            Some(t0) => {
                let t = ev.now.since(t0).as_secs_f64();
                let target = self.c * (t - self.k).powi(3) + self.w_max;
                // TCP-friendly region (RFC 8312 §4.2): a Reno-equivalent
                // window growing at 3(1−β)/(1+β) per RTT; at datacenter
                // RTTs it dominates the slow cubic ramp.
                self.w_tcp +=
                    3.0 * (1.0 - self.beta) / (1.0 + self.beta) * ev.newly_acked as f64 / self.cwnd;
                let mut next = self.cwnd;
                if target > next {
                    next += (target - next).min(ev.newly_acked as f64);
                }
                self.cwnd = next.max(self.w_tcp);
            }
            None => {
                self.cwnd += ev.newly_acked as f64 / self.cwnd;
            }
        }
    }

    fn on_fast_retransmit(&mut self, now: SimTime) {
        self.enter_epoch(now);
    }

    fn on_timeout(&mut self) {
        self.w_max = self.cwnd;
        self.ssthresh = (self.cwnd * self.beta).max(2.0);
        self.cwnd = 1.0;
        self.epoch_start = None;
    }

    fn persist(&mut self, io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        io.f64(&mut self.cwnd)?;
        io.f64(&mut self.ssthresh)?;
        io.f64(&mut self.w_max)?;
        io.opt(&mut self.epoch_start, |io, t| io.u64(&mut t.0))?;
        io.f64(&mut self.k)?;
        io.f64(&mut self.w_tcp)
    }
}

/// Endpoint factory for TCP Reno.
pub fn reno_factory() -> EndpointFactory {
    window_factory(|| RenoCc::new(10.0))
}

/// Endpoint factory for TCP CUBIC.
pub fn cubic_factory() -> EndpointFactory {
    window_factory(|| CubicCc::new(10.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpass_sim::time::Dur;

    fn ack(now: SimTime, snd: u64) -> AckEvent {
        AckEvent {
            newly_acked: 1,
            ece: false,
            rtt: Some(Dur::us(100)),
            qdelay: Dur::ZERO,
            rate_bps: f64::INFINITY,
            now,
            snd_una: snd,
            snd_nxt: snd + 10,
        }
    }

    #[test]
    fn reno_slow_start_doubles_per_rtt() {
        let mut cc = RenoCc::new(10.0);
        for i in 0..10 {
            cc.on_ack(&ack(SimTime::ZERO, i));
        }
        assert!((cc.cwnd() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn reno_ca_additive() {
        let mut cc = RenoCc::new(10.0);
        cc.on_fast_retransmit(SimTime::ZERO); // cwnd 5, ssthresh 5
        let w0 = cc.cwnd();
        for i in 0..5 {
            cc.on_ack(&ack(SimTime::ZERO, i));
        }
        // Roughly +1 per window (each ack uses the already-grown cwnd, so
        // the total is slightly under 1).
        assert!(
            (w0 + 0.85..=w0 + 1.05).contains(&cc.cwnd()),
            "{}",
            cc.cwnd()
        );
    }

    #[test]
    fn reno_timeout_resets_to_one() {
        let mut cc = RenoCc::new(64.0);
        cc.on_timeout();
        assert_eq!(cc.cwnd(), 1.0);
        assert_eq!(cc.ssthresh, 32.0);
    }

    #[test]
    fn cubic_backoff_factor() {
        let mut cc = CubicCc::new(100.0);
        cc.ssthresh = 100.0; // out of slow start
        cc.on_fast_retransmit(SimTime::ZERO);
        assert!((cc.cwnd() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn cubic_recovers_toward_w_max() {
        let mut cc = CubicCc::new(100.0);
        cc.ssthresh = 100.0;
        cc.on_fast_retransmit(SimTime::ZERO);
        // Walk time forward K seconds; window must be back near w_max.
        let k = cc.k;
        for i in 0..2000 {
            let now = SimTime::ZERO + Dur::from_secs_f64(k * i as f64 / 2000.0);
            cc.on_ack(&ack(now, i));
        }
        assert!(
            (cc.cwnd() - 100.0).abs() < 10.0,
            "cwnd {} after K={k}s",
            cc.cwnd()
        );
    }

    #[test]
    fn cubic_concave_then_convex() {
        let mut cc = CubicCc::new(100.0);
        cc.ssthresh = 100.0;
        cc.on_fast_retransmit(SimTime::ZERO);
        let k = cc.k;
        // Growth rate near t=0 exceeds growth near t=K (concave region).
        let w0 = cc.cwnd();
        cc.on_ack(&ack(SimTime::ZERO + Dur::from_secs_f64(0.1 * k), 0));
        let early_gain = cc.cwnd() - w0;
        let mut cc2 = CubicCc::new(100.0);
        cc2.ssthresh = 100.0;
        cc2.on_fast_retransmit(SimTime::ZERO);
        // advance to just before K
        cc2.on_ack(&ack(SimTime::ZERO + Dur::from_secs_f64(0.9 * k), 0));
        let w_before = cc2.cwnd();
        cc2.on_ack(&ack(SimTime::ZERO + Dur::from_secs_f64(0.9 * k), 1));
        let late_gain = cc2.cwnd() - w_before;
        assert!(early_gain >= late_gain, "{early_gain} vs {late_gain}");
    }
}
