//! Algorithm 1 — the credit feedback controller.
//!
//! Runs at the receiver, once per update period (the flow's RTT). The
//! controller aims the credit sending rate at the *maximum* credit rate with
//! a binary-increase weight `w`, and on congestion (credit loss above the
//! 10 % target) multiplies the rate down to what actually got through. `w`
//! halves on every decrease and recovers toward `w_max` after two clean
//! periods, giving BIC-like fast convergence with exponentially improving
//! steady-state stability (§4).
//!
//! Rates here are in **credits per second**; one credit corresponds to one
//! maximum-size data frame, so `max_rate = link_bps / (8 · 1622)` credits/s.

use crate::config::XPassConfig;
use std::rc::Rc;
use xpass_net::packet::{CREDIT_SIZE, MAX_FRAME};

/// Upper bound on `w` (the paper fixes 0.5).
pub const W_MAX: f64 = 0.5;
/// Target credit loss rate at steady state (paper: 10 %).
pub const TARGET_LOSS: f64 = 0.1;
/// Floor on the credit rate as a fraction of the maximum credit rate,
/// so starved flows keep probing (sub-credit-per-RTT regime, §3.4).
pub const MIN_RATE_FRAC: f64 = 1.0 / 8192.0;

/// Convert a link speed into the maximum credit rate in credits/second
/// (one credit per `84 + 1538 = 1622` byte-times).
#[inline]
pub fn max_credit_rate(link_bps: u64) -> f64 {
    link_bps as f64 / (8.0 * (CREDIT_SIZE + MAX_FRAME) as f64)
}

/// A read-only view of the controller for telemetry, taken with
/// [`CreditFeedback::snapshot`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FeedbackSnapshot {
    /// Current credit sending rate (credits/s).
    pub rate: f64,
    /// Current aggressiveness factor `w`.
    pub w: f64,
    /// The rate ceiling `max_rate · (1 + target_loss)` (credits/s).
    pub ceiling: f64,
}

/// Algorithm 1 state for one flow. The parameters are global to the
/// scheme (α, `w_init`, `w_min`), so a controller shares them with every
/// other flow of its factory; only the rate, `w` and the last direction
/// are its own.
#[derive(Clone, Debug)]
pub struct CreditFeedback {
    cfg: Rc<XPassConfig>,
    /// Maximum credit rate for the path (credits/s).
    max_rate: f64,
    /// Current credit sending rate (credits/s).
    cur_rate: f64,
    /// Aggressiveness factor `w`.
    w: f64,
    /// Whether the previous period was an increasing phase.
    prev_increasing: bool,
}

impl CreditFeedback {
    /// New controller for a path whose bottleneck credit rate is
    /// `max_rate` credits/s, with its own configuration or one shared
    /// through an `Rc`.
    pub fn new(max_rate: f64, cfg: impl Into<Rc<XPassConfig>>) -> CreditFeedback {
        let cfg = cfg.into();
        cfg.validate();
        assert!(max_rate > 0.0);
        CreditFeedback {
            max_rate,
            cur_rate: cfg.alpha * max_rate,
            w: cfg.w_init,
            prev_increasing: false,
            cfg,
        }
    }

    /// Current credit sending rate in credits/s.
    pub fn rate(&self) -> f64 {
        self.cur_rate
    }

    /// Current aggressiveness factor.
    pub fn w(&self) -> f64 {
        self.w
    }

    /// The ceiling `C = max_rate · (1 + target_loss)`.
    pub fn ceiling(&self) -> f64 {
        self.max_rate * (1.0 + TARGET_LOSS)
    }

    /// Controller state at a point in time, for telemetry
    /// ([`TraceEvent::FeedbackUpdate`](xpass_sim::trace::TraceEvent)).
    pub fn snapshot(&self) -> FeedbackSnapshot {
        FeedbackSnapshot {
            rate: self.cur_rate,
            w: self.w,
            ceiling: self.ceiling(),
        }
    }

    /// One update period elapsed with the given measured credit loss
    /// fraction (`#dropped / #sent`). Returns the new rate.
    pub fn on_update(&mut self, credit_loss: f64) -> f64 {
        let loss = credit_loss.clamp(0.0, 1.0);
        if loss <= TARGET_LOSS {
            // Increasing phase (Algorithm 1 lines 6–9).
            if self.prev_increasing {
                self.w = (self.w + W_MAX) / 2.0;
            }
            self.cur_rate = (1.0 - self.w) * self.cur_rate + self.w * self.ceiling();
            self.prev_increasing = true;
        } else {
            // Decreasing phase (lines 11–13): keep what got through, plus
            // the target overshoot.
            self.cur_rate = self.cur_rate * (1.0 - loss) * (1.0 + TARGET_LOSS);
            self.w = (self.w / 2.0).max(self.cfg.w_min);
            self.prev_increasing = false;
        }
        let floor = self.max_rate * MIN_RATE_FRAC;
        self.cur_rate = self.cur_rate.clamp(floor, self.ceiling());
        self.cur_rate
    }

    /// Failure-recovery reset (§4's reconvergence concern): after a
    /// detected credit-starvation episode — e.g. a failed link healed and
    /// credits flow again — restore `w` to its initial aggressiveness so
    /// the rate re-converges in a few RTTs instead of crawling up from
    /// `w_min` with steady-state caution.
    pub fn reset_w_for_recovery(&mut self) {
        self.w = self.cfg.w_init.clamp(self.cfg.w_min, W_MAX);
        self.prev_increasing = false;
    }
}

impl CreditFeedback {
    /// Snapshot traversal. `max_rate` is included even though it derives
    /// from the host link speed: restoring overlays it onto a
    /// placeholder-constructed controller, so the snapshot must be
    /// self-contained.
    pub fn persist(&mut self, io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        io.f64(&mut self.max_rate)?;
        io.f64(&mut self.cur_rate)?;
        io.f64(&mut self.w)?;
        io.bool(&mut self.prev_increasing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> XPassConfig {
        XPassConfig::aggressive()
    }

    const MAX: f64 = 770_653.5; // 10G in credits/s ≈ 1e10/(8*1622)

    #[test]
    fn max_credit_rate_conversion() {
        let r = max_credit_rate(10_000_000_000);
        assert_eq!(r, 10e9 / (8.0 * 1622.0));
        // Sanity: ~770k credits/s at 10G → ~1.3us apart.
        assert!((1.0 / r - 1.2976e-6).abs() < 1e-9);
    }

    #[test]
    fn starts_at_alpha_fraction() {
        let fb = CreditFeedback::new(MAX, cfg().with_alpha_winit(0.25, 0.5));
        assert!((fb.rate() - 0.25 * MAX).abs() < 1e-6);
    }

    #[test]
    fn single_flow_rate_converges_to_ceiling() {
        // No loss ever → rate must approach max_rate·(1+target_loss).
        let mut fb = CreditFeedback::new(MAX, cfg());
        for _ in 0..50 {
            fb.on_update(0.0);
        }
        assert!(
            (fb.rate() - fb.ceiling()).abs() < 0.01 * MAX,
            "{}",
            fb.rate()
        );
    }

    #[test]
    fn fast_convergence_with_w_half() {
        // With w_init = 0.5 and clean periods, the gap to the ceiling
        // should shrink by ≥ half each period (paper: converges in a few
        // RTTs; Fig 8a shows 2 RTTs at α = 1).
        let mut fb = CreditFeedback::new(MAX, cfg());
        let mut gap = fb.ceiling() - fb.rate();
        for _ in 0..5 {
            fb.on_update(0.0);
            let new_gap = fb.ceiling() - fb.rate();
            assert!(new_gap <= gap * 0.51 + 1e-9);
            gap = new_gap;
        }
    }

    #[test]
    fn decrease_keeps_what_got_through() {
        let mut fb = CreditFeedback::new(MAX, cfg());
        // Force to ceiling.
        for _ in 0..30 {
            fb.on_update(0.0);
        }
        let r0 = fb.rate();
        let new = fb.on_update(0.5); // 50% credit loss
        let expect = r0 * 0.5 * 1.1;
        assert!((new - expect).abs() < 1e-6, "{new} vs {expect}");
    }

    #[test]
    fn w_halves_on_loss_and_recovers() {
        let mut fb = CreditFeedback::new(MAX, cfg());
        assert_eq!(fb.w(), 0.5);
        fb.on_update(0.9);
        assert_eq!(fb.w(), 0.25);
        fb.on_update(0.9);
        assert_eq!(fb.w(), 0.125);
        // First clean period: w unchanged (prev phase was decreasing).
        fb.on_update(0.0);
        assert_eq!(fb.w(), 0.125);
        // Second clean period: w moves halfway to w_max.
        fb.on_update(0.0);
        assert!((fb.w() - (0.125 + 0.5) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn w_never_below_w_min() {
        let mut fb = CreditFeedback::new(MAX, cfg());
        for _ in 0..64 {
            fb.on_update(1.0);
        }
        assert!((fb.w() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn rate_floors_at_min_fraction() {
        let mut fb = CreditFeedback::new(MAX, cfg());
        for _ in 0..200 {
            fb.on_update(1.0);
        }
        let floor = MAX * MIN_RATE_FRAC;
        assert!((fb.rate() - floor).abs() < 1e-6);
    }

    #[test]
    fn rate_capped_at_ceiling() {
        let mut fb = CreditFeedback::new(MAX, cfg());
        for _ in 0..1000 {
            fb.on_update(0.0);
            assert!(fb.rate() <= fb.ceiling() + 1e-6);
        }
    }

    /// The §4 fixed point: N synchronized flows through one bottleneck
    /// converge so that even-period rates approach C/N and the oscillation
    /// amplitude D(t) approaches D* = C·w_min·(1 − 1/N).
    #[test]
    fn n_flows_converge_to_fair_share() {
        let n = 8usize;
        let c = MAX * 1.1; // ceiling
        let mut flows: Vec<CreditFeedback> = (0..n)
            .map(|i| {
                // Deliberately skewed initial rates.
                let mut cfg_i = cfg();
                cfg_i.alpha = 0.05 + 0.1 * i as f64 / n as f64;
                CreditFeedback::new(MAX, cfg_i)
            })
            .collect();
        // Synchronized-update discrete model: total demand T = Σ rates;
        // each flow's measured loss is max(0, 1 - C/T) (uniform drop).
        for _ in 0..800 {
            let total: f64 = flows.iter().map(|f| f.rate()).sum();
            let loss = if total > c { 1.0 - c / total } else { 0.0 };
            for f in flows.iter_mut() {
                f.on_update(loss);
            }
        }
        let fair = c / n as f64;
        for (i, f) in flows.iter().enumerate() {
            let r = f.rate();
            // At the fixed point rates alternate between C/N and
            // C/N·(1 + (N−1)·w_min); allow that band plus slack.
            assert!(
                (r - fair).abs() < 0.2 * fair,
                "flow {i}: rate {r:.0} vs fair {fair:.0}"
            );
        }
        // Jain's index of the final rates must be ~1.
        let rates: Vec<f64> = flows.iter().map(|f| f.rate()).collect();
        let j = xpass_sim::stats::jain_fairness(&rates);
        assert!(j > 0.99, "fairness {j}");
    }

    /// Total offered credit rate at steady state stays near the ceiling:
    /// utilization does not collapse.
    #[test]
    fn aggregate_rate_tracks_capacity() {
        let n = 16usize;
        let c = MAX * 1.1;
        let mut flows: Vec<CreditFeedback> =
            (0..n).map(|_| CreditFeedback::new(MAX, cfg())).collect();
        let mut totals = Vec::new();
        for period in 0..300 {
            let total: f64 = flows.iter().map(|f| f.rate()).sum();
            if period > 100 {
                totals.push(total);
            }
            let loss = if total > c { 1.0 - c / total } else { 0.0 };
            for f in flows.iter_mut() {
                f.on_update(loss);
            }
        }
        let mean = totals.iter().sum::<f64>() / totals.len() as f64;
        // Average admitted rate = min(total, C); total must hover at or
        // above C (slight overshoot is the design's utilization mechanism).
        assert!(mean >= c * 0.98, "mean aggregate {mean} vs C {c}");
        assert!(mean <= c * 1.6, "mean aggregate {mean} runaway");
    }
}
