//! The §4 discrete model of the feedback loop.
//!
//! N flows share one bottleneck with synchronized update periods; credit
//! drops are uniform, so each flow observes loss `max(0, 1 − C/ΣR)`. The
//! paper proves the even-period rates converge to `C/N` and the oscillation
//! amplitude `D(t) = |R(t) − R(t−1)|` decays to
//! `D* = C · w_min · (1 − 1/N)`.
//!
//! [`DiscreteModel`] iterates this system with the real
//! [`CreditFeedback`] implementation —
//! Fig 12's behaviour becomes an executable check rather than a drawing.

use crate::config::XPassConfig;
use crate::feedback::{CreditFeedback, TARGET_LOSS};

/// The synchronized N-flow single-bottleneck model of §4.
pub struct DiscreteModel {
    flows: Vec<CreditFeedback>,
    /// Ceiling C = max_rate · (1 + target_loss).
    c: f64,
    cfg: XPassConfig,
    /// Rates after each step, for trace extraction.
    pub history: Vec<Vec<f64>>,
}

impl DiscreteModel {
    /// Model `n` flows over a bottleneck of `max_rate` credits/s, each with
    /// configuration `cfg` (initial rates `α·max_rate`).
    pub fn new(n: usize, max_rate: f64, cfg: XPassConfig) -> DiscreteModel {
        assert!(n >= 1);
        let flows = (0..n)
            .map(|_| CreditFeedback::new(max_rate, cfg))
            .collect::<Vec<_>>();
        let c = max_rate * (1.0 + TARGET_LOSS);
        let mut m = DiscreteModel {
            flows,
            c,
            cfg,
            history: Vec::new(),
        };
        m.snapshot();
        m
    }

    /// Model with explicitly skewed initial rates (for convergence-from-
    /// anywhere demonstrations).
    pub fn with_initial_rates(max_rate: f64, cfg: XPassConfig, fracs: &[f64]) -> DiscreteModel {
        let flows = fracs
            .iter()
            .map(|&f| {
                let mut c = cfg;
                c.alpha = f.clamp(1e-6, 1.0);
                CreditFeedback::new(max_rate, c)
            })
            .collect::<Vec<_>>();
        let c = max_rate * (1.0 + TARGET_LOSS);
        let mut m = DiscreteModel {
            flows,
            c,
            cfg,
            history: Vec::new(),
        };
        m.snapshot();
        m
    }

    fn snapshot(&mut self) {
        self.history
            .push(self.flows.iter().map(|f| f.rate()).collect());
    }

    /// One synchronized update period.
    pub fn step(&mut self) {
        let total: f64 = self.flows.iter().map(|f| f.rate()).sum();
        let loss = if total > self.c {
            1.0 - self.c / total
        } else {
            0.0
        };
        for f in &mut self.flows {
            f.on_update(loss);
        }
        self.snapshot();
    }

    /// Run `k` periods.
    pub fn run(&mut self, k: usize) {
        for _ in 0..k {
            self.step();
        }
    }

    /// Current per-flow credit rates.
    pub fn rates(&self) -> Vec<f64> {
        self.flows.iter().map(|f| f.rate()).collect()
    }

    /// Fair share C/N.
    pub fn fair_share(&self) -> f64 {
        self.c / self.flows.len() as f64
    }

    /// The steady-state oscillation amplitude bound
    /// `D* = C · w_min · (1 − 1/N)`.
    pub fn d_star(&self) -> f64 {
        self.c * self.cfg.w_min * (1.0 - 1.0 / self.flows.len() as f64)
    }

    /// The oscillation amplitude of flow `i` at step `t`:
    /// `D(t) = |R_i(t) − R_i(t−1)|`.
    pub fn oscillation(&self, i: usize, t: usize) -> f64 {
        assert!(t >= 1 && t < self.history.len());
        (self.history[t][i] - self.history[t - 1][i]).abs()
    }

    /// Number of recorded steps.
    pub fn steps(&self) -> usize {
        self.history.len() - 1
    }

    /// Periods until every flow's even-period rate is within `tol` of fair
    /// share (`None` if it never happens within the recorded history).
    pub fn convergence_time(&self, tol: f64) -> Option<usize> {
        let fair = self.fair_share();
        'outer: for (t, rates) in self.history.iter().enumerate().step_by(2) {
            for &r in rates {
                if (r - fair).abs() > tol * fair {
                    continue 'outer;
                }
            }
            return Some(t);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX: f64 = 770_653.5;

    #[test]
    fn converges_from_skewed_start() {
        let cfg = XPassConfig::aggressive();
        let mut m = DiscreteModel::with_initial_rates(MAX, cfg, &[0.9, 0.05, 0.3, 0.01]);
        m.run(800);
        let fair = m.fair_share();
        // Rates approach C/N, alternating within the w_min band (§4, Eq 5/6).
        for &r in m.history.last().unwrap() {
            assert!((r - fair).abs() < 0.2 * fair, "rate {r} vs fair {fair}");
        }
    }

    #[test]
    fn oscillation_decays_to_d_star() {
        let cfg = XPassConfig::aggressive();
        let mut m = DiscreteModel::new(4, MAX, cfg);
        m.run(400);
        let d_star = m.d_star();
        // Late oscillation amplitude alternates; max over the last few steps
        // must be within a small factor of D*.
        let t_end = m.steps();
        let mut late_osc: f64 = 0.0;
        for t in (t_end - 6)..=t_end {
            late_osc = late_osc.max(m.oscillation(0, t));
        }
        assert!(
            late_osc < 3.0 * d_star + 1.0,
            "late oscillation {late_osc} vs D* {d_star}"
        );
        // Early oscillation (during convergence) is much larger.
        let early: f64 = (1..8).map(|t| m.oscillation(0, t)).fold(0.0, f64::max);
        assert!(early > late_osc, "early {early} vs late {late_osc}");
    }

    #[test]
    fn smaller_w_min_gives_smaller_steady_oscillation() {
        let run = |w_min: f64| -> f64 {
            let mut cfg = XPassConfig::aggressive();
            cfg.w_min = w_min;
            let mut m = DiscreteModel::new(8, MAX, cfg);
            m.run(400);
            let t = m.steps();
            (t - 6..=t).map(|t| m.oscillation(0, t)).fold(0.0, f64::max)
        };
        let small = run(0.005);
        let large = run(0.16);
        assert!(
            small < large,
            "w_min=0.005 oscillation {small} ≥ w_min=0.16 oscillation {large}"
        );
    }

    #[test]
    fn convergence_time_fast_with_aggressive_start() {
        // Fig 8(a): α = 1 converges in ~2 RTTs, α = 1/32 in ~14.
        let time = |alpha: f64| -> usize {
            let cfg = XPassConfig::aggressive().with_alpha_winit(alpha, 0.5);
            let mut m = DiscreteModel::new(2, MAX, cfg);
            m.run(100);
            m.convergence_time(0.15).expect("must converge")
        };
        let fast = time(1.0);
        let slow = time(1.0 / 32.0);
        assert!(fast <= 10, "alpha=1 took {fast} periods");
        assert!(
            slow > fast,
            "alpha=1/32 ({slow}) not slower than alpha=1 ({fast})"
        );
    }

    #[test]
    fn single_flow_fair_share_is_ceiling() {
        let m = DiscreteModel::new(1, MAX, XPassConfig::default());
        assert!((m.fair_share() - MAX * 1.1).abs() < 1e-6);
        assert_eq!(m.d_star(), 0.0);
    }

    #[test]
    fn aggregate_never_collapses() {
        let mut m = DiscreteModel::new(16, MAX, XPassConfig::default());
        m.run(500);
        // After warmup, aggregate admitted rate min(ΣR, C) ≈ C.
        for t in 100..m.history.len() {
            let total: f64 = m.history[t].iter().sum();
            assert!(
                total > 0.8 * MAX * 1.1,
                "aggregate collapsed to {total} at step {t}"
            );
        }
    }

    #[test]
    fn history_records_all_steps() {
        let mut m = DiscreteModel::new(3, MAX, XPassConfig::default());
        m.run(25);
        assert_eq!(m.steps(), 25);
        assert_eq!(m.history.len(), 26);
        assert_eq!(m.rates().len(), 3);
    }
}
