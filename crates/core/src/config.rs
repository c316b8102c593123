//! ExpressPass protocol parameters (paper §3.2–§3.3).
//!
//! Only what an experiment varies is a field here. The paper's fixed
//! parameters are constants beside their readers: `W_MAX`, `TARGET_LOSS`
//! and `MIN_RATE_FRAC` in [`feedback`](crate::feedback), the timers and
//! SYN retry bounds in [`endpoints`](crate::endpoints).

use crate::feedback::W_MAX;

/// Parameters of the ExpressPass endpoints and feedback loop.
///
/// Defaults follow the paper: `w_min = 0.01`, credit-size randomization
/// on, and the `α = w_init = 1/16` sweet spot §6.3 selects for realistic
/// workloads.
#[derive(Clone, Copy, Debug)]
pub struct XPassConfig {
    /// Initial credit rate as a fraction of the maximum credit rate
    /// (`initial_rate = α · max_rate`). Paper explores 1 … 1/32 (Fig 8).
    pub alpha: f64,
    /// Initial aggressiveness factor `w` (0 < w ≤ [`W_MAX`]).
    pub w_init: f64,
    /// Lower bound on `w`; trades steady-state smoothness against
    /// reconvergence speed (§3.2, §4).
    pub w_min: f64,
    /// Credit pacing jitter as a fraction of the inter-credit gap
    /// (Fig 6a's `j`; tens of nanoseconds suffice).
    pub jitter: f64,
    /// Randomize credit wire size over 84–92 B to jitter switch-level
    /// credit arrival order (§3.1).
    pub randomize_credit_size: bool,
    /// §7 credit-waste mitigation: when the sender knows the flow end in
    /// advance, it sends CREDIT_STOP preemptively once the *unsent* data is
    /// covered by credits already in flight. Off by default (the paper's
    /// base design assumes senders do not know the flow end).
    pub early_credit_stop: bool,
}

impl Default for XPassConfig {
    fn default() -> XPassConfig {
        XPassConfig {
            alpha: 1.0 / 16.0,
            w_init: 1.0 / 16.0,
            w_min: 0.01,
            jitter: 0.05,
            randomize_credit_size: true,
            early_credit_stop: false,
        }
    }
}

impl XPassConfig {
    /// The aggressive configuration used by the microbenchmarks
    /// (α = w_init = 1/2): fastest ramp-up, most credit waste.
    pub fn aggressive() -> XPassConfig {
        XPassConfig {
            alpha: 0.5,
            w_init: 0.5,
            ..XPassConfig::default()
        }
    }

    /// Builder: set α and w_init together (the paper sweeps them in pairs).
    pub fn with_alpha_winit(mut self, alpha: f64, w_init: f64) -> XPassConfig {
        self.alpha = alpha;
        self.w_init = w_init;
        self
    }

    /// Builder: set the pacing jitter fraction.
    pub fn with_jitter(mut self, j: f64) -> XPassConfig {
        self.jitter = j;
        self
    }

    /// Builder: enable the §7 preemptive CREDIT_STOP optimization.
    pub fn with_early_credit_stop(mut self) -> XPassConfig {
        self.early_credit_stop = true;
        self
    }

    /// Validate invariants (panics on nonsense configurations).
    pub fn validate(&self) {
        assert!(self.alpha > 0.0 && self.alpha <= 1.0, "alpha in (0,1]");
        assert!(
            self.w_init > 0.0 && self.w_init <= W_MAX,
            "w_init in (0, w_max]"
        );
        assert!(
            self.w_min > 0.0 && self.w_min <= W_MAX,
            "0 < w_min <= w_max"
        );
        assert!((0.0..=1.0).contains(&self.jitter), "jitter in [0,1]");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_values() {
        let c = XPassConfig::default();
        c.validate();
        assert_eq!(c.w_min, 0.01);
        assert!((c.alpha - 1.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn aggressive_config_valid() {
        let c = XPassConfig::aggressive();
        c.validate();
        assert_eq!(c.alpha, 0.5);
        assert_eq!(c.w_init, 0.5);
    }

    #[test]
    fn builders() {
        let c = XPassConfig::default()
            .with_alpha_winit(1.0 / 32.0, 1.0 / 16.0)
            .with_jitter(0.02);
        c.validate();
        assert!((c.alpha - 1.0 / 32.0).abs() < 1e-12);
        assert_eq!(c.jitter, 0.02);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_rejected() {
        XPassConfig {
            alpha: 0.0,
            ..XPassConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "w_min")]
    fn invalid_wmin_rejected() {
        XPassConfig {
            w_min: 0.0,
            ..XPassConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "w_init")]
    fn w_init_above_w_max_rejected() {
        XPassConfig::default().with_alpha_winit(0.6, 0.6).validate();
    }
}
