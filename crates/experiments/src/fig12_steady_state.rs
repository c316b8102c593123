//! Fig 12 — steady-state behaviour of the credit feedback loop, produced by
//! iterating the §4 discrete model with the real Algorithm-1 code: the
//! credit sending rate converges to the fair share R* and keeps oscillating
//! within the D* = C·w_min·(1 − 1/N) band.

use expresspass::analysis::DiscreteModel;
use expresspass::feedback::{max_credit_rate, TARGET_LOSS};
use expresspass::XPassConfig;
use std::fmt;

/// Fig 12 configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Flows sharing the bottleneck.
    pub n_flows: usize,
    /// Bottleneck maximum credit rate (credits/s; 10 G default).
    pub max_rate: f64,
    /// Update periods to iterate.
    pub periods: usize,
    /// Feedback parameters.
    pub xpass: XPassConfig,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            n_flows: 4,
            max_rate: max_credit_rate(10_000_000_000),
            periods: 200,
            xpass: XPassConfig::aggressive(),
        }
    }
}

/// Fig 12 result: the rate trace of one flow plus the analytic lines.
#[derive(Clone, Debug)]
pub struct Fig12 {
    /// Flow-0 credit rate per period.
    pub trace: Vec<f64>,
    /// Fair share R* = C/N.
    pub fair_share: f64,
    /// Steady-state oscillation bound D*.
    pub d_star: f64,
    /// Period at which flow 0 first came within 10 % of R*.
    pub converged_at: Option<usize>,
    /// Maximum |R(t) − R(t−1)| over the final 10 periods.
    pub late_oscillation: f64,
}

/// Run the discrete model.
pub fn run(cfg: &Config) -> Fig12 {
    let mut m = DiscreteModel::new(cfg.n_flows, cfg.max_rate, cfg.xpass);
    m.run(cfg.periods);
    let trace: Vec<f64> = m.history.iter().map(|r| r[0]).collect();
    let fair = m.fair_share();
    // The sustained operating point overshoots the fair share by the target
    // loss rate by design (§3.2): converge to (1+target)·C/N.
    let operating = fair * (1.0 + TARGET_LOSS);
    let converged_at = trace
        .iter()
        .position(|&r| (r - operating).abs() <= 0.12 * operating);
    let t_end = m.steps();
    let late_oscillation = (t_end.saturating_sub(10)..=t_end)
        .filter(|&t| t >= 1)
        .map(|t| m.oscillation(0, t))
        .fold(0.0, f64::max);
    Fig12 {
        trace,
        fair_share: fair,
        d_star: m.d_star(),
        converged_at,
        late_oscillation,
    }
}

impl fmt::Display for Fig12 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig 12: steady-state feedback behaviour (discrete model)"
        )?;
        writeln!(f, "fair share R*      : {:.0} credits/s", self.fair_share)?;
        writeln!(f, "converged (10%) at : period {:?}", self.converged_at)?;
        writeln!(f, "D* bound           : {:.0} credits/s", self.d_star)?;
        writeln!(
            f,
            "late oscillation   : {:.0} credits/s",
            self.late_oscillation
        )?;
        // Compact sparkline of the trace relative to R*.
        let marks: String = self
            .trace
            .iter()
            .step_by((self.trace.len() / 60).max(1))
            .map(|&r| {
                let x = r / self.fair_share;
                if x < 0.5 {
                    '_'
                } else if x < 0.9 {
                    '.'
                } else if x < 1.1 {
                    '-'
                } else {
                    '^'
                }
            })
            .collect();
        writeln!(f, "rate/R* trace      : {marks}")
    }
}

use xpass_sim::json::Json;

impl Fig12 {
    /// Structured payload: the rate trace plus the analytic lines.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with(
                "trace",
                Json::Arr(self.trace.iter().map(|&r| Json::Num(r)).collect()),
            )
            .with("fair_share", Json::Num(self.fair_share))
            .with("d_star", Json::Num(self.d_star))
            .with(
                "converged_at",
                match self.converged_at {
                    Some(p) => Json::num_u64(p as u64),
                    None => Json::Null,
                },
            )
            .with("late_oscillation", Json::Num(self.late_oscillation))
    }
}

/// Registry adapter: drives Fig 12 through the [`crate::Experiment`] trait.
/// The discrete model is deterministic — no seed.
#[derive(Default)]
pub struct Exp(Config);

impl crate::Experiment for Exp {
    fn name(&self) -> &str {
        "fig12"
    }
    fn describe(&self) -> &str {
        "steady-state feedback model"
    }
    fn run(&self, _trace: Option<Box<dyn xpass_sim::trace::TraceSink>>) -> crate::ExperimentOutput {
        let r = run(&self.0);
        crate::ExperimentOutput::new(r.to_string(), r.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_and_stays_in_band() {
        let r = run(&Config::default());
        let at = r.converged_at.expect("must converge");
        assert!(at < 60, "converged at {at}");
        // Late oscillation within a small factor of D*.
        assert!(
            r.late_oscillation <= 3.0 * r.d_star + 1.0,
            "{} vs D* {}",
            r.late_oscillation,
            r.d_star
        );
        // Final rate near fair share.
        let last = *r.trace.last().unwrap();
        assert!((last - r.fair_share).abs() < 0.2 * r.fair_share);
    }

    #[test]
    fn more_flows_smaller_share() {
        let mut c = Config::default();
        let r4 = run(&c);
        c.n_flows = 16;
        let r16 = run(&c);
        assert!(r16.fair_share < r4.fair_share);
        assert!(r16.d_star > r4.d_star, "D* grows with (1-1/N)");
    }

    #[test]
    fn renders() {
        let s = run(&Config::default()).to_string();
        assert!(s.contains("Fig 12"));
        assert!(s.contains("fair share"));
    }
}
