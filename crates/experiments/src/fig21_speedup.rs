//! Fig 21 — FCT speed-up when link speed rises from 10 G to 40 G, per
//! scheme and size bucket. The paper: ExpressPass gains the most
//! (1.5–3.5×) thanks to speed-independent convergence; DCTCP under 2× for
//! small buckets; DX/HULL benefit least; RCP leads only on Web Server L
//! flows.

use crate::harness::{text_table, RealisticRun, Scheme, SizeBucket};
use std::fmt;
use xpass_workloads::Workload;

/// Fig 21 configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workloads and flow counts.
    pub workloads: Vec<(Workload, usize)>,
    /// Schemes to compare.
    pub schemes: Vec<Scheme>,
    /// Target load.
    pub load: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            workloads: vec![(Workload::WebServer, 2000)],
            schemes: vec![
                Scheme::XPass(expresspass::XPassConfig::default()),
                Scheme::Rcp,
                Scheme::Dctcp,
                Scheme::Dx,
                Scheme::Hull,
            ],
            load: 0.6,
            seed: 67,
        }
    }
}

/// One (workload, scheme) row: avg-FCT speed-up per bucket.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Scheme name.
    pub scheme: &'static str,
    /// Speed-up (10 G FCT / 40 G FCT) per bucket; NaN when a bucket is
    /// empty.
    pub speedup: [f64; 4],
}

/// Fig 21 result.
#[derive(Clone, Debug)]
pub struct Fig21 {
    /// All rows.
    pub rows: Vec<Row>,
}

/// Run the comparison.
pub fn run(cfg: &Config) -> Fig21 {
    let mut rows = Vec::new();
    for &(w, n) in &cfg.workloads {
        for &scheme in &cfg.schemes {
            let fct_at = |speed: u64| {
                RealisticRun {
                    workload: w,
                    load: cfg.load,
                    n_flows: n,
                    link_bps: speed,
                    scheme,
                    seed: cfg.seed,
                }
                .run()
                .fct
            };
            let slow = fct_at(10_000_000_000);
            let fast = fct_at(40_000_000_000);
            let speedup = SizeBucket::all().map(|b| {
                let s = slow.avg(b);
                let f = fast.avg(b);
                if s > 0.0 && f > 0.0 {
                    s / f
                } else {
                    f64::NAN
                }
            });
            rows.push(Row {
                workload: w.name(),
                scheme: scheme.name(),
                speedup,
            });
        }
    }
    Fig21 { rows }
}

impl fmt::Display for Fig21 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let mut row = vec![r.workload.to_string(), r.scheme.to_string()];
                for s in r.speedup {
                    row.push(if s.is_nan() {
                        "-".into()
                    } else {
                        format!("{s:.2}x")
                    });
                }
                row
            })
            .collect();
        writeln!(f, "Fig 21: avg FCT speed-up of 40G over 10G")?;
        write!(
            f,
            "{}",
            text_table(&["Workload", "Scheme", "S", "M", "L", "XL"], &rows)
        )
    }
}

use xpass_sim::json::Json;

impl Fig21 {
    /// Structured payload: per-bucket speed-ups per (workload, scheme)
    /// row. Empty buckets (NaN speed-up) serialize as `null`.
    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let speedup = r
                    .speedup
                    .iter()
                    .map(|&s| if s.is_nan() { Json::Null } else { Json::Num(s) })
                    .collect();
                Json::obj()
                    .with("workload", Json::str(r.workload))
                    .with("scheme", Json::str(r.scheme))
                    .with("speedup", Json::Arr(speedup))
            })
            .collect();
        Json::obj().with("rows", Json::Arr(rows))
    }
}

/// Registry adapter: drives Fig 21 through the [`crate::Experiment`] trait.
#[derive(Default)]
pub struct Exp(Config);

impl crate::Experiment for Exp {
    fn name(&self) -> &str {
        "fig21"
    }
    fn describe(&self) -> &str {
        "40G-over-10G FCT speed-up"
    }
    fn set_seed(&mut self, seed: u64) {
        self.0.seed = seed;
    }
    fn run(&self, _trace: Option<Box<dyn xpass_sim::trace::TraceSink>>) -> crate::ExperimentOutput {
        let r = run(&self.0);
        crate::ExperimentOutput::new(r.to_string(), r.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Config {
        Config {
            workloads: vec![(Workload::WebServer, 800)],
            schemes: vec![
                Scheme::XPass(expresspass::XPassConfig::default()),
                Scheme::Dctcp,
            ],
            ..Config::default()
        }
    }

    #[test]
    fn speedups_are_positive_and_bounded() {
        let r = run(&quick());
        for row in &r.rows {
            for (i, s) in row.speedup.iter().enumerate() {
                if s.is_nan() {
                    continue;
                }
                assert!(
                    (0.4..8.0).contains(s),
                    "{} bucket {i}: speedup {s}",
                    row.scheme
                );
            }
        }
    }

    #[test]
    fn larger_buckets_gain_more_than_small_for_xpass() {
        // Small flows are RTT-bound: speedup less than L flows' (paper).
        let r = run(&quick());
        let xp = &r.rows[0];
        if !xp.speedup[0].is_nan() && !xp.speedup[2].is_nan() {
            assert!(
                xp.speedup[2] >= xp.speedup[0] * 0.6,
                "S {} vs L {}",
                xp.speedup[0],
                xp.speedup[2]
            );
        }
    }

    #[test]
    fn renders() {
        assert!(run(&quick()).to_string().contains("Fig 21"));
    }
}
