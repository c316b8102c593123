//! `compare <a.json> <b.json>`: two sets of runs, one row per
//! (end-to-end metric, workload), each held to the metric's bound. For an A/A check
//! of the benchmark itself, and for a later PR's parent-against-change.

use crate::api::{parse_json, Json};
use crate::report::{Kind, Metric, END_TO_END, PER_LAYER};
use crate::stats;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// The reps of one side spread wider than the bound: the runs cannot
    /// tell a change of that size from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Verdict on a lower-is-better metric: `b` against baseline `a`, allowed
/// to differ by `bound` of `a`'s value or by `floor`, whichever is larger.
pub fn verdict(a: &Metric, b: &Metric, bound: f64, floor: f64) -> Verdict {
    let allowed = (bound * a.value).max(floor);
    let noise = stats::spread(&a.samples).max(stats::spread(&b.samples)) * a.value;
    if noise > allowed {
        Verdict::Unresolved
    } else if b.value - a.value > allowed {
        Verdict::Worse
    } else if a.value - b.value > allowed {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Metrics of every (workload, traced?) record in a result file: a single
/// record, or a summary holding several under `results`.
type Records = BTreeMap<(String, bool), BTreeMap<String, Metric>>;

fn records(text: &str) -> Result<Records, String> {
    let j = parse_json(text).map_err(|e| e.to_string())?;
    let list: Vec<Json> = match j.get("results").and_then(Json::as_array) {
        Some(rs) => rs.to_vec(),
        None => vec![j],
    };
    let mut out = Records::new();
    for r in &list {
        let workload = r
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("record without a workload")?;
        let traced = r.get("traced").and_then(Json::as_bool).unwrap_or(false);
        let Some(Json::Obj(metrics)) = r.get("metrics") else {
            return Err(format!("{workload}: record without metrics"));
        };
        let metrics = metrics
            .iter()
            .map(|(name, m)| {
                let samples = m.get("samples").and_then(Json::as_array).unwrap_or(&[]);
                let metric = Metric {
                    value: m.get("value").and_then(Json::as_f64).unwrap_or(0.0),
                    samples: samples.iter().filter_map(Json::as_f64).collect(),
                };
                (name.clone(), metric)
            })
            .collect();
        out.insert((workload.to_string(), traced), metrics);
    }
    Ok(out)
}

/// The report, and whether anything got worse or could not be resolved.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let (a, b) = (records(a_text)?, records(b_text)?);
    let mut out = format!(
        "{:<14} {:<22} {:>14} {:>14} {:>9}  verdict\n",
        "workload", "metric", "a", "b", "b/a"
    );
    let mut clean = true;
    let mut counts_differ = Vec::new();
    for ((workload, traced), am) in &a {
        let Some(bm) = b.get(&(workload.clone(), *traced)) else {
            continue;
        };
        if *traced {
            // The traced pass: counts made by the program must repeat.
            for l in PER_LAYER.iter().filter(|l| l.kind == Kind::Count) {
                if let (Some(x), Some(y)) = (am.get(l.name), bm.get(l.name)) {
                    if x.value != y.value {
                        counts_differ
                            .push(format!("{workload} {}: {} -> {}", l.name, x.value, y.value));
                    }
                }
            }
            continue;
        }
        for e in END_TO_END {
            let (Some(x), Some(y)) = (am.get(e.name), bm.get(e.name)) else {
                continue;
            };
            let v = verdict(x, y, e.bound, e.floor);
            clean &= matches!(v, Verdict::Same | Verdict::Better);
            out.push_str(&format!(
                "{workload:<14} {:<22} {:>14.6} {:>14.6} {:>9.4}  {}\n",
                e.name,
                x.value,
                y.value,
                y.value / x.value,
                v.name()
            ));
        }
    }
    if counts_differ.is_empty() {
        out.push_str("every count metric present in both is identical\n");
    } else {
        out.push_str(
            "count metrics that differ (the simulation, or the service's input, changed):\n",
        );
        for c in &counts_differ {
            out.push_str(&format!("  {c}\n"));
        }
    }
    Ok((out, clean && counts_differ.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(samples: &[f64]) -> Metric {
        Metric::median_of(samples.to_vec())
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let base = m(&[2.80, 2.81, 2.79, 2.80, 2.82]);
        assert_eq!(
            verdict(&base, &m(&[2.90, 2.91, 2.89]), 0.08, 0.0),
            Verdict::Same
        ); // +3.6 %
        assert_eq!(
            verdict(&base, &m(&[3.10, 3.11, 3.09]), 0.08, 0.0),
            Verdict::Worse
        ); // +10.7 %
        assert_eq!(
            verdict(&base, &m(&[2.50, 2.51, 2.49]), 0.08, 0.0),
            Verdict::Better
        ); // -10.7 %
           // Reps spread over 20 % of the median cannot resolve an 8 % bound,
           // whichever way the medians fall.
        let noisy = m(&[2.5, 2.8, 3.1, 2.6, 3.0]);
        assert_eq!(verdict(&base, &noisy, 0.08, 0.0), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &base, 0.08, 0.0), Verdict::Unresolved);
        // A single reading (peak RSS) has no spread of its own.
        assert_eq!(
            verdict(&Metric::single(100.0), &Metric::single(104.0), 0.05, 0.0),
            Verdict::Same
        );
        assert_eq!(
            verdict(&Metric::single(100.0), &Metric::single(106.0), 0.05, 0.0),
            Verdict::Worse
        );
    }

    #[test]
    fn setup_floor_absorbs_millisecond_setups() {
        // fat-tree set-up: 2 ms -> 4 ms is +100 %, and 2 ms of nothing.
        let (a, b) = (m(&[0.002, 0.0021, 0.0019]), m(&[0.004, 0.0041, 0.0039]));
        assert_eq!(verdict(&a, &b, 0.25, 0.05), Verdict::Same);
        assert_eq!(verdict(&a, &b, 0.25, 0.0), Verdict::Worse);
        // clos_xl set-up: 120 ms -> 190 ms clears both the floor and 25 %.
        let (a, b) = (m(&[0.120, 0.121, 0.119]), m(&[0.190, 0.191, 0.189]));
        assert_eq!(verdict(&a, &b, 0.25, 0.05), Verdict::Worse);
        // … 120 ms -> 160 ms is +33 % but inside the 50 ms floor.
        assert_eq!(
            verdict(&a, &m(&[0.160, 0.161, 0.159]), 0.25, 0.05),
            Verdict::Same
        );
    }

    fn record(workload: &str, traced: bool, metrics: &[(&str, &[f64])]) -> String {
        let mut r = crate::report::RunResult {
            workload: workload.to_string(),
            traced,
            ..Default::default()
        };
        for (name, samples) in metrics {
            r.set_median(name, samples.to_vec());
        }
        r.to_json().to_string()
    }

    #[test]
    fn compares_summaries_row_by_row_and_lists_count_differences() {
        let summary = |run_s: &[f64], events: f64| {
            format!(
                "{{\"results\":[{},{}],\"claim\":null}}",
                record(
                    "fct_xpass",
                    false,
                    &[
                        ("run_s", run_s),
                        ("setup_s", &[0.002]),
                        ("peak_rss_mb", &[12.5])
                    ]
                ),
                record("fct_xpass", true, &[("event.events", &[events])]),
            )
        };
        let a = summary(&[2.8, 2.81, 2.79], 22_488_556.0);
        let (text, clean) = compare(&a, &a).unwrap();
        assert!(clean, "{text}");
        assert_eq!(text.matches(" same\n").count(), 3, "{text}");
        assert!(text.contains("every count metric present in both is identical"));
        // Slower by 30 %, and one event fewer.
        let b = summary(&[3.64, 3.65, 3.63], 22_488_555.0);
        let (text, clean) = compare(&a, &b).unwrap();
        assert!(!clean);
        assert!(text.contains("worse"), "{text}");
        assert!(
            text.contains("fct_xpass event.events: 22488556 -> 22488555"),
            "{text}"
        );
        // A single record compares too.
        let one = record("clos_xl", false, &[("run_s", &[4.0, 4.1, 3.9])]);
        assert!(compare(&one, &one).unwrap().1);
        assert!(compare("{", &one).is_err());
    }
}
