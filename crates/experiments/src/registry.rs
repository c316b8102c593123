//! The experiment registry: every paper artifact as a boxed
//! [`Experiment`] trait object, in the canonical CLI
//! order. The `xpass-repro` binary, the integration tests, and any future
//! driver all dispatch through this single list, so adding an experiment
//! module means adding exactly one line here.

use crate::Experiment;

/// Every registered experiment, in canonical order (the order `xpass-repro
/// all` runs and prints them).
pub fn all() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::<crate::fig01_queue_buildup::Exp>::default(),
        Box::<crate::fig02_naive_convergence::Exp>::default(),
        Box::<crate::table1_buffer_bounds::Exp>::default(),
        Box::<crate::fig05_buffer_breakdown::Exp>::default(),
        Box::<crate::fig06_jitter_fairness::Exp>::default(),
        Box::<crate::fig08_init_rate_tradeoff::Exp>::default(),
        Box::<crate::fig09_credit_queue_capacity::Exp>::default(),
        Box::<crate::fig10_parking_lot::Exp>::default(),
        Box::<crate::fig11_multi_bottleneck::Exp>::default(),
        Box::<crate::fig12_steady_state::Exp>::default(),
        Box::<crate::fig13_convergence_trace::Exp>::default(),
        Box::<crate::fig14_host_model::Exp>::default(),
        Box::<crate::fig15_flow_scalability::Exp>::default(),
        Box::<crate::fig15_xl::Exp>::default(),
        Box::<crate::fig16_convergence::Exp>::default(),
        Box::<crate::fig17_shuffle::Exp>::default(),
        Box::<crate::fig18_param_sensitivity::Exp>::default(),
        Box::<crate::fig19_fct::Exp>::default(),
        Box::<crate::fig20_credit_waste::Exp>::default(),
        Box::<crate::fig21_speedup::Exp>::default(),
        Box::<crate::table3_queue::Exp>::default(),
        Box::<crate::ablations::Exp>::default(),
        Box::<crate::fault_recovery::Exp>::default(),
        Box::<crate::chaos::Exp>::default(),
    ]
}

/// Look one experiment up by its registered name.
pub fn find(name: &str) -> Option<Box<dyn Experiment>> {
    all().into_iter().find(|e| e.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_order_and_unique_names() {
        let names: Vec<String> = all().iter().map(|e| e.name().to_string()).collect();
        assert_eq!(names.first().map(String::as_str), Some("fig01"));
        assert_eq!(names.last().map(String::as_str), Some("chaos_sweep"));
        assert_eq!(names.len(), 24);
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate names: {names:?}");
    }

    #[test]
    fn find_hits_and_misses() {
        assert!(find("fig19").is_some());
        assert!(find("fig19").unwrap().traces());
        assert!(find("nonsense").is_none());
    }

    #[test]
    fn describe_nonempty_everywhere() {
        for e in all() {
            assert!(!e.describe().is_empty(), "{} has no description", e.name());
        }
    }

    #[test]
    fn paper_scale_flags() {
        // Only the experiments the old CLI special-cased support it.
        let expect = ["fig01", "fig15_xl", "fig17", "fig19", "table3"];
        for mut e in all() {
            let name = e.name().to_string();
            assert_eq!(
                e.paper_scale_config(),
                expect.contains(&name.as_str()),
                "paper_scale mismatch for {name}"
            );
        }
    }
}
