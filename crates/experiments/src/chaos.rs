//! Chaos engineering: seeded random fault schedules and the `chaos_sweep`
//! experiment.
//!
//! The fault layer (PR 1) replays hand-written schedules; the invariant
//! monitors (PR 2) check what a scenario author thought to enable. This
//! module machine-generates the failure timing instead: [`generate`]
//! samples a [`FaultPlan`] — cable down/up with freeze-or-flush, per-link
//! loss and corruption, host pause/resume — against any topology, fully
//! determined by a seed, with every fault healed before the horizon so
//! liveness is always *eventually* restored.
//!
//! [`chaos_sweep`](Exp) runs N derived seeds through the parallel runner
//! and asserts the full robustness invariant set per seed:
//!
//! * **conservation** — the byte/packet ledger balances
//!   ([`xpass_net::ledger`]);
//! * **zero data loss + Table-1 queue bound** — in *clean regimes*
//!   (schedules with no `LinkDown`: a frozen port legitimately accumulates
//!   arrivals above the bound, and flushes drop data by design);
//! * **liveness** — every flow terminates `Completed` or `Aborted` (never
//!   hung or left stalled), and the simulation watchdog
//!   ([`xpass_sim::watchdog`]) never trips.
//!
//! The sweep report is deterministic: same base seed ⇒ byte-identical JSON
//! for any `--scheduler` / `--jobs` combination. The per-run watchdog
//! therefore arms only *event* budgets — a wall-clock budget would trip
//! depending on machine speed and leak nondeterminism into the report.

use crate::harness::text_table;
use crate::parallel;
use expresspass::netcalc::{buffer_bounds, HierTopo, LinkClass, NetCalcParams};
use expresspass::{xpass_factory, XPassConfig};
use std::fmt;
use xpass_net::config::NetConfig;
use xpass_net::faults::{FaultKind, FaultPlan};
use xpass_net::health::InvariantSpec;
use xpass_net::ids::HostId;
use xpass_net::network::{FlowOutcome, Network};
use xpass_net::topology::Topology;
use xpass_sim::json::Json;
use xpass_sim::rng::Rng;
use xpass_sim::time::{Dur, SimTime};
use xpass_sim::watchdog::WatchdogSpec;

/// Seed salt for the schedule-generator RNG, so chaos sampling never
/// correlates with the traffic or fault-decision RNG streams.
pub const CHAOS_RNG_SALT: u64 = 0xC4A0_5C4E_DBAD_D1CE;

/// Parameters of one generated fault schedule.
#[derive(Clone, Copy, Debug)]
pub struct ChaosSpec {
    /// Generator seed: the schedule is a pure function of (topology,
    /// horizon, seed, intensity).
    pub seed: u64,
    /// How hard to shake, in `[0, 1]`: scales the number of fault episodes
    /// and the loss/corruption probabilities. Clamped.
    pub intensity: f64,
}

/// Sample a random fault schedule against `topo`. Every episode starts and
/// heals strictly inside `[0, horizon)`: links come back up, loss and
/// corruption clear, hosts resume — a generated schedule can delay flows
/// but never permanently partition them.
pub fn generate(topo: &Topology, horizon: Dur, spec: &ChaosSpec) -> FaultPlan {
    assert!(horizon > Dur::ZERO, "chaos horizon must be positive");
    let intensity = spec.intensity.clamp(0.0, 1.0);
    let mut rng = Rng::new(spec.seed ^ CHAOS_RNG_SALT);
    let mut plan = FaultPlan::new();
    // Cables are consecutive dlink pairs by construction (TopoBuilder
    // pushes both directions together); fail both directions so the
    // credit/data paths stay symmetric (§3.1).
    let n_cables = topo.dlinks.len() / 2;
    let n_dlinks = topo.dlinks.len();
    let n_hosts = topo.n_hosts;
    let episodes = 1 + (intensity * 7.0) as u64;
    let h = horizon.0;
    for _ in 0..episodes {
        // Start in the first 60 % of the horizon, heal by 95 % of it.
        let at_ps = rng.range_u64(h / 50, h * 3 / 5);
        let clear_ps = (at_ps + rng.range_u64(h / 100, h / 5)).min(h * 19 / 20);
        let at = SimTime(at_ps);
        let clear = SimTime(clear_ps);
        match rng.below(4) {
            0 => {
                let c = rng.below(n_cables as u64) as u32;
                let (ab, ba) = (
                    xpass_net::ids::DLinkId(2 * c),
                    xpass_net::ids::DLinkId(2 * c + 1),
                );
                plan = if rng.chance(0.5) {
                    // Hard port reset: both backlogs flushed.
                    plan.link_down_flush(at, ab).link_down_flush(at, ba)
                } else {
                    // Lossless pause: backlogs freeze until link-up.
                    plan.cable_down(at, ab, ba)
                };
                plan = plan.cable_up(clear, ab, ba);
            }
            1 => {
                let dl = xpass_net::ids::DLinkId(rng.below(n_dlinks as u64) as u32);
                let data = intensity * rng.f64() * 0.5;
                let credit = intensity * rng.f64() * 0.9;
                plan = plan
                    .set_loss(at, dl, data, credit)
                    .set_loss(clear, dl, 0.0, 0.0);
            }
            2 => {
                let dl = xpass_net::ids::DLinkId(rng.below(n_dlinks as u64) as u32);
                let prob = intensity * rng.f64() * 0.3;
                plan = plan.set_corrupt(at, dl, prob).set_corrupt(clear, dl, 0.0);
            }
            _ => {
                let host = HostId(rng.below(n_hosts as u64) as u32);
                plan = plan.host_pause(at, host).host_resume(clear, host);
            }
        }
    }
    plan
}

/// A schedule is *clean* when it contains no `LinkDown`: those are the only
/// generated faults that legitimately break the queue-bound / zero-loss
/// claims (frozen ports accumulate arrivals without draining; flushes drop
/// data by design). Loss, corruption, and host pauses only ever *remove*
/// traffic from the credit loop, so the paper's invariants must survive
/// them.
pub fn is_clean(plan: &FaultPlan) -> bool {
    !plan
        .events
        .iter()
        .any(|e| matches!(e.kind, FaultKind::LinkDown { .. }))
}

/// Chaos-sweep configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Derived seeds to sweep.
    pub n_seeds: usize,
    /// Sender/receiver pairs across the dumbbell bottleneck.
    pub n_pairs: usize,
    /// Link speed everywhere.
    pub speed_bps: u64,
    /// Fault-schedule horizon: all faults heal before this.
    pub horizon: Dur,
    /// Hard completion cap per run (liveness deadline).
    pub cap: Dur,
    /// Chaos intensity in `[0, 1]`.
    pub intensity: f64,
    /// Application bytes per flow.
    pub flow_bytes: u64,
    /// Watchdog: total event budget per run.
    pub max_events: u64,
    /// Watchdog: same-instant event budget per run (livelock detector).
    pub max_events_per_instant: u64,
    /// Worker threads for the inner per-seed fan-out.
    pub jobs: usize,
    /// Base seed; per-run seeds are derived SplitMix-style.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            n_seeds: 64,
            n_pairs: 2,
            speed_bps: 10_000_000_000,
            horizon: Dur::ms(8),
            cap: Dur::ms(400),
            intensity: 0.7,
            // ≈ 6.4 ms of bottleneck traffic across the pairs, so flows
            // span the fault window instead of finishing before it.
            flow_bytes: 4_000_000,
            max_events: 50_000_000,
            max_events_per_instant: 1_000_000,
            jobs: 4,
            seed: 77,
        }
    }
}

/// Derive the k-th sweep seed from the base seed (SplitMix increment keeps
/// neighbouring runs decorrelated).
fn derive_seed(base: u64, k: usize) -> u64 {
    base.wrapping_add((k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Propagation delay of every link of a chaos run's dumbbell.
const PROP: Dur = Dur::us(1);

/// The chaos dumbbell of `n_pairs` at `speed_bps` as the Eq 1 bound sees
/// it: one link class at [`PROP`], `n_pairs` host ports and one
/// switch-facing port per switch. A unit test reads each of these back
/// from the built topology.
fn dumbbell_shape(n_pairs: usize, speed_bps: u64) -> HierTopo {
    let link = LinkClass {
        speed_bps,
        prop: PROP,
    };
    HierTopo {
        name: "chaos dumbbell".to_string(),
        host_link: link,
        tor_agg: link,
        agg_core: link,
        tor_down_ports: n_pairs,
        tor_up_ports: 1,
    }
}

/// Table-1 bound for the dumbbell's worst switch-egress port, from the same
/// Eq-1 machinery as the fat-tree experiments: the bottleneck egress
/// aggregates `n_pairs` host loops (ToR-from-below class), the far-side
/// host ports are the from-above class.
fn dumbbell_bound(n_pairs: usize, speed_bps: u64, cfg: &NetConfig) -> u64 {
    let topo = dumbbell_shape(n_pairs, speed_bps);
    let p = NetCalcParams {
        credit_queue: cfg.credit_queue_pkts,
        dhost_min: cfg.host_delay.min,
        dhost_max: cfg.host_delay.max,
        switch_latency: Dur::ZERO,
    };
    let b = buffer_bounds(&topo, &p);
    b.tor_down.buffer_bytes.max(b.tor_up.buffer_bytes)
}

/// Outcome of one chaos run.
#[derive(Clone, Debug, PartialEq)]
pub struct SeedReport {
    /// The derived run seed.
    pub seed: u64,
    /// No `LinkDown` in the schedule (queue/loss invariants asserted).
    pub clean: bool,
    /// Fault events applied.
    pub faults_injected: u64,
    /// Conservation ledger balanced at teardown.
    pub balanced: bool,
    /// Signed packet imbalance (0 when balanced).
    pub imbalance_pkts: i64,
    /// Switch-egress enqueues above the Table-1 bound.
    pub queue_violations: u64,
    /// Switch-egress data tail-drops.
    pub loss_violations: u64,
    /// Flows that finished.
    pub completed: usize,
    /// Flows whose endpoints gave up.
    pub aborted: usize,
    /// Flows still live (or stalled) at the cap — liveness failures.
    pub unfinished: usize,
    /// Watchdog trip reason, when the run was aborted as stuck.
    pub watchdog: Option<&'static str>,
    /// Packets lost to faults (wire losses, flushes, dead ends).
    pub pkts_lost_to_faults: u64,
    /// Packets CRC-dropped by injected corruption.
    pub pkts_corrupted: u64,
}

impl SeedReport {
    /// Did this run hold its full assertion set?
    pub fn ok(&self) -> bool {
        let invariants_ok =
            !self.clean || (self.queue_violations == 0 && self.loss_violations == 0);
        self.balanced && self.unfinished == 0 && self.watchdog.is_none() && invariants_ok
    }

    fn to_json(&self) -> Json {
        Json::obj()
            // Hex string: derived seeds use the full u64 range, which JSON
            // numbers (exact only to 2^53) cannot hold.
            .with("seed", Json::str(format!("{:#x}", self.seed)))
            .with("clean", Json::Bool(self.clean))
            .with("faults_injected", Json::num_u64(self.faults_injected))
            .with("balanced", Json::Bool(self.balanced))
            .with("imbalance_pkts", Json::Num(self.imbalance_pkts as f64))
            .with("queue_violations", Json::num_u64(self.queue_violations))
            .with("loss_violations", Json::num_u64(self.loss_violations))
            .with("completed", Json::num_u64(self.completed as u64))
            .with("aborted", Json::num_u64(self.aborted as u64))
            .with("unfinished", Json::num_u64(self.unfinished as u64))
            .with(
                "watchdog",
                match self.watchdog {
                    Some(r) => Json::str(r),
                    None => Json::Null,
                },
            )
            .with(
                "pkts_lost_to_faults",
                Json::num_u64(self.pkts_lost_to_faults),
            )
            .with("pkts_corrupted", Json::num_u64(self.pkts_corrupted))
            .with("ok", Json::Bool(self.ok()))
    }
}

/// Run one seed of the sweep.
fn run_seed(cfg: &Config, k: usize) -> SeedReport {
    let seed = derive_seed(cfg.seed, k);
    let topo = Topology::dumbbell(cfg.n_pairs, cfg.speed_bps, PROP);
    let plan = generate(
        &topo,
        cfg.horizon,
        &ChaosSpec {
            seed,
            intensity: cfg.intensity,
        },
    );
    let clean = is_clean(&plan);
    let net_cfg = NetConfig::expresspass().with_seed(seed);
    let bound = dumbbell_bound(cfg.n_pairs, cfg.speed_bps, &net_cfg);
    let mut net = Network::new(topo, net_cfg, xpass_factory(XPassConfig::aggressive()));
    net.install_ledger();
    net.install_watchdog(WatchdogSpec {
        max_events: Some(cfg.max_events),
        // Never arm a wall budget here: a trip would depend on machine
        // speed and break the byte-identical report guarantee.
        max_wall: None,
        max_events_per_instant: Some(cfg.max_events_per_instant),
    });
    net.install_invariants(InvariantSpec {
        data_queue_bound_bytes: Some(bound),
        zero_data_loss: true,
    });
    for i in 0..cfg.n_pairs {
        net.add_flow(
            HostId(i as u32),
            HostId((cfg.n_pairs + i) as u32),
            cfg.flow_bytes,
            SimTime::ZERO,
        );
    }
    net.install_fault_plan(plan);
    net.set_phase("chaos");
    net.run_until_done(SimTime::ZERO + cfg.cap);
    let health = net.health_report();
    let ledger = health.ledger.clone().expect("ledger installed");
    let records = net.flow_records();
    let terminated = records
        .iter()
        .filter(|r| {
            matches!(
                r.outcome,
                Some(FlowOutcome::Completed) | Some(FlowOutcome::Aborted)
            )
        })
        .count();
    SeedReport {
        seed,
        clean,
        faults_injected: net.counters().faults_injected,
        balanced: ledger.balanced(),
        imbalance_pkts: ledger.imbalance_pkts(),
        queue_violations: health.queue_violations,
        loss_violations: health.loss_violations,
        completed: net.completed_count(),
        aborted: net.aborted_count(),
        unfinished: records.len() - terminated,
        watchdog: net.watchdog_report().map(|r| r.reason.name()),
        pkts_lost_to_faults: net.counters().pkts_lost_to_faults,
        pkts_corrupted: net.counters().pkts_corrupted,
    }
}

/// The whole sweep's outcome.
#[derive(Clone, Debug)]
pub struct ChaosSweep {
    /// Per-seed reports, in seed-index order.
    pub reports: Vec<SeedReport>,
    /// Seeds whose schedule was clean (no `LinkDown`).
    pub clean_seeds: usize,
    /// Seeds that failed their assertion set.
    pub violations: usize,
}

/// Run the sweep. The inner fan-out inherits the scheduler kind of the
/// caller's run context and merges in input order, so the report is
/// byte-stable for any scheduler/job configuration.
pub fn run(cfg: &Config) -> ChaosSweep {
    let scheduler = xpass_sim::event::thread_scheduler();
    let reports = parallel::run_indexed((0..cfg.n_seeds).collect(), cfg.jobs, scheduler, |_, k| {
        run_seed(cfg, k)
    });
    let clean_seeds = reports.iter().filter(|r| r.clean).count();
    let violations = reports.iter().filter(|r| !r.ok()).count();
    ChaosSweep {
        reports,
        clean_seeds,
        violations,
    }
}

impl ChaosSweep {
    /// All seeds held their assertion set.
    pub fn ok(&self) -> bool {
        self.violations == 0
    }

    /// Structured payload: summary plus the full per-seed array.
    pub fn to_json(&self) -> Json {
        let seeds: Vec<Json> = self.reports.iter().map(SeedReport::to_json).collect();
        Json::obj()
            .with("n_seeds", Json::num_u64(self.reports.len() as u64))
            .with("clean_seeds", Json::num_u64(self.clean_seeds as u64))
            .with("violations", Json::num_u64(self.violations as u64))
            .with(
                "total_faults",
                Json::num_u64(self.reports.iter().map(|r| r.faults_injected).sum()),
            )
            .with("ok", Json::Bool(self.ok()))
            .with("seeds", Json::Arr(seeds))
    }
}

impl fmt::Display for ChaosSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Chaos sweep: {} generated fault schedules ({} clean), {} violation(s)",
            self.reports.len(),
            self.clean_seeds,
            self.violations
        )?;
        let total_faults: u64 = self.reports.iter().map(|r| r.faults_injected).sum();
        let total_lost: u64 = self.reports.iter().map(|r| r.pkts_lost_to_faults).sum();
        let total_corrupt: u64 = self.reports.iter().map(|r| r.pkts_corrupted).sum();
        let completed: usize = self.reports.iter().map(|r| r.completed).sum();
        let aborted: usize = self.reports.iter().map(|r| r.aborted).sum();
        let unfinished: usize = self.reports.iter().map(|r| r.unfinished).sum();
        let unbalanced = self.reports.iter().filter(|r| !r.balanced).count();
        let tripped = self.reports.iter().filter(|r| r.watchdog.is_some()).count();
        let rows = vec![
            vec![
                "all seeds".into(),
                format!("{total_faults} faults"),
                format!("{unbalanced} unbalanced"),
                format!("{tripped} watchdog trips"),
                format!("{completed} completed / {aborted} aborted / {unfinished} hung"),
            ],
            vec![
                "fault losses".into(),
                format!("{total_lost} lost"),
                format!("{total_corrupt} corrupted"),
                "-".into(),
                "-".into(),
            ],
        ];
        write!(
            f,
            "{}",
            text_table(
                &["Scope", "Faults", "Conservation", "Watchdog", "Liveness"],
                &rows
            )
        )?;
        // Worst offenders, if any.
        for r in self.reports.iter().filter(|r| !r.ok()).take(5) {
            writeln!(
                f,
                "VIOLATION seed {}: balanced={} queue={} loss={} unfinished={} watchdog={:?}",
                r.seed, r.balanced, r.queue_violations, r.loss_violations, r.unfinished, r.watchdog
            )?;
        }
        Ok(())
    }
}

/// Registry adapter: drives the chaos sweep through the
/// [`crate::Experiment`] trait.
#[derive(Default)]
pub struct Exp(Config);

impl crate::Experiment for Exp {
    fn name(&self) -> &str {
        "chaos_sweep"
    }
    fn describe(&self) -> &str {
        "chaos: random fault schedules vs conservation + liveness"
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

    fn quick_cfg() -> Config {
        Config {
            n_seeds: 8,
            ..Config::default()
        }
    }

    #[test]
    fn dumbbell_shape_is_the_built_topology() {
        for n_pairs in [1, 4] {
            let (topo, shape) = (
                Topology::dumbbell(n_pairs, 10_000_000_000, PROP),
                dumbbell_shape(n_pairs, 10_000_000_000),
            );
            crate::harness::tests::assert_has_shape(&topo, &shape);
        }
    }

    #[test]
    fn generated_schedules_are_deterministic_and_heal() {
        let topo = Topology::dumbbell(2, 10_000_000_000, Dur::us(1));
        let spec = ChaosSpec {
            seed: 42,
            intensity: 0.8,
        };
        let a = generate(&topo, Dur::ms(10), &spec);
        let b = generate(&topo, Dur::ms(10), &spec);
        assert_eq!(a.events, b.events, "same seed, same schedule");
        assert!(!a.is_empty());
        // Every disturbance heals strictly inside the horizon.
        let horizon = SimTime::ZERO + Dur::ms(10);
        let mut down = std::collections::HashSet::new();
        let mut paused = std::collections::HashSet::new();
        let mut events = a.events.clone();
        events.sort_by_key(|e| e.at);
        for e in &events {
            assert!(e.at < horizon, "fault at {:?} past horizon", e.at);
            match e.kind {
                FaultKind::LinkDown { dlink, .. } => {
                    down.insert(dlink);
                }
                FaultKind::LinkUp { dlink } => {
                    down.remove(&dlink);
                }
                FaultKind::HostPause { host } => {
                    paused.insert(host);
                }
                FaultKind::HostResume { host } => {
                    paused.remove(&host);
                }
                _ => {}
            }
        }
        assert!(down.is_empty(), "links left down: {down:?}");
        assert!(paused.is_empty(), "hosts left paused: {paused:?}");
    }

    #[test]
    fn different_seeds_differ() {
        let topo = Topology::dumbbell(2, 10_000_000_000, Dur::us(1));
        let a = generate(
            &topo,
            Dur::ms(10),
            &ChaosSpec {
                seed: 1,
                intensity: 0.8,
            },
        );
        let b = generate(
            &topo,
            Dur::ms(10),
            &ChaosSpec {
                seed: 2,
                intensity: 0.8,
            },
        );
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn zero_intensity_still_generates_one_mild_episode() {
        let topo = Topology::dumbbell(2, 10_000_000_000, Dur::us(1));
        let p = generate(
            &topo,
            Dur::ms(10),
            &ChaosSpec {
                seed: 9,
                intensity: 0.0,
            },
        );
        assert!(!p.is_empty());
    }

    #[test]
    fn sweep_holds_all_invariants() {
        let r = run(&quick_cfg());
        assert_eq!(r.reports.len(), 8);
        for s in &r.reports {
            assert!(
                s.ok(),
                "seed {} failed: balanced={} queue={} loss={} unfinished={} watchdog={:?}",
                s.seed,
                s.balanced,
                s.queue_violations,
                s.loss_violations,
                s.unfinished,
                s.watchdog
            );
            assert!(s.faults_injected > 0, "schedule was empty");
        }
        assert!(r.ok());
    }

    #[test]
    fn sweep_report_is_job_count_invariant() {
        let mut cfg = quick_cfg();
        cfg.jobs = 1;
        let serial = run(&cfg);
        cfg.jobs = 4;
        let par = run(&cfg);
        assert_eq!(serial.reports, par.reports);
        assert_eq!(
            serial.to_json().to_string(),
            par.to_json().to_string(),
            "sweep JSON must be byte-identical across job counts"
        );
    }
}
