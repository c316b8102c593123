//! The four simulation workloads: reps back-to-back in this process on a
//! fresh network each, timed by the harness's own clock around the calls
//! it makes through [`crate::api`], checked against the paper's
//! invariants on every rep.

use crate::api::{self, Outcome, Probes, Sim, SimKind};
use crate::report::RunResult;
use crate::trace::{self, Recorder};
use crate::{count_alloc, proc, stats};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run: reps set up once each, and set-up-only rounds make up
/// the rest, so `setup_s` is a median of at least [`MIN_SETUPS`] — and of
/// up to [`MAX_SETUPS`] where, as on the fat tree, a set-up takes a
/// millisecond and half a second buys them all.
const MIN_SETUPS: usize = 9;
const MAX_SETUPS: usize = 51;
const EXTRA_SETUP_BUDGET_S: f64 = 0.5;
/// `run_until` slices of the traced rep.
const SLICES: u64 = 10;
/// Untraced reps the traced pass compares its traced rep against.
const TRACED_BASE_REPS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimWorkload {
    FctXpass,
    FctDctcp,
    ClosXl,
    ProbesOn,
}

impl SimWorkload {
    pub fn name(self) -> &'static str {
        match self {
            SimWorkload::FctXpass => "fct_xpass",
            SimWorkload::FctDctcp => "fct_dctcp",
            SimWorkload::ClosXl => "clos_xl",
            SimWorkload::ProbesOn => "probes_on",
        }
    }

    fn kind(self) -> SimKind {
        match self {
            SimWorkload::FctXpass | SimWorkload::ProbesOn => SimKind::FctXpass,
            SimWorkload::FctDctcp => SimKind::FctDctcp,
            SimWorkload::ClosXl => SimKind::ClosXl,
        }
    }

    fn probes(self) -> Probes {
        match self {
            // RealisticRun monitors Eq 1 on every ExpressPass run.
            SimWorkload::FctXpass => Probes::HEALTH,
            SimWorkload::ProbesOn => Probes::ALL,
            SimWorkload::FctDctcp | SimWorkload::ClosXl => Probes::NONE,
        }
    }

    /// The network seed of every timed rep: fig19's and fig15_xl's
    /// defaults. `--seed` does not change it (see the README, "What the
    /// seed changes").
    pub fn pinned_seed(self) -> u64 {
        match self {
            SimWorkload::ClosXl => api::CLOS_SEED,
            _ => api::FCT_SEED,
        }
    }
}

/// One rep: what it cost and what it simulated.
struct Rep {
    setup_s: f64,
    run_s: f64,
    /// Index of the rep's root span.
    root: usize,
    /// Heap bytes the network gained from `Network::new` to end of run
    /// (meaningful while the counting allocator is on).
    net_bytes: i64,
    out: Outcome,
}

/// What one rep builds: which simulation, the network's seed, the probes
/// installed, and where the checkpoint probe writes.
#[derive(Clone, Copy)]
struct Plan<'a> {
    kind: SimKind,
    seed: u64,
    probes: Probes,
    ck_dir: &'a Path,
}

fn set_up(plan: Plan, rec: &mut Recorder) -> (Sim, f64, i64) {
    let idx = rec.open("setup");
    let mut sim = Sim::new(plan.kind, plan.seed, plan.probes, plan.ck_dir, rec);
    let bytes_before_flows = count_alloc::net_bytes();
    sim.add_flows(rec);
    rec.close(idx);
    (sim, rec.secs(idx), bytes_before_flows)
}

/// One rep under a `rep` root span. `sliced`: run as [`SLICES`] spans up
/// to that simulated end instead of one call.
fn rep(plan: Plan, sliced: Option<u64>, id: u32, rec: &mut Recorder) -> Rep {
    rec.set_id(id);
    let root = rec.open("rep");
    let (mut sim, setup_s, bytes0) = set_up(plan, rec);
    let run = rec.open("network.run");
    match sliced {
        Some(end_ps) => sim.run_sliced(end_ps, SLICES, rec),
        None => {
            sim.run();
        }
    }
    rec.close(run);
    let run_s = rec.secs(run);
    let net_bytes = count_alloc::net_bytes() - bytes0;
    let out = sim.finish(rec);
    rec.close(root);
    Rep {
        setup_s,
        run_s,
        root,
        net_bytes,
        out,
    }
}

/// Checks every rep of a workload must pass, each named with `prefix`;
/// returns flows that failed.
fn check_reps(
    w: SimWorkload,
    reps: &[Rep],
    reference: Option<&Outcome>,
    prefix: &str,
    res: &mut RunResult,
) -> u64 {
    let kind = w.kind();
    let first = &reps[0].out;
    let mut check =
        |name: &str, ok: bool, detail: String| res.check(&format!("{prefix}{name}"), ok, detail);
    let same = reps
        .iter()
        .all(|r| r.out.events == first.events && r.out.digest == first.digest);
    check(
        "reps_identical",
        same,
        format!(
            "{} reps, events {}, digest {:#018x}",
            reps.len(),
            first.events,
            first.digest
        ),
    );
    let mut failed = 0;
    if kind == SimKind::ClosXl {
        let settled: u64 = reps.iter().map(|r| r.out.completed + r.out.aborted).sum();
        check(
            "all_flows_live_at_1ms",
            settled == 0 && first.flows == api::CLOS_FLOWS as u64,
            format!("{settled} settled"),
        );
        failed += settled;
    } else {
        let unfinished: u64 = reps.iter().map(|r| r.out.unfinished).sum();
        check(
            "zero_unfinished",
            unfinished == 0 && first.flows == api::FCT_FLOWS as u64,
            format!("{unfinished} unfinished"),
        );
        failed += unfinished;
    }
    if kind.is_xpass() {
        let drops: u64 = reps.iter().map(|r| r.out.data_drops).sum();
        check(
            "zero_data_loss",
            drops == 0,
            format!("{drops} data packets dropped"),
        );
    }
    if w.probes().health {
        let bad: u64 = reps.iter().map(|r| r.out.health_violations).sum();
        let monitored = reps.iter().all(|r| r.out.health_monitored);
        check(
            "eq1_queue_bound_holds",
            monitored && bad == 0,
            format!("{bad} violations"),
        );
    }
    if w == SimWorkload::ProbesOn {
        let all = |f: &dyn Fn(&api::ProbeOutcome) -> bool| reps.iter().all(|r| f(&r.out.probes));
        check(
            "ledger_balanced",
            all(&|p| p.ledger_balanced == Some(true)),
            String::new(),
        );
        check(
            "watchdog_untripped",
            all(&|p| p.watchdog_tripped == Some(false)),
            String::new(),
        );
        let due = first.sim_end_ps / api::CHECKPOINT_EVERY_PS;
        check(
            "a_snapshot_every_15_sim_ms",
            all(&|p| p.checkpoints_written == due) && due >= 3,
            format!(
                "{} written in {:.2} sim-ms",
                first.probes.checkpoints_written,
                first.sim_end_ps as f64 / 1e9
            ),
        );
        check(
            "newest_snapshot_loads",
            all(&|p| p.newest_checkpoint_loads == Some(true)),
            String::new(),
        );
        check(
            "metrics_jsonl_round_trips",
            all(&|p| p.metrics_roundtrip == Some(true) && p.metrics_samples > 0),
            format!("{} samples", first.probes.metrics_samples),
        );
        check(
            "trace_recorded",
            all(&|p| p.trace_events > 0),
            format!("{} events", first.probes.trace_events),
        );
        if let Some(r) = reference {
            check(
                "probes_observe_only",
                r.events == first.events && r.digest == first.digest,
                format!("probe-free events {} digest {:#018x}", r.events, r.digest),
            );
        }
    }
    failed
}

/// Compare the pinned simulation's counts with the committed ones. A
/// difference is a change of simulated behaviour — legitimate for a PR
/// that means to make one — so it is reported, not failed.
fn against_baseline(w: SimWorkload, out: &Outcome, res: &mut RunResult) {
    res.digest = Some(out.digest);
    let Some(b) = crate::baseline(w.name()) else {
        return;
    };
    let num = |k: &str| b.get(k).and_then(api::Json::as_u64);
    let digest = b
        .get("digest")
        .and_then(api::Json::as_str)
        .map(str::to_string);
    let mut diffs = Vec::new();
    for (k, v) in [
        ("events", out.events),
        ("peak_queue_len", out.peak_queue_len),
        ("credits_sent", out.credits_sent),
        ("credits_wasted", out.credits_wasted),
        ("max_switch_queue_bytes", out.max_switch_queue_bytes),
    ] {
        if num(k).is_some_and(|want| want != v) {
            diffs.push(format!("{k} {v} (committed {})", num(k).unwrap_or(0)));
        }
    }
    if digest.is_some_and(|d| d != format!("{:#018x}", out.digest)) {
        diffs.push("flow-record digest".to_string());
    }
    res.digest_changed = Some(!diffs.is_empty());
    if !diffs.is_empty() {
        res.notes
            .push(format!("digest_changed: {}", diffs.join(", ")));
    }
}

fn tmp_dir(out_dir: &Path, w: SimWorkload) -> PathBuf {
    let d = out_dir.join(format!("tmp-{}-{}", w.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create temp dir under benchmark/out");
    d
}

/// The untraced pass: as many reps as come nearest to `seconds`, then the
/// three end-to-end metrics.
pub fn run_untraced(w: SimWorkload, seed: u64, seconds: u64, out_dir: &Path) -> RunResult {
    let started = Instant::now();
    let mut res = RunResult {
        workload: w.name().to_string(),
        seed,
        seconds,
        ..RunResult::default()
    };
    let tmp = tmp_dir(out_dir, w);
    let mut rec = Recorder::new();
    let ck_dir = tmp.join("ck");
    let plan = Plan {
        kind: w.kind(),
        seed: w.pinned_seed(),
        probes: w.probes(),
        ck_dir: &ck_dir,
    };
    // As many reps as come nearest to `seconds`.
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        reps.push(rep(plan, None, reps.len() as u32 + 1, &mut rec));
        let mean = started.elapsed().as_secs_f64() / reps.len() as f64;
        if (reps.len() as f64 + 0.5) * mean >= seconds as f64 {
            break;
        }
    }
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let extra = Instant::now();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && extra.elapsed().as_secs_f64() < EXTRA_SETUP_BUDGET_S)
    {
        rec.set_id(0);
        setups.push(set_up(plan, &mut rec).1);
    }
    res.reps = reps.len() as u64;
    res.attempted = reps.len() as u64 * plan.kind.flows() as u64;
    res.failed = check_reps(w, &reps, None, "", &mut res);
    against_baseline(w, &reps[0].out, &mut res);
    res.set_median("setup_s", setups);
    res.set_median("run_s", reps.iter().map(|r| r.run_s).collect());
    res.set("peak_rss_mb", proc::peak_rss_mb(None).unwrap_or(0.0));
    let _ = std::fs::remove_dir_all(&tmp);
    res
}

/// Median over reps of the summed duration of each rep's spans named
/// `name`, in seconds.
fn span_median_s(rec: &Recorder, reps: &[Rep], name: &str) -> f64 {
    let spans = rec.spans();
    let per_rep: Vec<f64> = reps
        .iter()
        .map(|r| {
            let id = spans[r.root].id;
            spans
                .iter()
                .filter(|s| s.id == id && s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e9)
                .sum()
        })
        .collect();
    stats::median(&per_rep)
}

fn layer_counts(out: &Outcome, kind: SimKind, res: &mut RunResult) {
    res.set("event.events", out.events as f64);
    res.set("event.peak_queue_len", out.peak_queue_len as f64);
    res.set("network.ev_arrive", out.ev_arrive as f64);
    res.set("network.ev_port_wake", out.ev_port_wake as f64);
    res.set("network.ev_host_rx", out.ev_host_rx as f64);
    res.set("network.ev_timer", out.ev_timer as f64);
    res.set("network.ev_flow_start", out.ev_flow_start as f64);
    res.set(
        "timers.event_share",
        out.ev_timer as f64 / out.events.max(1) as f64,
    );
    res.set("topology.route_pool_len", out.route_pool_len as f64);
    res.set(
        "port.max_data_queue_bytes",
        out.max_switch_queue_bytes as f64,
    );
    res.set("port.data_drops", out.data_drops as f64);
    res.set("port.credit_drops", out.credit_drops as f64);
    res.set("port.ecn_marked", out.ecn_marked as f64);
    res.set("arena.slots", out.arena_slots as f64);
    res.set("core.credits_sent", out.credits_sent as f64);
    res.set("core.credits_wasted", out.credits_wasted as f64);
    res.set("core.credits_dropped", out.credits_dropped as f64);
    if !kind.is_xpass() {
        res.set("baselines.ecn_marked", out.ecn_marked as f64);
        res.set("baselines.data_drops", out.data_drops as f64);
        res.set("baselines.unfinished", out.unfinished as f64);
    }
}

/// The traced pass: untraced base reps, one rep with the run split into
/// [`SLICES`] spans and the counting allocator on, the direct layer
/// timers this workload's regime calls for, and — on `probes_on` — each
/// probe alone. Writes `trace-<workload>.json` into `out_dir`.
pub fn run_traced(w: SimWorkload, seed: u64, seconds: u64, out_dir: &Path) -> RunResult {
    let mut res = RunResult {
        workload: w.name().to_string(),
        seed,
        seconds,
        traced: true,
        ..RunResult::default()
    };
    let tmp = tmp_dir(out_dir, w);
    let mut rec = Recorder::new();
    let (kind, pinned) = (w.kind(), w.pinned_seed());
    let mut next_id = 0u32;
    let mut id = || {
        next_id += 1;
        next_id
    };
    let ck_dir = tmp.join("ck");
    let plan = Plan {
        kind,
        seed: pinned,
        probes: w.probes(),
        ck_dir: &ck_dir,
    };
    let with = |probes: Probes| Plan { probes, ..plan };

    let mut reference = None;
    if w == SimWorkload::ProbesOn {
        let probe_free = rep(with(Probes::NONE), None, id(), &mut rec);
        // One snapshot, taken where the checkpoint probe takes its first.
        let snap = api::snap_times(pinned, api::CHECKPOINT_EVERY_PS, &tmp.join("direct.snap"));
        res.check("snapshot_restores", snap.restored_ok, "");
        res.set("snap.snapshot_ms", snap.snapshot_ms);
        res.set("snap.bytes", snap.bytes as f64);
        res.set("snap.write_ms", snap.write_ms);
        res.set("snap.restore_ms", snap.restore_ms);

        // Each probe alone, over the probe-free rep of this same pass.
        res.set("probes.base_run_s", probe_free.run_s);
        let only = |set: fn(&mut Probes)| {
            let mut p = Probes::NONE;
            set(&mut p);
            p
        };
        for (name, probes) in [
            ("ledger", only(|p| p.ledger = true)),
            ("health", only(|p| p.health = true)),
            ("watchdog", only(|p| p.watchdog = true)),
            ("trace", only(|p| p.trace = true)),
            ("metrics", only(|p| p.metrics = true)),
            ("checkpoint", only(|p| p.checkpoint = true)),
        ] {
            let rss_before = proc::reset_peak_rss().then(proc::rss_mb).flatten();
            let alone = rep(with(probes), None, id(), &mut rec);
            res.set(
                &format!("{name}.overhead_ratio"),
                alone.run_s / probe_free.run_s,
            );
            if let (true, Some(before), Some(peak)) =
                (name == "checkpoint", rss_before, proc::peak_rss_mb(None))
            {
                res.set("snap.rss_delta_mb", peak - before);
            }
            res.check(
                &format!("{name}_observes_only"),
                alone.out.digest == probe_free.out.digest,
                "",
            );
        }
        reference = Some(probe_free.out);
    }

    let base_reps = if w == SimWorkload::ProbesOn {
        1
    } else {
        TRACED_BASE_REPS
    };
    let mut reps: Vec<Rep> = (0..base_reps)
        .map(|_| rep(plan, None, id(), &mut rec))
        .collect();
    let base_run_s = stats::median(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let end_ps = reps[0].out.sim_end_ps;

    count_alloc::set_counting(true);
    let traced = rep(plan, Some(end_ps), id(), &mut rec);
    count_alloc::set_counting(false);
    let slices: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.id == rec.spans()[traced.root].id && s.name == "network.run_slice")
        .map(|s| s.dur_ns() as f64 / 1e9)
        .collect();
    res.set(
        "network.run_slice_max_over_mean",
        slices.iter().cloned().fold(0.0, f64::max) * slices.len() as f64
            / slices.iter().sum::<f64>(),
    );
    res.set("harness.trace_overhead_ratio", traced.run_s / base_run_s);
    res.set(
        "arena.live_bytes_per_flow",
        traced.net_bytes as f64 / kind.flows() as f64,
    );
    let coverage = trace::coverage(rec.spans(), traced.root);
    res.set("harness.span_coverage", coverage);
    res.check(
        "span_coverage_at_least_95pct",
        coverage >= 0.95,
        format!("{coverage:.4}"),
    );
    reps.push(traced);

    res.reps = reps.len() as u64;
    res.attempted = reps.len() as u64 * kind.flows() as u64;
    res.failed = check_reps(w, &reps, reference.as_ref(), "", &mut res);
    against_baseline(w, &reps[0].out, &mut res);
    if seed != pinned {
        // The timed reps simulate the pinned input; the invariants must
        // hold on the trajectory `--seed` gives, too.
        let seeded = rep(Plan { seed, ..plan }, None, id(), &mut rec);
        res.attempted += kind.flows() as u64;
        res.failed += check_reps(w, &[seeded], None, &format!("seed_{seed}."), &mut res);
    }

    let out = &reps[0].out;
    layer_counts(out, kind, &mut res);
    res.set(
        "event.ns_per_event",
        base_run_s * 1e9 / out.events.max(1) as f64,
    );
    for (metric, span, scale) in [
        ("topology.build_ms", "topology.build", 1e3),
        ("network.new_ms", "network.new", 1e3),
        (
            "network.add_flow_us",
            "network.add_flows",
            1e6 / kind.flows() as f64,
        ),
        ("network.finish_ms", "network.finish", 1e3),
        ("workloads.generate_ms", "workloads.generate", 1e3),
    ] {
        res.set(metric, span_median_s(&rec, &reps, span) * scale);
    }
    if w == SimWorkload::ProbesOn {
        let p = &out.probes;
        res.set("metrics.samples", p.metrics_samples as f64);
        res.set("metrics.render_us", p.metrics_render_us);
        res.set("metrics.encode_jsonl_ms", p.metrics_encode_jsonl_ms);
        res.set("trace.events", p.trace_events as f64);
        res.set("checkpoint.count", p.checkpoints_written as f64);
    } else {
        // The direct timers, on this workload's own topology and at its
        // own queue depth; probes_on shares fct_xpass's and has run long
        // enough already.
        res.set(
            "event.hold_ns",
            api::event_hold_ns(out.peak_queue_len as usize, seed),
        );
        res.set("topology.route_lookup_ns", api::route_lookup_ns(kind, seed));
        res.set("timers.arm_fire_ns", api::timers_arm_fire_ns(kind, seed));
        if kind.is_xpass() {
            res.set("core.feedback_update_ns", api::feedback_update_ns());
            res.set("core.netcalc_us", api::netcalc_us());
        }
    }
    if w == SimWorkload::FctXpass {
        let (serial, parallel) = api::parallel_jobs2([pinned, pinned + 1]);
        res.set("parallel.jobs2_speedup", serial / parallel);
    }

    let trace_file = out_dir.join(format!("trace-{}.json", w.name()));
    if let Err(e) = std::fs::write(&trace_file, trace::to_json(w.name(), rec.spans())) {
        res.check(
            "trace_file_written",
            false,
            format!("{}: {e}", trace_file.display()),
        );
    }
    let _ = std::fs::remove_dir_all(&tmp);
    res
}
