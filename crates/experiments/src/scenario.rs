//! Declarative scenario files — JSON descriptions of a full simulation
//! (topology, schemes, workload, fault plan, invariants, measurement)
//! executed through the same [`Experiment`](crate::Experiment) interface as
//! the built-in paper reproductions: `xpass-repro run <file.json>`.
//!
//! Schema `xpass-scenario/v1` (field reference in `EXPERIMENTS.md`). The
//! committed `examples/scenarios/parking_lot.json` reproduces Fig 10
//! byte-for-byte; `examples/scenarios/fat_tree_shuffle_faults.json` shows a
//! configuration no built-in experiment expresses (DCTCP shuffle on a
//! fat tree with a core cable failing mid-run).
//!
//! A scenario selects:
//!
//! * `topology` — `dumbbell`, `chain`, `star`, `fat_tree`,
//!   `eval_fat_tree`, or `three_tier` (generalized Clos with `pods`,
//!   `aggs_per_pod`, `tors_per_pod`, `hosts_per_tor`, `cores`), with
//!   dimensions; one numeric dimension may be the string `"$sweep"` to
//!   range over `sweep.values` (for `three_tier`: one of `pods`,
//!   `tors_per_pod`, or `hosts_per_tor`).
//! * `series` — one labelled congestion-control scheme per table row
//!   (`xpass` with a `profile`, `dctcp`, `rcp`, `hull`, `dx`, `cubic`,
//!   `reno`, `naive_credit`, `ideal`).
//! * `workload` — `parking_lot`, `permutation`, `incast`, `shuffle`, or
//!   `poisson` (a Table-2 workload at a target load).
//! * `faults` — optional timed fault events resolved against the topology
//!   (`cable_down`/`cable_up`/`link_down`/`link_up`/`set_loss`/
//!   `host_pause`/`host_resume`), **or** a generated chaos schedule:
//!   `{"$chaos": {"seed": N, "intensity": X}}` samples a seeded random
//!   fault plan ([`chaos::generate`](crate::chaos::generate)) against each
//!   resolved topology, with every episode healing inside the measure
//!   horizon.
//! * `invariants` — optional monitors (`data_queue_bound_bytes`,
//!   `zero_data_loss`) installed into every run.
//! * `measure` — `min_link_utilization` (requires a swept chain; renders
//!   the Fig 10 table shape) or `fct` (flow-completion statistics per
//!   series).
//!
//! Every scenario is fully validated at load time — each sweep-resolved
//! topology is built and every fault reference resolved — so execution
//! cannot fail halfway through a run.

use crate::chaos::ChaosSpec;
use crate::fig10_parking_lot::min_chain_utilization;
use crate::harness::{fmt_secs, text_table, FctBuckets, Scheme};
use std::fmt;
use std::path::Path;
use xpass_net::faults::FaultPlan;
use xpass_net::health::InvariantSpec;
use xpass_net::ids::{HostId, NodeId, SwitchId};
use xpass_net::network::Network;
use xpass_net::topology::Topology;
use xpass_sim::json::Json;
use xpass_sim::time::{Dur, SimTime};
use xpass_sim::trace::TraceSink;
use xpass_workloads::{
    add_all, incast, parking_lot, permutation, shuffle, FlowSpec, PoissonWorkload, Workload,
};

/// The schema tag every scenario file must carry.
pub const SCHEMA: &str = "xpass-scenario/v1";

/// Why a scenario file failed to load or validate.
#[derive(Debug)]
pub struct ScenarioError {
    msg: String,
}

impl ScenarioError {
    fn new(msg: impl Into<String>) -> ScenarioError {
        ScenarioError { msg: msg.into() }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for ScenarioError {}

// ---------------------------------------------------------------- parsing

/// Compact rendering of an offending JSON value for error messages, so a
/// type mismatch reports what the file actually said (`faults[2].at_ms:
/// must be a number, got "late"`). Long values are truncated — the path
/// is the locator, the value is just a hint.
fn got(v: &Json) -> String {
    let s = v.to_string();
    match s.char_indices().nth(40) {
        Some((i, _)) => format!("{}…", &s[..i]),
        None => s,
    }
}

fn req<'a>(j: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, ScenarioError> {
    j.get(key)
        .ok_or_else(|| ScenarioError::new(format!("{ctx}.{key}: missing required key")))
}

fn req_str<'a>(j: &'a Json, key: &str, ctx: &str) -> Result<&'a str, ScenarioError> {
    let v = req(j, key, ctx)?;
    v.as_str()
        .ok_or_else(|| ScenarioError::new(format!("{ctx}.{key}: must be a string, got {}", got(v))))
}

fn req_u64(j: &Json, key: &str, ctx: &str) -> Result<u64, ScenarioError> {
    let v = req(j, key, ctx)?;
    v.as_u64().ok_or_else(|| {
        ScenarioError::new(format!(
            "{ctx}.{key}: must be a non-negative integer, got {}",
            got(v)
        ))
    })
}

fn req_f64(j: &Json, key: &str, ctx: &str) -> Result<f64, ScenarioError> {
    let v = req(j, key, ctx)?;
    v.as_f64()
        .ok_or_else(|| ScenarioError::new(format!("{ctx}.{key}: must be a number, got {}", got(v))))
}

fn opt_u64(j: &Json, key: &str, ctx: &str) -> Result<Option<u64>, ScenarioError> {
    match j.get(key) {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            ScenarioError::new(format!(
                "{ctx}.{key}: must be a non-negative integer, got {}",
                got(v)
            ))
        }),
    }
}

/// `key` as a whole number of `unit`s (`Dur::checked_ms` or
/// `Dur::checked_us`), refused when its picoseconds overflow the clock.
fn req_dur(
    j: &Json,
    key: &str,
    ctx: &str,
    unit: fn(u64) -> Option<Dur>,
) -> Result<Dur, ScenarioError> {
    let n = req_u64(j, key, ctx)?;
    unit(n).ok_or_else(|| {
        ScenarioError::new(format!(
            "{ctx}.{key}: {n} overflows the 64-bit picosecond clock"
        ))
    })
}

fn opt_bool(j: &Json, key: &str, ctx: &str) -> Result<bool, ScenarioError> {
    match j.get(key) {
        None => Ok(false),
        Some(v) => v.as_bool().ok_or_else(|| {
            ScenarioError::new(format!("{ctx}.{key}: must be a boolean, got {}", got(v)))
        }),
    }
}

/// A topology dimension: a fixed integer, or the string `"$sweep"`.
#[derive(Clone, Copy, Debug)]
enum Dim {
    Fixed(u64),
    Sweep,
}

impl Dim {
    fn resolve(self, sweep: Option<u64>) -> u64 {
        match self {
            Dim::Fixed(v) => v,
            Dim::Sweep => sweep.expect("validated: sweep value present"),
        }
    }

    fn is_sweep(self) -> bool {
        matches!(self, Dim::Sweep)
    }
}

fn parse_dim(j: &Json, key: &str, ctx: &str) -> Result<Dim, ScenarioError> {
    let v = req(j, key, ctx)?;
    if let Some(n) = v.as_u64() {
        return Ok(Dim::Fixed(n));
    }
    if v.as_str() == Some("$sweep") {
        return Ok(Dim::Sweep);
    }
    Err(ScenarioError::new(format!(
        "{ctx}.{key}: must be an integer or the string \"$sweep\", got {}",
        got(v)
    )))
}

#[derive(Clone, Copy, Debug)]
enum TopoSpec {
    Dumbbell {
        pairs: Dim,
        prop: Dur,
    },
    Chain {
        bottlenecks: Dim,
        hosts_per_switch: u64,
        prop: Dur,
    },
    Star {
        hosts: Dim,
        prop: Dur,
    },
    FatTree {
        k: u64,
        prop: Dur,
    },
    EvalFatTree,
    ThreeTier {
        pods: Dim,
        aggs_per_pod: u64,
        tors_per_pod: Dim,
        hosts_per_tor: Dim,
        cores: u64,
        prop: Dur,
    },
}

impl TopoSpec {
    fn uses_sweep(&self) -> bool {
        match self {
            TopoSpec::Dumbbell { pairs, .. } => pairs.is_sweep(),
            TopoSpec::Chain { bottlenecks, .. } => bottlenecks.is_sweep(),
            TopoSpec::Star { hosts, .. } => hosts.is_sweep(),
            TopoSpec::FatTree { .. } | TopoSpec::EvalFatTree => false,
            TopoSpec::ThreeTier {
                pods,
                tors_per_pod,
                hosts_per_tor,
                ..
            } => pods.is_sweep() || tors_per_pod.is_sweep() || hosts_per_tor.is_sweep(),
        }
    }

    /// Bottleneck-link count when this is a chain, for the given sweep value.
    fn chain_bottlenecks(&self, sweep: Option<u64>) -> Option<u64> {
        match self {
            TopoSpec::Chain { bottlenecks, .. } => Some(bottlenecks.resolve(sweep)),
            _ => None,
        }
    }

    fn build(&self, link_bps: u64, sweep: Option<u64>) -> Topology {
        match *self {
            TopoSpec::Dumbbell { pairs, prop } => {
                Topology::dumbbell(pairs.resolve(sweep) as usize, link_bps, prop)
            }
            TopoSpec::Chain {
                bottlenecks,
                hosts_per_switch,
                prop,
            } => Topology::chain(
                bottlenecks.resolve(sweep) as usize + 1,
                hosts_per_switch as usize,
                link_bps,
                prop,
            ),
            TopoSpec::Star { hosts, prop } => {
                Topology::star(hosts.resolve(sweep) as usize, link_bps, prop)
            }
            TopoSpec::FatTree { k, prop } => {
                Topology::fat_tree(k as usize, link_bps, link_bps, prop)
            }
            TopoSpec::EvalFatTree => Topology::eval_fat_tree(link_bps),
            TopoSpec::ThreeTier {
                pods,
                aggs_per_pod,
                tors_per_pod,
                hosts_per_tor,
                cores,
                prop,
            } => Topology::three_tier(
                pods.resolve(sweep) as usize,
                aggs_per_pod as usize,
                tors_per_pod.resolve(sweep) as usize,
                hosts_per_tor.resolve(sweep) as usize,
                cores as usize,
                link_bps,
                link_bps,
                link_bps,
                prop,
            ),
        }
    }
}

fn parse_topology(j: &Json) -> Result<TopoSpec, ScenarioError> {
    let ctx = "topology";
    let prop = match j.get("prop_us") {
        Some(_) => req_dur(j, "prop_us", ctx, Dur::checked_us)?,
        None => Dur::us(1),
    };
    match req_str(j, "kind", ctx)? {
        "dumbbell" => Ok(TopoSpec::Dumbbell {
            pairs: parse_dim(j, "pairs", ctx)?,
            prop,
        }),
        "chain" => Ok(TopoSpec::Chain {
            bottlenecks: parse_dim(j, "bottlenecks", ctx)?,
            hosts_per_switch: opt_u64(j, "hosts_per_switch", ctx)?.unwrap_or(2),
            prop,
        }),
        "star" => Ok(TopoSpec::Star {
            hosts: parse_dim(j, "hosts", ctx)?,
            prop,
        }),
        "fat_tree" => {
            let k = req_u64(j, "k", ctx)?;
            if k < 2 || k % 2 != 0 {
                return Err(ScenarioError::new(format!(
                    "{ctx}: fat_tree requires an even k >= 2, got {k}"
                )));
            }
            Ok(TopoSpec::FatTree { k, prop })
        }
        "eval_fat_tree" => Ok(TopoSpec::EvalFatTree),
        "three_tier" => {
            let pods = parse_dim(j, "pods", ctx)?;
            let tors_per_pod = parse_dim(j, "tors_per_pod", ctx)?;
            let hosts_per_tor = parse_dim(j, "hosts_per_tor", ctx)?;
            let n_sweeps = [pods, tors_per_pod, hosts_per_tor]
                .iter()
                .filter(|d| d.is_sweep())
                .count();
            if n_sweeps > 1 {
                return Err(ScenarioError::new(format!(
                    "{ctx}: at most one of pods|tors_per_pod|hosts_per_tor \
                     may be \"$sweep\", got {n_sweeps}"
                )));
            }
            let aggs_per_pod = req_u64(j, "aggs_per_pod", ctx)?;
            let cores = req_u64(j, "cores", ctx)?;
            if aggs_per_pod == 0 {
                return Err(ScenarioError::new(format!(
                    "{ctx}: three_tier requires aggs_per_pod >= 1, got 0"
                )));
            }
            if cores == 0 || cores % aggs_per_pod != 0 {
                return Err(ScenarioError::new(format!(
                    "{ctx}: three_tier cores ({cores}) must be a positive \
                     multiple of aggs_per_pod ({aggs_per_pod})"
                )));
            }
            if let Dim::Fixed(0) = pods {
                return Err(ScenarioError::new(format!(
                    "{ctx}: three_tier requires pods >= 1, got 0"
                )));
            }
            if let Dim::Fixed(0) = tors_per_pod {
                return Err(ScenarioError::new(format!(
                    "{ctx}: three_tier requires tors_per_pod >= 1, got 0"
                )));
            }
            if let Dim::Fixed(0) = hosts_per_tor {
                return Err(ScenarioError::new(format!(
                    "{ctx}: three_tier requires hosts_per_tor >= 1, got 0"
                )));
            }
            Ok(TopoSpec::ThreeTier {
                pods,
                aggs_per_pod,
                tors_per_pod,
                hosts_per_tor,
                cores,
                prop,
            })
        }
        other => Err(ScenarioError::new(format!(
            "{ctx}: unknown kind '{other}' \
             (expected dumbbell|chain|star|fat_tree|eval_fat_tree|three_tier)"
        ))),
    }
}

fn parse_scheme(j: &Json, ctx: &str) -> Result<Scheme, ScenarioError> {
    match req_str(j, "kind", ctx)? {
        "xpass" => match j.get("profile").and_then(Json::as_str).unwrap_or("default") {
            "default" => Ok(Scheme::XPass(expresspass::XPassConfig::default())),
            "aggressive" => Ok(Scheme::XPass(expresspass::XPassConfig::aggressive())),
            other => Err(ScenarioError::new(format!(
                "{ctx}: unknown xpass profile '{other}' (expected default|aggressive)"
            ))),
        },
        "dctcp" => Ok(Scheme::Dctcp),
        "rcp" => Ok(Scheme::Rcp),
        "hull" => Ok(Scheme::Hull),
        "dx" => Ok(Scheme::Dx),
        "cubic" => Ok(Scheme::Cubic),
        "reno" => Ok(Scheme::Reno),
        "naive_credit" => Ok(Scheme::NaiveCredit),
        "ideal" => Ok(Scheme::Ideal),
        other => Err(ScenarioError::new(format!(
            "{ctx}: unknown scheme kind '{other}' \
             (expected xpass|dctcp|rcp|hull|dx|cubic|reno|naive_credit|ideal)"
        ))),
    }
}

#[derive(Clone, Debug)]
struct SeriesSpec {
    label: String,
    scheme: Scheme,
}

#[derive(Clone, Copy, Debug)]
enum WorkloadSpec {
    ParkingLot {
        bytes: Option<u64>,
    },
    Permutation {
        bytes: u64,
    },
    Incast {
        bytes: u64,
    },
    Shuffle {
        tasks_per_host: u64,
        bytes_per_pair: u64,
    },
    Poisson {
        workload: Workload,
        load: f64,
        n_flows: u64,
    },
    /// No pre-generated flows: arrivals come from the streaming-ingest
    /// source (journal replay and/or the live `/ingest` queue).
    Stream,
}

fn parse_workload(j: &Json) -> Result<WorkloadSpec, ScenarioError> {
    let ctx = "workload";
    if j.get("$stream").is_some() {
        if j.get("$stream").and_then(Json::as_bool) != Some(true) {
            return Err(ScenarioError::new(format!(
                "{ctx}: '$stream' must be true when present"
            )));
        }
        return Ok(WorkloadSpec::Stream);
    }
    match req_str(j, "kind", ctx)? {
        "parking_lot" => Ok(WorkloadSpec::ParkingLot {
            bytes: opt_u64(j, "bytes", ctx)?,
        }),
        "permutation" => Ok(WorkloadSpec::Permutation {
            bytes: req_u64(j, "bytes", ctx)?,
        }),
        "incast" => Ok(WorkloadSpec::Incast {
            bytes: req_u64(j, "bytes", ctx)?,
        }),
        "shuffle" => Ok(WorkloadSpec::Shuffle {
            tasks_per_host: req_u64(j, "tasks_per_host", ctx)?,
            bytes_per_pair: req_u64(j, "bytes_per_pair", ctx)?,
        }),
        "poisson" => {
            let workload = match req_str(j, "workload", ctx)? {
                "web_server" => Workload::WebServer,
                "web_search" => Workload::WebSearch,
                "cache_follower" => Workload::CacheFollower,
                "data_mining" => Workload::DataMining,
                other => {
                    return Err(ScenarioError::new(format!(
                        "{ctx}: unknown workload '{other}' \
                         (expected web_server|web_search|cache_follower|data_mining)"
                    )))
                }
            };
            let load = req_f64(j, "load", ctx)?;
            if !(load > 0.0 && load <= 1.0) {
                return Err(ScenarioError::new(format!(
                    "{ctx}: 'load' must be in (0, 1], got {load}"
                )));
            }
            let n_flows = req_u64(j, "n_flows", ctx)?;
            if n_flows == 0 {
                return Err(ScenarioError::new(format!("{ctx}: 'n_flows' must be >= 1")));
            }
            Ok(WorkloadSpec::Poisson {
                workload,
                load,
                n_flows,
            })
        }
        other => Err(ScenarioError::new(format!(
            "{ctx}: unknown kind '{other}' \
             (expected parking_lot|permutation|incast|shuffle|poisson)"
        ))),
    }
}

impl WorkloadSpec {
    fn generate(
        &self,
        topo: &Topology,
        link_bps: u64,
        seed: u64,
        chain_n: Option<u64>,
    ) -> Vec<FlowSpec> {
        match *self {
            WorkloadSpec::ParkingLot { bytes } => {
                let n = chain_n.expect("validated: parking_lot requires a chain topology");
                parking_lot(n as usize, bytes.unwrap_or((link_bps / 8) * 2))
            }
            WorkloadSpec::Permutation { bytes } => permutation(topo.n_hosts, bytes, SimTime::ZERO),
            WorkloadSpec::Incast { bytes } => {
                let senders: Vec<HostId> = (0..topo.n_hosts as u32).map(HostId).collect();
                incast(&senders, HostId(0), bytes, SimTime::ZERO)
            }
            WorkloadSpec::Shuffle {
                tasks_per_host,
                bytes_per_pair,
            } => {
                let mut rng = xpass_sim::rng::Rng::new(seed);
                shuffle(
                    topo.n_hosts,
                    tasks_per_host as usize,
                    bytes_per_pair,
                    &mut rng,
                )
            }
            WorkloadSpec::Poisson {
                workload,
                load,
                n_flows,
            } => PoissonWorkload::new(workload.dist(), load, n_flows as usize, seed).generate(topo),
            WorkloadSpec::Stream => Vec::new(),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum NodeRef {
    Switch(u64),
    Host(u64),
}

impl NodeRef {
    fn to_node(self) -> NodeId {
        match self {
            NodeRef::Switch(i) => NodeId::Switch(SwitchId(i as u32)),
            NodeRef::Host(i) => NodeId::Host(HostId(i as u32)),
        }
    }
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeRef::Switch(i) => write!(f, "switch {i}"),
            NodeRef::Host(i) => write!(f, "host {i}"),
        }
    }
}

fn parse_node_ref(j: &Json, key: &str, ctx: &str) -> Result<NodeRef, ScenarioError> {
    let v = req(j, key, ctx)?;
    if let Some(i) = v.get("switch").and_then(Json::as_u64) {
        return Ok(NodeRef::Switch(i));
    }
    if let Some(i) = v.get("host").and_then(Json::as_u64) {
        return Ok(NodeRef::Host(i));
    }
    Err(ScenarioError::new(format!(
        "{ctx}.{key}: must be an object {{\"switch\": N}} or {{\"host\": N}}, got {}",
        got(v)
    )))
}

#[derive(Clone, Copy, Debug)]
enum FaultAction {
    CableDown {
        a: NodeRef,
        b: NodeRef,
    },
    CableUp {
        a: NodeRef,
        b: NodeRef,
    },
    LinkDown {
        from: NodeRef,
        to: NodeRef,
    },
    LinkUp {
        from: NodeRef,
        to: NodeRef,
    },
    SetLoss {
        from: NodeRef,
        to: NodeRef,
        data: f64,
        credit: f64,
    },
    HostPause {
        host: u64,
    },
    HostResume {
        host: u64,
    },
}

#[derive(Clone, Copy, Debug)]
struct FaultSpec {
    at: Dur,
    action: FaultAction,
}

/// The scenario's fault schedule: an explicit event list, or a `$chaos`
/// generator spec sampled per resolved topology at build time.
#[derive(Clone, Debug)]
enum FaultsSpec {
    List(Vec<FaultSpec>),
    Chaos(ChaosSpec),
}

fn parse_fault(j: &Json, idx: usize) -> Result<FaultSpec, ScenarioError> {
    let ctx = format!("faults[{idx}]");
    let ctx = ctx.as_str();
    let at_ms = req_f64(j, "at_ms", ctx)?;
    if !(at_ms >= 0.0 && at_ms.is_finite()) {
        return Err(ScenarioError::new(format!(
            "{ctx}.at_ms: must be a finite non-negative number, got {at_ms}"
        )));
    }
    let at = Dur::from_secs_f64(at_ms * 1e-3);
    let host = |j: &Json| -> Result<u64, ScenarioError> { req_u64(j, "host", ctx) };
    let action = match req_str(j, "action", ctx)? {
        "cable_down" => FaultAction::CableDown {
            a: parse_node_ref(j, "a", ctx)?,
            b: parse_node_ref(j, "b", ctx)?,
        },
        "cable_up" => FaultAction::CableUp {
            a: parse_node_ref(j, "a", ctx)?,
            b: parse_node_ref(j, "b", ctx)?,
        },
        "link_down" => FaultAction::LinkDown {
            from: parse_node_ref(j, "from", ctx)?,
            to: parse_node_ref(j, "to", ctx)?,
        },
        "link_up" => FaultAction::LinkUp {
            from: parse_node_ref(j, "from", ctx)?,
            to: parse_node_ref(j, "to", ctx)?,
        },
        "set_loss" => {
            let data = req_f64(j, "data", ctx)?;
            let credit = req_f64(j, "credit", ctx)?;
            for (name, p) in [("data", data), ("credit", credit)] {
                if !(0.0..=1.0).contains(&p) {
                    return Err(ScenarioError::new(format!(
                        "{ctx}.{name}: must be a probability in [0, 1], got {p}"
                    )));
                }
            }
            FaultAction::SetLoss {
                from: parse_node_ref(j, "from", ctx)?,
                to: parse_node_ref(j, "to", ctx)?,
                data,
                credit,
            }
        }
        "host_pause" => FaultAction::HostPause { host: host(j)? },
        "host_resume" => FaultAction::HostResume { host: host(j)? },
        other => {
            return Err(ScenarioError::new(format!(
                "{ctx}: unknown action '{other}' (expected cable_down|cable_up|\
                 link_down|link_up|set_loss|host_pause|host_resume)"
            )))
        }
    };
    Ok(FaultSpec { at, action })
}

/// Resolve a directed link between two node refs, with a helpful error.
fn resolve_dlink(
    topo: &Topology,
    from: NodeRef,
    to: NodeRef,
    ctx: &str,
) -> Result<xpass_net::ids::DLinkId, ScenarioError> {
    topo.dlink_between(from.to_node(), to.to_node())
        .ok_or_else(|| {
            ScenarioError::new(format!(
                "{ctx}: no link from {from} to {to} in the '{}' topology",
                topo.name
            ))
        })
}

fn build_fault_plan(topo: &Topology, faults: &[FaultSpec]) -> Result<FaultPlan, ScenarioError> {
    let mut plan = FaultPlan::new();
    for (i, f) in faults.iter().enumerate() {
        let ctx = format!("faults[{i}]");
        let ctx = ctx.as_str();
        let at = SimTime::ZERO + f.at;
        plan = match f.action {
            FaultAction::CableDown { a, b } => plan.cable_down(
                at,
                resolve_dlink(topo, a, b, ctx)?,
                resolve_dlink(topo, b, a, ctx)?,
            ),
            FaultAction::CableUp { a, b } => plan.cable_up(
                at,
                resolve_dlink(topo, a, b, ctx)?,
                resolve_dlink(topo, b, a, ctx)?,
            ),
            FaultAction::LinkDown { from, to } => {
                plan.link_down(at, resolve_dlink(topo, from, to, ctx)?)
            }
            FaultAction::LinkUp { from, to } => {
                plan.link_up(at, resolve_dlink(topo, from, to, ctx)?)
            }
            FaultAction::SetLoss {
                from,
                to,
                data,
                credit,
            } => plan.set_loss(at, resolve_dlink(topo, from, to, ctx)?, data, credit),
            FaultAction::HostPause { host } => {
                check_host(topo, host, ctx)?;
                plan.host_pause(at, HostId(host as u32))
            }
            FaultAction::HostResume { host } => {
                check_host(topo, host, ctx)?;
                plan.host_resume(at, HostId(host as u32))
            }
        };
    }
    Ok(plan)
}

fn check_host(topo: &Topology, host: u64, ctx: &str) -> Result<(), ScenarioError> {
    if (host as usize) < topo.n_hosts {
        Ok(())
    } else {
        Err(ScenarioError::new(format!(
            "{ctx}: host {host} out of range (topology '{}' has {} hosts)",
            topo.name, topo.n_hosts
        )))
    }
}

#[derive(Clone, Copy, Debug)]
enum MeasureSpec {
    MinLinkUtilization { warmup: Dur, window: Dur },
    Fct { cap: Dur },
}

fn parse_measure(j: &Json) -> Result<MeasureSpec, ScenarioError> {
    let ctx = "measure";
    match req_str(j, "kind", ctx)? {
        "min_link_utilization" => Ok(MeasureSpec::MinLinkUtilization {
            warmup: req_dur(j, "warmup_ms", ctx, Dur::checked_ms)?,
            window: req_dur(j, "window_ms", ctx, Dur::checked_ms)?,
        }),
        "fct" => Ok(MeasureSpec::Fct {
            cap: req_dur(j, "cap_ms", ctx, Dur::checked_ms)?,
        }),
        other => Err(ScenarioError::new(format!(
            "{ctx}: unknown kind '{other}' (expected min_link_utilization|fct)"
        ))),
    }
}

#[derive(Clone, Debug)]
struct Sweep {
    label: String,
    values: Vec<u64>,
}

#[derive(Clone, Debug)]
struct Scenario {
    name: String,
    title: String,
    seed: u64,
    link_bps: u64,
    topo: TopoSpec,
    sweep: Option<Sweep>,
    series: Vec<SeriesSpec>,
    workload: WorkloadSpec,
    faults: FaultsSpec,
    invariants: Option<InvariantSpec>,
    measure: MeasureSpec,
}

/// A loaded, validated scenario, runnable through the
/// [`Experiment`](crate::Experiment) trait like any built-in experiment.
#[derive(Debug)]
pub struct ScenarioExperiment {
    scenario: Scenario,
    seed_override: Option<u64>,
}

/// Load and validate a scenario file.
pub fn load(path: &Path) -> Result<ScenarioExperiment, ScenarioError> {
    let src = std::fs::read_to_string(path).map_err(|e| {
        ScenarioError::new(format!("cannot read scenario file {}: {e}", path.display()))
    })?;
    parse_str(&src).map_err(|e| ScenarioError::new(format!("{}: {e}", path.display())))
}

/// Parse and validate a scenario from a JSON string.
pub fn parse_str(src: &str) -> Result<ScenarioExperiment, ScenarioError> {
    let j = xpass_sim::json::parse(src)
        .map_err(|e| ScenarioError::new(format!("invalid JSON: {e}")))?;
    let ctx = "scenario";

    let schema = req_str(&j, "schema", ctx)?;
    if schema != SCHEMA {
        return Err(ScenarioError::new(format!(
            "{ctx}: unsupported schema '{schema}' (this build understands '{SCHEMA}')"
        )));
    }
    let name = req_str(&j, "name", ctx)?.to_string();
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Err(ScenarioError::new(format!(
            "{ctx}: 'name' must be non-empty and use only [A-Za-z0-9_-] \
             (it names the --json record file), got '{name}'"
        )));
    }
    let title = req_str(&j, "title", ctx)?.to_string();
    let seed = req_u64(&j, "seed", ctx)?;
    let link_bps = req_u64(&j, "link_bps", ctx)?;
    if link_bps == 0 {
        return Err(ScenarioError::new(format!("{ctx}: 'link_bps' must be > 0")));
    }

    let topo = parse_topology(req(&j, "topology", ctx)?)?;

    let sweep = match j.get("sweep") {
        None => None,
        Some(s) => {
            let label = req_str(s, "label", "sweep")?.to_string();
            let vals = req(s, "values", "sweep")?
                .as_array()
                .ok_or_else(|| ScenarioError::new("sweep: 'values' must be an array"))?;
            let values = vals
                .iter()
                .map(|v| {
                    v.as_u64().ok_or_else(|| {
                        ScenarioError::new("sweep: 'values' must be non-negative integers")
                    })
                })
                .collect::<Result<Vec<u64>, _>>()?;
            if values.is_empty() {
                return Err(ScenarioError::new("sweep: 'values' must be non-empty"));
            }
            Some(Sweep { label, values })
        }
    };

    let series_j = req(&j, "series", ctx)?
        .as_array()
        .ok_or_else(|| ScenarioError::new(format!("{ctx}: 'series' must be an array")))?;
    if series_j.is_empty() {
        return Err(ScenarioError::new(format!(
            "{ctx}: 'series' must list at least one scheme"
        )));
    }
    let series = series_j
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let ctx = format!("series[{i}]");
            Ok(SeriesSpec {
                label: req_str(s, "label", &ctx)?.to_string(),
                scheme: parse_scheme(req(s, "scheme", &ctx)?, &ctx)?,
            })
        })
        .collect::<Result<Vec<SeriesSpec>, ScenarioError>>()?;

    let workload = parse_workload(req(&j, "workload", ctx)?)?;

    let faults = match j.get("faults") {
        None => FaultsSpec::List(Vec::new()),
        Some(f) => {
            if let Some(c) = f.get("$chaos") {
                let ctx = "faults.$chaos";
                let seed = req_u64(c, "seed", ctx)?;
                let intensity = req_f64(c, "intensity", ctx)?;
                if !(0.0..=1.0).contains(&intensity) {
                    return Err(ScenarioError::new(format!(
                        "{ctx}.intensity: must be in [0, 1], got {intensity}"
                    )));
                }
                FaultsSpec::Chaos(ChaosSpec { seed, intensity })
            } else {
                let list = f
                    .as_array()
                    .ok_or_else(|| {
                        ScenarioError::new(format!(
                            "{ctx}.faults: must be an array of fault events or a \
                             {{\"$chaos\": …}} object, got {}",
                            got(f)
                        ))
                    })?
                    .iter()
                    .enumerate()
                    .map(|(i, f)| parse_fault(f, i))
                    .collect::<Result<Vec<FaultSpec>, _>>()?;
                FaultsSpec::List(list)
            }
        }
    };

    let invariants = match j.get("invariants") {
        None => None,
        Some(inv) => Some(InvariantSpec {
            data_queue_bound_bytes: opt_u64(inv, "data_queue_bound_bytes", "invariants")?,
            zero_data_loss: opt_bool(inv, "zero_data_loss", "invariants")?,
        }),
    };

    let measure = parse_measure(req(&j, "measure", ctx)?)?;

    let scenario = Scenario {
        name,
        title,
        seed,
        link_bps,
        topo,
        sweep,
        series,
        workload,
        faults,
        invariants,
        measure,
    };
    validate(&scenario)?;
    Ok(ScenarioExperiment {
        scenario,
        seed_override: None,
    })
}

/// Cross-field validation: build every sweep-resolved topology and resolve
/// every fault reference, so [`ScenarioExperiment::run`] cannot fail.
fn validate(s: &Scenario) -> Result<(), ScenarioError> {
    match s.measure {
        MeasureSpec::MinLinkUtilization { .. } => {
            if s.sweep.is_none() || !s.topo.uses_sweep() {
                return Err(ScenarioError::new(
                    "measure min_link_utilization requires a 'sweep' and a topology \
                     dimension set to \"$sweep\"",
                ));
            }
            if !matches!(s.topo, TopoSpec::Chain { .. }) {
                return Err(ScenarioError::new(
                    "measure min_link_utilization requires a 'chain' topology \
                     (it reads the switch-to-switch bottleneck links)",
                ));
            }
        }
        MeasureSpec::Fct { .. } => {
            if s.sweep.is_some() && !s.topo.uses_sweep() {
                return Err(ScenarioError::new(
                    "a 'sweep' is declared but no topology dimension is \"$sweep\"",
                ));
            }
            if s.topo.uses_sweep() && s.sweep.is_none() {
                return Err(ScenarioError::new(
                    "topology references \"$sweep\" but the scenario declares no 'sweep'",
                ));
            }
        }
    }
    if matches!(s.workload, WorkloadSpec::ParkingLot { .. })
        && !matches!(s.topo, TopoSpec::Chain { .. })
    {
        return Err(ScenarioError::new(
            "workload parking_lot requires a 'chain' topology",
        ));
    }
    if matches!(s.workload, WorkloadSpec::Stream) {
        if !matches!(s.measure, MeasureSpec::Fct { .. }) {
            return Err(ScenarioError::new(
                "workload $stream requires the 'fct' measure",
            ));
        }
        if s.sweep.is_some() {
            return Err(ScenarioError::new(
                "workload $stream cannot be combined with a 'sweep' \
                 (a stream drives exactly one run)",
            ));
        }
        if s.series.len() != 1 {
            return Err(ScenarioError::new(format!(
                "workload $stream requires exactly one series, got {}",
                s.series.len()
            )));
        }
    }
    let sweep_values: Vec<Option<u64>> = match &s.sweep {
        Some(sw) => sw.values.iter().map(|&v| Some(v)).collect(),
        None => vec![None],
    };
    for &sv in &sweep_values {
        if matches!(s.topo, TopoSpec::Chain { .. }) && s.topo.chain_bottlenecks(sv) == Some(0) {
            return Err(ScenarioError::new(
                "topology: chain 'bottlenecks' must be >= 1",
            ));
        }
        if let TopoSpec::ThreeTier {
            pods,
            tors_per_pod,
            hosts_per_tor,
            ..
        } = s.topo
        {
            for (key, dim) in [
                ("pods", pods),
                ("tors_per_pod", tors_per_pod),
                ("hosts_per_tor", hosts_per_tor),
            ] {
                if dim.resolve(sv) == 0 {
                    return Err(ScenarioError::new(format!(
                        "topology: three_tier '{key}' must be >= 1",
                    )));
                }
            }
        }
        let topo = s.topo.build(s.link_bps, sv);
        if topo.n_hosts < 2 {
            return Err(ScenarioError::new(format!(
                "topology '{}' has {} hosts; at least 2 are required",
                topo.name, topo.n_hosts
            )));
        }
        match &s.faults {
            FaultsSpec::List(list) => {
                build_fault_plan(&topo, list)?;
            }
            FaultsSpec::Chaos(spec) => {
                if s.chaos_horizon() == Dur::ZERO {
                    return Err(ScenarioError::new(
                        "faults.$chaos: requires a positive measure horizon \
                         (warmup_ms + window_ms, or cap_ms, must be > 0)",
                    ));
                }
                // Sampling is cheap and cannot reference missing links, but
                // run it here so execution stays infallible by construction.
                let _ = crate::chaos::generate(&topo, s.chaos_horizon(), spec);
            }
        }
    }
    Ok(())
}

// -------------------------------------------------------------- execution

impl Scenario {
    /// The window generated `$chaos` faults start and heal inside: the
    /// measured portion of the run (faults after it would never be
    /// observed).
    fn chaos_horizon(&self) -> Dur {
        match self.measure {
            MeasureSpec::MinLinkUtilization { warmup, window } => warmup + window,
            MeasureSpec::Fct { cap } => cap,
        }
    }

    /// Build, fault, monitor, and load one network; `sink` is threaded
    /// through for tracing.
    fn build_net(
        &self,
        scheme: Scheme,
        seed: u64,
        sweep: Option<u64>,
        sink: Option<Box<dyn TraceSink>>,
    ) -> (Network, Vec<FlowSpec>) {
        let topo = self.topo.build(self.link_bps, sweep);
        let specs = self.workload.generate(
            &topo,
            self.link_bps,
            seed,
            self.topo.chain_bottlenecks(sweep),
        );
        let mut net = scheme.build(topo, self.link_bps, seed);
        let plan = match &self.faults {
            FaultsSpec::List(list) => build_fault_plan(net.topo(), list)
                .expect("validated: fault refs resolve in every topology"),
            FaultsSpec::Chaos(spec) => {
                crate::chaos::generate(net.topo(), self.chaos_horizon(), spec)
            }
        };
        if !plan.is_empty() {
            net.install_fault_plan(plan);
        }
        if let Some(spec) = self.invariants {
            net.install_invariants(spec);
        }
        if let Some(sink) = sink {
            net.install_trace_sink(sink);
        }
        add_all(&mut net, &specs);
        (net, specs)
    }

    fn run_min_util(&self, seed: u64, mut sink: Option<Box<dyn TraceSink>>) -> (String, Json) {
        let sweep = self.sweep.as_ref().expect("validated: sweep present");
        let (warmup, window) = match self.measure {
            MeasureSpec::MinLinkUtilization { warmup, window } => (warmup, window),
            MeasureSpec::Fct { .. } => unreachable!(),
        };
        let mut headers = vec!["scheme".to_string()];
        for v in &sweep.values {
            headers.push(format!("{}={v}", sweep.label));
        }
        let mut rows = Vec::new();
        let mut series_json = Vec::new();
        for s in &self.series {
            let mut row = vec![s.label.clone()];
            let mut points = Vec::new();
            for &v in &sweep.values {
                let (mut net, _) = self.build_net(s.scheme, seed, Some(v), sink.take());
                let n = self
                    .topo
                    .chain_bottlenecks(Some(v))
                    .expect("validated: chain topology");
                let u = min_chain_utilization(&mut net, n as usize, self.link_bps, warmup, window);
                sink = net.take_trace_sink();
                row.push(format!("{:.1}%", u * 100.0));
                points.push(
                    Json::obj()
                        .with("value", Json::num_u64(v))
                        .with("min_utilization", Json::Num(u)),
                );
            }
            rows.push(row);
            series_json.push(
                Json::obj()
                    .with("label", Json::str(&s.label))
                    .with("scheme", Json::str(s.scheme.name()))
                    .with("points", Json::Arr(points)),
            );
        }
        drop(sink); // flush
        let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let text = format!("{}\n{}", self.title, text_table(&hdr_refs, &rows));
        let json = Json::obj()
            .with("sweep_label", Json::str(&sweep.label))
            .with("series", Json::Arr(series_json));
        (text, json)
    }

    fn run_fct(&self, seed: u64, mut sink: Option<Box<dyn TraceSink>>) -> (String, Json) {
        let cap = match self.measure {
            MeasureSpec::Fct { cap } => cap,
            MeasureSpec::MinLinkUtilization { .. } => unreachable!(),
        };
        let sweep_values: Vec<Option<u64>> = match &self.sweep {
            Some(sw) => sw.values.iter().map(|&v| Some(v)).collect(),
            None => vec![None],
        };
        let stream = matches!(self.workload, WorkloadSpec::Stream);
        let mut rows = Vec::new();
        let mut series_json = Vec::new();
        for s in &self.series {
            for &sv in &sweep_values {
                let (mut net, specs) = self.build_net(s.scheme, seed, sv, sink.take());
                let ingest_rep = if stream {
                    // Streaming drive: flows come from the ingest source
                    // (journal + live queue); a drive error is a panic so
                    // the supervisor's retry machinery catches it.
                    Some(
                        crate::service::drive(&mut net, &self.name, cap)
                            .unwrap_or_else(|e| panic!("stream drive failed: {e}")),
                    )
                } else {
                    let last_start = specs.iter().map(|f| f.start).max().unwrap_or(SimTime::ZERO);
                    net.run_until_done(last_start + cap);
                    None
                };
                net.finish_stats();
                let fct = FctBuckets::from_records(&net.flow_records());
                let mut overall = fct.overall();
                let counters = net.counters().clone();
                let row_label = match (sv, &self.sweep) {
                    (Some(v), Some(sw)) => format!("{} {}={v}", s.label, sw.label),
                    _ => s.label.clone(),
                };
                rows.push(vec![
                    row_label,
                    overall.count().to_string(),
                    fct.unfinished().to_string(),
                    fmt_secs(overall.median()),
                    fmt_secs(overall.p99()),
                    fmt_secs(overall.max()),
                    counters.data_dropped.to_string(),
                ]);
                let mut entry = Json::obj()
                    .with("label", Json::str(&s.label))
                    .with("scheme", Json::str(s.scheme.name()));
                if let (Some(v), Some(sw)) = (sv, &self.sweep) {
                    entry = entry
                        .with("sweep_label", Json::str(&sw.label))
                        .with("sweep_value", Json::num_u64(v));
                }
                // Stream records must be byte-identical across live vs
                // replay and across event schedulers, so they carry a
                // deterministic engine subset (no wall clock, no
                // scheduler name, no scheduler-dependent peak queue)
                // plus the ingest accounting.
                let engine_json = if stream {
                    let er = net.engine_report();
                    let mut by_kind = Json::obj();
                    for (name, n) in &er.events_by_kind {
                        by_kind.set(name, Json::num_u64(*n));
                    }
                    Json::obj()
                        .with("events_processed", Json::num_u64(er.events_processed))
                        .with("events_by_kind", by_kind)
                        .with("sim_secs", Json::Num(er.sim_secs))
                } else {
                    net.engine_report().to_json()
                };
                let mut entry = entry
                    .with("completed", Json::num_u64(overall.count() as u64))
                    .with("unfinished", Json::num_u64(fct.unfinished() as u64))
                    .with(
                        "fct",
                        Json::obj()
                            .with("p50_s", Json::Num(overall.median()))
                            .with("p99_s", Json::Num(overall.p99()))
                            .with("max_s", Json::Num(overall.max())),
                    )
                    .with(
                        "max_queue_bytes",
                        Json::num_u64(net.max_switch_queue_bytes()),
                    )
                    .with("counters", counters.to_json())
                    .with("engine", engine_json)
                    .with("health", net.health_report().to_json());
                if let Some(rep) = ingest_rep {
                    entry = entry.with(
                        "ingest",
                        Json::obj()
                            .with("admitted", Json::num_u64(rep.admitted))
                            .with("rejected", Json::num_u64(rep.rejected))
                            .with("groups", Json::num_u64(rep.groups))
                            .with("end_t_ps", Json::num_u64(rep.end.as_ps())),
                    );
                }
                series_json.push(entry);
                sink = net.take_trace_sink();
            }
        }
        drop(sink); // flush
        let text = format!(
            "{}\n{}",
            self.title,
            text_table(
                &["scheme", "flows", "unfin", "p50", "p99", "max", "drops"],
                &rows
            )
        );
        let json = Json::obj().with("series", Json::Arr(series_json));
        (text, json)
    }
}

impl crate::Experiment for ScenarioExperiment {
    fn name(&self) -> &str {
        &self.scenario.name
    }
    fn describe(&self) -> &str {
        &self.scenario.title
    }
    fn set_seed(&mut self, seed: u64) {
        self.seed_override = Some(seed);
    }
    fn traces(&self) -> bool {
        true
    }
    fn run(&self, trace: Option<Box<dyn TraceSink>>) -> crate::ExperimentOutput {
        let seed = self.seed_override.unwrap_or(self.scenario.seed);
        let (text, json) = match self.scenario.measure {
            MeasureSpec::MinLinkUtilization { .. } => self.scenario.run_min_util(seed, trace),
            MeasureSpec::Fct { .. } => self.scenario.run_fct(seed, trace),
        };
        crate::ExperimentOutput::new(text, json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Experiment;

    const MIN_UTIL: &str = r#"{
        "schema": "xpass-scenario/v1",
        "name": "parking_lot",
        "title": "Fig 10: min link utilization on the parking lot",
        "seed": 23,
        "link_bps": 10000000000,
        "topology": {"kind": "chain", "bottlenecks": "$sweep",
                     "hosts_per_switch": 2, "prop_us": 1},
        "sweep": {"label": "N", "values": [2]},
        "series": [
            {"label": "w/ feedback", "scheme": {"kind": "xpass", "profile": "aggressive"}},
            {"label": "naive", "scheme": {"kind": "naive_credit"}}
        ],
        "workload": {"kind": "parking_lot"},
        "measure": {"kind": "min_link_utilization", "warmup_ms": 4, "window_ms": 4}
    }"#;

    #[test]
    fn min_util_scenario_matches_fig10_row() {
        let exp = parse_str(MIN_UTIL).unwrap();
        assert_eq!(exp.name(), "parking_lot");
        let out = exp.run(None);
        // Same number as the Fig 10 module at N=2 / seed 23.
        let cfg = crate::fig10_parking_lot::Config {
            bottlenecks: vec![2],
            ..Default::default()
        };
        let fig10 = crate::fig10_parking_lot::run(&cfg);
        assert_eq!(out.text, fig10.to_string());
        let j = xpass_sim::json::parse(&out.json.to_string()).unwrap();
        let series = j.get("series").unwrap().as_array().unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(
            series[0].get("scheme").unwrap().as_str(),
            Some("ExpressPass")
        );
        let u = series[0].get("points").unwrap().as_array().unwrap()[0]
            .get("min_utilization")
            .unwrap()
            .as_f64()
            .unwrap();
        assert_eq!(u, fig10.series[0].points[0].min_utilization);
    }

    #[test]
    fn fct_scenario_with_fault_runs() {
        let src = r#"{
            "schema": "xpass-scenario/v1",
            "name": "star_incast",
            "title": "incast on a star with a host pause",
            "seed": 7,
            "link_bps": 10000000000,
            "topology": {"kind": "star", "hosts": 4, "prop_us": 1},
            "series": [
                {"label": "ExpressPass", "scheme": {"kind": "xpass"}},
                {"label": "DCTCP", "scheme": {"kind": "dctcp"}}
            ],
            "workload": {"kind": "incast", "bytes": 200000},
            "faults": [
                {"at_ms": 0.2, "action": "host_pause", "host": 1},
                {"at_ms": 0.5, "action": "host_resume", "host": 1}
            ],
            "invariants": {"zero_data_loss": false},
            "measure": {"kind": "fct", "cap_ms": 50}
        }"#;
        let exp = parse_str(src).unwrap();
        assert!(exp.traces());
        let out = exp.run(None);
        assert!(out.text.starts_with("incast on a star with a host pause\n"));
        let j = xpass_sim::json::parse(&out.json.to_string()).unwrap();
        let series = j.get("series").unwrap().as_array().unwrap();
        assert_eq!(series.len(), 2);
        for s in series {
            assert_eq!(s.get("unfinished").unwrap().as_u64(), Some(0));
            // The pause/resume pair was applied in every run.
            assert_eq!(
                s.get("counters")
                    .unwrap()
                    .get("faults_injected")
                    .unwrap()
                    .as_u64(),
                Some(2)
            );
        }
    }

    #[test]
    fn seed_override_changes_seeded_runs() {
        let mut exp = parse_str(MIN_UTIL).unwrap();
        exp.set_seed(99);
        // Runs, and still renders the same table shape.
        let out = exp.run(None);
        assert!(out.text.contains("N=2"));
    }

    const CHAOS_FCT: &str = r#"{
        "schema": "xpass-scenario/v1",
        "name": "chaos_dumbbell",
        "title": "chaos schedule on a dumbbell",
        "seed": 3,
        "link_bps": 10000000000,
        "topology": {"kind": "dumbbell", "pairs": 2, "prop_us": 1},
        "series": [{"label": "ExpressPass", "scheme": {"kind": "xpass", "profile": "aggressive"}}],
        "workload": {"kind": "permutation", "bytes": 6000000},
        "faults": {"$chaos": {"seed": 11, "intensity": 0.5}},
        "measure": {"kind": "fct", "cap_ms": 6}
    }"#;

    #[test]
    fn chaos_faults_generate_and_run() {
        let exp = parse_str(CHAOS_FCT).unwrap();
        let out = exp.run(None);
        let j = xpass_sim::json::parse(&out.json.to_string()).unwrap();
        let series = j.get("series").unwrap().as_array().unwrap();
        assert_eq!(series.len(), 1);
        // The generated schedule was actually installed and applied.
        let injected = series[0]
            .get("counters")
            .unwrap()
            .get("faults_injected")
            .unwrap()
            .as_u64()
            .unwrap();
        assert!(injected > 0, "chaos plan injected no faults");
        // Same file, same schedule: the plan is a pure function of the spec.
        // Counters capture every applied fault and delivered byte; the
        // engine report also carries wall-clock fields, so compare these.
        let again = parse_str(CHAOS_FCT).unwrap().run(None);
        let j2 = xpass_sim::json::parse(&again.json.to_string()).unwrap();
        let counters = |j: &Json| {
            j.get("series").unwrap().as_array().unwrap()[0]
                .get("counters")
                .unwrap()
                .to_string()
        };
        assert_eq!(counters(&j), counters(&j2));
    }

    #[test]
    fn helpful_errors() {
        let cases: &[(&str, &str)] = &[
            ("{", "invalid JSON"),
            (r#"{"schema": "nope/v1"}"#, "unsupported schema"),
            (
                r#"{"schema": "xpass-scenario/v1", "name": "a b"}"#,
                "'name' must be non-empty",
            ),
            (
                r#"{"schema": "xpass-scenario/v1", "name": "x", "title": "t",
                    "seed": true}"#,
                "scenario.seed: must be a non-negative integer, got true",
            ),
        ];
        for (src, want) in cases {
            let err = parse_str(src).unwrap_err().to_string();
            assert!(err.contains(want), "error {err:?} should mention {want:?}");
        }
        // Unresolvable fault link: hosts are not directly connected.
        let src = r#"{
            "schema": "xpass-scenario/v1",
            "name": "bad",
            "title": "t",
            "seed": 1,
            "link_bps": 1000000000,
            "topology": {"kind": "star", "hosts": 3},
            "series": [{"label": "x", "scheme": {"kind": "dctcp"}}],
            "workload": {"kind": "permutation", "bytes": 1000},
            "faults": [{"at_ms": 1, "action": "link_down",
                        "from": {"host": 0}, "to": {"host": 1}}],
            "measure": {"kind": "fct", "cap_ms": 10}
        }"#;
        let err = parse_str(src).unwrap_err().to_string();
        assert!(err.contains("no link from host 0 to host 1"), "{err}");
        // Sweep required for min_link_utilization.
        let src = r#"{
            "schema": "xpass-scenario/v1",
            "name": "bad2",
            "title": "t",
            "seed": 1,
            "link_bps": 1000000000,
            "topology": {"kind": "chain", "bottlenecks": 2},
            "series": [{"label": "x", "scheme": {"kind": "dctcp"}}],
            "workload": {"kind": "parking_lot"},
            "measure": {"kind": "min_link_utilization", "warmup_ms": 1, "window_ms": 1}
        }"#;
        let err = parse_str(src).unwrap_err().to_string();
        assert!(err.contains("requires a 'sweep'"), "{err}");
    }

    const THREE_TIER_SWEEP: &str = r#"{
        "schema": "xpass-scenario/v1",
        "name": "clos_sweep",
        "title": "permutation across a growing Clos",
        "seed": 5,
        "link_bps": 10000000000,
        "topology": {"kind": "three_tier", "pods": "$sweep", "aggs_per_pod": 1,
                     "tors_per_pod": 1, "hosts_per_tor": 2, "cores": 2,
                     "prop_us": 1},
        "sweep": {"label": "pods", "values": [2, 3]},
        "series": [{"label": "ExpressPass", "scheme": {"kind": "xpass", "profile": "aggressive"}}],
        "workload": {"kind": "permutation", "bytes": 100000},
        "measure": {"kind": "fct", "cap_ms": 20}
    }"#;

    #[test]
    fn three_tier_fct_sweep_runs_one_row_per_value() {
        let exp = parse_str(THREE_TIER_SWEEP).unwrap();
        let out = exp.run(None);
        // One table row per sweep value, labelled with it.
        assert!(out.text.contains("ExpressPass pods=2"), "{}", out.text);
        assert!(out.text.contains("ExpressPass pods=3"), "{}", out.text);
        let j = xpass_sim::json::parse(&out.json.to_string()).unwrap();
        let series = j.get("series").unwrap().as_array().unwrap();
        assert_eq!(series.len(), 2);
        for (entry, want) in series.iter().zip([2u64, 3]) {
            assert_eq!(entry.get("sweep_label").unwrap().as_str(), Some("pods"));
            assert_eq!(entry.get("sweep_value").unwrap().as_u64(), Some(want));
            assert_eq!(entry.get("unfinished").unwrap().as_u64(), Some(0));
            // pods × tors_per_pod × hosts_per_tor flows in a permutation.
            assert_eq!(
                entry.get("completed").unwrap().as_u64(),
                Some(want * 2),
                "pods={want}"
            );
        }
    }

    #[test]
    fn three_tier_parse_and_validation_errors() {
        let base = r#"{
            "schema": "xpass-scenario/v1",
            "name": "tt",
            "title": "t",
            "seed": 1,
            "link_bps": 1000000000,
            "topology": TOPO,
            SWEEP
            "series": [{"label": "x", "scheme": {"kind": "dctcp"}}],
            "workload": {"kind": "permutation", "bytes": 1000},
            "measure": {"kind": "fct", "cap_ms": 10}
        }"#;
        let no_sweep = |topo: &str| base.replace("TOPO", topo).replace("SWEEP", "");
        let with_sweep = |topo: &str| {
            base.replace("TOPO", topo)
                .replace("SWEEP", r#""sweep": {"label": "n", "values": [2]},"#)
        };
        let cases: &[(String, &str)] = &[
            (
                with_sweep(
                    r#"{"kind": "three_tier", "pods": "$sweep", "aggs_per_pod": 1,
                       "tors_per_pod": "$sweep", "hosts_per_tor": 2, "cores": 1,
                       "prop_us": 1}"#,
                ),
                "at most one of pods|tors_per_pod|hosts_per_tor may be \"$sweep\", got 2",
            ),
            (
                no_sweep(
                    r#"{"kind": "three_tier", "pods": 2, "aggs_per_pod": 0,
                       "tors_per_pod": 1, "hosts_per_tor": 2, "cores": 2,
                       "prop_us": 1}"#,
                ),
                "three_tier requires aggs_per_pod >= 1, got 0",
            ),
            (
                no_sweep(
                    r#"{"kind": "three_tier", "pods": 2, "aggs_per_pod": 2,
                       "tors_per_pod": 1, "hosts_per_tor": 2, "cores": 3,
                       "prop_us": 1}"#,
                ),
                "three_tier cores (3) must be a positive multiple of aggs_per_pod (2)",
            ),
            (
                no_sweep(
                    r#"{"kind": "three_tier", "pods": 0, "aggs_per_pod": 1,
                       "tors_per_pod": 1, "hosts_per_tor": 2, "cores": 1,
                       "prop_us": 1}"#,
                ),
                "three_tier requires pods >= 1, got 0",
            ),
            (
                no_sweep(
                    r#"{"kind": "three_tier", "pods": 2, "aggs_per_pod": 1,
                       "hosts_per_tor": 2, "cores": 1, "prop_us": 1}"#,
                ),
                "topology.tors_per_pod: missing required key",
            ),
            (
                no_sweep(
                    r#"{"kind": "three_tier", "pods": "$sweep", "aggs_per_pod": 1,
                       "tors_per_pod": 1, "hosts_per_tor": 2, "cores": 1,
                       "prop_us": 1}"#,
                ),
                "topology references \"$sweep\" but the scenario declares no 'sweep'",
            ),
            (
                with_sweep(
                    r#"{"kind": "three_tier", "pods": 2, "aggs_per_pod": 1,
                       "tors_per_pod": 1, "hosts_per_tor": 2, "cores": 1,
                       "prop_us": 1}"#,
                ),
                "a 'sweep' is declared but no topology dimension is \"$sweep\"",
            ),
        ];
        for (src, want) in cases {
            let err = parse_str(src).unwrap_err().to_string();
            assert!(err.contains(want), "error {err:?} should mention {want:?}");
        }
    }

    /// Errors name the JSON path of the offending field and quote the value.
    #[test]
    fn errors_carry_json_path_and_value() {
        let base = r#"{
            "schema": "xpass-scenario/v1",
            "name": "p",
            "title": "t",
            "seed": 1,
            "link_bps": 1000000000,
            "topology": {"kind": "star", "hosts": 3},
            "series": [{"label": "x", "scheme": {"kind": "dctcp"}}],
            "workload": {"kind": "permutation", "bytes": 1000},
            "measure": {"kind": "fct", "cap_ms": 10},
            "faults": FAULTS
        }"#;
        let cases: &[(&str, &str)] = &[
            (
                r#"[{"at_ms": 1, "action": "host_pause", "host": 1},
                    {"at_ms": "late", "action": "host_pause", "host": 1}]"#,
                r#"faults[1].at_ms: must be a number, got "late""#,
            ),
            (
                r#"[{"at_ms": 1, "action": "set_loss", "data": 1.5, "credit": 0,
                    "from": {"host": 0}, "to": {"switch": 0}}]"#,
                "faults[0].data: must be a probability in [0, 1], got 1.5",
            ),
            (
                r#"[{"at_ms": 1, "action": "link_down", "from": 7, "to": {"host": 1}}]"#,
                r#"faults[0].from: must be an object {"switch": N} or {"host": N}, got 7"#,
            ),
            (
                r#"{"$chaos": {"seed": 1, "intensity": 2.0}}"#,
                "faults.$chaos.intensity: must be in [0, 1], got 2",
            ),
            (
                r#"{"$chaos": {"intensity": 0.5}}"#,
                "faults.$chaos.seed: missing required key",
            ),
            ("true", "scenario.faults: must be an array of fault events"),
        ];
        for (faults, want) in cases {
            let src = base.replace("FAULTS", faults);
            let err = parse_str(&src).unwrap_err().to_string();
            assert!(err.contains(want), "error {err:?} should mention {want:?}");
        }
        // Long offending values are truncated so errors stay one line.
        let src = base.replace(
            "FAULTS",
            &format!(
                r#"[{{"at_ms": "{}", "action": "host_pause", "host": 0}}]"#,
                "x".repeat(200)
            ),
        );
        let err = parse_str(&src).unwrap_err().to_string();
        assert!(
            err.contains("faults[0].at_ms") && err.contains('…'),
            "{err}"
        );
        assert!(err.len() < 120, "not truncated: {err}");
        // Durations whose picoseconds overflow `u64` are refused, not wrapped.
        let base = base.replace("FAULTS", "[]");
        let overflows = [
            (
                r#""hosts": 3}"#,
                r#""hosts": 3, "prop_us": 18446744073710}"#,
                "topology.prop_us: 18446744073710 overflows",
            ),
            (
                r#""cap_ms": 10"#,
                r#""cap_ms": 18446744074"#,
                "measure.cap_ms: 18446744074 overflows",
            ),
            (
                r#""kind": "fct", "cap_ms": 10"#,
                r#""kind": "min_link_utilization", "warmup_ms": 18446744074, "window_ms": 1"#,
                "measure.warmup_ms: 18446744074 overflows",
            ),
            (
                r#""kind": "fct", "cap_ms": 10"#,
                r#""kind": "min_link_utilization", "warmup_ms": 1, "window_ms": 18446744074"#,
                "measure.window_ms: 18446744074 overflows",
            ),
        ];
        for (from, to, want) in overflows {
            let err = parse_str(&base.replace(from, to)).unwrap_err().to_string();
            assert!(err.contains(want), "error {err:?} should mention {want:?}");
        }
    }
}
