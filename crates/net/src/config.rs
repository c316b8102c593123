//! Per-run network configuration.

use crate::packet::MAX_FRAME;
use xpass_sim::time::Dur;

/// How a host delays credit processing before the triggered data packet is
/// handed to its NIC (paper §2: software implementations show 0.9–6.2 µs at
//  the 99.99th percentile; NIC hardware is ~1 µs spread).
#[derive(Clone, Copy, Debug)]
pub struct HostDelayModel {
    /// Minimum processing delay.
    pub min: Dur,
    /// Maximum processing delay (spread = max − min).
    pub max: Dur,
}

impl HostDelayModel {
    /// The SoftNIC software implementation measured in the paper (§2, §5).
    pub fn software() -> HostDelayModel {
        HostDelayModel {
            min: Dur::ns(900),
            max: Dur::ns(6200),
        }
    }

    /// A NIC-hardware implementation: ~1 µs processing with a ±0.2 µs
    /// spread — enough delay noise to keep deterministic phase locks from
    /// forming, small enough not to reorder back-to-back full frames at
    /// 10 G.
    pub fn hardware() -> HostDelayModel {
        HostDelayModel {
            min: Dur::ns(800),
            max: Dur::ns(1200),
        }
    }

    /// No jitter at all (for unit tests and the "perfect pacing" point of
    /// Fig 6a).
    pub fn none() -> HostDelayModel {
        HostDelayModel {
            min: Dur::ZERO,
            max: Dur::ZERO,
        }
    }

    /// Delay spread `Δd_host = max − min` used by the network calculus.
    pub fn spread(&self) -> Dur {
        self.max - self.min
    }
}

/// How packets pick among equal-cost paths.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RoutingMode {
    /// Deterministic symmetric-hash ECMP (§3.1): a flow's data retraces its
    /// credits' path. The paper's base design.
    EcmpSymmetric,
    /// Per-packet random spraying (§7): balances load perfectly but breaks
    /// credit/data path coupling; viable because bounded queues also bound
    /// reordering.
    PacketSpray,
}

/// Network-wide configuration applied when a [`Topology`](crate::Topology)
/// is instantiated into a [`Network`](crate::Network).
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Data queue capacity per switch egress port, in bytes.
    /// Paper simulations: 384.5 KB (250 MTU) at 10 G, 1.54 MB at 40 G.
    pub switch_queue_bytes: u64,
    /// ECN marking threshold K in bytes, if ECN is enabled (DCTCP/HULL).
    pub ecn_k_bytes: Option<u64>,
    /// HULL phantom queues: (drain fraction γ, marking threshold bytes).
    pub phantom: Option<(f64, u64)>,
    /// RCP per-link rate computation (parameters in
    /// [`rcplink`](crate::rcplink)).
    pub rcp: bool,
    /// Credit class enabled (ExpressPass / naïve credit runs).
    pub credit: bool,
    /// Credit queue capacity per port, in credits (paper default 8).
    pub credit_queue_pkts: usize,
    /// Credit overflow policy (see
    /// [`CreditDropPolicy`](crate::queue::CreditDropPolicy)).
    pub credit_drop: crate::queue::CreditDropPolicy,
    /// Multipath routing mode (§7: symmetric ECMP vs packet spraying).
    pub routing: RoutingMode,
    /// Host credit-processing delay model.
    pub host_delay: HostDelayModel,
    /// Seed for the run's RNG.
    pub seed: u64,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            switch_queue_bytes: 384_500, // 250 MTU, paper's 10G setting
            ecn_k_bytes: None,
            phantom: None,
            rcp: false,
            credit: false,
            credit_queue_pkts: 8,
            credit_drop: crate::queue::CreditDropPolicy::UniformRandom,
            routing: RoutingMode::EcmpSymmetric,
            host_delay: HostDelayModel::hardware(),
            seed: 1,
        }
    }
}

impl NetConfig {
    /// Baseline config for an ExpressPass run.
    pub fn expresspass() -> NetConfig {
        NetConfig {
            credit: true,
            ..NetConfig::default()
        }
    }

    /// Baseline config for a DCTCP run at the given link speed
    /// (K = 65 packets at 10 G, scaled linearly with speed per the paper).
    pub fn dctcp(link_bps: u64) -> NetConfig {
        NetConfig {
            ecn_k_bytes: Some(dctcp_k_bytes(link_bps)),
            ..NetConfig::default()
        }
    }

    /// Baseline config for a HULL run: DCTCP marking on a phantom queue
    /// draining at 95% of capacity.
    pub fn hull(link_bps: u64) -> NetConfig {
        // HULL's 1KB-at-1Gbps marking threshold, scaled with link speed.
        let thresh = (1000.0 * link_bps as f64 / 1e9) as u64;
        NetConfig {
            phantom: Some((0.95, thresh)),
            ..NetConfig::default()
        }
    }

    /// Baseline config for an RCP run.
    pub fn rcp() -> NetConfig {
        NetConfig {
            rcp: true,
            ..NetConfig::default()
        }
    }

    /// Scale switch queue capacity with link speed as the paper does
    /// (250 MTU at 10 G, 1000 MTU at 40 G).
    pub fn with_queue_for_speed(mut self, link_bps: u64) -> NetConfig {
        let mtus = if link_bps >= 40_000_000_000 {
            1000
        } else {
            250
        };
        self.switch_queue_bytes = mtus * MAX_FRAME as u64;
        // Scale ECN K too if set.
        if let Some(k) = self.ecn_k_bytes.as_mut() {
            *k = dctcp_k_bytes(link_bps);
        }
        self
    }

    /// Set the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> NetConfig {
        self.seed = seed;
        self
    }
}

/// DCTCP's marking threshold K in bytes: 65 packets at 10 G, scaled
/// linearly with link speed.
fn dctcp_k_bytes(link_bps: u64) -> u64 {
    let k_pkts = 65.0 * link_bps as f64 / 10e9;
    (k_pkts * MAX_FRAME as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = NetConfig::default();
        assert_eq!(c.switch_queue_bytes, 384_500);
        assert_eq!(c.credit_queue_pkts, 8);
        assert!(!c.credit);
    }

    #[test]
    fn dctcp_k_scales_with_speed() {
        let k10 = NetConfig::dctcp(10_000_000_000).ecn_k_bytes.unwrap();
        let k100 = NetConfig::dctcp(100_000_000_000).ecn_k_bytes.unwrap();
        assert_eq!(k10, 65 * 1538);
        assert_eq!(k100, 650 * 1538);
    }

    #[test]
    fn queue_scales_with_speed() {
        let c = NetConfig::default().with_queue_for_speed(40_000_000_000);
        assert_eq!(c.switch_queue_bytes, 1000 * 1538);
        let c = NetConfig::default().with_queue_for_speed(10_000_000_000);
        assert_eq!(c.switch_queue_bytes, 250 * 1538);
    }

    #[test]
    fn host_delay_models() {
        assert_eq!(HostDelayModel::software().spread(), Dur::ns(5300));
        assert_eq!(HostDelayModel::none().spread(), Dur::ZERO);
        assert!(HostDelayModel::hardware().spread() < HostDelayModel::software().spread());
    }
}
