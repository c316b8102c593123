//! # xpass-baselines — comparison congestion-control protocols
//!
//! Every scheme the ExpressPass paper evaluates against, implemented on the
//! same `xpass-net` substrate so experiments swap protocols by factory:
//!
//! * [`window`] — the shared reliable window transport (sequencing,
//!   cumulative ACKs, dup-ACK fast retransmit, RTO with backoff, optional
//!   pacing) that the window-based schemes plug congestion-control policies
//!   into.
//! * [`dctcp`] — DCTCP: ECN-fraction estimator, proportional window
//!   decrease (the paper's primary comparator).
//! * [`cubic`] — TCP CUBIC (Fig 2's kernel-TCP comparison) and Reno.
//! * [`dx`] — DX: delay-based window control from accurate queuing-delay
//!   feedback.
//! * [`hull`] — HULL: DCTCP control + phantom-queue marking + pacing.
//! * [`rcp`] — RCP: explicit per-link rate, rate-paced sender.
//! * [`ideal`] — the hypothetical ideal rate control of §2: an omniscient
//!   max-min oracle setting exact fair rates at every flow event (Fig 1a).
//! * [`naive_credit`] — credits blasted at the maximum rate with no
//!   feedback (§2 / Fig 2a, and the "naïve approach" of Figs 10–11).
//! * [`udp`] — uncredited constant-rate traffic for the §7 coexistence
//!   experiments.

#![warn(missing_docs)]
pub mod cubic;
pub mod dctcp;
pub mod dx;
pub mod hull;
pub mod ideal;
pub mod naive_credit;
pub mod rcp;
pub mod udp;
pub mod window;

pub use cubic::{cubic_factory, reno_factory};
pub use dctcp::dctcp_factory;
pub use dx::dx_factory;
pub use hull::hull_factory;
pub use ideal::{ideal_factory, MaxMinOracle};
pub use naive_credit::naive_credit_factory;
pub use rcp::rcp_factory;
pub use udp::udp_blast_factory;
pub use window::{window_factory, CongestionControl};
