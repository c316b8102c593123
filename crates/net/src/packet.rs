//! Packets and wire-format constants.
//!
//! The paper's arithmetic (§3.1) hinges on Ethernet wire sizes *including*
//! preamble and inter-packet gap: a credit is a minimum-size 84 B frame, a
//! full data frame is 1538 B, so rate-limiting credits to
//! `84 / (84 + 1538) ≈ 5.18 %` of a link leaves `1538/1622 ≈ 94.82 %` for the
//! data the credits trigger. Those same constants are used here.

use crate::ids::{FlowId, HostId};
use xpass_sim::time::{Dur, SimTime};

/// Wire size of a minimum Ethernet frame (64 B frame + 8 B preamble +
/// 12 B inter-packet gap).
pub const MIN_FRAME: u32 = 84;
/// Wire size of a maximum Ethernet frame (1518 B frame + preamble + IPG).
pub const MAX_FRAME: u32 = 1538;
/// Wire overhead per data packet: Ethernet header/FCS (18) + IPv4 (20) +
/// TCP (20) + preamble/IPG (20).
pub const WIRE_OVERHEAD: u32 = 78;
/// Maximum application payload per data packet (`MAX_FRAME - WIRE_OVERHEAD`).
pub const MSS: u32 = MAX_FRAME - WIRE_OVERHEAD; // 1460
/// Nominal credit wire size; one credit authorizes one `MAX_FRAME`.
pub const CREDIT_SIZE: u32 = MIN_FRAME;
/// Largest randomized credit size (§3.1: 84–92 B to jitter switch queues).
pub const CREDIT_SIZE_MAX: u32 = 92;
/// ACK wire size (minimum frame).
pub const ACK_SIZE: u32 = MIN_FRAME;
/// Control packets (SYN / CREDIT_REQUEST / CREDIT_STOP / FIN) wire size.
pub const CTRL_SIZE: u32 = MIN_FRAME;

/// Credit-class rate limit for a link of `link_bps`: the rate at which
/// credits must be metered so that the data they trigger exactly fills the
/// reverse link (`C · 84/1622`).
#[inline]
pub fn credit_rate_bps(link_bps: u64) -> u64 {
    link_bps * CREDIT_SIZE as u64 / (CREDIT_SIZE + MAX_FRAME) as u64
}

/// Fraction of a link usable by data under credit metering (≈ 0.9482).
#[inline]
pub fn max_data_fraction() -> f64 {
    MAX_FRAME as f64 / (CREDIT_SIZE + MAX_FRAME) as f64
}

/// Wire size of a data packet carrying `app_bytes` of payload.
#[inline]
pub fn data_wire_size(app_bytes: u32) -> u32 {
    (app_bytes + WIRE_OVERHEAD).max(MIN_FRAME)
}

/// Packet class, which selects the queue class at every egress port.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PktKind {
    /// Application data (sender → receiver).
    Data,
    /// Transport acknowledgment (receiver → sender).
    Ack,
    /// ExpressPass credit (receiver → sender); rides the rate-limited
    /// credit class at every port.
    Credit,
    /// Control: SYN / CREDIT_REQUEST / CREDIT_STOP / FIN.
    Ctrl,
}

impl PktKind {
    /// The telemetry class used in trace events (`xpass-sim` sits below
    /// this crate, so its [`TraceClass`](xpass_sim::trace::TraceClass)
    /// mirrors this enum with raw ids).
    pub fn trace_class(self) -> xpass_sim::trace::TraceClass {
        match self {
            PktKind::Data => xpass_sim::trace::TraceClass::Data,
            PktKind::Ack => xpass_sim::trace::TraceClass::Ack,
            PktKind::Credit => xpass_sim::trace::TraceClass::Credit,
            PktKind::Ctrl => xpass_sim::trace::TraceClass::Ctrl,
        }
    }
}

/// Control-packet subtypes carried in [`Packet::flag`].
pub mod ctrl {
    /// Connection open (carries a piggybacked credit request, §3.1).
    pub const SYN: u8 = 1;
    /// Explicit credit request for persistent connections.
    pub const CREDIT_REQUEST: u8 = 2;
    /// Sender has no more data; receiver must stop sending credits.
    pub const CREDIT_STOP: u8 = 3;
    /// Connection close.
    pub const FIN: u8 = 4;
}

/// Flag bits for data/ack packets ([`Packet::flag`]).
pub mod flags {
    /// ECN-Echo: receiver saw a CE mark (DCTCP/HULL).
    pub const ECE: u8 = 1 << 0;
    /// Last data packet of the flow.
    pub const FIN_DATA: u8 = 1 << 1;
}

/// A simulated packet. One struct serves all protocols: per-protocol header
/// fields (`seq`, `ack`, `rate`, …) are interpreted by the endpoints.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Flow this packet belongs to (credits and data share the flow id).
    pub flow: FlowId,
    /// Origin host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Bytes on the wire, including all overheads (serialization uses this).
    pub size: u32,
    /// Queue class.
    pub kind: PktKind,
    /// ECN Congestion-Experienced mark (set by queues).
    pub ecn: bool,
    /// Sequence number: data byte offset, or credit sequence number.
    pub seq: u64,
    /// Cumulative ACK (window protocols) or echoed credit sequence
    /// (ExpressPass data packets).
    pub ack: u64,
    /// Control subtype or flag bits (see [`ctrl`] and [`flags`]).
    pub flag: u8,
    /// Explicit-rate field (RCP, bits/s): switches lower it to their current
    /// fair rate; receivers echo it back in ACKs.
    pub rate: f64,
    /// Sender timestamp, echoed by ACKs for RTT measurement.
    pub t_sent: SimTime,
    /// Echoed timestamp: for ACKs, the data packet's `t_sent`; for
    /// ExpressPass data packets, the triggering credit's `t_sent` (gives the
    /// receiver a credit-loop RTT sample).
    pub t_echo: SimTime,
    /// Accumulated queuing delay experienced so far (DX feedback).
    pub qdelay: Dur,
    /// Sender's current RTT estimate (RCP header field used by switches to
    /// average the control interval).
    pub rtt_est: Dur,
    /// Application payload bytes carried (0 for pure control/ack/credit).
    pub payload: u32,
    /// Internal: time this packet entered its current queue.
    pub(crate) enq_t: SimTime,
}

impl Packet {
    /// A zeroed template for the given class; callers fill protocol fields.
    pub fn new(flow: FlowId, src: HostId, dst: HostId, kind: PktKind, size: u32) -> Packet {
        Packet {
            flow,
            src,
            dst,
            size,
            kind,
            ecn: false,
            seq: 0,
            ack: 0,
            flag: 0,
            rate: f64::INFINITY,
            t_sent: SimTime::ZERO,
            t_echo: SimTime::ZERO,
            qdelay: Dur::ZERO,
            rtt_est: Dur::ZERO,
            payload: 0,
            enq_t: SimTime::ZERO,
        }
    }
}

impl PktKind {
    /// Snapshot traversal: the kind as its declaration index.
    fn persist(&mut self, io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        const KINDS: [PktKind; 4] = [PktKind::Data, PktKind::Ack, PktKind::Credit, PktKind::Ctrl];
        let mut tag = *self as u8;
        io.u8(&mut tag)?;
        *self = *(KINDS.get(tag as usize))
            .ok_or_else(|| io.err(format!("invalid packet kind: expected 0..=3, found {tag}")))?;
        Ok(())
    }
}

/// The blank a restored packet is read onto.
impl Default for Packet {
    fn default() -> Packet {
        Packet::new(FlowId(0), HostId(0), HostId(0), PktKind::Data, 0)
    }
}

impl Packet {
    /// Snapshot traversal: every field.
    pub fn persist(&mut self, io: &mut xpass_sim::SnapIo) -> Result<(), xpass_sim::SnapError> {
        io.u32(&mut self.flow.0)?;
        io.u32(&mut self.src.0)?;
        io.u32(&mut self.dst.0)?;
        io.u32(&mut self.size)?;
        self.kind.persist(io)?;
        io.bool(&mut self.ecn)?;
        io.u64(&mut self.seq)?;
        io.u64(&mut self.ack)?;
        io.u8(&mut self.flag)?;
        io.f64(&mut self.rate)?;
        io.u64(&mut self.t_sent.0)?;
        io.u64(&mut self.t_echo.0)?;
        io.u64(&mut self.qdelay.0)?;
        io.u64(&mut self.rtt_est.0)?;
        io.u32(&mut self.payload)?;
        io.u64(&mut self.enq_t.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rate_limit_constants() {
        // §3.1: credits limited to ~5% of capacity, data gets ~95%.
        let frac = CREDIT_SIZE as f64 / (CREDIT_SIZE + MAX_FRAME) as f64;
        assert!((frac - 0.0518).abs() < 0.001, "{frac}");
        assert!((max_data_fraction() - 0.9482).abs() < 0.001);
        // 10G link: credit class gets ~518 Mbps.
        let r = credit_rate_bps(10_000_000_000);
        assert_eq!(r, 10_000_000_000u64 * 84 / 1622);
    }

    /// The experiments' frame-size fractions, stated through the constants,
    /// are the literals they replaced, bit for bit.
    #[test]
    fn frame_fractions_equal_the_literals() {
        assert_eq!(
            max_data_fraction().to_bits(),
            (1538.0f64 / 1622.0).to_bits()
        );
        assert_eq!(
            (MSS as f64 / MAX_FRAME as f64).to_bits(),
            (1460.0f64 / 1538.0).to_bits()
        );
    }

    #[test]
    fn data_wire_sizes() {
        assert_eq!(data_wire_size(MSS), MAX_FRAME);
        assert_eq!(data_wire_size(1), MIN_FRAME.max(79));
        assert_eq!(data_wire_size(0), MIN_FRAME);
        assert_eq!(MSS, 1460);
    }

    #[test]
    fn packet_template_defaults() {
        let p = Packet::new(
            FlowId(1),
            HostId(2),
            HostId(3),
            PktKind::Credit,
            CREDIT_SIZE,
        );
        assert_eq!(p.size, 84);
        assert!(!p.ecn);
        assert!(p.rate.is_infinite());
        assert_eq!(p.payload, 0);
    }
}
