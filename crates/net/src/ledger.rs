//! Global byte/packet conservation ledger.
//!
//! With a ledger installed
//! ([`Network::install_ledger`](crate::network::Network::install_ledger)),
//! every packet a host NIC emits is tracked to one of five terminal
//! accounts, and at any observation point the books must balance:
//!
//! ```text
//! emitted = delivered            (reached an endpoint or absorbed at a host)
//!         + queue_dropped        (tail-dropped at a data or credit queue)
//!         + fault_lost           (dead links, random loss, flushed backlogs,
//!                                 routing dead-ends)
//!         + corrupted            (CRC-dropped by an injected fault)
//!         + in_flight            (on a wire or in host processing delay)
//!         + queued               (sitting in a port queue)
//!         + stashed              (held by a host-pause fault)
//! ```
//!
//! — in packets *and* in wire bytes. Any imbalance means the simulator
//! leaked or double-counted a packet, and surfaces as a failed
//! [`LedgerReport::balanced`] check folded into the run's
//! [`HealthReport`](crate::health::HealthReport).
//!
//! The first five accounts are running counters maintained at the exact
//! points where a packet's fate is decided; `in_flight` counts packets
//! inside scheduled `Arrive`/`HostRx` events, and `queued`/`stashed` are
//! snapshots of port queues and pause stashes taken when the report is
//! built. Install the ledger **before** running the network — packets
//! already in flight at installation time were never credited to `emitted`
//! and would unbalance the books.
//!
//! Like tracing, faults, and invariant monitors, the ledger is
//! `Option`-gated and observation-only: it never touches the RNG or the
//! event queue, so ledger-free runs are byte-identical with or without this
//! module compiled in.

use xpass_sim::json::Json;

/// One account of the ledger: a packet count and a wire-byte count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LedgerEntry {
    /// Packets.
    pub pkts: u64,
    /// Wire bytes.
    pub bytes: u64,
}

impl LedgerEntry {
    pub(crate) fn add(&mut self, size: u32) {
        self.pkts += 1;
        self.bytes += size as u64;
    }

    fn to_json(self) -> Json {
        Json::obj()
            .with("pkts", Json::num_u64(self.pkts))
            .with("bytes", Json::num_u64(self.bytes))
    }
}

/// Why packets were lost: picks the run counter and the ledger account
/// they are booked to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Loss {
    /// Dropped at a credit queue: the arrival, or a resident it evicted.
    CreditQueue,
    /// A data packet tail-dropped at a data queue.
    DataQueue,
    /// A control packet tail-dropped at a data queue (no run counter).
    CtrlQueue,
    /// Lost to an injected fault: a dead link, random loss, a flushed
    /// backlog or a routing dead-end.
    Fault,
    /// CRC-dropped by an injected corruption fault.
    Corrupt,
}

/// Running conservation state held by the network while a ledger is
/// installed: a [`LedgerReport`] whose running accounts move as packets
/// meet their fates. Its residual accounts (`queued`, `stashed`) stay zero
/// here; [`report`](Ledger::report) measures them.
#[derive(Clone, Debug, Default)]
pub(crate) struct Ledger(LedgerReport);

impl Ledger {
    /// A host NIC emitted a packet.
    #[inline]
    pub fn emit(&mut self, size: u32) {
        self.0.emitted.add(size);
    }

    /// A packet reached its terminal host (endpoint delivery or absorption).
    #[inline]
    pub fn deliver(&mut self, size: u32) {
        self.0.delivered.add(size);
    }

    /// Book `pkts` lost packets of `bytes` wire bytes to `loss`'s account.
    #[inline]
    pub fn lose(&mut self, loss: Loss, pkts: u64, bytes: u64) {
        let account = match loss {
            Loss::CreditQueue | Loss::DataQueue | Loss::CtrlQueue => &mut self.0.queue_dropped,
            Loss::Fault => &mut self.0.fault_lost,
            Loss::Corrupt => &mut self.0.corrupted,
        };
        account.pkts += pkts;
        account.bytes += bytes;
    }

    /// The running accounts beside the residual ones measured now.
    pub fn report(&self, queued: LedgerEntry, stashed: LedgerEntry) -> LedgerReport {
        LedgerReport {
            queued,
            stashed,
            ..self.0.clone()
        }
    }

    /// A packet entered a scheduled `Arrive`/`HostRx` event (wire
    /// propagation or host processing delay).
    #[inline]
    pub fn flight_begin(&mut self, size: u32) {
        self.0.in_flight.add(size);
    }

    /// A scheduled `Arrive`/`HostRx` event was handled.
    #[inline]
    pub fn flight_end(&mut self, size: u32) {
        let f = &mut self.0.in_flight;
        f.pkts = f.pkts.saturating_sub(1);
        f.bytes = f.bytes.saturating_sub(size as u64);
    }
}

impl xpass_sim::Snapshot for LedgerEntry {
    fn snap(&self, w: &mut xpass_sim::SnapWriter) {
        w.u64(self.pkts);
        w.u64(self.bytes);
    }
}

impl xpass_sim::Restore for LedgerEntry {
    fn restore(&mut self, r: &mut xpass_sim::SnapReader) -> Result<(), xpass_sim::SnapError> {
        self.pkts = r.u64()?;
        self.bytes = r.u64()?;
        Ok(())
    }
}

impl xpass_sim::Snapshot for Ledger {
    fn snap(&self, w: &mut xpass_sim::SnapWriter) {
        let a = &self.0;
        a.emitted.snap(w);
        a.delivered.snap(w);
        a.queue_dropped.snap(w);
        a.fault_lost.snap(w);
        a.corrupted.snap(w);
        a.in_flight.snap(w);
    }
}

impl xpass_sim::Restore for Ledger {
    fn restore(&mut self, r: &mut xpass_sim::SnapReader) -> Result<(), xpass_sim::SnapError> {
        let a = &mut self.0;
        a.emitted.restore(r)?;
        a.delivered.restore(r)?;
        a.queue_dropped.restore(r)?;
        a.fault_lost.restore(r)?;
        a.corrupted.restore(r)?;
        a.in_flight.restore(r)
    }
}

/// Conservation snapshot: the running accounts plus the residual ones
/// (`queued`, `stashed`) measured at snapshot time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LedgerReport {
    /// Packets emitted by host NICs.
    pub emitted: LedgerEntry,
    /// Packets that reached a terminal host.
    pub delivered: LedgerEntry,
    /// Packets tail-dropped at data/credit queues.
    pub queue_dropped: LedgerEntry,
    /// Packets lost to injected faults.
    pub fault_lost: LedgerEntry,
    /// Packets CRC-dropped by injected corruption.
    pub corrupted: LedgerEntry,
    /// Packets on a wire or in host processing at snapshot time.
    pub in_flight: LedgerEntry,
    /// Packets sitting in port queues at snapshot time.
    pub queued: LedgerEntry,
    /// Packets held by host-pause stashes at snapshot time.
    pub stashed: LedgerEntry,
}

impl LedgerReport {
    /// Sum of every non-`emitted` account.
    fn accounted(&self) -> LedgerEntry {
        let parts = [
            self.delivered,
            self.queue_dropped,
            self.fault_lost,
            self.corrupted,
            self.in_flight,
            self.queued,
            self.stashed,
        ];
        let mut total = LedgerEntry::default();
        for p in parts {
            total.pkts += p.pkts;
            total.bytes += p.bytes;
        }
        total
    }

    /// True when every emitted packet (and byte) is accounted for.
    pub fn balanced(&self) -> bool {
        self.accounted() == self.emitted
    }

    /// Signed packet imbalance (`emitted − accounted`; nonzero = leak).
    pub fn imbalance_pkts(&self) -> i64 {
        self.emitted.pkts as i64 - self.accounted().pkts as i64
    }

    /// Render as a JSON object (one key per account, plus `balanced`).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("emitted", self.emitted.to_json())
            .with("delivered", self.delivered.to_json())
            .with("queue_dropped", self.queue_dropped.to_json())
            .with("fault_lost", self.fault_lost.to_json())
            .with("corrupted", self.corrupted.to_json())
            .with("in_flight", self.in_flight.to_json())
            .with("queued", self.queued.to_json())
            .with("stashed", self.stashed.to_json())
            .with("balanced", Json::Bool(self.balanced()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn books_balance_when_every_packet_is_accounted() {
        let mut l = Ledger::default();
        l.emit(100);
        l.emit(84);
        l.emit(1538);
        l.flight_begin(100);
        l.flight_end(100);
        l.deliver(100);
        l.lose(Loss::CreditQueue, 1, 84);
        l.lose(Loss::Fault, 1, 1538);
        let r = l.report(LedgerEntry::default(), LedgerEntry::default());
        assert!(r.balanced(), "{r:?}");
        assert_eq!(r.imbalance_pkts(), 0);
    }

    #[test]
    fn a_leaked_packet_unbalances_the_books() {
        let mut l = Ledger::default();
        l.emit(100);
        l.emit(100);
        l.deliver(100);
        // Second packet vanished without a terminal account.
        let r = l.report(LedgerEntry::default(), LedgerEntry::default());
        assert!(!r.balanced());
        assert_eq!(r.imbalance_pkts(), 1);
    }

    #[test]
    fn byte_mismatch_alone_is_detected() {
        // Right packet count, wrong bytes (e.g. a credit evicted for a
        // differently-sized one charged at the wrong size).
        let r = LedgerReport {
            emitted: LedgerEntry { pkts: 1, bytes: 92 },
            delivered: LedgerEntry { pkts: 1, bytes: 84 },
            ..LedgerReport::default()
        };
        assert!(!r.balanced());
        assert_eq!(r.imbalance_pkts(), 0, "packets match, bytes must not");
    }

    #[test]
    fn report_json_shape() {
        let r = LedgerReport {
            emitted: LedgerEntry {
                pkts: 2,
                bytes: 200,
            },
            delivered: LedgerEntry {
                pkts: 2,
                bytes: 200,
            },
            ..LedgerReport::default()
        };
        let j = xpass_sim::json::parse(&r.to_json().to_string()).unwrap();
        assert_eq!(j.get("balanced").unwrap().as_bool(), Some(true));
        assert_eq!(
            j.get("emitted").unwrap().get("pkts").unwrap().as_u64(),
            Some(2)
        );
        assert_eq!(
            j.get("delivered").unwrap().get("bytes").unwrap().as_u64(),
            Some(200)
        );
    }
}
