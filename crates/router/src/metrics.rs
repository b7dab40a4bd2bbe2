//! Offered/delivered/drop accounting for router simulations.

use dra_des::stats::{LogHistogram, TimeWeighted, Welford};
use std::fmt;

/// Shared bucket layout for every delivered-latency histogram
/// (per-linecard, per-path, and telemetry lifecycle decompositions),
/// so shard histograms merge without re-bucketing: 100 ns .. 10 ms in
/// 100 logarithmic buckets.
pub const LATENCY_HIST_LO: f64 = 100e-9;
/// Upper bound of the shared latency bucket layout.
pub const LATENCY_HIST_HI: f64 = 10e-3;
/// Bucket count of the shared latency bucket layout.
pub const LATENCY_HIST_BUCKETS: usize = 100;

/// A fresh histogram with the shared latency layout.
pub fn latency_histogram() -> LogHistogram {
    LogHistogram::new(LATENCY_HIST_LO, LATENCY_HIST_HI, LATENCY_HIST_BUCKETS)
}

/// Why a packet (or its cells) never made it out of the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropCause {
    /// Ingress linecard unable to accept (component failure, no coverage).
    IngressDown,
    /// Egress linecard unable to transmit (component failure, no coverage).
    EgressDown,
    /// Virtual output queue overflow at the ingress.
    VoqOverflow,
    /// The switching fabric had no operational plane.
    FabricDown,
    /// Reassembly gave up on a partial packet (lost cells upstream).
    ReassemblyTimeout,
    /// No route in the FIB for the destination.
    NoRoute,
    /// DRA only: the EIB had insufficient promised bandwidth
    /// (the B_prom scale-back of §4 realized as drops).
    EibOversubscribed,
    /// DRA only: no eligible covering linecard (e.g. no healthy LC of
    /// the same protocol for a PDLU failure).
    NoCoverage,
}

impl DropCause {
    /// Every cause, for table printing.
    pub const ALL: [DropCause; 8] = [
        DropCause::IngressDown,
        DropCause::EgressDown,
        DropCause::VoqOverflow,
        DropCause::FabricDown,
        DropCause::ReassemblyTimeout,
        DropCause::NoRoute,
        DropCause::EibOversubscribed,
        DropCause::NoCoverage,
    ];

    /// Position of this cause in [`DropCause::ALL`] (also the stable
    /// index used by telemetry drop events and campaign artifacts).
    pub const fn index(self) -> usize {
        match self {
            DropCause::IngressDown => 0,
            DropCause::EgressDown => 1,
            DropCause::VoqOverflow => 2,
            DropCause::FabricDown => 3,
            DropCause::ReassemblyTimeout => 4,
            DropCause::NoRoute => 5,
            DropCause::EibOversubscribed => 6,
            DropCause::NoCoverage => 7,
        }
    }

    /// Stable lowercase name (the `Display` form).
    pub const fn name(self) -> &'static str {
        match self {
            DropCause::IngressDown => "ingress-down",
            DropCause::EgressDown => "egress-down",
            DropCause::VoqOverflow => "voq-overflow",
            DropCause::FabricDown => "fabric-down",
            DropCause::ReassemblyTimeout => "reassembly-timeout",
            DropCause::NoRoute => "no-route",
            DropCause::EibOversubscribed => "eib-oversubscribed",
            DropCause::NoCoverage => "no-coverage",
        }
    }
}

/// Telemetry hook for a dropped packet: records the drop in this
/// thread's telemetry hub, if one is armed. Shared by the BDR and DRA
/// models so every drop site reports the same event shape.
#[inline]
pub fn note_drop(packet: dra_net::packet::PacketId, cause: DropCause, lc: u16) {
    dra_telemetry::packet_dropped(packet.0, cause.index() as u32, lc as u32, cause.name());
}

impl fmt::Display for DropCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Counters for one linecard.
#[derive(Debug, Clone)]
pub struct LcMetrics {
    /// Packets offered by the attached links.
    pub offered_packets: u64,
    /// Bytes offered by the attached links.
    pub offered_bytes: u64,
    /// Packets fully delivered out the egress port.
    pub delivered_packets: u64,
    /// Bytes fully delivered.
    pub delivered_bytes: u64,
    /// Packets delivered *for this LC* via the EIB coverage path.
    pub covered_packets: u64,
    /// Packets delivered whose *ingress* was this LC. The BDR model
    /// attributes `delivered_packets` to the egress card; this counter
    /// is always ingress-attributed, so per-linecard conservation
    /// (`offered == ingress_delivered + Σ drops`) holds on both
    /// architectures.
    pub ingress_delivered: u64,
    /// Drop counters indexed by [`DropCause`].
    drops: [u64; 8],
    dropped_bytes: [u64; 8],
    /// End-to-end latency of delivered packets (seconds).
    pub latency: Welford,
    /// Bucketed latency distribution of the same deliveries, in the
    /// shared [`latency_histogram`] layout; unlike the scalar
    /// [`Welford`] it yields p50/p99 and merges exactly across shards.
    pub latency_hist: LogHistogram,
    /// 1.0 while this LC can deliver service, 0.0 while it cannot.
    pub availability: TimeWeighted,
}

impl LcMetrics {
    /// Fresh counters starting at time zero, available.
    pub fn new() -> Self {
        LcMetrics {
            offered_packets: 0,
            offered_bytes: 0,
            delivered_packets: 0,
            delivered_bytes: 0,
            covered_packets: 0,
            ingress_delivered: 0,
            drops: [0; 8],
            dropped_bytes: [0; 8],
            latency: Welford::new(),
            latency_hist: latency_histogram(),
            availability: TimeWeighted::new(0.0, 1.0),
        }
    }

    /// Record an offered packet.
    pub fn offer(&mut self, bytes: u32) {
        self.offered_packets += 1;
        self.offered_bytes += bytes as u64;
    }

    /// Record a delivery with its latency.
    pub fn deliver(&mut self, bytes: u32, latency_s: f64) {
        self.delivered_packets += 1;
        self.delivered_bytes += bytes as u64;
        self.latency.push(latency_s);
        self.latency_hist.record(latency_s);
    }

    /// Record a drop.
    pub fn drop_packet(&mut self, cause: DropCause, bytes: u32) {
        self.drops[cause.index()] += 1;
        self.dropped_bytes[cause.index()] += bytes as u64;
    }

    /// Packets dropped for a given cause.
    pub fn drops(&self, cause: DropCause) -> u64 {
        self.drops[cause.index()]
    }

    /// Bytes dropped for a given cause.
    pub fn dropped_bytes(&self, cause: DropCause) -> u64 {
        self.dropped_bytes[cause.index()]
    }

    /// Total packets dropped, any cause.
    pub fn total_drops(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// Delivered / offered packet ratio (1.0 when nothing offered).
    pub fn delivery_ratio(&self) -> f64 {
        if self.offered_packets == 0 {
            1.0
        } else {
            self.delivered_packets as f64 / self.offered_packets as f64
        }
    }

    /// Delivered / offered byte ratio (goodput fraction).
    pub fn byte_delivery_ratio(&self) -> f64 {
        if self.offered_bytes == 0 {
            1.0
        } else {
            self.delivered_bytes as f64 / self.offered_bytes as f64
        }
    }
}

impl Default for LcMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Metrics for the whole router.
#[derive(Debug, Clone, Default)]
pub struct RouterMetrics {
    /// One entry per linecard.
    pub lcs: Vec<LcMetrics>,
    /// Packets carried over the EIB (DRA only).
    pub eib_packets: u64,
    /// Bytes carried over the EIB (DRA only).
    pub eib_bytes: u64,
    /// Control packets exchanged over the EIB control lines.
    pub eib_control_packets: u64,
    /// CSMA/CD collisions observed on the control lines.
    pub eib_collisions: u64,
}

impl RouterMetrics {
    /// Metrics for `n` linecards.
    pub fn new(n: usize) -> Self {
        RouterMetrics {
            lcs: (0..n).map(|_| LcMetrics::new()).collect(),
            ..Default::default()
        }
    }

    /// Aggregate delivered bytes across all linecards.
    pub fn total_delivered_bytes(&self) -> u64 {
        self.lcs.iter().map(|m| m.delivered_bytes).sum()
    }

    /// Aggregate offered bytes across all linecards.
    pub fn total_offered_bytes(&self) -> u64 {
        self.lcs.iter().map(|m| m.offered_bytes).sum()
    }

    /// Aggregate drop count for one cause.
    pub fn total_drops(&self, cause: DropCause) -> u64 {
        self.lcs.iter().map(|m| m.drops(cause)).sum()
    }

    /// Delivered-latency histogram merged across all linecards, for
    /// router-wide p50/p99 reporting.
    pub fn latency_hist_total(&self) -> LogHistogram {
        let mut total = latency_histogram();
        for lc in &self.lcs {
            total.merge(&lc.latency_hist);
        }
        total
    }

    /// Router-wide byte delivery ratio.
    pub fn byte_delivery_ratio(&self) -> f64 {
        let offered = self.total_offered_bytes();
        if offered == 0 {
            1.0
        } else {
            self.total_delivered_bytes() as f64 / offered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offer_deliver_drop_accounting() {
        let mut m = LcMetrics::new();
        m.offer(100);
        m.offer(200);
        m.deliver(100, 1e-5);
        m.drop_packet(DropCause::VoqOverflow, 200);
        assert_eq!(m.offered_packets, 2);
        assert_eq!(m.offered_bytes, 300);
        assert_eq!(m.delivered_packets, 1);
        assert_eq!(m.drops(DropCause::VoqOverflow), 1);
        assert_eq!(m.dropped_bytes(DropCause::VoqOverflow), 200);
        assert_eq!(m.total_drops(), 1);
        assert_eq!(m.delivery_ratio(), 0.5);
        assert!((m.byte_delivery_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.latency.count(), 1);
    }

    #[test]
    fn empty_metrics_ratios_are_one() {
        let m = LcMetrics::new();
        assert_eq!(m.delivery_ratio(), 1.0);
        assert_eq!(m.byte_delivery_ratio(), 1.0);
        assert_eq!(m.total_drops(), 0);
    }

    #[test]
    fn router_aggregation() {
        let mut r = RouterMetrics::new(3);
        r.lcs[0].offer(100);
        r.lcs[0].deliver(100, 1e-6);
        r.lcs[1].offer(50);
        r.lcs[1].drop_packet(DropCause::IngressDown, 50);
        assert_eq!(r.total_offered_bytes(), 150);
        assert_eq!(r.total_delivered_bytes(), 100);
        assert_eq!(r.total_drops(DropCause::IngressDown), 1);
        assert!((r.byte_delivery_ratio() - 100.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn availability_signal_integrates() {
        let mut m = LcMetrics::new();
        m.availability.update(10.0, 0.0); // fails at t=10
        m.availability.update(15.0, 1.0); // repaired at t=15
        let a = m.availability.average(20.0);
        assert!((a - 0.75).abs() < 1e-12);
    }

    #[test]
    fn latency_histogram_tracks_deliveries_and_merges() {
        let mut r = RouterMetrics::new(2);
        r.lcs[0].deliver(100, 5e-6);
        r.lcs[0].deliver(100, 5e-6);
        r.lcs[1].deliver(100, 2e-3);
        let total = r.latency_hist_total();
        assert_eq!(total.count(), 3);
        // Two of three observations sit near 5 µs, so the median does.
        let p50 = total.quantile(0.5);
        assert!((1e-6..1e-5).contains(&p50), "p50 = {p50}");
        let p99 = total.quantile(0.99);
        assert!(p99 > 1e-3, "p99 = {p99}");
    }

    #[test]
    fn all_drop_causes_have_distinct_slots_and_names() {
        use std::collections::HashSet;
        let idx: HashSet<usize> = DropCause::ALL.iter().map(|c| c.index()).collect();
        assert_eq!(idx.len(), DropCause::ALL.len());
        let names: HashSet<String> = DropCause::ALL.iter().map(|c| c.to_string()).collect();
        assert_eq!(names.len(), DropCause::ALL.len());
    }
}
