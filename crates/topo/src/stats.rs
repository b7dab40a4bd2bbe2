//! Network-level composed metrics: packet conservation, end-to-end
//! delivery, and per-flow availability.

use dra_des::stats::Welford;

/// Why the network dropped an end-to-end packet.
///
/// These compose the single-router [`DropCause`]s one level up: a
/// packet that would die inside a router for *any* reason at a hop is
/// charged to the hop-level cause visible to the network.
///
/// [`DropCause`]: dra_router::metrics::DropCause
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum NetDropCause {
    /// The linecard the packet arrived on cannot serve it.
    IngressDown = 0,
    /// The linecard toward the next hop cannot serve it.
    EgressDown = 1,
    /// The transit router's switching fabric has too few planes.
    FabricDown = 2,
    /// The transit router's FIB had no route for the destination.
    NoRoute = 3,
    /// The selected outgoing link is down.
    LinkDown = 4,
    /// The selected outgoing link's serialization backlog overflowed.
    LinkCongested = 5,
    /// A DRA coverage detour existed but the EIB's promised bandwidth
    /// was oversubscribed at this node.
    CoverageSaturated = 6,
    /// A packet forwarded more often than the longest min-hop route
    /// allows: a routing-bug guard that healthy runs never trip.
    TtlExceeded = 7,
}

impl NetDropCause {
    /// Every cause, in a fixed order (artifact field order).
    pub const ALL: [NetDropCause; 8] = [
        NetDropCause::IngressDown,
        NetDropCause::EgressDown,
        NetDropCause::FabricDown,
        NetDropCause::NoRoute,
        NetDropCause::LinkDown,
        NetDropCause::LinkCongested,
        NetDropCause::CoverageSaturated,
        NetDropCause::TtlExceeded,
    ];

    /// Stable dense index. Constant-time: the explicit discriminants
    /// *are* the `ALL` positions (pinned by
    /// `cause_names_and_indices_are_stable`) — this runs on every
    /// dropped packet, so no linear scan.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name (artifact keys).
    pub fn name(self) -> &'static str {
        match self {
            NetDropCause::IngressDown => "ingress_down",
            NetDropCause::EgressDown => "egress_down",
            NetDropCause::FabricDown => "fabric_down",
            NetDropCause::NoRoute => "no_route",
            NetDropCause::LinkDown => "link_down",
            NetDropCause::LinkCongested => "link_congested",
            NetDropCause::CoverageSaturated => "coverage_saturated",
            NetDropCause::TtlExceeded => "ttl_exceeded",
        }
    }
}

/// Counters and moments for one network run.
///
/// Conservation invariant (checked by `tests/topo_invariants.rs` and
/// by artifact validation): `injected == delivered + dropped_total()
/// + in_flight` at every instant the model is quiescent.
#[derive(Debug, Clone)]
pub struct NetStats {
    /// Packets handed to source routers.
    pub injected: u64,
    /// Packets that reached their destination's host port.
    pub delivered: u64,
    /// Drops by cause (indexed by [`NetDropCause::index`]).
    pub drops: [u64; 8],
    /// Packets currently inside the network.
    pub in_flight: u64,
    /// End-to-end latency of delivered packets, seconds.
    pub latency: Welford,
    /// Router hops of delivered packets.
    pub hops: Welford,
    /// Per-flow injected counts.
    pub flow_injected: Vec<u64>,
    /// Per-flow delivered counts.
    pub flow_delivered: Vec<u64>,
}

impl NetStats {
    /// Zeroed stats for `n_flows` flows.
    pub fn new(n_flows: usize) -> Self {
        NetStats {
            injected: 0,
            delivered: 0,
            drops: [0; 8],
            in_flight: 0,
            latency: Welford::new(),
            hops: Welford::new(),
            flow_injected: vec![0; n_flows],
            flow_delivered: vec![0; n_flows],
        }
    }

    /// Record an injection for `flow`.
    pub fn inject(&mut self, flow: u32) {
        self.injected += 1;
        self.in_flight += 1;
        self.flow_injected[flow as usize] += 1;
    }

    /// Record a delivery for `flow`.
    pub fn deliver(&mut self, flow: u32, latency_s: f64, hops: u32) {
        self.delivered += 1;
        self.in_flight -= 1;
        self.flow_delivered[flow as usize] += 1;
        self.latency.push(latency_s);
        self.hops.push(hops as f64);
    }

    /// Record a drop.
    pub fn drop_packet(&mut self, cause: NetDropCause) {
        self.drops[cause.index()] += 1;
        self.in_flight -= 1;
    }

    /// Total drops across causes.
    pub fn dropped_total(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// Network packet delivery ratio (1.0 when nothing was injected).
    pub fn delivery_ratio(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.injected as f64
        }
    }

    /// Fraction of flows whose own delivery ratio is ≥ `threshold`
    /// (flows that injected nothing count as available).
    pub fn flow_availability(&self, threshold: f64) -> f64 {
        if self.flow_injected.is_empty() {
            return 1.0;
        }
        let ok = self
            .flow_injected
            .iter()
            .zip(&self.flow_delivered)
            .filter(|&(&inj, &del)| inj == 0 || del as f64 >= threshold * inj as f64)
            .count();
        ok as f64 / self.flow_injected.len() as f64
    }

    /// `injected == delivered + dropped + in_flight`?
    pub fn conserved(&self) -> bool {
        self.injected == self.delivered + self.dropped_total() + self.in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_names_and_indices_are_stable() {
        for (i, c) in NetDropCause::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(NetDropCause::ALL[0].name(), "ingress_down");
        assert_eq!(NetDropCause::ALL[7].name(), "ttl_exceeded");
    }

    #[test]
    fn conservation_accounting() {
        let mut s = NetStats::new(2);
        s.inject(0);
        s.inject(1);
        s.inject(1);
        assert_eq!(s.in_flight, 3);
        s.deliver(0, 1e-4, 3);
        s.drop_packet(NetDropCause::LinkCongested);
        assert!(s.conserved());
        assert_eq!(s.dropped_total(), 1);
        assert_eq!(s.delivery_ratio(), 1.0 / 3.0);
        // Flow 0 fully delivered; flow 1 delivered 0 of 2.
        assert_eq!(s.flow_availability(0.99), 0.5);
        s.deliver(1, 2e-4, 4);
        assert!(s.conserved());
        assert_eq!(s.in_flight, 0);
    }

    #[test]
    fn flow_availability_threshold_edges() {
        let mut s = NetStats::new(3);
        s.inject(0); // flow 0: 1 injected, 0 delivered
        s.inject(1);
        s.inject(1);
        s.deliver(1, 1e-4, 2); // flow 1: 2 injected, 1 delivered
        s.drop_packet(NetDropCause::NoRoute);
        s.drop_packet(NetDropCause::NoRoute);
        // flow 2: injected nothing — always counts as available.
        // Threshold 0.0: `del >= 0` holds for every flow, even flow 0
        // with zero deliveries.
        assert_eq!(s.flow_availability(0.0), 1.0);
        // Threshold 1.0: only fully-delivered (or idle) flows count.
        // Flow 0 (0 of 1) and flow 1 (1 of 2) both miss; flow 2 idles.
        assert_eq!(s.flow_availability(1.0), 1.0 / 3.0);
        s.inject(1);
        s.deliver(1, 1e-4, 2);
        // Flow 1 is now 2 of 3 — still short of 1.0 but over 0.5.
        assert_eq!(s.flow_availability(1.0), 1.0 / 3.0);
        assert_eq!(s.flow_availability(0.5), 2.0 / 3.0);
        // No flows at all: vacuously available.
        assert_eq!(NetStats::new(0).flow_availability(1.0), 1.0);
    }
}
