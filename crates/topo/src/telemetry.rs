//! Network-scope observability for [`NetworkSim`] runs.
//!
//! This module is the producer side of
//! [`dra_telemetry::NetScopeSnapshot`]: a per-run collector
//! (`NetTele`) the network kernel feeds, and an exporter that turns
//! the collected raw points into the snapshot's sections — per-router
//! counters, the fault-forensics ledger, hop-resolved flow spans —
//! plus a Perfetto (Chrome `trace_event`) trace with one track per
//! router and flow arrows linking a packet's spans across tracks.
//!
//! ## Determinism
//!
//! The collector records *facts with sim-time stamps*, never
//! collection-order artifacts:
//!
//! * per-node counters;
//! * packet **outcome points** `(t, packet, flow, code)` for every
//!   terminated packet — the forensics ledger (flow up/down
//!   transitions, per-action drop census) is *derived at export* from
//!   the canonically sorted outcome list;
//! * **hop points** (one [`FlowSpan`] each) for sampled packets only,
//!   canonically sorted at export.
//!
//! Scripted-action forensic entries are derived from the scenario
//! itself, not from runtime hooks. Nothing in the snapshot depends on
//! wall-clock time or on how cells are spread over workers.

use crate::link::LinkOffer;
use crate::net::{HopOutcome, NetAction, NetPacket, NetworkSim};
use crate::stats::NetDropCause;
use dra_router::components::ComponentKind;
use dra_telemetry::{
    is_sampled, FlowSpan, ForensicEntry, ForensicKind, NetScopeSnapshot, NodeCounters, SpanKind,
    TraceEvent, NET_DROP_CAUSES,
};

/// One packet termination: `(sim_time, packet, flow, code)` with
/// `code` 0 = delivered, `cause_index + 1` = dropped.
type Outcome = (f64, u64, u32, u8);

/// Preallocated outcome capacity: terminations up to this count do not
/// grow the vector, keeping the steady-state hot path allocation-free
/// for the workloads the no-alloc tests pin (growth beyond is
/// amortized doubling, not per-event allocation).
const OUTCOMES_PREALLOC: usize = 65_536;

/// Per-run network-scope collector, installed on a [`NetworkSim`] by
/// [`NetworkSim::enable_net_telemetry`].
#[derive(Debug)]
pub(crate) struct NetTele {
    /// Per-node counters, indexed by node id.
    nodes: Vec<NodeCounters>,
    /// Lifecycle sampling modulus for hop points (0 = spans off).
    sample_every: u64,
    /// Every packet termination (delivered and dropped).
    outcomes: Vec<Outcome>,
    /// Hop points of sampled packets (already in [`FlowSpan`] form).
    points: Vec<FlowSpan>,
}

impl NetTele {
    fn new(n_nodes: usize, sample_every: u64) -> NetTele {
        NetTele {
            nodes: vec![NodeCounters::default(); n_nodes],
            sample_every,
            outcomes: Vec::with_capacity(OUTCOMES_PREALLOC),
            points: Vec::new(),
        }
    }

    /// Record a sampled packet's span (no-op for unsampled packets).
    #[inline]
    fn point(&mut self, pkt: &NetPacket, node: u32, t0: f64, t1: f64, kind: SpanKind, aux: u32) {
        if is_sampled(pkt.id, self.sample_every) {
            self.points.push(FlowSpan {
                packet: pkt.id,
                flow: pkt.flow,
                node,
                t0,
                t1,
                kind,
                aux,
            });
        }
    }

    /// A drop of `pkt` at `node`: counter, outcome point, drop span.
    #[inline]
    fn dropped(&mut self, now: f64, node: u32, pkt: &NetPacket, cause: NetDropCause) {
        self.nodes[node as usize].drops[cause.index()] += 1;
        self.outcomes
            .push((now, pkt.id, pkt.flow, cause.index() as u8 + 1));
        self.point(pkt, node, now, now, SpanKind::Drop, cause.index() as u32);
    }

    /// A `Transit` event resolved to `outcome` at `now` on `node`.
    /// Call with the *post-hop* packet (hop count already advanced).
    #[inline]
    pub(crate) fn transit_outcome(
        &mut self,
        now: f64,
        node: u32,
        pkt: &NetPacket,
        outcome: &HopOutcome,
        node_transit_s: f64,
    ) {
        self.nodes[node as usize].transits += 1;
        match *outcome {
            HopOutcome::Drop(cause) => self.dropped(now, node, pkt, cause),
            HopOutcome::Deliver { delay_s } | HopOutcome::Forward { delay_s, .. } => {
                // Covered transits are inferred from the delay: the
                // EIB serialization charge strictly exceeds the
                // healthy transit time, and nothing else inflates it.
                if delay_s > node_transit_s {
                    self.nodes[node as usize].covered += 1;
                }
                self.point(pkt, node, now, now + delay_s, SpanKind::Transit, 0);
            }
        }
    }

    /// A `Forward` event resolved against the link at `now`.
    #[inline]
    pub(crate) fn forward_outcome(
        &mut self,
        now: f64,
        node: u32,
        out_port: u16,
        pkt: &NetPacket,
        offer: &LinkOffer,
    ) {
        match *offer {
            LinkOffer::Sent { delay_s } => {
                self.nodes[node as usize].forwards += 1;
                self.point(
                    pkt,
                    node,
                    now,
                    now + delay_s,
                    SpanKind::Link,
                    out_port as u32,
                );
            }
            LinkOffer::Down => self.dropped(now, node, pkt, NetDropCause::LinkDown),
            LinkOffer::Congested => self.dropped(now, node, pkt, NetDropCause::LinkCongested),
        }
    }

    /// A `Deliver` event at the destination host port.
    #[inline]
    pub(crate) fn delivered(&mut self, now: f64, node: u32, pkt: &NetPacket) {
        self.nodes[node as usize].delivered += 1;
        self.outcomes.push((now, pkt.id, pkt.flow, 0));
        self.point(pkt, node, now, now, SpanKind::Deliver, pkt.hops as u32);
    }

    /// Build the snapshot and the Perfetto trace. `scenario` must be
    /// the run's time-ordered fault timeline; actions scheduled past
    /// `horizon_s` never fired and are excluded. `pid_base` offsets
    /// the per-router trace tracks (the engine uses
    /// `cell_index * 4096` so cells do not collide); `arrow_base`
    /// salts flow-arrow ids the same way.
    pub(crate) fn export(
        mut self,
        scenario: &[(f64, NetAction)],
        horizon_s: f64,
        pid_base: u32,
        arrow_base: u64,
    ) -> NetTeleReport {
        self.outcomes
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut forensics = derive_forensics(scenario, horizon_s, &self.outcomes);
        apply_action_counters(&mut self.nodes, scenario, horizon_s);
        forensics.sort_unstable_by(ForensicEntry::cmp_canonical);
        let mut spans = self.points;
        spans.sort_unstable_by(FlowSpan::cmp_canonical);
        let trace = build_trace(&spans, pid_base, arrow_base);
        let snapshot = NetScopeSnapshot {
            cells_merged: 1,
            drop_causes: NetDropCause::ALL.iter().map(|c| c.name()).collect(),
            nodes: self.nodes,
            forensics,
            spans,
            frozen: dra_telemetry::snapshot().and_then(|s| s.anomaly),
        };
        NetTeleReport { snapshot, trace }
    }
}

/// One run's exported observability: the mergeable snapshot plus the
/// Perfetto trace events (one track per router, flow arrows between).
#[derive(Debug)]
pub struct NetTeleReport {
    /// Counters, forensics ledger, sampled spans, frozen window.
    pub snapshot: NetScopeSnapshot,
    /// Chrome `trace_event` records, canonical order — serialize with
    /// [`dra_telemetry::chrome_trace_json`].
    pub trace: Vec<TraceEvent>,
}

/// Human-readable label of one scripted action.
fn action_label(action: &NetAction) -> String {
    match *action {
        NetAction::FailComponent { node, lc, kind } => {
            let unit = match kind {
                ComponentKind::Piu => "piu",
                ComponentKind::Pdlu => "pdlu",
                ComponentKind::Sru => "sru",
                ComponentKind::Lfe => "lfe",
                ComponentKind::BusController => "bus-controller",
            };
            format!("fail-{unit} node{node}/lc{lc}")
        }
        NetAction::RepairLc { node, lc } => format!("repair-lc node{node}/lc{lc}"),
        NetAction::FailEib { node } => format!("fail-eib node{node}"),
        NetAction::RepairEib { node } => format!("repair-eib node{node}"),
        NetAction::FailLink { a, b } => format!("fail-link {a}-{b}"),
        NetAction::RepairLink { a, b } => format!("repair-link {a}-{b}"),
    }
}

/// Credit scripted actions to the routers they touch (cables touch
/// both endpoints). Derived from the scenario, not runtime hooks.
fn apply_action_counters(
    nodes: &mut [NodeCounters],
    scenario: &[(f64, NetAction)],
    horizon_s: f64,
) {
    for (at, action) in scenario {
        if *at > horizon_s {
            continue;
        }
        match *action {
            NetAction::FailComponent { node, .. }
            | NetAction::RepairLc { node, .. }
            | NetAction::FailEib { node }
            | NetAction::RepairEib { node } => nodes[node as usize].actions += 1,
            NetAction::FailLink { a, b } | NetAction::RepairLink { a, b } => {
                nodes[a as usize].actions += 1;
                nodes[b as usize].actions += 1;
            }
        }
    }
}

/// Derive the forensics ledger from the scenario and the sorted
/// outcome list: one `Action` entry per fired action (with the
/// cumulative drop census at that instant) and `FlowDown`/`FlowUp`
/// entries at every per-flow availability transition.
fn derive_forensics(
    scenario: &[(f64, NetAction)],
    horizon_s: f64,
    sorted_outcomes: &[Outcome],
) -> Vec<ForensicEntry> {
    let mut out = Vec::new();
    // Scenario is time-ordered, outcomes are sorted: one cumulative
    // census cursor serves every action.
    let mut census = [0u64; NET_DROP_CAUSES];
    let mut cursor = 0usize;
    for (at, action) in scenario {
        if *at > horizon_s {
            continue;
        }
        while cursor < sorted_outcomes.len() && sorted_outcomes[cursor].0 <= *at {
            let code = sorted_outcomes[cursor].3;
            if code > 0 {
                census[(code - 1) as usize] += 1;
            }
            cursor += 1;
        }
        out.push(ForensicEntry {
            t: *at,
            kind: ForensicKind::Action,
            flow: u32::MAX,
            cause: u32::MAX,
            label: action_label(action),
            drops_at: census,
        });
    }
    // Per-flow availability state machine: flows start up; the first
    // drop while up emits FlowDown, the first delivery while down
    // emits FlowUp.
    let n_flows = sorted_outcomes
        .iter()
        .map(|o| o.2 as usize + 1)
        .max()
        .unwrap_or(0);
    let mut up = vec![true; n_flows];
    for &(t, _pkt, flow, code) in sorted_outcomes {
        let f = flow as usize;
        if code == 0 {
            if !up[f] {
                up[f] = true;
                out.push(ForensicEntry {
                    t,
                    kind: ForensicKind::FlowUp,
                    flow,
                    cause: u32::MAX,
                    label: String::new(),
                    drops_at: [0; NET_DROP_CAUSES],
                });
            }
        } else if up[f] {
            up[f] = false;
            out.push(ForensicEntry {
                t,
                kind: ForensicKind::FlowDown,
                flow,
                cause: (code - 1) as u32,
                label: String::new(),
                drops_at: [0; NET_DROP_CAUSES],
            });
        }
    }
    out
}

/// Perfetto-facing name of a drop span.
fn drop_trace_name(cause_index: u32) -> &'static str {
    match NetDropCause::ALL.get(cause_index as usize) {
        Some(NetDropCause::IngressDown) => "drop:ingress_down",
        Some(NetDropCause::EgressDown) => "drop:egress_down",
        Some(NetDropCause::FabricDown) => "drop:fabric_down",
        Some(NetDropCause::NoRoute) => "drop:no_route",
        Some(NetDropCause::LinkDown) => "drop:link_down",
        Some(NetDropCause::LinkCongested) => "drop:link_congested",
        Some(NetDropCause::CoverageSaturated) => "drop:coverage_saturated",
        Some(NetDropCause::TtlExceeded) => "drop:ttl_exceeded",
        None => "drop",
    }
}

/// Turn canonically sorted spans into Chrome trace events: `'X'`
/// spans on per-router tracks (`pid = pid_base + node`, `tid` =
/// packet), `'i'` markers for deliveries/drops, and `'s'`/`'f'` flow
/// arrows from each link span to the transit it feeds.
fn build_trace(spans: &[FlowSpan], pid_base: u32, arrow_base: u64) -> Vec<TraceEvent> {
    const US: f64 = 1e6;
    let mut trace = Vec::with_capacity(spans.len() * 2);
    let mut i = 0;
    while i < spans.len() {
        let packet = spans[i].packet;
        let mut j = i;
        while j < spans.len() && spans[j].packet == packet {
            j += 1;
        }
        let mut arrow = 0u64;
        for k in i..j {
            let s = &spans[k];
            let (ph, name, dur_us) = match s.kind {
                SpanKind::Transit => ('X', "transit", (s.t1 - s.t0) * US),
                SpanKind::Link => ('X', "link", (s.t1 - s.t0) * US),
                SpanKind::Deliver => ('i', "deliver", 0.0),
                SpanKind::Drop => ('i', drop_trace_name(s.aux), 0.0),
            };
            trace.push(TraceEvent {
                name,
                ph,
                ts_us: s.t0 * US,
                dur_us,
                pid: pid_base + s.node,
                tid: s.packet as u32,
                packet: s.packet,
                id: 0,
            });
            if s.kind == SpanKind::Link && k + 1 < j {
                // Arrow from inside the link span to the start of the
                // packet's next span (the transit at the peer).
                let n = &spans[k + 1];
                let id = arrow_base | (packet << 6) | arrow;
                arrow += 1;
                trace.push(TraceEvent {
                    name: "hop",
                    ph: 's',
                    ts_us: s.t0 * US,
                    dur_us: 0.0,
                    pid: pid_base + s.node,
                    tid: s.packet as u32,
                    packet,
                    id,
                });
                trace.push(TraceEvent {
                    name: "hop",
                    ph: 'f',
                    ts_us: n.t0 * US,
                    dur_us: 0.0,
                    pid: pid_base + n.node,
                    tid: n.packet as u32,
                    packet,
                    id,
                });
            }
        }
        i = j;
    }
    trace
}

impl NetworkSim {
    /// Install the network-scope telemetry collector on this run.
    ///
    /// `sample_every` is the 1-in-N lifecycle sampling modulus for
    /// hop-resolved flow spans (0 records no spans; counters and the
    /// forensics ledger are collected regardless). Collection observes
    /// the simulation and never steers it: results stay byte-identical
    /// with the collector on or off.
    pub fn enable_net_telemetry(&mut self, sample_every: u64) {
        self.tele = Some(Box::new(NetTele::new(self.topo.n_nodes(), sample_every)));
    }

    /// Export and remove the collector installed by
    /// [`enable_net_telemetry`](NetworkSim::enable_net_telemetry);
    /// `None` when no collector is installed. Call on the finished
    /// simulation returned by [`run`](NetworkSim::run).
    ///
    /// `horizon_s` bounds which scripted actions are reported (those
    /// scheduled later never fired). `pid_base`/`arrow_base` offset
    /// Perfetto track ids and flow-arrow ids so traces from multiple
    /// cells/replications can be concatenated without collisions.
    pub fn export_net_telemetry(
        &mut self,
        horizon_s: f64,
        pid_base: u32,
        arrow_base: u64,
    ) -> Option<NetTeleReport> {
        let tele = self.tele.take()?;
        Some(tele.export(&self.scenario, horizon_s, pid_base, arrow_base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{Flow, NetConfig, NetScenario, NetworkSim};
    use crate::routes::RouteTables;
    use crate::topology::{Topology, TopologyKind};
    use dra_core::handle::ArchKind;

    fn mesh_net() -> NetworkSim {
        let topo = Topology::build(TopologyKind::Mesh2D { rows: 3, cols: 3 });
        let cfg = NetConfig {
            traffic_stop_s: 6e-3,
            ..NetConfig::default()
        };
        let flows = vec![
            Flow {
                src: 0,
                dst: 8,
                rate_pps: 30_000.0,
            },
            Flow {
                src: 6,
                dst: 2,
                rate_pps: 30_000.0,
            },
        ];
        let mut net = NetworkSim::new(topo, ArchKind::Dra, cfg, flows, 0xBEEF);
        net.set_scenario(&NetScenario::new().at(2e-3, NetAction::FailLink { a: 0, b: 1 }));
        net
    }

    const HORIZON: f64 = 8e-3;

    #[test]
    fn serial_export_agrees_with_stats() {
        let mut net = mesh_net();
        net.enable_net_telemetry(1); // sample every packet
        let mut done = net.run(7, HORIZON);
        let stats = done.stats.clone();
        let report = done.export_net_telemetry(HORIZON, 0, 0).expect("collector");
        let snap = &report.snapshot;
        let delivered: u64 = snap.nodes.iter().map(|n| n.delivered).sum();
        assert_eq!(delivered, stats.delivered);
        for (i, _) in NetDropCause::ALL.iter().enumerate() {
            let by_node: u64 = snap.nodes.iter().map(|n| n.drops[i]).sum();
            assert_eq!(by_node, stats.drops[i], "cause {i}");
        }
        // Every termination produced exactly one outcome-derived fact:
        // forensics has the scripted action, and the census on it only
        // counts drops before the cut.
        let action = snap
            .forensics
            .iter()
            .find(|e| e.kind == ForensicKind::Action)
            .expect("action entry");
        assert_eq!(action.label, "fail-link 0-1");
        assert!(action.drops_at.iter().sum::<u64>() <= stats.dropped_total());
        // The cut severs flow 0's only shortest path segment 0->1
        // until rerouting is impossible (static FIBs): flow 0 goes
        // down and never comes back up, so a FlowDown entry exists.
        assert!(snap
            .forensics
            .iter()
            .any(|e| e.kind == ForensicKind::FlowDown));
        // Sampling every packet: spans cover every delivered packet.
        assert!(snap.spans.iter().any(|s| s.kind == SpanKind::Deliver));
        // Link-cut drops appear on the cable endpoints' trace names.
        let json = dra_telemetry::chrome_trace_json(&report.trace);
        assert!(json.contains("\"name\":\"transit\""));
        assert!(json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\""));
        // Actions are credited to both cable endpoints.
        assert_eq!(snap.nodes[0].actions, 1);
        assert_eq!(snap.nodes[1].actions, 1);
    }

    #[test]
    fn sampled_spans_follow_the_static_routes() {
        // Healthy 4x4 mesh, every packet sampled: each delivered
        // packet's spans must retrace the route-table path of its
        // flow, hop by hop, with no span starting before the previous
        // one ends.
        let topo = Topology::build(TopologyKind::Mesh2D { rows: 4, cols: 4 });
        let routes = RouteTables::derive(&topo);
        let cfg = NetConfig {
            traffic_stop_s: 4e-3,
            ..NetConfig::default()
        };
        let flows: Vec<Flow> = [(0, 15), (3, 12), (5, 10), (14, 1), (9, 6)]
            .into_iter()
            .map(|(src, dst)| Flow {
                src,
                dst,
                rate_pps: 40_000.0,
            })
            .collect();
        let mut net = NetworkSim::new(topo, ArchKind::Dra, cfg, flows.clone(), 0xACE);
        net.enable_net_telemetry(1);
        let mut done = net.run(11, 6e-3);
        assert_eq!(done.stats.delivered, done.stats.injected, "healthy mesh");
        let report = done.export_net_telemetry(6e-3, 0, 0).expect("collector");
        let spans = &report.snapshot.spans;
        let mut checked = 0u64;
        for packet in spans.chunk_by(|a, b| a.packet == b.packet) {
            if !packet.iter().any(|s| s.kind == SpanKind::Deliver) {
                continue;
            }
            let mut packet = packet.to_vec();
            packet.sort_by(|a, b| a.t0.total_cmp(&b.t0));
            let flow = flows[packet[0].flow as usize];
            let hops = routes.hops(&done.topo, flow.src, flow.dst);
            let mut path = vec![flow.src];
            while let Some(&at) = path.last().filter(|&&at| at != flow.dst) {
                let port = routes.next_port[at as usize][flow.dst as usize];
                path.push(done.topo.adj[at as usize][port as usize]);
            }
            let transits: Vec<u32> = packet
                .iter()
                .filter(|s| s.kind == SpanKind::Transit)
                .map(|s| s.node)
                .collect();
            let links = packet.iter().filter(|s| s.kind == SpanKind::Link).count();
            assert_eq!(transits, path, "packet {}: transit nodes", packet[0].packet);
            assert_eq!(transits.len(), hops + 1, "one transit per router");
            assert_eq!(links, hops, "one link span per route hop");
            for w in packet.windows(2) {
                assert!(
                    w[1].t0 >= w[0].t1,
                    "packet {}: span at {} starts before the previous ends at {}",
                    w[1].packet,
                    w[1].t0,
                    w[0].t1
                );
            }
            checked += 1;
        }
        assert_eq!(checked, done.stats.delivered, "every delivery checked");
    }

    #[test]
    fn forensics_flow_transitions_pair_up() {
        // Down then up again: cut a cable, then repair it.
        let topo = Topology::build(TopologyKind::Mesh2D { rows: 2, cols: 2 });
        let cfg = NetConfig {
            traffic_stop_s: 9e-3,
            ..NetConfig::default()
        };
        let flows = vec![Flow {
            src: 0,
            dst: 1,
            rate_pps: 50_000.0,
        }];
        let mut net = NetworkSim::new(topo, ArchKind::Dra, cfg, flows, 0x5EED);
        net.set_scenario(
            &NetScenario::new()
                .at(2e-3, NetAction::FailLink { a: 0, b: 1 })
                .at(3e-3, NetAction::FailLink { a: 0, b: 2 })
                .at(5e-3, NetAction::RepairLink { a: 0, b: 1 }),
        );
        net.enable_net_telemetry(0); // counters + forensics only
        let mut done = net.run(3, 10e-3);
        let report = done.export_net_telemetry(10e-3, 0, 0).expect("collector");
        let snap = report.snapshot;
        let downs = snap
            .forensics
            .iter()
            .filter(|e| e.kind == ForensicKind::FlowDown)
            .count();
        let ups = snap
            .forensics
            .iter()
            .filter(|e| e.kind == ForensicKind::FlowUp)
            .count();
        assert!(downs >= 1, "isolating node 0 must take flow 0 down");
        assert!(ups >= 1, "repairing 0-1 must bring flow 0 back up");
        // Transitions alternate by construction; sampling off means no
        // spans were collected.
        assert!(snap.spans.is_empty());
        assert_eq!(snap.cells_merged, 1);
    }
}
