//! The network-of-routers DES model.
//!
//! [`NetworkSim`] co-simulates N routers — each a
//! [`RouterHandle`]-wrapped BDR or DRA simulation — on one shared
//! [`dra_des`] clock. End-to-end packets hop router → link → router:
//! at every transit the owning router is lazily advanced to "now", its
//! current linecard serviceability consulted (so faults in a router's
//! private timeline shape network forwarding), the node's
//! topology-derived DIR-24-8 FIB resolves the egress port, and the
//! link model charges serialization + propagation.
//!
//! Fault surfaces, composed exactly as the single-router layer defines
//! them:
//! * **BDR** — any failed unit on a linecard removes that port from
//!   service; transit through it drops.
//! * **DRA** — PDLU/SRU/LFE failures are EIB-covered when a helper
//!   card exists; covered transits pay an EIB serialization charge
//!   against a per-node promised-bandwidth budget and drop as
//!   [`NetDropCause::CoverageSaturated`] when it oversubscribes.
//! * **Links** — fail as whole cables (both directions) and tail-drop
//!   on serialization backlog.
//!
//! Determinism: the only RNG draws are flow inter-arrival times on the
//! network simulation's own seeded RNG; embedded routers draw from
//! private [`node_seed`](crate::seeds::node_seed) streams; everything
//! else is pure state. One seed ⇒ one event history.

use crate::link::{LinkArena, LinkConfig, LinkOffer};
use crate::routes::{compile_fibs, node_addr, RouteTables};
use crate::stats::{NetDropCause, NetStats};
use crate::topology::Topology;
use dra_core::handle::{ArchKind, RouterHandle};
use dra_core::scenario::{Action, Scenario};
use dra_des::random::exponential;
use dra_des::sim::{Ctx, Model, Simulation};
use dra_net::fib::{Dir248Fib, Fib};
use dra_router::bdr::BdrConfig;
use dra_router::components::ComponentKind;
use dra_telemetry as tm;

/// One end-to-end flow: Poisson packet arrivals from `src`'s host
/// port to `dst`'s host port.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Source node.
    pub src: u32,
    /// Destination node (≠ `src`).
    pub dst: u32,
    /// Mean packet rate, packets per second.
    pub rate_pps: f64,
}

/// Network-level model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Link parameters (uniform).
    pub link: LinkConfig,
    /// Healthy per-router transit delay (lookup + fabric), seconds.
    pub node_transit_s: f64,
    /// EIB promised bandwidth available to covered transit at one
    /// node, bits per second.
    pub coverage_bps: f64,
    /// Backlog bound of the per-node coverage budget, seconds.
    pub coverage_backlog_s: f64,
    /// End-to-end packet size, bytes.
    pub packet_bytes: u32,
    /// Flow injection stops at this time (the remainder of the
    /// horizon drains the network).
    pub traffic_stop_s: f64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            link: LinkConfig::default(),
            node_transit_s: 2e-6,
            coverage_bps: 20e9,
            coverage_backlog_s: 200e-6,
            packet_bytes: 700,
            traffic_stop_s: f64::MAX,
        }
    }
}

/// A network-level fault action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetAction {
    /// Fail one unit of one linecard of one router.
    FailComponent {
        /// Target router.
        node: u32,
        /// Target linecard (port).
        lc: u16,
        /// Unit to fail.
        kind: ComponentKind,
    },
    /// Hot-swap repair a linecard.
    RepairLc {
        /// Target router.
        node: u32,
        /// Target linecard.
        lc: u16,
    },
    /// Fail a router's EIB (DRA only; no-op on BDR).
    FailEib {
        /// Target router.
        node: u32,
    },
    /// Repair a router's EIB.
    RepairEib {
        /// Target router.
        node: u32,
    },
    /// Cut the cable between `a` and `b` (both directions).
    FailLink {
        /// One endpoint.
        a: u32,
        /// The other endpoint.
        b: u32,
    },
    /// Restore the cable between `a` and `b`.
    RepairLink {
        /// One endpoint.
        a: u32,
        /// The other endpoint.
        b: u32,
    },
}

/// A time-ordered network fault timeline.
#[derive(Debug, Clone, Default)]
pub struct NetScenario {
    events: Vec<(f64, NetAction)>,
}

impl NetScenario {
    /// Empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `action` at `at_s` (builder style).
    pub fn at(mut self, at_s: f64, action: NetAction) -> Self {
        assert!(at_s.is_finite() && at_s >= 0.0);
        self.events.push((at_s, action));
        self
    }

    /// The scripted events, in insertion order.
    pub fn events(&self) -> &[(f64, NetAction)] {
        &self.events
    }

    fn ordered(&self) -> Vec<(f64, NetAction)> {
        let mut ev = self.events.clone();
        ev.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        ev
    }
}

/// An end-to-end packet in flight.
///
/// Sized to ride the hot path: 24 bytes, so every event that carries
/// one stays within half a cache line (the static asserts below pin
/// the event payload budget).
#[derive(Debug, Clone, Copy)]
pub struct NetPacket {
    /// Injection-order id (also salts the destination host address).
    pub id: u64,
    /// Injection timestamp.
    pub injected_at: f64,
    /// Owning flow index.
    pub flow: u32,
    /// Destination node (node ids fit `u16`; `node_prefix` asserts
    /// the same bound when deriving addresses).
    pub dst: u16,
    /// Router transits so far, the current one included.
    pub hops: u16,
}

// The per-event payload budget the hot-path overhaul pays for: a
// packet is 24 bytes and no event in the serial alphabet exceeds 40.
const _: () = assert!(std::mem::size_of::<NetPacket>() == 24);
const _: () = assert!(std::mem::size_of::<NetEvent>() <= 40);

/// Event alphabet of the network model.
#[derive(Debug, Clone)]
pub enum NetEvent {
    /// Kick off flows and the fault timeline.
    Start,
    /// Next arrival of one flow.
    FlowNext {
        /// Flow index.
        flow: u32,
    },
    /// A packet begins transit at `node`, having arrived on `in_port`.
    Transit {
        /// The packet.
        pkt: NetPacket,
        /// Transit router.
        node: u32,
        /// Arrival port (= ingress linecard).
        in_port: u16,
    },
    /// A packet cleared `node`'s transit and enters the link at
    /// `out_port`.
    Forward {
        /// The packet.
        pkt: NetPacket,
        /// Forwarding router.
        node: u32,
        /// Egress port.
        out_port: u16,
    },
    /// A packet reaches its destination's host port.
    Deliver {
        /// The packet.
        pkt: NetPacket,
    },
    /// Apply scripted network action `idx`.
    Act {
        /// Index into the ordered scenario.
        idx: u32,
    },
}

/// One scripted action with every topology lookup already resolved —
/// what [`NetworkSim::set_scenario`] compiles a [`NetAction`] into, so
/// applying a link action on the hot timeline costs two indexed
/// stores instead of two `port_between` binary searches.
#[derive(Debug, Clone)]
enum CompiledNetAction {
    /// Forwarded to one router's private timeline.
    Router {
        /// Target router.
        node: u32,
        /// The single-router action to apply.
        action: Action,
    },
    /// Both directions of one cable, as resolved `(node, port)` pairs.
    Cable {
        /// One endpoint.
        a: u32,
        /// `a`'s port toward `b`.
        pa: u16,
        /// The other endpoint.
        b: u32,
        /// `b`'s port toward `a`.
        pb: u16,
        /// New up/down state for both directions.
        up: bool,
    },
}

/// Resolve one [`NetAction`] against the topology (see
/// [`CompiledNetAction`]).
fn compile_net_action(topo: &Topology, action: NetAction) -> CompiledNetAction {
    let port_between = |a: u32, b: u32| -> u16 {
        topo.adj[a as usize]
            .binary_search(&b)
            .unwrap_or_else(|_| panic!("no link {a}-{b}")) as u16
    };
    match action {
        NetAction::FailComponent { node, lc, kind } => CompiledNetAction::Router {
            node,
            action: Action::FailComponent(lc, kind),
        },
        NetAction::RepairLc { node, lc } => CompiledNetAction::Router {
            node,
            action: Action::RepairLc(lc),
        },
        NetAction::FailEib { node } => CompiledNetAction::Router {
            node,
            action: Action::FailEib,
        },
        NetAction::RepairEib { node } => CompiledNetAction::Router {
            node,
            action: Action::RepairEib,
        },
        NetAction::FailLink { a, b } => CompiledNetAction::Cable {
            a,
            pa: port_between(a, b),
            b,
            pb: port_between(b, a),
            up: false,
        },
        NetAction::RepairLink { a, b } => CompiledNetAction::Cable {
            a,
            pa: port_between(a, b),
            b,
            pb: port_between(b, a),
            up: true,
        },
    }
}

/// The co-simulated network.
pub struct NetworkSim {
    /// The graph.
    pub topo: Topology,
    /// Per-node topology-derived FIBs.
    fibs: Vec<Dir248Fib>,
    /// Per-node router handles.
    nodes: Vec<RouterHandle>,
    /// Every directed link, flat, indexed by `(node, port)`.
    links: LinkArena,
    /// Per-node EIB coverage budget (fluid queue drain time).
    covered_busy: Vec<f64>,
    /// Forwards a packet may make: the longest min-hop route. Only a
    /// routing bug exceeds it; such a packet drops as
    /// [`NetDropCause::TtlExceeded`].
    hop_budget: u16,
    /// Flows.
    flows: Vec<Flow>,
    /// Ordered network fault timeline.
    pub(crate) scenario: Vec<(f64, NetAction)>,
    /// `scenario` with topology lookups resolved (same indexing).
    compiled: Vec<CompiledNetAction>,
    /// Model parameters.
    pub cfg: NetConfig,
    /// Composed metrics.
    pub stats: NetStats,
    next_pkt_id: u64,
    /// Network-scope telemetry collector (installed by
    /// [`NetworkSim::enable_net_telemetry`]; `None` = off). Boxed so
    /// the disabled hot path pays one pointer, not the collector.
    pub(crate) tele: Option<Box<crate::telemetry::NetTele>>,
}

impl NetworkSim {
    /// Build a network of `arch` routers on `topo`.
    ///
    /// Each node's router gets `degree + 1` linecards (one per link
    /// plus the host port, minimum 3), no internal traffic, and a
    /// private seed from [`node_seed`](crate::seeds::node_seed)
    /// `(router_seed_base, node)`.
    pub fn new(
        topo: Topology,
        arch: ArchKind,
        cfg: NetConfig,
        flows: Vec<Flow>,
        router_seed_base: u64,
    ) -> NetworkSim {
        for f in &flows {
            assert!(f.src != f.dst, "flow src == dst");
            assert!((f.src as usize) < topo.n_nodes() && (f.dst as usize) < topo.n_nodes());
            assert!(f.rate_pps > 0.0);
        }
        let routes = RouteTables::derive(&topo);
        let fibs = compile_fibs(&topo, &routes);
        let hop_budget = u16::try_from(routes.max_hops).expect("diameter < node count ≤ 2^16");
        let nodes = (0..topo.n_nodes() as u32)
            .map(|n| {
                let base = BdrConfig {
                    n_lcs: topo.n_lcs(n),
                    ..BdrConfig::default()
                };
                RouterHandle::quiescent(
                    arch,
                    base,
                    crate::seeds::node_seed(router_seed_base, n as u64),
                )
            })
            .collect();
        let links = LinkArena::from_degrees(topo.adj.iter().map(Vec::len), cfg.link.latency_s);
        let n_flows = flows.len();
        let covered_busy = vec![0.0; topo.n_nodes()];
        NetworkSim {
            topo,
            fibs,
            nodes,
            links,
            covered_busy,
            hop_budget,
            flows,
            scenario: Vec::new(),
            compiled: Vec::new(),
            cfg,
            stats: NetStats::new(n_flows),
            next_pkt_id: 0,
            tele: None,
        }
    }

    /// Attach the network fault timeline (replaces any previous one),
    /// compiling every action's topology lookups — link endpoints to
    /// `(node, port)` pairs — once, here, instead of per application.
    pub fn set_scenario(&mut self, scenario: &NetScenario) {
        self.scenario = scenario.ordered();
        self.compiled = self
            .scenario
            .iter()
            .map(|&(_, a)| compile_net_action(&self.topo, a))
            .collect();
    }

    /// Override the propagation latency of the cable between `a` and
    /// `b` (both directions).
    pub fn set_link_latency(&mut self, a: u32, b: u32, latency_s: f64) {
        assert!(
            latency_s.is_finite() && latency_s > 0.0,
            "link latency must be positive and finite, got {latency_s}"
        );
        let pab = self.port_between(a, b);
        let pba = self.port_between(b, a);
        self.links.at_mut(a, pab).latency_s = latency_s;
        self.links.at_mut(b, pba).latency_s = latency_s;
    }

    /// Attach a per-router fault timeline (e.g. sampled from a
    /// [`FaultProcess`](dra_core::scenario::FaultProcess) on the
    /// node's private seed stream) to `node`.
    pub fn set_node_fault_schedule(&mut self, node: u32, timeline: &Scenario) {
        self.nodes[node as usize].set_fault_schedule(timeline);
    }

    /// Immutable access to a node's router handle.
    pub fn node(&self, node: u32) -> &RouterHandle {
        &self.nodes[node as usize]
    }

    /// The flows driving this network.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Wrap in a seeded simulation with `Start` queued at t = 0.
    pub fn simulation(self, seed: u64) -> Simulation<NetworkSim> {
        let mut sim = Simulation::new(self, seed);
        sim.schedule(0.0, NetEvent::Start);
        sim
    }

    /// Run the network to `horizon` on the DES kernel and return the
    /// finished model.
    pub fn run(self, seed: u64, horizon: f64) -> NetworkSim {
        let mut sim = self.simulation(seed);
        sim.run_until(horizon);
        sim.into_model()
    }

    /// Conservation-ledger guard: a packet terminating
    /// while the ledger believes nothing is in flight is the
    /// double-count/leak the ledger exists to catch — freeze the
    /// flight-recorder window right there (first violation wins; the
    /// frozen window surfaces in the exported snapshot).
    #[inline]
    fn conservation_guard(&self) {
        if self.stats.in_flight == 0 {
            tm::anomaly("net: conservation ledger violation (terminate without inject)");
        }
    }

    /// A packet dies at `node`: ring event, ledger guard, drop census.
    fn drop_at(&mut self, pkt_id: u64, node: u32, cause: NetDropCause) {
        tm::event(tm::EventKind::NetDrop, pkt_id, node, cause.index() as u32);
        self.conservation_guard();
        self.stats.drop_packet(cause)
    }

    fn port_between(&self, a: u32, b: u32) -> u16 {
        self.topo.adj[a as usize]
            .binary_search(&b)
            .unwrap_or_else(|_| panic!("no link {a}-{b}")) as u16
    }

    /// Apply scripted action `idx` (precompiled — no topology searches
    /// on the event path; cable endpoints apply `a` then `b`, the same
    /// order the uncompiled path always used).
    fn apply_net_action(&mut self, idx: usize, now: f64) {
        match self.compiled[idx].clone() {
            CompiledNetAction::Router { node, action } => {
                let h = &mut self.nodes[node as usize];
                h.advance_to(now);
                h.apply(&action);
            }
            CompiledNetAction::Cable { a, pa, b, pb, up } => {
                self.links.at_mut(a, pa).set_up(up);
                self.links.at_mut(b, pb).set_up(up);
            }
        }
    }

    /// One router transit: health checks, FIB lookup, coverage
    /// charge; schedules `Deliver` or `Forward`, or drops.
    fn transit(
        &mut self,
        mut pkt: NetPacket,
        node: u32,
        in_port: u16,
        ctx: &mut Ctx<'_, NetEvent>,
    ) {
        tm::event(tm::EventKind::NetTransit, pkt.id, node, in_port as u32);
        let outcome = self.hop(node, ctx.now(), &mut pkt, in_port);
        let node_transit_s = self.cfg.node_transit_s;
        if let Some(t) = self.tele.as_deref_mut() {
            t.transit_outcome(ctx.now(), node, &pkt, &outcome, node_transit_s);
        }
        match outcome {
            HopOutcome::Drop(cause) => self.drop_at(pkt.id, node, cause),
            HopOutcome::Deliver { delay_s } => ctx.schedule(delay_s, NetEvent::Deliver { pkt }),
            HopOutcome::Forward { delay_s, out_port } => ctx.schedule(
                delay_s,
                NetEvent::Forward {
                    pkt,
                    node,
                    out_port,
                },
            ),
        }
    }

    /// The per-hop core: advance the router to `now`, run health
    /// checks and the FIB lookup, charge the EIB coverage budget, and
    /// decide the packet's fate. Mutates `pkt` (hop count). The
    /// operation *order* is load-bearing for byte-identical artifacts
    /// (e.g. the coverage budget is consumed before the hop-budget
    /// check).
    fn hop(&mut self, node: u32, now: f64, pkt: &mut NetPacket, in_port: u16) -> HopOutcome {
        let n = node as usize;
        let router = &mut self.nodes[n];
        let cfg = &self.cfg;
        pkt.hops += 1;
        router.advance_to(now);
        if !router.lc_serviceable(in_port) {
            return HopOutcome::Drop(NetDropCause::IngressDown);
        }
        let Some(out_port) = self.fibs[n].lookup(node_addr(pkt.dst as u32, pkt.id)) else {
            return HopOutcome::Drop(NetDropCause::NoRoute);
        };
        if !router.lc_serviceable(out_port) {
            return HopOutcome::Drop(NetDropCause::EgressDown);
        }
        if !router.fabric_operational() {
            return HopOutcome::Drop(NetDropCause::FabricDown);
        }
        let mut delay = cfg.node_transit_s;
        if router.lc_covered(in_port) || router.lc_covered(out_port) {
            // Covered transit detours over the EIB: serialize against
            // the node's promised-bandwidth budget.
            let covered_busy = &mut self.covered_busy[n];
            let start = covered_busy.max(now);
            let finish = start + cfg.packet_bytes as f64 * 8.0 / cfg.coverage_bps;
            if finish - now > cfg.coverage_backlog_s {
                return HopOutcome::Drop(NetDropCause::CoverageSaturated);
            }
            *covered_busy = finish;
            delay += finish - now;
        }
        if node == pkt.dst as u32 {
            HopOutcome::Deliver { delay_s: delay }
        } else {
            // Forward number `hops` of a min-hop route never exceeds
            // the diameter.
            if pkt.hops > self.hop_budget {
                return HopOutcome::Drop(NetDropCause::TtlExceeded);
            }
            HopOutcome::Forward {
                delay_s: delay,
                out_port,
            }
        }
    }
}

/// Outcome of one router transit, computed by [`NetworkSim::hop`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum HopOutcome {
    /// The packet dies at this hop.
    Drop(NetDropCause),
    /// This node is the destination; the host port sees it `delay_s`
    /// from now.
    Deliver {
        /// Transit (+ coverage) delay.
        delay_s: f64,
    },
    /// Forward out of `out_port` after `delay_s`.
    Forward {
        /// Transit (+ coverage) delay.
        delay_s: f64,
        /// Egress port toward the next hop.
        out_port: u16,
    },
}

impl Model for NetworkSim {
    type Event = NetEvent;

    fn handle(&mut self, event: NetEvent, ctx: &mut Ctx<'_, NetEvent>) {
        match event {
            NetEvent::Start => {
                for (idx, &(at, _)) in self.scenario.iter().enumerate() {
                    ctx.schedule(at, NetEvent::Act { idx: idx as u32 });
                }
                for flow in 0..self.flows.len() as u32 {
                    let dt = exponential(ctx.rng(), self.flows[flow as usize].rate_pps);
                    ctx.schedule(dt, NetEvent::FlowNext { flow });
                }
            }
            NetEvent::FlowNext { flow } => {
                if ctx.now() >= self.cfg.traffic_stop_s {
                    return; // injection window closed; don't reschedule
                }
                let f = self.flows[flow as usize];
                let dt = exponential(ctx.rng(), f.rate_pps);
                ctx.schedule(dt, NetEvent::FlowNext { flow });
                let pkt = NetPacket {
                    id: self.next_pkt_id,
                    injected_at: ctx.now(),
                    flow,
                    dst: f.dst as u16,
                    hops: 0,
                };
                self.next_pkt_id += 1;
                self.stats.inject(flow);
                let host = self.topo.host_port(f.src);
                self.transit(pkt, f.src, host, ctx);
            }
            NetEvent::Transit { pkt, node, in_port } => self.transit(pkt, node, in_port, ctx),
            NetEvent::Forward {
                pkt,
                node,
                out_port,
            } => {
                let offer = self.links.at_mut(node, out_port).offer(
                    &self.cfg.link,
                    ctx.now(),
                    self.cfg.packet_bytes,
                );
                if let Some(t) = self.tele.as_deref_mut() {
                    t.forward_outcome(ctx.now(), node, out_port, &pkt, &offer);
                }
                match offer {
                    LinkOffer::Down => self.drop_at(pkt.id, node, NetDropCause::LinkDown),
                    LinkOffer::Congested => self.drop_at(pkt.id, node, NetDropCause::LinkCongested),
                    LinkOffer::Sent { delay_s } => {
                        tm::event(tm::EventKind::NetForward, pkt.id, node, out_port as u32);
                        let peer = self.topo.adj[node as usize][out_port as usize];
                        let in_port = self.topo.rev_port[node as usize][out_port as usize];
                        ctx.schedule(
                            delay_s,
                            NetEvent::Transit {
                                pkt,
                                node: peer,
                                in_port,
                            },
                        );
                    }
                }
            }
            NetEvent::Deliver { pkt } => {
                tm::event(
                    tm::EventKind::NetDeliver,
                    pkt.id,
                    pkt.dst as u32,
                    pkt.hops as u32,
                );
                if let Some(t) = self.tele.as_deref_mut() {
                    t.delivered(ctx.now(), pkt.dst as u32, &pkt);
                }
                self.conservation_guard();
                self.stats
                    .deliver(pkt.flow, ctx.now() - pkt.injected_at, pkt.hops as u32);
            }
            NetEvent::Act { idx } => {
                let node = match &self.compiled[idx as usize] {
                    CompiledNetAction::Router { node, .. } => *node,
                    CompiledNetAction::Cable { a, .. } => *a,
                };
                tm::event(tm::EventKind::NetAct, 0, node, idx);
                self.apply_net_action(idx as usize, ctx.now())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyKind;

    fn small_net(arch: ArchKind) -> NetworkSim {
        let topo = Topology::build(TopologyKind::Mesh2D { rows: 3, cols: 3 });
        let cfg = NetConfig {
            traffic_stop_s: 5e-3,
            ..NetConfig::default()
        };
        let flows = vec![
            Flow {
                src: 0,
                dst: 8,
                rate_pps: 20_000.0,
            },
            Flow {
                src: 6,
                dst: 2,
                rate_pps: 20_000.0,
            },
        ];
        NetworkSim::new(topo, arch, cfg, flows, 0xBEEF)
    }

    #[test]
    fn healthy_network_delivers_everything() {
        for arch in [ArchKind::Bdr, ArchKind::Dra] {
            let mut sim = small_net(arch).simulation(42);
            sim.run_until(10e-3);
            let s = &sim.model().stats;
            assert!(s.injected > 50, "{arch:?}: {}", s.injected);
            assert_eq!(s.delivered, s.injected, "{arch:?}");
            assert_eq!(s.in_flight, 0, "{arch:?}");
            assert!(s.conserved());
            // Corner-to-corner on a 3x3 mesh: 4 links + 5 routers.
            assert!((s.hops.mean() - 5.0).abs() < 1e-9, "{}", s.hops.mean());
            assert!(s.latency.mean() > 4.0 * 10e-6, "4 propagation delays");
        }
    }

    #[test]
    fn identical_seeds_identical_histories() {
        let run = || {
            let mut sim = small_net(ArchKind::Dra).simulation(7);
            sim.run_until(10e-3);
            let s = &sim.model().stats;
            (s.injected, s.delivered, s.latency.mean())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn transit_router_failure_separates_architectures() {
        // Both flows transit node 1 (0→1→2→5→8 and 6→3→0→1→2 under
        // the lowest-id tie-break). Fail SRU on its even linecards at
        // t=1ms — port 0 faces node 0, so BDR drops transit arriving
        // from 0 while DRA covers the card over the EIB.
        let mut results = Vec::new();
        for arch in [ArchKind::Bdr, ArchKind::Dra] {
            let mut net = small_net(arch);
            let n_lcs = net.node(1).n_lcs() as u16;
            let mut sc = NetScenario::new();
            for lc in (0..n_lcs).step_by(2) {
                sc = sc.at(
                    1e-3,
                    NetAction::FailComponent {
                        node: 1,
                        lc,
                        kind: ComponentKind::Sru,
                    },
                );
            }
            net.set_scenario(&sc);
            let mut sim = net.simulation(7);
            sim.run_until(10e-3);
            let s = &sim.model().stats;
            assert!(s.conserved());
            results.push(s.delivery_ratio());
        }
        let (bdr, dra) = (results[0], results[1]);
        assert!(bdr < 1.0, "BDR must lose transit packets, got {bdr}");
        assert_eq!(dra, 1.0, "DRA must cover the SRU failures");
    }

    #[test]
    fn link_cut_drops_traffic_on_that_edge() {
        let mut net = small_net(ArchKind::Bdr);
        // Flow 0 routes 0→8 via lowest-id tie-breaks; cutting 0-1 and
        // 0-3 isolates node 0 entirely.
        let sc = NetScenario::new()
            .at(1e-3, NetAction::FailLink { a: 0, b: 1 })
            .at(1e-3, NetAction::FailLink { a: 0, b: 3 });
        net.set_scenario(&sc);
        let mut sim = net.simulation(7);
        sim.run_until(10e-3);
        let s = &sim.model().stats;
        assert!(s.conserved());
        assert!(s.drops[NetDropCause::LinkDown.index()] > 0);
        assert!(
            s.flow_availability(0.99) <= 0.5,
            "flow 0 must be unavailable"
        );
    }

    #[test]
    fn scenario_precompile_resolves_ports_and_cut_then_repair_is_stable() {
        // The cut-then-repair timeline that used to run through
        // per-action `port_between` searches: the compiled actions
        // must resolve to the same (node, port) pairs the topology
        // defines, and the run must produce identical stats every
        // time (and drops only while the cable is down).
        let sc = NetScenario::new()
            .at(2e-3, NetAction::FailLink { a: 1, b: 2 })
            .at(4e-3, NetAction::RepairLink { a: 1, b: 2 });
        let run = || {
            let mut net = small_net(ArchKind::Bdr);
            net.set_scenario(&sc);
            for (c, want_up) in net.compiled.iter().zip([false, true]) {
                match *c {
                    CompiledNetAction::Cable { a, pa, b, pb, up } => {
                        assert_eq!((a, b, up), (1, 2, want_up));
                        assert_eq!(net.topo.adj[a as usize][pa as usize], b);
                        assert_eq!(net.topo.adj[b as usize][pb as usize], a);
                        assert_eq!(net.topo.rev_port[a as usize][pa as usize], pb);
                    }
                    ref other => panic!("expected a compiled cable action, got {other:?}"),
                }
            }
            let mut sim = net.simulation(7);
            sim.run_until(10e-3);
            let s = &sim.model().stats;
            assert!(s.conserved());
            (
                s.injected,
                s.delivered,
                s.drops,
                s.latency.mean(),
                s.hops.mean(),
            )
        };
        let first = run();
        assert_eq!(first, run(), "cut-then-repair must be reproducible");
        // Flow 1 (6→2) transits 1→2 under lowest-id routing: the cut
        // window drops on LinkDown, and repair restores delivery (more
        // delivered than a run where the cut never heals).
        assert!(first.2[NetDropCause::LinkDown.index()] > 0, "{first:?}");
        let mut unhealed = small_net(ArchKind::Bdr);
        unhealed.set_scenario(&NetScenario::new().at(2e-3, NetAction::FailLink { a: 1, b: 2 }));
        let mut sim = unhealed.simulation(7);
        sim.run_until(10e-3);
        assert!(
            first.1 > sim.model().stats.delivered,
            "repair must restore deliveries"
        );
    }

    #[test]
    fn per_node_fault_schedules_inject() {
        use dra_core::scenario::Scenario;
        let mut net = small_net(ArchKind::Bdr);
        let timeline = Scenario::new(10e-3).at(
            0.5e-3,
            Action::FailComponent(net.topo.host_port(8), ComponentKind::Lfe),
        );
        net.set_node_fault_schedule(8, &timeline);
        let mut sim = net.simulation(7);
        sim.run_until(10e-3);
        let s = &sim.model().stats;
        assert!(s.conserved());
        // Flow 0's egress host port at node 8 is dead: egress drops.
        assert!(s.drops[NetDropCause::EgressDown.index()] > 0);
    }
}
