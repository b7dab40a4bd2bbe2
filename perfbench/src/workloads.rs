//! The three workloads, each a list of cells driven only through the
//! simulators' public entry points: `RouterHandle::{bdr, dra,
//! set_fault_schedule, advance_to}` for single routers and
//! `dra_topo::engine::build_network` + `NetworkSim::run` for networks.
//!
//! Every input is generated here from the workload seed; the simulators
//! receive only the finished specs.

use dra_campaign::seed::{derive_seed, Stream};
use dra_core::handle::{ArchKind, RouterHandle};
use dra_core::montecarlo::inflated_rates;
use dra_core::scenario::{FaultProcess, Scenario};
use dra_core::sim::DraConfig;
use dra_router::bdr::BdrConfig;
use dra_router::faults::{FaultGranularity, FaultInjector};
use dra_router::metrics::{DropCause, RouterMetrics};
use dra_topo::link::LinkConfig;
use dra_topo::registry::scale2;
use dra_topo::spec::{FlowSpec, TopoCellSpec, TopoFaultSpec};
use dra_topo::topology::TopologyKind;
use dra_topo::{NetDropCause, NetStats, NetworkSim};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One chassis, BDR and DRA twins under a sampled fault process.
    RouterFaceoff,
    /// The `scale2` grid: N >= 512 networks, setup and memory bound.
    NetScale,
    /// A 16x16 mesh under renewal faults on every router: per-hop bound.
    NetChurn,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::RouterFaceoff,
        Workload::NetScale,
        Workload::NetChurn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RouterFaceoff => "router_faceoff",
            Workload::NetScale => "net_scale",
            Workload::NetChurn => "net_churn",
        }
    }

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How large to make a workload: `Full` is the benchmark, `Tiny` the
/// seconds-long self-test of the same code paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured workload.
    Full,
    /// A miniature for the self-test.
    Tiny,
}

/// One single-router cell.
#[derive(Debug, Clone)]
pub struct RouterCell {
    /// Architecture under test.
    pub arch: ArchKind,
    /// Chassis configuration (traffic stops at `arrival_stop_s`).
    pub config: BdrConfig,
    /// Fault timeline, sampled from the workload seed.
    pub faults: Scenario,
    /// Simulated horizon: the traffic window plus a drain long enough
    /// for every offered packet to resolve.
    pub horizon_s: f64,
    /// Simulation seed.
    pub seed: u64,
}

/// What one cell simulates.
#[derive(Debug, Clone)]
pub enum CellKind {
    /// A single chassis.
    Router(RouterCell),
    /// A network of routers, built by `build_network(spec, seed, rep)`.
    Net {
        /// The cell spec handed to the engine.
        spec: TopoCellSpec,
        /// The engine's master seed.
        seed: u64,
        /// The engine's replication index.
        rep: u32,
    },
}

/// One cell of a workload.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Stable id, e.g. `dra/mesh-16x16/renewal`.
    pub id: String,
    /// The model to build and run.
    pub kind: CellKind,
}

/// The cells of `workload` at `size`, all inputs drawn from `seed`.
/// Replication `rep` draws a fresh realization (traffic, flow
/// placement, fault timelines) from the same seed.
pub fn cells(workload: Workload, size: Size, seed: u64, rep: u32) -> Vec<Cell> {
    match workload {
        Workload::RouterFaceoff => router_faceoff(size, seed, rep),
        Workload::NetScale => net_scale(size, seed, rep),
        Workload::NetChurn => net_churn(size, seed, rep),
    }
}

/// Simulated seconds of offered traffic per faceoff cell.
const FACEOFF_TRAFFIC_S: f64 = 30e-3;
/// Drain after the traffic stops: several reassembly-purge periods, so
/// the per-linecard conservation ledger closes exactly.
const FACEOFF_DRAIN_S: f64 = 36e-3;

fn router_faceoff(size: Size, seed: u64, rep: u32) -> Vec<Cell> {
    let (n_lcs, traffic_s) = match size {
        Size::Full => (8, FACEOFF_TRAFFIC_S),
        Size::Tiny => (4, 2e-3),
    };
    // The faceoff campaign's fault process: paper rates inflated x1000,
    // 50 inflated-rate hours per 4 ms simulated, hot-swap repair.
    let process = FaultProcess {
        injector: {
            let mut inj = FaultInjector::new(3.0, FaultGranularity::PerComponent);
            inj.rates = inflated_rates(1000.0);
            inj
        },
        delay_scale: 4e-3 / 50.0,
        repair: true,
    };
    let fault_seed = derive_seed(seed, 0, rep as u64, Stream::Faults);
    let faults = process.sample(n_lcs, traffic_s, &mut SmallRng::seed_from_u64(fault_seed));
    let config = BdrConfig {
        n_lcs,
        load: 0.6,
        arrival_stop_s: Some(traffic_s),
        ..BdrConfig::default()
    };
    let sim_seed = derive_seed(seed, 0, rep as u64, Stream::Simulation);
    [ArchKind::Bdr, ArchKind::Dra]
        .into_iter()
        .map(|arch| Cell {
            id: format!("{}/lc{n_lcs}/load60", arch.label()),
            kind: CellKind::Router(RouterCell {
                arch,
                config: config.clone(),
                faults: faults.clone(),
                horizon_s: traffic_s + FACEOFF_DRAIN_S,
                seed: sim_seed,
            }),
        })
        .collect()
}

fn net_scale(size: Size, seed: u64, rep: u32) -> Vec<Cell> {
    let mut spec = scale2(false);
    if size == Size::Tiny {
        // Same grid shape (mesh and BA, healthy and degraded, both
        // architectures) at a size that builds in milliseconds.
        for cell in &mut spec.cells {
            cell.topology = match cell.topology {
                TopologyKind::Mesh2D { .. } => TopologyKind::Mesh2D { rows: 6, cols: 6 },
                TopologyKind::BarabasiAlbert { m, seed, .. } => {
                    TopologyKind::BarabasiAlbert { n: 48, m, seed }
                }
                other => other,
            };
            cell.flows.n_flows = 8;
            cell.horizon_s = 2e-3;
            cell.drain_s = 0.5e-3;
            if let TopoFaultSpec::FailRouters { k, .. } = cell.faults {
                cell.faults = TopoFaultSpec::FailRouters { k, at_s: 0.5e-3 };
            }
            cell.id = format!(
                "{}/{}/{}",
                cell.arch.label(),
                cell.topology.label(),
                cell.faults.label()
            );
        }
    }
    spec.cells
        .into_iter()
        .map(|spec| Cell {
            id: spec.id.clone(),
            kind: CellKind::Net { spec, seed, rep },
        })
        .collect()
}

fn net_churn(size: Size, seed: u64, rep: u32) -> Vec<Cell> {
    let (side, n_flows, horizon_s) = match size {
        Size::Full => (16, 256, 50e-3),
        Size::Tiny => (4, 16, 4e-3),
    };
    let topology = TopologyKind::Mesh2D {
        rows: side,
        cols: side,
    };
    [ArchKind::Bdr, ArchKind::Dra]
        .into_iter()
        .map(|arch| {
            let spec = TopoCellSpec {
                id: format!("{}/{}/renewal", arch.label(), topology.label()),
                arch,
                topology,
                link: LinkConfig::default(),
                flows: FlowSpec {
                    n_flows,
                    rate_pps: 40_000.0,
                    packet_bytes: 700,
                },
                faults: TopoFaultSpec::Renewal {
                    delay_scale: 1e-6,
                    repair_h: 200.0,
                },
                horizon_s,
                drain_s: horizon_s * 0.25,
                replications: 1,
                // Twins share a seed group: same flows, same timelines.
                seed_group: 0,
            };
            Cell {
                id: spec.id.clone(),
                kind: CellKind::Net { spec, seed, rep },
            }
        })
        .collect()
}

/// Build a single-router cell: the handle plus its fault schedule.
pub fn build_router(cell: &RouterCell) -> RouterHandle {
    let mut handle = match cell.arch {
        ArchKind::Bdr => RouterHandle::bdr(cell.config.clone(), cell.seed),
        ArchKind::Dra => RouterHandle::dra(
            DraConfig {
                router: cell.config.clone(),
                ..DraConfig::default()
            },
            cell.seed,
        ),
    };
    handle.set_fault_schedule(&cell.faults);
    handle
}

/// FNV-1a over a stream of 64-bit words: the simulated-statistics
/// digest. Floats enter by their bit patterns, so any change to a
/// simulated statistic changes the digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// The empty digest.
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb one word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Absorb a float by its bits.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// The simulated outcome of one cell, as seen from outside the program.
#[derive(Debug, Clone)]
pub struct SimStats {
    /// Offered (router) or injected (network) packets.
    pub packets: u64,
    /// Delivered packets.
    pub delivered: u64,
    /// DES events the router kernels processed (for networks: the sum
    /// over the embedded routers; the network kernel's own count is
    /// read by the traced pass).
    pub router_events: u64,
    /// Whether the packet-conservation ledger closes.
    pub conserved: bool,
    /// Digest over every simulated statistic of the cell.
    pub digest: u64,
    /// Layer counters for the traced run.
    pub counts: LayerCounts,
}

/// Per-layer work counters readable through public accessors.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    /// Router cells: packets offered per linecard, in order.
    pub offered_per_lc: Vec<u64>,
    /// EIB data packets.
    pub eib_packets: u64,
    /// EIB control packets.
    pub eib_control_packets: u64,
    /// EIB control-line collisions.
    pub eib_collisions: u64,
    /// Packets delivered over the coverage path.
    pub covered_packets: u64,
    /// Packets that needed coverage: covered plus those dropped because
    /// coverage could not be arranged.
    pub coverable_packets: u64,
    /// Network cells: drops by `NetDropCause::ALL` order.
    pub net_drops: [u64; 8],
    /// Network cells: per-flow delivered packets.
    pub flow_delivered: Vec<u64>,
    /// Network cells: router transits of delivered packets.
    pub delivered_transits: u64,
}

fn welford(d: &mut Digest, w: &dra_des::stats::Welford) {
    d.word(w.count());
    d.float(w.mean());
    d.float(w.variance());
}

/// Read a finished router cell.
pub fn router_stats(handle: &RouterHandle) -> SimStats {
    let m: &RouterMetrics = handle.metrics();
    let mut d = Digest::new();
    let mut conserved = true;
    let (mut packets, mut delivered) = (0u64, 0u64);
    for lc in &m.lcs {
        for w in [
            lc.offered_packets,
            lc.offered_bytes,
            lc.delivered_packets,
            lc.delivered_bytes,
            lc.covered_packets,
            lc.ingress_delivered,
        ] {
            d.word(w);
        }
        for cause in DropCause::ALL {
            d.word(lc.drops(cause));
        }
        welford(&mut d, &lc.latency);
        conserved &= lc.offered_packets == lc.ingress_delivered + lc.total_drops();
        packets += lc.offered_packets;
        delivered += lc.delivered_packets;
    }
    let drops: u64 = m.lcs.iter().map(|lc| lc.total_drops()).sum();
    conserved &= packets == delivered + drops;
    for w in [
        m.eib_packets,
        m.eib_bytes,
        m.eib_control_packets,
        m.eib_collisions,
        handle.events_processed(),
    ] {
        d.word(w);
    }
    let covered: u64 = m.lcs.iter().map(|lc| lc.covered_packets).sum();
    let uncovered = [DropCause::EibOversubscribed, DropCause::NoCoverage]
        .iter()
        .map(|&c| m.total_drops(c))
        .sum::<u64>();
    SimStats {
        packets,
        delivered,
        router_events: handle.events_processed(),
        conserved,
        digest: d.value(),
        counts: LayerCounts {
            offered_per_lc: m.lcs.iter().map(|lc| lc.offered_packets).collect(),
            eib_packets: m.eib_packets,
            eib_control_packets: m.eib_control_packets,
            eib_collisions: m.eib_collisions,
            covered_packets: covered,
            coverable_packets: covered + uncovered,
            ..LayerCounts::default()
        },
    }
}

/// Read a finished network cell.
pub fn net_stats(net: &NetworkSim) -> SimStats {
    let s: &NetStats = &net.stats;
    let mut d = Digest::new();
    for w in [s.injected, s.delivered, s.in_flight] {
        d.word(w);
    }
    for w in s.drops {
        d.word(w);
    }
    welford(&mut d, &s.latency);
    welford(&mut d, &s.hops);
    for (&i, &o) in s.flow_injected.iter().zip(&s.flow_delivered) {
        d.word(i);
        d.word(o);
    }
    let n = net.topo.n_nodes() as u32;
    let router_events: u64 = (0..n).map(|i| net.node(i).events_processed()).sum();
    d.word(router_events);
    // Every delivered packet's hop counter counts its router transits.
    let delivered_transits = (s.hops.mean() * s.hops.count() as f64).round() as u64;
    SimStats {
        packets: s.injected,
        delivered: s.delivered,
        router_events,
        conserved: s.conserved(),
        digest: d.value(),
        counts: LayerCounts {
            net_drops: s.drops,
            flow_delivered: s.flow_delivered.clone(),
            delivered_transits,
            ..LayerCounts::default()
        },
    }
}

/// Drop-cause names in `NetDropCause::ALL` order.
pub fn net_drop_names() -> [&'static str; 8] {
    NetDropCause::ALL.map(NetDropCause::name)
}
