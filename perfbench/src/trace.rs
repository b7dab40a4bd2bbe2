//! The traced run: spans recorded around every public call the
//! benchmark makes, and replays that time one layer's public functions
//! at the volume a cell actually put through that layer.
//!
//! Spans live in memory until the pass ends. Replays run after every
//! cell has finished, so they never perturb the cells' own timings.

use crate::sys::CpuInstant;
use crate::workloads::{LayerCounts, RouterCell};
use dra_core::coverage::{lc_serviceable, CoveragePlanner, LcView};
use dra_des::calendar::CalendarQueue;
use dra_net::addr::Ipv4Addr;
use dra_net::fib::{Dir248Fib, Fib};
use dra_net::packet::{Packet, PacketId};
use dra_net::protocol::ProtocolKind;
use dra_net::sar::{segment_cells, Cell, Reassembler};
use dra_net::traffic::{PoissonGen, TrafficGen};
use dra_router::arena::CellHandle;
use dra_router::bdr::BdrConfig;
use dra_router::components::Health;
use dra_router::fabric::Crossbar;
use dra_topo::link::LinkState;
use dra_topo::routes::{node_addr, RouteTables};
use dra_topo::topology::Topology;
use dra_topo::{Flow, NetConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// One recorded span: a named interval and the span that caused it.
/// Times are CPU seconds of this process (see [`CpuInstant`]).
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran, e.g. `run` or `replay:des`.
    pub name: String,
    /// Seconds since the tracer started.
    pub start: f64,
    /// Seconds since the tracer started.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: CpuInstant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: CpuInstant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>) {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name: name.into(),
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end = self.origin.elapsed();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Record a span measured elsewhere: `secs` of work accumulated
    /// over many short intervals, placed so that it ends now.
    pub fn record(&mut self, name: &str, secs: f64) {
        let end = self.origin.elapsed();
        self.spans.push(Span {
            name: name.into(),
            start: end - secs,
            end,
            parent: self.open.last().copied(),
        });
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Every replay span a traced pass reports.
pub const REPLAYS: [&str; 9] = [
    "replay:des",
    "replay:fabric",
    "replay:fib_lookup",
    "replay:sar",
    "replay:coverage",
    "replay:link",
    "replay:topology_build",
    "replay:routes_derive",
    "replay:fib_compile",
];

/// Self time of every span name: each span's duration minus the part
/// its direct children cover, summed by name.
pub fn self_times(spans: &[Span]) -> Vec<(String, f64)> {
    let mut child = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.end - s.start;
        }
    }
    let mut by_name: Vec<(String, f64)> = Vec::new();
    for (s, c) in spans.iter().zip(child) {
        let own = (s.end - s.start) - c;
        match by_name.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += own,
            None => by_name.push((s.name.clone(), own)),
        }
    }
    by_name
}

/// Calendar-queue replay: a hold model at `pending` resident events
/// that pops and re-pushes `events` times, the kernel's pattern.
pub fn replay_des(tracer: &mut Tracer, events: u64, pending: usize, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let gaps: Vec<f64> = (0..4096)
        .map(|_| -rng.gen::<f64>().max(f64::MIN_POSITIVE).ln())
        .collect();
    let mut q: CalendarQueue<u64> = CalendarQueue::new();
    let mut seq = 0u64;
    for i in 0..pending.max(1) {
        q.push(gaps[i % gaps.len()], seq, seq);
        seq += 1;
    }
    tracer.enter("replay:des");
    for i in 0..events {
        let (t, _, item) = q.pop().expect("hold model never drains");
        q.push(t + gaps[i as usize & 4095], seq, black_box(item));
        seq += 1;
    }
    tracer.exit();
    black_box(q.len());
}

/// Datapath replay volumes of one router cell.
#[derive(Debug, Default, Clone, Copy)]
pub struct RouterReplay {
    /// FIB lookups issued (one per offered packet).
    pub lookups: u64,
    /// Cells segmented and reassembled.
    pub sar_cells: u64,
    /// iSLIP slots scheduled to switch those cells.
    pub fabric_slots: u64,
    /// Cells the fabric transferred.
    pub fabric_cells: u64,
}

/// Packets per replay batch: large enough that the clock reads are
/// noise next to the work between them.
const BATCH: usize = 1024;

/// Replay one router cell's datapath at its observed offered volume:
/// per linecard, the same traffic generator and routes as the model,
/// through `Dir248Fib::lookup_batch`, `segment_cells`,
/// `Crossbar::enqueue` + `schedule_slot_handles`, and
/// `Reassembler::push`, each layer timed in its own span.
pub fn replay_router(
    tracer: &mut Tracer,
    cell: &RouterCell,
    counts: &LayerCounts,
    seed: u64,
) -> RouterReplay {
    let cfg = &cell.config;
    let n = cfg.n_lcs;
    let mut fib = Dir248Fib::new();
    for lc in 0..n {
        fib.insert(BdrConfig::prefix_of(lc), lc as u16);
    }
    let bases: Vec<Ipv4Addr> = (0..n).map(BdrConfig::dst_base_of).collect();
    let mut xb = Crossbar::new(
        n,
        cfg.voq_capacity,
        cfg.islip_iterations,
        cfg.fabric_planes_total,
        cfg.fabric_planes_required,
    );
    let mut reasm: Vec<Reassembler> = (0..n).map(|_| Reassembler::new()).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = RouterReplay::default();
    let (mut lookup_s, mut sar_s, mut fabric_s) = (0.0, 0.0, 0.0);
    let mut gens: Vec<PoissonGen> = (0..n)
        .map(|_| PoissonGen::new(cfg.load * cfg.port_rate_bps, &bases))
        .collect();
    let mut left = counts.offered_per_lc.clone();
    let mut ingress = [0u16; BATCH];
    let mut dsts = [Ipv4Addr(0); BATCH];
    let mut sizes = [0u32; BATCH];
    let mut egress = [None; BATCH];
    let mut cells: Vec<Cell> = Vec::new();
    let mut granted: Vec<CellHandle> = Vec::new();
    let mut switched: Vec<Cell> = Vec::new();
    let mut next_id = 0u64;
    let mut now = 0.0f64;
    let mut lc = 0;
    loop {
        // Draw a batch round-robin over the linecards that still have
        // offered packets, so the fabric sees every input contend.
        let mut k = 0;
        while k < BATCH && left.iter().any(|&l| l > 0) {
            lc = (lc + 1) % n;
            if left[lc] == 0 {
                continue;
            }
            left[lc] -= 1;
            let a = gens[lc].next_arrival(&mut rng);
            now += a.dt / n as f64;
            ingress[k] = lc as u16;
            dsts[k] = a.dst;
            sizes[k] = a.ip_bytes;
            k += 1;
        }
        if k == 0 {
            break;
        }
        let t = CpuInstant::now();
        fib.lookup_batch(&dsts[..k], &mut egress[..k]);
        lookup_s += t.elapsed();
        out.lookups += k as u64;

        let t = CpuInstant::now();
        cells.clear();
        for i in 0..k {
            let Some(e) = egress[i] else { continue };
            let p = Packet::new(
                PacketId(next_id),
                bases[ingress[i] as usize],
                dsts[i],
                sizes[i],
                ProtocolKind::Ethernet,
                now,
            );
            next_id += 1;
            cells.extend(segment_cells(&p, ingress[i], e));
        }
        sar_s += t.elapsed();
        out.sar_cells += cells.len() as u64;

        let t = CpuInstant::now();
        switched.clear();
        for &c in &cells {
            if let Err(c) = xb.enqueue(c) {
                // A full VOQ would drop in the model too; keep the cell
                // flowing so the reassembly side stays whole.
                switched.push(c);
            }
        }
        while !xb.is_empty() {
            xb.schedule_slot_handles(&mut granted);
            out.fabric_slots += 1;
            for h in granted.drain(..) {
                switched.push(xb.take_cell(h));
            }
        }
        fabric_s += t.elapsed();
        out.fabric_cells += switched.len() as u64;

        let t = CpuInstant::now();
        for c in &switched {
            black_box(reasm[c.dst_lc as usize].push(c, now).ok());
        }
        sar_s += t.elapsed();
    }
    tracer.record("replay:fib_lookup", lookup_s);
    tracer.record("replay:sar", sar_s);
    tracer.record("replay:fabric", fabric_s);
    out
}

/// A linecard view set with one failed SRU, so the planner takes its
/// coverage branch as it does under the workload's faults.
fn degraded_views(n: usize) -> Vec<LcView> {
    let mut views = vec![LcView::healthy(ProtocolKind::Ethernet, 4e9); n];
    views[0].components.sru = Health::Failed;
    views
}

/// DRA coverage replay for a router cell: one `CoveragePlanner::plan`
/// per offered packet, as the DRA ingress path plans every packet.
pub fn replay_router_coverage(tracer: &mut Tracer, n_lcs: usize, packets: u64) {
    let views = degraded_views(n_lcs);
    let planner = CoveragePlanner::new(true);
    let n = n_lcs as u64;
    tracer.enter("replay:coverage");
    for i in 0..packets {
        let (a, b) = ((i % n) as u16, ((i / n + 1 + i) % n) as u16);
        black_box(planner.plan(black_box(&views), a, b));
    }
    tracer.exit();
}

/// Network coverage replay: the two serviceability predicates every
/// DRA transit evaluates (ingress and egress card), per transit.
pub fn replay_net_coverage(tracer: &mut Tracer, transits: u64) {
    let views = degraded_views(5);
    tracer.enter("replay:coverage");
    for i in 0..transits {
        let lc = (i % 5) as u16;
        black_box(lc_serviceable(black_box(&views), lc, None, true));
        black_box(lc_serviceable(black_box(&views), (lc + 1) % 5, None, true));
    }
    tracer.exit();
}

/// The node sequence a packet of `flow` visits on the static min-hop
/// routes: source through destination, one entry per router transit.
pub fn path(topo: &Topology, routes: &RouteTables, flow: &Flow) -> Vec<u32> {
    let mut at = flow.src;
    let mut nodes = vec![at];
    while at != flow.dst {
        let port = routes.next_port[at as usize][flow.dst as usize];
        at = topo.adj[at as usize][port as usize];
        nodes.push(at);
    }
    nodes
}

/// Network per-hop replays: every delivered packet's FIB lookup at
/// each router it crossed (`Dir248Fib::lookup_batch` on the cell's own
/// FIBs) and its `LinkState::offer` on each cable. Returns
/// the number of lookups.
pub fn replay_net_hops(
    tracer: &mut Tracer,
    topo: &Topology,
    routes: &RouteTables,
    fibs: &[Dir248Fib],
    flows: &[Flow],
    counts: &LayerCounts,
    cfg: &NetConfig,
) -> u64 {
    let mut lookups = 0u64;
    let (mut lookup_s, mut link_s) = (0.0, 0.0);
    let mut addrs: Vec<Ipv4Addr> = Vec::new();
    let mut out: Vec<Option<u16>> = Vec::new();
    for (flow, &delivered) in flows.iter().zip(&counts.flow_delivered) {
        let d = delivered as usize;
        if d == 0 {
            continue;
        }
        addrs.clear();
        addrs.extend((0..d as u64).map(|id| node_addr(flow.dst, id)));
        out.resize(d, None);
        let nodes = path(topo, routes, flow);
        let t = CpuInstant::now();
        for &node in &nodes {
            fibs[node as usize].lookup_batch(&addrs, &mut out);
            black_box(&out);
        }
        lookup_s += t.elapsed();
        lookups += (d * nodes.len()) as u64;

        let gap = cfg.traffic_stop_s / d as f64;
        let t = CpuInstant::now();
        for _ in nodes.windows(2) {
            let mut state = LinkState::new(cfg.link.latency_s);
            for k in 0..d {
                black_box(state.offer(&cfg.link, k as f64 * gap, cfg.packet_bytes));
            }
        }
        link_s += t.elapsed();
    }
    tracer.record("replay:fib_lookup", lookup_s);
    tracer.record("replay:link", link_s);
    lookups
}
