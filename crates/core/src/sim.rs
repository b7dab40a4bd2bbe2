//! The DRA packet-level router model.
//!
//! The pipeline mirrors [`dra_router::bdr::BdrRouter`] until a failure
//! appears; then the [`crate::coverage::CoveragePlanner`] turns each
//! packet's journey into a sequence of [`Stage`]s that may detour over
//! the EIB:
//!
//! * data-line hops run at the flow's promised bandwidth
//!   (`B_prom`, recomputed whenever the set of covered flows changes),
//!   with over-subscription realized as drops — exactly the paper's
//!   scale-back rule;
//! * remote lookups (failed LFE) ride the CSMA/CD control lines as
//!   REQ_L/REP_L control packets, with binary-exponential backoff on
//!   collisions;
//! * the first data transfer of a newly covered flow pays the
//!   REQ_D/REP_D logical-path setup handshake on the control lines.
//!
//! The data lines are modelled as a fluid server per logical path at
//! its promised rate. The slot-level TDM arbiter of §4 is implemented
//! and verified in [`crate::eib::arbiter`]; at the timescales the
//! experiments measure (milliseconds, thousands of packets), the
//! round-robin slot interleaving is indistinguishable from the fluid
//! approximation, which keeps the event count tractable.

use crate::coverage::{CoveragePlanner, EgressRoute, IngressRoute, LcView};
use crate::eib::control::{CsmaChannel, TxResult};
use dra_des::{Ctx, Model, Simulation};
use dra_net::addr::Ipv4Addr;
use dra_net::fib::Fib;
use dra_net::packet::{Packet, PacketId, PacketIdGen};
use dra_net::sar::{segment_cells, CELL_BYTES};
use dra_net::traffic::PoissonGen;
use dra_router::bdr::BdrConfig;
use dra_router::components::{ComponentKind, Health};
use dra_router::fabric::Crossbar;
use dra_router::faults::Generations;
use dra_router::ingress::ArrivalTrain;
use dra_router::linecard::Linecard;
use dra_router::metrics::{DropCause, RouterMetrics};
use dra_telemetry as tm;
use std::collections::HashMap;

/// EIB parameters.
#[derive(Debug, Clone)]
pub struct EibConfig {
    /// Data-line capacity `B_BUS` (bits/second).
    pub data_rate_bps: f64,
    /// Control-line rate (bits/second).
    pub control_rate_bps: f64,
    /// Control-line propagation delay (seconds).
    pub prop_delay_s: f64,
    /// Longest tolerated data-line backlog before packets are shed
    /// (realizes the `B_prom` scale-back as drops).
    pub max_backlog_s: f64,
    /// Give up a control transaction after this many collisions.
    pub max_control_attempts: u32,
    /// Fault-table dissemination delay: how long until *other* cards
    /// learn of a health change (the paper's processing-tier control
    /// packets are not instantaneous). Zero = oracle gossip. During
    /// the window, peers plan against the stale view and their traffic
    /// to/via the changed card is lost — measurably.
    pub gossip_delay_s: f64,
}

impl Default for EibConfig {
    fn default() -> Self {
        EibConfig {
            data_rate_bps: 40e9,
            control_rate_bps: 1e9,
            prop_delay_s: 50e-9,
            max_backlog_s: 2e-3,
            max_control_attempts: 16,
            gossip_delay_s: 0.0,
        }
    }
}

/// Configuration of a DRA simulation: the BDR base plus the EIB.
#[derive(Debug, Clone, Default)]
pub struct DraConfig {
    /// Linecards, fabric, traffic — shared with the BDR baseline.
    pub router: BdrConfig,
    /// The Enhanced Internal Bus.
    pub eib: EibConfig,
}

/// Flow-account key offset distinguishing egress-coverage traffic
/// (packets *to* a faulty LC) from ingress-coverage traffic (packets
/// *from* it); the two directions hold separate promised-bandwidth
/// accounts, as only the ingress direction consumes helper capacity.
const EGRESS_FLOW_OFFSET: u16 = 0x8000;

/// One step of a packet's (possibly coverage-detoured) journey.
/// Public because it appears inside [`DraEvent`]; constructed only by
/// the planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stage {
    /// Full ingress pipeline at a healthy LC.
    IngressProc {
        /// The processing linecard.
        lc: u16,
    },
    /// REQ_L/REP_L remote lookup through `helper` (control lines).
    RemoteLookup {
        /// The LC answering the lookup.
        helper: u16,
    },
    /// EIB data-line hop.
    EibHop {
        /// Destination linecard of the hop.
        to: u16,
        /// The faulty LC whose promised-bandwidth account this rides.
        flow: u16,
    },
    /// PDLU+SRU(+LFE) processing at a covering helper.
    HelperProc {
        /// The covering linecard.
        lc: u16,
    },
    /// Cells across the crossbar.
    Fabric {
        /// Fabric input port.
        src: u16,
        /// Fabric output port.
        dst: u16,
    },
    /// Reassembly + PDLU framing at an LC_inter (Case 3, cross-protocol).
    InterProc {
        /// The intermediate linecard.
        lc: u16,
    },
    /// Final egress (PDLU/PIU/wire as health allows) and delivery.
    EgressProc {
        /// The egress linecard.
        lc: u16,
    },
}

/// Longest possible plan: ingress coverage contributes at most two
/// stages (remote lookup or EIB hop + processing) and egress coverage
/// at most four (fabric + LC_inter + EIB hop + egress).
pub const MAX_STAGES: usize = 6;

/// A packet's full stage plan, inline and `Copy` — events carry it by
/// value instead of heap-allocating a `Vec<Stage>` per packet.
#[derive(Debug, Clone, Copy)]
pub struct StagePlan {
    stages: [Stage; MAX_STAGES],
    len: u8,
}

impl StagePlan {
    /// An empty plan.
    fn new() -> Self {
        StagePlan {
            stages: [Stage::IngressProc { lc: 0 }; MAX_STAGES],
            len: 0,
        }
    }

    /// Append a stage. Panics if the plan exceeds [`MAX_STAGES`] —
    /// impossible by construction in [`DraRouter::plan_stages`].
    fn push(&mut self, stage: Stage) {
        self.stages[self.len as usize] = stage;
        self.len += 1;
    }

    /// The planned stages, in execution order.
    pub fn as_slice(&self) -> &[Stage] {
        &self.stages[..self.len as usize]
    }
}

impl std::ops::Index<usize> for StagePlan {
    type Output = Stage;

    fn index(&self, idx: usize) -> &Stage {
        &self.as_slice()[idx]
    }
}

impl PartialEq for StagePlan {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Which coverage machinery (if any) a packet's journey used — the
/// key for per-path latency accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathKind {
    /// The regular PIU→PDLU→SRU/LFE→fabric→egress pipeline.
    Normal,
    /// Only the lookup detoured (REQ_L/REP_L on the control lines).
    RemoteLookup,
    /// The ingress side crossed the EIB data lines to a helper.
    IngressEib,
    /// The egress side crossed the EIB data lines.
    EgressEib,
    /// Both sides needed coverage.
    Both,
}

impl PathKind {
    /// All kinds, in reporting order.
    pub const ALL: [PathKind; 5] = [
        PathKind::Normal,
        PathKind::RemoteLookup,
        PathKind::IngressEib,
        PathKind::EgressEib,
        PathKind::Both,
    ];

    /// Dense index for metric arrays.
    pub fn index(self) -> usize {
        match self {
            PathKind::Normal => 0,
            PathKind::RemoteLookup => 1,
            PathKind::IngressEib => 2,
            PathKind::EgressEib => 3,
            PathKind::Both => 4,
        }
    }

    /// Short label for tables.
    pub fn name(self) -> &'static str {
        match self {
            PathKind::Normal => "normal",
            PathKind::RemoteLookup => "remote-lookup",
            PathKind::IngressEib => "ingress-eib",
            PathKind::EgressEib => "egress-eib",
            PathKind::Both => "both-sides",
        }
    }
}

/// Per-packet bookkeeping carried through the stages. Public because
/// it appears inside [`DraEvent`]; fields stay private to the model.
#[derive(Debug, Clone, Copy)]
pub struct FlowMeta {
    id: PacketId,
    ip_bytes: u32,
    arrived_at: f64,
    ingress: u16,
    covered: bool,
    path: PathKind,
}

/// Events of the DRA model.
#[derive(Debug)]
pub enum DraEvent {
    /// Kick-off.
    Start,
    /// Next packet at `lc`.
    Arrival {
        /// Ingress linecard.
        lc: u16,
    },
    /// Run stage `idx` of a packet's plan.
    StageStart {
        /// Packet bookkeeping.
        meta: FlowMeta,
        /// The full stage plan.
        stages: StagePlan,
        /// Index of the stage to execute.
        idx: usize,
    },
    /// Retry a control-line transmission after busy/collision.
    ControlRetry {
        /// Packet bookkeeping.
        meta: FlowMeta,
        /// The full stage plan.
        stages: StagePlan,
        /// Stage being served by this transaction.
        idx: usize,
        /// Control packets still to send in this transaction.
        remaining: u8,
        /// Collision count so far.
        attempt: u32,
    },
    /// A control-line transmission finished; check for collision.
    ControlDone {
        /// Packet bookkeeping.
        meta: FlowMeta,
        /// The full stage plan.
        stages: StagePlan,
        /// Stage being served.
        idx: usize,
        /// Control packets still to send after this one.
        remaining: u8,
        /// Collision count so far.
        attempt: u32,
        /// Channel token.
        tx: u64,
    },
    /// One fabric cell slot.
    FabricSlot,
    /// Component failure (generation-stamped).
    Fail {
        /// Affected linecard.
        lc: u16,
        /// Failing unit.
        kind: ComponentKind,
        /// Repair generation at arming time.
        gen: u32,
    },
    /// The EIB passive lines fail.
    FailEib,
    /// Hot-swap repair of a linecard.
    Repair {
        /// Repaired linecard.
        lc: u16,
    },
    /// EIB lines repaired.
    RepairEib,
    /// Periodic reassembly garbage collection.
    PurgeReassembly,
}

/// The DRA router model.
#[derive(Debug)]
pub struct DraRouter {
    /// Configuration.
    pub config: DraConfig,
    /// Linecards (with PDLU health meaningful, unlike BDR).
    pub linecards: Vec<Linecard>,
    /// The switching fabric.
    pub fabric: Crossbar,
    /// Metrics (EIB counters live here too).
    pub metrics: RouterMetrics,
    /// Are the EIB passive lines healthy?
    pub eib_healthy: bool,
    /// The route processor owning the master RIB.
    pub rp: dra_router::rp::RouteProcessor,
    control: CsmaChannel,
    generators: Vec<PoissonGen>,
    id_gens: Vec<PacketIdGen>,
    /// Packets inside the fabric: resumed on reassembly completion.
    in_fabric: HashMap<PacketId, (FlowMeta, StagePlan, usize)>,
    generations: Generations,
    repair_pending: Vec<bool>,
    slot_time_s: f64,
    slot_scheduled: bool,
    capacity_credit: f64,
    /// Reused copy of the current fabric slot's cells, so delivery can
    /// run `&mut self` handlers without holding the fabric's borrow
    /// (and without allocating per slot).
    slot_handles: Vec<dra_router::CellHandle>,
    /// Per-flow data-line virtual finish time.
    eib_busy_until: HashMap<u16, f64>,
    /// Dedicated per-LC traffic RNG streams (see `DraRouter::new`).
    traffic_rngs: Vec<rand::rngs::SmallRng>,
    /// Per-LC pre-resolved arrival trains (batched FIB lookups).
    trains: Vec<ArrivalTrain>,
    /// Flows whose REQ_D/REP_D logical path is already set up.
    lp_established: std::collections::HashSet<u16>,
    /// Cached promised bandwidth per flow.
    b_prom: HashMap<u16, f64>,
    /// Gossip staleness: per-LC health as peers last saw it, with the
    /// change timestamp (see `EibConfig::gossip_delay_s`).
    gossip: Vec<GossipCell>,
    gossip_eib: GossipEibCell,
    /// Delivered-packet latency per [`PathKind`].
    latency_by_path: [dra_des::stats::Welford; 5],
    /// Latency distributions per [`PathKind`] (log buckets, 100 ns–10 ms).
    latency_hist_by_path: Vec<dra_des::stats::LogHistogram>,
}

/// Stale-view bookkeeping for one linecard.
#[derive(Debug, Clone, Copy)]
struct GossipCell {
    /// Health before the most recent change.
    prev: dra_router::components::LcComponents,
    /// When the most recent change happened.
    changed_at: f64,
}

/// Stale-view bookkeeping for the EIB lines.
#[derive(Debug, Clone, Copy)]
struct GossipEibCell {
    prev: bool,
    changed_at: f64,
}

impl DraRouter {
    /// Build the router. `seed` feeds the per-LC traffic RNG streams —
    /// seeded identically to [`dra_router::bdr::BdrRouter::new`], so
    /// both architectures see byte-identical offered traffic under the
    /// same seed no matter how much randomness their internals consume.
    pub fn new(config: DraConfig, seed: u64) -> Self {
        let r = &config.router;
        assert!(r.n_lcs >= 3, "DRA needs N >= 3");
        assert!(r.load > 0.0 && r.load <= 1.0);
        let mut linecards: Vec<Linecard> = (0..r.n_lcs)
            .map(|i| {
                Linecard::with_ports(i as u16, r.protocol_of(i), r.port_rate_bps, r.ports_per_lc)
            })
            .collect();
        let mut rp = dra_router::rp::RouteProcessor::new();
        for dst in 0..r.n_lcs {
            rp.announce(BdrConfig::prefix_of(dst), dst as u16);
        }
        rp.distribute(&mut linecards);
        let generators = (0..r.n_lcs)
            .map(|i| {
                let bases: Vec<Ipv4Addr> = (0..r.n_lcs)
                    .filter(|&j| j != i)
                    .map(BdrConfig::dst_base_of)
                    .collect();
                PoissonGen::new(r.load * r.port_rate_bps, &bases)
            })
            .collect();
        let traffic_rngs = (0..r.n_lcs)
            .map(|i| {
                use rand::SeedableRng;
                rand::rngs::SmallRng::seed_from_u64(
                    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64 + 1),
                )
            })
            .collect();
        let id_gens = (0..r.n_lcs)
            .map(|i| PacketIdGen::starting_at((i as u64) << 48))
            .collect();
        let fabric = Crossbar::new(
            r.n_lcs,
            r.voq_capacity,
            r.islip_iterations,
            r.fabric_planes_total,
            r.fabric_planes_required,
        );
        let slot_time_s = CELL_BYTES as f64 * 8.0 / (r.port_rate_bps * r.fabric_speedup);
        let control = CsmaChannel::new(config.eib.control_rate_bps, config.eib.prop_delay_s);
        let metrics = RouterMetrics::new(r.n_lcs);
        let generations = Generations::new(r.n_lcs);
        let repair_pending = vec![false; r.n_lcs];

        let trains = (0..r.n_lcs).map(|_| ArrivalTrain::new()).collect();
        DraRouter {
            linecards,
            fabric,
            metrics,
            eib_healthy: true,
            rp,
            control,
            generators,
            traffic_rngs,
            trains,
            id_gens,
            in_fabric: HashMap::new(),
            generations,
            repair_pending,
            slot_time_s,
            slot_scheduled: false,
            capacity_credit: 0.0,
            slot_handles: Vec::new(),
            eib_busy_until: HashMap::new(),
            lp_established: std::collections::HashSet::new(),
            b_prom: HashMap::new(),
            gossip: vec![
                GossipCell {
                    prev: dra_router::components::LcComponents::healthy(),
                    changed_at: f64::NEG_INFINITY,
                };
                config.router.n_lcs
            ],
            gossip_eib: GossipEibCell {
                prev: true,
                changed_at: f64::NEG_INFINITY,
            },
            latency_by_path: Default::default(),
            latency_hist_by_path: (0..5)
                .map(|_| dra_router::metrics::latency_histogram())
                .collect(),
            config,
        }
    }

    /// Wrap in a seeded simulation with the start event queued.
    pub fn simulation(config: DraConfig, seed: u64) -> Simulation<DraRouter> {
        let mut sim = Simulation::new(DraRouter::new(config, seed), seed);
        sim.schedule(0.0, DraEvent::Start);
        sim
    }

    /// The planner's snapshot of the router.
    fn views(&self) -> Vec<LcView> {
        let spare = self.config.router.port_rate_bps * (1.0 - self.config.router.load);
        self.linecards
            .iter()
            .map(|lc| LcView {
                protocol: lc.protocol,
                components: lc.components,
                spare_bps: spare,
            })
            .collect()
    }

    /// Is `lc`'s service currently deliverable (directly or covered)?
    /// Uses ground-truth health (the metric, not any card's view).
    pub fn lc_serviceable(&self, lc: u16) -> bool {
        // The per-hop form: reads linecard state in place instead of
        // materializing a `Vec<LcView>` per health check (this is the
        // network hot path — see dra-topo's `net_hotpath_noalloc`).
        let spare = self.config.router.port_rate_bps * (1.0 - self.config.router.load);
        crate::coverage::lc_serviceable_with(
            |i| LcView {
                protocol: self.linecards[i].protocol,
                components: self.linecards[i].components,
                spare_bps: spare,
            },
            self.linecards.len(),
            lc,
            None,
            self.eib_healthy,
        )
    }

    /// The router as `origin` believes it to be at time `now`: its own
    /// health is always current; peers' health (and the EIB's) is the
    /// pre-change state until the gossip delay elapses.
    fn views_for(&self, origin: u16, now: f64) -> (Vec<LcView>, bool) {
        let delay = self.config.eib.gossip_delay_s;
        let mut views = self.views();
        if delay > 0.0 {
            for (i, view) in views.iter_mut().enumerate() {
                if i as u16 != origin && now < self.gossip[i].changed_at + delay {
                    view.components = self.gossip[i].prev;
                }
            }
        }
        let eib_seen = if delay > 0.0 && now < self.gossip_eib.changed_at + delay {
            self.gossip_eib.prev
        } else {
            self.eib_healthy
        };
        (views, eib_seen)
    }

    /// Record a health change for gossip staleness tracking. Must be
    /// called *before* mutating the true state.
    fn note_change(&mut self, lc: u16, now: f64) {
        self.gossip[lc as usize] = GossipCell {
            prev: self.linecards[lc as usize].components,
            changed_at: now,
        };
    }

    fn note_eib_change(&mut self, now: f64) {
        self.gossip_eib = GossipEibCell {
            prev: self.eib_healthy,
            changed_at: now,
        };
    }

    /// Recompute `B_prom` for every covered flow (§4's allocation).
    ///
    /// Two constraints apply, mirroring §5.3's analysis:
    /// * ingress-coverage flows (a helper *processes* the stream) are
    ///   limited by the pooled spare capacity `Σψ` of fully healthy
    ///   linecards;
    /// * all flows together are limited by the data-line capacity
    ///   `B_BUS`, shared proportionally (`B_prom`).
    fn recompute_bandwidth(&mut self) {
        let views = self.views();
        let r = &self.config.router;
        let covered: Vec<u16> = (0..r.n_lcs as u16)
            .filter(|&i| {
                let c = views[i as usize].components;
                c.pdlu == Health::Failed || c.sru == Health::Failed || c.lfe == Health::Failed
            })
            .collect();
        let healthy = views.iter().filter(|v| v.components.all_healthy()).count();
        let spare_pool = healthy as f64 * r.port_rate_bps * (1.0 - r.load);
        let k = covered.len();
        self.b_prom.clear();
        if k == 0 {
            return;
        }

        // The TDM arbiter is work-conserving: an LP's *share* of the
        // data lines is proportional to its posted requirement, but an
        // LP may use idle slots, so the realized rate is the weighted
        // share of the whole bus (never below B_prom). Each account is
        // additionally capped by the line rate of the card it feeds,
        // and ingress accounts by their share of the helpers' pooled
        // spare capacity (a helper must *process* that stream).
        // Equal posted requirements (every covered LC asks L·c) make
        // the weighted share an equal share.
        let bus_share = self.config.eib.data_rate_bps / (2 * k) as f64;
        let spare_share = spare_pool / k as f64;
        let ing_rate = r.port_rate_bps.min(bus_share).min(spare_share);
        let egr_rate = r.port_rate_bps.min(bus_share);
        for &flow in &covered {
            self.b_prom.insert(flow, ing_rate);
            self.b_prom.insert(flow | EGRESS_FLOW_OFFSET, egr_rate);
        }
    }

    fn refresh_availability(&mut self, now: f64) {
        for lc in 0..self.config.router.n_lcs as u16 {
            let up = if self.lc_serviceable(lc) { 1.0 } else { 0.0 };
            self.metrics.lcs[lc as usize].availability.update(now, up);
        }
    }

    fn on_health_change(&mut self, now: f64) {
        self.recompute_bandwidth();
        self.refresh_availability(now);
    }

    /// Deterministic fault scripting. A PIU failure takes down one
    /// port (the paper's per-port PIUs); the aggregate PIU health
    /// reads failed only when every port is gone.
    pub fn fail_component_now(&mut self, lc: u16, kind: ComponentKind, now: f64) {
        self.note_change(lc, now);
        if kind == ComponentKind::Piu {
            self.linecards[lc as usize].fail_piu_port();
        } else {
            self.linecards[lc as usize]
                .components
                .set(kind, Health::Failed);
        }
        self.on_health_change(now);
    }

    /// Deterministic repair scripting.
    pub fn repair_lc_now(&mut self, lc: u16, now: f64) {
        self.note_change(lc, now);
        self.linecards[lc as usize].repair_all();
        self.generations.bump(lc as usize);
        self.repair_pending[lc as usize] = false;
        self.lp_established.remove(&lc);
        self.lp_established.remove(&(lc | EGRESS_FLOW_OFFSET));
        self.on_health_change(now);
    }

    /// Deterministic EIB-line failure.
    pub fn fail_eib_now(&mut self, now: f64) {
        self.note_eib_change(now);
        self.eib_healthy = false;
        self.on_health_change(now);
    }

    /// Deterministic EIB repair.
    pub fn repair_eib_now(&mut self, now: f64) {
        self.note_eib_change(now);
        self.eib_healthy = true;
        self.on_health_change(now);
    }

    /// Announce a route at the RP and push it to every card's FIB.
    pub fn announce_route(&mut self, prefix: dra_net::addr::Ipv4Prefix, next_hop: u16) {
        self.rp.announce(prefix, next_hop);
        for lc in &mut self.linecards {
            lc.fib.insert(prefix, next_hop);
        }
    }

    /// Withdraw a route everywhere.
    pub fn withdraw_route(&mut self, prefix: dra_net::addr::Ipv4Prefix) {
        self.rp.withdraw(prefix);
        for lc in &mut self.linecards {
            lc.fib.remove(prefix);
        }
    }

    fn drop(&mut self, meta: &FlowMeta, cause: DropCause) {
        self.metrics.lcs[meta.ingress as usize].drop_packet(cause, meta.ip_bytes);
        dra_router::metrics::note_drop(meta.id, cause, meta.ingress);
        // The paper's B_prom scale-back realized as drops is the
        // anomaly the flight recorder is armed for: freeze the event
        // window at the first occurrence.
        if cause == DropCause::EibOversubscribed {
            tm::anomaly("first eib-oversubscribed drop");
        }
    }

    fn ensure_fabric_slot(&mut self, ctx: &mut Ctx<'_, DraEvent>) {
        if !self.slot_scheduled && !self.fabric.is_empty() {
            self.slot_scheduled = true;
            ctx.schedule(self.slot_time_s, DraEvent::FabricSlot);
        }
    }

    fn arm_faults_for_lc(&mut self, lc: u16, ctx: &mut Ctx<'_, DraEvent>) {
        let Some(injector) = self.config.router.faults.as_ref() else {
            return;
        };
        let scale = self.config.router.fault_delay_scale;
        let gen = self.generations.current(lc as usize);
        for (kind, delay) in injector.arm_linecard(ctx.rng()) {
            ctx.schedule(delay * scale, DraEvent::Fail { lc, kind, gen });
        }
    }

    /// Build the stage plan for a packet entering at `ingress` bound
    /// for `egress` — using what `ingress` *believes* the router looks
    /// like — or decide to drop it.
    fn plan_stages(
        &self,
        ingress: u16,
        egress: u16,
        now: f64,
    ) -> Result<(StagePlan, PathKind), DropCause> {
        let (views, eib_seen) = self.views_for(ingress, now);
        let planner = CoveragePlanner::new(eib_seen);
        let route = planner.plan(&views, ingress, egress);
        if let Some(cause) = route.blocked_by() {
            return Err(cause);
        }
        let mut stages = StagePlan::new();
        let mut ingress_covered = false;
        let mut lookup_only = false;
        let mut egress_covered = false;
        // Where cells (if any) enter the fabric from.
        let mut fabric_src = ingress;
        match route.ingress {
            IngressRoute::Normal => stages.push(Stage::IngressProc { lc: ingress }),
            IngressRoute::RemoteLookup { helper } => {
                lookup_only = true;
                stages.push(Stage::RemoteLookup { helper });
                stages.push(Stage::IngressProc { lc: ingress });
            }
            IngressRoute::PdluCover { helper } | IngressRoute::SruCover { helper } => {
                ingress_covered = true;
                stages.push(Stage::EibHop {
                    to: helper,
                    flow: ingress,
                });
                stages.push(Stage::HelperProc { lc: helper });
                fabric_src = helper;
            }
            IngressRoute::Blocked(_) => unreachable!("blocked handled above"),
        }
        match route.egress {
            EgressRoute::Normal => {
                stages.push(Stage::Fabric {
                    src: fabric_src,
                    dst: egress,
                });
                stages.push(Stage::EgressProc { lc: egress });
            }
            EgressRoute::SruCover | EgressRoute::PdluDirect => {
                egress_covered = true;
                // Whole packets cross the EIB straight to the egress
                // card (to its PDLU or PIU) — no fabric hop.
                stages.push(Stage::EibHop {
                    to: egress,
                    flow: egress | EGRESS_FLOW_OFFSET,
                });
                stages.push(Stage::EgressProc { lc: egress });
            }
            EgressRoute::PdluViaInter { inter } => {
                egress_covered = true;
                stages.push(Stage::Fabric {
                    src: fabric_src,
                    dst: inter,
                });
                stages.push(Stage::InterProc { lc: inter });
                stages.push(Stage::EibHop {
                    to: egress,
                    flow: egress | EGRESS_FLOW_OFFSET,
                });
                stages.push(Stage::EgressProc { lc: egress });
            }
            EgressRoute::Blocked(_) => unreachable!("blocked handled above"),
        }
        let path = match (ingress_covered || lookup_only, egress_covered) {
            (false, false) => PathKind::Normal,
            (true, false) if lookup_only => PathKind::RemoteLookup,
            (true, false) => PathKind::IngressEib,
            (false, true) => PathKind::EgressEib,
            (true, true) => PathKind::Both,
        };
        Ok((stages, path))
    }

    fn handle_arrival(&mut self, lc: u16, ctx: &mut Ctx<'_, DraEvent>) {
        // The train resolves the FIB lookup in batch; `route` is
        // exactly what `fib.lookup(dst)` returns at this instant.
        let (arrival, route) = self.trains[lc as usize].pop(
            &mut self.generators[lc as usize],
            &mut self.traffic_rngs[lc as usize],
            &self.linecards[lc as usize].fib,
        );
        let next_at = ctx.now() + arrival.dt;
        if self
            .config
            .router
            .arrival_stop_s
            .is_none_or(|stop| next_at < stop)
        {
            ctx.schedule(arrival.dt, DraEvent::Arrival { lc });
        }

        let packet = Packet::new(
            self.id_gens[lc as usize].next_id(),
            BdrConfig::dst_base_of(lc as usize),
            arrival.dst,
            arrival.ip_bytes,
            self.linecards[lc as usize].protocol,
            ctx.now(),
        );
        self.metrics.lcs[lc as usize].offer(packet.ip_bytes);
        if tm::armed() {
            tm::counter_add(tm::ids::ARRIVALS, 1);
            tm::counter_add(tm::ids::FIB_LOOKUPS, 1);
            tm::event(
                tm::EventKind::Arrival,
                packet.id.0,
                lc as u32,
                packet.ip_bytes,
            );
            tm::track_arrival(packet.id.0, lc as u32, packet.ip_bytes);
            if let Some(egress) = route {
                tm::event(
                    tm::EventKind::FibLookup,
                    packet.id.0,
                    lc as u32,
                    egress as u32,
                );
            }
        }
        let meta = FlowMeta {
            id: packet.id,
            ip_bytes: packet.ip_bytes,
            arrived_at: packet.arrived_at,
            ingress: lc,
            covered: false,
            path: PathKind::Normal,
        };

        // Per-port PIU losses: arrivals on a disconnected ingress port
        // never enter; traffic bound for a disconnected egress port has
        // nowhere to leave. Coverage cannot help either (§3.2).
        let ingress_loss = self.linecards[lc as usize].piu_loss_fraction();
        if ingress_loss > 0.0 && dra_des::random::coin(ctx.rng(), ingress_loss) {
            self.drop(&meta, DropCause::IngressDown);
            return;
        }
        // The lookup target is known to the model regardless of which
        // LFE will be charged for it; latency is charged per plan.
        let Some(egress) = route else {
            self.drop(&meta, DropCause::NoRoute);
            return;
        };
        let egress_loss = self.linecards[egress as usize].piu_loss_fraction();
        if egress_loss > 0.0 && dra_des::random::coin(ctx.rng(), egress_loss) {
            self.drop(&meta, DropCause::EgressDown);
            return;
        }
        if !self.fabric.operational() {
            self.drop(&meta, DropCause::FabricDown);
            return;
        }
        match self.plan_stages(lc, egress, ctx.now()) {
            Err(cause) => self.drop(&meta, cause),
            Ok((stages, path)) => {
                let meta = FlowMeta {
                    covered: path != PathKind::Normal,
                    path,
                    ..meta
                };
                ctx.schedule(
                    0.0,
                    DraEvent::StageStart {
                        meta,
                        stages,
                        idx: 0,
                    },
                );
            }
        }
    }

    fn finish(&mut self, meta: &FlowMeta, now: f64) {
        let latency = now - meta.arrived_at;
        let m = &mut self.metrics.lcs[meta.ingress as usize];
        m.deliver(meta.ip_bytes, latency);
        m.ingress_delivered += 1;
        if meta.covered {
            m.covered_packets += 1;
        }
        self.latency_by_path[meta.path.index()].push(latency);
        self.latency_hist_by_path[meta.path.index()].record(latency);
        if tm::armed() {
            tm::counter_add(tm::ids::DELIVERED, 1);
            tm::event(
                tm::EventKind::Deliver,
                meta.id.0,
                meta.ingress as u32,
                meta.ip_bytes,
            );
            tm::finish_packet(meta.id.0);
        }
    }

    /// Latency statistics of delivered packets, per [`PathKind`].
    pub fn latency_by_path(&self, path: PathKind) -> &dra_des::stats::Welford {
        &self.latency_by_path[path.index()]
    }

    /// Latency distribution (log histogram) per [`PathKind`].
    pub fn latency_hist_by_path(&self, path: PathKind) -> &dra_des::stats::LogHistogram {
        &self.latency_hist_by_path[path.index()]
    }

    fn run_stage(
        &mut self,
        meta: FlowMeta,
        stages: StagePlan,
        idx: usize,
        ctx: &mut Ctx<'_, DraEvent>,
    ) {
        let Some(&stage) = stages.as_slice().get(idx) else {
            // Plan exhausted: the packet has left the router.
            self.finish(&meta, ctx.now());
            return;
        };
        match stage {
            Stage::IngressProc { lc } => {
                let p = self.as_packet(&meta);
                let delay = self.linecards[lc as usize].ingress_delay(&p);
                ctx.schedule(
                    delay,
                    DraEvent::StageStart {
                        meta,
                        stages,
                        idx: idx + 1,
                    },
                );
            }
            Stage::HelperProc { lc } | Stage::InterProc { lc } => {
                // Ground truth check: the plan may rest on a stale view
                // (gossip window) — a helper that just died can't help.
                // An LC_inter (Case 3) additionally frames with its
                // PDLU, which therefore must be alive.
                let c = self.linecards[lc as usize].components;
                let pdlu_needed = matches!(stage, Stage::InterProc { .. });
                if !c.pi_units_healthy()
                    || c.bus_controller == Health::Failed
                    || (pdlu_needed && c.pdlu == Health::Failed)
                {
                    self.drop(&meta, DropCause::NoCoverage);
                    return;
                }
                let p = self.as_packet(&meta);
                let delay = self.linecards[lc as usize].ingress_delay(&p);
                ctx.schedule(
                    delay,
                    DraEvent::StageStart {
                        meta,
                        stages,
                        idx: idx + 1,
                    },
                );
            }
            Stage::RemoteLookup { helper: _ } => {
                // REQ_L + REP_L: two control packets.
                self.control_attempt(meta, stages, idx, 2, 0, ctx);
            }
            Stage::EibHop { to: _, flow } => {
                if !self.eib_healthy {
                    self.drop(&meta, DropCause::NoCoverage);
                    return;
                }
                // First use of a flow pays the LP setup handshake.
                if !self.lp_established.contains(&flow) {
                    self.lp_established.insert(flow);
                    self.control_attempt(meta, stages, idx, 2, 0, ctx);
                    return;
                }
                self.eib_transfer(meta, stages, idx, ctx);
            }
            Stage::Fabric { src, dst } => {
                let p = self.as_packet(&meta);
                let mut overflow = false;
                for cell in segment_cells(&p, src, dst) {
                    if self.fabric.enqueue(cell).is_err() {
                        overflow = true;
                        break;
                    }
                }
                if overflow {
                    self.drop(&meta, DropCause::VoqOverflow);
                } else {
                    if tm::armed() {
                        tm::counter_add(
                            tm::ids::VOQ_ENQUEUED_CELLS,
                            dra_net::sar::cells_for(meta.ip_bytes) as u64,
                        );
                        tm::event(tm::EventKind::VoqEnqueue, meta.id.0, src as u32, dst as u32);
                        tm::mark_lookup_done(meta.id.0);
                        tm::mark_voq_enqueue(meta.id.0);
                    }
                    self.in_fabric.insert(meta.id, (meta, stages, idx + 1));
                }
                self.ensure_fabric_slot(ctx);
            }
            Stage::EgressProc { lc } => {
                // Ground truth checks against stale plans: a fabric →
                // egress step requires the egress SRU+PDLU; an EIB →
                // egress step bypasses them; the PIU is always needed.
                let c = self.linecards[lc as usize].components;
                let via_fabric = idx > 0 && matches!(stages[idx - 1], Stage::Fabric { .. });
                let units_ok = if via_fabric {
                    c.sru == Health::Healthy && c.pdlu == Health::Healthy
                } else {
                    true
                };
                if c.piu == Health::Failed || !units_ok {
                    self.drop(&meta, DropCause::EgressDown);
                    return;
                }
                let delay = self.linecards[lc as usize].egress_delay(meta.ip_bytes);
                ctx.schedule(
                    delay,
                    DraEvent::StageStart {
                        meta,
                        stages,
                        idx: idx + 1,
                    },
                );
            }
        }
    }

    fn as_packet(&self, meta: &FlowMeta) -> Packet {
        Packet::new(
            meta.id,
            BdrConfig::dst_base_of(meta.ingress as usize),
            Ipv4Addr(0),
            meta.ip_bytes,
            self.linecards[meta.ingress as usize].protocol,
            meta.arrived_at,
        )
    }

    /// EIB data-line transfer at the flow's promised rate.
    fn eib_transfer(
        &mut self,
        meta: FlowMeta,
        stages: StagePlan,
        idx: usize,
        ctx: &mut Ctx<'_, DraEvent>,
    ) {
        let Stage::EibHop { flow, .. } = stages[idx] else {
            unreachable!("eib_transfer on a non-EIB stage");
        };
        let rate = match self.b_prom.get(&flow) {
            Some(&r) if r > 0.0 => r,
            // Health changed underneath us (e.g. repaired): fall back
            // to the full data-line rate.
            _ => self.config.eib.data_rate_bps,
        };
        let now = ctx.now();
        let busy = self.eib_busy_until.entry(flow).or_insert(now);
        let start = busy.max(now);
        let done = start + meta.ip_bytes as f64 * 8.0 / rate;
        if done - now > self.config.eib.max_backlog_s {
            // Promised bandwidth exceeded: shed the packet (§4).
            self.drop(&meta, DropCause::EibOversubscribed);
            return;
        }
        *busy = done;
        self.metrics.eib_packets += 1;
        self.metrics.eib_bytes += meta.ip_bytes as u64;
        if tm::armed() {
            tm::counter_add(tm::ids::EIB_DETOURS, 1);
            tm::event(
                tm::EventKind::EibDetour,
                meta.id.0,
                flow as u32,
                meta.ip_bytes,
            );
            tm::mark_eib_hop(meta.id.0, start, done - start);
        }
        ctx.schedule(
            done - now,
            DraEvent::StageStart {
                meta,
                stages,
                idx: idx + 1,
            },
        );
    }

    /// Try to put a control packet on the CSMA/CD lines.
    fn control_attempt(
        &mut self,
        meta: FlowMeta,
        stages: StagePlan,
        idx: usize,
        remaining: u8,
        attempt: u32,
        ctx: &mut Ctx<'_, DraEvent>,
    ) {
        if !self.eib_healthy {
            self.drop(&meta, DropCause::NoCoverage);
            return;
        }
        if attempt >= self.config.eib.max_control_attempts {
            self.drop(&meta, DropCause::EibOversubscribed);
            return;
        }
        match self.control.attempt(ctx.now()) {
            TxResult::Started { tx, done_at } => {
                self.metrics.eib_control_packets += 1;
                tm::counter_add(tm::ids::EIB_CONTROL_ATTEMPTS, 1);
                ctx.schedule(
                    done_at - ctx.now(),
                    DraEvent::ControlDone {
                        meta,
                        stages,
                        idx,
                        remaining: remaining - 1,
                        attempt,
                        tx,
                    },
                );
            }
            TxResult::Deferred { until } => {
                let wait = (until - ctx.now()).max(1e-9);
                ctx.schedule(
                    wait,
                    DraEvent::ControlRetry {
                        meta,
                        stages,
                        idx,
                        remaining,
                        attempt,
                    },
                );
            }
            TxResult::Collided { jam_until } => {
                self.metrics.eib_collisions += 1;
                tm::counter_add(tm::ids::EIB_COLLISIONS, 1);
                let backoff = self.control.backoff_delay(ctx.rng(), attempt + 1);
                let wait = (jam_until - ctx.now()).max(0.0) + backoff + 1e-9;
                ctx.schedule(
                    wait,
                    DraEvent::ControlRetry {
                        meta,
                        stages,
                        idx,
                        remaining,
                        attempt: attempt + 1,
                    },
                );
            }
        }
    }

    // The argument list mirrors the `ControlDone` event's fields.
    #[allow(clippy::too_many_arguments)]
    fn handle_control_done(
        &mut self,
        meta: FlowMeta,
        stages: StagePlan,
        idx: usize,
        remaining: u8,
        attempt: u32,
        tx: u64,
        ctx: &mut Ctx<'_, DraEvent>,
    ) {
        if !self.control.complete(tx) {
            // Our transmission got garbled by a collision: back off.
            let backoff = self.control.backoff_delay(ctx.rng(), attempt + 1);
            ctx.schedule(
                backoff + 1e-9,
                DraEvent::ControlRetry {
                    meta,
                    stages,
                    idx,
                    remaining: remaining + 1,
                    attempt: attempt + 1,
                },
            );
            return;
        }
        if remaining > 0 {
            // Next control packet of the transaction (e.g. the reply),
            // after the responder's turnaround (one lookup delay).
            let turnaround = dra_router::linecard::LFE_LOOKUP_DELAY_S;
            ctx.schedule(
                turnaround,
                DraEvent::ControlRetry {
                    meta,
                    stages,
                    idx,
                    remaining,
                    attempt: 0,
                },
            );
            return;
        }
        // Transaction complete: resume the stage it was serving.
        match stages[idx] {
            Stage::RemoteLookup { .. } => {
                ctx.schedule(
                    0.0,
                    DraEvent::StageStart {
                        meta,
                        stages,
                        idx: idx + 1,
                    },
                );
            }
            Stage::EibHop { .. } => {
                // LP handshake done; now the data transfer itself.
                self.eib_transfer(meta, stages, idx, ctx);
            }
            _ => unreachable!("control transaction on unexpected stage"),
        }
    }

    fn handle_fabric_slot(&mut self, ctx: &mut Ctx<'_, DraEvent>) {
        self.slot_scheduled = false;
        if !self.fabric.operational() {
            // Slot train stops with the fabric; stale credit must not
            // fund an above-capacity burst once planes return.
            self.capacity_credit = 0.0;
            return;
        }
        self.capacity_credit += self.fabric.capacity_fraction();
        if self.capacity_credit >= 1.0 {
            self.capacity_credit -= 1.0;
            let now = ctx.now();
            // Collect the slot's winners as 4-byte handles, then take
            // each cell out of the arena as it is delivered: delivery
            // needs `&mut self` for reassembly and stage dispatch.
            let mut slot = std::mem::take(&mut self.slot_handles);
            self.fabric.schedule_slot_handles(&mut slot);
            for &h in &slot {
                let cell = self.fabric.take_cell(h);
                let dst = cell.dst_lc;
                if tm::armed() {
                    tm::counter_add(tm::ids::CELLS_SWITCHED, 1);
                    tm::event(
                        tm::EventKind::FabricTransit,
                        cell.packet.0,
                        cell.src_lc as u32,
                        dst as u32,
                    );
                    tm::mark_cell_switched(cell.packet.0);
                }
                match self.linecards[dst as usize].reassembler.push(&cell, now) {
                    Ok(Some((packet_id, _bytes))) => {
                        if let Some((meta, stages, idx)) = self.in_fabric.remove(&packet_id) {
                            ctx.schedule(0.0, DraEvent::StageStart { meta, stages, idx });
                        }
                    }
                    Ok(None) => {}
                    Err(_) => {}
                }
            }
            slot.clear();
            self.slot_handles = slot;
        }
        self.ensure_fabric_slot(ctx);
        if !self.slot_scheduled {
            // Queue drained: forfeit fractional credit rather than
            // banking it across the idle gap (see the BDR twin).
            self.capacity_credit = 0.0;
        }
    }

    fn handle_purge(&mut self, ctx: &mut Ctx<'_, DraEvent>) {
        let cutoff = ctx.now() - self.config.router.reassembly_timeout_s;
        for lc in 0..self.config.router.n_lcs {
            let stale = self.linecards[lc].reassembler.purge_collect(cutoff);
            for (_, packet_id) in stale {
                if let Some((meta, _, _)) = self.in_fabric.remove(&packet_id) {
                    self.drop(&meta, DropCause::ReassemblyTimeout);
                }
            }
        }
        ctx.schedule(
            self.config.router.reassembly_timeout_s,
            DraEvent::PurgeReassembly,
        );
    }
}

impl Model for DraRouter {
    type Event = DraEvent;

    fn handle(&mut self, event: DraEvent, ctx: &mut Ctx<'_, DraEvent>) {
        match event {
            DraEvent::Start => {
                self.recompute_bandwidth();
                for lc in 0..self.config.router.n_lcs as u16 {
                    // Only `.dt` matters here: the kick-off record's
                    // payload never becomes a packet (as before).
                    let (first, _) = self.trains[lc as usize].pop(
                        &mut self.generators[lc as usize],
                        &mut self.traffic_rngs[lc as usize],
                        &self.linecards[lc as usize].fib,
                    );
                    ctx.schedule(first.dt, DraEvent::Arrival { lc });
                    self.arm_faults_for_lc(lc, ctx);
                }
                if let Some(injector) = self.config.router.faults.as_ref() {
                    if let Some(d) = injector.arm_eib(ctx.rng()) {
                        ctx.schedule(d * self.config.router.fault_delay_scale, DraEvent::FailEib);
                    }
                }
                ctx.schedule(
                    self.config.router.reassembly_timeout_s,
                    DraEvent::PurgeReassembly,
                );
            }
            DraEvent::Arrival { lc } => self.handle_arrival(lc, ctx),
            DraEvent::StageStart { meta, stages, idx } => self.run_stage(meta, stages, idx, ctx),
            DraEvent::ControlRetry {
                meta,
                stages,
                idx,
                remaining,
                attempt,
            } => self.control_attempt(meta, stages, idx, remaining, attempt, ctx),
            DraEvent::ControlDone {
                meta,
                stages,
                idx,
                remaining,
                attempt,
                tx,
            } => self.handle_control_done(meta, stages, idx, remaining, attempt, tx, ctx),
            DraEvent::FabricSlot => self.handle_fabric_slot(ctx),
            DraEvent::Fail { lc, kind, gen } => {
                if !self.generations.is_current(lc as usize, gen) {
                    return;
                }
                self.fail_component_now(lc, kind, ctx.now());
                if !self.repair_pending[lc as usize] {
                    self.repair_pending[lc as usize] = true;
                    if let Some(injector) = &self.config.router.faults {
                        let delay =
                            injector.repair_delay_h() * self.config.router.fault_delay_scale;
                        ctx.schedule(delay, DraEvent::Repair { lc });
                    }
                }
            }
            DraEvent::FailEib => {
                self.fail_eib_now(ctx.now());
                if let Some(injector) = &self.config.router.faults {
                    let delay = injector.repair_delay_h() * self.config.router.fault_delay_scale;
                    ctx.schedule(delay, DraEvent::RepairEib);
                }
            }
            DraEvent::Repair { lc } => {
                self.repair_lc_now(lc, ctx.now());
                self.arm_faults_for_lc(lc, ctx);
            }
            DraEvent::RepairEib => {
                self.repair_eib_now(ctx.now());
                if let Some(injector) = self.config.router.faults.as_ref() {
                    if let Some(d) = injector.arm_eib(ctx.rng()) {
                        ctx.schedule(d * self.config.router.fault_delay_scale, DraEvent::FailEib);
                    }
                }
            }
            DraEvent::PurgeReassembly => self.handle_purge(ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(n: usize, load: f64) -> DraConfig {
        DraConfig {
            router: BdrConfig {
                n_lcs: n,
                load,
                ..BdrConfig::default()
            },
            eib: EibConfig::default(),
        }
    }

    #[test]
    fn healthy_dra_behaves_like_bdr() {
        let mut sim = DraRouter::simulation(config(4, 0.3), 42);
        sim.run_until(3e-3);
        let m = &sim.model().metrics;
        assert!(m.total_offered_bytes() > 0);
        assert!(
            m.byte_delivery_ratio() > 0.98,
            "{}",
            m.byte_delivery_ratio()
        );
        assert_eq!(m.eib_packets, 0, "EIB must be idle with no failures");
        assert_eq!(m.eib_control_packets, 0);
    }

    #[test]
    fn lfe_failure_is_covered_by_remote_lookup() {
        let mut sim = DraRouter::simulation(config(4, 0.2), 7);
        sim.run_until(1e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(0, ComponentKind::Lfe, now);
        let delivered_before = sim.model().metrics.lcs[0].delivered_packets;
        sim.run_until(4e-3);
        let m = &sim.model().metrics;
        assert!(
            m.lcs[0].delivered_packets > delivered_before,
            "LC0 must keep delivering via remote lookups"
        );
        assert!(m.lcs[0].covered_packets > 0);
        assert!(
            m.eib_control_packets > 0,
            "REQ_L/REP_L must ride the control lines"
        );
        assert_eq!(
            m.lcs[0].drops(DropCause::IngressDown),
            0,
            "DRA must not drop what BDR would"
        );
    }

    #[test]
    fn sru_failure_is_covered_over_data_lines() {
        let mut sim = DraRouter::simulation(config(4, 0.2), 8);
        sim.run_until(1e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(0, ComponentKind::Sru, now);
        sim.run_until(4e-3);
        let m = &sim.model().metrics;
        assert!(m.lcs[0].covered_packets > 0, "coverage must kick in");
        assert!(m.eib_packets > 0, "packets must cross the EIB data lines");
        assert!(m.eib_bytes > 0);
    }

    #[test]
    fn pdlu_failure_requires_same_protocol_peer() {
        use dra_net::protocol::ProtocolKind;
        // LC0/LC2 Ethernet, LC1/LC3 ATM: a PDLU failure at 0 is covered
        // by 2.
        let mut cfg = config(4, 0.2);
        cfg.router.protocols = vec![
            ProtocolKind::Ethernet,
            ProtocolKind::Atm,
            ProtocolKind::Ethernet,
            ProtocolKind::Atm,
        ];
        let mut sim = DraRouter::simulation(cfg, 9);
        sim.run_until(1e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(0, ComponentKind::Pdlu, now);
        sim.run_until(4e-3);
        let m = &sim.model().metrics;
        assert!(m.lcs[0].covered_packets > 0, "Ethernet peer must cover");

        // Now break the only same-protocol peer's SRU (its PIU would
        // not matter — it is not on the coverage path): drops appear.
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(2, ComponentKind::Sru, now);
        sim.run_until(8e-3);
        let m = &sim.model().metrics;
        assert!(
            m.lcs[0].drops(DropCause::NoCoverage) > 0,
            "no same-protocol helper left"
        );
    }

    #[test]
    fn egress_sru_failure_bypassed_via_eib() {
        let mut sim = DraRouter::simulation(config(4, 0.2), 10);
        sim.run_until(1e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(2, ComponentKind::Sru, now);
        // Packets already planned onto LC2's fabric→egress path at the
        // failure instant may still be lost to the ground-truth check;
        // let them drain before demanding steady-state coverage.
        sim.run_until(1.5e-3);
        let in_flight_losses: u64 = (0..4)
            .map(|i| sim.model().metrics.lcs[i].drops(DropCause::EgressDown))
            .sum();
        sim.run_until(4e-3);
        let m = &sim.model().metrics;
        // Peers keep delivering *to* LC2 over the EIB.
        assert!(m.eib_packets > 0);
        let egress_drops: u64 = (0..4).map(|i| m.lcs[i].drops(DropCause::EgressDown)).sum();
        assert_eq!(
            egress_drops, in_flight_losses,
            "DRA must cover the failed egress SRU once in-flight traffic drains"
        );
    }

    #[test]
    fn dead_eib_reduces_dra_to_bdr() {
        let mut sim = DraRouter::simulation(config(4, 0.2), 11);
        sim.run_until(0.5e-3);
        let now = sim.now();
        sim.model_mut().fail_eib_now(now);
        sim.model_mut()
            .fail_component_now(0, ComponentKind::Lfe, now);
        sim.run_until(2e-3);
        let m = &sim.model().metrics;
        assert!(
            m.lcs[0].drops(DropCause::IngressDown) > 0,
            "no EIB, no coverage"
        );
        assert_eq!(m.lcs[0].covered_packets, 0);
    }

    #[test]
    fn piu_failure_is_not_coverable() {
        let mut sim = DraRouter::simulation(config(4, 0.2), 12);
        sim.run_until(0.5e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(0, ComponentKind::Piu, now);
        sim.run_until(2e-3);
        let m = &sim.model().metrics;
        assert!(m.lcs[0].drops(DropCause::IngressDown) > 0);
        assert_eq!(m.lcs[0].covered_packets, 0);
    }

    #[test]
    fn multi_port_piu_failure_degrades_proportionally() {
        // Four ports; one PIU dies: ~25% of LC0's ingress traffic is
        // lost, and nothing can cover it — but the rest still flows.
        let mut cfg = config(4, 0.2);
        cfg.router.ports_per_lc = 4;
        let mut sim = DraRouter::simulation(cfg, 55);
        sim.run_until(1e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(0, ComponentKind::Piu, now);
        let offered_at_fail = sim.model().metrics.lcs[0].offered_packets;
        let drops_at_fail = sim.model().metrics.lcs[0].drops(DropCause::IngressDown);
        sim.run_until(6e-3);
        let m = &sim.model().metrics;
        let offered = m.lcs[0].offered_packets - offered_at_fail;
        let dropped = m.lcs[0].drops(DropCause::IngressDown) - drops_at_fail;
        let frac = dropped as f64 / offered as f64;
        assert!(
            (frac - 0.25).abs() < 0.05,
            "one of four ports down should cost ~25%, got {frac}"
        );
        assert_eq!(m.lcs[0].covered_packets, 0, "PIU loss is uncoverable");
        // The card is still serviceable overall (3 ports live).
        assert!(sim.model().lc_serviceable(0));
        // Repair restores all ports.
        let now = sim.now();
        sim.model_mut().repair_lc_now(0, now);
        assert_eq!(sim.model().linecards[0].piu_failed_ports, 0);
    }

    #[test]
    fn serviceability_signal_tracks_coverage() {
        let mut sim = DraRouter::simulation(config(4, 0.2), 13);
        sim.run_until(0.5e-3);
        assert!(sim.model().lc_serviceable(0));
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(0, ComponentKind::Sru, now);
        assert!(
            sim.model().lc_serviceable(0),
            "covered LC still serviceable"
        );
        let now = sim.now();
        sim.model_mut().fail_eib_now(now);
        assert!(!sim.model().lc_serviceable(0), "no EIB, not serviceable");
        sim.model_mut().repair_eib_now(now);
        sim.model_mut().repair_lc_now(0, now);
        assert!(sim.model().lc_serviceable(0));
    }

    #[test]
    fn repair_restores_normal_path_and_releases_lp() {
        let mut sim = DraRouter::simulation(config(4, 0.2), 14);
        sim.run_until(0.5e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(0, ComponentKind::Sru, now);
        sim.run_until(2e-3);
        let eib_before = sim.model().metrics.eib_packets;
        assert!(eib_before > 0);
        let now = sim.now();
        sim.model_mut().repair_lc_now(0, now);
        sim.run_until(4e-3);
        // After repair traffic goes back to the fabric; EIB growth stops.
        let eib_after = sim.model().metrics.eib_packets;
        let grown = eib_after - eib_before;
        // A handful already in flight may still land.
        assert!(
            grown < 10,
            "EIB still carrying traffic after repair: {grown}"
        );
    }

    #[test]
    fn latency_accounting_splits_by_path() {
        let mut sim = DraRouter::simulation(config(4, 0.15), 70);
        sim.run_until(1e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(0, ComponentKind::Lfe, now);
        sim.run_until(4e-3);
        let model = sim.model();
        let normal = model.latency_by_path(PathKind::Normal);
        let lookup = model.latency_by_path(PathKind::RemoteLookup);
        assert!(normal.count() > 0 && lookup.count() > 0);
        assert!(
            lookup.mean() > normal.mean(),
            "remote lookups must cost latency: {} vs {}",
            lookup.mean(),
            normal.mean()
        );
        // No EIB data path was exercised in this scenario.
        assert_eq!(model.latency_by_path(PathKind::IngressEib).count(), 0);
        // Per-path deliveries sum to total deliveries.
        let by_path: u64 = PathKind::ALL
            .iter()
            .map(|&p| model.latency_by_path(p).count())
            .sum();
        let total: u64 = model.metrics.lcs.iter().map(|l| l.delivered_packets).sum();
        assert_eq!(by_path, total);
    }

    #[test]
    fn gossip_window_drops_then_recovers() {
        // With a 1 ms dissemination delay, peers keep using the normal
        // path toward a card whose SRU just died — those packets are
        // lost at the egress ground-truth check — until the fault table
        // converges and coverage takes over.
        let mut cfg = config(4, 0.2);
        cfg.eib.gossip_delay_s = 1e-3;
        let mut sim = DraRouter::simulation(cfg, 77);
        sim.run_until(1e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(2, ComponentKind::Sru, now);
        sim.run_until(5e-3);
        let m = &sim.model().metrics;
        let window_drops: u64 = (0..4).map(|i| m.lcs[i].drops(DropCause::EgressDown)).sum();
        assert!(
            window_drops > 0,
            "stale views must cost packets during the gossip window"
        );
        assert!(m.eib_packets > 0, "after convergence, coverage must engage");

        // The same scenario with oracle gossip loses nothing.
        let mut cfg0 = config(4, 0.2);
        cfg0.eib.gossip_delay_s = 0.0;
        let mut sim0 = DraRouter::simulation(cfg0, 77);
        sim0.run_until(1e-3);
        let now = sim0.now();
        sim0.model_mut()
            .fail_component_now(2, ComponentKind::Sru, now);
        sim0.run_until(5e-3);
        let m0 = &sim0.model().metrics;
        let drops0: u64 = (0..4).map(|i| m0.lcs[i].drops(DropCause::EgressDown)).sum();
        assert_eq!(drops0, 0, "oracle gossip must not lose packets");
        assert!(
            m0.byte_delivery_ratio() > m.byte_delivery_ratio(),
            "the gossip window must cost measurable goodput"
        );
    }

    #[test]
    fn route_churn_in_service() {
        use dra_net::addr::{Ipv4Addr, Ipv4Prefix};
        let mut sim = DraRouter::simulation(config(4, 0.2), 81);
        sim.run_until(0.5e-3);
        // Announce a more-specific override steering 10.1.128.0/17 to
        // LC3 instead of LC1; traffic keeps flowing.
        let p = Ipv4Prefix::new(Ipv4Addr::from_octets(10, 1, 128, 0), 17);
        sim.model_mut().announce_route(p, 3);
        assert_eq!(sim.model().rp.route_count(), 5);
        sim.run_until(1.5e-3);
        sim.model_mut().withdraw_route(p);
        assert_eq!(sim.model().rp.route_count(), 4);
        sim.run_until(2.5e-3);
        let m = &sim.model().metrics;
        assert!(m.byte_delivery_ratio() > 0.98);
        assert_eq!(m.total_drops(DropCause::NoRoute), 0);
    }

    #[test]
    fn determinism_same_seed() {
        let run = |seed| {
            let mut sim = DraRouter::simulation(config(4, 0.25), seed);
            sim.run_until(1.5e-3);
            (
                sim.model().metrics.total_offered_bytes(),
                sim.model().metrics.total_delivered_bytes(),
                sim.events_processed(),
            )
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21).0, run(22).0);
    }

    #[test]
    fn dra_delivers_more_than_bdr_under_identical_failure() {
        use dra_router::bdr::BdrRouter;
        let seed = 99;
        let horizon = 4e-3;
        let fail_at = 1e-3;

        let mut dra = DraRouter::simulation(config(4, 0.2), seed);
        dra.run_until(fail_at);
        let now = dra.now();
        dra.model_mut()
            .fail_component_now(0, ComponentKind::Lfe, now);
        dra.run_until(horizon);
        let d = &dra.model().metrics;

        let mut bdr = BdrRouter::simulation(
            BdrConfig {
                n_lcs: 4,
                load: 0.2,
                ..BdrConfig::default()
            },
            seed,
        );
        bdr.run_until(fail_at);
        let now = bdr.now();
        bdr.model_mut()
            .fail_component_now(0, ComponentKind::Lfe, now);
        bdr.run_until(horizon);
        let b = &bdr.model().metrics;

        assert!(
            d.lcs[0].delivered_packets > b.lcs[0].delivered_packets,
            "DRA {} must beat BDR {} on the failed card",
            d.lcs[0].delivered_packets,
            b.lcs[0].delivered_packets
        );
        assert!(d.byte_delivery_ratio() > b.byte_delivery_ratio());
    }
}
