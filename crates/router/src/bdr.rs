//! The BDR (basic distributed router) packet-level model — the
//! baseline DRA is compared against.
//!
//! Pipeline per packet (Figure 1 of the paper): ingress PIU → (BDR's
//! fused protocol logic) → SRU segmentation + LFE lookup → crossbar
//! fabric as cells → egress SRU reassembly → egress PIU → wire.
//!
//! BDR's defining dependability property: **any** component failure on
//! a linecard takes all of that linecard's ports offline until the card
//! is replaced. Ingress traffic at a failed card and traffic destined
//! to it are dropped and counted.

use crate::arena::CellHandle;
use crate::components::ComponentKind;
use crate::fabric::Crossbar;
use crate::faults::{FaultInjector, Generations};
use crate::ingress::ArrivalTrain;
use crate::linecard::Linecard;
use crate::metrics::{note_drop, DropCause, LcMetrics, RouterMetrics};
use dra_des::{Ctx, Model, Simulation};
use dra_net::addr::{Ipv4Addr, Ipv4Prefix};
use dra_net::fib::Fib;
use dra_net::packet::{Packet, PacketId, PacketIdGen};
use dra_net::protocol::ProtocolKind;
use dra_net::sar::{segment_cells, CELL_BYTES};
use dra_net::traffic::PoissonGen;
use dra_telemetry as tm;
use std::collections::HashMap;

/// Configuration for a BDR simulation.
#[derive(Debug, Clone)]
pub struct BdrConfig {
    /// Number of linecards.
    pub n_lcs: usize,
    /// Protocol per linecard; cycled if shorter than `n_lcs`.
    pub protocols: Vec<ProtocolKind>,
    /// Port line rate (bits/second). The paper uses 10 Gbps cards.
    pub port_rate_bps: f64,
    /// Offered load as a fraction of the port rate (the paper's `L`).
    pub load: f64,
    /// Cells per virtual output queue.
    pub voq_capacity: usize,
    /// iSLIP iterations per fabric slot.
    pub islip_iterations: usize,
    /// Total switching planes.
    pub fabric_planes_total: usize,
    /// Planes needed for full capacity.
    pub fabric_planes_required: usize,
    /// Fabric speedup relative to the line rate (≥ 1).
    pub fabric_speedup: f64,
    /// External ports per linecard (each behind its own PIU; a PIU
    /// failure disconnects one port's share of the traffic).
    pub ports_per_lc: u16,
    /// Reassembly timeout (seconds).
    pub reassembly_timeout_s: f64,
    /// Optional stochastic fault injection.
    pub faults: Option<FaultInjector>,
    /// Sampled fault/repair delays (in the injector's rate units,
    /// hours for the paper's rates) are multiplied by this to become
    /// simulation seconds. 3600 maps paper-hours to sim-seconds
    /// faithfully; tests use small values to accelerate failures.
    pub fault_delay_scale: f64,
    /// Stop drawing new arrivals at this sim-time (`None` = never).
    /// Running the simulation past the stop drains the pipeline, so
    /// every offered packet resolves to delivered-or-dropped and the
    /// conservation invariant `offered == delivered + Σ drops` holds
    /// exactly.
    pub arrival_stop_s: Option<f64>,
}

impl Default for BdrConfig {
    fn default() -> Self {
        BdrConfig {
            n_lcs: 6,
            protocols: vec![ProtocolKind::Ethernet],
            port_rate_bps: 10e9,
            load: 0.15,
            voq_capacity: 1024,
            islip_iterations: 2,
            fabric_planes_total: 5,
            fabric_planes_required: 4,
            fabric_speedup: 2.0,
            ports_per_lc: 1,
            reassembly_timeout_s: 10e-3,
            faults: None,
            fault_delay_scale: 3600.0,
            arrival_stop_s: None,
        }
    }
}

impl BdrConfig {
    /// The protocol assigned to linecard `lc`.
    pub fn protocol_of(&self, lc: usize) -> ProtocolKind {
        self.protocols[lc % self.protocols.len()]
    }

    /// The `/16` prefix owned by (routed to) linecard `lc`.
    pub fn prefix_of(lc: usize) -> Ipv4Prefix {
        Ipv4Prefix::new(Ipv4Addr::from_octets(10, lc as u8, 0, 0), 16)
    }

    /// A destination base address inside `lc`'s prefix.
    pub fn dst_base_of(lc: usize) -> Ipv4Addr {
        Ipv4Addr::from_octets(10, lc as u8, 0, 0)
    }
}

/// Events driving the BDR model.
#[derive(Debug)]
pub enum BdrEvent {
    /// Kick-off: arm traffic, faults, and housekeeping.
    Start,
    /// Next packet arrives at linecard `lc`'s ingress port.
    Arrival {
        /// Ingress linecard.
        lc: u16,
    },
    /// Ingress pipeline finished; cells are ready for the fabric.
    IngressDone {
        /// Ingress linecard.
        lc: u16,
        /// The packet being switched.
        packet: Packet,
        /// Egress linecard chosen by the LFE.
        egress: u16,
    },
    /// One fabric cell slot.
    FabricSlot,
    /// Egress pipeline finished; the packet leaves the router.
    EgressDone {
        /// Egress linecard.
        lc: u16,
        /// IP bytes delivered.
        ip_bytes: u32,
        /// Ingress timestamp, for latency accounting.
        arrived_at: f64,
        /// The delivered packet (telemetry lifecycle tracking).
        packet: PacketId,
        /// Ingress linecard, for ingress-attributed delivery
        /// accounting (conservation invariant).
        ingress: u16,
    },
    /// A component fails (stamped with the LC's repair generation).
    Fail {
        /// Affected linecard.
        lc: u16,
        /// Failing unit.
        kind: ComponentKind,
        /// Repair generation this event was armed under.
        gen: u32,
    },
    /// Hot-swap repair completes: the whole card is replaced.
    Repair {
        /// Repaired linecard.
        lc: u16,
    },
    /// Periodic reassembly garbage collection.
    PurgeReassembly,
}

/// Metadata for a packet inside the fabric.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    arrived_at: f64,
    ip_bytes: u32,
    ingress: u16,
}

/// The BDR router model. Drive it with [`dra_des::Simulation`] or the
/// convenience constructor [`BdrRouter::simulation`].
#[derive(Debug)]
pub struct BdrRouter {
    /// Configuration this router was built from.
    pub config: BdrConfig,
    /// The linecards.
    pub linecards: Vec<Linecard>,
    /// The switching fabric.
    pub fabric: Crossbar,
    /// Collected metrics.
    pub metrics: RouterMetrics,
    /// The route processor owning the master RIB.
    pub rp: crate::rp::RouteProcessor,
    generators: Vec<PoissonGen>,
    /// Dedicated per-LC RNG streams for traffic, decoupled from the
    /// simulation RNG so two architectures (or two fault scripts) see
    /// byte-identical offered traffic under the same seed regardless
    /// of how much randomness their internals consume.
    traffic_rngs: Vec<rand::rngs::SmallRng>,
    /// Per-LC pre-resolved arrival trains (batched FIB lookups).
    trains: Vec<ArrivalTrain>,
    id_gens: Vec<PacketIdGen>,
    in_flight: HashMap<PacketId, InFlight>,
    generations: Generations,
    repair_pending: Vec<bool>,
    slot_time_s: f64,
    slot_scheduled: bool,
    capacity_credit: f64,
    /// Reused copy of the cells moved in the current fabric slot, so
    /// delivery can run `&mut self` handlers while iterating without
    /// holding the fabric's borrow (and without allocating per slot).
    slot_handles: Vec<CellHandle>,
}

impl BdrRouter {
    /// Build a router (linecards, FIBs, generators) from `config`.
    /// `seed` feeds the per-LC traffic RNG streams (the simulation's
    /// own RNG, seeded separately, covers faults and arbitration).
    pub fn new(config: BdrConfig, seed: u64) -> Self {
        assert!(config.n_lcs >= 2, "need at least two linecards");
        assert!(
            (0.0..=1.0).contains(&config.load) && config.load > 0.0,
            "load must be in (0, 1]"
        );
        assert!(config.fabric_speedup >= 1.0);

        let mut linecards: Vec<Linecard> = (0..config.n_lcs)
            .map(|i| {
                Linecard::with_ports(
                    i as u16,
                    config.protocol_of(i),
                    config.port_rate_bps,
                    config.ports_per_lc,
                )
            })
            .collect();
        // Full mesh routing, distributed by the route processor as in
        // Figure 1: every card learns every destination prefix.
        let mut rp = crate::rp::RouteProcessor::new();
        for dst in 0..config.n_lcs {
            rp.announce(BdrConfig::prefix_of(dst), dst as u16);
        }
        rp.distribute(&mut linecards);
        // Each card offers `load × rate` spread uniformly over the others.
        let generators: Vec<PoissonGen> = (0..config.n_lcs)
            .map(|i| {
                let bases: Vec<Ipv4Addr> = (0..config.n_lcs)
                    .filter(|&j| j != i)
                    .map(BdrConfig::dst_base_of)
                    .collect();
                PoissonGen::new(config.load * config.port_rate_bps, &bases)
            })
            .collect();
        let traffic_rngs = (0..config.n_lcs)
            .map(|i| {
                use rand::SeedableRng;
                rand::rngs::SmallRng::seed_from_u64(
                    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64 + 1),
                )
            })
            .collect();
        let id_gens = (0..config.n_lcs)
            .map(|i| PacketIdGen::starting_at((i as u64) << 48))
            .collect();

        let fabric = Crossbar::new(
            config.n_lcs,
            config.voq_capacity,
            config.islip_iterations,
            config.fabric_planes_total,
            config.fabric_planes_required,
        );
        let slot_time_s = CELL_BYTES as f64 * 8.0 / (config.port_rate_bps * config.fabric_speedup);
        let metrics = RouterMetrics::new(config.n_lcs);
        let generations = Generations::new(config.n_lcs);
        let repair_pending = vec![false; config.n_lcs];
        let trains = (0..config.n_lcs).map(|_| ArrivalTrain::new()).collect();

        BdrRouter {
            config,
            linecards,
            fabric,
            metrics,
            rp,
            generators,
            traffic_rngs,
            trains,
            id_gens,
            in_flight: HashMap::new(),
            generations,
            repair_pending,
            slot_time_s,
            slot_scheduled: false,
            capacity_credit: 0.0,
            slot_handles: Vec::new(),
        }
    }

    /// Wrap the router in a seeded simulation with the start event
    /// queued at t = 0.
    pub fn simulation(config: BdrConfig, seed: u64) -> Simulation<BdrRouter> {
        let mut sim = Simulation::new(BdrRouter::new(config, seed), seed);
        sim.schedule(0.0, BdrEvent::Start);
        sim
    }

    /// Can linecard `lc` currently pass traffic (BDR rule: every unit
    /// on the routing path must be healthy)?
    pub fn lc_operational(&self, lc: u16) -> bool {
        self.linecards[lc as usize]
            .components
            .operational_standalone()
    }

    /// Fail a component immediately (deterministic fault scripting).
    /// A PIU failure takes down *one port*; the aggregate PIU health
    /// reads failed only when every port is gone.
    pub fn fail_component_now(&mut self, lc: u16, kind: ComponentKind, now: f64) {
        if kind == ComponentKind::Piu {
            self.linecards[lc as usize].fail_piu_port();
        } else {
            self.linecards[lc as usize]
                .components
                .set(kind, crate::components::Health::Failed);
        }
        self.refresh_availability(lc, now);
    }

    /// Repair a linecard immediately (deterministic fault scripting).
    pub fn repair_lc_now(&mut self, lc: u16, now: f64) {
        self.linecards[lc as usize].repair_all();
        self.generations.bump(lc as usize);
        self.repair_pending[lc as usize] = false;
        self.refresh_availability(lc, now);
    }

    /// Announce a route at the RP and push it to every card's FIB
    /// (an in-service route update; the paper's internal bus carries
    /// exactly this traffic).
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

    fn refresh_availability(&mut self, lc: u16, now: f64) {
        let up = if self.lc_operational(lc) { 1.0 } else { 0.0 };
        self.metrics.lcs[lc as usize].availability.update(now, up);
    }

    fn metrics_of(&mut self, lc: u16) -> &mut LcMetrics {
        &mut self.metrics.lcs[lc as usize]
    }

    fn ensure_fabric_slot(&mut self, ctx: &mut Ctx<'_, BdrEvent>) {
        if !self.slot_scheduled && !self.fabric.is_empty() {
            self.slot_scheduled = true;
            ctx.schedule(self.slot_time_s, BdrEvent::FabricSlot);
        }
    }

    fn arm_faults_for_lc(&mut self, lc: u16, ctx: &mut Ctx<'_, BdrEvent>) {
        let Some(injector) = self.config.faults.as_ref() else {
            return;
        };
        let scale = self.config.fault_delay_scale;
        let gen = self.generations.current(lc as usize);
        for (kind, delay) in injector.arm_linecard(ctx.rng()) {
            ctx.schedule(delay * scale, BdrEvent::Fail { lc, kind, gen });
        }
    }

    fn handle_arrival(&mut self, lc: u16, ctx: &mut Ctx<'_, BdrEvent>) {
        // Draw and schedule the next arrival first, so drops don't stall
        // the arrival process. The train resolves the FIB lookup in
        // batch; `route` is exactly what `fib.lookup(dst)` returns now.
        let (arrival, route) = self.trains[lc as usize].pop(
            &mut self.generators[lc as usize],
            &mut self.traffic_rngs[lc as usize],
            &self.linecards[lc as usize].fib,
        );
        let next_at = ctx.now() + arrival.dt;
        if self.config.arrival_stop_s.is_none_or(|stop| next_at < stop) {
            ctx.schedule(arrival.dt, BdrEvent::Arrival { lc });
        }

        let packet = Packet::new(
            self.id_gens[lc as usize].next_id(),
            BdrConfig::dst_base_of(lc as usize),
            arrival.dst,
            arrival.ip_bytes,
            self.linecards[lc as usize].protocol,
            ctx.now(),
        );
        self.metrics_of(lc).offer(packet.ip_bytes);
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

        if !self.lc_operational(lc) {
            self.metrics_of(lc)
                .drop_packet(DropCause::IngressDown, packet.ip_bytes);
            note_drop(packet.id, DropCause::IngressDown, lc);
            return;
        }
        // A partially PIU-failed card has lost that share of its
        // external links: the affected ports' arrivals never enter.
        let piu_loss = self.linecards[lc as usize].piu_loss_fraction();
        if piu_loss > 0.0 && dra_des::random::coin(ctx.rng(), piu_loss) {
            self.metrics_of(lc)
                .drop_packet(DropCause::IngressDown, packet.ip_bytes);
            note_drop(packet.id, DropCause::IngressDown, lc);
            return;
        }
        let Some(egress) = route else {
            self.metrics_of(lc)
                .drop_packet(DropCause::NoRoute, packet.ip_bytes);
            note_drop(packet.id, DropCause::NoRoute, lc);
            return;
        };
        if !self.lc_operational(egress) {
            self.metrics_of(lc)
                .drop_packet(DropCause::EgressDown, packet.ip_bytes);
            note_drop(packet.id, DropCause::EgressDown, lc);
            return;
        }
        // Likewise for the egress card's disconnected ports.
        let egress_loss = self.linecards[egress as usize].piu_loss_fraction();
        if egress_loss > 0.0 && dra_des::random::coin(ctx.rng(), egress_loss) {
            self.metrics_of(lc)
                .drop_packet(DropCause::EgressDown, packet.ip_bytes);
            note_drop(packet.id, DropCause::EgressDown, lc);
            return;
        }
        if !self.fabric.operational() {
            self.metrics_of(lc)
                .drop_packet(DropCause::FabricDown, packet.ip_bytes);
            note_drop(packet.id, DropCause::FabricDown, lc);
            return;
        }
        let delay = self.linecards[lc as usize].ingress_delay(&packet);
        ctx.schedule(delay, BdrEvent::IngressDone { lc, packet, egress });
    }

    fn handle_ingress_done(
        &mut self,
        lc: u16,
        packet: Packet,
        egress: u16,
        ctx: &mut Ctx<'_, BdrEvent>,
    ) {
        let mut overflowed = false;
        for cell in segment_cells(&packet, lc, egress) {
            if self.fabric.enqueue(cell).is_err() {
                overflowed = true;
                break;
            }
        }
        if overflowed {
            self.metrics_of(lc)
                .drop_packet(DropCause::VoqOverflow, packet.ip_bytes);
            note_drop(packet.id, DropCause::VoqOverflow, lc);
            // Any cells already enqueued will strand in the egress
            // reassembler and be reclaimed by the periodic purge.
        } else {
            if tm::armed() {
                tm::counter_add(
                    tm::ids::VOQ_ENQUEUED_CELLS,
                    dra_net::sar::cells_for(packet.ip_bytes) as u64,
                );
                tm::event(
                    tm::EventKind::VoqEnqueue,
                    packet.id.0,
                    lc as u32,
                    egress as u32,
                );
                tm::mark_lookup_done(packet.id.0);
                tm::mark_voq_enqueue(packet.id.0);
            }
            self.in_flight.insert(
                packet.id,
                InFlight {
                    arrived_at: packet.arrived_at,
                    ip_bytes: packet.ip_bytes,
                    ingress: lc,
                },
            );
        }
        self.ensure_fabric_slot(ctx);
    }

    fn handle_fabric_slot(&mut self, ctx: &mut Ctx<'_, BdrEvent>) {
        self.slot_scheduled = false;
        if !self.fabric.operational() {
            // Fabric dead: cells stay queued until planes are repaired.
            // The slot train stops here, so any fractional credit must
            // not survive to the restart — it would serve an
            // above-capacity burst the moment planes come back.
            self.capacity_credit = 0.0;
            return;
        }
        // Degraded fabric: serve slots at the reduced rate by credit.
        self.capacity_credit += self.fabric.capacity_fraction();
        if self.capacity_credit >= 1.0 {
            self.capacity_credit -= 1.0;
            let now = ctx.now();
            // Collect the slot's winners as 4-byte handles, then take
            // each cell out of the arena as it is delivered: delivery
            // below needs `&mut self` (metrics, reassembly).
            let mut slot = std::mem::take(&mut self.slot_handles);
            self.fabric.schedule_slot_handles(&mut slot);
            for &h in &slot {
                let cell = self.fabric.take_cell(h);
                let egress = cell.dst_lc;
                if tm::armed() {
                    tm::counter_add(tm::ids::CELLS_SWITCHED, 1);
                    tm::event(
                        tm::EventKind::FabricTransit,
                        cell.packet.0,
                        cell.src_lc as u32,
                        egress as u32,
                    );
                    tm::mark_cell_switched(cell.packet.0);
                }
                match self.linecards[egress as usize].reassembler.push(&cell, now) {
                    Ok(Some((packet_id, ip_bytes))) => {
                        let Some(meta) = self.in_flight.remove(&packet_id) else {
                            continue; // stranded overflow remnant
                        };
                        if !self.lc_operational(egress) {
                            self.metrics_of(meta.ingress)
                                .drop_packet(DropCause::EgressDown, ip_bytes);
                            note_drop(packet_id, DropCause::EgressDown, meta.ingress);
                            continue;
                        }
                        let delay = self.linecards[egress as usize].egress_delay(ip_bytes);
                        ctx.schedule(
                            delay,
                            BdrEvent::EgressDone {
                                lc: egress,
                                ip_bytes,
                                arrived_at: meta.arrived_at,
                                packet: packet_id,
                                ingress: meta.ingress,
                            },
                        );
                    }
                    Ok(None) => {}
                    Err(_) => {
                        // Corrupted/duplicate cell: drop silently; the
                        // purge pass will reclaim the partial.
                    }
                }
            }
            slot.clear();
            self.slot_handles = slot;
        }
        self.ensure_fabric_slot(ctx);
        if !self.slot_scheduled {
            // Queue drained: the slot train stops. Forfeit leftover
            // fractional credit — banking it across the idle gap would
            // let a degraded fabric open the next busy period with a
            // burst above its capacity fraction.
            self.capacity_credit = 0.0;
        }
    }

    fn handle_fail(&mut self, lc: u16, kind: ComponentKind, gen: u32, ctx: &mut Ctx<'_, BdrEvent>) {
        if !self.generations.is_current(lc as usize, gen) {
            return; // stale: the card was replaced since this was armed
        }
        self.linecards[lc as usize]
            .components
            .set(kind, crate::components::Health::Failed);
        self.refresh_availability(lc, ctx.now());
        if !self.repair_pending[lc as usize] {
            self.repair_pending[lc as usize] = true;
            if let Some(injector) = &self.config.faults {
                let delay = injector.repair_delay_h() * self.config.fault_delay_scale;
                ctx.schedule(delay, BdrEvent::Repair { lc });
            }
        }
    }

    fn handle_repair(&mut self, lc: u16, ctx: &mut Ctx<'_, BdrEvent>) {
        self.linecards[lc as usize].repair_all();
        self.generations.bump(lc as usize);
        self.repair_pending[lc as usize] = false;
        self.refresh_availability(lc, ctx.now());
        self.arm_faults_for_lc(lc, ctx);
    }

    fn handle_purge(&mut self, ctx: &mut Ctx<'_, BdrEvent>) {
        let cutoff = ctx.now() - self.config.reassembly_timeout_s;
        for lc in 0..self.config.n_lcs {
            let stale = self.linecards[lc].reassembler.purge_collect(cutoff);
            for (_, packet_id) in stale {
                if let Some(meta) = self.in_flight.remove(&packet_id) {
                    self.metrics.lcs[meta.ingress as usize]
                        .drop_packet(DropCause::ReassemblyTimeout, meta.ip_bytes);
                    note_drop(packet_id, DropCause::ReassemblyTimeout, meta.ingress);
                }
            }
        }
        ctx.schedule(self.config.reassembly_timeout_s, BdrEvent::PurgeReassembly);
    }
}

impl Model for BdrRouter {
    type Event = BdrEvent;

    fn handle(&mut self, event: BdrEvent, ctx: &mut Ctx<'_, BdrEvent>) {
        match event {
            BdrEvent::Start => {
                for lc in 0..self.config.n_lcs as u16 {
                    // Only `.dt` matters here: the kick-off record's
                    // payload never becomes a packet (as before).
                    let (first, _) = self.trains[lc as usize].pop(
                        &mut self.generators[lc as usize],
                        &mut self.traffic_rngs[lc as usize],
                        &self.linecards[lc as usize].fib,
                    );
                    ctx.schedule(first.dt, BdrEvent::Arrival { lc });
                    self.arm_faults_for_lc(lc, ctx);
                }
                ctx.schedule(self.config.reassembly_timeout_s, BdrEvent::PurgeReassembly);
            }
            BdrEvent::Arrival { lc } => self.handle_arrival(lc, ctx),
            BdrEvent::IngressDone { lc, packet, egress } => {
                self.handle_ingress_done(lc, packet, egress, ctx)
            }
            BdrEvent::FabricSlot => self.handle_fabric_slot(ctx),
            BdrEvent::EgressDone {
                lc,
                ip_bytes,
                arrived_at,
                packet,
                ingress,
            } => {
                let now = ctx.now();
                self.metrics.lcs[lc as usize].deliver(ip_bytes, now - arrived_at);
                self.metrics.lcs[ingress as usize].ingress_delivered += 1;
                if tm::armed() {
                    tm::counter_add(tm::ids::DELIVERED, 1);
                    tm::event(tm::EventKind::Deliver, packet.0, lc as u32, ip_bytes);
                    tm::finish_packet(packet.0);
                }
            }
            BdrEvent::Fail { lc, kind, gen } => self.handle_fail(lc, kind, gen, ctx),
            BdrEvent::Repair { lc } => self.handle_repair(lc, ctx),
            BdrEvent::PurgeReassembly => self.handle_purge(ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dra_net::sar::Cell;

    fn small_config(load: f64) -> BdrConfig {
        BdrConfig {
            n_lcs: 4,
            load,
            ..BdrConfig::default()
        }
    }

    #[test]
    fn healthy_router_delivers_nearly_everything() {
        let mut sim = BdrRouter::simulation(small_config(0.3), 42);
        sim.run_until(5e-3);
        let m = &sim.model().metrics;
        let offered = m.total_offered_bytes();
        assert!(offered > 0, "no traffic generated");
        let ratio = m.byte_delivery_ratio();
        // In-flight packets at the horizon keep this slightly below 1.
        assert!(ratio > 0.98, "delivery ratio {ratio}");
        for cause in DropCause::ALL {
            assert_eq!(m.total_drops(cause), 0, "unexpected drops: {cause}");
        }
    }

    #[test]
    fn latency_is_sane() {
        let mut sim = BdrRouter::simulation(small_config(0.2), 1);
        sim.run_until(2e-3);
        let m = &sim.model().metrics;
        for lc in &m.lcs {
            if lc.latency.count() > 0 {
                // A 10G router moves a packet in microseconds.
                assert!(lc.latency.mean() > 0.0);
                assert!(lc.latency.mean() < 100e-6, "mean {}", lc.latency.mean());
            }
        }
    }

    #[test]
    fn failed_ingress_lc_drops_its_traffic() {
        let mut sim = BdrRouter::simulation(small_config(0.2), 7);
        sim.run_until(1e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(0, ComponentKind::Lfe, now);
        sim.run_until(2e-3);
        let m = &sim.model().metrics;
        assert!(
            m.lcs[0].drops(DropCause::IngressDown) > 0,
            "LC0 should drop its ingress traffic after LFE failure"
        );
        // Other cards keep delivering.
        assert!(m.lcs[1].delivered_packets > 0);
    }

    #[test]
    fn traffic_to_failed_lc_is_dropped_as_egress_down() {
        let mut sim = BdrRouter::simulation(small_config(0.2), 7);
        sim.run_until(1e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(2, ComponentKind::Sru, now);
        sim.run_until(2e-3);
        let m = &sim.model().metrics;
        let egress_drops: u64 = (0..4).map(|i| m.lcs[i].drops(DropCause::EgressDown)).sum();
        assert!(egress_drops > 0, "peers should drop traffic to failed LC2");
    }

    #[test]
    fn repair_restores_service() {
        let mut sim = BdrRouter::simulation(small_config(0.2), 9);
        sim.run_until(0.5e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(0, ComponentKind::Sru, now);
        sim.run_until(1.0e-3);
        let delivered_down = sim.model().metrics.lcs[0].delivered_packets;
        let now = sim.now();
        sim.model_mut().repair_lc_now(0, now);
        sim.run_until(3.0e-3);
        let delivered_after = sim.model().metrics.lcs[0].delivered_packets;
        assert!(
            delivered_after > delivered_down,
            "LC0 must deliver again after repair"
        );
        let avail = sim.model().metrics.lcs[0].availability.average(sim.now());
        assert!(avail < 1.0 && avail > 0.5, "availability {avail}");
    }

    #[test]
    fn offered_load_matches_config() {
        let cfg = small_config(0.5);
        let rate = cfg.port_rate_bps;
        let mut sim = BdrRouter::simulation(cfg, 3);
        let horizon = 5e-3;
        sim.run_until(horizon);
        let m = &sim.model().metrics;
        for lc in &m.lcs {
            let offered_bps = lc.offered_bytes as f64 * 8.0 / horizon;
            assert!(
                (offered_bps / (0.5 * rate) - 1.0).abs() < 0.1,
                "offered {offered_bps:.3e} vs target {:.3e}",
                0.5 * rate
            );
        }
    }

    #[test]
    fn stochastic_faults_fire_and_repair() {
        use crate::faults::FaultGranularity;
        let mut cfg = small_config(0.1);
        // Accelerated: MTTF (1/2e-5 = 50000 rate-units) scaled so
        // failures land inside a 5 ms run, repairs (3 units) follow.
        cfg.faults = Some(FaultInjector::new(3.0, FaultGranularity::WholeLc));
        cfg.fault_delay_scale = 1e-3 / 50_000.0;
        let mut sim = BdrRouter::simulation(cfg, 11);
        sim.run_until(20e-3);
        let m = &sim.model().metrics;
        let total_ingress_drops: u64 = m.lcs.iter().map(|l| l.drops(DropCause::IngressDown)).sum();
        assert!(total_ingress_drops > 0, "accelerated faults never fired");
        // Availability strictly between 0 and 1 on at least one card.
        let now = sim.now();
        let avg: f64 = m
            .lcs
            .iter()
            .map(|l| l.availability.average(now))
            .sum::<f64>()
            / m.lcs.len() as f64;
        assert!(avg > 0.0 && avg < 1.0, "avg availability {avg}");
    }

    #[test]
    fn multi_port_piu_failure_costs_one_ports_share() {
        let mut cfg = small_config(0.2);
        cfg.ports_per_lc = 4;
        let mut sim = BdrRouter::simulation(cfg, 61);
        sim.run_until(1e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(0, ComponentKind::Piu, now);
        let offered0 = sim.model().metrics.lcs[0].offered_packets;
        let drops0 = sim.model().metrics.lcs[0].drops(DropCause::IngressDown);
        sim.run_until(6e-3);
        let m = &sim.model().metrics;
        let frac = (m.lcs[0].drops(DropCause::IngressDown) - drops0) as f64
            / (m.lcs[0].offered_packets - offered0) as f64;
        assert!(
            (frac - 0.25).abs() < 0.05,
            "one of four ports down should cost ~25%, got {frac}"
        );
        // Other units remain healthy: the card still forwards the rest.
        assert!(sim.model().lc_operational(0));
    }

    #[test]
    fn determinism_same_seed() {
        let run = |seed| {
            let mut sim = BdrRouter::simulation(small_config(0.3), seed);
            sim.run_until(1e-3);
            let m = &sim.model().metrics;
            (
                m.total_offered_bytes(),
                m.total_delivered_bytes(),
                sim.events_processed(),
            )
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).0, run(6).0);
    }

    #[test]
    fn fabric_degradation_slows_but_does_not_stop_delivery() {
        let mut cfg = small_config(0.6);
        cfg.fabric_speedup = 1.0; // remove headroom so degradation bites
        let mut sim = BdrRouter::simulation(cfg, 13);
        sim.run_until(1e-3);
        // Fail two planes: spare covers one, the second costs 25%.
        sim.model_mut().fabric.fail_plane();
        sim.model_mut().fabric.fail_plane();
        assert_eq!(sim.model().fabric.capacity_fraction(), 0.75);
        sim.run_until(4e-3);
        let m = &sim.model().metrics;
        assert!(m.total_delivered_bytes() > 0);
    }

    #[test]
    fn degraded_fabric_credit_does_not_bank_across_idle_gaps() {
        // 3-of-4 planes (capacity 0.75): a busy period that drains
        // mid-credit-cycle must not bank the fractional remainder —
        // the next busy period after an idle gap has to re-earn a full
        // credit before its first transfer, or degraded fabrics would
        // open every busy period with an above-capacity burst.
        let cell = |id: u64| Cell {
            src_lc: 0,
            dst_lc: 1,
            packet: PacketId(id),
            seq: 0,
            total: 1,
            payload_bytes: 48,
        };
        // No Start event: the only activity is the slots we inject.
        let mut sim = Simulation::new(BdrRouter::new(small_config(0.3), 5), 5);
        sim.model_mut().fabric.fail_plane(); // spare absorbs it
        sim.model_mut().fabric.fail_plane(); // 3 of 4 required
        assert_eq!(sim.model().fabric.capacity_fraction(), 0.75);

        // Busy period 1: two cells. Credit walks 0.75 (no serve),
        // 1.5 (serve), 1.25 (serve, drain) — ending with 0.25 earned
        // but unspent as the slot train stops.
        sim.model_mut().fabric.enqueue(cell(1)).unwrap();
        sim.model_mut().fabric.enqueue(cell(2)).unwrap();
        sim.schedule(0.0, BdrEvent::FabricSlot);
        sim.run_until(0.5e-3);
        assert!(sim.model().fabric.is_empty(), "period 1 should drain");

        // Idle gap, then busy period 2. The first slot after the gap
        // must NOT transfer: 0.75 credit is below a full slot. Banked
        // credit (0.25 + 0.75 = 1.0) would serve immediately.
        sim.model_mut().fabric.enqueue(cell(3)).unwrap();
        sim.model_mut().fabric.enqueue(cell(4)).unwrap();
        sim.schedule(0.5e-3, BdrEvent::FabricSlot);
        sim.step().expect("injected slot should fire");
        assert_eq!(
            sim.model().fabric.queued_cells(),
            2,
            "first post-idle slot served on banked credit"
        );
        // The period still drains at the degraded rate.
        let horizon = sim.now() + 0.5e-3;
        sim.run_until(horizon);
        assert!(sim.model().fabric.is_empty(), "period 2 should drain");
    }
}
