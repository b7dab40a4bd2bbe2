//! Hot-path throughput harness: one `BENCH_*.json` artifact per PR.
//!
//! Unlike the criterion microbenches (statistical, human-read), this
//! harness produces a small machine-readable artifact so successive
//! PRs can be compared number-to-number:
//!
//! * **DES kernel** — events/second through [`dra_des::Simulation`]
//!   for a depth-1 chain, wide fan-outs, a bimodal mix with far-future
//!   stragglers (the shape fault-injection runs produce), and a hold
//!   model at exponential delays. All but the hold model reschedule at
//!   a unit delay, so every push is a tail append — the best case for
//!   a bucketed queue and not the shape simulations produce; only
//!   `hold_exp_1024` pushes at random depths;
//! * **iSLIP fabric** — matched slots/second and cells/second of
//!   [`dra_router::fabric::Crossbar::schedule_slot`] in two regimes:
//!   the tracked `islip` section runs a sparse scatter backlog at
//!   64/128/256 ports (arbitration-bound — the matching has to search),
//!   and `islip_saturated` keeps the saturated-uniform workload at
//!   8–256 ports (desynchronized pointers hit immediately, so it
//!   measures queue/memory machinery);
//! * **lookup** — longest-prefix-match throughput of the compiled
//!   [`Dir248Fib`] (batched) against [`TrieFib`] (scalar, the
//!   executable spec) on a 100k-route synthetic table, under a
//!   uniform-random address stream and a skewed stream with the
//!   locality real traffic has; each entry carries the in-artifact
//!   `dir248_vs_trie` ratio;
//! * **ingress** — packets/second through the allocation-free ingress
//!   pipeline: the batched LFE front end alone
//!   ([`ArrivalTrain::pop`] per slot train), then the full SAR round
//!   trip (pop → segment into cells → egress reassembly);
//! * **topo** — the network-of-routers layer: routes/second through
//!   the topology → BFS → compiled-FIB setup path on BA(64), and
//!   delivered packets/second through a healthy 4×4-mesh
//!   co-simulation (the topo sweep's unit of work);
//! * **rareevent** — wall-clock cost of reaching a target relative
//!   confidence interval on the steady-state unavailability at the
//!   paper's **real** (uninflated) failure rates, for the
//!   [`dra_core::rareevent`] estimators versus a brute-force projection
//!   `N = (1.96/δ)² (1−γ̂)/γ̂` cycles at the measured per-cycle cost —
//!   the headline speedup CI enforces;
//! * **end-to-end** — wall-clock events/second and delivered
//!   cells/second for one BDR + DRA faceoff cell (same seed, same
//!   scripted SRU failure — the campaign grid's unit of work).
//!
//! Usage:
//!
//! ```text
//! bench-hotpath [--quick] [--telemetry] [--out PATH] [--baseline PATH]
//! bench-hotpath --check PATH
//! ```
//!
//! `--baseline` embeds a previous artifact and adds per-entry and
//! minimum/p50/p99 speedup factors; `--check` validates an artifact's
//! schema (used by CI's bench-smoke job) and exits non-zero on
//! violations. `--telemetry` runs the end-to-end cell with the
//! flight-recorder hub armed and embeds the resulting
//! `dra-telemetry/v1` snapshot in the artifact — those end-to-end
//! timings carry observation cost, so never compare a `--telemetry`
//! artifact against a clean baseline.

use dra_campaign::json::{parse, Json};
use dra_core::sim::{DraConfig, DraRouter};
use dra_des::random::exponential;
use dra_des::stats::LogHistogram;
use dra_des::{Ctx, Model, Simulation};
use dra_net::addr::{Ipv4Addr, Ipv4Prefix};
use dra_net::fib::{synthetic_routes, Dir248Fib, Fib, TrieFib};
use dra_net::packet::{Packet, PacketId, PacketIdGen};
use dra_net::protocol::ProtocolKind;
use dra_net::sar::{segment_cells, Cell, Reassembler, CELL_PAYLOAD};
use dra_net::traffic::PoissonGen;
use dra_router::bdr::{BdrConfig, BdrRouter};
use dra_router::components::ComponentKind;
use dra_router::fabric::Crossbar;
use dra_router::ingress::ArrivalTrain;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The artifact format identifier; bump when the layout changes.
const BENCH_FORMAT: &str = "dra-bench/v1";

// ------------------------------------------------------- counting allocator

/// Counts every heap allocation (alloc, zeroed, and growth realloc) so
/// the simulation sections can report `allocs_per_event` next to their
/// throughput: the zero-alloc hot-path claim, measured where the
/// throughput is measured. One relaxed atomic increment per allocation
/// is noise against a real allocator call, and steady-state hot loops
/// make no allocator calls at all — which is exactly what the column
/// is there to prove.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations counted so far; diff around a timed region.
fn allocs_now() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------- DES kernel

/// Self-rescheduling chain: exactly one event pending at all times.
struct Chain {
    remaining: u64,
}

impl Model for Chain {
    type Event = u8;
    fn handle(&mut self, _ev: u8, ctx: &mut Ctx<'_, u8>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.schedule(1.0, 0);
        }
    }
}

/// Keeps `width` events pending at all times (router-like occupancy).
struct Fanout {
    remaining: u64,
    width: u64,
}

impl Model for Fanout {
    type Event = u8;
    fn handle(&mut self, ev: u8, ctx: &mut Ctx<'_, u8>) {
        if ev == 0 {
            for _ in 0..self.width {
                ctx.schedule(1.0, 1);
            }
        } else if self.remaining > 0 {
            self.remaining -= 1;
            ctx.schedule(1.0, 1);
        }
    }
}

/// A near-term event cluster plus sparse far-future stragglers — the
/// queue shape produced by packet events mixed with armed fault/repair
/// timers hours ahead.
struct Bimodal {
    remaining: u64,
    width: u64,
}

impl Model for Bimodal {
    type Event = u8;
    fn handle(&mut self, ev: u8, ctx: &mut Ctx<'_, u8>) {
        match ev {
            0 => {
                for _ in 0..self.width {
                    ctx.schedule(1.0, 1);
                }
                for k in 0..32u64 {
                    ctx.schedule(1e7 + k as f64, 2);
                }
            }
            1 if self.remaining > 0 => {
                self.remaining -= 1;
                ctx.schedule(1.0, 1);
            }
            _ => {}
        }
    }
}

/// The classic hold model: `width` events pending at all times, each
/// rescheduling itself at an exponential(1) delay drawn from the
/// simulation's seeded `SmallRng`. Unlike the unit-delay rows above,
/// every push lands at a random depth in the queue.
struct Hold {
    remaining: u64,
    width: u64,
}

impl Model for Hold {
    type Event = u8;
    fn handle(&mut self, ev: u8, ctx: &mut Ctx<'_, u8>) {
        if ev == 0 {
            for _ in 0..self.width {
                let delay = exponential(ctx.rng(), 1.0);
                ctx.schedule(delay, 1);
            }
        } else if self.remaining > 0 {
            self.remaining -= 1;
            let delay = exponential(ctx.rng(), 1.0);
            ctx.schedule(delay, 1);
        }
    }
}

/// Run one kernel workload `reps` times, keep the best rate.
fn kernel_entry<M, F>(name: &str, reps: u32, build: F) -> Json
where
    M: Model,
    F: Fn() -> Simulation<M>,
{
    let mut best_rate = 0.0f64;
    let mut events = 0u64;
    for _ in 0..reps {
        let mut sim = build();
        let t0 = Instant::now();
        events = sim.run_to_completion();
        let dt = t0.elapsed().as_secs_f64().max(1e-9);
        best_rate = best_rate.max(events as f64 / dt);
    }
    Json::obj(vec![
        ("name", Json::Str(name.to_string())),
        ("events", Json::Num(events as f64)),
        ("events_per_sec", Json::Num(best_rate)),
    ])
}

fn bench_des_kernel(quick: bool) -> Json {
    let n: u64 = if quick { 200_000 } else { 4_000_000 };
    let reps = if quick { 1 } else { 3 };
    let entries = vec![
        kernel_entry("chain", reps, || {
            let mut sim = Simulation::new(Chain { remaining: n }, 1);
            sim.schedule(0.0, 0);
            sim
        }),
        kernel_entry("fanout_1024", reps, || {
            let mut sim = Simulation::new(
                Fanout {
                    remaining: n,
                    width: 1024,
                },
                1,
            );
            sim.schedule(0.0, 0);
            sim
        }),
        kernel_entry("fanout_8192", reps, || {
            let mut sim = Simulation::new(
                Fanout {
                    remaining: n,
                    width: 8192,
                },
                1,
            );
            sim.schedule(0.0, 0);
            sim
        }),
        kernel_entry("bimodal_4096", reps, || {
            let mut sim = Simulation::new(
                Bimodal {
                    remaining: n,
                    width: 4096,
                },
                1,
            );
            sim.schedule(0.0, 0);
            sim
        }),
        kernel_entry("hold_exp_1024", reps, || {
            let mut sim = Simulation::new(
                Hold {
                    remaining: n,
                    width: 1024,
                },
                1,
            );
            sim.schedule(0.0, 0);
            sim
        }),
    ];
    Json::Arr(entries)
}

// ------------------------------------------------------------- iSLIP fabric

/// Saturated uniform backlog: every VOQ holds `per_voq` cells. After
/// iSLIP desynchronizes, every grant pointer sits on a requesting
/// input, so arbitration scans terminate immediately and the workload
/// measures queue/memory machinery rather than the matching search.
fn saturate(xb: &mut Crossbar, n: usize, per_voq: u64) {
    for i in 0..n as u16 {
        for o in 0..n as u16 {
            for k in 0..per_voq {
                let _ = xb.enqueue(Cell {
                    src_lc: i,
                    dst_lc: o,
                    packet: PacketId(((i as u64) << 40) | ((o as u64) << 20) | k),
                    seq: 0,
                    total: 1,
                    payload_bytes: CELL_PAYLOAD,
                });
            }
        }
    }
}

/// Sparse scatter backlog: each input holds cells for 4 pseudo-random
/// outputs (the occupancy shape a load≤0.6 faceoff actually puts in
/// the fabric). Most VOQs are empty, so the round-robin selection has
/// to *search* — this is the regime where arbitration cost, not
/// memcpy, bounds the simulation.
fn scatter(xb: &mut Crossbar, n: usize, per_voq: u64) {
    for i in 0..n as u16 {
        for t in 0..4u16 {
            let o = (i.wrapping_mul(37).wrapping_add(t.wrapping_mul(17) + 11)) % n as u16;
            for k in 0..per_voq {
                let _ = xb.enqueue(Cell {
                    src_lc: i,
                    dst_lc: o,
                    packet: PacketId(((i as u64) << 40) | ((o as u64) << 20) | k),
                    seq: 0,
                    total: 1,
                    payload_bytes: CELL_PAYLOAD,
                });
            }
        }
    }
}

/// One iSLIP throughput sweep over `ports`, reloading the fabric with
/// `reload` whenever it drains.
fn islip_sweep(
    ports: &[usize],
    reps: u32,
    quick: bool,
    per_voq_of: impl Fn(usize) -> u64,
    reload: impl Fn(&mut Crossbar, usize, u64),
) -> Json {
    let mut entries = Vec::new();
    for &n in ports {
        let slots: u64 = (if quick { 400_000 } else { 4_000_000 } / n as u64).max(10_000);
        let per_voq = per_voq_of(n);
        let mut best_rate = 0.0f64;
        let mut cells = 0u64;
        for _ in 0..reps {
            let mut xb = Crossbar::new(n, per_voq as usize, 2, 5, 4);
            reload(&mut xb, n, per_voq);
            cells = 0;
            let t0 = Instant::now();
            for _ in 0..slots {
                if xb.is_empty() {
                    reload(&mut xb, n, per_voq);
                }
                cells += xb.schedule_slot().len() as u64;
            }
            let dt = t0.elapsed().as_secs_f64().max(1e-9);
            best_rate = best_rate.max(slots as f64 / dt);
        }
        let cells_per_slot = cells as f64 / slots as f64;
        entries.push(Json::obj(vec![
            ("ports", Json::Num(n as f64)),
            ("slots", Json::Num(slots as f64)),
            ("slots_per_sec", Json::Num(best_rate)),
            ("cells_per_sec", Json::Num(best_rate * cells_per_slot)),
        ]));
    }
    Json::Arr(entries)
}

/// The tracked `islip` section: the arbitration-bound scatter workload
/// at the scaling port counts (64/128/256) this rewrite targets.
fn bench_islip(quick: bool) -> Json {
    let ports: &[usize] = if quick { &[64] } else { &[64, 128, 256] };
    let reps = if quick { 1 } else { 3 };
    islip_sweep(ports, reps, quick, |_| 64, scatter)
}

/// The `islip_saturated` continuity section: PR 2's saturated-uniform
/// workload at every port count. Total backlog is capped (~4M cells)
/// as n² VOQs multiply, so 256 ports measures the fabric rather than
/// a multi-gigabyte queue build.
fn bench_islip_saturated(quick: bool) -> Json {
    let ports: &[usize] = if quick {
        &[8, 16]
    } else {
        &[8, 16, 32, 64, 128, 256]
    };
    let reps = if quick { 1 } else { 3 };
    islip_sweep(
        ports,
        reps,
        quick,
        |n| ((1u64 << 22) / (n as u64 * n as u64)).clamp(64, 4096),
        saturate,
    )
}

// ------------------------------------------------------------------- lookup

/// A tiny xorshift64 used to pre-draw address streams outside the
/// timed loops (the bench must time lookups, not random numbers).
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// LPM throughput: the compiled DIR-24-8 table (batched lookups, as the
/// ingress path issues them) against the path-compressed trie that is
/// its executable spec. Both tables hold the same synthetic route mix;
/// the hit counts are asserted equal, which also keeps the optimizer
/// from deleting either loop.
fn bench_lookup(quick: bool) -> Json {
    let n_routes = if quick { 20_000 } else { 100_000 };
    let passes = if quick { 4u32 } else { 64 };
    let reps = if quick { 1 } else { 3 };
    let routes = synthetic_routes(n_routes, 64, 0xF1B);
    let mut dir = Dir248Fib::new();
    let mut trie = TrieFib::new();
    for &(p, nh) in &routes {
        dir.insert(p, nh);
        trie.insert(p, nh);
    }

    const STREAM: usize = 1 << 16;
    let mut entries = Vec::new();
    for stream in ["uniform", "skewed"] {
        let mut state = 0x5EED_0BAD_u64 | 1;
        let addrs: Vec<Ipv4Addr> = (0..STREAM)
            .map(|_| {
                let r = xorshift(&mut state);
                if stream == "uniform" || r & 7 == 0 {
                    Ipv4Addr(r as u32)
                } else {
                    // 7 of 8 draws land inside an installed prefix with
                    // random host bits — the locality real traffic has.
                    let (p, _) = routes[(r >> 16) as usize % routes.len()];
                    let host_mask = ((1u64 << (32 - p.len())) - 1) as u32;
                    Ipv4Addr(p.addr().0 | (xorshift(&mut state) as u32 & host_mask))
                }
            })
            .collect();
        let lookups = STREAM as u64 * passes as u64;
        let mut out = vec![None; STREAM];

        let mut dir_rate = 0.0f64;
        let mut dir_hits = 0usize;
        for _ in 0..reps {
            let mut hits = 0usize;
            let t0 = Instant::now();
            for _ in 0..passes {
                dir.lookup_batch(&addrs, &mut out);
                hits += out.iter().filter(|o| o.is_some()).count();
            }
            let dt = t0.elapsed().as_secs_f64().max(1e-9);
            dir_hits = hits;
            dir_rate = dir_rate.max(lookups as f64 / dt);
        }

        let mut trie_rate = 0.0f64;
        let mut trie_hits = 0usize;
        for _ in 0..reps {
            let mut hits = 0usize;
            let t0 = Instant::now();
            for _ in 0..passes {
                for &a in &addrs {
                    hits += usize::from(trie.lookup(a).is_some());
                }
            }
            let dt = t0.elapsed().as_secs_f64().max(1e-9);
            trie_hits = hits;
            trie_rate = trie_rate.max(lookups as f64 / dt);
        }
        assert_eq!(
            dir_hits, trie_hits,
            "tables disagree on the {stream} stream"
        );

        entries.push(Json::obj(vec![
            ("stream", Json::Str(stream.to_string())),
            ("routes", Json::Num(n_routes as f64)),
            ("lookups", Json::Num(lookups as f64)),
            ("dir248_per_sec", Json::Num(dir_rate)),
            ("trie_per_sec", Json::Num(trie_rate)),
            ("dir248_vs_trie", Json::Num(dir_rate / trie_rate)),
        ]));
    }
    Json::Arr(entries)
}

// ------------------------------------------------------------------ ingress

/// The per-packet ingress pipeline, isolated from the DES. Two
/// workloads: `train_pop` is the batched LFE front end alone (traffic
/// draw + one `lookup_batch` per slot train), and `sar_roundtrip`
/// follows each routed packet through segmentation and the egress
/// slot-table reassembler to completion.
fn bench_ingress(quick: bool) -> Json {
    let n_lcs: usize = 8;
    let packets: u64 = if quick { 200_000 } else { 2_000_000 };
    let reps = if quick { 1 } else { 3 };

    // The table the trains resolve against: full synthetic pressure
    // plus the /16s the generator actually draws destinations from.
    let mut fib = Dir248Fib::new();
    for (p, nh) in synthetic_routes(if quick { 20_000 } else { 100_000 }, n_lcs as u16, 0xF1B) {
        fib.insert(p, nh);
    }
    let bases: Vec<Ipv4Addr> = (0..n_lcs).map(BdrConfig::dst_base_of).collect();
    for (lc, &base) in bases.iter().enumerate() {
        fib.insert(Ipv4Prefix::new(base, 16), lc as u16);
    }

    let mut entries = Vec::new();

    // Workload 1: ArrivalTrain::pop per slot train.
    {
        let mut best = 0.0f64;
        let mut routed = 0u64;
        for rep in 0..reps {
            let mut gen = PoissonGen::new(0.6 * 10e9, &bases);
            let mut rng = SmallRng::seed_from_u64(0x1237 + rep as u64);
            let mut train = ArrivalTrain::new();
            routed = 0;
            let t0 = Instant::now();
            for _ in 0..packets {
                let (_, route) = train.pop(&mut gen, &mut rng, &fib);
                routed += u64::from(route.is_some());
            }
            let dt = t0.elapsed().as_secs_f64().max(1e-9);
            best = best.max(packets as f64 / dt);
        }
        assert!(routed > 0, "no arrival resolved a route");
        entries.push(Json::obj(vec![
            ("name", Json::Str("train_pop".to_string())),
            ("packets", Json::Num(packets as f64)),
            ("packets_per_sec", Json::Num(best)),
        ]));
    }

    // Workload 2: pop → Packet → segment_cells → Reassembler::push.
    {
        let sar_packets = packets / 4; // each packet fans out into cells
        let mut best = (0.0f64, 0.0f64); // (packets/s, cells/s)
        let mut completed = 0u64;
        for rep in 0..reps {
            let mut gen = PoissonGen::new(0.6 * 10e9, &bases);
            let mut rng = SmallRng::seed_from_u64(0x5A5A + rep as u64);
            let mut train = ArrivalTrain::new();
            let mut ids = PacketIdGen::new();
            let mut reasm = Reassembler::new();
            let mut now = 0.0f64;
            let mut cells = 0u64;
            completed = 0;
            let t0 = Instant::now();
            for _ in 0..sar_packets {
                let (arrival, route) = train.pop(&mut gen, &mut rng, &fib);
                now += arrival.dt;
                let Some(egress) = route else { continue };
                let packet = Packet::new(
                    ids.next_id(),
                    bases[0],
                    arrival.dst,
                    arrival.ip_bytes,
                    ProtocolKind::Ethernet,
                    now,
                );
                for cell in segment_cells(&packet, 0, egress) {
                    cells += 1;
                    if let Ok(Some(_)) = reasm.push(&cell, now) {
                        completed += 1;
                    }
                }
            }
            let dt = t0.elapsed().as_secs_f64().max(1e-9);
            if sar_packets as f64 / dt > best.0 {
                best = (sar_packets as f64 / dt, cells as f64 / dt);
            }
        }
        assert!(completed > 0, "no packet reassembled");
        entries.push(Json::obj(vec![
            ("name", Json::Str("sar_roundtrip".to_string())),
            ("packets", Json::Num(sar_packets as f64)),
            ("packets_per_sec", Json::Num(best.0)),
            ("cells_per_sec", Json::Num(best.1)),
        ]));
    }

    Json::Arr(entries)
}

// --------------------------------------------------------------------- topo

/// The network-of-routers layer, measured at its two cost centers:
/// `route_compile` is the per-replication setup every topo-sweep cell
/// pays (build BA(64), BFS route derivation, compile one DIR-24-8 FIB
/// per node), and `mesh_4x4_net` is wall-clock end-to-end packets per
/// second through a healthy 4×4-mesh co-simulation of 16 embedded
/// routers — the sweep's unit of work.
fn bench_topo(quick: bool) -> Json {
    use dra_core::handle::ArchKind;
    use dra_topo::engine::build_network;
    use dra_topo::link::LinkConfig;
    use dra_topo::routes::{compile_fibs, RouteTables};
    use dra_topo::spec::{FlowSpec, TopoCellSpec, TopoFaultSpec};
    use dra_topo::topology::{Topology, TopologyKind};

    let reps = if quick { 1 } else { 3 };
    let mut entries = Vec::new();

    // Workload 1: topology → routes → compiled FIBs, rate in installed
    // routes (node × destination-prefix pairs) per second.
    {
        let kind = TopologyKind::BarabasiAlbert {
            n: 64,
            m: 2,
            seed: 7,
        };
        let passes = if quick { 4u32 } else { 32 };
        let mut best = 0.0f64;
        let mut routes_installed = 0u64;
        for _ in 0..reps {
            routes_installed = 0;
            let t0 = Instant::now();
            for _ in 0..passes {
                let topo = Topology::build(kind);
                let tables = RouteTables::derive(&topo);
                let fibs = compile_fibs(&topo, &tables);
                routes_installed += fibs.iter().map(|f| f.len() as u64).sum::<u64>();
                std::hint::black_box(&fibs);
            }
            let dt = t0.elapsed().as_secs_f64().max(1e-9);
            best = best.max(routes_installed as f64 / dt);
        }
        assert!(routes_installed > 0, "no routes compiled");
        entries.push(Json::obj(vec![
            ("name", Json::Str("route_compile".to_string())),
            ("items", Json::Num(routes_installed as f64)),
            ("rate_per_sec", Json::Num(best)),
        ]));
    }

    // Workload 2: delivered end-to-end packets per wall-clock second
    // on a healthy 4×4 mesh (DRA routers, the pricier architecture).
    {
        let horizon = if quick { 5e-3 } else { 20e-3 };
        let cell = TopoCellSpec {
            id: "bench/mesh-4x4".into(),
            arch: ArchKind::Dra,
            topology: TopologyKind::Mesh2D { rows: 4, cols: 4 },
            link: LinkConfig::default(),
            flows: FlowSpec {
                n_flows: 24,
                rate_pps: 40_000.0,
                packet_bytes: 700,
            },
            faults: TopoFaultSpec::None,
            horizon_s: horizon,
            drain_s: horizon * 0.25,
            replications: 1,
            seed_group: 0,
        };
        let mut best = 0.0f64;
        let mut best_ev = 0.0f64;
        let mut delivered = 0u64;
        let mut events = 0u64;
        let mut min_ape = f64::INFINITY;
        for _ in 0..reps {
            let mut net = build_network(&cell, 0xD8A_70B0, 0);
            // Under `--telemetry` this row measures the *live* network
            // scope (counters + sampled spans on every hop), so the
            // artifact discloses collection-on overhead next to the
            // clean baselines it must never be compared against.
            if dra_telemetry::enabled() {
                net.enable_net_telemetry(64);
            }
            let mut sim = net.simulation(0xD8A_70B0);
            let a0 = allocs_now();
            let t0 = Instant::now();
            sim.run_until(horizon);
            let dt = t0.elapsed().as_secs_f64().max(1e-9);
            let allocs = allocs_now() - a0;
            let stats = &sim.model().stats;
            assert!(stats.conserved(), "bench cell violated conservation");
            delivered = stats.delivered;
            events = sim.events_processed();
            best = best.max(delivered as f64 / dt);
            best_ev = best_ev.max(events as f64 / dt);
            // Minimum across reps: the first rep pays one-time pool
            // and table warmup that later reps (and long sweeps) don't.
            min_ape = min_ape.min(allocs as f64 / events.max(1) as f64);
        }
        assert!(delivered > 0, "bench cell delivered nothing");
        entries.push(Json::obj(vec![
            ("name", Json::Str("mesh_4x4_net".to_string())),
            ("items", Json::Num(delivered as f64)),
            ("rate_per_sec", Json::Num(best)),
            ("events", Json::Num(events as f64)),
            ("events_per_sec", Json::Num(best_ev)),
            ("allocs_per_event", Json::Num(min_ape)),
        ]));
    }

    Json::Arr(entries)
}

// ---------------------------------------------------------------- rareevent

/// Wall-clock-to-target-relative-CI for the rare-event estimators at
/// the paper's real rates.
///
/// Brute-force Monte Carlo cannot produce a live CI here in bench time
/// (a down event occurs once in ~10⁵ cycles), so its row is a
/// *projection*: measure the per-cycle wall cost over a calibration
/// run, take the cycle count a relative CI of `δ` needs —
/// `N = (1.96/δ)² (1−γ̂)/γ̂`, with `γ̂` the per-cycle down probability
/// estimated by the failure-biasing run — and multiply. The
/// accelerated rows are *measured*: cycles double until the achieved
/// relative CI meets the method's target (0.10 for likelihood-ratio
/// biasing, 0.25 for splitting — splitting's variance reduction is
/// real but modest here, since the rarity is one fast λ/μ race rather
/// than a long chain of levels; the artifact reports that honestly).
/// Each row's `speedup` compares the projected brute wall-clock *at
/// the row's achieved CI* against the row's measured wall-clock.
fn bench_rareevent(quick: bool) -> Json {
    use dra_core::rareevent::{estimate, RareConfig, RareMethod};
    use dra_router::components::FailureRates;

    let configs: &[(usize, usize)] = if quick { &[(3, 2)] } else { &[(3, 2), (9, 4)] };
    let mut entries = Vec::new();
    for &(n, m) in configs {
        let base = RareConfig {
            n,
            m,
            rates: FailureRates::PAPER,
            mu: 1.0 / 3.0,
            cycles: 1,
            seed: 0x0B0B_5EED,
        };

        // Calibration: brute-force per-cycle wall cost at these rates.
        let brute_cycles = if quick { 50_000 } else { 400_000 };
        let t0 = Instant::now();
        let brute = estimate(
            &RareConfig {
                cycles: brute_cycles,
                ..base
            },
            RareMethod::BruteForce,
        );
        let brute_wall = t0.elapsed().as_secs_f64().max(1e-9);
        let cycle_cost = brute_wall / brute_cycles as f64;
        assert!(brute.cycles == brute_cycles);

        // Accelerated runs: double cycles until the target relative CI
        // is met (cap keeps a pathological host bounded).
        let mut gamma_hat = 0.0f64;
        let mut rows = Vec::new();
        for (method, target) in [
            (RareMethod::FailureBiasing { bias: 0.5 }, 0.10),
            (RareMethod::Splitting { clones: 100 }, 0.25),
        ] {
            let mut cycles = if quick { 5_000 } else { 20_000 };
            let cap = 2_000_000usize;
            let (est, wall) = loop {
                let t0 = Instant::now();
                let est = estimate(&RareConfig { cycles, ..base }, method);
                let wall = t0.elapsed().as_secs_f64().max(1e-9);
                if est.rel_ci() <= target || cycles >= cap {
                    break (est, wall);
                }
                cycles *= 2;
            };
            assert!(
                est.rel_ci().is_finite(),
                "{} saw no down event at n{n}m{m}",
                method.name()
            );
            if matches!(method, RareMethod::FailureBiasing { .. }) {
                gamma_hat = est.gamma;
            }
            rows.push((method.name(), target, cycles, wall, est));
        }
        assert!(gamma_hat > 0.0, "failure biasing estimated zero gamma");

        // Projected brute cycles/wall to reach relative CI `delta`.
        let project = |delta: f64| {
            let z = 1.96 / delta;
            z * z * (1.0 - gamma_hat) / gamma_hat
        };

        // Brute row: measured calibration cost, projected to the
        // likelihood-ratio target; speedup 1 by definition.
        let brute_target = 0.10;
        entries.push(Json::obj(vec![
            ("config", Json::Str(format!("n{n}m{m}"))),
            ("method", Json::Str("brute-force".into())),
            ("target_rel_ci", Json::Num(brute_target)),
            ("cycles", Json::Num(brute_cycles as f64)),
            ("wall_s", Json::Num(brute_wall)),
            ("cycles_per_sec", Json::Num(1.0 / cycle_cost)),
            (
                "projected_brute_cycles",
                Json::Num(project(brute_target).ceil()),
            ),
            (
                "projected_brute_s",
                Json::Num(project(brute_target) * cycle_cost),
            ),
            ("speedup", Json::Num(1.0)),
        ]));
        for (name, target, cycles, wall, est) in rows {
            let achieved = est.rel_ci();
            let projected_s = project(achieved) * cycle_cost;
            entries.push(Json::obj(vec![
                ("config", Json::Str(format!("n{n}m{m}"))),
                ("method", Json::Str(name.into())),
                ("target_rel_ci", Json::Num(target)),
                ("cycles", Json::Num(cycles as f64)),
                ("wall_s", Json::Num(wall)),
                ("rel_ci", Json::Num(achieved)),
                ("unavailability", Json::Num(est.unavailability)),
                ("ci95", Json::Num(est.ci_half)),
                ("jumps", Json::Num(est.jumps as f64)),
                (
                    "projected_brute_cycles",
                    Json::Num(project(achieved).ceil()),
                ),
                ("projected_brute_s", Json::Num(projected_s)),
                ("speedup", Json::Num(projected_s / wall)),
            ]));
        }
    }
    Json::Arr(entries)
}

// --------------------------------------------------------------- end-to-end

/// One faceoff cell: 8 cards at load 0.6, an SRU failure mid-run.
fn bench_end_to_end(quick: bool) -> Json {
    let horizon = if quick { 3e-3 } else { 30e-3 };
    let fail_at = horizon / 3.0;
    let seed = 4242;
    let reps = if quick { 1 } else { 3 };
    let cfg = BdrConfig {
        n_lcs: 8,
        load: 0.6,
        ..BdrConfig::default()
    };

    let mut entries = Vec::new();
    for arch in ["bdr", "dra"] {
        let mut best = (0.0f64, 0.0f64); // (events/s, cells/s)
        let mut events = 0u64;
        // Delivered-packet latency distribution of the cell; the run
        // is deterministic per seed, so every rep produces the same
        // histogram and keeping the last suffices.
        let mut latency = dra_router::metrics::latency_histogram();
        for _ in 0..reps {
            let t0 = Instant::now();
            let (ev, delivered_bytes, lat) = match arch {
                "bdr" => {
                    let mut sim = BdrRouter::simulation(cfg.clone(), seed);
                    sim.run_until(fail_at);
                    let now = sim.now();
                    sim.model_mut()
                        .fail_component_now(0, ComponentKind::Sru, now);
                    sim.run_until(horizon);
                    (
                        sim.events_processed(),
                        sim.model().metrics.total_delivered_bytes(),
                        sim.model().metrics.latency_hist_total(),
                    )
                }
                _ => {
                    let dcfg = DraConfig {
                        router: cfg.clone(),
                        ..Default::default()
                    };
                    let mut sim = DraRouter::simulation(dcfg, seed);
                    sim.run_until(fail_at);
                    let now = sim.now();
                    sim.model_mut()
                        .fail_component_now(0, ComponentKind::Sru, now);
                    sim.run_until(horizon);
                    (
                        sim.events_processed(),
                        sim.model().metrics.total_delivered_bytes(),
                        sim.model().metrics.latency_hist_total(),
                    )
                }
            };
            let dt = t0.elapsed().as_secs_f64().max(1e-9);
            events = ev;
            latency = lat;
            let cells = delivered_bytes as f64 / CELL_PAYLOAD as f64;
            if ev as f64 / dt > best.0 {
                best = (ev as f64 / dt, cells / dt);
            }
        }
        assert!(latency.count() > 0, "{arch} cell delivered no packets");
        // A quantile landing in the overflow bucket comes back as
        // +inf; clamp to the layout's upper bound so the artifact
        // stays plain JSON.
        let q = |p: f64| {
            let v = latency.quantile(p);
            if v.is_finite() {
                v
            } else {
                dra_router::metrics::LATENCY_HIST_HI
            }
        };
        entries.push(Json::obj(vec![
            ("arch", Json::Str(arch.to_string())),
            ("sim_seconds", Json::Num(horizon)),
            ("events", Json::Num(events as f64)),
            ("events_per_sec", Json::Num(best.0)),
            ("cells_per_sec", Json::Num(best.1)),
            ("latency_p50_s", Json::Num(q(0.5))),
            ("latency_p99_s", Json::Num(q(0.99))),
        ]));
    }
    Json::Arr(entries)
}

// ------------------------------------------------------------------ speedup

fn rate_of(entry: &Json, key: &str) -> Option<f64> {
    entry.get(key).and_then(Json::as_f64)
}

/// Per-entry current/baseline ratios for one section, matched by `id`.
fn section_speedups(current: &Json, baseline: &Json, id: &str, rate: &str) -> Vec<(String, f64)> {
    let (Some(cur), Some(base)) = (current.as_arr(), baseline.as_arr()) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for c in cur {
        let (Some(cid), Some(crate_)) = (c.get(id), rate_of(c, rate)) else {
            continue;
        };
        let matched = base
            .iter()
            .find(|b| b.get(id) == Some(cid))
            .and_then(|b| rate_of(b, rate));
        if let Some(brate) = matched {
            if brate > 0.0 {
                let label = match cid {
                    Json::Str(s) => s.clone(),
                    Json::Num(x) => format!("{x}"),
                    _ => continue,
                };
                out.push((label, crate_ / brate));
            }
        }
    }
    out
}

fn speedup_section(artifact: &Json, baseline: &Json) -> Json {
    let mut pairs = Vec::new();
    let mut push_min = |name: &str, ratios: &[(String, f64)]| {
        if ratios.is_empty() {
            return;
        }
        let entries: Vec<(String, Json)> = ratios
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect();
        let min = ratios.iter().map(|(_, v)| *v).fold(f64::INFINITY, f64::min);
        // Bucketed p50/p99 of the per-entry ratios: the minimum alone
        // is dominated by the noisiest workload, while the quantiles
        // show whether the section as a whole moved. Ratios cluster
        // around 1.0, so a wide log layout keeps them all in-range.
        let mut hist = LogHistogram::new(1e-3, 1e3, 240);
        for (_, v) in ratios {
            hist.record(*v);
        }
        pairs.push((name.to_string(), Json::Obj(entries)));
        pairs.push((format!("{name}_min"), Json::Num(min)));
        pairs.push((format!("{name}_p50"), Json::Num(hist.quantile(0.5))));
        pairs.push((format!("{name}_p99"), Json::Num(hist.quantile(0.99))));
    };
    for (section, id, rate) in [
        ("des_kernel", "name", "events_per_sec"),
        ("islip", "ports", "slots_per_sec"),
        ("islip_saturated", "ports", "slots_per_sec"),
        ("lookup", "stream", "dir248_per_sec"),
        ("ingress", "name", "packets_per_sec"),
        ("topo", "name", "rate_per_sec"),
        ("end_to_end", "arch", "events_per_sec"),
    ] {
        if let (Some(c), Some(b)) = (artifact.get(section), baseline.get(section)) {
            push_min(section, &section_speedups(c, b, id, rate));
        }
    }
    Json::Obj(pairs)
}

// ----------------------------------------------------------------- checking

/// Validate an artifact against the `dra-bench/v1` schema.
fn check(artifact: &Json) -> Result<(), String> {
    match artifact.get("format").and_then(Json::as_str) {
        Some(BENCH_FORMAT) => {}
        other => return Err(format!("format must be {BENCH_FORMAT:?}, got {other:?}")),
    }
    artifact
        .get("quick")
        .filter(|q| matches!(q, Json::Bool(_)))
        .ok_or("missing boolean `quick`")?;
    let sections: [(&str, &[&str]); 3] = [
        ("des_kernel", &["name", "events", "events_per_sec"]),
        (
            "islip",
            &["ports", "slots", "slots_per_sec", "cells_per_sec"],
        ),
        (
            "end_to_end",
            &[
                "arch",
                "sim_seconds",
                "events",
                "events_per_sec",
                "cells_per_sec",
            ],
        ),
    ];
    for (section, fields) in sections {
        check_section(artifact, section, fields)?;
    }
    // Optional since dra-bench/v1 artifacts predating the workload
    // split (BENCH_pr2.json) lack it; validated whenever present.
    if artifact.get("islip_saturated").is_some() {
        check_section(
            artifact,
            "islip_saturated",
            &["ports", "slots", "slots_per_sec", "cells_per_sec"],
        )?;
    }
    // Likewise optional: artifacts predating the datapath rewrite
    // (BENCH_pr2/pr3.json) lack the lookup and ingress sections.
    if artifact.get("lookup").is_some() {
        check_section(
            artifact,
            "lookup",
            &[
                "stream",
                "routes",
                "lookups",
                "dir248_per_sec",
                "trie_per_sec",
                "dir248_vs_trie",
            ],
        )?;
    }
    if artifact.get("ingress").is_some() {
        check_section(artifact, "ingress", &["name", "packets", "packets_per_sec"])?;
    }
    // Optional: artifacts predating the network-of-routers layer
    // (BENCH_pr2..pr4.json) lack the topo section.
    if artifact.get("topo").is_some() {
        check_section(artifact, "topo", &["name", "items", "rate_per_sec"])?;
    }
    // Optional: only artifacts from the era of the (since deleted)
    // windowed parallel network engine, BENCH_pr8..pr10.json, carry
    // the pdes section; it is still validated where present.
    if let Some(pdes) = artifact.get("pdes") {
        check_section(
            artifact,
            "pdes",
            &[
                "name",
                "items",
                "rate_per_sec",
                "serial_per_sec",
                "threads",
                "speedup_vs_serial",
            ],
        )?;
        // Artifacts since the hot-path overhaul (BENCH_pr9.json) also
        // carry event-rate and allocation columns; when the first
        // entry has them, every entry must.
        let has_alloc_cols = pdes
            .as_arr()
            .and_then(|a| a.first())
            .and_then(|e| e.get("allocs_per_event"))
            .is_some();
        if has_alloc_cols {
            check_section(
                artifact,
                "pdes",
                &[
                    "events",
                    "events_per_sec",
                    "serial_events_per_sec",
                    "allocs_per_event",
                    "serial_allocs_per_event",
                ],
            )?;
        }
    }
    // Optional: artifacts predating the rare-event estimators lack
    // this section. When present, the headline acceleration — the best
    // measured-vs-projected-brute speedup at matched relative CI —
    // must clear 100x, or the estimators have regressed into noise.
    if let Some(re) = artifact.get("rareevent") {
        check_section(
            artifact,
            "rareevent",
            &[
                "config",
                "method",
                "target_rel_ci",
                "cycles",
                "wall_s",
                "projected_brute_s",
                "speedup",
            ],
        )?;
        let best = re
            .as_arr()
            .into_iter()
            .flatten()
            .filter_map(|e| e.get("speedup").and_then(Json::as_f64))
            .fold(0.0f64, f64::max);
        if best < 100.0 {
            return Err(format!(
                "rareevent headline speedup {best:.1}x below the 100x floor"
            ));
        }
    }
    Ok(())
}

fn check_section(artifact: &Json, section: &str, fields: &[&str]) -> Result<(), String> {
    let arr = artifact
        .get(section)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array `{section}`"))?;
    if arr.is_empty() {
        return Err(format!("`{section}` must not be empty"));
    }
    for (i, entry) in arr.iter().enumerate() {
        for &field in fields {
            let v = entry
                .get(field)
                .ok_or_else(|| format!("{section}[{i}] missing `{field}`"))?;
            if let Some(x) = v.as_f64() {
                if !(x.is_finite() && x >= 0.0) {
                    return Err(format!("{section}[{i}].{field} not a finite rate: {x}"));
                }
                if field.ends_with("_per_sec") && x == 0.0 {
                    return Err(format!("{section}[{i}].{field} is zero"));
                }
            }
        }
    }
    Ok(())
}

// --------------------------------------------------------------------- main

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(path) = arg_value(&args, "--check") {
        let verdict = match std::fs::read_to_string(&path) {
            Ok(text) => parse(&text)
                .map_err(|e| e.to_string())
                .and_then(|a| check(&a).map_err(|msg| format!("schema violation: {msg}"))),
            Err(e) => Err(format!("cannot read: {e}")),
        };
        match verdict {
            Ok(()) => {
                println!("{path}: OK ({BENCH_FORMAT})");
                return;
            }
            Err(msg) => {
                eprintln!("{path}: {msg}");
                std::process::exit(1);
            }
        }
    }

    let quick = args.iter().any(|a| a == "--quick");
    let telemetry = args.iter().any(|a| a == "--telemetry");
    eprintln!("bench-hotpath: DES kernel ...");
    let des = bench_des_kernel(quick);
    eprintln!("bench-hotpath: iSLIP fabric (scatter) ...");
    let islip = bench_islip(quick);
    eprintln!("bench-hotpath: iSLIP fabric (saturated) ...");
    let islip_sat = bench_islip_saturated(quick);
    eprintln!("bench-hotpath: FIB lookup ...");
    let lookup = bench_lookup(quick);
    eprintln!("bench-hotpath: ingress pipeline ...");
    let ingress = bench_ingress(quick);
    eprintln!("bench-hotpath: network-of-routers ...");
    let topo = bench_topo(quick);
    eprintln!("bench-hotpath: rare-event estimators ...");
    let rare = bench_rareevent(quick);
    eprintln!("bench-hotpath: end-to-end faceoff cell ...");
    if telemetry {
        dra_telemetry::enable(dra_telemetry::Config::default());
    }
    let e2e = bench_end_to_end(quick);
    let telemetry_section = if telemetry {
        let snap = dra_telemetry::snapshot().expect("telemetry hub was enabled");
        dra_telemetry::disable();
        Some(parse(&snap.to_json_string()).expect("snapshot emits valid JSON"))
    } else {
        None
    };

    let mut artifact = Json::obj(vec![
        ("format", Json::Str(BENCH_FORMAT.to_string())),
        ("quick", Json::Bool(quick)),
        ("des_kernel", des),
        ("islip", islip),
        ("islip_saturated", islip_sat),
        ("lookup", lookup),
        ("ingress", ingress),
        ("topo", topo),
        ("rareevent", rare),
        ("end_to_end", e2e),
    ]);
    if let Some(section) = telemetry_section {
        if let Json::Obj(pairs) = &mut artifact {
            pairs.push(("telemetry".to_string(), section));
        }
    }

    if let Some(path) = arg_value(&args, "--baseline") {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline = parse(&text).unwrap_or_else(|e| panic!("{path}: bad JSON: {e:?}"));
        let speedup = speedup_section(&artifact, &baseline);
        if let Json::Obj(pairs) = &mut artifact {
            pairs.push(("baseline".to_string(), baseline));
            pairs.push(("speedup".to_string(), speedup));
        }
    }

    check(&artifact).expect("freshly produced artifact must satisfy its own schema");
    let rendered = artifact.to_string_pretty();
    match arg_value(&args, "--out") {
        Some(path) => {
            std::fs::write(&path, rendered + "\n")
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("bench-hotpath: wrote {path}");
        }
        None => println!("{rendered}"),
    }
}
