//! One pass: every cell of a workload built, run and torn down once in
//! this process, timed from outside. A traced pass also records spans
//! and, once every cell is done, runs the per-layer replays.

use crate::sys::{CpuInstant, Usage};
use crate::trace::{self, Tracer};
use crate::workloads::{self, Cell, CellKind, SimStats, Size, Workload};
use dra_campaign::json::Json;
use dra_campaign::seed::{derive_seed, Stream};
use dra_core::handle::ArchKind;
use dra_core::sim::{DraConfig, DraRouter};
use dra_router::bdr::BdrRouter;
use dra_topo::engine::build_network;
use dra_topo::routes::{compile_fibs, RouteTables};
use dra_topo::topology::Topology;
use dra_topo::{Flow, NetConfig, NetworkSim};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Constructions timed per single-router cell. A chassis builds in well
/// under a millisecond, so one reading is mostly clock noise; the
/// median of several is not. Networks build once.
const ROUTER_SETUP_REPEATS: usize = 9;

/// Evenly spaced stops at which a traced run samples the event-queue
/// depth.
const PENDING_SAMPLES: u32 = 64;

/// Timings and outcome of one cell.
struct CellRecord {
    id: String,
    /// A network cell (reports drops by `NetDropCause`).
    net: bool,
    routers: usize,
    setup_s: f64,
    run_s: f64,
    teardown_s: f64,
    setup_usage: Usage,
    rss_after_mb: f64,
    stats: Option<SimStats>,
    error: Option<String>,
}

/// Per-layer figures of a traced pass (sums over its cells).
#[derive(Default)]
struct Layers {
    values: Vec<(String, f64)>,
}

impl Layers {
    fn add(&mut self, name: &str, v: f64) {
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some((_, x)) => *x += v,
            None => self.values.push((name.to_string(), v)),
        }
    }
}

/// Run one pass of `workload` (replication `rep` of its cells) and
/// return its record as one JSON line.
pub fn run(workload: Workload, size: Size, seed: u64, rep: u32, traced: bool) -> String {
    let cells = workloads::cells(workload, size, seed, rep);
    let start_usage = Usage::now();
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let mut records = Vec::with_capacity(cells.len());
    let t0 = Instant::now();
    let mut deferred = Vec::new();
    tracer.enter("pass");
    for cell in &cells {
        tracer.enter(format!("cell:{}", cell.id));
        let (rec, replay) = run_cell(cell, traced.then_some(&mut tracer));
        tracer.exit();
        records.push(rec);
        deferred.push(replay);
    }
    tracer.exit();
    let wall_s = t0.elapsed().as_secs_f64();
    if traced {
        // Replays run once every cell is done, so they cannot disturb
        // the heap the cells' own setup and run spans were measured in.
        for (i, (rec, replay)) in records.iter_mut().zip(deferred).enumerate() {
            let Some(replay) = replay else { continue };
            tracer.enter(format!("replays:{}", rec.id));
            let replay_seed = seed ^ i as u64;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                replay.run(&mut tracer, &mut layers, replay_seed)
            }));
            tracer.exit();
            if let Err(panic) = outcome {
                rec.error = Some(format!("replay {}", panic_message(panic)));
            }
        }
        // Layers a workload does not load still get a (zero-volume)
        // measured span, so every workload reports every layer.
        for name in trace::REPLAYS {
            if !tracer.spans().iter().any(|s| s.name == name) {
                tracer.span(name, || ());
            }
        }
    }
    let usage = Usage::now().since(&start_usage);

    let mut fields = vec![
        ("rep", Json::Num(rep as f64)),
        ("wall_s", Json::Num(wall_s)),
        ("user_s", Json::Num(usage.user_s)),
        ("sys_s", Json::Num(usage.sys_s)),
        ("minflt", Json::Num(usage.minflt as f64)),
        ("maxrss_mb", Json::Num(usage.maxrss_mb)),
        ("rss_before_mb", Json::Num(start_usage.maxrss_mb)),
        ("cells", Json::Arr(records.iter().map(cell_json).collect())),
    ];
    if traced {
        let self_times = trace::self_times(tracer.spans());
        fields.push((
            "layers",
            Json::Obj(
                layers
                    .values
                    .iter()
                    .map(|(n, v)| (n.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ));
        fields.push((
            "self_times",
            Json::Obj(
                self_times
                    .into_iter()
                    .map(|(n, v)| (n, Json::Num(v)))
                    .collect(),
            ),
        ));
        fields.push((
            "spans",
            Json::Arr(
                tracer
                    .spans()
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("name", Json::Str(s.name.clone())),
                            ("start", Json::Num(s.start)),
                            ("end", Json::Num(s.end)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    Json::obj(fields).to_string_compact()
}

fn cell_json(r: &CellRecord) -> Json {
    let mut f = vec![
        ("id", Json::Str(r.id.clone())),
        ("routers", Json::Num(r.routers as f64)),
        ("setup_s", Json::Num(r.setup_s)),
        ("run_s", Json::Num(r.run_s)),
        ("teardown_s", Json::Num(r.teardown_s)),
        ("setup_user_s", Json::Num(r.setup_usage.user_s)),
        ("setup_sys_s", Json::Num(r.setup_usage.sys_s)),
        ("setup_minflt", Json::Num(r.setup_usage.minflt as f64)),
        ("rss_after_mb", Json::Num(r.rss_after_mb)),
    ];
    match (&r.stats, &r.error) {
        (Some(s), None) => {
            f.push(("packets", Json::Num(s.packets as f64)));
            f.push(("delivered", Json::Num(s.delivered as f64)));
            f.push(("conserved", Json::Bool(s.conserved)));
            f.push(("digest", Json::Str(format!("{:016x}", s.digest))));
            if r.net {
                let names = workloads::net_drop_names();
                f.push((
                    "drops",
                    Json::Obj(
                        names
                            .iter()
                            .zip(s.counts.net_drops)
                            .map(|(n, d)| (n.to_string(), Json::Num(d as f64)))
                            .collect(),
                    ),
                ));
            }
        }
        (_, err) => f.push((
            "error",
            Json::Str(err.clone().unwrap_or_else(|| "no statistics".into())),
        )),
    }
    Json::obj(f)
}

fn run_cell(cell: &Cell, tracer: Option<&mut Tracer>) -> (CellRecord, Option<Replay>) {
    let mut rec = CellRecord {
        id: cell.id.clone(),
        net: matches!(cell.kind, CellKind::Net { .. }),
        routers: 0,
        setup_s: 0.0,
        run_s: 0.0,
        teardown_s: 0.0,
        setup_usage: Usage::default(),
        rss_after_mb: 0.0,
        stats: None,
        error: None,
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| match &cell.kind {
        CellKind::Router(rc) => router_cell(rc, &mut rec, tracer),
        CellKind::Net { spec, seed, rep } => net_cell(spec, *seed, *rep, &mut rec, tracer),
    }));
    rec.rss_after_mb = Usage::now().maxrss_mb;
    match outcome {
        Ok(replay) => (rec, replay),
        Err(panic) => {
            rec.stats = None;
            rec.error = Some(panic_message(panic));
            (rec, None)
        }
    }
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    let msg = panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "without a message".into());
    format!("panicked: {msg}")
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Time `f` on the CPU clock, inside a span named `name` when tracing.
fn timed<T>(tracer: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    if let Some(t) = tracer.as_deref_mut() {
        t.enter(name);
    }
    let start = CpuInstant::now();
    let out = f();
    let secs = start.elapsed();
    if let Some(t) = tracer.as_deref_mut() {
        t.exit();
    }
    (out, secs)
}

fn router_cell(
    rc: &workloads::RouterCell,
    rec: &mut CellRecord,
    mut tracer: Option<&mut Tracer>,
) -> Option<Replay> {
    rec.routers = 1;
    let before = Usage::now();
    let ((handle, builds), _) = timed(&mut tracer, "setup", || {
        let mut builds = Vec::with_capacity(ROUTER_SETUP_REPEATS);
        let mut handle = None;
        for _ in 0..ROUTER_SETUP_REPEATS {
            let t = CpuInstant::now();
            let h = workloads::build_router(rc);
            builds.push(t.elapsed());
            handle = Some(h);
        }
        (handle.expect("at least one construction"), builds)
    });
    rec.setup_usage = Usage::now().since(&before);
    rec.setup_s = median(builds);

    let mut handle = handle;
    (_, rec.run_s) = timed(&mut tracer, "run", || handle.advance_to(rc.horizon_s));
    let stats = workloads::router_stats(&handle);
    (_, rec.teardown_s) = timed(&mut tracer, "teardown", || drop(handle));

    let replay = tracer.map(|_| Replay::Router {
        cell: rc.clone(),
        stats: stats.clone(),
    });
    rec.stats = Some(stats);
    replay
}

/// Mean event-queue depth of a fault-free twin of a router cell over
/// its first quarter of traffic. The router handle does not expose its
/// queue, so the traced run reads the depth from the same model built
/// through its public simulation constructor.
fn router_pending(rc: &workloads::RouterCell) -> f64 {
    let until = rc.config.arrival_stop_s.unwrap_or(rc.horizon_s) / 4.0;
    let sample = |pending: &mut dyn FnMut(f64) -> usize| -> f64 {
        (1..=PENDING_SAMPLES)
            .map(|k| pending(until * k as f64 / PENDING_SAMPLES as f64) as f64)
            .sum::<f64>()
            / PENDING_SAMPLES as f64
    };
    match rc.arch {
        ArchKind::Bdr => {
            let mut sim = BdrRouter::simulation(rc.config.clone(), rc.seed);
            sample(&mut |t| {
                sim.run_until(t);
                sim.pending()
            })
        }
        ArchKind::Dra => {
            let cfg = DraConfig {
                router: rc.config.clone(),
                ..DraConfig::default()
            };
            let mut sim = DraRouter::simulation(cfg, rc.seed);
            sample(&mut |t| {
                sim.run_until(t);
                sim.pending()
            })
        }
    }
}

fn net_cell(
    spec: &dra_topo::TopoCellSpec,
    master_seed: u64,
    rep: u32,
    rec: &mut CellRecord,
    mut tracer: Option<&mut Tracer>,
) -> Option<Replay> {
    let sim_seed = derive_seed(master_seed, spec.seed_group, rep as u64, Stream::Simulation);
    let before = Usage::now();
    let (net, setup_s) = timed(&mut tracer, "setup", || {
        build_network(spec, master_seed, rep)
    });
    rec.setup_s = setup_s;
    rec.setup_usage = Usage::now().since(&before);
    rec.routers = net.topo.n_nodes();

    let traced = tracer.is_some();
    let ((net, kernel_events, pending), run_s) = timed(&mut tracer, "run", || {
        if !traced {
            return (net.run(sim_seed, spec.horizon_s), 0, 0.0);
        }
        // The serial path of `NetworkSim::run`, stopped at evenly spaced
        // instants so the queue depth can be read on the way.
        let mut sim = net.simulation(sim_seed);
        let mut depth = 0.0;
        for k in 1..=PENDING_SAMPLES {
            sim.run_until(spec.horizon_s * k as f64 / PENDING_SAMPLES as f64);
            depth += sim.pending() as f64;
        }
        let events = sim.events_processed();
        (sim.into_model(), events, depth / PENDING_SAMPLES as f64)
    });
    rec.run_s = run_s;
    let stats = workloads::net_stats(&net);
    let replay = traced.then(|| Replay::Net {
        spec: spec.clone(),
        flows: net.flows().to_vec(),
        cfg: net.cfg,
        stats: stats.clone(),
        events: kernel_events + stats.router_events,
        pending,
    });
    (_, rec.teardown_s) = timed(&mut tracer, "teardown", || drop::<NetworkSim>(net));

    rec.stats = Some(stats);
    replay
}

/// What a traced pass keeps of a cell to replay its layers afterwards.
enum Replay {
    Router {
        cell: workloads::RouterCell,
        stats: SimStats,
    },
    Net {
        spec: dra_topo::TopoCellSpec,
        flows: Vec<Flow>,
        cfg: NetConfig,
        stats: SimStats,
        /// Network-kernel plus embedded-router events.
        events: u64,
        pending: f64,
    },
}

impl Replay {
    /// Time every layer of the cell at its observed volume.
    fn run(self, tracer: &mut Tracer, layers: &mut Layers, seed: u64) {
        match self {
            Replay::Router { cell, stats } => {
                let c = &stats.counts;
                let pending = tracer.span("probe:pending", || router_pending(&cell));
                let events = stats.router_events;
                layers.add("des.events", events as f64);
                layers.add("des.pending_weighted", pending * events as f64);
                trace::replay_des(tracer, events, pending.round() as usize, seed);
                let r = trace::replay_router(tracer, &cell, c, seed);
                layers.add("net.fib.lookups", r.lookups as f64);
                layers.add("net.sar.cells", r.sar_cells as f64);
                layers.add("router.fabric.slots", r.fabric_slots as f64);
                layers.add("router.fabric.cells", r.fabric_cells as f64);
                if cell.arch == ArchKind::Dra {
                    trace::replay_router_coverage(tracer, cell.config.n_lcs, stats.packets);
                }
                layers.add("core.eib.packets", c.eib_packets as f64);
                layers.add("core.eib.control_packets", c.eib_control_packets as f64);
                layers.add("core.eib.collisions", c.eib_collisions as f64);
                layers.add("core.coverage.covered_packets", c.covered_packets as f64);
                layers.add(
                    "core.coverage.coverable_packets",
                    c.coverable_packets as f64,
                );
            }
            Replay::Net {
                spec,
                flows,
                cfg,
                stats,
                events,
                pending,
            } => {
                let c = &stats.counts;
                layers.add("des.events", events as f64);
                layers.add("des.pending_weighted", pending * events as f64);
                trace::replay_des(tracer, events, pending.round() as usize, seed);

                let topo = tracer.span("replay:topology_build", || Topology::build(spec.topology));
                let routes = tracer.span("replay:routes_derive", || RouteTables::derive(&topo));
                let fibs = tracer.span("replay:fib_compile", || compile_fibs(&topo, &routes));
                let bytes: usize = fibs.iter().map(|f| f.memory_bytes()).sum();
                layers.add("net.fib.memory_mb", bytes as f64 / (1024.0 * 1024.0));

                let lookups =
                    trace::replay_net_hops(tracer, &topo, &routes, &fibs, &flows, c, &cfg);
                // Every delivered packet followed the static min-hop
                // route, so the replayed transits must equal the sum of
                // the hop counters.
                assert_eq!(
                    lookups, c.delivered_transits,
                    "replayed transits disagree with the hop counters"
                );
                layers.add("net.fib.lookups", lookups as f64);
                layers.add("topo.hops", lookups as f64);
                if spec.arch == ArchKind::Dra {
                    trace::replay_net_coverage(tracer, lookups);
                }
                for (name, &n) in workloads::net_drop_names().iter().zip(&c.net_drops) {
                    layers.add(&format!("topo.drops.{name}"), n as f64);
                }
            }
        }
    }
}
