//! Topo-sweep execution: the grid → worker pool → `dra-topo/v1`
//! artifact pipeline.
//!
//! Mirrors [`dra_campaign::engine`] one level up. The same determinism
//! machinery applies: per-cell seeds derive from `(master_seed,
//! seed_group, replication, stream)` via SplitMix64 — with the extra
//! per-node coordinate of [`crate::seeds::node_seed`] inside each
//! cell — cells are computed in any order on any number of workers,
//! then assembled sorted by cell index, so the artifact is
//! byte-identical at every worker count (the CI `topo-smoke` job pins
//! workers 1 vs 4).

use crate::net::{Flow, NetAction, NetConfig, NetScenario, NetworkSim};
use crate::seeds::{node_seed, NodeSeedStream};
use crate::spec::{TopoCellSpec, TopoFaultSpec, TopoSpec};
use crate::stats::NetDropCause;
use crate::topology::Topology;
use dra_campaign::json::{parse, Json};
use dra_campaign::pool::WorkerPool;
use dra_campaign::seed::{derive_seed, Stream};
use dra_core::scenario::FaultProcess;
use dra_des::stats::Welford;
use dra_router::components::ComponentKind;
use dra_router::faults::{FaultGranularity, FaultInjector};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Artifact format tag.
pub const ARTIFACT_FORMAT: &str = "dra-topo/v1";

/// Seed-stream tag for flow-placement draws (outside the u32 node-id
/// space, so it can never alias a router's stream).
const FLOW_TAG: u64 = 0xF10D_0000_0000_0001;

/// How to execute a sweep.
#[derive(Debug, Clone, Default)]
pub struct TopoRunOptions {
    /// Worker threads (None = one per CPU).
    pub workers: Option<usize>,
    /// Artifact path (None = don't write, return text only).
    pub out: Option<PathBuf>,
    /// Suppress progress output.
    pub quiet: bool,
    /// Write the merged `dra-topo-telemetry/v2` network-scope snapshot
    /// here. Collection runs iff this or `trace_out` is set, and never
    /// changes the artifact; the snapshot is byte-identical at any
    /// `workers`.
    pub telemetry_out: Option<PathBuf>,
    /// Write the Chrome `trace_event` flow trace of the sampled
    /// packets here.
    pub trace_out: Option<PathBuf>,
}

/// Result of a sweep.
#[derive(Debug)]
pub struct TopoOutcome {
    /// The artifact document, exactly as (or as would be) written.
    pub artifact_text: String,
    /// Where it was written, if anywhere.
    pub path: Option<PathBuf>,
    /// Cells computed.
    pub cells: usize,
    /// Cells that panicked (recorded as error cells).
    pub failed: usize,
}

/// Execute a topo sweep and assemble its artifact.
pub fn run(spec: &TopoSpec, opts: &TopoRunOptions) -> std::io::Result<TopoOutcome> {
    spec.validate();
    let collect = opts.telemetry_out.is_some() || opts.trace_out.is_some();
    let digest = spec.digest();
    let pool = match opts.workers {
        Some(w) => WorkerPool::new(w),
        None => WorkerPool::auto(),
    };
    if !opts.quiet {
        println!(
            "topo sweep `{}` [{digest}]: {} cells on {} workers",
            spec.name,
            spec.cells.len(),
            pool.workers()
        );
    }
    let indices: Vec<usize> = (0..spec.cells.len()).collect();
    let results = pool.try_map(indices.clone(), {
        let spec = spec.clone();
        move |i: &usize| (*i, run_cell(&spec, *i, collect))
    });
    let mut done: BTreeMap<u64, Json> = BTreeMap::new();
    // Per-cell telemetry, keyed by cell index: folding in index order
    // makes the merged snapshot worker-count invariant.
    let mut teles: BTreeMap<u64, CellTele> = BTreeMap::new();
    let mut failed = 0;
    for res in results {
        match res {
            Ok((i, (cell, tele))) => {
                done.insert(i as u64, cell);
                if let Some(t) = tele {
                    teles.insert(i as u64, t);
                }
            }
            Err(p) => {
                // Key the error by the *cell index* the panicked item
                // carried — not by the slot it occupies in the result
                // vector, which only coincides with the cell index
                // while the submitted work list is the identity.
                failed += 1;
                let cell_index = indices[p.index];
                done.insert(
                    cell_index as u64,
                    Json::obj(vec![
                        ("cell", Json::Num(cell_index as f64)),
                        ("id", Json::Str(spec.cells[cell_index].id.clone())),
                        ("error", Json::Str(p.message)),
                    ]),
                );
            }
        }
    }
    let artifact = Json::obj(vec![
        ("format", Json::Str(ARTIFACT_FORMAT.into())),
        ("digest", Json::Str(digest)),
        ("spec", spec.manifest()),
        ("cells", Json::Arr(done.into_values().collect())),
    ]);
    let text = artifact.to_string_pretty();
    validate_artifact(&text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    if let Some(path) = &opts.out {
        write_atomic(path, &text)?;
        if !opts.quiet {
            println!("wrote {} ({} bytes)", path.display(), text.len());
        }
    }
    if collect {
        let mut snap: Option<dra_telemetry::NetScopeSnapshot> = None;
        let mut trace: Vec<dra_telemetry::TraceEvent> = Vec::new();
        for boxed in teles.into_values() {
            let (s, t) = *boxed;
            match &mut snap {
                None => snap = Some(s),
                Some(acc) => acc.merge(&s),
            }
            trace.extend(t);
        }
        if let Some(path) = &opts.telemetry_out {
            let text = snap
                .as_ref()
                .map(dra_telemetry::NetScopeSnapshot::to_json_string)
                .unwrap_or_else(|| dra_telemetry::NetScopeSnapshot::default().to_json_string());
            write_atomic(path, &text)?;
            if !opts.quiet {
                println!(
                    "wrote telemetry snapshot {} ({} bytes)",
                    path.display(),
                    text.len()
                );
            }
        }
        if let Some(path) = &opts.trace_out {
            let text = dra_telemetry::chrome_trace_json(&trace);
            write_atomic(path, &text)?;
            if !opts.quiet {
                println!(
                    "wrote flow trace {} ({} events)",
                    path.display(),
                    trace.len()
                );
            }
        }
    }
    Ok(TopoOutcome {
        artifact_text: text,
        path: opts.out.clone(),
        cells: spec.cells.len(),
        failed,
    })
}

/// `k` indices spread evenly over `0..n` (deterministic fault-target
/// selection: same targets for both architectures of a twin pair).
pub fn spread_targets(n: usize, k: u32) -> Vec<u32> {
    (0..k as usize)
        .map(|i| (i * n / k as usize) as u32)
        .collect()
}

/// Build the fully-wired network for one `(cell, replication)` —
/// topology, flows, fault timelines — ready for
/// [`NetworkSim::simulation`]. Public so examples, benches, and the
/// invariant tests exercise exactly the engine's construction path.
pub fn build_network(cell: &TopoCellSpec, master_seed: u64, replication: u32) -> NetworkSim {
    let sim_seed = derive_seed(
        master_seed,
        cell.seed_group,
        replication as u64,
        Stream::Simulation,
    );
    let fault_seed = derive_seed(
        master_seed,
        cell.seed_group,
        replication as u64,
        Stream::Faults,
    );
    let topo = Topology::build(cell.topology);
    let cfg = NetConfig {
        link: cell.link,
        packet_bytes: cell.flows.packet_bytes,
        traffic_stop_s: cell.horizon_s - cell.drain_s,
        ..NetConfig::default()
    };
    // Flow placement from the cell's private stream: distinct
    // (src, dst) host pairs, identical across the BDR/DRA twins.
    let mut draws = NodeSeedStream::new(sim_seed, FLOW_TAG);
    let mut flows = Vec::with_capacity(cell.flows.n_flows as usize);
    for _ in 0..cell.flows.n_flows {
        let src = topo.hosts[(draws.next().unwrap() % topo.hosts.len() as u64) as usize];
        let dst = loop {
            let d = topo.hosts[(draws.next().unwrap() % topo.hosts.len() as u64) as usize];
            if d != src {
                break d;
            }
        };
        flows.push(Flow {
            src,
            dst,
            rate_pps: cell.flows.rate_pps,
        });
    }
    let n_nodes = topo.n_nodes();
    let mut net = NetworkSim::new(topo, cell.arch, cfg, flows, sim_seed);
    match cell.faults {
        TopoFaultSpec::None => {}
        TopoFaultSpec::FailRouters { k, at_s } => {
            let mut sc = NetScenario::new();
            for node in spread_targets(n_nodes, k) {
                let n_lcs = net.node(node).n_lcs() as u16;
                for lc in (0..n_lcs).step_by(2) {
                    sc = sc.at(
                        at_s,
                        NetAction::FailComponent {
                            node,
                            lc,
                            kind: ComponentKind::Sru,
                        },
                    );
                }
            }
            net.set_scenario(&sc);
        }
        TopoFaultSpec::FailLinks { k, at_s } => {
            let mut cables: Vec<(u32, u32)> = Vec::new();
            for a in 0..n_nodes as u32 {
                for &b in &net.topo.adj[a as usize] {
                    if a < b {
                        cables.push((a, b));
                    }
                }
            }
            let mut sc = NetScenario::new();
            for idx in spread_targets(cables.len(), k.min(cables.len() as u32)) {
                let (a, b) = cables[idx as usize];
                sc = sc.at(at_s, NetAction::FailLink { a, b });
            }
            net.set_scenario(&sc);
        }
        TopoFaultSpec::Renewal {
            delay_scale,
            repair_h,
        } => {
            let process = FaultProcess {
                injector: FaultInjector::new(repair_h, FaultGranularity::PerComponent),
                delay_scale,
                repair: true,
            };
            for node in 0..n_nodes as u32 {
                let mut rng = SmallRng::seed_from_u64(node_seed(fault_seed, node as u64));
                let n_lcs = net.node(node).n_lcs();
                let timeline = process.sample(n_lcs, cell.horizon_s, &mut rng);
                net.set_node_fault_schedule(node, &timeline);
            }
        }
    }
    net
}

/// Network-scope sampling density for CLI-driven collection: every
/// 64th packet gets hop-resolved flow spans (counters and forensics
/// are unsampled — they see everything).
const TELEMETRY_SAMPLE_EVERY: u64 = 64;

/// One cell's collected telemetry: the merged snapshot of its
/// replications plus their concatenated flow-trace events.
type CellTele = Box<(
    dra_telemetry::NetScopeSnapshot,
    Vec<dra_telemetry::TraceEvent>,
)>;

/// Run every replication of one cell and reduce to its JSON record
/// (plus, when `collect` is set, its telemetry).
fn run_cell(spec: &TopoSpec, index: usize, collect: bool) -> (Json, Option<CellTele>) {
    let cell = &spec.cells[index];
    let mut injected = 0u64;
    let mut delivered = 0u64;
    let mut in_flight = 0u64;
    let mut drops = [0u64; 8];
    let mut delivery = Welford::new();
    let mut flow_avail = Welford::new();
    let mut latency = Welford::new();
    let mut hops = Welford::new();
    let (mut n_nodes, mut n_links) = (0, 0);
    let mut cell_tele: Option<CellTele> = None;
    for rep in 0..cell.replications {
        let mut net = build_network(cell, spec.master_seed, rep);
        if collect {
            // The hub (flight-recorder ring + anomaly freeze) is
            // thread-local: arm a fresh one on whichever pool worker
            // runs this replication and disarm it after the export
            // below, so no ring or anomaly state crosses replications
            // and the gate closes when the sweep ends. Telemetry
            // observes without steering, so the artifact bytes do not
            // change.
            dra_telemetry::enable(dra_telemetry::Config {
                sample_every: TELEMETRY_SAMPLE_EVERY,
                ..dra_telemetry::Config::default()
            });
            net.enable_net_telemetry(TELEMETRY_SAMPLE_EVERY);
        }
        n_nodes = net.topo.n_nodes();
        n_links = net.topo.n_links();
        let sim_seed = derive_seed(
            spec.master_seed,
            cell.seed_group,
            rep as u64,
            Stream::Simulation,
        );
        let net = net.run(sim_seed, cell.horizon_s);
        let s = &net.stats;
        assert!(s.conserved(), "{}: packet conservation violated", cell.id);
        injected += s.injected;
        delivered += s.delivered;
        in_flight += s.in_flight;
        for (acc, d) in drops.iter_mut().zip(s.drops) {
            *acc += d;
        }
        delivery.push(s.delivery_ratio());
        flow_avail.push(s.flow_availability(0.99));
        if s.delivered > 0 {
            latency.push(s.latency.mean());
            hops.push(s.hops.mean());
        }
        if collect {
            // Distinct Perfetto pid/arrow namespaces per (cell, rep):
            // pure functions of the indices, so the merged trace is
            // worker-invariant.
            let mut net = net;
            let report = net
                .export_net_telemetry(
                    cell.horizon_s,
                    (index as u32) * 4096,
                    ((index as u64 * 1024) + rep as u64) << 40,
                )
                .expect("collector was enabled above");
            dra_telemetry::disable();
            match &mut cell_tele {
                None => cell_tele = Some(Box::new((report.snapshot, report.trace))),
                Some(acc) => {
                    acc.0.merge(&report.snapshot);
                    acc.1.extend(report.trace);
                }
            }
        }
    }
    let record = Json::obj(vec![
        ("cell", Json::Num(index as f64)),
        ("id", Json::Str(cell.id.clone())),
        ("arch", Json::Str(cell.arch.label().into())),
        ("topology", Json::Str(cell.topology.label())),
        ("nodes", Json::Num(n_nodes as f64)),
        ("links", Json::Num(n_links as f64)),
        ("replications", Json::Num(cell.replications as f64)),
        ("injected", Json::Num(injected as f64)),
        ("delivered", Json::Num(delivered as f64)),
        ("in_flight", Json::Num(in_flight as f64)),
        (
            "drops",
            Json::Obj(
                NetDropCause::ALL
                    .iter()
                    .map(|c| (c.name().to_string(), Json::Num(drops[c.index()] as f64)))
                    .collect(),
            ),
        ),
        ("delivery_ratio", welford_json(&delivery)),
        ("flow_availability", welford_json(&flow_avail)),
        ("latency_s", welford_json(&latency)),
        ("hops", welford_json(&hops)),
    ]);
    (record, cell_tele)
}

fn welford_json(w: &Welford) -> Json {
    if w.count() == 0 {
        return Json::obj(vec![("n", Json::Num(0.0))]);
    }
    let ci = if w.count() >= 2 {
        w.ci_half_width(1.96)
    } else {
        0.0
    };
    Json::obj(vec![
        ("n", Json::Num(w.count() as f64)),
        ("mean", Json::Num(w.mean())),
        ("ci95", Json::Num(ci)),
        ("min", Json::Num(w.min())),
        ("max", Json::Num(w.max())),
    ])
}

fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Structural validation of a `dra-topo/v1` document, including the
/// network packet-conservation invariant per cell. Returns
/// `(cells, error_cells)`.
pub fn validate_artifact(text: &str) -> Result<(usize, usize), String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    if doc.get("format").and_then(Json::as_str) != Some(ARTIFACT_FORMAT) {
        return Err(format!(
            "format is {:?}, expected {ARTIFACT_FORMAT:?}",
            doc.get("format")
        ));
    }
    doc.get("digest")
        .and_then(Json::as_str)
        .filter(|d| d.len() == 16)
        .ok_or("missing/malformed digest")?;
    let spec_cells = doc
        .get("spec")
        .and_then(|s| s.get("cells"))
        .and_then(Json::as_arr)
        .ok_or("missing spec manifest cells")?;
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("missing cells array")?;
    if cells.len() != spec_cells.len() {
        return Err(format!(
            "artifact has {} cells but the spec declares {}",
            cells.len(),
            spec_cells.len()
        ));
    }
    let mut errors = 0;
    for (i, cell) in cells.iter().enumerate() {
        let idx = cell
            .get("cell")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("cell {i}: missing index"))?;
        if idx != i as u64 {
            return Err(format!("cell {i}: out of order (index {idx})"));
        }
        cell.get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("cell {i}: missing id"))?;
        if cell.get("error").is_some() {
            errors += 1;
            continue;
        }
        let num = |key: &str| -> Result<u64, String> {
            cell.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("cell {i}: missing {key}"))
        };
        let injected = num("injected")?;
        let delivered = num("delivered")?;
        let in_flight = num("in_flight")?;
        let dropped: u64 = match cell.get("drops") {
            Some(Json::Obj(pairs)) => pairs.iter().filter_map(|(_, v)| v.as_u64()).sum(),
            _ => return Err(format!("cell {i}: missing drops object")),
        };
        if injected != delivered + dropped + in_flight {
            return Err(format!(
                "cell {i}: conservation violated: {injected} != {delivered} + {dropped} + {in_flight}"
            ));
        }
        let ratio = cell
            .get("delivery_ratio")
            .and_then(|d| d.get("mean"))
            .and_then(Json::as_f64)
            .unwrap_or(1.0);
        if !(0.0..=1.0).contains(&ratio) {
            return Err(format!("cell {i}: delivery ratio {ratio} outside [0,1]"));
        }
    }
    Ok((cells.len(), errors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::spec::FlowSpec;
    use crate::topology::TopologyKind;
    use dra_core::handle::ArchKind;

    fn tiny_spec() -> TopoSpec {
        let cell = |id: &str, arch, group| TopoCellSpec {
            id: id.into(),
            arch,
            topology: TopologyKind::Mesh2D { rows: 3, cols: 3 },
            link: LinkConfig::default(),
            flows: FlowSpec {
                n_flows: 4,
                rate_pps: 20_000.0,
                packet_bytes: 700,
            },
            faults: TopoFaultSpec::FailRouters { k: 2, at_s: 2e-3 },
            horizon_s: 8e-3,
            drain_s: 2e-3,
            replications: 2,
            seed_group: group,
        };
        TopoSpec {
            name: "tiny".into(),
            description: "engine test".into(),
            master_seed: 0xD8A,
            cells: vec![
                cell("bdr/mesh/r2", ArchKind::Bdr, 0),
                cell("dra/mesh/r2", ArchKind::Dra, 0),
            ],
        }
    }

    #[test]
    fn artifact_is_worker_count_invariant() {
        let spec = tiny_spec();
        let run_with = |w| {
            run(
                &spec,
                &TopoRunOptions {
                    workers: Some(w),
                    out: None,
                    quiet: true,
                    ..Default::default()
                },
            )
            .unwrap()
            .artifact_text
        };
        let w1 = run_with(1);
        let w4 = run_with(4);
        assert_eq!(w1, w4, "artifact must be byte-identical at 1 vs 4 workers");
        let (cells, errors) = validate_artifact(&w1).unwrap();
        assert_eq!((cells, errors), (2, 0));
    }

    #[test]
    fn twin_cells_share_traffic_and_dra_dominates() {
        let spec = tiny_spec();
        let out = run(
            &spec,
            &TopoRunOptions {
                workers: Some(1),
                out: None,
                quiet: true,
                ..Default::default()
            },
        )
        .unwrap();
        let doc = parse(&out.artifact_text).unwrap();
        let cells = doc.get("cells").and_then(Json::as_arr).unwrap();
        let injected: Vec<u64> = cells
            .iter()
            .map(|c| c.get("injected").and_then(Json::as_u64).unwrap())
            .collect();
        assert_eq!(injected[0], injected[1], "twins share the arrival stream");
        let ratio = |c: &Json| {
            c.get("delivery_ratio")
                .and_then(|d| d.get("mean"))
                .and_then(Json::as_f64)
                .unwrap()
        };
        assert!(
            ratio(&cells[1]) > ratio(&cells[0]),
            "DRA ({}) must beat BDR ({}) under router degradation",
            ratio(&cells[1]),
            ratio(&cells[0])
        );
    }

    #[test]
    fn panicked_cells_are_keyed_by_cell_index() {
        let mut spec = tiny_spec();
        // Passes spec validation but panics during topology build:
        // the mesh generator rejects single-row grids.
        spec.cells[0].topology = TopologyKind::Mesh2D { rows: 1, cols: 9 };
        for workers in [1, 4] {
            let out = run(
                &spec,
                &TopoRunOptions {
                    workers: Some(workers),
                    out: None,
                    quiet: true,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(out.failed, 1, "workers = {workers}");
            let doc = parse(&out.artifact_text).unwrap();
            let cells = doc.get("cells").and_then(Json::as_arr).unwrap();
            let bad = &cells[0];
            assert_eq!(bad.get("cell").and_then(Json::as_u64), Some(0));
            assert_eq!(bad.get("id").and_then(Json::as_str), Some("bdr/mesh/r2"));
            assert!(
                bad.get("error")
                    .and_then(Json::as_str)
                    .unwrap()
                    .contains("mesh needs rows"),
                "error cell must carry the panic message"
            );
            assert!(cells[1].get("error").is_none(), "healthy cell untouched");
            let (n, errors) = validate_artifact(&out.artifact_text).unwrap();
            assert_eq!((n, errors), (2, 1));
        }
    }

    #[test]
    fn spread_targets_cover_the_range() {
        assert_eq!(spread_targets(20, 4), vec![0, 5, 10, 15]);
        assert_eq!(spread_targets(16, 1), vec![0]);
        assert!(spread_targets(9, 3).iter().all(|&t| t < 9));
    }
}
