//! Topo-sweep execution: the grid → [`dra_campaign::sweep`] runner →
//! `dra-topo/v1` artifact pipeline.
//!
//! The shared runner gives the campaign determinism contract one level
//! up: per-cell seeds derive from `(master_seed, seed_group,
//! replication, stream)` via SplitMix64 — with the extra per-node
//! coordinate of [`crate::seeds::node_seed`] inside each cell — cells
//! are computed in any order on any number of workers, then assembled
//! sorted by cell index, so the artifact is byte-identical at every
//! worker count (the CI `topo-smoke` job pins workers 1 vs 4). This
//! module keeps the cell body, the network-scope telemetry merge and
//! the semantic half of `topo --check`.

use crate::net::{Flow, NetAction, NetConfig, NetScenario, NetworkSim};
use crate::seeds::{node_seed, NodeSeedStream};
use crate::spec::{TopoCellSpec, TopoFaultSpec, TopoSpec};
use crate::stats::NetDropCause;
use crate::topology::Topology;
use dra_campaign::json::Json;
use dra_campaign::pool::default_workers;
use dra_campaign::seed::{derive_seed, Stream};
use dra_campaign::sweep::{self, check_artifact, welford_json, write_atomic, Report};
use dra_core::scenario::FaultProcess;
use dra_des::stats::Welford;
use dra_router::components::ComponentKind;
use dra_router::faults::{FaultGranularity, FaultInjector};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// Artifact format tag.
pub const ARTIFACT_FORMAT: &str = "dra-topo/v1";

/// Seed-stream tag for flow-placement draws (outside the u32 node-id
/// space, so it can never alias a router's stream).
const FLOW_TAG: u64 = 0xF10D_0000_0000_0001;

/// How to execute a sweep.
#[derive(Debug, Clone, Default)]
pub struct TopoRunOptions {
    /// Worker threads: `None` runs one per CPU, `Some(1)` runs serial.
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
    /// Cells that panicked (recorded as error cells).
    pub failed: usize,
}

/// Execute a topo sweep and assemble its artifact.
pub fn run(spec: &TopoSpec, opts: &TopoRunOptions) -> std::io::Result<TopoOutcome> {
    let collect = opts.telemetry_out.is_some() || opts.trace_out.is_some();
    if !opts.quiet {
        println!(
            "topo sweep `{}` [{}]: {} cells on {} workers",
            spec.name,
            spec.digest(),
            spec.cells.len(),
            opts.workers.unwrap_or_else(default_workers).max(1)
        );
    }
    let swept = sweep::run(spec, opts.workers, Report::default(), None, |i| {
        run_cell(spec, i, collect)
    })?;
    let (_, text) = sweep::finish(
        spec,
        ARTIFACT_FORMAT,
        swept.cells,
        Vec::new(),
        validate_artifact,
        opts.out.as_deref(),
    )?;
    if let (Some(path), false) = (&opts.out, opts.quiet) {
        println!("wrote {} ({} bytes)", path.display(), text.len());
    }
    if collect {
        // Per-cell telemetry arrives in cell-index order: folding in
        // that order makes the merged snapshot worker-count invariant.
        let mut snap: Option<dra_telemetry::NetScopeSnapshot> = None;
        let mut trace: Vec<dra_telemetry::TraceEvent> = Vec::new();
        for boxed in swept.outputs.into_iter().filter_map(|(_, t)| t) {
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
        failed: swept.failed,
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

/// Validation of a `dra-topo/v1` document (used by `topo --check` and
/// by [`run`] before it writes): the shared envelope, then per cell
/// the integer packet census, packet conservation, a delivery ratio in
/// [0, 1], and, for a cell whose spec says `faults.kind == "none"`, no
/// drop to any cause but `link_congested`. Returns
/// `(cells, error_cells)`.
pub fn validate_artifact(text: &str) -> Result<(usize, usize), String> {
    let (_, cells, errors) = check_artifact(text, ARTIFACT_FORMAT, |i, cell, spec_cell| {
        // Json::as_u64 admits only integers in [0, 2^53]; anything else
        // is an error, never a silent 0.
        let not_count = |what: &str| format!("cell {i}: {what} is not an integer in [0, 2^53]");
        let count = |key: &str| {
            cell.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| not_count(key))
        };
        let injected = count("injected")?;
        let delivered = count("delivered")?;
        let in_flight = count("in_flight")?;
        let Some(Json::Obj(drops)) = cell.get("drops") else {
            return Err(format!("cell {i}: missing drops object"));
        };
        let healthy = spec_cell
            .get("faults")
            .and_then(|f| f.get("kind"))
            .and_then(Json::as_str)
            == Some("none");
        let mut dropped = 0u64;
        for (cause, v) in drops {
            let n = v
                .as_u64()
                .ok_or_else(|| not_count(&format!("drops.{cause}")))?;
            if healthy && n > 0 && cause != NetDropCause::LinkCongested.name() {
                return Err(format!(
                    "cell {i}: healthy cell drops {n} packets to {cause}"
                ));
            }
            dropped = dropped.saturating_add(n);
        }
        let accounted = delivered
            .checked_add(dropped)
            .and_then(|d| d.checked_add(in_flight));
        if accounted != Some(injected) {
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
        Ok(())
    })?;
    Ok((cells, errors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::spec::FlowSpec;
    use crate::topology::TopologyKind;
    use dra_campaign::json::parse;
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

    /// Check a healthy twin pair's artifact with the last `from`
    /// (a field of cell 1) replaced by `to`.
    fn check_healthy_with(from: &str, to: &str) -> Result<(usize, usize), String> {
        let mut spec = tiny_spec();
        for cell in &mut spec.cells {
            cell.faults = TopoFaultSpec::None;
        }
        let opts = TopoRunOptions {
            workers: Some(1),
            quiet: true,
            ..Default::default()
        };
        let text = run(&spec, &opts).unwrap().artifact_text;
        let at = text.rfind(from).expect("field present");
        validate_artifact(&format!("{}{to}{}", &text[..at], &text[at + from.len()..]))
    }

    #[test]
    fn check_rejects_any_drop_but_congestion_in_a_healthy_cell() {
        assert_eq!(check_healthy_with("", ""), Ok((2, 0)));
        let err = check_healthy_with("\"ttl_exceeded\": 0", "\"ttl_exceeded\": 1").unwrap_err();
        assert_eq!(err, "cell 1: healthy cell drops 1 packets to ttl_exceeded");
        // Congestion is no fault: only the census is then off by one.
        let err = check_healthy_with("\"link_congested\": 0", "\"link_congested\": 1");
        assert!(err.unwrap_err().contains("conservation violated"));
    }

    #[test]
    fn check_rejects_a_drop_count_that_is_not_an_integer() {
        for bad in ["\"0\"", "0.5", "-1", "1e300", "null"] {
            let err = check_healthy_with("\"link_down\": 0", &format!("\"link_down\": {bad}"));
            assert_eq!(
                err.unwrap_err(),
                "cell 1: drops.link_down is not an integer in [0, 2^53]",
                "{bad}"
            );
        }
    }

    #[test]
    fn committed_artifacts_pass_check() {
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for name in [
            "topo_resilience.json",
            "topo_scale.json",
            "topo_scale2.json",
        ] {
            let text = std::fs::read_to_string(results.join(name)).unwrap();
            let (cells, errors) =
                validate_artifact(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(cells > 0 && errors == 0, "{name}");
        }
    }

    #[test]
    fn spread_targets_cover_the_range() {
        assert_eq!(spread_targets(20, 4), vec![0, 5, 10, 15]);
        assert_eq!(spread_targets(16, 1), vec![0]);
        assert!(spread_targets(9, 3).iter().all(|&t| t < 9));
    }
}
