//! Network-scope observability on a fat-tree(4) under an SRU kill.
//!
//! ```sh
//! cargo run --release --example network_trace
//! cargo run --release --example network_trace -- \
//!     --trace my_trace.json --snapshot my_snapshot.json
//! ```
//!
//! Runs a 20-router fat-tree(4) with cross-pod flows while scripted
//! faults land (an SRU kill on an edge switch, a link cut in its pod),
//! with the network-scope collector on:
//!
//! * per-router counters (transits / covered / forwards / drops by
//!   cause) merged across the whole network,
//! * hop-resolved **flow spans** for the deterministic packet sample,
//!   exported as a Chrome `trace_event` file with one track per router
//!   and flow arrows across hops (open it at
//!   <https://ui.perfetto.dev>),
//! * the **fault-forensics ledger** correlating each scripted action
//!   with the cumulative drop census and per-flow availability
//!   transitions,
//! * a forced conservation-ledger violation demonstrating the
//!   flight-recorder freeze riding in the snapshot, and
//! * a second run on another seed whose snapshot merges into the
//!   first, the way a sweep folds its cells.
//!
//! Telemetry observes without steering: the simulation results are
//! byte-identical with collection off.

use dra::core::handle::ArchKind;
use dra::router::components::ComponentKind;
use dra::telemetry as tm;
use dra::topo::{Flow, NetAction, NetConfig, NetScenario, NetworkSim, Topology, TopologyKind};

const HORIZON_S: f64 = 8e-3;

fn build() -> NetworkSim {
    let topo = Topology::build(TopologyKind::FatTree { k: 4 });
    let hosts = topo.hosts.clone();
    let cfg = NetConfig {
        traffic_stop_s: 6e-3,
        ..NetConfig::default()
    };
    let flows = vec![
        Flow {
            src: hosts[0],
            dst: hosts[4],
            rate_pps: 40_000.0,
        },
        Flow {
            src: hosts[1],
            dst: hosts[5],
            rate_pps: 40_000.0,
        },
        Flow {
            src: hosts[6],
            dst: hosts[2],
            rate_pps: 25_000.0,
        },
    ];
    let mut net = NetworkSim::new(topo, ArchKind::Dra, cfg, flows, 0xFA7);
    let scenario = NetScenario::new()
        .at(
            2e-3,
            NetAction::FailComponent {
                node: hosts[0],
                lc: 0,
                kind: ComponentKind::Sru,
            },
        )
        .at(
            2.5e-3,
            NetAction::FailLink {
                a: hosts[0],
                b: net.topo.adj[hosts[0] as usize][0],
            },
        )
        .at(
            5e-3,
            NetAction::RepairLc {
                node: hosts[0],
                lc: 0,
            },
        )
        .at(
            5.5e-3,
            NetAction::RepairLink {
                a: hosts[0],
                b: net.topo.adj[hosts[0] as usize][0],
            },
        );
    net.set_scenario(&scenario);
    net
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |flag: &str, default: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| default.to_string())
    };
    let trace_path = arg("--trace", "target/network_trace.trace.json");
    let snap_path = arg("--snapshot", "target/network_trace.snapshot.json");

    tm::enable(tm::Config {
        sample_every: 16,
        ..tm::Config::default()
    });

    // Serial run: counters, sampled flow spans, forensics ledger.
    let mut net = build();
    net.enable_net_telemetry(16);
    let mut net = net.run(2026, HORIZON_S);
    assert!(net.stats.conserved(), "model conserves packets");

    // Demonstrate the forensics freeze: misstate the ledger the way a
    // real conservation bug would read, so the export carries the
    // frozen flight-recorder window. (The model itself conserves.)
    net.stats.in_flight += 1;
    if !net.stats.conserved() {
        tm::anomaly("net: conservation ledger violation (demo)");
    }
    net.stats.in_flight -= 1;

    let report = net
        .export_net_telemetry(HORIZON_S, 0, 0)
        .expect("collector was enabled");
    let snap = &report.snapshot;

    println!(
        "fat-tree(4): {} routers, 3 flows, SRU kill + link cut\n",
        snap.nodes.len()
    );
    println!("per-router counters (routers with any traffic):");
    for (n, c) in snap.nodes.iter().enumerate() {
        if c.transits > 0 || c.actions > 0 {
            println!(
                "  node {n:>2}  transit={:<6} covered={:<5} forward={:<6} deliver={:<6} drops={:<4} actions={}",
                c.transits,
                c.covered,
                c.forwards,
                c.delivered,
                c.dropped_total(),
                c.actions,
            );
        }
    }

    println!(
        "\nfault-forensics ledger ({} entries):",
        snap.forensics.len()
    );
    for e in &snap.forensics {
        match e.kind {
            tm::ForensicKind::Action => {
                println!(
                    "  t={:.6}s  action    {:<22} drops so far: {}",
                    e.t,
                    e.label,
                    e.drops_at.iter().sum::<u64>()
                );
            }
            tm::ForensicKind::FlowDown => {
                println!(
                    "  t={:.6}s  flow {} DOWN ({})",
                    e.t, e.flow, snap.drop_causes[e.cause as usize]
                );
            }
            tm::ForensicKind::FlowUp => {
                println!("  t={:.6}s  flow {} UP", e.t, e.flow);
            }
        }
    }

    match &snap.frozen {
        Some(a) => println!(
            "\nflight recorder frozen at t={:.6}s ({}): {} events",
            a.t,
            a.reason,
            a.events.len()
        ),
        None => println!("\nflight recorder armed, nothing frozen"),
    }

    std::fs::write(&trace_path, tm::chrome_trace_json(&report.trace)).expect("write trace");
    println!(
        "wrote {} sampled-flow trace events to {trace_path} — load at https://ui.perfetto.dev",
        report.trace.len()
    );

    // A second run on another seed: snapshots from different
    // cells/runs merge associatively.
    let mut other = build();
    other.enable_net_telemetry(16);
    let mut other = other.run(2027, HORIZON_S);
    let oreport = other
        .export_net_telemetry(HORIZON_S, 4096, 1 << 40)
        .expect("collector was enabled");
    let mut merged = report.snapshot;
    merged.merge(&oreport.snapshot);
    std::fs::write(&snap_path, merged.to_json_string()).expect("write snapshot");
    println!(
        "\nwrote merged {} snapshot ({} runs) to {snap_path}",
        tm::NET_SNAPSHOT_FORMAT,
        merged.cells_merged
    );
    tm::disable();
}
