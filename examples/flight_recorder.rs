//! Flight recorder + lifecycle sampling on one DRA cell.
//!
//! ```sh
//! cargo run --release --example flight_recorder
//! cargo run --release --example flight_recorder -- \
//!     --trace my_trace.json
//! ```
//!
//! Runs a single DRA simulation with a scripted SRU failure while the
//! telemetry hub records: registry counters across every layer (DES
//! kernel, ingress, fabric, EIB, reassembly), the latency
//! decomposition of the deterministic 1-in-N packet sample, and the
//! flight-recorder ring — frozen at the first EIB-oversubscription
//! drop if one occurs. It then writes a Chrome `trace_event` file
//! (open it at <https://ui.perfetto.dev>) and prints the mergeable
//! `dra-telemetry/v1` snapshot.
//!
//! Telemetry observes without steering: the simulation consumes the
//! exact same random numbers and schedules the exact same events as a
//! run without the hub, which is why campaign artifacts stay
//! byte-identical when it is on.

use dra::core::sim::{DraConfig, DraRouter};
use dra::router::bdr::BdrConfig;
use dra::router::components::ComponentKind;
use dra::telemetry as tm;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "target/flight_recorder.trace.json".to_string());

    // Sample every 16th packet and keep the trace for export.
    tm::enable(tm::Config {
        sample_every: 16,
        collect_trace: true,
        ..tm::Config::default()
    });

    // One faceoff-shaped cell: 6 cards at load 0.5, SRU failure at
    // 10 ms, repair at 25 ms, horizon 40 ms.
    let cfg = DraConfig {
        router: BdrConfig {
            n_lcs: 6,
            load: 0.5,
            ..BdrConfig::default()
        },
        ..DraConfig::default()
    };
    let mut sim = DraRouter::simulation(cfg, 2026);
    sim.run_until(10e-3);
    let now = sim.now();
    sim.model_mut()
        .fail_component_now(0, ComponentKind::Sru, now);
    sim.run_until(25e-3);
    let now = sim.now();
    sim.model_mut().repair_lc_now(0, now);
    sim.run_until(40e-3);

    let snap = tm::snapshot().expect("hub is enabled");
    let trace = tm::take_trace_events();
    tm::disable();

    println!("counters:");
    for (name, v) in &snap.counters {
        if *v > 0 {
            println!("  {name:<28} {v}");
        }
    }
    println!(
        "\nlifecycle sample (1 in {}): {} packets, {} still in flight",
        snap.sample_every, snap.sampled_packets, snap.open_tracks
    );
    for (name, hist) in &snap.hists {
        if hist.count() > 0 {
            println!(
                "  {name:<28} n={:<6} p50={:>9.3e}s p99={:>9.3e}s",
                hist.count(),
                hist.quantile(0.5),
                hist.quantile(0.99),
            );
        }
    }
    match &snap.anomaly {
        Some(a) => println!(
            "\nflight recorder tripped at t={:.6}s ({}): {} events frozen",
            a.t,
            a.reason,
            a.events.len()
        ),
        None => println!(
            "\nflight recorder armed, no anomaly ({} events ring-buffered)",
            snap.ring_appended
        ),
    }

    std::fs::write(&trace_path, tm::chrome_trace_json(&trace)).expect("write trace");
    println!(
        "\nwrote {} trace events to {trace_path} — load it at https://ui.perfetto.dev",
        trace.len()
    );

    println!("\ndra-telemetry/v1 snapshot:\n{}", snap.to_json_string());
}
