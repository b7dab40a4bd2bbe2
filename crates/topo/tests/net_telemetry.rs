//! Network-scope telemetry contracts.
//!
//! * The whole snapshot and the whole flow trace are byte-identical at
//!   `--workers` 1, 2 and 4 — the same invariance the artifact itself
//!   carries, extended to the observability outputs.
//! * A collecting sweep leaves the artifact byte-identical and no hub
//!   armed behind it.
//! * `NetScopeSnapshot::merge` is commutative and associative, so the
//!   fold over per-cell partials is partition- and order-invariant
//!   (proptest).

use dra_campaign::json::{parse, Json};
use dra_core::handle::ArchKind;
use dra_telemetry::{
    FlowSpan, ForensicEntry, ForensicKind, NetScopeSnapshot, NodeCounters, SpanKind,
    NET_DROP_CAUSES,
};
use dra_topo::engine::{self, TopoRunOptions};
use dra_topo::spec::{FlowSpec, TopoCellSpec, TopoFaultSpec, TopoSpec};
use dra_topo::stats::NetDropCause;
use dra_topo::topology::TopologyKind;
use proptest::prelude::*;
use std::path::PathBuf;

fn tiny_spec() -> TopoSpec {
    let cell = |id: &str, arch| TopoCellSpec {
        id: id.into(),
        arch,
        topology: TopologyKind::Mesh2D { rows: 3, cols: 3 },
        link: Default::default(),
        flows: FlowSpec {
            n_flows: 4,
            rate_pps: 20_000.0,
            packet_bytes: 700,
        },
        faults: TopoFaultSpec::FailRouters { k: 2, at_s: 2e-3 },
        horizon_s: 8e-3,
        drain_s: 2e-3,
        replications: 2,
        seed_group: 0,
    };
    TopoSpec {
        name: "tele-tiny".into(),
        description: "telemetry invariance test".into(),
        master_seed: 0x7E1E,
        cells: vec![
            cell("bdr/mesh/r2", ArchKind::Bdr),
            cell("dra/mesh/r2", ArchKind::Dra),
        ],
    }
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dra_net_tele_{}_{tag}.json", std::process::id()))
}

#[test]
fn snapshot_and_trace_are_worker_invariant() {
    let spec = tiny_spec();
    let run_with = |workers: usize| {
        let snap_path = tmp(&format!("snap_w{workers}"));
        let trace_path = tmp(&format!("trace_w{workers}"));
        let outcome = engine::run(
            &spec,
            &TopoRunOptions {
                workers: Some(workers),
                quiet: true,
                telemetry_out: Some(snap_path.clone()),
                trace_out: Some(trace_path.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        let snap = std::fs::read_to_string(&snap_path).unwrap();
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        let _ = std::fs::remove_file(&snap_path);
        let _ = std::fs::remove_file(&trace_path);
        (outcome.artifact_text, snap, trace)
    };
    let (art1, snap1, trace1) = run_with(1);
    for workers in [2, 4] {
        // The artifact stays byte-identical with collection on, and so
        // do the whole snapshot and the flow trace.
        let (art, snap, trace) = run_with(workers);
        assert_eq!(art1, art, "artifact differs at {workers} workers");
        assert_eq!(snap1, snap, "snapshot differs at {workers} workers");
        assert_eq!(trace1, trace, "trace differs at {workers} workers");
    }

    // Snapshot shape: format tag, per-node counters, forensics with
    // the scripted SRU kills, sampled spans.
    let doc = parse(&snap1).unwrap();
    assert_eq!(
        doc.get("format").and_then(Json::as_str),
        Some("dra-topo-telemetry/v2")
    );
    assert!(doc.get("profile").is_none() && doc.get("deterministic").is_none());
    assert_eq!(doc.get("n_nodes").and_then(Json::as_u64), Some(9));
    assert_eq!(
        doc.get("drop_causes")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(8)
    );
    let forensics = doc.get("forensics").and_then(Json::as_arr).unwrap();
    assert!(
        forensics.iter().any(|e| e
            .get("label")
            .and_then(Json::as_str)
            .is_some_and(|l| l.contains("fail-sru"))),
        "forensics ledger records the scripted SRU kills"
    );
    // Trace doc parses and holds Perfetto-style events.
    let tdoc = parse(&trace1).unwrap();
    assert!(
        !tdoc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .is_empty(),
        "sampled packets produce trace events"
    );
}

#[test]
fn collecting_sweep_disarms_its_hubs_and_keeps_the_artifact() {
    // One worker runs the cells on this thread, so a hub armed per
    // replication and never disarmed would still be armed here.
    let spec = tiny_spec();
    let run_with = |telemetry_out: Option<PathBuf>| {
        engine::run(
            &spec,
            &TopoRunOptions {
                workers: Some(1),
                quiet: true,
                telemetry_out,
                ..Default::default()
            },
        )
        .unwrap()
    };
    let plain = run_with(None);
    assert_eq!(plain.failed, 0);
    let snap_path = tmp("disarm");
    let collected = run_with(Some(snap_path.clone()));
    let _ = std::fs::remove_file(&snap_path);
    assert!(!dra_telemetry::enabled(), "the sweep left a hub armed");
    assert_eq!(plain.artifact_text, collected.artifact_text);
}

// ---- merge algebra -------------------------------------------------

fn causes() -> Vec<&'static str> {
    NetDropCause::ALL.iter().map(|c| c.name()).collect()
}

fn time() -> impl Strategy<Value = f64> {
    (0u64..2_000).prop_map(|t| t as f64 * 1e-6)
}

fn node_counters() -> impl Strategy<Value = NodeCounters> {
    (
        0u64..500,
        0u64..100,
        0u64..500,
        0u64..500,
        0u64..8,
        proptest::array::uniform8(0u64..50),
    )
        .prop_map(
            |(transits, covered, forwards, delivered, actions, drops)| NodeCounters {
                transits,
                covered,
                forwards,
                delivered,
                actions,
                drops,
            },
        )
}

fn span() -> impl Strategy<Value = FlowSpan> {
    (
        0u64..64,
        0u32..4,
        0u32..9,
        time(),
        0u64..30,
        0u8..4,
        0u32..16,
    )
        .prop_map(|(packet, flow, node, t0, dur, kind, aux)| FlowSpan {
            packet,
            flow,
            node,
            t0,
            t1: t0 + dur as f64 * 1e-6,
            kind: match kind {
                0 => SpanKind::Transit,
                1 => SpanKind::Link,
                2 => SpanKind::Deliver,
                _ => SpanKind::Drop,
            },
            aux,
        })
}

fn forensic() -> impl Strategy<Value = ForensicEntry> {
    (
        time(),
        0u8..3,
        0u32..4,
        0u32..8,
        proptest::array::uniform8(0u64..50),
    )
        .prop_map(|(t, kind, flow, cause, drops_at)| {
            let kind = match kind {
                0 => ForensicKind::Action,
                1 => ForensicKind::FlowDown,
                _ => ForensicKind::FlowUp,
            };
            ForensicEntry {
                t,
                flow: if kind == ForensicKind::Action {
                    u32::MAX
                } else {
                    flow
                },
                cause: if kind == ForensicKind::FlowDown {
                    cause
                } else {
                    u32::MAX
                },
                label: if kind == ForensicKind::Action {
                    format!("fail-link {flow}-{cause}")
                } else {
                    String::new()
                },
                drops_at: if kind == ForensicKind::Action {
                    drops_at
                } else {
                    [0; 8]
                },
                kind,
            }
        })
}

fn snapshot() -> impl Strategy<Value = NetScopeSnapshot> {
    (
        1u64..3,
        proptest::collection::vec(node_counters(), 0..9),
        proptest::collection::vec(forensic(), 0..12),
        proptest::collection::vec(span(), 0..24),
    )
        .prop_map(|(cells_merged, nodes, forensics, spans)| {
            let mut s = NetScopeSnapshot {
                cells_merged,
                drop_causes: causes(),
                nodes,
                forensics,
                spans,
                frozen: None,
            };
            // Producers hand over canonically sorted records; generated
            // snapshots must honor the same precondition.
            s.forensics.sort_unstable_by(ForensicEntry::cmp_canonical);
            s.spans.sort_unstable_by(FlowSpan::cmp_canonical);
            s
        })
}

fn merged(a: &NetScopeSnapshot, b: &NetScopeSnapshot) -> NetScopeSnapshot {
    let mut m = a.clone();
    m.merge(b);
    m
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// Merge is a commutative, associative fold: any partition of the
    /// per-cell partials, merged in any order, serializes
    /// to the same bytes. `NET_DROP_CAUSES` pins the census width the
    /// generated counters rely on.
    #[test]
    fn net_scope_merge_is_commutative_and_associative(
        a in snapshot(),
        b in snapshot(),
        c in snapshot(),
    ) {
        prop_assert_eq!(NET_DROP_CAUSES, 8);
        let ab = merged(&a, &b);
        let ba = merged(&b, &a);
        prop_assert_eq!(ab.to_json_string(), ba.to_json_string(), "commutativity");
        let ab_c = merged(&merged(&a, &b), &c);
        let a_bc = merged(&a, &merged(&b, &c));
        prop_assert_eq!(ab_c.to_json_string(), a_bc.to_json_string(), "associativity");
    }
}
