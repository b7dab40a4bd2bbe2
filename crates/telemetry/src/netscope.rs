//! Network-scope telemetry: per-router counters, multi-hop flow
//! spans, and a fault-forensics ledger.
//!
//! The single-router [`Snapshot`](crate::Snapshot) stops at the
//! chassis boundary; this module is its network-of-routers sibling,
//! produced by `dra-topo` runs. One [`NetScopeSnapshot`] per
//! simulation cell, merged across replications and cells exactly like
//! worker snapshots.
//!
//! ## Determinism contract
//!
//! Every section — node counters, the forensics ledger, flow spans,
//! and the frozen flight-recorder window — is derived from sim-time
//! ordered data, so the whole document is byte-identical at any
//! worker count. CI enforces this.
//!
//! [`NetScopeSnapshot::merge`] is commutative and associative: list
//! sections merge by concatenate-then-canonical-sort (a multiset
//! union), counters by addition, the frozen window by earliest trip.

use crate::jsonw;
use crate::snapshot::{write_anomaly, Anomaly};

/// Version tag of the exported network-scope JSON document.
///
/// `v2` dropped `v1`'s wall-clock `profile` section and, with it, the
/// `deterministic` wrapper object: every section is now top level.
pub const NET_SNAPSHOT_FORMAT: &str = "dra-topo-telemetry/v2";

/// Number of network drop causes (`NetDropCause` has 8 variants; the
/// producer supplies the names so this crate stays model-agnostic).
pub const NET_DROP_CAUSES: usize = 8;

/// Per-router event counters, indexed by node id in
/// [`NetScopeSnapshot::nodes`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Packets that entered this router (host injection or link).
    pub transits: u64,
    /// Transits that needed fault-coverage spare capacity.
    pub covered: u64,
    /// Packets forwarded out a link.
    pub forwards: u64,
    /// Packets delivered to a host port here.
    pub delivered: u64,
    /// Scripted fault/repair actions applied at this router.
    pub actions: u64,
    /// Drops at this router, by `NetDropCause` index.
    pub drops: [u64; NET_DROP_CAUSES],
}

impl NodeCounters {
    /// Pairwise-add another node's counters into this one.
    pub fn add(&mut self, o: &NodeCounters) {
        self.transits += o.transits;
        self.covered += o.covered;
        self.forwards += o.forwards;
        self.delivered += o.delivered;
        self.actions += o.actions;
        for (d, od) in self.drops.iter_mut().zip(&o.drops) {
            *d += od;
        }
    }

    /// Total drops across all causes.
    pub fn dropped_total(&self) -> u64 {
        self.drops.iter().sum()
    }
}

/// What a [`FlowSpan`] represents on a router's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SpanKind {
    /// Time spent inside a router (transit + coverage + fabric).
    Transit = 0,
    /// Time on the wire between two routers (`aux` = egress port).
    Link = 1,
    /// Delivery to the destination host (instant; `t0 == t1`).
    Deliver = 2,
    /// Drop (instant; `aux` = `NetDropCause` index).
    Drop = 3,
}

impl SpanKind {
    /// Stable lowercase name used in exported JSON.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Transit => "transit",
            SpanKind::Link => "link",
            SpanKind::Deliver => "deliver",
            SpanKind::Drop => "drop",
        }
    }
}

/// One hop-resolved segment of a sampled packet's life.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpan {
    /// Packet id.
    pub packet: u64,
    /// Flow the packet belongs to.
    pub flow: u32,
    /// Router the segment starts at.
    pub node: u32,
    /// Segment start, sim-time seconds.
    pub t0: f64,
    /// Segment end, sim-time seconds (`>= t0`).
    pub t1: f64,
    /// Segment kind.
    pub kind: SpanKind,
    /// Kind-specific payload (see [`SpanKind`]).
    pub aux: u32,
}

impl FlowSpan {
    /// Total canonical order (packet, then time, then discriminators):
    /// producers sort with this so a span list's bytes depend only on
    /// the span *multiset*, never on collection order.
    pub fn cmp_canonical(&self, o: &FlowSpan) -> std::cmp::Ordering {
        self.packet
            .cmp(&o.packet)
            .then(self.t0.total_cmp(&o.t0))
            .then(self.t1.total_cmp(&o.t1))
            .then(self.kind.cmp(&o.kind))
            .then(self.node.cmp(&o.node))
            .then(self.flow.cmp(&o.flow))
            .then(self.aux.cmp(&o.aux))
    }
}

/// What a [`ForensicEntry`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum ForensicKind {
    /// A scripted `TopoFaultSpec` action fired (SRU kill, link cut,
    /// repair). `label` names it; `drops_at` is the cumulative
    /// per-cause drop census at that instant.
    Action = 0,
    /// A flow stopped delivering: its first drop after a delivery (or
    /// ever). `cause` is the `NetDropCause` index.
    FlowDown = 1,
    /// A flow resumed delivering after being down.
    FlowUp = 2,
}

impl ForensicKind {
    /// Stable lowercase name used in exported JSON.
    pub fn name(self) -> &'static str {
        match self {
            ForensicKind::Action => "action",
            ForensicKind::FlowDown => "flow_down",
            ForensicKind::FlowUp => "flow_up",
        }
    }
}

/// One entry of the fault-forensics ledger: a sim-time timeline
/// correlating scripted fault actions with per-flow availability
/// transitions and the drop census.
#[derive(Debug, Clone, PartialEq)]
pub struct ForensicEntry {
    /// Sim-time of the event, seconds.
    pub t: f64,
    /// Entry kind.
    pub kind: ForensicKind,
    /// Flow id (`u32::MAX` for [`ForensicKind::Action`]).
    pub flow: u32,
    /// Drop-cause index for [`ForensicKind::FlowDown`], else `u32::MAX`.
    pub cause: u32,
    /// Action label (empty for flow transitions).
    pub label: String,
    /// Cumulative drops by cause at `t` (actions only; zeros otherwise).
    pub drops_at: [u64; NET_DROP_CAUSES],
}

impl ForensicEntry {
    /// Total canonical order (sim-time first) — see
    /// [`FlowSpan::cmp_canonical`].
    pub fn cmp_canonical(&self, o: &ForensicEntry) -> std::cmp::Ordering {
        self.t
            .total_cmp(&o.t)
            .then(self.kind.cmp(&o.kind))
            .then(self.flow.cmp(&o.flow))
            .then(self.cause.cmp(&o.cause))
            .then(self.label.cmp(&o.label))
            .then(self.drops_at.cmp(&o.drops_at))
    }
}

/// Flow spans serialized into JSON before truncation (the full list
/// stays available in the struct and feeds the Perfetto exporter).
const SPANS_IN_JSON: usize = 2048;

/// Mergeable network-scope snapshot of one (or many, after merging)
/// `dra-topo` simulation cells.
#[derive(Debug, Clone, Default)]
pub struct NetScopeSnapshot {
    /// Cells folded into this snapshot.
    pub cells_merged: u64,
    /// `NetDropCause` names, drop-index order (producer-supplied).
    pub drop_causes: Vec<&'static str>,
    /// Per-router counters, indexed by node id.
    pub nodes: Vec<NodeCounters>,
    /// Fault-forensics ledger, canonical sim-time order.
    pub forensics: Vec<ForensicEntry>,
    /// Hop-resolved spans of sampled packets, canonical order.
    pub spans: Vec<FlowSpan>,
    /// Flight-recorder window frozen by the first conservation-ledger
    /// violation (earliest trip wins across merges).
    pub frozen: Option<Anomaly>,
}

impl NetScopeSnapshot {
    /// Merge another cell's snapshot into this one. Commutative and
    /// associative: byte-identical merged output at any worker count.
    ///
    /// # Panics
    /// Panics if both snapshots name drop causes and the names differ
    /// (snapshots must come from the same build).
    pub fn merge(&mut self, other: &NetScopeSnapshot) {
        self.cells_merged += other.cells_merged;
        if self.drop_causes.is_empty() {
            self.drop_causes = other.drop_causes.clone();
        } else if !other.drop_causes.is_empty() {
            assert_eq!(
                self.drop_causes, other.drop_causes,
                "NetScopeSnapshot::merge: drop-cause registries differ"
            );
        }
        if self.nodes.len() < other.nodes.len() {
            self.nodes
                .resize(other.nodes.len(), NodeCounters::default());
        }
        for (n, on) in self.nodes.iter_mut().zip(&other.nodes) {
            n.add(on);
        }
        // Concatenate + canonical sort = multiset union: the result
        // depends only on the union of entries, never on merge order.
        self.forensics.extend(other.forensics.iter().cloned());
        self.forensics
            .sort_unstable_by(ForensicEntry::cmp_canonical);
        self.spans.extend(other.spans.iter().copied());
        self.spans.sort_unstable_by(FlowSpan::cmp_canonical);
        // Earliest frozen window wins; ties break on reason then size
        // so the choice is total (merge-order independent).
        let other_wins = match (&self.frozen, &other.frozen) {
            (_, None) => false,
            (None, Some(_)) => true,
            (Some(a), Some(b)) => {
                b.t.total_cmp(&a.t)
                    .then(b.reason.cmp(&a.reason))
                    .then(b.events.len().cmp(&a.events.len()))
                    .is_lt()
            }
        };
        if other_wins {
            self.frozen = other.frozen.clone();
        }
    }

    /// Serialize as a `dra-topo-telemetry/v2` JSON document.
    pub fn to_json_string(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"format\":");
        jsonw::str(&mut out, NET_SNAPSHOT_FORMAT);
        out.push_str(",\"cells_merged\":");
        jsonw::uint(&mut out, self.cells_merged);
        out.push_str(",\"n_nodes\":");
        jsonw::uint(&mut out, self.nodes.len() as u64);
        out.push_str(",\"drop_causes\":[");
        for (i, name) in self.drop_causes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            jsonw::str(&mut out, name);
        }
        out.push_str("],\"nodes\":[");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"transits\":");
            jsonw::uint(&mut out, n.transits);
            out.push_str(",\"covered\":");
            jsonw::uint(&mut out, n.covered);
            out.push_str(",\"forwards\":");
            jsonw::uint(&mut out, n.forwards);
            out.push_str(",\"delivered\":");
            jsonw::uint(&mut out, n.delivered);
            out.push_str(",\"actions\":");
            jsonw::uint(&mut out, n.actions);
            out.push_str(",\"drops\":[");
            for (j, d) in n.drops.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                jsonw::uint(&mut out, *d);
            }
            out.push_str("]}");
        }
        out.push_str("],\"forensics\":[");
        for (i, e) in self.forensics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"t\":");
            jsonw::num(&mut out, e.t);
            out.push_str(",\"kind\":");
            jsonw::str(&mut out, e.kind.name());
            match e.kind {
                ForensicKind::Action => {
                    out.push_str(",\"label\":");
                    jsonw::str(&mut out, &e.label);
                    out.push_str(",\"drops_at\":[");
                    for (j, d) in e.drops_at.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        jsonw::uint(&mut out, *d);
                    }
                    out.push(']');
                }
                ForensicKind::FlowDown => {
                    out.push_str(",\"flow\":");
                    jsonw::uint(&mut out, e.flow as u64);
                    out.push_str(",\"cause\":");
                    let idx = e.cause as usize;
                    if idx < self.drop_causes.len() {
                        jsonw::str(&mut out, self.drop_causes[idx]);
                    } else {
                        jsonw::uint(&mut out, e.cause as u64);
                    }
                }
                ForensicKind::FlowUp => {
                    out.push_str(",\"flow\":");
                    jsonw::uint(&mut out, e.flow as u64);
                }
            }
            out.push('}');
        }
        out.push_str("],\"spans\":{\"total\":");
        jsonw::uint(&mut out, self.spans.len() as u64);
        out.push_str(",\"truncated\":");
        out.push_str(if self.spans.len() > SPANS_IN_JSON {
            "true"
        } else {
            "false"
        });
        out.push_str(",\"items\":[");
        for (i, s) in self.spans.iter().take(SPANS_IN_JSON).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"packet\":");
            jsonw::uint(&mut out, s.packet);
            out.push_str(",\"flow\":");
            jsonw::uint(&mut out, s.flow as u64);
            out.push_str(",\"node\":");
            jsonw::uint(&mut out, s.node as u64);
            out.push_str(",\"t0\":");
            jsonw::num(&mut out, s.t0);
            out.push_str(",\"t1\":");
            jsonw::num(&mut out, s.t1);
            out.push_str(",\"kind\":");
            jsonw::str(&mut out, s.kind.name());
            out.push_str(",\"aux\":");
            jsonw::uint(&mut out, s.aux as u64);
            out.push('}');
        }
        out.push_str("]},\"frozen\":");
        match &self.frozen {
            None => out.push_str("null"),
            Some(a) => write_anomaly(&mut out, a),
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(packet: u64, node: u32, t0: f64) -> FlowSpan {
        FlowSpan {
            packet,
            flow: 1,
            node,
            t0,
            t1: t0 + 1e-6,
            kind: SpanKind::Transit,
            aux: 0,
        }
    }

    fn entry(t: f64, flow: u32) -> ForensicEntry {
        ForensicEntry {
            t,
            kind: ForensicKind::FlowDown,
            flow,
            cause: 2,
            label: String::new(),
            drops_at: [0; NET_DROP_CAUSES],
        }
    }

    fn snap(node: u32, t: f64) -> NetScopeSnapshot {
        let mut nodes = vec![NodeCounters::default(); (node + 1) as usize];
        nodes[node as usize].transits = 10;
        nodes[node as usize].drops[2] = 3;
        NetScopeSnapshot {
            cells_merged: 1,
            drop_causes: vec!["a", "b", "c", "d", "e", "f", "g", "h"],
            nodes,
            forensics: vec![entry(t, node)],
            spans: vec![span(node as u64, node, t)],
            frozen: None,
        }
    }

    #[test]
    fn merge_is_order_independent() {
        let (a, b, c) = (snap(0, 3.0), snap(2, 1.0), snap(1, 2.0));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut right = c.clone();
        right.merge(&a);
        right.merge(&b);
        assert_eq!(left.to_json_string(), right.to_json_string());
        assert_eq!(left.cells_merged, 3);
        assert_eq!(left.nodes.len(), 3);
        // Forensics sorted by time regardless of merge order.
        let ts: Vec<f64> = left.forensics.iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn earliest_frozen_window_wins() {
        let mut a = snap(0, 1.0);
        let mut b = snap(1, 2.0);
        a.frozen = Some(Anomaly {
            reason: "late".into(),
            t: 5.0,
            events: vec![],
        });
        b.frozen = Some(Anomaly {
            reason: "early".into(),
            t: 1.0,
            events: vec![],
        });
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.frozen.as_ref().unwrap().reason, "early");
        assert_eq!(ab.to_json_string(), ba.to_json_string());
    }

    #[test]
    fn json_shape_is_flat_v2() {
        let mut s = snap(0, 1.0);
        s.forensics.push(ForensicEntry {
            t: 0.5,
            kind: ForensicKind::Action,
            flow: u32::MAX,
            cause: u32::MAX,
            label: "sru-kill node3/lc0".into(),
            drops_at: [1, 0, 0, 0, 0, 0, 0, 0],
        });
        s.forensics.sort_unstable_by(ForensicEntry::cmp_canonical);
        let json = s.to_json_string();
        assert!(json
            .starts_with("{\"format\":\"dra-topo-telemetry/v2\",\"cells_merged\":1,\"n_nodes\":1"));
        assert!(json.contains("\"kind\":\"action\""));
        assert!(json.contains("\"label\":\"sru-kill node3/lc0\""));
        assert!(json.contains("\"kind\":\"flow_down\""));
        assert!(json.contains("\"cause\":\"c\""));
        assert!(json.ends_with("\"frozen\":null}"));
        assert!(!json.contains("deterministic") && !json.contains("profile"));
    }
}
