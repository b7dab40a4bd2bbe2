//! Declarative topo-sweep specs and their canonical manifests.
//!
//! A [`TopoSpec`] is a [`Grid`] of [`TopoCellSpec`]s — architecture ×
//! topology × fault spec × traffic — the same envelope as
//! [`dra_campaign::spec::CampaignSpec`]. The manifest serializes every
//! behavior-relevant field in a fixed order; its FNV-1a digest stamps
//! the artifact, so two artifacts with equal digests came from equal
//! experiments.
//!
//! Determinism contract (same as the campaign layer, one level up):
//! cell results are pure functions of `(master_seed, seed_group,
//! replication, cell parameters)`. Worker count, scheduling order, and
//! resume history cannot change a byte of the artifact. BDR/DRA twin
//! cells share a `seed_group`, giving both architectures identical
//! flow placements, arrival processes, and fault timelines.

use crate::link::LinkConfig;
use crate::topology::TopologyKind;
use dra_campaign::json::Json;
use dra_campaign::sweep::{Grid, GridCell};
use dra_core::handle::ArchKind;

/// Network-level fault model of one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopoFaultSpec {
    /// No faults (calibration baseline).
    None,
    /// At `at_s`, degrade `k` spread-sampled routers: fail the SRU on
    /// every even-indexed linecard (half the ports). BDR loses those
    /// ports; DRA covers them over the EIB — the headline comparison.
    FailRouters {
        /// Number of degraded routers.
        k: u32,
        /// Failure instant, seconds.
        at_s: f64,
    },
    /// At `at_s`, cut `k` spread-sampled cables (both directions).
    FailLinks {
        /// Number of cut links.
        k: u32,
        /// Failure instant, seconds.
        at_s: f64,
    },
    /// Every router runs its own renewal fault process
    /// ([`dra_core::scenario::FaultProcess`], per-component paper
    /// rates, hot-swap repair) sampled on the node's private seed
    /// stream. `delay_scale` maps sampled hours to simulated seconds —
    /// smaller is a harsher effective fault rate.
    Renewal {
        /// Hours → seconds compression factor.
        delay_scale: f64,
        /// Repair time in (pre-scale) hours.
        repair_h: f64,
    },
}

impl TopoFaultSpec {
    /// Short stable label for cell ids.
    pub fn label(&self) -> String {
        match self {
            TopoFaultSpec::None => "healthy".into(),
            TopoFaultSpec::FailRouters { k, .. } => format!("r{k}"),
            TopoFaultSpec::FailLinks { k, .. } => format!("l{k}"),
            TopoFaultSpec::Renewal { delay_scale, .. } => format!("renewal-{delay_scale:e}"),
        }
    }

    fn manifest(&self) -> Json {
        match *self {
            TopoFaultSpec::None => Json::obj(vec![("kind", Json::Str("none".into()))]),
            TopoFaultSpec::FailRouters { k, at_s } => Json::obj(vec![
                ("kind", Json::Str("fail_routers".into())),
                ("k", Json::Num(k as f64)),
                ("at_s", Json::Num(at_s)),
            ]),
            TopoFaultSpec::FailLinks { k, at_s } => Json::obj(vec![
                ("kind", Json::Str("fail_links".into())),
                ("k", Json::Num(k as f64)),
                ("at_s", Json::Num(at_s)),
            ]),
            TopoFaultSpec::Renewal {
                delay_scale,
                repair_h,
            } => Json::obj(vec![
                ("kind", Json::Str("renewal".into())),
                ("delay_scale", Json::Num(delay_scale)),
                ("repair_h", Json::Num(repair_h)),
            ]),
        }
    }
}

/// Traffic of one cell: `n_flows` Poisson flows between distinct
/// host nodes drawn from the cell's seed-group stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    /// Number of concurrent flows.
    pub n_flows: u32,
    /// Per-flow mean packet rate, packets/second.
    pub rate_pps: f64,
    /// End-to-end packet size, bytes.
    pub packet_bytes: u32,
}

/// One grid cell of a topo sweep.
#[derive(Debug, Clone)]
pub struct TopoCellSpec {
    /// Unique human-readable id (e.g. `bdr/mesh-4x4/r2`).
    pub id: String,
    /// Architecture under test.
    pub arch: ArchKind,
    /// Topology to instantiate.
    pub topology: TopologyKind,
    /// Link parameters.
    pub link: LinkConfig,
    /// Traffic.
    pub flows: FlowSpec,
    /// Fault model.
    pub faults: TopoFaultSpec,
    /// Simulated horizon, seconds.
    pub horizon_s: f64,
    /// Injection stops `drain_s` before the horizon so in-flight
    /// packets resolve.
    pub drain_s: f64,
    /// Independent replications (aggregated with Welford).
    pub replications: u32,
    /// Seed-derivation group: cells sharing a group (BDR/DRA twins)
    /// see identical flow placements, arrivals, and fault timelines.
    pub seed_group: u64,
}

impl GridCell for TopoCellSpec {
    fn id(&self) -> &str {
        &self.id
    }

    fn validate(&self, _index: usize) {
        let c = self;
        assert!(c.horizon_s > 0.0 && c.horizon_s.is_finite(), "{}", c.id);
        assert!(
            c.drain_s >= 0.0 && c.drain_s < c.horizon_s,
            "{}: drain must leave an injection window",
            c.id
        );
        assert!(c.replications >= 1, "{}", c.id);
        assert!(c.flows.n_flows >= 1 && c.flows.rate_pps > 0.0, "{}", c.id);
        assert!(c.flows.packet_bytes > 0, "{}", c.id);
        if let TopoFaultSpec::FailRouters { at_s, .. } | TopoFaultSpec::FailLinks { at_s, .. } =
            c.faults
        {
            assert!(
                (0.0..c.horizon_s).contains(&at_s),
                "{}: fault instant outside horizon",
                c.id
            );
        }
        if let TopoFaultSpec::Renewal {
            delay_scale,
            repair_h,
        } = c.faults
        {
            assert!(delay_scale > 0.0 && repair_h > 0.0, "{}", c.id);
        }
    }

    fn manifest(&self) -> Json {
        let t = match self.topology {
            TopologyKind::FatTree { k } => Json::obj(vec![
                ("kind", Json::Str("fat_tree".into())),
                ("k", Json::Num(k as f64)),
            ]),
            TopologyKind::Mesh2D { rows, cols } => Json::obj(vec![
                ("kind", Json::Str("mesh2d".into())),
                ("rows", Json::Num(rows as f64)),
                ("cols", Json::Num(cols as f64)),
            ]),
            TopologyKind::BarabasiAlbert { n, m, seed } => Json::obj(vec![
                ("kind", Json::Str("barabasi_albert".into())),
                ("n", Json::Num(n as f64)),
                ("m", Json::Num(m as f64)),
                ("seed", Json::Num(seed as f64)),
            ]),
        };
        Json::obj(vec![
            ("id", Json::Str(self.id.clone())),
            ("arch", Json::Str(self.arch.label().into())),
            ("topology", t),
            (
                "link",
                Json::obj(vec![
                    ("latency_s", Json::Num(self.link.latency_s)),
                    ("bandwidth_bps", Json::Num(self.link.bandwidth_bps)),
                    ("max_backlog_s", Json::Num(self.link.max_backlog_s)),
                ]),
            ),
            (
                "flows",
                Json::obj(vec![
                    ("n_flows", Json::Num(self.flows.n_flows as f64)),
                    ("rate_pps", Json::Num(self.flows.rate_pps)),
                    ("packet_bytes", Json::Num(self.flows.packet_bytes as f64)),
                ]),
            ),
            ("faults", self.faults.manifest()),
            ("horizon_s", Json::Num(self.horizon_s)),
            ("drain_s", Json::Num(self.drain_s)),
            ("replications", Json::Num(self.replications as f64)),
            ("seed_group", Json::Num(self.seed_group as f64)),
        ])
    }
}

/// A whole topo sweep: a [`Grid`] of [`TopoCellSpec`]s.
pub type TopoSpec = Grid<TopoCellSpec>;

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(id: &str) -> TopoCellSpec {
        TopoCellSpec {
            id: id.into(),
            arch: ArchKind::Bdr,
            topology: TopologyKind::Mesh2D { rows: 3, cols: 3 },
            link: LinkConfig::default(),
            flows: FlowSpec {
                n_flows: 4,
                rate_pps: 1e4,
                packet_bytes: 700,
            },
            faults: TopoFaultSpec::None,
            horizon_s: 1e-2,
            drain_s: 2e-3,
            replications: 1,
            seed_group: 0,
        }
    }

    #[test]
    fn digest_tracks_content() {
        let spec = TopoSpec {
            name: "t".into(),
            description: "d".into(),
            master_seed: 1,
            cells: vec![cell("a")],
        };
        spec.validate();
        let mut other = spec.clone();
        other.cells[0].flows.rate_pps = 2e4;
        assert_ne!(spec.digest(), other.digest(), "digest sees traffic changes");
    }
}
