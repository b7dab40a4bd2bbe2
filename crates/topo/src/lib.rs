//! # dra-topo
//!
//! The network-of-routers simulation layer: composes the paper's
//! per-router dependability results (DRA vs BDR) into **network**
//! reliability, the question the fat-tree/mesh resiliency literature
//! asks one level up.
//!
//! * [`topology`] — fat-tree(k), 2-D mesh, and Barabási–Albert
//!   generators with deterministic port numbering.
//! * [`routes`] — min-hop routes (BFS, lowest-id tie-break) compiled
//!   into one production [`Dir248Fib`](dra_net::fib::Dir248Fib) per
//!   node.
//! * [`link`] — fixed-latency, fluid-FIFO serialization links with
//!   backlog tail drop and whole-cable failures.
//! * [`net`] — the co-simulation model: N
//!   [`RouterHandle`](dra_core::handle::RouterHandle)-wrapped BDR/DRA
//!   routers advanced lazily on one shared DES clock, multi-hop flows,
//!   per-node fault timelines, and composed drop accounting. This is
//!   the only network engine; sweeps parallelize across cells on the
//!   campaign worker pool, not inside one network.
//! * [`stats`] — network metrics: packet conservation, end-to-end
//!   delivery ratio, per-flow availability.
//! * [`seeds`] — the per-node SplitMix64 seed coordinate keeping N
//!   co-simulated routers' randomness pairwise disjoint.
//! * [`spec`] / [`engine`] / [`registry`] — declarative sweeps over
//!   topology × faults × architecture, executed by the campaign
//!   crate's shared sweep runner into byte-reproducible, semantically
//!   checked `dra-topo/v1` artifacts.
//! * [`telemetry`] — network-scope observability: per-router
//!   counters, hop-resolved flow spans with Perfetto export, and the
//!   fault-forensics ledger, exported as a `dra-topo-telemetry/v2`
//!   snapshot that is byte-identical at any worker count.
//!
//! See `examples/network_resilience.rs` and the `topo` CLI
//! (`cargo run --release -p dra-topo --bin topo -- --help`).

#![warn(missing_docs)]

pub mod engine;
pub mod link;
pub mod net;
pub mod registry;
pub mod routes;
pub mod seeds;
pub mod spec;
pub mod stats;
pub mod telemetry;
pub mod topology;

pub use engine::{build_network, run, TopoOutcome, TopoRunOptions};
pub use net::{Flow, NetAction, NetConfig, NetScenario, NetworkSim};
pub use spec::{FlowSpec, TopoCellSpec, TopoFaultSpec, TopoSpec};
pub use stats::{NetDropCause, NetStats};
pub use topology::{Topology, TopologyKind};
