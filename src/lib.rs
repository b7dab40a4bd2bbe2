//! # DRA — Dependable Router Architecture (reproduction)
//!
//! This meta-crate re-exports every subsystem of the reproduction of
//! Mandviwalla & Tzeng, *DRA: A Dependable Architecture for
//! High-Performance Routers* (ICPP 2004), so downstream users can depend
//! on a single crate:
//!
//! * [`linalg`] — dense/sparse linear algebra used by the Markov solvers.
//! * [`markov`] — continuous-time Markov chain construction and solution.
//! * [`des`] — discrete-event simulation kernel, RNG, and statistics.
//! * [`net`] — packets, protocol engines, FIBs, SAR, traffic generators.
//! * [`router`] — the BDR (basic distributed router) baseline simulator.
//! * [`core`] — the DRA architecture itself plus the paper's
//!   dependability and degradation analyses.
//! * [`campaign`] — the declarative, parallel, deterministic
//!   experiment-campaign engine and its JSON artifact pipeline.
//! * [`topo`] — the network-of-routers layer: topologies of
//!   co-simulated BDR/DRA routers, multi-hop flows, and composed
//!   network-reliability sweeps (`dra-topo/v1` artifacts).
//! * [`telemetry`] — the flight recorder, mergeable metrics registry,
//!   and sim-time trace export wired through all of the above, armed
//!   per run and otherwise one relaxed load per hook.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use dra_campaign as campaign;
pub use dra_core as core;
pub use dra_des as des;
pub use dra_linalg as linalg;
pub use dra_markov as markov;
pub use dra_net as net;
pub use dra_router as router;
pub use dra_telemetry as telemetry;
pub use dra_topo as topo;

/// Crate version of the reproduction, for reporting in experiment output.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_nonempty() {
        assert!(!super::VERSION.is_empty());
    }
}
