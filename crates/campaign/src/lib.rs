//! # dra-campaign
//!
//! A declarative, parallel, **deterministic** experiment-campaign
//! engine for the DRA reproduction.
//!
//! The repo's experiments (the repro binaries, the examples, ad-hoc
//! sweeps) kept re-growing the same scaffolding: nested parameter
//! loops, hand-rolled seeding, bespoke aggregation, print-only output.
//! This crate replaces that with one pipeline:
//!
//! * [`sweep`] — the one runner every sweep kind shares: the spec
//!   envelope ([`sweep::Grid`]: validation, manifest, digest), pool
//!   dispatch with per-cell panic isolation, artifact assembly with
//!   the kind's checker run before the atomic write, and the envelope
//!   half of every `--check`.
//! * [`spec`] — a [`spec::CampaignSpec`] declares a grid of cells:
//!   architecture × router config × fault scenario × replications.
//!   Scenarios are either explicit [`dra_core::scenario::Scenario`]
//!   timelines or sampled from a [`dra_core::scenario::FaultProcess`].
//! * [`seed`] — every replication's RNG streams derive structurally
//!   from `(master_seed, seed_group, replication, stream)`; results
//!   never depend on thread count or scheduling order.
//! * [`pool`] — the workspace's worker pool (scoped threads, shared
//!   work queue, per-item panic isolation). `dra-bench::parallel_map`
//!   is now a re-export of [`pool::parallel_map`].
//! * [`engine`] — runs cells through [`sweep`], aggregates per-cell stats
//!   ([`dra_des::stats::Welford`] delivery CI, drop-cause breakdown,
//!   EIB counters, windowed per-LC bytes), checkpoints finished cells
//!   to a `.partial.jsonl`, and atomically writes a versioned JSON
//!   artifact. Interrupted campaigns resume by skipping checkpointed
//!   cells — and still produce byte-identical artifacts.
//! * [`registry`] — built-in specs (`faceoff`, `fig8`) with `--quick`
//!   CI reductions.
//! * [`rareevent`] — a second campaign kind: grids of
//!   [`dra_core::rareevent`] estimator runs (importance splitting,
//!   likelihood-ratio failure biasing, brute force) with a per-cell
//!   exact-Markov cross-check, emitted as `dra-rareevent/v1`
//!   artifacts through the same runner.
//! * [`json`] / [`report`] — the hand-rolled JSON layer (the build
//!   environment has no serde) and shared table/CSV printers.
//!
//! The `campaign` binary exposes all of this on the command line; see
//! `campaign --help`.

#![warn(missing_docs)]

pub mod engine;
pub mod json;
pub mod pool;
pub mod rareevent;
pub mod registry;
pub mod report;
pub mod seed;
pub mod spec;
pub mod sweep;

pub use engine::{run, CampaignOutcome, RunOptions};
pub use pool::{parallel_map, WorkerPool};
pub use spec::{Arch, CampaignSpec, CellSpec, ScenarioTemplate};
