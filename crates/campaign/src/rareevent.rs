//! Rare-event availability campaigns: grids of
//! [`dra_core::rareevent`] estimator runs with a built-in exact-Markov
//! cross-check per cell.
//!
//! A [`RareCampaignSpec`] is a [`Grid`] like
//! [`crate::spec::CampaignSpec`], run by the same [`crate::sweep`]
//! runner. Cells draw their RNG seed from [`crate::seed::derive_seed`]
//! keyed by cell index, so the `dra-rareevent/v1` artifact is
//! byte-identical for any worker count — including the splitting
//! estimator, whose clone trajectories derive *their* seeds
//! structurally inside the core estimator.
//!
//! What makes this campaign kind different from the packet campaigns:
//! every cell also solves the **exact** component-level Markov model
//! ([`dra_core::rareevent::markov_oracle`]) and records whether the
//! estimate's confidence interval covers the exact answer. The artifact
//! is therefore self-validating: `campaign --check` fails if any cell's
//! CI misses truth, no external baseline needed.

use crate::json::Json;
use crate::report::print_table;
use crate::seed::{derive_seed, Stream};
use crate::sweep::{self, check_artifact, Grid, GridCell, Report};
use dra_core::analysis::nines::{format_nines_interval, nines_interval};
use dra_core::rareevent::{estimate, markov_oracle, RareConfig, RareMethod};
use dra_router::components::FailureRates;
use std::path::PathBuf;

/// The rare-event artifact format identifier.
pub const RARE_ARTIFACT_FORMAT: &str = "dra-rareevent/v1";

/// One grid point: a configuration and the estimator to run on it.
#[derive(Debug, Clone)]
pub struct RareCellSpec {
    /// Unique cell id, e.g. `"failure-biasing/n9m4"`.
    pub id: String,
    /// Total linecards.
    pub n: usize,
    /// Same-protocol linecards.
    pub m: usize,
    /// Component failure rates (per hour) — typically the paper's real
    /// ones, which is the whole point of this campaign kind.
    pub rates: FailureRates,
    /// Repair rate (per hour).
    pub mu: f64,
    /// Regenerative cycles to simulate.
    pub cycles: usize,
    /// Which estimator runs this cell.
    pub method: RareMethod,
}

impl GridCell for RareCellSpec {
    fn id(&self) -> &str {
        &self.id
    }

    fn validate(&self, index: usize) {
        assert!(self.n >= 3, "cell {index}: n < 3");
        assert!(
            (2..=self.n).contains(&self.m),
            "cell {index}: m outside 2..=n"
        );
        assert!(self.mu > 0.0, "cell {index}: non-positive repair rate");
        assert!(self.cycles >= 1, "cell {index}: no cycles");
        if let RareMethod::FailureBiasing { bias } = self.method {
            assert!(
                (0.0..1.0).contains(&bias) && bias > 0.0,
                "cell {index}: bias outside (0,1)"
            );
        }
        if let RareMethod::Splitting { clones } = self.method {
            assert!(clones >= 1, "cell {index}: zero clones");
        }
    }

    fn manifest(&self) -> Json {
        let r = &self.rates;
        let method = match self.method {
            RareMethod::BruteForce => Json::obj(vec![("kind", Json::Str("brute-force".into()))]),
            RareMethod::Splitting { clones } => Json::obj(vec![
                ("kind", Json::Str("splitting".into())),
                ("clones", Json::Num(clones as f64)),
            ]),
            RareMethod::FailureBiasing { bias } => Json::obj(vec![
                ("kind", Json::Str("failure-biasing".into())),
                ("bias", Json::Num(bias)),
            ]),
        };
        Json::obj(vec![
            ("id", Json::Str(self.id.clone())),
            ("n", Json::Num(self.n as f64)),
            ("m", Json::Num(self.m as f64)),
            ("mu_per_h", Json::Num(self.mu)),
            ("cycles", Json::Num(self.cycles as f64)),
            (
                "rates_per_h",
                Json::obj(vec![
                    ("lc", Json::Num(r.lc)),
                    ("pdlu", Json::Num(r.pdlu)),
                    ("pi_units", Json::Num(r.pi_units)),
                    ("bus_controller", Json::Num(r.bus_controller)),
                    ("eib", Json::Num(r.eib)),
                ]),
            ),
            ("method", method),
        ])
    }
}

/// A full rare-event campaign: a [`Grid`] of [`RareCellSpec`]s.
pub type RareCampaignSpec = Grid<RareCellSpec>;

/// Knobs for one rare-engine invocation (none may affect results).
#[derive(Debug, Clone, Default)]
pub struct RareRunOptions {
    /// Worker threads: `None` runs one per CPU, `Some(1)` runs serial.
    pub workers: Option<usize>,
    /// Artifact path; `None` runs in memory.
    pub out: Option<PathBuf>,
    /// Suppress progress lines on stderr.
    pub quiet: bool,
}

/// What one rare-engine invocation produced.
#[derive(Debug)]
pub struct RareOutcome {
    /// The complete artifact.
    pub artifact: Json,
    /// Where it was written (when `out` was set).
    pub artifact_path: Option<PathBuf>,
    /// Cells whose estimator panicked (recorded as error cells).
    pub failed: usize,
}

/// Execute a rare-event campaign. Cells are embarrassingly parallel
/// and fast (minutes at worst), so there is no checkpoint/resume — the
/// artifact is assembled in memory and written atomically.
pub fn run(spec: &RareCampaignSpec, opts: &RareRunOptions) -> std::io::Result<RareOutcome> {
    let report = Report {
        cells: !opts.quiet,
        progress: false,
    };
    let swept = sweep::run(spec, opts.workers, report, None, |i| {
        (run_cell(spec, i), ())
    })?;
    let (artifact, _) = sweep::finish(
        spec,
        RARE_ARTIFACT_FORMAT,
        swept.cells,
        Vec::new(),
        validate_rare_artifact,
        opts.out.as_deref(),
    )?;
    Ok(RareOutcome {
        artifact,
        artifact_path: opts.out.clone(),
        failed: swept.failed,
    })
}

/// `Num` for finite values, `Null` otherwise (a brute-force cell at
/// paper rates legitimately reports an infinite MTTF).
fn fin(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

/// Run one cell: estimator + exact oracle + coverage verdicts.
fn run_cell(spec: &RareCampaignSpec, index: usize) -> Json {
    let cell = &spec.cells[index];
    let seed = derive_seed(spec.master_seed, index as u64, 0, Stream::Simulation);
    let cfg = RareConfig {
        n: cell.n,
        m: cell.m,
        rates: cell.rates,
        mu: cell.mu,
        cycles: cell.cycles,
        seed,
    };
    let est = estimate(&cfg, cell.method);
    let oracle = markov_oracle(cell.n, cell.m, &cell.rates, cell.mu);

    // Coverage verdict: the CI (or the zero-event upper bound) must
    // bracket the exact answer from above, and the lower CI edge must
    // not exceed it. Both are deterministic given the spec, so a
    // `false` here is a reproducible estimator bug, not flake.
    let within_ci = oracle.unavailability <= est.upper_bound()
        && oracle.unavailability >= est.unavailability - est.ci_half;
    // The MTTF verdict only applies when the estimator saw a down
    // event at all; an infinite estimate is "no verdict", not a miss.
    let mttf_within_ci = est
        .mttf_h
        .is_finite()
        .then(|| (oracle.mttf_h - est.mttf_h).abs() <= est.mttf_ci_half);

    let iv = nines_interval(
        est.unavailability,
        est.zero_event_upper.unwrap_or(est.ci_half),
    );
    let mut est_fields = vec![
        ("unavailability", Json::Num(est.unavailability)),
        ("ci95", Json::Num(est.ci_half)),
        ("rel_ci", fin(est.rel_ci())),
        ("nines", Json::Str(format_nines_interval(&iv))),
        ("gamma", Json::Num(est.gamma)),
        ("mean_cycle_h", Json::Num(est.mean_cycle_h)),
        ("mttf_h", fin(est.mttf_h)),
        ("mttf_ci95", fin(est.mttf_ci_half)),
        ("cycles", Json::Num(est.cycles as f64)),
        ("jumps", Json::Num(est.jumps as f64)),
    ];
    if let Some(u) = est.zero_event_upper {
        est_fields.push(("zero_event_upper", Json::Num(u)));
    }

    Json::obj(vec![
        ("cell", Json::Num(index as f64)),
        ("id", Json::Str(cell.id.clone())),
        ("method", Json::Str(cell.method.name().into())),
        ("estimate", Json::obj(est_fields)),
        (
            "markov",
            Json::obj(vec![
                ("states", Json::Num(oracle.states as f64)),
                ("unavailability", Json::Num(oracle.unavailability)),
                ("mttf_h", Json::Num(oracle.mttf_h)),
                ("within_ci", Json::Bool(within_ci)),
                (
                    "mttf_within_ci",
                    mttf_within_ci.map(Json::Bool).unwrap_or(Json::Null),
                ),
            ]),
        ),
    ])
}

/// Structural + statistical validation of a `dra-rareevent/v1`
/// artifact. Returns `(cells, misses)` where `misses` counts cells
/// whose CI failed to cover the exact Markov answer (plus error
/// cells). Used by `campaign --check` and the CI smoke job.
pub fn validate_rare_artifact(text: &str) -> Result<(usize, usize), String> {
    let mut misses = 0;
    let (_, cells, errors) = check_artifact(text, RARE_ARTIFACT_FORMAT, |i, cell, _| {
        let u = cell
            .get("estimate")
            .and_then(|e| e.get("unavailability"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("cell {i}: missing estimate.unavailability"))?;
        if !(0.0..=1.0).contains(&u) {
            return Err(format!("cell {i}: unavailability {u} outside [0,1]"));
        }
        let exact = cell
            .get("markov")
            .and_then(|m| m.get("unavailability"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("cell {i}: missing markov.unavailability"))?;
        if !(0.0..=1.0).contains(&exact) {
            return Err(format!("cell {i}: exact unavailability out of range"));
        }
        match cell.get("markov").and_then(|m| m.get("within_ci")) {
            Some(Json::Bool(true)) => {}
            Some(Json::Bool(false)) => misses += 1,
            _ => return Err(format!("cell {i}: missing markov.within_ci")),
        }
        Ok(())
    })?;
    Ok((cells, errors + misses))
}

/// Registry of built-in rare-event specs (the `--spec` names the
/// `campaign` binary falls back to after [`crate::registry`]).
pub const RARE_ENTRIES: [crate::registry::Entry; 2] = [
    crate::registry::Entry {
        name: "rareevent",
        summary: "splitting vs likelihood-ratio vs brute-force \
                  unavailability estimates at the paper's real rates, \
                  each cell cross-checked against the exact Markov model",
    },
    crate::registry::Entry {
        name: "rareevent-quick",
        summary: "CI reduction of the rareevent grid (2 configs, \
                  smaller cycle budgets)",
    },
];

/// Build a built-in rare-event spec by name. `quick` shrinks the grid
/// (and `"rareevent-quick"` is an alias for `("rareevent", quick)`).
pub fn build(name: &str, quick: bool) -> Option<RareCampaignSpec> {
    match name {
        "rareevent" => Some(rareevent(quick)),
        "rareevent-quick" => Some(rareevent(true)),
        _ => None,
    }
}

/// The rareevent grid: paper configurations × the three estimators at
/// the paper's real (uninflated) failure rates and 3-hour repair.
fn rareevent(quick: bool) -> RareCampaignSpec {
    let configs: &[(usize, usize)] = if quick {
        &[(3, 2), (5, 3)]
    } else {
        &[(3, 2), (5, 3), (9, 4), (16, 8)]
    };
    // Cycle budgets per method, sized so every estimator's CI (or
    // zero-event bound) covers the exact answer with headroom: the
    // biased estimators get live CIs, brute force at these rates sees
    // nothing and must fall back to its rule-of-three bound.
    let (brute, bfb, split) = if quick {
        (20_000, 30_000, 60_000)
    } else {
        (200_000, 200_000, 150_000)
    };
    let methods = [
        (RareMethod::FailureBiasing { bias: 0.5 }, bfb),
        (RareMethod::Splitting { clones: 100 }, split),
        (RareMethod::BruteForce, brute),
    ];
    let mut cells = Vec::new();
    for &(n, m) in configs {
        for (method, cycles) in methods {
            cells.push(RareCellSpec {
                id: format!("{}/n{n}m{m}", method.name()),
                n,
                m,
                rates: FailureRates::PAPER,
                mu: 1.0 / 3.0,
                cycles,
                method,
            });
        }
    }
    RareCampaignSpec {
        name: if quick {
            "rareevent-quick"
        } else {
            "rareevent"
        }
        .into(),
        description: "rare-event unavailability estimators vs the exact \
                      Markov model at the paper's real rates (mu = 1/3)"
            .into(),
        master_seed: 0xDA7A_5EED,
        cells,
    }
}

/// Print the artifact as the shared ASCII table (the rare-event
/// counterpart of [`crate::report::artifact_table`]).
pub fn print_rare_table(artifact: &Json) {
    let cells = artifact.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
    let fmt = |v: Option<&Json>| match v.and_then(Json::as_f64) {
        Some(x) => format!("{x:.3e}"),
        None => "-".into(),
    };
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            if let Some(err) = c.get("error").and_then(Json::as_str) {
                let id = c.get("id").and_then(Json::as_str).unwrap_or("?");
                let mut row = vec![id.to_string(), format!("ERROR: {err}")];
                row.resize(6, String::new());
                return row;
            }
            let est = c.get("estimate");
            let mk = c.get("markov");
            vec![
                c.get("id").and_then(Json::as_str).unwrap_or("?").into(),
                fmt(est.and_then(|e| e.get("unavailability"))),
                fmt(est.and_then(|e| e.get("ci95"))),
                est.and_then(|e| e.get("nines"))
                    .and_then(Json::as_str)
                    .unwrap_or("-")
                    .into(),
                fmt(mk.and_then(|m| m.get("unavailability"))),
                match mk.and_then(|m| m.get("within_ci")) {
                    Some(Json::Bool(true)) => "yes".into(),
                    Some(Json::Bool(false)) => "MISS".into(),
                    _ => "-".into(),
                },
            ]
        })
        .collect();
    print_table(
        "rare-event estimates vs exact Markov",
        &["cell", "U", "ci95", "nines", "exact U", "in CI"],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> RareCampaignSpec {
        // Inflated rates keep the unit tests fast while still
        // exercising every estimator path (including cloning).
        let rates = dra_core::montecarlo::inflated_rates(1000.0);
        let mk = |id: &str, method| RareCellSpec {
            id: id.into(),
            n: 3,
            m: 2,
            rates,
            mu: 1.0 / 3.0,
            cycles: 4_000,
            method,
        };
        RareCampaignSpec {
            name: "t".into(),
            description: "unit".into(),
            master_seed: 11,
            cells: vec![
                mk("bfb", RareMethod::FailureBiasing { bias: 0.5 }),
                mk("split", RareMethod::Splitting { clones: 20 }),
                mk("brute", RareMethod::BruteForce),
            ],
        }
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let spec = tiny_spec();
        let mut other = spec.clone();
        other.cells[0].method = RareMethod::FailureBiasing { bias: 0.7 };
        assert_ne!(
            spec.digest(),
            other.digest(),
            "method knobs must change the digest"
        );
    }

    #[test]
    fn run_produces_valid_artifact_and_cis_cover() {
        let out = run(&tiny_spec(), &RareRunOptions::default()).unwrap();
        assert_eq!(out.failed, 0);
        let text = out.artifact.to_string_pretty();
        let (cells, misses) = validate_rare_artifact(&text).unwrap();
        assert_eq!(cells, 3);
        assert_eq!(misses, 0, "a CI missed the exact answer:\n{text}");
    }

    #[test]
    fn registry_builds_and_validates() {
        for entry in RARE_ENTRIES {
            let spec = build(entry.name, false).expect(entry.name);
            spec.validate();
            assert!(!spec.cells.is_empty());
        }
        assert!(
            build("rareevent", true).unwrap().cells.len()
                < build("rareevent", false).unwrap().cells.len()
        );
        assert!(build("nope", false).is_none());
    }
}
