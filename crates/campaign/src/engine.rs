//! Campaign execution: cells → worker pool → aggregates → artifact.
//!
//! Determinism contract: the artifact produced for a given spec is a
//! pure function of the spec (master seed included). Worker count,
//! scheduling order, resume boundaries, and cell budgets change only
//! *when* cells run, never what they compute:
//!
//! * every replication draws its RNG streams from
//!   [`crate::seed::derive_seed`], not from any shared RNG;
//! * cell results render to JSON as they finish, and the final
//!   artifact sorts them by cell index;
//! * resumed cells are spliced in from the checkpoint verbatim (the
//!   JSON round-trips `f64` exactly), so a resumed artifact is
//!   byte-identical to a fresh one.
//!
//! Crash safety: finished cells append to a `<artifact>.partial.jsonl`
//! checkpoint (stamped with the spec digest); the artifact itself is
//! written to a temp file and atomically renamed, so readers never see
//! a torn artifact and an interrupted campaign resumes by skipping the
//! checkpointed cells.

use crate::json::{parse, Json};
use crate::seed::{derive_seed, Stream};
use crate::spec::{Arch, CampaignSpec, ScenarioTemplate};
use crate::sweep::{self, check_artifact, welford_json, write_atomic, Report, Resume};
use dra_core::scenario::{Scenario, WindowedMetrics};
use dra_core::sim::DraConfig;
use dra_des::stats::Welford;
use dra_router::metrics::{DropCause, RouterMetrics};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The artifact format identifier; bump when the JSON layout changes.
pub const ARTIFACT_FORMAT: &str = "dra-campaign/v1";
/// The checkpoint format identifier.
pub const CHECKPOINT_FORMAT: &str = "dra-campaign-checkpoint/v1";

/// Knobs for one engine invocation (not part of the spec: none of
/// these may affect results).
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker threads: `None` runs one per CPU, `Some(1)` runs fully
    /// serial in the calling thread.
    pub workers: Option<usize>,
    /// Artifact path. `None` runs in memory: no checkpoint, no file.
    pub out: Option<PathBuf>,
    /// Stop after completing this many *new* cells (checkpointing
    /// them); `None` runs the whole grid. Used to bound invocation
    /// time and to test resume.
    pub cell_budget: Option<usize>,
    /// Ignore (and overwrite) any existing checkpoint.
    pub fresh: bool,
    /// Suppress progress lines on stderr.
    pub quiet: bool,
    /// Opt-in heartbeat on stderr as cells complete (done count,
    /// elapsed wall time, ETA). Writes only to stderr, so it cannot
    /// change the artifact.
    pub progress: bool,
    /// Embed the merged `dra-telemetry/v1` snapshot as a `telemetry`
    /// section in the artifact. This and the next two fields are the
    /// only switches that arm collection; with all three unset no hub
    /// is armed and the hooks skip their work.
    pub telemetry: bool,
    /// Write the merged `dra-telemetry/v1` snapshot to this path as a
    /// standalone file, leaving the artifact byte-identical to a run
    /// without telemetry.
    pub telemetry_out: Option<PathBuf>,
    /// Write a Chrome `trace_event` JSON (Perfetto-loadable) of the
    /// sampled packet lifecycles to this path.
    pub trace_out: Option<PathBuf>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            workers: None,
            out: None,
            cell_budget: None,
            fresh: false,
            quiet: true,
            progress: false,
            telemetry: false,
            telemetry_out: None,
            trace_out: None,
        }
    }
}

/// What one engine invocation accomplished.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The complete artifact, present only when every cell finished.
    pub artifact: Option<Json>,
    /// Where the artifact was written (when complete and `out` set).
    pub artifact_path: Option<PathBuf>,
    /// Cells computed by *this* invocation.
    pub completed: usize,
    /// Cells skipped because the checkpoint already had them.
    pub resumed: usize,
    /// Cells still missing (> 0 ⇔ budget exhausted, artifact absent).
    pub remaining: usize,
    /// Cells that failed with a panic (included in the artifact as
    /// error records).
    pub failed: usize,
}

/// Execute a campaign.
pub fn run(spec: &CampaignSpec, opts: &RunOptions) -> std::io::Result<CampaignOutcome> {
    let digest = spec.digest();
    let collect = opts.telemetry || opts.telemetry_out.is_some() || opts.trace_out.is_some();

    // Load checkpointed cells, if any, and open the checkpoint for
    // appending before any work starts.
    let ckpt_path = opts.out.as_ref().map(|p| checkpoint_path(p));
    let mut resume = Resume {
        cell_budget: opts.cell_budget,
        ..Resume::default()
    };
    if let Some(path) = &ckpt_path {
        if opts.fresh {
            let _ = fs::remove_file(path);
        } else {
            resume.done = load_checkpoint(path, &digest, opts.quiet)?;
        }
        if resume.done.len() < spec.cells.len() && opts.cell_budget != Some(0) {
            resume.log = Some(open_checkpoint(
                path,
                &spec.name,
                &digest,
                resume.done.is_empty(),
            )?);
        }
    }

    let want_trace = opts.trace_out.is_some();
    let report = Report {
        cells: !opts.quiet,
        progress: opts.progress,
    };
    let swept = sweep::run(spec, opts.workers, report, Some(resume), |i| {
        // A fresh hub per cell: per-cell snapshots merge in cell-index
        // order afterwards, so worker count and scheduling cannot
        // change the merged section. enable() also discards any state
        // a panicked previous cell left on this worker thread.
        if collect {
            dra_telemetry::enable(dra_telemetry::Config {
                collect_trace: want_trace,
                ..Default::default()
            });
        }
        let cell_json = run_cell(spec, i);
        let mut telemetry = None;
        if collect {
            telemetry =
                dra_telemetry::snapshot().map(|snap| (snap, dra_telemetry::take_trace_events()));
            dra_telemetry::disable();
        }
        (cell_json, telemetry)
    })?;

    if swept.remaining > 0 {
        return Ok(CampaignOutcome {
            artifact: None,
            artifact_path: None,
            completed: swept.completed,
            resumed: swept.resumed,
            remaining: swept.remaining,
            failed: swept.failed,
        });
    }

    // Merged telemetry: fold per-cell snapshots in cell-index order
    // (Snapshot::merge is commutative and associative, so any order
    // gives the same bytes; index order makes that self-evident) and
    // route the result to the requested exporters.
    let mut extra = Vec::new();
    if collect {
        let mut n_merged = 0;
        let mut merged: Option<dra_telemetry::Snapshot> = None;
        let mut trace_events = Vec::new();
        for (snap, trace) in swept.outputs.into_iter().filter_map(|(_, t)| t) {
            n_merged += 1;
            match &mut merged {
                Some(m) => m.merge(&snap),
                None => merged = Some(snap),
            }
            trace_events.extend(trace);
        }
        if let Some(path) = &opts.trace_out {
            write_atomic(path, &dra_telemetry::chrome_trace_json(&trace_events))?;
        }
        let mut section = match merged {
            Some(s) => parse(&s.to_json_string()).expect("telemetry snapshot emits valid JSON"),
            // Nothing ran this invocation (everything resumed): an
            // empty but schema-valid section.
            None => Json::obj(vec![
                ("format", Json::Str(dra_telemetry::SNAPSHOT_FORMAT.into())),
                ("counters", Json::Obj(Vec::new())),
            ]),
        };
        if let Json::Obj(pairs) = &mut section {
            pairs.push(("cells_merged".to_string(), Json::Num(n_merged as f64)));
        }
        if let Some(path) = &opts.telemetry_out {
            write_atomic(path, &section.to_string_pretty())?;
        }
        if opts.telemetry {
            extra.push(("telemetry", section));
        }
    }

    // All cells present: assemble, check, write atomically, then drop
    // the checkpoint.
    let (artifact, _) = sweep::finish(
        spec,
        ARTIFACT_FORMAT,
        swept.cells,
        extra,
        validate_artifact,
        opts.out.as_deref(),
    )?;
    if let Some(path) = &ckpt_path {
        let _ = fs::remove_file(path);
    }
    Ok(CampaignOutcome {
        artifact: Some(artifact),
        artifact_path: opts.out.clone(),
        completed: swept.completed,
        resumed: swept.resumed,
        remaining: 0,
        failed: swept.failed,
    })
}

/// The checkpoint path for an artifact path.
pub fn checkpoint_path(artifact: &Path) -> PathBuf {
    let mut name = artifact.file_name().unwrap_or_default().to_os_string();
    name.push(".partial.jsonl");
    artifact.with_file_name(name)
}

fn load_checkpoint(
    path: &Path,
    digest: &str,
    quiet: bool,
) -> std::io::Result<BTreeMap<usize, Json>> {
    let mut done = BTreeMap::new();
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(done),
        Err(e) => return Err(e),
    };
    let mut lines = text.lines();
    let header = match lines.next().and_then(|l| parse(l).ok()) {
        Some(h) => h,
        None => return Ok(done), // unreadable checkpoint: start over
    };
    let matches = header.get("format").and_then(Json::as_str) == Some(CHECKPOINT_FORMAT)
        && header.get("digest").and_then(Json::as_str) == Some(digest);
    if !matches {
        if !quiet {
            eprintln!(
                "  checkpoint at {} is for a different spec; ignoring",
                path.display()
            );
        }
        return Ok(done);
    }
    for line in lines {
        // A truncated last line (crash mid-write) parses as an error
        // and is simply re-run.
        if let Ok(cell) = parse(line) {
            if let Some(idx) = cell.get("cell").and_then(Json::as_u64) {
                done.insert(idx as usize, cell);
            }
        }
    }
    Ok(done)
}

/// Open the checkpoint for appending; a run that resumes nothing
/// starts a new file under a header stamped with the spec digest.
fn open_checkpoint(
    path: &Path,
    name: &str,
    digest: &str,
    start_over: bool,
) -> std::io::Result<fs::File> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    if !start_over {
        return fs::OpenOptions::new().append(true).open(path);
    }
    let mut f = fs::File::create(path)?;
    let header = Json::obj(vec![
        ("format", Json::Str(CHECKPOINT_FORMAT.into())),
        ("campaign", Json::Str(name.into())),
        ("digest", Json::Str(digest.into())),
    ]);
    writeln!(f, "{}", header.to_string_compact())?;
    f.flush()?;
    Ok(f)
}

/// Run every replication of one cell and reduce to its JSON record.
fn run_cell(spec: &CampaignSpec, index: usize) -> Json {
    let cell = &spec.cells[index];
    let horizon = cell.scenario.horizon_s();
    let n = cell.config.n_lcs;

    let mut delivery = Welford::new();
    let mut latency = Welford::new();
    let mut availability = Welford::new();
    let mut drops = [0u64; 8];
    let mut win_offered = vec![0u64; n];
    let mut win_delivered = vec![0u64; n];
    let (mut eib_packets, mut eib_bytes, mut eib_control, mut eib_collisions) = (0u64, 0, 0, 0);

    for rep in 0..cell.replications {
        let sim_seed = derive_seed(
            spec.master_seed,
            cell.seed_group,
            rep as u64,
            Stream::Simulation,
        );
        let scenario: Scenario = match &cell.scenario {
            ScenarioTemplate::Explicit(s) => s.clone(),
            ScenarioTemplate::Sampled { process, horizon_s } => {
                let fault_seed = derive_seed(
                    spec.master_seed,
                    cell.seed_group,
                    rep as u64,
                    Stream::Faults,
                );
                process.sample(n, *horizon_s, &mut SmallRng::seed_from_u64(fault_seed))
            }
        };
        let (metrics, window): (RouterMetrics, WindowedMetrics) = match cell.arch {
            Arch::Dra => {
                let (model, w) = scenario.run_dra_windowed(
                    DraConfig {
                        router: cell.config.clone(),
                        ..Default::default()
                    },
                    sim_seed,
                    cell.measure_from_s,
                );
                (model.metrics, w)
            }
            Arch::Bdr => {
                let (model, w) =
                    scenario.run_bdr_windowed(cell.config.clone(), sim_seed, cell.measure_from_s);
                (model.metrics, w)
            }
        };

        delivery.push(window.window_byte_delivery_ratio());
        for lc in 0..n {
            win_offered[lc] += window.window_offered_bytes(lc);
            win_delivered[lc] += window.window_delivered_bytes(lc);
        }
        for (slot, cause) in DropCause::ALL.iter().enumerate() {
            drops[slot] += metrics.total_drops(*cause);
        }
        // Packet-weighted mean latency across the router.
        let (mut lat_sum, mut lat_n) = (0.0, 0u64);
        let mut avail_sum = 0.0;
        for lc in &metrics.lcs {
            lat_sum += lc.latency.mean() * lc.latency.count() as f64;
            lat_n += lc.latency.count();
            avail_sum += lc.availability.average(horizon);
        }
        if lat_n > 0 {
            latency.push(lat_sum / lat_n as f64);
        }
        availability.push(avail_sum / n as f64);
        eib_packets += metrics.eib_packets;
        eib_bytes += metrics.eib_bytes;
        eib_control += metrics.eib_control_packets;
        eib_collisions += metrics.eib_collisions;
    }

    let drop_pairs: Vec<(String, Json)> = DropCause::ALL
        .iter()
        .enumerate()
        .map(|(slot, cause)| (cause.to_string(), Json::Num(drops[slot] as f64)))
        .collect();

    Json::obj(vec![
        ("cell", Json::Num(index as f64)),
        ("id", Json::Str(cell.id.clone())),
        ("arch", Json::Str(cell.arch.name().to_string())),
        ("replications", Json::Num(cell.replications as f64)),
        ("delivery", welford_json(&delivery)),
        ("latency_s", welford_json(&latency)),
        ("availability", welford_json(&availability)),
        ("drops", Json::Obj(drop_pairs)),
        (
            "eib",
            Json::obj(vec![
                ("packets", Json::Num(eib_packets as f64)),
                ("bytes", Json::Num(eib_bytes as f64)),
                ("control_packets", Json::Num(eib_control as f64)),
                ("collisions", Json::Num(eib_collisions as f64)),
            ]),
        ),
        (
            "window",
            Json::obj(vec![
                (
                    "offered_bytes",
                    Json::Arr(win_offered.iter().map(|&b| Json::Num(b as f64)).collect()),
                ),
                (
                    "delivered_bytes",
                    Json::Arr(win_delivered.iter().map(|&b| Json::Num(b as f64)).collect()),
                ),
            ]),
        ),
    ])
}

/// Validation of a `dra-campaign/v1` document (used by `--check`,
/// by [`run`] before it writes, and by the CI smoke job): the shared
/// envelope, `delivery.mean` in [0, 1] per cell, and the optional
/// telemetry section. Returns `(cells, error_cells)`.
pub fn validate_artifact(text: &str) -> Result<(usize, usize), String> {
    let (doc, cells, errors) = check_artifact(text, ARTIFACT_FORMAT, |i, cell, _| {
        let mean = cell
            .get("delivery")
            .and_then(|d| d.get("mean"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("cell {i}: missing delivery.mean"))?;
        if !(0.0..=1.0).contains(&mean) {
            return Err(format!("cell {i}: delivery.mean {mean} outside [0,1]"));
        }
        Ok(())
    })?;
    // The telemetry section is optional, but must be well-formed
    // whenever present.
    if let Some(t) = doc.get("telemetry") {
        let fmt = t.get("format").and_then(Json::as_str);
        if fmt != Some("dra-telemetry/v1") {
            return Err(format!(
                "telemetry section format is {fmt:?}, expected \"dra-telemetry/v1\""
            ));
        }
        if !matches!(t.get("counters"), Some(Json::Obj(_))) {
            return Err("telemetry section missing counters object".into());
        }
        t.get("cells_merged")
            .and_then(Json::as_u64)
            .ok_or("telemetry section missing cells_merged")?;
    }
    Ok((cells, errors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CellSpec, ScenarioTemplate};
    use dra_core::scenario::Action;
    use dra_router::bdr::BdrConfig;
    use dra_router::components::ComponentKind;

    fn spec(cells: usize, reps: usize) -> CampaignSpec {
        CampaignSpec {
            name: "unit".into(),
            description: "engine unit-test grid".into(),
            master_seed: 7,
            cells: (0..cells)
                .map(|i| CellSpec {
                    id: format!("dra/cell{i}"),
                    arch: Arch::Dra,
                    config: BdrConfig {
                        n_lcs: 3,
                        load: 0.15,
                        ..BdrConfig::default()
                    },
                    scenario: ScenarioTemplate::Explicit(
                        Scenario::new(1e-3)
                            .at(0.4e-3, Action::FailComponent(0, ComponentKind::Sru)),
                    ),
                    replications: reps,
                    measure_from_s: 0.0,
                    seed_group: i as u64,
                })
                .collect(),
        }
    }

    #[test]
    fn in_memory_run_produces_valid_artifact() {
        let out = run(&spec(2, 2), &RunOptions::default()).unwrap();
        assert_eq!(out.completed, 2);
        assert_eq!(out.remaining, 0);
        let text = out.artifact.unwrap().to_string_pretty();
        let (cells, errors) = validate_artifact(&text).unwrap();
        assert_eq!((cells, errors), (2, 0));
    }

    #[test]
    fn telemetry_section_embeds_and_validates() {
        let spec = spec(2, 1);
        let out = run(
            &spec,
            &RunOptions {
                telemetry: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        let text = out.artifact.unwrap().to_string_pretty();
        validate_artifact(&text).unwrap();
        let doc = parse(&text).unwrap();
        let t = doc.get("telemetry").expect("telemetry section present");
        assert_eq!(
            t.get("format").and_then(Json::as_str),
            Some("dra-telemetry/v1")
        );
        assert_eq!(t.get("cells_merged").and_then(Json::as_u64), Some(2));
        let arrivals = t
            .get("counters")
            .and_then(|c| c.get("router.arrivals"))
            .and_then(Json::as_f64)
            .expect("arrivals counter");
        assert!(arrivals > 0.0, "no arrivals counted");
    }

    #[test]
    fn telemetry_section_independent_of_worker_count() {
        let spec = spec(3, 1);
        let run_with = |workers| {
            run(
                &spec,
                &RunOptions {
                    workers: Some(workers),
                    telemetry: true,
                    ..RunOptions::default()
                },
            )
            .unwrap()
            .artifact
            .unwrap()
            .to_string_pretty()
        };
        assert_eq!(run_with(1), run_with(4));
    }

    #[test]
    fn external_telemetry_leaves_artifact_identical() {
        let spec = spec(2, 1);
        let plain = run(&spec, &RunOptions::default()).unwrap();
        let snap_path =
            std::env::temp_dir().join(format!("dra-telemetry-ext-{}.json", std::process::id()));
        let traced = run(
            &spec,
            &RunOptions {
                telemetry_out: Some(snap_path.clone()),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            plain.artifact.unwrap().to_string_pretty(),
            traced.artifact.unwrap().to_string_pretty(),
            "--telemetry-out must not touch the artifact"
        );
        let snap = fs::read_to_string(&snap_path).expect("snapshot file written");
        let _ = fs::remove_file(&snap_path);
        let doc = parse(&snap).unwrap();
        assert_eq!(
            doc.get("format").and_then(Json::as_str),
            Some("dra-telemetry/v1")
        );
    }

    #[test]
    fn checkpoint_path_is_sibling() {
        let p = checkpoint_path(Path::new("results/faceoff.json"));
        assert_eq!(p, Path::new("results/faceoff.json.partial.jsonl"));
    }
}
