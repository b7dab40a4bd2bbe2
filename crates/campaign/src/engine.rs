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
use crate::pool::WorkerPool;
use crate::seed::{derive_seed, Stream};
use crate::spec::{Arch, CampaignSpec, ScenarioTemplate};
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
use std::sync::Mutex;

/// The artifact format identifier; bump when the JSON layout changes.
pub const ARTIFACT_FORMAT: &str = "dra-campaign/v1";
/// The checkpoint format identifier.
pub const CHECKPOINT_FORMAT: &str = "dra-campaign-checkpoint/v1";

/// Knobs for one engine invocation (not part of the spec: none of
/// these may affect results).
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker threads (1 ⇒ fully serial in the calling thread).
    pub workers: usize,
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
            workers: crate::pool::default_workers(),
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
    spec.validate();
    let digest = spec.digest();

    let collect = opts.telemetry || opts.telemetry_out.is_some() || opts.trace_out.is_some();

    // Load checkpointed cells, if any.
    let ckpt_path = opts.out.as_ref().map(|p| checkpoint_path(p));
    let mut done: BTreeMap<u64, Json> = BTreeMap::new();
    if let Some(path) = &ckpt_path {
        if opts.fresh {
            let _ = fs::remove_file(path);
        } else {
            done = load_checkpoint(path, &digest, opts.quiet)?;
        }
    }
    let resumed = done.len();

    let mut pending: Vec<usize> = (0..spec.cells.len())
        .filter(|i| !done.contains_key(&(*i as u64)))
        .collect();
    let total_pending = pending.len();
    if let Some(budget) = opts.cell_budget {
        pending.truncate(budget);
    }

    // Open the checkpoint for appending before any work starts, so a
    // kill mid-run loses at most the in-flight cells.
    let ckpt: Option<Mutex<fs::File>> = match &ckpt_path {
        Some(path) if !pending.is_empty() => {
            if let Some(dir) = path.parent() {
                fs::create_dir_all(dir)?;
            }
            let fresh_file = !path.exists();
            let mut f = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            if fresh_file || done.is_empty() {
                // (Re)stamp the header when starting a new checkpoint.
                if done.is_empty() {
                    f = fs::File::create(path)?;
                }
                let header = Json::obj(vec![
                    ("format", Json::Str(CHECKPOINT_FORMAT.into())),
                    ("campaign", Json::Str(spec.name.clone())),
                    ("digest", Json::Str(digest.clone())),
                ]);
                writeln!(f, "{}", header.to_string_compact())?;
                f.flush()?;
            }
            Some(Mutex::new(f))
        }
        _ => None,
    };

    let pool = WorkerPool::new(opts.workers);
    let quiet = opts.quiet;
    let progress = opts.progress;
    let heartbeat_total = pending.len();
    let heartbeat_done = std::sync::atomic::AtomicUsize::new(0);
    let heartbeat_start = std::time::Instant::now();
    let collected: Mutex<
        Vec<(
            usize,
            dra_telemetry::Snapshot,
            Vec<dra_telemetry::TraceEvent>,
        )>,
    > = Mutex::new(Vec::new());
    let want_trace = opts.trace_out.is_some();
    let outcomes = pool.try_map(pending.clone(), |&i| {
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
        if collect {
            if let Some(snap) = dra_telemetry::snapshot() {
                let trace = dra_telemetry::take_trace_events();
                collected
                    .lock()
                    .expect("telemetry lock")
                    .push((i, snap, trace));
            }
            dra_telemetry::disable();
        }
        if let Some(f) = &ckpt {
            let mut f = f.lock().expect("checkpoint lock");
            writeln!(f, "{}", cell_json.to_string_compact()).expect("checkpoint write");
            f.flush().expect("checkpoint flush");
        }
        if !quiet {
            eprintln!("  cell {i} ({}) done", spec.cells[i].id);
        }
        if progress {
            let done = heartbeat_done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            let elapsed = heartbeat_start.elapsed().as_secs_f64();
            let eta = elapsed / done as f64 * (heartbeat_total - done) as f64;
            eprintln!(
                "[campaign] {done}/{heartbeat_total} cells, \
                 {elapsed:.1}s elapsed, eta {eta:.1}s"
            );
        }
        cell_json
    });

    let mut failed = 0;
    for (idx, outcome) in pending.iter().zip(outcomes) {
        let cell_json = match outcome {
            Ok(j) => j,
            Err(p) => {
                // The whole cell panicked before it could checkpoint;
                // record the failure so the artifact stays complete.
                // Key by the cell index the panic itself carries —
                // `pending[p.index]` — not the zip position, so the
                // attribution holds even if result order ever changes.
                failed += 1;
                debug_assert_eq!(pending[p.index], *idx);
                let j = error_cell(spec, pending[p.index], &p.message);
                if let Some(f) = &ckpt {
                    let mut f = f.lock().expect("checkpoint lock");
                    writeln!(f, "{}", j.to_string_compact())?;
                    f.flush()?;
                }
                j
            }
        };
        done.insert(*idx as u64, cell_json);
    }

    let remaining = spec.cells.len() - done.len();
    if remaining > 0 {
        return Ok(CampaignOutcome {
            artifact: None,
            artifact_path: None,
            completed: total_pending - remaining,
            resumed,
            remaining,
            failed,
        });
    }

    // Merged telemetry: fold per-cell snapshots in cell-index order
    // (Snapshot::merge is commutative and associative, so any order
    // gives the same bytes; sorting makes that self-evident) and
    // route the result to the requested exporters.
    let telemetry_section: Option<Json> = if collect {
        let mut cells_collected = collected.into_inner().expect("telemetry lock");
        cells_collected.sort_by_key(|&(i, _, _)| i);
        let n_merged = cells_collected.len();
        let mut merged: Option<dra_telemetry::Snapshot> = None;
        let mut trace_events = Vec::new();
        for (_, snap, trace) in cells_collected {
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
        Some(section)
    } else {
        None
    };

    // All cells present: assemble, write atomically, drop checkpoint.
    let mut fields = vec![
        ("format", Json::Str(ARTIFACT_FORMAT.into())),
        ("digest", Json::Str(digest)),
        ("spec", spec.manifest()),
        ("cells", Json::Arr(done.into_values().collect())),
    ];
    if opts.telemetry {
        if let Some(section) = telemetry_section {
            fields.push(("telemetry", section));
        }
    }
    let artifact = Json::obj(fields);
    let mut artifact_path = None;
    if let Some(out) = &opts.out {
        write_atomic(out, &artifact.to_string_pretty())?;
        if let Some(path) = &ckpt_path {
            let _ = fs::remove_file(path);
        }
        artifact_path = Some(out.clone());
    }
    Ok(CampaignOutcome {
        artifact: Some(artifact),
        artifact_path,
        completed: total_pending,
        resumed,
        remaining: 0,
        failed,
    })
}

/// The checkpoint path for an artifact path.
pub fn checkpoint_path(artifact: &Path) -> PathBuf {
    let mut name = artifact.file_name().unwrap_or_default().to_os_string();
    name.push(".partial.jsonl");
    artifact.with_file_name(name)
}

fn load_checkpoint(path: &Path, digest: &str, quiet: bool) -> std::io::Result<BTreeMap<u64, Json>> {
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
                done.insert(idx, cell);
            }
        }
    }
    Ok(done)
}

fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

fn error_cell(spec: &CampaignSpec, index: usize, message: &str) -> Json {
    Json::obj(vec![
        ("cell", Json::Num(index as f64)),
        ("id", Json::Str(spec.cells[index].id.clone())),
        ("error", Json::Str(message.to_string())),
    ])
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

fn welford_json(w: &Welford) -> Json {
    if w.count() == 0 {
        return Json::obj(vec![("n", Json::Num(0.0))]);
    }
    let ci = if w.count() >= 2 {
        w.ci_half_width(1.96)
    } else {
        0.0
    };
    Json::obj(vec![
        ("n", Json::Num(w.count() as f64)),
        ("mean", Json::Num(w.mean())),
        ("ci95", Json::Num(ci)),
        ("min", Json::Num(w.min())),
        ("max", Json::Num(w.max())),
    ])
}

/// Structural validation of an artifact document (used by `--check`
/// and the CI smoke job). Returns `(cells, error_cells)`.
pub fn validate_artifact(text: &str) -> Result<(usize, usize), String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    if doc.get("format").and_then(Json::as_str) != Some(ARTIFACT_FORMAT) {
        return Err(format!(
            "format is {:?}, expected {ARTIFACT_FORMAT:?}",
            doc.get("format")
        ));
    }
    doc.get("digest")
        .and_then(Json::as_str)
        .filter(|d| d.len() == 16)
        .ok_or("missing/malformed digest")?;
    let spec = doc.get("spec").ok_or("missing spec manifest")?;
    let spec_cells = spec
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("spec manifest has no cells")?;
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("missing cells array")?;
    if cells.len() != spec_cells.len() {
        return Err(format!(
            "artifact has {} cells but the spec declares {}",
            cells.len(),
            spec_cells.len()
        ));
    }
    let mut errors = 0;
    for (i, cell) in cells.iter().enumerate() {
        let idx = cell
            .get("cell")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("cell {i}: missing index"))?;
        if idx != i as u64 {
            return Err(format!("cell {i}: out of order (index {idx})"));
        }
        cell.get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("cell {i}: missing id"))?;
        if cell.get("error").is_some() {
            errors += 1;
            continue;
        }
        let mean = cell
            .get("delivery")
            .and_then(|d| d.get("mean"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("cell {i}: missing delivery.mean"))?;
        if !(0.0..=1.0).contains(&mean) {
            return Err(format!("cell {i}: delivery.mean {mean} outside [0,1]"));
        }
    }
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
    Ok((cells.len(), errors))
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
    fn artifact_independent_of_worker_count() {
        let spec = spec(3, 2);
        let one = run(
            &spec,
            &RunOptions {
                workers: 1,
                ..RunOptions::default()
            },
        )
        .unwrap();
        let many = run(
            &spec,
            &RunOptions {
                workers: 4,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            one.artifact.unwrap().to_string_pretty(),
            many.artifact.unwrap().to_string_pretty()
        );
    }

    #[test]
    fn progress_heartbeat_does_not_change_artifact() {
        let spec = spec(3, 2);
        let plain = run(&spec, &RunOptions::default()).unwrap();
        let noisy = run(
            &spec,
            &RunOptions {
                progress: true,
                workers: 3,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            plain.artifact.unwrap().to_string_pretty(),
            noisy.artifact.unwrap().to_string_pretty()
        );
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
                    workers,
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

    #[test]
    fn validate_artifact_rejects_garbage() {
        assert!(validate_artifact("not json").is_err());
        assert!(validate_artifact("{\"format\":\"something-else\"}").is_err());
    }
}
