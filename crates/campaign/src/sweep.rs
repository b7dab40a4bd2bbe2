//! The one sweep runner every campaign kind shares.
//!
//! The packet campaign ([`crate::engine`]), the rare-event campaign
//! ([`crate::rareevent`]) and the network sweeps of `dra-topo` have one
//! shape: a named [`Grid`] of cells under one master seed, run cell by
//! cell on the [`WorkerPool`] and assembled in cell-index order into a
//! `{format, digest, spec, cells}` document. This module owns that
//! shape; each kind keeps only its cell body, its per-cell checks, its
//! tables and its telemetry merge.
//!
//! * [`Grid`] — the spec envelope: validation, canonical manifest and
//!   the FNV-1a digest stamped into artifacts and checkpoints. A cell
//!   type supplies its id, its own checks and its manifest
//!   ([`GridCell`]).
//! * [`run`] — dispatch on the pool, a panicking cell recorded as an
//!   `{cell, id, error}` record at its own index, and (campaigns only)
//!   resume from the cells an interrupted invocation checkpointed.
//! * [`finish`] — the envelope, the kind's checker run on it, and the
//!   atomic write.
//! * [`check_artifact`] — the envelope half of every `--check`; the
//!   kind passes a closure for each non-error cell.
//!
//! Determinism: cells compute in any order on any number of workers
//! and are assembled sorted by index, so the artifact is a pure
//! function of the grid.

use crate::json::{parse, Json};
use crate::pool::{default_workers, WorkerPool};
use dra_des::stats::Welford;
use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// What a cell type tells the [`Grid`] envelope about itself.
pub trait GridCell {
    /// Unique id within the grid.
    fn id(&self) -> &str;
    /// Panic on a malformed cell; `index` names it in the message.
    fn validate(&self, index: usize);
    /// Canonical JSON description: everything that affects results.
    fn manifest(&self) -> Json;
}

/// A named grid of cells under one master seed: the spec of every
/// sweep kind.
#[derive(Debug, Clone)]
pub struct Grid<C> {
    /// Sweep name (also the default artifact file stem).
    pub name: String,
    /// One-line description for the artifact manifest.
    pub description: String,
    /// Master seed; every RNG stream of the sweep derives from it.
    pub master_seed: u64,
    /// The cells.
    pub cells: Vec<C>,
}

impl<C: GridCell> Grid<C> {
    /// Panic on a malformed grid: no cells, a duplicate id, or a cell
    /// that fails its own checks. [`run`] calls this before any work.
    pub fn validate(&self) {
        assert!(!self.cells.is_empty(), "sweep {:?} has no cells", self.name);
        let mut ids = HashSet::new();
        for (i, cell) in self.cells.iter().enumerate() {
            cell.validate(i);
            assert!(ids.insert(cell.id()), "duplicate cell id {:?}", cell.id());
        }
    }

    /// Canonical JSON manifest: name, seed, and every cell.
    pub fn manifest(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("description", Json::Str(self.description.clone())),
            ("master_seed", Json::Num(self.master_seed as f64)),
            (
                "cells",
                Json::Arr(self.cells.iter().map(GridCell::manifest).collect()),
            ),
        ])
    }

    /// FNV-1a digest of the compact manifest as 16 hex digits. Two
    /// artifacts with equal digests came from equal experiments, and a
    /// resume whose digest differs from its checkpoint's is refused.
    pub fn digest(&self) -> String {
        let text = self.manifest().to_string_compact();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }
}

/// Cells an interrupted earlier invocation already finished, and the
/// checkpoint log this invocation appends each newly finished cell to.
/// Only the packet campaign checkpoints.
#[derive(Debug, Default)]
pub struct Resume {
    /// Finished cell records by index, spliced in verbatim.
    pub done: BTreeMap<usize, Json>,
    /// Stop after this many new cells; `None` runs the rest.
    pub cell_budget: Option<usize>,
    /// Append-only log: one compact cell record per line, flushed as
    /// each cell finishes.
    pub log: Option<fs::File>,
}

/// What [`run`] reports on stderr; neither setting reaches the artifact.
#[derive(Debug, Clone, Copy, Default)]
pub struct Report {
    /// One `cell i (id) done` line per finished cell.
    pub cells: bool,
    /// A heartbeat per finished cell: done count, elapsed, ETA.
    pub progress: bool,
}

/// What one [`run`] did.
#[derive(Debug)]
pub struct Swept<T> {
    /// Every finished cell record (resumed and new) by index; the grid
    /// is complete iff `remaining == 0`.
    pub cells: BTreeMap<usize, Json>,
    /// The kind's side output of every cell this invocation computed
    /// without panicking, in index order.
    pub outputs: Vec<(usize, T)>,
    /// Cells computed by this invocation, panicked ones included.
    pub completed: usize,
    /// Cells taken from [`Resume::done`].
    pub resumed: usize,
    /// Cells still missing (the cell budget ran out).
    pub remaining: usize,
    /// Cells that panicked, recorded as `{cell, id, error}`.
    pub failed: usize,
}

/// Run the cells of `grid` on `workers` threads (`None`: one per CPU).
///
/// `run_cell(i)` returns cell `i`'s record plus a side output the kind
/// folds afterwards (its telemetry). A panic in `run_cell` fails that
/// cell only; its error record lands at its own index.
pub fn run<C, T, F>(
    grid: &Grid<C>,
    workers: Option<usize>,
    report: Report,
    resume: Option<Resume>,
    run_cell: F,
) -> std::io::Result<Swept<T>>
where
    C: GridCell + Sync,
    T: Send,
    F: Fn(usize) -> (Json, T) + Sync,
{
    grid.validate();
    let Resume {
        mut done,
        cell_budget,
        log,
    } = resume.unwrap_or_default();
    let resumed = done.len();
    let mut pending: Vec<usize> = (0..grid.cells.len())
        .filter(|i| !done.contains_key(i))
        .collect();
    let total_pending = pending.len();
    if let Some(budget) = cell_budget {
        pending.truncate(budget);
    }

    let log = log.map(Mutex::new);
    let append = |record: &Json| -> std::io::Result<()> {
        if let Some(f) = &log {
            let mut f = f.lock().expect("checkpoint lock");
            writeln!(f, "{}", record.to_string_compact())?;
            f.flush()?;
        }
        Ok(())
    };
    let heartbeat_done = AtomicUsize::new(0);
    let heartbeat_start = std::time::Instant::now();
    let pool = WorkerPool::new(workers.unwrap_or_else(default_workers));
    let outcomes = pool.try_map(pending.clone(), |&i| {
        let (record, output) = run_cell(i);
        // Checkpoint as each cell finishes, so a kill mid-run loses
        // only the cells in flight.
        append(&record).expect("checkpoint write");
        if report.cells {
            eprintln!("  cell {i} ({}) done", grid.cells[i].id());
        }
        if report.progress {
            let total = pending.len();
            let n = heartbeat_done.fetch_add(1, Ordering::Relaxed) + 1;
            let elapsed = heartbeat_start.elapsed().as_secs_f64();
            let eta = elapsed / n as f64 * (total - n) as f64;
            eprintln!("[campaign] {n}/{total} cells, {elapsed:.1}s elapsed, eta {eta:.1}s");
        }
        (record, output)
    });

    let mut outputs = Vec::new();
    let mut failed = 0;
    for (&i, outcome) in pending.iter().zip(outcomes) {
        match outcome {
            Ok((record, output)) => {
                done.insert(i, record);
                outputs.push((i, output));
            }
            Err(p) => {
                // Key the error by the index the panic carries, not by
                // the result slot, so attribution survives any change
                // to result order.
                failed += 1;
                let i = pending[p.index];
                let record = Json::obj(vec![
                    ("cell", Json::Num(i as f64)),
                    ("id", Json::Str(grid.cells[i].id().to_string())),
                    ("error", Json::Str(p.message)),
                ]);
                append(&record)?;
                done.insert(i, record);
            }
        }
    }
    let remaining = grid.cells.len() - done.len();
    Ok(Swept {
        cells: done,
        outputs,
        completed: total_pending - remaining,
        resumed,
        remaining,
        failed,
    })
}

/// A kind's artifact checker: `Ok((cells, flagged))`, where `flagged`
/// counts error cells plus whatever the kind counts against a cell, or
/// why the document is malformed.
pub type Checker = fn(&str) -> Result<(usize, usize), String>;

/// Assemble the artifact `{format, digest, spec, cells, ..extra}`, run
/// the kind's `check` on it, and write it atomically to `out`. Returns
/// the document and its pretty text.
pub fn finish<C: GridCell>(
    grid: &Grid<C>,
    format: &str,
    cells: BTreeMap<usize, Json>,
    extra: Vec<(&str, Json)>,
    check: Checker,
    out: Option<&Path>,
) -> std::io::Result<(Json, String)> {
    let mut fields = vec![
        ("format", Json::Str(format.into())),
        ("digest", Json::Str(grid.digest())),
        ("spec", grid.manifest()),
        ("cells", Json::Arr(cells.into_values().collect())),
    ];
    fields.extend(extra);
    let doc = Json::obj(fields);
    let text = doc.to_string_pretty();
    check(&text).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("assembled artifact fails its check: {e}"),
        )
    })?;
    if let Some(path) = out {
        write_atomic(path, &text)?;
    }
    Ok((doc, text))
}

/// Check the envelope every sweep artifact shares: `format`, a digest
/// of 16 lowercase hex digits, exactly one cell per spec cell in index
/// order, each with an id. Every non-error cell goes to
/// `check_cell(index, cell, spec_cell)`. Returns the parsed document,
/// the cell count and the error-cell count.
pub fn check_artifact(
    text: &str,
    format: &str,
    mut check_cell: impl FnMut(usize, &Json, &Json) -> Result<(), String>,
) -> Result<(Json, usize, usize), String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    if doc.get("format").and_then(Json::as_str) != Some(format) {
        return Err(format!(
            "format is {:?}, expected {format:?}",
            doc.get("format")
        ));
    }
    doc.get("digest")
        .and_then(Json::as_str)
        .filter(|d| d.len() == 16 && d.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
        .ok_or("missing/malformed digest (want 16 hex digits)")?;
    let spec_cells = doc
        .get("spec")
        .and_then(|s| s.get("cells"))
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
    for (i, (cell, spec_cell)) in cells.iter().zip(spec_cells).enumerate() {
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
        check_cell(i, cell, spec_cell)?;
    }
    let n = cells.len();
    Ok((doc, n, errors))
}

/// `--check PATH`: read the artifact, run the checker of the kind
/// whose format it names (the last kind's when none matches, so that
/// checker reports the mismatch), print the verdict, and fail when the
/// file is unreadable or malformed or the checker flags a cell. Each
/// kind is `(format, checker, what its flagged count counts)`.
pub fn check_file(path: &Path, kinds: &[(&str, Checker, &str)]) -> ExitCode {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let doc = parse(&text).ok();
    let named = doc
        .as_ref()
        .and_then(|d| d.get("format"))
        .and_then(Json::as_str);
    let &(format, checker, flagged) = kinds
        .iter()
        .find(|k| Some(k.0) == named)
        .or(kinds.last())
        .expect("at least one artifact kind");
    match checker(&text) {
        Ok((cells, n)) => {
            println!(
                "{}: valid {format} artifact, {cells} cells, {n} {flagged}",
                path.display()
            );
            if n > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("{}: INVALID artifact: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// `{n, mean, ci95, min, max}` of a Welford accumulator (`{n: 0}` when
/// empty; `ci95` is 0 below two samples).
pub fn welford_json(w: &Welford) -> Json {
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

/// Write `text` to a sibling temp file, sync it, and rename it over
/// `path`, so readers never see a torn file.
pub fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
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

#[cfg(test)]
mod tests {
    use super::*;

    const FORMAT: &str = "sweep-test/v1";

    #[derive(Debug, Clone)]
    struct Toy {
        id: String,
        work: u64,
    }

    impl GridCell for Toy {
        fn id(&self) -> &str {
            &self.id
        }
        fn validate(&self, index: usize) {
            assert!(self.work > 0, "cell {index}: no work");
        }
        fn manifest(&self) -> Json {
            Json::obj(vec![
                ("id", Json::Str(self.id.clone())),
                ("work", Json::Num(self.work as f64)),
            ])
        }
    }

    fn grid(n: u64) -> Grid<Toy> {
        Grid {
            name: "toy".into(),
            description: "runner unit grid".into(),
            master_seed: 5,
            cells: (0..n)
                .map(|i| Toy {
                    id: format!("toy/{i}"),
                    work: 1 + (i * 7919) % 5000,
                })
                .collect(),
        }
    }

    fn check(text: &str) -> Result<(usize, usize), String> {
        check_artifact(text, FORMAT, |_, _, _| Ok(())).map(|(_, n, e)| (n, e))
    }

    /// Run `g` on `workers` threads; cells cost different amounts, so
    /// workers finish out of order, and the cell whose work is `poison`
    /// panics.
    fn artifact(g: &Grid<Toy>, workers: usize, poison: u64) -> (String, Swept<u64>) {
        // Stderr reporting is on for every parallel run: it must not
        // reach the artifact.
        let report = Report {
            cells: workers > 1,
            progress: workers > 1,
        };
        let swept = run(g, Some(workers), report, None, |i| {
            let work = g.cells[i].work;
            assert!(work != poison, "poisoned cell {i}");
            let mut acc = g.master_seed;
            for k in 0..work * 200 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            let record = Json::obj(vec![
                ("cell", Json::Num(i as f64)),
                ("id", Json::Str(g.cells[i].id.clone())),
                ("value", Json::Num((acc >> 11) as f64)),
            ]);
            (record, acc)
        })
        .unwrap();
        let (_, text) = finish(g, FORMAT, swept.cells.clone(), Vec::new(), check, None).unwrap();
        (text, swept)
    }

    #[test]
    fn artifact_is_worker_count_invariant() {
        let g = grid(9);
        let (reference, swept) = artifact(&g, 1, 0);
        assert_eq!((swept.completed, swept.failed, swept.remaining), (9, 0, 0));
        let order: Vec<usize> = swept.outputs.iter().map(|&(i, _)| i).collect();
        assert_eq!(order, (0..9).collect::<Vec<_>>(), "outputs in index order");
        for workers in [2, 4] {
            assert_eq!(artifact(&g, workers, 0).0, reference, "workers = {workers}");
        }
    }

    #[test]
    fn panicking_cell_is_recorded_at_its_own_index() {
        let g = grid(6);
        for workers in [1, 4] {
            let (text, swept) = artifact(&g, workers, g.cells[3].work);
            assert_eq!(
                (swept.failed, swept.outputs.len()),
                (1, 5),
                "workers = {workers}"
            );
            let doc = parse(&text).unwrap();
            let bad = &doc.get("cells").and_then(Json::as_arr).unwrap()[3];
            assert_eq!(bad.get("cell").and_then(Json::as_u64), Some(3));
            assert_eq!(bad.get("id").and_then(Json::as_str), Some("toy/3"));
            let message = bad.get("error").and_then(Json::as_str).unwrap();
            assert!(message.contains("poisoned cell 3"), "{message}");
            assert_eq!(check(&text), Ok((6, 1)));
        }
    }

    #[test]
    fn finish_checks_before_it_writes() {
        let g = grid(2);
        let (text, swept) = artifact(&g, 1, 0);
        let path = std::env::temp_dir().join(format!("dra-sweep-{}.json", std::process::id()));
        let reject: Checker = |_| Err("rejected".into());
        let err = finish(
            &g,
            FORMAT,
            swept.cells.clone(),
            Vec::new(),
            reject,
            Some(&path),
        );
        assert_eq!(err.unwrap_err().kind(), std::io::ErrorKind::InvalidData);
        assert!(!path.exists(), "a rejected artifact must not be written");
        finish(&g, FORMAT, swept.cells, Vec::new(), check, Some(&path)).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), text);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn envelope_rejects_each_malformation() {
        let g = grid(3);
        let (text, mut swept) = artifact(&g, 1, 0);
        assert_eq!(check(&text), Ok((3, 0)));
        // Replace the last occurrence: cell records follow the spec.
        let edit = |from: &str, to: &str| {
            let at = text.rfind(from).expect("present");
            let edited = format!("{}{to}{}", &text[..at], &text[at + from.len()..]);
            check(&edited).unwrap_err()
        };
        assert!(check("not json").is_err());
        assert!(edit(FORMAT, "other/v1").contains("format"));
        let digest = g.digest();
        for bad in ["0123", "0123456789abcdeg", "0123456789ABCDEF"] {
            assert!(edit(&digest, bad).contains("digest"), "{bad}");
        }
        assert!(edit("\"cell\": 1", "\"cell\": 2").contains("out of order"));
        assert_eq!(
            edit("\"id\": \"toy/2\"", "\"name\": \"toy/2\""),
            "cell 2: missing id"
        );
        swept.cells.remove(&1);
        let unchecked: Checker = |_| Ok((0, 0));
        let (_, short) = finish(&g, FORMAT, swept.cells, Vec::new(), unchecked, None).unwrap();
        assert!(check(&short).unwrap_err().contains("spec declares 3"));
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let g = grid(3);
        let d = g.digest();
        assert_eq!((d.len(), g.clone().digest()), (16, d.clone()));
        let mut other = g.clone();
        other.master_seed += 1;
        assert_ne!(d, other.digest(), "seed must change the digest");
        let mut other = g;
        other.cells[2].work += 1;
        assert_ne!(d, other.digest(), "a cell manifest must change the digest");
    }

    #[test]
    #[should_panic(expected = "duplicate cell id")]
    fn duplicate_ids_rejected() {
        let mut g = grid(2);
        g.cells[1].id = g.cells[0].id.clone();
        g.validate();
    }
}
