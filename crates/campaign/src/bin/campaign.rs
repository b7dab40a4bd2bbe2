//! `campaign` — run experiment campaigns from the command line.
//!
//! ```text
//! campaign [--spec NAME] [--quick] [--workers N] [--seed S]
//!          [--replications R] [--out PATH] [--cell-budget N]
//!          [--fresh] [--csv] [--list] [--progress]
//!          [--telemetry] [--telemetry-out PATH] [--trace PATH]
//! campaign --check PATH
//! ```
//!
//! Artifacts land under `results/<spec>.json` by default, next to a
//! `.partial.jsonl` checkpoint while a campaign is underway. Re-running
//! the same spec resumes from the checkpoint; `--fresh` discards it.

use dra_campaign::engine::{self, RunOptions};
use dra_campaign::pool::default_workers;
use dra_campaign::rareevent;
use dra_campaign::registry;
use dra_campaign::report::{artifact_table, print_csv, print_table};
use dra_campaign::sweep::{check_file, Grid, GridCell};
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    spec: String,
    quick: bool,
    workers: Option<usize>,
    seed: Option<u64>,
    replications: Option<usize>,
    out: Option<PathBuf>,
    no_out: bool,
    cell_budget: Option<usize>,
    fresh: bool,
    csv: bool,
    list: bool,
    check: Option<PathBuf>,
    dry_run: bool,
    progress: bool,
    telemetry: bool,
    telemetry_out: Option<PathBuf>,
    trace: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: campaign [--spec NAME] [--quick] [--workers N] [--seed S]\n\
         \x20               [--replications R] [--out PATH | --no-out]\n\
         \x20               [--cell-budget N] [--fresh] [--csv] [--progress]\n\
         \x20               [--dry-run]\n\
         \x20               [--telemetry] [--telemetry-out PATH] [--trace PATH]\n\
         \x20      campaign --list\n\
         \x20      campaign --check PATH\n\
         \n\
         Runs a named campaign spec (default: faceoff) and writes a\n\
         versioned JSON artifact to results/<spec>.json. Interrupted\n\
         runs resume from the .partial.jsonl checkpoint automatically.\n\
         \n\
         --dry-run        print the expanded grid (cell count, axes)\n\
         \x20               and exit without simulating\n\
         --progress       heartbeat on stderr (cells done, elapsed, ETA)\n\
         --telemetry      embed a dra-telemetry/v1 section in the artifact\n\
         --telemetry-out  write the merged snapshot to a separate file\n\
         \x20               (artifact stays byte-identical)\n\
         --trace          write a Perfetto-loadable Chrome trace JSON\n\
         (collection runs only when one of the last three is given)"
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        spec: "faceoff".into(),
        quick: false,
        workers: None,
        seed: None,
        replications: None,
        out: None,
        no_out: false,
        cell_budget: None,
        fresh: false,
        csv: false,
        list: false,
        check: None,
        dry_run: false,
        progress: false,
        telemetry: false,
        telemetry_out: None,
        trace: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--spec" => cli.spec = value("--spec"),
            "--quick" => cli.quick = true,
            "--workers" => {
                cli.workers = Some(value("--workers").parse().unwrap_or_else(|_| usage()))
            }
            "--seed" => cli.seed = Some(value("--seed").parse().unwrap_or_else(|_| usage())),
            "--replications" => {
                cli.replications = Some(value("--replications").parse().unwrap_or_else(|_| usage()))
            }
            "--out" => cli.out = Some(PathBuf::from(value("--out"))),
            "--no-out" => cli.no_out = true,
            "--cell-budget" => {
                cli.cell_budget = Some(value("--cell-budget").parse().unwrap_or_else(|_| usage()))
            }
            "--fresh" => cli.fresh = true,
            "--csv" => cli.csv = true,
            "--list" => cli.list = true,
            "--check" => cli.check = Some(PathBuf::from(value("--check"))),
            "--dry-run" => cli.dry_run = true,
            "--progress" => cli.progress = true,
            "--telemetry" => cli.telemetry = true,
            "--telemetry-out" => cli.telemetry_out = Some(PathBuf::from(value("--telemetry-out"))),
            "--trace" => cli.trace = Some(PathBuf::from(value("--trace"))),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }
    cli
}

/// Print the run header and resolve the artifact path (`None` under
/// `--no-out`; `results/<spec>.json` unless `--out` names one).
fn announce<C: GridCell>(spec: &Grid<C>, cli: &Cli) -> Option<PathBuf> {
    eprintln!(
        "campaign {:?}: {} cells, master seed {}, digest {}, {} workers",
        spec.name,
        spec.cells.len(),
        spec.master_seed,
        spec.digest(),
        cli.workers.unwrap_or_else(default_workers)
    );
    if cli.no_out {
        return None;
    }
    let default = || PathBuf::from(format!("results/{}.json", spec.name));
    Some(cli.out.clone().unwrap_or_else(default))
}

/// Drive a rare-event campaign with the subset of CLI knobs that apply
/// to it (`--seed`, `--workers`, `--out`/`--no-out`, `--dry-run`).
fn run_rare_campaign(mut spec: rareevent::RareCampaignSpec, cli: &Cli) -> ExitCode {
    if let Some(seed) = cli.seed {
        spec.master_seed = seed;
    }
    if cli.dry_run {
        let rows: Vec<Vec<String>> = spec
            .cells
            .iter()
            .map(|cell| {
                vec![
                    cell.id.clone(),
                    cell.method.name().into(),
                    format!("{}", cell.n),
                    format!("{}", cell.m),
                    format!("{:.3}", cell.mu),
                    format!("{}", cell.cycles),
                ]
            })
            .collect();
        print_table(
            &format!("campaign {} [{}] — dry run", spec.name, spec.digest()),
            &["id", "method", "n", "m", "mu/h", "cycles"],
            &rows,
        );
        println!(
            "{} cells, master seed {}; nothing simulated",
            spec.cells.len(),
            spec.master_seed
        );
        return ExitCode::SUCCESS;
    }
    let out = announce(&spec, cli);
    let outcome = match rareevent::run(
        &spec,
        &rareevent::RareRunOptions {
            workers: cli.workers,
            out,
            quiet: false,
        },
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("campaign failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    rareevent::print_rare_table(&outcome.artifact);
    if let Some(path) = &outcome.artifact_path {
        eprintln!("artifact: {}", path.display());
    }
    if outcome.failed > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let cli = parse_cli();

    if cli.list {
        let rows: Vec<Vec<String>> = registry::ENTRIES
            .iter()
            .chain(rareevent::RARE_ENTRIES.iter())
            .map(|e| {
                vec![
                    e.name.to_string(),
                    e.summary.split_whitespace().collect::<Vec<_>>().join(" "),
                ]
            })
            .collect();
        print_table("available campaign specs", &["name", "summary"], &rows);
        return ExitCode::SUCCESS;
    }

    if let Some(path) = &cli.check {
        // Dispatch on the artifact's own format field, so one --check
        // flag covers both campaign kinds.
        return check_file(
            path,
            &[
                (
                    rareevent::RARE_ARTIFACT_FORMAT,
                    rareevent::validate_rare_artifact,
                    "CI misses",
                ),
                (
                    engine::ARTIFACT_FORMAT,
                    engine::validate_artifact,
                    "error cells",
                ),
            ],
        );
    }

    let mut spec = match registry::build(&cli.spec, cli.quick) {
        Some(s) => s,
        None => {
            // Not a packet campaign — fall back to the rare-event
            // registry before giving up.
            if let Some(rspec) = rareevent::build(&cli.spec, cli.quick) {
                return run_rare_campaign(rspec, &cli);
            }
            eprintln!("unknown spec {:?}; try --list", cli.spec);
            return ExitCode::FAILURE;
        }
    };
    if let Some(seed) = cli.seed {
        spec.master_seed = seed;
    }
    if let Some(reps) = cli.replications {
        for cell in &mut spec.cells {
            cell.replications = reps.max(1);
        }
    }

    if cli.dry_run {
        let rows: Vec<Vec<String>> = spec
            .cells
            .iter()
            .map(|cell| {
                let scenario = match &cell.scenario {
                    dra_campaign::spec::ScenarioTemplate::Explicit(s) => {
                        format!("explicit ({} actions, {}s)", s.len(), s.horizon())
                    }
                    dra_campaign::spec::ScenarioTemplate::Sampled { horizon_s, .. } => {
                        format!("sampled ({horizon_s}s)")
                    }
                };
                vec![
                    cell.id.clone(),
                    cell.arch.name().into(),
                    format!("{}", cell.config.n_lcs),
                    format!("{:.2}", cell.config.load),
                    scenario,
                    format!("{}", cell.replications),
                    format!("{}", cell.seed_group),
                ]
            })
            .collect();
        print_table(
            &format!("campaign {} [{}] — dry run", spec.name, spec.digest()),
            &["id", "arch", "lcs", "load", "scenario", "reps", "group"],
            &rows,
        );
        let total_reps: usize = spec.cells.iter().map(|c| c.replications).sum();
        println!(
            "{} cells, {} total replications, master seed {}; nothing simulated",
            spec.cells.len(),
            total_reps,
            spec.master_seed
        );
        return ExitCode::SUCCESS;
    }

    let out = announce(&spec, &cli);
    let opts = RunOptions {
        workers: cli.workers,
        out,
        cell_budget: cli.cell_budget,
        fresh: cli.fresh,
        quiet: false,
        progress: cli.progress,
        telemetry: cli.telemetry,
        telemetry_out: cli.telemetry_out.clone(),
        trace_out: cli.trace.clone(),
    };

    let outcome = match engine::run(&spec, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("campaign failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!(
        "completed {} cells ({} resumed from checkpoint, {} failed), {} remaining",
        outcome.completed, outcome.resumed, outcome.failed, outcome.remaining
    );
    if outcome.remaining > 0 {
        eprintln!("cell budget exhausted; re-run to resume");
        return ExitCode::SUCCESS;
    }

    let artifact = outcome.artifact.expect("complete run has an artifact");
    let (headers, rows) = artifact_table(&artifact);
    if cli.csv {
        print_csv(&headers, &rows);
    } else {
        print_table(&format!("campaign {}", spec.name), &headers, &rows);
    }
    if let Some(path) = &outcome.artifact_path {
        eprintln!("artifact: {}", path.display());
    }
    if outcome.failed > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
