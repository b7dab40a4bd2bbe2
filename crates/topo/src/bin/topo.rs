//! `topo` — run network-of-routers sweeps from the command line.
//!
//! ```text
//! topo [--spec NAME] [--quick] [--workers N] [--seed S]
//!      [--out PATH | --no-out] [--csv] [--dry-run]
//!      [--telemetry-out PATH] [--trace-out PATH]
//! topo --list
//! topo --check PATH
//! ```
//!
//! Artifacts land under `results/topo_<spec>.json` by default and are
//! byte-identical at every worker count.

use dra_campaign::json::Json;
use dra_campaign::report::{print_csv, print_table};
use dra_campaign::sweep::check_file;
use dra_topo::engine::{self, TopoRunOptions};
use dra_topo::registry;
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    spec: String,
    quick: bool,
    workers: Option<usize>,
    seed: Option<u64>,
    out: Option<PathBuf>,
    no_out: bool,
    csv: bool,
    list: bool,
    dry_run: bool,
    check: Option<PathBuf>,
    telemetry_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: topo [--spec NAME] [--quick] [--workers N] [--seed S]\n\
         \x20           [--out PATH | --no-out] [--csv] [--dry-run]\n\
         \x20           [--telemetry-out PATH] [--trace-out PATH]\n\
         \x20      topo --list\n\
         \x20      topo --check PATH\n\
         \n\
         Runs a named topo sweep (default: resilience) and writes a\n\
         dra-topo/v1 JSON artifact to results/topo_<spec>.json.\n\
         \n\
         --workers   cells simulated in parallel (default: one per\n\
         \x20         CPU); artifacts are byte-identical at every value\n\
         --telemetry-out  write the merged dra-topo-telemetry/v2\n\
         \x20            network-scope snapshot (per-router counters,\n\
         \x20            fault forensics, sampled flow spans) to PATH;\n\
         \x20            the artifact stays byte-identical\n\
         --trace-out  write the sampled packets' multi-hop flow trace\n\
         \x20         as Chrome trace_event JSON to PATH (open at\n\
         \x20         https://ui.perfetto.dev)\n\
         --dry-run   print the expanded grid (cells, axes, totals)\n\
         \x20         and exit without simulating\n\
         --check     validate an existing artifact (format, ordering,\n\
         \x20         integer drop census, per-cell packet conservation,\n\
         \x20         no drops but link congestion in healthy cells)"
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        spec: "resilience".into(),
        quick: false,
        workers: None,
        seed: None,
        out: None,
        no_out: false,
        csv: false,
        list: false,
        dry_run: false,
        check: None,
        telemetry_out: None,
        trace_out: None,
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
            "--out" => cli.out = Some(PathBuf::from(value("--out"))),
            "--no-out" => cli.no_out = true,
            "--csv" => cli.csv = true,
            "--list" => cli.list = true,
            "--dry-run" => cli.dry_run = true,
            "--check" => cli.check = Some(PathBuf::from(value("--check"))),
            "--telemetry-out" => cli.telemetry_out = Some(PathBuf::from(value("--telemetry-out"))),
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value("--trace-out"))),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }
    // Contradictory combinations are hard errors, not silent picks.
    if cli.out.is_some() && cli.no_out {
        eprintln!("--out and --no-out conflict");
        usage();
    }
    if cli.list && cli.check.is_some() {
        eprintln!("--list and --check conflict");
        usage();
    }
    if cli.dry_run && (cli.telemetry_out.is_some() || cli.trace_out.is_some()) {
        eprintln!("--dry-run simulates nothing, so --telemetry-out/--trace-out conflict with it");
        usage();
    }
    cli
}

/// Summarize an artifact as table rows.
fn artifact_rows(artifact: &Json) -> Vec<Vec<String>> {
    let get_mean = |c: &Json, key: &str| {
        c.get(key)
            .and_then(|d| d.get("mean"))
            .and_then(Json::as_f64)
    };
    artifact
        .get("cells")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|c| {
            if let Some(err) = c.get("error").and_then(Json::as_str) {
                return vec![
                    c.get("id").and_then(Json::as_str).unwrap_or("?").into(),
                    format!("ERROR: {err}"),
                    String::new(),
                    String::new(),
                    String::new(),
                ];
            }
            vec![
                c.get("id").and_then(Json::as_str).unwrap_or("?").into(),
                format!("{}", c.get("injected").and_then(Json::as_u64).unwrap_or(0)),
                get_mean(c, "delivery_ratio")
                    .map(|v| format!("{v:.6}"))
                    .unwrap_or_default(),
                get_mean(c, "flow_availability")
                    .map(|v| format!("{v:.4}"))
                    .unwrap_or_default(),
                get_mean(c, "latency_s")
                    .map(|v| format!("{:.1}", v * 1e6))
                    .unwrap_or_default(),
            ]
        })
        .collect()
}

fn main() -> ExitCode {
    let cli = parse_cli();

    if cli.list {
        let rows: Vec<Vec<String>> = registry::NAMES
            .iter()
            .map(|n| {
                let spec = registry::spec_by_name(n, false).expect("registered");
                vec![
                    n.to_string(),
                    format!("{} cells", spec.cells.len()),
                    spec.description.clone(),
                ]
            })
            .collect();
        print_table("available topo sweeps", &["name", "size", "summary"], &rows);
        return ExitCode::SUCCESS;
    }

    if let Some(path) = &cli.check {
        return check_file(
            path,
            &[(
                engine::ARTIFACT_FORMAT,
                engine::validate_artifact,
                "error cells",
            )],
        );
    }

    let mut spec = match registry::spec_by_name(&cli.spec, cli.quick) {
        Some(s) => s,
        None => {
            eprintln!("unknown sweep {:?}; try --list", cli.spec);
            return ExitCode::FAILURE;
        }
    };
    if let Some(seed) = cli.seed {
        spec.master_seed = seed;
    }

    if cli.dry_run {
        let rows: Vec<Vec<String>> = spec
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.id.clone(),
                    c.arch.label().into(),
                    c.topology.label(),
                    c.faults.label(),
                    format!("{}", c.flows.n_flows),
                    format!("{}", c.replications),
                    format!("{}", c.seed_group),
                ]
            })
            .collect();
        print_table(
            &format!("sweep {} [{}] — dry run", spec.name, spec.digest()),
            &["id", "arch", "topology", "faults", "flows", "reps", "group"],
            &rows,
        );
        let total_reps: u32 = spec.cells.iter().map(|c| c.replications).sum();
        println!(
            "{} cells, {} total replications, master seed {}; nothing simulated",
            spec.cells.len(),
            total_reps,
            spec.master_seed
        );
        return ExitCode::SUCCESS;
    }

    let out = if cli.no_out {
        None
    } else {
        Some(
            cli.out
                .clone()
                .unwrap_or_else(|| PathBuf::from(format!("results/topo_{}.json", spec.name))),
        )
    };
    let opts = TopoRunOptions {
        workers: cli.workers,
        out,
        quiet: false,
        telemetry_out: cli.telemetry_out.clone(),
        trace_out: cli.trace_out.clone(),
    };
    let outcome = match engine::run(&spec, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("topo sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let artifact = dra_campaign::json::parse(&outcome.artifact_text).expect("validated");
    let headers = ["id", "injected", "delivery", "flow_avail", "latency_us"];
    let rows = artifact_rows(&artifact);
    if cli.csv {
        print_csv(&headers, &rows);
    } else {
        print_table(&format!("topo sweep {}", spec.name), &headers, &rows);
    }
    if let Some(path) = &outcome.path {
        eprintln!("artifact: {}", path.display());
    }
    if outcome.failed > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
