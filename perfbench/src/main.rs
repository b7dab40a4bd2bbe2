//! `perfbench`: the end-to-end benchmark of the router and
//! network-of-routers simulators.
//!
//! ```text
//! perfbench --workload <router_faceoff|net_scale|net_churn|all>
//!           [--seed N] [--seconds S] [--trace 0|1] [--tiny]
//! ```
//!
//! Each repetition ("pass") of a workload runs in a fresh child process
//! of this binary, so every pass starts with an empty heap and its peak
//! RSS and page faults are its own, as they are for a user running one
//! sweep. Passes repeat until `--seconds` have elapsed; the reported
//! figures are medians over passes. With `--trace 1` a separate traced
//! pass follows the timed ones and the per-layer metrics are printed
//! instead of the end-to-end ones. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod pass;
mod sys;
mod trace;
mod workloads;

use dra_campaign::json::{parse, Json};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Digest, Size, Workload};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning: a claimed gain must also hold on it.
const HELD_OUT_SEED: u64 = 7919;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("run_s", "s"),
    ("packets_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run.
const PER_LAYER: [(&str, &str); 47] = [
    ("des.events", "count"),
    ("des.events_per_s", "1/s"),
    ("des.pending_mean", "count"),
    ("des.replay_s", "s"),
    ("router.fabric.slots", "count"),
    ("router.fabric.cells", "count"),
    ("router.fabric.replay_s", "s"),
    ("net.fib.lookups", "count"),
    ("net.fib.lookup_replay_s", "s"),
    ("net.fib.compile_s", "s"),
    ("net.fib.memory_mb", "MB"),
    ("net.sar.cells", "count"),
    ("net.sar.replay_s", "s"),
    ("core.eib.packets", "count"),
    ("core.eib.control_packets", "count"),
    ("core.eib.collisions", "count"),
    ("core.coverage.covered_packets", "count"),
    ("core.coverage.ratio", "ratio"),
    ("core.coverage.replay_s", "s"),
    ("topo.topology_build_s", "s"),
    ("topo.routes_derive_s", "s"),
    ("topo.router_build_s", "s"),
    ("topo.teardown_s", "s"),
    ("topo.setup_us_per_router", "us"),
    ("topo.rss_per_router_kb", "KB"),
    ("topo.rss_after_first_cell_mb", "MB"),
    ("topo.rss_after_cell_mb", "MB"),
    ("topo.setup_minflt", "count"),
    ("topo.setup_user_s", "s"),
    ("topo.setup_sys_s", "s"),
    ("topo.hops", "count"),
    ("topo.hops_per_s", "1/s"),
    ("topo.link.replay_s", "s"),
    ("topo.drops.ingress_down", "count"),
    ("topo.drops.egress_down", "count"),
    ("topo.drops.fabric_down", "count"),
    ("topo.drops.no_route", "count"),
    ("topo.drops.link_down", "count"),
    ("topo.drops.link_congested", "count"),
    ("topo.drops.coverage_saturated", "count"),
    ("topo.drops.ttl_exceeded", "count"),
    ("residual_s", "s"),
    ("setup_residual_s", "s"),
    ("trace.overhead_s", "s"),
    ("host.user_s", "s"),
    ("host.sys_s", "s"),
    ("host.minflt", "count"),
];

/// Fewest timed passes a run makes, however long they take.
const MIN_PASSES: usize = 3;
/// Most timed passes a run makes, however short they are.
const MAX_PASSES: usize = 64;
/// No pass starts once the run has used this many seconds, so a run
/// ends well inside three minutes even on a slow host.
const HARD_CAP_S: f64 = 120.0;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    /// Run one pass of this replication and print its record.
    pass: Option<u32>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        pass: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(&v).ok_or(format!("unknown workload `{v}`"))?]
                };
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}` (0 or 1)")),
                };
            }
            "--tiny" => args.size = Size::Tiny,
            "--pass" => {
                let v = value()?;
                args.pass = Some(v.parse().map_err(|_| format!("bad --pass `{v}`"))?);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    if args.pass.is_some() && args.workloads.len() != 1 {
        return Err("--pass runs exactly one workload".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <router_faceoff|net_scale|net_churn|all> \
                 [--seed N] [--seconds S] [--trace 0|1] [--tiny]"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(rep) = args.pass {
        println!(
            "{}",
            pass::run(args.workloads[0], args.size, args.seed, rep, args.trace)
        );
        return ExitCode::SUCCESS;
    }
    print_host();
    let mut results = Vec::new();
    for &w in &args.workloads {
        match measure(w, &args) {
            Ok(r) => results.push((w, r)),
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        }
    }
    let prefix = results.len() > 1;
    let mut metrics = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut all_finite = true;
    for (w, r) in &results {
        attempted += r.attempted;
        failed += r.failed;
        for &(name, unit, v) in &r.metrics {
            let name = if prefix {
                format!("{}.{name}", w.name())
            } else {
                name.to_string()
            };
            // Only failed cells can leave a metric without a value
            // (e.g. no run time to divide by); JSON has no NaN, so the
            // metric reads 0 and the result is marked incorrect.
            let v = if v.is_finite() {
                v
            } else {
                println!("failed metric {name} has no value");
                all_finite = false;
                0.0
            };
            metrics.push((
                name,
                Json::obj(vec![
                    ("value", Json::Num(v)),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            ));
        }
    }
    let line = Json::obj(vec![
        ("correct", Json::Bool(failed == 0 && all_finite)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.to_string_compact());
    ExitCode::SUCCESS
}

fn print_host() {
    let par = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "host cpu=\"{}\" nproc={} available_parallelism={par}",
        sys::cpu_model(),
        sys::nproc()
    );
    println!("seeds default={DEFAULT_SEED} held_out={HELD_OUT_SEED}");
}

/// A workload's figures: `(name, unit, value)` rows plus cell counts.
struct Measured {
    metrics: Vec<(&'static str, &'static str, f64)>,
    attempted: u64,
    failed: u64,
}

/// One pass as reported by its child process.
struct Pass {
    doc: Json,
}

impl Pass {
    fn num(&self, key: &str) -> f64 {
        self.doc.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
    }

    fn cells(&self) -> &[Json] {
        self.doc.get("cells").and_then(Json::as_arr).unwrap_or(&[])
    }

    /// Sum of a per-cell field over the pass's cells.
    fn cell_sum(&self, key: &str) -> f64 {
        self.cells()
            .iter()
            .filter_map(|c| c.get(key).and_then(Json::as_f64))
            .sum()
    }

    fn table(&self, key: &str, name: &str) -> f64 {
        self.doc
            .get(key)
            .and_then(|t| t.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }
}

fn spawn_pass(w: Workload, args: &Args, rep: u32, traced: bool) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--pass", &rep.to_string(), "--workload", w.name()]);
    cmd.args(["--seed", &args.seed.to_string()]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    if args.size == Size::Tiny {
        cmd.arg("--tiny");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a pass: {e}"))?;
    if !out.status.success() {
        return Err(format!("a pass exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    let doc = parse(last).map_err(|e| format!("unreadable pass record: {e}"))?;
    Ok(Pass { doc })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(passes.iter().map(f).collect())
}

/// Timed passes for `budget_s` seconds, at least `MIN_PASSES`.
///
/// Untraced runs give each pass its own replication, so the medians are
/// taken over several realizations of the seed's workload, then repeat
/// replication 0 once to check that it simulates identically. Traced
/// runs repeat replication 0 throughout, so the attribution compares
/// like with like.
fn timed_passes(w: Workload, args: &Args, budget_s: f64) -> Result<Vec<Pass>, String> {
    let t0 = Instant::now();
    let mut passes = Vec::new();
    loop {
        let before = t0.elapsed().as_secs_f64();
        let rep = if args.trace { 0 } else { passes.len() as u32 };
        passes.push(spawn_pass(w, args, rep, false)?);
        let now = t0.elapsed().as_secs_f64();
        let last = now - before;
        let enough = passes.len() + 1 >= MIN_PASSES && now >= budget_s;
        if enough || passes.len() + 1 >= MAX_PASSES || now + 2.0 * last > HARD_CAP_S {
            break;
        }
    }
    if !args.trace {
        passes.push(spawn_pass(w, args, 0, false)?);
    }
    Ok(passes)
}

/// Cells that failed: errors, broken conservation, or simulated
/// statistics that differ from the first pass of the same replication.
fn failures(passes: &[&Pass]) -> (u64, u64, Vec<String>) {
    let (mut attempted, mut failed) = (0, 0);
    let mut why = Vec::new();
    for p in passes {
        let rep = p.num("rep");
        let reference = passes
            .iter()
            .find(|q| q.num("rep") == rep)
            .expect("a pass is its own reference")
            .cells();
        for (i, c) in p.cells().iter().enumerate() {
            attempted += 1;
            let id = c.get("id").and_then(Json::as_str).unwrap_or("?");
            let problem = if let Some(e) = c.get("error").and_then(Json::as_str) {
                Some(e.to_string())
            } else if c.get("conserved") != Some(&Json::Bool(true)) {
                Some("packet conservation violated".into())
            } else if c.get("digest") != reference.get(i).and_then(|r| r.get("digest")) {
                Some("simulated statistics differ on a repeat".into())
            } else {
                None
            };
            if let Some(p) = problem {
                failed += 1;
                why.push(format!("{id} (replication {rep}): {p}"));
            }
        }
    }
    (attempted, failed, why)
}

fn measure(w: Workload, args: &Args) -> Result<Measured, String> {
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let passes = timed_passes(w, args, budget)?;
    let traced = if args.trace {
        Some(spawn_pass(w, args, 0, true)?)
    } else {
        None
    };
    let mut all: Vec<&Pass> = passes.iter().collect();
    all.extend(traced.as_ref());
    let (attempted, failed, why) = failures(&all);

    let first = &passes[0];
    println!(
        "workload {} seed={} passes={}",
        w.name(),
        args.seed,
        passes.len()
    );
    let mut digest = Digest::new();
    for c in first.cells() {
        let d = c.get("digest").and_then(Json::as_str).unwrap_or("error");
        let drops = match c.get("drops") {
            Some(Json::Obj(by_cause)) => by_cause
                .iter()
                .filter_map(|(n, v)| v.as_u64().filter(|&v| v > 0).map(|v| format!(" {n}={v}")))
                .collect::<String>(),
            _ => String::new(),
        };
        println!(
            "cell {} setup_s={:.4} run_s={:.4} packets={} delivered={}{drops} rss_after_mb={:.1} \
             digest={d}",
            c.get("id").and_then(Json::as_str).unwrap_or("?"),
            c.get("setup_s").and_then(Json::as_f64).unwrap_or(f64::NAN),
            c.get("run_s").and_then(Json::as_f64).unwrap_or(f64::NAN),
            c.get("packets").and_then(Json::as_u64).unwrap_or(0),
            c.get("delivered").and_then(Json::as_u64).unwrap_or(0),
            c.get("rss_after_mb")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
        );
        digest.word(u64::from_str_radix(d, 16).unwrap_or(0));
    }
    println!("sim_digest {} {:016x}", w.name(), digest.value());
    for reason in &why {
        println!("failed {reason}");
    }

    let series = |f: &dyn Fn(&Pass) -> f64| {
        let v: Vec<String> = passes.iter().map(|p| format!("{:.4}", f(p))).collect();
        v.join(",")
    };
    println!(
        "passes wall_s=[{}] setup_s=[{}] run_s=[{}]",
        series(&|p| p.num("wall_s")),
        series(&|p| p.cell_sum("setup_s")),
        series(&|p| p.cell_sum("run_s"))
    );
    let wall = median_of(&passes, |p| p.num("wall_s"));
    let setup = median_of(&passes, |p| p.cell_sum("setup_s"));
    let run = median_of(&passes, |p| p.cell_sum("run_s"));
    let e2e = [
        wall,
        setup,
        run,
        median_of(&passes, |p| p.cell_sum("packets") / p.cell_sum("run_s")),
        // The high-water mark over the whole workload: every pass.
        passes
            .iter()
            .map(|p| p.num("maxrss_mb"))
            .fold(0.0, f64::max),
    ];
    println!(
        "metric cell_error_rate {} ratio",
        failed as f64 / attempted.max(1) as f64
    );
    let metrics = match traced {
        None => END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(n, u), v)| (n, u, v))
            .collect(),
        Some(t) => per_layer(w, args, &passes, &t, setup, run)?,
    };
    for (n, u, v) in &metrics {
        println!("metric {n} {v} {u}");
    }
    Ok(Measured {
        metrics,
        attempted,
        failed,
    })
}

fn per_layer(
    w: Workload,
    args: &Args,
    passes: &[Pass],
    t: &Pass,
    setup: f64,
    run: f64,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let layer = |n: &str| t.table("layers", n);
    let replay = |n: &str| t.table("self_times", &format!("replay:{n}"));
    let events = layer("des.events");
    let covered = layer("core.coverage.covered_packets");
    let coverable = layer("core.coverage.coverable_packets");
    let routers = passes[0].cell_sum("routers");
    let first_cells = passes[0].cells();
    let rss_after = |c: Option<&Json>| {
        c.and_then(|c| c.get("rss_after_mb"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    let topology = replay("topology_build");
    let routes = replay("routes_derive");
    let compile = replay("fib_compile");
    let traced_setup = t.cell_sum("setup_s");
    let replays: f64 = ["des", "fabric", "fib_lookup", "sar", "coverage", "link"]
        .iter()
        .map(|n| replay(n))
        .sum();
    let work = |p: &Pass| p.cell_sum("setup_s") + p.cell_sum("run_s") + p.cell_sum("teardown_s");
    let value = |name: &str| -> f64 {
        match name {
            "des.events_per_s" => events / run,
            "des.pending_mean" => layer("des.pending_weighted") / events.max(1.0),
            "des.replay_s" => replay("des"),
            "router.fabric.replay_s" => replay("fabric"),
            "net.fib.lookup_replay_s" => replay("fib_lookup"),
            "net.fib.compile_s" => compile,
            "net.sar.replay_s" => replay("sar"),
            "core.coverage.ratio" => {
                if coverable > 0.0 {
                    covered / coverable
                } else {
                    0.0
                }
            }
            "core.coverage.replay_s" => replay("coverage"),
            "topo.topology_build_s" => topology,
            "topo.routes_derive_s" => routes,
            "topo.router_build_s" => traced_setup - topology - routes - compile,
            "topo.teardown_s" => median_of(passes, |p| p.cell_sum("teardown_s")),
            "topo.setup_us_per_router" => setup / routers * 1e6,
            "topo.rss_per_router_kb" => {
                median_of(passes, |p| p.num("maxrss_mb") - p.num("rss_before_mb")) * 1024.0
                    / routers
            }
            "topo.rss_after_first_cell_mb" => rss_after(first_cells.first()),
            "topo.rss_after_cell_mb" => rss_after(first_cells.last()),
            "topo.setup_minflt" => median_of(passes, |p| p.cell_sum("setup_minflt")),
            "topo.setup_user_s" => median_of(passes, |p| p.cell_sum("setup_user_s")),
            "topo.setup_sys_s" => median_of(passes, |p| p.cell_sum("setup_sys_s")),
            "topo.hops_per_s" => layer("topo.hops") / run,
            "topo.link.replay_s" => replay("link"),
            "residual_s" => run - replays,
            "setup_residual_s" => setup - traced_setup,
            "trace.overhead_s" => work(t) - median_of(passes, work),
            "host.user_s" => median_of(passes, |p| p.num("user_s")),
            "host.sys_s" => median_of(passes, |p| p.num("sys_s")),
            "host.minflt" => median_of(passes, |p| p.num("minflt")),
            other => layer(other),
        }
    };
    let rows: Vec<_> = PER_LAYER.iter().map(|&(n, u)| (n, u, value(n))).collect();

    println!(
        "attribution {} (untraced medians; replays from the traced pass)",
        w.name()
    );
    println!(
        "  run_s {run:.6} = replays {replays:.6} + residual {:.6}",
        run - replays
    );
    println!(
        "  setup_s {setup:.6} = topology {topology:.6} + routes {routes:.6} + fib_compile {compile:.6} \
         + router_build {:.6} + residual {:.6}",
        traced_setup - topology - routes - compile,
        setup - traced_setup
    );
    println!("self_times {} (traced pass, seconds)", w.name());
    if let Some(Json::Obj(st)) = t.doc.get("self_times") {
        for (name, v) in st {
            println!("  {name} {:.6}", v.as_f64().unwrap_or(f64::NAN));
        }
    }
    let rss: Vec<String> = first_cells
        .iter()
        .map(|c| format!("{:.0}", rss_after(Some(c))))
        .collect();
    println!("rss_after_cell_mb {} [{}]", w.name(), rss.join(", "));
    if let Some(spans) = t.doc.get("spans") {
        write_spans(w, args.seed, spans)?;
    }
    Ok(rows)
}

/// Write the traced pass's spans under `perfbench/out/`.
fn write_spans(w: Workload, seed: u64, spans: &Json) -> Result<(), String> {
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{seed}.json", w.name()));
    std::fs::write(&path, spans.to_string_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(rep: u32, cells: &[(&str, bool, Option<&str>)]) -> Pass {
        let cells = cells
            .iter()
            .map(|&(digest, conserved, error)| {
                let mut f = vec![("id", Json::Str("c".into()))];
                match error {
                    Some(e) => f.push(("error", Json::Str(e.into()))),
                    None => {
                        f.push(("conserved", Json::Bool(conserved)));
                        f.push(("digest", Json::Str(digest.into())));
                    }
                }
                Json::obj(f)
            })
            .collect();
        Pass {
            doc: Json::obj(vec![
                ("rep", Json::Num(rep as f64)),
                ("cells", Json::Arr(cells)),
            ]),
        }
    }

    #[test]
    fn gate_accepts_identical_repeats() {
        let a = pass(0, &[("aa", true, None), ("bb", true, None)]);
        let b = pass(1, &[("cc", true, None), ("dd", true, None)]);
        let c = pass(0, &[("aa", true, None), ("bb", true, None)]);
        let (attempted, failed, _) = failures(&[&a, &b, &c]);
        assert_eq!((attempted, failed), (6, 0));
    }

    #[test]
    fn gate_fails_divergent_repeats_broken_ledgers_and_panics() {
        let a = pass(0, &[("aa", true, None), ("bb", true, None)]);
        let b = pass(1, &[("cc", false, None), ("dd", true, Some("panicked: x"))]);
        let c = pass(0, &[("aa", true, None), ("b0", true, None)]);
        let (attempted, failed, why) = failures(&[&a, &b, &c]);
        assert_eq!((attempted, failed), (6, 3));
        assert!(why.iter().any(|w| w.contains("conservation")));
        assert!(why.iter().any(|w| w.contains("panicked")));
        assert!(why.iter().any(|w| w.contains("differ on a repeat")));
    }
}
