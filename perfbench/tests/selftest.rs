//! Self-test: a tiny run of every workload prints every metric that
//! `BENCHMARK.json` names, with its unit, and runs the correctness gate.

use dra_campaign::json::{parse, Json};
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("section present")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run a tiny benchmark; return its standard output and parsed last line.
fn run_tiny(workload: &str, trace: &str) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", trace, "--tiny"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark starts");
    assert!(
        out.status.success(),
        "{workload} --trace {trace}: {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output").to_string();
    (stdout, parse(&last).expect("last line is JSON"))
}

fn check(workload: &str, trace: &str, section: &str) {
    let doc = benchmark_json();
    let (stdout, result) = run_tiny(workload, trace);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    let attempted = result.get("attempted").and_then(Json::as_u64).unwrap();
    // The gate saw every cell of every pass, and at least one repeat.
    let cells = stdout.lines().filter(|l| l.starts_with("cell ")).count() as u64;
    assert!(
        cells > 0 && attempted >= 2 * cells,
        "{attempted} cells checked"
    );
    assert!(
        stdout.contains(&format!("sim_digest {workload} ")),
        "{stdout}"
    );
    assert!(
        stdout.contains("metric cell_error_rate 0 ratio"),
        "{stdout}"
    );

    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object: {stdout}");
    };
    let want = declared(&doc, section);
    let got: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
    let names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        got, names,
        "{workload} --trace {trace} prints exactly the {section} metrics"
    );
    for ((name, unit), (_, m)) in want.iter().zip(metrics) {
        let value = m.get("value").and_then(Json::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name}: {m:?}");
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            stdout.contains(&format!("metric {name} ")),
            "{name} is printed by name"
        );
    }
}

#[test]
fn benchmark_json_names_the_three_workloads() {
    let doc = benchmark_json();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, ["router_faceoff", "net_scale", "net_churn"]);
}

#[test]
fn router_faceoff_end_to_end() {
    check("router_faceoff", "0", "end_to_end");
}

#[test]
fn router_faceoff_per_layer() {
    check("router_faceoff", "1", "per_layer");
}

#[test]
fn net_scale_end_to_end() {
    check("net_scale", "0", "end_to_end");
}

#[test]
fn net_scale_per_layer() {
    check("net_scale", "1", "per_layer");
}

#[test]
fn net_churn_end_to_end() {
    check("net_churn", "0", "end_to_end");
}

#[test]
fn net_churn_per_layer() {
    check("net_churn", "1", "per_layer");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope"])
        .output()
        .expect("benchmark starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
