//! Checkpoint/resume of the campaign engine: an interrupted campaign
//! (simulated with a cell budget) must resume by skipping finished
//! cells and produce an artifact byte-identical to an uninterrupted
//! run — the property that makes long campaigns safe to kill.

use dra::campaign::engine::{checkpoint_path, run, validate_artifact, RunOptions};
use dra::campaign::registry;
use dra::campaign::spec::CampaignSpec;
use std::fs;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dra-campaign-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn quick_spec() -> CampaignSpec {
    registry::build("faceoff", true).expect("built-in spec")
}

#[test]
fn interrupted_campaign_resumes_to_identical_artifact() {
    let dir = temp_dir("resume");
    let spec = quick_spec();
    assert!(spec.cells.len() >= 2, "need at least 2 cells to interrupt");

    // Reference: one uninterrupted run.
    let full_path = dir.join("full.json");
    let full = run(
        &spec,
        &RunOptions {
            workers: Some(1),
            out: Some(full_path.clone()),
            ..RunOptions::default()
        },
    )
    .expect("full run");
    assert_eq!(full.remaining, 0);
    let full_text = fs::read_to_string(&full_path).expect("full artifact");

    // Interrupted run: budget of 1 cell, then finish in a second call.
    let part_path = dir.join("resumed.json");
    let first = run(
        &spec,
        &RunOptions {
            workers: Some(1),
            out: Some(part_path.clone()),
            cell_budget: Some(1),
            ..RunOptions::default()
        },
    )
    .expect("budgeted run");
    assert_eq!(first.completed, 1);
    assert_eq!(first.remaining, spec.cells.len() - 1);
    assert!(first.artifact.is_none(), "incomplete run must not emit");
    assert!(!part_path.exists());
    assert!(
        checkpoint_path(&part_path).exists(),
        "finished cells must be checkpointed"
    );

    let second = run(
        &spec,
        &RunOptions {
            workers: Some(1),
            out: Some(part_path.clone()),
            ..RunOptions::default()
        },
    )
    .expect("resumed run");
    assert_eq!(second.resumed, 1, "checkpointed cell must be skipped");
    assert_eq!(second.completed, spec.cells.len() - 1);
    assert_eq!(second.remaining, 0);
    assert!(
        !checkpoint_path(&part_path).exists(),
        "checkpoint must be removed once the artifact lands"
    );

    let resumed_text = fs::read_to_string(&part_path).expect("resumed artifact");
    assert_eq!(
        resumed_text, full_text,
        "resumed artifact differs from an uninterrupted run"
    );
    let (cells, errors) = validate_artifact(&resumed_text).expect("valid artifact");
    assert_eq!((cells, errors), (spec.cells.len(), 0));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stale_checkpoint_from_a_different_spec_is_ignored() {
    let dir = temp_dir("stale");
    let out = dir.join("artifact.json");

    // Checkpoint a cell of the fig8 spec...
    let other = registry::build("fig8", true).expect("built-in spec");
    let first = run(
        &other,
        &RunOptions {
            workers: Some(1),
            out: Some(out.clone()),
            cell_budget: Some(1),
            ..RunOptions::default()
        },
    )
    .expect("budgeted run");
    assert_eq!(first.completed, 1);
    assert!(checkpoint_path(&out).exists());

    // ...then run the faceoff spec at the same path: the digest
    // mismatch must force a clean start, not splice foreign cells.
    let spec = quick_spec();
    let outcome = run(
        &spec,
        &RunOptions {
            workers: Some(1),
            out: Some(out.clone()),
            ..RunOptions::default()
        },
    )
    .expect("run over stale checkpoint");
    assert_eq!(outcome.resumed, 0, "stale checkpoint must not resume");
    assert_eq!(outcome.completed, spec.cells.len());
    let text = fs::read_to_string(&out).expect("artifact");
    let (cells, errors) = validate_artifact(&text).expect("valid artifact");
    assert_eq!((cells, errors), (spec.cells.len(), 0));

    let _ = fs::remove_dir_all(&dir);
}
