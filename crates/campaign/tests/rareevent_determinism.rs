//! The rare-event artifact determinism contract, end to end: the
//! `dra-rareevent/v1` file written for a spec is **byte-identical** for
//! any worker count. This must hold through the splitting estimator's
//! trajectory-cloning path (whose child RNG streams derive structurally
//! from the cycle seed, never from scheduling), which is why the
//! registry's quick grid — containing a splitting cell per config — is
//! the fixture.

use dra_campaign::rareevent::{build, run, validate_rare_artifact, RareRunOptions};
use std::fs;

#[test]
fn artifact_files_are_byte_identical_across_worker_counts() {
    let spec = build("rareevent", true).expect("quick rareevent spec");
    assert!(
        spec.cells.iter().any(|c| c.id.starts_with("splitting/")),
        "fixture must exercise the cloning path"
    );
    let dir = std::env::temp_dir().join(format!("dra-rare-det-{}", std::process::id()));
    let mut artifacts = Vec::new();
    for workers in [1usize, 2, 4] {
        let path = dir.join(format!("rare-w{workers}.json"));
        let out = run(
            &spec,
            &RareRunOptions {
                workers: Some(workers),
                out: Some(path.clone()),
                quiet: true,
            },
        )
        .expect("campaign runs");
        assert_eq!(out.failed, 0);
        let bytes = fs::read(&path).expect("artifact written");
        artifacts.push((workers, bytes));
    }
    let _ = fs::remove_dir_all(&dir);
    let (_, reference) = &artifacts[0];
    for (workers, bytes) in &artifacts[1..] {
        assert_eq!(
            bytes, reference,
            "artifact at {workers} workers differs from serial run"
        );
    }
    // And the file that came out is a valid, fully CI-covered artifact.
    let text = String::from_utf8(reference.clone()).unwrap();
    let (cells, misses) = validate_rare_artifact(&text).expect("valid artifact");
    assert_eq!(cells, spec.cells.len());
    assert_eq!(misses, 0, "an estimator CI missed the exact answer");
}
