//! Count metrics repeat exactly: two runs with the same seed report the
//! same `cost_per_query`, `index_nodes` and `snapshot_mb`, and the same
//! traced hot-resident cache-hit count. Runs the real benchmark binary
//! against a real `mrx serve` at full scale, with a short timed phase
//! (the counts are exact for whole laps, sweeps and epochs).

use std::path::{Path, PathBuf};
use std::process::Command;

/// Builds the `mrx` daemon from the enclosing workspace into this test's
/// scratch directory.
fn mrx_binary() -> PathBuf {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("mrx-target");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let status = Command::new(env!("CARGO"))
        .args(["build", "--release", "--offline", "-q", "-p", "mrx-cli"])
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building mrx failed");
    target.join("release").join("mrx")
}

/// Runs one workload and returns its stdout.
fn run(mrx: &Path, workload: &str, seed: u64, trace: bool) -> String {
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("work-{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.5", "--trace", if trace { "1" } else { "0" }])
        .arg("--mrx")
        .arg(mrx)
        .arg("--work")
        .arg(&work)
        .output()
        .expect("run servebench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The number after `"key":` (for metrics, after their `"value":`).
fn field(out: &str, key: &str) -> f64 {
    let at = out
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no {key} in {out}"));
    let mut tail = &out[at + key.len() + 3..];
    if tail.starts_with('{') {
        tail = &tail[tail.find("\"value\":").expect("metric value") + 8..];
    }
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(tail.len());
    tail[..end].parse().expect("number")
}

#[test]
fn count_metrics_repeat_for_a_fixed_seed() {
    let mrx = mrx_binary();
    for workload in ["hot-resident", "cold-paged", "shift-publish"] {
        let (a, b) = (run(&mrx, workload, 5, false), run(&mrx, workload, 5, false));
        for key in ["cost_per_query", "index_nodes", "snapshot_mb"] {
            assert_eq!(field(&a, key), field(&b, key), "{workload} {key}");
        }
        assert!(field(&a, "cost_per_query") > 0.0);
    }
    let (a, b) = (
        run(&mrx, "hot-resident", 5, true),
        run(&mrx, "hot-resident", 5, true),
    );
    for key in ["hits", "traced_requests"] {
        assert_eq!(field(&a, key), field(&b, key), "hot-resident {key}");
    }
    assert!(field(&a, "hits") > 0.0);
}
