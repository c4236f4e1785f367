//! Tiny-scale runs of every workload: each prints every metric that
//! `BENCHMARK.json` names, with its unit; the same seed repeats its
//! digests and counts; another seed changes only the generated inputs.

use serde::Value;
use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

/// Runs the benchmark at tiny size; returns stdout and the parsed
/// result line.
fn run(workload: &str, seed: u64, trace: bool) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2", "--trace", if trace { "1" } else { "0" }])
        .args(["--size", "tiny"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} exited with {}: {stdout}",
        out.status
    );
    let last = stdout.lines().last().expect("a result line").to_string();
    let result = serde_json::from_str(&last).unwrap_or_else(|e| panic!("{last}: {e}"));
    (stdout, result)
}

fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let spec = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    spec.get(section)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("spec");
    let spec = serde_json::from_str(&text).expect("spec parses");
    spec.get("workloads")
        .and_then(Value::as_array)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn assert_metrics(workload: &str, result: &Value, section: &str) {
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{workload}: {result:?}"
    );
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    let metrics = result.get("metrics").expect("metrics object");
    let want = declared(section);
    let Value::Object(got) = metrics else {
        panic!("metrics is not an object")
    };
    assert_eq!(got.len(), want.len(), "{workload}: {section} metric count");
    for (name, unit) in want {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
    }
}

#[test]
fn every_workload_prints_every_declared_metric() {
    for workload in workloads() {
        let (_, result) = run(&workload, 3, false);
        assert_metrics(&workload, &result, "end_to_end");
        let (_, result) = run(&workload, 3, true);
        assert_metrics(&workload, &result, "per_layer");
    }
}

fn digest(stdout: &str) -> (String, String) {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("# digest"))
        .expect("a digest line");
    let field = |k: &str| {
        line.split_whitespace()
            .find_map(|f| f.strip_prefix(k))
            .expect("digest field")
            .to_string()
    };
    (field("kernels="), field("inputs="))
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{name} missing"))
}

#[test]
fn a_seed_fixes_digests_and_counts_and_changes_only_generated_inputs() {
    for workload in ["detailed", "sweep"] {
        let (a, ra) = run(workload, 7, true);
        let (b, rb) = run(workload, 7, true);
        assert_eq!(
            digest(&a),
            digest(&b),
            "{workload}: same seed, same digests"
        );
        for name in [
            "sim.rename_stall_cycles",
            "sim.work.rename",
            "sim.work.commit",
            "core.baseline.stall_frac",
            "core.reuse.stall_frac",
            "core.reuse.reuse_frac",
            "mem.l1d_hit_frac",
            "mem.l2_hit_frac",
            "mem.tlb_hit_frac",
        ] {
            assert_eq!(
                metric(&ra, name),
                metric(&rb, name),
                "{workload}: {name} repeats"
            );
        }
        let (c, _) = run(workload, 8, false);
        let (da, dc) = (digest(&a), digest(&c));
        assert_eq!(
            da.0, dc.0,
            "{workload}: the fixed kernels do not depend on the seed"
        );
        assert_ne!(
            da.1, dc.1,
            "{workload}: the seed draws other synthetic programs"
        );
    }
}
