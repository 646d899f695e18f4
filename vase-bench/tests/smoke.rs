//! Every workload at `--smoke` size through the real binary and the
//! same code paths as a full run: each metric `BENCHMARK.json` declares
//! is printed with its declared unit, every output check passes, a
//! traced run writes a loadable Chrome trace, and `compare` reads the
//! records a run appends.
//!
//! serve_mixed drives the repository's `vase` binary, which must be
//! built first (`cargo build --release --bin vase` at the repository
//! root, into this test's target directory or the root `target/`). The
//! test fails without it; it never skips. Everything it writes goes
//! under one temporary directory.

use std::path::{Path, PathBuf};
use std::process::Command;

use vase::diag::json::Json;

const WORKLOADS: [&str; 4] = [
    "corpus_flow",
    "search_heavy",
    "serve_mixed",
    "sim_transient",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in the repository")
        .to_path_buf()
}

/// The `vase` binary: next to this test's target directory, else in the
/// repository's default one.
fn vase_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("test executable path");
    // <target>/<profile>/deps/<test binary>
    let own_target = exe.ancestors().nth(3).map(Path::to_path_buf);
    let candidates: Vec<PathBuf> = own_target
        .into_iter()
        .chain([repo_root().join("target")])
        .map(|t| t.join("release").join("vase"))
        .collect();
    candidates.iter().find(|p| p.is_file()).cloned().unwrap_or_else(|| {
        panic!("no `vase` binary at {candidates:?}; run `cargo build --release --bin vase` at the repository root")
    })
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run_bench(dir: &Path, args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_vase-bench"))
        .args(args)
        .current_dir(dir)
        .env("CARGO_TARGET_DIR", dir)
        .env("VASE_BIN", vase_binary())
        .output()
        .expect("vase-bench runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.code().is_some(),
        "vase-bench was killed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), stdout)
}

#[test]
fn every_workload_prints_its_declared_metrics_and_passes_its_checks() {
    let dir = std::env::temp_dir().join(format!("vase-bench-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let records = dir.join("records.jsonl");
    let records_arg = records.to_str().expect("UTF-8 path");
    for workload in WORKLOADS {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, stdout) = run_bench(
                &dir,
                &[
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--smoke",
                    "--trace",
                    trace,
                    "--out",
                    records_arg,
                ],
            );
            assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the last line is JSON");
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{workload}: {last}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_int),
                Some(0),
                "{workload}: {last}"
            );
            assert!(result.get("attempted").and_then(Json::as_int).unwrap_or(0) >= 1);
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics")
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value")
                            .and_then(Json::as_f64)
                            .is_some_and(f64::is_finite),
                        "{workload}: {name}"
                    );
                    (
                        name.clone(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_owned(),
                    )
                })
                .collect();
            assert_eq!(printed, declared(list), "{workload} --trace {trace}");
            for (name, unit) in &printed {
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.contains(name.as_str()) && l.contains(unit.as_str())),
                    "{name} not printed"
                );
            }
        }
        let trace = dir
            .join("vase-bench")
            .join(format!("trace-{workload}-7.json"));
        let doc = Json::parse(&std::fs::read_to_string(&trace).expect("trace written"))
            .expect("trace parses");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents");
        assert!(!events.is_empty(), "{workload}: empty trace");
        assert!(events
            .iter()
            .all(|e| e.get("ph").and_then(Json::as_str) == Some("X")));
    }

    let benchmark = repo_root().join("BENCHMARK.json");
    let out = Command::new(env!("CARGO_BIN_EXE_vase-bench"))
        .args([
            "compare",
            "--benchmark",
            benchmark.to_str().expect("UTF-8 path"),
            records_arg,
            "--",
            records_arg,
        ])
        .output()
        .expect("compare runs");
    let table = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(out.status.success(), "{table}");
    assert!(
        !table.contains("regressed") && table.contains("unchanged"),
        "{table}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
