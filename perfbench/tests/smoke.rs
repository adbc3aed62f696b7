//! Runs every workload in smoke mode against a release `lph-serve` built
//! from this checkout, and checks the metric names against
//! `BENCHMARK.json`.
//!
//! The server is built into a target directory of its own under this
//! build's temporary directory, so the first run builds the workspace.

use std::path::{Path, PathBuf};
use std::process::Command;

use lph_analysis::json::Json;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository")
}

fn build_server() -> PathBuf {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("server");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "lph-serve",
        ])
        .current_dir(repo_root())
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building lph-serve failed");
    target.join("release").join("lph-serve")
}

/// The metric names `BENCHMARK.json` declares under `section`.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("every metric has a name")
                .to_owned()
        })
        .collect()
}

#[test]
fn every_workload_smokes_with_every_declared_metric() {
    let server = build_server();
    let sections = [declared("end_to_end"), declared("per_layer")];
    for workload in ["warm_hits", "cold_solve", "mixed_open"] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .arg("--server")
            .arg(&server)
            .args(["--workload", workload, "--seed", "3", "--smoke"])
            .output()
            .expect("perfbench runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{workload} smoke failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let results: Vec<Json> = stdout
            .lines()
            .filter(|l| l.starts_with('{'))
            .map(|l| Json::parse(l).expect("result lines parse"))
            .collect();
        assert_eq!(
            results.len(),
            2,
            "{workload}: end-to-end and per-layer results"
        );
        for (result, names) in results.iter().zip(&sections) {
            assert_eq!(result.get("failed"), Some(&Json::Num(0.0)), "{workload}");
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let got: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
            let want: Vec<&str> = names.iter().map(String::as_str).collect();
            assert_eq!(got, want, "{workload}");
        }
    }
}
