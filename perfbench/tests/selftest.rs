//! Self-tests of the benchmark: seeded inputs, declared metric names and
//! failure accounting. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

use perfbench::report::{end_to_end, per_layer, Ops};
use perfbench::workloads::{input_bytes, service_mix};
use perfbench::WORKLOADS;

fn benchmark_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `"name"` values of the entries of one top-level array.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key}"));
    let open = start + json[start..].find('[').expect("array");
    let close = open + json[open..].find(']').expect("array end");
    json[open..close]
        .split("\"name\"")
        .skip(1)
        .map(|s| {
            let s = &s[s.find('"').expect("value") + 1..];
            s[..s.find('"').expect("value end")].to_string()
        })
        .collect()
}

/// The metric names of a result line, in printed order.
fn printed_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics")..];
    let pieces: Vec<&str> = metrics.split(": {\"value\"").collect();
    // Every piece but the last ends with the next metric's quoted name.
    pieces[..pieces.len() - 1]
        .iter()
        .map(|s| {
            let end = s.rfind('"').expect("name end");
            let begin = s[..end].rfind('"').expect("name start");
            s[begin + 1..end].to_string()
        })
        .collect()
}

fn run_bench(workload: &str, trace: u8, scratch: &str) -> String {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{scratch}"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.2"])
        .args(["--trace", &trace.to_string()])
        .arg("--scratch")
        .arg(&scratch)
        .output()
        .expect("run perfbench");
    std::fs::remove_dir_all(&scratch).ok();
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    stdout.lines().last().expect("result line").to_string()
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for w in WORKLOADS {
        let a = input_bytes(w, 7);
        assert!(!a.is_empty());
        assert_eq!(a, input_bytes(w, 7), "{w}: seed 7 is not reproducible");
        assert_ne!(
            a,
            input_bytes(w, 8),
            "{w}: seeds 7 and 8 give the same inputs"
        );
    }
}

#[test]
fn op_stream_follows_the_declared_mix() {
    let mut rng = service_mix::Lcg::new(1);
    let n = 200_000;
    let mut counts = [0u64; 5];
    for _ in 0..n {
        let kind = rng.op();
        let i = service_mix::MIX
            .iter()
            .position(|(k, _)| *k == kind)
            .unwrap();
        counts[i] += 1;
    }
    for (i, (kind, share)) in service_mix::MIX.iter().enumerate() {
        let got = counts[i] as f64 * 1000.0 / n as f64;
        assert!(
            (got - *share as f64).abs() < 5.0,
            "{kind:?}: {got} per mille"
        );
    }
}

#[test]
fn declared_metrics_match_benchmark_json() {
    let json = benchmark_json();
    let e2e: Vec<String> = end_to_end().into_iter().map(|(n, _)| n).collect();
    let layer: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names_in(&json, "end_to_end"), e2e);
    assert_eq!(names_in(&json, "per_layer"), layer);
    assert_eq!(names_in(&json, "workloads"), WORKLOADS.to_vec());
    // The offered rate the open loop runs at is recorded in the
    // workload's `why`.
    let rate = format!("{} ops/s", service_mix::OFFERED_RATE);
    assert!(
        json.contains(&rate),
        "BENCHMARK.json does not record {rate}"
    );
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let json = benchmark_json();
    for (i, w) in WORKLOADS.iter().enumerate() {
        for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
            let line = run_bench(w, trace, &format!("{i}-{trace}"));
            assert!(line.starts_with("{\"correct\": "), "{line}");
            assert_eq!(
                printed_names(&line),
                names_in(&json, key),
                "{w} trace {trace}"
            );
        }
    }
}

#[test]
fn failing_operations_are_counted_not_panicked_on() {
    let mut ops = Ops::default();
    assert_eq!(ops.attempt(|| Ok::<_, String>(1)), Some(1));
    assert_eq!(
        ops.attempt(|| Err::<u8, _>("store format error".to_string())),
        None
    );
    assert_eq!(ops.attempt::<u8>(|| panic!("kernel panicked")), None);
    ops.mismatch("store differs from the in-RAM build");
    assert_eq!((ops.attempted, ops.failed, ops.mismatched), (3, 3, 1));
    assert_eq!(ops.ok_ratio(), 0.0);
}
