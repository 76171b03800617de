//! Self-check of the benchmark itself, at tiny sizes:
//!
//! * every workload runs and prints all nine end-to-end metrics, each
//!   with its unit, and zero failed operations;
//! * a deliberately corrupted answer counts as a failed operation and
//!   makes the command exit non-zero;
//! * the deterministic metrics repeat exactly between two runs, and
//!   between seeds too: a seed changes the interleaving and the queried
//!   flows, never the flow keys, items or their hashes.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use smb_devtools::Json;

const WORKLOADS: [&str; 3] = ["caida_trace", "heavy_hitters", "wide_flows"];

const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ingest_items_per_s", "items/s"),
    ("record_ack_p50_us", "us"),
    ("query_p50_us", "us"),
    ("topk_ms", "ms"),
    ("snapshot_ms", "ms"),
    ("snapshot_bytes_per_flow", "B"),
    ("resident_bytes_per_flow", "B"),
    ("rel_error_rms", "ratio"),
];

/// Run the benchmark at tiny scale; returns the exit success and the
/// parsed last line of standard output.
fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        // Traced runs write their spans under $CARGO_TARGET_DIR.
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0.2",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .args(extra)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    (
        out.status.success(),
        Json::parse(last).expect("the last line is JSON"),
    )
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .field("metrics")
        .unwrap()
        .field(name)
        .unwrap()
        .field("value")
        .unwrap()
        .as_f64()
        .unwrap()
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let (ok, result) = run(workload, 3, false, &[]);
        assert!(ok, "{workload} exited non-zero");
        assert!(result.field("correct").unwrap().as_bool().unwrap());
        assert_eq!(result.field("failed").unwrap().as_u64().unwrap(), 0);
        assert!(result.field("attempted").unwrap().as_u64().unwrap() > 0);
        for (name, unit) in END_TO_END {
            let m = result.field("metrics").unwrap().field(name).unwrap();
            assert_eq!(
                m.field("unit").unwrap().as_str().unwrap(),
                unit,
                "{workload}/{name}"
            );
            let value = m.field("value").unwrap().as_f64().unwrap();
            assert!(value > 0.0, "{workload}/{name} = {value}");
        }
    }
}

#[test]
fn a_corrupted_answer_is_a_failed_operation() {
    let (ok, result) = run("heavy_hitters", 3, false, &["--inject-fault"]);
    assert!(!ok, "a wrong answer must make the command fail");
    assert!(!result.field("correct").unwrap().as_bool().unwrap());
    // One corrupted QUERY, one TOP_K row and one SNAPSHOT cell.
    assert_eq!(result.field("failed").unwrap().as_u64().unwrap(), 3);
}

#[test]
fn deterministic_metrics_repeat_exactly() {
    for workload in WORKLOADS {
        let (_, a) = run(workload, 5, false, &[]);
        let (_, b) = run(workload, 5, false, &[]);
        let (_, c) = run(workload, 6, false, &[]);
        for name in [
            "snapshot_bytes_per_flow",
            "resident_bytes_per_flow",
            "rel_error_rms",
        ] {
            for (other, what) in [(&b, "same seed"), (&c, "another seed")] {
                assert_eq!(
                    metric(&a, name).to_bits(),
                    metric(other, name).to_bits(),
                    "{workload}/{name}, {what}"
                );
            }
        }
    }
    let (ok_a, a) = run("caida_trace", 5, true, &[]);
    let (ok_b, b) = run("caida_trace", 5, true, &[]);
    assert!(ok_a && ok_b, "traced runs must succeed");
    for name in [
        "sketch.tier_small",
        "sketch.tier_array",
        "sketch.tier_full",
        "sketch.promotions_to_full",
        "engine.query.probe_builds_per_topk",
        "net.wire_bytes_per_record",
    ] {
        assert_eq!(
            metric(&a, name).to_bits(),
            metric(&b, name).to_bits(),
            "{name}"
        );
    }
    assert!(metric(&a, "sketch.tier_small") > 0.0 && metric(&a, "sketch.tier_full") > 0.0);
}
