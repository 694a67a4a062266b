//! Two traced runs of the same workload and seed must report identical
//! count metrics, and every metric name must be a legal one.

use std::process::Command;

/// `(name, value, unit)` of every metric on the result line.
fn traced_metrics(workload: &str, seed: u64) -> Vec<(String, f64, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_primer-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "1"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "benchmark failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\":true,"),
        "unexpected result line {last}"
    );
    let metrics = &last[last.find("\"metrics\":{").expect("metrics object") + 11..];
    metrics
        .split("},")
        .map(|entry| {
            // "name":{"value":V,"unit":"U"
            let entry = entry.trim_end_matches('}');
            let (name, rest) = entry.split_once(":{\"value\":").expect("metric entry");
            let (value, unit) = rest.split_once(",\"unit\":").expect("metric unit");
            (
                name.trim_matches('"').to_string(),
                value.parse().expect("numeric value"),
                unit.trim_matches('"').to_string(),
            )
        })
        .collect()
}

fn is_count_metric(name: &str) -> bool {
    [
        "gc.and_gates",
        "he.rotations.",
        "he.ntt.",
        "he.mask_prep.",
        "net.bytes.",
        "net.flights.",
    ]
    .iter()
    .any(|p| name.starts_with(p))
}

#[test]
fn count_metrics_repeat_exactly_across_traced_runs() {
    let first = traced_metrics("sim-batch", 7);
    let second = traced_metrics("sim-batch", 7);
    let counts = |m: &[(String, f64, String)]| -> Vec<(String, f64)> {
        m.iter()
            .filter(|(n, _, _)| is_count_metric(n))
            .map(|(n, v, _)| (n.clone(), *v))
            .collect()
    };
    let (a, b) = (counts(&first), counts(&second));
    assert!(
        a.len() >= 16,
        "expected the gc, he and net count metrics, got {a:?}"
    );
    assert_eq!(a, b);
    for (name, _, unit) in &first {
        let legal = name
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'));
        assert!(legal && !name.is_empty(), "illegal metric name {name:?}");
        assert!(!unit.is_empty(), "{name} has no unit");
    }
}
