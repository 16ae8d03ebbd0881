//! Exact counts must repeat: two traced runs of the same workload and
//! seed report identical values for every count a later change may base
//! a claim on. Runs the benchmark binary itself, one second per run.

use std::process::Command;

/// The exact counts of the traced run.
const COUNTS: [&str; 7] = [
    "mediator.fetch_calls_per_op",
    "mediator.answer_calls_per_op",
    "sat.pruned_per_union",
    "infer.views_reinferred_per_update",
    "net.bytes_per_op",
    "net.frames_per_op",
    "relang.pool_nodes",
];

/// The result line of one traced run.
fn traced_run(workload: &str, seed: u64) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "1"])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    stdout.lines().last().expect("a result line").to_owned()
}

/// The value of metric `name` in a result line.
fn metric(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("no {name} in {line}"))
        + key.len();
    let end = at + line[at..].find(',').expect("a unit follows the value");
    line[at..end].parse().expect("a number")
}

#[test]
fn exact_counts_repeat_across_traced_runs() {
    for workload in ["serve_local", "serve_remote", "stream_large"] {
        let first = traced_run(workload, 7);
        let second = traced_run(workload, 7);
        assert!(
            first.starts_with("{\"correct\": true"),
            "{workload}: {first}"
        );
        for name in COUNTS {
            assert_eq!(
                metric(&first, name).to_bits(),
                metric(&second, name).to_bits(),
                "{workload}: {name} differs between two runs of seed 7"
            );
        }
        // the union prunes exactly its six archives on every workload
        assert_eq!(metric(&first, "sat.pruned_per_union"), 6.0, "{workload}");
    }
}
