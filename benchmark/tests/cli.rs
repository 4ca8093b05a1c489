//! Drives the built binary the way the driver does, at `--quick` size:
//! every workload, untraced and traced, in its own process (the
//! allocation counters are process-wide, so this cannot share a process
//! with other tests). Exercises set-up, timed segments, verification,
//! capture, every replay and the span file in a few seconds; never used
//! for numbers.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["fresh_mixed", "eol_read", "ftl_churn", "tenant_qos"];

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mlcx-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

/// The names under `"key": [...]` of `BENCHMARK.json`.
fn manifest_names(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let section = text
        .split_once(&format!("\"{key}\": ["))
        .expect("section present")
        .1;
    let section = section.split_once("\n  ]").expect("section closed").0;
    section
        .split("{\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().unwrap().to_string())
        .collect()
}

/// `(name, value)` of each metric in a result line.
fn metrics(line: &str) -> Vec<(String, f64)> {
    let body = line.split_once("\"metrics\": {").expect("metrics object").1;
    body.split("\"}")
        .filter(|e| e.contains("\"value\": "))
        .map(|e| {
            let (name, rest) = e.split_once("\": {\"value\": ").unwrap();
            let name = name.rsplit('"').next().unwrap().to_string();
            (name, rest.split(',').next().unwrap().parse().unwrap())
        })
        .collect()
}

#[test]
fn quick_size_exercises_every_path_and_meets_the_output_contract() {
    for w in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = bench(&[
                "--workload",
                w,
                "--quick",
                "--seconds",
                "0",
                "--seed",
                "7",
                "--trace",
                trace,
            ]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{w} trace {trace}: {stderr}");
            let stdout = String::from_utf8(out.stdout).unwrap();
            let last = stdout.lines().last().unwrap();
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{w} trace {trace}: {last}"
            );
            assert!(last.contains("\"failed\": 0, "), "{w}: {last}");
            let got = metrics(last);
            let names: Vec<String> = got.iter().map(|(n, _)| n.clone()).collect();
            assert_eq!(names, manifest_names(section), "{w} trace {trace}");
            assert!(got.iter().all(|(_, v)| v.is_finite()));
            if trace == "0" {
                assert!(got
                    .iter()
                    .all(|(n, v)| *v > 0.0 || panic!("{w}: {n} is {v}")));
            } else {
                assert!(stderr.contains("spans: "), "{w}: {stderr}");
            }
        }
    }
}

#[test]
fn same_seed_same_exact_metrics_and_digest() {
    let run = || {
        let out = bench(&[
            "--workload",
            "tenant_qos",
            "--quick",
            "--seconds",
            "0",
            "--seed",
            "21",
        ]);
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).unwrap();
        let digest = stdout
            .lines()
            .find(|l| l.starts_with("# bench.completion_digest "))
            .unwrap()
            .to_string();
        let exact: Vec<(String, f64)> = metrics(stdout.lines().last().unwrap())
            .into_iter()
            .filter(|(n, _)| n.starts_with("sim_") || n == "write_amp")
            .collect();
        (digest, exact)
    };
    assert_eq!(run(), run());
}

#[test]
fn failures_exit_non_zero_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--trace", "2"], &["--bogus"]] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
