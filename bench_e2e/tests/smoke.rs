//! Drives the built `bench_e2e` binary at smoke scale through the same
//! code path a full run takes, and keeps `BENCHMARK.json` in step with
//! the tables the binary prints from.

use isasgd_bench_e2e::cli::DEFAULT_SECONDS;
use isasgd_bench_e2e::json::Json;
use isasgd_bench_e2e::spec::{END_TO_END, PER_LAYER};
use isasgd_bench_e2e::workloads::WORKLOADS;
use std::process::Command;

fn bench(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
        .args(args)
        .output()
        .expect("running bench_e2e");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

fn last_line(stdout: &str) -> Json {
    let line = stdout.lines().last().expect("a result line");
    Json::parse(line).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {line}"))
}

fn value(result: &Json, metric: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{metric} missing or not a number"))
}

#[test]
fn smoke_run_reports_every_workload_and_metric() {
    let (code, stdout) = bench(&["--smoke", "--trace", "--seed", "5"]);
    assert_eq!(code, 0, "{stdout}");
    let summary = last_line(&stdout);
    assert_eq!(summary.get("correct").and_then(Json::as_bool), Some(true));
    for (section, names) in [
        (
            "end_to_end",
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>(),
        ),
        ("per_layer", PER_LAYER.iter().map(|m| m.name).collect()),
    ] {
        let section = summary.get(section).expect("section present");
        for w in WORKLOADS {
            let result = section
                .get(w.name)
                .unwrap_or_else(|| panic!("{} missing", w.name));
            // failed_share == 0, and every bit-identity check passed.
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{}",
                w.name
            );
            assert_eq!(result.get("failed"), Some(&Json::Int(0)), "{}", w.name);
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            for name in &names {
                assert!(
                    value(result, name).is_finite(),
                    "{} {name} is not finite",
                    w.name
                );
            }
        }
    }
    // Every end-to-end metric is printed by name, with unit and bound.
    for m in END_TO_END {
        let line = stdout
            .lines()
            .find(|l| l.contains("seq_dense_is") && l.contains(m.name))
            .unwrap_or_else(|| panic!("{} not printed", m.name));
        assert!(line.contains(m.unit) && line.contains("bound"), "{line}");
    }
    assert!(stdout.contains("is_speedup"));
    // The fleet really recovered from its kill, and the cluster counters
    // are live only where they apply.
    let layers = summary.get("per_layer").unwrap();
    let fleet = layers.get("fleet_process_ckpt").unwrap();
    assert_eq!(value(fleet, "cluster.fleet.respawns"), 1.0);
    assert!(value(fleet, "cluster.wire.bytes_per_round") > 0.0);
    assert!(
        value(
            layers.get("seq_dense_is").unwrap(),
            "cluster.wire.bytes_per_round"
        ) == 0.0
    );
    let everyk = layers.get("hogwild_adaptive_everyk").unwrap();
    assert!(value(everyk, "sampling.commits") > 0.0);
}

#[test]
fn one_workload_prints_the_contract_line() {
    for (trace, names) in [
        (
            "0",
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .collect::<Vec<_>>(),
        ),
        ("1", PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()),
    ] {
        let args = [
            "--workload",
            "hogwild_sparse_is",
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--smoke",
        ];
        let (code, stdout) = bench(&args);
        assert_eq!(code, 0, "{stdout}");
        let result = last_line(&stdout);
        let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = result.get("metrics").unwrap().members();
        let got: Vec<(&str, &str)> = metrics
            .iter()
            .map(|(k, v)| (k.as_str(), v.get("unit").and_then(Json::as_str).unwrap()))
            .collect();
        assert_eq!(got, names, "--trace {trace}");
    }
}

#[test]
fn same_seed_same_counts_on_deterministic_workloads() {
    let run = || {
        let (code, stdout) = bench(&[
            "--workload",
            "cluster_tcp_adaptive",
            "--seed",
            "4",
            "--seconds",
            "0",
            "--smoke",
        ]);
        assert_eq!(code, 0, "{stdout}");
        value(&last_line(&stdout), "epochs_to_target")
    };
    assert_eq!(run().to_bits(), run().to_bits());
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "soon"],
        &["worker"],
    ] {
        let (code, stdout) = bench(args);
        assert_eq!(code, 2, "{args:?}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
    }
}

#[test]
fn benchmark_json_matches_the_binary() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let b = Json::parse(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = b.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let strs = |j: &Json| -> Vec<String> {
        j.items()
            .iter()
            .map(|x| x.as_str().unwrap().to_string())
            .collect()
    };
    assert_eq!(strs(b.get("paths").unwrap()), ["bench_e2e"]);
    assert!(strs(b.get("command").unwrap()).contains(&"bench_e2e/Cargo.toml".to_string()));
    assert_eq!(
        b.get("run_seconds").and_then(Json::as_f64),
        Some(DEFAULT_SECONDS)
    );

    let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();
    let listed: Vec<(String, String)> = b
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let built: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(listed, built);

    let better = |higher: bool| if higher { "higher" } else { "lower" }.to_string();
    let listed: Vec<(String, String, String, f64)> = b
        .get("end_to_end")
        .unwrap()
        .items()
        .iter()
        .map(|m| {
            (
                field(m, "name"),
                field(m, "unit"),
                field(m, "better"),
                m.get("bound").and_then(Json::as_f64).unwrap(),
            )
        })
        .collect();
    let built: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                better(m.higher_is_better),
                m.bound,
            )
        })
        .collect();
    assert_eq!(listed, built);
    assert!(built.iter().all(|m| m.3 <= 0.25));
    assert!(built
        .iter()
        .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));

    let listed: Vec<(String, String, String)> = b
        .get("per_layer")
        .unwrap()
        .items()
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect();
    let built: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                better(m.higher_is_better),
            )
        })
        .collect();
    assert_eq!(listed, built);
    assert!(built.len() <= 128);
}
