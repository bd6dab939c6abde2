//! Smoke test: every workload passes its checks at a tiny scale and
//! prints every metric by name and unit, exactly as `BENCHMARK.json`
//! declares them.

use requiem_perfbench::workloads::{Scale, Workload};
use requiem_perfbench::{per_layer_names, run, END_TO_END};

fn declared() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn benchmark_json_declares_the_printed_metrics() {
    let json = declared();
    let names: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(per_layer_names())
        .collect();
    for (name, unit) in &names {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
    assert_eq!(
        json.matches("\"name\": ").count(),
        names.len() + Workload::ALL.len(),
        "BENCHMARK.json names a metric or workload the benchmark does not print"
    );
}

#[test]
fn every_workload_prints_every_metric() {
    let scale = Scale::tiny();
    for w in Workload::ALL {
        for traced in [false, true] {
            let out = run(w, 3, 0.01, traced, &scale);
            assert!(out.correct, "{}: {:?}", w.name(), out.report);
            assert_eq!(out.failed, 0, "{}", w.name());
            let expected: Vec<(String, &str)> = if traced {
                per_layer_names()
            } else {
                END_TO_END
                    .iter()
                    .map(|&(n, u)| (n.to_string(), u))
                    .collect()
            };
            let printed: Vec<(String, &str)> = out
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit))
                .collect();
            assert_eq!(printed, expected, "{} traced={traced}", w.name());
            let line = out.json();
            for (name, unit) in &expected {
                assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
            }
        }
    }
}
