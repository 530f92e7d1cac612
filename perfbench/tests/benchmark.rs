//! The benchmark's own tests: every workload at a tiny size prints every
//! metric with its unit, its exact counters repeat under one seed and
//! change under another, and `BENCHMARK.json` lists the metrics the
//! benchmark prints.

use geoqp_perfbench::check::{against_previous, Counters};
use geoqp_perfbench::report::{END_TO_END, PER_LAYER};
use geoqp_perfbench::{run, Opts, Size, WORKLOADS};
use std::path::PathBuf;

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tests")
}

fn opts(workload: &str, seed: u64, trace: bool) -> Opts {
    Opts {
        workload: workload.to_string(),
        seed,
        seconds: 0.5,
        trace,
        size: Size::Tiny,
        out: out_dir(),
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let report = run(&opts(workload, 3, trace)).expect("known workload");
            assert!(report.correct(), "{workload}: {:?}", report.problems);
            let line = report.json(trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            let catalog = if trace { PER_LAYER } else { END_TO_END };
            for (name, unit) in catalog {
                let v = report.values.get(name).copied().unwrap_or(0.0);
                let printed = format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
                assert!(
                    line.contains(&printed),
                    "{workload}: no {printed} in {line}"
                );
            }
            if !trace {
                for (name, _) in END_TO_END {
                    let v = report.values.get(name).copied().unwrap_or(0.0);
                    assert!(v > 0.0, "{workload}: end-to-end metric {name} is {v}");
                }
            } else {
                let traced = report
                    .values
                    .get("bench.traced_ops")
                    .copied()
                    .unwrap_or(0.0);
                assert!(
                    traced > 0.0,
                    "{workload}: traced pass recorded no operation"
                );
                let stem = opts(workload, 3, trace).stem();
                assert!(out_dir().join(format!("{stem}.spans.jsonl")).exists());
                assert!(out_dir().join(format!("{stem}.layers.txt")).exists());
            }
        }
    }
}

#[test]
fn exact_counters_repeat_under_a_seed_and_change_under_another() {
    for workload in WORKLOADS {
        let counters = |seed| {
            let report = run(&opts(workload, seed, false)).expect("known workload");
            assert!(report.correct(), "{workload}: {:?}", report.problems);
            report.counters.expect("exact counters recorded")
        };
        let first = counters(11);
        assert_eq!(
            first,
            counters(11),
            "{workload}: same seed, different counters"
        );
        assert_ne!(
            first,
            counters(12),
            "{workload}: another seed, same counters"
        );
    }
}

#[test]
fn a_counter_that_differs_from_the_previous_run_is_caught() {
    let dir = out_dir().join("counter-check");
    let _ = std::fs::remove_dir_all(&dir);
    let mut a = Counters::default();
    a.add("bytes", 42u64);
    assert!(
        against_previous(&dir, "k", &a).is_none(),
        "no previous run yet"
    );
    assert!(against_previous(&dir, "k", &a).is_none(), "same counters");
    let mut b = Counters::default();
    b.add("bytes", 43u64);
    let diff = against_previous(&dir, "k", &b).expect("a differing counter is reported");
    assert!(diff.contains("bytes 42 -> bytes 43"), "{diff}");
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = json.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in WORKLOADS {
        assert!(
            compact.contains(&format!("\"name\":\"{workload}\"")),
            "{workload}"
        );
    }
}
