//! Drives all four workloads through their library entry points at about
//! 1/50 of their size, so `cargo test --workspace` keeps the benchmark
//! alive: the output checks pass, every metric `BENCHMARK.json` names is
//! printed, and the virtual window is identical at 1 and 2 host threads.

use pmcts_benchmark::report::{end_to_end, per_layer};
use pmcts_benchmark::trace::Tracer;
use pmcts_benchmark::workloads::{run, RunData};
use pmcts_benchmark::{Plan, Sizes, Workload};

const BENCHMARK: &str = include_str!("../../../BENCHMARK.json");

/// The `"name"` values of the section of `BENCHMARK.json` that starts at
/// key `from` and ends at key `to` (or the end of the file).
fn names(from: &str, to: Option<&str>) -> Vec<String> {
    let start = BENCHMARK
        .find(&format!("\"{from}\""))
        .expect("section present");
    let end = to.map_or(BENCHMARK.len(), |t| {
        BENCHMARK
            .find(&format!("\"{t}\""))
            .expect("section present")
    });
    let section = &BENCHMARK[start..end];
    section
        .match_indices("\"name\": \"")
        .map(|(i, key)| {
            let rest = &section[i + key.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

fn smoke(workload: Workload, host_threads: usize, trace: bool) -> (Plan, RunData) {
    let plan = Plan {
        workload,
        seed: 7,
        seconds: 0.05,
        host_threads,
        trace,
        sizes: Sizes::smoke(workload),
    };
    let data = run(&plan, &mut Tracer::new(trace));
    assert_eq!(
        data.checks.failed,
        0,
        "{}: {:?}",
        workload.name(),
        data.checks.failures
    );
    assert!(data.checks.attempted > 0);
    (plan, data)
}

#[test]
fn benchmark_json_names_the_four_workloads() {
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names("workloads", Some("end_to_end")), expected);
}

#[test]
fn every_workload_passes_its_checks_and_prints_every_metric() {
    let e2e = names("end_to_end", Some("per_layer"));
    let layers = names("per_layer", None);
    for w in Workload::ALL {
        let (_, untraced) = smoke(w, 2, false);
        let printed = end_to_end(&untraced);
        let got: Vec<&str> = printed.iter().map(|m| m.name).collect();
        assert_eq!(got, e2e, "{}: end-to-end metrics", w.name());
        for m in &printed {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }

        let (plan, traced) = smoke(w, 2, true);
        assert!(traced.layers.as_ref().unwrap().replay.consistent);
        let got: Vec<&str> = per_layer(&traced, &plan).iter().map(|m| m.name).collect();
        assert_eq!(got, layers, "{}: per-layer metrics", w.name());

        // Virtual results are a pure function of the seed.
        let (_, one_thread) = smoke(w, 1, false);
        assert_eq!(one_thread.virt, untraced.virt, "{}", w.name());
        assert_eq!(traced.virt, untraced.virt, "{}", w.name());
    }
}
