//! Metrics and the printed records.
//!
//! End-to-end metrics come from the untraced run only; per-layer metrics
//! from the traced run. Every metric is printed as `name: {value, unit}`.

use crate::json::Value;
use crate::stats::{median, ratio, tail};
use crate::workloads::RunData;
use crate::Plan;

/// A named, unit-labelled value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Stable metric name.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// The value, with every digit.
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(run: &RunData) -> Vec<Metric> {
    let wall = ms(&run.op_wall_ns);
    let latency = ms(&run.virt.latencies_ns);
    vec![
        m("setup_s", "s", median(&run.setup_s)),
        m(
            "playouts_per_s",
            "1/s",
            ratio(run.playouts as f64, run.window_s),
        ),
        m("moves_per_s", "1/s", ratio(run.moves as f64, run.window_s)),
        m("op_wall_ms_p50", "ms", median(&wall)),
        m("op_wall_ms_tail", "ms", tail(&wall).value),
        m("peak_rss_mb", "MiB", peak_rss_mb()),
        m(
            "virtual_sims_per_s",
            "1/s",
            ratio(run.virt.sims as f64, run.virt.elapsed_ns as f64 / 1e9),
        ),
        m("virtual_latency_ms_p50", "ms", median(&latency)),
        m("virtual_latency_ms_tail", "ms", tail(&latency).value),
        m(
            "slo_met_ratio",
            "ratio",
            ratio(run.virt.slo_met as f64, run.virt.requests as f64),
        ),
    ]
}

/// The per-layer metrics of a traced run (`run.layers` must be set).
/// Metrics of a layer a workload does not exercise read 0.
pub fn per_layer(run: &RunData, plan: &Plan) -> Vec<Metric> {
    let l = run
        .layers
        .as_ref()
        .expect("per-layer metrics need a traced run");
    let r = &l.replay;
    let g = &run.virt.ledger;
    let ops = run.op_wall_ns.len().max(1) as f64;
    let mean_wall_ns = run.op_wall_ns.iter().sum::<u64>() as f64 / ops;
    let executor = ratio(
        l.playouts_per_op / r.launch_lanes.max(1) as f64 * r.launch_wall_ns_p50,
        mean_wall_ns,
    );
    let tree = ratio(
        l.tree_iters_per_op * r.tree_iteration_ns() / l.tree_parallelism.max(1.0),
        mean_wall_ns,
    );
    let phase_total: u64 = g.phases_ns.iter().sum();
    let phase = |i: usize| ratio(g.phases_ns[i] as f64, phase_total as f64);
    let budget_ns = plan.sizes.budget_ms as f64 * 1e6;
    let traced: Vec<f64> = pick(run, true);
    let untraced: Vec<f64> = pick(run, false);
    let overhead = if traced.is_empty() || untraced.is_empty() {
        0.0
    } else {
        median(&traced) / median(&untraced) - 1.0
    };
    let (lane_eff, occupancy) = if g.lane_steps > 0 {
        (
            g.lane_steps as f64 / (g.lane_steps + g.idle_lane_steps) as f64,
            g.occupancy_sum / g.kernel_launches.max(1) as f64,
        )
    } else {
        // Service sessions do not fold kernel statistics into their
        // reports; fall back to the replayed launch at the same geometry.
        (r.launch_lane_efficiency, r.launch_occupancy)
    };
    vec![
        m(
            "games.playout.playouts_per_s",
            "1/s",
            ratio(1e9, r.scalar_playout_ns),
        ),
        m(
            "games.playout.plies_per_playout",
            "count",
            r.plies_per_playout,
        ),
        m(
            "games.lane_batch.playouts_per_s",
            "1/s",
            ratio(1e9, r.lane_playout_ns),
        ),
        m(
            "games.lane_batch.speedup_vs_scalar",
            "ratio",
            ratio(r.scalar_playout_ns, r.lane_playout_ns),
        ),
        m(
            "gpu_sim.executor.launch_wall_ms_p50",
            "ms",
            r.launch_wall_ns_p50 / 1e6,
        ),
        m(
            "gpu_sim.executor.lane_steps_per_s",
            "1/s",
            r.lane_steps_per_s,
        ),
        m(
            "gpu_sim.executor.launches_per_op",
            "count",
            l.launches_per_op,
        ),
        m("gpu_sim.executor.lane_efficiency", "ratio", lane_eff),
        m("gpu_sim.executor.mean_occupancy", "ratio", occupancy),
        m("gpu_sim.executor.attributed_share", "ratio", executor),
        m("core.tree.select_ops_per_s", "1/s", ratio(1e9, r.select_ns)),
        m("core.tree.expand_ops_per_s", "1/s", ratio(1e9, r.expand_ns)),
        m(
            "core.tree.backprop_ops_per_s",
            "1/s",
            ratio(1e9, r.backprop_ns),
        ),
        m("core.tree.nodes_per_op", "count", g.per_op(g.tree_nodes)),
        m("core.tree.attributed_share", "ratio", tree),
        m("core.searcher.select_share", "ratio", phase(0)),
        m("core.searcher.expand_share", "ratio", phase(1)),
        m("core.searcher.queue_share", "ratio", phase(2)),
        m("core.searcher.upload_share", "ratio", phase(3)),
        m("core.searcher.kernel_share", "ratio", phase(4)),
        m("core.searcher.readback_share", "ratio", phase(5)),
        m(
            "core.searcher.iterations_per_op",
            "count",
            g.per_op(g.iterations),
        ),
        m("core.searcher.sims_per_op", "count", g.per_op(g.sims)),
        m(
            "core.searcher.budget_overshoot_ratio",
            "ratio",
            ratio(g.overshoot_ns as f64, g.ops as f64 * budget_ns),
        ),
        m(
            "core.searcher.self_wall_share",
            "ratio",
            1.0 - executor - tree,
        ),
        m(
            "core.device_tree.playout_share",
            "ratio",
            ratio(
                l.playouts_per_op * r.scalar_playout_ns / plan.host_threads as f64,
                mean_wall_ns,
            ),
        ),
        m(
            "core.service.blocks_per_launch",
            "count",
            l.blocks_per_launch,
        ),
        m("core.fleet.offer_wall_share", "ratio", l.offer_wall_share),
        m("core.fleet.admitted_per_op", "count", l.admitted_per_op),
        m("core.fleet.rejected", "count", l.rejected),
        m("core.fleet.waves", "count", l.waves),
        m(
            "core.arena.self_wall_share",
            "ratio",
            l.arena_self_wall_share,
        ),
        m("core.arena.moves_per_game", "count", l.moves_per_game),
        m("trace.overhead", "ratio", overhead),
    ]
}

/// Op wall times (ms) of the traced or the untraced ops.
fn pick(run: &RunData, traced: bool) -> Vec<f64> {
    run.op_wall_ns
        .iter()
        .zip(&run.op_traced)
        .filter(|(_, &t)| t == traced)
        .map(|(&ns, _)| ns as f64 / 1e6)
        .collect()
}

/// The run record: what was run, how the tails were read, the virtual
/// digest and the workload's own facts. Printed before the result line.
pub fn run_record(run: &RunData, plan: &Plan) -> Value {
    let wall_tail = tail(&ms(&run.op_wall_ns));
    let latency_tail = tail(&ms(&run.virt.latencies_ns));
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut record = Value::obj()
        .with("record", "run")
        .with("workload", plan.workload.name())
        .with("seed", plan.seed)
        .with("seconds", plan.seconds)
        .with("host_threads", plan.host_threads)
        .with("available_parallelism", parallelism)
        .with("trace", plan.trace)
        .with("ops", run.op_wall_ns.len())
        .with("window_s", run.window_s)
        .with("setup_reps", run.setup_s.len())
        .with("op_wall_ms_tail_percentile", wall_tail.percentile)
        .with("op_wall_ms_tail_samples", wall_tail.samples)
        .with("virtual_window_requests", run.virt.requests)
        .with(
            "virtual_latency_ms_tail_percentile",
            latency_tail.percentile,
        )
        .with("virtual_latency_ms_tail_samples", latency_tail.samples)
        .with("virtual_digest", format!("{:016x}", run.virt.digest))
        .with(
            "failed_ratio",
            ratio(run.checks.failed as f64, run.checks.attempted as f64),
        );
    for (k, v) in &run.info {
        record = record.with(k, v.clone());
    }
    record
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> Value {
    let mut obj = Value::obj();
    for mt in metrics {
        obj = obj.with(
            mt.name,
            Value::obj().with("value", mt.value).with("unit", mt.unit),
        );
    }
    Value::obj()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", obj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parses, valid_name};
    use crate::workloads::{LayerData, VirtualWindow};
    use crate::{Sizes, Workload};

    fn synthetic() -> (RunData, Plan) {
        let plan = Plan {
            workload: Workload::FleetServe,
            seed: 1,
            seconds: 1.0,
            host_threads: 2,
            trace: true,
            sizes: Sizes::full(Workload::FleetServe),
        };
        let mut run = RunData {
            setup_s: vec![0.3, 0.2, 0.4],
            op_wall_ns: (1..=40).map(|i| i * 1_000_000).collect(),
            op_traced: (0..40).map(|i| i % 2 == 0).collect(),
            window_s: 1.5,
            playouts: 12_345,
            moves: 40,
            virt: VirtualWindow {
                latencies_ns: vec![19_000_000, 20_000_000, 21_000_000],
                sims: 1000,
                elapsed_ns: 5_000_000,
                requests: 4,
                slo_met: 2,
                ..VirtualWindow::default()
            },
            info: vec![("lambda", 6.0.into())],
            layers: Some(LayerData::default()),
            ..RunData::default()
        };
        run.layers.as_mut().unwrap().replay.scalar_playout_ns = 2500.0;
        (run, plan)
    }

    #[test]
    fn end_to_end_metrics_follow_their_definitions() {
        let (run, _) = synthetic();
        let e = end_to_end(&run);
        let get = |n: &str| e.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get("setup_s"), 0.3);
        assert_eq!(get("playouts_per_s"), 12_345.0 / 1.5);
        assert_eq!(get("op_wall_ms_p50"), 20.5);
        // 40 samples: p75 is rank 30, leaving 10 beyond.
        assert_eq!(get("op_wall_ms_tail"), 30.0);
        assert_eq!(get("virtual_sims_per_s"), 200_000.0);
        // 3 samples: below the tail rule, the median.
        assert_eq!(get("virtual_latency_ms_tail"), 20.0);
        assert_eq!(get("slo_met_ratio"), 0.5);
        assert!(get("peak_rss_mb") > 0.0);
    }

    #[test]
    fn every_printed_record_parses_and_every_name_is_valid() {
        let (run, plan) = synthetic();
        let e2e = end_to_end(&run);
        let layers = per_layer(&run, &plan);
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|x| x.name).collect();
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), e2e.len() + layers.len(), "names are unique");
        for record in [
            run_record(&run, &plan),
            result_line(true, 40, 0, &e2e),
            result_line(true, 40, 0, &layers),
        ] {
            let text = record.render();
            assert!(parses(&text), "{text}");
            assert!(!text.contains('\n'), "one record per line");
        }
        let Value::Obj(fields) = run_record(&run, &plan) else {
            unreachable!()
        };
        assert!(fields.iter().all(|(k, _)| valid_name(k)));
    }
}
