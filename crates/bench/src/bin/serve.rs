//! Multi-session serving benchmark: M concurrent Reversi games, every move
//! searched as one session of the shared [`SearchService`], all sessions of
//! a move wave packed into batched kernel launches.
//!
//! Each wave admits one session per live game at a fixed per-move virtual
//! budget and runs the service to completion; the chosen moves advance the
//! games and the next wave begins. The *unbatched* baseline runs the very
//! same sessions (same position, same seed, same budget) back-to-back on
//! solo services — the aggregate-playouts/s ratio between the two is the
//! amortisation win of cross-session batching (one launch overhead and one
//! device round-trip per round instead of per session, and a merged grid
//! that actually covers the SMs).
//!
//! The JSON artifact carries one record per move (the standard phase
//! ledger, now including the `queue` phase, plus the session's virtual
//! latency) and one summary record (sessions-per-launch statistics,
//! aggregate playouts/s batched vs unbatched, and the per-move virtual
//! latency `latency_p50_ns`/`latency_p95_ns`/`latency_p99_ns`). No
//! wall-clock fields: the same seed must produce
//! byte-identical output at any `--host-threads` count — the CI
//! determinism gate diffs runs at different counts.
//!
//! Run: `cargo run --release -p pmcts-bench --bin serve -- [--full]`
//! (`--out DIR` also writes `DIR/serve.json`).
//!
//! # Fleet mode
//!
//! With `--sessions N` and/or `--devices D` the binary instead stresses
//! the fleet layer (`pmcts_core::fleet`, DESIGN.md §14): N single-move
//! sessions offered upfront to a fleet of D service shards, across four
//! scenarios — `nominal` (capacity fits the load), `overload` (admission
//! control must queue, displace and reject), `faulted` (every shard but
//! rank 0 dies mid-run and its sessions re-place), and `single_device`
//! (the same nominal load on one shard, the baseline for the fleet
//! speedup). The artifact (`fleet.json`) carries one record per scenario
//! — admission/placement telemetry, virtual move latency tails
//! `latency_p50_ns`/`latency_p99_ns`/`latency_p999_ns` (note p999, not
//! the serve summary's p95/p99 pair),
//! goodput, per-shard sub-records — plus a summary with the
//! fleet-vs-single-device aggregate throughput ratio. Everything is
//! virtual time: byte-identical at any `--host-threads`.
//!
//! Run: `cargo run --release -p pmcts-bench --bin serve -- --quick
//! --sessions 1000 --devices 8 --out DIR`.

use pmcts_bench::{midgame_position, percentile, phase_record, write_json, BenchArgs, JsonObject};
use pmcts_core::prelude::*;
use pmcts_util::{Rng64, SplitMix64};

/// Per-session search seed: one fresh stream per (game, ply).
fn session_seed(base: u64, game: u64, ply: u64) -> u64 {
    SplitMix64::derive(base, (ply << 32) | game).next_u64()
}

/// One fleet scenario's aggregates, for the cross-scenario summary.
struct ScenarioOut {
    record: JsonObject,
    sims: u64,
    makespan: SimTime,
}

/// Geometry knobs of one fleet scenario.
struct Scenario {
    name: &'static str,
    devices: u64,
    sessions: u64,
    shard_capacity: usize,
    queue_capacity: usize,
    wave_limit: usize,
    faults: FaultPlan,
}

/// Offers `sessions` single-move searches to a fleet of `devices` shards,
/// runs it dry, checks the fleet invariants, and folds the transcript into
/// one JSON record (per-shard sub-records nested).
fn run_scenario(sc: &Scenario, args: &BenchArgs, idx: u64) -> ScenarioOut {
    let budget_time = SimTime::from_millis(args.move_ms_or(2, 5));
    let budget = SearchBudget::VirtualTime(budget_time);
    let tpb = if args.full { 64 } else { 32 };
    let host_threads = args.host_threads_or(2);
    let seed = SplitMix64::derive(args.seed, idx).next_u64();

    let mut config = FleetConfig::new(seed);
    config.threads_per_block = tpb;
    config.shard_capacity = sc.shard_capacity;
    config.queue_capacity = sc.queue_capacity;
    config.wave_limit = sc.wave_limit;
    config.faults = sc.faults;
    let mut fleet: Fleet<Reversi> = Fleet::new(
        config,
        Device::fleet(DeviceSpec::tesla_c2050(), sc.devices as usize, host_threads),
    );
    // Admission capacity as the offer sequence sees it (shards all alive —
    // deaths fire at step time, after admission).
    let capacity = fleet.capacity() as u64;

    for s in 0..sc.sessions {
        let root = midgame_position(SplitMix64::derive(seed, s).next_u64(), (s % 8) as u32);
        let priority = Priority::ALL[(s % 3) as usize];
        fleet.offer(
            root,
            budget,
            MctsConfig::default().with_seed(session_seed(seed, s, 0)),
            priority,
            Some(budget_time),
        );
    }
    fleet.run_to_completion();
    let stats = fleet.stats();
    let completed = fleet.take_completed();
    let shards = fleet.shards();

    assert_eq!(stats.offered, sc.sessions);
    assert_eq!(stats.offered, stats.admitted + stats.rejected);
    assert_eq!(completed.len() as u64, stats.admitted);
    assert!(
        stats.rejected == 0 || stats.offered > capacity,
        "{}: rejects require offered load beyond capacity",
        sc.name
    );
    let placed: u64 = shards.iter().map(|s| s.placed).sum();
    assert_eq!(placed, stats.admitted, "{}: placement accounting", sc.name);

    let mut latencies: Vec<u64> = Vec::with_capacity(completed.len());
    let mut sims = 0u64;
    let mut good = 0u64;
    for c in &completed {
        assert_eq!(c.completed_at - c.admitted_at, c.report.elapsed);
        assert_eq!(c.report.phases.phase_sum(), c.report.elapsed);
        latencies.push(c.report.elapsed.as_nanos());
        sims += c.report.simulations;
        if c.report.best_move.is_some() && c.report.simulations > 0 {
            good += 1;
        }
    }
    latencies.sort_unstable();
    let (latency_p50, latency_p99, latency_p999) = (
        percentile(&latencies, 50.0),
        percentile(&latencies, 99.0),
        percentile(&latencies, 99.9),
    );
    let makespan = fleet.makespan();
    let virtual_sims_per_sec = sims as f64 / makespan.as_secs_f64().max(f64::MIN_POSITIVE);

    let shard_records: Vec<JsonObject> = shards
        .iter()
        .map(|s| {
            JsonObject::new()
                .u64_field("rank", s.rank.0 as u64)
                .u64_field("dead", u64::from(s.dead))
                .u64_field("placed", s.placed)
                .u64_field("replaced_in", s.replaced_in)
                .u64_field("clock_ns", s.clock.as_nanos())
                .u64_field("launches", s.launches)
                .u64_field("blocks", s.blocks)
        })
        .collect();

    let record = JsonObject::new()
        .str_field("kind", "scenario")
        .str_field("name", sc.name)
        .u64_field("devices", sc.devices)
        .u64_field("offered", stats.offered)
        .u64_field("capacity", capacity)
        .u64_field("shard_capacity", sc.shard_capacity as u64)
        .u64_field("queue_capacity", sc.queue_capacity as u64)
        .u64_field("wave_limit", sc.wave_limit as u64)
        .u64_field("budget_ns", budget_time.as_nanos())
        .u64_field("admitted", stats.admitted)
        .u64_field("queued", stats.queued)
        .u64_field("rejected", stats.rejected)
        .u64_field("replaced", stats.replaced)
        .u64_field(
            "admitted_interactive",
            stats.admitted_by_class[Priority::Interactive.index()],
        )
        .u64_field(
            "admitted_standard",
            stats.admitted_by_class[Priority::Standard.index()],
        )
        .u64_field(
            "admitted_batch",
            stats.admitted_by_class[Priority::Batch.index()],
        )
        .u64_field(
            "rejected_interactive",
            stats.rejected_by_class[Priority::Interactive.index()],
        )
        .u64_field(
            "rejected_standard",
            stats.rejected_by_class[Priority::Standard.index()],
        )
        .u64_field(
            "rejected_batch",
            stats.rejected_by_class[Priority::Batch.index()],
        )
        .u64_field("completed", completed.len() as u64)
        .u64_field("good", good)
        .u64_field(
            "dead_shards",
            shards.iter().filter(|s| s.dead).count() as u64,
        )
        .u64_field("latency_p50_ns", latency_p50)
        .u64_field("latency_p99_ns", latency_p99)
        .u64_field("latency_p999_ns", latency_p999)
        .u64_field("makespan_ns", makespan.as_nanos())
        .u64_field("sims", sims)
        .f64_field("virtual_sims_per_sec", virtual_sims_per_sec)
        .obj_array_field("shards", &shard_records);

    eprintln!(
        "# fleet {}: {} offered / {} admitted / {} rejected / {} replaced, \
         goodput {good}/{}, p50 {} p999 {} ns, makespan {} ns",
        sc.name,
        stats.offered,
        stats.admitted,
        stats.rejected,
        stats.replaced,
        completed.len(),
        latency_p50,
        latency_p999,
        makespan.as_nanos(),
    );
    ScenarioOut {
        record,
        sims,
        makespan,
    }
}

/// Fleet stress mode (`--sessions` / `--devices`): run the four scenarios
/// and write `fleet.json`.
fn fleet_mode(args: &BenchArgs) {
    let sessions = args.sessions_or(64, 256);
    let devices = args.devices_or(4, 8);
    let cap = 16;
    let scenarios = [
        // Capacity fits the load (deep queue): everything admitted, full
        // waves, the throughput half of the speedup ratio.
        Scenario {
            name: "nominal",
            devices,
            sessions,
            shard_capacity: cap,
            queue_capacity: sessions as usize,
            wave_limit: cap,
            faults: FaultPlan::none(),
        },
        // Offered load far beyond capacity and waves narrower than
        // residency: admission control rejects, the SLO scheduler starves
        // the latest deadlines first.
        Scenario {
            name: "overload",
            devices,
            sessions,
            shard_capacity: 4,
            queue_capacity: devices as usize,
            wave_limit: 2,
            faults: FaultPlan::none(),
        },
        // Every shard but rank 0 dies mid-run; its sessions re-place.
        Scenario {
            name: "faulted",
            devices,
            sessions,
            shard_capacity: cap,
            queue_capacity: sessions as usize,
            wave_limit: cap,
            faults: FaultPlan::dead_component(
                SplitMix64::derive(args.seed, 0xDEAD).next_u64(),
                1.0,
            ),
        },
        // The nominal load on one shard: the speedup baseline.
        Scenario {
            name: "single_device",
            devices: 1,
            sessions,
            shard_capacity: cap,
            queue_capacity: sessions as usize,
            wave_limit: cap,
            faults: FaultPlan::none(),
        },
    ];

    let mut records: Vec<JsonObject> = Vec::new();
    let mut outs: Vec<(&str, u64, SimTime)> = Vec::new();
    for (idx, sc) in scenarios.iter().enumerate() {
        let out = run_scenario(sc, args, idx as u64);
        outs.push((sc.name, out.sims, out.makespan));
        records.push(out.record);
    }

    let rate = |(_, sims, makespan): &(&str, u64, SimTime)| {
        *sims as f64 / makespan.as_secs_f64().max(f64::MIN_POSITIVE)
    };
    let nominal = outs.iter().find(|o| o.0 == "nominal").expect("nominal ran");
    let single = outs
        .iter()
        .find(|o| o.0 == "single_device")
        .expect("baseline ran");
    let speedup = rate(nominal) / rate(single);
    records.push(
        JsonObject::new()
            .str_field("kind", "summary")
            .u64_field("sessions", sessions)
            .u64_field("devices", devices)
            .u64_field("nominal_sims", nominal.1)
            .u64_field("nominal_makespan_ns", nominal.2.as_nanos())
            .u64_field("single_device_sims", single.1)
            .u64_field("single_device_makespan_ns", single.2.as_nanos())
            .f64_field("speedup_vs_single_device", speedup),
    );
    eprintln!("# fleet: {devices}-shard aggregate throughput {speedup:.2}x single-device");
    write_json("fleet", &records, args);
}

fn main() {
    let args = BenchArgs::parse();
    if args.sessions > 0 || args.devices > 0 {
        fleet_mode(&args);
        return;
    }
    let m = args.games_or(16, 16);
    let budget = SearchBudget::millis(args.move_ms_or(5, 8));
    let max_plies = if args.full { 8 } else { 2 };
    let tpb = if args.full { 64 } else { 32 };
    let host_threads = args.host_threads_or(2);
    let device = || Device::new(DeviceSpec::tesla_c2050()).with_host_threads(host_threads);

    let mut games: Vec<Reversi> = (0..m).map(|_| Reversi::initial()).collect();
    let mut live: Vec<bool> = vec![true; m as usize];

    // One shared service for the whole batched run; its clock accumulates
    // the total virtual serving time across every wave.
    let mut svc = SearchService::<Reversi>::new(device(), tpb, args.seed);
    let mut records: Vec<JsonObject> = Vec::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut batched_sims = 0u64;
    let mut unbatched_sims = 0u64;
    let mut unbatched_time = SimTime::ZERO;

    for ply in 0..max_plies {
        // Admit one session per live game — and run the identical session
        // solo for the unbatched baseline.
        let mut admitted: Vec<(usize, SessionId)> = Vec::new();
        for g in 0..m as usize {
            if !live[g] || games[g].is_terminal() {
                live[g] = false;
                continue;
            }
            let cfg =
                MctsConfig::default().with_seed(session_seed(args.seed, g as u64, ply as u64));
            let id = svc.admit(
                games[g],
                budget,
                cfg.clone(),
                SessionScheme::Sequential,
                None,
            );
            admitted.push((g, id));

            let mut solo = SearchService::<Reversi>::new(device(), tpb, args.seed);
            solo.admit(games[g], budget, cfg, SessionScheme::Sequential, None);
            solo.run_to_completion();
            let done = solo.take_completed();
            unbatched_sims += done[0].report.simulations;
            unbatched_time += solo.clock();
        }
        if admitted.is_empty() {
            break;
        }
        svc.run_to_completion();
        let mut completed = svc.take_completed();
        assert_eq!(completed.len(), admitted.len());
        // Session ids are assigned in admission order, so sorting by id
        // re-aligns completion order with `admitted`.
        completed.sort_by_key(|c| c.id.0);

        for ((g, id), c) in admitted.iter().zip(&completed) {
            assert_eq!(*id, c.id);
            assert_eq!(
                c.report.phases.phase_sum(),
                c.report.elapsed,
                "game {g} ply {ply}: phase ledger must sum to elapsed"
            );
            let latency = c.completed_at - c.admitted_at;
            assert_eq!(latency, c.report.elapsed, "latency equals session time");
            latencies.push(latency.as_nanos());
            batched_sims += c.report.simulations;
            records.push(
                phase_record("serve_move", &c.report)
                    .str_field("kind", "move")
                    .u64_field("game", *g as u64)
                    .u64_field("ply", ply as u64)
                    .u64_field("session", c.id.0)
                    .u64_field("latency_ns", latency.as_nanos()),
            );
            let mv = c
                .report
                .best_move
                .unwrap_or_else(|| panic!("game {g} ply {ply}: no move from live game"));
            games[*g].apply(mv);
        }
    }

    let batched_time = svc.clock();
    let launches = svc.launches();
    let total_batched_sessions: u64 = launches.iter().map(|l| u64::from(l.sessions)).sum();
    let sessions_per_launch_mean = total_batched_sessions as f64 / launches.len() as f64;
    let sessions_per_launch_max = launches.iter().map(|l| l.sessions).max().unwrap_or(0);
    let pps = |sims: u64, t: SimTime| sims as f64 / (t.as_nanos() as f64 / 1e9);
    let batched_pps = pps(batched_sims, batched_time);
    let unbatched_pps = pps(unbatched_sims, unbatched_time);

    latencies.sort_unstable();
    records.push(
        JsonObject::new()
            .str_field("kind", "summary")
            .u64_field("games", m)
            .u64_field("moves", latencies.len() as u64)
            .u64_field(
                "move_budget_ns",
                match budget {
                    SearchBudget::VirtualTime(t) => t.as_nanos(),
                    SearchBudget::Iterations(_) => 0,
                },
            )
            .u64_field("launches", launches.len() as u64)
            .f64_field("sessions_per_launch_mean", sessions_per_launch_mean)
            .u64_field(
                "sessions_per_launch_max",
                u64::from(sessions_per_launch_max),
            )
            .u64_field("batched_sims", batched_sims)
            .u64_field("batched_time_ns", batched_time.as_nanos())
            .u64_field("unbatched_sims", unbatched_sims)
            .u64_field("unbatched_time_ns", unbatched_time.as_nanos())
            .f64_field("batched_playouts_per_sec", batched_pps)
            .f64_field("unbatched_playouts_per_sec", unbatched_pps)
            .f64_field("batched_speedup_vs_unbatched", batched_pps / unbatched_pps)
            .u64_field("latency_p50_ns", percentile(&latencies, 50.0))
            .u64_field("latency_p95_ns", percentile(&latencies, 95.0))
            .u64_field("latency_p99_ns", percentile(&latencies, 99.0)),
    );

    eprintln!(
        "# serve: {} moves over {} games, {} launches, {:.1} sessions/launch, \
         {:.0} batched vs {:.0} unbatched playouts/s ({:.2}x)",
        latencies.len(),
        m,
        launches.len(),
        sessions_per_launch_mean,
        batched_pps,
        unbatched_pps,
        batched_pps / unbatched_pps
    );
    write_json("serve", &records, &args);
}
