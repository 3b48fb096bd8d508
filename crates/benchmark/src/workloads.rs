//! The four workloads: set-up and warm-up, the timed window, and the
//! output checks. Each returns the raw [`RunData`]; `report` turns it into
//! metrics.

use crate::inputs::{position, search_seed, stratified_plies, Arrivals};
use crate::json::Value;
use crate::layers::{replay, Replay};
use crate::trace::Tracer;
use crate::{Plan, Workload};
use pmcts_core::prelude::*;
use pmcts_games::{MoveBuf, ReversiMove};
use pmcts_gpu_sim::WorkerPool;
use pmcts_util::WinLoss;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Streams of the warm-up searches, clear of every timed op's stream.
const WARMUP_STREAM: u64 = 1 << 40;
/// Stream of the fleet's service seed.
const FLEET_STREAM: u64 = 1 << 41;
/// Roots kept for the layer replays.
const REPLAY_ROOTS: usize = 64;

/// Summed search reports of the virtual window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    /// Reports summed.
    pub ops: u64,
    /// Phase times, ns: select, expand, queue, upload, kernel, readback.
    pub phases_ns: [u64; 6],
    /// Virtual ns beyond the budget.
    pub overshoot_ns: u64,
    /// Host-driven iterations (device-resident: rounds).
    pub iterations: u64,
    /// Playouts.
    pub sims: u64,
    /// Tree expansions: one per select / expand / backprop tree iteration
    /// that grew the tree.
    pub expansions: u64,
    /// Live tree nodes at the end of each search.
    pub tree_nodes: u64,
    /// Kernel launches.
    pub kernel_launches: u64,
    /// Useful lane steps.
    pub lane_steps: u64,
    /// Divergence-idle lane steps.
    pub idle_lane_steps: u64,
    /// Sum of per-launch occupancy.
    pub occupancy_sum: f64,
}

impl Ledger {
    fn add<M>(&mut self, r: &SearchReport<M>) {
        let p = &r.phases;
        self.ops += 1;
        for (acc, t) in self
            .phases_ns
            .iter_mut()
            .zip([p.select, p.expand, p.queue, p.upload, p.kernel, p.readback])
        {
            *acc += t.as_nanos();
        }
        self.overshoot_ns += p.budget_overshoot.as_nanos();
        self.iterations += r.iterations;
        self.sims += r.simulations;
        self.expansions += p.expansions;
        self.tree_nodes += r.tree_nodes;
        self.kernel_launches += p.kernel_launches;
        self.lane_steps += p.lane_steps;
        self.idle_lane_steps += p.idle_lane_steps;
        self.occupancy_sum += p.occupancy_sum;
    }

    /// Mean of a per-op total.
    pub fn per_op(&self, total: u64) -> f64 {
        total as f64 / self.ops.max(1) as f64
    }
}

/// Requests of the virtual window: a fixed prefix of each workload's ops,
/// so every number here is a pure function of the seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VirtualWindow {
    /// Virtual latency of each served request, ns.
    pub latencies_ns: Vec<u64>,
    /// Simulations, for virtual sims/s.
    pub sims: u64,
    /// Virtual ns the simulations took (searches: summed elapsed; fleet:
    /// makespan).
    pub elapsed_ns: u64,
    /// Requests, served or refused.
    pub requests: u64,
    /// Requests answered with a legal move within the SLO.
    pub slo_met: u64,
    /// Hash of each request's best move, simulations and latency.
    pub digest: u64,
    /// The served requests' reports, summed.
    pub ledger: Ledger,
}

impl VirtualWindow {
    fn record<M: std::fmt::Debug>(
        &mut self,
        r: &SearchReport<M>,
        latency: SimTime,
        slo: SimTime,
        ok: bool,
    ) {
        self.requests += 1;
        self.latencies_ns.push(latency.as_nanos());
        self.sims += r.simulations;
        self.elapsed_ns += r.elapsed.as_nanos();
        if ok && latency <= slo {
            self.slo_met += 1;
        }
        for bytes in [
            format!("{:?}", r.best_move).as_bytes(),
            &r.simulations.to_le_bytes(),
            &latency.as_nanos().to_le_bytes(),
        ] {
            for &b in bytes {
                self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
            }
        }
        self.ledger.add(r);
    }
}

/// Output checks: requests attempted and the ones that failed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Checks {
    /// Requests attempted in the timed window.
    pub attempted: u64,
    /// Failed requests and failed checks.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

impl Checks {
    fn attempt(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        self.fail_if(result);
    }

    fn fail_if(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(e);
            }
        }
    }
}

/// Layer inputs and workload-side layer numbers of a traced run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerData {
    /// The lower-layer replays.
    pub replay: Replay,
    /// Playouts behind one op.
    pub playouts_per_op: f64,
    /// Tree select/expand/backprop iterations behind one op.
    pub tree_iters_per_op: f64,
    /// Host threads those iterations spread over.
    pub tree_parallelism: f64,
    /// Blocks per kernel launch.
    pub blocks_per_launch: f64,
    /// Kernel launches per op.
    pub launches_per_op: f64,
    /// Fleet: share of offer + wave wall time spent in `offer`.
    pub offer_wall_share: f64,
    /// Fleet: sessions admitted per wave.
    pub admitted_per_op: f64,
    /// Fleet: sessions refused.
    pub rejected: f64,
    /// Fleet: timed waves.
    pub waves: f64,
    /// Arena: share of game wall time outside the searches.
    pub arena_self_wall_share: f64,
    /// Arena: searches per finished game.
    pub moves_per_game: f64,
}

/// Everything one run measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunData {
    /// Wall seconds of each set-up repetition (pool, devices, generator,
    /// searcher or fleet, warm-up op).
    pub setup_s: Vec<f64>,
    /// Wall ns of each timed op.
    pub op_wall_ns: Vec<u64>,
    /// Whether each op ran with spans on (traced runs alternate).
    pub op_traced: Vec<bool>,
    /// Wall seconds of the timed window.
    pub window_s: f64,
    /// Playouts completed in the timed window.
    pub playouts: u64,
    /// Searches (fleet: sessions retired) in the timed window.
    pub moves: u64,
    /// Output checks.
    pub checks: Checks,
    /// The virtual window.
    pub virt: VirtualWindow,
    /// Workload-specific facts for the run record.
    pub info: Vec<(&'static str, Value)>,
    /// Per-layer inputs (traced runs only).
    pub layers: Option<LayerData>,
}

/// Runs `plan`, recording spans into `tracer` when it is on.
pub fn run(plan: &Plan, tracer: &mut Tracer) -> RunData {
    match plan.workload {
        Workload::PaperMove => closed_loop_moves(plan, tracer, BlockParallelSearcher::new),
        Workload::ResidentMove => closed_loop_moves(plan, tracer, DeviceTreeSearcher::new),
        Workload::FleetServe => fleet_serve(plan, tracer),
        Workload::HexArena => hex_arena(plan, tracer),
    }
}

fn new_device(host_threads: usize) -> Device {
    Device::new_with_pool(
        DeviceSpec::tesla_c2050(),
        Arc::new(WorkerPool::new(host_threads)),
    )
}

fn config(seed: u64, stream: u64) -> MctsConfig {
    MctsConfig::default().with_seed(search_seed(seed, stream))
}

fn is_legal<G: Game>(root: &G, mv: Option<G::Move>) -> bool {
    let mut buf = MoveBuf::new();
    root.legal_moves(&mut buf);
    mv.is_some_and(|m| buf.as_slice().contains(&m))
}

/// A legal best move and an exact seven-phase ledger.
fn report_check<G: Game>(root: &G, r: &SearchReport<G::Move>) -> Result<(), String> {
    if !is_legal(root, r.best_move) {
        return Err(format!("best move {:?} not legal", r.best_move));
    }
    if r.phases.phase_sum() != r.elapsed {
        return Err(format!(
            "phase sum {} ns != elapsed {} ns",
            r.phases.phase_sum().as_nanos(),
            r.elapsed.as_nanos()
        ));
    }
    Ok(())
}

fn deadline(plan: &Plan) -> Instant {
    Instant::now() + Duration::from_secs_f64(plan.seconds)
}

/// `paper_move` and `resident_move`: a fresh searcher per move on a
/// stratified mid-game position, one caller.
fn closed_loop_moves<S: Searcher<Reversi>>(
    plan: &Plan,
    tracer: &mut Tracer,
    make: fn(MctsConfig, Device, LaunchConfig) -> S,
) -> RunData {
    let sz = &plan.sizes;
    let launch = LaunchConfig::new(sz.blocks, sz.threads);
    let budget = SearchBudget::millis(sz.budget_ms);
    let slo = SimTime::from_millis(sz.budget_ms);
    let (lo, hi) = sz.plies;
    let mut run = RunData::default();
    let wl = tracer.begin(plan.workload.name(), None, None);

    let mut device = None;
    for rep in 0..sz.setup_reps as u64 {
        let span = tracer.begin("setup", wl, None);
        let t = Instant::now();
        let dev = new_device(plan.host_threads);
        let root: Reversi = position(plan.seed, WARMUP_STREAM + rep, hi);
        let mut searcher = make(config(plan.seed, WARMUP_STREAM + rep), dev.clone(), launch);
        let r = searcher.search(root, SearchBudget::millis(sz.warmup_ms));
        run.checks.fail_if(report_check(&root, &r));
        run.setup_s.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        device = Some(dev);
    }
    let device = device.expect("at least one set-up repetition");

    let mut roots = Vec::new();
    let end = deadline(plan);
    let start = Instant::now();
    let mut i = 0usize;
    while i < sz.virtual_window || Instant::now() < end {
        let root: Reversi = position(plan.seed, i as u64, stratified_plies(i, lo, hi));
        let mut searcher = make(config(plan.seed, i as u64), device.clone(), launch);
        let traced = plan.trace && i % 2 == 0;
        tracer.set_on(traced);
        // Op timing includes its own spans, so traced and untraced ops
        // compare into `trace.overhead`.
        let t = Instant::now();
        let op = tracer.begin("op", wl, Some(i as u64));
        let call = tracer.begin("core.searcher.search", op, Some(i as u64));
        let report = searcher.search(root, budget);
        tracer.end(call);
        tracer.end(op);
        let wall = t.elapsed();
        tracer.set_on(plan.trace);

        let check = report_check(&root, &report);
        if i < sz.virtual_window {
            run.virt.record(&report, report.elapsed, slo, check.is_ok());
        }
        run.checks.attempt(check);
        run.op_wall_ns.push(wall.as_nanos() as u64);
        run.op_traced.push(traced);
        run.playouts += report.simulations;
        run.moves += 1;
        if roots.len() < REPLAY_ROOTS {
            roots.push(root);
        }
        i += 1;
    }
    run.window_s = start.elapsed().as_secs_f64();
    tracer.end(wl);

    if plan.trace {
        let ledger = &run.virt.ledger;
        let nodes_per_tree = ledger.per_op(ledger.tree_nodes) / f64::from(sz.blocks);
        run.layers = Some(LayerData {
            replay: replay(
                &roots,
                &device,
                launch,
                nodes_per_tree as usize,
                sz.replay_playouts,
                sz.replay_tree_iterations,
                tracer,
            ),
            playouts_per_op: ledger.per_op(ledger.sims),
            tree_iters_per_op: ledger.per_op(ledger.expansions),
            // Trees fan out over the worker pool (in-kernel on the
            // device-resident scheme, host phases on block parallelism).
            tree_parallelism: plan.host_threads as f64,
            blocks_per_launch: f64::from(sz.blocks),
            launches_per_op: ledger.per_op(ledger.kernel_launches),
            ..LayerData::default()
        });
    }
    run
}

/// Drives one fleet: offers each wave's Poisson arrivals, steps the wave,
/// and checks and books every refusal and retirement.
struct FleetRun {
    fleet: Fleet<Reversi>,
    arrivals: Arrivals,
    seed: u64,
    budget: SimTime,
    tpb: u64,
    /// Root of every offered session, by fleet session id.
    roots: Vec<Reversi>,
    /// Waves whose offers form the virtual window.
    window_waves: u64,
    /// Sessions offered in the window's waves, once they are over.
    window: Option<u64>,
    /// Window sessions retired or refused so far.
    window_closed: u64,
    /// Lanes launched and makespan at the end of the window's waves.
    throughput: (u64, u64),
    retired: u64,
    moves: u64,
    checks: Checks,
    virt: VirtualWindow,
}

impl FleetRun {
    fn new(plan: &Plan) -> Self {
        let sz = &plan.sizes;
        let config = FleetConfig {
            threads_per_block: sz.threads,
            wave_limit: sz.wave_limit,
            shard_capacity: sz.shard_capacity,
            queue_capacity: 0,
            ..FleetConfig::new(search_seed(plan.seed, FLEET_STREAM))
        };
        let devices = Device::fleet(DeviceSpec::tesla_c2050(), sz.shards, plan.host_threads);
        FleetRun {
            fleet: Fleet::new(config, devices),
            arrivals: Arrivals::new(plan.seed, sz.lambda, sz.plies.1),
            seed: plan.seed,
            budget: SimTime::from_millis(sz.budget_ms),
            tpb: u64::from(sz.threads),
            roots: Vec::new(),
            window_waves: sz.virtual_window as u64,
            window: None,
            window_closed: 0,
            throughput: (0, 0),
            retired: 0,
            moves: 0,
            checks: Checks::default(),
            virt: VirtualWindow::default(),
        }
    }

    /// Lanes launched and launches made, over every shard.
    fn lanes_and_launches(&self) -> (u64, u64) {
        self.fleet.shards().iter().fold((0, 0), |(b, l), s| {
            (b + s.blocks * self.tpb, l + s.launches)
        })
    }

    fn window_done(&self) -> bool {
        self.window == Some(self.window_closed)
    }

    /// One op: this wave's offers, then `step_wave`. Offers of `timed`
    /// waves count as attempted requests. Returns the wall time of
    /// `step_wave`.
    fn wave(&mut self, tracer: &mut Tracer, parent: Option<usize>, timed: bool) -> Duration {
        let wave = self.fleet.wave() + 1;
        let window = self.window.unwrap_or(u64::MAX);
        for _ in 0..self.arrivals.count(wave) {
            let index = self.roots.len() as u64;
            let spec = self.arrivals.session(index);
            let root: Reversi = position(self.seed, index, spec.plies);
            self.roots.push(root);
            let span = tracer.begin("core.fleet.offer", parent, Some(wave));
            let admission = self.fleet.offer(
                root,
                SearchBudget::VirtualTime(self.budget),
                MctsConfig::default().with_seed(spec.seed),
                spec.priority,
                Some(self.budget),
            );
            tracer.end(span);
            let result = if admission == Admission::Rejected {
                if index < window {
                    self.virt.requests += 1;
                    self.window_closed += 1;
                }
                Err(format!("session f{index} refused"))
            } else {
                Ok(())
            };
            if timed {
                self.checks.attempt(result);
            } else {
                self.checks.fail_if(result);
            }
        }

        let t = Instant::now();
        let span = tracer.begin("core.fleet.step_wave", parent, Some(wave));
        self.fleet.step_wave();
        tracer.end(span);
        let wall = t.elapsed();

        for c in self.fleet.take_completed() {
            self.retire(&c, window);
            self.moves += u64::from(timed);
        }
        if self.window.is_none() && wave >= self.window_waves {
            // Fleet throughput over the window's waves: every lane of every
            // launch, over the furthest shard clock.
            self.window = Some(self.roots.len() as u64);
            self.throughput = (
                self.lanes_and_launches().0,
                self.fleet.makespan().as_nanos(),
            );
        }
        wall
    }

    /// Checks one retired session — legal move, exact ledger, and the
    /// shard-clock identity `completed_at − admitted_at == elapsed` — and
    /// books it into the virtual window if it belongs there.
    fn retire(&mut self, c: &FleetCompleted<ReversiMove>, window: u64) {
        let root = &self.roots[c.id.0 as usize];
        let latency = c.completed_at - c.admitted_at;
        let check = report_check(root, &c.report).and_then(|()| {
            if latency == c.report.elapsed {
                Ok(())
            } else {
                Err(format!("session {}: latency != elapsed", c.id))
            }
        });
        if c.id.0 < window {
            self.virt
                .record(&c.report, latency, self.budget, check.is_ok());
            self.window_closed += 1;
        }
        self.checks.fail_if(check);
        self.retired += 1;
    }
}

/// `fleet_serve`: open-loop Poisson offers onto an 8-shard fleet, one
/// `step_wave` per op, no wait queue (so virtual latency counts from
/// arrival and a full fleet refuses).
fn fleet_serve(plan: &Plan, tracer: &mut Tracer) -> RunData {
    let sz = &plan.sizes;
    let mut run = RunData::default();
    let wl = tracer.begin(plan.workload.name(), None, None);

    // Warm-up: the schedule's first waves, until `warmup_ms` of virtual
    // time has passed (five 20 ms session lifetimes), so the timed window
    // starts near steady-state residency.
    let warm_up = SimTime::from_millis(sz.warmup_ms);
    let mut last = None;
    for _ in 0..sz.setup_reps {
        let span = tracer.begin("setup", wl, None);
        let t = Instant::now();
        let mut d = FleetRun::new(plan);
        while d.fleet.makespan() < warm_up {
            d.wave(tracer, span, false);
        }
        run.setup_s.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        last = Some(d);
    }
    let mut d = last.expect("at least one set-up repetition");

    let (lanes0, launches0) = d.lanes_and_launches();
    let admitted0 = d.fleet.stats().admitted;
    let end = deadline(plan);
    let start = Instant::now();
    while !d.window_done() || Instant::now() < end {
        let wave = d.fleet.wave() + 1;
        let traced = plan.trace && wave % 2 == 0;
        tracer.set_on(traced);
        let op = tracer.begin("op", wl, Some(wave));
        let wall = d.wave(tracer, op, true);
        tracer.end(op);
        tracer.set_on(plan.trace);
        run.op_wall_ns.push(wall.as_nanos() as u64);
        run.op_traced.push(traced);
    }
    run.window_s = start.elapsed().as_secs_f64();
    let (lanes1, launches1) = d.lanes_and_launches();
    let waves = run.op_wall_ns.len() as f64;
    run.playouts = lanes1 - lanes0;
    let admitted = d.fleet.stats().admitted - admitted0;

    // Drain: every admitted session must retire, every offer be accounted.
    d.fleet.run_to_completion();
    for c in d.fleet.take_completed() {
        d.retire(&c, d.window.unwrap_or(u64::MAX));
    }
    let stats = d.fleet.stats();
    if stats.offered != stats.admitted + stats.rejected || d.retired != stats.admitted {
        d.checks.fail_if(Err(format!(
            "fleet accounting: offered {} admitted {} rejected {} retired {}",
            stats.offered, stats.admitted, stats.rejected, d.retired
        )));
    }
    tracer.end(wl);
    run.moves = d.moves;
    run.info = vec![
        ("lambda", sz.lambda.into()),
        ("waves", run.op_wall_ns.len().into()),
        ("offered", stats.offered.into()),
        ("rejected", stats.rejected.into()),
        ("window_sessions", d.window.unwrap_or(0).into()),
    ];

    if plan.trace {
        let launches = (launches1 - launches0) as f64;
        let blocks = (lanes1 - lanes0) as f64 / f64::from(sz.threads);
        let blocks_per_launch = blocks / launches.max(1.0);
        let (offer_ns, _) = tracer.total_and_self_ns("core.fleet.offer");
        let (step_ns, _) = tracer.total_and_self_ns("core.fleet.step_wave");
        let roots: Vec<Reversi> = d.roots.iter().copied().take(REPLAY_ROOTS).collect();
        let geometry = LaunchConfig::new(blocks_per_launch.round().max(1.0) as u32, sz.threads);
        run.layers = Some(LayerData {
            replay: replay(
                &roots,
                &new_device(plan.host_threads),
                geometry,
                d.virt.ledger.per_op(d.virt.ledger.tree_nodes) as usize,
                sz.replay_playouts,
                sz.replay_tree_iterations,
                tracer,
            ),
            playouts_per_op: run.playouts as f64 / waves,
            // One block per session round, one tree iteration per block,
            // all on the stepping thread.
            tree_iters_per_op: blocks / waves,
            tree_parallelism: 1.0,
            blocks_per_launch,
            launches_per_op: launches / waves,
            offer_wall_share: offer_ns as f64 / (offer_ns + step_ns).max(1) as f64,
            admitted_per_op: admitted as f64 / waves,
            rejected: stats.rejected as f64,
            waves,
            ..LayerData::default()
        });
    }
    (d.virt.sims, d.virt.elapsed_ns) = d.throughput;
    run.virt = d.virt;
    run.checks = d.checks;
    run
}

/// `hex_arena`: full Hex 11×11 games, WU-UCT (the candidate, whose moves
/// are the ops) against sequential UCT, colours alternating per game.
fn hex_arena(plan: &Plan, tracer: &mut Tracer) -> RunData {
    let sz = &plan.sizes;
    let launch = LaunchConfig::new(sz.blocks, sz.threads);
    let budget = SearchBudget::millis(sz.budget_ms);
    let slo = SimTime::from_millis(sz.budget_ms);
    let mut run = RunData::default();
    let wl = tracer.begin(plan.workload.name(), None, None);

    let mut device = None;
    for rep in 0..sz.setup_reps as u64 {
        let span = tracer.begin("setup", wl, None);
        let t = Instant::now();
        let dev = new_device(plan.host_threads);
        let root = Hex11::initial();
        let warm = SearchBudget::millis(sz.warmup_ms);
        let stream = WARMUP_STREAM + 2 * rep;
        let r = WuUctSearcher::<Hex11>::new(config(plan.seed, stream), dev.clone(), launch)
            .search(root, warm);
        run.checks.fail_if(report_check(&root, &r));
        let r = SequentialSearcher::<Hex11>::new(config(plan.seed, stream + 1)).search(root, warm);
        run.checks.fail_if(report_check(&root, &r));
        run.setup_s.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        device = Some(dev);
    }
    let device = device.expect("at least one set-up repetition");

    let mut roots = Vec::new();
    let mut winloss = WinLoss::new();
    let mut finished_moves = 0u64;
    let end = deadline(plan);
    let start = Instant::now();
    let mut op = 0u64;
    let done = |games: u64| games >= sz.virtual_window as u64 && Instant::now() >= end;
    'games: for game in 0u64.. {
        if done(game) {
            break;
        }
        let candidate = if game % 2 == 0 {
            Player::P1
        } else {
            Player::P2
        };
        let mut wu_uct =
            WuUctSearcher::<Hex11>::new(config(plan.seed, 2 * game), device.clone(), launch);
        let mut sequential = SequentialSearcher::<Hex11>::new(config(plan.seed, 2 * game + 1));
        let traced = plan.trace && game % 2 == 0;
        tracer.set_on(traced);
        let game_span = tracer.begin("core.arena.game", wl, Some(game));
        let mut state = Hex11::initial();
        let mut moves = 0u64;
        while !state.is_terminal() {
            if done(game) {
                tracer.end(game_span);
                break 'games;
            }
            let ours = state.to_move() == candidate;
            let t = Instant::now();
            let span = tracer.begin("core.searcher.search", game_span, ours.then_some(op));
            let report = if ours {
                wu_uct.search(state, budget)
            } else {
                sequential.search(state, budget)
            };
            tracer.end(span);
            let wall = t.elapsed();

            let check = report_check(&state, &report);
            if ours {
                if game < sz.virtual_window as u64 {
                    run.virt.record(&report, report.elapsed, slo, check.is_ok());
                }
                run.op_wall_ns.push(wall.as_nanos() as u64);
                run.op_traced.push(traced);
                if roots.len() < REPLAY_ROOTS {
                    roots.push(state);
                }
                op += 1;
            }
            let mv = match report.best_move {
                Some(m) if check.is_ok() => m,
                _ => {
                    // Keep the game going on the first legal move; the
                    // failed search is counted.
                    let mut buf = MoveBuf::new();
                    state.legal_moves(&mut buf);
                    buf[0]
                }
            };
            run.checks.attempt(check);
            run.playouts += report.simulations;
            run.moves += 1;
            moves += 1;
            state.apply(mv);
        }
        tracer.end(game_span);
        finished_moves += moves;
        let won = state.outcome() == Some(Outcome::Win(candidate));
        winloss.record_score(if won { 1 } else { -1 });
    }
    tracer.set_on(plan.trace);
    run.window_s = start.elapsed().as_secs_f64();
    tracer.end(wl);
    let games = winloss.total();
    let (lo, hi) = winloss.wilson95();
    run.info = vec![
        ("games", games.into()),
        ("win_ratio", winloss.win_ratio().into()),
        ("win_ratio_wilson95_lo", lo.into()),
        ("win_ratio_wilson95_hi", hi.into()),
    ];

    if plan.trace {
        let ledger = &run.virt.ledger;
        let (game_ns, self_ns) = tracer.total_and_self_ns("core.arena.game");
        run.layers = Some(LayerData {
            replay: replay(
                &roots,
                &device,
                launch,
                ledger.per_op(ledger.tree_nodes) as usize,
                sz.replay_playouts,
                sz.replay_tree_iterations,
                tracer,
            ),
            playouts_per_op: ledger.per_op(ledger.sims),
            tree_iters_per_op: ledger.per_op(ledger.expansions),
            // One shared tree, corrected selections in block order on the
            // calling thread.
            tree_parallelism: 1.0,
            blocks_per_launch: f64::from(sz.blocks),
            launches_per_op: ledger.per_op(ledger.kernel_launches),
            arena_self_wall_share: self_ns as f64 / game_ns.max(1) as f64,
            moves_per_game: finished_moves as f64 / games.max(1) as f64,
            ..LayerData::default()
        });
    }
    run
}
