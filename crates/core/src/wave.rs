//! The round engine shared by every wave scheme, its launch path and its
//! two drivers.
//!
//! Block parallelism (§III.6) is one *round*, repeated: host selection and
//! expansion over the scheme's frontier, one kernel launch, then
//! backpropagation. A [`RoundEngine`] is that round cut at the launch.
//! [`begin_round`](RoundEngine::begin_round) returns a [`PlayoutRequest`]
//! (frontier positions plus host time), the driver launches it, and
//! [`complete_round`](RoundEngine::complete_round) or
//! [`degrade`](RoundEngine::degrade) lands the outcome. Each scheme writes
//! its round once (leaf, block, WU-UCT, pipelined, hybrid), and two
//! drivers run it:
//!
//! * [`Solo`] backs a [`Searcher`](crate::searcher::Searcher): the engine is
//!   the only member of every launch, on the searcher's own device and
//!   geometry.
//! * [`SearchService`](crate::service::SearchService) packs many engines
//!   into one merged launch per round.
//!
//! Both launch through [`Launcher::launch`], the one place the fault
//! ladder lives:
//!
//! * a hang charges the hang deadline, then retries once with a fresh
//!   epoch — unless the engine absorbs it
//!   ([`RoundEngine::absorb_hang`]; hybrid runs its shadow loop on to the
//!   deadline instead);
//! * a second hang degrades the round to one CPU playout per frontier
//!   node ([`RoundEngine::degrade`]; WU-UCT rolls its in-flight counts
//!   back there);
//! * a block abort voids that block's outputs;
//! * a slowdown stretches the device time.
//!
//! Every member draws its fault from its own plan, its own stream and its
//! own launch count. In a merged launch any member's hang stalls the whole
//! wave, a slowdown takes the largest factor, and an abort voids only its
//! owner's block.
//!
//! # Overlap
//!
//! A lockstep round costs the sum host + upload + kernel + readback. Two
//! engines overlap host work with a kernel flight and bill it through
//! their solo billing hook ([`RoundEngine::charge_solo`]) and
//! [`Ledger::charge_overlapped`], which charges `max(device, host)` and
//! records the hidden side as `overlap_saved`:
//!
//! * pipelined selects wave `k` while wave `k−1` is in flight; a wave
//!   whose first launch hung stalls the pipeline and is billed serially;
//! * hybrid runs CPU iterations (tree work plus playouts) while its own
//!   wave is in flight.
//!
//! The service serialises its rounds, so it always bills the sum.

use crate::config::{MctsConfig, SearchBudget};
use crate::cost::CpuCostModel;
use crate::gpu::{LaneOutcome, PlayoutKernel};
use crate::searcher::{BudgetTracker, SearchReport};
use crate::service::LaunchTotals;
use crate::telemetry::PhaseBreakdown;
use pmcts_games::Game;
use pmcts_gpu_sim::{Device, KernelStats, LaunchConfig, WorkerPool};
use pmcts_util::{FaultPlan, GpuFault, SimTime, Xoshiro256pp};
use std::sync::Arc;

/// Lane-seed epoch multiplier of the wave schemes and the service.
pub(crate) const LANE_SEED_STEP: u64 = 0xA076_1D64_78BD_642F;

/// One round's frontier: `(node, position, depth)` per block.
pub(crate) type Frontier<G> = Vec<(u32, G, u32)>;

/// Host time of one round, split the way the phase ledger bills it: tree
/// work, plus CPU playouts (billed to `kernel`).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct HostTime {
    pub(crate) select: SimTime,
    pub(crate) expand: SimTime,
    pub(crate) playouts: SimTime,
}

impl HostTime {
    /// The select/expand cost of reaching every node of `frontier`
    /// (`select_cost + expand_cost == tree_op` per node).
    pub(crate) fn of<G>(cpu: &CpuCostModel, frontier: &[(u32, G, u32)]) -> Self {
        let mut host = HostTime::default();
        for &(_, _, depth) in frontier {
            host.select += cpu.select_cost(depth);
            host.expand += cpu.expand_cost();
        }
        host
    }

    pub(crate) fn total(self) -> SimTime {
        self.select + self.expand + self.playouts
    }

    pub(crate) fn bill(self, phases: &mut PhaseBreakdown) {
        phases.select += self.select;
        phases.expand += self.expand;
        phases.kernel += self.playouts;
    }
}

/// One engine's share of the next launch.
pub(crate) struct PlayoutRequest<G> {
    /// Frontier positions; block `b` of the share simulates
    /// `positions[b % positions.len()]`.
    pub(crate) positions: Vec<G>,
    /// Blocks the share occupies. Exceeds `positions.len()` only for leaf
    /// parallelism, which never shares a launch.
    pub(crate) blocks: u32,
    /// Host time spent producing the positions; its CPU playouts land a
    /// degraded earlier wave (pipelined only).
    pub(crate) host: HostTime,
}

impl<G: Copy> PlayoutRequest<G> {
    /// One block per frontier node.
    pub(crate) fn new(frontier: &[(u32, G, u32)], cpu: &CpuCostModel) -> Self {
        PlayoutRequest {
            positions: frontier.iter().map(|&(_, s, _)| s).collect(),
            blocks: frontier.len() as u32,
            host: HostTime::of(cpu, frontier),
        }
    }
}

/// How one launch wave lands on one member: `queue` is the other members'
/// host work, the rest is the shared device side (every attempt's upload,
/// hang deadlines, kernel, readback) plus the member's own degraded CPU
/// playouts on `kernel`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RoundLatency {
    pub(crate) queue: SimTime,
    pub(crate) upload: SimTime,
    pub(crate) kernel: SimTime,
    pub(crate) readback: SimTime,
}

impl RoundLatency {
    pub(crate) fn total(&self) -> SimTime {
        self.queue + self.upload + self.kernel + self.readback
    }

    pub(crate) fn bill(&self, phases: &mut PhaseBreakdown) {
        phases.queue += self.queue;
        phases.upload += self.upload;
        phases.kernel += self.kernel;
        phases.readback += self.readback;
    }
}

/// What every engine carries through one search: the budget tracker, the
/// phase ledger and its own fault schedule (plan, stream, launch count).
pub(crate) struct Ledger {
    pub(crate) tracker: BudgetTracker,
    pub(crate) phases: PhaseBreakdown,
    /// Time already billed to the phases but not yet to the budget (a
    /// device-resident launch that hung); the next charged round absorbs
    /// it.
    pub(crate) carried: SimTime,
    plan: FaultPlan,
    stream: u64,
    launches: u64,
}

impl Ledger {
    /// A fresh ledger whose fault schedule continues after `launches`
    /// earlier launches of `stream`.
    pub(crate) fn new(budget: SearchBudget, plan: FaultPlan, stream: u64, launches: u64) -> Self {
        Ledger {
            tracker: BudgetTracker::new(budget),
            phases: PhaseBreakdown::new(),
            carried: SimTime::ZERO,
            plan,
            stream,
            launches,
        }
    }

    fn next_fault(&mut self, blocks: u32) -> GpuFault {
        self.launches += 1;
        self.plan.gpu_fault(self.stream, self.launches, blocks)
    }

    /// Bills a lockstep round — host side plus the wave latency, summed —
    /// and returns the round's cost.
    pub(crate) fn charge_round(&mut self, host: HostTime, latency: &RoundLatency) -> SimTime {
        let none = RoundLatency::default();
        self.charge_overlapped(host, latency, &none, HostTime::default())
    }

    /// Bills a round whose `host` work and `latency` ran in sequence, then
    /// a device side `gpu` that flew while the host did `hidden` work. The
    /// longer of those two is billed, the shorter one's time is recorded
    /// as `overlap_saved` and `hidden`'s as `shadow_overlap`. Returns the
    /// round's cost.
    pub(crate) fn charge_overlapped(
        &mut self,
        host: HostTime,
        latency: &RoundLatency,
        gpu: &RoundLatency,
        hidden: HostTime,
    ) -> SimTime {
        let (g, h) = (gpu.total(), hidden.total());
        let p = &mut self.phases;
        host.bill(p);
        latency.bill(p);
        if g >= h {
            gpu.bill(p);
            p.overlap_saved += h;
        } else {
            hidden.bill(p);
            p.overlap_saved += g;
        }
        p.shadow_overlap += h;
        let cost = host.total() + latency.total() + g.max(h);
        self.tracker
            .charge(cost + std::mem::take(&mut self.carried));
        cost
    }

    /// Bills a round the engine sat out of (service wave packing): the
    /// time is queueing and consumes the budget, but is no iteration.
    pub(crate) fn charge_wait(&mut self, wait: SimTime) {
        self.phases.queue += wait;
        self.tracker.charge_wait(wait);
    }
}

/// One scheme's round, cut at the launch (see the module docs).
pub(crate) trait RoundEngine<G: Game>: Send {
    /// The engine's budget, phase ledger and fault schedule.
    fn ledger(&mut self) -> &mut Ledger;
    /// Host half of the next round, or `None` when the root is terminal.
    fn begin_round(&mut self) -> Option<PlayoutRequest<G>>;
    /// Lands the round's lane outcomes (this engine's blocks, block-major);
    /// block `voided` aborted and lands nothing.
    fn complete_round(&mut self, lanes: &[LaneOutcome], voided: Option<usize>);
    /// Lands a round whose launch hung twice: one CPU playout per frontier
    /// node, drawn from the engine RNG. Returns the CPU time spent (the
    /// pipelined engine defers the playouts to its next round and returns
    /// zero).
    fn degrade(&mut self) -> SimTime;
    /// The final report.
    fn finish(&mut self) -> SearchReport<G::Move>;
    /// Unobserved in-flight playouts registered on the engine's tree
    /// (WU-UCT); zero between rounds.
    fn inflight(&self) -> u64 {
        0
    }
    /// The first response to a hung launch whose deadline is `deadline`:
    /// `true` lands the round here instead of retrying it (hybrid, which
    /// only runs solo).
    fn absorb_hang(&mut self, _deadline: SimTime) -> bool {
        false
    }
    /// Bills one solo round: `host` is its request's host time, `wave` the
    /// launch outcome. Overlap schemes hide part of it.
    fn charge_solo(&mut self, host: HostTime, wave: &Wave) {
        self.ledger().charge_round(host, &wave.latency[0]);
    }
}

/// One member of a launch wave: an engine and its request.
pub(crate) struct Member<'a, G: Game> {
    pub(crate) engine: &'a mut dyn RoundEngine<G>,
    pub(crate) request: PlayoutRequest<G>,
}

/// What one launch wave cost its members.
pub(crate) struct Wave {
    /// Per member, in member order.
    pub(crate) latency: Vec<RoundLatency>,
    /// One attempt's upload (launch prep + transfer).
    upload: SimTime,
    /// Whether the first attempt hung and was retried.
    pub(crate) stalled: bool,
    /// The last attempt's device time (overhead, kernel, readback),
    /// slowdowns included and hang deadlines not.
    pub(crate) elapsed: SimTime,
}

impl Wave {
    /// The lone member's latency split into the first upload, which
    /// precedes the flight, and the rest, which may overlap host work.
    pub(crate) fn split_upload(&self) -> (RoundLatency, RoundLatency) {
        let mut rest = self.latency[0];
        rest.upload -= self.upload;
        let upload = RoundLatency {
            upload: self.upload,
            ..RoundLatency::default()
        };
        (upload, rest)
    }
}

/// The launch path: a device, the block geometry and the lane-seed
/// schedule `seed + epoch·seed_step`.
#[derive(Clone, Debug)]
pub(crate) struct Launcher {
    pub(crate) device: Device,
    threads_per_block: u32,
    seed: u64,
    seed_step: u64,
    epoch: u64,
    launch_prep: SimTime,
    /// `Some` for the service: running totals over its launches, and
    /// device counters stay with the merged grid. `None` for a solo
    /// searcher: the lone member's ledger folds the counters.
    totals: Option<LaunchTotals>,
}

impl Launcher {
    /// A launcher shared by many sessions.
    pub(crate) fn shared(device: Device, threads_per_block: u32, seed: u64) -> Self {
        Launcher {
            device,
            threads_per_block,
            seed,
            seed_step: LANE_SEED_STEP,
            epoch: 0,
            launch_prep: CpuCostModel::xeon_x5670().launch_prep,
            totals: Some(LaunchTotals::default()),
        }
    }

    /// Totals over every launch performed so far (zero for a solo
    /// launcher).
    pub(crate) fn totals(&self) -> LaunchTotals {
        self.totals.unwrap_or_default()
    }

    /// Launches one wave and runs the fault ladder (see the module docs):
    /// every member's engine ends the call completed or degraded.
    pub(crate) fn launch<G: Game>(&mut self, wave: &mut [Member<'_, G>]) -> Wave {
        let blocks: u32 = wave.iter().map(|m| m.request.blocks).sum();
        let roots: Vec<G> = wave
            .iter()
            .flat_map(|m| m.request.positions.iter().copied())
            .collect();
        let host: Vec<SimTime> = wave.iter().map(|m| m.request.host.total()).collect();
        let total_host: SimTime = host.iter().copied().sum();
        let mut latency: Vec<RoundLatency> = host
            .iter()
            .map(|&h| RoundLatency {
                queue: total_host - h,
                ..RoundLatency::default()
            })
            .collect();
        let mut stalled = false;
        let (mut upload, mut elapsed);
        loop {
            self.epoch += 1;
            let kernel = PlayoutKernel::new(
                roots.clone(),
                self.seed
                    .wrapping_add(self.epoch.wrapping_mul(self.seed_step)),
            );
            let faults: Vec<GpuFault> = wave
                .iter_mut()
                .map(|m| m.engine.ledger().next_fault(m.request.blocks))
                .collect();
            upload = self.launch_prep + self.device.spec().transfer_time(kernel.upload_bytes());
            let result = self
                .device
                .launch(&kernel, LaunchConfig::new(blocks, self.threads_per_block));
            let mut stats = result.stats.clone();
            slow_down(&mut stats, &faults);
            elapsed = stats.elapsed();
            if let Some(totals) = &mut self.totals {
                totals.add(wave.len() as u32, blocks);
            }
            for lat in &mut latency {
                lat.upload += upload;
            }

            // Any member's hang stalls the wave: everyone waits out the
            // longest deadline, retries once, then degrades. An engine that
            // absorbs the first hang lands the round itself.
            let deadline = wave
                .iter_mut()
                .zip(&faults)
                .filter(|(_, f)| **f == GpuFault::Hang)
                .map(|(m, _)| m.engine.ledger().plan.hang_deadline(elapsed))
                .max();
            if let Some(deadline) = deadline {
                let absorbed = !stalled && wave.iter_mut().all(|m| m.engine.absorb_hang(deadline));
                for ((m, lat), fault) in wave.iter_mut().zip(&mut latency).zip(&faults) {
                    let counters = &mut m.engine.ledger().phases.faults;
                    counters.injected += u64::from(*fault != GpuFault::None);
                    counters.retried += u64::from(!stalled && !absorbed);
                    lat.kernel += deadline;
                }
                if absorbed {
                    break;
                }
                if !stalled {
                    stalled = true;
                    continue;
                }
                // The host runs every member's CPU playouts in member
                // order; each waits on the others' like on their host work.
                let cpu: Vec<SimTime> = wave.iter_mut().map(|m| m.engine.degrade()).collect();
                let total_cpu: SimTime = cpu.iter().copied().sum();
                for (lat, own) in latency.iter_mut().zip(cpu) {
                    lat.kernel += own;
                    lat.queue += total_cpu - own;
                }
                break;
            }

            // Member `i` owns the merged grid's blocks from where member
            // `i − 1`'s ended, so its lanes are the next slice of outputs.
            let mut first = 0;
            for (i, (m, lat)) in wave.iter_mut().zip(&mut latency).enumerate() {
                let lanes = m.request.blocks as usize * self.threads_per_block as usize;
                let ledger = m.engine.ledger();
                let voided = void_of(faults[i], &mut ledger.phases);
                if self.totals.is_none() {
                    ledger.phases.record_launch(&stats);
                } else {
                    ledger.phases.kernel_launches += 1;
                }
                m.engine
                    .complete_round(&result.outputs[first..first + lanes], voided);
                first += lanes;
                lat.kernel += stats.launch_overhead + stats.device_time;
                lat.readback += stats.readback_time;
            }
            break;
        }
        Wave {
            latency,
            upload,
            stalled,
            elapsed,
        }
    }
}

/// Folds a completed launch's fault into the counters and returns the
/// block an abort voided.
pub(crate) fn void_of(fault: GpuFault, phases: &mut PhaseBreakdown) -> Option<usize> {
    if fault != GpuFault::None {
        phases.faults.injected += 1;
    }
    match fault {
        GpuFault::BlockAbort(bad) => {
            phases.faults.degraded += 1;
            Some(bad as usize)
        }
        _ => None,
    }
}

/// Stretches a completed launch's device time by the largest
/// [`GpuFault::Slowdown`] factor among `faults` (floored at 1). The kernel
/// itself ran fault-free, so its outputs and RNG draws are untouched.
pub(crate) fn slow_down(stats: &mut KernelStats, faults: &[GpuFault]) {
    let factor = faults
        .iter()
        .map(|f| match f {
            GpuFault::Slowdown(factor) => *factor,
            _ => 1,
        })
        .max()
        .unwrap_or(1);
    stats.device_time = stats.device_time * factor.max(1) as u64;
}

/// What a wave searcher keeps between searches: its configuration and
/// geometry, its RNG stream and its launch path (the epoch continues
/// across searches, so a game's moves draw fresh lanes and faults).
#[derive(Clone, Debug)]
pub(crate) struct Solo {
    pub(crate) config: MctsConfig,
    pub(crate) launch: LaunchConfig,
    pub(crate) rng: Xoshiro256pp,
    /// The fault stream of every search: the RNG stream, unless the
    /// scheme keys its faults itself (hybrid).
    pub(crate) fault_key: u64,
    launcher: Launcher,
}

impl Solo {
    /// Stream `stream` of a scheme whose RNG is salted `rng_salt` and
    /// whose lane seeds are `config.seed + stream·φ + epoch·seed_step`.
    pub(crate) fn new(
        config: MctsConfig,
        device: Device,
        launch: LaunchConfig,
        stream: u64,
        rng_salt: u64,
        seed_step: u64,
    ) -> Self {
        let launcher = Launcher {
            device,
            threads_per_block: launch.threads_per_block,
            seed: config
                .seed
                .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            seed_step,
            epoch: 0,
            launch_prep: config.cpu_cost.launch_prep,
            totals: None,
        };
        Solo {
            rng: Xoshiro256pp::derive(config.seed, rng_salt ^ stream),
            config,
            launch,
            fault_key: stream,
            launcher,
        }
    }

    pub(crate) fn pool(&self) -> Arc<WorkerPool> {
        Arc::clone(self.launcher.device.worker_pool())
    }

    /// A ledger for the next search, continuing this stream's faults.
    pub(crate) fn ledger(&self, budget: SearchBudget) -> Ledger {
        Ledger::new(
            budget,
            self.config.faults,
            self.fault_key,
            self.launcher.epoch,
        )
    }

    /// Claims the next launch epoch for a launch outside the shared path
    /// (the device-resident kernel): its lane seed and `ledger`'s fault.
    pub(crate) fn next_launch(&mut self, ledger: &mut Ledger) -> (u64, GpuFault) {
        let l = &mut self.launcher;
        l.epoch += 1;
        let seed = l.seed.wrapping_add(l.epoch.wrapping_mul(l.seed_step));
        (seed, ledger.next_fault(self.launch.blocks))
    }

    /// Runs `engine` to its budget, one solo launch per round.
    pub(crate) fn run<G: Game>(
        &mut self,
        engine: &mut dyn RoundEngine<G>,
    ) -> SearchReport<G::Move> {
        while engine.ledger().tracker.may_continue() {
            let Some(request) = engine.begin_round() else {
                break;
            };
            let host = request.host;
            let wave = self.launcher.launch(&mut [Member {
                engine: &mut *engine,
                request,
            }]);
            engine.charge_solo(host, &wave);
        }
        engine.finish()
    }
}
