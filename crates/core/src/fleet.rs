//! Fleet-scale serving: shard the multi-session [`SearchService`] across
//! simulated devices (DESIGN.md §14).
//!
//! PR 5's service proved that batching N sessions onto *one* device
//! amortises launch overhead across sessions. A production deployment has
//! many devices and far more sessions than any one device can hold, so the
//! [`Fleet`] owns N **shards** — one [`SearchService`] per simulated
//! [`Device`], identified by its simulated MPI [`Rank`] — and adds the
//! three fleet-layer policies, all expressed in virtual time so results
//! stay bit-identical at any `--host-threads` count:
//!
//! * **Placement** — every admitted session goes to the *least-loaded
//!   live shard*, load measured as `shard clock + backlog` (the backlog is
//!   the summed virtual-budget estimate of its unfinished sessions), ties
//!   broken by shard id. A pure function of the admission sequence.
//! * **Admission control** — each shard holds at most `shard_capacity`
//!   concurrent sessions; excess offers wait in a bounded priority queue.
//!   When the queue is also full, the offer is rejected — unless it
//!   outranks a queued session of a *lower* [`Priority`] class, which is
//!   then displaced (rejected) in its favour. Every decision is counted in
//!   [`FleetStats`], per class.
//! * **SLO scheduling** — shards run deadline-aware launch waves
//!   ([`SearchService::step_wave`]): at most `wave_limit` sessions per
//!   launch, earliest SLO deadline first. Sessions left out of a wave are
//!   charged the round as queueing against their budget, so overload
//!   degrades *goodput* (sessions finishing with a move inside their SLO)
//!   instead of corrupting the latency ledger — `completed_at −
//!   admitted_at == elapsed` holds for every session, served or starved.
//!
//! # Dead shards
//!
//! Per-shard faults ride the existing [`FaultPlan`] machinery:
//! [`FaultPlan::component_dead`] keyed by shard rank decides which shards
//! die (rank 0 is immune, as everywhere in the workspace), and the death
//! *wave* derives from the plan seed. A dead shard's unfinished sessions
//! lose their in-flight search state (the device is gone) and are
//! **re-placed** deterministically — shard-id then session-id order —
//! onto the surviving shards, bypassing admission (they were already
//! admitted once); each re-placement is counted in
//! [`FleetStats::replaced`] and on the session's
//! [`FleetCompleted::migrations`].
//!
//! # Determinism
//!
//! Every fleet decision — placement, queue order, displacement, wave
//! membership, death waves, re-placement order — is a pure function of
//! the offer sequence, the seeds and the virtual clocks. Nothing observes
//! wall-clock time, host-thread count or map iteration order, so the same
//! offers produce byte-identical [`FleetCompleted`] transcripts at any
//! `--host-threads`.

use crate::config::{MctsConfig, SearchBudget};
use crate::searcher::SearchReport;
use crate::service::{SearchService, SessionId, SessionScheme};
use pmcts_games::Game;
use pmcts_gpu_sim::Device;
use pmcts_mpi_sim::Rank;
use pmcts_util::{FaultPlan, Rng64, SimTime, SplitMix64};

/// Domain-separation key for the fleet's dead-shard schedule (the
/// [`FaultPlan`] component group shared by every shard of one fleet).
const FLEET_FAULT_KEY: u64 = 0xF1EE_7000_DEAD_0001;

/// Priority class of an offered session. Lower classes are more urgent:
/// the wait queue drains `Interactive` first, and under a full queue a
/// more urgent offer displaces the least urgent queued session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// A human is waiting on the move.
    Interactive,
    /// Normal serving traffic.
    Standard,
    /// Offline/analysis traffic: first to queue, first to be displaced.
    Batch,
}

impl Priority {
    /// All classes, most urgent first.
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Standard, Priority::Batch];

    /// Dense index for per-class telemetry arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name for artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Standard => "standard",
            Priority::Batch => "batch",
        }
    }
}

/// Fleet-level session identity, assigned at offer from a monotone
/// counter. Stable across queueing and dead-shard re-placement (the
/// per-shard [`SessionId`]s are not: a re-placed session is re-admitted).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FleetSessionId(pub u64);

impl std::fmt::Display for FleetSessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// The admission decision for one offered session.
///
/// `Queued` is provisional: a later, more urgent offer may displace a
/// queued session (it is then rejected without further notice — real
/// admission queues time out the same way). Final outcomes are visible in
/// [`FleetStats`] and in which ids appear in [`Fleet::take_completed`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Admitted and placed on `shard` as `session`.
    Placed {
        /// The fleet-level id.
        id: FleetSessionId,
        /// The shard the session landed on.
        shard: Rank,
        /// The per-shard service session id.
        session: SessionId,
    },
    /// Admitted to the wait queue; placed when capacity frees.
    Queued {
        /// The fleet-level id.
        id: FleetSessionId,
    },
    /// Rejected: no shard slot, no queue slot, nothing to displace.
    Rejected,
}

/// Deterministic admission/placement telemetry, by class where it matters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Sessions offered to the fleet.
    pub offered: u64,
    /// Sessions placed on a shard for the first time (directly or from the
    /// queue). `admitted + rejected == offered` once the fleet has run to
    /// completion.
    pub admitted: u64,
    /// Sessions that spent time in the wait queue (including later-placed
    /// and later-displaced ones).
    pub queued: u64,
    /// Sessions rejected — at offer time or by displacement.
    pub rejected: u64,
    /// Re-placements of already-admitted sessions after a shard death.
    pub replaced: u64,
    /// `admitted` split by [`Priority::index`].
    pub admitted_by_class: [u64; 3],
    /// `rejected` split by [`Priority::index`].
    pub rejected_by_class: [u64; 3],
}

/// Static fleet geometry and policy knobs.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Playout lanes per block on every shard's launches.
    pub threads_per_block: u32,
    /// Max sessions packed into one launch wave per shard.
    pub wave_limit: usize,
    /// Max concurrent sessions per shard (admission control).
    pub shard_capacity: usize,
    /// Wait-queue bound (fleet-wide). `0` disables queueing.
    pub queue_capacity: usize,
    /// Seed of the per-shard service RNG streams.
    pub seed: u64,
    /// Dead-shard schedule (see the module docs). [`FaultPlan::none`]
    /// keeps every shard alive.
    pub faults: FaultPlan,
    /// Virtual-time estimate of one service round, used only to convert
    /// `Iterations` budgets into placement load.
    pub round_estimate: SimTime,
}

impl FleetConfig {
    /// Defaults sized for the serving experiments: 32-lane blocks, waves
    /// of 16, 16 sessions per shard, a queue as deep as one shard.
    pub fn new(seed: u64) -> Self {
        FleetConfig {
            threads_per_block: 32,
            wave_limit: 16,
            shard_capacity: 16,
            queue_capacity: 16,
            seed,
            faults: FaultPlan::none(),
            round_estimate: SimTime::from_micros(200),
        }
    }
}

/// One retired fleet session: where it ran, how it was classed, and the
/// full per-session search report. `completed_at − admitted_at ==
/// report.elapsed` on the final shard's clock, always.
#[derive(Clone, Debug)]
pub struct FleetCompleted<M> {
    /// The fleet-level id.
    pub id: FleetSessionId,
    /// The shard that retired the session (after any re-placements).
    pub shard: Rank,
    /// The session's priority class.
    pub priority: Priority,
    /// The session's latency SLO (also its search budget for virtual-time
    /// budgets).
    pub slo: Option<SimTime>,
    /// Final shard's clock at (re-)admission.
    pub admitted_at: SimTime,
    /// Final shard's clock at retirement.
    pub completed_at: SimTime,
    /// Dead-shard re-placements this session survived.
    pub migrations: u32,
    /// The session's final search report.
    pub report: SearchReport<M>,
}

/// A read-only snapshot of one shard, for artifacts and assertions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// The shard's identity (its simulated MPI rank).
    pub rank: Rank,
    /// Whether the shard's device has died.
    pub dead: bool,
    /// First placements onto this shard (`sum(placed) == stats.admitted`).
    pub placed: u64,
    /// Re-placements received from dead shards.
    pub replaced_in: u64,
    /// Sessions currently resident.
    pub active: usize,
    /// The shard's virtual clock.
    pub clock: SimTime,
    /// Batched launches performed.
    pub launches: u64,
    /// Blocks across all launches.
    pub blocks: u64,
}

/// What one admitted session needs to (re-)start: the fleet keeps the
/// ticket for as long as the session is queued or resident, so a dead
/// shard's sessions can re-place from scratch.
struct Ticket<G: Game> {
    id: FleetSessionId,
    root: G,
    budget: SearchBudget,
    config: MctsConfig,
    priority: Priority,
    slo: Option<SimTime>,
    load: SimTime,
    migrations: u32,
}

struct Shard<G: Game> {
    rank: Rank,
    service: SearchService<G>,
    dead: bool,
    /// The fleet wave before which this shard dies, per the fault plan.
    death_wave: Option<u64>,
    /// Summed load estimates of resident sessions.
    backlog: SimTime,
    placed: u64,
    replaced_in: u64,
    active: Vec<(SessionId, Ticket<G>)>,
}

impl<G: Game> Shard<G> {
    /// Virtual load for placement: how far this shard's clock is ahead
    /// plus the work already committed to it.
    fn load(&self) -> SimTime {
        self.service.clock() + self.backlog
    }
}

/// The fleet: N service shards plus placement, admission and SLO policy
/// (see the module docs).
pub struct Fleet<G: Game> {
    shards: Vec<Shard<G>>,
    wave_limit: usize,
    shard_capacity: usize,
    queue_capacity: usize,
    /// Wait queue, kept sorted by `(priority, id)` — drain order.
    queue: Vec<Ticket<G>>,
    stats: FleetStats,
    next_id: u64,
    wave: u64,
    completed: Vec<FleetCompleted<G::Move>>,
    round_estimate: SimTime,
}

impl<G: Game> Fleet<G> {
    /// Builds a fleet of one shard per device. Shard `i` is identified as
    /// [`Rank`]`(i)`; its service seed derives from the fleet seed and the
    /// rank, and its death wave (if the fault plan kills it) from the
    /// plan's seed and the rank.
    pub fn new(config: FleetConfig, devices: Vec<Device>) -> Self {
        assert!(!devices.is_empty(), "a fleet needs at least one device");
        assert!(config.wave_limit >= 1, "wave_limit must admit a session");
        assert!(config.shard_capacity >= 1, "shards must hold a session");
        let shards = devices
            .into_iter()
            .enumerate()
            .map(|(i, device)| {
                let rank = Rank(i);
                let death_wave = if config.faults.component_dead(FLEET_FAULT_KEY, i as u64) {
                    // Die before wave 1..=3: deterministic per (plan seed,
                    // rank), staggered so deaths cascade re-placements.
                    Some(1 + SplitMix64::derive(config.faults.seed, i as u64).next_u64() % 3)
                } else {
                    None
                };
                Shard {
                    rank,
                    service: SearchService::new(
                        device,
                        config.threads_per_block,
                        SplitMix64::derive(config.seed, i as u64).next_u64(),
                    ),
                    dead: false,
                    death_wave,
                    backlog: SimTime::ZERO,
                    placed: 0,
                    replaced_in: 0,
                    active: Vec::new(),
                }
            })
            .collect();
        Fleet {
            shards,
            wave_limit: config.wave_limit,
            shard_capacity: config.shard_capacity,
            queue_capacity: config.queue_capacity,
            queue: Vec::new(),
            stats: FleetStats::default(),
            next_id: 0,
            wave: 0,
            completed: Vec::new(),
            round_estimate: config.round_estimate,
        }
    }

    /// Offers a session to the fleet: a sequential-tree search of `root`
    /// under `budget`, scheduled against the latency SLO `slo` (for
    /// virtual-time budgets the budget itself is the natural SLO). Returns
    /// the deterministic admission decision.
    pub fn offer(
        &mut self,
        root: G,
        budget: SearchBudget,
        config: MctsConfig,
        priority: Priority,
        slo: Option<SimTime>,
    ) -> Admission {
        self.stats.offered += 1;
        let id = FleetSessionId(self.next_id);
        self.next_id += 1;
        let ticket = Ticket {
            id,
            root,
            budget,
            config,
            priority,
            slo,
            load: self.load_estimate(budget),
            migrations: 0,
        };
        if let Some(idx) = self.least_loaded_with_room() {
            let (shard, session) = self.place(idx, ticket);
            return Admission::Placed { id, shard, session };
        }
        if self.queue.len() < self.queue_capacity {
            self.stats.queued += 1;
            self.enqueue(ticket);
            return Admission::Queued { id };
        }
        // Queue full: displace the least urgent queued session if the
        // offer strictly outranks it (the queue is sorted by (priority,
        // id), so the victim is the last entry).
        if self
            .queue
            .last()
            .is_some_and(|worst| worst.priority > priority)
        {
            let victim = self.queue.pop().expect("non-empty queue has a last");
            self.reject(victim.priority);
            self.stats.queued += 1;
            self.enqueue(ticket);
            return Admission::Queued { id };
        }
        self.reject(priority);
        Admission::Rejected
    }

    /// Runs one fleet wave: fires scheduled shard deaths (re-placing their
    /// sessions), steps every live shard by one deadline-aware launch wave,
    /// retires finished sessions, and drains the wait queue into freed
    /// capacity. Returns `false` once nothing is left to do.
    pub fn step_wave(&mut self) -> bool {
        self.wave += 1;

        // 1. Scheduled shard deaths, in shard-id order; orphans re-place
        // in (shard-id, session-id) order, bypassing admission.
        let mut orphans: Vec<Ticket<G>> = Vec::new();
        for sh in &mut self.shards {
            if !sh.dead && sh.death_wave == Some(self.wave) {
                sh.dead = true;
                sh.backlog = SimTime::ZERO;
                orphans.extend(sh.active.drain(..).map(|(_, mut t)| {
                    t.migrations += 1;
                    t
                }));
            }
        }
        let mut progressed = !orphans.is_empty();
        for ticket in orphans {
            self.stats.replaced += 1;
            self.replace(ticket);
        }

        // 2. One deadline-aware wave per live shard with resident work.
        for idx in 0..self.shards.len() {
            let sh = &mut self.shards[idx];
            if sh.dead || sh.service.active_sessions() == 0 && sh.active.is_empty() {
                continue;
            }
            sh.service.step_wave(self.wave_limit);
            progressed = true;
            for c in sh.service.take_completed() {
                let pos = sh
                    .active
                    .iter()
                    .position(|(sid, _)| *sid == c.id)
                    .expect("retired session has a ticket");
                let (_, ticket) = sh.active.remove(pos);
                sh.backlog = sh.backlog.saturating_sub(ticket.load);
                self.completed.push(FleetCompleted {
                    id: ticket.id,
                    shard: sh.rank,
                    priority: ticket.priority,
                    slo: ticket.slo,
                    admitted_at: c.admitted_at,
                    completed_at: c.completed_at,
                    migrations: ticket.migrations,
                    report: c.report,
                });
            }
        }

        // 3. Drain the wait queue into freed capacity, most urgent first.
        while !self.queue.is_empty() {
            match self.least_loaded_with_room() {
                Some(idx) => {
                    let ticket = self.queue.remove(0);
                    self.place(idx, ticket);
                    progressed = true;
                }
                None => break,
            }
        }
        progressed
    }

    /// Steps waves until every admitted session has retired and the queue
    /// has drained.
    pub fn run_to_completion(&mut self) {
        while self.step_wave() {}
        debug_assert!(self.queue.is_empty(), "queue drained at completion");
        debug_assert_eq!(
            self.stats.offered,
            self.stats.admitted + self.stats.rejected,
            "every offer was admitted or rejected"
        );
    }

    /// Drains the retired-session records accumulated so far, in
    /// retirement order (shard-major within a wave).
    pub fn take_completed(&mut self) -> Vec<FleetCompleted<G::Move>> {
        std::mem::take(&mut self.completed)
    }

    /// Admission/placement telemetry so far.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// Per-shard snapshots, in shard-id order.
    pub fn shards(&self) -> Vec<ShardSnapshot> {
        self.shards
            .iter()
            .map(|sh| ShardSnapshot {
                rank: sh.rank,
                dead: sh.dead,
                placed: sh.placed,
                replaced_in: sh.replaced_in,
                active: sh.active.len(),
                clock: sh.service.clock(),
                launches: sh.service.launches().len() as u64,
                blocks: sh
                    .service
                    .launches()
                    .iter()
                    .map(|l| u64::from(l.blocks))
                    .sum(),
            })
            .collect()
    }

    /// The fleet's makespan: the furthest shard clock. Shards run
    /// concurrently in virtual time, so aggregate throughput is total
    /// simulations over this, not over the clock sum.
    pub fn makespan(&self) -> SimTime {
        self.shards
            .iter()
            .map(|sh| sh.service.clock())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Total admission capacity: shard slots plus queue slots. Offers
    /// beyond this (while nothing retires) are the ones admission control
    /// rejects.
    pub fn capacity(&self) -> usize {
        self.shards.iter().filter(|s| !s.dead).count() * self.shard_capacity + self.queue_capacity
    }

    /// Sessions waiting in the admission queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Fleet waves stepped so far.
    pub fn wave(&self) -> u64 {
        self.wave
    }

    fn load_estimate(&self, budget: SearchBudget) -> SimTime {
        match budget {
            SearchBudget::VirtualTime(t) => t,
            SearchBudget::Iterations(n) => self.round_estimate * n,
        }
    }

    /// The least-loaded live shard with a free slot, ties broken by shard
    /// id; `None` when admission is full.
    fn least_loaded_with_room(&self) -> Option<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, sh)| !sh.dead && sh.active.len() < self.shard_capacity)
            .min_by_key(|(i, sh)| (sh.load(), *i))
            .map(|(i, _)| i)
    }

    fn place(&mut self, idx: usize, ticket: Ticket<G>) -> (Rank, SessionId) {
        let sh = &mut self.shards[idx];
        if ticket.migrations == 0 {
            self.stats.admitted += 1;
            self.stats.admitted_by_class[ticket.priority.index()] += 1;
            sh.placed += 1;
        } else {
            sh.replaced_in += 1;
        }
        sh.backlog += ticket.load;
        let session = sh.service.admit(
            ticket.root,
            ticket.budget,
            ticket.config.clone(),
            SessionScheme::Sequential,
            ticket.slo,
        );
        let rank = sh.rank;
        sh.active.push((session, ticket));
        (rank, session)
    }

    /// Re-places an orphaned (already-admitted) ticket: least-loaded live
    /// shard if one has room, else the head of the wait queue — admission
    /// control never re-rejects a session it already accepted.
    fn replace(&mut self, ticket: Ticket<G>) {
        match self.least_loaded_with_room() {
            Some(idx) => {
                self.place(idx, ticket);
            }
            None => self.enqueue(ticket),
        }
    }

    fn enqueue(&mut self, ticket: Ticket<G>) {
        let key = (ticket.priority, ticket.id);
        let at = self.queue.partition_point(|t| (t.priority, t.id) <= key);
        self.queue.insert(at, ticket);
    }

    fn reject(&mut self, priority: Priority) {
        self.stats.rejected += 1;
        self.stats.rejected_by_class[priority.index()] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcts_games::Reversi;
    use pmcts_gpu_sim::DeviceSpec;

    fn fleet(devices: usize, config: FleetConfig) -> Fleet<Reversi> {
        Fleet::new(config, Device::fleet(DeviceSpec::tesla_c2050(), devices, 2))
    }

    fn cfg(seed: u64) -> MctsConfig {
        MctsConfig::default().with_seed(seed)
    }

    fn offer_n(f: &mut Fleet<Reversi>, n: u64, priority: Priority) -> Vec<Admission> {
        let budget = SimTime::from_millis(2);
        (0..n)
            .map(|s| {
                f.offer(
                    Reversi::initial(),
                    SearchBudget::VirtualTime(budget),
                    cfg(100 + s),
                    priority,
                    Some(budget),
                )
            })
            .collect()
    }

    #[test]
    fn placement_is_least_loaded_with_shard_id_ties() {
        let mut config = FleetConfig::new(1);
        config.shard_capacity = 2;
        let mut f = fleet(3, config);
        // Equal (zero) load everywhere: ties break by shard id, and the
        // backlog added by each placement rotates the choice.
        let shards: Vec<Rank> = offer_n(&mut f, 6, Priority::Standard)
            .into_iter()
            .map(|a| match a {
                Admission::Placed { shard, .. } => shard,
                other => panic!("expected placement, got {other:?}"),
            })
            .collect();
        assert_eq!(
            shards,
            vec![Rank(0), Rank(1), Rank(2), Rank(0), Rank(1), Rank(2)]
        );
    }

    #[test]
    fn admission_queues_then_rejects_and_displaces_by_class() {
        let mut config = FleetConfig::new(2);
        config.shard_capacity = 1;
        config.queue_capacity = 2;
        let mut f = fleet(1, config);
        // Slot 1 placed, queue holds 2, the 4th batch offer is rejected.
        let a = offer_n(&mut f, 4, Priority::Batch);
        assert!(matches!(a[0], Admission::Placed { .. }));
        assert!(matches!(a[1], Admission::Queued { .. }));
        assert!(matches!(a[2], Admission::Queued { .. }));
        assert_eq!(a[3], Admission::Rejected);
        // An interactive offer displaces a queued batch session.
        let b = offer_n(&mut f, 1, Priority::Interactive);
        assert!(matches!(b[0], Admission::Queued { .. }));
        let stats = f.stats();
        assert_eq!(stats.offered, 5);
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.rejected_by_class[Priority::Batch.index()], 2);
        assert_eq!(f.queue_len(), 2);
        // The fleet still serves everything it admitted.
        f.run_to_completion();
        let done = f.take_completed();
        assert_eq!(done.len(), 3);
        assert_eq!(f.stats().admitted, 3);
        // Batch session 2 was displaced (rejected); the interactive
        // session drains from the queue ahead of the surviving batch one.
        let order: Vec<u64> = done.iter().map(|c| c.id.0).collect();
        assert_eq!(order, vec![0, 4, 1]);
    }

    #[test]
    fn per_session_latency_invariant_holds_fleet_wide() {
        let mut config = FleetConfig::new(3);
        config.shard_capacity = 4;
        config.wave_limit = 2; // force waves smaller than residency
        let mut f = fleet(2, config);
        offer_n(&mut f, 8, Priority::Standard);
        f.run_to_completion();
        let done = f.take_completed();
        assert_eq!(done.len(), 8);
        for c in &done {
            assert_eq!(
                c.completed_at - c.admitted_at,
                c.report.elapsed,
                "session {}: shard clock must match session time",
                c.id
            );
            assert_eq!(
                c.report.phases.phase_sum(),
                c.report.elapsed,
                "session {}: exact phase ledger",
                c.id
            );
        }
        // Waves of 2 under 4-deep residency: somebody waited.
        assert!(done.iter().any(|c| c.report.phases.queue > SimTime::ZERO));
    }

    #[test]
    fn dead_shard_replaces_sessions_deterministically() {
        let run = || {
            let mut config = FleetConfig::new(4);
            config.shard_capacity = 4;
            config.faults = FaultPlan::dead_component(11, 1.0);
            let mut f = fleet(3, config);
            offer_n(&mut f, 9, Priority::Standard);
            f.run_to_completion();
            let stats = f.stats();
            let shards = f.shards();
            (stats, shards, f.take_completed().len())
        };
        let (stats, shards, completed) = run();
        // Rate 1.0 kills every shard but the immune rank 0.
        assert!(shards[1].dead && shards[2].dead);
        assert!(!shards[0].dead);
        assert!(stats.replaced > 0, "dead shards had residents to re-place");
        assert_eq!(completed as u64, stats.admitted);
        assert_eq!(
            stats.offered,
            stats.admitted + stats.rejected,
            "offers fully accounted"
        );
        // Placement counts only first placements; re-placements are
        // tracked separately.
        let placed: u64 = shards.iter().map(|s| s.placed).sum();
        let replaced_in: u64 = shards.iter().map(|s| s.replaced_in).sum();
        assert_eq!(placed, stats.admitted);
        assert_eq!(replaced_in, stats.replaced);
        // Determinism: the whole run replays bit-identically.
        let again = run();
        assert_eq!(stats, again.0);
        assert_eq!(shards, again.1);
    }

    #[test]
    fn overload_starves_late_sessions_but_goodput_survives() {
        let mut config = FleetConfig::new(5);
        config.shard_capacity = 12;
        config.wave_limit = 2;
        let mut f = fleet(1, config);
        offer_n(&mut f, 12, Priority::Standard);
        f.run_to_completion();
        let done = f.take_completed();
        assert_eq!(done.len(), 12);
        let good = done
            .iter()
            .filter(|c| c.report.best_move.is_some() && c.report.simulations > 0)
            .count();
        assert!(good > 0, "the earliest-deadline sessions are served");
        assert!(
            good < 12,
            "a 2-wide wave over 12 equal-deadline sessions must starve the tail"
        );
    }
}
