//! Multi-session search service: cross-search kernel batching (extension).
//!
//! The paper's schemes assume one search owns the whole GPU. A server
//! playing many games at once (or one game against many opponents) instead
//! has N concurrent *sessions*, each searching its own position under its
//! own budget — and a solo session with a handful of blocks leaves most of
//! the device's SMs idle. [`SearchService`] multiplexes sessions over one
//! shared device: every *round* it asks each active session for its next
//! playout batch (selection + expansion on the host, via the steppable
//! engine surface), packs all batches into **one** kernel launch — each
//! session owns the merged grid's next blocks, in session order — and
//! hands each session back its blocks' output slice for backpropagation. One launch overhead and one device round-trip are
//! amortised over every session, and the merged grid is large enough to
//! saturate the SMs (the Fig. 5 plateau, across sessions instead of
//! trees). A session runs the same round engine as the matching solo
//! searcher (the crate's `wave` module), so each scheme's round exists
//! once.
//!
//! # Latency accounting
//!
//! All sessions of a round share the device, so each one's virtual
//! per-round latency is the *whole round*: its own host tree work
//! (`select`/`expand` phases), the other sessions' host work plus the
//! shared launch preparation (the `queue` phase — time spent waiting on
//! the batch, which a solo searcher never pays), the shared upload, the
//! kernel, and the readback. Every participant of a round therefore
//! observes the same round latency, the service clock advances by exactly
//! that amount, and `completed_at − admitted_at` equals the session's
//! reported `elapsed` — each session enforces its own [`SearchBudget`]
//! deadline with the predictive tracker, so a session never overshoots its
//! deadline by more than one round.
//!
//! # Wave packing and latency SLOs
//!
//! [`SearchService::step`] packs *every* active session into the round.
//! [`SearchService::step_wave`] bounds the round to a **wave** of at most
//! `limit` sessions, picked **deadline-aware** (earliest SLO deadline
//! first, ties and deadline-free sessions in session-id order) instead of
//! pure session-id order — the scheduler the fleet layer
//! ([`crate::fleet`]) runs per shard. Sessions left out of a wave still
//! observe the round: the whole round latency is charged to their `queue`
//! phase and their budget tracker (a latency SLO accrues while waiting),
//! so `completed_at − admitted_at == elapsed` and the exact phase-ledger
//! identity hold for every session whether or not it ran. A session can
//! therefore exhaust its budget *without ever launching* — that is the
//! overload signal the fleet's goodput accounting counts.
//!
//! # Determinism
//!
//! Rounds process sessions in **deterministic order**: the retire pass and
//! launch packing run in session-id order (ids are assigned at admission
//! from a monotone counter), wave packing in (deadline, session-id) order
//! — both pure functions of admitted state, never of arrival or
//! completion timing; host phases fan out over the device's
//! [`WorkerPool`](pmcts_gpu_sim::WorkerPool) with index-keyed folding; and
//! per-lane RNG streams derive from the service seed, the launch epoch and
//! the lane's position in the merged grid. The same seed and the same
//! admission sequence therefore produce byte-identical results for any
//! `--host-threads` count.
//!
//! # Faults
//!
//! Rounds launch through the same fault ladder as the solo searchers
//! (`wave::Launcher::launch`), so every session honours its
//! `MctsConfig::faults`. Each session draws its fault from its own plan on
//! its own launch count (stream 0, exactly as a solo searcher built with
//! `new` would). In the merged launch any session's hang stalls the whole
//! wave — every member waits out the deadline, the wave retries once, and
//! a second hang degrades every member to CPU playouts, each waiting on
//! the others' like on host work — a slowdown stretches the merged kernel
//! by the largest factor drawn, and an abort voids only its owner's block.
//! The ledger identities hold on every path. The fleet layer injects
//! *shard death* above the service.
//!
//! Per-session reports carry the full time-phase ledger
//! (`phase_sum() == elapsed`, now including `queue`) and launch counts;
//! the device-side counters (warp steps, occupancy) describe whole merged
//! grids, so they are not split across sessions.
//! [`SearchService::launch_totals`] counts the launches and the sessions
//! and blocks they packed.

use crate::block_parallel::BlockEngine;
use crate::config::{MctsConfig, SearchBudget};
use crate::leaf_parallel::LeafEngine;
use crate::pipelined::PipelinedEngine;
use crate::searcher::SearchReport;
use crate::wave::{Launcher, Ledger, Member, RoundEngine};
use crate::wu_uct::WuUctEngine;
use pmcts_games::Game;
use pmcts_gpu_sim::{Device, LaunchConfig};
use pmcts_util::{SimTime, Xoshiro256pp};

/// Identity of one admitted search session. Ids are assigned from a
/// monotone counter at admission and define the (deterministic) batching
/// order of every round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The search scheme a session runs, with its blocks per round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionScheme {
    /// One tree, one block per round: the block's lanes are a
    /// leaf-parallel batch for the selected node. Not bit-identical to
    /// [`crate::sequential::SequentialSearcher`] (whose playouts run on the
    /// CPU model) — by design: the service trades the CPU playout for
    /// device lanes.
    Sequential,
    /// `n` independent trees, one block each (block parallelism).
    Block(u32),
    /// One shared tree, `n` corrected selections per round (WU-UCT,
    /// DESIGN.md §16).
    WuUct(u32),
    /// `n` trees with deferred landing: round `k+1` selects before round
    /// `k`'s results land (DESIGN.md §16). The shared device serialises
    /// rounds, so no latency is discounted.
    Pipelined(u32),
}

/// One admitted session's lifecycle record, returned by
/// [`SearchService::take_completed`].
#[derive(Clone, Debug)]
pub struct CompletedSession<M> {
    /// The session's id.
    pub id: SessionId,
    /// Service clock when the session was admitted.
    pub admitted_at: SimTime,
    /// Service clock when the session retired. Always equals
    /// `admitted_at + report.elapsed` (see the module docs).
    pub completed_at: SimTime,
    /// The session's final search report.
    pub report: SearchReport<M>,
}

/// Running totals over the batched launches a service performed: fixed
/// size, however long the service runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaunchTotals {
    /// Launches performed.
    pub launches: u64,
    /// Sessions packed into them, summed over launches.
    pub sessions: u64,
    /// The most sessions one launch packed.
    pub max_sessions: u32,
    /// Blocks of the merged grids, summed over launches.
    pub blocks: u64,
}

impl LaunchTotals {
    /// Counts one launch of `sessions` sessions over `blocks` blocks.
    pub(crate) fn add(&mut self, sessions: u32, blocks: u32) {
        self.launches += 1;
        self.sessions += u64::from(sessions);
        self.max_sessions = self.max_sessions.max(sessions);
        self.blocks += u64::from(blocks);
    }
}

struct Session<G: Game> {
    id: SessionId,
    admitted_at: SimTime,
    /// Absolute SLO deadline on the service clock (`admitted_at + slo`).
    /// `None` sorts after every deadline in wave packing.
    deadline: Option<SimTime>,
    engine: Box<dyn RoundEngine<G>>,
}

/// The multi-session search service (see the module docs).
pub struct SearchService<G: Game> {
    launcher: Launcher,
    threads_per_block: u32,
    clock: SimTime,
    next_id: u64,
    active: Vec<Session<G>>,
    completed: Vec<CompletedSession<G::Move>>,
}

impl<G: Game> SearchService<G> {
    /// Creates a service over `device`. Every block of every batched
    /// launch runs `threads_per_block` playout lanes; `seed` drives the
    /// per-launch lane RNG streams. Host-side launch preparation is billed
    /// at the Xeon model's rate (same as the standalone GPU searchers).
    pub fn new(device: Device, threads_per_block: u32, seed: u64) -> Self {
        SearchService {
            launcher: Launcher::shared(device, threads_per_block, seed),
            threads_per_block,
            clock: SimTime::ZERO,
            next_id: 0,
            active: Vec::new(),
            completed: Vec::new(),
        }
    }

    /// Admits a session running `scheme` on `root` under `budget`; it
    /// joins the next round. With a latency `slo`, wave packing
    /// ([`Self::step_wave`]) schedules it by the absolute deadline
    /// `clock + slo`, ahead of every deadline-free session.
    pub fn admit(
        &mut self,
        root: G,
        budget: SearchBudget,
        config: MctsConfig,
        scheme: SessionScheme,
        slo: Option<SimTime>,
    ) -> SessionId {
        let (blocks, salt) = match scheme {
            SessionScheme::Sequential => (1, 0),
            SessionScheme::Block(n) | SessionScheme::WuUct(n) => (n, 0xB10C),
            SessionScheme::Pipelined(n) => (n, 0xF1FE),
        };
        assert!(blocks >= 1, "a session needs ≥ 1 block");
        let launch = LaunchConfig::new(blocks, self.threads_per_block);
        let rng = Xoshiro256pp::derive(config.seed, salt);
        let ledger = Ledger::new(budget, config.faults, 0, 0);
        let engine: Box<dyn RoundEngine<G>> = match scheme {
            SessionScheme::Sequential => Box::new(LeafEngine::new(root, config, 1, rng, ledger)),
            SessionScheme::WuUct(_) => {
                Box::new(WuUctEngine::new(root, config, launch, rng, ledger))
            }
            _ => {
                let pool = std::sync::Arc::clone(self.launcher.device.worker_pool());
                let block = BlockEngine::new(root, config, launch, pool, rng, ledger);
                if matches!(scheme, SessionScheme::Pipelined(_)) {
                    Box::new(PipelinedEngine::new(block))
                } else {
                    Box::new(block)
                }
            }
        };
        let id = SessionId(self.next_id);
        self.next_id += 1;
        self.active.push(Session {
            id,
            admitted_at: self.clock,
            deadline: slo.map(|s| self.clock + s),
            engine,
        });
        id
    }

    /// Runs one batched round: retires exhausted sessions, collects every
    /// remaining session's playout request in session-id order, packs
    /// them into one kernel launch, and completes each session with its
    /// output slice and latency share. Returns `false` when no launch ran
    /// (no session had work left). Equivalent to
    /// [`Self::step_wave`]`(usize::MAX)`.
    pub fn step(&mut self) -> bool {
        self.step_wave(usize::MAX)
    }

    /// Runs one batched round whose launch wave holds at most `limit`
    /// sessions, picked deadline-aware: candidates are tried in
    /// (deadline, session-id) order — earliest SLO first, deadline-free
    /// sessions last — and a candidate with a terminal root retires and
    /// frees its wave slot. Sessions left out of the wave are charged the
    /// whole round as `queue` time (see the module docs), so every active
    /// session's clock advances by the same round latency. Returns `false`
    /// when no launch ran.
    pub fn step_wave(&mut self, limit: usize) -> bool {
        assert!(limit >= 1, "a wave admits at least one session");
        // Retire pass, in session-id order (admission order — ids are
        // monotone and `active` is never reordered): budget-exhausted
        // sessions leave before wave packing, including sessions that
        // spent their whole budget waiting.
        for mut session in std::mem::take(&mut self.active) {
            if session.engine.ledger().tracker.may_continue() {
                self.active.push(session);
            } else {
                self.retire(session);
            }
        }

        // Wave packing: earliest deadline first, ties (and the
        // deadline-free) by session id — with `limit == usize::MAX` this
        // degenerates to the legacy all-sessions id-order round.
        let mut order: Vec<usize> = (0..self.active.len()).collect();
        order.sort_by_key(|&i| {
            let s = &self.active[i];
            (s.deadline.unwrap_or(SimTime::MAX), s.id)
        });
        let mut requests: Vec<Option<_>> = self.active.iter().map(|_| None).collect();
        let mut terminal = vec![false; self.active.len()];
        let mut packed = 0usize;
        for &i in &order {
            if packed == limit {
                break;
            }
            match self.active[i].engine.begin_round() {
                Some(r) => {
                    requests[i] = Some(r);
                    packed += 1;
                }
                None => terminal[i] = true,
            }
        }

        // Terminal-root sessions retire; `active` stays in id order.
        let mut armed = Vec::new();
        for ((session, request), done) in std::mem::take(&mut self.active)
            .into_iter()
            .zip(requests)
            .zip(terminal)
        {
            if done {
                self.retire(session);
            } else {
                self.active.push(session);
                armed.push(request);
            }
        }
        let waiting: Vec<bool> = armed.iter().map(Option::is_none).collect();
        if waiting.iter().all(|&w| w) {
            // Nothing to launch; the packing loop ran out of candidates,
            // so nothing is waiting either.
            debug_assert!(waiting.is_empty());
            return false;
        }

        // One merged launch: wave members' blocks are consecutive, in
        // session-id order. Every member observes the same round latency
        // (its own host work plus everyone else's as `queue`, then the
        // shared device side), and sessions the wave left behind are
        // charged the whole round as queueing.
        let mut wave: Vec<Member<'_, G>> = self
            .active
            .iter_mut()
            .zip(armed)
            .filter_map(|(s, request)| {
                Some(Member {
                    engine: &mut *s.engine,
                    request: request?,
                })
            })
            .collect();
        let latency = self.launcher.launch(&mut wave).latency;
        let mut round = SimTime::ZERO;
        for (m, lat) in wave.iter_mut().zip(&latency) {
            round = m.engine.ledger().charge_round(m.request.host, lat);
        }
        for (s, _) in self.active.iter_mut().zip(waiting).filter(|(_, w)| *w) {
            s.engine.ledger().charge_wait(round);
        }
        self.clock += round;
        true
    }

    /// Retires a session at the current clock. A pipelined session lands
    /// its last wave in `finish`; CPU time spent there extends it.
    fn retire(&mut self, mut session: Session<G>) {
        let waited = session.engine.ledger().tracker.elapsed;
        let report = session.engine.finish();
        self.completed.push(CompletedSession {
            id: session.id,
            admitted_at: session.admitted_at,
            completed_at: self.clock + (report.elapsed - waited),
            report,
        });
    }

    /// Steps until every admitted session has retired (the final, launch-
    /// free call to [`Self::step`] is the retire pass for sessions
    /// exhausted by the last round).
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }

    /// Drains the completed-session records accumulated so far, in
    /// completion order (ties broken by session id — the retire pass runs
    /// in id order).
    pub fn take_completed(&mut self) -> Vec<CompletedSession<G::Move>> {
        std::mem::take(&mut self.completed)
    }

    /// The service's virtual clock: total time spent across all rounds.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Sessions admitted but not yet retired.
    pub fn active_sessions(&self) -> usize {
        self.active.len()
    }

    /// Unobserved in-flight playouts registered on the active sessions'
    /// trees: zero between rounds, whatever each round's landing was.
    pub fn inflight(&self) -> u64 {
        self.active.iter().map(|s| s.engine.inflight()).sum()
    }

    /// Totals over every batched launch performed so far.
    pub fn launch_totals(&self) -> LaunchTotals {
        self.launcher.totals()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcts_games::{Reversi, TicTacToe};
    use pmcts_gpu_sim::DeviceSpec;

    fn device() -> Device {
        Device::new(DeviceSpec::tesla_c2050())
    }

    fn cfg(seed: u64) -> MctsConfig {
        MctsConfig::default().with_seed(seed)
    }

    #[test]
    fn solo_session_completes_within_one_round_of_deadline() {
        let mut svc = SearchService::<Reversi>::new(device(), 32, 99);
        let budget = SimTime::from_millis(5);
        svc.admit(
            Reversi::initial(),
            SearchBudget::VirtualTime(budget),
            cfg(1),
            SessionScheme::Sequential,
            None,
        );
        svc.run_to_completion();
        let done = svc.take_completed();
        assert_eq!(done.len(), 1);
        let c = &done[0];
        assert!(c.report.simulations > 0);
        assert_eq!(c.completed_at - c.admitted_at, c.report.elapsed);
        // Predictive stopping: at most one round past the deadline, and
        // the overshoot is recorded.
        assert!(
            c.report.elapsed < budget * 2,
            "elapsed {}",
            c.report.elapsed
        );
        assert_eq!(
            c.report.phases.budget_overshoot,
            c.report.elapsed.saturating_sub(budget)
        );
    }

    #[test]
    fn sessions_share_batched_launches() {
        let mut svc = SearchService::<Reversi>::new(device(), 32, 7);
        for s in 0..4 {
            svc.admit(
                Reversi::initial(),
                SearchBudget::Iterations(3),
                cfg(100 + s),
                SessionScheme::Sequential,
                None,
            );
        }
        svc.run_to_completion();
        let done = svc.take_completed();
        assert_eq!(done.len(), 4);
        // Equal budgets ⇒ every round packs all four sessions.
        let totals = svc.launch_totals();
        assert_eq!(totals.launches, 3);
        assert_eq!((totals.sessions, totals.max_sessions), (12, 4));
        assert_eq!(totals.blocks, 12);
        for c in &done {
            assert_eq!(c.report.iterations, 3);
            assert_eq!(c.report.simulations, 3 * 32);
        }
    }

    #[test]
    fn phase_ledger_is_exact_including_queue() {
        let mut svc = SearchService::<Reversi>::new(device(), 32, 3);
        svc.admit(
            Reversi::initial(),
            SearchBudget::Iterations(4),
            cfg(1),
            SessionScheme::Sequential,
            None,
        );
        svc.admit(
            Reversi::initial(),
            SearchBudget::Iterations(2),
            cfg(2),
            SessionScheme::Block(3),
            None,
        );
        svc.run_to_completion();
        let done = svc.take_completed();
        assert_eq!(done.len(), 2);
        for c in &done {
            assert_eq!(
                c.report.phases.phase_sum(),
                c.report.elapsed,
                "session {} ledger must include queueing",
                c.id
            );
            assert_eq!(c.completed_at - c.admitted_at, c.report.elapsed);
        }
        // The co-scheduled session really queued behind the other's host
        // work.
        assert!(done.iter().all(|c| c.report.phases.queue > SimTime::ZERO));
    }

    #[test]
    fn batching_beats_back_to_back_solo_runs() {
        let budget = SearchBudget::VirtualTime(SimTime::from_millis(4));
        let run = |batched: bool| -> (u64, SimTime) {
            let mut sims = 0;
            let mut time = SimTime::ZERO;
            if batched {
                let mut svc = SearchService::<Reversi>::new(device(), 32, 5);
                for s in 0..8 {
                    svc.admit(
                        Reversi::initial(),
                        budget,
                        cfg(s),
                        SessionScheme::Sequential,
                        None,
                    );
                }
                svc.run_to_completion();
                sims = svc
                    .take_completed()
                    .iter()
                    .map(|c| c.report.simulations)
                    .sum();
                time = svc.clock();
            } else {
                for s in 0..8 {
                    let mut svc = SearchService::<Reversi>::new(device(), 32, 5);
                    svc.admit(
                        Reversi::initial(),
                        budget,
                        cfg(s),
                        SessionScheme::Sequential,
                        None,
                    );
                    svc.run_to_completion();
                    sims += svc.take_completed()[0].report.simulations;
                    time += svc.clock();
                }
            }
            (sims, time)
        };
        let (sims_b, time_b) = run(true);
        let (sims_u, time_u) = run(false);
        let pps_b = sims_b as f64 / time_b.as_nanos() as f64;
        let pps_u = sims_u as f64 / time_u.as_nanos() as f64;
        assert!(
            pps_b >= 1.5 * pps_u,
            "batched {pps_b} playouts/ns should be ≥ 1.5× solo {pps_u}"
        );
    }

    #[test]
    fn wu_uct_and_pipelined_sessions_complete_with_exact_ledgers() {
        let mut svc = SearchService::<Reversi>::new(device(), 32, 11);
        svc.admit(
            Reversi::initial(),
            SearchBudget::Iterations(4),
            cfg(1),
            SessionScheme::WuUct(4),
            None,
        );
        svc.admit(
            Reversi::initial(),
            SearchBudget::Iterations(4),
            cfg(2),
            SessionScheme::Pipelined(4),
            None,
        );
        svc.admit(
            Reversi::initial(),
            SearchBudget::Iterations(4),
            cfg(3),
            SessionScheme::Block(4),
            None,
        );
        svc.run_to_completion();
        let done = svc.take_completed();
        assert_eq!(done.len(), 3);
        for c in &done {
            // Every scheme ran all 4 rounds of 4 blocks × 32 lanes (the
            // pipelined session's last wave flushes at finish).
            assert_eq!(c.report.iterations, 4, "session {}", c.id);
            assert_eq!(c.report.simulations, 4 * 4 * 32, "session {}", c.id);
            assert_eq!(
                c.report.phases.phase_sum(),
                c.report.elapsed,
                "session {} ledger must sum exactly",
                c.id
            );
            assert_eq!(c.completed_at - c.admitted_at, c.report.elapsed);
        }
    }

    #[test]
    fn wu_uct_session_shares_one_tree() {
        // B blocks deepening one corrected tree: strictly more nodes per
        // round land in a single tree than any one of a block session's
        // B independent trees receives.
        let mut svc = SearchService::<Reversi>::new(device(), 32, 12);
        let id = svc.admit(
            Reversi::initial(),
            SearchBudget::Iterations(6),
            cfg(4),
            SessionScheme::WuUct(8),
            None,
        );
        svc.run_to_completion();
        let done = svc.take_completed();
        let c = done.iter().find(|c| c.id == id).unwrap();
        // One shared tree: root + one expansion per block per round.
        assert_eq!(c.report.tree_nodes, 1 + 6 * 8);
    }

    #[test]
    fn new_engines_are_deterministic_per_seed() {
        let run = |seed| {
            let mut svc = SearchService::<Reversi>::new(device(), 32, seed);
            svc.admit(
                Reversi::initial(),
                SearchBudget::Iterations(5),
                cfg(21),
                SessionScheme::WuUct(4),
                None,
            );
            svc.admit(
                Reversi::initial(),
                SearchBudget::Iterations(5),
                cfg(22),
                SessionScheme::Pipelined(4),
                None,
            );
            svc.run_to_completion();
            svc.take_completed()
                .into_iter()
                .map(|c| c.report.root_stats)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn terminal_root_retires_immediately() {
        let s = TicTacToe::parse("XXX OO. ...", pmcts_games::Player::P2).unwrap();
        let mut svc = SearchService::<TicTacToe>::new(device(), 32, 1);
        svc.admit(
            s,
            SearchBudget::Iterations(10),
            cfg(1),
            SessionScheme::Sequential,
            None,
        );
        svc.run_to_completion();
        let done = svc.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].report.best_move, None);
        assert_eq!(done[0].report.simulations, 0);
        assert_eq!(svc.launch_totals(), LaunchTotals::default());
    }

    #[test]
    fn service_is_deterministic_per_seed() {
        let run = |seed| {
            let mut svc = SearchService::<Reversi>::new(device(), 32, seed);
            for s in 0..3 {
                svc.admit(
                    Reversi::initial(),
                    SearchBudget::Iterations(5),
                    cfg(10 + s),
                    SessionScheme::Sequential,
                    None,
                );
            }
            svc.run_to_completion();
            svc.take_completed()
                .into_iter()
                .map(|c| c.report.root_stats)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
