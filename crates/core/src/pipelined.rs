//! Pipelined block parallelism — Mirsoleimani et al.'s pipeline pattern
//! (PAPERS.md) applied to the paper's block-parallel scheme.
//!
//! Plain block parallelism is a lockstep barrier: select/expand wave `k`,
//! launch, wait, backpropagate, repeat — the host is idle while the kernel
//! flies and the device is idle while the host walks trees. The pipeline
//! removes the barrier by running the two stages one wave apart: while the
//! kernel of wave `k−1` executes, the host selects and expands wave `k`
//! from the trees *as they stood before wave `k−1`'s results landed* (the
//! genuine pipeline hazard — selection cannot observe results that have
//! not been read back), then completes wave `k−1` and immediately launches
//! wave `k`.
//!
//! `PipelinedEngine` is the block-parallel round with that deferred
//! landing; its solo billing hook prices each round as
//! `max(kernel of wave k−1, select/expand of wave k)` through
//! `Ledger::charge_overlapped`. The ledger charges the phases of whichever
//! side is critical and records the hidden side's time as `overlap_saved`
//! (with the host-side overlap also counted in `shadow_overlap`), exactly
//! like the hybrid searcher — the seven phases still sum to `elapsed` to
//! the nanosecond. The final in-flight wave is drained after the budget
//! expires and charged as wait time (`budget_overshoot` reports it), so no
//! launched work is ever dropped.
//!
//! Faults break the pipeline: a wave whose first launch hung runs the
//! shared ladder (deadline, one retry with a fresh stream seed, CPU
//! playouts on a second hang) and is billed **serially** together with the
//! next round's select/expand — a real pipeline stalls on a fault. Its
//! degraded playouts, like every landing, happen after the next wave's
//! selection, since they draw from the engine RNG. Determinism is
//! untouched: wave composition depends only on the launch schedule, never
//! on thread timing, so reports are bit-identical for any host-thread
//! count.

use crate::block_parallel::{backprop_outputs, cpu_playouts, BlockEngine};
use crate::config::{MctsConfig, SearchBudget};
use crate::gpu::LaneOutcome;
use crate::searcher::{SearchReport, Searcher};
use crate::wave::{
    Frontier, HostTime, Ledger, PlayoutRequest, RoundEngine, RoundLatency, Solo, Wave,
    LANE_SEED_STEP,
};
use pmcts_games::Game;
use pmcts_gpu_sim::{Device, LaunchConfig};
use pmcts_util::SimTime;

/// Pipelined block-parallel searcher: select/expand of wave `k` overlaps
/// the in-flight kernel of wave `k−1`.
#[derive(Clone, Debug)]
pub struct PipelinedSearcher<G: Game> {
    solo: Solo,
    _game: std::marker::PhantomData<fn() -> G>,
}

impl<G: Game> PipelinedSearcher<G> {
    /// Creates a pipelined searcher with `launch.blocks` trees and
    /// `launch.threads_per_block` simulations per tree per wave.
    pub fn new(config: MctsConfig, device: Device, launch: LaunchConfig) -> Self {
        Self::with_stream(config, device, launch, 0)
    }

    /// Like [`new`](Self::new) but on RNG sub-stream `stream`.
    pub fn with_stream(
        config: MctsConfig,
        device: Device,
        launch: LaunchConfig,
        stream: u64,
    ) -> Self {
        PipelinedSearcher {
            solo: Solo::new(config, device, launch, stream, 0xF1FE, LANE_SEED_STEP),
            _game: std::marker::PhantomData,
        }
    }
}

impl<G: Game> Searcher<G> for PipelinedSearcher<G> {
    fn search(&mut self, root: G, budget: SearchBudget) -> SearchReport<G::Move> {
        let s = &mut self.solo;
        let mut engine = PipelinedEngine::new(BlockEngine::solo(s, root, budget));
        let report = s.run(&mut engine);
        s.rng = engine.block.rng;
        report
    }

    fn name(&self) -> String {
        format!(
            "pipelined block-parallel ({} trees × {} threads)",
            self.solo.launch.blocks, self.solo.launch.threads_per_block
        )
    }
}

/// How a launched wave landed, applied after the next wave's selection.
enum Landing {
    Lanes(Vec<LaneOutcome>, Option<usize>),
    Degraded,
}

/// The pipelined round: a [`BlockEngine`] whose landings are deferred —
/// round `k+1`'s selection runs before round `k`'s outcomes are applied,
/// and `finish` flushes the last wave, so launched work is never dropped.
pub(crate) struct PipelinedEngine<G: Game> {
    block: BlockEngine<G>,
    deferred: Option<(Frontier<G>, Landing)>,
    /// Solo only: the device side of the wave still in flight, and whether
    /// its first launch hung.
    in_flight: Option<(RoundLatency, bool)>,
}

impl<G: Game> PipelinedEngine<G> {
    pub(crate) fn new(block: BlockEngine<G>) -> Self {
        PipelinedEngine {
            block,
            deferred: None,
            in_flight: None,
        }
    }

    /// Applies the deferred landing; returns its CPU playout time.
    fn flush(&mut self) -> SimTime {
        let b = &mut self.block;
        match self.deferred.take() {
            Some((frontier, Landing::Lanes(lanes, voided))) => {
                backprop_outputs(
                    &mut b.trees,
                    &frontier,
                    &lanes,
                    b.threads_per_block,
                    voided,
                    &b.pool,
                    &mut b.ledger.phases,
                );
                SimTime::ZERO
            }
            Some((frontier, Landing::Degraded)) => cpu_playouts(
                &mut b.trees,
                &frontier,
                &mut b.rng,
                &b.config.cpu_cost,
                &mut b.ledger.phases,
            ),
            None => SimTime::ZERO,
        }
    }

    fn defer(&mut self, landing: Landing) {
        let frontier = self.block.pending.take().expect("no round in flight");
        self.deferred = Some((frontier, landing));
    }
}

impl<G: Game> RoundEngine<G> for PipelinedEngine<G> {
    fn ledger(&mut self) -> &mut Ledger {
        &mut self.block.ledger
    }

    fn begin_round(&mut self) -> Option<PlayoutRequest<G>> {
        // Pipeline ordering: select from the trees as they stood before the
        // previous wave landed, *then* land it.
        let mut request = self.block.begin_round()?;
        request.host.playouts = self.flush();
        Some(request)
    }

    fn complete_round(&mut self, lanes: &[LaneOutcome], voided: Option<usize>) {
        self.defer(Landing::Lanes(lanes.to_vec(), voided));
    }

    fn degrade(&mut self) -> SimTime {
        self.defer(Landing::Degraded);
        SimTime::ZERO
    }

    fn finish(&mut self) -> SearchReport<G::Move> {
        // The budget expired with a wave in flight: it lands here, and its
        // time is charged as wait.
        let mut tail = self
            .in_flight
            .take()
            .map_or_else(RoundLatency::default, |(l, _)| l);
        tail.kernel += self.flush();
        let ledger = &mut self.block.ledger;
        tail.bill(&mut ledger.phases);
        ledger.tracker.charge_wait(tail.total());
        self.block.finish()
    }

    fn charge_solo(&mut self, host: HostTime, wave: &Wave) {
        let (upload, gpu) = wave.split_upload();
        let ledger = &mut self.block.ledger;
        match self.in_flight.replace((gpu, wave.stalled)) {
            // The previous wave flew while this round selected.
            Some((previous, false)) => {
                ledger.charge_overlapped(HostTime::default(), &upload, &previous, host);
            }
            // The first round, or a previous wave that stalled on a hang:
            // billed serially.
            previous => {
                let mut serial = previous.map_or_else(RoundLatency::default, |(l, _)| l);
                serial.upload += upload.upload;
                ledger.charge_round(host, &serial);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_parallel::BlockParallelSearcher;
    use pmcts_games::{Reversi, TicTacToe};
    use pmcts_gpu_sim::DeviceSpec;
    use pmcts_util::FaultPlan;

    fn device() -> Device {
        Device::new(DeviceSpec::tesla_c2050())
    }

    fn cfg(seed: u64) -> MctsConfig {
        MctsConfig::default().with_seed(seed)
    }

    #[test]
    fn runs_and_accounts_exactly() {
        let mut s = PipelinedSearcher::<Reversi>::new(cfg(1), device(), LaunchConfig::new(4, 32));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(5));
        assert_eq!(r.iterations, 5);
        // Every launched wave lands (the drain completes the last one).
        assert_eq!(r.simulations, 5 * 4 * 32);
        assert_eq!(r.phases.phase_sum(), r.elapsed, "ledger must sum exactly");
    }

    #[test]
    fn overlap_is_recorded_and_saves_time() {
        let budget = SearchBudget::VirtualTime(SimTime::from_millis(20));
        let launch = LaunchConfig::new(8, 64);
        let piped = PipelinedSearcher::<Reversi>::new(cfg(3), device(), launch)
            .search(Reversi::initial(), budget);
        assert!(
            piped.phases.overlap_saved > SimTime::ZERO,
            "no overlap recorded"
        );
        assert_eq!(piped.phases.phase_sum(), piped.elapsed);
        // The saved host time buys more waves than the lockstep scheme gets
        // in the same virtual window.
        let lockstep = BlockParallelSearcher::<Reversi>::new(cfg(3), device(), launch)
            .search(Reversi::initial(), budget);
        assert!(
            piped.simulations > lockstep.simulations,
            "pipelined {} should out-simulate lockstep {}",
            piped.simulations,
            lockstep.simulations
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let run = || {
            PipelinedSearcher::<Reversi>::new(cfg(7), device(), LaunchConfig::new(4, 32))
                .search(Reversi::initial(), SearchBudget::Iterations(6))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fault_ladder_keeps_ledger_exact() {
        for plan in [
            FaultPlan::gpu_hang(21, 1.0),
            FaultPlan::gpu_abort(22, 1.0),
            FaultPlan::gpu_slowdown(23, 1.0, 3),
        ] {
            let mut s = PipelinedSearcher::<Reversi>::new(
                cfg(4).with_faults(plan),
                device(),
                LaunchConfig::new(4, 32),
            );
            let r = s.search(Reversi::initial(), SearchBudget::Iterations(6));
            assert!(r.phases.faults.injected > 0, "plan must fire");
            assert_eq!(
                r.phases.phase_sum(),
                r.elapsed,
                "fault path broke the ledger"
            );
        }
    }

    #[test]
    fn tactical_sanity() {
        let s = TicTacToe::parse("XX. OO. ...", pmcts_games::Player::P1).unwrap();
        let mut searcher =
            PipelinedSearcher::<TicTacToe>::new(cfg(5), device(), LaunchConfig::new(2, 32));
        let r = searcher.search(s, SearchBudget::Iterations(40));
        assert_eq!(r.best_move, Some(2));
    }

    #[test]
    fn terminal_root_is_handled() {
        let s = TicTacToe::parse("XXX OO. ...", pmcts_games::Player::P2).unwrap();
        let mut searcher =
            PipelinedSearcher::<TicTacToe>::new(cfg(6), device(), LaunchConfig::new(2, 32));
        let r = searcher.search(s, SearchBudget::Iterations(5));
        assert_eq!(r.best_move, None);
        assert_eq!(r.simulations, 0);
    }
}
