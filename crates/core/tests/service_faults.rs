//! Property tests for the search service's shared launch path and fault
//! ladder, over random fault plans, session mixes, wave limits and seeds:
//!
//! * every retired session's phase ledger sums to its `elapsed` exactly;
//! * `completed_at − admitted_at == elapsed` for every session, served or
//!   starved, faulted or not;
//! * every admitted session retires, exactly once;
//! * no WU-UCT in-flight registration survives a round, whichever way the
//!   round landed (clean, voided, retried or degraded).

use pmcts_core::prelude::*;
use proptest::prelude::*;

/// Fault plan `class` at `rate_pct` percent per launch: none, slowdown,
/// hang, abort, or all three GPU classes at once.
fn plan(class: u8, seed: u64, rate_pct: u32) -> FaultPlan {
    let rate = f64::from(rate_pct) / 100.0;
    match class {
        0 => FaultPlan::none(),
        1 => FaultPlan::gpu_slowdown(seed, rate, 3),
        2 => FaultPlan::gpu_hang(seed, rate),
        3 => FaultPlan::gpu_abort(seed, rate),
        _ => FaultPlan {
            gpu_slowdown_rate: rate / 3.0,
            gpu_hang_rate: rate / 3.0,
            gpu_abort_rate: rate / 3.0,
            ..FaultPlan::gpu_slowdown(seed, 0.0, 3)
        },
    }
}

fn scheme(kind: u8, blocks: u32) -> SessionScheme {
    match kind {
        0 => SessionScheme::Sequential,
        1 => SessionScheme::Block(blocks),
        2 => SessionScheme::WuUct(blocks),
        _ => SessionScheme::Pipelined(blocks),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn service_ledgers_hold_under_random_faults(
        sessions in prop::collection::vec(
            (0u8..4, 1u32..5, 0u8..5, 0u32..101, any::<u64>(), 0u8..3),
            1..7,
        ),
        limit in 1usize..5,
        seed in any::<u64>(),
    ) {
        let device = Device::new(DeviceSpec::tesla_c2050()).with_host_threads(2);
        let mut svc = SearchService::<Reversi>::new(device, 16, seed);
        let mut admitted = Vec::new();
        for &(kind, blocks, class, rate, s, shape) in &sessions {
            let config = MctsConfig::default()
                .with_seed(s)
                .with_faults(plan(class, s ^ seed, rate));
            let deadline = SimTime::from_micros(300 + s % 3000);
            let (budget, slo) = match shape {
                0 => (SearchBudget::Iterations(1 + s % 4), None),
                1 => (SearchBudget::VirtualTime(deadline), None),
                _ => (SearchBudget::VirtualTime(deadline), Some(deadline)),
            };
            admitted.push(svc.admit(Reversi::initial(), budget, config, scheme(kind, blocks), slo));
        }

        let mut rounds = 0;
        while svc.step_wave(limit) {
            prop_assert_eq!(svc.inflight(), 0, "in-flight residue after a round");
            rounds += 1;
            prop_assert!(rounds < 10_000, "service never drained");
        }
        prop_assert_eq!(svc.active_sessions(), 0);

        let done = svc.take_completed();
        let mut retired: Vec<SessionId> = done.iter().map(|c| c.id).collect();
        retired.sort();
        prop_assert_eq!(retired, admitted, "every admitted session retires once");
        for c in &done {
            prop_assert_eq!(c.report.phases.phase_sum(), c.report.elapsed, "ledger of {}", c.id);
            prop_assert_eq!(c.completed_at - c.admitted_at, c.report.elapsed, "latency of {}", c.id);
        }
    }
}
