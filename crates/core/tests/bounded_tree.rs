//! Bounded-memory search tree acceptance suite.
//!
//! Three layers of guarantees (ISSUE: deterministic LRU node recycling):
//!
//! 1. **Pinned eviction fingerprints**: a capacity-capped search is a pure
//!    function of `(seed, cap)` — the fingerprints below were captured once
//!    and any drift means the eviction order, the transposition table, or
//!    the recycling bookkeeping changed.
//! 2. **Cross-host-thread byte-identity**: bounded searches — standalone
//!    and multiplexed through the `SearchService` — produce bit-identical
//!    transcripts at 1, 2 and 8 host threads.
//! 3. **Eviction safety properties**: under random workloads the arena
//!    never exceeds its cap, the root and the in-flight selection path are
//!    never recycled, and no node with a live child is ever freed.

use pmcts_core::prelude::*;
use pmcts_core::tree::SearchTree;
use pmcts_util::Xoshiro256pp;
use proptest::prelude::*;

const HOST_THREADS: [usize; 3] = [1, 2, 8];

fn fingerprint<M: std::fmt::Debug>(r: &SearchReport<M>) -> String {
    let visits: u64 = r.root_stats.iter().map(|s| s.visits).sum();
    let wins: f64 = r.root_stats.iter().map(|s| s.wins).sum();
    format!(
        "{:?}/s{}/i{}/n{}/d{}/e{}/v{}/w{}",
        r.best_move,
        r.simulations,
        r.iterations,
        r.tree_nodes,
        r.max_depth,
        r.elapsed.as_nanos(),
        visits,
        wins.to_bits()
    )
}

fn bounded_cfg(seed: u64, cap: u32) -> MctsConfig {
    MctsConfig::default()
        .with_seed(seed)
        .with_tree_capacity(cap)
}

fn device(threads: usize) -> Device {
    Device::new(DeviceSpec::tesla_c2050()).with_host_threads(threads)
}

// ---------------------------------------------------------------------------
// 1. Pinned eviction fingerprints.
// ---------------------------------------------------------------------------

#[test]
fn bounded_sequential_pin() {
    let r = SequentialSearcher::<Reversi>::new(bounded_cfg(201, 64))
        .search(Reversi::initial(), SearchBudget::Iterations(600));
    // 600 iterations into 64 slots: heavy recycling, pinned bit-for-bit.
    assert_eq!(
        fingerprint(&r),
        "Some(ReversiMove(44))/s600/i600/n64/d5/e60932080/v600/w4643703797028225024",
        "bounded eviction schedule drifted"
    );
    assert!(r.tree_nodes <= 64, "live nodes exceed the cap");
}

#[test]
fn bounded_persistent_pin() {
    // Two consecutive searches: the second re-roots the capped tree
    // through the transposition table (TT find → extract_subtree).
    let mut s = PersistentSearcher::<Reversi>::new(bounded_cfg(300, 96));
    let mut state = Reversi::initial();
    let r1 = s.search(state, SearchBudget::Iterations(400));
    state.apply(r1.best_move.expect("opening position has moves"));
    let mut opp = SequentialSearcher::<Reversi>::new(MctsConfig::default().with_seed(301));
    state.apply(
        opp.search(state, SearchBudget::Iterations(50))
            .best_move
            .expect("reply exists"),
    );
    let r2 = s.search(state, SearchBudget::Iterations(400));
    assert_eq!(
        format!(
            "{}::{}+{}",
            fingerprint(&r1),
            fingerprint(&r2),
            s.last_reused_visits()
        ),
        "Some(ReversiMove(44))/s400/i400/n96/d5/e40476720/v400/w4640783494144851968\
         ::Some(ReversiMove(18))/s400/i400/n96/d4/e39459680/v427/w4641663103447072768+29",
        "bounded re-root schedule drifted"
    );
    assert!(r2.tree_nodes <= 96);
}

// ---------------------------------------------------------------------------
// 2. Cross-host-thread byte-identity.
// ---------------------------------------------------------------------------

/// A service workload of bounded sequential and bounded block sessions;
/// the full lifecycle must be bit-identical for any host-thread count.
#[allow(clippy::type_complexity)]
fn bounded_service_transcript(
    threads: usize,
) -> Vec<(
    u64,
    SimTime,
    SimTime,
    SearchReport<pmcts_games::ReversiMove>,
)> {
    let mut svc = SearchService::<Reversi>::new(device(threads), 32, 88);
    for s in 0..3u64 {
        svc.admit(
            Reversi::initial(),
            SearchBudget::VirtualTime(SimTime::from_millis(3)),
            bounded_cfg(210 + s, 64),
            SessionScheme::Sequential,
            None,
        );
    }
    svc.admit(
        Reversi::initial(),
        SearchBudget::Iterations(6),
        bounded_cfg(220, 64),
        SessionScheme::Block(2),
        None,
    );
    svc.run_to_completion();
    svc.take_completed()
        .into_iter()
        .map(|c| (c.id.0, c.admitted_at, c.completed_at, c.report))
        .collect()
}

#[test]
fn bounded_service_identical_across_host_threads() {
    let baseline = bounded_service_transcript(HOST_THREADS[0]);
    assert_eq!(baseline.len(), 4, "every session must complete");
    for &threads in &HOST_THREADS[1..] {
        assert_eq!(
            baseline,
            bounded_service_transcript(threads),
            "bounded service transcript changed at {threads} host threads"
        );
    }
}

#[test]
fn bounded_sequential_identical_across_host_threads() {
    // The sequential searcher never touches the pool, but the acceptance
    // bar is explicit: same seed ⇒ byte-identical report at any
    // `--host-threads`, capped or not.
    let run = || {
        SequentialSearcher::<Reversi>::new(bounded_cfg(230, 64))
            .search(Reversi::initial(), SearchBudget::Iterations(500))
    };
    let baseline = run();
    for _ in &HOST_THREADS[1..] {
        assert_eq!(baseline, run());
    }
}

// ---------------------------------------------------------------------------
// 3. Eviction safety properties.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random bounded workloads: the arena never exceeds its cap, the LRU
    /// and free lists stay structurally sound (`debug_validate` checks, in
    /// particular, that no freed slot is ever linked as a live node's
    /// child — i.e. eviction never freed a node with a live child), the
    /// root is never recycled, and the just-expanded selection path is
    /// fully live after every iteration.
    #[test]
    fn eviction_never_frees_root_path_or_parents(
        seed in any::<u64>(),
        cap in 16u32..120,
        iters in 50usize..400,
    ) {
        let mut tree = SearchTree::bounded(Reversi::initial(), cap);
        let mut rng = Xoshiro256pp::new(seed);
        for i in 0..iters {
            let sel = tree.select(1.4);
            let node = if !tree.fully_expanded(sel) {
                tree.expand(sel, &mut rng)
            } else {
                sel
            };
            tree.backprop(node, (i % 3) as f64 / 2.0, 1);
            prop_assert!(tree.len() <= cap as usize, "arena exceeded cap");
            // The selection path of this iteration survived its own
            // expansion: walking parents from the new node reaches the
            // root through live, mutually-linked nodes.
            let mut cur = node;
            let mut hops = 0u32;
            while let Some(p) = tree.parent(cur) {
                prop_assert!(tree.children(p).contains(&cur), "path node unlinked");
                cur = p;
                hops += 1;
                prop_assert!(hops <= tree.max_depth(), "parent chain cycles");
            }
            prop_assert_eq!(cur, tree.root(), "path does not reach the root");
        }
        tree.debug_validate();
        // The root is pinned: still node 0, still carrying every visit.
        prop_assert_eq!(tree.visits(tree.root()), iters as u64);
    }

    /// WU-UCT pinning (DESIGN.md §16): a node carrying unobserved
    /// in-flight samples (`O > 0`) — and its whole registration path — is
    /// never evicted or recycled, however hard the arena churns around it.
    /// After the batch rolls back, every counter is zero and the arena is
    /// structurally sound.
    #[test]
    fn eviction_skips_nodes_with_inflight_samples(
        seed in any::<u64>(),
        cap in 16u32..96,
    ) {
        let mut tree = SearchTree::bounded(Reversi::initial(), cap);
        let mut rng = Xoshiro256pp::new(seed);
        // Grow a little, then register a 32-lane batch in flight on the
        // current selection path.
        for i in 0..12 {
            let sel = tree.select(1.4);
            let node = if !tree.fully_expanded(sel) {
                tree.expand(sel, &mut rng)
            } else {
                sel
            };
            tree.backprop(node, (i % 3) as f64 / 2.0, 1);
        }
        let pinned_node = {
            let sel = tree.select_corrected(1.4);
            if !tree.fully_expanded(sel) {
                tree.expand(sel, &mut rng)
            } else {
                sel
            }
        };
        tree.add_inflight_path(pinned_node, 32);
        let pinned_state = *tree.state(pinned_node);
        // Churn the arena well past its capacity with the batch still in
        // flight.
        for i in 0..(cap as usize * 2 + 50) {
            let sel = tree.select_corrected(1.4);
            let node = if !tree.fully_expanded(sel) {
                tree.expand(sel, &mut rng)
            } else {
                sel
            };
            tree.backprop(node, (i % 3) as f64 / 2.0, 1);
            prop_assert!(tree.len() <= cap as usize, "arena exceeded cap");
            // The registered path is alive and untouched: same state, O
            // intact on every ancestor, still linked to the root.
            prop_assert_eq!(tree.inflight(pinned_node), 32);
            prop_assert_eq!(tree.state(pinned_node), &pinned_state);
            let mut cur = pinned_node;
            while let Some(p) = tree.parent(cur) {
                prop_assert_eq!(tree.inflight(p), 32, "ancestor lost its registration");
                prop_assert!(tree.children(p).contains(&cur), "in-flight path unlinked");
                cur = p;
            }
            prop_assert_eq!(cur, tree.root(), "in-flight path detached from the root");
        }
        prop_assert!(tree.evictions() > 0, "test must actually churn the arena");
        // Roll the batch back: counters hit zero exactly and the freed
        // path becomes evictable again without structural damage.
        tree.sub_inflight_path(pinned_node, 32);
        prop_assert_eq!(tree.inflight_total(), 0);
        tree.debug_validate();
    }

    /// Statistics conservation at the root: eviction loses tree structure
    /// below, never backpropagated results. Each iteration adds exactly one
    /// visit through one root child, and transposition recovery can only
    /// *add* back previously evicted visits — so the bounded root mass is
    /// at least the unbounded one while simulations stay identical.
    #[test]
    fn eviction_preserves_root_statistics(
        seed in any::<u64>(),
        cap in 64u32..128,
    ) {
        let run = |cap: Option<u32>| {
            let mut cfg = MctsConfig::default().with_seed(seed);
            if let Some(c) = cap {
                cfg = cfg.with_tree_capacity(c);
            }
            SequentialSearcher::<Reversi>::new(cfg)
                .search(Reversi::initial(), SearchBudget::Iterations(300))
        };
        let bounded = run(Some(cap));
        let unbounded = run(None);
        prop_assert_eq!(bounded.simulations, unbounded.simulations);
        let bv: u64 = bounded.root_stats.iter().map(|s| s.visits).sum();
        let uv: u64 = unbounded.root_stats.iter().map(|s| s.visits).sum();
        prop_assert!(bv >= uv, "root visit mass leaked under eviction: {} < {}", bv, uv);
        prop_assert!(bounded.tree_nodes <= cap as u64);
    }
}

// ---------------------------------------------------------------------------
// 4. Re-rooted trees keep recycling safely.
// ---------------------------------------------------------------------------

/// Regression test: `extract_subtree` must reserve each copied node's
/// untried range at its *full* legal-move capacity, not its current untried
/// count. Eviction grows a parent's untried list back as its children are
/// recycled; an under-sized range made that append spill into the next
/// node's moves (caught live as an "illegal move" panic deep in a
/// persistent search). `debug_validate` now cross-checks every node's
/// untried ∪ children moves against its state's legal set, so driving an
/// extracted tree through heavy eviction reproduces the spill if it ever
/// comes back.
#[test]
fn extracted_subtree_survives_continued_eviction() {
    let cap = 72u32;
    let cfg = bounded_cfg(77, cap);
    let mut searcher = SequentialSearcher::<Reversi>::new(cfg.clone());
    let (_, tree) = searcher.search_with_tree(Reversi::initial(), SearchBudget::Iterations(300));

    // Re-root at the most visited child, like a persistent move, then keep
    // searching the extracted tree until recycling has churned well past
    // the arena size.
    let best = *tree
        .children(tree.root())
        .iter()
        .max_by_key(|&&c| tree.visits(c))
        .expect("searched root has children");
    let mut sub = tree.extract_subtree(best);
    sub.debug_validate();

    let mut rng = Xoshiro256pp::new(78);
    let mut evictions_seen = 0u64;
    for i in 0..600 {
        let sel = sub.select(1.4);
        let node = if !sub.fully_expanded(sel) {
            sub.expand(sel, &mut rng)
        } else {
            sel
        };
        sub.backprop(node, (i % 5) as f64 / 4.0, 1);
        sub.debug_validate();
        evictions_seen = sub.evictions();
    }
    assert!(
        evictions_seen > cap as u64,
        "test must churn the arena: {evictions_seen} evictions at cap {cap}"
    );
}
