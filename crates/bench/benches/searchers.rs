//! Criterion benches of whole searcher iterations (wall-clock cost of one
//! move search per scheme at a small fixed budget).

use criterion::{criterion_group, criterion_main, Criterion};
use pmcts_core::prelude::*;

fn bench_searchers(c: &mut Criterion) {
    let root = Reversi::initial();
    let budget = SearchBudget::Iterations(20);

    c.bench_function("sequential: 20 iterations", |b| {
        b.iter(|| {
            SequentialSearcher::<Reversi>::new(MctsConfig::default().with_seed(1))
                .search(root, budget)
                .simulations
        })
    });

    c.bench_function("leaf parallel 4x64: 5 iterations", |b| {
        b.iter(|| {
            LeafParallelSearcher::<Reversi>::new(
                MctsConfig::default().with_seed(2),
                Device::c2050(),
                LaunchConfig::new(4, 64),
            )
            .search(root, SearchBudget::Iterations(5))
            .simulations
        })
    });

    c.bench_function("block parallel 8x32: 5 iterations", |b| {
        b.iter(|| {
            BlockParallelSearcher::<Reversi>::new(
                MctsConfig::default().with_seed(3),
                Device::c2050(),
                LaunchConfig::new(8, 32),
            )
            .search(root, SearchBudget::Iterations(5))
            .simulations
        })
    });

    c.bench_function("root parallel x4: 20 iterations each", |b| {
        b.iter(|| {
            RootParallelSearcher::<Reversi>::new(MctsConfig::default().with_seed(4), 4)
                .search(root, budget)
                .simulations
        })
    });
}

criterion_group!(benches, bench_searchers);
criterion_main!(benches);
