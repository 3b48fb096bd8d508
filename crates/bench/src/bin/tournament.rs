//! Round-robin tournament among the parallelization schemes at equal
//! virtual budget — a one-stop comparison across everything §III describes
//! (plus the extensions), printed as a cross table.
//!
//! Two arenas run back to back: the full entrant set on Reversi (the
//! paper's domain) and a smaller set on Hex 11×11, the branchier long game
//! added for scenario coverage (DESIGN.md §15 satellite).
//!
//! Run: `cargo run --release -p pmcts-bench --bin tournament -- [--full]`

use pmcts_bench::BenchArgs;
use pmcts_core::arena::MatchSeries;
use pmcts_core::prelude::*;

/// A named player factory.
struct Entrant<G: Game> {
    name: &'static str,
    make: Box<dyn Fn(u64, SearchBudget) -> Box<dyn GamePlayer<G>>>,
}

fn entrants(seed: u64) -> Vec<Entrant<Reversi>> {
    vec![
        Entrant {
            name: "sequential",
            make: Box::new(move |g, budget| {
                Box::new(MctsPlayer::new(
                    SequentialSearcher::<Reversi>::new(MctsConfig::default().with_seed(seed ^ g)),
                    budget,
                ))
            }),
        },
        Entrant {
            name: "root x16",
            make: Box::new(move |g, budget| {
                Box::new(MctsPlayer::new(
                    RootParallelSearcher::<Reversi>::new(
                        MctsConfig::default().with_seed(seed ^ g),
                        16,
                    ),
                    budget,
                ))
            }),
        },
        Entrant {
            name: "leaf 16x64",
            make: Box::new(move |g, budget| {
                Box::new(MctsPlayer::new(
                    LeafParallelSearcher::<Reversi>::new(
                        MctsConfig::default().with_seed(seed ^ g),
                        Device::c2050(),
                        LaunchConfig::new(16, 64),
                    ),
                    budget,
                ))
            }),
        },
        Entrant {
            name: "block 32x32",
            make: Box::new(move |g, budget| {
                Box::new(MctsPlayer::new(
                    BlockParallelSearcher::<Reversi>::new(
                        MctsConfig::default().with_seed(seed ^ g),
                        Device::c2050(),
                        LaunchConfig::new(32, 32),
                    ),
                    budget,
                ))
            }),
        },
        Entrant {
            name: "hybrid 32x32",
            make: Box::new(move |g, budget| {
                Box::new(MctsPlayer::new(
                    HybridSearcher::<Reversi>::new(
                        MctsConfig::default().with_seed(seed ^ g),
                        Device::c2050(),
                        LaunchConfig::new(32, 32),
                    ),
                    budget,
                ))
            }),
        },
        Entrant {
            name: "2gpu 16x32",
            make: Box::new(move |g, budget| {
                Box::new(MctsPlayer::new(
                    MultiGpuSearcher::<Reversi>::new(
                        MctsConfig::default().with_seed(seed ^ g),
                        2,
                        DeviceSpec::tesla_c2050(),
                        LaunchConfig::new(16, 32),
                        NetworkModel::infiniband(),
                    ),
                    budget,
                ))
            }),
        },
    ]
}

/// Smaller Hex 11×11 arena: the sequential baseline against the two
/// single-device GPU schemes. Hex playouts are ~2× Reversi wall cost, so
/// the quick config keeps the pairing count down.
fn hex11_entrants(seed: u64) -> Vec<Entrant<Hex11>> {
    vec![
        Entrant {
            name: "sequential",
            make: Box::new(move |g, budget| {
                Box::new(MctsPlayer::new(
                    SequentialSearcher::<Hex11>::new(MctsConfig::default().with_seed(seed ^ g)),
                    budget,
                ))
            }),
        },
        Entrant {
            name: "leaf 16x64",
            make: Box::new(move |g, budget| {
                Box::new(MctsPlayer::new(
                    LeafParallelSearcher::<Hex11>::new(
                        MctsConfig::default().with_seed(seed ^ g),
                        Device::c2050(),
                        LaunchConfig::new(16, 64),
                    ),
                    budget,
                ))
            }),
        },
        Entrant {
            name: "block 32x32",
            make: Box::new(move |g, budget| {
                Box::new(MctsPlayer::new(
                    BlockParallelSearcher::<Hex11>::new(
                        MctsConfig::default().with_seed(seed ^ g),
                        Device::c2050(),
                        LaunchConfig::new(32, 32),
                    ),
                    budget,
                ))
            }),
        },
    ]
}

/// Runs one full round-robin and prints its cross table.
fn arena<G: Game>(title: &str, players: &[Entrant<G>], games: u64, budget: SearchBudget) {
    let n = players.len();
    println!(
        "# {title}: {games} games per pairing, {} per move\n",
        match budget {
            SearchBudget::VirtualTime(t) => t.to_string(),
            SearchBudget::Iterations(i) => format!("{i} iterations"),
        }
    );

    // scores[i][j] = win ratio of i against j.
    let mut scores = vec![vec![None::<f64>; n]; n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            // `g` is already a per-(game, entrant, colour) stream from
            // `entrant_stream`, so the two sides of a game never share RNG
            // streams; folding the pairing identity in on top gives each
            // scheme fresh streams in every pairing as well.
            let result = MatchSeries::<G>::run(
                games,
                |g| {
                    let s = g.wrapping_add((1 + i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    (players[i].make)(s, budget)
                },
                |g| {
                    let s = g.wrapping_add((100 + j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    (players[j].make)(s, budget)
                },
            );
            scores[i][j] = Some(result.win_ratio());
            eprintln!(
                "{:<14} vs {:<14} {:.2}",
                players[i].name,
                players[j].name,
                result.win_ratio()
            );
        }
    }

    // Cross table.
    print!("{:<14}", "");
    for p in players {
        print!("{:>12}", p.name);
    }
    println!("{:>8}", "mean");
    for i in 0..n {
        print!("{:<14}", players[i].name);
        let mut sum = 0.0;
        let mut count = 0;
        for score in &scores[i] {
            match score {
                Some(s) => {
                    print!("{s:>12.2}");
                    sum += s;
                    count += 1;
                }
                None => print!("{:>12}", "-"),
            }
        }
        println!("{:>8.2}", sum / count.max(1) as f64);
    }
    println!();
}

fn main() {
    let args = BenchArgs::parse();
    let games = args.games_or(2, 10);
    let budget = SearchBudget::millis(args.move_ms_or(60, 250));
    arena("tournament (reversi)", &entrants(args.seed), games, budget);
    arena(
        "tournament (hex 11x11)",
        &hex11_entrants(args.seed),
        games,
        budget,
    );
}
