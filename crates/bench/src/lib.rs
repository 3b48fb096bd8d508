//! Shared harness for the figure regenerators and ablation benches.
//!
//! Every experiment binary follows the same shape: parse a few flags
//! ([`BenchArgs`]), build players/searchers from `pmcts-core`, sweep a
//! parameter, and print labelled TSV series ([`print_series`]) that
//! correspond one-to-one to the curves of the paper's figures. Output goes
//! to stdout and, with `--out DIR`, to `DIR/<name>.tsv`.
//!
//! [`tree_aos`] keeps the original array-of-structs search tree as the
//! `throughput` baseline and the layout-equivalence oracle of the SoA
//! [`SearchTree`](pmcts_core::tree::SearchTree).

pub mod tree_aos;

use pmcts_games::{Game, Reversi};
use pmcts_util::stats::Series;
use pmcts_util::SplitMix64;
use std::io::Write;

/// Command-line arguments shared by all experiment binaries.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Paper-sized sweep (slow) instead of the CI-sized default.
    pub full: bool,
    /// Base RNG seed.
    pub seed: u64,
    /// Override for games per configuration (0 = binary default).
    pub games: u64,
    /// Override for the per-move virtual budget in milliseconds
    /// (0 = binary default).
    pub move_ms: u64,
    /// Override for real host worker threads (0 = binary default). Virtual
    /// results are host-thread independent; the CI determinism gate runs
    /// the same experiment at different counts and diffs the output.
    pub host_threads: usize,
    /// Fleet geometry: sessions to offer (0 = binary default; `serve`
    /// only).
    pub sessions: u64,
    /// Fleet geometry: simulated devices / service shards (0 = binary
    /// default; `serve` only).
    pub devices: u64,
    /// Optional output directory for TSV files.
    pub out_dir: Option<String>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            full: false,
            seed: 0xF1605EED,
            games: 0,
            move_ms: 0,
            host_threads: 0,
            sessions: 0,
            devices: 0,
            out_dir: None,
        }
    }
}

impl BenchArgs {
    /// Parses `std::env::args()`. Unknown flags abort with usage help.
    pub fn parse() -> Self {
        let mut args = BenchArgs::default();
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--full" => args.full = true,
                "--quick" => args.full = false,
                "--seed" => args.seed = expect_num(&mut it, "--seed"),
                "--games" => args.games = expect_num(&mut it, "--games"),
                "--move-ms" => args.move_ms = expect_num(&mut it, "--move-ms"),
                "--host-threads" => {
                    args.host_threads = expect_num(&mut it, "--host-threads") as usize
                }
                "--sessions" => args.sessions = expect_num(&mut it, "--sessions"),
                "--devices" => args.devices = expect_num(&mut it, "--devices"),
                "--out" => {
                    args.out_dir = Some(it.next().unwrap_or_else(|| usage("--out needs a path")))
                }
                "--help" | "-h" => usage("usage"),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        args
    }

    /// Games per configuration, honouring the override.
    pub fn games_or(&self, default_quick: u64, default_full: u64) -> u64 {
        if self.games > 0 {
            self.games
        } else if self.full {
            default_full
        } else {
            default_quick
        }
    }

    /// Per-move virtual budget (ms), honouring the override.
    pub fn move_ms_or(&self, default_quick: u64, default_full: u64) -> u64 {
        if self.move_ms > 0 {
            self.move_ms
        } else if self.full {
            default_full
        } else {
            default_quick
        }
    }

    /// Real host worker threads, honouring the override.
    pub fn host_threads_or(&self, default: usize) -> usize {
        if self.host_threads > 0 {
            self.host_threads
        } else {
            default
        }
    }

    /// Fleet sessions to offer, honouring the override.
    pub fn sessions_or(&self, default_quick: u64, default_full: u64) -> u64 {
        if self.sessions > 0 {
            self.sessions
        } else if self.full {
            default_full
        } else {
            default_quick
        }
    }

    /// Fleet devices (service shards), honouring the override.
    pub fn devices_or(&self, default_quick: u64, default_full: u64) -> u64 {
        if self.devices > 0 {
            self.devices
        } else if self.full {
            default_full
        } else {
            default_quick
        }
    }
}

fn expect_num(it: &mut impl Iterator<Item = String>, flag: &str) -> u64 {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a number")))
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "{msg}\n\nflags:\n  --quick          CI-sized sweep (default)\n  --full           paper-sized sweep\n  --seed N         base RNG seed\n  --games N        games per configuration\n  --move-ms N      per-move virtual budget in milliseconds\n  --host-threads N real host worker threads (results are unaffected)\n  --sessions N     fleet sessions to offer (serve only)\n  --devices N      fleet devices / service shards (serve only)\n  --out DIR        also write output files (TSV/JSON) to DIR"
    );
    std::process::exit(2)
}

/// Prints series as TSV: a comment header, then `x<TAB>y` blocks per
/// series, blank-line separated — easy to plot and to diff.
pub fn print_series(name: &str, title: &str, series: &[Series], args: &BenchArgs) {
    let mut text = String::new();
    text.push_str(&format!("# {name}: {title}\n"));
    for s in series {
        text.push_str(&format!("## {}\n", s.label));
        for &(x, y) in &s.points {
            text.push_str(&format!("{x}\t{y:.6}\n"));
        }
        text.push('\n');
    }
    print!("{text}");
    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir).expect("create out dir");
        let path = format!("{dir}/{name}.tsv");
        let mut f = std::fs::File::create(&path).expect("create tsv");
        f.write_all(text.as_bytes()).expect("write tsv");
        eprintln!("wrote {path}");
    }
}

/// A tiny hand-rolled JSON object builder (the workspace carries no JSON
/// dependency): fields keep insertion order, strings are escaped, floats
/// are emitted finite-or-zero so output always parses.
#[derive(Clone, Debug, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a string field.
    pub fn str_field(mut self, key: &str, value: &str) -> Self {
        self.fields.push((key.to_string(), json_string(value)));
        self
    }

    /// Adds an integer field.
    pub fn u64_field(mut self, key: &str, value: u64) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a float field (non-finite values become 0 so the output stays
    /// valid JSON).
    pub fn f64_field(mut self, key: &str, value: f64) -> Self {
        let v = if value.is_finite() { value } else { 0.0 };
        self.fields.push((key.to_string(), format!("{v}")));
        self
    }

    /// Adds a nested array-of-objects field (e.g. per-shard records inside
    /// a fleet summary).
    pub fn obj_array_field(mut self, key: &str, values: &[JsonObject]) -> Self {
        let body: Vec<String> = values.iter().map(|o| o.render()).collect();
        self.fields
            .push((key.to_string(), format!("[{}]", body.join(", "))));
        self
    }

    /// Renders `{"k": v, ...}`.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_string(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Escapes and quotes a JSON string.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Builds the JSON record for one scheme's
/// [`SearchReport`](pmcts_core::prelude::SearchReport) — the unit the
/// `profile` binary emits: identity, totals, the exact seven-phase ledger
/// (nanoseconds), overlap/overshoot measures, and folded device
/// statistics.
pub fn phase_record<M>(scheme: &str, report: &pmcts_core::prelude::SearchReport<M>) -> JsonObject {
    let p = &report.phases;
    JsonObject::new()
        .str_field("scheme", scheme)
        .u64_field("simulations", report.simulations)
        .u64_field("iterations", report.iterations)
        .u64_field("tree_nodes", report.tree_nodes)
        .u64_field("max_depth", report.max_depth as u64)
        .u64_field("elapsed_ns", report.elapsed.as_nanos())
        .f64_field("sims_per_second", report.sims_per_second())
        .u64_field("select_ns", p.select.as_nanos())
        .u64_field("expand_ns", p.expand.as_nanos())
        .u64_field("queue_ns", p.queue.as_nanos())
        .u64_field("upload_ns", p.upload.as_nanos())
        .u64_field("kernel_ns", p.kernel.as_nanos())
        .u64_field("readback_ns", p.readback.as_nanos())
        .u64_field("merge_ns", p.merge.as_nanos())
        .u64_field("shadow_overlap_ns", p.shadow_overlap.as_nanos())
        .u64_field("overlap_saved_ns", p.overlap_saved.as_nanos())
        .u64_field("budget_overshoot_ns", p.budget_overshoot.as_nanos())
        .u64_field("expansions", p.expansions)
        .u64_field("kernel_launches", p.kernel_launches)
        .u64_field("shadow_iterations", p.shadow_iterations)
        .u64_field("warp_steps", p.warp_steps)
        .u64_field("lane_steps", p.lane_steps)
        .u64_field("idle_lane_steps", p.idle_lane_steps)
        .f64_field("kernel_share", p.kernel_share())
        .f64_field("mean_occupancy", p.mean_occupancy())
        .f64_field("lane_efficiency", p.lane_efficiency())
        .u64_field("faults_injected", p.faults.injected)
        .u64_field("faults_retried", p.faults.retried)
        .u64_field("faults_degraded", p.faults.degraded)
        .u64_field("faults_excluded", p.faults.excluded)
}

/// Prints `records` as a JSON array to stdout and, with `--out DIR`, writes
/// `DIR/<name>.json` — the JSON sibling of [`print_series`].
pub fn write_json(name: &str, records: &[JsonObject], args: &BenchArgs) {
    let mut text = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        text.push_str("  ");
        text.push_str(&r.render());
        if i + 1 < records.len() {
            text.push(',');
        }
        text.push('\n');
    }
    text.push_str("]\n");
    print!("{text}");
    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir).expect("create out dir");
        let path = format!("{dir}/{name}.json");
        let mut f = std::fs::File::create(&path).expect("create json");
        f.write_all(text.as_bytes()).expect("write json");
        eprintln!("wrote {path}");
    }
}

/// Nearest-rank percentile of an ascending-sorted sample. `p` is in
/// percent (`50.0` = median). The rank is clamped into the sample, so
/// high percentiles on small samples (e.g. `p = 99.9` with ten points)
/// return the maximum instead of indexing past the end, and `p = 0.0`
/// returns the minimum.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A reproducible mid-game Reversi position: `plies` uniformly random moves
/// from the initial position under `seed`. The speed experiments measure on
/// mid-game positions because the branching factor (and hence kernel
/// divergence) is at its Reversi-typical level there.
pub fn midgame_position(seed: u64, plies: u32) -> Reversi {
    midgame_position_of::<Reversi>(seed, plies)
}

/// [`midgame_position`] for any game: `plies` uniformly random moves from
/// the initial position, drawn from the same `seed`-derived stream. The
/// Reversi wrapper above delegates here, so its positions are unchanged.
pub fn midgame_position_of<G: Game>(seed: u64, plies: u32) -> G {
    let mut state = G::initial();
    let mut rng = SplitMix64::new(seed ^ 0x4D1D_6A3E);
    for _ in 0..plies {
        match state.random_move(&mut rng) {
            Some(mv) => state.apply(mv),
            None => break,
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcts_games::Game;

    #[test]
    fn midgame_position_is_reproducible() {
        let a = midgame_position(1, 20);
        let b = midgame_position(1, 20);
        assert_eq!(a, b);
        assert!(a.occupancy() >= 20, "20 plies placed at least 20 discs");
        assert!(!a.is_terminal());
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(midgame_position(1, 20), midgame_position(2, 20));
    }

    #[test]
    fn json_object_renders_escaped_ordered_fields() {
        let o = JsonObject::new()
            .str_field("name", "a \"quoted\"\nvalue")
            .u64_field("n", 42)
            .f64_field("x", 0.5)
            .f64_field("bad", f64::NAN);
        assert_eq!(
            o.render(),
            r#"{"name": "a \"quoted\"\nvalue", "n": 42, "x": 0.5, "bad": 0}"#
        );
    }

    #[test]
    fn percentile_single_element_is_that_element_at_any_p() {
        let s = [42u64];
        assert_eq!(percentile(&s, 0.0), 42);
        assert_eq!(percentile(&s, 50.0), 42);
        assert_eq!(percentile(&s, 99.9), 42);
        assert_eq!(percentile(&s, 100.0), 42);
    }

    #[test]
    fn percentile_high_p_on_small_sample_clamps_to_max() {
        // ceil(0.999 * 10) = 10 — exactly the last rank, no out-of-bounds.
        let s: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&s, 99.9), 10);
        // ceil(0.999 * 2) = 2 on a pair.
        assert_eq!(percentile(&[3, 7], 99.9), 7);
        // p = 0 ranks to 0 and clamps up to the minimum.
        assert_eq!(percentile(&s, 0.0), 1);
    }

    #[test]
    fn percentile_nearest_rank_median() {
        let s: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&s, 50.0), 5);
        assert_eq!(percentile(&s, 95.0), 10);
        assert_eq!(percentile(&s, 90.0), 9);
    }

    #[test]
    fn args_defaults() {
        let a = BenchArgs::default();
        assert!(!a.full);
        assert_eq!(a.games_or(5, 50), 5);
        assert_eq!(a.move_ms_or(10, 100), 10);
        let mut b = a.clone();
        b.full = true;
        assert_eq!(b.games_or(5, 50), 50);
        b.games = 7;
        assert_eq!(b.games_or(5, 50), 7);
    }
}
