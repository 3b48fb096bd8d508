//! The Upper Confidence Bound selection rule (paper §II.1).
//!
//! `UCB_i = S_i / t_i + C · sqrt(ln T / t_i)` where `S_i` is the child's
//! accumulated reward, `t_i` its visit count and `T` the parent's visit
//! count. The first term exploits (average value), the second explores
//! (rarely visited nodes score higher).

/// UCB1 value of a child node.
///
/// `wins` is the child's accumulated reward from the perspective of the
/// player choosing among the children. Unvisited children score `+∞` so
/// they are tried before any re-visit (the caller normally keeps unexpanded
/// moves in a separate untried list, making this a safety net).
#[inline]
pub fn ucb1(parent_visits: u64, child_visits: u64, child_wins: f64, c: f64) -> f64 {
    ucb1_with_ln(
        (parent_visits.max(1) as f64).ln(),
        child_visits,
        child_wins,
        c,
    )
}

/// UCB1 with `ln T` precomputed by the caller.
///
/// `ln T` depends only on the parent, so selection hoists it out of the
/// per-child loop; one `ln` per node instead of one per child. The floating
/// point expression is otherwise identical to [`ucb1`], so values (and
/// therefore every selection decision) are bit-identical.
#[inline]
pub fn ucb1_with_ln(ln_parent_visits: f64, child_visits: u64, child_wins: f64, c: f64) -> f64 {
    if child_visits == 0 {
        return f64::INFINITY;
    }
    let t = child_visits as f64;
    let exploit = child_wins / t;
    let explore = c * (ln_parent_visits / t).sqrt();
    exploit + explore
}

/// WU-UCT-corrected UCB1 (Liu et al., "Watch the Unobserved"): in-flight
/// playouts that have been dispatched but not yet backpropagated are
/// counted as unobserved samples `O`, entering both the exploitation
/// denominator (`S_i / (t_i + O_i)`) and the exploration term
/// (`C · sqrt(ln(T + O_T) / (t_i + O_i))`).
///
/// `ln_parent_total` is `ln((T + O_T).max(1))`, precomputed by the caller
/// exactly as selection hoists `ln T`. With `child_inflight == 0` (and the
/// caller passing the plain `ln T`) the expression is bit-identical to
/// [`ucb1_with_ln`] — the correction vanishes, it never perturbs a
/// zero-width search.
///
/// Term for term this is Chaslot et al.'s virtual loss (the paper's ref
/// \[3\]) with weight = in-flight playouts and zero reward: each in-flight
/// playout counts as one more visit that won nothing, exactly what a
/// lock-based tree-parallel searcher deposits on its path. Liu et al. keep
/// the exploitation term at the observed mean `S_i / t_i`; that variant
/// would change every corrected selection (and the committed `frontier`
/// artifact), so it is not what is implemented here.
#[inline]
pub fn ucb1_corrected_with_ln(
    ln_parent_total: f64,
    child_visits: u64,
    child_inflight: u64,
    child_wins: f64,
    c: f64,
) -> f64 {
    let total = child_visits + child_inflight;
    if total == 0 {
        return f64::INFINITY;
    }
    let t = total as f64;
    let exploit = child_wins / t;
    let explore = c * (ln_parent_total / t).sqrt();
    exploit + explore
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unvisited_children_are_infinitely_attractive() {
        assert_eq!(ucb1(10, 0, 0.0, 1.4), f64::INFINITY);
    }

    #[test]
    fn exploitation_term_is_mean_reward() {
        // With c = 0 the value is exactly the mean.
        assert!((ucb1(100, 10, 7.0, 0.0) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn exploration_prefers_rarely_visited() {
        // Same mean, fewer visits => higher UCB.
        let rare = ucb1(1000, 10, 5.0, 1.4);
        let frequent = ucb1(1000, 100, 50.0, 1.4);
        assert!(rare > frequent);
    }

    #[test]
    fn exploration_grows_with_parent_visits() {
        let early = ucb1(10, 5, 2.5, 1.4);
        let late = ucb1(10_000, 5, 2.5, 1.4);
        assert!(late > early);
    }

    #[test]
    fn larger_c_explores_more() {
        // A low-mean rarely-visited child overtakes a high-mean child as C
        // increases.
        let weak_rare = |c| ucb1(1000, 40, 10.0, c);
        let strong_common = |c| ucb1(1000, 400, 300.0, c);
        assert!(weak_rare(0.5) < strong_common(0.5));
        assert!(weak_rare(5.0) > strong_common(5.0));
    }

    #[test]
    fn zero_parent_visits_is_safe() {
        let v = ucb1(0, 1, 1.0, 1.4);
        assert!(v.is_finite());
    }

    #[test]
    fn hoisted_ln_is_bit_identical_to_ucb1() {
        for parent in [0u64, 1, 2, 10, 1_000, 123_456_789] {
            let ln = (parent.max(1) as f64).ln();
            for (visits, wins) in [(0u64, 0.0), (1, 0.5), (7, 3.0), (1_000, 420.5)] {
                for c in [0.0, 0.5, 1.4, 5.0] {
                    let a = ucb1(parent, visits, wins, c);
                    let b = ucb1_with_ln(ln, visits, wins, c);
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn corrected_with_zero_inflight_is_bit_identical_to_ucb1_with_ln() {
        // The WU-UCT correction must vanish exactly — same bits, not just
        // same value — when no playout is in flight, so a width-1 corrected
        // search replays the uncorrected one decision for decision.
        for parent in [0u64, 1, 2, 10, 1_000, 123_456_789] {
            let ln = (parent.max(1) as f64).ln();
            for (visits, wins) in [(0u64, 0.0), (1, 0.5), (7, 3.0), (1_000, 420.5)] {
                for c in [0.0, 0.5, 1.4, 5.0] {
                    let a = ucb1_with_ln(ln, visits, wins, c);
                    let b = ucb1_corrected_with_ln(ln, visits, 0, wins, c);
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn inflight_samples_discount_a_child() {
        // 32 unobserved playouts already dispatched through this child must
        // lower both terms: the mean is diluted and the exploration bonus
        // shrinks, steering the next selection elsewhere.
        let ln = (1000f64).ln();
        let plain = ucb1_with_ln(ln, 10, 5.0, 1.4);
        let corrected = ucb1_corrected_with_ln(ln, 10, 32, 5.0, 1.4);
        assert!(corrected < plain);
    }

    #[test]
    fn unvisited_child_with_inflight_mass_is_finite() {
        // An unvisited child that already has playouts in flight is no
        // longer infinitely attractive — that is the whole point of the
        // correction (stop piling every batch onto the same frontier leaf).
        let v = ucb1_corrected_with_ln((10f64).ln(), 0, 32, 0.0, 1.4);
        assert!(v.is_finite());
        assert_eq!(
            ucb1_corrected_with_ln((10f64).ln(), 0, 0, 0.0, 1.4),
            f64::INFINITY
        );
    }
}
