//! Direct tests of the `NetworkModel` cost model: monotonicity in bytes and
//! ranks, and `ideal()` as a lower bound of `infiniband()`. The rank driver
//! charges the allreduce straight from this model, so a regression here
//! silently skews every multi-rank figure.

use pmcts_core::cost::NetworkModel;
use pmcts_util::SimTime;

const BYTE_SIZES: [u64; 6] = [0, 1, 64, 4 << 10, 1 << 20, 1 << 28];
const RANK_COUNTS: [usize; 7] = [1, 2, 3, 4, 8, 17, 128];

fn models() -> [NetworkModel; 3] {
    [
        NetworkModel::infiniband(),
        NetworkModel::ideal(),
        NetworkModel {
            latency: SimTime::from_nanos(500),
            bytes_per_ns: 1,
        },
    ]
}

#[test]
fn p2p_is_monotone_in_bytes() {
    for net in models() {
        for w in BYTE_SIZES.windows(2) {
            assert!(
                net.p2p_time(w[0]) <= net.p2p_time(w[1]),
                "{net:?}: p2p({}) > p2p({})",
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn p2p_has_latency_floor() {
    for net in models() {
        assert_eq!(net.p2p_time(0), net.latency);
    }
}

#[test]
fn collective_is_monotone_in_bytes_and_ranks() {
    for net in models() {
        for &ranks in &RANK_COUNTS {
            for w in BYTE_SIZES.windows(2) {
                assert!(net.collective_time(w[0], ranks) <= net.collective_time(w[1], ranks));
            }
        }
        for &bytes in &BYTE_SIZES {
            for w in RANK_COUNTS.windows(2) {
                assert!(net.collective_time(bytes, w[0]) <= net.collective_time(bytes, w[1]));
            }
        }
    }
}

#[test]
fn allreduce_is_monotone_and_twice_the_collective() {
    for net in models() {
        for &ranks in &RANK_COUNTS {
            for &bytes in &BYTE_SIZES {
                let coll = net.collective_time(bytes, ranks);
                assert_eq!(net.allreduce_time(bytes, ranks), coll * 2);
            }
            for w in BYTE_SIZES.windows(2) {
                assert!(net.allreduce_time(w[0], ranks) <= net.allreduce_time(w[1], ranks));
            }
        }
        for &bytes in &BYTE_SIZES {
            for w in RANK_COUNTS.windows(2) {
                assert!(net.allreduce_time(bytes, w[0]) <= net.allreduce_time(bytes, w[1]));
            }
        }
    }
}

#[test]
fn single_rank_collectives_cost_nothing() {
    for net in models() {
        for &bytes in &BYTE_SIZES {
            assert_eq!(net.collective_time(bytes, 1), SimTime::ZERO);
            assert_eq!(net.allreduce_time(bytes, 1), SimTime::ZERO);
        }
    }
}

#[test]
fn ideal_lower_bounds_infiniband() {
    let ideal = NetworkModel::ideal();
    let ib = NetworkModel::infiniband();
    for &bytes in &BYTE_SIZES {
        assert!(ideal.p2p_time(bytes) <= ib.p2p_time(bytes));
        for &ranks in &RANK_COUNTS {
            assert!(ideal.collective_time(bytes, ranks) <= ib.collective_time(bytes, ranks));
            assert!(ideal.allreduce_time(bytes, ranks) <= ib.allreduce_time(bytes, ranks));
        }
    }
    // And the bound is strict as soon as there is real communication.
    assert!(ideal.allreduce_time(64, 2) < ib.allreduce_time(64, 2));
}
