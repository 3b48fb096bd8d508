//! World setup: spawn ranks, wire channels, collect results.

use crate::comm::{Comm, Envelope};
use crate::network::NetworkModel;
use std::sync::mpsc;

/// Entry point of the simulated MPI runtime.
pub struct World;

impl World {
    /// Runs `f` on `size` ranks, each on its own thread, and returns the
    /// per-rank results in rank order (like `mpirun` + a final gather).
    ///
    /// `f` receives the rank's [`Comm`]. The call blocks until every rank
    /// returns; a panic in any rank propagates.
    ///
    /// # Panics
    /// Panics if `size == 0` or if any rank panics.
    pub fn run<T, F>(size: usize, net: NetworkModel, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Comm) -> T + Sync,
    {
        assert!(size > 0, "world must have at least one rank");

        let mut senders = Vec::with_capacity(size);
        let mut receivers = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = mpsc::channel::<Envelope>();
            senders.push(tx);
            receivers.push(rx);
        }

        let mut results: Vec<Option<T>> = (0..size).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = receivers
                .into_iter()
                .enumerate()
                .map(|(rank, inbox)| {
                    let senders = senders.clone();
                    let f = &f;
                    scope.spawn(move || f(Comm::new(rank, size, net, senders, inbox)))
                })
                .collect();
            for (rank, h) in handles.into_iter().enumerate() {
                results[rank] = Some(h.join().expect("rank panicked"));
            }
        });

        results
            .into_iter()
            .map(|r| r.expect("rank result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ideal() -> NetworkModel {
        NetworkModel::ideal()
    }

    #[test]
    fn single_rank_world() {
        let out = World::run(1, ideal(), |comm| {
            assert_eq!(comm.rank(), 0);
            assert_eq!(comm.size(), 1);
            comm.barrier();
            comm.allreduce(5u32, |a, b| a + b)
        });
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn point_to_point_roundtrip() {
        let out = World::run(2, ideal(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, String::from("ping"));
                comm.recv::<String>(1, 8)
            } else {
                let msg: String = comm.recv(0, 7);
                comm.send(0, 8, format!("{msg}-pong"));
                msg
            }
        });
        assert_eq!(out, vec!["ping-pong".to_string(), "ping".to_string()]);
    }

    #[test]
    fn out_of_order_tags_are_stashed() {
        let out = World::run(2, ideal(), |comm| {
            if comm.rank() == 0 {
                // Send tag 2 first, then tag 1; receiver asks for 1 first.
                comm.send(1, 2, 20u32);
                comm.send(1, 1, 10u32);
                0
            } else {
                let first: u32 = comm.recv(0, 1);
                let second: u32 = comm.recv(0, 2);
                assert_eq!((first, second), (10, 20));
                first + second
            }
        });
        assert_eq!(out[1], 30);
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let out = World::run(4, ideal(), |comm| {
            let v = if comm.rank() == 2 { Some(99u64) } else { None };
            comm.broadcast(2, v)
        });
        assert_eq!(out, vec![99, 99, 99, 99]);
    }

    #[test]
    fn reduce_collects_in_rank_order() {
        // Non-commutative fold: string concatenation proves ordering.
        let out = World::run(3, ideal(), |comm| {
            comm.reduce(0, comm.rank().to_string(), |a, b| a + &b)
        });
        assert_eq!(out[0], Some("012".to_string()));
        assert_eq!(out[1], None);
        assert_eq!(out[2], None);
    }

    #[test]
    fn allreduce_sums_on_all_ranks() {
        let out = World::run(5, ideal(), |comm| {
            comm.allreduce(comm.rank() as u64, |a, b| a + b)
        });
        assert_eq!(out, vec![10; 5]);
    }

    #[test]
    fn allreduce_sparse_folds_survivors_in_rank_order() {
        // Rank 2 contributes nothing; non-commutative fold proves ordering
        // over exactly the survivors.
        let out = World::run(4, ideal(), |comm| {
            let v = (comm.rank() != 2).then(|| comm.rank().to_string());
            comm.allreduce_sparse(v, |a, b| a + &b)
        });
        assert_eq!(out, vec![Some("013".to_string()); 4]);
    }

    #[test]
    fn allreduce_sparse_with_all_contributors_matches_allreduce() {
        let out = World::run(5, ideal(), |comm| {
            let dense = comm.allreduce(comm.rank() as u64, |a, b| a + b);
            let sparse = comm.allreduce_sparse(Some(comm.rank() as u64), |a, b| a + b);
            (dense, sparse)
        });
        for (dense, sparse) in out {
            assert_eq!(sparse, Some(dense));
        }
    }

    #[test]
    fn allreduce_sparse_with_no_contributors_is_none() {
        let out = World::run(3, ideal(), |comm| {
            comm.allreduce_sparse(None::<u32>, |a, b| a + b)
        });
        assert_eq!(out, vec![None; 3]);
    }

    #[test]
    fn allreduce_sparse_survives_dead_root_contribution() {
        // Rank 0 coordinates the collective but contributes nothing.
        let out = World::run(3, ideal(), |comm| {
            let v = (comm.rank() != 0).then_some(1u32);
            comm.allreduce_sparse(v, |a, b| a + b)
        });
        assert_eq!(out, vec![Some(2); 3]);
    }

    #[test]
    fn gather_in_rank_order() {
        let out = World::run(4, ideal(), |comm| comm.gather(1, comm.rank() as u32 * 2));
        assert_eq!(out[1], Some(vec![0, 2, 4, 6]));
        assert_eq!(out[0], None);
    }

    #[test]
    fn barrier_synchronises() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let arrived = AtomicUsize::new(0);
        World::run(8, ideal(), |comm| {
            arrived.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier every rank must have arrived.
            assert_eq!(arrived.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn consecutive_collectives_do_not_interfere() {
        let out = World::run(3, ideal(), |comm| {
            let a = comm.allreduce(1u32, |x, y| x + y);
            let b = comm.allreduce(10u32, |x, y| x + y);
            comm.barrier();
            let c = comm.allreduce(100u32, |x, y| x + y);
            (a, b, c)
        });
        for r in out {
            assert_eq!(r, (3, 30, 300));
        }
    }

    #[test]
    // The offending rank panics with "tag ... is reserved"; World::run
    // surfaces it as a rank failure on the spawning thread.
    #[should_panic(expected = "rank panicked")]
    fn reserved_tags_rejected() {
        World::run(1, ideal(), |comm| {
            comm.send(0, 1 << 63, 0u8);
        });
    }

    #[test]
    fn many_ranks_stress() {
        let out = World::run(32, ideal(), |comm| {
            let sum = comm.allreduce(comm.rank() as u64, |a, b| a + b);
            comm.barrier();
            sum
        });
        assert_eq!(out, vec![(0..32u64).sum::<u64>(); 32]);
    }

    #[test]
    fn sendrecv_exchanges_between_partners() {
        let out = World::run(2, ideal(), |comm| {
            let partner = 1 - comm.rank();
            let got: u32 = comm.sendrecv(partner, 5, comm.rank() as u32 * 10);
            got
        });
        assert_eq!(out, vec![10, 0]);
    }

    #[test]
    fn scatter_distributes_by_rank() {
        let out = World::run(4, ideal(), |comm| {
            let values = if comm.rank() == 0 {
                Some(vec![100u32, 101, 102, 103])
            } else {
                None
            };
            comm.scatter(0, values)
        });
        assert_eq!(out, vec![100, 101, 102, 103]);
    }

    #[test]
    fn scatter_from_nonzero_root() {
        let out = World::run(3, ideal(), |comm| {
            let values = if comm.rank() == 2 {
                Some(vec![7u8, 8, 9])
            } else {
                None
            };
            comm.scatter(2, values)
        });
        assert_eq!(out, vec![7, 8, 9]);
    }

    #[test]
    fn allgather_gives_everyone_everything() {
        let out = World::run(4, ideal(), |comm| comm.allgather(comm.rank() as u64 * 3));
        for v in out {
            assert_eq!(v, vec![0, 3, 6, 9]);
        }
    }

    #[test]
    fn type_mismatch_panics_loudly() {
        // Sending u32 but receiving u64 must panic with a clear message.
        let result = std::panic::catch_unwind(|| {
            World::run(2, ideal(), |comm| {
                if comm.rank() == 0 {
                    comm.send(1, 1, 42u32);
                } else {
                    let _: u64 = comm.recv(0, 1);
                }
            });
        });
        assert!(result.is_err());
    }
}
