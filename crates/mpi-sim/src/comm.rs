//! The per-rank communicator: point-to-point messages and collectives.

use crate::network::NetworkModel;
use std::any::Any;
use std::cell::RefCell;
use std::sync::mpsc::{Receiver, Sender};

/// An envelope travelling between ranks.
pub(crate) struct Envelope {
    pub(crate) src: usize,
    pub(crate) tag: u64,
    pub(crate) payload: Box<dyn Any + Send>,
}

/// Tags with the top bit set are reserved for collectives.
const COLLECTIVE_TAG: u64 = 1 << 63;

/// A rank identity, `0..world size`.
///
/// The raw `usize` APIs on [`Comm`] predate this type; it exists so layers
/// *above* the communicator (the fleet sharding in `pmcts-core` uses one
/// simulated device per rank) can carry rank identity without inventing a
/// parallel id space. Ordering is numeric rank order — the same order every
/// deterministic tie-break in the workspace uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rank(pub usize);

impl std::fmt::Display for Rank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A rank's handle to the simulated MPI world.
///
/// One `Comm` is owned by each rank thread; it is not `Sync` (MPI
/// communicators are per-process too). Messages are typed: `recv::<T>` must
/// match the type that was sent, otherwise it panics — in real MPI this
/// would be a datatype mismatch, undefined behaviour; here it fails loudly.
pub struct Comm {
    rank: usize,
    size: usize,
    net: NetworkModel,
    senders: Vec<Sender<Envelope>>,
    inbox: Receiver<Envelope>,
    /// Messages received but not yet matched by a `recv` (out-of-order
    /// arrivals with different src/tag).
    stash: RefCell<Vec<Envelope>>,
    /// Per-collective-call sequence number, so back-to-back collectives
    /// cannot confuse each other's messages.
    coll_seq: std::cell::Cell<u64>,
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        net: NetworkModel,
        senders: Vec<Sender<Envelope>>,
        inbox: Receiver<Envelope>,
    ) -> Self {
        Comm {
            rank,
            size,
            net,
            senders,
            inbox,
            stash: RefCell::new(Vec::new()),
            coll_seq: std::cell::Cell::new(0),
        }
    }

    /// This rank's id, `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// This rank's id as a typed [`Rank`].
    #[inline]
    pub fn rank_id(&self) -> Rank {
        Rank(self.rank)
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The network cost model (for charging virtual time).
    #[inline]
    pub fn network(&self) -> &NetworkModel {
        &self.net
    }

    /// Sends `value` to `dest` with a user `tag`.
    ///
    /// # Panics
    /// Panics if `dest` is out of range or `tag` uses the reserved top bit.
    pub fn send<T: Send + 'static>(&self, dest: usize, tag: u64, value: T) {
        assert!(tag & COLLECTIVE_TAG == 0, "tag {tag:#x} is reserved");
        self.send_raw(dest, tag, value);
    }

    fn send_raw<T: Send + 'static>(&self, dest: usize, tag: u64, value: T) {
        assert!(
            dest < self.size,
            "dest {dest} out of range (size {})",
            self.size
        );
        self.senders[dest]
            .send(Envelope {
                src: self.rank,
                tag,
                payload: Box::new(value),
            })
            .expect("destination rank hung up");
    }

    /// Receives the next message from `src` with `tag`, blocking.
    ///
    /// Messages from other (src, tag) pairs arriving in between are stashed
    /// and delivered to their own matching `recv` calls later.
    pub fn recv<T: Send + 'static>(&self, src: usize, tag: u64) -> T {
        assert!(tag & COLLECTIVE_TAG == 0, "tag {tag:#x} is reserved");
        self.recv_raw(src, tag)
    }

    fn recv_raw<T: Send + 'static>(&self, src: usize, tag: u64) -> T {
        // First check the stash.
        {
            let mut stash = self.stash.borrow_mut();
            if let Some(pos) = stash.iter().position(|e| e.src == src && e.tag == tag) {
                let env = stash.swap_remove(pos);
                return Self::downcast(env, src, tag);
            }
        }
        // Then drain the inbox until a match arrives.
        loop {
            let env = self.inbox.recv().expect("world shut down during recv");
            if env.src == src && env.tag == tag {
                return Self::downcast(env, src, tag);
            }
            self.stash.borrow_mut().push(env);
        }
    }

    fn downcast<T: 'static>(env: Envelope, src: usize, tag: u64) -> T {
        *env.payload.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "type mismatch receiving from rank {src} tag {:#x}: expected {}",
                tag,
                std::any::type_name::<T>()
            )
        })
    }

    fn next_coll_tag(&self) -> u64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        COLLECTIVE_TAG | seq
    }

    /// Synchronises all ranks (central-coordinator barrier).
    pub fn barrier(&self) {
        let tag = self.next_coll_tag();
        if self.rank == 0 {
            for src in 1..self.size {
                let _: () = self.recv_raw(src, tag);
            }
            for dest in 1..self.size {
                self.send_raw(dest, tag, ());
            }
        } else {
            self.send_raw(0, tag, ());
            let _: () = self.recv_raw(0, tag);
        }
    }

    /// Broadcasts a value from `root` to every rank. The root must pass
    /// `Some(value)`; other ranks pass `None` (their argument is ignored,
    /// mirroring MPI_Bcast's in-place receive buffer).
    ///
    /// # Panics
    /// Panics if the root passes `None`.
    pub fn broadcast<T: Clone + Send + 'static>(&self, root: usize, value: Option<T>) -> T {
        assert!(root < self.size);
        let tag = self.next_coll_tag();
        if self.rank == root {
            let value = value.expect("broadcast root must supply a value");
            for dest in 0..self.size {
                if dest != root {
                    self.send_raw(dest, tag, value.clone());
                }
            }
            value
        } else {
            self.recv_raw(root, tag)
        }
    }

    /// Reduces every rank's `value` to `root` with `fold`, combining in
    /// ascending rank order (deterministic for non-commutative folds).
    /// Returns `Some(result)` on the root, `None` elsewhere.
    // Indexing by rank is the point here: arrival order must not matter.
    #[allow(clippy::needless_range_loop)]
    pub fn reduce<T, F>(&self, root: usize, value: T, fold: F) -> Option<T>
    where
        T: Send + 'static,
        F: FnMut(T, T) -> T,
    {
        assert!(root < self.size);
        let tag = self.next_coll_tag();
        if self.rank == root {
            let mut parts: Vec<Option<T>> = (0..self.size).map(|_| None).collect();
            parts[root] = Some(value);
            for src in 0..self.size {
                if src != root {
                    parts[src] = Some(self.recv_raw(src, tag));
                }
            }
            let mut iter = parts.into_iter().flatten();
            let first = iter.next().expect("at least one rank");
            Some(iter.fold(first, fold))
        } else {
            self.send_raw(root, tag, value);
            None
        }
    }

    /// Reduce-to-all: every rank receives the rank-ordered fold of all
    /// values.
    pub fn allreduce<T, F>(&self, value: T, fold: F) -> T
    where
        T: Clone + Send + 'static,
        F: FnMut(T, T) -> T,
    {
        let reduced = self.reduce(0, value, fold);
        self.broadcast(0, reduced)
    }

    /// Allreduce over the ranks that have something to contribute.
    ///
    /// Every rank participates in the collective (so no rank can deadlock
    /// waiting for a peer that has nothing to say), but a rank may pass
    /// `None` — a dead rank's stand-in, or a contribution lost in transit.
    /// The surviving values are folded in ascending rank order and the fold
    /// is broadcast back; returns `None` only if *every* rank passed `None`.
    ///
    /// This is the degraded-mode collective behind the fault-tolerant
    /// multi-GPU / multi-node searchers: merged root statistics stay
    /// additive over exactly the surviving contributors.
    pub fn allreduce_sparse<T, F>(&self, value: Option<T>, fold: F) -> Option<T>
    where
        T: Clone + Send + 'static,
        F: FnMut(T, T) -> T,
    {
        let gathered = self.gather(0, value);
        let reduced = gathered.map(|parts| {
            let mut iter = parts.into_iter().flatten();
            iter.next().map(|first| iter.fold(first, fold))
        });
        self.broadcast(0, reduced)
    }

    /// Combined send+receive with one partner (deadlock-free even when both
    /// sides target each other, because sends never block).
    pub fn sendrecv<T: Send + 'static, U: Send + 'static>(
        &self,
        partner: usize,
        tag: u64,
        value: T,
    ) -> U {
        self.send(partner, tag, value);
        self.recv(partner, tag)
    }

    /// Scatters `values[i]` from `root` to rank `i`. The root passes
    /// `Some(values)` (length = world size); other ranks pass `None`.
    ///
    /// # Panics
    /// Panics on the root if `values` is missing or has the wrong length.
    pub fn scatter<T: Send + 'static>(&self, root: usize, values: Option<Vec<T>>) -> T {
        assert!(root < self.size);
        let tag = self.next_coll_tag();
        if self.rank == root {
            let values = values.expect("scatter root must supply values");
            assert_eq!(values.len(), self.size, "scatter needs one value per rank");
            let mut own = None;
            for (dest, v) in values.into_iter().enumerate() {
                if dest == root {
                    own = Some(v);
                } else {
                    self.send_raw(dest, tag, v);
                }
            }
            own.expect("root value present")
        } else {
            self.recv_raw(root, tag)
        }
    }

    /// Gather-to-all: every rank receives every rank's value, in rank
    /// order (gather to rank 0 + broadcast).
    pub fn allgather<T: Clone + Send + 'static>(&self, value: T) -> Vec<T> {
        let gathered = self.gather(0, value);
        self.broadcast(0, gathered)
    }

    /// Gathers every rank's `value` to `root` in rank order.
    #[allow(clippy::needless_range_loop)]
    pub fn gather<T: Send + 'static>(&self, root: usize, value: T) -> Option<Vec<T>> {
        assert!(root < self.size);
        let tag = self.next_coll_tag();
        if self.rank == root {
            let mut out: Vec<Option<T>> = (0..self.size).map(|_| None).collect();
            out[root] = Some(value);
            for src in 0..self.size {
                if src != root {
                    out[src] = Some(self.recv_raw(src, tag));
                }
            }
            Some(out.into_iter().map(|v| v.expect("gathered")).collect())
        } else {
            self.send_raw(root, tag, value);
            None
        }
    }
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .finish()
    }
}
