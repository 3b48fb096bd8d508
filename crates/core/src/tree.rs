//! The structure-of-arrays search tree.
//!
//! Node attributes live in dense parallel arrays indexed by `NodeId` — no
//! `Rc`/`RefCell` graphs, no per-node heap boxes. The hot UCB fields
//! (`visits`, `wins`) sit in their own arrays so a selection walk touches
//! cache lines holding *only* the numbers it compares; cold attributes
//! (state, parent, move, depth) stay out of the way in separate arrays.
//! Children are stored as contiguous `(first, len)` ranges in one shared
//! slab: each node's range is reserved at creation with capacity for every
//! legal move, so expansion appends in place and **never allocates in the
//! hot loop**. Untried moves use the same scheme in a second slab, which
//! evicts the old 128-slot inline move buffer (~1 KiB per node) from the
//! node representation entirely.
//!
//! The tree stores the *game state in every node* (all bundled games are
//! tiny `Copy` bitboards), which keeps selection free of move
//! re-application bugs at the cost of a few bytes per node.
//!
//! Reward convention: `wins[id]` accumulates reward **for the player who
//! made the move leading into the node** (i.e. the parent's side to move).
//! With that convention, selection at any node maximises UCB over its
//! children using the children's own `wins` directly.
//!
//! Every operation is ordered exactly as the original array-of-structs
//! layout ordered it (child iteration in push order, first-wins tie-breaks,
//! `swap_remove` for untried moves, breadth-first subtree copies), so the
//! rewrite is a pure layout change: same seed ⇒ bit-identical results. The
//! original layout survives in the bench crate (`pmcts_bench::tree_aos`)
//! as the equivalence oracle and benchmark baseline.

use crate::config::MctsConfig;
use crate::transposition::{TransStats, TransTable};
use crate::ucb::{ucb1_corrected_with_ln, ucb1_with_ln};
use pmcts_games::{Game, MoveBuf, Player};
use pmcts_util::Rng64;

/// Index of a node within its [`SearchTree`]. The root is always 0.
pub type NodeId = u32;

/// Sentinel for "no parent" in the dense parent array.
const NO_NODE: NodeId = NodeId::MAX;

/// Marks a recycled arena slot in the bounded tree's `lru_prev` column.
const FREED: NodeId = NodeId::MAX - 1;

/// Plies below an old root scanned when re-rooting. 2 would cover a plain
/// move + reply, but Reversi passes can push the reached position deeper;
/// 4 additionally absorbs one forced pass on each side. A position even
/// further down (a longer pass chain) deliberately falls back to a cold
/// tree rather than risking a wrong re-root.
pub(crate) const REROOT_DEPTH: u32 = 4;

/// Bounded-mode bookkeeping: the intrusive LRU list threaded through the
/// node arrays, the free lists that recycle arena slots and slab ranges,
/// and the transposition table (see the module docs and DESIGN.md §12).
#[derive(Clone, Debug)]
struct Bounded {
    /// Arena capacity: the node arrays never grow past this many slots.
    max_nodes: u32,
    /// Towards the head (more recently used); `FREED` marks free slots.
    lru_prev: Vec<NodeId>,
    /// Towards the tail (less recently used).
    lru_next: Vec<NodeId>,
    /// Most recently used live node.
    head: NodeId,
    /// Least recently used live node — the eviction end.
    tail: NodeId,
    /// Recycled arena slots (LIFO, deterministic).
    free_nodes: Vec<NodeId>,
    /// Recycled slab ranges bucketed by capacity: `free_ranges[c]` holds
    /// `(child_first, untried_first)` pairs of freed nodes whose reserved
    /// range held exactly `c` moves. Exact-fit reuse keeps ranges
    /// interchangeable without splitting.
    free_ranges: Vec<Vec<(u32, u32)>>,
    /// Nodes recycled so far.
    evictions: u64,
    /// Zobrist-keyed statistics recovery + re-root index.
    tt: TransTable,
}

impl Bounded {
    fn new(max_nodes: u32) -> Self {
        Bounded {
            max_nodes,
            lru_prev: Vec::with_capacity(max_nodes as usize),
            lru_next: Vec::with_capacity(max_nodes as usize),
            head: NO_NODE,
            tail: NO_NODE,
            free_nodes: Vec::new(),
            free_ranges: vec![Vec::new(); 129],
            evictions: 0,
            // 2× the node cap keeps the load factor low enough that
            // probe-run drops stay rare (see DESIGN.md §12 calibration).
            tt: TransTable::new(max_nodes as usize * 2),
        }
    }

    /// Links `id` in as the most recently used node.
    fn lru_push_head(&mut self, id: NodeId) {
        let i = id as usize;
        self.lru_prev[i] = NO_NODE;
        self.lru_next[i] = self.head;
        if self.head != NO_NODE {
            self.lru_prev[self.head as usize] = id;
        }
        self.head = id;
        if self.tail == NO_NODE {
            self.tail = id;
        }
    }

    /// Links `id` in as the least recently used node (used only by the
    /// breadth-first subtree copy, which visits parents before children).
    fn lru_push_tail(&mut self, id: NodeId) {
        let i = id as usize;
        self.lru_next[i] = NO_NODE;
        self.lru_prev[i] = self.tail;
        if self.tail != NO_NODE {
            self.lru_next[self.tail as usize] = id;
        }
        self.tail = id;
        if self.head == NO_NODE {
            self.head = id;
        }
    }

    /// Unlinks `id` from the LRU list.
    fn lru_unlink(&mut self, id: NodeId) {
        let i = id as usize;
        let (prev, next) = (self.lru_prev[i], self.lru_next[i]);
        debug_assert_ne!(prev, FREED, "unlink of a freed slot");
        if prev == NO_NODE {
            self.head = next;
        } else {
            self.lru_next[prev as usize] = next;
        }
        if next == NO_NODE {
            self.tail = prev;
        } else {
            self.lru_prev[next as usize] = prev;
        }
    }

    /// Moves `id` to the head (most recently used).
    #[inline]
    fn lru_touch(&mut self, id: NodeId) {
        if self.head == id {
            return;
        }
        self.lru_unlink(id);
        self.lru_push_head(id);
    }
}

/// Aggregated statistics for one root move — the unit merged across trees
/// by root/block/multi-GPU parallelism ("the root node has to be updated by
/// summing up results from all other trees", paper §II.4).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RootStat<M> {
    /// The move.
    pub mv: M,
    /// Total simulations through this move.
    pub visits: u64,
    /// Total reward for the root player.
    pub wins: f64,
}

/// A structure-of-arrays MCTS tree.
///
/// All per-node attribute vectors are indexed by [`NodeId`] and always have
/// identical lengths. `child_slab` / `move_slab` hold every node's children
/// and untried moves as contiguous ranges addressed by the `(first, len)`
/// columns.
#[derive(Clone, Debug)]
pub struct SearchTree<G: Game> {
    // Hot columns: everything a UCB selection walk reads.
    visits: Vec<u64>,
    wins: Vec<f64>,
    /// WU-UCT unobserved in-flight sample counts (`O_s` / `O_sa`): playouts
    /// dispatched through this node but not yet backpropagated. Zero except
    /// while a corrected searcher has a batch in flight; zero between moves.
    inflight: Vec<u32>,
    child_first: Vec<u32>,
    child_len: Vec<u16>,
    untried_len: Vec<u16>,
    // Cold columns.
    untried_first: Vec<u32>,
    parent: Vec<NodeId>,
    mv: Vec<G::Move>,
    depth: Vec<u32>,
    state: Vec<G>,
    // Shared slabs. A node's child range is reserved at creation with
    // capacity for all of its legal moves, so `child_len` grows in place.
    child_slab: Vec<NodeId>,
    move_slab: Vec<G::Move>,
    max_depth: u32,
    /// `Some` in capacity-capped mode (LRU recycling + transposition
    /// table); `None` reproduces the unbounded behaviour bit-for-bit.
    bounded: Option<Box<Bounded>>,
}

impl<G: Game> SearchTree<G> {
    fn empty(bounded: Option<Box<Bounded>>) -> Self {
        SearchTree {
            visits: Vec::new(),
            wins: Vec::new(),
            inflight: Vec::new(),
            child_first: Vec::new(),
            child_len: Vec::new(),
            untried_len: Vec::new(),
            untried_first: Vec::new(),
            parent: Vec::new(),
            mv: Vec::new(),
            depth: Vec::new(),
            state: Vec::new(),
            child_slab: Vec::new(),
            move_slab: Vec::new(),
            max_depth: 0,
            bounded,
        }
    }

    /// Creates an unbounded tree containing only the root.
    pub fn new(root_state: G) -> Self {
        let mut tree = Self::empty(None);
        tree.push_node(root_state, NO_NODE, G::Move::default(), 0);
        tree
    }

    /// Creates a capacity-capped tree containing only the root.
    ///
    /// The node arrays are preallocated at `max_nodes` slots and never
    /// grow past them: once the arena is full, every expansion first
    /// recycles the least-recently-used unpinned leaf (see
    /// `Self::evict_lru_leaf` for the eviction rule and the determinism
    /// argument). Evicted statistics are parked in a Zobrist-keyed
    /// transposition table and recovered if the position is expanded
    /// again.
    ///
    /// # Panics
    /// Panics if `max_nodes < 2`, or — during search — if every node is
    /// pinned or internal, which means the cap is smaller than the search
    /// path can get (use [`MctsConfig::with_tree_capacity`]'s ≥ 64 floor).
    pub fn bounded(root_state: G, max_nodes: u32) -> Self {
        assert!(max_nodes >= 2, "bounded tree needs at least 2 nodes");
        let n = max_nodes as usize;
        let mut tree = Self::empty(Some(Box::new(Bounded::new(max_nodes))));
        tree.visits.reserve_exact(n);
        tree.wins.reserve_exact(n);
        tree.inflight.reserve_exact(n);
        tree.child_first.reserve_exact(n);
        tree.child_len.reserve_exact(n);
        tree.untried_len.reserve_exact(n);
        tree.untried_first.reserve_exact(n);
        tree.parent.reserve_exact(n);
        tree.mv.reserve_exact(n);
        tree.depth.reserve_exact(n);
        tree.state.reserve_exact(n);
        tree.push_node(root_state, NO_NODE, G::Move::default(), 0);
        tree
    }

    /// Creates the tree variant `config` asks for: bounded when
    /// `config.max_tree_nodes` is set, unbounded otherwise.
    pub fn for_config(root_state: G, config: &MctsConfig) -> Self {
        match config.max_tree_nodes {
            Some(max) => Self::bounded(root_state, max),
            None => Self::new(root_state),
        }
    }

    /// Creates a fresh node, reserving slab ranges sized to its legal-move
    /// count so later expansions of this node never reallocate. Unbounded
    /// trees always append; bounded trees recycle freed slots and ranges,
    /// evicting the LRU leaf first when the arena is full (`parent` and
    /// its ancestors — the current selection path — are pinned).
    fn push_node(&mut self, state: G, parent: NodeId, mv: G::Move, depth: u32) -> NodeId {
        let mut legal = MoveBuf::new();
        state.legal_moves(&mut legal);
        if self.bounded.is_some() {
            return self.alloc_bounded(state, parent, mv, depth, &legal);
        }
        let n = legal.len();
        let id = self.visits.len() as NodeId;
        let child_first = self.child_slab.len() as u32;
        self.child_slab.resize(self.child_slab.len() + n, NO_NODE);
        let untried_first = self.move_slab.len() as u32;
        self.move_slab.extend_from_slice(legal.as_slice());
        self.visits.push(0);
        self.wins.push(0.0);
        self.inflight.push(0);
        self.child_first.push(child_first);
        self.child_len.push(0);
        self.untried_len.push(n as u16);
        self.untried_first.push(untried_first);
        self.parent.push(parent);
        self.mv.push(mv);
        self.depth.push(depth);
        self.state.push(state);
        self.max_depth = self.max_depth.max(depth);
        id
    }

    /// Bounded-mode node allocation: evict if the arena is full, then fill
    /// a recycled slot (or append while under the cap), link into the LRU
    /// as most recent, and register with the transposition table — seeding
    /// the fresh node with any statistics recovered from prior evictions
    /// of the same position.
    fn alloc_bounded(
        &mut self,
        state: G,
        parent: NodeId,
        mv: G::Move,
        depth: u32,
        legal: &MoveBuf<G::Move>,
    ) -> NodeId {
        let n = legal.len();
        {
            let b = self.bounded.as_ref().expect("bounded mode");
            if b.free_nodes.is_empty() && self.visits.len() >= b.max_nodes as usize {
                self.evict_lru_leaf(parent);
            }
        }
        let b = self.bounded.as_mut().expect("bounded mode");
        let range = b.free_ranges[n].pop();
        let recycled = b.free_nodes.pop();
        let id = match recycled {
            Some(id) => id,
            None => {
                debug_assert!(self.visits.len() < b.max_nodes as usize);
                let id = self.visits.len() as NodeId;
                self.visits.push(0);
                self.wins.push(0.0);
                self.inflight.push(0);
                self.child_first.push(0);
                self.child_len.push(0);
                self.untried_len.push(0);
                self.untried_first.push(0);
                self.parent.push(NO_NODE);
                self.mv.push(G::Move::default());
                self.depth.push(0);
                self.state.push(state);
                b.lru_prev.push(FREED);
                b.lru_next.push(NO_NODE);
                id
            }
        };
        let (child_first, untried_first) = match range {
            Some(r) => r,
            None => {
                let cf = self.child_slab.len() as u32;
                self.child_slab.resize(self.child_slab.len() + n, NO_NODE);
                let uf = self.move_slab.len() as u32;
                self.move_slab
                    .resize(self.move_slab.len() + n, G::Move::default());
                (cf, uf)
            }
        };
        let i = id as usize;
        self.move_slab[untried_first as usize..untried_first as usize + n]
            .copy_from_slice(legal.as_slice());
        self.visits[i] = 0;
        self.wins[i] = 0.0;
        self.inflight[i] = 0;
        self.child_first[i] = child_first;
        self.child_len[i] = 0;
        self.untried_len[i] = n as u16;
        self.untried_first[i] = untried_first;
        self.parent[i] = parent;
        self.mv[i] = mv;
        self.depth[i] = depth;
        self.state[i] = state;
        self.max_depth = self.max_depth.max(depth);
        let b = self.bounded.as_mut().expect("bounded mode");
        b.lru_push_head(id);
        if let Some((visits, wins)) = b.tt.register(state.zobrist(), id) {
            // A previously evicted copy of this position left statistics
            // behind: seed the fresh node with them. (Child visit sums may
            // then exceed the parent's — harmless for UCB, and exactly the
            // point of recovering the work.)
            self.visits[i] = visits;
            self.wins[i] = wins;
        }
        id
    }

    /// Recycles the least-recently-used evictable node: walks from the LRU
    /// tail towards the head, skipping nodes on the pinned path (`pinned`
    /// and its ancestors — the selection path of the in-flight iteration,
    /// which always includes the root) and nodes with live children.
    ///
    /// Eviction order is a pure function of the touch order (expansion,
    /// backpropagation and creation advance the LRU clock; nothing else
    /// does), so the same seed recycles the same nodes at any host-thread
    /// count. The victim's move returns to its parent's untried list, so
    /// the position can be re-expanded later — recovering its statistics
    /// from the transposition table — and its arena slot and slab ranges
    /// go to the free lists.
    ///
    /// Skipping nodes with children is almost always free: backpropagation
    /// touches a leaf's ancestors after the leaf, so a parent is always
    /// more recent than its children and the tail is a leaf (after a
    /// subtree copy the list starts in breadth-first order, which
    /// preserves the same property).
    fn evict_lru_leaf(&mut self, pinned: NodeId) {
        let b = self.bounded.as_mut().expect("bounded mode");
        let mut victim = b.tail;
        loop {
            assert!(
                victim != NO_NODE,
                "no evictable node: tree capacity too small for the current search path"
            );
            let v = victim as usize;
            // `inflight > 0` pins a node just like the selection path does:
            // a playout batch is standing on it and its rollback/backprop
            // must find the node (and its slot) intact.
            if self.child_len[v] == 0
                && self.parent[v] != NO_NODE
                && self.inflight[v] == 0
                && !on_path(&self.parent, victim, pinned)
            {
                break;
            }
            victim = b.lru_prev[v];
        }
        let v = victim as usize;
        debug_assert_eq!(self.child_len[v], 0, "eviction victim must be a leaf");
        debug_assert_ne!(victim, 0, "the root is never evicted");
        b.lru_unlink(victim);
        b.lru_prev[v] = FREED;
        b.lru_next[v] = NO_NODE;
        b.tt.accumulate(
            self.state[v].zobrist(),
            self.visits[v],
            self.wins[v],
            victim,
        );
        // Return the victim's move to its parent's untried list and
        // shift-remove it from the child range (order-preserving, so the
        // surviving children iterate exactly as before).
        let p = self.parent[v] as usize;
        let first = self.child_first[p] as usize;
        let len = self.child_len[p] as usize;
        let idx = self.child_slab[first..first + len]
            .iter()
            .position(|&c| c == victim)
            .expect("victim linked under its parent");
        self.child_slab
            .copy_within(first + idx + 1..first + len, first + idx);
        self.child_len[p] -= 1;
        let ubase = self.untried_first[p] as usize;
        let ulen = self.untried_len[p] as usize;
        self.move_slab[ubase + ulen] = self.mv[v];
        self.untried_len[p] += 1;
        // The reserved range capacity equals `child_len + untried_len`,
        // which for a leaf is just its untried count.
        let cap = self.untried_len[v] as usize;
        b.free_ranges[cap].push((self.child_first[v], self.untried_first[v]));
        b.free_nodes.push(victim);
        b.evictions += 1;
    }

    /// Copies node `src_id` of `src` (statistics, untried moves, state) as a
    /// new child of `parent`, rebasing its depth. Children are linked later
    /// as the copy walk reaches them; the reserved capacity is the node's
    /// full legal-move count (`untried + children`).
    fn copy_node(&mut self, src: &SearchTree<G>, src_id: NodeId, parent: NodeId) -> NodeId {
        let s = src_id as usize;
        let id = self.visits.len() as NodeId;
        let untried = src.untried_len[s] as usize;
        let cap = untried + src.child_len[s] as usize;
        let child_first = self.child_slab.len() as u32;
        self.child_slab.resize(self.child_slab.len() + cap, NO_NODE);
        let untried_first = self.move_slab.len() as u32;
        let sb = src.untried_first[s] as usize;
        self.move_slab
            .extend_from_slice(&src.move_slab[sb..sb + untried]);
        // Reserve the *full* capacity, not just the current untried count:
        // eviction returns a child's move to its parent's untried list, so
        // the range must be able to grow back to the legal-move count.
        self.move_slab
            .resize(self.move_slab.len() + (cap - untried), G::Move::default());
        let depth = self.depth[parent as usize] + 1;
        // In-flight counts never survive a copy: subtree extraction happens
        // between moves, when every batch has been backpropagated.
        debug_assert_eq!(src.inflight[s], 0, "extract_subtree with a batch in flight");
        self.visits.push(src.visits[s]);
        self.wins.push(src.wins[s]);
        self.inflight.push(0);
        self.child_first.push(child_first);
        self.child_len.push(0);
        self.untried_len.push(untried as u16);
        self.untried_first.push(untried_first);
        self.parent.push(parent);
        self.mv.push(src.mv[s]);
        self.depth.push(depth);
        self.state.push(src.state[s]);
        let slot =
            self.child_first[parent as usize] as usize + self.child_len[parent as usize] as usize;
        self.child_slab[slot] = id;
        self.child_len[parent as usize] += 1;
        self.max_depth = self.max_depth.max(depth);
        if let Some(b) = self.bounded.as_mut() {
            // The copy walk is breadth-first, so appending at the LRU tail
            // keeps every parent more recently used than its children — the
            // invariant leaf eviction relies on.
            b.lru_prev.push(FREED);
            b.lru_next.push(NO_NODE);
            b.lru_push_tail(id);
            b.tt.register(self.state[id as usize].zobrist(), id);
        }
        id
    }

    /// The root node id (always 0).
    #[inline]
    pub fn root(&self) -> NodeId {
        0
    }

    /// Node count.
    #[inline]
    pub fn len(&self) -> usize {
        self.visits.len()
    }

    /// Whether the tree holds only the root.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.visits.len() <= 1
    }

    /// Deepest node created so far.
    #[inline]
    pub fn max_depth(&self) -> u32 {
        self.max_depth
    }

    /// Number of simulations that have passed through `id`.
    #[inline]
    pub fn visits(&self, id: NodeId) -> u64 {
        self.visits[id as usize]
    }

    /// Accumulated reward for the player who moved into `id`.
    #[inline]
    pub fn wins(&self, id: NodeId) -> f64 {
        self.wins[id as usize]
    }

    /// Distance from the root.
    #[inline]
    pub fn depth(&self, id: NodeId) -> u32 {
        self.depth[id as usize]
    }

    /// Parent of `id`; `None` for the root.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        let p = self.parent[id as usize];
        if p == NO_NODE {
            None
        } else {
            Some(p)
        }
    }

    /// Move that led from the parent into `id`; `None` for the root.
    #[inline]
    pub fn move_into(&self, id: NodeId) -> Option<G::Move> {
        if self.parent[id as usize] == NO_NODE {
            None
        } else {
            Some(self.mv[id as usize])
        }
    }

    /// Game state at `id`.
    #[inline]
    pub fn state(&self, id: NodeId) -> &G {
        &self.state[id as usize]
    }

    /// Expanded children of `id`, in expansion order.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        let first = self.child_first[id as usize] as usize;
        &self.child_slab[first..first + self.child_len[id as usize] as usize]
    }

    /// Legal moves of `id` not yet expanded into children.
    #[inline]
    pub fn untried(&self, id: NodeId) -> &[G::Move] {
        let first = self.untried_first[id as usize] as usize;
        &self.move_slab[first..first + self.untried_len[id as usize] as usize]
    }

    /// Number of untried moves at `id`.
    #[inline]
    pub fn untried_len(&self, id: NodeId) -> usize {
        self.untried_len[id as usize] as usize
    }

    /// Whether every legal move of `id` has been expanded.
    #[inline]
    pub fn fully_expanded(&self, id: NodeId) -> bool {
        self.untried_len[id as usize] == 0
    }

    /// Whether `id`'s state is terminal (no legal moves at creation).
    #[inline]
    pub fn is_terminal(&self, id: NodeId) -> bool {
        self.untried_len[id as usize] == 0 && self.child_len[id as usize] == 0
    }

    /// Mean reward of `id` (½ when unvisited).
    #[inline]
    pub fn mean(&self, id: NodeId) -> f64 {
        let visits = self.visits[id as usize];
        if visits == 0 {
            0.5
        } else {
            self.wins[id as usize] / visits as f64
        }
    }

    /// WU-UCT unobserved in-flight count at `id` (0 unless a corrected
    /// searcher currently has a batch registered through the node).
    #[inline]
    pub fn inflight(&self, id: NodeId) -> u32 {
        self.inflight[id as usize]
    }

    /// Total in-flight count over the whole arena. Must be 0 whenever no
    /// batch is in flight — the residue invariant the WU-UCT tests pin.
    pub fn inflight_total(&self) -> u64 {
        self.inflight.iter().map(|&o| o as u64).sum()
    }

    /// Registers `n` unobserved in-flight playouts on `from` and every
    /// ancestor up to the root — the WU-UCT `O` increment performed when a
    /// batch is dispatched from `from`. Deliberately does *not* touch the
    /// LRU clock: registration is scheduling state, not a statistic, and
    /// eviction already skips any node with `inflight > 0`.
    pub fn add_inflight_path(&mut self, from: NodeId, n: u32) {
        let mut id = from;
        loop {
            self.inflight[id as usize] += n;
            match self.parent[id as usize] {
                NO_NODE => return,
                p => id = p,
            }
        }
    }

    /// Rolls back [`Self::add_inflight_path`]: removes `n` in-flight
    /// playouts from `from` and every ancestor. Called exactly once per
    /// dispatched batch — when its results backpropagate, when its launch
    /// is voided by a fault, or before degraded CPU fallback playouts.
    ///
    /// Saturates at zero: an unbalanced rollback is a caller bug (caught by
    /// the debug assertion), but a wrapped count must never poison
    /// subsequent corrected-UCB comparisons.
    pub fn sub_inflight_path(&mut self, from: NodeId, n: u32) {
        let mut id = from;
        loop {
            let o = &mut self.inflight[id as usize];
            debug_assert!(
                *o >= n,
                "sub_inflight_path underflow: removing {n} but only {o} in flight"
            );
            *o = o.saturating_sub(n);
            match self.parent[id as usize] {
                NO_NODE => return,
                p => id = p,
            }
        }
    }

    /// MCTS **selection** (paper §II.1): descends from the root choosing
    /// UCB-maximal children while nodes are fully expanded, returning the
    /// first node that still has untried moves (or a terminal node).
    ///
    /// The walk reads one contiguous child-id slice per level and hoists
    /// `ln(parent_visits)` out of the per-child loop ([`ucb1_with_ln`]).
    pub fn select(&self, exploration_c: f64) -> NodeId {
        let mut id = self.root();
        loop {
            let i = id as usize;
            let n_children = self.child_len[i] as usize;
            if self.untried_len[i] != 0 || n_children == 0 {
                return id;
            }
            let first = self.child_first[i] as usize;
            let children = &self.child_slab[first..first + n_children];
            let ln_parent = (self.visits[i].max(1) as f64).ln();
            let mut best = children[0];
            let mut best_value = f64::NEG_INFINITY;
            for &child in children {
                let c = child as usize;
                let value = ucb1_with_ln(ln_parent, self.visits[c], self.wins[c], exploration_c);
                // A NaN score would fail every `>` comparison and silently
                // leave `best` at child 0, steering the whole search into an
                // arbitrary line. Healthy trees never produce one (unvisited
                // children score +∞, visited ones are finite), so this only
                // fires on corrupted statistics — fail loudly instead.
                assert!(
                    !value.is_nan(),
                    "non-finite UCB for node {child}: visits={}, wins={}",
                    self.visits[c],
                    self.wins[c]
                );
                if value > best_value {
                    best_value = value;
                    best = child;
                }
            }
            id = best;
        }
    }

    /// WU-UCT selection: the same descent as [`Self::select`], scoring
    /// children with [`ucb1_corrected_with_ln`] so unobserved in-flight
    /// playouts (`inflight`) count as samples in both the exploitation
    /// denominator and the `ln(T + O)` term. With every `inflight` zero the
    /// arithmetic is bit-identical to `select` — the expressions collapse
    /// to the uncorrected ones — so a width-1 corrected search replays the
    /// plain UCB search exactly.
    pub fn select_corrected(&self, exploration_c: f64) -> NodeId {
        let mut id = self.root();
        loop {
            let i = id as usize;
            let n_children = self.child_len[i] as usize;
            if self.untried_len[i] != 0 || n_children == 0 {
                return id;
            }
            let first = self.child_first[i] as usize;
            let children = &self.child_slab[first..first + n_children];
            let ln_parent = ((self.visits[i] + self.inflight[i] as u64).max(1) as f64).ln();
            let mut best = children[0];
            let mut best_value = f64::NEG_INFINITY;
            for &child in children {
                let c = child as usize;
                let value = ucb1_corrected_with_ln(
                    ln_parent,
                    self.visits[c],
                    self.inflight[c] as u64,
                    self.wins[c],
                    exploration_c,
                );
                assert!(
                    !value.is_nan(),
                    "non-finite corrected UCB for node {child}: visits={}, inflight={}, wins={}",
                    self.visits[c],
                    self.inflight[c],
                    self.wins[c]
                );
                if value > best_value {
                    best_value = value;
                    best = child;
                }
            }
            id = best;
        }
    }

    /// MCTS **expansion** (paper §II.2): removes one random untried move of
    /// `id`, creates the child node and returns its id. Adding one node per
    /// iteration, as the paper does.
    ///
    /// # Panics
    /// Panics if `id` has no untried moves.
    pub fn expand<R: Rng64>(&mut self, id: NodeId, rng: &mut R) -> NodeId {
        let n = self.untried_len[id as usize];
        assert!(n != 0, "expand on fully expanded node");
        let pick = rng.next_below(n as u32);
        self.expand_with_pick(id, pick)
    }

    /// Expansion with the untried-move index already drawn. This is the
    /// seam that lets pool-parallel searchers draw all of an iteration's
    /// picks from the shared RNG sequentially (preserving the exact draw
    /// order of the sequential schedule) and then expand trees in parallel.
    ///
    /// # Panics
    /// Panics if `id` has no untried moves or `pick` is out of range.
    pub fn expand_with_pick(&mut self, id: NodeId, pick: u32) -> NodeId {
        let i = id as usize;
        let n = self.untried_len[i] as usize;
        assert!(n != 0, "expand on fully expanded node");
        let pick = pick as usize;
        assert!(pick < n, "expansion pick out of range");
        if let Some(b) = self.bounded.as_mut() {
            // Refresh the expansion parent so the nodes of the in-flight
            // iteration outrank stale leaves in the eviction order.
            b.lru_touch(id);
        }
        let base = self.untried_first[i] as usize;
        // Same removal order as `ArrayVec::swap_remove` in the original
        // layout: the last untried move fills the vacated slot.
        let mv = self.move_slab[base + pick];
        self.move_slab[base + pick] = self.move_slab[base + n - 1];
        self.untried_len[i] = (n - 1) as u16;
        let mut state = self.state[i];
        state.apply(mv);
        let depth = self.depth[i] + 1;
        let child_id = self.push_node(state, id, mv, depth);
        // Claim the parent's child slot only *after* the allocation: in
        // bounded mode it may have evicted one of `id`'s other children,
        // shifting the contents of the child range.
        let slot = self.child_first[i] as usize + self.child_len[i] as usize;
        self.child_slab[slot] = child_id;
        self.child_len[i] += 1;
        child_id
    }

    /// MCTS **backpropagation** (paper §II.4) of a batch of simulations.
    ///
    /// `count` simulations were run from `from`; `wins_p1` of them were won
    /// by P1 (draws counted ½). Every ancestor's `visits` grows by `count`
    /// and its `wins` by the reward of the player who moved into it.
    pub fn backprop(&mut self, from: NodeId, wins_p1: f64, count: u64) {
        debug_assert!(wins_p1 >= 0.0 && wins_p1 <= count as f64);
        let mut id = from;
        loop {
            if let Some(b) = self.bounded.as_mut() {
                // Leaf-to-root touch order makes every parent more recently
                // used than all of its children, which keeps the LRU tail a
                // leaf — the property `evict_lru_leaf` relies on.
                b.lru_touch(id);
            }
            let parent = self.parent[id as usize];
            let reward = if parent == NO_NODE {
                // The root has no mover; only visits matter there.
                0.0
            } else {
                // Perspective: the player who moved into `id`.
                match self.state[parent as usize].to_move() {
                    Player::P1 => wins_p1,
                    Player::P2 => count as f64 - wins_p1,
                }
            };
            self.visits[id as usize] += count;
            self.wins[id as usize] += reward;
            if parent == NO_NODE {
                return;
            }
            id = parent;
        }
    }

    /// Statistics of the root's children, in expansion order. `wins` is
    /// expressed for the **root player** (the side to move at the root), so
    /// stats from different trees over the same position merge by addition.
    pub fn root_stats(&self) -> Vec<RootStat<G::Move>> {
        self.children(self.root())
            .iter()
            .map(|&c| {
                // `wins[c]` is reward for the mover into `c`, which IS the
                // root player for depth-1 children.
                debug_assert_eq!(self.depth[c as usize], 1);
                RootStat {
                    mv: self.mv[c as usize],
                    visits: self.visits[c as usize],
                    wins: self.wins[c as usize],
                }
            })
            .collect()
    }

    /// Chooses a move from this tree's root statistics (see
    /// [`best_from_stats`]).
    pub fn best_move(&self) -> Option<G::Move> {
        best_from_stats(&self.root_stats())
    }

    /// Extracts the subtree rooted at `id` as a new tree whose root is that
    /// node (statistics preserved, depths rebased). This is the *tree
    /// reuse* operation: after playing a move, the played child's subtree
    /// carries over to the next search instead of starting cold.
    ///
    /// The copy is compacting: surviving nodes are renumbered breadth-first
    /// into fresh dense arrays and fresh slabs, so a long game never drags
    /// dead siblings' slab ranges along.
    pub fn extract_subtree(&self, id: NodeId) -> SearchTree<G> {
        let s = id as usize;
        // A bounded source yields a bounded copy with the same cap and a
        // fresh transposition table: parked statistics of evicted nodes do
        // not survive re-rooting (they mostly describe abandoned lines).
        let mut out = match &self.bounded {
            Some(b) => SearchTree::bounded(self.state[s], b.max_nodes),
            None => SearchTree::new(self.state[s]),
        };
        // Copy the root's statistics and expansion state. The fresh root's
        // untried range was reserved for the full legal-move count, which
        // bounds the source's remaining untried moves, so the copy fits.
        out.visits[0] = self.visits[s];
        out.wins[0] = self.wins[s];
        let untried = self.untried_len[s] as usize;
        let sb = self.untried_first[s] as usize;
        let db = out.untried_first[0] as usize;
        out.move_slab[db..db + untried].copy_from_slice(&self.move_slab[sb..sb + untried]);
        out.untried_len[0] = untried as u16;
        // Breadth-first copy with an explicit (source, dest) queue — the
        // same visit order as the original layout, so surviving nodes get
        // identical ids.
        let mut queue: Vec<(NodeId, NodeId)> = vec![(id, 0)];
        let mut head = 0;
        while head < queue.len() {
            let (src_id, dst_id) = queue[head];
            head += 1;
            let first = self.child_first[src_id as usize] as usize;
            let n_children = self.child_len[src_id as usize] as usize;
            for k in 0..n_children {
                let src_child = self.child_slab[first + k];
                let dst_child = out.copy_node(self, src_child, dst_id);
                queue.push((src_child, dst_child));
            }
        }
        out
    }

    /// Finds the most-visited node whose state equals `state`, searching at
    /// most `max_depth` plies below the root. Used by tree reuse to locate
    /// the position reached after our move and the opponent's reply.
    ///
    /// When several nodes hold the same state (transpositions) with equal
    /// visit counts, the tie breaks to the **highest node id** — the most
    /// recently created copy. This is pinned behaviour: `max_by_key` keeps
    /// the *last* maximal element, re-rooting fingerprints depend on it,
    /// and the bounded path mirrors it via last-registered-wins in the
    /// transposition table.
    pub fn find_state(&self, state: &G, max_depth: u32) -> Option<NodeId> {
        if let Some(b) = &self.bounded {
            // A bounded tree cannot run the full-array scan: recycled slots
            // keep their stale state payloads, which could falsely match.
            // The transposition table's live-node link replaces the O(len)
            // scan with a bounded probe; the caller-side equality check
            // below rejects hash collisions.
            let id = b.tt.find(state.zobrist())?;
            let i = id as usize;
            if b.lru_prev[i] != FREED && self.depth[i] <= max_depth && self.state[i] == *state {
                return Some(id);
            }
            return None;
        }
        (0..self.len() as NodeId)
            .filter(|&id| self.depth[id as usize] <= max_depth && self.state[id as usize] == *state)
            .max_by_key(|&id| self.visits[id as usize])
    }

    /// The tree a search of `root` starts from (tree reuse): `old`'s
    /// subtree at the most-visited node holding `root` within
    /// [`REROOT_DEPTH`] plies, as a compacting copy — surviving nodes move
    /// into fresh dense arrays and slabs, so dead siblings' ranges are
    /// dropped instead of accumulating across a game. A cold tree if there
    /// is no such node.
    pub(crate) fn rerooted(old: Option<Self>, root: G, config: &MctsConfig) -> Self {
        old.and_then(|t| Some(t.extract_subtree(t.find_state(&root, REROOT_DEPTH)?)))
            .unwrap_or_else(|| Self::for_config(root, config))
    }

    /// Live node count: `len()` minus recycled arena slots. Equals `len()`
    /// for unbounded trees.
    #[inline]
    pub fn live_nodes(&self) -> usize {
        match &self.bounded {
            Some(b) => self.visits.len() - b.free_nodes.len(),
            None => self.visits.len(),
        }
    }

    /// Arena capacity; `None` for unbounded trees.
    #[inline]
    pub fn capacity(&self) -> Option<u32> {
        self.bounded.as_ref().map(|b| b.max_nodes)
    }

    /// Nodes recycled by LRU eviction so far (0 for unbounded trees).
    #[inline]
    pub fn evictions(&self) -> u64 {
        self.bounded.as_ref().map_or(0, |b| b.evictions)
    }

    /// Transposition-table counters; `None` for unbounded trees.
    #[inline]
    pub fn transposition_stats(&self) -> Option<TransStats> {
        self.bounded.as_ref().map(|b| b.tt.stats())
    }

    /// Exhaustive structural validation for tests (no-op on unbounded
    /// trees): the LRU list round-trips and covers exactly the non-freed
    /// slots, freed slots are marked, the arena never exceeds its cap, and
    /// every live node's children are live and link back to it.
    #[doc(hidden)]
    pub fn debug_validate(&self) {
        let Some(b) = &self.bounded else { return };
        assert!(self.len() <= b.max_nodes as usize, "arena over capacity");
        let mut on_list = vec![false; self.len()];
        let mut id = b.head;
        let mut prev = NO_NODE;
        let mut live = 0usize;
        while id != NO_NODE {
            let i = id as usize;
            assert_eq!(b.lru_prev[i], prev, "lru_prev inconsistent at {id}");
            assert!(!on_list[i], "LRU list cycles through {id}");
            on_list[i] = true;
            live += 1;
            prev = id;
            id = b.lru_next[i];
        }
        assert_eq!(b.tail, prev, "LRU tail mismatch");
        assert_eq!(
            live + b.free_nodes.len(),
            self.len(),
            "every slot is live or free"
        );
        for &f in &b.free_nodes {
            assert!(!on_list[f as usize], "freed slot {f} on the LRU list");
            assert_eq!(b.lru_prev[f as usize], FREED, "freed slot {f} unmarked");
        }
        for i in 0..self.len() {
            if b.lru_prev[i] == FREED {
                continue;
            }
            for &c in self.children(i as NodeId) {
                assert_eq!(
                    self.parent[c as usize], i as NodeId,
                    "child {c} does not link back to parent {i}"
                );
                assert_ne!(
                    b.lru_prev[c as usize], FREED,
                    "live node {i} links freed child {c}"
                );
                let mut next = self.state[i];
                next.apply(self.mv[c as usize]);
                assert_eq!(
                    next, self.state[c as usize],
                    "child {c} state is not parent {i} state after its move"
                );
            }
            // Untried moves plus children moves are exactly the legal set:
            // eviction returns moves to the untried list and recycling
            // rewrites ranges, and neither may lose or duplicate a move.
            let mut legal = MoveBuf::new();
            self.state[i].legal_moves(&mut legal);
            let mut remaining: Vec<G::Move> = legal.as_slice().to_vec();
            let ub = self.untried_first[i] as usize;
            let held = self.move_slab[ub..ub + self.untried_len[i] as usize]
                .iter()
                .copied()
                .chain(
                    self.children(i as NodeId)
                        .iter()
                        .map(|&c| self.mv[c as usize]),
                );
            for m in held {
                let at = remaining
                    .iter()
                    .position(|&l| l == m)
                    .unwrap_or_else(|| panic!("node {i} holds non-legal move {m:?}"));
                remaining.swap_remove(at);
            }
            assert!(
                remaining.is_empty(),
                "node {i} lost legal moves {remaining:?}"
            );
        }
    }
}

/// Whether `id` is `tip` or one of `tip`'s ancestors — i.e. lies on the
/// root-ward chain that the in-flight iteration is standing on.
fn on_path(parent: &[NodeId], id: NodeId, tip: NodeId) -> bool {
    let mut cur = tip;
    while cur != NO_NODE {
        if cur == id {
            return true;
        }
        cur = parent[cur as usize];
    }
    false
}

/// Chooses a move from (possibly merged) root statistics: the most
/// visited root child ("robust child"), the last of equals on ties.
pub fn best_from_stats<M: Copy>(stats: &[RootStat<M>]) -> Option<M> {
    stats.iter().max_by_key(|s| s.visits).map(|s| s.mv)
}

/// Merges root statistics from several trees over the *same* position by
/// summing per-move visits and wins — the root-parallel merge rule
/// (paper §II.4).
pub fn merge_root_stats<M: Copy + Eq>(trees: &[Vec<RootStat<M>>]) -> Vec<RootStat<M>> {
    let mut merged: Vec<RootStat<M>> = Vec::new();
    for stats in trees {
        for s in stats {
            match merged.iter_mut().find(|m| m.mv == s.mv) {
                Some(m) => {
                    m.visits += s.visits;
                    m.wins += s.wins;
                }
                None => merged.push(*s),
            }
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcts_games::{Reversi, TicTacToe};
    use pmcts_util::Xoshiro256pp;

    #[test]
    fn new_tree_has_untried_root_moves() {
        let t = SearchTree::new(Reversi::initial());
        assert_eq!(t.len(), 1);
        assert_eq!(t.untried_len(t.root()), 4);
        assert!(!t.fully_expanded(t.root()));
        assert_eq!(t.max_depth(), 0);
    }

    #[test]
    fn select_returns_root_until_fully_expanded() {
        let mut t = SearchTree::new(Reversi::initial());
        let mut rng = Xoshiro256pp::new(1);
        for _ in 0..4 {
            assert_eq!(t.select(1.4), t.root());
            let child = t.expand(t.root(), &mut rng);
            t.backprop(child, 1.0, 1);
        }
        // Now fully expanded: selection must descend to a child.
        let picked = t.select(1.4);
        assert_ne!(picked, t.root());
        assert_eq!(t.depth(picked), 1);
    }

    #[test]
    fn expand_consumes_untried_and_links_child() {
        let mut t = SearchTree::new(Reversi::initial());
        let mut rng = Xoshiro256pp::new(2);
        let c = t.expand(t.root(), &mut rng);
        assert_eq!(t.len(), 2);
        assert_eq!(t.untried_len(t.root()), 3);
        assert_eq!(t.children(t.root()), &[c]);
        assert_eq!(t.parent(c), Some(t.root()));
        assert_eq!(t.depth(c), 1);
        assert!(t.move_into(c).is_some());
        assert_eq!(t.max_depth(), 1);
    }

    #[test]
    fn expansion_never_grows_a_reserved_child_range() {
        // Fully expand the root and one child: every child id must land in
        // the range reserved at node creation (no reallocation, ranges stay
        // contiguous and disjoint).
        let mut t = SearchTree::new(Reversi::initial());
        let mut rng = Xoshiro256pp::new(9);
        let total = t.untried_len(t.root());
        for _ in 0..total {
            t.expand(t.root(), &mut rng);
        }
        assert!(t.fully_expanded(t.root()));
        assert_eq!(t.children(t.root()).len(), total);
        let first_child = t.children(t.root())[0];
        let n = t.untried_len(first_child);
        for _ in 0..n {
            t.expand(first_child, &mut rng);
        }
        assert_eq!(t.children(first_child).len(), n);
        // All ids distinct and in-bounds.
        let mut seen: Vec<NodeId> = t
            .children(t.root())
            .iter()
            .chain(t.children(first_child))
            .copied()
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), total + n);
        assert!(seen.iter().all(|&id| (id as usize) < t.len()));
    }

    #[test]
    fn backprop_updates_whole_path_with_perspectives() {
        // Reversi root: P1 to move. Child: P2 to move. Grandchild: P1.
        let mut t = SearchTree::new(Reversi::initial());
        let mut rng = Xoshiro256pp::new(3);
        let c = t.expand(t.root(), &mut rng);
        let gc = t.expand(c, &mut rng);
        // 10 simulations, 7 won by P1.
        t.backprop(gc, 7.0, 10);
        assert_eq!(t.visits(t.root()), 10);
        assert_eq!(t.visits(c), 10);
        assert_eq!(t.visits(gc), 10);
        // Mover into c is P1 (root player) -> wins = 7.
        assert_eq!(t.wins(c), 7.0);
        // Mover into gc is P2 -> wins = 3.
        assert_eq!(t.wins(gc), 3.0);
    }

    #[test]
    fn root_stats_and_robust_child() {
        let mut t = SearchTree::new(Reversi::initial());
        let mut rng = Xoshiro256pp::new(4);
        let a = t.expand(t.root(), &mut rng);
        let b = t.expand(t.root(), &mut rng);
        t.backprop(a, 1.0, 2);
        t.backprop(b, 5.0, 6);
        let stats = t.root_stats();
        assert_eq!(stats.len(), 2);
        let best = t.best_move().unwrap();
        assert_eq!(best, t.move_into(b).unwrap(), "robust child = most visited");
    }

    #[test]
    fn robust_child_prefers_visits_over_mean() {
        let stats = vec![
            RootStat {
                mv: 0u8,
                visits: 100,
                wins: 55.0,
            }, // mean .55, most visited
            RootStat {
                mv: 1u8,
                visits: 10,
                wins: 9.0,
            }, // mean .9
        ];
        assert_eq!(best_from_stats(&stats), Some(0));
    }

    #[test]
    fn robust_child_prefers_a_sampled_move_over_an_unsampled_one() {
        // mv 0 has a measured mean of 0.3; mv 1 was never sampled.
        let stats = vec![
            RootStat {
                mv: 0u8,
                visits: 10,
                wins: 3.0,
            },
            RootStat {
                mv: 1u8,
                visits: 0,
                wins: 0.0,
            },
        ];
        assert_eq!(best_from_stats(&stats), Some(0));
    }

    #[test]
    fn robust_child_takes_the_last_of_equal_visit_counts() {
        let stat = |mv: u8| RootStat {
            mv,
            visits: 7,
            wins: f64::from(mv),
        };
        assert_eq!(best_from_stats(&[stat(0), stat(1), stat(2)]), Some(2));
        assert_eq!(best_from_stats::<u8>(&[]), None);
    }

    #[test]
    fn merge_root_stats_sums_matching_moves() {
        let t1 = vec![
            RootStat {
                mv: 3u8,
                visits: 10,
                wins: 6.0,
            },
            RootStat {
                mv: 5u8,
                visits: 4,
                wins: 1.0,
            },
        ];
        let t2 = vec![
            RootStat {
                mv: 5u8,
                visits: 6,
                wins: 4.0,
            },
            RootStat {
                mv: 7u8,
                visits: 1,
                wins: 1.0,
            },
        ];
        let merged = merge_root_stats(&[t1, t2]);
        assert_eq!(merged.len(), 3);
        let five = merged.iter().find(|s| s.mv == 5).unwrap();
        assert_eq!(five.visits, 10);
        assert_eq!(five.wins, 5.0);
    }

    #[test]
    fn terminal_nodes_are_recognised() {
        let s = TicTacToe::parse("XXX OO. ...", pmcts_games::Player::P2).unwrap();
        let t = SearchTree::new(s);
        assert!(t.is_terminal(t.root()));
        assert_eq!(t.select(1.4), t.root());
    }

    #[test]
    fn empty_tree_has_no_best_move() {
        let s = TicTacToe::parse("XXX OO. ...", pmcts_games::Player::P2).unwrap();
        let t = SearchTree::new(s);
        assert_eq!(t.best_move(), None);
    }

    #[test]
    #[should_panic(expected = "fully expanded")]
    fn expanding_exhausted_node_panics() {
        let mut t = SearchTree::new(TicTacToe::initial());
        let mut rng = Xoshiro256pp::new(5);
        for _ in 0..10 {
            t.expand(t.root(), &mut rng);
        }
    }

    #[test]
    fn expand_with_pick_matches_rng_expand() {
        // `expand(rng)` must be exactly `expand_with_pick(rng draw)`.
        let mut a = SearchTree::new(Reversi::initial());
        let mut b = SearchTree::new(Reversi::initial());
        let mut rng_a = Xoshiro256pp::new(6);
        let mut rng_b = Xoshiro256pp::new(6);
        for _ in 0..4 {
            let ca = a.expand(a.root(), &mut rng_a);
            let pick = rng_b.next_below(b.untried_len(b.root()) as u32);
            let cb = b.expand_with_pick(b.root(), pick);
            assert_eq!(ca, cb);
            assert_eq!(a.move_into(ca), b.move_into(cb));
            assert_eq!(a.untried(a.root()), b.untried(b.root()));
        }
    }

    /// Walks `moves` from the root, expanding where needed — test helper
    /// for building exact tree shapes (e.g. transpositions).
    fn expand_path(t: &mut SearchTree<TicTacToe>, moves: &[u8]) -> NodeId {
        let mut id = t.root();
        for &mv in moves {
            id = match t.untried(id).iter().position(|&m| m == mv) {
                Some(pos) => t.expand_with_pick(id, pos as u32),
                None => *t
                    .children(id)
                    .iter()
                    .find(|&&c| t.move_into(c) == Some(mv))
                    .expect("move neither untried nor expanded"),
            };
        }
        id
    }

    /// One full MCTS iteration with a fixed ½ reward — enough to drive
    /// realistic select/expand/backprop traffic through a tree.
    fn drive<G: Game>(t: &mut SearchTree<G>, rng: &mut Xoshiro256pp, iterations: usize) {
        for _ in 0..iterations {
            let sel = t.select(1.4);
            let node = if !t.fully_expanded(sel) {
                t.expand(sel, rng)
            } else {
                sel
            };
            t.backprop(node, 0.5, 1);
        }
    }

    #[test]
    fn find_state_tie_breaks_to_highest_node_id() {
        // Two move orders reaching the same position (X at 0 and 4, O at
        // 8): a transposition stored at two node ids.
        let mut t = SearchTree::new(TicTacToe::initial());
        let a = expand_path(&mut t, &[0, 8, 4]);
        let b = expand_path(&mut t, &[4, 8, 0]);
        assert!(a < b);
        let state = *t.state(a);
        assert_eq!(&state, t.state(b));
        // Equal visit counts (both 0): the tie is pinned to the highest id.
        assert_eq!(t.find_state(&state, 3), Some(b));
        // Visits dominate the tie-break.
        t.backprop(a, 1.0, 2);
        assert_eq!(t.find_state(&state, 3), Some(a));
    }

    #[test]
    fn bounded_tree_never_exceeds_capacity() {
        let mut t = SearchTree::bounded(Reversi::initial(), 64);
        let mut rng = Xoshiro256pp::new(11);
        for round in 0..40 {
            drive(&mut t, &mut rng, 25);
            assert!(t.len() <= 64, "arena grew past cap in round {round}");
            t.debug_validate();
        }
        assert!(t.evictions() > 0, "1000 iterations must overflow 64 nodes");
        assert!(t.live_nodes() <= 64);
        assert_eq!(t.capacity(), Some(64));
        // The root survived every eviction with its statistics intact.
        assert_eq!(t.visits(t.root()), 1000);
    }

    #[test]
    fn bounded_matches_unbounded_while_under_capacity() {
        // With a cap the search never reaches, the bounded tree is the
        // unbounded tree: same ids, same statistics, same best move.
        let mut a = SearchTree::new(Reversi::initial());
        let mut b = SearchTree::bounded(Reversi::initial(), 4096);
        let mut rng_a = Xoshiro256pp::new(12);
        let mut rng_b = Xoshiro256pp::new(12);
        drive(&mut a, &mut rng_a, 300);
        drive(&mut b, &mut rng_b, 300);
        assert_eq!(b.evictions(), 0);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.root_stats(), b.root_stats());
        assert_eq!(a.best_move(), b.best_move());
        b.debug_validate();
    }

    #[test]
    fn eviction_returns_move_to_parent_untried_list() {
        // Cap 2: root + one child. Expanding a second child must first
        // evict the cold first child, handing its move back to the root.
        let mut t = SearchTree::bounded(TicTacToe::initial(), 2);
        let c1 = t.expand_with_pick(t.root(), 0);
        t.backprop(c1, 0.5, 1);
        let mv1 = t.move_into(c1).unwrap();
        assert_eq!(t.untried_len(t.root()), 8);
        let c2 = t.expand_with_pick(t.root(), 0);
        t.backprop(c2, 0.5, 1);
        // Same arena slot recycled; the first child's move is untried again.
        assert_eq!(c2, c1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.evictions(), 1);
        assert_eq!(t.children(t.root()).len(), 1);
        assert_eq!(t.untried_len(t.root()), 8);
        assert!(t.untried(t.root()).contains(&mv1));
        t.debug_validate();
    }

    #[test]
    fn transposition_table_recovers_evicted_statistics() {
        let mut t = SearchTree::bounded(TicTacToe::initial(), 2);
        let c1 = t.expand_with_pick(t.root(), 0);
        let mv1 = t.move_into(c1).unwrap();
        t.backprop(c1, 3.0, 4);
        // Evict the child by expanding a different move...
        let c2 = t.expand_with_pick(t.root(), 0);
        t.backprop(c2, 0.5, 1);
        assert_ne!(t.move_into(c2), Some(mv1));
        // ...then re-expand the evicted move: its 4 visits come back.
        let pick = t
            .untried(t.root())
            .iter()
            .position(|&m| m == mv1)
            .expect("evicted move is untried again") as u32;
        let c3 = t.expand_with_pick(t.root(), pick);
        assert_eq!(t.move_into(c3), Some(mv1));
        assert_eq!(t.visits(c3), 4);
        assert_eq!(t.wins(c3), 3.0);
        let stats = t.transposition_stats().unwrap();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.recovered_visits, 4);
        t.debug_validate();
    }

    #[test]
    fn bounded_find_state_uses_live_link_only() {
        let mut t = SearchTree::bounded(TicTacToe::initial(), 64);
        let a = expand_path(&mut t, &[0, 8, 4]);
        t.backprop(a, 0.5, 1);
        let state = *t.state(a);
        assert_eq!(t.find_state(&state, 3), Some(a));
        // Deeper than allowed: rejected even though the node is live.
        assert_eq!(t.find_state(&state, 2), None);
        // Unknown state: no match.
        assert_eq!(t.find_state(&TicTacToe::initial(), 0), Some(t.root()));
    }

    #[test]
    fn bounded_extract_subtree_stays_bounded() {
        let mut t = SearchTree::bounded(Reversi::initial(), 128);
        let mut rng = Xoshiro256pp::new(13);
        drive(&mut t, &mut rng, 500);
        assert!(t.evictions() > 0);
        let child = t.children(t.root())[0];
        let sub = t.extract_subtree(child);
        assert_eq!(sub.capacity(), Some(128));
        assert_eq!(sub.visits(0), t.visits(child));
        assert_eq!(sub.wins(0).to_bits(), t.wins(child).to_bits());
        sub.debug_validate();
        // The copy keeps working under pressure: drive it past its cap.
        let mut sub = sub;
        drive(&mut sub, &mut rng, 500);
        assert!(sub.len() <= 128);
        sub.debug_validate();
    }

    #[test]
    fn bounded_search_is_deterministic() {
        let run = |seed: u64| {
            let mut t = SearchTree::bounded(Reversi::initial(), 96);
            let mut rng = Xoshiro256pp::new(seed);
            drive(&mut t, &mut rng, 800);
            (
                t.root_stats(),
                t.evictions(),
                t.transposition_stats().unwrap(),
            )
        };
        assert_eq!(run(14), run(14));
        assert_ne!(run(14).0, run(15).0);
    }

    #[test]
    fn extract_subtree_compacts_and_preserves_stats() {
        let mut t = SearchTree::new(Reversi::initial());
        let mut rng = Xoshiro256pp::new(8);
        // Grow a small tree.
        for _ in 0..40 {
            let sel = t.select(1.4);
            let node = if !t.fully_expanded(sel) {
                t.expand(sel, &mut rng)
            } else {
                sel
            };
            t.backprop(node, 0.5, 1);
        }
        let child = t.children(t.root())[0];
        let sub = t.extract_subtree(child);
        assert_eq!(sub.visits(0), t.visits(child));
        assert_eq!(sub.wins(0).to_bits(), t.wins(child).to_bits());
        assert_eq!(sub.depth(0), 0);
        assert_eq!(sub.untried(0), t.untried(child));
        assert_eq!(sub.children(0).len(), t.children(child).len());
        // Compaction: the new slabs only hold surviving nodes' ranges.
        assert!(sub.len() < t.len());
    }
}
