//! The original array-of-structs search tree, retained as a baseline.
//!
//! This is the pre-SoA [`SearchTree`](pmcts_core::tree::SearchTree) layout:
//! one `Node` struct per tree node, each owning a heap-allocated
//! `children: Vec<NodeId>` and an inline 128-slot untried-move buffer. It
//! is kept for the same reason `execute_kernel_lockstep` survives in
//! `gpu-sim`: as a slow, obviously correct oracle. The layout-equivalence
//! tests in this module grow both trees through identical operation
//! sequences and assert bit-identical statistics, and the `throughput`
//! benchmark measures tree-op rates on both layouts so the SoA speedup is
//! reported against a baseline compiled in the same binary with the same
//! flags.
//!
//! Nothing in the search path uses this module.

use pmcts_core::tree::{best_from_stats, NodeId, RootStat};
use pmcts_core::ucb::ucb1;
use pmcts_games::{Game, MoveBuf, Player};
use pmcts_util::Rng64;

/// One node of the baseline tree (original layout).
#[derive(Clone, Debug)]
pub struct AosNode<G: Game> {
    /// Game state at this node.
    pub state: G,
    /// Parent node; `None` for the root.
    pub parent: Option<NodeId>,
    /// Move that led from the parent to this node; `None` for the root.
    pub mv: Option<G::Move>,
    /// Expanded children.
    pub children: Vec<NodeId>,
    /// Legal moves not yet expanded into children.
    pub untried: MoveBuf<G::Move>,
    /// Number of simulations that have passed through this node.
    pub visits: u64,
    /// Accumulated reward for the player who moved into this node.
    pub wins: f64,
    /// Distance from the root.
    pub depth: u32,
}

impl<G: Game> AosNode<G> {
    fn new(state: G, parent: Option<NodeId>, mv: Option<G::Move>, depth: u32) -> Self {
        let mut untried = MoveBuf::new();
        state.legal_moves(&mut untried);
        AosNode {
            state,
            parent,
            mv,
            children: Vec::new(),
            untried,
            visits: 0,
            wins: 0.0,
            depth,
        }
    }

    /// Whether every legal move has been expanded.
    #[inline]
    pub fn fully_expanded(&self) -> bool {
        self.untried.is_empty()
    }
}

/// The baseline array-of-structs MCTS tree (original layout).
#[derive(Clone, Debug)]
pub struct AosSearchTree<G: Game> {
    nodes: Vec<AosNode<G>>,
    max_depth: u32,
}

impl<G: Game> AosSearchTree<G> {
    /// Creates a tree containing only the root.
    pub fn new(root_state: G) -> Self {
        AosSearchTree {
            nodes: vec![AosNode::new(root_state, None, None, 0)],
            max_depth: 0,
        }
    }

    /// The root node id (always 0).
    #[inline]
    pub fn root(&self) -> NodeId {
        0
    }

    /// Node count.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree holds only the root.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Deepest node created so far.
    #[inline]
    pub fn max_depth(&self) -> u32 {
        self.max_depth
    }

    /// Immutable node access.
    #[inline]
    pub fn node(&self, id: NodeId) -> &AosNode<G> {
        &self.nodes[id as usize]
    }

    /// Selection exactly as the original layout implemented it: UCB with
    /// `ln` recomputed per child.
    pub fn select(&self, exploration_c: f64) -> NodeId {
        let mut id = self.root();
        loop {
            let node = self.node(id);
            if !node.fully_expanded() || node.children.is_empty() {
                return id;
            }
            let parent_visits = node.visits;
            let mut best = node.children[0];
            let mut best_value = f64::NEG_INFINITY;
            for &child in &node.children {
                let c = self.node(child);
                let value = ucb1(parent_visits, c.visits, c.wins, exploration_c);
                if value > best_value {
                    best_value = value;
                    best = child;
                }
            }
            id = best;
        }
    }

    /// Expansion exactly as the original layout implemented it.
    ///
    /// # Panics
    /// Panics if `id` has no untried moves.
    pub fn expand<R: Rng64>(&mut self, id: NodeId, rng: &mut R) -> NodeId {
        let child_id = self.nodes.len() as NodeId;
        let depth = {
            let node = &mut self.nodes[id as usize];
            assert!(!node.untried.is_empty(), "expand on fully expanded node");
            let pick = rng.next_below(node.untried.len() as u32) as usize;
            let mv = node.untried.swap_remove(pick);
            let mut state = node.state;
            state.apply(mv);
            node.children.push(child_id);
            let depth = node.depth + 1;
            self.nodes
                .push(AosNode::new(state, Some(id), Some(mv), depth));
            depth
        };
        self.max_depth = self.max_depth.max(depth);
        child_id
    }

    /// Backpropagation exactly as the original layout implemented it.
    pub fn backprop(&mut self, from: NodeId, wins_p1: f64, count: u64) {
        debug_assert!(wins_p1 >= 0.0 && wins_p1 <= count as f64);
        let mut id = Some(from);
        while let Some(cur) = id {
            let parent = self.node(cur).parent;
            let reward = match parent {
                Some(p) => match self.node(p).state.to_move() {
                    Player::P1 => wins_p1,
                    Player::P2 => count as f64 - wins_p1,
                },
                None => 0.0,
            };
            let node = &mut self.nodes[cur as usize];
            node.visits += count;
            node.wins += reward;
            id = parent;
        }
    }

    /// Statistics of the root's children, in expansion order.
    pub fn root_stats(&self) -> Vec<RootStat<G::Move>> {
        self.node(self.root())
            .children
            .iter()
            .map(|&c| {
                let n = self.node(c);
                RootStat {
                    mv: n.mv.expect("non-root node has a move"),
                    visits: n.visits,
                    wins: n.wins,
                }
            })
            .collect()
    }

    /// Chooses a move from this tree's root statistics.
    pub fn best_move(&self) -> Option<G::Move> {
        best_from_stats(&self.root_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcts_core::tree::SearchTree;
    use pmcts_games::{Reversi, TicTacToe};
    use pmcts_util::Xoshiro256pp;

    /// Grows both layouts through the identical operation sequence and
    /// asserts every observable — selection decisions, node statistics,
    /// links, untried move order, root stats — matches bit for bit. This is
    /// the oracle proving the SoA rewrite is a pure layout change.
    fn assert_layouts_equivalent<G: Game>(root: G, seed: u64, iters: usize) {
        let mut aos = AosSearchTree::new(root);
        let mut soa = SearchTree::new(root);
        let mut rng_a = Xoshiro256pp::new(seed);
        let mut rng_s = Xoshiro256pp::new(seed);
        let mut outcome = Xoshiro256pp::new(seed ^ 0x5EED);
        for _ in 0..iters {
            let sel_a = aos.select(1.4);
            let sel_s = soa.select(1.4);
            assert_eq!(sel_a, sel_s, "selection diverged");
            let node = if !aos.node(sel_a).fully_expanded() {
                let a = aos.expand(sel_a, &mut rng_a);
                let s = soa.expand(sel_s, &mut rng_s);
                assert_eq!(a, s, "expansion id diverged");
                a
            } else {
                sel_a
            };
            let wins_p1 = (outcome.next_below(3) as f64) / 2.0;
            aos.backprop(node, wins_p1, 1);
            soa.backprop(node, wins_p1, 1);
        }
        assert_eq!(aos.len(), soa.len());
        assert_eq!(aos.max_depth(), soa.max_depth());
        for id in 0..aos.len() as NodeId {
            let n = aos.node(id);
            assert_eq!(n.visits, soa.visits(id), "visits at {id}");
            assert_eq!(
                n.wins.to_bits(),
                soa.wins(id).to_bits(),
                "wins bits at {id}"
            );
            assert_eq!(n.depth, soa.depth(id), "depth at {id}");
            assert_eq!(n.parent, soa.parent(id), "parent at {id}");
            assert_eq!(n.mv, soa.move_into(id), "move at {id}");
            assert_eq!(&n.children[..], soa.children(id), "children at {id}");
            assert_eq!(n.untried.as_slice(), soa.untried(id), "untried at {id}");
            assert_eq!(n.state, *soa.state(id), "state at {id}");
        }
        assert_eq!(aos.root_stats(), soa.root_stats());
    }

    #[test]
    fn layouts_equivalent_on_reversi() {
        assert_layouts_equivalent(Reversi::initial(), 7, 400);
    }

    #[test]
    fn layouts_equivalent_on_tictactoe_to_terminal() {
        // Small game: the whole tree gets built, exercising terminal nodes
        // and exhausted interior nodes.
        assert_layouts_equivalent(TicTacToe::initial(), 11, 2000);
    }

    #[test]
    fn layouts_equivalent_across_seeds() {
        for seed in 1..6 {
            assert_layouts_equivalent(Reversi::initial(), seed, 150);
        }
    }

    #[test]
    fn baseline_expand_consumes_untried() {
        let mut t = AosSearchTree::new(Reversi::initial());
        let mut rng = Xoshiro256pp::new(2);
        let c = t.expand(t.root(), &mut rng);
        assert_eq!(t.len(), 2);
        assert_eq!(t.node(t.root()).untried.len(), 3);
        assert_eq!(t.node(t.root()).children, vec![c]);
    }
}
