//! Model-guided best-first mapping search.
//!
//! The exact branch-and-bound search ([`crate::bnb`]) expands the
//! decision tree depth-first and bounds partial mappings by
//! `(opamps + added) · MinArea`. That bound only counts op amps, so on
//! larger graphs the DFS spends most of its nodes proving optimality of
//! branches whose *actual* placed area is already hopeless.
//!
//! The guided strategy uses the performance estimator as a search
//! model instead:
//!
//! * **g** — the sum of the estimated areas of the components placed so
//!   far (read from [`SearchCtx::alt_area`], which is precomputed once
//!   per mapping call through an [`vase_estimate::EstimateMemo`]). This
//!   is an *admissible* lower bound on the final netlist area: the
//!   final estimate is the sum of per-component estimates, and
//!   resolution only ever adds fan-out follower buffers (non-negative
//!   area). Nodes with `g > incumbent` are pruned — strictly, so no
//!   prefix of an optimal leaf is ever dropped.
//! * **h** — `uncovered_blocks · MinArea`, an optimistic completion
//!   estimate used only to *order* the frontier (best `f = g + h`
//!   first). It is not used for pruning, so its slight inadmissibility
//!   on multi-block folds and shared components cannot affect the
//!   result.
//!
//! Expansion order within a node (the shared branching step of
//! [`crate::search`]), the dominance memo, and the leaf evaluation are
//! the exact search's own, so only the frontier order, the bound and
//! the leaf tie-break are guided-specific; ties on
//! bitwise-equal area are broken towards the leaf the DFS would have
//! reported (smallest branch-choice path in preorder), so a guided run
//! that reaches frontier exhaustion returns a bit-identical netlist to
//! the exact search. Under a budget it is *anytime* like the DFS: the
//! best incumbent so far is returned with `budget_exhausted` set —
//! and because the frontier is ordered by the model, that incumbent is
//! typically optimal or near-optimal long before exhaustion.
//!
//! The guided search is sequential; `parallelism` is ignored.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use vase_vhif::BlockId;

use crate::config::MapStats;
use crate::plan::Plan;
use crate::search::{Best, Branch, Driver, MemoBackend, SearchCtx};

/// One frontier entry, stored copy-on-write: the *parent's* plan
/// (shared with every sibling via `Arc`) plus the one pending branch,
/// applied only if the node survives its pop-time bound check. This
/// keeps plan cloning O(pops) instead of O(pushes) — branching-factor
/// times fewer clones, and none at all for frontier entries killed by
/// an improved incumbent.
struct Node {
    /// `f = g + h` as ordered bits (non-negative IEEE doubles order the
    /// same as their bit patterns).
    f_bits: u64,
    /// Insertion sequence number: ties on `f` pop in push order, which
    /// matches the DFS visit order on equal-bound frontiers.
    seq: u64,
    /// Sum of placed component areas (admissible lower bound) *after*
    /// the pending branch.
    g: f64,
    /// The plan before this node's branch (the root carries the empty
    /// plan and no branch).
    parent: Arc<Plan>,
    /// The pending branch at the parent's next uncovered block, or
    /// `None` for the root. Applied to `parent` at pop time.
    branch: Option<Branch>,
    /// Branch choices from the root: `2k` = share at visit-rank `k`,
    /// `2k + 1` = allocate at visit-rank `k`. Lexicographic order over
    /// these paths is exactly the DFS preorder.
    path: Vec<u16>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.f_bits == other.f_bits && self.seq == other.seq
    }
}

impl Eq for Node {}

impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest
        // (f, seq) on top.
        other
            .f_bits
            .cmp(&self.f_bits)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Run the guided best-first search over `ctx`'s decision tree.
///
/// `seed` is an optional greedy incumbent (path-less: it only loses to
/// strictly better completions, mirroring the DFS seed semantics).
pub(crate) fn run_guided(ctx: &SearchCtx, seed: Option<Best>) -> (Option<Best>, MapStats) {
    let mut stats = MapStats::default();
    let mut best = seed;
    let mut best_path: Option<Vec<u16>> = None;
    let mut memo = MemoBackend::new(ctx.config, None);
    let mut heap = BinaryHeap::new();
    let mut seq: u64 = 0;
    let root = Arc::new(Plan::new(ctx.graph));
    heap.push(Node {
        f_bits: completion_f(ctx, 0.0, root.covered.count()).to_bits(),
        seq,
        g: 0.0,
        parent: root,
        branch: None,
        path: Vec::new(),
    });

    while let Some(node) = heap.pop() {
        if !ctx.note_visit(&mut stats) {
            break;
        }
        let bound = best.as_ref().map_or(f64::INFINITY, |b| b.area);
        // The incumbent may have improved since this node was pushed:
        // re-check the admissible bound at pop time so stale frontier
        // entries die cheaply — before even materializing the plan.
        if ctx.config.bounding && node.g > bound {
            stats.pruned_nodes += 1;
            continue;
        }
        let plan = materialize(ctx, &node);
        if memo.prunes(&plan, &mut stats) {
            continue;
        }
        let Some(cur) = ctx.next_uncovered(&plan) else {
            complete(ctx, &plan, &node.path, &mut best, &mut best_path, &mut stats);
            continue;
        };
        let mut expand = Expand {
            ctx,
            heap: &mut heap,
            seq: &mut seq,
            stats: &mut stats,
            node: &node,
            parent: &plan,
            covered: plan.covered.count(),
            bound,
        };
        ctx.branch(&plan, cur, &mut expand);
    }
    (best, stats)
}

/// The guided frontier as a [`Driver`] of one popped node's branching
/// step: children are pushed (not visited), ordered by `f`, and bounded
/// by the admissible placed area `g`.
struct Expand<'e> {
    ctx: &'e SearchCtx<'e>,
    heap: &'e mut BinaryHeap<Node>,
    seq: &'e mut u64,
    stats: &'e mut MapStats,
    /// The popped node: its `g` and branch path.
    node: &'e Node,
    /// The popped node's materialized plan, shared by every child.
    parent: &'e Arc<Plan>,
    /// `parent`'s covered-block count.
    covered: usize,
    /// The incumbent area at pop time.
    bound: f64,
}

impl Expand<'_> {
    /// The placed area after allocating alternative `alt` at `cur`.
    fn allocated_g(&self, cur: BlockId, alt: usize) -> f64 {
        self.node.g + self.ctx.alt_area[cur.index()][alt]
    }
}

impl Driver for Expand<'_> {
    fn stats(&mut self) -> &mut MapStats {
        self.stats
    }

    fn bounded(&mut self, _plan: &Plan, cur: BlockId, alt: usize) -> bool {
        self.ctx.config.bounding && self.allocated_g(cur, alt) > self.bound
    }

    fn child(&mut self, _plan: &Plan, cur: BlockId, rank: usize, branch: Branch) {
        // Sharing places no new component, so `g` is unchanged.
        let g = match branch.share {
            Some(_) => self.node.g,
            None => self.allocated_g(cur, branch.alt),
        };
        // Every block the alternative covers is currently uncovered, so
        // the child's covered count follows without applying the branch.
        let covered = self.covered + self.ctx.cache.at(cur)[branch.alt].covered.len();
        let code = 2 * rank + usize::from(branch.share.is_none());
        let mut path = self.node.path.clone();
        path.push(code as u16);
        *self.seq += 1;
        self.heap.push(Node {
            f_bits: completion_f(self.ctx, g, covered).to_bits(),
            seq: *self.seq,
            g,
            parent: Arc::clone(self.parent),
            branch: Some(branch),
            path,
        });
    }
}

/// Apply a popped node's pending branch to its (shared) parent plan.
/// The parent plan is in exactly the state it was in when the child
/// was pushed, so `next_uncovered` re-derives the same block.
fn materialize(ctx: &SearchCtx, node: &Node) -> Arc<Plan> {
    let Some(branch) = node.branch else {
        return Arc::clone(&node.parent);
    };
    let cur = ctx
        .next_uncovered(&node.parent)
        .expect("a pending branch implies an uncovered block");
    Arc::new(ctx.child(&node.parent, cur, branch))
}

/// Frontier ordering key `f = g + uncovered · MinArea`, from the plan's
/// covered-block count. All interface blocks are pre-covered by
/// [`Plan::new`], so every uncovered block is an operation block
/// needing at least a minimum-area op amp (ordering heuristic only —
/// multi-block folds and sharing can beat it, which is why it never
/// prunes).
fn completion_f(ctx: &SearchCtx, g: f64, covered: usize) -> f64 {
    let uncovered = ctx.graph.len() - covered;
    g + uncovered as f64 * ctx.min_area
}

/// Evaluate a complete plan and (maybe) accept it. Acceptance mirrors
/// the DFS: strictly smaller area always wins; on *bitwise* equal area
/// the preorder-smaller branch path wins, which is the leaf the DFS
/// would have kept (its first-found optimum). The greedy seed carries
/// no path and only loses to strict improvements.
fn complete(
    ctx: &SearchCtx,
    plan: &Plan,
    path: &[u16],
    best: &mut Option<Best>,
    best_path: &mut Option<Vec<u16>>,
    stats: &mut MapStats,
) {
    let Ok((netlist, estimate)) = ctx.evaluate(plan, stats) else {
        return;
    };
    let area = estimate.area_m2;
    let accept = match best.as_ref() {
        None => true,
        Some(b) => {
            area < b.area
                || (area.to_bits() == b.area.to_bits()
                    && best_path.as_ref().is_some_and(|bp| path < &bp[..]))
        }
    };
    if accept {
        *best = Some(Best::new(plan, netlist, estimate));
        *best_path = Some(path.to_vec());
    }
}

#[cfg(test)]
mod tests {
    use crate::bnb::map_graph;
    use crate::config::{MapperConfig, SearchStrategy};
    use vase_budget::Budget;
    use vase_estimate::Estimator;
    use vase_vhif::{BlockKind, SignalFlowGraph};

    fn estimator() -> Estimator {
        Estimator::default()
    }

    fn fig6_graph() -> SignalFlowGraph {
        let mut g = SignalFlowGraph::new("fig6");
        let a = g.add(BlockKind::Input { name: "a".into() });
        let b = g.add(BlockKind::Input { name: "b".into() });
        let s1 = g.add_labelled(BlockKind::Scale { gain: 2.0 }, "block1");
        let s2 = g.add_labelled(BlockKind::Scale { gain: 3.0 }, "block2");
        let add = g.add_labelled(BlockKind::Add { arity: 2 }, "block3");
        let s3 = g.add_labelled(BlockKind::Scale { gain: 0.5 }, "block4");
        let y = g.add(BlockKind::Output { name: "y".into() });
        g.connect(a, s1, 0).expect("wire");
        g.connect(b, s2, 0).expect("wire");
        g.connect(s1, add, 0).expect("wire");
        g.connect(s2, add, 1).expect("wire");
        g.connect(add, s3, 0).expect("wire");
        g.connect(s3, y, 0).expect("wire");
        g
    }

    fn buffer_chain(n: usize) -> SignalFlowGraph {
        let mut g = SignalFlowGraph::new("chain");
        let mut prev = g.add(BlockKind::Input { name: "x".into() });
        for _ in 0..n {
            let s = g.add(BlockKind::Scale { gain: 1.0 });
            g.connect(prev, s, 0).expect("wire");
            prev = s;
        }
        let y = g.add(BlockKind::Output { name: "y".into() });
        g.connect(prev, y, 0).expect("wire");
        g
    }

    #[test]
    fn guided_matches_exact_bitwise_on_small_graphs() {
        for graph in [fig6_graph(), buffer_chain(8), buffer_chain(11)] {
            let exact = map_graph(&graph, &estimator(), &MapperConfig::default()).expect("maps");
            let guided = map_graph(&graph, &estimator(), &MapperConfig::guided()).expect("maps");
            assert_eq!(
                guided.netlist, exact.netlist,
                "guided-to-completion must be bit-identical on {}",
                graph.name()
            );
            assert_eq!(
                guided.estimate.area_m2.to_bits(),
                exact.estimate.area_m2.to_bits()
            );
        }
    }

    #[test]
    fn guided_matches_exact_under_each_ablation() {
        let g = fig6_graph();
        for (memoize, sharing, sequencing, bounding) in [
            (false, true, true, true),
            (true, false, true, true),
            (true, true, false, true),
            (true, true, true, false),
            (false, false, false, false),
        ] {
            let base = MapperConfig {
                memoize,
                sharing,
                sequencing,
                bounding,
                ..MapperConfig::default()
            };
            let exact = map_graph(&g, &estimator(), &base).expect("maps");
            let guided = map_graph(
                &g,
                &estimator(),
                &MapperConfig {
                    strategy: SearchStrategy::Guided,
                    ..base
                },
            )
            .expect("maps");
            assert_eq!(
                guided.netlist, exact.netlist,
                "memoize={memoize} sharing={sharing} sequencing={sequencing} bounding={bounding}"
            );
        }
    }

    #[test]
    fn guided_visits_no_more_nodes_than_exact_on_chains() {
        // On the buffer chain the placed-area bound is strictly tighter
        // than the op-amp-count bound, and best-first ordering finds
        // the optimum early; the guided search should never need more
        // node visits than the exact DFS.
        let g = buffer_chain(12);
        let exact = map_graph(&g, &estimator(), &MapperConfig::default()).expect("maps");
        let guided = map_graph(&g, &estimator(), &MapperConfig::guided()).expect("maps");
        assert_eq!(guided.netlist, exact.netlist);
        assert!(
            guided.stats.visited_nodes <= exact.stats.visited_nodes,
            "guided {} vs exact {}",
            guided.stats.visited_nodes,
            exact.stats.visited_nodes
        );
    }

    #[test]
    fn guided_budget_returns_anytime_incumbent() {
        let g = buffer_chain(12);
        let config = MapperConfig {
            budget: Budget::nodes(8),
            strategy: SearchStrategy::Guided,
            ..MapperConfig::default()
        };
        let result = map_graph(&g, &estimator(), &config).expect("anytime mapping");
        assert!(result.stats.budget_exhausted);
        result.netlist.validate().expect("incumbent is structurally valid");
        assert!(result.estimate.feasible());
    }

    #[test]
    fn guided_ignores_parallelism() {
        let g = fig6_graph();
        let seq = map_graph(&g, &estimator(), &MapperConfig::guided()).expect("maps");
        let config = MapperConfig {
            parallelism: 8,
            ..MapperConfig::guided()
        };
        let par = map_graph(&g, &estimator(), &config).expect("maps");
        assert_eq!(seq.netlist, par.netlist);
        assert_eq!(seq.stats.visited_nodes, par.stats.visited_nodes);
    }
}
