//! Model-guided best-first mapping search.
//!
//! Both searches prune a partial mapping on a lower bound of its final
//! area, the admissible completion bound [`Bound`]; the exact
//! branch-and-bound search ([`crate::bnb`]) expands the decision tree
//! depth-first and only prunes on it. The guided strategy also orders
//! its frontier by that bound, using the performance estimator as a
//! search model in the manner of lower-bound pruning of partially
//! specified candidates (Beaugnon et al., "Optimization space pruning
//! without regrets", CC 2017):
//!
//! * **g** — the sum of the estimated areas of the components placed so
//!   far (read from [`SearchCtx::alt_area`], which is precomputed once
//!   per mapping call through an [`vase_estimate::EstimateMemo`]);
//! * **h** — the sum, over the plan's uncovered blocks, of each block's
//!   completion bound `lb` ([`SearchCtx::completion_bounds`]): the least
//!   area per covered block of any alternative that covers it, zero
//!   where a share is possible. Each node carries its `h`; a child
//!   subtracts `lb` of the blocks its alternative covers.
//!
//! `g + h` never exceeds the area of any completion: the final estimate
//! is the sum of per-component estimates plus non-negative fan-out
//! followers, and each component's area spread evenly over the blocks
//! it covers gives every block at least its `lb`. The frontier pops the
//! least `f = g + h` first, and a node or allocation is pruned when
//! `f · (1 − δ)` exceeds the incumbent area. The test is strict and the
//! slack `δ` covers the few ulps per block the quotients and running
//! sums drift by, so a leaf of the incumbent's exact area is never
//! pruned and the leaf tie-break below still decides between them.
//!
//! Expansion order within a node (the shared branching step of
//! [`crate::search`]) and the leaf evaluation are the exact search's
//! own. Ties on bitwise-equal area are broken towards the leaf the DFS
//! would have reported (the preorder-earlier plan, see
//! [`preorder_lt`]). The dominance memo is tie-safe in the same sense:
//! the DFS reaches a cover set in preorder, so of two visits with equal
//! records it always keeps the preorder-earlier one, but the guided
//! search may reach the preorder-later one first. It therefore prunes an
//! equal-count revisit only when its path is preorder-greater than or
//! equal to the recorded visit's, and otherwise lets it replace the
//! record. So a guided run that reaches frontier exhaustion returns the
//! netlist the exact search returns, bit for bit, wherever the two find
//! the same area. Under a budget it is *anytime* like the DFS: the best
//! incumbent so far is returned with `budget_exhausted` set.
//!
//! The frontier is stored copy-on-write: a node holds an `Arc` of its
//! parent's plan — a flat list of [`Step`]s — plus its one pending
//! step, and popping a surviving node copies the parent's steps once.
//! A node also carries its parent's branch path, extended by one link
//! when it is popped ([`Path`]); the tie-breaks compare paths
//! ([`preorder_lt`]), and a memo record keeps a path alive rather than
//! a plan.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use vase_vhif::BlockId;

use crate::config::MapStats;
use crate::plan::{Plan, Step};
use crate::search::{Best, Bound, Driver, Memo, SearchCtx};

/// One frontier entry, stored copy-on-write: the *parent's* plan
/// (shared with every sibling via `Arc`) plus the one pending step,
/// applied only if the node survives its pop-time bound check. This
/// keeps plan copies O(pops) instead of O(pushes) — branching-factor
/// times fewer copies, and none at all for frontier entries killed by
/// an improved incumbent.
struct Node {
    /// `f = g + h`, the node's lower bound on any completion's area.
    f: f64,
    /// Insertion sequence number: ties on `f` pop in push order, which
    /// matches the DFS visit order on equal-bound frontiers.
    seq: u64,
    /// Sum of placed component areas *after* the pending step.
    g: f64,
    /// Completion bound of the blocks still uncovered after the
    /// pending step.
    h: f64,
    /// The plan before this node's step (the root carries the empty
    /// plan and no step).
    parent: Arc<Plan>,
    /// The pending step at the parent's next uncovered block, or
    /// `None` for the root. Applied to `parent` at pop time.
    step: Option<Step>,
    /// The parent's branch path (the root carries the root path),
    /// extended by the pending step at pop time like the plan.
    up: Arc<Path>,
}

/// A branch path from the root, one link per step, sharing its prefix
/// with every path through the same parent: the step's rank (`2k` =
/// share at visit rank `k`, `2k + 1` = allocate at visit rank `k`) and
/// the parent's path. Lexicographic order over rank sequences is the
/// DFS preorder. A memo record keeps a path alive, not a plan, so its
/// memory is one link per visited node rather than a step list.
struct Path {
    rank: usize,
    depth: usize,
    up: Option<Arc<Path>>,
}

impl Path {
    fn root() -> Arc<Path> {
        Arc::new(Path {
            rank: 0,
            depth: 0,
            up: None,
        })
    }

    /// `up` extended by `step`, taken at `up`'s next uncovered block.
    fn child(ctx: &SearchCtx, up: &Arc<Path>, step: Step) -> Path {
        Path {
            rank: 2 * ctx.visit_order(step.block, step.alt as usize)
                + usize::from(step.share.is_none()),
            depth: up.depth + 1,
            up: Some(Arc::clone(up)),
        }
    }

    fn up(&self) -> &Path {
        self.up.as_deref().expect("only the root has no parent")
    }
}

impl Drop for Path {
    /// Unlink iteratively: a deep path dropped recursively could
    /// overflow the stack.
    fn drop(&mut self) {
        let mut up = self.up.take();
        while let Some(link) = up {
            up = Arc::into_inner(link).and_then(|mut p| p.up.take());
        }
    }
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
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
            .f
            .total_cmp(&self.f)
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
    // The incumbent's path, for the leaf tie-break (`None` for a seed).
    let mut best_path: Option<Arc<Path>> = None;
    // Per cover set, the op amps and the path of its dominating visit.
    let mut memo: Memo<(usize, Arc<Path>)> = Memo::new(ctx.config);
    let bound = Bound::new(ctx);
    let mut heap = BinaryHeap::new();
    let mut seq: u64 = 0;
    let root = Arc::new(Plan::new(ctx.graph));
    let h = bound.uncovered(&root);
    heap.push(Node {
        f: h,
        seq,
        g: 0.0,
        h,
        parent: root,
        step: None,
        up: Path::root(),
    });

    while let Some(node) = heap.pop() {
        if !ctx.note_visit(&mut stats) {
            break;
        }
        let incumbent = best.as_ref().map_or(f64::INFINITY, |b| b.area);
        // The incumbent may have improved since this node was pushed:
        // re-check the bound at pop time so stale frontier entries die
        // cheaply — before even materializing the plan.
        if bound.prunes(node.f, incumbent) {
            stats.pruned_nodes += 1;
            continue;
        }
        let (plan, path) = materialize(ctx, &node);
        let dominates = |(opamps, visit): &(usize, Arc<Path>)| {
            *opamps < plan.opamps || (*opamps == plan.opamps && !preorder_lt(&path, visit))
        };
        let record = || (plan.opamps, Arc::clone(&path));
        if memo.prunes(&plan, &mut stats, dominates, record) {
            continue;
        }
        let Some(cur) = ctx.next_uncovered(&plan) else {
            complete(ctx, &plan, &path, &mut best, &mut best_path, &mut stats);
            continue;
        };
        let mut expand = Expand {
            ctx,
            heap: &mut heap,
            seq: &mut seq,
            stats: &mut stats,
            bound: &bound,
            node: &node,
            parent: &plan,
            path: &path,
            incumbent,
        };
        ctx.branch(&plan, cur, &mut expand);
    }
    (best, stats)
}

/// The guided frontier as a [`Driver`] of one popped node's branching
/// step: children are pushed (not visited), ordered and bounded by
/// `f = g + h`.
struct Expand<'e> {
    ctx: &'e SearchCtx<'e>,
    heap: &'e mut BinaryHeap<Node>,
    seq: &'e mut u64,
    stats: &'e mut MapStats,
    bound: &'e Bound,
    /// The popped node (its `g` and `h`).
    node: &'e Node,
    /// The popped node's materialized plan, shared by every child.
    parent: &'e Arc<Plan>,
    /// The popped node's branch path, shared by every child.
    path: &'e Arc<Path>,
    /// The incumbent area at pop time.
    incumbent: f64,
}

impl Expand<'_> {
    /// The child's `(g, h)` after taking alternative `alt` at `cur`,
    /// sharing (which places nothing) or allocating. Every block the
    /// alternative covers is uncovered in the parent.
    fn costs(&self, cur: BlockId, alt: usize, share: bool) -> (f64, f64) {
        let h = self.node.h - self.bound.covered(&self.ctx.cache.at(cur)[alt]);
        let placed = if share {
            0.0
        } else {
            self.ctx.alt_area[cur.index()][alt]
        };
        (self.node.g + placed, h)
    }
}

impl Driver for Expand<'_> {
    fn stats(&mut self) -> &mut MapStats {
        self.stats
    }

    fn bounded(&mut self, _plan: &Plan, cur: BlockId, alt: usize) -> bool {
        // Nothing is pruned before the first incumbent.
        if self.incumbent == f64::INFINITY {
            return false;
        }
        let (g, h) = self.costs(cur, alt, false);
        self.bound.prunes(g + h, self.incumbent)
    }

    fn child(&mut self, _plan: &Plan, step: Step) {
        let (g, h) = self.costs(step.block, step.alt as usize, step.share.is_some());
        *self.seq += 1;
        self.heap.push(Node {
            f: g + h,
            seq: *self.seq,
            g,
            h,
            parent: Arc::clone(self.parent),
            step: Some(step),
            up: Arc::clone(self.path),
        });
    }
}

/// Apply a popped node's pending step to its (shared) parent plan and
/// branch path.
fn materialize(ctx: &SearchCtx, node: &Node) -> (Arc<Plan>, Arc<Path>) {
    match node.step {
        Some(step) => (
            Arc::new(node.parent.child(&ctx.cache, step)),
            Arc::new(Path::child(ctx, &node.up, step)),
        ),
        None => (Arc::clone(&node.parent), Arc::clone(&node.up)),
    }
}

/// Whether the DFS visits the node at the end of path `a` before the
/// one at `b`: an ancestor first, otherwise the one whose branch below
/// their deepest common ancestor ranks lower (the alternative earlier
/// in visit order, and of one alternative the share before the
/// allocation).
fn preorder_lt(a: &Path, b: &Path) -> bool {
    let (mut x, mut y) = (a, b);
    while x.depth > y.depth {
        x = x.up();
    }
    while y.depth > x.depth {
        y = y.up();
    }
    if std::ptr::eq(x, y) {
        return a.depth < b.depth;
    }
    while !std::ptr::eq(x.up(), y.up()) {
        x = x.up();
        y = y.up();
    }
    x.rank < y.rank
}

/// Evaluate a complete plan and (maybe) accept it. Acceptance mirrors
/// the DFS: strictly smaller area always wins; on *bitwise* equal area
/// the preorder-earlier leaf ([`preorder_lt`] of their paths) wins,
/// which is the leaf the DFS would have kept (its first-found optimum).
/// The greedy seed carries no path and only loses to strict
/// improvements.
fn complete(
    ctx: &SearchCtx,
    plan: &Plan,
    path: &Arc<Path>,
    best: &mut Option<Best>,
    best_path: &mut Option<Arc<Path>>,
    stats: &mut MapStats,
) {
    let Ok(leaf) = ctx.evaluate(plan, stats) else {
        return;
    };
    let accept = match best.as_ref() {
        None => true,
        Some(b) => {
            leaf.area < b.area
                || (leaf.area.to_bits() == b.area.to_bits()
                    && best_path.as_ref().is_some_and(|bp| preorder_lt(path, bp)))
        }
    };
    if accept {
        *best = Some(leaf);
        *best_path = Some(Arc::clone(path));
    }
}

#[cfg(test)]
mod tests {
    use super::{preorder_lt, Path};
    use crate::bnb::map_graph;
    use crate::config::{MapperConfig, SearchStrategy};
    use crate::plan::Plan;
    use crate::search::{Bound, SearchCtx};
    use std::sync::Arc;
    use vase_budget::{Budget, BudgetMeter};
    use vase_estimate::Estimator;
    use vase_library::MatchCache;
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

    /// `stages` cascaded PI-controller stages (error subtractor,
    /// proportional scaler, integral path, summer, plant integrator),
    /// gains drawn from `seed`.
    fn pi_loop(stages: usize, seed: u64) -> SignalFlowGraph {
        let mut state = seed;
        let mut gain = |lo: f64, hi: f64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lo + (hi - lo) * ((state >> 11) as f64 / (1u64 << 53) as f64)
        };
        let mut g = SignalFlowGraph::new("pi_loop");
        let reference = g.add(BlockKind::Input { name: "ref".into() });
        let mut prev = g.add(BlockKind::Input { name: "fb".into() });
        for _ in 0..stages {
            let err = g.add(BlockKind::Sub);
            let p = g.add(BlockKind::Scale {
                gain: gain(0.5, 8.0),
            });
            let i = g.add(BlockKind::Integrate {
                gain: gain(0.1, 2.0),
                initial: 0.0,
            });
            let u = g.add(BlockKind::Add { arity: 2 });
            let plant = g.add(BlockKind::Integrate {
                gain: gain(0.5, 1.5),
                initial: 0.0,
            });
            g.connect(reference, err, 0).expect("wire");
            g.connect(prev, err, 1).expect("wire");
            g.connect(err, p, 0).expect("wire");
            g.connect(err, i, 0).expect("wire");
            g.connect(p, u, 0).expect("wire");
            g.connect(i, u, 1).expect("wire");
            g.connect(u, plant, 0).expect("wire");
            prev = plant;
        }
        let y = g.add(BlockKind::Output { name: "y".into() });
        g.connect(prev, y, 0).expect("wire");
        g
    }

    fn graphs() -> Vec<SignalFlowGraph> {
        let mut graphs = vec![fig6_graph(), buffer_chain(8), buffer_chain(11)];
        graphs.extend((0..4).map(|seed| pi_loop(2 + seed as usize % 2, seed)));
        graphs
    }

    /// `h` at the root: the completion bound of every operation block.
    fn root_bound(graph: &SignalFlowGraph, config: &MapperConfig) -> f64 {
        let estimator = estimator();
        let cache = MatchCache::build(graph, &config.match_options);
        let meter = BudgetMeter::new(config.effective_budget(), None);
        let ctx = SearchCtx::new(graph, &estimator, config, cache, &meter, None);
        Bound::new(&ctx).uncovered(&Plan::new(graph))
    }

    #[test]
    fn root_bound_never_exceeds_the_returned_area() {
        for graph in graphs() {
            for sharing in [true, false] {
                let config = MapperConfig {
                    sharing,
                    ..MapperConfig::guided()
                };
                let h = root_bound(&graph, &config);
                let area = map_graph(&graph, &estimator(), &config)
                    .expect("maps")
                    .estimate
                    .area_m2;
                assert!(
                    h > 0.0,
                    "{} sharing={sharing}: the bound says nothing",
                    graph.name()
                );
                assert!(
                    h <= area,
                    "{} sharing={sharing}: h {h:e} > area {area:e}",
                    graph.name()
                );
            }
        }
    }

    #[test]
    fn bounding_changes_nodes_not_the_netlist() {
        for graph in graphs() {
            let bounded = map_graph(&graph, &estimator(), &MapperConfig::guided()).expect("maps");
            let open = MapperConfig {
                bounding: false,
                ..MapperConfig::guided()
            };
            let unbounded = map_graph(&graph, &estimator(), &open).expect("maps");
            assert_eq!(bounded.netlist, unbounded.netlist, "{}", graph.name());
            assert!(bounded.stats.visited_nodes <= unbounded.stats.visited_nodes);
        }
    }

    #[test]
    fn guided_matches_exact_bitwise_on_small_graphs() {
        for graph in graphs() {
            let exact = map_graph(&graph, &estimator(), &MapperConfig::default()).expect("maps");
            let guided = map_graph(&graph, &estimator(), &MapperConfig::guided()).expect("maps");
            assert_eq!(
                guided.netlist,
                exact.netlist,
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
    fn guided_matches_exact_on_chains() {
        // Both searches prune on the same area bound; the guided one
        // finds the optimum of the buffer chain best-first, the exact one
        // depth-first, and they return the same netlist in fewer nodes
        // than either visits unbounded.
        let g = buffer_chain(12);
        let exact = map_graph(&g, &estimator(), &MapperConfig::default()).expect("maps");
        let guided = map_graph(&g, &estimator(), &MapperConfig::guided()).expect("maps");
        assert_eq!(guided.netlist, exact.netlist);
        let runs = [(&exact, MapperConfig::default()), (&guided, MapperConfig::guided())];
        for (bounded, config) in runs {
            let open = MapperConfig { bounding: false, ..config };
            let unbounded = map_graph(&g, &estimator(), &open).expect("maps");
            assert!(
                bounded.stats.visited_nodes < unbounded.stats.visited_nodes,
                "{:?}: bounded {} vs unbounded {}",
                config.strategy,
                bounded.stats.visited_nodes,
                unbounded.stats.visited_nodes
            );
        }
    }

    fn link(up: &Arc<Path>, rank: usize) -> Arc<Path> {
        Arc::new(Path {
            rank,
            depth: up.depth + 1,
            up: Some(Arc::clone(up)),
        })
    }

    #[test]
    fn paths_order_like_the_dfs_preorder() {
        // root ─┬─ a (rank 1) ── c (rank 0)
        //       └─ b (rank 2)
        let root = Path::root();
        let a = link(&root, 1);
        let b = link(&root, 2);
        let c = link(&a, 0);
        assert!(preorder_lt(&a, &b) && !preorder_lt(&b, &a));
        assert!(preorder_lt(&c, &b) && !preorder_lt(&b, &c));
        assert!(preorder_lt(&a, &c), "an ancestor comes first");
        assert!(!preorder_lt(&c, &c));
    }

    #[test]
    fn a_deep_path_drops_without_recursing() {
        let mut path = Path::root();
        for _ in 0..200_000 {
            path = link(&path, 0);
        }
        drop(path);
    }

    #[test]
    fn guided_budget_returns_anytime_incumbent() {
        // The optimum takes six steps from the root; four visits cannot
        // reach it.
        let g = buffer_chain(12);
        let config = MapperConfig {
            budget: Budget::nodes(4),
            strategy: SearchStrategy::Guided,
            ..MapperConfig::default()
        };
        let result = map_graph(&g, &estimator(), &config).expect("anytime mapping");
        assert!(result.stats.budget_exhausted);
        result
            .netlist
            .validate()
            .expect("incumbent is structurally valid");
        assert!(result.estimate.feasible());
    }
}
