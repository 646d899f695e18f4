//! The branch-and-bound mapping algorithm (paper Fig. 5): the mapping
//! entry points and the exact depth-first driver.
//!
//! The search walks the signal-flow graph from its outputs towards its
//! inputs. At each uncovered block the **branching rule** enumerates
//! every library sub-graph match ending there (including functional
//! transformations); for each alternative the algorithm first tries to
//! **share** an already-allocated component with identical inputs and
//! operation, then to **allocate** a dedicated component — unless the
//! **bounding rule** proves the partial mapping cannot beat the best
//! complete mapping found so far (`(opamps + comp_opamps) · MinArea ≥
//! current_best`). The **sequencing rule** visits larger covers first
//! so a good solution is found early and the bound becomes effective.
//!
//! The branching step, the dominance memo and the leaf evaluation live
//! once in the private `search` module; this module adds the DFS
//! frontier (plain recursion) and the op-amp-count bound. Beyond the
//! paper, the implementation (a) consults a per-block [`MatchCache`]
//! so the pattern matcher runs exactly once per block per mapping call
//! — greedy seed included — instead of once per visited decision-tree
//! node, (b) keys the dominance memo by an allocation-free
//! [`CoverSet`](crate::cover::CoverSet) bitset, and (c) optionally
//! splits the decision tree across worker threads (see
//! [`crate::parallel`]) around a shared incumbent bound.

use std::sync::atomic::Ordering;
use std::time::Instant;

use vase_budget::{BudgetMeter, CancelToken};
use vase_estimate::{Estimator, NetlistEstimate};
use vase_library::{MatchCache, Netlist};
use vase_vhif::{BlockId, GraphBounds, SignalFlowGraph};

use crate::cache::CoverCache;
use crate::config::{MapStats, MapperConfig, SearchStrategy};
use crate::error::MapError;
use crate::parallel::{run_parallel, SharedSearchState};
use crate::plan::Plan;
use crate::search::{Best, Branch, Driver, MemoBackend, SearchCtx};

/// The result of mapping one signal-flow graph.
#[derive(Debug, Clone)]
pub struct MapResult {
    /// The minimum-area netlist found.
    pub netlist: Netlist,
    /// Its performance estimate.
    pub estimate: NetlistEstimate,
    /// Search statistics.
    pub stats: MapStats,
}

/// Map `graph` onto a minimum-area netlist of library components.
///
/// With `config.parallelism > 1` (or `0` for one worker per core) the
/// decision tree is split into subtree tasks searched concurrently; the
/// parallel search returns the same optimal area as the sequential one.
///
/// # Errors
///
/// * [`MapError::NoPattern`] if some block has no library
///   implementation at all;
/// * [`MapError::NoFeasibleMapping`] if every complete mapping violates
///   the estimator's performance constraints.
pub fn map_graph(
    graph: &SignalFlowGraph,
    estimator: &Estimator,
    config: &MapperConfig,
) -> Result<MapResult, MapError> {
    map_graph_with_cache(graph, estimator, config, None, None)
}

/// [`map_graph`] with an optional cooperative [`CancelToken`] and an
/// optional content-addressed [`CoverCache`].
///
/// Tripping the token (from any thread) stops the search at the next
/// metering checkpoint; like budget exhaustion it is *anytime* — the
/// best incumbent found so far is returned with
/// `stats.budget_exhausted` set. When `config.budget` is limited or a
/// token is supplied, a greedy mapping seeds the incumbent before the
/// search starts, so exhaustion at any point still yields a feasible,
/// verifier-clean plan whenever one exists.
///
/// When the cache holds a valid best-known cover for a structurally
/// identical graph under the same constraints/options, the mapping is
/// answered in O(lookup) with `stats.cache_hits = 1` and no search at
/// all; otherwise the search runs normally and its optimal cover is
/// recorded (unless it stopped on a budget).
///
/// # Errors
///
/// As [`map_graph`]; additionally, cancellation or exhaustion before
/// *any* feasible mapping (including the greedy seed) was found
/// reports [`MapError::NoFeasibleMapping`].
pub fn map_graph_with_cache(
    graph: &SignalFlowGraph,
    estimator: &Estimator,
    config: &MapperConfig,
    token: Option<CancelToken>,
    cache: Option<&CoverCache>,
) -> Result<MapResult, MapError> {
    let seed_incumbent = config.budget.is_limited() || token.is_some();
    let meter = BudgetMeter::new(config.effective_budget(), token);
    map_graph_metered_cached(graph, estimator, config, &meter, seed_incumbent, cache, None)
}

/// The budget-aware mapping core: meters node visits on `meter`
/// (shareable across several graphs of one design), consults the cover
/// cache before branching and updates it after a completed
/// (non-exhausted) search, and passes proven value bounds to the
/// swing-aware candidate pruning (only consulted when
/// `config.range_prune` is set). When `seed_incumbent` is set the
/// search starts from a greedy mapping over the same [`SearchCtx`], so
/// exhaustion always has an incumbent to return; the greedy seed runs
/// off the meter — it is linear in the graph and counts as setup, not
/// search.
pub(crate) fn map_graph_metered_cached(
    graph: &SignalFlowGraph,
    estimator: &Estimator,
    config: &MapperConfig,
    meter: &BudgetMeter,
    seed_incumbent: bool,
    cover_cache: Option<&CoverCache>,
    bounds: Option<&GraphBounds>,
) -> Result<MapResult, MapError> {
    let start = Instant::now();
    // Run the matcher once per block, up front; the pre-check, the
    // greedy seed and every decision-tree visit read from this cache.
    let cache = MatchCache::build(graph, &config.match_options);
    // Pre-check: every operation block must have at least one pattern.
    for (id, block) in graph.iter() {
        if !block.kind.is_interface() && cache.at(id).is_empty() {
            return Err(MapError::NoPattern {
                block: format!("{id} ({})", block.kind),
            });
        }
    }
    // Content-addressed reuse: a structurally identical graph mapped
    // before (under the same constraints and options) resolves in
    // O(lookup), skipping the search entirely.
    let cache_key =
        cover_cache.map(|c| (c, CoverCache::key_with_bounds(graph, estimator, config, bounds)));
    if let Some((cc, key)) = &cache_key {
        if let Some((netlist, estimate)) = cc.lookup(*key, graph, estimator, config) {
            let stats = MapStats {
                cache_hits: 1,
                elapsed_us: start.elapsed().as_micros() as u64,
                ..MapStats::default()
            };
            return Ok(MapResult { netlist, estimate, stats });
        }
    }
    let ctx = SearchCtx::new(graph, estimator, config, cache, meter, bounds);
    let seed = if seed_incumbent {
        crate::greedy::seed(&ctx)
    } else {
        None
    };
    let jobs = config.effective_parallelism();
    let (best, mut stats) = match config.strategy {
        SearchStrategy::Guided => crate::guide::run_guided(&ctx, seed),
        SearchStrategy::Exact if jobs <= 1 => {
            let mut search = Search::new(&ctx, None);
            search.best = seed;
            search.run(Plan::new(graph));
            (search.best, search.stats)
        }
        SearchStrategy::Exact => run_parallel(&ctx, jobs, seed),
    };
    stats.elapsed_us = start.elapsed().as_micros() as u64;
    stats.budget_exhausted = meter.exhausted();
    match best {
        Some(best) => {
            if let Some((cc, key)) = cache_key {
                // Only proven-complete searches are worth remembering:
                // a budget-exhausted incumbent must not masquerade as
                // the best-known cover. (A greedy seed that survives a
                // *completed* search is fine — completion proved it
                // area-optimal.)
                if !stats.budget_exhausted && !best.components.is_empty() {
                    cc.insert(key, best.opamps, best.components.clone());
                }
                stats.cache_misses = 1;
            }
            Ok(MapResult {
                netlist: best.netlist,
                estimate: best.estimate,
                stats,
            })
        }
        None => Err(MapError::NoFeasibleMapping),
    }
}

/// The exact depth-first driver: plain recursion over the branching
/// step, bounded by `(opamps + added) · MinArea` against the incumbent.
pub(crate) struct Search<'a> {
    ctx: &'a SearchCtx<'a>,
    pub(crate) best: Option<Best>,
    memo: MemoBackend<'a>,
    shared: Option<&'a SharedSearchState>,
    pub(crate) stats: MapStats,
}

impl<'a> Search<'a> {
    /// A search over the whole decision tree (`shared: None`), or a
    /// worker search over one subtree, pruning against the shared
    /// incumbent bound and the shared dominance memo.
    pub(crate) fn new(ctx: &'a SearchCtx<'a>, shared: Option<&'a SharedSearchState>) -> Self {
        Search {
            ctx,
            best: None,
            memo: MemoBackend::new(ctx.config, shared.map(|s| &s.memo)),
            shared,
            stats: MapStats::default(),
        }
    }

    pub(crate) fn run(&mut self, plan: Plan) {
        // The anytime contract: once the budget trips, every pending
        // recursion unwinds immediately, leaving `self.best` as the
        // incumbent to return.
        if !self.ctx.note_visit(&mut self.stats) || self.memo.prunes(&plan, &mut self.stats) {
            return;
        }
        let ctx = self.ctx;
        match ctx.next_uncovered(&plan) {
            Some(cur) => ctx.branch(&plan, cur, self),
            None => self.complete(&plan),
        }
    }

    /// The incumbent area to bound against: the local best, tightened
    /// by the best any worker has published.
    fn bound_area(&self) -> f64 {
        let local = self.best.as_ref().map_or(f64::INFINITY, |b| b.area);
        match self.shared {
            Some(shared) => local.min(f64::from_bits(shared.best_area.load(Ordering::Relaxed))),
            None => local,
        }
    }

    fn complete(&mut self, plan: &Plan) {
        let Ok((netlist, estimate)) = self.ctx.evaluate(plan, &mut self.stats) else {
            return;
        };
        let area = estimate.area_m2;
        if self.best.as_ref().is_none_or(|b| area < b.area) {
            self.best = Some(Best::new(plan, netlist, estimate));
        }
        if let Some(shared) = self.shared {
            // Publish for cross-worker bounding. Non-negative IEEE
            // doubles order the same as their bit patterns, so an
            // atomic integer min keeps the true minimum area.
            shared
                .best_area
                .fetch_min(area.to_bits(), Ordering::Relaxed);
        }
    }
}

impl Driver for Search<'_> {
    fn stats(&mut self) -> &mut MapStats {
        &mut self.stats
    }

    fn bounded(&mut self, plan: &Plan, cur: BlockId, alt: usize) -> bool {
        if !self.ctx.config.bounding {
            return false;
        }
        let bound = self.bound_area();
        let added = self.ctx.cache.at(cur)[alt].kind.opamp_count();
        bound.is_finite() && (plan.opamps + added) as f64 * self.ctx.min_area >= bound
    }

    fn child(&mut self, plan: &Plan, cur: BlockId, _rank: usize, branch: Branch) {
        let child = self.ctx.child(plan, cur, branch);
        self.run(child);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vase_library::ComponentKind;
    use vase_vhif::BlockKind;

    fn estimator() -> Estimator {
        Estimator::default()
    }

    /// The paper's Fig. 6a example: y = k1·a + k2·b processed through a
    /// multiply-and-add structure mappable with 2, 3, or 4 op amps.
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

    /// A chain of `n` unity-gain buffers (x → 1·1·…·1 → y).
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
    fn fig6_best_mapping_uses_one_summing_amp() {
        // Scale∘Add with folded scale children → all 4 blocks in ONE
        // weighted summing amplifier (even better than the paper's
        // 2-op-amp result, which lacked the Scale∘Add fold for the
        // outer gain).
        let g = fig6_graph();
        let result = map_graph(&g, &estimator(), &MapperConfig::default()).expect("maps");
        result.netlist.validate().expect("valid");
        assert_eq!(result.netlist.opamp_count(), 1, "{}", result.netlist);
        match &result.netlist.components[0].kind {
            ComponentKind::SummingAmp { weights } => {
                assert_eq!(weights, &vec![1.0, 1.5]);
            }
            other => panic!("expected summing amp, got {other:?}"),
        }
    }

    #[test]
    fn single_block_mapping_uses_four_opamps() {
        // With multi-block patterns off, each of the 4 blocks costs an
        // op amp — the worst branch of the paper's Fig. 6 tree.
        let g = fig6_graph();
        let mut config = MapperConfig::default();
        config.match_options.multi_block = false;
        config.match_options.transforms = false;
        let result = map_graph(&g, &estimator(), &config).expect("maps");
        assert_eq!(result.netlist.opamp_count(), 4, "{}", result.netlist);
    }

    #[test]
    fn bounding_prunes_nodes() {
        // A chain of unity-gain buffers: every component costs close to
        // `MinArea`, so the bound `(opamps + comp) · MinArea ≥ best`
        // becomes effective once the 6-follower optimum is found and a
        // branch accumulates per-block followers.
        let g = buffer_chain(12);

        // Isolate the bounding rule: memoization off for both runs.
        let bounded = map_graph(
            &g,
            &estimator(),
            &MapperConfig {
                memoize: false,
                ..MapperConfig::default()
            },
        )
        .expect("maps");
        let exhaustive = map_graph(&g, &estimator(), &MapperConfig::exhaustive()).expect("maps");
        // Same optimum (6 pair-folded buffers)...
        assert_eq!(
            bounded.netlist.opamp_count(),
            exhaustive.netlist.opamp_count()
        );
        assert_eq!(bounded.netlist.opamp_count(), 6);
        // ...but bounding visits fewer nodes and actually prunes.
        assert!(bounded.stats.visited_nodes <= exhaustive.stats.visited_nodes);
        assert!(
            bounded.stats.pruned_nodes > 0,
            "expected pruning; visited {} vs {}",
            bounded.stats.visited_nodes,
            exhaustive.stats.visited_nodes
        );
        assert_eq!(exhaustive.stats.pruned_nodes, 0);
    }

    #[test]
    fn sharing_reuses_identical_subcircuits() {
        // Two outputs computing the same 2·x: with sharing one amp
        // serves both.
        let mut g = SignalFlowGraph::new("share");
        let x = g.add(BlockKind::Input { name: "x".into() });
        let s1 = g.add(BlockKind::Scale { gain: 2.0 });
        let s2 = g.add(BlockKind::Scale { gain: 2.0 });
        let y1 = g.add(BlockKind::Output { name: "y1".into() });
        let y2 = g.add(BlockKind::Output { name: "y2".into() });
        g.connect(x, s1, 0).expect("wire");
        g.connect(x, s2, 0).expect("wire");
        g.connect(s1, y1, 0).expect("wire");
        g.connect(s2, y2, 0).expect("wire");

        let shared = map_graph(&g, &estimator(), &MapperConfig::default()).expect("maps");
        assert_eq!(shared.netlist.opamp_count(), 1, "{}", shared.netlist);

        let config = MapperConfig {
            sharing: false,
            ..MapperConfig::default()
        };
        let unshared = map_graph(&g, &estimator(), &config).expect("maps");
        assert_eq!(unshared.netlist.opamp_count(), 2, "{}", unshared.netlist);
    }

    #[test]
    fn integrator_feedback_loop_maps() {
        // dx/dt = -x: summing integrator with its own output fed back.
        let mut g = SignalFlowGraph::new("ode");
        let integ = g.add(BlockKind::Integrate {
            gain: 1.0,
            initial: 1.0,
        });
        let neg = g.add(BlockKind::Scale { gain: -1.0 });
        let y = g.add(BlockKind::Output { name: "x".into() });
        g.connect(integ, neg, 0).expect("wire");
        g.connect(neg, integ, 0).expect("wire");
        g.connect(integ, y, 0).expect("wire");
        let result = map_graph(&g, &estimator(), &MapperConfig::default()).expect("maps");
        result.netlist.validate().expect("valid");
        // Best: one summing integrator implementing both blocks.
        assert_eq!(result.netlist.opamp_count(), 1, "{}", result.netlist);
    }

    #[test]
    fn infeasible_constraints_yield_error() {
        use vase_estimate::PerformanceConstraints;
        let g = fig6_graph();
        let e = Estimator::new(PerformanceConstraints {
            bandwidth_hz: 4e3,
            signal_peak_v: 1.0,
            max_power_w: 0.0, // nothing is feasible
            max_area_m2: f64::INFINITY,
        });
        let err = map_graph(&g, &e, &MapperConfig::default()).unwrap_err();
        assert_eq!(err, MapError::NoFeasibleMapping);
    }

    #[test]
    fn stats_count_complete_mappings() {
        let g = fig6_graph();
        let result = map_graph(&g, &estimator(), &MapperConfig::exhaustive()).expect("maps");
        assert!(result.stats.complete_mappings >= 2);
        assert!(result.stats.visited_nodes > result.stats.complete_mappings);
    }

    #[test]
    fn memoization_prunes_but_preserves_the_optimum() {
        let g = fig6_graph();
        let with = map_graph(&g, &estimator(), &MapperConfig::default()).expect("maps");
        let without = map_graph(
            &g,
            &estimator(),
            &MapperConfig {
                memoize: false,
                ..MapperConfig::default()
            },
        )
        .expect("maps");
        assert_eq!(with.netlist.opamp_count(), without.netlist.opamp_count());
        assert!(with.stats.visited_nodes <= without.stats.visited_nodes);
    }

    #[test]
    fn sequencing_off_still_finds_optimum_but_slower_bound() {
        let g = fig6_graph();
        let config = MapperConfig {
            sequencing: false,
            ..MapperConfig::default()
        };
        let result = map_graph(&g, &estimator(), &config).expect("maps");
        assert_eq!(result.netlist.opamp_count(), 1);
    }

    #[test]
    fn matcher_runs_once_per_block_per_call() {
        use vase_budget::Budget;
        use vase_library::matches_at_calls_on_thread;
        // parallelism = 1 keeps the whole search on this thread, so the
        // thread-local matcher-call counter sees every invocation. A
        // limited budget or a token seeds the search with a greedy
        // mapping, which must read the search's own match table.
        let limited = MapperConfig {
            budget: Budget::nodes(1_000_000),
            ..MapperConfig::default()
        };
        for g in [fig6_graph(), buffer_chain(12)] {
            for (path, config, token) in [
                ("plain", MapperConfig::default(), None),
                ("limited budget", limited, None),
                ("token", MapperConfig::default(), Some(CancelToken::new())),
                ("guided token", MapperConfig::guided(), Some(CancelToken::new())),
            ] {
                let before = matches_at_calls_on_thread();
                map_graph_with_cache(&g, &estimator(), &config, token, None).expect("maps");
                let calls = matches_at_calls_on_thread() - before;
                assert_eq!(
                    calls,
                    g.len() as u64,
                    "{path}: matches_at must run exactly once per block per mapping call"
                );
            }
        }
    }

    #[test]
    fn parallel_search_matches_sequential_optimum() {
        for graph in [fig6_graph(), buffer_chain(10)] {
            let seq = map_graph(&graph, &estimator(), &MapperConfig::default()).expect("maps");
            for parallelism in [2usize, 4, 8] {
                let config = MapperConfig {
                    parallelism,
                    ..MapperConfig::default()
                };
                let par = map_graph(&graph, &estimator(), &config).expect("maps");
                assert_eq!(
                    par.netlist.opamp_count(),
                    seq.netlist.opamp_count(),
                    "parallelism={parallelism} on {}",
                    graph.name()
                );
                assert!(
                    (par.estimate.area_m2 - seq.estimate.area_m2).abs()
                        <= seq.estimate.area_m2 * 1e-12,
                    "parallelism={parallelism} on {}: {} vs {}",
                    graph.name(),
                    par.estimate.area_m2,
                    seq.estimate.area_m2
                );
            }
        }
    }

    #[test]
    fn parallel_infeasible_still_errors() {
        use vase_estimate::PerformanceConstraints;
        let g = fig6_graph();
        let e = Estimator::new(PerformanceConstraints {
            bandwidth_hz: 4e3,
            signal_peak_v: 1.0,
            max_power_w: 0.0,
            max_area_m2: f64::INFINITY,
        });
        let err = map_graph(
            &g,
            &e,
            &MapperConfig {
                parallelism: 4,
                ..MapperConfig::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, MapError::NoFeasibleMapping);
    }

    #[test]
    fn node_budget_returns_verifier_clean_incumbent() {
        use vase_budget::Budget;
        let g = buffer_chain(12);
        let unbudgeted = map_graph(&g, &estimator(), &MapperConfig::default()).expect("maps");
        for parallelism in [1usize, 4] {
            let config = MapperConfig {
                budget: Budget::nodes(8),
                parallelism,
                ..MapperConfig::default()
            };
            let result = map_graph(&g, &estimator(), &config).expect("anytime mapping");
            assert!(
                result.stats.budget_exhausted,
                "8 nodes cannot finish a 12-block chain (parallelism={parallelism})"
            );
            result.netlist.validate().expect("incumbent is structurally valid");
            assert!(result.estimate.feasible(), "incumbent meets constraints");
            // The incumbent can only be as good as or worse than the
            // proven optimum.
            assert!(result.estimate.area_m2 >= unbudgeted.estimate.area_m2 * 0.999);
        }
    }

    #[test]
    fn pre_cancelled_token_still_yields_incumbent() {
        let token = CancelToken::new();
        token.cancel();
        let g = buffer_chain(10);
        let result =
            map_graph_with_cache(&g, &estimator(), &MapperConfig::default(), Some(token), None)
                .expect("cancellation is anytime, not an error");
        assert!(result.stats.budget_exhausted);
        result.netlist.validate().expect("valid");
        assert!(result.estimate.feasible());
    }

    #[test]
    fn generous_budget_matches_unbudgeted_optimum() {
        use vase_budget::Budget;
        let g = fig6_graph();
        let free = map_graph(&g, &estimator(), &MapperConfig::default()).expect("maps");
        let config = MapperConfig {
            budget: Budget::nodes(1_000_000),
            ..MapperConfig::default()
        };
        let budgeted = map_graph(&g, &estimator(), &config).expect("maps");
        assert!(!budgeted.stats.budget_exhausted);
        assert_eq!(budgeted.netlist.opamp_count(), free.netlist.opamp_count());
    }

    /// Map with explicit bounds through the metered entry point.
    fn map_with_bounds(
        graph: &SignalFlowGraph,
        estimator: &Estimator,
        config: &MapperConfig,
        bounds: Option<&GraphBounds>,
    ) -> Result<MapResult, MapError> {
        let meter = BudgetMeter::new(config.effective_budget(), None);
        map_graph_metered_cached(graph, estimator, config, &meter, false, None, bounds)
    }

    #[test]
    fn bounds_without_range_prune_are_bit_identical() {
        // Attaching proven bounds must change nothing unless
        // `range_prune` is opted into — the equivalence the flow's
        // default path relies on.
        let g = fig6_graph();
        let mut bounds = GraphBounds::unknown(&g);
        for b in bounds.blocks.iter_mut() {
            *b = Some((-0.1, 0.1));
        }
        let plain = map_graph(&g, &estimator(), &MapperConfig::default()).expect("maps");
        let with =
            map_with_bounds(&g, &estimator(), &MapperConfig::default(), Some(&bounds))
                .expect("maps");
        assert_eq!(with.netlist, plain.netlist);
        assert_eq!(with.estimate.area_m2.to_bits(), plain.estimate.area_m2.to_bits());
        assert_eq!(with.stats.range_pruned, 0);
    }

    #[test]
    fn range_prune_skips_dominated_over_headroom_alternatives() {
        // A gain-40 stage: the matcher offers both the single amplifier
        // and its gain-split chain transformation (same cover, same
        // inputs, more op amps). With the output proven to stay within
        // ±0.5 V, the chain carries swing headroom the proof rules out
        // and is dominated by the feasible single amp.
        let mut g = SignalFlowGraph::new("gain40");
        let x = g.add(BlockKind::Input { name: "x".into() });
        let s = g.add(BlockKind::Scale { gain: 40.0 });
        let y = g.add(BlockKind::Output { name: "y".into() });
        g.connect(x, s, 0).expect("wire");
        g.connect(s, y, 0).expect("wire");
        let mut bounds = GraphBounds::unknown(&g);
        bounds.blocks[s.index()] = Some((-0.5, 0.5));

        let config = MapperConfig { range_prune: true, ..MapperConfig::default() };
        let pruned = map_with_bounds(&g, &estimator(), &config, Some(&bounds)).expect("maps");
        pruned.netlist.validate().expect("valid");
        assert!(pruned.estimate.feasible());
        assert!(
            pruned.stats.range_pruned > 0,
            "expected the chain alternative pruned: {:?}",
            pruned.stats
        );
        // Here dominance preserves the optimum: the single amp was the
        // best mapping anyway.
        let plain = map_graph(&g, &estimator(), &MapperConfig::default()).expect("maps");
        assert_eq!(pruned.netlist, plain.netlist);
    }

    #[test]
    fn range_prune_with_unknown_bounds_is_a_no_op() {
        let g = fig6_graph();
        let bounds = GraphBounds::unknown(&g);
        let config = MapperConfig { range_prune: true, ..MapperConfig::default() };
        let result = map_with_bounds(&g, &estimator(), &config, Some(&bounds)).expect("maps");
        let plain = map_graph(&g, &estimator(), &MapperConfig::default()).expect("maps");
        assert_eq!(result.netlist, plain.netlist);
        assert_eq!(result.stats.range_pruned, 0);
    }

    #[test]
    fn range_prune_matches_across_strategies() {
        // The pruning table is strategy-independent: exact, guided, and
        // parallel searches see the same pruned alternatives and agree
        // on the result.
        let mut g = SignalFlowGraph::new("two_stage");
        let x = g.add(BlockKind::Input { name: "x".into() });
        let s1 = g.add(BlockKind::Scale { gain: 40.0 });
        let s2 = g.add(BlockKind::Scale { gain: 0.5 });
        let y = g.add(BlockKind::Output { name: "y".into() });
        g.connect(x, s1, 0).expect("wire");
        g.connect(s1, s2, 0).expect("wire");
        g.connect(s2, y, 0).expect("wire");
        let mut bounds = GraphBounds::unknown(&g);
        bounds.blocks[s1.index()] = Some((-0.5, 0.5));
        bounds.blocks[s2.index()] = Some((-0.25, 0.25));

        let exact = MapperConfig { range_prune: true, ..MapperConfig::default() };
        let guided = MapperConfig { range_prune: true, ..MapperConfig::guided() };
        let parallel = MapperConfig { range_prune: true, parallelism: 4, ..MapperConfig::default() };
        let e = map_with_bounds(&g, &estimator(), &exact, Some(&bounds)).expect("maps");
        let u = map_with_bounds(&g, &estimator(), &guided, Some(&bounds)).expect("maps");
        let p = map_with_bounds(&g, &estimator(), &parallel, Some(&bounds)).expect("maps");
        assert_eq!(e.netlist, u.netlist);
        assert_eq!(e.netlist.opamp_count(), p.netlist.opamp_count());
        assert!((e.estimate.area_m2 - p.estimate.area_m2).abs() <= e.estimate.area_m2 * 1e-12);
    }

    #[test]
    fn stats_record_wall_clock() {
        let g = buffer_chain(8);
        let result = map_graph(&g, &estimator(), &MapperConfig::default()).expect("maps");
        // Any real search takes a nonzero number of microseconds...
        // except on very fast hosts; accept zero but require the field
        // to round-trip through Display.
        assert!(result.stats.to_string().contains("visited"));
    }
}
