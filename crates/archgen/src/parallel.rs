//! Parallel subtree search for the branch-and-bound mapper.
//!
//! The decision tree's top levels are expanded sequentially into a
//! frontier of subtree-root plans (in the same deterministic order the
//! sequential search would first reach them); the frontier entries then
//! become tasks claimed by scoped worker threads. Workers cooperate
//! through [`SharedSearchState`]:
//!
//! * the incumbent best area is published as a bit-ordered `AtomicU64`
//!   (non-negative IEEE doubles compare the same as their bit
//!   patterns), so the bounding rule prunes across workers;
//! * the dominance memo is sharded across mutex-protected hash maps
//!   keyed by the allocation-free [`CoverSet`];
//! * the compute budget (node cap, deadline, cancellation) is a shared
//!   [`vase_budget::BudgetMeter`] owned by the calling context — every
//!   frontier expansion and worker visit notes a node on it, and
//!   exhaustion makes every worker unwind keeping its incumbent.
//!
//! Because a worker only ever *prunes* against the shared bound (the
//! acceptance test for a new best is a strict improvement), the minimum
//! area over all workers equals the sequential optimum; equal-area ties
//! between subtrees are broken by the lowest task index, keeping the
//! reported mapping stable run-to-run.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use vase_vhif::BlockId;

use crate::bnb::Search;
use crate::config::MapStats;
use crate::cover::CoverSet;
use crate::plan::{Plan, Step};
use crate::search::{dominated, Best, Driver, SearchCtx};

/// Subtree tasks to aim for per worker.
const TASKS_PER_WORKER: usize = 4;
/// The frontier split never expands more than this many tree levels.
const MAX_SPLIT_DEPTH: usize = 8;

/// A dominance memo sharded over independently locked hash maps, so
/// concurrent workers rarely contend on the same shard.
pub(crate) struct ShardedMemo {
    shards: Vec<Mutex<HashMap<CoverSet, usize>>>,
    mask: usize,
}

impl ShardedMemo {
    pub(crate) fn new(jobs: usize) -> Self {
        let n = (jobs * 4).next_power_of_two().max(16);
        ShardedMemo {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: n - 1,
        }
    }

    fn shard(&self, key: &CoverSet) -> &Mutex<HashMap<CoverSet, usize>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & self.mask]
    }

    /// Whether reaching `key` with `opamps` op amps is dominated by an
    /// earlier visit (possibly from another worker); records the visit
    /// otherwise.
    pub(crate) fn dominated(&self, key: &CoverSet, opamps: usize) -> bool {
        let mut map = self
            .shard(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        dominated(&mut map, key, opamps)
    }
}

/// State shared by all workers of one parallel `map_graph` call.
pub(crate) struct SharedSearchState {
    /// Bits of the best feasible area found by any worker
    /// (`f64::INFINITY.to_bits()` until one exists).
    pub(crate) best_area: AtomicU64,
    /// The cross-worker dominance memo.
    pub(crate) memo: ShardedMemo,
}

impl SharedSearchState {
    fn new(jobs: usize) -> Self {
        SharedSearchState {
            best_area: AtomicU64::new(f64::INFINITY.to_bits()),
            memo: ShardedMemo::new(jobs),
        }
    }
}

/// Search the decision tree of `ctx` with `jobs` worker threads.
///
/// `seed` (the greedy incumbent under a limited budget) both tightens
/// the shared bound from the start and acts as the fallback result when
/// the budget trips before any worker completes a better mapping.
pub(crate) fn run_parallel(
    ctx: &SearchCtx<'_>,
    jobs: usize,
    seed: Option<Best>,
) -> (Option<Best>, MapStats) {
    let mut stats = MapStats::default();
    let tasks = expand_frontier(ctx, jobs, &mut stats);
    if tasks.is_empty() {
        return (seed, stats);
    }
    let shared = SharedSearchState::new(jobs);
    if let Some(s) = &seed {
        shared.best_area.fetch_min(s.area.to_bits(), Ordering::Relaxed);
    }
    let next = AtomicUsize::new(0);
    let workers = jobs.min(tasks.len());
    let per_task = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(task) = tasks.get(i) else { break };
                        // A fresh search per task keeps per-task bests
                        // (for the deterministic tie-break below); the
                        // memo and bound still persist via `shared`.
                        let mut search = Search::new(ctx, Some(&shared));
                        search.run(task.clone());
                        out.push((i, search.best, search.stats));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("mapper worker panicked"))
            .collect::<Vec<_>>()
    });
    let mut best: Option<(usize, Best)> = None;
    for (i, task_best, task_stats) in per_task {
        stats.merge(&task_stats);
        let Some(b) = task_best else { continue };
        let replace = match &best {
            None => true,
            // Minimum area wins; equal areas go to the earliest
            // subtree in frontier (= sequential DFS) order, so the
            // returned netlist does not depend on worker scheduling.
            Some((bi, cur)) => b.area < cur.area || (b.area == cur.area && i < *bi),
        };
        if replace {
            best = Some((i, b));
        }
    }
    // The seed wins ties: it existed before any worker ran, so the
    // result does not depend on worker scheduling.
    let best = match (best.map(|(_, b)| b), seed) {
        (Some(b), Some(s)) => Some(if b.area < s.area { b } else { s }),
        (b, s) => b.or(s),
    };
    (best, stats)
}

/// Expand the top of the decision tree breadth-first into subtree-root
/// plans, preserving the order the sequential search would first reach
/// them: levels are expanded until there are about
/// [`TASKS_PER_WORKER`] tasks per worker, at most [`MAX_SPLIT_DEPTH`]
/// levels deep.
///
/// Expansion runs the shared branching step with no bound and no memo
/// (both need search state that does not exist yet); each expanded node
/// is counted in `stats` exactly as the sequential search would count
/// it.
fn expand_frontier(ctx: &SearchCtx<'_>, jobs: usize, stats: &mut MapStats) -> Vec<Plan> {
    let mut frontier = vec![Plan::new(ctx.graph)];
    for _ in 0..MAX_SPLIT_DEPTH {
        if frontier.len() >= jobs * TASKS_PER_WORKER {
            break;
        }
        let mut split = Split { ctx, out: Vec::new(), stats: &mut *stats };
        let mut expanded_any = false;
        for plan in frontier {
            // A complete mapping stays its own task (the worker
            // evaluates it as a leaf). Once the budget is exhausted the
            // plan stays an unexpanded task: the workers observe the
            // tripped meter and return without searching it.
            match ctx.next_uncovered(&plan) {
                Some(cur) if ctx.note_visit(split.stats) => {
                    expanded_any = true;
                    ctx.branch(&plan, cur, &mut split);
                }
                _ => split.out.push(plan),
            }
        }
        frontier = split.out;
        if !expanded_any {
            break;
        }
    }
    frontier
}

/// The frontier split as a [`Driver`]: every child becomes a task, and
/// nothing is bounded (no incumbent exists yet).
struct Split<'s> {
    ctx: &'s SearchCtx<'s>,
    out: Vec<Plan>,
    stats: &'s mut MapStats,
}

impl Driver for Split<'_> {
    fn stats(&mut self) -> &mut MapStats {
        self.stats
    }

    fn bounded(&mut self, _plan: &Plan, _cur: BlockId, _alt: usize) -> bool {
        false
    }

    fn child(&mut self, plan: &Plan, step: Step) {
        self.out.push(plan.child(&self.ctx.cache, step));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MapperConfig;
    use vase_budget::BudgetMeter;
    use vase_estimate::Estimator;
    use vase_library::MatchCache;
    use vase_vhif::{BlockKind, SignalFlowGraph};

    fn chain(n: usize) -> SignalFlowGraph {
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
    fn sharded_memo_tracks_dominance() {
        let memo = ShardedMemo::new(4);
        let mut key = CoverSet::with_len(20);
        key.set(3);
        assert!(!memo.dominated(&key, 5), "first visit is never dominated");
        assert!(memo.dominated(&key, 5), "equal cost is dominated");
        assert!(memo.dominated(&key, 7), "worse cost is dominated");
        assert!(!memo.dominated(&key, 2), "better cost replaces the entry");
        assert!(memo.dominated(&key, 3));
    }

    #[test]
    fn best_area_bits_order_like_floats() {
        // The cross-worker bound relies on non-negative doubles
        // bit-comparing in value order.
        let areas = [0.0f64, 1e-9, 2.5e-6, 1.0, 1e12, f64::INFINITY];
        for w in areas.windows(2) {
            assert!(w[0].to_bits() < w[1].to_bits(), "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn frontier_expansion_yields_multiple_ordered_tasks() {
        let g = chain(8);
        let estimator = Estimator::default();
        let config = MapperConfig {
            parallelism: 4,
            ..MapperConfig::default()
        };
        let cache = MatchCache::build(&g, &config.match_options);
        let meter = BudgetMeter::new(config.effective_budget(), None);
        let ctx = SearchCtx::new(&g, &estimator, &config, cache, &meter, None);
        let mut stats = MapStats::default();
        let tasks = expand_frontier(&ctx, 4, &mut stats);
        assert!(tasks.len() > 1, "a chain must split into several subtrees");
        assert!(stats.visited_nodes > 0, "expansion counts visited nodes");
        // Every task is a coherent partial plan: covered count matches
        // at least the interface blocks.
        for task in &tasks {
            assert!(task.covered.count() >= 2);
        }
    }

    #[test]
    fn run_parallel_agrees_with_sequential_search() {
        let g = chain(9);
        let estimator = Estimator::default();
        let seq_config = MapperConfig::default();
        let cache = MatchCache::build(&g, &seq_config.match_options);
        let seq_meter = BudgetMeter::new(seq_config.effective_budget(), None);
        let seq_ctx = SearchCtx::new(&g, &estimator, &seq_config, cache, &seq_meter, None);
        let mut seq = Search::new(&seq_ctx, None);
        seq.run(Plan::new(&g));
        let seq_best = seq.best.expect("sequential finds a mapping");

        let par_config = MapperConfig {
            parallelism: 4,
            ..MapperConfig::default()
        };
        let cache = MatchCache::build(&g, &par_config.match_options);
        let par_meter = BudgetMeter::new(par_config.effective_budget(), None);
        let par_ctx = SearchCtx::new(&g, &estimator, &par_config, cache, &par_meter, None);
        let (par_best, par_stats) = run_parallel(&par_ctx, 4, None);
        let par_best = par_best.expect("parallel finds a mapping");
        assert!((par_best.area - seq_best.area).abs() <= seq_best.area * 1e-12);
        assert!(par_stats.visited_nodes > 0);
        assert!(par_stats.complete_mappings > 0);
    }
}
