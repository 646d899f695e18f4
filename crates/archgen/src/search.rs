//! The search core every mapping driver shares (paper Fig. 5).
//!
//! [`SearchCtx`] holds what one mapping call precomputes (match table,
//! per-alternative spec feasibility and area, range-prune table,
//! coverage order) and the one **branching step**,
//! [`SearchCtx::branch`]: alternatives in sequencing order, the overlap
//! filter, **share** before **allocate**, and the spec, range-prune and
//! driver-bound filters on allocations; [`SearchCtx::apply`] turns a
//! [`Branch`] into a plan. Next to it live the one dominance memo
//! ([`MemoBackend`]) and the one leaf evaluation
//! ([`SearchCtx::evaluate`]). The exact DFS ([`crate::bnb`]), guided
//! search ([`crate::guide`]), parallel split ([`crate::parallel`]) and
//! greedy heuristic ([`crate::greedy`], own choice rule) keep only
//! their frontier order, bound and leaf tie-break.

use std::collections::HashMap;

use vase_budget::BudgetMeter;
use vase_estimate::{EstimateMemo, Estimator, NetlistEstimate};
use vase_library::{MatchCache, Netlist, PatternMatch};
use vase_vhif::{BlockId, GraphBounds, SignalFlowGraph};

use crate::config::{MapStats, MapperConfig};
use crate::cover::CoverSet;
use crate::error::MapError;
use crate::parallel::ShardedMemo;
use crate::plan::{resolve, Plan, PlannedComponent};

/// One child of the branching step: alternative `alt` of the block
/// being covered, either shared onto the planned component `share`
/// (hardware sharing across signal paths) or, when `None`, allocated as
/// a dedicated component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Branch {
    pub(crate) alt: usize,
    pub(crate) share: Option<usize>,
}

/// What a driver plugs into the branching step: its counters, its
/// bounding rule, and what it does with each surviving child.
pub(crate) trait Driver {
    /// The counters the step records its spec, range and bound prunes in.
    fn stats(&mut self) -> &mut MapStats;
    /// Whether the driver's bound prunes allocating alternative `alt`
    /// at `cur` on top of `plan`.
    fn bounded(&mut self, plan: &Plan, cur: BlockId, alt: usize) -> bool;
    /// Take one child of `plan`; `rank` is the branch's position in the
    /// step's visit order at `cur`.
    fn child(&mut self, plan: &Plan, cur: BlockId, rank: usize, branch: Branch);
}

/// The best complete mapping found by one search (or worker).
pub(crate) struct Best {
    pub(crate) area: f64,
    pub(crate) netlist: Netlist,
    pub(crate) estimate: NetlistEstimate,
    /// The winning plan's components, for cover-cache insertion.
    pub(crate) components: Vec<PlannedComponent>,
    /// The winning plan's op-amp count (matches `components`).
    pub(crate) opamps: usize,
}

impl Best {
    pub(crate) fn new(plan: &Plan, netlist: Netlist, estimate: NetlistEstimate) -> Self {
        Best {
            area: estimate.area_m2,
            netlist,
            estimate,
            components: plan.components.clone(),
            opamps: plan.opamps,
        }
    }
}

/// Immutable, thread-shareable context of one mapping call: the graph,
/// the precomputed match table and per-alternative spec feasibility,
/// the block coverage order, and the bound constant.
pub(crate) struct SearchCtx<'a> {
    pub(crate) graph: &'a SignalFlowGraph,
    estimator: &'a Estimator,
    pub(crate) config: &'a MapperConfig,
    pub(crate) cache: MatchCache,
    /// `spec_ok[block][alternative]`: whether the matched component's
    /// op-amp spec is achievable at all (computed once, not per node).
    pub(crate) spec_ok: Vec<Vec<bool>>,
    /// `alt_area[block][alternative]`: the matched component's
    /// estimated area. The guided search accumulates these as its
    /// admissible placed-area bound; computed alongside `spec_ok` from
    /// the same (memoized) estimates, so the search itself never calls
    /// the estimator per node.
    pub(crate) alt_area: Vec<Vec<f64>>,
    /// `range_pruned[block][alternative]`: whether a proven value bound
    /// showed the alternative dominated at the proven swing (see
    /// [`range_prune_table`]). `None` unless `config.range_prune` is
    /// set *and* bounds were supplied, so the default path allocates
    /// and checks nothing.
    range_pruned: Option<Vec<Vec<bool>>>,
    order: Vec<BlockId>,
    pub(crate) min_area: f64,
    /// The shared budget meter; every decision-tree visit notes a node
    /// here, and exhaustion unwinds the search keeping its incumbent.
    meter: &'a BudgetMeter,
}

impl<'a> SearchCtx<'a> {
    pub(crate) fn new(
        graph: &'a SignalFlowGraph,
        estimator: &'a Estimator,
        config: &'a MapperConfig,
        cache: MatchCache,
        meter: &'a BudgetMeter,
        bounds: Option<&GraphBounds>,
    ) -> Self {
        // One estimator run per *distinct* kind: alternatives repeat
        // kinds heavily (every Scale block matches the same follower /
        // inverting-amp shapes), so the memo collapses the square-law
        // sizing work while staying bitwise identical to fresh calls.
        let mut memo = EstimateMemo::new();
        let mut spec_ok = Vec::with_capacity(graph.len());
        let mut alt_area = Vec::with_capacity(graph.len());
        for i in 0..graph.len() {
            let alternatives = cache.at(BlockId::from_index(i));
            let mut ok = Vec::with_capacity(alternatives.len());
            let mut area = Vec::with_capacity(alternatives.len());
            for m in alternatives {
                let e = memo.estimate(estimator, &m.kind);
                ok.push(e.spec_met);
                area.push(e.area_m2);
            }
            spec_ok.push(ok);
            alt_area.push(area);
        }
        let range_pruned = bounds
            .filter(|_| config.range_prune)
            .map(|b| range_prune_table(graph, &cache, estimator, &spec_ok, &alt_area, b));
        SearchCtx {
            graph,
            estimator,
            config,
            cache,
            spec_ok,
            alt_area,
            range_pruned,
            order: coverage_order(graph),
            min_area: estimator.min_opamp_area(),
            meter,
        }
    }

    /// The next block the branching rule expands, in coverage order.
    pub(crate) fn next_uncovered(&self, plan: &Plan) -> Option<BlockId> {
        self.order.iter().copied().find(|&b| !plan.is_covered(b))
    }

    /// Note one decision-tree visit on the budget meter: `false` (and
    /// `stats.budget_exhausted` set) once the budget has tripped.
    pub(crate) fn note_visit(&self, stats: &mut MapStats) -> bool {
        if !self.meter.note_node() {
            stats.budget_exhausted = true;
            return false;
        }
        stats.visited_nodes += 1;
        true
    }

    /// The Fig. 5 branching step at `cur`, the next uncovered block of
    /// `plan`: hand `driver` every legal child in sequencing order, the
    /// share branch of an alternative before its allocate branch.
    pub(crate) fn branch(&self, plan: &Plan, cur: BlockId, driver: &mut impl Driver) {
        let alternatives = self.cache.at(cur);
        for rank in 0..alternatives.len() {
            // The cache stores alternatives largest-cover-first (the
            // sequencing rule); the ablation visits them smallest-first.
            let alt = if self.config.sequencing {
                rank
            } else {
                alternatives.len() - 1 - rank
            };
            let m = &alternatives[alt];
            if !fits(plan, m) {
                continue;
            }
            // Share branch first (sequencing rule: sharing before
            // allocation).
            if let share @ Some(_) = self.share_target(plan, m) {
                driver.child(plan, cur, rank, Branch { alt, share });
            }
            // Allocate branch. A component whose op-amp spec no library
            // topology can meet (e.g. a gain-200 amplifier over a wide
            // band) can never appear in a feasible netlist — reject it
            // locally so the functional-transformation alternatives
            // (gain-split chains) are explored instead.
            if !self.spec_ok[cur.index()][alt] {
                driver.stats().pruned_nodes += 1;
                continue;
            }
            // Swing-aware dominance: a proven value bound showed a
            // same-cover alternative that suffices at the proven swing
            // for no more area. Sharing is unaffected (it allocates
            // nothing), so only the allocate branch is skipped.
            if self.is_range_pruned(cur, alt) {
                driver.stats().range_pruned += 1;
                continue;
            }
            if driver.bounded(plan, cur, alt) {
                driver.stats().pruned_nodes += 1;
                continue;
            }
            driver.child(plan, cur, rank, Branch { alt, share: None });
        }
    }

    /// The planned component alternative `m` can share, when sharing is
    /// on and one with the same kind and inputs exists.
    pub(crate) fn share_target(&self, plan: &Plan, m: &PatternMatch) -> Option<usize> {
        if !self.config.sharing {
            return None;
        }
        plan.find_shareable(&m.kind, &m.inputs)
    }

    /// Extend `plan` by `branch` at `cur`.
    pub(crate) fn apply(&self, plan: &mut Plan, cur: BlockId, branch: Branch) {
        let m = &self.cache.at(cur)[branch.alt];
        for &b in &m.covered {
            plan.cover(b);
        }
        match branch.share {
            Some(onto) => plan.components[onto].covered.extend_from_slice(&m.covered),
            None => {
                plan.opamps += m.kind.opamp_count();
                plan.components.push(PlannedComponent {
                    kind: m.kind.clone(),
                    covered: m.covered.clone(),
                    inputs: m.inputs.clone(),
                    output: cur,
                });
            }
        }
    }

    /// A copy of `plan` extended by `branch` at `cur`.
    pub(crate) fn child(&self, plan: &Plan, cur: BlockId, branch: Branch) -> Plan {
        let mut child = plan.clone();
        self.apply(&mut child, cur, branch);
        child
    }

    /// The leaf evaluation: resolve a complete plan, estimate it, and
    /// check the constraints, counting the mapping in
    /// `stats.complete_mappings` (and `infeasible_mappings` when it
    /// violates them).
    pub(crate) fn evaluate(
        &self,
        plan: &Plan,
        stats: &mut MapStats,
    ) -> Result<(Netlist, NetlistEstimate), MapError> {
        stats.complete_mappings += 1;
        let netlist = resolve(self.graph, plan, self.config.fanout_limit)?;
        let estimate = self.estimator.estimate_netlist(&netlist);
        if !estimate.feasible() {
            stats.infeasible_mappings += 1;
            return Err(MapError::NoFeasibleMapping);
        }
        Ok((netlist, estimate))
    }

    /// Whether the swing-aware dominance table marked this alternative
    /// pruned (always false when range pruning is off).
    fn is_range_pruned(&self, block: BlockId, alt: usize) -> bool {
        self.range_pruned
            .as_ref()
            .is_some_and(|t| t[block.index()][alt])
    }
}

/// The overlap filter: whether `m` covers only blocks `plan` has not
/// covered yet.
pub(crate) fn fits(plan: &Plan, m: &PatternMatch) -> bool {
    !m.covered.iter().any(|&b| plan.is_covered(b))
}

/// Dominance-memo storage: disabled, owned by one search, or shared
/// across parallel workers.
pub(crate) enum MemoBackend<'a> {
    Off,
    Local(HashMap<CoverSet, usize>),
    Shared(&'a ShardedMemo),
}

impl<'a> MemoBackend<'a> {
    /// The memo a search under `config` keeps: none without
    /// `config.memoize`, else `shared` or a map of its own.
    pub(crate) fn new(config: &MapperConfig, shared: Option<&'a ShardedMemo>) -> Self {
        if !config.memoize {
            return MemoBackend::Off;
        }
        shared.map_or_else(|| MemoBackend::Local(HashMap::new()), MemoBackend::Shared)
    }

    /// Whether an earlier visit dominates `plan` (counted in
    /// `stats.memo_pruned`); records the visit otherwise.
    pub(crate) fn prunes(&mut self, plan: &Plan, stats: &mut MapStats) -> bool {
        let dominated = match self {
            MemoBackend::Off => false,
            MemoBackend::Local(map) => dominated(map, &plan.covered, plan.opamps),
            MemoBackend::Shared(memo) => memo.dominated(&plan.covered, plan.opamps),
        };
        if dominated {
            stats.memo_pruned += 1;
        }
        dominated
    }
}

/// The dominance rule: a cover set reached before with as few or fewer
/// op amps dominates this visit; otherwise the visit is recorded.
pub(crate) fn dominated(map: &mut HashMap<CoverSet, usize>, key: &CoverSet, opamps: usize) -> bool {
    match map.get_mut(key) {
        Some(best) if *best <= opamps => true,
        Some(best) => {
            *best = opamps;
            false
        }
        None => {
            map.insert(key.clone(), opamps);
            false
        }
    }
}

/// The order in which uncovered blocks are picked: depth-first from the
/// external outputs back through the drivers (the paper's "select an
/// input signal of sub-graph" walk), followed by any remaining
/// operation blocks (e.g. comparator networks feeding only control
/// ports).
fn coverage_order(graph: &SignalFlowGraph) -> Vec<BlockId> {
    let mut order = Vec::new();
    let mut seen = vec![false; graph.len()];
    let mut stack: Vec<BlockId> = graph.outputs();
    while let Some(b) = stack.pop() {
        if seen[b.index()] {
            continue;
        }
        seen[b.index()] = true;
        if !graph.block(b).kind.is_interface() {
            order.push(b);
        }
        for driver in graph.block_inputs(b).iter().flatten() {
            stack.push(*driver);
        }
    }
    for (id, block) in graph.iter() {
        if !seen[id.index()] && !block.kind.is_interface() {
            order.push(id);
            seen[id.index()] = true;
        }
    }
    order
}

/// Build the swing-aware dominance table for `range_prune`.
///
/// At a block whose output value the range analysis proved to lie in
/// `[lo, hi]`, the real swing the placed component must deliver is
/// `swing = max(|lo|, |hi|)` — possibly far below the full
/// `signal_peak_v · gain` the default sizing assumes. Alternative `j`
/// is marked pruned iff:
///
/// * its default sizing carries headroom beyond the proof
///   (`signal_peak_v · gain_j > swing`), and
/// * some other alternative `i` at the same block covers exactly the
///   same blocks with the same inputs, is feasible under the *global*
///   spec (so keeping only `i` can never turn a feasible mapping
///   infeasible at the final netlist check), meets the spec when sized
///   at the proven swing, and needs no more op amps and no more area
///   than `j` under *both* sizings — the default full-swing estimate
///   the search's cost function uses, and the proven-swing estimate —
///   with ties broken towards the lower index so two equal
///   alternatives never prune each other.
///
/// Requiring dominance under both sizings keeps the table sound in
/// either ordering: the retained `i` is no worse in the area the
/// search actually minimises, *and* no worse at the proven operating
/// point (lowering the swing relaxes only the slew requirement — see
/// [`Estimator::estimate_component_at_swing`] — which shifts bias
/// currents, so the two orderings can differ). The table is still a
/// heuristic with respect to global area optimality (a pruned
/// alternative could have enabled sharing elsewhere), which is why the
/// whole mechanism is opt-in and off by default.
fn range_prune_table(
    graph: &SignalFlowGraph,
    cache: &MatchCache,
    estimator: &Estimator,
    spec_ok: &[Vec<bool>],
    alt_area: &[Vec<f64>],
    bounds: &GraphBounds,
) -> Vec<Vec<bool>> {
    let peak = estimator.constraints.signal_peak_v;
    let mut table = Vec::with_capacity(graph.len());
    for bi in 0..graph.len() {
        let id = BlockId::from_index(bi);
        let alternatives = cache.at(id);
        let mut row = vec![false; alternatives.len()];
        let swing = match bounds.get(id) {
            Some((lo, hi)) => lo.abs().max(hi.abs()),
            None => {
                table.push(row);
                continue;
            }
        };
        if !swing.is_finite() {
            table.push(row);
            continue;
        }
        // Size every alternative for the swing it actually needs: the
        // proven bound, capped at its own full-signal swing (sizing
        // beyond the default would be needlessly conservative).
        let at_swing: Vec<_> = alternatives
            .iter()
            .map(|m| {
                let full = peak * m.kind.max_gain().max(1.0);
                estimator.estimate_component_at_swing(&m.kind, swing.min(full))
            })
            .collect();
        for j in 0..alternatives.len() {
            let mj = &alternatives[j];
            // Only candidates whose default sizing exceeds the proven
            // range are ever pruned.
            if peak * mj.kind.max_gain().max(1.0) <= swing {
                continue;
            }
            row[j] = (0..alternatives.len()).any(|i| {
                i != j
                    && spec_ok[bi][i]
                    && at_swing[i].spec_met
                    && alternatives[i].kind.opamp_count() <= mj.kind.opamp_count()
                    && same_cover_and_inputs(&alternatives[i], mj)
                    && alt_area[bi][i] <= alt_area[bi][j]
                    && (at_swing[i].area_m2 < at_swing[j].area_m2
                        || (at_swing[i].area_m2 == at_swing[j].area_m2 && i < j))
            });
        }
        table.push(row);
    }
    table
}

/// Whether two alternatives implement the same cover from the same
/// inputs (input order is semantic — it is the component's wiring — so
/// it must match exactly; the covered set is order-insensitive).
fn same_cover_and_inputs(a: &PatternMatch, b: &PatternMatch) -> bool {
    if a.inputs != b.inputs || a.covered.len() != b.covered.len() {
        return false;
    }
    let mut ca: Vec<usize> = a.covered.iter().map(|b| b.index()).collect();
    let mut cb: Vec<usize> = b.covered.iter().map(|b| b.index()).collect();
    ca.sort_unstable();
    cb.sort_unstable();
    ca == cb
}
