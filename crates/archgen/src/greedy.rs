//! A greedy mapping heuristic baseline.
//!
//! The paper's conclusion notes that the branch-and-bound's
//! time-complexity "might fail for larger designs" and that ongoing
//! work targets "a more time-affective exploration heuristic". This is
//! that heuristic, used as the comparison baseline in the benchmark
//! harness and as the seed of every anytime search: at each uncovered
//! block take the largest-cover alternative whose spec is achievable
//! (sharing when possible), never backtrack. Its choice rule is its
//! own; the overlap filter, spec table, share lookup and plan update
//! are the branching step's (the private `search` module).

use std::time::Instant;

use vase_budget::BudgetMeter;
use vase_estimate::Estimator;
use vase_library::MatchCache;
use vase_vhif::SignalFlowGraph;

use crate::bnb::MapResult;
use crate::config::{MapStats, MapperConfig};
use crate::error::MapError;
use crate::plan::Plan;
use crate::search::{fits, Best, Branch, SearchCtx};

/// Map `graph` greedily: first (largest) match wins, no backtracking.
///
/// The single greedy pass is linear in the graph, so when
/// `config.budget` trips mid-run the pass still completes — the
/// finished mapping *is* the best incumbent — and the result is merely
/// flagged [`MapStats::budget_exhausted`] so callers see the budget was
/// insufficient even for the heuristic.
///
/// # Errors
///
/// * [`MapError::NoPattern`] when a block has no implementation or
///   every alternative overlaps previous choices;
/// * [`MapError::NoFeasibleMapping`] when the single produced mapping
///   violates the constraints.
pub fn map_graph_greedy(
    graph: &SignalFlowGraph,
    estimator: &Estimator,
    config: &MapperConfig,
) -> Result<MapResult, MapError> {
    let start = Instant::now();
    let meter = BudgetMeter::new(config.effective_budget(), None);
    let cache = MatchCache::build(graph, &config.match_options);
    let ctx = SearchCtx::new(graph, estimator, config, cache, &meter, None);
    let (best, mut stats) = run(&ctx, Some(&meter))?;
    stats.elapsed_us = start.elapsed().as_micros() as u64;
    stats.budget_exhausted = meter.exhausted();
    Ok(MapResult {
        netlist: best.netlist,
        estimate: best.estimate,
        stats,
    })
}

/// The greedy incumbent that seeds an anytime search, built from the
/// search's own context (no second match table or estimate memo) and
/// kept off its budget meter. `None` when greedy finds no feasible
/// mapping.
pub(crate) fn seed(ctx: &SearchCtx) -> Option<Best> {
    run(ctx, None).ok().map(|(best, _)| best)
}

/// The greedy pass over `ctx`, noting one node per decision on `meter`
/// when given.
fn run(ctx: &SearchCtx, meter: Option<&BudgetMeter>) -> Result<(Best, MapStats), MapError> {
    let mut plan = Plan::new(ctx.graph);
    let mut stats = MapStats::default();
    while let Some(cur) = ctx.next_uncovered(&plan) {
        stats.visited_nodes += 1;
        if let Some(meter) = meter {
            let _ = meter.note_node();
        }
        let alternatives = ctx.cache.at(cur);
        let alt = (0..alternatives.len())
            .find(|&i| fits(&plan, &alternatives[i]) && ctx.spec_ok[cur.index()][i])
            .ok_or_else(|| MapError::NoPattern {
                block: format!("{cur} ({})", ctx.graph.kind(cur)),
            })?;
        let share = ctx.share_target(&plan, &alternatives[alt]);
        ctx.apply(&mut plan, cur, Branch { alt, share });
    }
    let (netlist, estimate) = ctx.evaluate(&plan, &mut stats)?;
    Ok((Best::new(&plan, netlist, estimate), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vase_vhif::BlockKind;

    #[test]
    fn greedy_never_beats_bnb() {
        // Build a graph where greedy's local choice is fine but compare
        // anyway — the invariant is greedy_area >= bnb_area.
        let mut g = SignalFlowGraph::new("t");
        let a = g.add(BlockKind::Input { name: "a".into() });
        let b = g.add(BlockKind::Input { name: "b".into() });
        let s1 = g.add(BlockKind::Scale { gain: 0.5 });
        let s2 = g.add(BlockKind::Scale { gain: 0.25 });
        let add = g.add(BlockKind::Add { arity: 2 });
        let y = g.add(BlockKind::Output { name: "y".into() });
        g.connect(a, s1, 0).expect("wire");
        g.connect(b, s2, 0).expect("wire");
        g.connect(s1, add, 0).expect("wire");
        g.connect(s2, add, 1).expect("wire");
        g.connect(add, y, 0).expect("wire");

        let est = Estimator::default();
        let config = MapperConfig::default();
        let greedy = map_graph_greedy(&g, &est, &config).expect("greedy maps");
        let bnb = crate::bnb::map_graph(&g, &est, &config).expect("bnb maps");
        assert!(greedy.estimate.area_m2 >= bnb.estimate.area_m2 * 0.999);
        // Greedy visits exactly one node per placed decision.
        assert!(greedy.stats.visited_nodes <= bnb.stats.visited_nodes);
        greedy.netlist.validate().expect("valid");
    }
}
