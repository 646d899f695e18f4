//! Partial mappings as lists of decisions, and the resolution of
//! planned components into a concrete [`Netlist`].
//!
//! The search holds a partial mapping as a crate-private `Plan`: one
//! small `Copy` `Step` per decision (the block, the index of the chosen
//! alternative in the mapping call's match table, and whether it
//! allocates a component or shares onto an allocated one), the covered
//! blocks as a [`CoverSet`], and the running op-amp count. Extending a
//! plan copies one flat vector; no component kind, covered-block list
//! or input list is copied. [`PlannedComponent`]s are built from the
//! steps only where a mapping is resolved: at a complete leaf, and in
//! the cover cache, which stores and replays components directly.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use vase_library::{ComponentKind, MatchCache, Netlist, PatternMatch, PlacedComponent, SourceRef};
use vase_vhif::{BlockId, BlockKind, SignalFlowGraph};

use crate::cover::CoverSet;
use crate::error::MapError;

/// One component planned during the search; inputs still refer to VHIF
/// blocks (the producing components may not exist yet).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedComponent {
    /// The library circuit.
    pub kind: ComponentKind,
    /// Covered blocks.
    pub covered: Vec<BlockId>,
    /// Driver blocks (outside the cover), in component port order.
    pub inputs: Vec<BlockId>,
    /// The covered block whose output leaves the cover (the
    /// component's output net).
    pub output: BlockId,
}

/// One decision of a partial mapping: alternative `alt` of the match
/// table at `block`, allocated as a dedicated component (`share:
/// None`) or shared onto the `share`-th allocated component (hardware
/// sharing across signal paths). Indices are `u32` like [`BlockId`]: a
/// graph has at most `u32::MAX` blocks, so at most as many components,
/// and a block's alternatives number far fewer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Step {
    /// The block the decision covers; the component's output net.
    pub(crate) block: BlockId,
    /// Index into the match table's alternatives at `block`.
    pub(crate) alt: u32,
    /// The allocated component this alternative shares onto, counted
    /// in allocation order; `None` allocates.
    pub(crate) share: Option<u32>,
}

impl Step {
    /// The match-table alternative this step takes.
    pub(crate) fn alternative<'c>(&self, cache: &'c MatchCache) -> &'c PatternMatch {
        &cache.at(self.block)[self.alt as usize]
    }
}

/// A (partial) mapping of a signal-flow graph.
#[derive(Debug, Clone)]
pub(crate) struct Plan {
    /// The decisions taken so far, in search order.
    pub(crate) steps: Vec<Step>,
    /// The set of covered blocks (by index). Stored as an inline
    /// bitset so cloning it as a dominance-memo key on the search hot
    /// path is allocation-free.
    pub(crate) covered: CoverSet,
    /// Running op-amp count (the sequencing rule's area proxy).
    pub(crate) opamps: usize,
}

impl Plan {
    /// An empty plan for `graph`: interface blocks are pre-covered
    /// (see [`interface_cover`]).
    pub(crate) fn new(graph: &SignalFlowGraph) -> Self {
        Plan {
            steps: Vec::new(),
            covered: interface_cover(graph),
            opamps: 0,
        }
    }

    /// Whether `block` is covered.
    pub(crate) fn is_covered(&self, block: BlockId) -> bool {
        self.covered.get(block.index())
    }

    /// A copy of this plan extended by `step`, whose alternative in
    /// `cache` covers only blocks this plan has not covered: one
    /// vector of steps, sized for the new step.
    pub(crate) fn child(&self, cache: &MatchCache, step: Step) -> Plan {
        let mut steps = Vec::with_capacity(self.steps.len() + 1);
        steps.extend_from_slice(&self.steps);
        let mut child = Plan {
            steps,
            covered: self.covered.clone(),
            opamps: self.opamps,
        };
        child.push(cache, step);
        child
    }

    /// Extend this plan by `step`.
    pub(crate) fn push(&mut self, cache: &MatchCache, step: Step) {
        let m = step.alternative(cache);
        for &b in &m.covered {
            self.covered.set(b.index());
        }
        if step.share.is_none() {
            self.opamps += m.kind.opamp_count();
        }
        self.steps.push(step);
    }

    /// The allocating steps, in allocation order: the `k`-th is the
    /// component a step with `share: Some(k)` shares onto.
    pub(crate) fn allocations(&self) -> impl Iterator<Item = &Step> {
        self.steps.iter().filter(|s| s.share.is_none())
    }

    /// The planned components the steps describe, in allocation order:
    /// each allocating step places its alternative's component with
    /// the step's block as output, and each sharing step appends its
    /// covered blocks to the component it shares onto.
    pub(crate) fn components(&self, cache: &MatchCache) -> Vec<PlannedComponent> {
        let mut components: Vec<PlannedComponent> = Vec::new();
        for step in &self.steps {
            let m = step.alternative(cache);
            match step.share {
                Some(onto) => components[onto as usize].covered.extend_from_slice(&m.covered),
                None => components.push(PlannedComponent {
                    kind: m.kind.clone(),
                    covered: m.covered.clone(),
                    inputs: m.inputs.clone(),
                    output: step.block,
                }),
            }
        }
        components
    }
}

/// The blocks covered before any decision: the interface blocks
/// (external nets, not hardware).
pub(crate) fn interface_cover(graph: &SignalFlowGraph) -> CoverSet {
    let mut covered = CoverSet::with_len(graph.len());
    for (id, b) in graph.iter() {
        if b.kind.is_interface() {
            covered.set(id.index());
        }
    }
    covered
}

/// Resolve the components of a complete mapping into a [`Netlist`],
/// inserting followers where a component output drives more than
/// `fanout_limit` consumers (the paper's interfacing transformation
/// for loading effects).
///
/// # Errors
///
/// Fails if a referenced driver block has no producer (incomplete or
/// inconsistent components).
pub fn resolve(
    graph: &SignalFlowGraph,
    components: &[PlannedComponent],
    fanout_limit: usize,
) -> Result<Netlist, MapError> {
    let mut netlist = Netlist::new();
    // Place components in plan order; record output-block → index.
    let mut producer: HashMap<BlockId, usize> = HashMap::new();
    for planned in components {
        let index = netlist.push(PlacedComponent {
            kind: planned.kind.clone(),
            inputs: Vec::new(), // filled below
            implements: planned.covered.clone(),
            label: component_label(graph, planned),
        });
        // Every covered block's value is available at this component's
        // output: a shared component serves all the blocks it covers.
        for &b in &planned.covered {
            producer.insert(b, index);
        }
        producer.insert(planned.output, index);
    }
    // Resolve inputs.
    for (index, planned) in components.iter().enumerate() {
        let mut inputs = Vec::with_capacity(planned.inputs.len());
        for &driver in &planned.inputs {
            inputs.push(source_for(graph, &producer, driver)?);
        }
        netlist.components[index].inputs = inputs;
    }
    // External outputs.
    for out in graph.outputs() {
        let BlockKind::Output { name } = graph.kind(out) else {
            unreachable!()
        };
        let driver = graph.block_inputs(out)[0].ok_or(MapError::Incomplete {
            what: format!("output `{name}` has no driver"),
        })?;
        let source = source_for(graph, &producer, driver)?;
        netlist.outputs.push((name.clone(), source));
    }
    insert_followers(&mut netlist, fanout_limit);
    Ok(netlist)
}

fn component_label(graph: &SignalFlowGraph, planned: &PlannedComponent) -> String {
    planned
        .covered
        .iter()
        .find_map(|&b| graph.block(b).label.clone())
        .unwrap_or_else(|| format!("{}@{}", planned.kind.report_category(), planned.output))
}

fn source_for(
    graph: &SignalFlowGraph,
    producer: &HashMap<BlockId, usize>,
    driver: BlockId,
) -> Result<SourceRef, MapError> {
    match graph.kind(driver) {
        BlockKind::Input { name } | BlockKind::ControlInput { name } => {
            Ok(SourceRef::External(name.clone()))
        }
        _ => match producer.get(&driver) {
            Some(&i) => Ok(SourceRef::Component(i)),
            None => Err(MapError::Incomplete {
                what: format!(
                    "block {driver} ({}) has no producing component",
                    graph.kind(driver)
                ),
            }),
        },
    }
}

/// Insert unity-gain followers on overloaded outputs: a follower is a
/// buffer designed to drive heavy loads, so consumers beyond the limit
/// are moved behind it (the driving component then sees `fanout_limit`
/// loads at most, one of which is the follower's high-impedance input).
fn insert_followers(netlist: &mut Netlist, fanout_limit: usize) {
    if fanout_limit == 0 {
        return;
    }
    let n = netlist.components.len();
    for i in 0..n {
        // Followers buffer analog nets; skip control-class producers
        // (and followers themselves — they are the buffers).
        if matches!(
            netlist.components[i].kind,
            ComponentKind::Follower
                | ComponentKind::ZeroCrossDetector { .. }
                | ComponentKind::SchmittTrigger { .. }
                | ComponentKind::Comparator { .. }
                | ComponentKind::LogicGate
                | ComponentKind::Adc { .. }
        ) {
            continue;
        }
        if netlist.fanout(i) <= fanout_limit {
            continue;
        }
        let follower = netlist.push(PlacedComponent {
            kind: ComponentKind::Follower,
            inputs: vec![SourceRef::Component(i)],
            implements: vec![],
            label: format!("buffer_c{i}"),
        });
        // Keep `fanout_limit - 1` direct consumers (plus the follower);
        // everything else moves behind the buffer.
        let mut direct_budget = fanout_limit.saturating_sub(1);
        for (ci, c) in netlist.components.iter_mut().enumerate() {
            if ci == follower {
                continue;
            }
            for input in c.inputs.iter_mut() {
                if matches!(input, SourceRef::Component(j) if *j == i) {
                    if direct_budget > 0 {
                        direct_budget -= 1;
                    } else {
                        *input = SourceRef::Component(follower);
                    }
                }
            }
        }
        for (_, s) in netlist.outputs.iter_mut() {
            if matches!(s, SourceRef::Component(j) if *j == i) {
                if direct_budget > 0 {
                    direct_budget -= 1;
                } else {
                    *s = SourceRef::Component(follower);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vase_library::MatchOptions;

    fn chain_graph() -> (SignalFlowGraph, BlockId, BlockId) {
        let mut g = SignalFlowGraph::new("t");
        let x = g.add(BlockKind::Input { name: "x".into() });
        let s = g.add(BlockKind::Scale { gain: -2.0 });
        let y = g.add(BlockKind::Output { name: "y".into() });
        g.connect(x, s, 0).expect("wire");
        g.connect(s, y, 0).expect("wire");
        (g, x, s)
    }

    #[test]
    fn new_plan_pre_covers_interfaces() {
        let (g, _, s) = chain_graph();
        let plan = Plan::new(&g);
        assert!(!plan.covered.is_full());
        assert!(!plan.is_covered(s));
        // inputs/outputs are pre-covered
        assert_eq!(plan.covered.count(), 2);
    }

    #[test]
    fn steps_build_allocated_and_shared_components() {
        // Two identical 2·x scalers: the first allocates, the second
        // shares onto it and joins its covered blocks.
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
        let cache = MatchCache::build(&g, &MatchOptions::default());
        let root = Plan::new(&g);
        let one = root.child(&cache, Step { block: s1, alt: 0, share: None });
        let both = one.child(&cache, Step { block: s2, alt: 0, share: Some(0) });
        assert!(root.steps.is_empty(), "a child leaves its parent untouched");
        assert_eq!(one.opamps, cache.at(s1)[0].kind.opamp_count());
        assert_eq!(both.opamps, one.opamps, "sharing places no op amp");
        assert!(both.covered.is_full());
        assert_eq!(both.allocations().count(), 1);
        let components = both.components(&cache);
        assert_eq!(
            components,
            vec![PlannedComponent {
                kind: cache.at(s1)[0].kind.clone(),
                covered: vec![s1, s2],
                inputs: vec![x],
                output: s1,
            }]
        );
        let netlist = resolve(&g, &components, 3).expect("resolves");
        assert_eq!(netlist.components.len(), 1);
        assert_eq!(
            netlist.outputs,
            vec![
                ("y1".into(), SourceRef::Component(0)),
                ("y2".into(), SourceRef::Component(0)),
            ]
        );
    }

    #[test]
    fn sharing_query_matches_kind_and_inputs() {
        // x feeds 2·x twice and 3·x once: once the first 2·x is
        // allocated, the second can share it and 3·x cannot. The query
        // compares kind and inputs through the match table.
        use crate::config::MapperConfig;
        use crate::search::SearchCtx;
        use vase_budget::BudgetMeter;
        use vase_estimate::Estimator;

        let mut g = SignalFlowGraph::new("t");
        let x = g.add(BlockKind::Input { name: "x".into() });
        let mut scalers = Vec::new();
        for (i, gain) in [2.0, 2.0, 3.0].into_iter().enumerate() {
            let s = g.add(BlockKind::Scale { gain });
            let y = g.add(BlockKind::Output { name: format!("y{i}") });
            g.connect(x, s, 0).expect("wire");
            g.connect(s, y, 0).expect("wire");
            scalers.push(s);
        }
        let estimator = Estimator::default();
        let meter = BudgetMeter::new(MapperConfig::default().effective_budget(), None);
        for sharing in [true, false] {
            let config = MapperConfig { sharing, ..MapperConfig::default() };
            let cache = MatchCache::build(&g, &config.match_options);
            let ctx = SearchCtx::new(&g, &estimator, &config, cache, &meter, None);
            let first = Step { block: scalers[0], alt: 0, share: None };
            let plan = Plan::new(&g).child(&ctx.cache, first);
            let same = &ctx.cache.at(scalers[1])[0];
            let other = &ctx.cache.at(scalers[2])[0];
            assert_eq!(ctx.share_target(&plan, same), sharing.then_some(0));
            assert_eq!(ctx.share_target(&plan, other), None);
        }
    }

    #[test]
    fn resolve_builds_netlist_with_external_refs() {
        let (g, x, s) = chain_graph();
        let components = [PlannedComponent {
            kind: ComponentKind::InvertingAmp { gain: -2.0 },
            covered: vec![s],
            inputs: vec![x],
            output: s,
        }];
        let netlist = resolve(&g, &components, 3).expect("resolves");
        netlist.validate().expect("valid");
        assert_eq!(netlist.components.len(), 1);
        assert_eq!(
            netlist.components[0].inputs,
            vec![SourceRef::External("x".into())]
        );
        assert_eq!(netlist.outputs, vec![("y".into(), SourceRef::Component(0))]);
    }

    #[test]
    fn resolve_fails_on_missing_producer() {
        // The output's driver is claimed by no component.
        let (g, _, _) = chain_graph();
        let err = resolve(&g, &[], 3).unwrap_err();
        assert!(matches!(err, MapError::Incomplete { .. }));
    }

    #[test]
    fn follower_inserted_on_high_fanout() {
        // One amp feeding 5 consumers → follower buffers 4 of them.
        let mut g = SignalFlowGraph::new("t");
        let x = g.add(BlockKind::Input { name: "x".into() });
        let src = g.add(BlockKind::Scale { gain: -1.0 });
        g.connect(x, src, 0).expect("wire");
        let mut consumers = Vec::new();
        for i in 0..5 {
            let c = g.add(BlockKind::Scale {
                gain: i as f64 + 2.0,
            });
            g.connect(src, c, 0).expect("wire");
            let o = g.add(BlockKind::Output {
                name: format!("y{i}"),
            });
            g.connect(c, o, 0).expect("wire");
            consumers.push(c);
        }
        let mut components = vec![PlannedComponent {
            kind: ComponentKind::InvertingAmp { gain: -1.0 },
            covered: vec![src],
            inputs: vec![x],
            output: src,
        }];
        for (i, &c) in consumers.iter().enumerate() {
            components.push(PlannedComponent {
                kind: ComponentKind::NonInvertingAmp {
                    gain: i as f64 + 2.0,
                },
                covered: vec![c],
                inputs: vec![src],
                output: c,
            });
        }
        let netlist = resolve(&g, &components, 3).expect("resolves");
        netlist.validate().expect("valid");
        assert!(
            netlist
                .components
                .iter()
                .any(|c| matches!(c.kind, ComponentKind::Follower)),
            "expected an inserted follower: {netlist}"
        );
        // The original driver now sees at most the limit.
        assert!(netlist.fanout(0) <= 3, "driver still overloaded: {netlist}");
    }
}
