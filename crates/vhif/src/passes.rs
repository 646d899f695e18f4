//! Optimization passes over VHIF designs.
//!
//! The compiler value-numbers blocks and shares constants as it emits
//! them, so little redundancy reaches this module. What does reach it is decided by a generated corpus
//! (`crates/bench/tests/opt_oracle.rs`: the shipped sources, generated
//! designs and fuzz mutants, mapped at `-O0` and `-O2`). Two passes
//! change a mapped netlist there, and every level above `0` runs both,
//! in this order:
//!
//! * `const-fold` replaces arithmetic fed only by literals with the
//!   literal the simulator would compute;
//! * `dce` removes the blocks that no root reads, including the
//!   literals `const-fold` leaves unread.
//!
//! Copies and duplicate blocks are left to the mapper: a gain-1.0
//! scale folds into its consumer's pattern, and the Fig. 5 share step
//! maps two blocks of one kind with the same inputs onto one component.
//!
//! # Legality rules
//!
//! Every pass must be semantics-preserving at the bit level: a design
//! simulated after optimization must produce traces identical to the
//! unoptimized design. Concretely:
//!
//! * **Interface blocks** ([`BlockKind::is_interface`]) are never
//!   removed or renamed — they define the simulation trace set.
//! * **Memory blocks and sampling structures** (`Memory`, `SampleHold`,
//!   `Switch`, `SchmittTrigger`, `Adc`, `Mux`, `Comparator`) are never
//!   rewritten or collected: they carry state, realize the paper's
//!   Fig. 4 sampling shapes checked by verifier code I106, or observe
//!   `'above` events.
//! * **Observed labels survive**: a block labelled with a name some FSM
//!   reads is an observation point (FSMs resolve `q'above` quantities
//!   through [`SignalFlowGraph::find_labelled`]), so `dce` keeps it.
//! * **Folds mirror the simulator exactly**: constant folding applies
//!   the same `f64` operations (including the division guard) the
//!   compiled simulation plan applies at run time. It leaves `Log` and
//!   `Antilog` alone: the simulators evaluate them with their own
//!   `ln`/`exp`, whose last bit can differ from the standard library's.

use std::collections::BTreeSet;
use std::fmt;
use std::time::Instant;

use crate::block::BlockKind;
use crate::design::VhifDesign;
use crate::dp::Event;
use crate::fsm::Trigger;
use crate::graph::{BlockId, SignalFlowGraph};

/// Measured effect of one pass execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassStats {
    /// Pass name: `const-fold` or `dce`.
    pub name: &'static str,
    /// Total blocks (all graphs, interface included) before the pass.
    pub blocks_before: usize,
    /// Total blocks after the pass.
    pub blocks_after: usize,
    /// Total connected edges before the pass.
    pub edges_before: usize,
    /// Total connected edges after the pass.
    pub edges_after: usize,
    /// Pass-specific rewrite count (folds, removals).
    pub rewrites: usize,
    /// Wall-clock time spent in the pass, microseconds.
    pub elapsed_us: u128,
}

impl PassStats {
    /// Whether the pass changed the design at all.
    pub fn changed(&self) -> bool {
        self.rewrites > 0
            || self.blocks_before != self.blocks_after
            || self.edges_before != self.edges_after
    }
}

impl fmt::Display for PassStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<13} {:>3} rewrites  blocks {} -> {}  edges {} -> {}  {} us",
            self.name,
            self.rewrites,
            self.blocks_before,
            self.blocks_after,
            self.edges_before,
            self.edges_after,
            self.elapsed_us
        )
    }
}

/// A pass: its stable name and the rewrite, which returns how many
/// rewrites it applied.
type Pass = (&'static str, fn(&mut VhifDesign) -> usize);

/// What every level above `0` runs.
const PIPELINE: [Pass; 2] = [("const-fold", const_fold), ("dce", dce)];

/// The pass pipeline of an optimization level.
pub struct PassManager {
    passes: &'static [Pass],
}

impl PassManager {
    /// The pipeline for an optimization level: no passes at `0`;
    /// `const-fold`, then `dce`, at every level above.
    pub fn for_opt_level(level: u8) -> Self {
        PassManager { passes: if level == 0 { &[] } else { &PIPELINE } }
    }

    /// Run every pass once, in order; returns one [`PassStats`] per
    /// pass.
    pub fn run(&self, design: &mut VhifDesign) -> Vec<PassStats> {
        self.passes
            .iter()
            .map(|&(name, apply)| {
                let blocks_before = total_blocks(design);
                let edges_before = design.edge_count();
                let started = Instant::now();
                let rewrites = apply(design);
                let elapsed_us = started.elapsed().as_micros();
                PassStats {
                    name,
                    blocks_before,
                    blocks_after: total_blocks(design),
                    edges_before,
                    edges_after: design.edge_count(),
                    rewrites,
                    elapsed_us,
                }
            })
            .collect()
    }
}

fn total_blocks(design: &VhifDesign) -> usize {
    design.graphs.iter().map(|g| g.len()).sum()
}

// ----------------------------------------------------------------- helpers

/// Evaluate a pure arithmetic block on constant inputs, mirroring the
/// compiled simulation plan's per-step evaluation *exactly* (same
/// operations, same guards) so a folded constant is bit-identical to
/// the value the simulator would have computed. `Log` and `Antilog`
/// are not folded: the simulators compute them with their own `ln` and
/// `exp`, which this crate cannot call.
fn fold_value(kind: &BlockKind, u: &[f64]) -> Option<f64> {
    Some(match kind {
        BlockKind::Scale { gain } => gain * u[0],
        BlockKind::Add { arity } => (0..*arity).map(|p| u[p]).sum(),
        BlockKind::Sub => u[0] - u[1],
        BlockKind::Mul => u[0] * u[1],
        BlockKind::Div => {
            let d = u[1];
            u[0] / if d.abs() < 1e-12 { 1e-12_f64.copysign(d + 1e-30) } else { d }
        }
        BlockKind::Abs => u[0].abs(),
        BlockKind::Limiter { level } => u[0].clamp(-level, *level),
        _ => return None,
    })
}

/// Every name the design's FSMs read: transition guards, `'above`
/// event quantities, and data-path operand signals/quantities. Blocks
/// labelled with (or interfacing) one of these names are observation
/// points the passes must keep.
fn fsm_read_set(design: &VhifDesign) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for fsm in &design.fsms {
        for t in fsm.transitions() {
            match &t.trigger {
                Trigger::Always => {}
                Trigger::AnyEvent(events) => {
                    for e in events {
                        match e {
                            Event::Above { quantity, .. } => {
                                out.insert(quantity.clone());
                            }
                            Event::SignalChange { signal } => {
                                out.insert(signal.clone());
                            }
                        }
                    }
                }
                Trigger::Guard(g) => out.extend(g.reads()),
            }
        }
        for (_, state) in fsm.iter() {
            for op in &state.ops {
                out.extend(op.value.reads());
            }
        }
    }
    out
}

/// Whether removing this block is ever legal. Interface markers define
/// the trace set; memory and sampling structures are off-limits per the
/// legality rules; comparators may observe `'above` events.
fn is_removal_root(kind: &BlockKind) -> bool {
    kind.is_interface()
        || matches!(
            kind,
            BlockKind::Memory
                | BlockKind::SampleHold
                | BlockKind::Switch
                | BlockKind::SchmittTrigger { .. }
                | BlockKind::Adc { .. }
                | BlockKind::Mux { .. }
                | BlockKind::Comparator { .. }
        )
}

// ------------------------------------------------------------ const-fold

/// Fold pure arithmetic blocks whose every input is a literal
/// ([`BlockKind::Const`]) into a `Const` of the result, computed with
/// the simulator's own arithmetic.
fn const_fold(design: &mut VhifDesign) -> usize {
    let mut rewrites = 0;
    for graph in &mut design.graphs {
        // Iterate to a fixpoint: folding one block can expose the
        // next. Graphs are small; depth bounds the loop.
        loop {
            let mut folded = Vec::new();
            for (id, block) in graph.iter() {
                if block.kind.control_inputs() > 0 || block.kind.is_stateful() {
                    continue;
                }
                let Some(values) = const_inputs(graph, id) else { continue };
                if let Some(v) = fold_value(&block.kind, &values) {
                    folded.push((id, v));
                }
            }
            if folded.is_empty() {
                break;
            }
            for (id, v) in folded {
                graph.replace_kind(id, BlockKind::Const { value: v });
                rewrites += 1;
            }
        }
    }
    rewrites
}

/// The values of `id`'s inputs if every port is driven by a `Const`.
fn const_inputs(graph: &SignalFlowGraph, id: BlockId) -> Option<Vec<f64>> {
    let ports = graph.block_inputs(id);
    if ports.is_empty() {
        return None;
    }
    let mut values = Vec::with_capacity(ports.len());
    for driver in ports {
        match graph.kind((*driver)?) {
            BlockKind::Const { value } => values.push(*value),
            _ => return None,
        }
    }
    Some(values)
}

// ------------------------------------------------------------------- dce

/// Remove blocks with no path to any root: interface blocks, memory
/// and sampling structures, or blocks labelled with a name some FSM
/// reads. Survivors are renumbered densely.
fn dce(design: &mut VhifDesign) -> usize {
    let reads = fsm_read_set(design);
    let mut rewrites = 0;
    for graph in &mut design.graphs {
        let n = graph.len();
        let mut keep = vec![false; n];
        let mut stack: Vec<BlockId> = Vec::new();
        for (id, block) in graph.iter() {
            let observed = block.label.as_ref().is_some_and(|l| reads.contains(l));
            if is_removal_root(&block.kind) || observed {
                keep[id.index()] = true;
                stack.push(id);
            }
        }
        while let Some(id) = stack.pop() {
            for &input in graph.block_inputs(id).iter().flatten() {
                if !keep[input.index()] {
                    keep[input.index()] = true;
                    stack.push(input);
                }
            }
        }
        let removed = keep.iter().filter(|k| !**k).count();
        if removed > 0 {
            graph.compact(&keep);
            rewrites += removed;
        }
    }
    rewrites
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wrap(graph: SignalFlowGraph) -> VhifDesign {
        let mut d = VhifDesign::new("t");
        d.graphs.push(graph);
        d
    }

    #[test]
    fn const_fold_collapses_literal_chain() {
        // const(2) -> scale(3) -> add(+ const(4)) -> out
        let mut g = SignalFlowGraph::new("g");
        let c2 = g.add(BlockKind::Const { value: 2.0 });
        let sc = g.add(BlockKind::Scale { gain: 3.0 });
        let c4 = g.add(BlockKind::Const { value: 4.0 });
        let add = g.add(BlockKind::Add { arity: 2 });
        let out = g.add(BlockKind::Output { name: "y".into() });
        g.connect(c2, sc, 0).unwrap();
        g.connect(sc, add, 0).unwrap();
        g.connect(c4, add, 1).unwrap();
        g.connect(add, out, 0).unwrap();
        let mut d = wrap(g);
        assert_eq!(const_fold(&mut d), 2); // scale, then add
        assert_eq!(d.graphs[0].kind(add), &BlockKind::Const { value: 10.0 });
        // Folding disconnects the folded blocks' inputs.
        assert!(d.graphs[0].block_inputs(add).is_empty());
    }

    #[test]
    fn const_fold_mirrors_division_guard() {
        let mut g = SignalFlowGraph::new("g");
        let num = g.add(BlockKind::Const { value: 1.0 });
        let den = g.add(BlockKind::Const { value: 0.0 });
        let div = g.add(BlockKind::Div);
        let out = g.add(BlockKind::Output { name: "y".into() });
        g.connect(num, div, 0).unwrap();
        g.connect(den, div, 1).unwrap();
        g.connect(div, out, 0).unwrap();
        let mut d = wrap(g);
        const_fold(&mut d);
        // Not inf: the simulator's guard divides by 1e-12 instead.
        assert_eq!(d.graphs[0].kind(div), &BlockKind::Const { value: 1.0 / 1e-12 });
    }

    #[test]
    fn const_fold_leaves_stateful_and_controlled_blocks() {
        let mut g = SignalFlowGraph::new("g");
        let c = g.add(BlockKind::Const { value: 1.0 });
        let integ = g.add(BlockKind::Integrate { gain: 1.0, initial: 0.0 });
        let out = g.add(BlockKind::Output { name: "y".into() });
        g.connect(c, integ, 0).unwrap();
        g.connect(integ, out, 0).unwrap();
        let mut d = wrap(g);
        assert_eq!(const_fold(&mut d), 0);
    }

    #[test]
    fn const_fold_leaves_log_and_antilog_to_the_simulator() {
        for kind in [BlockKind::Log, BlockKind::Antilog] {
            let mut g = SignalFlowGraph::new("g");
            let c = g.add(BlockKind::Const { value: 1.5 });
            let f = g.add(kind.clone());
            let out = g.add(BlockKind::Output { name: "y".into() });
            g.connect(c, f, 0).unwrap();
            g.connect(f, out, 0).unwrap();
            let mut d = wrap(g);
            assert_eq!(const_fold(&mut d), 0, "{kind:?} folded");
            assert_eq!(d.graphs[0].kind(f), &kind);
        }
    }

    #[test]
    fn dce_removes_unreachable_blocks_only() {
        let mut g = SignalFlowGraph::new("g");
        let x = g.add(BlockKind::Input { name: "x".into() });
        let live = g.add(BlockKind::Scale { gain: 2.0 });
        let dead = g.add(BlockKind::Scale { gain: 3.0 });
        let out = g.add(BlockKind::Output { name: "y".into() });
        g.connect(x, live, 0).unwrap();
        g.connect(x, dead, 0).unwrap();
        g.connect(live, out, 0).unwrap();
        let mut d = wrap(g);
        assert_eq!(dce(&mut d), 1);
        assert_eq!(d.graphs[0].len(), 3);
        d.graphs[0].validate().expect("still valid after gc");
    }

    #[test]
    fn dce_keeps_fsm_observed_labels_and_memory() {
        use crate::dp::{DataOp, DpExpr};
        let mut g = SignalFlowGraph::new("g");
        let x = g.add(BlockKind::Input { name: "x".into() });
        let watched = g.add_labelled(BlockKind::Scale { gain: 2.0 }, "v");
        let mem = g.add(BlockKind::Memory);
        let ctl = g.add(BlockKind::ControlInput { name: "c".into() });
        g.connect(x, watched, 0).unwrap();
        g.connect(x, mem, 0).unwrap();
        g.connect(ctl, mem, 1).unwrap();
        let mut d = wrap(g);
        let mut fsm = crate::fsm::Fsm::new("m");
        let start = fsm.start();
        let s = fsm.add_state("s");
        fsm.state_mut(s).ops.push(DataOp::new("c", DpExpr::Quantity("v".into())));
        fsm.add_transition(start, s, Trigger::Always);
        fsm.add_transition(s, start, Trigger::Always);
        d.fsms.push(fsm);
        assert_eq!(dce(&mut d), 0, "observed + memory blocks all stay");
    }

    #[test]
    fn manager_runs_in_order_with_stats() {
        let mut g = SignalFlowGraph::new("g");
        let c2 = g.add(BlockKind::Const { value: 2.0 });
        let c3 = g.add(BlockKind::Const { value: 3.0 });
        let mul = g.add(BlockKind::Mul);
        let copy = g.add(BlockKind::Scale { gain: 1.0 });
        let out = g.add(BlockKind::Output { name: "y".into() });
        g.connect(c2, mul, 0).unwrap();
        g.connect(c3, mul, 1).unwrap();
        g.connect(mul, copy, 0).unwrap();
        g.connect(copy, out, 0).unwrap();
        let mut d = wrap(g);
        let stats = PassManager::for_opt_level(2).run(&mut d);
        let names: Vec<&str> = stats.iter().map(|s| s.name).collect();
        assert_eq!(names, ["const-fold", "dce"]);
        assert!(stats.iter().all(|s| s.changed()));
        // mul and its copy folded to const(6); feeders GC'd.
        let g = &d.graphs[0];
        g.validate().expect("valid after full pipeline");
        assert_eq!(g.len(), 2);
        let y = g.outputs()[0];
        let driver = g.block_inputs(y)[0].expect("driven");
        assert_eq!(g.kind(driver), &BlockKind::Const { value: 6.0 });
    }

    #[test]
    fn opt_level_zero_is_empty() {
        let mut d = wrap(SignalFlowGraph::new("g"));
        assert!(PassManager::for_opt_level(0).run(&mut d).is_empty());
    }

    #[test]
    fn every_level_above_zero_runs_one_pipeline() {
        let mut d = wrap(SignalFlowGraph::new("g"));
        for level in [1, 2, 3] {
            let names: Vec<&str> =
                PassManager::for_opt_level(level).run(&mut d).iter().map(|s| s.name).collect();
            assert_eq!(names, ["const-fold", "dce"], "-O{level}");
        }
    }
}
