//! # vase-archgen
//!
//! The architecture generator of the VASE behavioral-synthesis
//! environment (Doboli & Vemuri, DATE 1999, Section 5): maps a VHIF
//! representation (signal-flow graphs + FSMs) onto a minimum-area
//! netlist of op-amp-level library components while satisfying
//! performance constraints.
//!
//! * [`map_graph`] — the optimal **branch-and-bound** mapper with the
//!   paper's branching, bounding, and sequencing rules plus hardware
//!   sharing (Fig. 5), optionally parallelized over subtree tasks with
//!   a shared incumbent bound (`MapperConfig::parallelism`);
//! * [`map_graph_greedy`] — the faster heuristic baseline the paper's
//!   conclusion anticipates;
//! * [`map_fsm`] — the event-driven part's mapping onto Schmitt
//!   triggers, zero-cross detectors, S/H circuits, and ADCs;
//! * [`synthesize`] — the full-design driver combining both parts.
//!
//! One Fig. 5 branching step, dominance memo and leaf evaluation (the
//! private `search` module) serve four drivers: the exact DFS, the
//! guided best-first search ([`SearchStrategy::Guided`]), the parallel
//! frontier split, and the greedy heuristic, which also seeds every
//! budgeted or cancellable search from that search's own match table.
//! Each layer has one plain and one full entry point: [`map_graph`] /
//! [`map_graph_with_cache`] per graph, [`synthesize`] /
//! [`synthesize_with_cache`] per design.
//!
//! # Examples
//!
//! ```
//! use vase_archgen::{map_graph, MapperConfig};
//! use vase_estimate::Estimator;
//! use vase_vhif::{BlockKind, SignalFlowGraph};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = SignalFlowGraph::new("amp");
//! let x = g.add(BlockKind::Input { name: "x".into() });
//! let s = g.add(BlockKind::Scale { gain: -10.0 });
//! let y = g.add(BlockKind::Output { name: "y".into() });
//! g.connect(x, s, 0)?;
//! g.connect(s, y, 0)?;
//!
//! let result = map_graph(&g, &Estimator::default(), &MapperConfig::default())?;
//! assert_eq!(result.netlist.opamp_count(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod bnb;
pub mod cache;
pub mod config;
pub mod cover;
pub mod error;
pub mod fsm_map;
pub mod greedy;
mod guide;
mod parallel;
pub mod plan;
mod search;

use std::time::Instant;

use vase_budget::BudgetMeter;
use vase_estimate::{Estimator, NetlistEstimate};
use vase_library::{Netlist, SourceRef};
use vase_vhif::VhifDesign;

pub use bnb::{map_graph, map_graph_with_cache, MapResult};
pub use cache::CoverCache;
pub use config::{MapStats, MapperConfig, SearchStrategy};
pub use cover::CoverSet;
pub use error::MapError;
pub use fsm_map::{map_fsm, map_fsm_with_bindings};
pub use greedy::map_graph_greedy;
// Budget primitives, re-exported so callers can configure anytime
// mapping without depending on `vase-budget` directly.
pub use vase_budget::{Budget, CancelToken};

/// The result of synthesizing a complete VHIF design.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The combined netlist (continuous-time + event-driven hardware).
    pub netlist: Netlist,
    /// Performance estimate of the combined netlist.
    pub estimate: NetlistEstimate,
    /// Search statistics summed over all mapped graphs.
    pub stats: MapStats,
    /// Which component output carries each FSM-driven control signal
    /// (signal name → component index in `netlist`). Used to close the
    /// control loop in netlist-level simulation.
    pub control_bindings: Vec<(String, usize)>,
}

/// Synthesize a whole VHIF design: branch-and-bound over each
/// signal-flow graph, direct mapping of each FSM, merged into one
/// netlist.
///
/// With `config.parallelism != 1` and several signal-flow graphs, the
/// graphs are mapped concurrently (the configured worker budget is
/// divided among them); `stats.elapsed_us` then reports the wall-clock
/// time of the whole mapping phase rather than the per-graph sum.
///
/// # Errors
///
/// Propagates mapping failures from [`map_graph`] (the first failing
/// graph in design order).
pub fn synthesize(
    design: &VhifDesign,
    estimator: &Estimator,
    config: &MapperConfig,
) -> Result<SynthesisResult, MapError> {
    synthesize_with_cache(design, estimator, config, None, None)
}

/// [`synthesize`] with an optional cooperative [`CancelToken`] and an
/// optional content-addressed [`CoverCache`].
///
/// One budget meter spans the whole design: `config.budget`'s deadline
/// and node cap bound the *sum* of all graph searches, not each graph
/// individually. Under a limited budget (or with a token present) each
/// graph search is seeded with its greedy mapping, so exhaustion
/// mid-design still yields a complete, feasible architecture for every
/// remaining graph — degraded to the heuristic — flagged
/// `stats.budget_exhausted`.
///
/// With a cache, each signal-flow graph whose structure (and
/// constraint context) is already cached maps in O(lookup), and every
/// newly proven-optimal cover is recorded. Per graph hit/miss counts
/// are summed into `stats.cache_hits` / `stats.cache_misses`.
///
/// # Errors
///
/// As [`synthesize`].
pub fn synthesize_with_cache(
    design: &VhifDesign,
    estimator: &Estimator,
    config: &MapperConfig,
    token: Option<CancelToken>,
    cache: Option<&CoverCache>,
) -> Result<SynthesisResult, MapError> {
    let start = Instant::now();
    let seed_incumbent = config.budget.is_limited() || token.is_some();
    let meter = BudgetMeter::new(config.effective_budget(), token);
    let meter = &meter;
    // Proven value bounds (attached by the `vase-analyze` fixed point)
    // for one graph, looked up by name. Only consulted when
    // `config.range_prune` is on; the mapper receives `None` otherwise
    // so the default path is untouched by whatever rides on the design.
    let bounds_for = |graph: &vase_vhif::SignalFlowGraph| {
        if !config.range_prune {
            return None;
        }
        design.bounds.iter().find(|b| b.graph == graph.name())
    };
    let jobs = config.effective_parallelism();
    let results: Vec<Result<MapResult, MapError>> = if jobs > 1 && design.graphs.len() > 1 {
        // Spread the worker budget across the graphs; each graph's own
        // search may still split further when the budget allows.
        let per_graph = MapperConfig {
            parallelism: (jobs / design.graphs.len()).max(1),
            ..*config
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = design
                .graphs
                .iter()
                .map(|graph| {
                    let bounds = bounds_for(graph);
                    scope.spawn(move || {
                        bnb::map_graph_metered_cached(
                            graph,
                            estimator,
                            &per_graph,
                            meter,
                            seed_incumbent,
                            cache,
                            bounds,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("graph mapper panicked"))
                .collect()
        })
    } else {
        design
            .graphs
            .iter()
            .map(|graph| {
                bnb::map_graph_metered_cached(
                    graph,
                    estimator,
                    config,
                    meter,
                    seed_incumbent,
                    cache,
                    bounds_for(graph),
                )
            })
            .collect()
    };
    let mut netlist = Netlist::new();
    let mut stats = MapStats::default();
    for result in results {
        let result = result?;
        merge(&mut netlist, result.netlist);
        stats.merge(&result.stats);
    }
    stats.elapsed_us = start.elapsed().as_micros() as u64;
    stats.budget_exhausted |= meter.exhausted();
    let mut control_bindings = Vec::new();
    for fsm in &design.fsms {
        let offset = netlist.components.len();
        let (components, bindings) = map_fsm_with_bindings(fsm);
        for mut component in components {
            for input in component.inputs.iter_mut() {
                if let SourceRef::Component(i) = input {
                    *i += offset;
                }
            }
            netlist.push(component);
        }
        for (signal, local) in bindings {
            control_bindings.push((signal, local + offset));
        }
    }
    let estimate = estimator.estimate_netlist(&netlist);
    Ok(SynthesisResult {
        netlist,
        estimate,
        stats,
        control_bindings,
    })
}

/// Append `other`'s components and outputs to `netlist`, fixing
/// component indices.
fn merge(netlist: &mut Netlist, other: Netlist) {
    let offset = netlist.components.len();
    for mut component in other.components {
        for input in component.inputs.iter_mut() {
            if let SourceRef::Component(i) = input {
                *i += offset;
            }
        }
        netlist.push(component);
    }
    for (name, mut source) in other.outputs {
        if let SourceRef::Component(i) = &mut source {
            *i += offset;
        }
        netlist.outputs.push((name, source));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vase_vhif::{BlockKind, DataOp, DpExpr, Event, Fsm, SignalFlowGraph, Trigger};

    fn receiver_vhif() -> VhifDesign {
        // Continuous part: earph = sum × switched gain, output stage.
        let mut g = SignalFlowGraph::new("main");
        let line = g.add(BlockKind::Input {
            name: "line".into(),
        });
        let local = g.add(BlockKind::Input {
            name: "local".into(),
        });
        let s1 = g.add(BlockKind::Scale { gain: 0.5 });
        let s2 = g.add(BlockKind::Scale { gain: 0.25 });
        let add = g.add_labelled(BlockKind::Add { arity: 2 }, "block1");
        let c1v = g.add(BlockKind::Const { value: 0.5 });
        let c2v = g.add(BlockKind::Const { value: 1.25 });
        let ctl = g.add(BlockKind::ControlInput { name: "c1".into() });
        let mux = g.add(BlockKind::Mux { arity: 2 });
        let mul = g.add_labelled(BlockKind::Mul, "block2");
        let stage = g.add_labelled(
            BlockKind::OutputStage {
                load_ohms: 270.0,
                peak_volts: 0.285,
                limit: Some(1.5),
            },
            "block4",
        );
        let out = g.add(BlockKind::Output {
            name: "earph".into(),
        });
        g.connect(line, s1, 0).expect("wire");
        g.connect(local, s2, 0).expect("wire");
        g.connect(s1, add, 0).expect("wire");
        g.connect(s2, add, 1).expect("wire");
        g.connect(c2v, mux, 0).expect("wire");
        g.connect(c1v, mux, 1).expect("wire");
        g.connect(ctl, mux, 2).expect("wire");
        g.connect(add, mul, 0).expect("wire");
        g.connect(mux, mul, 1).expect("wire");
        g.connect(mul, stage, 0).expect("wire");
        g.connect(stage, out, 0).expect("wire");

        // Event-driven part: the compensation process.
        let mut fsm = Fsm::new("comp");
        let start = fsm.start();
        let s = fsm.add_state("s1");
        fsm.state_mut(s)
            .ops
            .push(DataOp::new("c1", DpExpr::Bit(true)));
        fsm.add_transition(
            start,
            s,
            Trigger::AnyEvent(vec![Event::Above {
                quantity: "line".into(),
                threshold: 0.07,
            }]),
        );
        fsm.add_transition(s, start, Trigger::Always);

        let mut d = VhifDesign::new("telephone");
        d.graphs.push(g);
        d.fsms.push(fsm);
        d
    }

    #[test]
    fn receiver_synthesizes_to_paper_component_mix() {
        // Paper Table 1 row 1 + §6: 2 amplifiers (weighted sum +
        // switched-gain), 1 zero-cross detector, plus the inferred
        // output stage.
        let design = receiver_vhif();
        let result =
            synthesize(&design, &Estimator::default(), &MapperConfig::default()).expect("maps");
        result.netlist.validate().expect("valid");
        let summary = result.netlist.report_summary();
        let count = |cat: &str| {
            summary
                .iter()
                .find(|(c, _)| c == cat)
                .map(|(_, n)| *n)
                .unwrap_or(0)
        };
        assert_eq!(
            count("amplif."),
            2,
            "summary: {summary:?}\n{}",
            result.netlist
        );
        assert_eq!(count("zero-cross det."), 1, "summary: {summary:?}");
        assert_eq!(count("output stage"), 1, "summary: {summary:?}");
        // 2 amps + 1 zcd + 1 output stage = 4 op amps total.
        assert_eq!(result.netlist.opamp_count(), 4, "{}", result.netlist);
    }

    #[test]
    fn merge_fixes_component_indices() {
        let design = receiver_vhif();
        let result =
            synthesize(&design, &Estimator::default(), &MapperConfig::default()).expect("maps");
        // Every internal reference must be valid after merging.
        result.netlist.validate().expect("indices valid");
        // Output taps exist.
        assert!(result.netlist.outputs.iter().any(|(n, _)| n == "earph"));
    }

    #[test]
    fn parallel_synthesis_matches_sequential() {
        // A two-graph design: the receiver's continuous part plus an
        // independent gain stage, mapped concurrently.
        let mut design = receiver_vhif();
        let mut g2 = SignalFlowGraph::new("aux");
        let x = g2.add(BlockKind::Input {
            name: "aux_in".into(),
        });
        let s = g2.add(BlockKind::Scale { gain: -4.0 });
        let y = g2.add(BlockKind::Output {
            name: "aux_out".into(),
        });
        g2.connect(x, s, 0).expect("wire");
        g2.connect(s, y, 0).expect("wire");
        design.graphs.push(g2);

        let seq =
            synthesize(&design, &Estimator::default(), &MapperConfig::default()).expect("maps");
        let par_config = MapperConfig {
            parallelism: 4,
            ..MapperConfig::default()
        };
        let par = synthesize(&design, &Estimator::default(), &par_config).expect("maps");
        par.netlist.validate().expect("valid");
        assert_eq!(par.netlist.opamp_count(), seq.netlist.opamp_count());
        assert!(
            (par.estimate.area_m2 - seq.estimate.area_m2).abs() <= seq.estimate.area_m2 * 1e-12
        );
        assert_eq!(par.control_bindings.len(), seq.control_bindings.len());
    }

    #[test]
    fn synthesis_estimate_is_feasible_under_audio_constraints() {
        let design = receiver_vhif();
        let result =
            synthesize(&design, &Estimator::default(), &MapperConfig::default()).expect("maps");
        assert!(result.estimate.feasible());
        assert!(result.estimate.area_m2 > 0.0);
        assert!(result.estimate.power_w > 0.0);
    }
}
