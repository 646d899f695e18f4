//! The top-level VHIF design: signal-flow graphs + FSMs + their
//! interconnection.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::block::BlockKind;
use crate::error::VhifError;
use crate::fsm::Fsm;
use crate::graph::SignalFlowGraph;

/// Structural statistics of a VHIF design — the quantities Table 1 of
/// the paper reports per application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct VhifStats {
    /// Processing blocks across all signal-flow graphs ("nr. blocks").
    pub blocks: usize,
    /// States across all FSMs ("nr. states").
    pub states: usize,
    /// Data-path operations across all FSM states ("data-path").
    pub datapath_ops: usize,
}

impl fmt::Display for VhifStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} blocks, {} states, {} data-path ops",
            self.blocks, self.states, self.datapath_ops
        )
    }
}

/// An alternative lowering of one signal-flow graph, produced when the
/// compiler can solve a DAE system for more than one unknown (paper §5:
/// "the compiler selects one solution; the alternatives are kept as
/// candidates"). Candidates are advisory metadata: the mapped and
/// simulated design is always [`VhifDesign::graphs`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolverCandidate {
    /// Candidate name (`<graph>#<variant>`).
    pub name: String,
    /// The alternative lowering of that graph.
    pub graph: SignalFlowGraph,
}

/// A complete VHIF representation of one analog system: the
/// continuous-time part as interconnected signal-flow graphs and the
/// event-driven part as FSMs. Control signals produced by the FSMs'
/// data-paths appear as [`BlockKind::ControlInput`] blocks inside the
/// graphs; events consumed by the FSMs originate from quantities in the
/// graphs ([`crate::Event::Above`]) or external ports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VhifDesign {
    /// Design (entity) name.
    pub name: String,
    /// Signal-flow graphs of the continuous-time part.
    pub graphs: Vec<SignalFlowGraph>,
    /// FSMs of the event-driven part (one per process).
    pub fsms: Vec<Fsm>,
    /// Alternative solver lowerings of the graphs (possibly empty; see
    /// [`SolverCandidate`]).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub candidates: Vec<SolverCandidate>,
    /// Value-range annotation hints carried forward from the source
    /// (`(name, lo, hi)` with `lo <= hi`). Names refer to labelled or
    /// interface blocks in the graphs; hints whose anchor disappears
    /// during optimization are simply ignored by the analysis.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub range_hints: Vec<(String, f64, f64)>,
    /// Per-graph proven value bounds computed by the range analysis
    /// (`vase analyze` / the flow's verification stage). Empty until an
    /// analysis pass attaches them; see [`crate::GraphBounds`].
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub bounds: Vec<crate::GraphBounds>,
}

impl VhifDesign {
    /// An empty design named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        VhifDesign {
            name: name.into(),
            graphs: Vec::new(),
            fsms: Vec::new(),
            candidates: Vec::new(),
            range_hints: Vec::new(),
            bounds: Vec::new(),
        }
    }

    /// Structural statistics (Table 1 columns 6–8).
    pub fn stats(&self) -> VhifStats {
        VhifStats {
            blocks: self.graphs.iter().map(|g| g.operation_count()).sum(),
            states: self.fsms.iter().map(|f| f.state_count()).sum(),
            datapath_ops: self.fsms.iter().map(|f| f.datapath_op_count()).sum(),
        }
    }

    /// Total connected edges across all graphs.
    pub fn edge_count(&self) -> usize {
        self.graphs.iter().map(|g| g.edge_count()).sum()
    }

    /// Validate all graphs and machines, then cross-check the
    /// interconnect: every control input consumed by a graph must be
    /// produced by some FSM data-path (or be an external signal port,
    /// which callers list in `external_signals`).
    ///
    /// # Errors
    ///
    /// Returns the first structural violation found.
    pub fn validate(&self, external_signals: &[String]) -> Result<(), VhifError> {
        for g in &self.graphs {
            g.validate()?;
        }
        for f in &self.fsms {
            f.validate()?;
        }
        let produced: Vec<String> =
            self.fsms.iter().flat_map(|f| f.assigned_signals()).collect();
        for g in &self.graphs {
            for (_, block) in g.iter() {
                if let BlockKind::ControlInput { name } = &block.kind {
                    if !produced.contains(name)
                        && !external_signals.iter().any(|s| s == name)
                    {
                        return Err(VhifError::UndrivenPort {
                            block: format!("control input `{name}`"),
                            port: 0,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Names of all control signals the FSMs drive into the graphs.
    pub fn control_signals(&self) -> Vec<String> {
        self.fsms.iter().flat_map(|f| f.assigned_signals()).collect()
    }
}

/// `Display` for [`VhifDesign`] is a full textual dump: name, stats,
/// every graph, every FSM.
impl fmt::Display for VhifDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "design {} ({})", self.name, self.stats())?;
        for g in &self.graphs {
            writeln!(f, "{g}")?;
        }
        for m in &self.fsms {
            writeln!(f, "{m}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{DataOp, DpExpr, Event};
    use crate::fsm::Trigger;

    fn small_design() -> VhifDesign {
        let mut d = VhifDesign::new("receiver");
        let mut g = SignalFlowGraph::new("main");
        let x = g.add(BlockKind::Input { name: "line".into() });
        let sw = g.add(BlockKind::Switch);
        let c = g.add(BlockKind::ControlInput { name: "c1".into() });
        let y = g.add(BlockKind::Output { name: "earph".into() });
        g.connect(x, sw, 0).expect("x->sw");
        g.connect(c, sw, 1).expect("c->sw");
        g.connect(sw, y, 0).expect("sw->y");
        d.graphs.push(g);

        let mut fsm = Fsm::new("comp");
        let start = fsm.start();
        let s1 = fsm.add_state("s1");
        fsm.state_mut(s1).ops.push(DataOp::new("c1", DpExpr::Bit(true)));
        fsm.add_transition(
            start,
            s1,
            Trigger::AnyEvent(vec![Event::Above { quantity: "line".into(), threshold: 0.1 }]),
        );
        fsm.add_transition(s1, start, Trigger::Always);
        d.fsms.push(fsm);
        d
    }

    #[test]
    fn stats_aggregate() {
        let d = small_design();
        let s = d.stats();
        assert_eq!(s.blocks, 1); // the switch
        assert_eq!(s.states, 2);
        assert_eq!(s.datapath_ops, 1);
        assert!(s.to_string().contains("1 blocks"));
    }

    #[test]
    fn validate_checks_control_binding() {
        let d = small_design();
        d.validate(&[]).expect("c1 produced by fsm");
    }

    #[test]
    fn missing_control_producer_detected() {
        let mut d = small_design();
        d.fsms.clear();
        assert!(d.validate(&[]).is_err());
        // ...unless it is an external signal port
        d.validate(&["c1".to_owned()]).expect("external signal ok");
    }

    #[test]
    fn control_signals_listed() {
        let d = small_design();
        assert_eq!(d.control_signals(), vec!["c1".to_owned()]);
    }

    #[test]
    fn display_includes_everything() {
        let s = small_design().to_string();
        assert!(s.contains("design receiver"));
        assert!(s.contains("graph main"));
        assert!(s.contains("fsm comp"));
    }
}
