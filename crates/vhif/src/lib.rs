//! # vase-vhif
//!
//! **VHIF** — the VASE Hierarchical Intermediate Format — is the
//! technology-independent structural representation used by the VASE
//! behavioral-synthesis environment (Doboli & Vemuri, DATE 1999,
//! Section 4; companion report \[2\]).
//!
//! A [`VhifDesign`] describes an analog system as:
//!
//! * **signal-flow graphs** ([`SignalFlowGraph`]) for the
//!   continuous-time part — blocks ([`BlockKind`]) with exact knowledge
//!   about flows and processing of signals, every one of which is
//!   implementable with an electronic circuit from the component
//!   library;
//! * **finite state machines** ([`Fsm`]) for the event-driven part —
//!   states carrying concurrent data-path operations ([`DataOp`]),
//!   connected by arcs triggered by events ([`Event`]) or guarded by
//!   conditions.
//!
//! The two parts interconnect through named control signals
//! ([`BlockKind::ControlInput`] blocks consume what FSM data-paths
//! produce) and through `'above` events watching graph quantities.
//!
//! # Examples
//!
//! Build the paper's Fig. 3-style structure by hand:
//!
//! ```
//! use vase_vhif::{BlockKind, SignalFlowGraph, VhifDesign};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = SignalFlowGraph::new("main");
//! let a = g.add(BlockKind::Input { name: "a".into() });
//! let scale = g.add(BlockKind::Scale { gain: 3.0 });
//! let out = g.add(BlockKind::Output { name: "y".into() });
//! g.connect(a, scale, 0)?;
//! g.connect(scale, out, 0)?;
//!
//! let mut design = VhifDesign::new("example");
//! design.graphs.push(g);
//! design.validate(&[])?;
//! assert_eq!(design.stats().blocks, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod block;
pub mod bounds;
pub mod design;
pub mod dot;
pub mod dp;
pub mod error;
pub mod fsm;
pub mod graph;
pub mod hash;
pub mod passes;
pub mod verify;

pub use block::{Block, BlockKind, SignalClass};
pub use bounds::GraphBounds;
pub use design::{SolverCandidate, VhifDesign, VhifStats};
pub use dp::{DataOp, DpBinaryOp, DpExpr, Event};
pub use dot::{design_to_dot, fsm_to_dot, graph_to_dot};
pub use error::VhifError;
pub use fsm::{Fsm, State, StateId, Transition, Trigger};
pub use graph::{BlockId, SignalFlowGraph};
pub use hash::structural_hash;
pub use passes::{PassManager, PassStats};
pub use verify::{diagnostic_from_error, verify_design, VerifyContext, WireKind};
