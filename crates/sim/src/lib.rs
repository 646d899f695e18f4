//! # vase-sim
//!
//! Transient simulation for the VASE synthesis flow — the substitute
//! for the paper's SPICE validation (Section 6, Fig. 8).
//!
//! Two levels of abstraction:
//!
//! * **behavioral** ([`simulate_design`]) — simulates a
//!   [`vase_vhif::VhifDesign`] directly: signal-flow blocks evaluated
//!   in topological order with RK4 integration, FSMs co-simulated on
//!   event edges. One engine, [`BatchSession`], runs every behavioral
//!   simulation; a single run is its one-lane batch;
//! * **macromodel** ([`simulate_netlist`]) — simulates a synthesized
//!   [`vase_library::Netlist`] with first-order op-amp macromodels
//!   (ideal transfer + rail saturation, output-stage limiting,
//!   hysteretic detectors).
//!
//! # Examples
//!
//! Reproduce the Fig. 8 observable — output limiting at 1.5 V:
//!
//! ```
//! use std::collections::BTreeMap;
//! use vase_library::{ComponentKind, Netlist, PlacedComponent, SourceRef};
//! use vase_sim::{simulate_netlist, SimConfig, Stimulus};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut netlist = Netlist::new();
//! netlist.push(PlacedComponent {
//!     kind: ComponentKind::OutputStage {
//!         load_ohms: 270.0,
//!         peak_volts: 0.285,
//!         limit: Some(1.5),
//!     },
//!     inputs: vec![SourceRef::External("vin".into())],
//!     implements: vec![],
//!     label: "stage".into(),
//! });
//! netlist.outputs.push(("earph".into(), SourceRef::Component(0)));
//!
//! let mut stimuli = BTreeMap::new();
//! stimuli.insert("vin".to_string(), Stimulus::sine(2.0, 1_000.0));
//! let result = simulate_netlist(&netlist, &stimuli, &[], &SimConfig::new(1e-6, 2e-3))?;
//! let (lo, hi) = result.range("earph").expect("trace");
//! assert!(hi <= 1.5 && lo >= -1.5);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod batch;
pub mod error;
pub mod fault;
pub mod graph_sim;
pub mod math;
pub mod monte;
pub mod netlist_sim;
pub mod plan;
pub mod plot;
pub mod response;
pub mod stimulus;
pub mod trace;

pub use batch::{AdaptiveConfig, AdaptiveStats, BatchLane, BatchSession, MAX_LANES};
pub use error::SimError;
pub use fault::{FaultInjection, FaultKind, SimFault};
pub use graph_sim::{simulate_design, SimConfig};
pub use monte::{monte_carlo_netlist, MonteCarloConfig, TraceYield, YieldReport};
pub use netlist_sim::{
    simulate_netlist, simulate_netlist_with_cancel, BatchNetlistSession, CompiledNetlist,
    AMP_SATURATION,
};
pub use plan::CompiledSim;
pub use plot::render_ascii;
pub use response::{
    frequency_response, frequency_response_with, log_sweep, ResponsePoint, SweepConfig,
};
pub use stimulus::Stimulus;
pub use trace::SimResult;
