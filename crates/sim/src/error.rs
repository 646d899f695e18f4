//! Simulator errors.

use std::error::Error as StdError;
use std::fmt;

use crate::fault::SimFault;

/// An error during transient simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// An external input had no stimulus and no driving binding.
    MissingStimulus {
        /// The input's name.
        name: String,
    },
    /// The structure has a combinational loop the simulator cannot
    /// order.
    AlgebraicLoop,
    /// A quantity referenced by the event-driven part could not be
    /// located in the continuous-time structure.
    UnknownQuantity {
        /// The quantity's name.
        name: String,
    },
    /// Bad configuration (non-positive step or duration).
    BadConfig {
        /// Description.
        what: String,
    },
    /// A frequency-sweep point's run ended in a numerical fault, so the
    /// point has no steady state to measure.
    SweepFault {
        /// The point's stimulus frequency, Hz.
        frequency_hz: f64,
        /// The fault that ended the point's run.
        fault: SimFault,
    },
    /// The simulation panicked; the panic was caught by a
    /// panic-isolated batch driver (see `vase::flow`) and converted so
    /// the rest of the batch could continue.
    Panicked {
        /// The panic payload's message.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingStimulus { name } => {
                write!(f, "external input `{name}` has no stimulus")
            }
            SimError::AlgebraicLoop => f.write_str("combinational loop in simulated structure"),
            SimError::UnknownQuantity { name } => {
                write!(f, "event-driven part references unknown quantity `{name}`")
            }
            SimError::BadConfig { what } => write!(f, "bad simulation config: {what}"),
            SimError::SweepFault {
                frequency_hz,
                fault,
            } => {
                write!(f, "sweep point at {frequency_hz} Hz faulted: {fault}")
            }
            SimError::Panicked { message } => write!(f, "simulation panicked: {message}"),
        }
    }
}

impl StdError for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(SimError::MissingStimulus {
            name: "line".into()
        }
        .to_string()
        .contains("line"));
        assert!(SimError::AlgebraicLoop.to_string().contains("loop"));
    }
}
