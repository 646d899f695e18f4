//! # vase-frontend
//!
//! Frontend for **VASS** — the VHDL-AMS Subset for Synthesis defined in
//! *"A VHDL-AMS Compiler and Architecture Generator for Behavioral
//! Synthesis of Analog Systems"* (Doboli & Vemuri, DATE 1999), Section 3.
//!
//! The crate provides:
//!
//! * a [`lexer`] and recursive-descent [`parser`] producing an [`ast`],
//! * the VASS [`annot`] (annotation) model — the declarative mechanism
//!   for describing signal properties (kind, ranges, impedances, output
//!   limiting and drive requirements) that plain VHDL-AMS lacks,
//! * a semantic analyzer ([`sema`]) that resolves names, checks types,
//!   and enforces the VASS synthesizability restrictions (statically
//!   bounded `for` loops, no `wait` statements, single-facet terminal
//!   use, *signals* never read after being assigned, ...).
//!
//! # Examples
//!
//! Parse and analyze a small amplifier specification:
//!
//! ```
//! use vase_frontend::{analyze, parse_design_file};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let source = r#"
//!   entity amp is
//!     port (quantity vin  : in  real is voltage;
//!           quantity vout : out real is voltage limited at 1.5 v);
//!   end entity;
//!   architecture behav of amp is
//!   begin
//!     vout == 10.0 * vin;
//!   end architecture;
//! "#;
//! let design = parse_design_file(source)?;
//! let analyzed = analyze(&design)?;
//! assert_eq!(analyzed.design.entities().count(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod annot;
pub mod ast;
pub mod error;
pub mod lexer;
pub mod names;
pub mod parser;
pub mod sema;
pub mod span;
pub mod token;

pub use annot::{Annotation, AnnotationSet, SignalKind};
pub use error::{FrontendError, LexError, ParseError, SemaError, SemaErrorKind};
pub use names::{Name, Names};
pub use parser::{parse_design_file, parse_design_file_recovering, parse_expression};
pub use sema::{analyze, AnalyzedDesign};
