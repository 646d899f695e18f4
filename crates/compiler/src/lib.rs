//! # vase-compiler
//!
//! The VASS→VHIF compiler of the VASE behavioral-synthesis environment
//! (Doboli & Vemuri, DATE 1999, Section 4).
//!
//! [`compile`] translates a semantically-checked VASS design
//! ([`vase_frontend::AnalyzedDesign`]) into a technology-independent
//! [`vase_vhif::VhifDesign`]:
//!
//! * the continuous-time part (simultaneous statements, simultaneous
//!   `if`/`case`, procedurals) becomes interconnected **signal-flow
//!   graphs**, with DAE rearrangement ("solver" selection), instruction
//!   sequencing by data dependencies, `for`-loop unrolling, and the
//!   `while`→sampling-structure translation of paper Fig. 4;
//! * each process becomes an **FSM** whose states carry concurrent
//!   data-path operations, grouped for maximal concurrency;
//! * port annotations drive inference of output stages (paper §6,
//!   `block 4` of the receiver) that no behavioral statement implies.
//!
//! # Examples
//!
//! ```
//! use vase_compiler::compile;
//! use vase_frontend::{analyze, parse_design_file};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = parse_design_file(
//!     "entity amp is
//!        port (quantity x : in real is voltage;
//!              quantity y : out real is voltage);
//!      end entity;
//!      architecture a of amp is begin y == 10.0 * x; end architecture;",
//! )?;
//! let analyzed = analyze(&design)?;
//! let compiled = compile(&analyzed)?;
//! assert_eq!(compiled.designs.len(), 1);
//! assert_eq!(compiled.designs[0].vhif.stats().blocks, 1); // one amplifier
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod continuous;
pub mod error;
pub mod lower;
pub mod process;
pub mod solver;
pub mod stats;

use std::collections::HashMap;

use vase_frontend::annot::AnnotationSet;
use vase_frontend::ast::ConcurrentStmt;
use vase_frontend::sema::AnalyzedDesign;
use vase_vhif::{SolverCandidate, VhifDesign};

use continuous::{compile_continuous, SolverTable};
pub use error::CompileError;
pub use stats::{lowering_stats, vass_stats, LoweringStats, VassStats};

/// How many rotated solver orderings [`compile`] tries when collecting
/// alternative solver-variant graphs for the mapper.
const SOLVER_VARIANT_ROTATIONS: usize = 3;

/// The compiled form of one architecture.
#[derive(Debug, Clone)]
pub struct CompiledArchitecture {
    /// The entity this architecture implements.
    pub entity: String,
    /// The VHIF representation.
    pub vhif: VhifDesign,
    /// VASS source statistics (Table 1 columns 2–5).
    pub vass_stats: VassStats,
    /// Per-equation counts of alternative DAE solvers (each a distinct
    /// signal-flow topology the mapper may explore).
    pub dae_alternatives: Vec<(String, usize)>,
}

impl CompiledArchitecture {
    /// Post-lowering statistics measured on the VHIF design itself
    /// (see [`lowering_stats`]).
    pub fn lowering_stats(&self) -> LoweringStats {
        lowering_stats(&self.vhif)
    }
}

/// The result of compiling a design file.
#[derive(Debug, Clone)]
pub struct CompiledDesign {
    /// One entry per architecture, in file order.
    pub designs: Vec<CompiledArchitecture>,
}

impl CompiledDesign {
    /// The compiled architecture for `entity`.
    pub fn for_entity(&self, entity: &str) -> Option<&CompiledArchitecture> {
        self.designs.iter().find(|d| d.entity == entity)
    }
}

/// Compile every architecture of an analyzed design into VHIF.
///
/// # Errors
///
/// Returns the first [`CompileError`] encountered. Inputs that passed
/// [`vase_frontend::analyze`] can still fail here when the DAE set has
/// no causal signal-flow form ([`CompileError::Unsolvable`]).
pub fn compile(analyzed: &AnalyzedDesign) -> Result<CompiledDesign, CompileError> {
    let names = &analyzed.design.names;
    let mut designs = Vec::new();
    for arch_info in &analyzed.architectures {
        let arch = analyzed
            .design
            .architectures()
            .find(|a| {
                names.resolve(a.entity.name) == arch_info.entity
                    && names.resolve(a.name.name) == arch_info.name
            })
            .expect("analyzed architecture exists in design");

        // Visible functions: package-level + architecture-local.
        let mut functions = HashMap::new();
        for pkg in analyzed.design.packages() {
            for f in &pkg.functions {
                functions.insert(f.name.name, f);
            }
        }
        for f in &arch.functions {
            functions.insert(f.name.name, f);
        }

        let solvers = SolverTable::new(arch, names);
        let lower = |rotation| {
            compile_continuous(
                arch,
                names,
                &arch_info.symbols,
                functions.clone(),
                &solvers,
                rotation,
            )
        };
        let part = lower(0)?;

        let mut vhif = VhifDesign::new(arch_info.entity.clone());
        vhif.graphs.push(part.graph);

        // Alternative solver variants: when some equation has more than
        // one isolatable variable, re-lower the continuous part with
        // rotated solver-candidate order. Distinct results are recorded
        // as advisory candidates for the mapper (the primary graph
        // above stays the one that is mapped and simulated). Lowering
        // is deterministic, so a rotation can differ from the primary
        // only where some decision had more than one viable candidate,
        // and a rotation whose shifts repeat an earlier one's lowers
        // that one's graph again; neither is lowered.
        if part.had_choice && part.dae_alternatives.iter().any(|(_, n)| *n > 1) {
            let mut tried = vec![solvers.shifts(0)];
            for rotation in 1..=SOLVER_VARIANT_ROTATIONS {
                let shifts = solvers.shifts(rotation);
                if tried.contains(&shifts) {
                    continue;
                }
                tried.push(shifts);
                let Ok(variant) = lower(rotation) else {
                    continue;
                };
                let graph = variant.graph;
                if graph == vhif.graphs[0]
                    || vhif.candidates.iter().any(|c| c.graph == graph)
                {
                    continue;
                }
                vhif.candidates
                    .push(SolverCandidate { name: format!("solver{rotation}"), graph });
            }
        }

        let mut process_counter = 0usize;
        for stmt in &arch.stmts {
            if let ConcurrentStmt::Process { label, sensitivity, body, .. } = stmt {
                process_counter += 1;
                let name = label
                    .as_ref()
                    .map(|l| names.resolve(l.name).to_owned())
                    .unwrap_or_else(|| format!("process{process_counter}"));
                let fsm = process::compile_process(
                    &name,
                    sensitivity,
                    body,
                    names,
                    &arch_info.symbols,
                )?;
                vhif.fsms.push(fsm);
            }
        }

        // Carry `range` annotations along as hints for the
        // `vase-analyze` fixed-point pass. Degenerate ranges are kept
        // here (the lint layer reports them as A202) and filtered at
        // analysis time; the graph structure is untouched.
        for sym in arch_info.symbols.iter() {
            let set = AnnotationSet::new(&sym.annotations);
            if let Some((lo, hi)) = set.value_range() {
                vhif.range_hints.push((sym.name.clone(), lo, hi));
            }
        }

        // External signal ports may drive control inputs directly.
        let external_signals: Vec<String> = arch_info
            .symbols
            .ports()
            .filter(|s| s.is_signal())
            .map(|s| s.name.clone())
            .collect();
        vhif.validate(&external_signals)?;

        designs.push(CompiledArchitecture {
            entity: arch_info.entity.clone(),
            vhif,
            vass_stats: vass_stats(&analyzed.design, &arch_info.entity),
            dae_alternatives: part.dae_alternatives,
        });
    }
    Ok(CompiledDesign { designs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vase_frontend::{analyze, parse_design_file};
    use vase_vhif::BlockKind;

    fn compile_src(src: &str) -> CompiledDesign {
        let design = parse_design_file(src).expect("parses");
        let analyzed = analyze(&design).expect("analyzes");
        compile(&analyzed).expect("compiles")
    }

    const RECEIVER: &str = r#"
        entity telephone is
          port (quantity line  : in  real is voltage;
                quantity local : in  real is voltage;
                quantity earph : out real is voltage limited at 1.5 v
                                            drives 270 ohm at 285 mv peak);
        end entity;
        architecture behavioral of telephone is
          quantity rvar : real;
          signal c1 : bit;
          constant aline  : real := 4.0;
          constant alocal : real := 2.0;
          constant r1c : real := 0.5;
          constant r2c : real := 0.75;
          constant vth : real := 0.07;
        begin
          earph == (aline * line + alocal * local) * rvar;
          if (c1 = '1') use
            rvar == r1c;
          else
            rvar == r1c + r2c;
          end use;
          process (line'above(vth)) is
          begin
            if (line'above(vth) = true) then
              c1 <= '1';
            else
              c1 <= '0';
            end if;
          end process;
        end architecture;
    "#;

    #[test]
    fn receiver_compiles_to_expected_shape() {
        let compiled = compile_src(RECEIVER);
        let d = compiled.for_entity("telephone").expect("design");
        let stats = d.vhif.stats();
        // Paper Table 1 row 1: 6 blocks, 4 states (3 after join pruning
        // in our FSM), 1 data-path structure family.
        assert!(stats.blocks >= 5, "blocks = {}", stats.blocks);
        assert_eq!(d.vhif.fsms.len(), 1);
        assert!(stats.states >= 3);
        assert_eq!(stats.datapath_ops, 2);
        // The output stage was inferred from annotations (paper block 4).
        let g = &d.vhif.graphs[0];
        assert!(
            g.iter().any(|(_, b)| matches!(
                b.kind,
                BlockKind::OutputStage { load_ohms, limit: Some(l), .. }
                if load_ohms == 270.0 && l == 1.5
            )),
            "missing inferred output stage: {g}"
        );
        // rvar is selected by a mux on c1.
        assert!(g.iter().any(|(_, b)| matches!(b.kind, BlockKind::Mux { arity: 2 })));
        // VASS stats
        assert_eq!(d.vass_stats.quantities, 4);
        assert_eq!(d.vass_stats.continuous_lines, 4);
    }

    #[test]
    fn first_order_ode_produces_integrator_feedback() {
        // x'dot == u - x  →  integrator whose input depends on its own
        // output.
        let compiled = compile_src(
            "entity f is
               port (quantity u : in real is voltage;
                     quantity x : out real is voltage);
             end entity;
             architecture a of f is
             begin
               x'dot == u - x;
             end architecture;",
        );
        let d = compiled.for_entity("f").expect("design");
        let g = &d.vhif.graphs[0];
        let integ = g
            .iter()
            .find(|(_, b)| matches!(b.kind, BlockKind::Integrate { .. }))
            .map(|(id, _)| id)
            .expect("integrator");
        // The integrator's input cone includes the integrator itself
        // (feedback).
        let driver = g.block_inputs(integ)[0].expect("driven");
        assert!(g.upstream_cone(driver).contains(&integ), "no feedback loop:\n{g}");
        g.validate().expect("valid graph");
    }

    #[test]
    fn equation_order_independence() {
        // rvar used before the statement defining it appears.
        let compiled = compile_src(
            "entity o is
               port (quantity x : in real is voltage;
                     quantity y : out real is voltage);
             end entity;
             architecture a of o is
               quantity w : real;
             begin
               y == w * x;
               w == 3.0 * x;
             end architecture;",
        );
        let d = compiled.for_entity("o").expect("design");
        d.vhif.graphs[0].validate().expect("valid");
    }

    #[test]
    fn unsolvable_equation_reports_error() {
        let design = parse_design_file(
            "entity u is
               port (quantity y : out real is voltage);
             end entity;
             architecture a of u is
               quantity w : real;
             begin
               y == w * w;
               w == y + 1.0;
             end architecture;",
        )
        .expect("parses");
        let analyzed = analyze(&design).expect("analyzes");
        let err = compile(&analyzed).unwrap_err();
        assert!(matches!(err, CompileError::Unsolvable { .. }), "{err}");
    }

    #[test]
    fn while_loop_produces_sampling_structure() {
        // Iterative halving — paper Fig. 4's shape.
        let compiled = compile_src(
            "entity w is
               port (quantity x : in real is voltage;
                     quantity y : out real is voltage);
             end entity;
             architecture a of w is
             begin
               procedural is
                 variable acc : real;
               begin
                 acc := x;
                 while acc > 0.5 loop
                   acc := acc / 2.0;
                 end loop;
                 y := acc;
               end procedural;
             end architecture;",
        );
        let d = compiled.for_entity("w").expect("design");
        let g = &d.vhif.graphs[0];
        g.validate().expect("valid");
        // Fig. 4 inventory: 2 S/H blocks, a switch, two conditionals
        // (comparator + schmitt), and routing muxes.
        let count = |pred: &dyn Fn(&BlockKind) -> bool| {
            g.iter().filter(|(_, b)| pred(&b.kind)).count()
        };
        assert_eq!(count(&|k| matches!(k, BlockKind::SampleHold)), 2, "{g}");
        assert_eq!(count(&|k| matches!(k, BlockKind::Switch)), 1);
        assert_eq!(count(&|k| matches!(k, BlockKind::Comparator { .. })), 1);
        assert_eq!(count(&|k| matches!(k, BlockKind::SchmittTrigger { .. })), 1);
        assert!(count(&|k| matches!(k, BlockKind::Mux { .. })) >= 2);
    }

    #[test]
    fn for_loop_unrolls() {
        let compiled = compile_src(
            "entity l is
               port (quantity x : in real is voltage;
                     quantity y : out real is voltage);
             end entity;
             architecture a of l is
             begin
               procedural is
                 variable acc : real;
               begin
                 acc := 0.0;
                 for i in 1 to 3 loop
                   acc := acc + x;
                 end loop;
                 y := acc;
               end procedural;
             end architecture;",
        );
        let d = compiled.for_entity("l").expect("design");
        // Three unrolled additions: add blocks present, graph valid.
        let g = &d.vhif.graphs[0];
        g.validate().expect("valid");
        let adds = g
            .iter()
            .filter(|(_, b)| matches!(b.kind, BlockKind::Add { .. } | BlockKind::Sub))
            .count();
        assert!(adds >= 2, "expected unrolled adders:\n{g}");
    }

    #[test]
    fn sequential_if_muxes_assigned_names() {
        let compiled = compile_src(
            "entity c is
               port (quantity x : in real is voltage;
                     quantity y : out real is voltage);
             end entity;
             architecture a of c is
             begin
               procedural is
                 variable v : real;
               begin
                 if x > 0.0 then
                   v := x * 2.0;
                 else
                   v := x * 0.5;
                 end if;
                 y := v;
               end procedural;
             end architecture;",
        );
        let d = compiled.for_entity("c").expect("design");
        let g = &d.vhif.graphs[0];
        g.validate().expect("valid");
        assert!(g.iter().any(|(_, b)| matches!(b.kind, BlockKind::Mux { arity: 2 })));
        assert!(g.iter().any(|(_, b)| matches!(b.kind, BlockKind::Comparator { .. })));
    }

    #[test]
    fn dae_alternatives_are_reported() {
        let compiled = compile_src(
            "entity d is
               port (quantity x : in real is voltage;
                     quantity y : out real is voltage);
             end entity;
             architecture a of d is
             begin
               y == 2.0 * x + 1.0;
             end architecture;",
        );
        let d = compiled.for_entity("d").expect("design");
        assert_eq!(d.dae_alternatives.len(), 1);
        // y and x are both isolatable → 2 candidate solvers.
        assert_eq!(d.dae_alternatives[0].1, 2);
    }

    #[test]
    fn multi_quantity_mode_select_compiles_deterministically() {
        // A simultaneous `if` defining several quantities: every compile
        // numbers its muxes alike, and no rotation differs from the
        // primary, so no solver candidate is recorded.
        let src = "entity m is
               port (quantity x : in real is voltage;
                     quantity y : out real is voltage;
                     signal s : in bit);
             end entity;
             architecture a of m is
               quantity p, q, r, u : real;
             begin
               if (s = '1') use
                 p == 2.0 * x;
                 q == 3.0 * x;
                 r == 4.0 * x;
                 u == 5.0 * x;
               else
                 p == x;
                 q == -x;
                 r == x + 1.0;
                 u == x - 1.0;
               end use;
               y == p + q + r + u;
             end architecture;";
        let first = compile_src(src).designs.remove(0).vhif;
        assert!(first.candidates.is_empty(), "{:?}", first.candidates);
        for _ in 0..20 {
            assert_eq!(compile_src(src).designs.remove(0).vhif, first);
        }
    }

    /// The continuous part of the iterative solver spec: four coupled
    /// equations and an output, postponed and retried until a state is
    /// claimed.
    const ITERATIVE: &str = r#"
        entity iter_solver is
          port (quantity target : in  real is voltage;
                quantity xout   : out real is voltage);
        end entity;
        architecture behavioral of iter_solver is
          quantity x, x1, x2 : real;
          quantity err : real;
          constant a0 : real := 1.0;
          constant a1 : real := 2.0;
          constant a2 : real := 2.0;
        begin
          err == target - x;
          x2'dot == a0 * err - a1 * x1 - a2 * x2;
          x1'dot == x2;
          x'dot  == x1;
          xout   == x;
        end architecture;
    "#;

    #[test]
    fn solvers_are_enumerated_once_and_the_design_lowered_once() {
        // Neither design has a solver decision with a choice, so every
        // rotation would repeat the primary lowering.
        for (src, statements) in [(RECEIVER, 3), (ITERATIVE, 5)] {
            let enumerations = solver::enumerations_on_thread();
            let lowerings = continuous::lowerings_on_thread();
            let compiled = compile_src(src);
            assert!(compiled.designs[0].vhif.candidates.is_empty());
            assert_eq!(solver::enumerations_on_thread() - enumerations, statements);
            assert_eq!(continuous::lowerings_on_thread() - lowerings, 1);
        }
    }

    #[test]
    fn rotations_repeating_earlier_shifts_are_not_lowered() {
        // Either state of the first equation can be claimed, so the
        // rotations are tried; every statement has two candidates, so
        // rotation 2 repeats the primary and rotation 3 repeats
        // rotation 1, and neither is lowered.
        let lowerings = continuous::lowerings_on_thread();
        let compiled = compile_src(
            "entity c is
               port (quantity y : out real is voltage);
             end entity;
             architecture a of c is
               quantity p, q : real;
             begin
               p'dot + q'dot == 0.0;
               p'dot - q'dot == 1.0;
               y == p;
             end architecture;",
        );
        let names: Vec<&str> =
            compiled.designs[0].vhif.candidates.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["solver1"]);
        assert_eq!(continuous::lowerings_on_thread() - lowerings, 2);
    }

    #[test]
    fn postponed_branch_leaves_no_definitions_behind() {
        // The else branch defines q1, then needs q2, which a later
        // statement defines: the `if` is postponed once and must not
        // find q1 already defined when it is retried.
        let compiled = compile_src(
            "entity m is
               port (quantity x0 : in real is voltage;
                     quantity x1 : in real is voltage;
                     quantity y : out real is voltage;
                     signal s : in bit);
             end entity;
             architecture a of m is
               quantity q0, q1, q2 : real;
             begin
               if (s = '1') use
                 q1 == x1;
                 q0 == x0;
               else
                 q1 == x0;
                 q0 == q2 + x0;
               end use;
               q2 == 2.0 * x1;
               y == q0 + q1;
             end architecture;",
        );
        compiled.designs[0].vhif.graphs[0].validate().expect("valid");
    }

    #[test]
    fn control_inputs_bind_to_fsm_outputs() {
        let compiled = compile_src(RECEIVER);
        let d = compiled.for_entity("telephone").expect("design");
        assert_eq!(d.vhif.control_signals(), vec!["c1".to_owned()]);
        // validate() already cross-checked the binding during compile().
    }
}
