//! Semantic analysis for VASS designs.
//!
//! [`analyze`] resolves names, infers and checks types, validates
//! annotations, and enforces the VASS synthesizability restrictions
//! from Section 3 of the paper (see [`restrict`] for the list).

mod check;
pub mod restrict;
pub mod symbols;
pub mod types;

use crate::ast::DesignFile;
use crate::error::FrontendError;

pub use check::AnalyzedArchitecture;
pub use symbols::{Symbol, SymbolTable};
pub use types::{Ty, TypeEnv};

/// A semantically-checked design: the (cloned) AST plus per-architecture
/// symbol tables.
#[derive(Debug, Clone)]
pub struct AnalyzedDesign {
    /// The checked design.
    pub design: DesignFile,
    /// One entry per architecture body, in file order.
    pub architectures: Vec<AnalyzedArchitecture>,
}

impl AnalyzedDesign {
    /// Look up the analysis result for the architecture of `entity`.
    pub fn architecture_of(&self, entity: &str) -> Option<&AnalyzedArchitecture> {
        self.architectures.iter().find(|a| a.entity == entity)
    }
}

/// Run semantic analysis on a parsed design.
///
/// # Errors
///
/// Returns [`FrontendError::Sema`] carrying *all* collected diagnostics
/// (analysis does not stop at the first error).
///
/// # Examples
///
/// ```
/// use vase_frontend::{analyze, parse_design_file};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = parse_design_file(
///     "entity e is port (quantity x : in real is voltage;
///                        quantity y : out real is voltage);
///      end entity;
///      architecture a of e is begin y == 2.0 * x; end architecture;",
/// )?;
/// let analyzed = analyze(&design)?;
/// assert!(analyzed.architecture_of("e").is_some());
/// # Ok(())
/// # }
/// ```
pub fn analyze(design: &DesignFile) -> Result<AnalyzedDesign, FrontendError> {
    let checker = check::Checker::new(design);
    match checker.check() {
        Ok(architectures) => Ok(AnalyzedDesign { design: design.clone(), architectures }),
        Err(errors) => Err(FrontendError::Sema(errors)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{FrontendError, SemaErrorKind};
    use crate::parser::parse_design_file;

    fn analyze_src(src: &str) -> Result<AnalyzedDesign, FrontendError> {
        analyze(&parse_design_file(src).expect("parses"))
    }

    fn expect_kinds(src: &str) -> Vec<SemaErrorKind> {
        match analyze_src(src) {
            Err(FrontendError::Sema(errs)) => errs.into_iter().map(|e| e.kind).collect(),
            Ok(_) => panic!("expected semantic errors"),
            Err(other) => panic!("expected sema errors, got {other}"),
        }
    }

    const RECEIVER: &str = r#"
        entity telephone is
          port (
            quantity line  : in  real is voltage;
            quantity local : in  real is voltage;
            quantity earph : out real is voltage limited at 1.5 v
                                        drives 270 ohm at 285 mv peak
          );
        end entity;
        architecture behavioral of telephone is
          quantity rvar : real;
          signal c1 : bit;
          constant aline  : real := 0.5;
          constant alocal : real := 0.25;
          constant r1c : real := 220.0;
          constant r2c : real := 330.0;
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
    fn receiver_module_from_paper_analyzes_cleanly() {
        let analyzed = analyze_src(RECEIVER).expect("analyzes");
        let arch = analyzed.architecture_of("telephone").expect("arch");
        let name = |text| analyzed.design.names.lookup(text).expect("interned");
        assert!(arch.symbols.get(name("rvar")).is_some());
        assert!(arch.symbols.get(name("c1")).unwrap().is_signal());
        assert_eq!(arch.symbols.ports().count(), 3);
    }

    #[test]
    fn undeclared_name_in_simultaneous() {
        let kinds = expect_kinds(
            "entity e is port (quantity y : out real is voltage); end entity;
             architecture a of e is begin y == 2.0 * ghost; end architecture;",
        );
        assert!(kinds.contains(&SemaErrorKind::UndeclaredName));
    }

    #[test]
    fn quantity_of_bit_type_rejected() {
        let kinds = expect_kinds(
            "entity e is end entity;
             architecture a of e is
               quantity q : bit;
             begin end architecture;",
        );
        assert!(kinds.contains(&SemaErrorKind::TypeMismatch));
    }

    #[test]
    fn assigning_in_port_rejected() {
        let kinds = expect_kinds(
            "entity e is port (quantity x : in real is voltage); end entity;
             architecture a of e is begin
               procedural is begin x := 1.0; end procedural;
             end architecture;",
        );
        assert!(kinds.contains(&SemaErrorKind::InvalidUse));
    }

    #[test]
    fn wait_in_process_rejected() {
        let kinds = expect_kinds(
            "entity e is end entity;
             architecture a of e is
               signal s : bit;
             begin
               process (s) is begin wait; end process;
             end architecture;",
        );
        assert!(kinds.contains(&SemaErrorKind::RestrictionViolation));
    }

    #[test]
    fn process_without_sensitivity_rejected() {
        let kinds = expect_kinds(
            "entity e is end entity;
             architecture a of e is
               signal s : bit;
             begin
               process is begin s <= '1'; end process;
             end architecture;",
        );
        assert!(kinds.contains(&SemaErrorKind::RestrictionViolation));
    }

    #[test]
    fn signal_read_after_write_rejected() {
        let kinds = expect_kinds(
            "entity e is end entity;
             architecture a of e is
               signal s1, s2 : bit;
             begin
               process (s1) is begin s2 <= '1'; s1 <= s2; end process;
             end architecture;",
        );
        assert!(kinds.contains(&SemaErrorKind::RestrictionViolation));
    }

    #[test]
    fn quantity_in_simultaneous_if_condition_rejected() {
        let kinds = expect_kinds(
            "entity e is port (quantity x : in real is voltage;
                               quantity y : out real is voltage); end entity;
             architecture a of e is begin
               if (x > 0.0) use y == x; else y == 0.0 - x; end use;
             end architecture;",
        );
        assert!(kinds.contains(&SemaErrorKind::RestrictionViolation));
    }

    #[test]
    fn conflicting_annotations_rejected() {
        let kinds = expect_kinds(
            "entity e is port (quantity x : in real is voltage current); end entity;
             architecture a of e is begin end architecture;",
        );
        assert!(kinds.contains(&SemaErrorKind::BadAnnotation));
    }

    #[test]
    fn undriven_out_port_rejected() {
        let kinds = expect_kinds(
            "entity e is port (quantity y : out real is voltage); end entity;
             architecture a of e is begin end architecture;",
        );
        assert!(kinds.contains(&SemaErrorKind::InvalidUse));
    }

    #[test]
    fn terminal_both_facets_rejected() {
        let kinds = expect_kinds(
            "entity e is port (terminal t : electrical;
                               quantity y : out real is voltage); end entity;
             architecture a of e is begin
               y == t'across + t'through;
             end architecture;",
        );
        assert!(kinds.contains(&SemaErrorKind::RestrictionViolation));
    }

    #[test]
    fn terminal_single_facet_ok() {
        let result = analyze_src(
            "entity e is port (terminal t : electrical;
                               quantity y : out real is voltage); end entity;
             architecture a of e is begin
               y == 2.0 * t'across;
             end architecture;",
        );
        assert!(result.is_ok(), "{result:?}");
    }

    #[test]
    fn function_without_return_rejected() {
        let kinds = expect_kinds(
            "entity e is end entity;
             architecture a of e is
               function f(x : real) return real is
               begin
                 null;
               end function;
             begin end architecture;",
        );
        assert!(kinds.contains(&SemaErrorKind::InvalidUse));
    }

    #[test]
    fn function_call_arity_checked() {
        let kinds = expect_kinds(
            "entity e is port (quantity y : out real is voltage); end entity;
             architecture a of e is
               function sq(x : real) return real is
               begin return x * x; end function;
             begin
               y == sq(1.0, 2.0);
             end architecture;",
        );
        assert!(kinds.contains(&SemaErrorKind::TypeMismatch));
    }

    #[test]
    fn package_constants_visible() {
        let result = analyze_src(
            "package consts is
               constant gain : real := 4.0;
             end package;
             entity e is port (quantity x : in real is voltage;
                               quantity y : out real is voltage); end entity;
             architecture a of e is begin
               y == gain * x;
             end architecture;",
        );
        assert!(result.is_ok(), "{result:?}");
    }

    #[test]
    fn signal_assignment_outside_process_rejected() {
        let kinds = expect_kinds(
            "entity e is end entity;
             architecture a of e is
               signal s : bit;
             begin
               procedural is begin s <= '1'; end procedural;
             end architecture;",
        );
        assert!(kinds.contains(&SemaErrorKind::RestrictionViolation));
    }

    #[test]
    fn duplicate_declaration_rejected() {
        let kinds = expect_kinds(
            "entity e is end entity;
             architecture a of e is
               quantity q : real;
               signal q : bit;
             begin end architecture;",
        );
        assert!(kinds.contains(&SemaErrorKind::DuplicateDeclaration));
    }

    #[test]
    fn all_errors_collected_not_just_first() {
        let kinds = expect_kinds(
            "entity e is end entity;
             architecture a of e is
               quantity q : bit;
               signal s : bit;
             begin
               process (s) is begin wait; end process;
             end architecture;",
        );
        assert!(kinds.len() >= 2, "{kinds:?}");
    }
}
