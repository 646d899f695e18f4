//! VASS synthesizability restrictions (paper Section 3).
//!
//! These checks go beyond ordinary static semantics: they ensure a
//! specification can be realized as a continuous signal-flow structure
//! plus a small FSM:
//!
//! * `for` loops must have statically-known bounds (so they can be
//!   unrolled into the signal-flow graph);
//! * process bodies must not contain `wait` statements;
//! * a *signal* must not be referenced after being assigned within a
//!   process body (so each signal maps to exactly one memory block);
//! * `while` loop bodies must not assign *signals* (the loop denotes a
//!   sampling functionality over quantities/variables).

use std::collections::HashSet;

use crate::ast::{Expr, SeqStmt, SeqStmtKind};
use crate::error::{SemaError, SemaErrorKind};
use crate::names::{Name, Names};
use crate::sema::symbols::SymbolTable;

/// Check the "no reference after assignment" rule for *signals* in a
/// process body: once a signal is assigned, later statements may not
/// read it. This lets the compiler allocate exactly one memory block
/// per signal (paper Section 4). `names` is the file's name table.
pub fn check_signal_read_after_write(
    names: &Names,
    body: &[SeqStmt],
    symbols: &SymbolTable,
    errors: &mut Vec<SemaError>,
) {
    let mut written = HashSet::new();
    walk_raw(names, body, symbols, &mut written, errors);
}

fn is_signal(symbols: &SymbolTable, name: Name) -> bool {
    symbols.get(name).is_some_and(|s| s.is_signal())
}

fn check_reads(
    names: &Names,
    expr: &Expr,
    symbols: &SymbolTable,
    written: &HashSet<Name>,
    errors: &mut Vec<SemaError>,
) {
    for id in expr.referenced_names() {
        if written.contains(&id.name) && is_signal(symbols, id.name) {
            errors.push(SemaError::new(
                SemaErrorKind::RestrictionViolation,
                format!(
                    "signal `{}` is referenced after being assigned in the same process; \
                     VASS requires one memory block per signal (no read-after-write)",
                    names.resolve(id.name)
                ),
                id.span,
            ));
        }
    }
}

fn walk_raw(
    names: &Names,
    body: &[SeqStmt],
    symbols: &SymbolTable,
    written: &mut HashSet<Name>,
    errors: &mut Vec<SemaError>,
) {
    for stmt in body {
        match &stmt.kind {
            SeqStmtKind::VarAssign { index, value, .. } => {
                if let Some(idx) = index {
                    check_reads(names, idx, symbols, written, errors);
                }
                check_reads(names, value, symbols, written, errors);
            }
            SeqStmtKind::SignalAssign { target, value } => {
                check_reads(names, value, symbols, written, errors);
                if is_signal(symbols, target.name) {
                    written.insert(target.name);
                }
            }
            SeqStmtKind::If { branches, else_body } => {
                for (cond, _) in branches {
                    check_reads(names, cond, symbols, written, errors);
                }
                // Writes in any branch poison subsequent reads: take the
                // union of writes across branches.
                let mut union = written.clone();
                for (_, b) in branches {
                    let mut w = written.clone();
                    walk_raw(names, b, symbols, &mut w, errors);
                    union.extend(w);
                }
                let mut w = written.clone();
                walk_raw(names, else_body, symbols, &mut w, errors);
                union.extend(w);
                *written = union;
            }
            SeqStmtKind::Case { selector, arms } => {
                check_reads(names, selector, symbols, written, errors);
                let mut union = written.clone();
                for arm in arms {
                    let mut w = written.clone();
                    walk_raw(names, &arm.body, symbols, &mut w, errors);
                    union.extend(w);
                }
                *written = union;
            }
            SeqStmtKind::For { lo, hi, body, .. } => {
                check_reads(names, lo, symbols, written, errors);
                check_reads(names, hi, symbols, written, errors);
                walk_raw(names, body, symbols, written, errors);
            }
            SeqStmtKind::While { cond, body } => {
                check_reads(names, cond, symbols, written, errors);
                walk_raw(names, body, symbols, written, errors);
            }
            SeqStmtKind::Return(Some(e)) => check_reads(names, e, symbols, written, errors),
            SeqStmtKind::Return(None) | SeqStmtKind::Null | SeqStmtKind::Wait => {}
        }
    }
}

/// Reject `wait` statements anywhere in a statement list (VASS process
/// bodies run to completion and suspend implicitly).
pub fn check_no_wait(body: &[SeqStmt], errors: &mut Vec<SemaError>) {
    for stmt in body {
        match &stmt.kind {
            SeqStmtKind::Wait => errors.push(SemaError::new(
                SemaErrorKind::RestrictionViolation,
                "`wait` statements are not allowed in VASS processes; processes resume on \
                 sensitivity-list events, run to completion, and suspend",
                stmt.span,
            )),
            SeqStmtKind::If { branches, else_body } => {
                for (_, b) in branches {
                    check_no_wait(b, errors);
                }
                check_no_wait(else_body, errors);
            }
            SeqStmtKind::Case { arms, .. } => {
                for arm in arms {
                    check_no_wait(&arm.body, errors);
                }
            }
            SeqStmtKind::For { body, .. } | SeqStmtKind::While { body, .. } => {
                check_no_wait(body, errors);
            }
            _ => {}
        }
    }
}

/// Reject *signal* assignments inside `while` bodies: a VASS `while`
/// denotes sampling over continuous values, and its outputs go through
/// sample-and-hold circuits, not signal memories (paper Fig. 4).
pub fn check_while_restrictions(
    names: &Names,
    body: &[SeqStmt],
    symbols: &SymbolTable,
    errors: &mut Vec<SemaError>,
) {
    for stmt in body {
        match &stmt.kind {
            SeqStmtKind::While { body: wbody, .. } => {
                forbid_signal_assign(names, wbody, symbols, errors);
                // nested whiles inside the body are checked recursively
                check_while_restrictions(names, wbody, symbols, errors);
            }
            SeqStmtKind::If { branches, else_body } => {
                for (_, b) in branches {
                    check_while_restrictions(names, b, symbols, errors);
                }
                check_while_restrictions(names, else_body, symbols, errors);
            }
            SeqStmtKind::Case { arms, .. } => {
                for arm in arms {
                    check_while_restrictions(names, &arm.body, symbols, errors);
                }
            }
            SeqStmtKind::For { body, .. } => {
                check_while_restrictions(names, body, symbols, errors)
            }
            _ => {}
        }
    }
}

fn forbid_signal_assign(
    names: &Names,
    body: &[SeqStmt],
    symbols: &SymbolTable,
    errors: &mut Vec<SemaError>,
) {
    for stmt in body {
        match &stmt.kind {
            SeqStmtKind::SignalAssign { target, .. } if is_signal(symbols, target.name) => {
                errors.push(SemaError::new(
                    SemaErrorKind::RestrictionViolation,
                    format!(
                        "signal `{}` is assigned inside a `while` loop; VASS while-loops \
                         denote sampling functionality and may only assign variables and \
                         quantities",
                        names.resolve(target.name)
                    ),
                    stmt.span,
                ));
            }
            SeqStmtKind::If { branches, else_body } => {
                for (_, b) in branches {
                    forbid_signal_assign(names, b, symbols, errors);
                }
                forbid_signal_assign(names, else_body, symbols, errors);
            }
            SeqStmtKind::Case { arms, .. } => {
                for arm in arms {
                    forbid_signal_assign(names, &arm.body, symbols, errors);
                }
            }
            SeqStmtKind::For { body, .. } | SeqStmtKind::While { body, .. } => {
                forbid_signal_assign(names, body, symbols, errors);
            }
            _ => {}
        }
    }
}

/// Fold an expression to a compile-time constant, consulting declared
/// constants. Used for `for`-loop bounds, which VASS requires to be
/// statically known so loops can be unrolled.
pub fn fold_static(expr: &Expr, symbols: &SymbolTable) -> Option<f64> {
    use crate::ast::ExprKind;
    match &expr.kind {
        ExprKind::Int(v) => Some(*v as f64),
        ExprKind::Real(v) => Some(*v),
        ExprKind::Name(id) => symbols.get(id.name).and_then(|s| s.const_value),
        ExprKind::Unary { op, operand } => {
            let v = fold_static(operand, symbols)?;
            match op {
                crate::ast::UnaryOp::Neg => Some(-v),
                crate::ast::UnaryOp::Plus => Some(v),
                crate::ast::UnaryOp::Abs => Some(v.abs()),
                crate::ast::UnaryOp::Not => None,
            }
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let a = fold_static(lhs, symbols)?;
            let b = fold_static(rhs, symbols)?;
            use crate::ast::BinaryOp::*;
            match op {
                Add => Some(a + b),
                Sub => Some(a - b),
                Mul => Some(a * b),
                Div => Some(a / b),
                Pow => Some(a.powf(b)),
                Mod => Some(a.rem_euclid(b)),
                Rem => Some(a % b),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Whether a `for`-loop bound is statically determined: it folds to a
/// constant, or it is an arithmetic combination of constants and
/// *enclosing* loop variables (which take a known value in every
/// unrolled copy of the outer loop, so the nested loop still unrolls —
/// e.g. `for j in 1 to i` inside `for i in 1 to 4`).
fn is_static_bound(expr: &Expr, symbols: &SymbolTable, loop_vars: &HashSet<Name>) -> bool {
    use crate::ast::ExprKind;
    if fold_static(expr, symbols).is_some() {
        return true;
    }
    match &expr.kind {
        ExprKind::Name(id) => loop_vars.contains(&id.name),
        ExprKind::Unary { op, operand } => {
            use crate::ast::UnaryOp::*;
            matches!(op, Neg | Plus | Abs) && is_static_bound(operand, symbols, loop_vars)
        }
        ExprKind::Binary { op, lhs, rhs } => {
            use crate::ast::BinaryOp::*;
            matches!(op, Add | Sub | Mul | Div | Pow | Mod | Rem)
                && is_static_bound(lhs, symbols, loop_vars)
                && is_static_bound(rhs, symbols, loop_vars)
        }
        _ => false,
    }
}

/// Check that every `for` loop in `body` has statically-known bounds.
pub fn check_for_bounds(
    names: &Names,
    body: &[SeqStmt],
    symbols: &SymbolTable,
    errors: &mut Vec<SemaError>,
) {
    let mut loop_vars = HashSet::new();
    check_for_bounds_in(names, body, symbols, &mut loop_vars, errors);
}

fn check_for_bounds_in(
    names: &Names,
    body: &[SeqStmt],
    symbols: &SymbolTable,
    loop_vars: &mut HashSet<Name>,
    errors: &mut Vec<SemaError>,
) {
    for stmt in body {
        match &stmt.kind {
            SeqStmtKind::For { var, lo, hi, body: fbody, .. } => {
                if !is_static_bound(lo, symbols, loop_vars)
                    || !is_static_bound(hi, symbols, loop_vars)
                {
                    errors.push(SemaError::new(
                        SemaErrorKind::RestrictionViolation,
                        format!(
                            "for-loop over `{}` must have statically-known bounds so the \
                             loop can be unrolled into the signal-flow structure",
                            names.resolve(var.name)
                        ),
                        stmt.span,
                    ));
                }
                // Inside the body the loop variable is static either
                // way; treating it so even after a bad bound avoids
                // cascading errors on the nested loops.
                let added = loop_vars.insert(var.name);
                check_for_bounds_in(names, fbody, symbols, loop_vars, errors);
                if added {
                    loop_vars.remove(&var.name);
                }
            }
            SeqStmtKind::If { branches, else_body } => {
                for (_, b) in branches {
                    check_for_bounds_in(names, b, symbols, loop_vars, errors);
                }
                check_for_bounds_in(names, else_body, symbols, loop_vars, errors);
            }
            SeqStmtKind::Case { arms, .. } => {
                for arm in arms {
                    check_for_bounds_in(names, &arm.body, symbols, loop_vars, errors);
                }
            }
            SeqStmtKind::While { body, .. } => {
                check_for_bounds_in(names, body, symbols, loop_vars, errors)
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ConcurrentStmt, ObjectClass, TypeName};
    use crate::parser::parse_design_file;
    use crate::sema::symbols::Symbol;
    use crate::span::Span;

    fn symbols(names: &mut Names) -> SymbolTable {
        let mut t = SymbolTable::new();
        for (n, c, ty) in [
            ("s1", ObjectClass::Signal, TypeName::Bit),
            ("s2", ObjectClass::Signal, TypeName::Bit),
            ("x", ObjectClass::Quantity, TypeName::Real),
        ] {
            t.insert(Symbol {
                name: n.into(),
                key: names.intern(n),
                class: c,
                ty,
                mode: None,
                annotations: vec![],
                is_port: false,
                const_value: None,
                span: Span::synthetic(),
            })
            .expect("insert");
        }
        let mut n = Symbol {
            name: "lim".into(),
            key: names.intern("lim"),
            class: ObjectClass::Constant,
            ty: TypeName::Integer,
            mode: None,
            annotations: vec![],
            is_port: false,
            const_value: Some(4.0),
            span: Span::synthetic(),
        };
        t.insert(n.clone()).expect("insert lim");
        n.name = "q".into();
        n.key = names.intern("q");
        n.const_value = None;
        t.insert(n).expect("insert q");
        t
    }

    /// A process body of statements `src`, the fixture's symbols, and
    /// the name table both are in.
    fn process_body(src: &str) -> (Vec<SeqStmt>, SymbolTable, Names) {
        let full = format!(
            "entity e is end entity; architecture a of e is begin
             process is variable v : real; variable i : integer; begin {src} end process;
             end architecture;"
        );
        let df = parse_design_file(&full).expect("parses");
        let body = match &df.architecture_of("e").unwrap().stmts[0] {
            ConcurrentStmt::Process { body, .. } => body.clone(),
            _ => unreachable!(),
        };
        let mut names = df.names;
        let symbols = symbols(&mut names);
        (body, symbols, names)
    }

    #[test]
    fn read_after_write_detected() {
        let (body, symbols, names) = process_body("s1 <= '1'; s2 <= s1;");
        let mut errors = Vec::new();
        check_signal_read_after_write(&names, &body, &symbols, &mut errors);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].message.contains("s1"));
    }

    #[test]
    fn write_without_later_read_ok() {
        let (body, symbols, names) = process_body("s1 <= '1'; s2 <= '0';");
        let mut errors = Vec::new();
        check_signal_read_after_write(&names, &body, &symbols, &mut errors);
        assert!(errors.is_empty());
    }

    #[test]
    fn read_before_write_ok() {
        let (body, symbols, names) = process_body("s2 <= s1; s1 <= '1';");
        let mut errors = Vec::new();
        check_signal_read_after_write(&names, &body, &symbols, &mut errors);
        assert!(errors.is_empty());
    }

    #[test]
    fn write_in_branch_poisons_later_read() {
        let (body, symbols, names) = process_body(
            "if (x > 0.0) then s1 <= '1'; end if;
             s2 <= s1;",
        );
        let mut errors = Vec::new();
        check_signal_read_after_write(&names, &body, &symbols, &mut errors);
        assert_eq!(errors.len(), 1);
    }

    #[test]
    fn reads_within_sibling_branches_ok() {
        // Writing in one branch and reading in the *other* branch of the
        // same if is fine: only one branch executes.
        let (body, symbols, names) = process_body(
            "if (x > 0.0) then s1 <= '1'; else s2 <= s1; end if;",
        );
        let mut errors = Vec::new();
        check_signal_read_after_write(&names, &body, &symbols, &mut errors);
        assert!(errors.is_empty());
    }

    #[test]
    fn wait_rejected_even_nested() {
        let (body, _, _) = process_body("if (x > 0.0) then wait; end if;");
        let mut errors = Vec::new();
        check_no_wait(&body, &mut errors);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].message.contains("wait"));
    }

    #[test]
    fn signal_assign_in_while_rejected() {
        let (body, symbols, names) = process_body("while x > 0.0 loop s1 <= '1'; end loop;");
        let mut errors = Vec::new();
        check_while_restrictions(&names, &body, &symbols, &mut errors);
        assert_eq!(errors.len(), 1);
    }

    #[test]
    fn var_assign_in_while_ok() {
        let (body, symbols, names) = process_body("while x > 0.0 loop v := v + 1.0; end loop;");
        let mut errors = Vec::new();
        check_while_restrictions(&names, &body, &symbols, &mut errors);
        assert!(errors.is_empty());
    }

    #[test]
    fn static_for_bounds_accepted() {
        let (body, symbols, names) = process_body("for i in 1 to lim loop v := v + x; end loop;");
        let mut errors = Vec::new();
        check_for_bounds(&names, &body, &symbols, &mut errors);
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn dynamic_for_bounds_rejected() {
        let (body, symbols, names) = process_body("for i in 1 to q loop v := v + x; end loop;");
        let mut errors = Vec::new();
        check_for_bounds(&names, &body, &symbols, &mut errors);
        assert_eq!(errors.len(), 1);
    }

    #[test]
    fn computed_static_bounds_accepted() {
        for src in [
            "for i in 0 to (lim - 1) loop v := v + x; end loop;",
            "for i in -lim to lim loop v := v + x; end loop;",
            "for i in 1 to 2 * lim + 1 loop v := v + x; end loop;",
        ] {
            let (body, symbols, names) = process_body(src);
            let mut errors = Vec::new();
            check_for_bounds(&names, &body, &symbols, &mut errors);
            assert!(errors.is_empty(), "{src}: {errors:?}");
        }
    }

    #[test]
    fn nested_loop_bound_on_outer_var_accepted() {
        let (body, symbols, names) = process_body(
            "for i in 1 to lim loop
               for j in 1 to i loop v := v + x; end loop;
             end loop;",
        );
        let mut errors = Vec::new();
        check_for_bounds(&names, &body, &symbols, &mut errors);
        assert!(errors.is_empty(), "{errors:?}");
        // The loop variable is only static *inside* its loop.
        let (body, symbols, names) = process_body(
            "for i in 1 to lim loop v := v + x; end loop;
             for j in 1 to i loop v := v + x; end loop;",
        );
        let mut errors = Vec::new();
        check_for_bounds(&names, &body, &symbols, &mut errors);
        assert_eq!(errors.len(), 1, "{errors:?}");
    }

    #[test]
    fn dynamic_outer_bound_reported_once_not_cascaded() {
        let (body, symbols, names) = process_body(
            "for i in 1 to q loop
               for j in 1 to i loop v := v + x; end loop;
             end loop;",
        );
        let mut errors = Vec::new();
        check_for_bounds(&names, &body, &symbols, &mut errors);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].message.contains("`i`"));
    }

    #[test]
    fn fold_static_uses_constants() {
        let mut names = Names::new();
        let t = symbols(&mut names);
        let e = crate::parser::parse_expression("2 * lim - 1", &mut names).expect("parses");
        assert_eq!(fold_static(&e, &t), Some(7.0));
        let e = crate::parser::parse_expression("q + 1", &mut names).expect("parses");
        assert_eq!(fold_static(&e, &t), None);
    }
}
