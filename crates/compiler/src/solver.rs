//! DAE "solver" enumeration for simple simultaneous statements.
//!
//! A simple simultaneous statement `lhs == rhs` does not prescribe a
//! computation direction: except where inputs and outputs are known,
//! it cannot be mapped into a unique signal-flow structure. Each
//! rearrangement that isolates one unknown is a distinct "solver" for
//! the DAE, and the synthesis tool considers all of them while
//! searching for the best implementation (paper Section 4).

use vase_frontend::ast::{BinaryOp, Expr, ExprKind, Ident, UnaryOp};
use vase_frontend::ast::AttributeKind;
use vase_frontend::names::Name;
use vase_frontend::span::Span;

/// One equation `lhs == rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Equation {
    /// Left side.
    pub lhs: Expr,
    /// Right side.
    pub rhs: Expr,
    /// Source location.
    pub span: Span,
}

/// How an unknown is defined by a rearranged equation.
#[derive(Debug, Clone, PartialEq)]
pub enum Solution {
    /// `var = expr` — a direct (algebraic) definition.
    Direct(Expr),
    /// `var = ∫ expr dt` — the equation isolated `var'dot`; the
    /// variable is produced by an integrator (which legally closes
    /// feedback loops, so `expr` may reference `var` itself).
    Integral(Expr),
    /// `var = d(expr)/dt` — the equation isolated `var'integ`.
    Derivative(Expr),
}

impl Solution {
    /// The defining expression.
    pub fn expr(&self) -> &Expr {
        match self {
            Solution::Direct(e) | Solution::Integral(e) | Solution::Derivative(e) => e,
        }
    }

    /// Whether the produced block is stateful (an integrator), allowing
    /// self-referential definitions.
    pub fn allows_self_reference(&self) -> bool {
        matches!(self, Solution::Integral(_))
    }
}

/// All quantity-like names appearing in the equation.
pub fn equation_names(eq: &Equation) -> Vec<Name> {
    let mut names: Vec<Name> = Vec::new();
    for side in [&eq.lhs, &eq.rhs] {
        for id in side.referenced_names() {
            if !names.contains(&id.name) {
                names.push(id.name);
            }
        }
    }
    names
}

fn bin(op: BinaryOp, lhs: Expr, rhs: Expr) -> Expr {
    let span = lhs.span.merge(rhs.span);
    Expr::new(ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }, span)
}

fn neg(e: Expr) -> Expr {
    let span = e.span;
    Expr::new(ExprKind::Unary { op: UnaryOp::Neg, operand: Box::new(e) }, span)
}

/// What the isolation walk is searching for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Target {
    /// The plain name `var`.
    Plain(Name),
    /// The derivative `var'dot`.
    Dot(Name),
    /// The integral `var'integ`.
    Integ(Name),
}

/// Count occurrences of the isolation target in `expr`.
fn target_occurrences(expr: &Expr, target: Target) -> usize {
    match (&expr.kind, target) {
        (ExprKind::Name(id), Target::Plain(var)) => usize::from(id.name == var),
        (ExprKind::Attribute { prefix, attr, args }, _) => {
            let hit = match (attr, target) {
                (AttributeKind::Dot, Target::Dot(var)) => prefix.name == var,
                (AttributeKind::Integ, Target::Integ(var)) => prefix.name == var,
                _ => false,
            };
            usize::from(hit) + args.iter().map(|a| target_occurrences(a, target)).sum::<usize>()
        }
        (ExprKind::Call { args, .. }, _) => {
            args.iter().map(|a| target_occurrences(a, target)).sum()
        }
        (ExprKind::Unary { operand, .. }, _) => target_occurrences(operand, target),
        (ExprKind::Binary { lhs, rhs, .. }, _) => {
            target_occurrences(lhs, target) + target_occurrences(rhs, target)
        }
        _ => 0,
    }
}

/// Try to isolate `var` in `eq`, producing the rearranged defining
/// expression. Isolation succeeds when the chosen target (`var`,
/// `var'dot`, or `var'integ`) occurs exactly once and every operation
/// on the path from the equation root to it is invertible (`+`, `-`,
/// `*`, `/`, unary `-`, `log`, `exp`).
///
/// When `var'dot` is the target, additional plain references to `var`
/// are permitted: the resulting [`Solution::Integral`] closes the loop
/// through a (stateful) integrator, so self-reference is legal
/// hardware.
pub fn isolate(eq: &Equation, var: Name) -> Option<Solution> {
    let plain = occurrences_plain(eq, var);
    let dots = target_occurrences(&eq.lhs, Target::Dot(var))
        + target_occurrences(&eq.rhs, Target::Dot(var));
    let integs = target_occurrences(&eq.lhs, Target::Integ(var))
        + target_occurrences(&eq.rhs, Target::Integ(var));
    let target = if dots == 1 && integs == 0 {
        Target::Dot(var)
    } else if integs == 1 && dots == 0 && plain == 0 {
        Target::Integ(var)
    } else if plain == 1 && dots == 0 && integs == 0 {
        Target::Plain(var)
    } else {
        return None;
    };
    isolate_target(eq, target)
}

fn occurrences_plain(eq: &Equation, var: Name) -> usize {
    target_occurrences(&eq.lhs, Target::Plain(var))
        + target_occurrences(&eq.rhs, Target::Plain(var))
}

fn isolate_target(eq: &Equation, target: Target) -> Option<Solution> {
    let occ_l = target_occurrences(&eq.lhs, target);
    let (mut side, mut other) = if occ_l == 1 {
        (eq.lhs.clone(), eq.rhs.clone())
    } else {
        (eq.rhs.clone(), eq.lhs.clone())
    };
    let var = match target {
        Target::Plain(v) | Target::Dot(v) | Target::Integ(v) => v,
    };
    loop {
        match side.kind.clone() {
            ExprKind::Name(id)
                if id.name == var && matches!(target, Target::Plain(_)) =>
            {
                return Some(Solution::Direct(other))
            }
            ExprKind::Attribute { prefix, attr, .. } if prefix.name == var => {
                return match (attr, target) {
                    (AttributeKind::Dot, Target::Dot(_)) => Some(Solution::Integral(other)),
                    (AttributeKind::Integ, Target::Integ(_)) => {
                        Some(Solution::Derivative(other))
                    }
                    _ => None,
                };
            }
            ExprKind::Unary { op, operand } => match op {
                UnaryOp::Neg => {
                    other = neg(other);
                    side = *operand;
                }
                UnaryOp::Plus => side = *operand,
                _ => return None, // abs/not are not invertible
            },
            ExprKind::Binary { op, lhs, rhs } => {
                let in_lhs = target_occurrences(&lhs, target) == 1;
                match op {
                    BinaryOp::Add => {
                        if in_lhs {
                            other = bin(BinaryOp::Sub, other, *rhs);
                            side = *lhs;
                        } else {
                            other = bin(BinaryOp::Sub, other, *lhs);
                            side = *rhs;
                        }
                    }
                    BinaryOp::Sub => {
                        if in_lhs {
                            other = bin(BinaryOp::Add, other, *rhs);
                            side = *lhs;
                        } else {
                            other = bin(BinaryOp::Sub, *lhs, other);
                            side = *rhs;
                        }
                    }
                    BinaryOp::Mul => {
                        if in_lhs {
                            other = bin(BinaryOp::Div, other, *rhs);
                            side = *lhs;
                        } else {
                            other = bin(BinaryOp::Div, other, *lhs);
                            side = *rhs;
                        }
                    }
                    BinaryOp::Div => {
                        if in_lhs {
                            other = bin(BinaryOp::Mul, other, *rhs);
                            side = *lhs;
                        } else {
                            // a / x = o  →  x = a / o
                            other = bin(BinaryOp::Div, *lhs, other);
                            side = *rhs;
                        }
                    }
                    _ => return None,
                }
            }
            ExprKind::Call { name, args } if args.len() == 1 => {
                // Invert math intrinsics: log(x) = o → x = exp(o).
                let inverse = match name.name {
                    Name::LOG | Name::LN => Name::EXP,
                    Name::EXP | Name::ANTILOG => Name::LOG,
                    _ => return None,
                };
                other = Expr::new(
                    ExprKind::Call { name: Ident::synthetic(inverse), args: vec![other] },
                    side.span,
                );
                side = args.into_iter().next().expect("arity checked");
            }
            _ => return None,
        }
    }
}

/// Enumerate every `(unknown, solution)` rearrangement of `eq` — the
/// alternative "solvers" the mapper may choose among.
pub fn solutions(eq: &Equation) -> Vec<(Name, Solution)> {
    count_enumeration();
    equation_names(eq)
        .into_iter()
        .filter_map(|name| isolate(eq, name).map(|s| (name, s)))
        .collect()
}

#[cfg(test)]
thread_local! {
    static ENUMERATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Count one [`solutions`] call on this thread (the tests assert one
/// per statement); a no-op outside the tests.
fn count_enumeration() {
    #[cfg(test)]
    ENUMERATIONS.with(|c| c.set(c.get() + 1));
}

/// The number of [`solutions`] calls made by the current thread.
#[cfg(test)]
pub(crate) fn enumerations_on_thread() -> u64 {
    ENUMERATIONS.with(|c| c.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vase_frontend::names::Names;
    use vase_frontend::parse_expression;

    /// The equation `lhs == rhs` and the table its names are in.
    fn eq(lhs: &str, rhs: &str) -> (Equation, Names) {
        let mut names = Names::new();
        let eq = Equation {
            lhs: parse_expression(lhs, &mut names).expect("lhs parses"),
            rhs: parse_expression(rhs, &mut names).expect("rhs parses"),
            span: Span::synthetic(),
        };
        (eq, names)
    }

    /// The solution of `eq` for `var`, written out.
    fn solved(eq: &(Equation, Names), var: &str) -> Option<(Solution, String)> {
        let (eq, names) = eq;
        let sol = isolate(eq, names.lookup(var)?)?;
        let text = sol.expr().display(names).to_string();
        Some((sol, text))
    }

    #[test]
    fn direct_isolation_of_lhs() {
        let e = eq("y", "2.0 * x + 1.0");
        match solved(&e, "y") {
            Some((Solution::Direct(_), text)) => assert_eq!(text, "((2 * x) + 1)"),
            other => panic!("expected direct, got {other:?}"),
        }
    }

    #[test]
    fn isolation_inverts_add_and_mul() {
        // y == 2*x + 1  →  x = (y - 1) / 2
        let e = eq("y", "2.0 * x + 1.0");
        match solved(&e, "x") {
            Some((Solution::Direct(_), text)) => {
                assert_eq!(text, "((y - 1) / 2)");
            }
            other => panic!("expected direct, got {other:?}"),
        }
    }

    #[test]
    fn isolation_inverts_sub_rhs() {
        // y == a - x  →  x = a - y
        let e = eq("y", "a - x");
        match solved(&e, "x") {
            Some((Solution::Direct(_), text)) => assert_eq!(text, "(a - y)"),
            other => panic!("expected direct, got {other:?}"),
        }
    }

    #[test]
    fn isolation_inverts_div_denominator() {
        // y == a / x  →  x = a / y
        let e = eq("y", "a / x");
        match solved(&e, "x") {
            Some((Solution::Direct(_), text)) => assert_eq!(text, "(a / y)"),
            other => panic!("expected direct, got {other:?}"),
        }
    }

    #[test]
    fn dot_isolation_yields_integral() {
        // x'dot == -x + u  →  x = ∫(-x + u)
        let e = eq("x'dot", "u - x");
        match solved(&e, "x") {
            Some((Solution::Integral(_), text)) => {
                assert_eq!(text, "(u - x)");
            }
            other => panic!("expected integral, got {other:?}"),
        }
    }

    #[test]
    fn dot_under_arithmetic_still_isolates() {
        // 2 * x'dot + u == 0  →  x = ∫((0 - u) / 2)
        let e = eq("2.0 * x'dot + u", "0.0");
        match solved(&e, "x") {
            Some((Solution::Integral(_), text)) => assert_eq!(text, "((0 - u) / 2)"),
            other => panic!("expected integral, got {other:?}"),
        }
    }

    #[test]
    fn integ_isolation_yields_derivative() {
        let e = eq("y", "x'integ");
        match solved(&e, "x") {
            Some((Solution::Derivative(_), text)) => assert_eq!(text, "y"),
            other => panic!("expected derivative, got {other:?}"),
        }
    }

    #[test]
    fn log_inverts_to_exp() {
        let e = eq("y", "log(x)");
        match solved(&e, "x") {
            Some((Solution::Direct(_), text)) => assert_eq!(text, "exp(y)"),
            other => panic!("expected direct, got {other:?}"),
        }
    }

    #[test]
    fn repeated_variable_not_isolatable() {
        // x appears twice: x*x == y is not invertible by path isolation.
        let e = eq("x * x", "y");
        assert!(solved(&e, "x").is_none());
        // but y still is
        assert!(solved(&e, "y").is_some());
    }

    #[test]
    fn abs_is_not_invertible() {
        let e = eq("y", "abs x");
        assert!(solved(&e, "x").is_none());
    }

    #[test]
    fn solutions_enumerates_all_rearrangements() {
        // y == 2*x + 1: both x and y are isolatable → 2 solvers
        let e = eq("y", "2.0 * x + 1.0");
        let sols = solutions(&e.0);
        assert_eq!(sols.len(), 2);
        let vars: Vec<_> = sols.iter().map(|(v, _)| e.1.resolve(*v)).collect();
        assert!(vars.contains(&"x") && vars.contains(&"y"));
    }

    #[test]
    fn three_way_equation_has_three_solvers() {
        // paper-style: v == i * r has three rearrangements
        let e = eq("v", "i * r");
        assert_eq!(solutions(&e.0).len(), 3);
    }

    #[test]
    fn negated_variable() {
        // y == -x → x = -y
        let e = eq("y", "-x");
        match solved(&e, "x") {
            Some((Solution::Direct(_), text)) => assert_eq!(text, "(-(y))"),
            other => panic!("expected direct, got {other:?}"),
        }
    }
}
