//! Lowering of VASS expressions into signal-flow blocks.
//!
//! Analog expressions become trees of scale/add/mul/... blocks;
//! conditions become control networks of comparators and logic gates.
//! Constant sub-expressions are folded, products with constant factors
//! become [`BlockKind::Scale`] blocks (amplifiers), and sums are
//! flattened into n-ary adders so they can match the library's summing
//! amplifiers.

use vase_frontend::ast::{
    AttributeKind, BinaryOp, CaseArm, Choice, Expr, ExprKind, SeqStmt, SeqStmtKind, UnaryOp,
};
use vase_frontend::names::{Name, Names};
use vase_frontend::sema::restrict::fold_static;
use vase_frontend::span::Span;
use vase_vhif::block::LogicOp;
use vase_vhif::{BlockId, BlockKind};

use crate::builder::GraphBuilder;
use crate::error::CompileError;

/// Lower an analog (real-valued) expression; returns the block whose
/// output carries its value.
pub fn lower_analog(b: &mut GraphBuilder<'_>, expr: &Expr) -> Result<BlockId, CompileError> {
    // Whole-expression constant folding first.
    if let Some(v) = fold_static(expr, b.symbols()) {
        return Ok(b.const_block(v));
    }
    match &expr.kind {
        ExprKind::Int(v) => Ok(b.const_block(*v as f64)),
        ExprKind::Real(v) => Ok(b.const_block(*v)),
        ExprKind::Name(id) => b.source(id.name, id.span),
        ExprKind::Unary { op, operand } => match op {
            UnaryOp::Plus => lower_analog(b, operand),
            UnaryOp::Neg => {
                let u = lower_analog(b, operand)?;
                b.node(BlockKind::Scale { gain: -1.0 }, &[u])
            }
            UnaryOp::Abs => {
                let u = lower_analog(b, operand)?;
                b.node(BlockKind::Abs, &[u])
            }
            UnaryOp::Not => Err(CompileError::Unsupported {
                what: "`not` in an analog expression".into(),
                span: expr.span,
            }),
        },
        ExprKind::Binary { op, .. } => match op {
            BinaryOp::Add | BinaryOp::Sub => lower_sum(b, expr),
            BinaryOp::Mul => lower_product(b, expr),
            BinaryOp::Div => lower_quotient(b, expr),
            BinaryOp::Pow => lower_power(b, expr),
            other => Err(CompileError::Unsupported {
                what: format!("operator `{other}` in an analog expression"),
                span: expr.span,
            }),
        },
        ExprKind::Attribute { prefix, attr, args } => match attr {
            AttributeKind::Dot => {
                let u = b.source(prefix.name, prefix.span)?;
                b.node(BlockKind::Differentiate { gain: 1.0 }, &[u])
            }
            AttributeKind::Integ => {
                let u = b.source(prefix.name, prefix.span)?;
                b.node(BlockKind::Integrate { gain: 1.0, initial: 0.0 }, &[u])
            }
            AttributeKind::Across | AttributeKind::Through => {
                // A terminal facet acts as an external analog input.
                let name = format!("{}'{attr}", b.names().resolve(prefix.name));
                if let Some(id) = b.find_interface(&name) {
                    return Ok(id);
                }
                Ok(b.raw_node(BlockKind::Input { name }))
            }
            AttributeKind::Above => Err(CompileError::Unsupported {
                what: "'above used as an analog value (it is an event)".into(),
                span: expr.span,
            }),
            AttributeKind::Delayed => {
                let _ = args;
                Err(CompileError::Unsupported {
                    what: "'delayed is not synthesizable in this subset".into(),
                    span: expr.span,
                })
            }
        },
        ExprKind::Call { name, args } => lower_call(b, name, args, expr.span),
        other => Err(CompileError::Unsupported {
            what: format!(
                "expression `{}` ({}) in analog context",
                expr.display(b.names()),
                b.names().debug_text(other)
            ),
            span: expr.span,
        }),
    }
}

/// Collect `±term` leaves of a `+`/`-` tree.
fn collect_terms<'e>(expr: &'e Expr, sign: f64, out: &mut Vec<(f64, &'e Expr)>) {
    match &expr.kind {
        ExprKind::Binary { op: BinaryOp::Add, lhs, rhs } => {
            collect_terms(lhs, sign, out);
            collect_terms(rhs, sign, out);
        }
        ExprKind::Binary { op: BinaryOp::Sub, lhs, rhs } => {
            collect_terms(lhs, sign, out);
            collect_terms(rhs, -sign, out);
        }
        ExprKind::Unary { op: UnaryOp::Neg, operand } => collect_terms(operand, -sign, out),
        _ => out.push((sign, expr)),
    }
}

/// Lower a sum/difference: flatten to weighted terms; produce a `Sub`
/// for a pure 2-term difference, otherwise an n-ary `Add` with
/// negative terms passed through `Scale(-1)` (matching the library's
/// summing/difference amplifiers).
fn lower_sum(b: &mut GraphBuilder<'_>, expr: &Expr) -> Result<BlockId, CompileError> {
    let mut terms = Vec::new();
    collect_terms(expr, 1.0, &mut terms);
    debug_assert!(terms.len() >= 2);
    if terms.len() == 2 && terms[0].0 > 0.0 && terms[1].0 < 0.0 {
        let lhs = lower_analog(b, terms[0].1)?;
        let rhs = lower_analog(b, terms[1].1)?;
        return b.node(BlockKind::Sub, &[lhs, rhs]);
    }
    let mut inputs = Vec::with_capacity(terms.len());
    for (sign, term) in terms {
        let mut id = lower_analog(b, term)?;
        if sign < 0.0 {
            id = b.node(BlockKind::Scale { gain: -1.0 }, &[id])?;
        }
        inputs.push(id);
    }
    b.node(BlockKind::Add { arity: inputs.len() }, &inputs)
}

fn lower_product(b: &mut GraphBuilder<'_>, expr: &Expr) -> Result<BlockId, CompileError> {
    let ExprKind::Binary { lhs, rhs, .. } = &expr.kind else { unreachable!() };
    // Constant factor → amplifier (Scale).
    if let Some(k) = fold_static(lhs, b.symbols()) {
        let u = lower_analog(b, rhs)?;
        return b.node(BlockKind::Scale { gain: k }, &[u]);
    }
    if let Some(k) = fold_static(rhs, b.symbols()) {
        let u = lower_analog(b, lhs)?;
        return b.node(BlockKind::Scale { gain: k }, &[u]);
    }
    let a = lower_analog(b, lhs)?;
    let c = lower_analog(b, rhs)?;
    b.node(BlockKind::Mul, &[a, c])
}

fn lower_quotient(b: &mut GraphBuilder<'_>, expr: &Expr) -> Result<BlockId, CompileError> {
    let ExprKind::Binary { lhs, rhs, .. } = &expr.kind else { unreachable!() };
    if let Some(k) = fold_static(rhs, b.symbols()) {
        if k == 0.0 {
            return Err(CompileError::Unsupported {
                what: "division by constant zero".into(),
                span: expr.span,
            });
        }
        let u = lower_analog(b, lhs)?;
        return b.node(BlockKind::Scale { gain: 1.0 / k }, &[u]);
    }
    let a = lower_analog(b, lhs)?;
    let c = lower_analog(b, rhs)?;
    b.node(BlockKind::Div, &[a, c])
}

/// `x ** n` for small integer `n` becomes a multiply chain; general
/// powers go through the log/antilog identity
/// `x ** y = antilog(y * log(x))` (paper Fig. 6's `comp1` pattern
/// family).
fn lower_power(b: &mut GraphBuilder<'_>, expr: &Expr) -> Result<BlockId, CompileError> {
    let ExprKind::Binary { lhs, rhs, .. } = &expr.kind else { unreachable!() };
    if let Some(n) = fold_static(rhs, b.symbols()) {
        if n.fract() == 0.0 && (1.0..=8.0).contains(&n) {
            let base = lower_analog(b, lhs)?;
            let mut acc = base;
            for _ in 1..(n as usize) {
                acc = b.node(BlockKind::Mul, &[acc, base])?;
            }
            return Ok(acc);
        }
    }
    let base = lower_analog(b, lhs)?;
    let log = b.node(BlockKind::Log, &[base])?;
    let exp_in = match fold_static(rhs, b.symbols()) {
        Some(k) => b.node(BlockKind::Scale { gain: k }, &[log])?,
        None => {
            let e = lower_analog(b, rhs)?;
            b.node(BlockKind::Mul, &[log, e])?
        }
    };
    b.node(BlockKind::Antilog, &[exp_in])
}

/// Lower a function call by inlining. Math intrinsics `log`/`exp`/
/// `ln` map directly to log/antilog blocks; user functions must have
/// straight-line bodies (assignments then a `return`), which are
/// symbolically executed and substituted.
fn lower_call(
    b: &mut GraphBuilder<'_>,
    name: &vase_frontend::ast::Ident,
    args: &[Expr],
    span: Span,
) -> Result<BlockId, CompileError> {
    match name.name {
        Name::LOG | Name::LN if args.len() == 1 => {
            let u = lower_analog(b, &args[0])?;
            return b.node(BlockKind::Log, &[u]);
        }
        Name::EXP | Name::ANTILOG if args.len() == 1 => {
            let u = lower_analog(b, &args[0])?;
            return b.node(BlockKind::Antilog, &[u]);
        }
        _ => {}
    }
    if let Some(func) = b.function(name.name) {
        let inlined = inline_function(b.names(), func, args, span)?;
        return lower_analog(b, &inlined);
    }
    // Indexed name: vec(i) with static index → source of the element.
    if b.symbols().get(name.name).is_some() {
        if args.len() == 1 {
            if let Some(i) = fold_static(&args[0], b.symbols()) {
                let element = b.element(name.name, i as i64);
                return b.source(element, span);
            }
        }
        return Err(CompileError::NotStatic {
            what: format!(
                "index of `{}` must be statically known",
                b.names().resolve(name.name)
            ),
            span,
        });
    }
    Err(CompileError::Unsupported {
        what: format!("call to unknown function `{}`", b.names().resolve(name.name)),
        span,
    })
}

/// Symbolically execute a straight-line function body, returning the
/// returned expression with parameters substituted by `args`; `names`
/// is the table the function's names are in.
///
/// # Errors
///
/// Fails on functions containing branches or loops (not inlinable in
/// this subset) or missing a return.
pub fn inline_function(
    names: &Names,
    func: &vase_frontend::ast::FunctionDecl,
    args: &[Expr],
    span: Span,
) -> Result<Expr, CompileError> {
    let mut env: Vec<(Name, Expr)> =
        func.params.iter().zip(args).map(|((pname, _), arg)| (pname.name, arg.clone())).collect();
    for stmt in &func.body {
        match &stmt.kind {
            SeqStmtKind::VarAssign { target, index: None, value } => {
                let substituted = substitute(value, &env);
                match env.iter_mut().find(|(name, _)| *name == target.name) {
                    Some((_, bound)) => *bound = substituted,
                    None => env.push((target.name, substituted)),
                }
            }
            SeqStmtKind::Return(Some(value)) => {
                return Ok(substitute(value, &env));
            }
            SeqStmtKind::Null => {}
            other => {
                return Err(CompileError::Unsupported {
                    what: format!(
                        "function `{}` contains a non-inlinable statement ({})",
                        names.resolve(func.name.name),
                        names.debug_text(other)
                    ),
                    span,
                })
            }
        }
    }
    Err(CompileError::Unsupported {
        what: format!("function `{}` has no return", names.resolve(func.name.name)),
        span,
    })
}

/// Substitute names bound in `env` throughout `expr`.
pub fn substitute(expr: &Expr, env: &[(Name, Expr)]) -> Expr {
    let kind = match &expr.kind {
        ExprKind::Name(id) => {
            if let Some((_, replacement)) = env.iter().find(|(name, _)| *name == id.name) {
                return replacement.clone();
            }
            ExprKind::Name(*id)
        }
        ExprKind::Call { name, args } => ExprKind::Call {
            name: *name,
            args: args.iter().map(|a| substitute(a, env)).collect(),
        },
        ExprKind::Attribute { prefix, attr, args } => ExprKind::Attribute {
            prefix: *prefix,
            attr: *attr,
            args: args.iter().map(|a| substitute(a, env)).collect(),
        },
        ExprKind::Unary { op, operand } => ExprKind::Unary {
            op: *op,
            operand: Box::new(substitute(operand, env)),
        },
        ExprKind::Binary { op, lhs, rhs } => ExprKind::Binary {
            op: *op,
            lhs: Box::new(substitute(lhs, env)),
            rhs: Box::new(substitute(rhs, env)),
        },
        other => other.clone(),
    };
    Expr::new(kind, expr.span)
}

/// Substitute an expression environment through a statement (used for
/// loop unrolling).
pub fn substitute_in_stmt(stmt: &SeqStmt, env: &[(Name, Expr)]) -> SeqStmt {
    let kind = match &stmt.kind {
        SeqStmtKind::VarAssign { target, index, value } => SeqStmtKind::VarAssign {
            target: *target,
            index: index.as_ref().map(|i| substitute(i, env)),
            value: substitute(value, env),
        },
        SeqStmtKind::SignalAssign { target, value } => SeqStmtKind::SignalAssign {
            target: *target,
            value: substitute(value, env),
        },
        SeqStmtKind::If { branches, else_body } => SeqStmtKind::If {
            branches: branches
                .iter()
                .map(|(c, b)| {
                    (substitute(c, env), b.iter().map(|s| substitute_in_stmt(s, env)).collect())
                })
                .collect(),
            else_body: else_body.iter().map(|s| substitute_in_stmt(s, env)).collect(),
        },
        SeqStmtKind::Case { selector, arms } => SeqStmtKind::Case {
            selector: substitute(selector, env),
            arms: arms
                .iter()
                .map(|a| CaseArm {
                    choices: a
                        .choices
                        .iter()
                        .map(|c| match c {
                            Choice::Expr(e) => Choice::Expr(substitute(e, env)),
                            Choice::Others => Choice::Others,
                        })
                        .collect(),
                    body: a.body.iter().map(|s| substitute_in_stmt(s, env)).collect(),
                })
                .collect(),
        },
        SeqStmtKind::For { var, lo, dir, hi, body } => SeqStmtKind::For {
            var: *var,
            lo: substitute(lo, env),
            dir: *dir,
            hi: substitute(hi, env),
            body: body.iter().map(|s| substitute_in_stmt(s, env)).collect(),
        },
        SeqStmtKind::While { cond, body } => SeqStmtKind::While {
            cond: substitute(cond, env),
            body: body.iter().map(|s| substitute_in_stmt(s, env)).collect(),
        },
        other => other.clone(),
    };
    SeqStmt::new(kind, stmt.span)
}


/// Lower a boolean condition into a control network; returns the block
/// whose control-class output carries the condition's truth value.
///
/// `hysteresis`, when non-zero, realizes analog comparisons with a
/// Schmitt trigger of that margin instead of an ideal comparator —
/// both to avoid repeated switchings (paper §6) and to break
/// combinational loops in `while` sampling structures (paper Fig. 4).
pub fn lower_cond(
    b: &mut GraphBuilder<'_>,
    expr: &Expr,
    hysteresis: f64,
) -> Result<BlockId, CompileError> {
    match &expr.kind {
        ExprKind::Bool(v) => Err(CompileError::Unsupported {
            what: format!("constant condition `{v}` controls nothing"),
            span: expr.span,
        }),
        ExprKind::Name(id) => {
            // A bit/boolean signal used directly as a condition.
            b.source(id.name, id.span)
        }
        ExprKind::Attribute { prefix, attr: AttributeKind::Above, args } => {
            let u = b.source(prefix.name, prefix.span)?;
            let threshold =
                fold_static(&args[0], b.symbols()).ok_or_else(|| CompileError::NotStatic {
                    what: "'above threshold".into(),
                    span: args[0].span,
                })?;
            if hysteresis > 0.0 {
                b.node(
                    BlockKind::SchmittTrigger {
                        low: threshold - hysteresis,
                        high: threshold + hysteresis,
                    },
                    &[u],
                )
            } else {
                b.node(BlockKind::Comparator { threshold }, &[u])
            }
        }
        ExprKind::Unary { op: UnaryOp::Not, operand } => {
            let c = lower_cond(b, operand, hysteresis)?;
            b.node(BlockKind::Logic { op: LogicOp::Not, arity: 1 }, &[c])
        }
        ExprKind::Binary { op, lhs, rhs } => match op {
            BinaryOp::And | BinaryOp::Or | BinaryOp::Xor => {
                let a = lower_cond(b, lhs, hysteresis)?;
                let c = lower_cond(b, rhs, hysteresis)?;
                let gate = match op {
                    BinaryOp::And => LogicOp::And,
                    BinaryOp::Or => LogicOp::Or,
                    _ => LogicOp::Xor,
                };
                b.node(BlockKind::Logic { op: gate, arity: 2 }, &[a, c])
            }
            BinaryOp::Nand | BinaryOp::Nor => {
                let a = lower_cond(b, lhs, hysteresis)?;
                let c = lower_cond(b, rhs, hysteresis)?;
                let gate = if *op == BinaryOp::Nand { LogicOp::And } else { LogicOp::Or };
                let g = b.node(BlockKind::Logic { op: gate, arity: 2 }, &[a, c])?;
                b.node(BlockKind::Logic { op: LogicOp::Not, arity: 1 }, &[g])
            }
            BinaryOp::Eq | BinaryOp::NotEq => {
                let invert = *op == BinaryOp::NotEq;
                let base = lower_bit_equality(b, lhs, rhs, hysteresis, expr.span)?;
                if invert {
                    b.node(BlockKind::Logic { op: LogicOp::Not, arity: 1 }, &[base])
                } else {
                    Ok(base)
                }
            }
            BinaryOp::Gt | BinaryOp::GtEq => lower_compare(b, lhs, rhs, hysteresis),
            BinaryOp::Lt | BinaryOp::LtEq => lower_compare(b, rhs, lhs, hysteresis),
            other => Err(CompileError::Unsupported {
                what: format!("operator `{other}` in a condition"),
                span: expr.span,
            }),
        },
        _ => Err(CompileError::Unsupported {
            what: format!("condition `{}`", expr.display(b.names())),
            span: expr.span,
        }),
    }
}

/// `sig = '1'` / `sig = true` / `event = true` forms.
fn lower_bit_equality(
    b: &mut GraphBuilder<'_>,
    lhs: &Expr,
    rhs: &Expr,
    hysteresis: f64,
    span: Span,
) -> Result<BlockId, CompileError> {
    // Normalize: constant on the right.
    let (var, konst) = match (&lhs.kind, &rhs.kind) {
        (_, ExprKind::Char(_)) | (_, ExprKind::Bool(_)) => (lhs, rhs),
        (ExprKind::Char(_), _) | (ExprKind::Bool(_), _) => (rhs, lhs),
        _ => {
            // Analog equality is not synthesizable as an event.
            return Err(CompileError::Unsupported {
                what: "equality between two non-constant analog values in a condition".into(),
                span,
            });
        }
    };
    let truth = match &konst.kind {
        ExprKind::Char(c) => *c == '1',
        ExprKind::Bool(v) => *v,
        _ => unreachable!("normalized above"),
    };
    let base = lower_cond(b, var, hysteresis)?;
    if truth {
        Ok(base)
    } else {
        b.node(BlockKind::Logic { op: LogicOp::Not, arity: 1 }, &[base])
    }
}

/// Analog comparison `a > b`: lower `a - b` and threshold it at zero.
fn lower_compare(
    b: &mut GraphBuilder<'_>,
    a: &Expr,
    c: &Expr,
    hysteresis: f64,
) -> Result<BlockId, CompileError> {
    // `x > konst` compares directly against the threshold.
    let margin = if let Some(k) = fold_static(c, b.symbols()) {
        let u = lower_analog(b, a)?;
        return if hysteresis > 0.0 {
            b.node(BlockKind::SchmittTrigger { low: k - hysteresis, high: k + hysteresis }, &[u])
        } else {
            b.node(BlockKind::Comparator { threshold: k }, &[u])
        };
    } else {
        let ua = lower_analog(b, a)?;
        let uc = lower_analog(b, c)?;
        b.node(BlockKind::Sub, &[ua, uc])?
    };
    if hysteresis > 0.0 {
        b.node(BlockKind::SchmittTrigger { low: -hysteresis, high: hysteresis }, &[margin])
    } else {
        b.node(BlockKind::Comparator { threshold: 0.0 }, &[margin])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use vase_frontend::{analyze, parse_design_file, parse_expression};
    use vase_vhif::SignalClass;

    /// Run `f` on a builder over a small architecture, with a parser for
    /// expressions over its names.
    fn harness(f: impl FnOnce(&mut GraphBuilder<'_>, &dyn Fn(&str) -> Expr)) {
        let design = parse_design_file(
            "entity e is port (quantity x : in real is voltage;
                               quantity w : in real is voltage;
                               quantity y : out real is voltage;
                               signal s : in bit);
             end entity;
             architecture a of e is
               constant k : real := 3.0;
               function sq(v : real) return real is
               begin return v * v; end function;
             begin
               y == x;
             end architecture;",
        )
        .expect("parses");
        let analyzed = analyze(&design).expect("analyzes");
        let arch = analyzed.architecture_of("e").expect("arch");
        let mut functions = HashMap::new();
        for func in &analyzed.design.architectures().next().expect("arch ast").functions {
            functions.insert(func.name.name, func);
        }
        let names = &analyzed.design.names;
        let mut b = GraphBuilder::new("t", names, &arch.symbols, functions);
        // The expressions name only objects of the design, so a copy of
        // its table gives them the design's names.
        f(&mut b, &|src| parse_expression(src, &mut names.clone()).expect("parses"));
    }

    fn lower(b: &mut GraphBuilder<'_>, expr: Expr) -> BlockId {
        lower_analog(b, &expr).expect("lowers")
    }

    #[test]
    fn constant_expression_folds_to_const() {
        harness(|b, parse| {
            let id = lower(b, parse("2.0 * k + 1.0"));
            assert!(matches!(b.graph().kind(id), BlockKind::Const { value } if *value == 7.0));
        });
    }

    #[test]
    fn constant_factor_becomes_scale() {
        harness(|b, parse| {
            let id = lower(b, parse("k * x"));
            assert!(matches!(b.graph().kind(id), BlockKind::Scale { gain } if *gain == 3.0));
        });
    }

    #[test]
    fn division_by_constant_becomes_scale() {
        harness(|b, parse| {
            let id = lower(b, parse("x / 2.0"));
            assert!(matches!(b.graph().kind(id), BlockKind::Scale { gain } if *gain == 0.5));
        });
    }

    #[test]
    fn weighted_sum_flattens_to_nary_add() {
        // The receiver's weighted sum: Aline*line + Alocal*local shape.
        harness(|b, parse| {
            let id = lower(b, parse("0.5 * x + 0.25 * w + x"));
            assert!(matches!(b.graph().kind(id), BlockKind::Add { arity: 3 }));
        });
    }

    #[test]
    fn pure_difference_becomes_sub() {
        harness(|b, parse| {
            let id = lower(b, parse("x - w"));
            assert!(matches!(b.graph().kind(id), BlockKind::Sub));
        });
    }

    #[test]
    fn signal_times_signal_becomes_mul() {
        harness(|b, parse| {
            let id = lower(b, parse("x * w"));
            assert!(matches!(b.graph().kind(id), BlockKind::Mul));
        });
    }

    #[test]
    fn dot_and_integ_lower_to_calculus_blocks() {
        harness(|b, parse| {
            let d = lower(b, parse("x'dot"));
            assert!(matches!(b.graph().kind(d), BlockKind::Differentiate { .. }));
            let i = lower(b, parse("x'integ"));
            assert!(matches!(b.graph().kind(i), BlockKind::Integrate { .. }));
        });
    }

    #[test]
    fn small_integer_power_becomes_mul_chain() {
        harness(|b, parse| {
            let id = lower(b, parse("x ** 3"));
            assert!(matches!(b.graph().kind(id), BlockKind::Mul));
            // x**3 = (x*x)*x → two Mul blocks
            let muls =
                b.graph().iter().filter(|(_, blk)| matches!(blk.kind, BlockKind::Mul)).count();
            assert_eq!(muls, 2);
        });
    }

    #[test]
    fn fractional_power_uses_log_antilog() {
        harness(|b, parse| {
            let id = lower(b, parse("x ** 0.5"));
            assert!(matches!(b.graph().kind(id), BlockKind::Antilog));
            assert!(b.graph().iter().any(|(_, blk)| matches!(blk.kind, BlockKind::Log)));
        });
    }

    #[test]
    fn intrinsic_log_exp() {
        harness(|b, parse| {
            let id = lower(b, parse("exp(log(x))"));
            assert!(matches!(b.graph().kind(id), BlockKind::Antilog));
        });
    }

    #[test]
    fn user_function_is_inlined() {
        harness(|b, parse| {
            let id = lower(b, parse("sq(x)"));
            // sq(x) = x * x → a Mul block, no call artifacts
            assert!(matches!(b.graph().kind(id), BlockKind::Mul));
        });
    }

    #[test]
    fn condition_signal_eq_one() {
        harness(|b, parse| {
            let e = parse("s = '1'");
            let id = lower_cond(b, &e, 0.0).expect("lowers");
            assert_eq!(b.graph().kind(id).output_class(), SignalClass::Control);
            assert!(matches!(b.graph().kind(id), BlockKind::ControlInput { .. }));
        });
    }

    #[test]
    fn condition_signal_eq_zero_inverts() {
        harness(|b, parse| {
            let e = parse("s = '0'");
            let id = lower_cond(b, &e, 0.0).expect("lowers");
            assert!(matches!(
                b.graph().kind(id),
                BlockKind::Logic { op: LogicOp::Not, .. }
            ));
        });
    }

    #[test]
    fn condition_above_becomes_comparator() {
        harness(|b, parse| {
            let e = parse("x'above(0.07)");
            let id = lower_cond(b, &e, 0.0).expect("lowers");
            assert!(matches!(
                b.graph().kind(id),
                BlockKind::Comparator { threshold } if *threshold == 0.07
            ));
        });
    }

    #[test]
    fn condition_above_with_hysteresis_becomes_schmitt() {
        harness(|b, parse| {
            let e = parse("x'above(0.5)");
            let id = lower_cond(b, &e, 0.05).expect("lowers");
            match b.graph().kind(id) {
                BlockKind::SchmittTrigger { low, high } => {
                    assert!((*low - 0.45).abs() < 1e-12);
                    assert!((*high - 0.55).abs() < 1e-12);
                }
                other => panic!("expected schmitt, got {other:?}"),
            }
        });
    }

    #[test]
    fn analog_comparison_with_constant_threshold() {
        harness(|b, parse| {
            let e = parse("x > 1.5");
            let id = lower_cond(b, &e, 0.0).expect("lowers");
            assert!(matches!(
                b.graph().kind(id),
                BlockKind::Comparator { threshold } if *threshold == 1.5
            ));
        });
    }

    #[test]
    fn analog_comparison_between_quantities_uses_sub() {
        harness(|b, parse| {
            let e = parse("x >= w");
            let id = lower_cond(b, &e, 0.0).expect("lowers");
            assert!(matches!(b.graph().kind(id), BlockKind::Comparator { .. }));
            assert!(b.graph().iter().any(|(_, blk)| matches!(blk.kind, BlockKind::Sub)));
        });
    }

    #[test]
    fn less_than_swaps_operands() {
        harness(|b, parse| {
            let e = parse("x < 2.0");
            // x < 2.0 ≡ 2.0 > x → Sub(2.0 - x)... constant on lhs: goes
            // through the Sub path since the *threshold* side is x.
            let id = lower_cond(b, &e, 0.0).expect("lowers");
            assert!(matches!(b.graph().kind(id), BlockKind::Comparator { .. }));
        });
    }

    #[test]
    fn logical_and_of_conditions() {
        harness(|b, parse| {
            let e = parse("(x > 0.0) and (s = '1')");
            let id = lower_cond(b, &e, 0.0).expect("lowers");
            assert!(matches!(b.graph().kind(id), BlockKind::Logic { op: LogicOp::And, .. }));
        });
    }

    #[test]
    fn substitute_replaces_names() {
        let mut names = Names::new();
        let v = names.intern("v");
        let env = [(v, parse_expression("a + 1.0", &mut names).expect("parses"))];
        let e = parse_expression("v * v", &mut names).expect("parses");
        let sub = substitute(&e, &env);
        assert_eq!(sub.display(&names).to_string(), "((a + 1) * (a + 1))");
    }
}
