//! Expression nodes.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::names::{Name, Names};
use crate::span::Span;

/// An identifier with its source span. VHDL identifiers are
/// case-insensitive; the lexer interns them lower-cased, so two
/// [`Ident`]s of one file refer to the same object iff their `name`s
/// are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ident {
    /// The interned name, in the file's [`Names`] table.
    pub name: Name,
    /// Where the identifier appeared.
    pub span: Span,
}

impl Ident {
    /// Construct an identifier.
    pub fn new(name: Name, span: Span) -> Self {
        Ident { name, span }
    }

    /// Construct a synthetic identifier not tied to source text.
    pub fn synthetic(name: Name) -> Self {
        Ident { name, span: Span::synthetic() }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnaryOp {
    /// Arithmetic negation `-x`.
    Neg,
    /// Identity `+x`.
    Plus,
    /// Logical negation `not x`.
    Not,
    /// Absolute value `abs x`.
    Abs,
}

impl fmt::Display for UnaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnaryOp::Neg => "-",
            UnaryOp::Plus => "+",
            UnaryOp::Not => "not",
            UnaryOp::Abs => "abs",
        };
        f.write_str(s)
    }
}

/// Binary operators, in VHDL precedence classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `**`
    Pow,
    /// `mod`
    Mod,
    /// `rem`
    Rem,
    /// `and`
    And,
    /// `or`
    Or,
    /// `xor`
    Xor,
    /// `nand`
    Nand,
    /// `nor`
    Nor,
    /// `&` (concatenation)
    Concat,
    /// `=`
    Eq,
    /// `/=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
}

impl BinaryOp {
    /// Whether the operator yields a boolean result.
    pub fn is_relational(&self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }

    /// Whether the operator is a logical connective.
    pub fn is_logical(&self) -> bool {
        matches!(
            self,
            BinaryOp::And | BinaryOp::Or | BinaryOp::Xor | BinaryOp::Nand | BinaryOp::Nor
        )
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Pow => "**",
            BinaryOp::Mod => "mod",
            BinaryOp::Rem => "rem",
            BinaryOp::And => "and",
            BinaryOp::Or => "or",
            BinaryOp::Xor => "xor",
            BinaryOp::Nand => "nand",
            BinaryOp::Nor => "nor",
            BinaryOp::Concat => "&",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "/=",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
        };
        f.write_str(s)
    }
}

/// VHDL-AMS attributes supported by VASS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttributeKind {
    /// `q'above(threshold)` — boolean event source (paper Section 3).
    Above,
    /// `q'dot` — time derivative.
    Dot,
    /// `q'integ` — time integral.
    Integ,
    /// `q'delayed(t)` — delayed quantity.
    Delayed,
    /// `t'across` — the across (voltage) facet of a terminal.
    Across,
    /// `t'through` — the through (current) facet of a terminal.
    Through,
}

impl AttributeKind {
    /// Parse an attribute name (already lower-cased).
    pub fn from_name(name: &str) -> Option<AttributeKind> {
        Some(match name {
            "above" => AttributeKind::Above,
            "dot" => AttributeKind::Dot,
            "integ" => AttributeKind::Integ,
            "delayed" => AttributeKind::Delayed,
            "across" => AttributeKind::Across,
            "through" => AttributeKind::Through,
            _ => return None,
        })
    }
}

impl fmt::Display for AttributeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AttributeKind::Above => "above",
            AttributeKind::Dot => "dot",
            AttributeKind::Integ => "integ",
            AttributeKind::Delayed => "delayed",
            AttributeKind::Across => "across",
            AttributeKind::Through => "through",
        };
        f.write_str(s)
    }
}

/// The payload of an expression node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// Character literal (`'0'`, `'1'`).
    Char(char),
    /// String literal (bit-vector value).
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// A simple name reference.
    Name(Ident),
    /// `name(args)` — a function call or indexed name; semantic
    /// analysis resolves which.
    Call {
        /// Callee or array name.
        name: Ident,
        /// Arguments or indices.
        args: Vec<Expr>,
    },
    /// `prefix'attr` or `prefix'attr(args)`.
    Attribute {
        /// The attributed name.
        prefix: Ident,
        /// Which attribute.
        attr: AttributeKind,
        /// Attribute arguments (e.g. the `'above` threshold).
        args: Vec<Expr>,
    },
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        operand: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

/// An expression: kind plus source span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Expr {
    /// What kind of expression.
    pub kind: ExprKind,
    /// Where it appeared.
    pub span: Span,
}

impl Expr {
    /// Construct an expression.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }

    /// A synthetic real-literal expression.
    pub fn real(value: f64) -> Self {
        Expr::new(ExprKind::Real(value), Span::synthetic())
    }

    /// A synthetic name expression.
    pub fn name(name: Name) -> Self {
        Expr::new(ExprKind::Name(Ident::synthetic(name)), Span::synthetic())
    }

    /// The expression in VHDL surface syntax, fully parenthesized, with
    /// its names spelled from `names` (the table they were interned in).
    pub fn display<'a>(&'a self, names: &'a Names) -> impl fmt::Display + 'a {
        ExprDisplay { expr: self, names }
    }

    /// Iterate over all simple-name and attribute-prefix identifiers
    /// referenced anywhere in this expression (used for data-dependency
    /// analysis during compilation).
    pub fn referenced_names(&self) -> Vec<&Ident> {
        let mut out = Vec::new();
        self.collect_names(&mut out);
        out
    }

    fn collect_names<'a>(&'a self, out: &mut Vec<&'a Ident>) {
        match &self.kind {
            ExprKind::Name(id) => out.push(id),
            ExprKind::Call { args, .. } => {
                for a in args {
                    a.collect_names(out);
                }
            }
            ExprKind::Attribute { prefix, args, .. } => {
                out.push(prefix);
                for a in args {
                    a.collect_names(out);
                }
            }
            ExprKind::Unary { operand, .. } => operand.collect_names(out),
            ExprKind::Binary { lhs, rhs, .. } => {
                lhs.collect_names(out);
                rhs.collect_names(out);
            }
            _ => {}
        }
    }

    /// If the expression is a compile-time numeric constant, evaluate it.
    /// Handles literals and arithmetic on them; names are not folded
    /// (use the semantic analyzer's constant environment for that).
    pub fn const_fold(&self) -> Option<f64> {
        match &self.kind {
            ExprKind::Int(v) => Some(*v as f64),
            ExprKind::Real(v) => Some(*v),
            ExprKind::Unary { op, operand } => {
                let v = operand.const_fold()?;
                match op {
                    UnaryOp::Neg => Some(-v),
                    UnaryOp::Plus => Some(v),
                    UnaryOp::Abs => Some(v.abs()),
                    UnaryOp::Not => None,
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let a = lhs.const_fold()?;
                let b = rhs.const_fold()?;
                match op {
                    BinaryOp::Add => Some(a + b),
                    BinaryOp::Sub => Some(a - b),
                    BinaryOp::Mul => Some(a * b),
                    BinaryOp::Div => Some(a / b),
                    BinaryOp::Pow => Some(a.powf(b)),
                    BinaryOp::Mod => Some(a.rem_euclid(b)),
                    BinaryOp::Rem => Some(a % b),
                    _ => None,
                }
            }
            _ => None,
        }
    }
}

/// [`Expr::display`]: an expression with the table its names are in.
struct ExprDisplay<'a> {
    expr: &'a Expr,
    names: &'a Names,
}

impl fmt::Display for ExprDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = self.names;
        let args = |f: &mut fmt::Formatter<'_>, args: &[Expr]| -> fmt::Result {
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", a.display(names))?;
            }
            Ok(())
        };
        match &self.expr.kind {
            ExprKind::Int(v) => write!(f, "{v}"),
            ExprKind::Real(v) => write!(f, "{v}"),
            ExprKind::Char(c) => write!(f, "'{c}'"),
            ExprKind::Str(s) => write!(f, "\"{s}\""),
            ExprKind::Bool(b) => write!(f, "{b}"),
            ExprKind::Name(id) => f.write_str(names.resolve(id.name)),
            ExprKind::Call { name, args: a } => {
                write!(f, "{}(", names.resolve(name.name))?;
                args(f, a)?;
                write!(f, ")")
            }
            ExprKind::Attribute { prefix, attr, args: a } => {
                write!(f, "{}'{attr}", names.resolve(prefix.name))?;
                if !a.is_empty() {
                    write!(f, "(")?;
                    args(f, a)?;
                    write!(f, ")")?;
                }
                Ok(())
            }
            ExprKind::Unary { op, operand } => match op {
                UnaryOp::Not | UnaryOp::Abs => write!(f, "{op} ({})", operand.display(names)),
                // VHDL permits a sign only at the head of a simple
                // expression, so print signs pre-parenthesized.
                _ => write!(f, "({op}({}))", operand.display(names)),
            },
            ExprKind::Binary { op, lhs, rhs } => {
                write!(f, "({} {op} {})", lhs.display(names), rhs.display(names))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bin(op: BinaryOp, l: Expr, r: Expr) -> Expr {
        Expr::new(
            ExprKind::Binary { op, lhs: Box::new(l), rhs: Box::new(r) },
            Span::synthetic(),
        )
    }

    #[test]
    fn const_fold_arithmetic() {
        let e = bin(BinaryOp::Mul, Expr::real(3.0), bin(BinaryOp::Add, Expr::real(1.0), Expr::real(2.0)));
        assert_eq!(e.const_fold(), Some(9.0));
    }

    #[test]
    fn const_fold_stops_at_names() {
        let x = Names::new().intern("x");
        let e = bin(BinaryOp::Add, Expr::real(1.0), Expr::name(x));
        assert_eq!(e.const_fold(), None);
    }

    #[test]
    fn referenced_names_walks_tree() {
        let mut names = Names::new();
        let attr = Expr::new(
            ExprKind::Attribute {
                prefix: Ident::synthetic(names.intern("line")),
                attr: AttributeKind::Above,
                args: vec![Expr::name(names.intern("vth"))],
            },
            Span::synthetic(),
        );
        let e = bin(BinaryOp::And, attr, Expr::name(names.intern("c1")));
        let found: Vec<_> = e.referenced_names().iter().map(|i| names.resolve(i.name)).collect();
        assert_eq!(found, vec!["line", "vth", "c1"]);
    }

    #[test]
    fn display_roundtrips_structure() {
        let mut names = Names::new();
        let e = bin(BinaryOp::Add, Expr::name(names.intern("a")), Expr::real(2.0));
        assert_eq!(e.display(&names).to_string(), "(a + 2)");
    }

    #[test]
    fn attribute_kind_from_name() {
        assert_eq!(AttributeKind::from_name("above"), Some(AttributeKind::Above));
        assert_eq!(AttributeKind::from_name("dot"), Some(AttributeKind::Dot));
        assert_eq!(AttributeKind::from_name("ramp"), None);
    }

    #[test]
    fn relational_and_logical_classification() {
        assert!(BinaryOp::LtEq.is_relational());
        assert!(!BinaryOp::Add.is_relational());
        assert!(BinaryOp::Nand.is_logical());
        assert!(!BinaryOp::Lt.is_logical());
    }
}
