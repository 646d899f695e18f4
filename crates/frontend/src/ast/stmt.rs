//! Sequential and concurrent statement nodes.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::annot::Annotation;
use crate::ast::decl::ObjectDecl;
use crate::ast::expr::{Expr, Ident};
use crate::names::Names;
use crate::span::Span;

/// Loop/range direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// `to` — ascending.
    To,
    /// `downto` — descending.
    Downto,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Direction::To => "to",
            Direction::Downto => "downto",
        })
    }
}

/// A `when` choice in a case statement or a simultaneous case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Choice {
    /// A specific value.
    Expr(Expr),
    /// `others`.
    Others,
}

impl Choice {
    /// The choice in VHDL surface syntax, its names spelled from `names`.
    pub fn display(&self, names: &Names) -> String {
        match self {
            Choice::Expr(e) => e.display(names).to_string(),
            Choice::Others => "others".to_owned(),
        }
    }
}

/// One arm of a (sequential or simultaneous) case statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseArm<S> {
    /// The `when` choices (at least one).
    pub choices: Vec<Choice>,
    /// The statements executed when a choice matches.
    pub body: Vec<S>,
}

/// The payload of a sequential statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SeqStmtKind {
    /// `target := value;` — variable/quantity assignment inside a
    /// procedural or function body.
    VarAssign {
        /// Assigned name.
        target: Ident,
        /// Optional array index.
        index: Option<Expr>,
        /// Assigned value.
        value: Expr,
    },
    /// `target <= value;` — *signal* assignment inside a process.
    SignalAssign {
        /// Assigned signal.
        target: Ident,
        /// Assigned value.
        value: Expr,
    },
    /// `if ... then ... elsif ... else ... end if;`
    If {
        /// `(condition, body)` pairs: the `if` branch followed by any
        /// `elsif` branches.
        branches: Vec<(Expr, Vec<SeqStmt>)>,
        /// The `else` body (may be empty).
        else_body: Vec<SeqStmt>,
    },
    /// `case selector is when ... end case;`
    Case {
        /// The selecting expression.
        selector: Expr,
        /// The arms.
        arms: Vec<CaseArm<SeqStmt>>,
    },
    /// `for var in lo to|downto hi loop ... end loop;` — VASS requires
    /// statically-known bounds so the loop can be unrolled (paper §3).
    For {
        /// Loop variable.
        var: Ident,
        /// Lower bound expression.
        lo: Expr,
        /// Direction.
        dir: Direction,
        /// Upper bound expression.
        hi: Expr,
        /// Loop body.
        body: Vec<SeqStmt>,
    },
    /// `while cond loop ... end loop;` — compiled into the sampling
    /// structure of paper Fig. 4.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<SeqStmt>,
    },
    /// `return expr;` (function bodies only).
    Return(Option<Expr>),
    /// `null;`
    Null,
    /// `wait ...;` — parsed so semantic analysis can reject it with a
    /// targeted diagnostic (VASS processes must not contain waits).
    Wait,
}

/// A sequential statement: kind plus span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeqStmt {
    /// What kind of statement.
    pub kind: SeqStmtKind,
    /// Where it appeared.
    pub span: Span,
}

impl SeqStmt {
    /// Construct a sequential statement.
    pub fn new(kind: SeqStmtKind, span: Span) -> Self {
        SeqStmt { kind, span }
    }
}

/// A concurrent statement inside an architecture body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ConcurrentStmt {
    /// `lhs == rhs;` — a simple simultaneous statement (a DAE).
    SimpleSimultaneous {
        /// Optional label.
        label: Option<Ident>,
        /// Left side of the relation.
        lhs: Expr,
        /// Right side of the relation.
        rhs: Expr,
        /// Statement span.
        span: Span,
    },
    /// `if cond use ... elsif ... else ... end use;` — selects among
    /// sets of simultaneous statements based on *signal* conditions.
    SimultaneousIf {
        /// Optional label.
        label: Option<Ident>,
        /// `(condition, body)` pairs.
        branches: Vec<(Expr, Vec<ConcurrentStmt>)>,
        /// The `else` body (may be empty).
        else_body: Vec<ConcurrentStmt>,
        /// Statement span.
        span: Span,
    },
    /// `case selector use when ... end case;`
    SimultaneousCase {
        /// Optional label.
        label: Option<Ident>,
        /// Selector expression.
        selector: Expr,
        /// Arms of simultaneous statements.
        arms: Vec<CaseArm<ConcurrentStmt>>,
        /// Statement span.
        span: Span,
    },
    /// A process statement — the event-driven part (paper §3): resumes
    /// on events in its sensitivity list, runs its body to completion,
    /// suspends. No `wait` statements.
    Process {
        /// Optional label.
        label: Option<Ident>,
        /// Sensitivity expressions: `'above` attributes or port names.
        sensitivity: Vec<Expr>,
        /// Process-local declarations (variables).
        decls: Vec<ObjectDecl>,
        /// Body.
        body: Vec<SeqStmt>,
        /// Statement span.
        span: Span,
    },
    /// A procedural statement — explicit continuous-time behavior as an
    /// instruction sequence, compiled to a pure functional block.
    Procedural {
        /// Optional label.
        label: Option<Ident>,
        /// Procedural-local declarations (variables).
        decls: Vec<ObjectDecl>,
        /// Body.
        body: Vec<SeqStmt>,
        /// Statement span.
        span: Span,
    },
    /// A quantity-annotation statement (VASS extension): attaches
    /// signal-property annotations to an architecture-local quantity.
    AnnotationStmt {
        /// The annotated quantity.
        target: Ident,
        /// The annotations.
        annotations: Vec<Annotation>,
        /// Statement span.
        span: Span,
    },
}

impl ConcurrentStmt {
    /// The source span of the statement.
    pub fn span(&self) -> Span {
        match self {
            ConcurrentStmt::SimpleSimultaneous { span, .. }
            | ConcurrentStmt::SimultaneousIf { span, .. }
            | ConcurrentStmt::SimultaneousCase { span, .. }
            | ConcurrentStmt::Process { span, .. }
            | ConcurrentStmt::Procedural { span, .. }
            | ConcurrentStmt::AnnotationStmt { span, .. } => *span,
        }
    }

    /// Whether this is part of the continuous-time partition (anything
    /// except a process).
    pub fn is_continuous_time(&self) -> bool {
        !matches!(self, ConcurrentStmt::Process { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_display() {
        assert_eq!(Direction::To.to_string(), "to");
        assert_eq!(Direction::Downto.to_string(), "downto");
    }

    #[test]
    fn concurrent_partition_classification() {
        let mut names = Names::new();
        let sim = ConcurrentStmt::SimpleSimultaneous {
            label: None,
            lhs: Expr::name(names.intern("y")),
            rhs: Expr::name(names.intern("x")),
            span: Span::synthetic(),
        };
        assert!(sim.is_continuous_time());
        let proc_stmt = ConcurrentStmt::Process {
            label: None,
            sensitivity: vec![],
            decls: vec![],
            body: vec![],
            span: Span::synthetic(),
        };
        assert!(!proc_stmt.is_continuous_time());
    }

    #[test]
    fn choice_display() {
        let names = Names::new();
        assert_eq!(Choice::Others.display(&names), "others");
        assert_eq!(Choice::Expr(Expr::real(1.0)).display(&names), "1");
    }
}
