//! Expression parsing (VHDL precedence).

use crate::ast::{AttributeKind, BinaryOp, Expr, ExprKind, UnaryOp};
use crate::error::ParseError;
use crate::parser::Parser;
use crate::token::{Keyword, TokenKind};

impl Parser<'_> {
    /// expr := relation { (and|or|xor|nand|nor) relation }
    pub(crate) fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_relation()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Keyword(Keyword::And) => BinaryOp::And,
                TokenKind::Keyword(Keyword::Or) => BinaryOp::Or,
                TokenKind::Keyword(Keyword::Xor) => BinaryOp::Xor,
                TokenKind::Keyword(Keyword::Nand) => BinaryOp::Nand,
                TokenKind::Keyword(Keyword::Nor) => BinaryOp::Nor,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_relation()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }, span);
        }
        Ok(lhs)
    }

    /// relation := simple_expr [relop simple_expr]
    fn parse_relation(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_simple_expr()?;
        let op = match self.peek_kind() {
            TokenKind::Eq => BinaryOp::Eq,
            TokenKind::NotEq => BinaryOp::NotEq,
            TokenKind::Lt => BinaryOp::Lt,
            TokenKind::LtEq => BinaryOp::LtEq,
            TokenKind::Gt => BinaryOp::Gt,
            TokenKind::GtEq => BinaryOp::GtEq,
            _ => return Ok(lhs),
        };
        self.advance();
        let rhs = self.parse_simple_expr()?;
        let span = lhs.span.merge(rhs.span);
        Ok(Expr::new(ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }, span))
    }

    /// simple_expr := [+|-] term { (+|-|&) term }
    fn parse_simple_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.here();
        let unary = match self.peek_kind() {
            TokenKind::Plus => {
                self.advance();
                Some(UnaryOp::Plus)
            }
            TokenKind::Minus => {
                self.advance();
                Some(UnaryOp::Neg)
            }
            _ => None,
        };
        let mut lhs = self.parse_term()?;
        if let Some(op) = unary {
            let span = start.merge(lhs.span);
            lhs = Expr::new(ExprKind::Unary { op, operand: Box::new(lhs) }, span);
        }
        loop {
            let op = match self.peek_kind() {
                TokenKind::Plus => BinaryOp::Add,
                TokenKind::Minus => BinaryOp::Sub,
                TokenKind::Ampersand => BinaryOp::Concat,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_term()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }, span);
        }
        Ok(lhs)
    }

    /// term := factor { (*|/|mod|rem) factor }
    fn parse_term(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_factor()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Star => BinaryOp::Mul,
                TokenKind::Slash => BinaryOp::Div,
                TokenKind::Keyword(Keyword::Mod) => BinaryOp::Mod,
                TokenKind::Keyword(Keyword::Rem) => BinaryOp::Rem,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_factor()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }, span);
        }
        Ok(lhs)
    }

    /// factor := primary [** primary] | abs primary | not primary
    fn parse_factor(&mut self) -> Result<Expr, ParseError> {
        let start = self.here();
        if self.eat_keyword(Keyword::Abs) {
            let operand = self.parse_primary()?;
            let span = start.merge(operand.span);
            return Ok(Expr::new(
                ExprKind::Unary { op: UnaryOp::Abs, operand: Box::new(operand) },
                span,
            ));
        }
        if self.eat_keyword(Keyword::Not) {
            let operand = self.parse_primary()?;
            let span = start.merge(operand.span);
            return Ok(Expr::new(
                ExprKind::Unary { op: UnaryOp::Not, operand: Box::new(operand) },
                span,
            ));
        }
        let base = self.parse_primary()?;
        if self.eat(&TokenKind::StarStar) {
            let exp = self.parse_primary()?;
            let span = base.span.merge(exp.span);
            return Ok(Expr::new(
                ExprKind::Binary { op: BinaryOp::Pow, lhs: Box::new(base), rhs: Box::new(exp) },
                span,
            ));
        }
        Ok(base)
    }

    /// primary := literal | true | false | name | ( expr )
    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        let span = self.here();
        match *self.peek_kind() {
            TokenKind::IntLiteral(v) => {
                self.advance();
                Ok(Expr::new(ExprKind::Int(v), span))
            }
            TokenKind::RealLiteral(v) => {
                self.advance();
                Ok(Expr::new(ExprKind::Real(v), span))
            }
            TokenKind::CharLiteral(c) => {
                self.advance();
                Ok(Expr::new(ExprKind::Char(c), span))
            }
            TokenKind::StringLiteral(s) => {
                self.advance();
                Ok(Expr::new(ExprKind::Str(self.names.resolve(s).to_owned()), span))
            }
            TokenKind::Keyword(Keyword::True) => {
                self.advance();
                Ok(Expr::new(ExprKind::Bool(true), span))
            }
            TokenKind::Keyword(Keyword::False) => {
                self.advance();
                Ok(Expr::new(ExprKind::Bool(false), span))
            }
            TokenKind::LParen => {
                self.advance();
                let inner = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(inner)
            }
            TokenKind::Ident(_) => self.parse_name(),
            other => Err(self.error_here(format!(
                "expected expression, found {}",
                other.describe(self.names)
            ))),
        }
    }

    /// name := ident [ ( args ) ] [ ' attr_ident [ ( args ) ] ]
    pub(crate) fn parse_name(&mut self) -> Result<Expr, ParseError> {
        let id = self.expect_ident()?;
        let mut span = id.span;
        let mut expr = if self.peek_kind() == &TokenKind::LParen {
            self.advance();
            let mut args = Vec::new();
            if self.peek_kind() != &TokenKind::RParen {
                loop {
                    args.push(self.parse_expr()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            let close = self.expect(&TokenKind::RParen)?;
            span = span.merge(close.span);
            Expr::new(ExprKind::Call { name: id, args }, span)
        } else {
            Expr::new(ExprKind::Name(id), span)
        };

        while self.peek_kind() == &TokenKind::Tick {
            // Attribute: prefix must currently be a simple name.
            let prefix = match &expr.kind {
                ExprKind::Name(id) => *id,
                _ => {
                    return Err(self.error_here(
                        "attributes may only be applied to simple names in VASS",
                    ))
                }
            };
            self.advance(); // tick
            // `across`/`through` double as annotation keywords, so the
            // attribute name may arrive as an identifier or a keyword.
            let attr_name = match *self.peek_kind() {
                TokenKind::Ident(name) => {
                    self.advance();
                    self.names.resolve(name)
                }
                TokenKind::Keyword(Keyword::Across) => {
                    self.advance();
                    "across"
                }
                TokenKind::Keyword(Keyword::Through) => {
                    self.advance();
                    "through"
                }
                other => {
                    return Err(self.error_here(format!(
                        "expected attribute name after `'`, found {}",
                        other.describe(self.names)
                    )))
                }
            };
            let attr = AttributeKind::from_name(attr_name).ok_or_else(|| {
                self.error_here(format!(
                    "unknown attribute `'{attr_name}` (VASS supports 'above, 'dot, 'integ, \
                     'delayed, 'across, 'through)"
                ))
            })?;
            let mut args = Vec::new();
            if self.eat(&TokenKind::LParen) {
                if self.peek_kind() != &TokenKind::RParen {
                    loop {
                        args.push(self.parse_expr()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                let close = self.expect(&TokenKind::RParen)?;
                span = span.merge(close.span);
            }
            expr = Expr::new(ExprKind::Attribute { prefix, attr, args }, span);
        }
        Ok(expr)
    }
}

#[cfg(test)]
mod tests {
    use crate::ast::{AttributeKind, BinaryOp, ExprKind, UnaryOp};
    use crate::names::Names;
    use crate::parser::parse_expression;

    fn parse(src: &str) -> crate::ast::Expr {
        parse_expression(src, &mut Names::new()).expect("expression parses")
    }

    /// `src` parsed and printed back.
    fn printed(src: &str) -> String {
        let mut names = Names::new();
        let e = parse_expression(src, &mut names).expect("expression parses");
        let printed = e.display(&names).to_string();
        printed
    }

    #[test]
    fn precedence_mul_over_add() {
        assert_eq!(printed("a + b * c"), "(a + (b * c))");
    }

    #[test]
    fn parenthesization_overrides() {
        assert_eq!(printed("(a + b) * c"), "((a + b) * c)");
    }

    #[test]
    fn relational_binds_looser_than_arith() {
        let e = parse("a + b >= c * d");
        match e.kind {
            ExprKind::Binary { op, .. } => assert_eq!(op, BinaryOp::GtEq),
            _ => panic!("expected binary"),
        }
    }

    #[test]
    fn logical_binds_loosest() {
        let e = parse("a = b and c = d");
        match e.kind {
            ExprKind::Binary { op, .. } => assert_eq!(op, BinaryOp::And),
            _ => panic!("expected binary"),
        }
    }

    #[test]
    fn unary_minus() {
        assert_eq!(printed("-a + b"), "((-(a)) + b)");
    }

    #[test]
    fn power_operator() {
        let e = parse("a ** 2");
        match e.kind {
            ExprKind::Binary { op, .. } => assert_eq!(op, BinaryOp::Pow),
            _ => panic!("expected pow"),
        }
    }

    #[test]
    fn abs_and_not() {
        let e = parse("abs x");
        assert!(matches!(e.kind, ExprKind::Unary { op: UnaryOp::Abs, .. }));
        let e = parse("not done");
        assert!(matches!(e.kind, ExprKind::Unary { op: UnaryOp::Not, .. }));
    }

    #[test]
    fn function_call_and_indexing_shape() {
        let mut names = Names::new();
        let e = parse_expression("f(a, b + 1.0)", &mut names).expect("parses");
        match e.kind {
            ExprKind::Call { name, args } => {
                assert_eq!(names.resolve(name.name), "f");
                assert_eq!(args.len(), 2);
            }
            _ => panic!("expected call"),
        }
    }

    #[test]
    fn above_attribute_from_paper() {
        // Paper Fig. 2: line'ABOVE(Vth)
        let mut names = Names::new();
        let e = parse_expression("line'above(vth)", &mut names).expect("parses");
        match e.kind {
            ExprKind::Attribute { prefix, attr, args } => {
                assert_eq!(names.resolve(prefix.name), "line");
                assert_eq!(attr, AttributeKind::Above);
                assert_eq!(args.len(), 1);
            }
            _ => panic!("expected attribute"),
        }
    }

    #[test]
    fn dot_attribute_no_args() {
        let e = parse("x'dot");
        match e.kind {
            ExprKind::Attribute { attr, args, .. } => {
                assert_eq!(attr, AttributeKind::Dot);
                assert!(args.is_empty());
            }
            _ => panic!("expected attribute"),
        }
    }

    #[test]
    fn unknown_attribute_rejected() {
        assert!(parse_expression("x'zen", &mut Names::new()).is_err());
    }

    #[test]
    fn char_literal_comparison() {
        let e = parse("c1 = '1'");
        match e.kind {
            ExprKind::Binary { op, rhs, .. } => {
                assert_eq!(op, BinaryOp::Eq);
                assert!(matches!(rhs.kind, ExprKind::Char('1')));
            }
            _ => panic!("expected binary"),
        }
    }

    #[test]
    fn boolean_literals() {
        assert!(matches!(parse("true").kind, ExprKind::Bool(true)));
        assert!(matches!(parse("false").kind, ExprKind::Bool(false)));
    }

    #[test]
    fn deep_nesting_parses() {
        let mut src = String::new();
        for _ in 0..60 {
            src.push('(');
        }
        src.push('x');
        for _ in 0..60 {
            src.push(')');
        }
        assert!(parse_expression(&src, &mut Names::new()).is_ok());
    }
}
