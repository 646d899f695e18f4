//! Recursive-descent parser for the VASS subset.
//!
//! Entry points: [`parse_design_file`] for a full source file, plus
//! narrower helpers used by tests ([`parse_expression`]).
//!
//! The grammar follows Section 3 of the paper. Annotations are written
//! inline with the declarative `is` syntax:
//!
//! ```text
//! quantity earph : out real is voltage limited at 1.5 v drives 270 ohm at 285 mv peak;
//! ```

mod decl;
mod expr;
mod stmt;

use crate::ast::{DesignFile, DesignUnit, Expr, Ident};
use crate::error::ParseError;
use crate::lexer::lex;
use crate::names::Names;
use crate::span::Span;
use crate::token::{Keyword, Token, TokenKind};

/// Parse a complete VASS design file.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let source = "
///   entity amp is
///     port (quantity vin : in real is voltage;
///           quantity vout : out real is voltage);
///   end entity;
///   architecture behav of amp is
///   begin
///     vout == 10.0 * vin;
///   end architecture;
/// ";
/// let design = vase_frontend::parser::parse_design_file(source)?;
/// assert!(design.entity("amp").is_some());
/// # Ok(())
/// # }
/// ```
pub fn parse_design_file(source: &str) -> Result<DesignFile, ParseError> {
    let mut names = Names::new();
    let tokens = lex(source, &mut names)
        .map_err(|e| ParseError { message: e.message, span: e.span })?;
    let mut parser = Parser::new(tokens, &names);
    let mut units = Vec::new();
    while !parser.at_eof() {
        units.push(parser.parse_design_unit()?);
    }
    Ok(DesignFile { units, names })
}

/// Parse with error recovery: collect as many design units *and* as
/// many parse errors as the source allows, instead of stopping at the
/// first problem.
///
/// Recovery is syntactic resynchronization: a failed statement or
/// declaration skips to the next `;`, a failed port to the next `;`
/// or `)`, and a failed design unit to the next top-level
/// `entity`/`architecture`/`package` keyword. Units (or statements)
/// that failed are omitted from the returned file, so downstream
/// analysis only ever sees well-formed AST — but it may see *partial*
/// designs, and its diagnostics read accordingly.
///
/// An empty error vector means the file parsed cleanly and the result
/// is identical to [`parse_design_file`]'s.
pub fn parse_design_file_recovering(source: &str) -> (DesignFile, Vec<ParseError>) {
    let mut names = Names::new();
    let tokens = match lex(source, &mut names) {
        Ok(t) => t,
        Err(e) => {
            return (DesignFile::new(), vec![ParseError { message: e.message, span: e.span }])
        }
    };
    let mut parser = Parser::recovering(tokens, &names);
    let mut units = Vec::new();
    while !parser.at_eof() {
        match parser.parse_design_unit() {
            Ok(unit) => units.push(unit),
            Err(e) => {
                parser.errors.push(e);
                parser.sync_to_unit_start();
            }
        }
    }
    let errors = parser.errors;
    (DesignFile { units, names }, errors)
}

/// Parse a standalone expression (primarily for tests and tooling),
/// interning its names into `names`.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered, or an
/// error if input remains after the expression.
pub fn parse_expression(source: &str, names: &mut Names) -> Result<Expr, ParseError> {
    let tokens = lex(source, names)
        .map_err(|e| ParseError { message: e.message, span: e.span })?;
    let mut parser = Parser::new(tokens, names);
    let expr = parser.parse_expr()?;
    if !parser.at_eof() {
        return Err(parser.error_here("unexpected input after expression"));
    }
    Ok(expr)
}

/// The parser state: a token buffer, a cursor, the table the tokens'
/// names are in, and (in recovery mode) the errors survived so far.
pub(crate) struct Parser<'n> {
    tokens: Vec<Token>,
    pos: usize,
    /// The names of the tokens, for messages and predefined names.
    pub(crate) names: &'n Names,
    /// When set, statement/declaration/port loops resynchronize after
    /// an error instead of propagating it.
    recover: bool,
    /// Errors recorded while recovering, in source order.
    pub(crate) errors: Vec<ParseError>,
}

impl<'n> Parser<'n> {
    pub(crate) fn new(tokens: Vec<Token>, names: &'n Names) -> Self {
        Parser { tokens, pos: 0, names, recover: false, errors: Vec::new() }
    }

    /// A parser that recovers from errors rather than failing fast.
    pub(crate) fn recovering(tokens: Vec<Token>, names: &'n Names) -> Self {
        Parser { recover: true, ..Parser::new(tokens, names) }
    }

    /// Record `e` in recovery mode (the caller then resynchronizes);
    /// propagate it in strict mode.
    pub(crate) fn note_error(&mut self, e: ParseError) -> Result<(), ParseError> {
        if self.recover {
            self.errors.push(e);
            Ok(())
        } else {
            Err(e)
        }
    }

    /// Handle a parse error inside a statement/declaration loop: in
    /// strict mode propagate it; in recovery mode record it and skip
    /// to just past the next `;` (or stop, unconsumed, at one of the
    /// `stops` keywords that terminates the caller's loop).
    pub(crate) fn recover_from(
        &mut self,
        e: ParseError,
        stops: &[Keyword],
    ) -> Result<(), ParseError> {
        self.note_error(e)?;
        while !self.at_eof() {
            if self.eat(&TokenKind::Semicolon) {
                return Ok(());
            }
            if stops.iter().any(|kw| self.check_keyword(*kw)) {
                return Ok(());
            }
            self.advance();
        }
        Ok(())
    }

    /// Skip to the start of the next top-level design unit. `end …;`
    /// closings are consumed whole so their `entity`/`architecture`
    /// keywords are not mistaken for a new unit, and a unit keyword
    /// only counts as a start when a name (or `body`) follows it —
    /// `end entity;` fragments do not.
    fn sync_to_unit_start(&mut self) {
        if !self.at_eof() {
            self.advance();
        }
        while !self.at_eof() {
            if self.check_keyword(Keyword::End) {
                while !self.at_eof() && !self.eat(&TokenKind::Semicolon) {
                    self.advance();
                }
                continue;
            }
            let unit_start = self.check_keyword(Keyword::Entity)
                || self.check_keyword(Keyword::Architecture)
                || self.check_keyword(Keyword::Package);
            let named = matches!(self.peek_nth(1).kind, TokenKind::Ident(_))
                || self.peek_nth(1).is_keyword(Keyword::Body);
            if unit_start && named {
                return;
            }
            self.advance();
        }
    }

    pub(crate) fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    pub(crate) fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    /// Look ahead `n` tokens (0 = current).
    pub(crate) fn peek_nth(&self, n: usize) -> &Token {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)]
    }

    pub(crate) fn at_eof(&self) -> bool {
        matches!(self.peek_kind(), TokenKind::Eof)
    }

    pub(crate) fn advance(&mut self) -> Token {
        let tok = *self.peek();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        tok
    }

    pub(crate) fn here(&self) -> Span {
        self.peek().span
    }

    pub(crate) fn error_here(&self, message: impl Into<String>) -> ParseError {
        ParseError { message: message.into(), span: self.here() }
    }

    /// Consume the current token if it matches `kind` exactly.
    pub(crate) fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek_kind() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    /// Consume the current token if it is keyword `kw`.
    pub(crate) fn eat_keyword(&mut self, kw: Keyword) -> bool {
        if self.peek().is_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    pub(crate) fn check_keyword(&self, kw: Keyword) -> bool {
        self.peek().is_keyword(kw)
    }

    /// Require the current token to match `kind`.
    pub(crate) fn expect(&mut self, kind: &TokenKind) -> Result<Token, ParseError> {
        if self.peek_kind() == kind {
            Ok(self.advance())
        } else {
            Err(self.error_here(format!(
                "expected {}, found {}",
                kind.describe(self.names),
                self.peek_kind().describe(self.names)
            )))
        }
    }

    /// Require the current token to be keyword `kw`.
    pub(crate) fn expect_keyword(&mut self, kw: Keyword) -> Result<Token, ParseError> {
        if self.peek().is_keyword(kw) {
            Ok(self.advance())
        } else {
            Err(self.error_here(format!(
                "expected keyword `{kw}`, found {}",
                self.peek_kind().describe(self.names)
            )))
        }
    }

    /// Require an identifier and return it.
    pub(crate) fn expect_ident(&mut self) -> Result<Ident, ParseError> {
        match *self.peek_kind() {
            TokenKind::Ident(name) => {
                let span = self.here();
                self.advance();
                Ok(Ident::new(name, span))
            }
            other => Err(self.error_here(format!(
                "expected identifier, found {}",
                other.describe(self.names)
            ))),
        }
    }

    /// Consume the optional closing name after `end …` (e.g. `end
    /// entity amp;`). IEEE 1076 requires it to repeat the name of the
    /// `unit` being closed: `expected`, or nothing when the unit (an
    /// unlabelled process or procedural) has no name. A mismatch is
    /// reported at the closing name, citing the expected name and where
    /// it was declared.
    pub(crate) fn eat_trailing_name(
        &mut self,
        unit: &str,
        expected: Option<&Ident>,
    ) -> Result<(), ParseError> {
        let TokenKind::Ident(found) = *self.peek_kind() else {
            return Ok(());
        };
        let message = match expected {
            Some(name) if name.name == found => None,
            Some(name) => Some(format!(
                "closing name `{}` does not match the {unit} name `{}` declared at {}",
                self.names.resolve(found),
                self.names.resolve(name.name),
                name.span
            )),
            None => Some(format!(
                "closing name `{}` given for a {unit} without a label",
                self.names.resolve(found)
            )),
        };
        let error = message.map(|m| self.error_here(m));
        self.advance();
        match error {
            Some(e) => self.note_error(e),
            None => Ok(()),
        }
    }

    fn parse_design_unit(&mut self) -> Result<DesignUnit, ParseError> {
        if self.check_keyword(Keyword::Entity) {
            Ok(DesignUnit::Entity(self.parse_entity()?))
        } else if self.check_keyword(Keyword::Architecture) {
            Ok(DesignUnit::Architecture(self.parse_architecture()?))
        } else if self.check_keyword(Keyword::Package) {
            Ok(DesignUnit::Package(self.parse_package()?))
        } else {
            Err(self.error_here(format!(
                "expected `entity`, `architecture`, or `package`, found {}",
                self.peek_kind().describe(self.names)
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_entity_architecture() {
        let design = parse_design_file(
            "entity e is end entity;
             architecture a of e is begin end architecture;",
        )
        .expect("parses");
        assert_eq!(design.units.len(), 2);
        assert!(design.entity("e").is_some());
        assert!(design.architecture_of("e").is_some());
    }

    #[test]
    fn reports_error_on_garbage() {
        let err = parse_design_file("banana").unwrap_err();
        assert!(err.to_string().contains("expected"));
    }

    #[test]
    fn expression_entry_point_rejects_trailing_tokens() {
        assert!(parse_expression("1 + 2", &mut Names::new()).is_ok());
        assert!(parse_expression("1 + 2 extra", &mut Names::new()).is_err());
    }

    #[test]
    fn recovery_reports_multiple_statement_errors() {
        let (file, errors) = parse_design_file_recovering(
            "entity e is port (quantity x : in real is voltage;
                               quantity y : out real is voltage); end entity;
             architecture a of e is begin
               y == x + ;
               y == * x;
               y == 2.0 * x;
             end architecture;",
        );
        assert_eq!(errors.len(), 2, "{errors:#?}");
        let arch = file.architecture_of("e").expect("architecture survives");
        assert_eq!(arch.stmts.len(), 1, "the good statement is kept");
        // Errors arrive in source order with distinct positions.
        assert!(errors[0].span.start.line < errors[1].span.start.line);
    }

    #[test]
    fn recovery_skips_broken_unit_and_keeps_the_next() {
        let (file, errors) = parse_design_file_recovering(
            "entity broken is port ( end entity;
             entity ok is end entity;
             architecture a of ok is begin end architecture;",
        );
        assert!(!errors.is_empty());
        assert!(file.entity("ok").is_some());
        assert!(file.architecture_of("ok").is_some());
    }

    #[test]
    fn recovery_collects_port_and_declaration_errors() {
        let (file, errors) = parse_design_file_recovering(
            "entity e is port (quantity a : in real is voltage;
                               quantity b : mystery;
                               quantity y : out real is voltage); end entity;
             architecture a of e is
               quantity q1 : real
             begin
               y == a;
             end architecture;",
        );
        assert_eq!(errors.len(), 2, "{errors:#?}");
        let entity = file.entity("e").expect("entity survives");
        assert_eq!(entity.ports.len(), 2, "good ports are kept");
        assert_eq!(file.architecture_of("e").expect("arch").stmts.len(), 1);
    }

    #[test]
    fn recovery_on_clean_source_matches_strict_parse() {
        let src = "entity e is port (quantity x : in real is voltage;
                                     quantity y : out real is voltage); end entity;
                   architecture a of e is begin y == 2.0 * x; end architecture;";
        let (file, errors) = parse_design_file_recovering(src);
        assert!(errors.is_empty());
        assert_eq!(file.units.len(), parse_design_file(src).expect("parses").units.len());
    }

    #[test]
    fn recovery_never_loops_on_truncated_input() {
        // Truncations that leave every bracket and region open must
        // still terminate (with errors), not spin.
        let src = "entity e is port (quantity x : in real is voltage;
                    quantity y : out real is voltage); end entity;
                   architecture a of e is begin y == x;";
        for len in 0..src.len() {
            if !src.is_char_boundary(len) {
                continue;
            }
            let (_, _) = parse_design_file_recovering(&src[..len]);
        }
    }
}
