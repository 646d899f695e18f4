//! Parsing of concurrent and sequential statements.

use crate::ast::{
    CaseArm, Choice, ConcurrentStmt, Direction, SeqStmt, SeqStmtKind,
};
use crate::error::ParseError;
use crate::parser::Parser;
use crate::token::{Keyword, TokenKind};

impl Parser<'_> {
    /// concurrent := [label `:`] (simultaneous_if | simultaneous_case |
    ///               process | procedural | annotation_stmt | simple_simultaneous)
    pub(crate) fn parse_concurrent_stmt(&mut self) -> Result<ConcurrentStmt, ParseError> {
        // Optional label: `ident :` not followed by `=` (which would be `:=`).
        let label = if matches!(self.peek_kind(), TokenKind::Ident(_))
            && self.peek_nth(1).kind == TokenKind::Colon
        {
            let id = self.expect_ident()?;
            self.expect(&TokenKind::Colon)?;
            Some(id)
        } else {
            None
        };

        if self.check_keyword(Keyword::If) {
            self.parse_simultaneous_if(label)
        } else if self.check_keyword(Keyword::Case) {
            self.parse_simultaneous_case(label)
        } else if self.check_keyword(Keyword::Process) {
            self.parse_process(label)
        } else if self.check_keyword(Keyword::Procedural) {
            self.parse_procedural(label)
        } else if self.check_keyword(Keyword::Quantity) {
            // `quantity id is <annots>;` in the statement part attaches
            // annotations to an already-declared quantity.
            let start = self.here();
            self.advance();
            let target = self.expect_ident()?;
            self.expect_keyword(Keyword::Is)?;
            let annotations = self.parse_annotation_list()?;
            let end = self.expect(&TokenKind::Semicolon)?;
            Ok(ConcurrentStmt::AnnotationStmt { target, annotations, span: start.merge(end.span) })
        } else {
            // simple simultaneous: expr == expr ;
            let start = self.here();
            let lhs = self.parse_expr()?;
            self.expect(&TokenKind::EqEq).map_err(|_| {
                self.error_here(
                    "expected `==` (simple simultaneous statement) — processes, \
                     procedurals, and simultaneous if/case are the only other \
                     concurrent statements in VASS",
                )
            })?;
            let rhs = self.parse_expr()?;
            let end = self.expect(&TokenKind::Semicolon)?;
            Ok(ConcurrentStmt::SimpleSimultaneous { label, lhs, rhs, span: start.merge(end.span) })
        }
    }

    /// simultaneous_if := `if` expr `use` {concurrent}
    ///                    {`elsif` expr `use` {concurrent}}
    ///                    [`else` {concurrent}] `end` `use` `;`
    fn parse_simultaneous_if(
        &mut self,
        label: Option<crate::ast::Ident>,
    ) -> Result<ConcurrentStmt, ParseError> {
        let start = self.here();
        self.expect_keyword(Keyword::If)?;
        let mut branches = Vec::new();
        let cond = self.parse_expr()?;
        self.expect_keyword(Keyword::Use)?;
        let body = self.parse_concurrent_body()?;
        branches.push((cond, body));
        let mut else_body = Vec::new();
        loop {
            if self.eat_keyword(Keyword::Elsif) {
                let cond = self.parse_expr()?;
                self.expect_keyword(Keyword::Use)?;
                let body = self.parse_concurrent_body()?;
                branches.push((cond, body));
            } else if self.eat_keyword(Keyword::Else) {
                else_body = self.parse_concurrent_body()?;
                break;
            } else {
                break;
            }
        }
        self.expect_keyword(Keyword::End)?;
        self.expect_keyword(Keyword::Use)?;
        let end = self.expect(&TokenKind::Semicolon)?;
        Ok(ConcurrentStmt::SimultaneousIf {
            label,
            branches,
            else_body,
            span: start.merge(end.span),
        })
    }

    /// Concurrent statements until `elsif`/`else`/`end`/`when`.
    fn parse_concurrent_body(&mut self) -> Result<Vec<ConcurrentStmt>, ParseError> {
        const STOPS: [Keyword; 4] = [Keyword::Elsif, Keyword::Else, Keyword::End, Keyword::When];
        let mut body = Vec::new();
        while !STOPS.iter().any(|kw| self.check_keyword(*kw)) && !self.at_eof() {
            match self.parse_concurrent_stmt() {
                Ok(s) => body.push(s),
                Err(e) => self.recover_from(e, &STOPS)?,
            }
        }
        Ok(body)
    }

    /// simultaneous_case := `case` expr `use` {`when` choices `=>`
    ///                      {concurrent}} `end` `case` `;`
    fn parse_simultaneous_case(
        &mut self,
        label: Option<crate::ast::Ident>,
    ) -> Result<ConcurrentStmt, ParseError> {
        let start = self.here();
        self.expect_keyword(Keyword::Case)?;
        let selector = self.parse_expr()?;
        self.expect_keyword(Keyword::Use)?;
        let mut arms = Vec::new();
        while self.eat_keyword(Keyword::When) {
            let choices = self.parse_choices()?;
            self.expect(&TokenKind::Arrow)?;
            let body = self.parse_concurrent_body()?;
            arms.push(CaseArm { choices, body });
        }
        self.expect_keyword(Keyword::End)?;
        self.expect_keyword(Keyword::Case)?;
        let end = self.expect(&TokenKind::Semicolon)?;
        Ok(ConcurrentStmt::SimultaneousCase {
            label,
            selector,
            arms,
            span: start.merge(end.span),
        })
    }

    fn parse_choices(&mut self) -> Result<Vec<Choice>, ParseError> {
        let mut choices = Vec::new();
        loop {
            if self.eat_keyword(Keyword::Others) {
                choices.push(Choice::Others);
            } else {
                choices.push(Choice::Expr(self.parse_expr()?));
            }
            if !self.eat(&TokenKind::Bar) {
                break;
            }
        }
        Ok(choices)
    }

    /// process := `process` [`(` sens {`,` sens} `)`] [`is`] {decl}
    ///            `begin` {seq} `end` [`process`] [id] `;`
    fn parse_process(
        &mut self,
        label: Option<crate::ast::Ident>,
    ) -> Result<ConcurrentStmt, ParseError> {
        let start = self.here();
        self.expect_keyword(Keyword::Process)?;
        let mut sensitivity = Vec::new();
        if self.eat(&TokenKind::LParen) {
            loop {
                sensitivity.push(self.parse_expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        self.eat_keyword(Keyword::Is);
        let mut decls = Vec::new();
        while !self.check_keyword(Keyword::Begin)
            && !self.check_keyword(Keyword::End)
            && !self.at_eof()
        {
            match self.parse_object_decl() {
                Ok(d) => decls.push(d),
                Err(e) => self.recover_from(e, &[Keyword::Begin, Keyword::End])?,
            }
        }
        self.expect_keyword(Keyword::Begin)?;
        let body = self.parse_seq_body_until(&[Keyword::End])?;
        self.expect_keyword(Keyword::End)?;
        self.eat_keyword(Keyword::Process);
        self.eat_trailing_name("process", label.as_ref())?;
        let end = self.expect(&TokenKind::Semicolon)?;
        Ok(ConcurrentStmt::Process {
            label,
            sensitivity,
            decls,
            body,
            span: start.merge(end.span),
        })
    }

    /// procedural := `procedural` [`is`] {decl} `begin` {seq}
    ///               `end` [`procedural`] [id] `;`
    fn parse_procedural(
        &mut self,
        label: Option<crate::ast::Ident>,
    ) -> Result<ConcurrentStmt, ParseError> {
        let start = self.here();
        self.expect_keyword(Keyword::Procedural)?;
        self.eat_keyword(Keyword::Is);
        let mut decls = Vec::new();
        while !self.check_keyword(Keyword::Begin)
            && !self.check_keyword(Keyword::End)
            && !self.at_eof()
        {
            match self.parse_object_decl() {
                Ok(d) => decls.push(d),
                Err(e) => self.recover_from(e, &[Keyword::Begin, Keyword::End])?,
            }
        }
        self.expect_keyword(Keyword::Begin)?;
        let body = self.parse_seq_body_until(&[Keyword::End])?;
        self.expect_keyword(Keyword::End)?;
        self.eat_keyword(Keyword::Procedural);
        self.eat_trailing_name("procedural", label.as_ref())?;
        let end = self.expect(&TokenKind::Semicolon)?;
        Ok(ConcurrentStmt::Procedural { label, decls, body, span: start.merge(end.span) })
    }

    /// One sequential statement.
    pub(crate) fn parse_seq_stmt(&mut self) -> Result<SeqStmt, ParseError> {
        let start = self.here();
        if self.check_keyword(Keyword::If) {
            return self.parse_seq_if();
        }
        if self.check_keyword(Keyword::Case) {
            return self.parse_seq_case();
        }
        if self.check_keyword(Keyword::For) {
            return self.parse_seq_for();
        }
        if self.check_keyword(Keyword::While) {
            return self.parse_seq_while();
        }
        if self.eat_keyword(Keyword::Return) {
            let value = if self.peek_kind() == &TokenKind::Semicolon {
                None
            } else {
                Some(self.parse_expr()?)
            };
            let end = self.expect(&TokenKind::Semicolon)?;
            return Ok(SeqStmt::new(SeqStmtKind::Return(value), start.merge(end.span)));
        }
        if self.eat_keyword(Keyword::Null) {
            let end = self.expect(&TokenKind::Semicolon)?;
            return Ok(SeqStmt::new(SeqStmtKind::Null, start.merge(end.span)));
        }
        if self.eat_keyword(Keyword::Wait) {
            // Parse permissively up to the semicolon so semantic
            // analysis can reject with a precise diagnostic.
            while self.peek_kind() != &TokenKind::Semicolon && !self.at_eof() {
                self.advance();
            }
            let end = self.expect(&TokenKind::Semicolon)?;
            return Ok(SeqStmt::new(SeqStmtKind::Wait, start.merge(end.span)));
        }

        // Assignment: `name := expr;`, `name(idx) := expr;`, or `name <= expr;`
        let target = self.expect_ident()?;
        let index = if self.eat(&TokenKind::LParen) {
            let idx = self.parse_expr()?;
            self.expect(&TokenKind::RParen)?;
            Some(idx)
        } else {
            None
        };
        if self.eat(&TokenKind::ColonEq) {
            let value = self.parse_expr()?;
            let end = self.expect(&TokenKind::Semicolon)?;
            Ok(SeqStmt::new(
                SeqStmtKind::VarAssign { target, index, value },
                start.merge(end.span),
            ))
        } else if self.eat(&TokenKind::LtEq) {
            if index.is_some() {
                return Err(self.error_here("indexed signal assignment is not supported in VASS"));
            }
            let value = self.parse_expr()?;
            let end = self.expect(&TokenKind::Semicolon)?;
            Ok(SeqStmt::new(SeqStmtKind::SignalAssign { target, value }, start.merge(end.span)))
        } else {
            Err(self.error_here(format!(
                "expected `:=` or `<=` after `{}`, found {}",
                self.names.resolve(target.name),
                self.peek_kind().describe(self.names)
            )))
        }
    }

    fn parse_seq_body_until(&mut self, stops: &[Keyword]) -> Result<Vec<SeqStmt>, ParseError> {
        let mut body = Vec::new();
        while !stops.iter().any(|kw| self.check_keyword(*kw)) && !self.at_eof() {
            match self.parse_seq_stmt() {
                Ok(s) => body.push(s),
                Err(e) => self.recover_from(e, stops)?,
            }
        }
        Ok(body)
    }

    fn parse_seq_if(&mut self) -> Result<SeqStmt, ParseError> {
        let start = self.here();
        self.expect_keyword(Keyword::If)?;
        let mut branches = Vec::new();
        let cond = self.parse_expr()?;
        self.expect_keyword(Keyword::Then)?;
        let body = self.parse_seq_body_until(&[Keyword::Elsif, Keyword::Else, Keyword::End])?;
        branches.push((cond, body));
        let mut else_body = Vec::new();
        loop {
            if self.eat_keyword(Keyword::Elsif) {
                let cond = self.parse_expr()?;
                self.expect_keyword(Keyword::Then)?;
                let body =
                    self.parse_seq_body_until(&[Keyword::Elsif, Keyword::Else, Keyword::End])?;
                branches.push((cond, body));
            } else if self.eat_keyword(Keyword::Else) {
                else_body = self.parse_seq_body_until(&[Keyword::End])?;
                break;
            } else {
                break;
            }
        }
        self.expect_keyword(Keyword::End)?;
        self.expect_keyword(Keyword::If)?;
        let end = self.expect(&TokenKind::Semicolon)?;
        Ok(SeqStmt::new(SeqStmtKind::If { branches, else_body }, start.merge(end.span)))
    }

    fn parse_seq_case(&mut self) -> Result<SeqStmt, ParseError> {
        let start = self.here();
        self.expect_keyword(Keyword::Case)?;
        let selector = self.parse_expr()?;
        self.expect_keyword(Keyword::Is)?;
        let mut arms = Vec::new();
        while self.eat_keyword(Keyword::When) {
            let choices = self.parse_choices()?;
            self.expect(&TokenKind::Arrow)?;
            let body = self.parse_seq_body_until(&[Keyword::When, Keyword::End])?;
            arms.push(CaseArm { choices, body });
        }
        self.expect_keyword(Keyword::End)?;
        self.expect_keyword(Keyword::Case)?;
        let end = self.expect(&TokenKind::Semicolon)?;
        Ok(SeqStmt::new(SeqStmtKind::Case { selector, arms }, start.merge(end.span)))
    }

    fn parse_seq_for(&mut self) -> Result<SeqStmt, ParseError> {
        let start = self.here();
        self.expect_keyword(Keyword::For)?;
        let var = self.expect_ident()?;
        self.expect_keyword(Keyword::In)?;
        let lo = self.parse_expr()?;
        let dir = if self.eat_keyword(Keyword::To) {
            Direction::To
        } else if self.eat_keyword(Keyword::Downto) {
            Direction::Downto
        } else {
            return Err(self.error_here("expected `to` or `downto` in for-loop range"));
        };
        let hi = self.parse_expr()?;
        self.expect_keyword(Keyword::Loop)?;
        let body = self.parse_seq_body_until(&[Keyword::End])?;
        self.expect_keyword(Keyword::End)?;
        self.expect_keyword(Keyword::Loop)?;
        let end = self.expect(&TokenKind::Semicolon)?;
        Ok(SeqStmt::new(SeqStmtKind::For { var, lo, dir, hi, body }, start.merge(end.span)))
    }

    fn parse_seq_while(&mut self) -> Result<SeqStmt, ParseError> {
        let start = self.here();
        self.expect_keyword(Keyword::While)?;
        let cond = self.parse_expr()?;
        self.expect_keyword(Keyword::Loop)?;
        let body = self.parse_seq_body_until(&[Keyword::End])?;
        self.expect_keyword(Keyword::End)?;
        self.expect_keyword(Keyword::Loop)?;
        let end = self.expect(&TokenKind::Semicolon)?;
        Ok(SeqStmt::new(SeqStmtKind::While { cond, body }, start.merge(end.span)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ConcurrentStmt;
    use crate::parser::parse_design_file;

    fn arch_stmts(src: &str) -> Vec<ConcurrentStmt> {
        arch_file(src).0
    }

    /// The statements of an architecture with body `src` and the
    /// file's name table.
    fn arch_file(src: &str) -> (Vec<ConcurrentStmt>, crate::names::Names) {
        let full = format!(
            "entity e is end entity; architecture a of e is
             quantity rvar, x, y : real;
             signal c1 : bit;
             constant r1c : real := 220.0;
             constant r2c : real := 330.0;
             begin {src} end architecture;"
        );
        let file = parse_design_file(&full).expect("parses");
        (file.architecture_of("e").unwrap().stmts.clone(), file.names)
    }

    #[test]
    fn parses_simple_simultaneous() {
        let stmts = arch_stmts("y == 2.0 * x + 1.0;");
        assert!(matches!(stmts[0], ConcurrentStmt::SimpleSimultaneous { .. }));
    }

    #[test]
    fn parses_labelled_simultaneous() {
        let (stmts, names) = arch_file("eq1: y == x;");
        match &stmts[0] {
            ConcurrentStmt::SimpleSimultaneous { label, .. } => {
                assert_eq!(names.resolve(label.unwrap().name), "eq1");
            }
            other => panic!("expected simultaneous, got {other:?}"),
        }
    }

    #[test]
    fn parses_simultaneous_if_from_paper() {
        // Paper Fig. 2: rvar selection on signal c1.
        let stmts = arch_stmts(
            "if (c1 = '1') use
               rvar == r1c;
             else
               rvar == r1c + r2c;
             end use;",
        );
        match &stmts[0] {
            ConcurrentStmt::SimultaneousIf { branches, else_body, .. } => {
                assert_eq!(branches.len(), 1);
                assert_eq!(branches[0].1.len(), 1);
                assert_eq!(else_body.len(), 1);
            }
            other => panic!("expected simultaneous if, got {other:?}"),
        }
    }

    #[test]
    fn parses_simultaneous_if_with_elsif() {
        let stmts = arch_stmts(
            "if (c1 = '1') use y == x;
             elsif (c1 = '0') use y == 2.0 * x;
             else y == 0.0;
             end use;",
        );
        match &stmts[0] {
            ConcurrentStmt::SimultaneousIf { branches, else_body, .. } => {
                assert_eq!(branches.len(), 2);
                assert_eq!(else_body.len(), 1);
            }
            other => panic!("expected simultaneous if, got {other:?}"),
        }
    }

    #[test]
    fn parses_simultaneous_case() {
        let stmts = arch_stmts(
            "case c1 use
               when '0' => y == x;
               when others => y == 0.0 - x;
             end case;",
        );
        match &stmts[0] {
            ConcurrentStmt::SimultaneousCase { arms, .. } => {
                assert_eq!(arms.len(), 2);
                assert!(matches!(arms[1].choices[0], crate::ast::Choice::Others));
            }
            other => panic!("expected simultaneous case, got {other:?}"),
        }
    }

    #[test]
    fn parses_process_from_paper() {
        // Paper Fig. 2: compensation process.
        let stmts = arch_stmts(
            "process (line'above(vth)) is
             begin
               if (line'above(vth) = true) then
                 c1 <= '1';
               else
                 c1 <= '0';
               end if;
             end process;",
        );
        match &stmts[0] {
            ConcurrentStmt::Process { sensitivity, body, .. } => {
                assert_eq!(sensitivity.len(), 1);
                assert_eq!(body.len(), 1);
                match &body[0].kind {
                    SeqStmtKind::If { branches, else_body } => {
                        assert_eq!(branches.len(), 1);
                        assert_eq!(else_body.len(), 1);
                        assert!(matches!(
                            branches[0].1[0].kind,
                            SeqStmtKind::SignalAssign { .. }
                        ));
                    }
                    other => panic!("expected if, got {other:?}"),
                }
            }
            other => panic!("expected process, got {other:?}"),
        }
    }

    #[test]
    fn parses_procedural_with_loops() {
        let stmts = arch_stmts(
            "procedural is
               variable acc : real;
               variable i : integer;
             begin
               acc := 0.0;
               for i in 1 to 4 loop
                 acc := acc + x;
               end loop;
               while acc > 0.5 loop
                 acc := acc / 2.0;
               end loop;
               y := acc;
             end procedural;",
        );
        match &stmts[0] {
            ConcurrentStmt::Procedural { decls, body, .. } => {
                assert_eq!(decls.len(), 2);
                assert_eq!(body.len(), 4);
                assert!(matches!(body[1].kind, SeqStmtKind::For { .. }));
                assert!(matches!(body[2].kind, SeqStmtKind::While { .. }));
            }
            other => panic!("expected procedural, got {other:?}"),
        }
    }

    #[test]
    fn parses_wait_for_later_rejection() {
        let stmts = arch_stmts("process is begin wait for 10 ns; end process;");
        match &stmts[0] {
            ConcurrentStmt::Process { body, .. } => {
                assert!(matches!(body[0].kind, SeqStmtKind::Wait));
            }
            other => panic!("expected process, got {other:?}"),
        }
    }

    #[test]
    fn parses_annotation_statement() {
        let (stmts, names) = arch_file("quantity rvar is range 220.0 to 550.0;");
        match &stmts[0] {
            ConcurrentStmt::AnnotationStmt { target, annotations, .. } => {
                assert_eq!(names.resolve(target.name), "rvar");
                assert_eq!(annotations.len(), 1);
            }
            other => panic!("expected annotation stmt, got {other:?}"),
        }
    }

    #[test]
    fn parses_case_stmt_sequential() {
        let stmts = arch_stmts(
            "process is begin
               case c1 is
                 when '0' | '1' => null;
                 when others => null;
               end case;
             end process;",
        );
        match &stmts[0] {
            ConcurrentStmt::Process { body, .. } => match &body[0].kind {
                SeqStmtKind::Case { arms, .. } => {
                    assert_eq!(arms.len(), 2);
                    assert_eq!(arms[0].choices.len(), 2);
                }
                other => panic!("expected case, got {other:?}"),
            },
            other => panic!("expected process, got {other:?}"),
        }
    }

    #[test]
    fn missing_eqeq_gives_helpful_error() {
        let full = "entity e is end entity; architecture a of e is begin y = x; end architecture;";
        let err = parse_design_file(full).unwrap_err();
        assert!(err.to_string().contains("=="), "got: {err}");
    }

    #[test]
    fn indexed_assignment_parses() {
        let stmts = arch_stmts(
            "procedural is
               variable v : real_vector(0 to 3);
             begin
               v(2) := x;
             end procedural;",
        );
        match &stmts[0] {
            ConcurrentStmt::Procedural { body, .. } => match &body[0].kind {
                SeqStmtKind::VarAssign { index, .. } => assert!(index.is_some()),
                other => panic!("expected assign, got {other:?}"),
            },
            other => panic!("expected procedural, got {other:?}"),
        }
    }
}
