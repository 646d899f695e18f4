//! A hand-written lexer for the VASS subset of VHDL-AMS.
//!
//! VHDL is case-insensitive: identifiers are normalized to lower case
//! and interned into the file's [`Names`] table, so a token is a `Copy`
//! kind plus span. Keywords are matched without allocating, and each
//! distinct identifier is allocated once, when it is first interned.
//! Comments (`-- ...` to end of line) and whitespace are skipped.
//! Physical-unit suffixes (e.g. `285 mV`, `270 ohm`) are *not* handled
//! here; the parser treats them as a literal followed by an identifier
//! in annotation positions.

use crate::error::LexError;
use crate::names::Names;
use crate::span::{Position, Span};
use crate::token::{Keyword, Token, TokenKind};

/// Lex a full VASS source into a token vector terminated by
/// [`TokenKind::Eof`], interning its identifiers and string literals
/// into `names`.
///
/// # Errors
///
/// Returns a [`LexError`] on unterminated string literals, malformed
/// numeric literals, characters outside the VASS alphabet, or a source
/// of 4 GiB or more (positions are 32-bit).
///
/// # Examples
///
/// ```
/// use vase_frontend::lexer::lex;
/// use vase_frontend::names::Names;
/// use vase_frontend::token::TokenKind;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut names = Names::new();
/// let tokens = lex("earph == line * 2.0;", &mut names)?;
/// assert!(matches!(tokens[1].kind, TokenKind::EqEq));
/// assert_eq!(tokens[2].kind, TokenKind::Ident(names.intern("line")));
/// # Ok(())
/// # }
/// ```
pub fn lex(source: &str, names: &mut Names) -> Result<Vec<Token>, LexError> {
    if u32::try_from(source.len()).is_err() {
        return Err(LexError {
            message: "source too large (4 GiB or more)".into(),
            span: Span::point(Position::start()),
        });
    }
    // The corpus specs hold about one distinct identifier per 30 bytes
    // of source; reserve a little more so the table does not grow.
    names.reserve(source.len() / 24 + 8);
    Lexer::new(source, names).run()
}

struct Lexer<'a> {
    source: &'a str,
    pos: Position,
    tokens: Vec<Token>,
    names: &'a mut Names,
    /// Reused buffer for the text of a literal or a lower-cased word.
    scratch: String,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str, names: &'a mut Names) -> Self {
        Lexer {
            source,
            pos: Position::start(),
            // About one token per five bytes of source.
            tokens: Vec::with_capacity(source.len() / 4 + 1),
            names,
            scratch: String::new(),
        }
    }

    /// The source from the current position on.
    fn rest(&self) -> &'a str {
        &self.source[self.pos.offset as usize..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    /// The character `n` places after the current one.
    fn peek_nth(&self, n: usize) -> Option<char> {
        self.rest().chars().nth(n)
    }

    fn bump(&mut self) -> Option<char> {
        let ch = self.peek()?;
        self.pos.advance(ch);
        Some(ch)
    }

    /// The byte `n` places after the current position.
    fn byte_at(&self, n: usize) -> Option<u8> {
        self.source.as_bytes().get(self.pos.offset as usize + n).copied()
    }

    /// Step over one ASCII byte other than a line break.
    fn bump_ascii(&mut self) {
        self.pos.offset += 1;
        self.pos.column += 1;
    }

    /// Consume the current byte if it is `b` (ASCII, not a line break).
    fn eat_ascii(&mut self, b: u8) -> bool {
        let eaten = self.byte_at(0) == Some(b);
        if eaten {
            self.bump_ascii();
        }
        eaten
    }

    fn error(&self, message: impl Into<String>, start: Position) -> LexError {
        LexError { message: message.into(), span: Span::new(start, self.pos) }
    }

    fn push(&mut self, kind: TokenKind, start: Position) {
        self.tokens.push(Token::new(kind, Span::new(start, self.pos)));
    }

    fn run(mut self) -> Result<Vec<Token>, LexError> {
        while let Some(b) = self.byte_at(0) {
            let start = self.pos;
            match b {
                b'\n' => self.pos.advance('\n'),
                b'\t' | 0x0b | 0x0c | b'\r' | b' ' => self.bump_ascii(),
                b'-' => {
                    self.bump_ascii();
                    if self.byte_at(0) == Some(b'-') {
                        // comment to end of line (its length fits a
                        // `u32`, as `lex` checked for the whole source)
                        let rest = self.rest();
                        let comment = &rest[..rest.find('\n').unwrap_or(rest.len())];
                        self.pos.offset += comment.len() as u32;
                        self.pos.column += comment.chars().count() as u32;
                    } else {
                        self.push(TokenKind::Minus, start);
                    }
                }
                b if b.is_ascii_alphabetic() || b == b'_' => self.lex_word(start),
                b if b.is_ascii_digit() => self.lex_number(start)?,
                b'\'' => self.lex_tick_or_char(start)?,
                b'"' => self.lex_string(start)?,
                b if b.is_ascii() => self.lex_symbol(start, char::from(b))?,
                _ => match self.peek().expect("in bounds") {
                    c if c.is_whitespace() => {
                        self.bump();
                    }
                    c => self.lex_symbol(start, c)?,
                },
            }
        }
        let here = self.pos;
        self.push(TokenKind::Eof, here);
        Ok(self.tokens)
    }

    /// A keyword or identifier: ASCII letters, digits and `_`.
    fn lex_word(&mut self, start: Position) {
        let rest = self.rest();
        let len = rest.bytes().take_while(|b| b.is_ascii_alphanumeric() || *b == b'_').count();
        let mut word = &rest[..len];
        // The word is ASCII without line breaks, and `lex` checked that
        // every length in the source fits a `u32`.
        self.pos.offset += len as u32;
        self.pos.column += len as u32;
        if word.bytes().any(|b| b.is_ascii_uppercase()) {
            self.scratch.clear();
            self.scratch.extend(word.chars().map(|c| c.to_ascii_lowercase()));
            word = &self.scratch;
        }
        let kind = match Keyword::from_str_lower(word) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(self.names.intern(word)),
        };
        self.push(kind, start);
    }

    /// Append the digits at the current position to the scratch text,
    /// stepping over `_` separators when `separators` is set; returns
    /// whether any digit was seen.
    fn take_digits(&mut self, separators: bool) -> bool {
        let mut saw_digit = false;
        while let Some(b) = self.byte_at(0) {
            if b.is_ascii_digit() {
                self.scratch.push(char::from(b));
                saw_digit = true;
            } else if !(separators && b == b'_') {
                break;
            }
            self.bump_ascii();
        }
        saw_digit
    }

    fn lex_number(&mut self, start: Position) -> Result<(), LexError> {
        self.scratch.clear();
        let mut is_real = false;
        self.take_digits(true);
        // Fractional part: a dot followed by a digit (a bare `.` would be
        // a record selector, which VASS does not lex after numbers).
        if self.eat_ascii(b'.') {
            is_real = true;
            self.scratch.push('.');
            if !self.take_digits(true) {
                return Err(self.error("expected digits after decimal point", start));
            }
        }
        // Exponent
        if matches!(self.byte_at(0), Some(b'e' | b'E')) {
            // Only treat as an exponent if followed by digits or sign+digits;
            // otherwise it's the start of an identifier (e.g. `2 eV`... not
            // valid VASS, but be conservative).
            let digit_at = |n| self.byte_at(n).is_some_and(|d: u8| d.is_ascii_digit());
            let exp_ok =
                digit_at(1) || (matches!(self.byte_at(1), Some(b'+' | b'-')) && digit_at(2));
            if exp_ok {
                is_real = true;
                self.scratch.push('e');
                self.bump_ascii();
                if let Some(sign @ (b'+' | b'-')) = self.byte_at(0) {
                    self.scratch.push(char::from(sign));
                    self.bump_ascii();
                }
                self.take_digits(false);
            }
        }
        let text = &self.scratch;
        let kind = if is_real {
            let v: f64 = text
                .parse()
                .map_err(|_| self.error(format!("malformed real literal `{text}`"), start))?;
            TokenKind::RealLiteral(v)
        } else {
            let v: i64 = text
                .parse()
                .map_err(|_| self.error(format!("malformed integer literal `{text}`"), start))?;
            TokenKind::IntLiteral(v)
        };
        self.push(kind, start);
        Ok(())
    }

    /// A `'` is either a character literal (`'0'`) or the attribute tick
    /// (`line'above(...)`). It is a character literal exactly when the
    /// character after the next one is another `'`.
    fn lex_tick_or_char(&mut self, start: Position) -> Result<(), LexError> {
        self.bump(); // consume '
        if let (Some(c), Some('\'')) = (self.peek(), self.peek_nth(1)) {
            self.bump();
            self.bump();
            self.push(TokenKind::CharLiteral(c), start);
        } else {
            self.push(TokenKind::Tick, start);
        }
        Ok(())
    }

    fn lex_string(&mut self, start: Position) -> Result<(), LexError> {
        self.bump(); // consume opening quote
        self.scratch.clear();
        loop {
            match self.bump() {
                Some('"') => {
                    // VHDL escapes a quote by doubling it.
                    if self.peek() == Some('"') {
                        self.bump();
                        self.scratch.push('"');
                    } else {
                        break;
                    }
                }
                Some('\n') | None => {
                    return Err(self.error("unterminated string literal", start));
                }
                Some(c) => self.scratch.push(c),
            }
        }
        let text = self.names.intern(&self.scratch);
        self.push(TokenKind::StringLiteral(text), start);
        Ok(())
    }

    /// A symbol starting with `ch`, the current character.
    fn lex_symbol(&mut self, start: Position, ch: char) -> Result<(), LexError> {
        self.pos.advance(ch);
        let kind = match ch {
            '=' if self.eat_ascii(b'=') => TokenKind::EqEq,
            '=' if self.eat_ascii(b'>') => TokenKind::Arrow,
            '=' => TokenKind::Eq,
            ':' if self.eat_ascii(b'=') => TokenKind::ColonEq,
            ':' => TokenKind::Colon,
            '<' if self.eat_ascii(b'=') => TokenKind::LtEq,
            '<' => TokenKind::Lt,
            '>' if self.eat_ascii(b'=') => TokenKind::GtEq,
            '>' => TokenKind::Gt,
            '/' if self.eat_ascii(b'=') => TokenKind::NotEq,
            '/' => TokenKind::Slash,
            '*' if self.eat_ascii(b'*') => TokenKind::StarStar,
            '*' => TokenKind::Star,
            '+' => TokenKind::Plus,
            '&' => TokenKind::Ampersand,
            '(' => TokenKind::LParen,
            ')' => TokenKind::RParen,
            ';' => TokenKind::Semicolon,
            ',' => TokenKind::Comma,
            '.' => TokenKind::Dot,
            '|' => TokenKind::Bar,
            other => {
                return Err(self.error(format!("unexpected character `{other}`"), start));
            }
        };
        self.push(kind, start);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lexed(src).0
    }

    /// The token kinds of `src` and the table its names went into.
    fn lexed(src: &str) -> (Vec<TokenKind>, Names) {
        let mut names = Names::new();
        let kinds = lex(src, &mut names).expect("lex ok").into_iter().map(|t| t.kind).collect();
        (kinds, names)
    }

    fn ident(names: &Names, text: &str) -> TokenKind {
        TokenKind::Ident(names.lookup(text).expect("interned"))
    }

    #[test]
    fn lexes_keywords_case_insensitively() {
        let ks = kinds("ENTITY Entity entity");
        assert_eq!(
            ks,
            vec![
                TokenKind::Keyword(Keyword::Entity),
                TokenKind::Keyword(Keyword::Entity),
                TokenKind::Keyword(Keyword::Entity),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn identifiers_are_lowercased() {
        let (ks, names) = lexed("Earph RVar earph");
        assert_eq!(
            ks,
            vec![
                ident(&names, "earph"),
                ident(&names, "rvar"),
                ident(&names, "earph"),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(kinds("42")[0], TokenKind::IntLiteral(42));
        assert_eq!(kinds("3.5")[0], TokenKind::RealLiteral(3.5));
        assert_eq!(kinds("1e3")[0], TokenKind::RealLiteral(1000.0));
        assert_eq!(kinds("2.5e-2")[0], TokenKind::RealLiteral(0.025));
        assert_eq!(kinds("1_000")[0], TokenKind::IntLiteral(1000));
    }

    #[test]
    fn number_then_ident_unit() {
        // `285 mV` lexes as int + ident; the parser scales it.
        let (ks, names) = lexed("285 mv");
        assert_eq!(ks[0], TokenKind::IntLiteral(285));
        assert_eq!(ks[1], ident(&names, "mv"));
    }

    #[test]
    fn rejects_trailing_dot_without_digits() {
        assert!(lex("3.", &mut Names::new()).is_err());
    }

    #[test]
    fn lexes_compound_operators() {
        let ks = kinds("== := <= => /= >= ** = < > + - * / & | . , ; : ( )");
        assert_eq!(
            &ks[..9],
            &[
                TokenKind::EqEq,
                TokenKind::ColonEq,
                TokenKind::LtEq,
                TokenKind::Arrow,
                TokenKind::NotEq,
                TokenKind::GtEq,
                TokenKind::StarStar,
                TokenKind::Eq,
                TokenKind::Lt,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let (ks, names) = lexed("a -- this is a comment == *\nb");
        assert_eq!(ks, vec![ident(&names, "a"), ident(&names, "b"), TokenKind::Eof]);
    }

    #[test]
    fn minus_vs_comment() {
        let ks = kinds("a - b");
        assert_eq!(ks[1], TokenKind::Minus);
    }

    #[test]
    fn char_literal_vs_attribute_tick() {
        let ks = kinds("c1 <= '1'");
        assert_eq!(ks[2], TokenKind::CharLiteral('1'));
        // `above` is not reserved; it lexes as an identifier attribute name.
        let (ks, names) = lexed("line'above(vth)");
        assert_eq!(ks[1], TokenKind::Tick);
        assert_eq!(ks[2], ident(&names, "above"));
    }

    #[test]
    fn string_literal_with_escaped_quote() {
        let (ks, names) = lexed(r#""01""10""#);
        assert_eq!(ks[0], TokenKind::StringLiteral(names.lookup("01\"10").expect("interned")));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("\"abc", &mut Names::new()).is_err());
        assert!(lex("\"abc\ndef\"", &mut Names::new()).is_err());
    }

    #[test]
    fn unexpected_character_errors() {
        let err = lex("a # b", &mut Names::new()).unwrap_err();
        assert!(err.to_string().contains("unexpected character"));
    }

    #[test]
    fn spans_track_lines() {
        let toks = lex("a\nbb\n  ccc", &mut Names::new()).expect("lex ok");
        assert_eq!(toks[0].span.start.line, 1);
        assert_eq!(toks[1].span.start.line, 2);
        assert_eq!(toks[2].span.start.line, 3);
        assert_eq!(toks[2].span.start.column, 3);
    }

    #[test]
    fn eof_token_is_last() {
        let toks = lex("", &mut Names::new()).expect("lex ok");
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].kind, TokenKind::Eof);
    }
}
