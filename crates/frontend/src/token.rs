//! Token definitions for the VASS lexer.

use std::fmt;

use crate::names::{Name, Names};
use crate::span::Span;

/// Keywords recognized by the VASS subset.
///
/// This covers the VHDL-AMS keywords used by the synthesis subset of the
/// paper (entities, architectures, simultaneous/procedural/process
/// statements) plus the annotation keywords the subset adds (`limited`,
/// `drives`, `peak`, ...).
#[allow(missing_docs)] // variant names mirror their keyword spelling
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Keyword {
    Entity,
    Architecture,
    Package,
    Body,
    Is,
    Of,
    Port,
    Begin,
    End,
    Quantity,
    Signal,
    Terminal,
    Constant,
    Variable,
    In,
    Out,
    Inout,
    Across,
    Through,
    Nature,
    If,
    Then,
    Else,
    Elsif,
    Case,
    When,
    Use,
    Process,
    Procedural,
    While,
    For,
    Loop,
    Null,
    Function,
    Return,
    Wait,
    And,
    Or,
    Not,
    Xor,
    Nand,
    Nor,
    Abs,
    Mod,
    Rem,
    To,
    Downto,
    Others,
    True,
    False,
    // Annotation keywords (VASS extension, Section 3 of the paper).
    Voltage,
    Current,
    Limited,
    Drives,
    At,
    Peak,
    Impedance,
    Frequency,
    Range,
}

impl Keyword {
    /// Look up a keyword from a lower-cased identifier.
    pub fn from_str_lower(s: &str) -> Option<Keyword> {
        use Keyword::*;
        Some(match s {
            "entity" => Entity,
            "architecture" => Architecture,
            "package" => Package,
            "body" => Body,
            "is" => Is,
            "of" => Of,
            "port" => Port,
            "begin" => Begin,
            "end" => End,
            "quantity" => Quantity,
            "signal" => Signal,
            "terminal" => Terminal,
            "constant" => Constant,
            "variable" => Variable,
            "in" => In,
            "out" => Out,
            "inout" => Inout,
            "across" => Across,
            "through" => Through,
            "nature" => Nature,
            "if" => If,
            "then" => Then,
            "else" => Else,
            "elsif" => Elsif,
            "case" => Case,
            "when" => When,
            "use" => Use,
            "process" => Process,
            "procedural" => Procedural,
            "while" => While,
            "for" => For,
            "loop" => Loop,
            "null" => Null,
            "function" => Function,
            "return" => Return,
            "wait" => Wait,
            "and" => And,
            "or" => Or,
            "not" => Not,
            "xor" => Xor,
            "nand" => Nand,
            "nor" => Nor,
            "abs" => Abs,
            "mod" => Mod,
            "rem" => Rem,
            "to" => To,
            "downto" => Downto,
            "others" => Others,
            "true" => True,
            "false" => False,
            "voltage" => Voltage,
            "current" => Current,
            "limited" => Limited,
            "drives" => Drives,
            "at" => At,
            "peak" => Peak,
            "impedance" => Impedance,
            "frequency" => Frequency,
            "range" => Range,
            _ => return None,
        })
    }

    /// The canonical (lower-case) spelling of the keyword.
    pub fn as_str(&self) -> &'static str {
        use Keyword::*;
        match self {
            Entity => "entity",
            Architecture => "architecture",
            Package => "package",
            Body => "body",
            Is => "is",
            Of => "of",
            Port => "port",
            Begin => "begin",
            End => "end",
            Quantity => "quantity",
            Signal => "signal",
            Terminal => "terminal",
            Constant => "constant",
            Variable => "variable",
            In => "in",
            Out => "out",
            Inout => "inout",
            Across => "across",
            Through => "through",
            Nature => "nature",
            If => "if",
            Then => "then",
            Else => "else",
            Elsif => "elsif",
            Case => "case",
            When => "when",
            Use => "use",
            Process => "process",
            Procedural => "procedural",
            While => "while",
            For => "for",
            Loop => "loop",
            Null => "null",
            Function => "function",
            Return => "return",
            Wait => "wait",
            And => "and",
            Or => "or",
            Not => "not",
            Xor => "xor",
            Nand => "nand",
            Nor => "nor",
            Abs => "abs",
            Mod => "mod",
            Rem => "rem",
            To => "to",
            Downto => "downto",
            Others => "others",
            True => "true",
            False => "false",
            Voltage => "voltage",
            Current => "current",
            Limited => "limited",
            Drives => "drives",
            At => "at",
            Peak => "peak",
            Impedance => "impedance",
            Frequency => "frequency",
            Range => "range",
        }
    }
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The kind of a lexed token. Tokens are `Copy`: the text of an
/// identifier or string literal lives in the file's [`Names`] table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind {
    /// An identifier. VHDL is case-insensitive: the lexer interns the
    /// lower-cased spelling, and the original spelling is not kept.
    Ident(Name),
    /// A reserved word.
    Keyword(Keyword),
    /// An integer literal.
    IntLiteral(i64),
    /// A real literal (also produced for integer literals followed by an
    /// exponent).
    RealLiteral(f64),
    /// A character literal such as `'0'` or `'1'`.
    CharLiteral(char),
    /// A string literal such as `"0101"`, its text (quotes removed,
    /// doubled quotes undone) interned like an identifier's.
    StringLiteral(Name),
    /// `==` — the simultaneous-statement relation.
    EqEq,
    /// `:=` — variable assignment.
    ColonEq,
    /// `<=` — signal assignment or less-or-equal, disambiguated by the
    /// parser from context.
    LtEq,
    /// `=>`
    Arrow,
    /// `=`
    Eq,
    /// `/=`
    NotEq,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `**`
    StarStar,
    /// `/`
    Slash,
    /// `&`
    Ampersand,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `;`
    Semicolon,
    /// `:`
    Colon,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `'` when used as the attribute tick (e.g. `line'ABOVE(vth)`).
    Tick,
    /// `|`
    Bar,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// A short human-readable description used in error messages;
    /// `names` is the table the token was lexed into.
    pub fn describe(&self, names: &Names) -> String {
        match self {
            TokenKind::Ident(name) => format!("identifier `{}`", names.resolve(*name)),
            TokenKind::Keyword(kw) => format!("keyword `{kw}`"),
            TokenKind::IntLiteral(v) => format!("integer literal `{v}`"),
            TokenKind::RealLiteral(v) => format!("real literal `{v}`"),
            TokenKind::CharLiteral(c) => format!("character literal `'{c}'`"),
            TokenKind::StringLiteral(s) => {
                format!("string literal `\"{}\"`", names.resolve(*s))
            }
            TokenKind::EqEq => "`==`".into(),
            TokenKind::ColonEq => "`:=`".into(),
            TokenKind::LtEq => "`<=`".into(),
            TokenKind::Arrow => "`=>`".into(),
            TokenKind::Eq => "`=`".into(),
            TokenKind::NotEq => "`/=`".into(),
            TokenKind::Lt => "`<`".into(),
            TokenKind::Gt => "`>`".into(),
            TokenKind::GtEq => "`>=`".into(),
            TokenKind::Plus => "`+`".into(),
            TokenKind::Minus => "`-`".into(),
            TokenKind::Star => "`*`".into(),
            TokenKind::StarStar => "`**`".into(),
            TokenKind::Slash => "`/`".into(),
            TokenKind::Ampersand => "`&`".into(),
            TokenKind::LParen => "`(`".into(),
            TokenKind::RParen => "`)`".into(),
            TokenKind::Semicolon => "`;`".into(),
            TokenKind::Colon => "`:`".into(),
            TokenKind::Comma => "`,`".into(),
            TokenKind::Dot => "`.`".into(),
            TokenKind::Tick => "`'`".into(),
            TokenKind::Bar => "`|`".into(),
            TokenKind::Eof => "end of input".into(),
        }
    }
}

/// A lexed token: kind plus source span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// Where it was lexed from.
    pub span: Span,
}

impl Token {
    /// Construct a token.
    pub fn new(kind: TokenKind, span: Span) -> Self {
        Token { kind, span }
    }

    /// Whether this token is the given keyword.
    pub fn is_keyword(&self, kw: Keyword) -> bool {
        matches!(self.kind, TokenKind::Keyword(k) if k == kw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_roundtrip() {
        for kw in [
            Keyword::Entity,
            Keyword::Procedural,
            Keyword::Limited,
            Keyword::Drives,
            Keyword::Downto,
            Keyword::Frequency,
        ] {
            assert_eq!(Keyword::from_str_lower(kw.as_str()), Some(kw));
        }
    }

    #[test]
    fn unknown_keyword_is_none() {
        assert_eq!(Keyword::from_str_lower("resistor"), None);
        assert_eq!(Keyword::from_str_lower(""), None);
    }

    #[test]
    fn token_is_keyword() {
        let t = Token::new(TokenKind::Keyword(Keyword::Entity), Span::default());
        assert!(t.is_keyword(Keyword::Entity));
        assert!(!t.is_keyword(Keyword::End));
        let entityx = Names::new().intern("entityx");
        let t = Token::new(TokenKind::Ident(entityx), Span::default());
        assert!(!t.is_keyword(Keyword::Entity));
    }

    #[test]
    fn describe_is_nonempty() {
        let mut names = Names::new();
        let foo = names.intern("foo");
        assert!(TokenKind::Eof.describe(&names).contains("end of input"));
        assert!(TokenKind::Ident(foo).describe(&names).contains("foo"));
    }
}
