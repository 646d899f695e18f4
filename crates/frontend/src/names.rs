//! Interned names.
//!
//! Every identifier of a design file is interned once, by the lexer,
//! into the file's [`Names`] table, and is a [`Name`] — a `u32` index —
//! from then on: tokens, AST identifiers, symbol tables and the
//! compiler's bindings all key on it. The table travels with the parsed
//! file ([`crate::ast::DesignFile::names`]); a name turns back into
//! text only where a message, a declared symbol's public name, or an
//! IR label is built.
//!
//! The table is per file, not per process: a long-running `vase serve`
//! daemon drops each request's names with its design, so its memory
//! does not grow with the identifiers its clients send.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// An interned identifier: an index into the [`Names`] table of the file
/// it was lexed from. Two names of one file are equal iff their
/// (lower-cased) spellings are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Name(u32);

/// The names every table holds, at fixed indices: the math and
/// conversion intrinsics, the predefined types and the attribute
/// names, which the parser, the semantic analysis and the compiler
/// refer to directly.
const PREDEFINED: [&str; 16] = [
    "log",
    "ln",
    "exp",
    "antilog",
    "adc",
    "real",
    "integer",
    "boolean",
    "bit",
    "bit_vector",
    "real_vector",
    "electrical",
    "above",
    "dot",
    "integ",
    "delayed",
];

#[allow(missing_docs)] // each constant is the predefined name it spells
impl Name {
    pub const LOG: Name = Name(0);
    pub const LN: Name = Name(1);
    pub const EXP: Name = Name(2);
    pub const ANTILOG: Name = Name(3);
    pub const ADC: Name = Name(4);
    pub const REAL: Name = Name(5);
    pub const INTEGER: Name = Name(6);
    pub const BOOLEAN: Name = Name(7);
    pub const BIT: Name = Name(8);
    pub const BIT_VECTOR: Name = Name(9);
    pub const REAL_VECTOR: Name = Name(10);
    pub const ELECTRICAL: Name = Name(11);
    pub const ABOVE: Name = Name(12);
    pub const DOT: Name = Name(13);
    pub const INTEG: Name = Name(14);
    pub const DELAYED: Name = Name(15);
}

impl Name {
    /// The name's index in its table: names are dense from 0, so a
    /// `Vec` indexed by it is a map over every name of the file.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The name at `index` (the inverse of [`Name::index`]).
    pub fn from_index(index: usize) -> Name {
        Name(u32::try_from(index).expect("fewer than 2^32 names"))
    }

    /// The predefined name spelled `text`, matched without hashing.
    fn predefined(text: &str) -> Option<Name> {
        Some(match text {
            "log" => Name::LOG,
            "ln" => Name::LN,
            "exp" => Name::EXP,
            "antilog" => Name::ANTILOG,
            "adc" => Name::ADC,
            "real" => Name::REAL,
            "integer" => Name::INTEGER,
            "boolean" => Name::BOOLEAN,
            "bit" => Name::BIT,
            "bit_vector" => Name::BIT_VECTOR,
            "real_vector" => Name::REAL_VECTOR,
            "electrical" => Name::ELECTRICAL,
            "above" => Name::ABOVE,
            "dot" => Name::DOT,
            "integ" => Name::INTEG,
            "delayed" => Name::DELAYED,
            _ => return None,
        })
    }
}

/// The name table of one design file: each distinct spelling stored
/// once, in one shared allocation that both the index and the lookup
/// map point at.
///
/// # Examples
///
/// ```
/// use vase_frontend::names::{Name, Names};
///
/// let mut names = Names::new();
/// let vin = names.intern("vin");
/// assert_eq!(names.intern("vin"), vin);
/// assert_eq!(names.resolve(vin), "vin");
/// assert_eq!(names.lookup("exp"), Some(Name::EXP));
/// assert_eq!(names.lookup("vout"), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Names {
    /// Spellings of the names after the predefined ones, by index.
    spellings: Vec<Arc<str>>,
    /// Spelling to name, for the same names.
    lookup: HashMap<Arc<str>, Name>,
}

impl Names {
    /// A table holding only the predefined names.
    pub fn new() -> Self {
        Names::default()
    }

    /// How many names the table holds, predefined ones included; every
    /// name of the table has an index below this.
    pub fn len(&self) -> usize {
        PREDEFINED.len() + self.spellings.len()
    }

    /// Whether the table holds only the predefined names.
    pub fn is_empty(&self) -> bool {
        self.spellings.is_empty()
    }

    /// Make room for `additional` more names without growing the table.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.spellings.reserve(additional);
        self.lookup.reserve(additional);
    }

    /// The name spelled `text`, if the table holds one. Identifiers are
    /// interned lower-cased, so `text` must be too.
    pub fn lookup(&self, text: &str) -> Option<Name> {
        Name::predefined(text).or_else(|| self.lookup.get(text).copied())
    }

    /// The name spelled `text`, added to the table if it is new (one
    /// allocation per new spelling). The caller lower-cases `text`.
    pub fn intern(&mut self, text: &str) -> Name {
        if let Some(name) = self.lookup(text) {
            return name;
        }
        let name = Name::from_index(self.len());
        let spelling: Arc<str> = Arc::from(text);
        self.spellings.push(Arc::clone(&spelling));
        self.lookup.insert(spelling, name);
        name
    }

    /// The spelling of `name`.
    ///
    /// # Panics
    ///
    /// If `name` belongs to another (larger) table.
    pub fn resolve(&self, name: Name) -> &str {
        match PREDEFINED.get(name.index()) {
            Some(text) => text,
            None => &self.spellings[name.index() - PREDEFINED.len()],
        }
    }

    /// `Debug` text of a value holding [`Ident`](crate::ast::Ident)s,
    /// with each identifier's name written as its quoted spelling (as
    /// `Debug` writes a string) instead of its index.
    pub fn debug_text(&self, value: &dyn fmt::Debug) -> String {
        const FIELD: &str = "name: Name(";
        let text = format!("{value:?}");
        let mut out = String::with_capacity(text.len());
        let mut rest = text.as_str();
        while let Some(at) = rest.find(FIELD) {
            let digits = &rest[at + FIELD.len()..];
            let len = digits.find(')').unwrap_or(0);
            match digits[..len].parse::<usize>() {
                Ok(index) if index < self.len() => {
                    out.push_str(&rest[..at]);
                    out.push_str(&format!(
                        "name: {:?}",
                        self.resolve(Name::from_index(index))
                    ));
                    rest = &digits[len + 1..];
                }
                _ => {
                    out.push_str(&rest[..at + FIELD.len()]);
                    rest = digits;
                }
            }
        }
        out.push_str(rest);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predefined_names_sit_at_their_constants() {
        let names = Names::new();
        for (index, text) in PREDEFINED.iter().enumerate() {
            assert_eq!(names.lookup(text), Some(Name::from_index(index)));
            assert_eq!(names.resolve(Name::from_index(index)), *text);
        }
        assert_eq!(names.len(), PREDEFINED.len());
        assert!(names.is_empty());
    }

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut names = Names::new();
        let a = names.intern("alpha");
        let b = names.intern("beta");
        assert_eq!(names.intern("alpha"), a);
        assert_eq!(names.intern("real"), Name::REAL);
        assert_eq!(
            (a.index(), b.index()),
            (PREDEFINED.len(), PREDEFINED.len() + 1)
        );
        assert_eq!(names.len(), PREDEFINED.len() + 2);
        assert_eq!(names.resolve(b), "beta");
    }

    #[test]
    fn debug_text_spells_identifier_names() {
        let mut names = Names::new();
        let x = names.intern("x");
        let id = crate::ast::Ident::synthetic(x);
        let text = names.debug_text(&id);
        assert!(text.starts_with("Ident { name: \"x\", span: "), "{text}");
    }
}
