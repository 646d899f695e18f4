//! Symbol table for one architecture scope.

use serde::{Deserialize, Serialize};

use crate::annot::Annotation;
use crate::ast::{Mode, ObjectClass, TypeName};
use crate::error::{SemaError, SemaErrorKind};
use crate::names::Name;
use crate::span::Span;

/// A declared object: port, architecture-level object, or local
/// variable hoisted from a process/procedural.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Symbol {
    /// Lower-cased name.
    pub name: String,
    /// The interned name, the symbol's key in its table.
    pub key: Name,
    /// Object class.
    pub class: ObjectClass,
    /// Declared type.
    pub ty: TypeName,
    /// Port mode, if the symbol is a port.
    pub mode: Option<Mode>,
    /// Annotations attached at the declaration (plus any merged in from
    /// annotation statements).
    pub annotations: Vec<Annotation>,
    /// Whether this symbol is an entity port.
    pub is_port: bool,
    /// Constant value, if the symbol is a constant with a foldable
    /// initializer.
    pub const_value: Option<f64>,
    /// Declaration site.
    pub span: Span,
}

impl Symbol {
    /// Whether the symbol is a continuous-time quantity (including
    /// quantity ports).
    pub fn is_quantity(&self) -> bool {
        self.class == ObjectClass::Quantity
    }

    /// Whether the symbol is an event-driven *signal*.
    pub fn is_signal(&self) -> bool {
        self.class == ObjectClass::Signal
    }

    /// Whether the symbol may be read in the current design (an `out`
    /// port may not be read in strict VHDL; VASS allows reading `out`
    /// quantities since the signal-flow graph makes the tap explicit).
    pub fn is_readable(&self) -> bool {
        true
    }

    /// Whether the symbol may be assigned/driven.
    pub fn is_writable(&self) -> bool {
        !matches!(self.mode, Some(Mode::In))
    }
}

/// A scope's symbols, preserving declaration order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SymbolTable {
    /// The symbols in declaration order.
    symbols: Vec<Symbol>,
    /// Each name's position in `symbols`, indexed by [`Name::index`].
    slots: Vec<Option<u32>>,
}

impl SymbolTable {
    /// An empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Insert a symbol.
    ///
    /// # Errors
    ///
    /// Returns a [`SemaErrorKind::DuplicateDeclaration`] diagnostic if a
    /// symbol with the same name already exists.
    pub fn insert(&mut self, symbol: Symbol) -> Result<(), SemaError> {
        if let Some(prev) = self.get(symbol.key) {
            return Err(SemaError::new(
                SemaErrorKind::DuplicateDeclaration,
                format!(
                    "`{}` is already declared as a {} at {}",
                    symbol.name, prev.class, prev.span
                ),
                symbol.span,
            ));
        }
        let slot = symbol.key.index();
        if slot >= self.slots.len() {
            self.slots.resize(slot + 1, None);
        }
        let position = u32::try_from(self.symbols.len()).expect("fewer symbols than names");
        self.slots[slot] = Some(position);
        self.symbols.push(symbol);
        Ok(())
    }

    /// The position of `name`'s symbol in `symbols`.
    fn position(&self, name: Name) -> Option<usize> {
        self.slots.get(name.index()).copied().flatten().map(|i| i as usize)
    }

    /// Look up a symbol by name.
    pub fn get(&self, name: Name) -> Option<&Symbol> {
        self.position(name).map(|i| &self.symbols[i])
    }

    /// Mutable lookup (used to merge annotation statements).
    pub fn get_mut(&mut self, name: Name) -> Option<&mut Symbol> {
        self.position(name).map(|i| &mut self.symbols[i])
    }

    /// Whether `name` is declared.
    pub fn contains(&self, name: Name) -> bool {
        self.position(name).is_some()
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Iterate over symbols in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = &Symbol> {
        self.symbols.iter()
    }

    /// Iterate over quantities (including quantity ports).
    pub fn quantities(&self) -> impl Iterator<Item = &Symbol> {
        self.iter().filter(|s| s.is_quantity())
    }

    /// Iterate over *signals* (including signal ports).
    pub fn signals(&self) -> impl Iterator<Item = &Symbol> {
        self.iter().filter(|s| s.is_signal())
    }

    /// Iterate over entity ports.
    pub fn ports(&self) -> impl Iterator<Item = &Symbol> {
        self.iter().filter(|s| s.is_port)
    }
}

impl<'a> IntoIterator for &'a SymbolTable {
    type Item = &'a Symbol;
    type IntoIter = Box<dyn Iterator<Item = &'a Symbol> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::Names;

    fn sym(names: &mut Names, name: &str, class: ObjectClass) -> Symbol {
        Symbol {
            name: name.into(),
            key: names.intern(name),
            class,
            ty: TypeName::Real,
            mode: None,
            annotations: vec![],
            is_port: false,
            const_value: None,
            span: Span::synthetic(),
        }
    }

    #[test]
    fn insert_and_lookup() {
        let mut names = Names::new();
        let mut t = SymbolTable::new();
        t.insert(sym(&mut names, "a", ObjectClass::Quantity)).expect("insert a");
        t.insert(sym(&mut names, "b", ObjectClass::Signal)).expect("insert b");
        assert!(t.contains(names.intern("a")));
        assert_eq!(t.get(names.intern("b")).map(|s| s.class), Some(ObjectClass::Signal));
        assert!(t.get(names.intern("c")).is_none());
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn duplicate_rejected() {
        let mut names = Names::new();
        let mut t = SymbolTable::new();
        t.insert(sym(&mut names, "a", ObjectClass::Quantity)).expect("insert");
        let err = t.insert(sym(&mut names, "a", ObjectClass::Signal)).unwrap_err();
        assert_eq!(err.kind, SemaErrorKind::DuplicateDeclaration);
    }

    #[test]
    fn iteration_preserves_declaration_order() {
        let mut names = Names::new();
        let mut t = SymbolTable::new();
        for n in ["z", "m", "a"] {
            t.insert(sym(&mut names, n, ObjectClass::Quantity)).expect("insert");
        }
        let order: Vec<_> = t.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(order, vec!["z", "m", "a"]);
    }

    #[test]
    fn class_filters() {
        let mut names = Names::new();
        let mut t = SymbolTable::new();
        t.insert(sym(&mut names, "q", ObjectClass::Quantity)).expect("insert");
        t.insert(sym(&mut names, "s", ObjectClass::Signal)).expect("insert");
        t.insert(sym(&mut names, "c", ObjectClass::Constant)).expect("insert");
        assert_eq!(t.quantities().count(), 1);
        assert_eq!(t.signals().count(), 1);
        assert_eq!(t.ports().count(), 0);
    }

    #[test]
    fn writability_respects_port_mode() {
        let mut s = sym(&mut Names::new(), "x", ObjectClass::Quantity);
        s.mode = Some(Mode::In);
        assert!(!s.is_writable());
        s.mode = Some(Mode::Out);
        assert!(s.is_writable());
        s.mode = None;
        assert!(s.is_writable());
    }
}
