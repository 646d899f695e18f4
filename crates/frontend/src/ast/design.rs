//! Design-unit nodes: entities, architectures, packages.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::annot::Annotation;
use crate::ast::decl::{FunctionDecl, ObjectClass, ObjectDecl, TypeName};
use crate::ast::expr::Ident;
use crate::ast::stmt::ConcurrentStmt;
use crate::names::{Name, Names};
use crate::span::Span;

/// Port object class (paper §3: VASS accepts signal, quantity, and
/// terminal ports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PortClass {
    /// Continuous-time analog port.
    Quantity,
    /// Event-driven port.
    Signal,
    /// Structural connection port. VASS requires that only one of its
    /// through/across facets be used in the body.
    Terminal,
}

impl fmt::Display for PortClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PortClass::Quantity => "quantity",
            PortClass::Signal => "signal",
            PortClass::Terminal => "terminal",
        })
    }
}

impl From<PortClass> for ObjectClass {
    fn from(pc: PortClass) -> ObjectClass {
        match pc {
            PortClass::Quantity => ObjectClass::Quantity,
            PortClass::Signal => ObjectClass::Signal,
            PortClass::Terminal => ObjectClass::Terminal,
        }
    }
}

/// Port direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mode {
    /// `in`
    In,
    /// `out`
    Out,
    /// `inout`
    Inout,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Mode::In => "in",
            Mode::Out => "out",
            Mode::Inout => "inout",
        })
    }
}

/// A port declaration in an entity header.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortDecl {
    /// Port class.
    pub class: PortClass,
    /// Declared names.
    pub names: Vec<Ident>,
    /// Direction.
    pub mode: Mode,
    /// Declared type.
    pub ty: TypeName,
    /// VASS annotations (kind, ranges, impedance, limiting, drive).
    pub annotations: Vec<Annotation>,
    /// Declaration span.
    pub span: Span,
}

/// An entity declaration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Entity {
    /// Entity name.
    pub name: Ident,
    /// Port list.
    pub ports: Vec<PortDecl>,
    /// Declaration span.
    pub span: Span,
}

impl Entity {
    /// Find a port declaration covering `name`.
    pub fn port(&self, name: Name) -> Option<&PortDecl> {
        self.ports.iter().find(|p| p.names.iter().any(|n| n.name == name))
    }
}

/// An architecture body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Architecture {
    /// Architecture name.
    pub name: Ident,
    /// Name of the entity this body belongs to.
    pub entity: Ident,
    /// Declarative part: objects.
    pub decls: Vec<ObjectDecl>,
    /// Declarative part: functions.
    pub functions: Vec<FunctionDecl>,
    /// Statement part.
    pub stmts: Vec<ConcurrentStmt>,
    /// Body span.
    pub span: Span,
}

/// A package declaration (constants and functions shared by designs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Package {
    /// Package name.
    pub name: Ident,
    /// Declared constants.
    pub decls: Vec<ObjectDecl>,
    /// Declared functions.
    pub functions: Vec<FunctionDecl>,
    /// Declaration span.
    pub span: Span,
}

/// One unit in a design file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DesignUnit {
    /// An entity declaration.
    Entity(Entity),
    /// An architecture body.
    Architecture(Architecture),
    /// A package declaration (VASS merges package and package body).
    Package(Package),
}

impl DesignUnit {
    /// The unit's name.
    pub fn name(&self) -> &Ident {
        match self {
            DesignUnit::Entity(e) => &e.name,
            DesignUnit::Architecture(a) => &a.name,
            DesignUnit::Package(p) => &p.name,
        }
    }
}

/// A parsed VASS design file.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DesignFile {
    /// The units in declaration order.
    pub units: Vec<DesignUnit>,
    /// The file's name table: every [`Ident`] of the units is a name in
    /// it.
    pub names: Names,
}

impl DesignFile {
    /// An empty design file.
    pub fn new() -> Self {
        DesignFile::default()
    }

    /// Find the entity named `name`.
    pub fn entity(&self, name: &str) -> Option<&Entity> {
        let name = self.names.lookup(name)?;
        self.units.iter().find_map(|u| match u {
            DesignUnit::Entity(e) if e.name.name == name => Some(e),
            _ => None,
        })
    }

    /// Find an architecture of entity `entity` (the first if several).
    pub fn architecture_of(&self, entity: &str) -> Option<&Architecture> {
        let entity = self.names.lookup(entity)?;
        self.units.iter().find_map(|u| match u {
            DesignUnit::Architecture(a) if a.entity.name == entity => Some(a),
            _ => None,
        })
    }

    /// All entities in the file.
    pub fn entities(&self) -> impl Iterator<Item = &Entity> {
        self.units.iter().filter_map(|u| match u {
            DesignUnit::Entity(e) => Some(e),
            _ => None,
        })
    }

    /// All architectures in the file.
    pub fn architectures(&self) -> impl Iterator<Item = &Architecture> {
        self.units.iter().filter_map(|u| match u {
            DesignUnit::Architecture(a) => Some(a),
            _ => None,
        })
    }

    /// All packages in the file.
    pub fn packages(&self) -> impl Iterator<Item = &Package> {
        self.units.iter().filter_map(|u| match u {
            DesignUnit::Package(p) => Some(p),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entity(name: Name) -> Entity {
        Entity { name: Ident::synthetic(name), ports: vec![], span: Span::synthetic() }
    }

    #[test]
    fn design_file_lookup() {
        let mut df = DesignFile::new();
        let telephone = df.names.intern("telephone");
        df.units.push(DesignUnit::Entity(entity(telephone)));
        df.units.push(DesignUnit::Architecture(Architecture {
            name: Ident::synthetic(df.names.intern("behavioral")),
            entity: Ident::synthetic(telephone),
            decls: vec![],
            functions: vec![],
            stmts: vec![],
            span: Span::synthetic(),
        }));
        assert!(df.entity("telephone").is_some());
        assert!(df.entity("nope").is_none());
        assert!(df.architecture_of("telephone").is_some());
        assert_eq!(df.entities().count(), 1);
        assert_eq!(df.architectures().count(), 1);
        assert_eq!(df.packages().count(), 0);
    }

    #[test]
    fn port_class_converts_to_object_class() {
        assert_eq!(ObjectClass::from(PortClass::Quantity), ObjectClass::Quantity);
        assert_eq!(ObjectClass::from(PortClass::Terminal), ObjectClass::Terminal);
    }

    #[test]
    fn entity_port_lookup_handles_multi_name_decls() {
        let mut names = Names::new();
        let [a, b, c] = ["a", "b", "c"].map(|n| names.intern(n));
        let mut e = entity(names.intern("e"));
        e.ports.push(PortDecl {
            class: PortClass::Quantity,
            names: vec![Ident::synthetic(a), Ident::synthetic(b)],
            mode: Mode::In,
            ty: TypeName::Real,
            annotations: vec![],
            span: Span::synthetic(),
        });
        assert!(e.port(a).is_some());
        assert!(e.port(b).is_some());
        assert!(e.port(c).is_none());
    }
}
