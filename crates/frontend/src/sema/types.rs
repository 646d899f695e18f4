//! Type inference for VASS expressions.

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ast::{
    AttributeKind, BinaryOp, Expr, ExprKind, FunctionDecl, ObjectClass, TypeName, UnaryOp,
};
use crate::error::{SemaError, SemaErrorKind};
use crate::names::{Name, Names};
use crate::sema::symbols::SymbolTable;
use crate::span::Span;

/// An inferred expression type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Ty {
    /// Continuous real value.
    Real,
    /// Integer (constants and loop indices).
    Integer,
    /// Boolean.
    Boolean,
    /// Single bit.
    Bit,
    /// Bit vector.
    BitVector,
    /// Vector of reals.
    RealVector,
    /// Terminal nature.
    Electrical,
}

impl Ty {
    /// Map a declared type to its inferred type.
    pub fn from_type_name(t: &TypeName) -> Ty {
        match t {
            TypeName::Real => Ty::Real,
            TypeName::Integer => Ty::Integer,
            TypeName::Boolean => Ty::Boolean,
            TypeName::Bit => Ty::Bit,
            TypeName::BitVector { .. } => Ty::BitVector,
            TypeName::RealVector { .. } => Ty::RealVector,
            TypeName::Electrical => Ty::Electrical,
        }
    }

    /// Whether values of this type are numeric (usable in arithmetic).
    pub fn is_numeric(&self) -> bool {
        matches!(self, Ty::Real | Ty::Integer)
    }

    /// Whether `self` accepts a value of type `other` (VASS allows
    /// integer→real coercion; everything else must match exactly).
    pub fn accepts(&self, other: Ty) -> bool {
        *self == other || (*self == Ty::Real && other == Ty::Integer)
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Ty::Real => "real",
            Ty::Integer => "integer",
            Ty::Boolean => "boolean",
            Ty::Bit => "bit",
            Ty::BitVector => "bit_vector",
            Ty::RealVector => "real_vector",
            Ty::Electrical => "electrical",
        };
        f.write_str(s)
    }
}

/// The environment used during inference: the file's names, the
/// architecture's symbols, its functions, and any active loop variables
/// (which are integers).
pub struct TypeEnv<'a> {
    /// The name table of the file, for messages.
    pub names: &'a Names,
    /// Architecture symbols.
    pub symbols: &'a SymbolTable,
    /// Visible functions by name.
    pub functions: &'a HashMap<Name, &'a FunctionDecl>,
    /// Names of active `for`-loop variables.
    pub loop_vars: Vec<Name>,
}

impl<'a> TypeEnv<'a> {
    /// Create an environment with no active loop variables.
    pub fn new(
        names: &'a Names,
        symbols: &'a SymbolTable,
        functions: &'a HashMap<Name, &'a FunctionDecl>,
    ) -> Self {
        TypeEnv { names, symbols, functions, loop_vars: Vec::new() }
    }

    /// The spelling of `name`.
    fn text(&self, name: Name) -> &'a str {
        self.names.resolve(name)
    }

    fn err(&self, kind: SemaErrorKind, msg: String, span: Span) -> SemaError {
        SemaError::new(kind, msg, span)
    }

    /// Infer the type of `expr`.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic on undeclared names, unknown functions,
    /// arity mismatches, or operand-type violations.
    pub fn infer(&self, expr: &Expr) -> Result<Ty, SemaError> {
        match &expr.kind {
            ExprKind::Int(_) => Ok(Ty::Integer),
            ExprKind::Real(_) => Ok(Ty::Real),
            ExprKind::Char(_) => Ok(Ty::Bit),
            ExprKind::Str(_) => Ok(Ty::BitVector),
            ExprKind::Bool(_) => Ok(Ty::Boolean),
            ExprKind::Name(id) => {
                if self.loop_vars.contains(&id.name) {
                    return Ok(Ty::Integer);
                }
                match self.symbols.get(id.name) {
                    Some(sym) => Ok(Ty::from_type_name(&sym.ty)),
                    None => Err(self.err(
                        SemaErrorKind::UndeclaredName,
                        format!("`{}` is not declared", self.text(id.name)),
                        id.span,
                    )),
                }
            }
            ExprKind::Call { name, args } => self.infer_call(name, args, expr.span),
            ExprKind::Attribute { prefix, attr, args } => {
                self.infer_attribute(prefix, *attr, args, expr.span)
            }
            ExprKind::Unary { op, operand } => {
                let t = self.infer(operand)?;
                match op {
                    UnaryOp::Neg | UnaryOp::Plus | UnaryOp::Abs => {
                        if t.is_numeric() {
                            Ok(t)
                        } else {
                            Err(self.err(
                                SemaErrorKind::TypeMismatch,
                                format!("unary `{op}` requires a numeric operand, got {t}"),
                                expr.span,
                            ))
                        }
                    }
                    UnaryOp::Not => {
                        if matches!(t, Ty::Boolean | Ty::Bit | Ty::BitVector) {
                            Ok(t)
                        } else {
                            Err(self.err(
                                SemaErrorKind::TypeMismatch,
                                format!("`not` requires a boolean or bit operand, got {t}"),
                                expr.span,
                            ))
                        }
                    }
                }
            }
            ExprKind::Binary { op, lhs, rhs } => self.infer_binary(*op, lhs, rhs, expr.span),
        }
    }

    fn infer_call(&self, name: &crate::ast::Ident, args: &[Expr], span: Span) -> Result<Ty, SemaError> {
        let text = self.text(name.name);
        // Math/conversion intrinsics (not user-definable, always visible).
        let intrinsic_ret = match name.name {
            Name::LOG | Name::LN | Name::EXP | Name::ANTILOG => Some(Ty::Real),
            Name::ADC => Some(Ty::Integer),
            _ => None,
        };
        if let Some(ret) = intrinsic_ret {
            if self.functions.contains_key(&name.name) || self.symbols.contains(name.name) {
                // user declaration shadows the intrinsic; fall through
            } else {
                if args.len() != 1 {
                    return Err(self.err(
                        SemaErrorKind::TypeMismatch,
                        format!("intrinsic `{text}` takes exactly one argument"),
                        span,
                    ));
                }
                let at = self.infer(&args[0])?;
                if !at.is_numeric() {
                    return Err(self.err(
                        SemaErrorKind::TypeMismatch,
                        format!("intrinsic `{text}` expects a numeric argument, got {at}"),
                        args[0].span,
                    ));
                }
                return Ok(ret);
            }
        }
        // Function call?
        if let Some(func) = self.functions.get(&name.name) {
            if args.len() != func.params.len() {
                return Err(self.err(
                    SemaErrorKind::TypeMismatch,
                    format!(
                        "function `{text}` takes {} argument(s), {} given",
                        func.params.len(),
                        args.len()
                    ),
                    span,
                ));
            }
            for (arg, (pname, pty)) in args.iter().zip(&func.params) {
                let at = self.infer(arg)?;
                let want = Ty::from_type_name(pty);
                if !want.accepts(at) {
                    return Err(self.err(
                        SemaErrorKind::TypeMismatch,
                        format!(
                            "argument `{}` of `{text}` expects {want}, got {at}",
                            self.text(pname.name)
                        ),
                        arg.span,
                    ));
                }
            }
            return Ok(Ty::from_type_name(&func.ret));
        }
        // Indexed name?
        if let Some(sym) = self.symbols.get(name.name) {
            let elem = match &sym.ty {
                TypeName::BitVector { .. } => Ty::Bit,
                TypeName::RealVector { .. } => Ty::Real,
                other => {
                    return Err(self.err(
                        SemaErrorKind::InvalidUse,
                        format!("`{text}` of type {other} cannot be indexed or called"),
                        span,
                    ))
                }
            };
            if args.len() != 1 {
                return Err(self.err(
                    SemaErrorKind::TypeMismatch,
                    format!("indexing `{text}` requires exactly one index"),
                    span,
                ));
            }
            let it = self.infer(&args[0])?;
            if it != Ty::Integer {
                return Err(self.err(
                    SemaErrorKind::TypeMismatch,
                    format!("index must be an integer, got {it}"),
                    args[0].span,
                ));
            }
            return Ok(elem);
        }
        Err(self.err(
            SemaErrorKind::UndeclaredName,
            format!("`{text}` is neither a declared function nor an indexable object"),
            span,
        ))
    }

    fn infer_attribute(
        &self,
        prefix: &crate::ast::Ident,
        attr: AttributeKind,
        args: &[Expr],
        span: Span,
    ) -> Result<Ty, SemaError> {
        let sym = self.symbols.get(prefix.name).ok_or_else(|| {
            self.err(
                SemaErrorKind::UndeclaredName,
                format!("`{}` is not declared", self.text(prefix.name)),
                prefix.span,
            )
        })?;
        match attr {
            AttributeKind::Above => {
                if !sym.is_quantity() {
                    return Err(self.err(
                        SemaErrorKind::InvalidUse,
                        format!("'above requires a quantity prefix; `{}` is a {}", sym.name, sym.class),
                        span,
                    ));
                }
                if args.len() != 1 {
                    return Err(self.err(
                        SemaErrorKind::TypeMismatch,
                        "'above takes exactly one threshold argument".into(),
                        span,
                    ));
                }
                let at = self.infer(&args[0])?;
                if !at.is_numeric() {
                    return Err(self.err(
                        SemaErrorKind::TypeMismatch,
                        format!("'above threshold must be numeric, got {at}"),
                        args[0].span,
                    ));
                }
                Ok(Ty::Boolean)
            }
            AttributeKind::Dot | AttributeKind::Integ => {
                if !sym.is_quantity() {
                    return Err(self.err(
                        SemaErrorKind::InvalidUse,
                        format!("'{attr} requires a quantity prefix; `{}` is a {}", sym.name, sym.class),
                        span,
                    ));
                }
                if !args.is_empty() {
                    return Err(self.err(
                        SemaErrorKind::TypeMismatch,
                        format!("'{attr} takes no arguments"),
                        span,
                    ));
                }
                Ok(Ty::Real)
            }
            AttributeKind::Delayed => {
                if !sym.is_quantity() {
                    return Err(self.err(
                        SemaErrorKind::InvalidUse,
                        format!("'delayed requires a quantity prefix; `{}` is a {}", sym.name, sym.class),
                        span,
                    ));
                }
                if args.len() != 1 {
                    return Err(self.err(
                        SemaErrorKind::TypeMismatch,
                        "'delayed takes exactly one delay argument".into(),
                        span,
                    ));
                }
                let at = self.infer(&args[0])?;
                if !at.is_numeric() {
                    return Err(self.err(
                        SemaErrorKind::TypeMismatch,
                        format!("'delayed delay must be numeric, got {at}"),
                        args[0].span,
                    ));
                }
                Ok(Ty::Real)
            }
            AttributeKind::Across | AttributeKind::Through => {
                if sym.class != ObjectClass::Terminal {
                    return Err(self.err(
                        SemaErrorKind::InvalidUse,
                        format!(
                            "'{attr} requires a terminal prefix; `{}` is a {}",
                            sym.name, sym.class
                        ),
                        span,
                    ));
                }
                if !args.is_empty() {
                    return Err(self.err(
                        SemaErrorKind::TypeMismatch,
                        format!("'{attr} takes no arguments"),
                        span,
                    ));
                }
                Ok(Ty::Real)
            }
        }
    }

    fn infer_binary(
        &self,
        op: BinaryOp,
        lhs: &Expr,
        rhs: &Expr,
        span: Span,
    ) -> Result<Ty, SemaError> {
        let lt = self.infer(lhs)?;
        let rt = self.infer(rhs)?;
        if op.is_relational() {
            let compatible = lt == rt
                || (lt.is_numeric() && rt.is_numeric())
                || matches!((lt, rt), (Ty::Bit, Ty::Bit) | (Ty::Boolean, Ty::Boolean));
            if !compatible {
                return Err(self.err(
                    SemaErrorKind::TypeMismatch,
                    format!("cannot compare {lt} with {rt}"),
                    span,
                ));
            }
            return Ok(Ty::Boolean);
        }
        if op.is_logical() {
            let both_bool = lt == Ty::Boolean && rt == Ty::Boolean;
            let both_bit = lt == Ty::Bit && rt == Ty::Bit;
            if !(both_bool || both_bit) {
                return Err(self.err(
                    SemaErrorKind::TypeMismatch,
                    format!("logical `{op}` requires matching boolean or bit operands, got {lt} and {rt}"),
                    span,
                ));
            }
            return Ok(lt);
        }
        if op == BinaryOp::Concat {
            let ok = matches!(lt, Ty::Bit | Ty::BitVector) && matches!(rt, Ty::Bit | Ty::BitVector);
            if !ok {
                return Err(self.err(
                    SemaErrorKind::TypeMismatch,
                    format!("`&` requires bit or bit_vector operands, got {lt} and {rt}"),
                    span,
                ));
            }
            return Ok(Ty::BitVector);
        }
        // Arithmetic.
        if !(lt.is_numeric() && rt.is_numeric()) {
            return Err(self.err(
                SemaErrorKind::TypeMismatch,
                format!("arithmetic `{op}` requires numeric operands, got {lt} and {rt}"),
                span,
            ));
        }
        if lt == Ty::Integer && rt == Ty::Integer {
            Ok(Ty::Integer)
        } else {
            Ok(Ty::Real)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expression;
    use crate::sema::symbols::{Symbol, SymbolTable};

    fn table(names: &mut Names) -> SymbolTable {
        let mut t = SymbolTable::new();
        let mut mk = |name: &str, class: ObjectClass, ty: TypeName| Symbol {
            name: name.into(),
            key: names.intern(name),
            class,
            ty,
            mode: None,
            annotations: vec![],
            is_port: false,
            const_value: None,
            span: Span::synthetic(),
        };
        t.insert(mk("x", ObjectClass::Quantity, TypeName::Real)).expect("x");
        t.insert(mk("y", ObjectClass::Quantity, TypeName::Real)).expect("y");
        t.insert(mk("c1", ObjectClass::Signal, TypeName::Bit)).expect("c1");
        t.insert(mk("n", ObjectClass::Constant, TypeName::Integer)).expect("n");
        t.insert(mk("vec", ObjectClass::Quantity, TypeName::RealVector { lo: 0, hi: 3 }))
            .expect("vec");
        t.insert(mk("t1", ObjectClass::Terminal, TypeName::Electrical)).expect("t1");
        t
    }

    fn infer(src: &str) -> Result<Ty, SemaError> {
        let mut names = Names::new();
        let table = table(&mut names);
        let expr = parse_expression(src, &mut names).expect("parses");
        let functions = HashMap::new();
        TypeEnv::new(&names, &table, &functions).infer(&expr)
    }

    #[test]
    fn arithmetic_promotes_to_real() {
        assert_eq!(infer("x + 1").unwrap(), Ty::Real);
        assert_eq!(infer("n + 1").unwrap(), Ty::Integer);
        assert_eq!(infer("x * y / 2.0").unwrap(), Ty::Real);
    }

    #[test]
    fn relational_yields_boolean() {
        assert_eq!(infer("x >= y").unwrap(), Ty::Boolean);
        assert_eq!(infer("c1 = '1'").unwrap(), Ty::Boolean);
    }

    #[test]
    fn logical_requires_matching() {
        assert_eq!(infer("x > 0.0 and y < 1.0").unwrap(), Ty::Boolean);
        assert!(infer("x and y").is_err());
        assert!(infer("c1 and (x > 0.0)").is_err());
    }

    #[test]
    fn above_attribute_types() {
        assert_eq!(infer("x'above(0.5)").unwrap(), Ty::Boolean);
        assert!(infer("c1'above(0.5)").is_err()); // not a quantity
        assert!(infer("x'above(c1)").is_err()); // non-numeric threshold
        assert!(infer("x'above(0.1, 0.2)").is_err()); // arity
    }

    #[test]
    fn dot_and_integ_are_real() {
        assert_eq!(infer("x'dot").unwrap(), Ty::Real);
        assert_eq!(infer("x'integ").unwrap(), Ty::Real);
        assert!(infer("c1'dot").is_err());
    }

    #[test]
    fn terminal_facets() {
        assert_eq!(infer("t1'across").unwrap(), Ty::Real);
        assert_eq!(infer("t1'through").unwrap(), Ty::Real);
        assert!(infer("x'across").is_err());
    }

    #[test]
    fn indexing_real_vector() {
        assert_eq!(infer("vec(2)").unwrap(), Ty::Real);
        assert!(infer("vec(x)").is_err()); // real index
        assert!(infer("x(1)").is_err()); // scalar indexed
    }

    #[test]
    fn undeclared_name_reported() {
        let err = infer("zz + 1.0").unwrap_err();
        assert_eq!(err.kind, SemaErrorKind::UndeclaredName);
    }

    #[test]
    fn unknown_function_reported() {
        let err = infer("f(x)").unwrap_err();
        assert_eq!(err.kind, SemaErrorKind::UndeclaredName);
    }

    #[test]
    fn not_requires_boolean() {
        assert_eq!(infer("not (x > 0.0)").unwrap(), Ty::Boolean);
        assert!(infer("not x").is_err());
    }

    #[test]
    fn intrinsics_are_typed() {
        assert_eq!(infer("log(x)").unwrap(), Ty::Real);
        assert_eq!(infer("exp(x + 1.0)").unwrap(), Ty::Real);
        assert_eq!(infer("adc(x)").unwrap(), Ty::Integer);
        assert!(infer("adc(x, y)").is_err());
        assert!(infer("log(c1)").is_err());
    }

    #[test]
    fn accepts_coercion() {
        assert!(Ty::Real.accepts(Ty::Integer));
        assert!(!Ty::Integer.accepts(Ty::Real));
        assert!(Ty::Bit.accepts(Ty::Bit));
        assert!(!Ty::Bit.accepts(Ty::Boolean));
    }
}
