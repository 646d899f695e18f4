//! Parsing of design units, declarations, ports, types, and
//! annotations.

use crate::annot::{Annotation, SignalKind};
use crate::ast::{
    Architecture, Entity, FunctionDecl, Ident, Mode, ObjectClass, ObjectDecl, PortClass,
    PortDecl, TypeName,
};
use crate::ast::design::Package;
use crate::error::ParseError;
use crate::names::Name;
use crate::parser::Parser;
use crate::token::{Keyword, TokenKind};

impl Parser<'_> {
    /// entity := `entity` id `is` [`port` `(` ports `)` `;`] `end` [`entity`] [id] `;`
    pub(crate) fn parse_entity(&mut self) -> Result<Entity, ParseError> {
        let start = self.here();
        self.expect_keyword(Keyword::Entity)?;
        let name = self.expect_ident()?;
        self.expect_keyword(Keyword::Is)?;
        let mut ports = Vec::new();
        if self.eat_keyword(Keyword::Port) {
            self.expect(&TokenKind::LParen)?;
            loop {
                match self.parse_port_decl() {
                    Ok(port) => ports.push(port),
                    Err(e) => {
                        // Recovery: skip the broken port, resume at the
                        // next `;` (next port) or `)` (end of list).
                        self.note_error(e)?;
                        while !self.at_eof()
                            && !matches!(
                                self.peek_kind(),
                                TokenKind::Semicolon | TokenKind::RParen
                            )
                            && !self.check_keyword(Keyword::End)
                        {
                            self.advance();
                        }
                        if self.check_keyword(Keyword::End) || self.at_eof() {
                            break;
                        }
                    }
                }
                if !self.eat(&TokenKind::Semicolon) {
                    break;
                }
                // allow a trailing semicolon before `)`
                if self.peek_kind() == &TokenKind::RParen {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
            self.expect(&TokenKind::Semicolon)?;
        }
        self.expect_keyword(Keyword::End)?;
        self.eat_keyword(Keyword::Entity);
        self.eat_trailing_name("entity", Some(&name))?;
        let end = self.expect(&TokenKind::Semicolon)?;
        Ok(Entity { name, ports, span: start.merge(end.span) })
    }

    /// port := (`quantity`|`signal`|`terminal`) ids `:` [mode] type [`is` annots]
    fn parse_port_decl(&mut self) -> Result<PortDecl, ParseError> {
        let start = self.here();
        let class = if self.eat_keyword(Keyword::Quantity) {
            PortClass::Quantity
        } else if self.eat_keyword(Keyword::Signal) {
            PortClass::Signal
        } else if self.eat_keyword(Keyword::Terminal) {
            PortClass::Terminal
        } else {
            return Err(self.error_here(
                "expected `quantity`, `signal`, or `terminal` port class",
            ));
        };
        let names = self.parse_ident_list()?;
        self.expect(&TokenKind::Colon)?;
        let mode = if self.eat_keyword(Keyword::In) {
            Mode::In
        } else if self.eat_keyword(Keyword::Out) {
            Mode::Out
        } else if self.eat_keyword(Keyword::Inout) || class == PortClass::Terminal {
            // Terminals have no mode in VHDL-AMS; treat them as inout.
            Mode::Inout
        } else {
            return Err(self.error_here("expected port mode `in`, `out`, or `inout`"));
        };
        let ty = self.parse_type_name()?;
        let annotations = self.parse_optional_annotations()?;
        let span = start.merge(self.here());
        Ok(PortDecl { class, names, mode, ty, annotations, span })
    }

    /// architecture := `architecture` id `of` id `is` {decl} `begin`
    ///                 {concurrent} `end` [`architecture`] [id] `;`
    pub(crate) fn parse_architecture(&mut self) -> Result<Architecture, ParseError> {
        let start = self.here();
        self.expect_keyword(Keyword::Architecture)?;
        let name = self.expect_ident()?;
        self.expect_keyword(Keyword::Of)?;
        let entity = self.expect_ident()?;
        self.expect_keyword(Keyword::Is)?;
        let mut decls = Vec::new();
        let mut functions = Vec::new();
        while !self.check_keyword(Keyword::Begin)
            && !self.check_keyword(Keyword::End)
            && !self.at_eof()
        {
            let item = if self.check_keyword(Keyword::Function) {
                self.parse_function_decl().map(|f| functions.push(f))
            } else {
                self.parse_object_decl().map(|d| decls.push(d))
            };
            if let Err(e) = item {
                self.recover_from(e, &[Keyword::Begin, Keyword::End])?;
            }
        }
        self.expect_keyword(Keyword::Begin)?;
        let mut stmts = Vec::new();
        while !self.check_keyword(Keyword::End) && !self.at_eof() {
            match self.parse_concurrent_stmt() {
                Ok(s) => stmts.push(s),
                Err(e) => self.recover_from(e, &[Keyword::End])?,
            }
        }
        self.expect_keyword(Keyword::End)?;
        self.eat_keyword(Keyword::Architecture);
        self.eat_trailing_name("architecture", Some(&name))?;
        let end = self.expect(&TokenKind::Semicolon)?;
        Ok(Architecture {
            name,
            entity,
            decls,
            functions,
            stmts,
            span: start.merge(end.span),
        })
    }

    /// package := `package` id `is` {decl|function} `end` [`package`] [id] `;`
    pub(crate) fn parse_package(&mut self) -> Result<Package, ParseError> {
        let start = self.here();
        self.expect_keyword(Keyword::Package)?;
        // Accept (and ignore) `body` — VASS merges package and body.
        self.eat_keyword(Keyword::Body);
        let name = self.expect_ident()?;
        self.expect_keyword(Keyword::Is)?;
        let mut decls = Vec::new();
        let mut functions = Vec::new();
        while !self.check_keyword(Keyword::End) && !self.at_eof() {
            let item = if self.check_keyword(Keyword::Function) {
                self.parse_function_decl().map(|f| functions.push(f))
            } else {
                self.parse_object_decl().map(|d| decls.push(d))
            };
            if let Err(e) = item {
                self.recover_from(e, &[Keyword::End])?;
            }
        }
        self.expect_keyword(Keyword::End)?;
        self.eat_keyword(Keyword::Package);
        self.eat_trailing_name("package", Some(&name))?;
        let end = self.expect(&TokenKind::Semicolon)?;
        Ok(Package { name, decls, functions, span: start.merge(end.span) })
    }

    /// object_decl := class ids `:` type [`:=` expr] [`is` annots] `;`
    pub(crate) fn parse_object_decl(&mut self) -> Result<ObjectDecl, ParseError> {
        let start = self.here();
        let class = if self.eat_keyword(Keyword::Quantity) {
            ObjectClass::Quantity
        } else if self.eat_keyword(Keyword::Signal) {
            ObjectClass::Signal
        } else if self.eat_keyword(Keyword::Terminal) {
            ObjectClass::Terminal
        } else if self.eat_keyword(Keyword::Constant) {
            ObjectClass::Constant
        } else if self.eat_keyword(Keyword::Variable) {
            ObjectClass::Variable
        } else {
            return Err(self.error_here(format!(
                "expected declaration, found {}",
                self.peek_kind().describe(self.names)
            )));
        };
        let names = self.parse_ident_list()?;
        self.expect(&TokenKind::Colon)?;
        let ty = self.parse_type_name()?;
        let init = if self.eat(&TokenKind::ColonEq) { Some(self.parse_expr()?) } else { None };
        let annotations = self.parse_optional_annotations()?;
        let end = self.expect(&TokenKind::Semicolon)?;
        Ok(ObjectDecl { class, names, ty, init, annotations, span: start.merge(end.span) })
    }

    /// function := `function` id `(` [params] `)` `return` type `is`
    ///             {var decls} `begin` {seq} `end` [`function`] [id] `;`
    pub(crate) fn parse_function_decl(&mut self) -> Result<FunctionDecl, ParseError> {
        let start = self.here();
        self.expect_keyword(Keyword::Function)?;
        let name = self.expect_ident()?;
        let mut params = Vec::new();
        if self.eat(&TokenKind::LParen) {
            if self.peek_kind() != &TokenKind::RParen {
                loop {
                    let pnames = self.parse_ident_list()?;
                    self.expect(&TokenKind::Colon)?;
                    let pty = self.parse_type_name()?;
                    for pn in pnames {
                        params.push((pn, pty.clone()));
                    }
                    if !self.eat(&TokenKind::Semicolon) {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        self.expect_keyword(Keyword::Return)?;
        let ret = self.parse_type_name()?;
        self.expect_keyword(Keyword::Is)?;
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
        let mut body = Vec::new();
        while !self.check_keyword(Keyword::End) && !self.at_eof() {
            match self.parse_seq_stmt() {
                Ok(s) => body.push(s),
                Err(e) => self.recover_from(e, &[Keyword::End])?,
            }
        }
        self.expect_keyword(Keyword::End)?;
        self.eat_keyword(Keyword::Function);
        self.eat_trailing_name("function", Some(&name))?;
        let end = self.expect(&TokenKind::Semicolon)?;
        Ok(FunctionDecl { name, params, ret, decls, body, span: start.merge(end.span) })
    }

    pub(crate) fn parse_ident_list(&mut self) -> Result<Vec<Ident>, ParseError> {
        let mut names = vec![self.expect_ident()?];
        while self.eat(&TokenKind::Comma) {
            names.push(self.expect_ident()?);
        }
        Ok(names)
    }

    /// type := real | integer | boolean | bit
    ///       | bit_vector `(` int (to|downto) int `)`
    ///       | real_vector `(` int (to|downto) int `)`
    ///       | electrical
    pub(crate) fn parse_type_name(&mut self) -> Result<TypeName, ParseError> {
        let id = self.expect_ident()?;
        match id.name {
            Name::REAL => Ok(TypeName::Real),
            Name::INTEGER => Ok(TypeName::Integer),
            Name::BOOLEAN => Ok(TypeName::Boolean),
            Name::BIT => Ok(TypeName::Bit),
            Name::ELECTRICAL => Ok(TypeName::Electrical),
            Name::BIT_VECTOR | Name::REAL_VECTOR => {
                self.expect(&TokenKind::LParen)?;
                let lo = self.parse_int_bound()?;
                let descending = if self.eat_keyword(Keyword::To) {
                    false
                } else if self.eat_keyword(Keyword::Downto) {
                    true
                } else {
                    return Err(self.error_here("expected `to` or `downto` in range"));
                };
                let hi = self.parse_int_bound()?;
                self.expect(&TokenKind::RParen)?;
                let (lo, hi) = if descending { (hi, lo) } else { (lo, hi) };
                if id.name == Name::BIT_VECTOR {
                    Ok(TypeName::BitVector { lo, hi })
                } else {
                    Ok(TypeName::RealVector { lo, hi })
                }
            }
            other => Err(self.error_here(format!(
                "unknown type `{}` (VASS types: real, integer, boolean, bit, \
                 bit_vector, real_vector, electrical)",
                self.names.resolve(other)
            ))),
        }
    }

    fn parse_int_bound(&mut self) -> Result<i64, ParseError> {
        match *self.peek_kind() {
            TokenKind::IntLiteral(v) => {
                self.advance();
                Ok(v)
            }
            _ => Err(self.error_here("expected integer bound")),
        }
    }

    /// annots := `is` annot { annot }
    pub(crate) fn parse_optional_annotations(&mut self) -> Result<Vec<Annotation>, ParseError> {
        if !self.eat_keyword(Keyword::Is) {
            return Ok(Vec::new());
        }
        self.parse_annotation_list()
    }

    pub(crate) fn parse_annotation_list(&mut self) -> Result<Vec<Annotation>, ParseError> {
        let mut annotations = Vec::new();
        loop {
            let ann = if self.eat_keyword(Keyword::Voltage) {
                Annotation::Kind(SignalKind::Voltage)
            } else if self.eat_keyword(Keyword::Current) {
                Annotation::Kind(SignalKind::Current)
            } else if self.eat_keyword(Keyword::Limited) {
                let level = if self.eat_keyword(Keyword::At) {
                    Some(self.parse_physical_value()?)
                } else {
                    None
                };
                Annotation::Limited { level }
            } else if self.eat_keyword(Keyword::Drives) {
                let load_ohms = self.parse_physical_value()?;
                self.expect_keyword(Keyword::At)?;
                let peak_volts = self.parse_physical_value()?;
                self.expect_keyword(Keyword::Peak)?;
                Annotation::Drives { load_ohms, peak_volts }
            } else if self.eat_keyword(Keyword::Range) {
                let lo = self.parse_physical_value()?;
                self.expect_keyword(Keyword::To)?;
                let hi = self.parse_physical_value()?;
                Annotation::ValueRange { lo, hi }
            } else if self.eat_keyword(Keyword::Frequency) {
                let lo = self.parse_physical_value()?;
                self.expect_keyword(Keyword::To)?;
                let hi = self.parse_physical_value()?;
                Annotation::FrequencyRange { lo, hi }
            } else if self.eat_keyword(Keyword::Impedance) {
                let ohms = self.parse_physical_value()?;
                Annotation::Impedance { ohms }
            } else {
                break;
            };
            annotations.push(ann);
        }
        if annotations.is_empty() {
            return Err(self.error_here(
                "expected at least one annotation after `is` (voltage, current, limited, \
                 drives, range, frequency, impedance)",
            ));
        }
        Ok(annotations)
    }

    /// physical := [+|-] number [unit]
    ///
    /// Units scale the literal to SI base units: `270 ohm` → 270.0,
    /// `285 mv` → 0.285, `3.4 khz` → 3400.0.
    pub(crate) fn parse_physical_value(&mut self) -> Result<f64, ParseError> {
        let negative = if self.eat(&TokenKind::Minus) {
            true
        } else {
            self.eat(&TokenKind::Plus);
            false
        };
        let magnitude = match *self.peek_kind() {
            TokenKind::IntLiteral(v) => {
                self.advance();
                v as f64
            }
            TokenKind::RealLiteral(v) => {
                self.advance();
                v
            }
            _ => return Err(self.error_here("expected numeric value")),
        };
        let scale = if let TokenKind::Ident(unit) = *self.peek_kind() {
            match unit_scale(self.names.resolve(unit)) {
                Some(s) => {
                    self.advance();
                    s
                }
                None => 1.0,
            }
        } else {
            1.0
        };
        // Scaling by a decimal unit factor (e.g. 285 × 1e-3) introduces
        // binary round-off the source never asked for; snap to 12
        // significant digits so `285 mv` means exactly 0.285.
        let value = tidy(magnitude * scale);
        Ok(if negative { -value } else { value })
    }
}

/// Round to 12 significant digits (removes unit-scaling round-off).
fn tidy(value: f64) -> f64 {
    if value == 0.0 || !value.is_finite() {
        return value;
    }
    format!("{value:.12e}").parse().unwrap_or(value)
}

/// SI scale factor for a (lower-cased) unit suffix, or `None` if the
/// identifier is not a recognized unit.
fn unit_scale(unit: &str) -> Option<f64> {
    Some(match unit {
        "v" | "volt" | "volts" => 1.0,
        "mv" => 1e-3,
        "uv" => 1e-6,
        "kv" => 1e3,
        "a" | "amp" | "amps" => 1.0,
        "ma" => 1e-3,
        "ua" => 1e-6,
        "na" => 1e-9,
        "ohm" | "ohms" | "o" => 1.0,
        "kohm" | "kohms" => 1e3,
        "megohm" | "megohms" => 1e6,
        "hz" => 1.0,
        "khz" => 1e3,
        "mhz" => 1e6,
        "ghz" => 1e9,
        "s" | "sec" => 1.0,
        "ms" => 1e-3,
        "us" => 1e-6,
        "ns" => 1e-9,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_design_file;

    #[test]
    fn parses_telephone_entity_from_paper() {
        // Paper Fig. 2 entity, written with VASS inline annotations.
        let src = "
            entity telephone is
              port (
                quantity line  : in  real is voltage;
                quantity local : in  real is voltage;
                quantity earph : out real is voltage limited at 1.5 v
                                            drives 270 ohm at 285 mv peak
              );
            end entity;
        ";
        let df = parse_design_file(src).expect("parses");
        let e = df.entity("telephone").expect("entity");
        assert_eq!(e.ports.len(), 3);
        let earph = e.port(df.names.lookup("earph").expect("interned")).expect("port");
        assert_eq!(earph.mode, Mode::Out);
        let set = crate::annot::AnnotationSet::new(&earph.annotations);
        assert_eq!(set.kind(), Some(SignalKind::Voltage));
        assert_eq!(set.limit_level(), Some(1.5));
        let (load, peak) = set.drive().expect("drive annotation");
        assert_eq!(load, 270.0);
        assert!((peak - 0.285).abs() < 1e-12);
    }

    #[test]
    fn parses_multi_name_ports() {
        let src = "
            entity e is
              port (quantity a, b, c : in real is voltage);
            end entity;
        ";
        let df = parse_design_file(src).expect("parses");
        assert_eq!(df.entity("e").unwrap().ports[0].names.len(), 3);
    }

    #[test]
    fn parses_terminal_port_without_mode() {
        let src = "
            entity e is
              port (terminal t1 : electrical is impedance 10 kohm);
            end entity;
        ";
        let df = parse_design_file(src).expect("parses");
        let p = &df.entity("e").unwrap().ports[0];
        assert_eq!(p.class, PortClass::Terminal);
        assert_eq!(p.ty, TypeName::Electrical);
        let set = crate::annot::AnnotationSet::new(&p.annotations);
        assert_eq!(set.impedance(), Some(1e4));
    }

    #[test]
    fn parses_architecture_decls() {
        let src = "
            entity e is end entity;
            architecture a of e is
              quantity rvar : real;
              signal c1 : bit;
              constant r1c : real := 220.0;
              constant gains : real_vector(0 to 2);
              signal word : bit_vector(3 downto 0);
            begin
            end architecture;
        ";
        let df = parse_design_file(src).expect("parses");
        let arch = df.architecture_of("e").expect("arch");
        assert_eq!(arch.decls.len(), 5);
        assert_eq!(arch.decls[0].class, ObjectClass::Quantity);
        assert_eq!(arch.decls[2].init.as_ref().and_then(|e| e.const_fold()), Some(220.0));
        assert_eq!(arch.decls[4].ty, TypeName::BitVector { lo: 0, hi: 3 });
    }

    #[test]
    fn parses_function_decl() {
        let src = "
            entity e is end entity;
            architecture a of e is
              function sq(x : real) return real is
              begin
                return x * x;
              end function;
            begin
            end architecture;
        ";
        let df = parse_design_file(src).expect("parses");
        let arch = df.architecture_of("e").expect("arch");
        assert_eq!(arch.functions.len(), 1);
        assert_eq!(arch.functions[0].params.len(), 1);
        assert_eq!(arch.functions[0].ret, TypeName::Real);
    }

    #[test]
    fn parses_package() {
        let src = "
            package consts is
              constant vth : real := 0.7;
            end package;
        ";
        let df = parse_design_file(src).expect("parses");
        assert_eq!(df.packages().count(), 1);
    }

    #[test]
    fn unknown_type_rejected() {
        let src = "entity e is port (quantity q : in voltageish); end entity;";
        assert!(parse_design_file(src).is_err());
    }

    #[test]
    fn physical_values_are_tidy() {
        let src = "entity e is
                     port (quantity q : in real is voltage range -285 mv to 285 mv);
                   end entity;";
        let df = parse_design_file(src).expect("parses");
        let set = crate::annot::AnnotationSet::new(&df.entity("e").unwrap().ports[0].annotations);
        assert_eq!(set.value_range(), Some((-0.285, 0.285)));
    }

    #[test]
    fn unit_scales() {
        assert_eq!(unit_scale("mv"), Some(1e-3));
        assert_eq!(unit_scale("kohm"), Some(1e3));
        assert_eq!(unit_scale("ghz"), Some(1e9));
        assert_eq!(unit_scale("parsec"), None);
    }

    #[test]
    fn annotation_value_range_with_negatives() {
        let src = "
            entity e is
              port (quantity q : in real is voltage range -2.5 to 2.5);
            end entity;
        ";
        let df = parse_design_file(src).expect("parses");
        let p = &df.entity("e").unwrap().ports[0];
        let set = crate::annot::AnnotationSet::new(&p.annotations);
        assert_eq!(set.value_range(), Some((-2.5, 2.5)));
    }

    #[test]
    fn empty_annotation_list_is_error() {
        let src = "entity e is port (quantity q : in real is); end entity;";
        assert!(parse_design_file(src).is_err());
    }
}
