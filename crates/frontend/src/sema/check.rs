//! The architecture-level semantic checker.

use std::collections::{HashMap, HashSet};

use crate::annot::AnnotationSet;
use crate::ast::{
    Architecture, AttributeKind, ConcurrentStmt, DesignFile, Expr, ExprKind, FunctionDecl,
    Mode, ObjectClass, ObjectDecl, SeqStmt, SeqStmtKind,
};
use crate::error::{SemaError, SemaErrorKind};
use crate::names::{Name, Names};
use crate::sema::restrict;
use crate::sema::symbols::{Symbol, SymbolTable};
use crate::sema::types::{Ty, TypeEnv};
use crate::span::Span;

/// The result of analyzing one architecture.
#[derive(Debug, Clone)]
pub struct AnalyzedArchitecture {
    /// Architecture name.
    pub name: String,
    /// Name of the implemented entity.
    pub entity: String,
    /// All visible symbols (ports, architecture objects, process and
    /// procedural locals — locals are prefixed by nothing; VASS keeps a
    /// flat namespace per architecture and rejects shadowing).
    pub symbols: SymbolTable,
}

pub(crate) struct Checker<'a> {
    design: &'a DesignFile,
    names: &'a Names,
    pub errors: Vec<SemaError>,
}

impl<'a> Checker<'a> {
    pub(crate) fn new(design: &'a DesignFile) -> Self {
        Checker { design, names: &design.names, errors: Vec::new() }
    }

    /// The spelling of `name`.
    fn text(&self, name: Name) -> &'a str {
        self.names.resolve(name)
    }

    /// Check every architecture in the design.
    pub(crate) fn check(mut self) -> Result<Vec<AnalyzedArchitecture>, Vec<SemaError>> {
        let mut out = Vec::new();
        for arch in self.design.architectures() {
            if let Some(a) = self.check_architecture(arch) {
                out.push(a);
            }
        }
        if self.errors.is_empty() {
            Ok(out)
        } else {
            Err(self.errors)
        }
    }

    fn error(&mut self, kind: SemaErrorKind, msg: impl Into<String>, span: Span) {
        self.errors.push(SemaError::new(kind, msg, span));
    }

    fn check_architecture(&mut self, arch: &Architecture) -> Option<AnalyzedArchitecture> {
        let mut symbols = SymbolTable::new();

        // 1. Entity ports.
        let Some(entity) = self.design.entities().find(|e| e.name.name == arch.entity.name) else {
            self.error(
                SemaErrorKind::UndeclaredName,
                format!(
                    "architecture `{}` refers to unknown entity `{}`",
                    self.text(arch.name.name),
                    self.text(arch.entity.name)
                ),
                arch.entity.span,
            );
            return None;
        };
        for port in &entity.ports {
            for name in &port.names {
                let sym = Symbol {
                    name: self.text(name.name).to_owned(),
                    key: name.name,
                    class: port.class.into(),
                    ty: port.ty.clone(),
                    mode: Some(port.mode),
                    annotations: port.annotations.clone(),
                    is_port: true,
                    const_value: None,
                    span: name.span,
                };
                if let Err(e) = symbols.insert(sym) {
                    self.errors.push(e);
                }
            }
            self.check_port_rules(port);
        }

        // 2. Package declarations are globally visible.
        for pkg in self.design.packages() {
            for decl in &pkg.decls {
                self.declare_objects(&mut symbols, decl);
            }
        }

        // 3. Architecture declarations.
        for decl in &arch.decls {
            self.declare_objects(&mut symbols, decl);
        }

        // 4. Hoist process/procedural locals into the flat table.
        for stmt in &arch.stmts {
            match stmt {
                ConcurrentStmt::Process { decls, .. }
                | ConcurrentStmt::Procedural { decls, .. } => {
                    for decl in decls {
                        if decl.class != ObjectClass::Variable
                            && decl.class != ObjectClass::Constant
                        {
                            self.error(
                                SemaErrorKind::InvalidUse,
                                format!(
                                    "only variables and constants may be declared locally; \
                                     `{}` is a {}",
                                    self.text(decl.names[0].name),
                                    decl.class
                                ),
                                decl.span,
                            );
                        }
                        self.declare_objects(&mut symbols, decl);
                    }
                }
                _ => {}
            }
        }

        // 5. Merge annotation statements into symbols.
        for stmt in &arch.stmts {
            if let ConcurrentStmt::AnnotationStmt { target, annotations, span } = stmt {
                let target_text = self.text(target.name);
                match symbols.get_mut(target.name) {
                    Some(sym) if sym.is_quantity() => {
                        sym.annotations.extend(annotations.iter().cloned());
                    }
                    Some(sym) => {
                        let class = sym.class;
                        self.error(
                            SemaErrorKind::InvalidUse,
                            format!(
                                "annotation target `{target_text}` is a {class}, not a quantity"
                            ),
                            *span,
                        );
                    }
                    None => self.error(
                        SemaErrorKind::UndeclaredName,
                        format!("annotation target `{target_text}` is not declared"),
                        *span,
                    ),
                }
            }
        }

        // 6. Annotation conflicts.
        let conflicts: Vec<(String, Span, String)> = symbols
            .iter()
            .filter_map(|sym| {
                AnnotationSet::new(&sym.annotations).find_conflict().map(|(a, b)| {
                    (sym.name.clone(), sym.span, format!("`{a}` conflicts with `{b}`"))
                })
            })
            .collect();
        for (name, span, msg) in conflicts {
            self.error(
                SemaErrorKind::BadAnnotation,
                format!("conflicting annotations on `{name}`: {msg}"),
                span,
            );
        }

        // 7. Functions (architecture-local + package-level).
        let mut functions: HashMap<Name, &FunctionDecl> = HashMap::new();
        for pkg in self.design.packages() {
            for f in &pkg.functions {
                functions.insert(f.name.name, f);
            }
        }
        for f in &arch.functions {
            if functions.insert(f.name.name, f).is_some() {
                self.error(
                    SemaErrorKind::DuplicateDeclaration,
                    format!("function `{}` is declared more than once", self.text(f.name.name)),
                    f.span,
                );
            }
        }
        for f in arch.functions.iter().chain(self.design.packages().flat_map(|p| &p.functions)) {
            self.check_function(f, &symbols, &functions);
        }

        // 8. Statements.
        for stmt in &arch.stmts {
            self.check_concurrent(stmt, &symbols, &functions);
        }

        // 9. Terminal single-facet usage across the whole architecture.
        self.check_terminal_facets(arch, &symbols);

        // 10. Every `out` quantity port must be driven.
        self.check_out_ports_driven(arch, entity, &symbols);

        Some(AnalyzedArchitecture {
            name: self.text(arch.name.name).to_owned(),
            entity: self.text(arch.entity.name).to_owned(),
            symbols,
        })
    }

    fn check_port_rules(&mut self, port: &crate::ast::PortDecl) {
        use crate::ast::PortClass;
        match port.class {
            PortClass::Quantity => {
                if !port.ty.is_nature() {
                    self.error(
                        SemaErrorKind::TypeMismatch,
                        format!(
                            "quantity port `{}` must have a nature type (real or real_vector), \
                             got {}",
                            self.text(port.names[0].name),
                            port.ty
                        ),
                        port.span,
                    );
                }
            }
            PortClass::Signal => {
                if !(port.ty.is_discrete() || port.ty.is_nature()) {
                    self.error(
                        SemaErrorKind::TypeMismatch,
                        format!(
                            "signal port `{}` must have a discrete or nature type, got {}",
                            self.text(port.names[0].name),
                            port.ty
                        ),
                        port.span,
                    );
                }
            }
            PortClass::Terminal => {
                if port.ty != crate::ast::TypeName::Electrical {
                    self.error(
                        SemaErrorKind::TypeMismatch,
                        format!(
                            "terminal port `{}` must be of nature `electrical`, got {}",
                            self.text(port.names[0].name),
                            port.ty
                        ),
                        port.span,
                    );
                }
            }
        }
    }

    fn declare_objects(&mut self, symbols: &mut SymbolTable, decl: &ObjectDecl) {
        // Class/type coherence.
        match decl.class {
            ObjectClass::Quantity if !decl.ty.is_nature() => {
                self.error(
                    SemaErrorKind::TypeMismatch,
                    format!(
                        "quantity `{}` must have a nature type, got {}",
                        self.text(decl.names[0].name),
                        decl.ty
                    ),
                    decl.span,
                );
            }
            ObjectClass::Signal if !(decl.ty.is_discrete() || decl.ty.is_nature()) => {
                self.error(
                    SemaErrorKind::TypeMismatch,
                    format!(
                        "signal `{}` must have a discrete or nature type, got {}",
                        self.text(decl.names[0].name),
                        decl.ty
                    ),
                    decl.span,
                );
            }
            _ => {}
        }
        let const_value = if decl.class == ObjectClass::Constant {
            decl.init.as_ref().and_then(|e| restrict::fold_static(e, symbols))
        } else {
            None
        };
        if decl.class == ObjectClass::Constant && decl.init.is_none() {
            self.error(
                SemaErrorKind::InvalidUse,
                format!("constant `{}` must have an initializer", self.text(decl.names[0].name)),
                decl.span,
            );
        }
        for name in &decl.names {
            let sym = Symbol {
                name: self.text(name.name).to_owned(),
                key: name.name,
                class: decl.class,
                ty: decl.ty.clone(),
                mode: None,
                annotations: decl.annotations.clone(),
                is_port: false,
                const_value,
                span: name.span,
            };
            if let Err(e) = symbols.insert(sym) {
                self.errors.push(e);
            }
        }
    }

    fn check_function(
        &mut self,
        f: &FunctionDecl,
        arch_symbols: &SymbolTable,
        functions: &HashMap<Name, &FunctionDecl>,
    ) {
        // Functions see only their parameters and locals (purity).
        let mut local = SymbolTable::new();
        for (pname, pty) in &f.params {
            let sym = Symbol {
                name: self.text(pname.name).to_owned(),
                key: pname.name,
                class: ObjectClass::Variable,
                ty: pty.clone(),
                mode: None,
                annotations: vec![],
                is_port: false,
                const_value: None,
                span: pname.span,
            };
            if let Err(e) = local.insert(sym) {
                self.errors.push(e);
            }
        }
        for decl in &f.decls {
            self.declare_objects(&mut local, decl);
        }
        // Constants from the architecture scope remain visible.
        for sym in arch_symbols.iter() {
            if sym.class == ObjectClass::Constant && !local.contains(sym.key) {
                let _ = local.insert(sym.clone());
            }
        }
        let env = TypeEnv::new(self.names, &local, functions);
        let mut saw_return = false;
        self.check_seq_body(&f.body, &env, SeqContext::Function, &mut saw_return);
        if !saw_return {
            self.error(
                SemaErrorKind::InvalidUse,
                format!("function `{}` has no `return` statement", self.text(f.name.name)),
                f.span,
            );
        }
        restrict::check_for_bounds(self.names, &f.body, &local, &mut self.errors);
        restrict::check_no_wait(&f.body, &mut self.errors);
    }

    fn check_concurrent(
        &mut self,
        stmt: &ConcurrentStmt,
        symbols: &SymbolTable,
        functions: &HashMap<Name, &FunctionDecl>,
    ) {
        let env = TypeEnv::new(self.names, symbols, functions);
        match stmt {
            ConcurrentStmt::SimpleSimultaneous { lhs, rhs, span, .. } => {
                for side in [lhs, rhs] {
                    match env.infer(side) {
                        Ok(t) if t.is_numeric() => {}
                        Ok(t) => self.error(
                            SemaErrorKind::TypeMismatch,
                            format!("simultaneous statement sides must be real-valued, got {t}"),
                            *span,
                        ),
                        Err(e) => self.errors.push(e),
                    }
                }
            }
            ConcurrentStmt::SimultaneousIf { branches, else_body, .. } => {
                for (cond, body) in branches {
                    self.check_event_condition(cond, &env, symbols);
                    for s in body {
                        self.check_concurrent(s, symbols, functions);
                    }
                }
                for s in else_body {
                    self.check_concurrent(s, symbols, functions);
                }
            }
            ConcurrentStmt::SimultaneousCase { selector, arms, .. } => {
                match env.infer(selector) {
                    Ok(Ty::Bit | Ty::Boolean | Ty::BitVector | Ty::Integer) => {}
                    Ok(t) => self.error(
                        SemaErrorKind::TypeMismatch,
                        format!("simultaneous case selector must be discrete, got {t}"),
                        selector.span,
                    ),
                    Err(e) => self.errors.push(e),
                }
                for arm in arms {
                    for s in &arm.body {
                        self.check_concurrent(s, symbols, functions);
                    }
                }
            }
            ConcurrentStmt::Process { sensitivity, body, span, .. } => {
                if sensitivity.is_empty() {
                    self.error(
                        SemaErrorKind::RestrictionViolation,
                        "VASS processes must have a sensitivity list (they have no `wait` \
                         statements to suspend on)",
                        *span,
                    );
                }
                for sens in sensitivity {
                    self.check_sensitivity_entry(sens, &env, symbols);
                }
                let mut saw_return = false;
                self.check_seq_body(body, &env, SeqContext::Process, &mut saw_return);
                restrict::check_no_wait(body, &mut self.errors);
                restrict::check_signal_read_after_write(
                    self.names,
                    body,
                    symbols,
                    &mut self.errors,
                );
                restrict::check_for_bounds(self.names, body, symbols, &mut self.errors);
                restrict::check_while_restrictions(self.names, body, symbols, &mut self.errors);
            }
            ConcurrentStmt::Procedural { body, span: _, .. } => {
                let mut saw_return = false;
                self.check_seq_body(body, &env, SeqContext::Procedural, &mut saw_return);
                restrict::check_no_wait(body, &mut self.errors);
                restrict::check_for_bounds(self.names, body, symbols, &mut self.errors);
                restrict::check_while_restrictions(self.names, body, symbols, &mut self.errors);
            }
            ConcurrentStmt::AnnotationStmt { .. } => {} // handled during table building
        }
    }

    /// Conditions of simultaneous if/case statements select among modes
    /// of continuous-time behavior and must be event-driven: they may
    /// reference signals, constants, and `'above` attributes, but not
    /// raw quantities (paper Section 3's behavioral model).
    fn check_event_condition(&mut self, cond: &Expr, env: &TypeEnv<'_>, symbols: &SymbolTable) {
        match env.infer(cond) {
            Ok(Ty::Boolean) => {}
            Ok(t) => self.error(
                SemaErrorKind::TypeMismatch,
                format!("condition must be boolean, got {t}"),
                cond.span,
            ),
            Err(e) => self.errors.push(e),
        }
        let mut quantities_outside_above = Vec::new();
        collect_raw_quantity_refs(cond, symbols, &mut quantities_outside_above);
        for id in quantities_outside_above {
            self.error(
                SemaErrorKind::RestrictionViolation,
                format!(
                    "quantity `{}` referenced directly in an event-driven condition; use a \
                     signal set by a process or the `'above` attribute",
                    self.text(id.name)
                ),
                id.span,
            );
        }
    }

    fn check_sensitivity_entry(&mut self, sens: &Expr, env: &TypeEnv<'_>, symbols: &SymbolTable) {
        match &sens.kind {
            ExprKind::Attribute { attr: AttributeKind::Above, .. } => {
                if let Err(e) = env.infer(sens) {
                    self.errors.push(e);
                }
            }
            ExprKind::Name(id) => match symbols.get(id.name) {
                Some(sym) if sym.is_signal() => {}
                Some(sym) => self.error(
                    SemaErrorKind::RestrictionViolation,
                    format!(
                        "sensitivity entry `{}` is a {}; only signals and 'above events \
                         may resume a process",
                        self.text(id.name),
                        sym.class
                    ),
                    id.span,
                ),
                None => self.error(
                    SemaErrorKind::UndeclaredName,
                    format!("`{}` is not declared", self.text(id.name)),
                    id.span,
                ),
            },
            _ => self.error(
                SemaErrorKind::RestrictionViolation,
                "sensitivity entries must be signal names or 'above attributes",
                sens.span,
            ),
        }
    }

    fn check_seq_body(
        &mut self,
        body: &[SeqStmt],
        env: &TypeEnv<'_>,
        ctx: SeqContext,
        saw_return: &mut bool,
    ) {
        for stmt in body {
            self.check_seq_stmt(stmt, env, ctx, saw_return);
        }
    }

    fn check_seq_stmt(
        &mut self,
        stmt: &SeqStmt,
        env: &TypeEnv<'_>,
        ctx: SeqContext,
        saw_return: &mut bool,
    ) {
        match &stmt.kind {
            SeqStmtKind::VarAssign { target, index, value } => {
                let target_text = self.text(target.name);
                let target_ty = match env.symbols.get(target.name) {
                    Some(sym) => {
                        if !sym.is_writable() {
                            self.error(
                                SemaErrorKind::InvalidUse,
                                format!("cannot assign to `in` port `{target_text}`"),
                                target.span,
                            );
                        }
                        if sym.is_signal() {
                            self.error(
                                SemaErrorKind::InvalidUse,
                                format!(
                                    "`{}` is a signal; use `<=` for signal assignment",
                                    target_text
                                ),
                                target.span,
                            );
                        }
                        if ctx == SeqContext::Process && sym.is_quantity() {
                            self.error(
                                SemaErrorKind::RestrictionViolation,
                                format!(
                                    "process bodies are event-driven and may not assign \
                                     quantity `{}` with `:=`; drive quantities from the \
                                     continuous-time part",
                                    target_text
                                ),
                                target.span,
                            );
                        }
                        let base = Ty::from_type_name(&sym.ty);
                        if index.is_some() {
                            match base {
                                Ty::RealVector => Some(Ty::Real),
                                Ty::BitVector => Some(Ty::Bit),
                                other => {
                                    self.error(
                                        SemaErrorKind::InvalidUse,
                                        format!(
                                            "`{target_text}` of type {other} cannot be indexed"
                                        ),
                                        target.span,
                                    );
                                    None
                                }
                            }
                        } else {
                            Some(base)
                        }
                    }
                    None => {
                        self.error(
                            SemaErrorKind::UndeclaredName,
                            format!("`{target_text}` is not declared"),
                            target.span,
                        );
                        None
                    }
                };
                if let Some(idx) = index {
                    match env.infer(idx) {
                        Ok(Ty::Integer) => {}
                        Ok(t) => self.error(
                            SemaErrorKind::TypeMismatch,
                            format!("index must be an integer, got {t}"),
                            idx.span,
                        ),
                        Err(e) => self.errors.push(e),
                    }
                }
                match env.infer(value) {
                    Ok(vt) => {
                        if let Some(tt) = target_ty {
                            if !tt.accepts(vt) {
                                self.error(
                                    SemaErrorKind::TypeMismatch,
                                    format!("cannot assign {vt} to `{target_text}` of type {tt}"),
                                    stmt.span,
                                );
                            }
                        }
                    }
                    Err(e) => self.errors.push(e),
                }
            }
            SeqStmtKind::SignalAssign { target, value } => {
                if ctx != SeqContext::Process {
                    self.error(
                        SemaErrorKind::RestrictionViolation,
                        "signal assignment (`<=`) is only allowed inside processes",
                        stmt.span,
                    );
                }
                let target_text = self.text(target.name);
                match env.symbols.get(target.name) {
                    Some(sym) if sym.is_signal() => {
                        if !sym.is_writable() {
                            self.error(
                                SemaErrorKind::InvalidUse,
                                format!("cannot assign to `in` port `{target_text}`"),
                                target.span,
                            );
                        }
                        let tt = Ty::from_type_name(&sym.ty);
                        match env.infer(value) {
                            Ok(vt) if tt.accepts(vt) => {}
                            Ok(vt) => self.error(
                                SemaErrorKind::TypeMismatch,
                                format!(
                                    "cannot assign {vt} to signal `{target_text}` of type {tt}"
                                ),
                                stmt.span,
                            ),
                            Err(e) => self.errors.push(e),
                        }
                    }
                    Some(sym) => {
                        let class = sym.class;
                        self.error(
                            SemaErrorKind::InvalidUse,
                            format!("`<=` target `{target_text}` is a {class}, not a signal"),
                            target.span,
                        );
                    }
                    None => self.error(
                        SemaErrorKind::UndeclaredName,
                        format!("`{target_text}` is not declared"),
                        target.span,
                    ),
                }
            }
            SeqStmtKind::If { branches, else_body } => {
                for (cond, body) in branches {
                    match env.infer(cond) {
                        Ok(Ty::Boolean) => {}
                        Ok(t) => self.error(
                            SemaErrorKind::TypeMismatch,
                            format!("if-condition must be boolean, got {t}"),
                            cond.span,
                        ),
                        Err(e) => self.errors.push(e),
                    }
                    self.check_seq_body(body, env, ctx, saw_return);
                }
                self.check_seq_body(else_body, env, ctx, saw_return);
            }
            SeqStmtKind::Case { selector, arms } => {
                if let Err(e) = env.infer(selector) {
                    self.errors.push(e);
                }
                for arm in arms {
                    for choice in &arm.choices {
                        if let crate::ast::Choice::Expr(e) = choice {
                            if let Err(err) = env.infer(e) {
                                self.errors.push(err);
                            }
                        }
                    }
                    self.check_seq_body(&arm.body, env, ctx, saw_return);
                }
            }
            SeqStmtKind::For { var, lo, hi, body, .. } => {
                for bound in [lo, hi] {
                    match env.infer(bound) {
                        Ok(t) if t.is_numeric() => {}
                        Ok(t) => self.error(
                            SemaErrorKind::TypeMismatch,
                            format!("for-loop bound must be numeric, got {t}"),
                            bound.span,
                        ),
                        Err(e) => self.errors.push(e),
                    }
                }
                let mut inner = TypeEnv::new(env.names, env.symbols, env.functions);
                inner.loop_vars = env.loop_vars.clone();
                inner.loop_vars.push(var.name);
                self.check_seq_body(body, &inner, ctx, saw_return);
            }
            SeqStmtKind::While { cond, body } => {
                match env.infer(cond) {
                    Ok(Ty::Boolean) => {}
                    Ok(t) => self.error(
                        SemaErrorKind::TypeMismatch,
                        format!("while-condition must be boolean, got {t}"),
                        cond.span,
                    ),
                    Err(e) => self.errors.push(e),
                }
                self.check_seq_body(body, env, ctx, saw_return);
            }
            SeqStmtKind::Return(value) => {
                *saw_return = true;
                if ctx != SeqContext::Function {
                    self.error(
                        SemaErrorKind::InvalidUse,
                        "`return` is only allowed inside function bodies",
                        stmt.span,
                    );
                }
                if let Some(v) = value {
                    if let Err(e) = env.infer(v) {
                        self.errors.push(e);
                    }
                }
            }
            SeqStmtKind::Null => {}
            SeqStmtKind::Wait => {} // reported by restrict::check_no_wait
        }
    }

    /// Each terminal port may use only one of its `'across`/`'through`
    /// facets in the whole specification (paper Section 3).
    fn check_terminal_facets(&mut self, arch: &Architecture, symbols: &SymbolTable) {
        let mut across: HashSet<Name> = HashSet::new();
        let mut through: HashSet<Name> = HashSet::new();
        let mut spans: HashMap<Name, Span> = HashMap::new();
        for stmt in &arch.stmts {
            collect_terminal_facets(stmt, &mut across, &mut through, &mut spans);
        }
        for name in across.intersection(&through) {
            let Some(symbol) = symbols.get(*name) else { continue };
            if symbol.class == ObjectClass::Terminal {
                // Point at a use site if one was collected, otherwise at
                // the terminal's declaration — never at a made-up 1:1.
                let span = spans.get(name).copied().unwrap_or(symbol.span);
                self.error(
                    SemaErrorKind::RestrictionViolation,
                    format!(
                        "terminal `{}` uses both its 'across and 'through facets; VASS \
                         permits only one facet per terminal port",
                        self.text(*name)
                    ),
                    span,
                );
            }
        }
    }

    fn check_out_ports_driven(
        &mut self,
        arch: &Architecture,
        entity: &crate::ast::Entity,
        symbols: &SymbolTable,
    ) {
        let mut driven: HashSet<Name> = HashSet::new();
        for stmt in &arch.stmts {
            collect_driven_names(stmt, &mut driven);
        }
        for port in &entity.ports {
            if port.mode != Mode::Out || port.class != crate::ast::PortClass::Quantity {
                continue;
            }
            for name in &port.names {
                if !driven.contains(&name.name) && symbols.contains(name.name) {
                    self.error(
                        SemaErrorKind::InvalidUse,
                        format!(
                            "out quantity port `{}` is never driven by any concurrent statement",
                            self.text(name.name)
                        ),
                        name.span,
                    );
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeqContext {
    Process,
    Procedural,
    Function,
}

/// Collect quantity names referenced outside `'above` attributes.
fn collect_raw_quantity_refs<'e>(
    expr: &'e Expr,
    symbols: &SymbolTable,
    out: &mut Vec<&'e crate::ast::Ident>,
) {
    match &expr.kind {
        ExprKind::Name(id) if symbols.get(id.name).is_some_and(|s| s.is_quantity()) => {
            out.push(id);
        }
        ExprKind::Attribute { attr: AttributeKind::Above, args, .. } => {
            // the 'above event is legal; only descend into the threshold
            for a in args {
                collect_raw_quantity_refs(a, symbols, out);
            }
        }
        ExprKind::Attribute { args, .. } => {
            for a in args {
                collect_raw_quantity_refs(a, symbols, out);
            }
        }
        ExprKind::Call { args, .. } => {
            for a in args {
                collect_raw_quantity_refs(a, symbols, out);
            }
        }
        ExprKind::Unary { operand, .. } => collect_raw_quantity_refs(operand, symbols, out),
        ExprKind::Binary { lhs, rhs, .. } => {
            collect_raw_quantity_refs(lhs, symbols, out);
            collect_raw_quantity_refs(rhs, symbols, out);
        }
        _ => {}
    }
}

fn collect_terminal_facets_expr(
    expr: &Expr,
    across: &mut HashSet<Name>,
    through: &mut HashSet<Name>,
    spans: &mut HashMap<Name, Span>,
) {
    match &expr.kind {
        ExprKind::Attribute { prefix, attr, args } => {
            match attr {
                AttributeKind::Across => {
                    across.insert(prefix.name);
                    spans.entry(prefix.name).or_insert(prefix.span);
                }
                AttributeKind::Through => {
                    through.insert(prefix.name);
                    spans.entry(prefix.name).or_insert(prefix.span);
                }
                _ => {}
            }
            for a in args {
                collect_terminal_facets_expr(a, across, through, spans);
            }
        }
        ExprKind::Call { args, .. } => {
            for a in args {
                collect_terminal_facets_expr(a, across, through, spans);
            }
        }
        ExprKind::Unary { operand, .. } => {
            collect_terminal_facets_expr(operand, across, through, spans)
        }
        ExprKind::Binary { lhs, rhs, .. } => {
            collect_terminal_facets_expr(lhs, across, through, spans);
            collect_terminal_facets_expr(rhs, across, through, spans);
        }
        _ => {}
    }
}

fn collect_terminal_facets(
    stmt: &ConcurrentStmt,
    across: &mut HashSet<Name>,
    through: &mut HashSet<Name>,
    spans: &mut HashMap<Name, Span>,
) {
    let mut exprs: Vec<&Expr> = Vec::new();
    collect_stmt_exprs(stmt, &mut exprs);
    for e in exprs {
        collect_terminal_facets_expr(e, across, through, spans);
    }
}

fn collect_stmt_exprs<'a>(stmt: &'a ConcurrentStmt, out: &mut Vec<&'a Expr>) {
    match stmt {
        ConcurrentStmt::SimpleSimultaneous { lhs, rhs, .. } => {
            out.push(lhs);
            out.push(rhs);
        }
        ConcurrentStmt::SimultaneousIf { branches, else_body, .. } => {
            for (cond, body) in branches {
                out.push(cond);
                for s in body {
                    collect_stmt_exprs(s, out);
                }
            }
            for s in else_body {
                collect_stmt_exprs(s, out);
            }
        }
        ConcurrentStmt::SimultaneousCase { selector, arms, .. } => {
            out.push(selector);
            for arm in arms {
                for s in &arm.body {
                    collect_stmt_exprs(s, out);
                }
            }
        }
        ConcurrentStmt::Process { sensitivity, body, .. } => {
            for s in sensitivity {
                out.push(s);
            }
            collect_seq_exprs(body, out);
        }
        ConcurrentStmt::Procedural { body, .. } => collect_seq_exprs(body, out),
        ConcurrentStmt::AnnotationStmt { .. } => {}
    }
}

fn collect_seq_exprs<'a>(body: &'a [SeqStmt], out: &mut Vec<&'a Expr>) {
    for stmt in body {
        match &stmt.kind {
            SeqStmtKind::VarAssign { index, value, .. } => {
                if let Some(i) = index {
                    out.push(i);
                }
                out.push(value);
            }
            SeqStmtKind::SignalAssign { value, .. } => out.push(value),
            SeqStmtKind::If { branches, else_body } => {
                for (cond, b) in branches {
                    out.push(cond);
                    collect_seq_exprs(b, out);
                }
                collect_seq_exprs(else_body, out);
            }
            SeqStmtKind::Case { selector, arms } => {
                out.push(selector);
                for arm in arms {
                    collect_seq_exprs(&arm.body, out);
                }
            }
            SeqStmtKind::For { lo, hi, body, .. } => {
                out.push(lo);
                out.push(hi);
                collect_seq_exprs(body, out);
            }
            SeqStmtKind::While { cond, body } => {
                out.push(cond);
                collect_seq_exprs(body, out);
            }
            SeqStmtKind::Return(Some(e)) => out.push(e),
            _ => {}
        }
    }
}

/// Collect names driven (defined) by concurrent statements: LHS names of
/// simultaneous statements and targets of procedural assignments.
fn collect_driven_names(stmt: &ConcurrentStmt, out: &mut HashSet<Name>) {
    match stmt {
        ConcurrentStmt::SimpleSimultaneous { lhs, rhs, .. } => {
            // A simple simultaneous `x == f(...)` drives `x` when the LHS
            // is a plain name; for general DAEs either side may define a
            // quantity, so be permissive and record top-level names on
            // both sides.
            for side in [lhs, rhs] {
                match &side.kind {
                    ExprKind::Name(id) => {
                        out.insert(id.name);
                    }
                    // `x'dot == f(...)` defines x (through an integrator).
                    ExprKind::Attribute {
                        prefix,
                        attr: AttributeKind::Dot | AttributeKind::Integ,
                        ..
                    } => {
                        out.insert(prefix.name);
                    }
                    _ => {}
                }
            }
        }
        ConcurrentStmt::SimultaneousIf { branches, else_body, .. } => {
            for (_, body) in branches {
                for s in body {
                    collect_driven_names(s, out);
                }
            }
            for s in else_body {
                collect_driven_names(s, out);
            }
        }
        ConcurrentStmt::SimultaneousCase { arms, .. } => {
            for arm in arms {
                for s in &arm.body {
                    collect_driven_names(s, out);
                }
            }
        }
        ConcurrentStmt::Procedural { body, .. } => collect_seq_driven(body, out),
        ConcurrentStmt::Process { body, .. } => collect_seq_driven(body, out),
        ConcurrentStmt::AnnotationStmt { .. } => {}
    }
}

fn collect_seq_driven(body: &[SeqStmt], out: &mut HashSet<Name>) {
    for stmt in body {
        match &stmt.kind {
            SeqStmtKind::VarAssign { target, .. } | SeqStmtKind::SignalAssign { target, .. } => {
                out.insert(target.name);
            }
            SeqStmtKind::If { branches, else_body } => {
                for (_, b) in branches {
                    collect_seq_driven(b, out);
                }
                collect_seq_driven(else_body, out);
            }
            SeqStmtKind::Case { arms, .. } => {
                for arm in arms {
                    collect_seq_driven(&arm.body, out);
                }
            }
            SeqStmtKind::For { body, .. } | SeqStmtKind::While { body, .. } => {
                collect_seq_driven(body, out);
            }
            _ => {}
        }
    }
}
