//! Compilation of the continuous-time part: simultaneous statements
//! (with DAE solver selection), simultaneous `if`/`case` mode
//! selection, and procedural statements (including the `while`
//! sampling structure of paper Fig. 4 and `for` unrolling).

use std::collections::HashMap;

use vase_frontend::annot::AnnotationSet;
use vase_frontend::ast::{
    Architecture, Choice, ConcurrentStmt, Expr, ExprKind, FunctionDecl, Mode, ObjectClass,
    SeqStmt, SeqStmtKind,
};
use vase_frontend::names::{Name, Names};
use vase_frontend::sema::restrict::fold_static;
use vase_frontend::sema::SymbolTable;
use vase_frontend::span::Span;
use vase_vhif::block::LogicOp;
use vase_vhif::{BlockId, BlockKind, SignalFlowGraph};

use crate::builder::GraphBuilder;
use crate::error::CompileError;
use crate::lower::{lower_analog, lower_cond};
use crate::solver::{solutions, Equation, Solution};

/// Hysteresis margin used for the internal conditional of `while`
/// sampling structures and for event comparators that feed state
/// (avoids repeated switchings, paper Section 6).
pub const LOOP_HYSTERESIS: f64 = 1e-3;

/// Default clipping level (volts) for outputs annotated `limited`
/// without an explicit level — the native limit of the synthesized
/// output stage (the paper's receiver clipped at 1.5 V).
pub const DEFAULT_LIMIT_LEVEL: f64 = 1.5;

/// Result of compiling the continuous-time part of one architecture.
pub(crate) struct ContinuousPart {
    /// The signal-flow graph.
    pub graph: SignalFlowGraph,
    /// Per-equation count of alternative DAE solvers the mapper could
    /// explore (paper §4: each rearrangement is a distinct "solver").
    pub dae_alternatives: Vec<(String, usize)>,
    /// Whether some solver decision had more than one viable candidate.
    /// When none had, every rotation makes this pass's choices again.
    pub had_choice: bool,
}

/// One simple simultaneous statement and its solver candidates.
struct Solvers {
    /// The label, or `eq{n}` for the `n`-th simple simultaneous
    /// statement in source order (nested ones count).
    name: String,
    eq: Equation,
    candidates: Vec<(Name, Solution)>,
}

/// The solver candidates of every simple simultaneous statement of one
/// architecture, including those nested in simultaneous `if`/`case`
/// bodies, enumerated once and borrowed by every lowering pass.
/// Statements are keyed by span: the `case` desugaring clones its arms,
/// and a clone keeps its span.
pub(crate) struct SolverTable {
    entries: Vec<Solvers>,
    by_span: HashMap<Span, usize>,
}

impl SolverTable {
    /// Enumerate the solvers of every simple simultaneous statement of
    /// `arch`, whose names are in `names`.
    pub(crate) fn new(arch: &Architecture, names: &Names) -> Self {
        fn walk(stmts: &[ConcurrentStmt], names: &Names, table: &mut SolverTable) {
            for stmt in stmts {
                match stmt {
                    ConcurrentStmt::SimpleSimultaneous { label, lhs, rhs, span } => {
                        let name = label.as_ref().map_or_else(
                            || format!("eq{}", table.entries.len() + 1),
                            |l| names.resolve(l.name).to_owned(),
                        );
                        let eq = Equation { lhs: lhs.clone(), rhs: rhs.clone(), span: *span };
                        let candidates = solutions(&eq);
                        table.by_span.insert(*span, table.entries.len());
                        table.entries.push(Solvers { name, eq, candidates });
                    }
                    ConcurrentStmt::SimultaneousIf { branches, else_body, .. } => {
                        for (_, body) in branches {
                            walk(body, names, table);
                        }
                        walk(else_body, names, table);
                    }
                    ConcurrentStmt::SimultaneousCase { arms, .. } => {
                        for arm in arms {
                            walk(&arm.body, names, table);
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut table = SolverTable { entries: Vec::new(), by_span: HashMap::new() };
        walk(&arch.stmts, names, &mut table);
        table
    }

    /// Where each statement's candidates start under `rotation`. Two
    /// rotations with equal shifts lower the same graph.
    pub(crate) fn shifts(&self, rotation: usize) -> Vec<usize> {
        self.entries.iter().map(|e| rotation % e.candidates.len().max(1)).collect()
    }
}

/// How one lowering pass picks among each statement's solvers.
struct SolverOrder<'t> {
    table: &'t SolverTable,
    /// Each statement's candidates are tried from `rotation % n` on.
    rotation: usize,
    /// Set once some decision had more than one viable candidate.
    had_choice: bool,
}

impl<'t> SolverOrder<'t> {
    /// The table entry of the statement at `span`.
    fn solvers(&self, span: Span) -> &'t Solvers {
        let table = self.table;
        &table.entries[table.by_span[&span]]
    }

    /// The candidates of `solvers` in this pass's order.
    fn candidates(&self, solvers: &'t Solvers) -> impl Iterator<Item = &'t (Name, Solution)> {
        let candidates = &solvers.candidates;
        let (tail, head) = candidates.split_at(self.rotation % candidates.len().max(1));
        head.iter().chain(tail)
    }
}

/// Compile all continuous-time concurrent statements of `arch` into a
/// signal-flow graph, trying each statement's solvers from the table in
/// order rotated by `rotation`. Rotation 0 is the compiler's preferred
/// solver; nonzero rotations lower *alternative* solver variants of the
/// same DAE set (paper §4: each rearrangement is a distinct "solver"
/// the mapper could explore).
///
/// Statements are lowered to a fixpoint: a statement whose inputs are
/// not yet defined is postponed until the statements defining them have
/// been lowered (the data-dependency ordering of paper Section 4).
///
/// # Errors
///
/// Fails if the statement set cannot be put into causal form
/// ([`CompileError::Unsolvable`]) or contains unsupported constructs.
pub(crate) fn compile_continuous<'a>(
    arch: &'a Architecture,
    names: &'a Names,
    symbols: &'a SymbolTable,
    functions: HashMap<Name, &'a FunctionDecl>,
    table: &SolverTable,
    rotation: usize,
) -> Result<ContinuousPart, CompileError> {
    count_lowering();
    let mut builder = GraphBuilder::new("main", names, symbols, functions);
    let mut order = SolverOrder { table, rotation, had_choice: false };
    let mut dae_alternatives = Vec::new();

    // Collect continuous-time work items.
    let mut pending: Vec<&ConcurrentStmt> =
        arch.stmts.iter().filter(|s| s.is_continuous_time()).collect();

    let mut deferred: Vec<(BlockId, &Expr, String, usize)> = Vec::new();
    let mut ode_counter = 0usize;
    let mut round = 0usize;
    while !pending.is_empty() {
        round += 1;
        if round > 4 * (pending.len() + 16) {
            return Err(CompileError::Unsolvable {
                detail: "statement ordering did not converge".into(),
            });
        }
        let mut progressed = false;
        let mut still_pending = Vec::new();
        for stmt in pending {
            match compile_ct_stmt(&mut builder, &mut order, stmt, &mut dae_alternatives) {
                Ok(()) => progressed = true,
                Err(CompileError::UseBeforeDef { .. }) => still_pending.push(stmt),
                Err(other) => return Err(other),
            }
        }
        if !progressed && !still_pending.is_empty() {
            // Stalled: the remaining equations form a cycle. Claim one
            // state variable — an equation isolating some `v'dot`
            // defines `v` through an integrator, whose output is
            // available from t=0 regardless of how its *input* is
            // computed — and resume. This puts coupled DAE systems
            // (state feedback across equations, e.g. v' = f(v, a) with
            // a = g(v)) into causal form, while leaving algebraically
            // defined variables to their own equations.
            let claimed = claim_state_variable(
                &mut builder,
                &mut order,
                &mut still_pending,
                &mut deferred,
                &mut ode_counter,
            );
            if !claimed {
                // Surface the stalled statement's error.
                let stmt = still_pending[0];
                let err = compile_ct_stmt(&mut builder, &mut order, stmt, &mut dae_alternatives)
                    .expect_err("was stalled");
                return Err(match err {
                    CompileError::UseBeforeDef { name, span } => CompileError::Unsolvable {
                        detail: format!(
                            "no statement defines `{name}` (needed at {span}); the DAE set \
                             cannot be put into signal-flow form"
                        ),
                    },
                    other => other,
                });
            }
        }
        pending = still_pending;
    }

    // Connect the deferred integrator inputs now that every state and
    // algebraic variable is defined.
    for (integ, expr, name, alternatives) in deferred {
        let u = lower_analog(&mut builder, expr)?;
        builder.wire(u, integ, 0)?;
        dae_alternatives.push((name, alternatives));
    }

    attach_outputs(&mut builder, symbols)?;
    Ok(ContinuousPart { graph: builder.finish(), dae_alternatives, had_choice: order.had_choice })
}

/// Pick one stalled equation with an isolatable `v'dot`, create the
/// integrator defining `v`, and defer the connection of its input
/// expression until everything else is lowered. Returns whether a
/// state was claimed (the equation is removed from `pending`).
fn claim_state_variable<'t>(
    builder: &mut GraphBuilder<'_>,
    order: &mut SolverOrder<'t>,
    pending: &mut Vec<&ConcurrentStmt>,
    deferred: &mut Vec<(BlockId, &'t Expr, String, usize)>,
    ode_counter: &mut usize,
) -> bool {
    for (index, stmt) in pending.iter().enumerate() {
        let ConcurrentStmt::SimpleSimultaneous { label, span, .. } = stmt else {
            continue;
        };
        let solvers = order.solvers(*span);
        let mut claimable = order.candidates(solvers).filter(|(var, sol)| {
            matches!(sol, Solution::Integral(_))
                && !builder.is_defined(*var)
                // Never claim constants or input ports as state variables.
                && !builder.symbols().get(*var).is_some_and(|sym| {
                    sym.class == ObjectClass::Constant
                        || (sym.is_port && sym.mode == Some(Mode::In))
                })
        });
        let Some(&(var, ref sol)) = claimable.next() else {
            continue;
        };
        if claimable.next().is_some() {
            order.had_choice = true;
        }
        let integ = builder.raw_node(BlockKind::Integrate { gain: 1.0, initial: 0.0 });
        builder.set_label(integ, builder.spelling(var));
        builder.define(var, integ);
        *ode_counter += 1;
        let name = label
            .as_ref()
            .map(|l| builder.names().resolve(l.name).to_owned())
            .unwrap_or_else(|| format!("ode{ode_counter}"));
        deferred.push((integ, sol.expr(), name, solvers.candidates.len()));
        pending.remove(index);
        return true;
    }
    false
}

fn compile_ct_stmt<'a>(
    b: &mut GraphBuilder<'a>,
    order: &mut SolverOrder<'_>,
    stmt: &'a ConcurrentStmt,
    dae_alternatives: &mut Vec<(String, usize)>,
) -> Result<(), CompileError> {
    match stmt {
        ConcurrentStmt::SimpleSimultaneous { span, .. } => {
            let solvers = order.solvers(*span);
            let (var, id) = lower_equation(b, order, solvers)?;
            bind_labelled(b, var, id)?;
            dae_alternatives.push((solvers.name.clone(), solvers.candidates.len()));
            Ok(())
        }
        ConcurrentStmt::SimultaneousIf { branches, else_body, span, .. } => {
            let defs = compile_mode_select(b, order, branches, else_body, *span)?;
            for (var, id) in defs {
                bind_labelled(b, var, id)?;
            }
            Ok(())
        }
        ConcurrentStmt::SimultaneousCase { selector, arms, span, .. } => {
            // Desugar into an if-chain over `selector = choice` tests.
            let mut branches: Vec<(Expr, Vec<ConcurrentStmt>)> = Vec::new();
            let mut else_body: Vec<ConcurrentStmt> = Vec::new();
            for arm in arms {
                let mut is_others = false;
                let mut cond: Option<Expr> = None;
                for choice in &arm.choices {
                    match choice {
                        Choice::Others => is_others = true,
                        Choice::Expr(c) => {
                            let test = Expr::new(
                                ExprKind::Binary {
                                    op: vase_frontend::ast::BinaryOp::Eq,
                                    lhs: Box::new(selector.clone()),
                                    rhs: Box::new(c.clone()),
                                },
                                c.span,
                            );
                            cond = Some(match cond {
                                None => test,
                                Some(prev) => Expr::new(
                                    ExprKind::Binary {
                                        op: vase_frontend::ast::BinaryOp::Or,
                                        lhs: Box::new(prev),
                                        rhs: Box::new(test),
                                    },
                                    c.span,
                                ),
                            });
                        }
                    }
                }
                if is_others {
                    else_body = arm.body.clone();
                } else if let Some(c) = cond {
                    branches.push((c, arm.body.clone()));
                }
            }
            if else_body.is_empty() && !branches.is_empty() {
                // Use the last arm as the fallback mode.
                let (_, body) = branches.pop().expect("nonempty");
                else_body = body;
            }
            let branch_refs: Vec<(&Expr, &[ConcurrentStmt])> =
                branches.iter().map(|(c, b)| (c, b.as_slice())).collect();
            let defs = compile_mode_select_owned(b, order, &branch_refs, &else_body, *span)?;
            for (var, id) in defs {
                b.define(var, id);
            }
            Ok(())
        }
        ConcurrentStmt::Procedural { decls, body, .. } => {
            compile_seq_body(b, body)?;
            // Procedural locals go out of scope.
            for local in decls.iter().flat_map(|d| &d.names) {
                b.undefine(local.name);
            }
            Ok(())
        }
        ConcurrentStmt::AnnotationStmt { .. } => Ok(()), // merged by sema
        ConcurrentStmt::Process { .. } => unreachable!("filtered to continuous-time"),
    }
}

/// Bind `var` to block `id` and label the block with the quantity name
/// so the simulator and event part can observe it. When value numbering
/// hands back a block already labelled for another quantity, a
/// unit-gain alias keeps both names observable.
fn bind_labelled(
    b: &mut GraphBuilder<'_>,
    var: Name,
    id: BlockId,
) -> Result<BlockId, CompileError> {
    let spelling = b.spelling(var);
    let id = match b.label(id) {
        None => {
            b.set_label(id, spelling);
            id
        }
        Some(l) if l == spelling => id,
        Some(_) => {
            let alias = b.raw_node(BlockKind::Scale { gain: 1.0 });
            b.wire(id, alias, 0)?;
            b.set_label(alias, spelling);
            alias
        }
    };
    b.define(var, id);
    Ok(id)
}

/// Sort `names` by spelling, the order their blocks are numbered in.
fn sort_by_spelling(b: &GraphBuilder<'_>, names: &mut [Name]) {
    names.sort_by_cached_key(|&name| b.spelling(name));
}

/// Pick and lower one solver for the statement of `solvers`; returns
/// `(defined_var, block)`.
fn lower_equation(
    b: &mut GraphBuilder<'_>,
    order: &mut SolverOrder<'_>,
    solvers: &Solvers,
) -> Result<(Name, BlockId), CompileError> {
    let eq = &solvers.eq;
    let names = b.names();
    if solvers.candidates.is_empty() {
        return Err(CompileError::Unsolvable {
            detail: format!(
                "no variable of `{} == {}` is isolatable",
                eq.lhs.display(names),
                eq.rhs.display(names)
            ),
        });
    }
    let mut chosen = None;
    let mut first_block = None;
    for &(var, ref sol) in order.candidates(solvers) {
        // Never redefine an already-driven name or define an input port.
        if b.is_defined(var) {
            continue;
        }
        match b.symbols().get(var) {
            Some(sym)
                if sym.class == ObjectClass::Quantity
                    && sym.is_port
                    && sym.mode == Some(Mode::In) =>
            {
                continue
            }
            Some(sym) if sym.class == ObjectClass::Constant => continue,
            _ => {}
        }
        match check_resolvable(b, sol.expr(), sol.allows_self_reference().then_some(var)) {
            // A second viable candidate: another rotation may pick it.
            Ok(()) if chosen.is_some() => {
                order.had_choice = true;
                break;
            }
            Ok(()) => {
                chosen = Some((var, sol));
                if order.had_choice {
                    break;
                }
            }
            Err(e) => {
                first_block.get_or_insert(e);
            }
        }
    }
    match chosen {
        Some((var, sol)) => Ok((var, lower_solution(b, var, sol)?)),
        None => Err(first_block.unwrap_or_else(|| CompileError::Unsolvable {
            detail: format!(
                "every variable of `{} == {}` is already defined",
                eq.lhs.display(names),
                eq.rhs.display(names)
            ),
        })),
    }
}

/// Verify every free name of `expr` can currently be lowered.
fn check_resolvable(
    b: &mut GraphBuilder<'_>,
    expr: &Expr,
    allow_self: Option<Name>,
) -> Result<(), CompileError> {
    for (name, span) in free_names(b, expr) {
        if Some(name) == allow_self {
            continue;
        }
        if b.is_defined(name) {
            continue;
        }
        let materializable = match b.symbols().get(name) {
            Some(sym) => match sym.class {
                ObjectClass::Quantity => sym.is_port && sym.mode != Some(Mode::Out),
                ObjectClass::Signal => true,
                ObjectClass::Constant => sym.const_value.is_some(),
                _ => false,
            },
            None => false,
        };
        if !materializable {
            return Err(CompileError::UseBeforeDef { name: b.spelling(name).into_owned(), span });
        }
    }
    Ok(())
}

/// Free (data) names of an expression, including indexed-vector bases
/// but excluding called function names.
fn free_names(b: &mut GraphBuilder<'_>, expr: &Expr) -> Vec<(Name, Span)> {
    let mut out = Vec::new();
    collect_free(b, expr, &mut out);
    out
}

fn collect_free(b: &mut GraphBuilder<'_>, expr: &Expr, out: &mut Vec<(Name, Span)>) {
    use vase_frontend::ast::AttributeKind;
    match &expr.kind {
        ExprKind::Name(id) => out.push((id.name, id.span)),
        // Terminal facets materialize their own input blocks; they are
        // never data dependencies on other statements.
        ExprKind::Attribute {
            attr: AttributeKind::Across | AttributeKind::Through,
            args,
            ..
        } => {
            for a in args {
                collect_free(b, a, out);
            }
        }
        ExprKind::Attribute { prefix, args, .. } => {
            out.push((prefix.name, prefix.span));
            for a in args {
                collect_free(b, a, out);
            }
        }
        ExprKind::Call { name, args } => {
            if b.function(name.name).is_none()
                && !matches!(name.name, Name::LOG | Name::LN | Name::EXP | Name::ANTILOG)
            {
                // Indexed vector access: the element binding is the
                // dependency when the index is static.
                let index = match args.as_slice() {
                    [index] => fold_static(index, b.symbols()),
                    _ => None,
                };
                match index {
                    Some(i) => out.push((b.element(name.name, i as i64), name.span)),
                    None => out.push((name.name, name.span)),
                }
            }
            for a in args {
                collect_free(b, a, out);
            }
        }
        ExprKind::Unary { operand, .. } => collect_free(b, operand, out),
        ExprKind::Binary { lhs, rhs, .. } => {
            collect_free(b, lhs, out);
            collect_free(b, rhs, out);
        }
        _ => {}
    }
}

/// Lower one chosen solution, creating the integrator-feedback pattern
/// for [`Solution::Integral`].
fn lower_solution(
    b: &mut GraphBuilder<'_>,
    var: Name,
    sol: &Solution,
) -> Result<BlockId, CompileError> {
    match sol {
        Solution::Direct(expr) => lower_analog(b, expr),
        Solution::Derivative(expr) => {
            let u = lower_analog(b, expr)?;
            b.node(BlockKind::Differentiate { gain: 1.0 }, &[u])
        }
        Solution::Integral(expr) => {
            // Create the integrator first and bind the variable to its
            // output so self-references close the feedback loop.
            let integ = b.raw_node(BlockKind::Integrate { gain: 1.0, initial: 0.0 });
            b.define(var, integ);
            let u = lower_analog(b, expr)?;
            b.wire(u, integ, 0)?;
            Ok(integ)
        }
    }
}

/// The quantities one branch of a simultaneous `if`/`case` defines,
/// with their blocks.
type BranchDefs = Vec<(Name, BlockId)>;

/// Compile a simultaneous if/else into per-variable mux trees; returns
/// the defined variables sorted by name, so block numbering never
/// follows a hash map's iteration order.
fn compile_mode_select(
    b: &mut GraphBuilder<'_>,
    order: &mut SolverOrder<'_>,
    branches: &[(Expr, Vec<ConcurrentStmt>)],
    else_body: &[ConcurrentStmt],
    span: Span,
) -> Result<Vec<(Name, BlockId)>, CompileError> {
    let refs: Vec<(&Expr, &[ConcurrentStmt])> =
        branches.iter().map(|(c, body)| (c, body.as_slice())).collect();
    compile_mode_select_owned(b, order, &refs, else_body, span)
}

fn compile_mode_select_owned(
    b: &mut GraphBuilder<'_>,
    order: &mut SolverOrder<'_>,
    branches: &[(&Expr, &[ConcurrentStmt])],
    else_body: &[ConcurrentStmt],
    span: Span,
) -> Result<Vec<(Name, BlockId)>, CompileError> {
    if else_body.is_empty() {
        return Err(CompileError::Unsupported {
            what: "simultaneous if/case must cover all modes (add an `else`/`others` \
                   branch) to be synthesizable"
                .into(),
            span,
        });
    }
    // Lower each branch against a snapshot of the environment.
    let mut branch_defs: Vec<(Option<&Expr>, BranchDefs)> = Vec::new();
    for &(cond, body) in branches {
        let defs = compile_branch(b, order, body)?;
        branch_defs.push((Some(cond), defs));
    }
    let else_defs = compile_branch(b, order, else_body)?;
    branch_defs.push((None, else_defs));

    // All branches must define the same variable set.
    let mut vars: Vec<Name> = branch_defs[0].1.iter().map(|&(var, _)| var).collect();
    sort_by_spelling(b, &mut vars);
    let def = |defs: &[(Name, BlockId)], var: Name| {
        defs.iter().find(|&&(v, _)| v == var).map(|&(_, id)| id)
    };
    for (_, defs) in &branch_defs {
        if defs.len() != vars.len() || !vars.iter().all(|&v| def(defs, v).is_some()) {
            return Err(CompileError::Unsupported {
                what: "all branches of a simultaneous if/case must define the same \
                       quantities"
                    .into(),
                span,
            });
        }
    }

    // Fold the mux chain from the else value backwards.
    let mut result = Vec::with_capacity(vars.len());
    for var in vars {
        let mut acc = def(&branch_defs.last().expect("has else").1, var).expect("checked");
        for (cond, defs) in branch_defs[..branch_defs.len() - 1].iter().rev() {
            let cond = cond.expect("non-else branch");
            let sel = lower_cond(b, cond, 0.0)?;
            let val = def(defs, var).expect("checked");
            // Mux2 convention: select false → port 0 (else), true → port 1.
            acc = b.node(BlockKind::Mux { arity: 2 }, &[acc, val, sel])?;
        }
        result.push((var, acc));
    }
    Ok(result)
}

/// Compile the equations inside one branch; returns the variables they
/// define (without touching the shared environment, even when a
/// statement fails and the branch is postponed).
fn compile_branch(
    b: &mut GraphBuilder<'_>,
    order: &mut SolverOrder<'_>,
    body: &[ConcurrentStmt],
) -> Result<BranchDefs, CompileError> {
    let snapshot = b.bindings();
    let mut defs = Vec::new();
    let lowered = body.iter().try_for_each(|stmt| -> Result<(), CompileError> {
        match stmt {
            ConcurrentStmt::SimpleSimultaneous { span, .. } => {
                let solvers = order.solvers(*span);
                let (var, id) = lower_equation(b, order, solvers)?;
                b.define(var, id);
                defs.push((var, id));
            }
            ConcurrentStmt::SimultaneousIf { branches, else_body, span, .. } => {
                let inner = compile_mode_select(b, order, branches, else_body, *span)?;
                for (var, id) in inner {
                    b.define(var, id);
                    defs.push((var, id));
                }
            }
            other => {
                return Err(CompileError::Unsupported {
                    what: "only simultaneous statements may appear inside a \
                           simultaneous if/case"
                        .into(),
                    span: other.span(),
                })
            }
        }
        Ok(())
    });
    b.restore_bindings(snapshot);
    lowered.map(|()| defs)
}

/// Compile a procedural body (sequential semantics over a pure
/// signal-flow structure).
pub(crate) fn compile_seq_body(
    b: &mut GraphBuilder<'_>,
    body: &[SeqStmt],
) -> Result<(), CompileError> {
    for stmt in body {
        compile_seq_stmt(b, stmt)?;
    }
    Ok(())
}

fn compile_seq_stmt(b: &mut GraphBuilder<'_>, stmt: &SeqStmt) -> Result<(), CompileError> {
    match &stmt.kind {
        SeqStmtKind::VarAssign { target, index, value } => {
            let id = lower_analog(b, value)?;
            match index {
                None => b.define(target.name, id),
                Some(idx) => {
                    let i = fold_static(idx, b.symbols()).ok_or_else(|| CompileError::NotStatic {
                        what: format!("index of `{}`", b.spelling(target.name)),
                        span: idx.span,
                    })?;
                    let element = b.element(target.name, i as i64);
                    b.define(element, id);
                }
            }
            Ok(())
        }
        SeqStmtKind::If { branches, else_body } => {
            compile_seq_if(b, branches, else_body, stmt.span)
        }
        SeqStmtKind::Case { selector, arms } => {
            // Desugar to an if-chain (same trick as simultaneous case).
            let mut if_branches: Vec<(Expr, Vec<SeqStmt>)> = Vec::new();
            let mut else_body: Vec<SeqStmt> = Vec::new();
            for arm in arms {
                let mut is_others = false;
                let mut cond: Option<Expr> = None;
                for choice in &arm.choices {
                    match choice {
                        Choice::Others => is_others = true,
                        Choice::Expr(c) => {
                            let test = Expr::new(
                                ExprKind::Binary {
                                    op: vase_frontend::ast::BinaryOp::Eq,
                                    lhs: Box::new(selector.clone()),
                                    rhs: Box::new(c.clone()),
                                },
                                c.span,
                            );
                            cond = Some(match cond {
                                None => test,
                                Some(prev) => Expr::new(
                                    ExprKind::Binary {
                                        op: vase_frontend::ast::BinaryOp::Or,
                                        lhs: Box::new(prev),
                                        rhs: Box::new(test),
                                    },
                                    c.span,
                                ),
                            });
                        }
                    }
                }
                if is_others {
                    else_body = arm.body.clone();
                } else if let Some(c) = cond {
                    if_branches.push((c, arm.body.clone()));
                }
            }
            compile_seq_if(b, &if_branches, &else_body, stmt.span)
        }
        SeqStmtKind::For { var, lo, dir, hi, body } => {
            let lo_v = fold_static(lo, b.symbols()).ok_or(CompileError::NotStatic {
                what: "for-loop lower bound".into(),
                span: lo.span,
            })? as i64;
            let hi_v = fold_static(hi, b.symbols()).ok_or(CompileError::NotStatic {
                what: "for-loop upper bound".into(),
                span: hi.span,
            })? as i64;
            let indices: Vec<i64> = match dir {
                vase_frontend::ast::Direction::To => (lo_v..=hi_v).collect(),
                vase_frontend::ast::Direction::Downto => (hi_v..=lo_v).rev().collect(),
            };
            // Unroll: substitute the loop variable by its value in each
            // iteration's statements (paper §3: iteration counts are
            // statically known so the body can be unrolled).
            for i in indices {
                let env = [(var.name, Expr::new(ExprKind::Int(i), Span::synthetic()))];
                for s in body {
                    let substituted = crate::lower::substitute_in_stmt(s, &env);
                    compile_seq_stmt(b, &substituted)?;
                }
            }
            Ok(())
        }
        SeqStmtKind::While { cond, body } => compile_while(b, cond, body, stmt.span),
        SeqStmtKind::Null => Ok(()),
        SeqStmtKind::Return(_) | SeqStmtKind::SignalAssign { .. } | SeqStmtKind::Wait => {
            Err(CompileError::Unsupported {
                what: "statement is not allowed in a procedural body".into(),
                span: stmt.span,
            })
        }
    }
}

/// Sequential `if`: lower both arms against snapshots, then mux every
/// assigned name on the condition.
fn compile_seq_if(
    b: &mut GraphBuilder<'_>,
    branches: &[(Expr, Vec<SeqStmt>)],
    else_body: &[SeqStmt],
    span: Span,
) -> Result<(), CompileError> {
    if branches.is_empty() {
        return compile_seq_body(b, else_body);
    }
    let (cond, then_body) = &branches[0];
    let rest = &branches[1..];

    let before = b.bindings();
    compile_seq_body(b, then_body)?;
    let then_env = b.bindings();
    b.restore_bindings(before.clone());
    if rest.is_empty() {
        compile_seq_body(b, else_body)?;
    } else {
        compile_seq_if(b, rest, else_body, span)?;
    }
    let else_env = b.bindings();
    b.restore_bindings(before.clone());

    // Names (re)defined by either arm get muxed.
    let bound = |env: &[Option<BlockId>], i: usize| env.get(i).copied().flatten();
    let mut changed: Vec<Name> = (0..then_env.len().max(else_env.len()))
        .filter(|&i| {
            let prior = bound(&before, i);
            [bound(&then_env, i), bound(&else_env, i)]
                .into_iter()
                .any(|v| v.is_some() && v != prior)
        })
        .map(Name::from_index)
        .collect();
    if changed.is_empty() {
        return Ok(());
    }
    sort_by_spelling(b, &mut changed);
    let sel = lower_cond(b, cond, 0.0)?;
    for name in changed {
        let i = name.index();
        let then_val = bound(&then_env, i).or_else(|| bound(&before, i));
        let else_val = bound(&else_env, i).or_else(|| bound(&before, i));
        let (Some(tv), Some(ev)) = (then_val, else_val) else {
            return Err(CompileError::Unsupported {
                what: format!(
                    "`{}` is assigned in only one arm of an `if` and has no prior \
                     value; a signal-flow structure needs a value on every path",
                    b.spelling(name)
                ),
                span,
            });
        };
        let mux = b.node(BlockKind::Mux { arity: 2 }, &[ev, tv, sel])?;
        b.define(name, mux);
    }
    Ok(())
}

/// Compile a `while` loop into the sampling block-structure of paper
/// Fig. 4: an entry conditional (`icontr`), a loop conditional
/// (`contr`, realized with hysteresis so the feedback is registered),
/// input routing, the loop body as a pure function, a tracking S/H
/// (S/H1) and an output-latching S/H (S/H2).
fn compile_while(
    b: &mut GraphBuilder<'_>,
    cond: &Expr,
    body: &[SeqStmt],
    span: Span,
) -> Result<(), CompileError> {
    // Variables assigned by the loop body.
    let mut vars: Vec<Name> = Vec::new();
    collect_assigned(body, &mut vars);
    if vars.is_empty() {
        return Err(CompileError::Unsupported {
            what: "`while` body assigns nothing; a sampling structure needs loop \
                   variables"
                .into(),
            span,
        });
    }

    // Initial values must exist before the loop.
    let initial =
        vars.iter().map(|&v| b.source(v, span)).collect::<Result<Vec<BlockId>, _>>()?;

    // icontr: the entry conditional, evaluated on the initial values.
    let icontr = lower_cond(b, cond, 0.0)?;

    // Input-routing muxes (paper's sw1/sw2 pair): port 0 = initial
    // value, port 1 = fed-back S/H1 output, select = contr (connected
    // after the body is built).
    let mut route_mux = Vec::with_capacity(vars.len());
    for (&v, &init) in vars.iter().zip(&initial) {
        let mux = b.raw_node(BlockKind::Mux { arity: 2 });
        b.wire(init, mux, 0)?;
        b.define(v, mux);
        route_mux.push(mux);
    }

    // Loop body as a pure function of the routed inputs.
    compile_seq_body(b, body)?;
    let body_out =
        vars.iter().map(|&v| b.source(v, span)).collect::<Result<Vec<BlockId>, _>>()?;

    // contr: the loop conditional on the body outputs, with hysteresis
    // (a stateful Schmitt) so the feedback loop is legal hardware.
    let contr = lower_cond(b, cond, LOOP_HYSTERESIS)?;

    let not_contr = b.node(BlockKind::Logic { op: LogicOp::Not, arity: 1 }, &[contr])?;
    // S/H1 trails the body output while the loop is active: from the
    // moment the entry conditional admits the inputs (icontr) and for
    // as long as the loop conditional holds (contr).
    let active = b.node(BlockKind::Logic { op: LogicOp::Or, arity: 2 }, &[icontr, contr])?;

    for (k, &v) in vars.iter().enumerate() {
        let spelling = b.spelling(v);
        // S/H1 trails the body output while the loop runs.
        let sh1 = b.node(BlockKind::SampleHold, &[body_out[k], active])?;
        b.set_label(sh1, format!("sh1_{spelling}"));
        // Close the iteration feedback and select it while looping.
        b.wire(sh1, route_mux[k], 1)?;
        b.wire(contr, route_mux[k], 2)?;
        // sw3 + S/H2 latch the result when the loop exits.
        let sw3 = b.node(BlockKind::Switch, &[sh1, not_contr])?;
        let sh2 = b.node(BlockKind::SampleHold, &[sw3, not_contr])?;
        b.set_label(sh2, format!("sh2_{spelling}"));
        // If the loop never runs (icontr false), the initial value
        // passes through: final = mux(initial, sh2, icontr).
        let fin = b.node(BlockKind::Mux { arity: 2 }, &[initial[k], sh2, icontr])?;
        b.define(v, fin);
    }
    Ok(())
}

fn collect_assigned(body: &[SeqStmt], out: &mut Vec<Name>) {
    for stmt in body {
        match &stmt.kind {
            SeqStmtKind::VarAssign { target, index: None, .. }
                if !out.contains(&target.name) => {
                    out.push(target.name);
                }
            SeqStmtKind::VarAssign { .. } => {}
            SeqStmtKind::If { branches, else_body } => {
                for (_, b) in branches {
                    collect_assigned(b, out);
                }
                collect_assigned(else_body, out);
            }
            SeqStmtKind::Case { arms, .. } => {
                for arm in arms {
                    collect_assigned(&arm.body, out);
                }
            }
            SeqStmtKind::For { body, .. } | SeqStmtKind::While { body, .. } => {
                collect_assigned(body, out);
            }
            _ => {}
        }
    }
}

/// Attach output markers (and annotation-inferred output stages) for
/// every `out` quantity port — the paper's `block 4` inference (§6).
fn attach_outputs(
    b: &mut GraphBuilder<'_>,
    symbols: &SymbolTable,
) -> Result<(), CompileError> {
    let out_ports =
        symbols.ports().filter(|s| s.class == ObjectClass::Quantity && s.mode == Some(Mode::Out));
    for port in out_ports {
        let Ok(mut value) = b.source(port.key, Span::synthetic()) else {
            // Driven only by the event-driven part or not at all;
            // semantic analysis reports the latter.
            continue;
        };
        let name = &port.name;
        let set = AnnotationSet::new(&port.annotations);
        if let Some((load_ohms, peak_volts)) = set.drive() {
            let limit = if set.is_limited() {
                Some(set.limit_level().unwrap_or(DEFAULT_LIMIT_LEVEL))
            } else {
                None
            };
            value = b.node(BlockKind::OutputStage { load_ohms, peak_volts, limit }, &[value])?;
            b.set_label(value, format!("ostage_{name}"));
        } else if set.is_limited() {
            let level = set.limit_level().unwrap_or(DEFAULT_LIMIT_LEVEL);
            value = b.node(BlockKind::Limiter { level }, &[value])?;
        }
        let out = b.node(BlockKind::Output { name: name.clone() }, &[value])?;
        b.set_label(out, format!("out_{name}"));
    }
    Ok(())
}

#[cfg(test)]
thread_local! {
    static LOWERINGS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Count one [`compile_continuous`] call on this thread (the tests
/// assert that a design is lowered once); a no-op outside the tests.
fn count_lowering() {
    #[cfg(test)]
    LOWERINGS.with(|c| c.set(c.get() + 1));
}

/// The number of [`compile_continuous`] calls made by the current
/// thread.
#[cfg(test)]
pub(crate) fn lowerings_on_thread() -> u64 {
    LOWERINGS.with(|c| c.get())
}
