//! Compilation of process statements into VHIF finite state machines.
//!
//! Translation rules (paper Section 4):
//!
//! * the `start` state denotes the suspended process; resuming on any
//!   sensitivity-list event is the arc out of `start` (a logical OR —
//!   only one event occurs at a time, so no arbitration is needed);
//! * successive statements are grouped into the *same* state while they
//!   are data-independent (maximal concurrency); a data dependency on a
//!   value computed in the current state opens a new state;
//! * branches become guard-controlled arcs;
//! * after the body completes, the machine returns to `start`.

use std::collections::HashMap;

use vase_frontend::ast::{
    AttributeKind, BinaryOp, Choice, Expr, ExprKind, ObjectClass, SeqStmt, SeqStmtKind,
    UnaryOp,
};
use vase_frontend::names::{Name, Names};
use vase_frontend::sema::restrict::fold_static;
use vase_frontend::sema::SymbolTable;
use vase_frontend::span::Span;
use vase_vhif::{DataOp, DpBinaryOp, DpExpr, Event, Fsm, StateId, Trigger};

use crate::error::CompileError;

/// Compile one process into an FSM; its names are in `names`.
///
/// # Errors
///
/// Fails on constructs outside the synthesizable process subset
/// (`while` loops, non-static `'above` thresholds, ...).
pub fn compile_process(
    name: &str,
    sensitivity: &[Expr],
    body: &[SeqStmt],
    names: &Names,
    symbols: &SymbolTable,
) -> Result<Fsm, CompileError> {
    let fsm = Fsm::new(name);
    let start = fsm.start();

    // Sensitivity list → resume events.
    let mut events = Vec::new();
    for sens in sensitivity {
        events.push(event_from_expr(sens, names, symbols)?);
    }

    let mut ctx = ProcessCtx { fsm, names, symbols, state_counter: 0 };
    let first = ctx.new_state();
    ctx.fsm.add_transition(start, first, Trigger::AnyEvent(events));
    let last = ctx.compile_body(body, first)?;
    ctx.fsm.add_transition(last, start, Trigger::Always);
    let fsm = prune_empty_states(ctx.fsm);
    Ok(fsm)
}

struct ProcessCtx<'a> {
    fsm: Fsm,
    names: &'a Names,
    symbols: &'a SymbolTable,
    state_counter: usize,
}

impl<'a> ProcessCtx<'a> {
    fn new_state(&mut self) -> StateId {
        self.state_counter += 1;
        let n = self.state_counter;
        self.fsm.add_state(format!("state {n}"))
    }

    /// Compile `body` starting in `cur`; returns the state in which
    /// control rests afterwards.
    fn compile_body(&mut self, body: &[SeqStmt], mut cur: StateId) -> Result<StateId, CompileError> {
        for stmt in body {
            cur = self.compile_stmt(stmt, cur)?;
        }
        Ok(cur)
    }

    fn compile_stmt(&mut self, stmt: &SeqStmt, cur: StateId) -> Result<StateId, CompileError> {
        match &stmt.kind {
            SeqStmtKind::SignalAssign { target, value }
            | SeqStmtKind::VarAssign { target, index: None, value } => {
                let op = DataOp::new(
                    self.names.resolve(target.name),
                    dp_expr(value, self.names, self.symbols)?,
                );
                Ok(self.place_op(op, cur))
            }
            SeqStmtKind::VarAssign { index: Some(_), .. } => Err(CompileError::Unsupported {
                what: "indexed assignment inside a process".into(),
                span: stmt.span,
            }),
            SeqStmtKind::If { branches, else_body } => {
                self.compile_if(branches, else_body, cur, stmt.span)
            }
            SeqStmtKind::Case { selector, arms } => {
                // Desugar to if-chain over equality tests.
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
                                        op: BinaryOp::Eq,
                                        lhs: Box::new(selector.clone()),
                                        rhs: Box::new(c.clone()),
                                    },
                                    c.span,
                                );
                                cond = Some(match cond {
                                    None => test,
                                    Some(prev) => Expr::new(
                                        ExprKind::Binary {
                                            op: BinaryOp::Or,
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
                self.compile_if(&if_branches, &else_body, cur, stmt.span)
            }
            SeqStmtKind::For { var, lo, dir, hi, body } => {
                let lo_v = fold_static(lo, self.symbols).ok_or(CompileError::NotStatic {
                    what: "for-loop bound".into(),
                    span: lo.span,
                })? as i64;
                let hi_v = fold_static(hi, self.symbols).ok_or(CompileError::NotStatic {
                    what: "for-loop bound".into(),
                    span: hi.span,
                })? as i64;
                let indices: Vec<i64> = match dir {
                    vase_frontend::ast::Direction::To => (lo_v..=hi_v).collect(),
                    vase_frontend::ast::Direction::Downto => (hi_v..=lo_v).rev().collect(),
                };
                let mut cur = cur;
                for i in indices {
                    let env = [(var.name, Expr::new(ExprKind::Int(i), Span::synthetic()))];
                    for s in body {
                        let substituted = crate::lower::substitute_in_stmt(s, &env);
                        cur = self.compile_stmt(&substituted, cur)?;
                    }
                }
                Ok(cur)
            }
            SeqStmtKind::Null => Ok(cur),
            SeqStmtKind::While { .. } => Err(CompileError::Unsupported {
                what: "`while` inside a process (sampling loops belong in the \
                       continuous-time part as procedurals)"
                    .into(),
                span: stmt.span,
            }),
            SeqStmtKind::Return(_) | SeqStmtKind::Wait => Err(CompileError::Unsupported {
                what: "statement is not allowed in a process body".into(),
                span: stmt.span,
            }),
        }
    }

    /// Place a data-path op in `cur` if it is data-independent of the
    /// ops already there; otherwise open a new state (paper's grouping
    /// rule — Fig. 3: assignment 6 depends on assignment 5 and lands in
    /// state 2).
    fn place_op(&mut self, op: DataOp, cur: StateId) -> StateId {
        let depends = self
            .fsm
            .state(cur)
            .ops
            .iter()
            .any(|existing| existing.feeds(&op) || existing.target == op.target);
        if depends {
            let next = self.new_state();
            self.fsm.add_transition(cur, next, Trigger::Always);
            self.fsm.state_mut(next).ops.push(op);
            next
        } else {
            self.fsm.state_mut(cur).ops.push(op);
            cur
        }
    }

    fn compile_if(
        &mut self,
        branches: &[(Expr, Vec<SeqStmt>)],
        else_body: &[SeqStmt],
        cur: StateId,
        _span: Span,
    ) -> Result<StateId, CompileError> {
        if branches.is_empty() {
            return self.compile_body(else_body, cur);
        }
        let (cond, then_body) = &branches[0];
        let guard = dp_expr(cond, self.names, self.symbols)?;

        let then_entry = self.new_state();
        self.fsm.add_transition(cur, then_entry, Trigger::Guard(guard.clone()));
        let then_exit = self.compile_body(then_body, then_entry)?;

        let else_entry = self.new_state();
        self.fsm
            .add_transition(cur, else_entry, Trigger::Guard(DpExpr::Not(Box::new(guard))));
        let else_exit = if branches.len() > 1 {
            self.compile_if(&branches[1..], else_body, else_entry, _span)?
        } else {
            self.compile_body(else_body, else_entry)?
        };

        let join = self.new_state();
        self.fsm.add_transition(then_exit, join, Trigger::Always);
        self.fsm.add_transition(else_exit, join, Trigger::Always);
        Ok(join)
    }
}

/// Convert a sensitivity-list entry to an event.
fn event_from_expr(
    expr: &Expr,
    names: &Names,
    symbols: &SymbolTable,
) -> Result<Event, CompileError> {
    match &expr.kind {
        ExprKind::Attribute { prefix, attr: AttributeKind::Above, args } => {
            let threshold =
                fold_static(&args[0], symbols).ok_or(CompileError::NotStatic {
                    what: "'above threshold".into(),
                    span: args[0].span,
                })?;
            Ok(Event::Above { quantity: names.resolve(prefix.name).to_owned(), threshold })
        }
        ExprKind::Name(id) => {
            Ok(Event::SignalChange { signal: names.resolve(id.name).to_owned() })
        }
        _ => Err(CompileError::Unsupported {
            what: format!("sensitivity entry `{}`", expr.display(names)),
            span: expr.span,
        }),
    }
}

/// Convert an AST expression, whose names are in `names`, into a
/// data-path expression.
pub fn dp_expr(expr: &Expr, names: &Names, symbols: &SymbolTable) -> Result<DpExpr, CompileError> {
    match &expr.kind {
        ExprKind::Int(v) => Ok(DpExpr::Real(*v as f64)),
        ExprKind::Real(v) => Ok(DpExpr::Real(*v)),
        ExprKind::Char(c) => Ok(DpExpr::Bit(*c == '1')),
        ExprKind::Bool(v) => Ok(DpExpr::Bit(*v)),
        ExprKind::Name(id) => match symbols.get(id.name) {
            Some(sym) if sym.class == ObjectClass::Quantity => {
                Ok(DpExpr::Quantity(sym.name.clone()))
            }
            Some(sym) if sym.class == ObjectClass::Constant => match sym.const_value {
                Some(v) => Ok(DpExpr::Real(v)),
                None => Err(CompileError::NotStatic {
                    what: format!("constant `{}`", sym.name),
                    span: id.span,
                }),
            },
            _ => Ok(DpExpr::Signal(names.resolve(id.name).to_owned())),
        },
        ExprKind::Attribute { prefix, attr: AttributeKind::Above, args } => {
            let threshold =
                fold_static(&args[0], symbols).ok_or(CompileError::NotStatic {
                    what: "'above threshold".into(),
                    span: args[0].span,
                })?;
            Ok(DpExpr::EventLevel(Event::Above {
                quantity: names.resolve(prefix.name).to_owned(),
                threshold,
            }))
        }
        ExprKind::Call { name, args } if name.name == Name::ADC && args.len() == 1 => {
            Ok(DpExpr::Adc(Box::new(dp_expr(&args[0], names, symbols)?)))
        }
        ExprKind::Unary { op, operand } => match op {
            UnaryOp::Not => Ok(DpExpr::Not(Box::new(dp_expr(operand, names, symbols)?))),
            UnaryOp::Neg => Ok(DpExpr::binary(
                DpBinaryOp::Sub,
                DpExpr::Real(0.0),
                dp_expr(operand, names, symbols)?,
            )),
            UnaryOp::Plus => dp_expr(operand, names, symbols),
            UnaryOp::Abs => Err(CompileError::Unsupported {
                what: "`abs` in a process data-path".into(),
                span: expr.span,
            }),
        },
        ExprKind::Binary { op, lhs, rhs } => {
            let dp_op = match op {
                BinaryOp::Add => DpBinaryOp::Add,
                BinaryOp::Sub => DpBinaryOp::Sub,
                BinaryOp::Mul => DpBinaryOp::Mul,
                BinaryOp::Div => DpBinaryOp::Div,
                BinaryOp::And => DpBinaryOp::And,
                BinaryOp::Or => DpBinaryOp::Or,
                BinaryOp::Eq => DpBinaryOp::Eq,
                BinaryOp::NotEq => DpBinaryOp::NotEq,
                BinaryOp::Lt => DpBinaryOp::Lt,
                BinaryOp::LtEq => DpBinaryOp::LtEq,
                BinaryOp::Gt => DpBinaryOp::Gt,
                BinaryOp::GtEq => DpBinaryOp::GtEq,
                other => {
                    return Err(CompileError::Unsupported {
                        what: format!("operator `{other}` in a process data-path"),
                        span: expr.span,
                    })
                }
            };
            Ok(DpExpr::binary(
                dp_op,
                dp_expr(lhs, names, symbols)?,
                dp_expr(rhs, names, symbols)?,
            ))
        }
        other => Err(CompileError::Unsupported {
            what: format!(
                "expression `{}` ({}) in a process data-path",
                expr.display(names),
                names.debug_text(other)
            ),
            span: expr.span,
        }),
    }
}

/// Remove empty pass-through states: a state with no ops and exactly
/// one outgoing `Always` arc is bypassed by redirecting its incoming
/// arcs (joins created by `if` compilation often end up empty).
fn prune_empty_states(fsm: Fsm) -> Fsm {
    // Work on a copy with state indices; rebuild at the end.
    let states: Vec<_> = fsm.iter().map(|(_, s)| s.clone()).collect();
    let mut transitions: Vec<_> = fsm.transitions().to_vec();

    let mut bypass: Option<(StateId, StateId)> = None;
    for (i, s) in states.iter().enumerate() {
        let id = StateId::from_index(i);
        if i == 0 || !s.ops.is_empty() {
            continue;
        }
        let outgoing: Vec<_> = transitions.iter().filter(|t| t.from == id).collect();
        if outgoing.len() == 1 && matches!(outgoing[0].trigger, Trigger::Always) {
            let to = outgoing[0].to;
            if to != id {
                bypass = Some((id, to));
                break;
            }
        }
    }
    if let Some((dead, to)) = bypass {
        for t in &mut transitions {
            if t.to == dead {
                t.to = to;
            }
        }
        transitions.retain(|t| t.from != dead);
        // Mark the dead state by leaving it with no arcs; rebuild below
        // drops unreachable states by renumbering.
        let mut rebuilt = Fsm::new(fsm.name());
        let mut remap: HashMap<usize, StateId> = HashMap::new();
        remap.insert(0, rebuilt.start());
        for (i, s) in states.iter().enumerate() {
            if i == 0 || i == dead.index() {
                continue;
            }
            let nid = rebuilt.add_state(s.name.clone());
            rebuilt.state_mut(nid).ops = s.ops.clone();
            remap.insert(i, nid);
        }
        for t in &transitions {
            let (Some(&from), Some(&to)) = (remap.get(&t.from.index()), remap.get(&t.to.index()))
            else {
                continue;
            };
            rebuilt.add_transition(from, to, t.trigger.clone());
        }
        return prune_empty_states(rebuilt);
    }

    fsm
}

#[cfg(test)]
mod tests {
    use super::*;
    use vase_frontend::ast::ConcurrentStmt;
    use vase_frontend::{analyze, parse_design_file};

    fn compile(src_body: &str, extra_decls: &str) -> Fsm {
        let src = format!(
            "entity e is
               port (quantity line : in real is voltage);
             end entity;
             architecture a of e is
               signal c1, c2 : bit;
               constant vth : real := 0.07;
               {extra_decls}
             begin
               {src_body}
             end architecture;"
        );
        let design = parse_design_file(&src).expect("parses");
        let analyzed = analyze(&design).expect("analyzes");
        let arch_ast = analyzed.design.architecture_of("e").expect("arch");
        let arch = analyzed.architecture_of("e").expect("analyzed arch");
        match &arch_ast.stmts[0] {
            ConcurrentStmt::Process { sensitivity, body, .. } => {
                compile_process("p", sensitivity, body, &analyzed.design.names, &arch.symbols)
                    .expect("compiles")
            }
            other => panic!("expected process, got {other:?}"),
        }
    }

    #[test]
    fn receiver_process_has_start_plus_branches() {
        // Paper Fig. 2 process.
        let fsm = compile(
            "process (line'above(vth)) is
             begin
               if (line'above(vth) = true) then
                 c1 <= '1';
               else
                 c1 <= '0';
               end if;
             end process;",
            "",
        );
        fsm.validate().expect("valid");
        // start + decision state + then-state + else-state (the empty
        // join is pruned) — 4 states, matching Table 1's receiver row.
        assert_eq!(fsm.state_count(), 4);
        assert_eq!(fsm.datapath_op_count(), 2);
        // resume arc is an AnyEvent from start
        let start_arcs: Vec<_> = fsm.outgoing(fsm.start()).collect();
        assert_eq!(start_arcs.len(), 1);
        assert!(matches!(start_arcs[0].trigger, Trigger::AnyEvent(_)));
    }

    #[test]
    fn independent_assignments_share_a_state() {
        // Paper Fig. 3: assignments 4 and 5 are concurrent in state 1;
        // assignment 6 (depending on 5) opens state 2.
        let fsm = compile(
            "process (line'above(vth)) is
               variable n, m, k : real;
             begin
               n := 1.0;
               m := 2.0;
               k := n + 1.0;
             end process;",
            "",
        );
        fsm.validate().expect("valid");
        // start + state1 {n, m} + state2 {k}
        assert_eq!(fsm.state_count(), 3);
        let (_, s1) = fsm.iter().nth(1).expect("state 1");
        assert_eq!(s1.ops.len(), 2);
        let (_, s2) = fsm.iter().nth(2).expect("state 2");
        assert_eq!(s2.ops.len(), 1);
        assert_eq!(s2.ops[0].target, "k");
    }

    #[test]
    fn rewriting_same_target_opens_new_state() {
        let fsm = compile(
            "process (line'above(vth)) is
               variable n : real;
             begin
               n := 1.0;
               n := 2.0;
             end process;",
            "",
        );
        assert_eq!(fsm.state_count(), 3);
    }

    #[test]
    fn multiple_sensitivity_events_or_together() {
        let fsm = compile(
            "process (line'above(vth), c2) is
             begin
               c1 <= '1';
             end process;",
            "",
        );
        let arcs: Vec<_> = fsm.outgoing(fsm.start()).collect();
        match &arcs[0].trigger {
            Trigger::AnyEvent(events) => assert_eq!(events.len(), 2),
            other => panic!("expected AnyEvent, got {other:?}"),
        }
    }

    #[test]
    fn machine_returns_to_start() {
        let fsm = compile(
            "process (c2) is
             begin
               c1 <= '1';
             end process;",
            "",
        );
        assert!(fsm
            .transitions()
            .iter()
            .any(|t| t.to == fsm.start() && matches!(t.trigger, Trigger::Always)));
    }

    #[test]
    fn for_loop_unrolls_into_states() {
        let fsm = compile(
            "process (c2) is
               variable acc : real;
             begin
               acc := 0.0;
               for i in 1 to 3 loop
                 acc := acc + 1.0;
               end loop;
             end process;",
            "",
        );
        fsm.validate().expect("valid");
        // acc := 0; then 3 dependent accumulations → 4 working states.
        assert_eq!(fsm.datapath_op_count(), 4);
        assert_eq!(fsm.state_count(), 5);
    }

    #[test]
    fn guards_reference_events() {
        let fsm = compile(
            "process (line'above(vth)) is
             begin
               if (line'above(vth) = true) then
                 c1 <= '1';
               else
                 c1 <= '0';
               end if;
             end process;",
            "",
        );
        let guard_count = fsm
            .transitions()
            .iter()
            .filter(|t| matches!(t.trigger, Trigger::Guard(_)))
            .count();
        assert_eq!(guard_count, 2);
    }

    #[test]
    fn dp_expr_classifies_names() {
        let design = parse_design_file(
            "entity e is port (quantity q : in real is voltage); end entity;
             architecture a of e is
               signal s : bit;
               constant k : real := 2.0;
             begin end architecture;",
        )
        .expect("parses");
        let analyzed = analyze(&design).expect("analyzes");
        let symbols = &analyzed.architecture_of("e").expect("arch").symbols;
        let names = &analyzed.design.names;
        let dp = |src| {
            let e = vase_frontend::parse_expression(src, &mut names.clone()).expect("parses");
            dp_expr(&e, names, symbols)
        };
        assert!(matches!(dp("q"), Ok(DpExpr::Quantity(_))));
        assert!(matches!(dp("s"), Ok(DpExpr::Signal(_))));
        assert!(matches!(dp("k"), Ok(DpExpr::Real(v)) if v == 2.0));
    }
}
