//! Compiled evaluation plans for behavioral (VHIF-level) simulation.
//!
//! [`simulate_design`](crate::simulate_design) used to interpret the
//! design directly: every block evaluation chased `BTreeMap` lookups
//! for stimuli and FSM signals, every FSM event rendered its `Display`
//! form to a fresh `String` per step for edge bookkeeping, and each of
//! the four RK4 stages returned a freshly allocated value vector. This
//! module moves all of that name resolution to *compile time*:
//!
//! * [`CompiledSim`] is the immutable plan — per graph, a tape of one
//!   instruction per block in topological order, with stimulus and
//!   signal names replaced by dense indices and every operand resolved
//!   to its driver block; the shorter tape an RK stage runs; and
//!   precomputed integrator/discrete-update lists. Per FSM,
//!   deduplicated event tables and expression trees with every name
//!   pre-resolved.
//! * A [`BatchSession`](crate::BatchSession) owns the mutable state
//!   (integrator values, discrete states, FSM edge levels) plus reusable
//!   scratch buffers for the RK4 stages, so the steady-state step loop
//!   performs **no heap allocation** (asserted by
//!   `crates/sim/tests/no_alloc.rs`). [`CompiledSim::run`] is a session
//!   of one lane.
//!
//! The plan borrows nothing mutable and is `Sync`, so one compilation
//! can drive many concurrent sessions — the basis of the parallel
//! frequency sweeps in [`crate::response`].

use std::collections::BTreeMap;

use vase_vhif::block::LogicOp;
use vase_vhif::{
    BlockKind, DpBinaryOp, DpExpr, Event, Fsm, SignalFlowGraph, StateId, Trigger, VhifDesign,
};

use crate::error::SimError;
use crate::fault::FaultInjection;
use crate::graph_sim::SimConfig;
use crate::stimulus::Stimulus;
use crate::trace::SimResult;

// ------------------------------------------------------------ the plan

/// A fully resolved simulation plan for one [`VhifDesign`].
///
/// Construction performs every name lookup the interpreter used to do
/// per step — stimulus names, FSM signal names, trace names, event
/// identities — and fails with the same [`SimError`]s `simulate_design`
/// reports. The plan is immutable and `Sync`; start any number of
/// [`BatchSession`](crate::BatchSession)s from it, concurrently if
/// desired.
pub struct CompiledSim<'d> {
    pub(crate) graphs: Vec<GraphPlan<'d>>,
    pub(crate) machines: Vec<MachinePlan>,
    /// Stimulus name per dense index (sorted; mirrors the input map).
    pub(crate) stim_names: Vec<String>,
    /// Stimulus per dense index.
    pub(crate) stims: Vec<Stimulus>,
    /// FSM-assigned signal name per dense index.
    pub(crate) signal_names: Vec<String>,
    /// Trace name and resolved source, in recording order.
    pub(crate) traces: Vec<(String, TraceSrc)>,
    pub(crate) dt: f64,
    /// Number of steps; the session records `steps + 1` samples.
    pub(crate) steps: usize,
    /// Numerical-fault detection threshold (see [`SimConfig`]).
    pub(crate) divergence_limit: f64,
    /// Step-halving retry budget for faulty steps.
    pub(crate) max_halvings: u32,
    /// Opt-in deterministic fault injection.
    pub(crate) injection: Option<FaultInjection>,
}

/// Compiled per-graph evaluation plan.
pub(crate) struct GraphPlan<'d> {
    pub(crate) graph: &'d SignalFlowGraph,
    /// One instruction per block, in topological order.
    pub(crate) tape: Vec<Instr>,
    /// The instructions an RK stage evaluation runs, in tape order: the
    /// blocks some integrator's driver depends on whose value can change
    /// within a step, because they read an integrator state or a
    /// stimulus. A stage reads nothing else of its evaluation.
    pub(crate) stage_tape: Vec<Instr>,
    /// The blocks a stage reads that hold their start-of-step value
    /// through the step (they read only constants, FSM signals and
    /// discrete states): copied from the step's values, not evaluated.
    pub(crate) stage_copies: Vec<u32>,
    /// Operand lists of the n-ary instructions (`Add`, `Mux`, `Logic`),
    /// padded with `NO_DRIVER` to the length each one reads.
    pub(crate) operands: Vec<i32>,
    /// One entry per integrator: (block index, driver block index, gain).
    pub(crate) integrators: Vec<(u32, u32, f64)>,
    /// Discrete-state updates applied at the end of each step.
    pub(crate) discretes: Vec<DiscreteUpdate>,
    /// Offset of this graph's slice in the session-wide value buffers.
    pub(crate) base: usize,
}

/// An operand that reads as 0.0: an unconnected input port.
pub(crate) const NO_DRIVER: i32 = -1;

/// One kernel instruction: the operation of block `out`.
#[derive(Clone, Copy)]
pub(crate) struct Instr {
    pub(crate) out: u32,
    pub(crate) op: CompiledOp,
}

/// A block operation with every name resolved to a dense index and
/// every operand to its driver block (graph-local, or `NO_DRIVER`).
/// `Add`, `Mux` and `Logic` hold `(start, arity)` into the graph's
/// operand list; a `Mux` selector follows its `arity` data operands,
/// and a `Logic` list has at least one operand.
#[derive(Clone, Copy)]
pub(crate) enum CompiledOp {
    /// Analog input: stimulus index (checked present at compile time).
    Input(u32),
    /// Control input: FSM signal index, stimulus fallback, or zero.
    ControlInput(CtlSrc),
    Const(f64),
    Scale(f64, i32),
    Add(u32, u32),
    Sub(i32, i32),
    Mul(i32, i32),
    Div(i32, i32),
    /// Integrator output = its state slot (the block's own index).
    Integrate,
    /// `gain * (u - prev_in) / dt`.
    Differentiate(f64, i32),
    Log(i32),
    Antilog(i32),
    Abs(i32),
    /// Sample/hold, memory, Schmitt trigger: emit the discrete state.
    DiscreteState,
    /// Pass the data operand while the control operand is high.
    Switch(i32, i32),
    Mux(u32, u32),
    Comparator(f64, i32),
    /// ADC with the LSB precomputed from the bit width.
    Adc(f64, i32),
    Limiter(f64, i32),
    OutputStage(Option<f64>, i32),
    Output(i32),
    Logic(LogicOp, u32, u32),
}

impl CompiledOp {
    /// The driver blocks this operation reads (`NO_DRIVER` included).
    fn reads(&self, operands: &[i32]) -> Vec<i32> {
        use CompiledOp::*;
        let list = |at: u32, len: u32| operands[at as usize..(at + len) as usize].to_vec();
        match *self {
            Input(_) | ControlInput(_) | Const(_) | Integrate | DiscreteState => Vec::new(),
            Scale(_, a)
            | Differentiate(_, a)
            | Log(a)
            | Antilog(a)
            | Abs(a)
            | Comparator(_, a)
            | Adc(_, a)
            | Limiter(_, a)
            | OutputStage(_, a)
            | Output(a) => vec![a],
            Sub(a, b) | Mul(a, b) | Div(a, b) | Switch(a, b) => vec![a, b],
            Add(at, arity) => list(at, arity),
            Mux(at, arity) => list(at, arity + 1),
            Logic(_, at, arity) => list(at, arity.max(1)),
        }
    }
}

/// Where a control input reads from (pre-resolved precedence:
/// FSM signal, else stimulus, else constant zero).
#[derive(Clone, Copy)]
pub(crate) enum CtlSrc {
    Signal(u32),
    Stim(u32),
    Zero,
}

/// End-of-step discrete-state updates, pre-resolved.
pub(crate) enum DiscreteUpdate {
    /// S/H and memory: latch port 0 while port 1 is high.
    Latch { block: u32, data: i32, clock: i32 },
    /// Schmitt trigger hysteresis on port 0.
    Schmitt {
        block: u32,
        input: i32,
        low: f64,
        high: f64,
    },
    /// Differentiator: remember port 0 for the next step.
    PrevIn { block: u32, input: i32 },
}

/// Compiled per-FSM plan.
pub(crate) struct MachinePlan {
    /// Deduplicated watched events with resolved level sources.
    pub(crate) events: Vec<CompiledEvent>,
    /// Per state: data-path ops and outgoing transitions.
    pub(crate) states: Vec<CompiledState>,
    pub(crate) start: StateId,
    /// Walk cap (`4 * state_count + 4`), precomputed.
    pub(crate) walk_cap: usize,
}

pub(crate) struct CompiledState {
    /// `(signal index, value expression)` per data-path op, in order.
    pub(crate) ops: Vec<(u32, CompiledDp)>,
    /// `(trigger, target state)` per outgoing arc, in declaration order.
    pub(crate) transitions: Vec<(CompiledTrigger, StateId)>,
}

pub(crate) enum CompiledTrigger {
    Always,
    /// Event arcs are taken only when resuming from `start`.
    AnyEvent,
    Guard(CompiledDp),
}

/// A watched event with its boolean level pre-resolved.
pub(crate) enum CompiledEvent {
    /// `quantity > threshold` where the quantity reads a block value,
    /// a stimulus, or constant zero.
    Above { src: ValueSrc, threshold: f64 },
    /// Signal edge: current level of an FSM signal or stimulus.
    Change(CtlSrc),
}

/// Where an FSM quantity reference reads from: a block value in some
/// graph (interface or labelled block), a stimulus, or constant zero.
#[derive(Clone, Copy)]
pub(crate) enum ValueSrc {
    /// Absolute index into the session's flattened value buffer.
    Value(usize),
    Stim(u32),
    Zero,
}

/// A data-path expression with every name resolved.
pub(crate) enum CompiledDp {
    Const(f64),
    Signal(u32),
    Quantity(ValueSrc),
    /// Level of a watched event, re-evaluated against *current* signals.
    EventLevel(Box<CompiledEvent>),
    Adc(Box<CompiledDp>),
    Not(Box<CompiledDp>),
    Binary {
        op: DpBinaryOp,
        lhs: Box<CompiledDp>,
        rhs: Box<CompiledDp>,
    },
}

/// Where a recorded trace reads from, pre-resolved with the same
/// precedence the interpreter used: interface port value, else FSM
/// signal, else stimulus, else constant zero.
#[derive(Clone, Copy)]
pub(crate) enum TraceSrc {
    /// Absolute index into the flattened value buffer.
    Value(usize),
    Signal(u32),
    Stim(u32),
    Zero,
}

impl<'d> CompiledSim<'d> {
    /// Compile `design` against the given stimuli and configuration.
    ///
    /// # Errors
    ///
    /// Exactly the construction-time errors of
    /// [`simulate_design`](crate::simulate_design):
    /// [`SimError::BadConfig`], [`SimError::AlgebraicLoop`], and
    /// [`SimError::MissingStimulus`].
    pub fn new(
        design: &'d VhifDesign,
        inputs: &BTreeMap<String, Stimulus>,
        config: &SimConfig,
    ) -> Result<Self, SimError> {
        // Dense index for every FSM-assigned signal.
        let mut signal_names: Vec<String> = Vec::new();
        for fsm in &design.fsms {
            for name in fsm.assigned_signals() {
                if !signal_names.contains(&name) {
                    signal_names.push(name);
                }
            }
        }
        // Recorded traces: interface ports and FSM signals, sorted by
        // name.
        let mut trace_names: Vec<String> = Vec::new();
        for graph in &design.graphs {
            for (_, block) in graph.iter() {
                match &block.kind {
                    BlockKind::Input { name } | BlockKind::Output { name } => {
                        trace_names.push(name.clone())
                    }
                    _ => {}
                }
            }
        }
        trace_names.extend(signal_names.iter().cloned());
        trace_names.sort();
        trace_names.dedup();
        let steps = config.recorded_steps(trace_names.len())?;

        let stim_names: Vec<String> = inputs.keys().cloned().collect();
        let stims: Vec<Stimulus> = inputs.values().copied().collect();
        let stim_index = |name: &str| stim_names.binary_search_by(|n| n.as_str().cmp(name)).ok();
        let signal_index = |name: &str| signal_names.iter().position(|n| n == name);

        // Per-graph plans.
        let mut graphs = Vec::with_capacity(design.graphs.len());
        let mut base = 0usize;
        for graph in &design.graphs {
            let plan = GraphPlan::new(graph, base, &stim_index, &signal_index)?;
            base += graph.len();
            graphs.push(plan);
        }

        // Quantity resolution for FSMs: first graph with an interface
        // port or labelled block of that name, else stimulus, else 0.
        let quantity_src = |name: &str| -> ValueSrc {
            for plan in &graphs {
                if let Some(id) = plan
                    .graph
                    .find_interface(name)
                    .or_else(|| plan.graph.find_labelled(name))
                {
                    return ValueSrc::Value(plan.base + id.index());
                }
            }
            match stim_index(name) {
                Some(s) => ValueSrc::Stim(s as u32),
                None => ValueSrc::Zero,
            }
        };
        let machines: Vec<MachinePlan> = design
            .fsms
            .iter()
            .map(|fsm| MachinePlan::new(fsm, &quantity_src, &signal_index, &stim_index))
            .collect();

        // Trace sources, with the recording precedence: interface value,
        // else signal, else stimulus, else zero.
        let traces = trace_names
            .into_iter()
            .map(|name| {
                let src = graphs
                    .iter()
                    .find_map(|plan| {
                        plan.graph
                            .find_interface(&name)
                            .map(|id| TraceSrc::Value(plan.base + id.index()))
                    })
                    .or_else(|| signal_index(&name).map(|s| TraceSrc::Signal(s as u32)))
                    .or_else(|| stim_index(&name).map(|s| TraceSrc::Stim(s as u32)))
                    .unwrap_or(TraceSrc::Zero);
                (name, src)
            })
            .collect();

        Ok(CompiledSim {
            graphs,
            machines,
            stim_names,
            stims,
            signal_names,
            traces,
            dt: config.dt,
            steps,
            divergence_limit: config.divergence_limit.abs(),
            max_halvings: config.max_step_halvings,
            injection: config.fault_injection,
        })
    }

    /// The dense index of a stimulus name, for swapping stimuli between
    /// batch lanes (e.g. one sweep point per lane at a different
    /// frequency).
    pub fn stimulus_index(&self, name: &str) -> Option<usize> {
        self.stim_names
            .binary_search_by(|n| n.as_str().cmp(name))
            .ok()
    }

    /// The compiled stimulus vector (indexed per
    /// [`stimulus_index`](Self::stimulus_index)).
    pub fn stimuli(&self) -> &[Stimulus] {
        &self.stims
    }

    /// Number of time steps a run takes (`steps + 1` samples).
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Run every step with the compiled stimuli: a one-lane
    /// [`BatchSession`](crate::BatchSession).
    pub fn run(&self) -> SimResult {
        let mut session = self.batch_replicated(1);
        session.run();
        session.into_results().pop().unwrap_or_default()
    }

    /// Total block count across graphs (the flattened value-buffer
    /// length).
    pub(crate) fn total_blocks(&self) -> usize {
        self.graphs
            .last()
            .map(|g| g.base + g.graph.len())
            .unwrap_or(0)
    }
}

impl GraphPlan<'_> {
    fn new<'d>(
        graph: &'d SignalFlowGraph,
        base: usize,
        stim_index: &dyn Fn(&str) -> Option<usize>,
        signal_index: &dyn Fn(&str) -> Option<usize>,
    ) -> Result<GraphPlan<'d>, SimError> {
        let order: Vec<u32> = graph
            .topo_order()
            .map_err(|_| SimError::AlgebraicLoop)?
            .into_iter()
            .map(|id| id.index() as u32)
            .collect();

        let n = graph.len();
        let mut ops = Vec::with_capacity(n);
        let mut operands: Vec<i32> = Vec::new();
        let mut integrators = Vec::new();
        let mut discretes = Vec::new();

        for (id, block) in graph.iter() {
            let i = id.index();
            let ports = graph.block_inputs(id);
            let port = |p: usize| -> i32 {
                ports
                    .get(p)
                    .copied()
                    .flatten()
                    .map(|b| b.index() as i32)
                    .unwrap_or(NO_DRIVER)
            };
            // The first `len` ports of an n-ary block, appended to the
            // operand list; returns where they start.
            let mut list = |len: usize| -> u32 {
                let start = operands.len() as u32;
                operands.extend((0..len).map(port));
                start
            };

            let op = match &block.kind {
                BlockKind::Input { name } => match stim_index(name) {
                    Some(s) => CompiledOp::Input(s as u32),
                    None => {
                        return Err(SimError::MissingStimulus { name: name.clone() });
                    }
                },
                BlockKind::ControlInput { name } => {
                    let src = if let Some(s) = signal_index(name) {
                        CtlSrc::Signal(s as u32)
                    } else if let Some(s) = stim_index(name) {
                        CtlSrc::Stim(s as u32)
                    } else {
                        return Err(SimError::MissingStimulus { name: name.clone() });
                    };
                    CompiledOp::ControlInput(src)
                }
                BlockKind::Const { value } => CompiledOp::Const(*value),
                BlockKind::Scale { gain } => CompiledOp::Scale(*gain, port(0)),
                BlockKind::Add { arity } => CompiledOp::Add(list(*arity), *arity as u32),
                BlockKind::Sub => CompiledOp::Sub(port(0), port(1)),
                BlockKind::Mul => CompiledOp::Mul(port(0), port(1)),
                BlockKind::Div => CompiledOp::Div(port(0), port(1)),
                BlockKind::Integrate { gain, .. } => {
                    let driver = ports
                        .first()
                        .copied()
                        .flatten()
                        .expect("validated graph: integrator has a driver");
                    integrators.push((i as u32, driver.index() as u32, *gain));
                    CompiledOp::Integrate
                }
                BlockKind::Differentiate { gain } => {
                    discretes.push(DiscreteUpdate::PrevIn {
                        block: i as u32,
                        input: port(0),
                    });
                    CompiledOp::Differentiate(*gain, port(0))
                }
                BlockKind::Log => CompiledOp::Log(port(0)),
                BlockKind::Antilog => CompiledOp::Antilog(port(0)),
                BlockKind::Abs => CompiledOp::Abs(port(0)),
                BlockKind::SampleHold | BlockKind::Memory => {
                    discretes.push(DiscreteUpdate::Latch {
                        block: i as u32,
                        data: port(0),
                        clock: port(1),
                    });
                    CompiledOp::DiscreteState
                }
                BlockKind::SchmittTrigger { low, high } => {
                    discretes.push(DiscreteUpdate::Schmitt {
                        block: i as u32,
                        input: port(0),
                        low: *low,
                        high: *high,
                    });
                    CompiledOp::DiscreteState
                }
                BlockKind::Switch => CompiledOp::Switch(port(0), port(1)),
                BlockKind::Mux { arity } => CompiledOp::Mux(list(*arity + 1), *arity as u32),
                BlockKind::Comparator { threshold } => CompiledOp::Comparator(*threshold, port(0)),
                BlockKind::Adc { bits } => {
                    CompiledOp::Adc(5.0 / f64::from(1u32 << (*bits).min(24)), port(0))
                }
                BlockKind::Limiter { level } => CompiledOp::Limiter(*level, port(0)),
                BlockKind::OutputStage { limit, .. } => CompiledOp::OutputStage(*limit, port(0)),
                BlockKind::Output { .. } => CompiledOp::Output(port(0)),
                // `Not` reads its first port whatever the arity.
                BlockKind::Logic { op, arity } => {
                    CompiledOp::Logic(*op, list((*arity).max(1)), *arity as u32)
                }
            };
            ops.push(op);
        }
        let tape: Vec<Instr> = order
            .into_iter()
            .map(|out| Instr {
                out,
                op: ops[out as usize],
            })
            .collect();
        // A block varies within a step when it reads an integrator state
        // or a stimulus, or a block that varies.
        let mut varies = vec![false; n];
        for ins in &tape {
            varies[ins.out as usize] = match ins.op {
                CompiledOp::Integrate
                | CompiledOp::Input(_)
                | CompiledOp::ControlInput(CtlSrc::Stim(_)) => true,
                op => op
                    .reads(&operands)
                    .iter()
                    .any(|&d| d != NO_DRIVER && varies[d as usize]),
            };
        }
        // Walk the tape backwards from the integrators' drivers: a stage
        // evaluates the varying blocks they depend on and copies the
        // other blocks it reads.
        let mut read = vec![false; n];
        for &(_, driver, _) in &integrators {
            read[driver as usize] = true;
        }
        for ins in tape.iter().rev() {
            if read[ins.out as usize] && varies[ins.out as usize] {
                for d in ins.op.reads(&operands) {
                    if d != NO_DRIVER {
                        read[d as usize] = true;
                    }
                }
            }
        }
        let stage_tape = tape
            .iter()
            .copied()
            .filter(|ins| read[ins.out as usize] && varies[ins.out as usize])
            .collect();
        let stage_copies = (0..n as u32)
            .filter(|&b| read[b as usize] && !varies[b as usize])
            .collect();

        Ok(GraphPlan {
            graph,
            tape,
            stage_tape,
            stage_copies,
            operands,
            integrators,
            discretes,
            base,
        })
    }
}

impl MachinePlan {
    fn new(
        fsm: &Fsm,
        quantity_src: &dyn Fn(&str) -> ValueSrc,
        signal_index: &dyn Fn(&str) -> Option<usize>,
        stim_index: &dyn Fn(&str) -> Option<usize>,
    ) -> MachinePlan {
        // Deduplicate watched events by structural equality; the
        // interpreter's keyed map collapsed duplicates the same way.
        let mut unique: Vec<&Event> = Vec::new();
        for event in fsm.events() {
            if !unique.contains(&event) {
                unique.push(event);
            }
        }
        let compile_event = |event: &Event| -> CompiledEvent {
            match event {
                Event::Above {
                    quantity,
                    threshold,
                } => CompiledEvent::Above {
                    src: quantity_src(quantity),
                    threshold: *threshold,
                },
                Event::SignalChange { signal } => {
                    let src = if let Some(s) = signal_index(signal) {
                        CtlSrc::Signal(s as u32)
                    } else if let Some(s) = stim_index(signal) {
                        CtlSrc::Stim(s as u32)
                    } else {
                        CtlSrc::Zero
                    };
                    CompiledEvent::Change(src)
                }
            }
        };
        let events: Vec<CompiledEvent> = unique.iter().map(|e| compile_event(e)).collect();

        fn compile_dp(
            expr: &DpExpr,
            quantity_src: &dyn Fn(&str) -> ValueSrc,
            signal_index: &dyn Fn(&str) -> Option<usize>,
            compile_event: &dyn Fn(&Event) -> CompiledEvent,
        ) -> CompiledDp {
            match expr {
                DpExpr::Bit(b) => CompiledDp::Const(f64::from(*b)),
                DpExpr::Real(v) => CompiledDp::Const(*v),
                DpExpr::Signal(name) => match signal_index(name) {
                    Some(s) => CompiledDp::Signal(s as u32),
                    None => CompiledDp::Const(0.0),
                },
                DpExpr::Quantity(name) => CompiledDp::Quantity(quantity_src(name)),
                DpExpr::EventLevel(event) => CompiledDp::EventLevel(Box::new(compile_event(event))),
                DpExpr::Adc(inner) => CompiledDp::Adc(Box::new(compile_dp(
                    inner,
                    quantity_src,
                    signal_index,
                    compile_event,
                ))),
                DpExpr::Not(inner) => CompiledDp::Not(Box::new(compile_dp(
                    inner,
                    quantity_src,
                    signal_index,
                    compile_event,
                ))),
                DpExpr::Binary { op, lhs, rhs } => CompiledDp::Binary {
                    op: *op,
                    lhs: Box::new(compile_dp(lhs, quantity_src, signal_index, compile_event)),
                    rhs: Box::new(compile_dp(rhs, quantity_src, signal_index, compile_event)),
                },
            }
        }

        let states = (0..fsm.state_count())
            .map(|s| {
                let state = fsm.state(StateId::from_index(s));
                let ops = state
                    .ops
                    .iter()
                    .map(|op| {
                        let target =
                            signal_index(&op.target).expect("assigned signals are indexed") as u32;
                        let value =
                            compile_dp(&op.value, quantity_src, signal_index, &compile_event);
                        (target, value)
                    })
                    .collect();
                let transitions = fsm
                    .outgoing(StateId::from_index(s))
                    .map(|t| {
                        let trigger = match &t.trigger {
                            Trigger::Always => CompiledTrigger::Always,
                            Trigger::AnyEvent(_) => CompiledTrigger::AnyEvent,
                            Trigger::Guard(g) => CompiledTrigger::Guard(compile_dp(
                                g,
                                quantity_src,
                                signal_index,
                                &compile_event,
                            )),
                        };
                        (trigger, t.to)
                    })
                    .collect();
                CompiledState { ops, transitions }
            })
            .collect();

        MachinePlan {
            events,
            states,
            start: fsm.start(),
            walk_cap: 4 * fsm.state_count() + 4,
        }
    }
}
