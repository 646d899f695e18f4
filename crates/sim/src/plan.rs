//! The compiled plan of the behavioral (VHIF) engine.
//!
//! [`CompiledSim::new`] resolves every name of a [`VhifDesign`] once:
//! stimulus and FSM-signal names become dense indices, and every graph
//! lowers into one design-wide tape of one instruction per block, graph
//! after graph and each graph in topological order, over one
//! lane-strided slot array: every graph's block rows, then the zero row
//! that unconnected ports read. Integrators and held states (latches,
//! Schmitt triggers, differentiator inputs) get compact state indices,
//! as the netlist engine's do, and the plan borrows nothing from the
//! design. Graphs never read each other within a step: they meet only
//! through FSM signals, which hold for the whole step, so the one tape
//! computes the bits a tape per graph would.
//!
//! Per FSM, the plan holds deduplicated event tables and expression
//! trees with every name pre-resolved. A
//! [`BatchSession`](crate::BatchSession) owns the mutable state and
//! steps the plan on the shared lane machine ([`crate::lanes`]);
//! [`CompiledSim::run`] is a session of one lane.

use std::collections::BTreeMap;

use vase_vhif::block::LogicOp;
use vase_vhif::{
    BlockId, BlockKind, DpBinaryOp, DpExpr, Event, Fsm, SignalFlowGraph, StateId, Trigger,
    VhifDesign,
};

use crate::error::SimError;
use crate::fault::FaultInjection;
use crate::graph_sim::SimConfig;
use crate::lanes::{Held, Slot};
use crate::stimulus::Stimulus;
use crate::trace::SimResult;

/// A fully resolved simulation plan for one [`VhifDesign`].
///
/// Construction performs every name lookup a step would otherwise do
/// (stimulus names, FSM signal names, trace names, event identities)
/// and fails with the [`SimError`]s `simulate_design` reports. The plan
/// is immutable and `Sync`; start any number of
/// [`BatchSession`](crate::BatchSession)s from it.
pub struct CompiledSim {
    /// `(output slot, op)` per block, graph after graph, each graph in
    /// topological order.
    pub(crate) tape: Vec<(Slot, CompiledOp)>,
    /// The instructions an RK stage evaluation runs, in tape order: the
    /// blocks some integrator's driver depends on whose value can change
    /// within a step, because they read an integrator state or a
    /// stimulus. A stage reads nothing else of its evaluation.
    pub(crate) stage_tape: Vec<(Slot, CompiledOp)>,
    /// The blocks a stage reads that hold their start-of-step value
    /// through the step (they read only constants, FSM signals and
    /// held states): copied from the step's values, not evaluated.
    pub(crate) stage_copies: Vec<Slot>,
    /// Operand runs of the n-ary instructions (`Add`, `Mux`, `Logic`).
    pub(crate) operands: Vec<Slot>,
    /// Per integrator state: driver slot and gain.
    pub(crate) integrators: Vec<(Slot, f64)>,
    pub(crate) integ_init: Vec<f64>,
    pub(crate) held: Vec<Held>,
    /// Block count: the slot array holds these rows, then the zero row.
    pub(crate) blocks: usize,
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

/// A block operation with every name resolved to a dense index and
/// every operand to its driver's slot (the zero row when unconnected).
/// `Add`, `Mux` and `Logic` hold `(start, arity)` into the plan's
/// operand list; a `Mux` selector follows its `arity` data operands,
/// and a `Logic` list has at least one operand.
#[derive(Clone, Copy)]
pub(crate) enum CompiledOp {
    /// Analog input: stimulus index (checked present at compile time).
    Input(u32),
    /// Control input: FSM signal index, stimulus fallback, or zero.
    ControlInput(CtlSrc),
    Const(f64),
    Scale(f64, Slot),
    Add(u32, u32),
    Sub(Slot, Slot),
    Mul(Slot, Slot),
    Div(Slot, Slot),
    /// Integrator output = its state.
    Integrate(u32),
    /// `gain * (u - prev_in) / dt`, `prev_in` a held state.
    Differentiate(f64, Slot, u32),
    Log(Slot),
    Antilog(Slot),
    Abs(Slot),
    /// Sample/hold, memory, Schmitt trigger: emit the held state.
    Held(u32),
    /// Pass the data operand while the control operand is high.
    Switch(Slot, Slot),
    Mux(u32, u32),
    Comparator(f64, Slot),
    /// ADC with the LSB precomputed from the bit width.
    Adc(f64, Slot),
    Limiter(f64, Slot),
    OutputStage(Option<f64>, Slot),
    Output(Slot),
    Logic(LogicOp, u32, u32),
}

impl CompiledOp {
    /// The slots this operation reads.
    fn reads(&self, operands: &[Slot]) -> Vec<Slot> {
        use CompiledOp::*;
        let list = |at: u32, len: u32| operands[at as usize..(at + len) as usize].to_vec();
        match *self {
            Input(_) | ControlInput(_) | Const(_) | Integrate(_) | Held(_) => Vec::new(),
            Scale(_, a)
            | Differentiate(_, a, _)
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

impl CompiledSim {
    /// Compile `design` against the given stimuli and configuration.
    ///
    /// # Errors
    ///
    /// Exactly the construction-time errors of
    /// [`simulate_design`](crate::simulate_design):
    /// [`SimError::BadConfig`], [`SimError::AlgebraicLoop`], and
    /// [`SimError::MissingStimulus`].
    pub fn new(
        design: &VhifDesign,
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

        // The design-wide tape: block `b` of a graph whose rows start at
        // `base` is slot `base + b`.
        let mut bases = Vec::with_capacity(design.graphs.len());
        let mut blocks = 0;
        for graph in &design.graphs {
            bases.push(blocks);
            blocks += graph.len();
        }
        let zero = blocks as Slot;
        let mut tape = Vec::with_capacity(blocks);
        let mut operands = Vec::new();
        let mut integrators = Vec::new();
        let mut integ_init = Vec::new();
        let mut held = Vec::new();
        for (graph, &base) in design.graphs.iter().zip(&bases) {
            let order = graph.topo_order().map_err(|_| SimError::AlgebraicLoop)?;
            let slot = |id: BlockId| (base + id.index()) as Slot;
            let mut ops = Vec::with_capacity(graph.len());
            for (id, block) in graph.iter() {
                let ports = graph.block_inputs(id);
                let port = |p: usize| ports.get(p).copied().flatten().map_or(zero, slot);
                // The first `len` ports of an n-ary block, appended to the
                // operand list; returns where they start.
                let mut list = |len: usize| -> u32 {
                    let start = operands.len() as u32;
                    operands.extend((0..len).map(port));
                    start
                };
                let s = held.len() as u32;
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
                    BlockKind::Integrate { gain, initial } => {
                        let driver = ports
                            .first()
                            .copied()
                            .flatten()
                            .expect("validated graph: integrator has a driver");
                        integrators.push((slot(driver), *gain));
                        integ_init.push(*initial);
                        CompiledOp::Integrate(integ_init.len() as u32 - 1)
                    }
                    BlockKind::Differentiate { gain } => {
                        held.push(Held::PrevIn { input: port(0) });
                        CompiledOp::Differentiate(*gain, port(0), s)
                    }
                    BlockKind::Log => CompiledOp::Log(port(0)),
                    BlockKind::Antilog => CompiledOp::Antilog(port(0)),
                    BlockKind::Abs => CompiledOp::Abs(port(0)),
                    BlockKind::SampleHold | BlockKind::Memory => {
                        held.push(Held::Latch {
                            data: port(0),
                            clock: port(1),
                        });
                        CompiledOp::Held(s)
                    }
                    BlockKind::SchmittTrigger { low, high } => {
                        held.push(Held::Hysteresis {
                            input: port(0),
                            low: *low,
                            high: *high,
                        });
                        CompiledOp::Held(s)
                    }
                    BlockKind::Switch => CompiledOp::Switch(port(0), port(1)),
                    BlockKind::Mux { arity } => CompiledOp::Mux(list(*arity + 1), *arity as u32),
                    BlockKind::Comparator { threshold } => {
                        CompiledOp::Comparator(*threshold, port(0))
                    }
                    BlockKind::Adc { bits } => {
                        CompiledOp::Adc(5.0 / f64::from(1u32 << (*bits).min(24)), port(0))
                    }
                    BlockKind::Limiter { level } => CompiledOp::Limiter(*level, port(0)),
                    BlockKind::OutputStage { limit, .. } => {
                        CompiledOp::OutputStage(*limit, port(0))
                    }
                    BlockKind::Output { .. } => CompiledOp::Output(port(0)),
                    // `Not` reads its first port whatever the arity.
                    BlockKind::Logic { op, arity } => {
                        CompiledOp::Logic(*op, list((*arity).max(1)), *arity as u32)
                    }
                };
                ops.push(op);
            }
            tape.extend(order.into_iter().map(|id| (slot(id), ops[id.index()])));
        }
        let (stage_tape, stage_copies) = stage_plan(&tape, &operands, &integrators, blocks);

        // The slot of the first graph's block that `pick` finds.
        let find = |pick: &dyn Fn(&SignalFlowGraph) -> Option<BlockId>| {
            let mut graphs = design.graphs.iter().zip(&bases);
            graphs.find_map(|(g, base)| pick(g).map(|id| base + id.index()))
        };
        // Quantity resolution for FSMs: first graph with an interface
        // port or labelled block of that name, else stimulus, else 0.
        let quantity_src = |name: &str| -> ValueSrc {
            match find(&|g| g.find_interface(name).or_else(|| g.find_labelled(name))) {
                Some(slot) => ValueSrc::Value(slot),
                None => match stim_index(name) {
                    Some(s) => ValueSrc::Stim(s as u32),
                    None => ValueSrc::Zero,
                },
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
                let src = find(&|g| g.find_interface(&name))
                    .map(TraceSrc::Value)
                    .or_else(|| signal_index(&name).map(|s| TraceSrc::Signal(s as u32)))
                    .or_else(|| stim_index(&name).map(|s| TraceSrc::Stim(s as u32)))
                    .unwrap_or(TraceSrc::Zero);
                (name, src)
            })
            .collect();

        Ok(CompiledSim {
            tape,
            stage_tape,
            stage_copies,
            operands,
            integrators,
            integ_init,
            held,
            blocks,
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
}

/// The stage tape and stage copies of a design-wide `tape` (see
/// [`CompiledSim`]'s fields).
fn stage_plan(
    tape: &[(Slot, CompiledOp)],
    operands: &[Slot],
    integrators: &[(Slot, f64)],
    blocks: usize,
) -> (Vec<(Slot, CompiledOp)>, Vec<Slot>) {
    // A block varies within a step when it reads an integrator state
    // or a stimulus, or a block that varies; the zero row never does.
    let mut varies = vec![false; blocks + 1];
    for &(out, op) in tape {
        varies[out as usize] = match op {
            CompiledOp::Integrate(_)
            | CompiledOp::Input(_)
            | CompiledOp::ControlInput(CtlSrc::Stim(_)) => true,
            op => op.reads(operands).iter().any(|&d| varies[d as usize]),
        };
    }
    // Walk the tape backwards from the integrators' drivers: a stage
    // evaluates the varying blocks they depend on and copies the
    // other blocks it reads.
    let mut read = vec![false; blocks + 1];
    for &(driver, _) in integrators {
        read[driver as usize] = true;
    }
    for &(out, op) in tape.iter().rev() {
        if read[out as usize] && varies[out as usize] {
            for d in op.reads(operands) {
                read[d as usize] = true;
            }
        }
    }
    let stage_tape = tape
        .iter()
        .copied()
        .filter(|&(out, _)| read[out as usize] && varies[out as usize])
        .collect();
    let stage_copies = (0..blocks as Slot)
        .filter(|&b| read[b as usize] && !varies[b as usize])
        .collect();
    (stage_tape, stage_copies)
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
