//! Macromodel (netlist-level) transient simulation — the reproduction
//! of the paper's SPICE validation step (Section 6, Fig. 8).
//!
//! Each placed component is simulated with a first-order op-amp
//! macromodel: ideal transfer function plus output saturation at the
//! supply rails (±[`AMP_SATURATION`] V); output stages and limiters
//! additionally clip at their specified levels. Integrators integrate
//! with RK4; sample-and-holds, memories, Schmitt triggers and
//! zero-cross detectors carry discrete state with hysteresis.
//!
//! [`CompiledNetlist::new`] lowers the netlist once into a *tape*: one
//! instruction per component, in topological order, over a
//! lane-strided slot array (`slots[slot * lanes + lane]`) holding the
//! component outputs, then the stimuli, then the zero slot and the
//! other constants. Every operand slot, lane-parameter row and state
//! index is resolved at compile time, so a step does no name lookups
//! and no per-read dispatch on the source kind. Fixed-width kernels
//! (8, 4, 2 and 1 lanes) walk the tape over stack-copied rows, as the
//! behavioral lane kernels do ([`crate::batch`]), and each stimulus is
//! evaluated once per RK4 stage time and broadcast to its row. A
//! scalar run ([`CompiledNetlist::run`]) is the one-lane instance of
//! the same kernel with unit parameter factors, so each component's
//! transfer function is written once.

use std::collections::BTreeMap;

use vase_library::{ComponentKind, Netlist, SourceRef};

use crate::batch::MAX_LANES;
use crate::error::SimError;
use crate::fault::{FaultKind, SimFault};
use crate::graph_sim::SimConfig;
use crate::stimulus::Stimulus;
use crate::trace::SimResult;

/// Op-amp output saturation (supply rails minus headroom in the ±2.5 V
/// MOSIS design), volts.
pub const AMP_SATURATION: f64 = 2.2;

/// Simulate a netlist.
///
/// `stimuli` drives external nets by name; `bindings` routes component
/// outputs back to named external control nets (from
/// [`vase_archgen::SynthesisResult::control_bindings`]), closing the
/// event-driven loop. Recorded traces: every netlist output, every
/// bound control signal, and every stimulus.
///
/// # Errors
///
/// * [`SimError::MissingStimulus`] when an external net is neither
///   stimulated nor bound;
/// * [`SimError::AlgebraicLoop`] when components form a stateless
///   cycle;
/// * [`SimError::BadConfig`] when `dt` or `t_end` is not finite and
///   positive, when the window would record more than 2^27 values
///   (time axis and traces), or on a reference to a component the
///   netlist does not have.
pub fn simulate_netlist(
    netlist: &Netlist,
    stimuli: &BTreeMap<String, Stimulus>,
    bindings: &[(String, usize)],
    config: &SimConfig,
) -> Result<SimResult, SimError> {
    simulate_netlist_with_cancel(netlist, stimuli, bindings, config, None)
}

/// [`simulate_netlist`] with a cooperative cancellation token, for
/// deadline-bounded service jobs. A `None` token is bit-identical to
/// [`simulate_netlist`].
///
/// # Errors
///
/// Same as [`simulate_netlist`].
pub fn simulate_netlist_with_cancel(
    netlist: &Netlist,
    stimuli: &BTreeMap<String, Stimulus>,
    bindings: &[(String, usize)],
    config: &SimConfig,
    token: Option<&vase_budget::CancelToken>,
) -> Result<SimResult, SimError> {
    let plan = CompiledNetlist::new(netlist, stimuli, bindings, config)?;
    config.recorded_steps(plan.traces.len())?;
    Ok(plan.run_with_cancel(token))
}

/// Index of a row of the lane-strided slot array.
type Slot = u32;

/// One tape instruction: a component's transfer function with its
/// operand slots (`a`, `b`, ...), first lane-parameter row (`p`) and
/// state index (`s`) resolved. `ins` starts a run of the plan's
/// operand list; `last` is the highest selectable index, as the `f64`
/// the select clamps to.
#[derive(Clone, Copy)]
enum Op {
    /// `sat(p · a)`: inverting and non-inverting amplifiers.
    Gain {
        a: Slot,
        p: u32,
    },
    Follower {
        a: Slot,
    },
    /// `n` saturating stages `v ← sat(p_k · v)`.
    Chain {
        a: Slot,
        p: u32,
        n: u32,
    },
    /// `sat(Σ p_k · in_k)` over an operand run, in port order.
    Sum {
        ins: u32,
        n: u32,
        p: u32,
    },
    Difference {
        a: Slot,
        b: Slot,
        p: u32,
    },
    SwitchedGain {
        a: Slot,
        sel: Slot,
        p: u32,
        last: f64,
    },
    Integrator {
        s: u32,
    },
    /// Reads its previous input from held state `s`.
    Differentiator {
        a: Slot,
        p: u32,
        s: u32,
    },
    Log {
        a: Slot,
    },
    Antilog {
        a: Slot,
    },
    Multiply {
        a: Slot,
        b: Slot,
    },
    Divide {
        a: Slot,
        b: Slot,
    },
    Rectify {
        a: Slot,
    },
    Compare {
        a: Slot,
        threshold: f64,
    },
    /// Detector, Schmitt trigger, sample-and-hold or memory output.
    Held {
        s: u32,
    },
    Switch {
        a: Slot,
        ctl: Slot,
    },
    /// Reads operand `round(sel)` (clamped to `0..=last`) of the run.
    Mux {
        ins: u32,
        sel: Slot,
        last: f64,
    },
    Adc {
        a: Slot,
        lsb: f64,
    },
    Inverter {
        a: Slot,
    },
    Reference {
        p: u32,
    },
    Limit {
        a: Slot,
        p: u32,
    },
    OutputStage {
        a: Slot,
        limit: Option<f64>,
    },
}

/// End-of-step update of one held state (the state's index is the
/// update's position in the plan's list), read from the start-of-step
/// slots.
#[derive(Clone, Copy)]
enum HeldUpdate {
    Latch { data: Slot, clock: Slot },
    Hysteresis { input: Slot, low: f64, high: f64 },
    PrevIn { input: Slot },
}

/// A compiled netlist-simulation plan: the tape over the slot layout,
/// its operand runs, and the integrator and held-state lists.
///
/// Compile once with [`CompiledNetlist::new`], then [`run`]
/// (re-runnable; each run allocates only its buffers).
///
/// [`run`]: CompiledNetlist::run
pub struct CompiledNetlist<'n> {
    netlist: &'n Netlist,
    /// `(output slot, op)` per component, in evaluation order.
    tape: Vec<(Slot, Op)>,
    /// Operand runs of `Sum`, `Mux` and the integrator inputs.
    operands: Vec<Slot>,
    /// Per integrator state: operand run start, input count and first
    /// parameter row of its weighted input sum.
    integrators: Vec<(u32, u32, u32)>,
    integ_init: Vec<f64>,
    held: Vec<HeldUpdate>,
    /// Stimulus per slot after the component outputs (sorted by name).
    stims: Vec<Stimulus>,
    /// Constant slot values after the stimuli; the first is the zero
    /// slot that unconnected ports and unresolved traces read.
    consts: Vec<f64>,
    /// Trace name and source slot, in recording (name) order.
    traces: Vec<(String, Slot)>,
    /// Perturbable gain-like parameters, component by component in
    /// netlist order (see [`component_params`]). Threshold-type
    /// parameters (comparator/detector levels, hysteresis bands,
    /// output-stage limits) are deliberately absent: in the target
    /// process they are set by ratioed references rather than absolute
    /// RC products, so tolerance analysis treats them as exact.
    params: Vec<f64>,
    dt: f64,
    steps: usize,
}

/// The perturbable gain-like parameters of one component kind, in the
/// order the Monte Carlo param table flattens them.
fn component_params(kind: &ComponentKind) -> Vec<f64> {
    match kind {
        ComponentKind::InvertingAmp { gain }
        | ComponentKind::NonInvertingAmp { gain }
        | ComponentKind::DifferenceAmp { gain }
        | ComponentKind::Differentiator { gain } => vec![*gain],
        ComponentKind::AmplifierChain { stage_gains } => stage_gains.clone(),
        ComponentKind::SummingAmp { weights } => weights.clone(),
        ComponentKind::SwitchedGainAmp { gains } => gains.clone(),
        ComponentKind::Integrator { weights, .. } => weights.clone(),
        ComponentKind::VoltageRef { level } | ComponentKind::Limiter { level } => vec![*level],
        _ => Vec::new(),
    }
}

impl<'n> CompiledNetlist<'n> {
    /// Compile `netlist` against the given stimuli, bindings, and
    /// configuration; fails with the same errors [`simulate_netlist`]
    /// reports, except the bound on recorded values: a plan may drive
    /// a Monte Carlo run, which records no traces.
    ///
    /// # Errors
    ///
    /// See [`simulate_netlist`].
    pub fn new(
        netlist: &'n Netlist,
        stimuli: &BTreeMap<String, Stimulus>,
        bindings: &[(String, usize)],
        config: &SimConfig,
    ) -> Result<Self, SimError> {
        let steps = config.steps()?;
        let n = netlist.components.len();
        let out_of_range = |i: usize| SimError::BadConfig {
            what: format!("reference to component {i} of a {n}-component netlist"),
        };
        if let Some((_, i)) = bindings.iter().find(|(_, i)| *i >= n) {
            return Err(out_of_range(*i));
        }
        let stim_names: Vec<&String> = stimuli.keys().collect();
        let stims: Vec<Stimulus> = stimuli.values().copied().collect();
        let zero = (n + stims.len()) as Slot;
        let mut consts = vec![0.0];
        // External-net resolution: bindings shadow stimuli.
        let external = |name: &str| -> Option<Slot> {
            if let Some((_, i)) = bindings.iter().find(|(s, _)| s.as_str() == name) {
                return Some(*i as Slot);
            }
            stim_names
                .binary_search_by(|s| s.as_str().cmp(name))
                .ok()
                .map(|s| (n + s) as Slot)
        };
        let mut resolve = |source: &SourceRef| -> Result<Slot, SimError> {
            Ok(match source {
                SourceRef::Const(v) => {
                    let at = consts.iter().position(|c: &f64| c.to_bits() == v.to_bits());
                    let at = at.unwrap_or_else(|| {
                        consts.push(*v);
                        consts.len() - 1
                    });
                    zero + at as Slot
                }
                SourceRef::Component(i) if *i < n => *i as Slot,
                SourceRef::Component(i) => return Err(out_of_range(*i)),
                SourceRef::External(name) => external(name)
                    .ok_or_else(|| SimError::MissingStimulus { name: name.clone() })?,
            })
        };

        // Every input in netlist order first, so a missing stimulus is
        // reported before a loop.
        let mut input_offset = Vec::with_capacity(n + 1);
        let mut input_slots = Vec::new();
        let mut param_offset = Vec::with_capacity(n);
        let mut params = Vec::new();
        for c in &netlist.components {
            input_offset.push(input_slots.len());
            for input in &c.inputs {
                input_slots.push(resolve(input)?);
            }
            param_offset.push(params.len() as u32);
            params.extend(component_params(&c.kind));
        }
        input_offset.push(input_slots.len());
        let order = eval_order(netlist, bindings)?;

        // Trace sources, with the recording precedence: netlist
        // output, else binding, else stimulus.
        let mut names: Vec<String> = netlist.outputs.iter().map(|(n, _)| n.clone()).collect();
        names.extend(bindings.iter().map(|(s, _)| s.clone()));
        names.extend(stimuli.keys().cloned());
        names.sort();
        names.dedup();
        let mut traces = Vec::with_capacity(names.len());
        for name in names {
            let slot = match netlist.outputs.iter().find(|(n, _)| *n == name) {
                Some((_, source)) => match resolve(source) {
                    Err(SimError::MissingStimulus { .. }) => zero,
                    slot => slot?,
                },
                None => external(&name).unwrap_or(zero),
            };
            traces.push((name, slot));
        }

        let mut tape = Vec::with_capacity(n);
        let mut operands = Vec::new();
        let mut integrators = Vec::new();
        let mut integ_init = Vec::new();
        let mut held = Vec::new();
        for i in order {
            let kind = &netlist.components[i].kind;
            let ins = &input_slots[input_offset[i]..input_offset[i + 1]];
            let port = |q: usize| ins.get(q).copied().unwrap_or(zero);
            let mut run = |count: usize| {
                operands.extend((0..count).map(port));
                (operands.len() - count) as u32
            };
            let (a, p, s) = (port(0), param_offset[i], held.len() as u32);
            let op = match kind {
                ComponentKind::InvertingAmp { .. } | ComponentKind::NonInvertingAmp { .. } => {
                    Op::Gain { a, p }
                }
                ComponentKind::Follower => Op::Follower { a },
                ComponentKind::AmplifierChain { stage_gains } => {
                    let n = stage_gains.len() as u32;
                    Op::Chain { a, p, n }
                }
                ComponentKind::SummingAmp { weights } => {
                    let n = weights.len() as u32;
                    Op::Sum {
                        ins: run(weights.len()),
                        n,
                        p,
                    }
                }
                ComponentKind::DifferenceAmp { .. } => Op::Difference { a, b: port(1), p },
                ComponentKind::SwitchedGainAmp { gains } => {
                    let last = gains.len() as f64 - 1.0;
                    Op::SwitchedGain {
                        a,
                        sel: port(1),
                        p,
                        last,
                    }
                }
                ComponentKind::Integrator { weights, initial } => {
                    integrators.push((run(weights.len()), weights.len() as u32, p));
                    integ_init.push(*initial);
                    Op::Integrator {
                        s: integ_init.len() as u32 - 1,
                    }
                }
                ComponentKind::Differentiator { .. } => {
                    held.push(HeldUpdate::PrevIn { input: a });
                    Op::Differentiator { a, p, s }
                }
                ComponentKind::LogAmp => Op::Log { a },
                ComponentKind::AntilogAmp => Op::Antilog { a },
                ComponentKind::Multiplier => Op::Multiply { a, b: port(1) },
                ComponentKind::Divider => Op::Divide { a, b: port(1) },
                ComponentKind::PrecisionRectifier => Op::Rectify { a },
                ComponentKind::Comparator { threshold } => Op::Compare {
                    a,
                    threshold: *threshold,
                },
                ComponentKind::ZeroCrossDetector { level, hysteresis } => {
                    let (low, high) = (level - hysteresis, level + hysteresis);
                    held.push(HeldUpdate::Hysteresis {
                        input: a,
                        low,
                        high,
                    });
                    Op::Held { s }
                }
                ComponentKind::SchmittTrigger { low, high } => {
                    held.push(HeldUpdate::Hysteresis {
                        input: a,
                        low: *low,
                        high: *high,
                    });
                    Op::Held { s }
                }
                ComponentKind::SampleHold | ComponentKind::MemoryCell => {
                    held.push(HeldUpdate::Latch {
                        data: a,
                        clock: port(1),
                    });
                    Op::Held { s }
                }
                ComponentKind::AnalogSwitch => Op::Switch { a, ctl: port(1) },
                ComponentKind::AnalogMux { inputs } => Op::Mux {
                    ins: run(*inputs),
                    sel: port(*inputs),
                    last: *inputs as f64 - 1.0,
                },
                ComponentKind::Adc { bits } => Op::Adc {
                    a,
                    lsb: 5.0 / f64::from(1u32 << (*bits).min(24)),
                },
                ComponentKind::LogicGate => Op::Inverter { a }, // inverter model
                ComponentKind::VoltageRef { .. } => Op::Reference { p },
                ComponentKind::Limiter { .. } => Op::Limit { a, p },
                ComponentKind::OutputStage { limit, .. } => Op::OutputStage { a, limit: *limit },
            };
            tape.push((i as Slot, op));
        }

        Ok(CompiledNetlist {
            netlist,
            tape,
            operands,
            integrators,
            integ_init,
            held,
            stims,
            consts,
            traces,
            params,
            dt: config.dt,
            steps,
        })
    }

    /// Number of perturbable gain-like parameters (the Monte Carlo
    /// factor-vector length for [`CompiledNetlist::batch_session`]).
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// The nominal values of the perturbable parameters.
    pub fn param_values(&self) -> &[f64] {
        &self.params
    }

    /// Start a lane-batched run; lane `l` scales every perturbable
    /// parameter by `lane_factors[l]` (a factor of exactly `1.0`
    /// reproduces the scalar [`run`](CompiledNetlist::run) bit for bit:
    /// that run is this session at one lane with unit factors).
    ///
    /// # Panics
    ///
    /// Panics when `lane_factors` is empty or longer than
    /// [`MAX_LANES`], or when a factor vector's length differs from
    /// [`param_count`](CompiledNetlist::param_count).
    pub fn batch_session<'p>(&'p self, lane_factors: &[Vec<f64>]) -> BatchNetlistSession<'p, 'n> {
        let samples = self.steps + 1;
        let sink = Sink::Record {
            time: Vec::with_capacity(samples),
            traces: (0..self.traces.len() * lane_factors.len())
                .map(|_| Vec::with_capacity(samples))
                .collect(),
        };
        BatchNetlistSession::new(self, lane_factors, sink)
    }

    /// A session that keeps, instead of traces, one in-range flag per
    /// `(check, lane)`: check `c` holds while every sample of trace
    /// `checks[c].0` lies in `[checks[c].1, checks[c].2]`.
    pub(crate) fn scoring_session<'p>(
        &'p self,
        lane_factors: &[Vec<f64>],
        checks: Vec<(Slot, f64, f64)>,
    ) -> BatchNetlistSession<'p, 'n> {
        let in_range = vec![true; checks.len() * lane_factors.len()];
        BatchNetlistSession::new(self, lane_factors, Sink::Score { checks, in_range })
    }

    /// The slot trace `name` records, if it is recorded.
    pub(crate) fn trace_slot(&self, name: &str) -> Option<Slot> {
        let at = self.traces.binary_search_by(|(n, _)| n.as_str().cmp(name));
        at.ok().map(|i| self.traces[i].1)
    }

    /// Number of time steps a run takes (`steps + 1` samples).
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Run the transient simulation and collect the traces. Unlike
    /// [`simulate_netlist`], this does not check the window against the
    /// bound on recorded values.
    pub fn run(&self) -> SimResult {
        self.run_with_cancel(None)
    }

    /// [`run`](Self::run), checking a cooperative cancellation token
    /// every [`vase_budget::CHECK_STRIDE`] steps (including the first).
    /// A tripped token ends the run within one stride; the result
    /// carries the best-so-far partial trace flagged `cancelled`. A
    /// `None` token is bit-identical to [`run`](Self::run).
    pub fn run_with_cancel(&self, token: Option<&vase_budget::CancelToken>) -> SimResult {
        let mut session = self.batch_session(&[vec![1.0; self.params.len()]]);
        session.cancel = token.cloned();
        session.run();
        session.into_results().pop().unwrap_or_default()
    }

    /// Write every stimulus row of `slots` at time `t`: one evaluation
    /// per stimulus, broadcast across the lanes.
    fn fill_stimuli(&self, t: f64, stride: usize, slots: &mut [f64]) {
        let base = self.netlist.components.len() * stride;
        let rows = slots[base..].chunks_exact_mut(stride);
        for (row, stim) in rows.zip(&self.stims) {
            row.fill(stim.at(t));
        }
    }
}

/// What a session keeps of each recorded step.
enum Sink {
    /// Full traces: the shared time axis and
    /// `traces[trace * lanes + lane]`. A lane retired at step `k` owns
    /// the first `k` entries of the axis, every other lane all of it.
    Record {
        time: Vec<f64>,
        traces: Vec<Vec<f64>>,
    },
    /// Range checks `(slot, lo, hi)` folded into
    /// `in_range[check * lanes + lane]` as the run steps.
    Score {
        checks: Vec<(Slot, f64, f64)>,
        in_range: Vec<bool>,
    },
}

/// A lane-batched macromodel run: up to [`MAX_LANES`] parameter
/// variants of one [`CompiledNetlist`] advance in lockstep through the
/// tape kernels, each lane evaluating with its own perturbed copy of
/// the plan's gain-like parameters. This is the Monte Carlo /
/// tolerance-corner engine behind [`crate::monte_carlo_netlist`], and
/// at one lane the scalar [`CompiledNetlist::run`].
///
/// Fault isolation is a graceful abort per lane: a lane that produces
/// a non-finite component output or integrator state is retired with a
/// [`SimFault`] and keeps its samples so far as a partial trace; its
/// batchmates keep stepping. Lanes never exchange values, so a
/// poisoned lane cannot contaminate the rest of its batch.
pub struct BatchNetlistSession<'p, 'n> {
    plan: &'p CompiledNetlist<'n>,
    lanes: usize,
    step: usize,
    alive: usize,
    active: Vec<bool>,
    /// Perturbed parameter values, lane-strided: `params[p * lanes + l]`.
    params: Vec<f64>,
    /// Start-of-step slot values, and the RK4 stage scratch with the
    /// same layout (`slots[slot * lanes + lane]`).
    slots: Vec<f64>,
    stage_slots: Vec<f64>,
    /// Integrator states, RK4 stage states and the four stage slopes,
    /// lane-strided per integrator.
    integ: Vec<f64>,
    stage_integ: Vec<f64>,
    slopes: [Vec<f64>; 4],
    /// Held states (detector and latch outputs, differentiator
    /// previous inputs), lane-strided.
    held: Vec<f64>,
    /// Test/demo hook: force component 0 of `(lane, step)` to NaN.
    inject: Option<(usize, usize)>,
    /// Cooperative cancellation, checked every
    /// [`vase_budget::CHECK_STRIDE`] steps by [`run`](Self::run).
    cancel: Option<vase_budget::CancelToken>,
    /// Whether cancellation ended the run early (all lanes).
    cancelled: bool,
    faults: Vec<Option<SimFault>>,
    sink: Sink,
}

impl<'p, 'n> BatchNetlistSession<'p, 'n> {
    fn new(plan: &'p CompiledNetlist<'n>, lane_factors: &[Vec<f64>], sink: Sink) -> Self {
        let stride = lane_factors.len();
        assert!(
            (1..=MAX_LANES).contains(&stride),
            "batch width must be 1..={MAX_LANES}, got {stride}"
        );
        let mut params = vec![0.0; plan.params.len() * stride];
        for (l, factors) in lane_factors.iter().enumerate() {
            assert_eq!(
                factors.len(),
                plan.params.len(),
                "factor vector length must equal param_count()"
            );
            for (p, &factor) in factors.iter().enumerate() {
                params[p * stride + l] = plan.params[p] * factor;
            }
        }
        let fixed = plan.netlist.components.len() + plan.stims.len();
        let mut slots = vec![0.0; (fixed + plan.consts.len()) * stride];
        for (row, &v) in slots[fixed * stride..]
            .chunks_exact_mut(stride)
            .zip(&plan.consts)
        {
            row.fill(v);
        }
        let integ: Vec<f64> = plan
            .integ_init
            .iter()
            .flat_map(|&init| std::iter::repeat_n(init, stride))
            .collect();
        let k = vec![0.0; integ.len()];
        BatchNetlistSession {
            plan,
            lanes: stride,
            step: 0,
            alive: stride,
            active: vec![true; stride],
            params,
            stage_slots: slots.clone(),
            slots,
            stage_integ: k.clone(),
            slopes: [k.clone(), k.clone(), k.clone(), k],
            integ,
            held: vec![0.0; plan.held.len() * stride],
            inject: None,
            cancel: None,
            cancelled: false,
            faults: vec![None; stride],
            sink,
        }
    }

    /// The batch width.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Arrange for component 0 of `lane` to read NaN at `step` — the
    /// deterministic fault used to demonstrate per-lane isolation.
    pub fn inject_lane_fault(&mut self, lane: usize, step: usize) {
        self.inject = Some((lane, step));
    }

    /// The fault that retired lane `lane` early, if any.
    pub fn fault(&self, lane: usize) -> Option<&SimFault> {
        self.faults.get(lane).and_then(Option::as_ref)
    }

    /// Attach a cooperative cancellation token, checked by
    /// [`run`](Self::run) every [`vase_budget::CHECK_STRIDE`] steps
    /// (including the first); a tripped token stops the batch within
    /// one stride and every lane carries its best-so-far partial
    /// trace flagged `cancelled`.
    pub fn set_cancel_token(&mut self, token: vase_budget::CancelToken) {
        self.cancel = Some(token);
    }

    /// Run the whole transient window (or until every lane has died).
    pub fn run(&mut self) {
        let plan = self.plan;
        while self.step <= plan.steps && self.alive > 0 {
            if let Some(token) = &self.cancel {
                if (self.step as u64).is_multiple_of(vase_budget::CHECK_STRIDE)
                    && token.is_cancelled()
                {
                    self.cancelled = true;
                    return;
                }
            }
            let t = self.step as f64 * plan.dt;
            self.step_all(t);
            if let Some((lane, at)) = self.inject {
                if at == self.step
                    && lane < self.lanes
                    && self.active[lane]
                    && !plan.netlist.components.is_empty()
                {
                    self.slots[lane] = f64::NAN; // component 0, lane `lane`
                }
            }
            // A faulty sample is not recorded.
            self.retire_non_finite(t);
            if self.alive > 0 {
                self.keep(t);
            }
            self.step += 1;
        }
    }

    /// Finish into one [`SimResult`] per lane (lane order preserved).
    /// A scoring session keeps no traces and returns none.
    pub fn into_results(self) -> Vec<SimResult> {
        let Sink::Record {
            mut time,
            mut traces,
        } = self.sink
        else {
            return Vec::new();
        };
        let stride = self.lanes;
        (0..stride)
            .map(|l| {
                let samples = self.faults[l].map_or(time.len(), |f| f.step);
                let time = if l + 1 == stride {
                    time.truncate(samples);
                    std::mem::take(&mut time)
                } else {
                    time[..samples].to_vec()
                };
                let mut result = SimResult {
                    time,
                    fault: self.faults[l],
                    cancelled: self.cancelled,
                    ..SimResult::default()
                };
                for (ti, (name, _)) in self.plan.traces.iter().enumerate() {
                    let samples = std::mem::take(&mut traces[ti * stride + l]);
                    result.traces.insert(name.clone(), samples);
                }
                result
            })
            .collect()
    }

    /// Whether check `check` of a scoring session held over every
    /// sample lane `lane` recorded.
    pub(crate) fn in_range(&self, lane: usize, check: usize) -> bool {
        match &self.sink {
            Sink::Score { in_range, .. } => in_range[check * self.lanes + lane],
            Sink::Record { .. } => false,
        }
    }

    /// Record (or score) the start-of-step slots of every live lane.
    fn keep(&mut self, t: f64) {
        let stride = self.lanes;
        let row = |slot: Slot| &self.slots[slot as usize * stride..][..stride];
        match &mut self.sink {
            Sink::Record { time, traces } => {
                time.push(t);
                for (ti, &(_, slot)) in self.plan.traces.iter().enumerate() {
                    for (l, &v) in row(slot).iter().enumerate() {
                        if self.active[l] {
                            traces[ti * stride + l].push(v);
                        }
                    }
                }
            }
            Sink::Score { checks, in_range } => {
                for (&(slot, lo, hi), ok) in checks.iter().zip(in_range.chunks_exact_mut(stride)) {
                    for (ok, &v) in ok.iter_mut().zip(row(slot)) {
                        *ok &= v >= lo && v <= hi;
                    }
                }
            }
        }
    }

    /// Retire every live lane whose component outputs or integrator
    /// states went non-finite this step: one pass over all lanes, and
    /// per-lane work only on a hit.
    fn retire_non_finite(&mut self, t: f64) {
        let stride = self.lanes;
        let outputs = &self.slots[..self.plan.netlist.components.len() * stride];
        let finite = |ok: bool, v: &f64| ok & v.is_finite();
        if outputs.iter().fold(true, finite) && self.integ.iter().fold(true, finite) {
            return;
        }
        let mut bad = [false; MAX_LANES];
        for (k, v) in outputs.iter().chain(&self.integ).enumerate() {
            bad[k % stride] |= !v.is_finite();
        }
        for (l, &hit) in bad[..stride].iter().enumerate() {
            if !(hit && self.active[l]) {
                continue;
            }
            self.faults[l] = Some(SimFault {
                step: self.step,
                time: t,
                kind: FaultKind::NonFinite,
                retries: 0,
            });
            self.active[l] = false;
            self.alive -= 1;
            let n = self.plan.netlist.components.len();
            for buf in [
                &mut self.slots[..n * stride],
                &mut self.integ[..],
                &mut self.held[..],
            ] {
                buf.iter_mut()
                    .skip(l)
                    .step_by(stride)
                    .for_each(|v| *v = 0.0);
            }
        }
    }

    /// One lockstep transient step at `t`: evaluate the tape into the
    /// start-of-step slots, RK4 the integrator states, then apply the
    /// held-state updates from the start-of-step slots.
    fn step_all(&mut self, t: f64) {
        let plan = self.plan;
        let stride = self.lanes;
        let dt = plan.dt;
        let [k1, k2, k3, k4] = &mut self.slopes;
        let tape = Tape {
            plan,
            stride,
            params: &self.params,
            held: &self.held,
        };
        plan.fill_stimuli(t, stride, &mut self.slots);
        tape.eval(&self.integ, &mut self.slots, k1);

        if !plan.integrators.is_empty() {
            let integ = &self.integ;
            let shift = |k: &[f64], h: f64, out: &mut [f64]| {
                for ((o, &y), &k) in out.iter_mut().zip(integ).zip(k) {
                    *o = y + h * k;
                }
            };
            shift(k1, dt / 2.0, &mut self.stage_integ);
            plan.fill_stimuli(t + dt / 2.0, stride, &mut self.stage_slots);
            tape.eval(&self.stage_integ, &mut self.stage_slots, k2);
            // The second midpoint stage reuses the first one's stimulus
            // rows.
            shift(k2, dt / 2.0, &mut self.stage_integ);
            tape.eval(&self.stage_integ, &mut self.stage_slots, k3);
            shift(k3, dt, &mut self.stage_integ);
            plan.fill_stimuli(t + dt, stride, &mut self.stage_slots);
            tape.eval(&self.stage_integ, &mut self.stage_slots, k4);
            let h = dt / 6.0;
            for (j, y) in self.integ.iter_mut().enumerate() {
                *y = (*y + h * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]))
                    .clamp(-AMP_SATURATION, AMP_SATURATION);
            }
        }

        let row = |slot: Slot| &self.slots[slot as usize * stride..][..stride];
        for (update, state) in plan.held.iter().zip(self.held.chunks_exact_mut(stride)) {
            match *update {
                HeldUpdate::Latch { data, clock } => {
                    for ((s, &c), &d) in state.iter_mut().zip(row(clock)).zip(row(data)) {
                        if c > 0.5 {
                            *s = d;
                        }
                    }
                }
                HeldUpdate::Hysteresis { input, low, high } => {
                    for (s, &u) in state.iter_mut().zip(row(input)) {
                        if u > high {
                            *s = 1.0;
                        } else if u < low {
                            *s = 0.0;
                        }
                    }
                }
                HeldUpdate::PrevIn { input } => state.copy_from_slice(row(input)),
            }
        }
    }
}

/// The inputs a step's tape evaluations share: the plan, the batch
/// width, the lane parameter table and the held states.
struct Tape<'a, 'n> {
    plan: &'a CompiledNetlist<'n>,
    stride: usize,
    params: &'a [f64],
    held: &'a [f64],
}

impl Tape<'_, '_> {
    /// Evaluate every component output into `slots` and every
    /// integrator's input slope into `k`, for all lanes, with integrator
    /// (or RK4 stage) states `integ`, through the fixed-width kernels.
    /// Lanes are independent, so any partition of the batch computes
    /// identical bits; the fixed widths exist so the lane loops compile
    /// to straight-line SIMD.
    fn eval(&self, integ: &[f64], slots: &mut [f64], k: &mut [f64]) {
        let mut l0 = 0;
        while l0 < self.stride {
            l0 += match self.stride - l0 {
                w if w >= 8 => self.eval_w::<8>(l0, integ, slots, k),
                w if w >= 4 => self.eval_w::<4>(l0, integ, slots, k),
                w if w >= 2 => self.eval_w::<2>(l0, integ, slots, k),
                _ => self.eval_w::<1>(l0, integ, slots, k),
            };
        }
    }

    /// Lanes `[l0, l0 + W)` of [`Tape::eval`]; returns `W`.
    fn eval_w<const W: usize>(
        &self,
        l0: usize,
        integ: &[f64],
        slots: &mut [f64],
        k: &mut [f64],
    ) -> usize {
        let (plan, stride, dt) = (self.plan, self.stride, self.plan.dt);
        let sat = |v: f64| v.clamp(-AMP_SATURATION, AMP_SATURATION);
        for &(out, op) in &plan.tape {
            let row = |s: Slot| lane_row::<W>(slots, s, stride, l0);
            let prm = |p: u32| lane_row::<W>(self.params, p, stride, l0);
            let mut v = [0.0; W];
            match op {
                Op::Gain { a, p } => {
                    let (a, p) = (row(a), prm(p));
                    for l in 0..W {
                        v[l] = sat(p[l] * a[l]);
                    }
                }
                Op::Follower { a } => {
                    let a = row(a);
                    for l in 0..W {
                        v[l] = sat(a[l]);
                    }
                }
                Op::Chain { a, p, n } => {
                    v = row(a);
                    for p in p..p + n {
                        let g = prm(p);
                        for l in 0..W {
                            v[l] = sat(g[l] * v[l]);
                        }
                    }
                }
                Op::Sum { ins, n, p } => {
                    v = self.weighted_sum::<W>(ins, n, p, slots, l0);
                    for x in &mut v {
                        *x = sat(*x);
                    }
                }
                Op::Difference { a, b, p } => {
                    let (a, b, p) = (row(a), row(b), prm(p));
                    for l in 0..W {
                        v[l] = sat(p[l] * (a[l] - b[l]));
                    }
                }
                Op::SwitchedGain { a, sel, p, last } => {
                    let (a, sel) = (row(a), row(sel));
                    for l in 0..W {
                        let g = p as usize + sel[l].round().clamp(0.0, last) as usize;
                        v[l] = sat(self.params[g * stride + l0 + l] * a[l]);
                    }
                }
                Op::Integrator { s } => {
                    let y = lane_row::<W>(integ, s, stride, l0);
                    for l in 0..W {
                        v[l] = sat(y[l]);
                    }
                }
                Op::Differentiator { a, p, s } => {
                    let (a, p) = (row(a), prm(p));
                    let prev = lane_row::<W>(self.held, s, stride, l0);
                    for l in 0..W {
                        v[l] = sat(p[l] * (a[l] - prev[l]) / dt);
                    }
                }
                Op::Log { a } => {
                    let a = row(a);
                    for l in 0..W {
                        v[l] = sat(crate::math::ln(a[l].max(1e-12)));
                    }
                }
                Op::Antilog { a } => {
                    let a = row(a);
                    for l in 0..W {
                        v[l] = sat(crate::math::exp(a[l].clamp(-50.0, 50.0)));
                    }
                }
                Op::Multiply { a, b } => {
                    let (a, b) = (row(a), row(b));
                    for l in 0..W {
                        v[l] = sat(a[l] * b[l]);
                    }
                }
                Op::Divide { a, b } => {
                    let (a, b) = (row(a), row(b));
                    for l in 0..W {
                        let d = b[l];
                        v[l] = sat(a[l]
                            / if d.abs() < 1e-6 {
                                1e-6_f64.copysign(d + 1e-30)
                            } else {
                                d
                            });
                    }
                }
                Op::Rectify { a } => {
                    let a = row(a);
                    for l in 0..W {
                        v[l] = sat(a[l].abs());
                    }
                }
                Op::Compare { a, threshold } => {
                    let a = row(a);
                    for l in 0..W {
                        v[l] = f64::from(a[l] > threshold);
                    }
                }
                Op::Held { s } => v = lane_row::<W>(self.held, s, stride, l0),
                Op::Switch { a, ctl } => {
                    let (a, ctl) = (row(a), row(ctl));
                    for l in 0..W {
                        v[l] = if ctl[l] > 0.5 { a[l] } else { 0.0 };
                    }
                }
                Op::Mux { ins, sel, last } => {
                    let sel = row(sel);
                    for l in 0..W {
                        let port = ins as usize + sel[l].round().clamp(0.0, last) as usize;
                        v[l] = slots[plan.operands[port] as usize * stride + l0 + l];
                    }
                }
                Op::Adc { a, lsb } => {
                    let a = row(a);
                    for l in 0..W {
                        v[l] = (a[l] / lsb).round() * lsb;
                    }
                }
                Op::Inverter { a } => {
                    let a = row(a);
                    for l in 0..W {
                        v[l] = f64::from(a[l] <= 0.5);
                    }
                }
                Op::Reference { p } => v = prm(p),
                Op::Limit { a, p } => {
                    let (a, p) = (row(a), prm(p));
                    for l in 0..W {
                        v[l] = a[l].clamp(-p[l], p[l]);
                    }
                }
                Op::OutputStage { a, limit } => {
                    let a = row(a);
                    for l in 0..W {
                        v[l] = sat(a[l]);
                        if let Some(lim) = limit {
                            v[l] = v[l].clamp(-lim, lim);
                        }
                    }
                }
            }
            let ob = out as usize * stride + l0;
            slots[ob..ob + W].copy_from_slice(&v);
        }
        for (j, &(ins, n, p)) in plan.integrators.iter().enumerate() {
            let kb = j * stride + l0;
            k[kb..kb + W].copy_from_slice(&self.weighted_sum::<W>(ins, n, p, slots, l0));
        }
        W
    }

    /// `Σ p_k · in_k` over the operand run `ins .. ins + n` with
    /// parameter rows `p ..`, folded in port order from `-0.0` (the
    /// neutral element `Iterator::sum` starts from, so an all-`-0.0`
    /// sum keeps its sign).
    #[inline(always)]
    fn weighted_sum<const W: usize>(
        &self,
        ins: u32,
        n: u32,
        p: u32,
        slots: &[f64],
        l0: usize,
    ) -> [f64; W] {
        let run = &self.plan.operands[ins as usize..(ins + n) as usize];
        let mut acc = [-0.0; W];
        for (&slot, p) in run.iter().zip(p..) {
            let a = lane_row::<W>(slots, slot, self.stride, l0);
            let w = lane_row::<W>(self.params, p, self.stride, l0);
            for l in 0..W {
                acc[l] += w[l] * a[l];
            }
        }
        acc
    }
}

/// Copy lanes `l0 .. l0 + W` of row `slot` into a stack array. The
/// local copy breaks the read/write aliasing on the slot array that
/// would otherwise keep the fixed-width lane loops from vectorizing.
#[inline(always)]
fn lane_row<const W: usize>(buf: &[f64], slot: u32, stride: usize, l0: usize) -> [f64; W] {
    let b = slot as usize * stride + l0;
    let mut r = [0.0; W];
    r.copy_from_slice(&buf[b..b + W]);
    r
}

/// Topological order over component dependencies (including
/// binding-routed control nets), treating stateful components as cycle
/// breakers.
fn eval_order(netlist: &Netlist, bindings: &[(String, usize)]) -> Result<Vec<usize>, SimError> {
    let n = netlist.components.len();
    let stateful = |k: &ComponentKind| {
        matches!(
            k,
            ComponentKind::Integrator { .. }
                | ComponentKind::SampleHold
                | ComponentKind::MemoryCell
                | ComponentKind::SchmittTrigger { .. }
                | ComponentKind::ZeroCrossDetector { .. }
        )
    };
    let mut indegree = vec![0usize; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, c) in netlist.components.iter().enumerate() {
        if stateful(&c.kind) {
            continue;
        }
        for input in &c.inputs {
            let driver = match input {
                SourceRef::Component(j) => Some(*j),
                SourceRef::External(name) => {
                    bindings.iter().find(|(s, _)| s == name).map(|(_, j)| *j)
                }
                SourceRef::Const(_) => None,
            };
            if let Some(j) = driver {
                adj[j].push(i);
                indegree[i] += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop() {
        order.push(v);
        for &w in &adj[v] {
            indegree[w] -= 1;
            if indegree[w] == 0 {
                queue.push(w);
            }
        }
    }
    if order.len() != n {
        return Err(SimError::AlgebraicLoop);
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vase_library::PlacedComponent;

    fn stim(entries: &[(&str, Stimulus)]) -> BTreeMap<String, Stimulus> {
        entries.iter().map(|(n, s)| (n.to_string(), *s)).collect()
    }

    fn place(kind: ComponentKind, inputs: Vec<SourceRef>) -> PlacedComponent {
        PlacedComponent {
            kind,
            inputs,
            implements: vec![],
            label: "c".into(),
        }
    }

    #[test]
    fn inverting_amp_inverts_and_saturates() {
        let mut n = Netlist::new();
        n.push(place(
            ComponentKind::InvertingAmp { gain: -10.0 },
            vec![SourceRef::External("x".into())],
        ));
        n.outputs.push(("y".into(), SourceRef::Component(0)));
        let r = simulate_netlist(
            &n,
            &stim(&[("x", Stimulus::sine(1.0, 100.0))]),
            &[],
            &SimConfig::new(1e-5, 0.02),
        )
        .expect("simulates");
        let (lo, hi) = r.range("y").expect("range");
        // Saturates at the rails, not ±10.
        assert!((hi - AMP_SATURATION).abs() < 1e-6, "hi = {hi}");
        assert!((lo + AMP_SATURATION).abs() < 1e-6, "lo = {lo}");
    }

    #[test]
    fn output_stage_clips_at_its_limit() {
        // The Fig. 8 shape: the stage clips at 1.5 V, inside the rails.
        let mut n = Netlist::new();
        n.push(place(
            ComponentKind::SummingAmp { weights: vec![4.0] },
            vec![SourceRef::External("x".into())],
        ));
        n.push(place(
            ComponentKind::OutputStage {
                load_ohms: 270.0,
                peak_volts: 0.285,
                limit: Some(1.5),
            },
            vec![SourceRef::Component(0)],
        ));
        n.outputs.push(("y".into(), SourceRef::Component(1)));
        let r = simulate_netlist(
            &n,
            &stim(&[("x", Stimulus::sine(0.5, 1e3))]),
            &[],
            &SimConfig::new(1e-6, 4e-3),
        )
        .expect("simulates");
        let (lo, hi) = r.range("y").expect("range");
        assert!((hi - 1.5).abs() < 1e-9, "hi = {hi}");
        assert!((lo + 1.5).abs() < 1e-9, "lo = {lo}");
        assert!(r.fraction_at_level("y", 1.5, 1e-6) > 0.1);
    }

    #[test]
    fn integrator_component_integrates() {
        // y = ∫ 1 dt → ramp.
        let mut n = Netlist::new();
        n.push(place(
            ComponentKind::Integrator {
                weights: vec![1.0],
                initial: 0.0,
            },
            vec![SourceRef::External("u".into())],
        ));
        n.outputs.push(("y".into(), SourceRef::Component(0)));
        let r = simulate_netlist(
            &n,
            &stim(&[("u", Stimulus::Constant { level: 1.0 })]),
            &[],
            &SimConfig::new(1e-4, 1.0),
        )
        .expect("simulates");
        let y = r.trace("y").expect("trace");
        // Ramps to ~1.0 then the model saturates past the rails (not here).
        assert!((y.last().unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn control_binding_closes_loop() {
        // A zero-cross detector output drives a switched-gain amp's
        // select through the "c1" binding.
        let mut n = Netlist::new();
        let zcd = n.push(place(
            ComponentKind::ZeroCrossDetector {
                level: 0.0,
                hysteresis: 0.01,
            },
            vec![SourceRef::External("line".into())],
        ));
        n.push(place(
            ComponentKind::SwitchedGainAmp {
                gains: vec![1.0, 2.0],
            },
            vec![
                SourceRef::External("line".into()),
                SourceRef::External("c1".into()),
            ],
        ));
        n.outputs.push(("y".into(), SourceRef::Component(1)));
        let bindings = vec![("c1".to_owned(), zcd)];
        let r = simulate_netlist(
            &n,
            &stim(&[("line", Stimulus::sine(1.0, 100.0))]),
            &bindings,
            &SimConfig::new(1e-5, 0.02),
        )
        .expect("simulates");
        let y = r.trace("y").expect("trace");
        let line: Vec<f64> = r
            .time
            .iter()
            .map(|&t| Stimulus::sine(1.0, 100.0).at(t))
            .collect();
        // Positive half-waves get gain 2, negative gain 1.
        let mut saw_double = false;
        let mut saw_single = false;
        for (i, (&yv, &lv)) in y.iter().zip(&line).enumerate() {
            if i < 10 {
                continue;
            }
            if lv > 0.1 && (yv - 2.0 * lv).abs() < 0.05 {
                saw_double = true;
            }
            if lv < -0.1 && (yv - lv).abs() < 0.05 {
                saw_single = true;
            }
        }
        assert!(saw_double, "positive half should be amplified ×2");
        assert!(saw_single, "negative half should pass ×1");
    }

    #[test]
    fn missing_external_reported() {
        let mut n = Netlist::new();
        n.push(place(
            ComponentKind::Follower,
            vec![SourceRef::External("ghost".into())],
        ));
        let err = simulate_netlist(&n, &BTreeMap::new(), &[], &SimConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::MissingStimulus { name } if name == "ghost"));
    }

    #[test]
    fn out_of_range_component_reference_is_a_config_error() {
        let follower = |input| {
            let mut n = Netlist::new();
            n.push(place(ComponentKind::Follower, vec![input]));
            n
        };
        let bad_input = follower(SourceRef::Component(3));
        let mut bad_output = follower(SourceRef::Const(1.0));
        bad_output
            .outputs
            .push(("y".into(), SourceRef::Component(1)));
        let ok = follower(SourceRef::Const(1.0));
        for (n, bindings) in [
            (&bad_input, vec![]),
            (&bad_output, vec![]),
            (&ok, vec![("c".to_owned(), 1)]),
        ] {
            let err = simulate_netlist(n, &BTreeMap::new(), &bindings, &SimConfig::default())
                .unwrap_err();
            assert!(matches!(err, SimError::BadConfig { .. }), "{err:?}");
        }
    }

    #[test]
    fn only_recording_runs_are_bounded_by_the_recorded_window() {
        let mut n = Netlist::new();
        n.push(place(ComponentKind::Follower, vec![SourceRef::Const(1.0)]));
        n.outputs.push(("y".into(), SourceRef::Component(0)));
        let none = BTreeMap::new();
        // 2·10^8 steps are too many to record, but a Monte Carlo run
        // over the plan keeps no traces, so the plan compiles.
        let long = SimConfig::new(1e-8, 2.0);
        assert!(CompiledNetlist::new(&n, &none, &[], &long).is_ok());
        let err = simulate_netlist(&n, &none, &[], &long).unwrap_err();
        assert!(matches!(err, SimError::BadConfig { .. }), "{err:?}");
        for (dt, t_end) in [
            (0.0, 1.0),
            (f64::NAN, 1.0),
            (1e-5, f64::INFINITY),
            (1e-300, 1e300),
        ] {
            let err = CompiledNetlist::new(&n, &none, &[], &SimConfig::new(dt, t_end)).err();
            assert!(
                matches!(err, Some(SimError::BadConfig { .. })),
                "{dt} {t_end}"
            );
        }
    }

    #[test]
    fn stateless_cycle_detected() {
        let mut n = Netlist::new();
        n.push(place(
            ComponentKind::Follower,
            vec![SourceRef::Component(1)],
        ));
        n.push(place(
            ComponentKind::Follower,
            vec![SourceRef::Component(0)],
        ));
        let err = simulate_netlist(&n, &BTreeMap::new(), &[], &SimConfig::default()).unwrap_err();
        assert_eq!(err, SimError::AlgebraicLoop);
    }

    #[test]
    fn integrator_feedback_cycle_is_fine() {
        // Integrator fed by -1 × its own output: exponential decay.
        let mut n = Netlist::new();
        n.push(place(
            ComponentKind::Integrator {
                weights: vec![-1.0],
                initial: 1.0,
            },
            vec![SourceRef::Component(0)],
        ));
        n.outputs.push(("x".into(), SourceRef::Component(0)));
        let r = simulate_netlist(&n, &BTreeMap::new(), &[], &SimConfig::new(1e-3, 1.0))
            .expect("simulates");
        let x = r.trace("x").expect("trace");
        assert!((x.last().unwrap() - (-1.0_f64).exp()).abs() < 1e-3);
    }

    #[test]
    fn weighted_sums_keep_the_sign_of_an_all_negative_zero_sum() {
        // -1 · 0.0 = -0.0 in every port: folded from -0.0, as
        // `Iterator::sum` folds, the sum stays -0.0 (from +0.0 it would
        // read +0.0), in the scalar run and in every lane.
        let mut n = Netlist::new();
        n.push(place(
            ComponentKind::SummingAmp {
                weights: vec![-1.0, -2.0],
            },
            vec![SourceRef::External("x".into()), SourceRef::Const(0.0)],
        ));
        n.outputs.push(("y".into(), SourceRef::Component(0)));
        let plan = CompiledNetlist::new(
            &n,
            &stim(&[("x", Stimulus::Constant { level: 0.0 })]),
            &[],
            &SimConfig::new(1e-3, 0.01),
        )
        .expect("compiles");
        let factors = vec![vec![1.0; plan.param_count()]; 3];
        let mut batch = plan.batch_session(&factors);
        batch.run();
        for result in batch.into_results().into_iter().chain([plan.run()]) {
            let y = result.trace("y").expect("trace");
            assert!(
                y.iter().all(|v| v.to_bits() == (-0.0_f64).to_bits()),
                "{y:?}"
            );
        }
    }

    #[test]
    fn a_faulted_lane_keeps_its_prefix_and_spares_its_batchmates() {
        let mut n = Netlist::new();
        n.push(place(
            ComponentKind::Integrator {
                weights: vec![-50.0],
                initial: 1.0,
            },
            vec![SourceRef::Component(0)],
        ));
        n.outputs.push(("x".into(), SourceRef::Component(0)));
        let plan = CompiledNetlist::new(
            &n,
            &stim(&[("u", Stimulus::sine(1.0, 50.0))]),
            &[],
            &SimConfig::new(1e-3, 0.05),
        )
        .expect("compiles");
        let nominal = plan.run();
        let mut batch = plan.batch_session(&vec![vec![1.0; plan.param_count()]; 3]);
        batch.inject_lane_fault(1, 5);
        batch.run();
        let fault = *batch.fault(1).expect("lane 1 retires");
        assert_eq!((fault.step, fault.kind), (5, FaultKind::NonFinite));
        let results = batch.into_results();
        assert_eq!(results[0], nominal);
        assert_eq!(results[2], nominal);
        let partial = &results[1];
        assert_eq!(partial.fault, Some(fault));
        assert_eq!(partial.time, nominal.time[..5]);
        for (name, samples) in &partial.traces {
            assert_eq!(samples[..], nominal.traces[name][..5], "{name}");
        }
    }

    #[test]
    fn compiled_netlist_runs_are_deterministic() {
        let mut n = Netlist::new();
        n.push(place(
            ComponentKind::Integrator {
                weights: vec![-1.0],
                initial: 1.0,
            },
            vec![SourceRef::Component(0)],
        ));
        n.outputs.push(("x".into(), SourceRef::Component(0)));
        let plan = CompiledNetlist::new(&n, &BTreeMap::new(), &[], &SimConfig::new(1e-3, 0.1))
            .expect("compiles");
        assert_eq!(plan.run(), plan.run());
    }
}
