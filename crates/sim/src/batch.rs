//! The behavioral (VHIF) simulation engine: lane-batched, fixed-step
//! RK4 stepping with FSM co-simulation, fault recovery and cancellation.
//! It is the one behavioral integrator: `tests/simulation.rs`,
//! `tests/behavioral_traces.rs` and `crates/bench/tests/opt_oracle.rs`
//! compare against its fixed grid, as the paper checks its netlists
//! with fixed-step SPICE transients (Fig. 8).
//!
//! A [`BatchSession`] advances up to [`MAX_LANES`] *lanes* — independent
//! parameter variants of one compiled plan — in lockstep through the
//! same step schedule. Every per-signal buffer is stored
//! structure-of-arrays with the lane index innermost
//! (`buf[block * lanes + lane]`), so the per-block dispatch of the
//! compiled interpreter is paid once per block per step and the inner
//! lane loops are flat chunked f64 arithmetic the compiler can
//! autovectorize. A single run ([`CompiledSim::run`], and through it
//! [`simulate_design`](crate::simulate_design)) is a one-lane batch;
//! batches of 1, 4 and 8 lanes step with their width known at compile
//! time.
//!
//! Contracts, asserted by `crates/sim/tests/lane_equivalence.rs` and
//! pinned by `tests/behavioral_traces.rs`:
//!
//! * **Bit identity** — every lane executes the floating-point
//!   operation sequence of a one-lane run of its own stimuli and step
//!   size, so lane results are bit-identical regardless of batch width
//!   or packing.
//! * **Per-lane time axes** — each lane carries its own `dt` (and
//!   stimulus vector), which is what lets a frequency sweep share one
//!   batch: every sweep point runs the same *number* of steps, only the
//!   step size and the driving sine differ (see [`crate::response`]).
//! * **Per-lane fault isolation** — the fault detector scans each lane
//!   separately; a faulty lane is rolled back and re-integrated alone
//!   with `2^k` halved substeps, and an
//!   unrecoverable lane is deactivated with a [`SimFault`] and a partial
//!   trace while the rest of the batch keeps stepping. Dead lanes have
//!   their state zeroed so the lockstep kernel never branches per lane
//!   on the hot path.

use std::collections::BTreeMap;

use vase_vhif::block::LogicOp;
use vase_vhif::BlockKind;

use crate::fault::{FaultKind, SimFault, SplitMix64};
use crate::plan::{
    CompiledDp, CompiledEvent, CompiledOp, CompiledSim, CompiledTrigger, CtlSrc, DiscreteUpdate,
    GraphPlan, Instr, TraceSrc, ValueSrc, NO_DRIVER,
};
use crate::stimulus::Stimulus;
use crate::trace::SimResult;

/// Maximum lanes per behavioral batch. Eight f64 lanes fill two AVX2
/// (or one AVX-512) vector register per block and keep the strided
/// working set cache-friendly; wider behavioral batches gain little on
/// one core. The netlist engine has its own cap,
/// [`MAX_NETLIST_LANES`](crate::MAX_NETLIST_LANES) = 64: it walks a wide
/// batch op-major, so a Monte Carlo batch pays its tape's dispatch once
/// per RK4 stage (EXPERIMENTS.md §21).
pub const MAX_LANES: usize = 8;

/// One lane of a batch: a stimulus vector (same layout as
/// [`CompiledSim::stimuli`]) plus the lane's step size.
#[derive(Debug, Clone)]
pub struct BatchLane {
    /// Stimulus per dense index (same names/order the plan was
    /// compiled with).
    pub stims: Vec<Stimulus>,
    /// Fixed step size for this lane, seconds. All lanes run the same
    /// *number* of steps (the plan's), so lanes with different `dt`
    /// cover different time windows — exactly what a frequency sweep
    /// needs.
    pub dt: f64,
}

impl<'d> CompiledSim<'d> {
    /// A [`BatchLane`] carrying `stims` at the plan's own step size.
    ///
    /// # Panics
    ///
    /// Panics if `stims.len()` differs from the compiled vector's.
    pub fn batch_lane(&self, stims: Vec<Stimulus>) -> BatchLane {
        assert_eq!(
            stims.len(),
            self.stims.len(),
            "stimulus vector layout mismatch"
        );
        BatchLane { stims, dt: self.dt }
    }

    /// Start a lane-batched session; lane `l` runs `lanes[l]`.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is empty or longer than [`MAX_LANES`], when a
    /// lane's stimulus vector does not match the compiled layout, or
    /// when a lane's `dt` is not positive and finite.
    pub fn batch_session<'p>(&'p self, lanes: &[BatchLane]) -> BatchSession<'p, 'd> {
        BatchSession::new(self, lanes)
    }

    /// A batch of `lanes` identical copies of the plan's own stimuli —
    /// the benchmarking/self-test configuration where every lane must
    /// reproduce [`CompiledSim::run`] bit for bit.
    pub fn batch_replicated(&self, lanes: usize) -> BatchSession<'_, 'd> {
        let lane = BatchLane {
            stims: self.stims.clone(),
            dt: self.dt,
        };
        let lanes: Vec<BatchLane> = std::iter::repeat_with(|| lane.clone())
            .take(lanes)
            .collect();
        BatchSession::new(self, &lanes)
    }
}

/// Reads the driver `$d` (an `i32` port entry) of lane `$l` from a
/// lane-strided value buffer; `NO_DRIVER` (an unconnected port) reads as
/// 0.0.
macro_rules! lane_port {
    ($out:expr, $d:expr, $stride:expr, $l:expr) => {
        if $d == NO_DRIVER {
            0.0
        } else {
            $out[$d as usize * $stride + $l]
        }
    };
}

/// Mutable state of one lane-batched run over a [`CompiledSim`] plan.
///
/// All buffers are allocated at construction;
/// [`step`](BatchSession::step) is allocation-free (asserted by
/// `crates/sim/tests/no_alloc.rs`).
pub struct BatchSession<'p, 'd> {
    plan: &'p CompiledSim<'d>,
    /// Batch width (1 ..= [`MAX_LANES`]); also the buffer stride.
    lanes: usize,
    /// Per-lane step size.
    dt: Vec<f64>,
    /// The lanes' stimuli and their lowered fill paths.
    stims: StimTable,
    /// Current step (0 ..= plan.steps).
    step: usize,
    /// How many lanes are still advancing.
    alive: usize,
    /// Per-lane liveness; dead lanes are skipped by faults/record only —
    /// the lockstep kernel still computes them (on zeroed state).
    active: Vec<bool>,
    // Lane-strided state: `buf[block * lanes + lane]`.
    values: Vec<f64>,
    integ: Vec<f64>,
    discrete: Vec<f64>,
    prev_in: Vec<f64>,
    /// FSM signals, lane-major.
    signals: Vec<f64>,
    /// Previous event levels per machine, `[event * lanes + lane]`.
    prev_levels: Vec<Vec<bool>>,
    // RK4 scratch, lane-strided.
    stage_values: Vec<f64>,
    stage_state: Vec<f64>,
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    k4: Vec<f64>,
    /// Pre-step snapshots for per-lane rollback.
    saved_integ: Vec<f64>,
    saved_discrete: Vec<f64>,
    saved_prev_in: Vec<f64>,
    /// The block rows a step can change in `integ`, `discrete` or
    /// `prev_in`: integrators and discrete updates. Every other row of
    /// those buffers, and of their snapshots, stays 0.0, so a snapshot
    /// copies these rows alone.
    state_rows: Vec<usize>,
    // Per-lane time scratch, filled by the caller of the span kernels:
    // step start, RK mid-stage, RK end-stage, and effective dt.
    ts: Vec<f64>,
    th: Vec<f64>,
    tf: Vec<f64>,
    sub_dt: Vec<f64>,
    // Stimulus rows at those times (`[slot * lanes + lane]`), filled by
    // the same caller. Hoisting the transcendental stimulus evaluations
    // out of the kernels lets one fill serve every reader of a slot:
    // all graphs, and both RK4 mid-stages, which share one midpoint.
    // Constant rows are written once, when the session starts.
    stim_rows_s: Vec<f64>,
    stim_rows_h: Vec<f64>,
    stim_rows_f: Vec<f64>,
    /// This step's injected fault per lane.
    poison: Vec<Option<(usize, f64)>>,
    /// Per-lane injection streams; lane 0 keeps the configured seed, so
    /// a one-lane batch draws the schedule `FaultInjection` documents.
    rngs: Vec<Option<SplitMix64>>,
    /// Per-lane unrecoverable faults.
    faults: Vec<Option<SimFault>>,
    /// Per-lane steps rescued by step-halving.
    recovered: Vec<u64>,
    /// Per-lane recorded sample counts.
    recorded: Vec<usize>,
    /// Recorded traces, `[trace * lanes + lane]`.
    trace_values: Vec<Vec<f64>>,
    /// Cooperative cancellation, checked every
    /// [`vase_budget::CHECK_STRIDE`] steps by [`run`](Self::run).
    cancel: Option<vase_budget::CancelToken>,
    /// Whether cancellation ended the run early (all lanes).
    cancelled: bool,
}

impl<'p, 'd> BatchSession<'p, 'd> {
    fn new(plan: &'p CompiledSim<'d>, lane_specs: &[BatchLane]) -> Self {
        let stride = lane_specs.len();
        assert!(
            (1..=MAX_LANES).contains(&stride),
            "batch width must be 1..={MAX_LANES}, got {stride}"
        );
        for lane in lane_specs {
            assert_eq!(
                lane.stims.len(),
                plan.stims.len(),
                "stimulus vector layout mismatch"
            );
            assert!(
                lane.dt > 0.0 && lane.dt.is_finite(),
                "lane dt must be positive and finite"
            );
        }
        let total = plan.total_blocks();
        let mut integ = vec![0.0; total * stride];
        for g in &plan.graphs {
            for (id, block) in g.graph.iter() {
                if let BlockKind::Integrate { initial, .. } = block.kind {
                    let b = (g.base + id.index()) * stride;
                    integ[b..b + stride].fill(initial);
                }
            }
        }
        let nstims = plan.stims.len();
        let stims = StimTable::new(plan, lane_specs);
        // Constant rows hold at every time, so they are filled once
        // here and skipped by every per-step fill.
        let mut stim_rows_s = vec![0.0; nstims * stride];
        let constant: Vec<usize> = (0..nstims)
            .filter(|&s| stims.kinds[s] == StimKind::Constant)
            .collect();
        stims.fill(
            &constant,
            stride,
            0,
            stride,
            &vec![0.0; stride],
            &mut stim_rows_s,
        );
        let mut state_rows: Vec<usize> = plan
            .graphs
            .iter()
            .flat_map(|g| {
                let discretes = g.discretes.iter().map(|d| match *d {
                    DiscreteUpdate::Latch { block, .. }
                    | DiscreteUpdate::Schmitt { block, .. }
                    | DiscreteUpdate::PrevIn { block, .. } => block,
                });
                let integrators = g.integrators.iter().map(|&(block, _, _)| block);
                integrators.chain(discretes).map(|b| g.base + b as usize)
            })
            .collect();
        state_rows.sort_unstable();
        state_rows.dedup();
        let max_blocks = plan.graphs.iter().map(|g| g.graph.len()).max().unwrap_or(0);
        let max_integ = plan
            .graphs
            .iter()
            .map(|g| g.integrators.len())
            .max()
            .unwrap_or(0);
        let samples = plan.steps + 1;
        BatchSession {
            plan,
            lanes: stride,
            dt: lane_specs.iter().map(|lane| lane.dt).collect(),
            stims,
            step: 0,
            alive: stride,
            active: vec![true; stride],
            values: vec![0.0; total * stride],
            integ,
            discrete: vec![0.0; total * stride],
            prev_in: vec![0.0; total * stride],
            signals: vec![0.0; plan.signal_names.len() * stride],
            prev_levels: plan
                .machines
                .iter()
                .map(|m| vec![false; m.events.len() * stride])
                .collect(),
            stage_values: vec![0.0; max_blocks * stride],
            stage_state: vec![0.0; max_blocks * stride],
            k1: vec![0.0; max_integ * stride],
            k2: vec![0.0; max_integ * stride],
            k3: vec![0.0; max_integ * stride],
            k4: vec![0.0; max_integ * stride],
            saved_integ: vec![0.0; total * stride],
            saved_discrete: vec![0.0; total * stride],
            saved_prev_in: vec![0.0; total * stride],
            state_rows,
            ts: vec![0.0; stride],
            th: vec![0.0; stride],
            tf: vec![0.0; stride],
            sub_dt: vec![0.0; stride],
            stim_rows_h: stim_rows_s.clone(),
            stim_rows_f: stim_rows_s.clone(),
            stim_rows_s,
            poison: vec![None; stride],
            rngs: (0..stride)
                .map(|l| {
                    plan.injection.map(|inj| {
                        SplitMix64::new(inj.seed ^ (l as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                    })
                })
                .collect(),
            faults: vec![None; stride],
            recovered: vec![0; stride],
            cancel: None,
            cancelled: false,
            recorded: vec![0; stride],
            trace_values: (0..plan.traces.len() * stride)
                .map(|_| Vec::with_capacity(samples))
                .collect(),
        }
    }

    /// The batch width.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Whether every step has been taken (or every lane has died).
    pub fn done(&self) -> bool {
        self.step > self.plan.steps
    }

    /// The unrecoverable fault that ended lane `lane` early, if any.
    pub fn fault(&self, lane: usize) -> Option<&SimFault> {
        self.faults.get(lane).and_then(Option::as_ref)
    }

    /// Advance every active lane one fixed time step in lockstep:
    /// evaluate every graph (RK4 over the integrator states), check each
    /// lane's state for numerical faults, fire the FSMs on event edges,
    /// record the traces. Allocation-free.
    ///
    /// A lane whose state holds a NaN, an infinity or a value past the
    /// divergence limit is rolled back and re-integrated with `2^k`
    /// halved substeps; a lane that stays faulty is deactivated with a
    /// [`SimFault`] and keeps the samples recorded so far.
    pub fn step(&mut self) {
        match self.lanes {
            1 => self.step_lanes::<1>(),
            4 => self.step_lanes::<4>(),
            8 => self.step_lanes::<8>(),
            _ => self.step_lanes::<0>(),
        }
    }

    /// [`step`](Self::step) for a batch of `S` lanes, `S` known at
    /// compile time, or of `self.lanes` when `S` is 0. A known width
    /// unrolls every lane loop of the step and its kernels.
    fn step_lanes<const S: usize>(&mut self) {
        if self.done() {
            return;
        }
        let stride = if S == 0 { self.lanes } else { S };
        let step = self.step;
        for l in 0..stride {
            let t = step as f64 * self.dt[l];
            self.ts[l] = t;
            self.th[l] = t + self.dt[l] / 2.0;
            self.tf[l] = t + self.dt[l];
            self.sub_dt[l] = self.dt[l];
        }
        let stims = &self.stims;
        if !stims.varying.is_empty() {
            let rows = &mut self.stim_rows_s;
            stims.fill(&stims.varying, stride, 0, stride, &self.ts, rows);
        }
        if !stims.stage_varying.is_empty() {
            let slots = &stims.stage_varying;
            stims.fill(slots, stride, 0, stride, &self.th, &mut self.stim_rows_h);
            stims.fill(slots, stride, 0, stride, &self.tf, &mut self.stim_rows_f);
        }

        // Snapshot for per-lane rollback; draw each live lane's injected
        // fault up front so retries replay the same schedule.
        for &row in &self.state_rows {
            let lanes = row * stride..(row + 1) * stride;
            self.saved_integ[lanes.clone()].copy_from_slice(&self.integ[lanes.clone()]);
            self.saved_discrete[lanes.clone()].copy_from_slice(&self.discrete[lanes.clone()]);
            self.saved_prev_in[lanes.clone()].copy_from_slice(&self.prev_in[lanes]);
        }
        let injecting = self.plan.injection.is_some();
        if injecting {
            for l in 0..stride {
                self.poison[l] = if self.active[l] {
                    self.draw_poison(l)
                } else {
                    None
                };
            }
        }

        // 1. Lockstep advance of every lane (dead lanes compute on
        //    zeroed state — cheaper than branching in the kernel).
        for gi in 0..self.plan.graphs.len() {
            self.step_graph_span::<S>(gi, 0, stride);
        }
        if injecting {
            for l in 0..stride {
                if let Some((slot, v)) = self.poison[l] {
                    self.values[slot * stride + l] = v;
                }
            }
        }

        // 2. Fault scan: one fold over every lane's state, and lane by
        //    lane only after a hit. A faulty lane retries alone with
        //    halved substeps and is deactivated if it stays faulty.
        if self.any_fault() {
            for l in 0..stride {
                if self.active[l] {
                    if let Some(kind) = self.fault_kind_lane(l) {
                        self.recover_lane(l, kind);
                    }
                }
            }
        }

        // 3. Event-driven part, per live lane.
        for mi in 0..self.plan.machines.len() {
            for l in 0..stride {
                if self.active[l] {
                    self.step_machine_lane(mi, l);
                }
            }
        }

        // 4. Record.
        self.record_samples::<S>();
        self.step += 1;
        if self.alive == 0 {
            self.step = self.plan.steps + 1;
        }
    }

    /// Attach a cooperative cancellation token. [`run`](Self::run)
    /// checks it every [`vase_budget::CHECK_STRIDE`] steps (including
    /// the first), so a tripped token stops the batch within one stride
    /// and every lane's [`SimResult`] carries its best-so-far partial
    /// trace flagged `cancelled`.
    pub fn set_cancel_token(&mut self, token: vase_budget::CancelToken) {
        self.cancel = Some(token);
    }

    /// Run every remaining fixed step.
    pub fn run(&mut self) {
        while !self.done() {
            let check = (self.step as u64).is_multiple_of(vase_budget::CHECK_STRIDE);
            if check && self.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
                self.cancelled = true;
                return;
            }
            self.step();
        }
    }

    /// Finish into one [`SimResult`] per lane (lane order preserved).
    pub fn into_results(mut self) -> Vec<SimResult> {
        let stride = self.lanes;
        let plan = self.plan;
        (0..stride)
            .map(|l| {
                let mut result = SimResult {
                    time: (0..self.recorded[l])
                        .map(|k| k as f64 * self.dt[l])
                        .collect(),
                    traces: BTreeMap::new(),
                    fault: self.faults[l],
                    recovered_steps: self.recovered[l],
                    cancelled: self.cancelled,
                };
                for (ti, (name, _)) in plan.traces.iter().enumerate() {
                    result.traces.insert(
                        name.clone(),
                        std::mem::take(&mut self.trace_values[ti * stride + l]),
                    );
                }
                result
            })
            .collect()
    }

    // ------------------------------------------------------ internals

    /// Evaluate graph `gi` for lanes `[l0, l1)` and advance their
    /// integrators one RK4 step of `sub_dt` (times from `ts`/`th`/`tf`,
    /// all caller-filled). A nonzero `S` is the batch width, known at
    /// compile time; the span is then the whole batch.
    fn step_graph_span<const S: usize>(&mut self, gi: usize, l0: usize, l1: usize) {
        let plan = self.plan;
        let g = &plan.graphs[gi];
        let (stride, l0, l1) = if S == 0 {
            (self.lanes, l0, l1)
        } else {
            (S, 0, S)
        };
        let span = (stride, l0, l1);
        let base = g.base * stride;
        let nb = g.graph.len() * stride;
        let integ = &self.integ[base..base + nb];
        let discrete = &self.discrete[base..base + nb];
        let prev_in = &self.prev_in[base..base + nb];
        let (signals, dt) = (&self.signals, &self.sub_dt);
        macro_rules! inputs {
            ($stim_rows:expr, $state:expr) => {
                &EvalInputs {
                    stim_rows: $stim_rows,
                    state: $state,
                    discrete,
                    prev_in,
                    signals,
                    dt,
                }
            };
        }
        let values = &mut self.values[base..base + nb];
        eval_graph_span::<S>(g, &g.tape, span, inputs!(&self.stim_rows_s, integ), values);
        if !g.integrators.is_empty() {
            // Each stage state is written only at the integrator rows:
            // those are the only rows of `state` the kernel reads.
            let ints = &g.integrators;
            let (stage, out) = (&mut self.stage_state, &mut self.stage_values[..nb]);
            let (rows_h, rows_f) = (&self.stim_rows_h, &self.stim_rows_f);
            copy_rows(&g.stage_copies, values, span, out);
            slopes(ints, values, span, &mut self.k1);
            shift(ints, integ, &self.k1, dt, 0.5, span, stage);
            eval_graph_span::<S>(g, &g.stage_tape, span, inputs!(rows_h, &stage[..nb]), out);
            slopes(ints, out, span, &mut self.k2);
            shift(ints, integ, &self.k2, dt, 0.5, span, stage);
            eval_graph_span::<S>(g, &g.stage_tape, span, inputs!(rows_h, &stage[..nb]), out);
            slopes(ints, out, span, &mut self.k3);
            shift(ints, integ, &self.k3, dt, 1.0, span, stage);
            eval_graph_span::<S>(g, &g.stage_tape, span, inputs!(rows_f, &stage[..nb]), out);
            slopes(ints, out, span, &mut self.k4);
            for (j, &(i, _, _)) in ints.iter().enumerate() {
                let kb = j * stride;
                let ks = (
                    &self.k1[kb..],
                    &self.k2[kb..],
                    &self.k3[kb..],
                    &self.k4[kb..],
                );
                let y = &mut self.integ[base + i as usize * stride..][l0..l1];
                for (l, y) in (l0..l1).zip(y) {
                    *y += dt[l] / 6.0 * (ks.0[l] + 2.0 * ks.1[l] + 2.0 * ks.2[l] + ks.3[l]);
                }
            }
        }

        self.apply_discretes_span(gi, l0, l1);
    }

    /// End-of-step discrete updates of graph `gi` from the
    /// start-of-step values, lanes `[l0, l1)`.
    fn apply_discretes_span(&mut self, gi: usize, l0: usize, l1: usize) {
        let plan = self.plan;
        let g = &plan.graphs[gi];
        let stride = self.lanes;
        let base = g.base * stride;
        for update in &g.discretes {
            match *update {
                DiscreteUpdate::Latch { block, data, clock } => {
                    let bb = base + block as usize * stride;
                    for l in l0..l1 {
                        let c = if clock == NO_DRIVER {
                            0.0
                        } else {
                            self.values[base + clock as usize * stride + l]
                        };
                        if c > 0.5 {
                            self.discrete[bb + l] = if data == NO_DRIVER {
                                0.0
                            } else {
                                self.values[base + data as usize * stride + l]
                            };
                        }
                    }
                }
                DiscreteUpdate::Schmitt {
                    block,
                    input,
                    low,
                    high,
                } => {
                    let bb = base + block as usize * stride;
                    for l in l0..l1 {
                        let u = if input == NO_DRIVER {
                            0.0
                        } else {
                            self.values[base + input as usize * stride + l]
                        };
                        if u > high {
                            self.discrete[bb + l] = 1.0;
                        } else if u < low {
                            self.discrete[bb + l] = 0.0;
                        }
                    }
                }
                DiscreteUpdate::PrevIn { block, input } => {
                    let bb = base + block as usize * stride;
                    for l in l0..l1 {
                        self.prev_in[bb + l] = if input == NO_DRIVER {
                            0.0
                        } else {
                            self.values[base + input as usize * stride + l]
                        };
                    }
                }
            }
        }
    }

    /// Whether any lane's `values` or `integ` holds a fault: a NaN, an
    /// infinity or a magnitude past the divergence limit. Capping the
    /// limit at `f64::MAX` makes every infinity exceed it, so `false`
    /// proves that [`fault_kind_lane`](Self::fault_kind_lane) would find
    /// nothing in any lane.
    #[inline]
    fn any_fault(&self) -> bool {
        let limit = self.plan.divergence_limit.min(f64::MAX);
        let fold = |buf: &[f64]| {
            buf.iter()
                .fold(false, |hit, v| hit | v.is_nan() | (v.abs() > limit))
        };
        fold(&self.values) | fold(&self.integ)
    }

    /// Scan lane `l`'s values and integrator state for numerical
    /// faults; non-finite dominates divergence.
    fn fault_kind_lane(&self, l: usize) -> Option<FaultKind> {
        let limit = self.plan.divergence_limit;
        let stride = self.lanes;
        let total = self.plan.total_blocks();
        let mut diverged = false;
        for b in 0..total {
            let v = self.values[b * stride + l];
            if !v.is_finite() {
                return Some(FaultKind::NonFinite);
            }
            diverged |= v.abs() > limit;
        }
        for b in 0..total {
            let v = self.integ[b * stride + l];
            if !v.is_finite() {
                return Some(FaultKind::NonFinite);
            }
            diverged |= v.abs() > limit;
        }
        diverged.then_some(FaultKind::Divergence)
    }

    /// Per-lane step-halving retry: `k` retries re-integrate the step
    /// with `2^k` substeps; an unrecoverable lane is deactivated while its
    /// batchmates keep their (already finished) step.
    fn recover_lane(&mut self, l: usize, first_kind: FaultKind) {
        let plan = self.plan;
        let t0 = self.step as f64 * self.dt[l];
        let mut kind = first_kind;
        let mut recovered = false;
        let mut retries = 0u32;
        let persistent = plan.injection.is_some_and(|inj| inj.persistent);
        let retry_poison = if persistent { self.poison[l] } else { None };
        while retries < plan.max_halvings {
            retries += 1;
            self.rollback_lane(l);
            self.advance_lane(l, 1usize << retries, retry_poison);
            match self.fault_kind_lane(l) {
                None => {
                    recovered = true;
                    break;
                }
                Some(k) => kind = k,
            }
        }
        // The recovery substeps moved this lane's time scratch; restore
        // the start-of-step value for recording and machine stepping.
        self.ts[l] = t0;
        if recovered {
            self.recovered[l] += 1;
            self.refresh_values_lane(l);
        } else {
            self.rollback_lane(l);
            self.deactivate_lane(l, kind, retries, t0);
        }
    }

    /// Re-integrate lane `l` over the current step with `substeps`
    /// equal substeps (identical arithmetic, one lane wide).
    fn advance_lane(&mut self, l: usize, substeps: usize, poison: Option<(usize, f64)>) {
        let t0 = self.step as f64 * self.dt[l];
        let sub = self.dt[l] / substeps as f64;
        for s in 0..substeps {
            let ts = t0 + s as f64 * sub;
            self.ts[l] = ts;
            self.th[l] = ts + sub / 2.0;
            self.tf[l] = ts + sub;
            self.sub_dt[l] = sub;
            // Substep times only feed the graph kernels; the non-graph
            // rows of `stim_rows_s` keep their start-of-step values,
            // which is what machines and recording sample afterwards.
            let stride = self.lanes;
            let stims = &self.stims;
            let slots = &stims.graph_varying;
            stims.fill(slots, stride, l, l + 1, &self.ts, &mut self.stim_rows_s);
            let slots = &stims.stage_varying;
            stims.fill(slots, stride, l, l + 1, &self.th, &mut self.stim_rows_h);
            stims.fill(slots, stride, l, l + 1, &self.tf, &mut self.stim_rows_f);
            for gi in 0..self.plan.graphs.len() {
                self.step_graph_span::<0>(gi, l, l + 1);
            }
        }
        if let Some((slot, v)) = poison {
            self.values[slot * self.lanes + l] = v;
        }
    }

    /// Restore lane `l`'s continuous/discrete state from the pre-step
    /// snapshot.
    fn rollback_lane(&mut self, l: usize) {
        let stride = self.lanes;
        for b in 0..self.plan.total_blocks() {
            let i = b * stride + l;
            self.integ[i] = self.saved_integ[i];
            self.discrete[i] = self.saved_discrete[i];
            self.prev_in[i] = self.saved_prev_in[i];
        }
    }

    /// Re-derive lane `l`'s start-of-step values from the pre-step
    /// snapshot (fixed-grid sample semantics after a substepped
    /// recovery).
    fn refresh_values_lane(&mut self, l: usize) {
        let plan = self.plan;
        let stride = self.lanes;
        let stims = &self.stims;
        stims.fill(
            &stims.graph_varying,
            stride,
            l,
            l + 1,
            &self.ts,
            &mut self.stim_rows_s,
        );
        for g in &plan.graphs {
            let base = g.base * stride;
            let nb = g.graph.len() * stride;
            let inputs = EvalInputs {
                stim_rows: &self.stim_rows_s,
                state: &self.saved_integ[base..base + nb],
                discrete: &self.saved_discrete[base..base + nb],
                prev_in: &self.saved_prev_in[base..base + nb],
                signals: &self.signals,
                dt: &self.dt,
            };
            let out = &mut self.values[base..base + nb];
            eval_graph_span::<0>(g, &g.tape, (stride, l, l + 1), &inputs, out);
        }
    }

    /// Record lane `l`'s fault and retire it from the batch: its trace
    /// stays partial, its state is zeroed so the lockstep kernel keeps
    /// computing finite numbers without per-lane branches.
    fn deactivate_lane(&mut self, l: usize, kind: FaultKind, retries: u32, time: f64) {
        self.faults[l] = Some(SimFault {
            step: self.recorded[l],
            time,
            kind,
            retries,
        });
        self.active[l] = false;
        self.alive -= 1;
        let stride = self.lanes;
        for b in 0..self.plan.total_blocks() {
            let i = b * stride + l;
            self.values[i] = 0.0;
            self.integ[i] = 0.0;
            self.discrete[i] = 0.0;
            self.prev_in[i] = 0.0;
        }
    }

    /// Draw lane `l`'s injected fault for this step from its own
    /// deterministic stream.
    fn draw_poison(&mut self, l: usize) -> Option<(usize, f64)> {
        let inj = self.plan.injection?;
        let total = self.plan.total_blocks();
        let rng = self.rngs[l].as_mut()?;
        if total == 0 || rng.next_f64() >= inj.rate {
            return None;
        }
        Some((rng.index(total), inj.value))
    }

    /// Fire machine `mi` for lane `l` if any watched event changed
    /// level (time from `ts[l]`).
    fn step_machine_lane(&mut self, mi: usize, l: usize) {
        let plan = self.plan;
        let m = &plan.machines[mi];
        let stride = self.lanes;
        // Machines sample stimuli at the step start: `stim_rows_s`
        // already holds every slot's value at `ts`, so the event and
        // datapath evaluations below read the cache instead of
        // re-evaluating the waveforms.
        let rows = &self.stim_rows_s;

        let mut fired = false;
        for (ei, event) in m.events.iter().enumerate() {
            let now = event_level_lane(event, stride, l, &self.values, &self.signals, rows);
            let before = std::mem::replace(&mut self.prev_levels[mi][ei * stride + l], now);
            if now != before {
                fired = true;
            }
        }
        if !fired {
            return;
        }

        let mut cur = m.start;
        for _ in 0..m.walk_cap {
            let state = &m.states[cur.index()];
            for (target, value) in &state.ops {
                let v = eval_dp_lane(
                    value,
                    stride,
                    l,
                    &self.values,
                    &self.signals,
                    &self.stim_rows_s,
                );
                self.signals[*target as usize * stride + l] = v;
            }
            let mut next = None;
            for (trigger, to) in &state.transitions {
                let take = match trigger {
                    CompiledTrigger::Always => true,
                    CompiledTrigger::AnyEvent => cur == m.start,
                    CompiledTrigger::Guard(g) => {
                        eval_dp_lane(g, stride, l, &self.values, &self.signals, &self.stim_rows_s)
                            > 0.5
                    }
                };
                if take {
                    next = Some(*to);
                    break;
                }
            }
            match next {
                Some(s) if s == m.start => break, // suspended
                Some(s) => cur = s,
                None => break,
            }
        }
    }

    /// Push the current sample for every live lane (time from `ts`);
    /// `S` as in [`step_lanes`](Self::step_lanes).
    fn record_samples<const S: usize>(&mut self) {
        let plan = self.plan;
        let stride = if S == 0 { self.lanes } else { S };
        for (ti, (_, src)) in plan.traces.iter().enumerate() {
            let tb = ti * stride;
            // One source-dispatch per trace row, not per lane: each arm
            // is a tight strided push loop.
            let (buf, sb) = match *src {
                TraceSrc::Value(slot) => (&self.values, slot * stride),
                TraceSrc::Signal(s) => (&self.signals, s as usize * stride),
                TraceSrc::Stim(s) => (&self.stim_rows_s, s as usize * stride),
                TraceSrc::Zero => {
                    for l in 0..stride {
                        if self.active[l] {
                            self.trace_values[tb + l].push(0.0);
                        }
                    }
                    continue;
                }
            };
            for l in 0..stride {
                if self.active[l] {
                    self.trace_values[tb + l].push(buf[sb + l]);
                }
            }
        }
        for l in 0..stride {
            if self.active[l] {
                self.recorded[l] += 1;
            }
        }
    }
}

/// The lanes' stimuli, lane-major (`stims[slot * lanes + lane]`), with
/// each slot lowered to its fill path. The kernels read stimulus values
/// from row caches (`rows[slot * lanes + lane]`) that [`fill`] writes,
/// so the transcendental evaluations run once per (slot, time) instead
/// of once per reader — and the two RK4 mid-stages, which share one
/// midpoint time, share one fill.
///
/// [`fill`]: StimTable::fill
struct StimTable {
    stims: Vec<Stimulus>,
    /// Per-slot lowered stimulus kind (see [`StimKind`]).
    kinds: Vec<StimKind>,
    /// Lane-major parameter rows backing the uniform-slot fill paths,
    /// `[(slot * STIM_PARAMS + row) * lanes + lane]`.
    params: Vec<f64>,
    /// Slots whose rows change with time: every slot not lowered to
    /// [`StimKind::Constant`]. Machines and traces sample every slot at
    /// the step start, so these are refilled each step.
    varying: Vec<usize>,
    /// The varying slots a graph kernel reads: the recovery substeps
    /// refill these.
    graph_varying: Vec<usize>,
    /// The varying slots an RK stage reads: `graph_varying` when some
    /// graph has integrators, else none. Only these need the mid- and
    /// end-stage rows.
    stage_varying: Vec<usize>,
}

impl StimTable {
    /// Transpose the lanes' stimulus vectors and classify each slot.
    fn new(plan: &CompiledSim<'_>, lane_specs: &[BatchLane]) -> Self {
        let stride = lane_specs.len();
        let nslots = plan.stims.len();
        let mut stims = vec![Stimulus::Constant { level: 0.0 }; nslots * stride];
        for (l, lane) in lane_specs.iter().enumerate() {
            for (s, &st) in lane.stims.iter().enumerate() {
                stims[s * stride + l] = st;
            }
        }
        let mut kinds = Vec::with_capacity(nslots);
        let mut params = vec![0.0; stims.len() * STIM_PARAMS];
        for s in 0..nslots {
            let slot = &stims[s * stride..(s + 1) * stride];
            let pb = s * STIM_PARAMS * stride;
            let kind = if slot
                .iter()
                .all(|st| matches!(st, Stimulus::Constant { .. }))
            {
                for (l, st) in slot.iter().enumerate() {
                    if let Stimulus::Constant { level } = *st {
                        params[pb + l] = level;
                    }
                }
                StimKind::Constant
            } else if slot.iter().all(|st| matches!(st, Stimulus::Sine { .. })) {
                for (l, st) in slot.iter().enumerate() {
                    if let Stimulus::Sine {
                        amplitude,
                        frequency,
                        phase,
                        offset,
                    } = *st
                    {
                        params[pb + l] = offset;
                        params[pb + stride + l] = amplitude;
                        params[pb + 2 * stride + l] = 2.0 * std::f64::consts::PI * frequency;
                        params[pb + 3 * stride + l] = phase;
                    }
                }
                StimKind::Sine
            } else {
                StimKind::General
            };
            kinds.push(kind);
        }
        let varying: Vec<usize> = (0..nslots)
            .filter(|&s| kinds[s] != StimKind::Constant)
            .collect();
        let graph_varying: Vec<usize> = varying
            .iter()
            .copied()
            .filter(|&s| {
                let reads = |ins: &Instr| match ins.op {
                    CompiledOp::Input(i) | CompiledOp::ControlInput(CtlSrc::Stim(i)) => {
                        i as usize == s
                    }
                    _ => false,
                };
                plan.graphs.iter().flat_map(|g| &g.tape).any(reads)
            })
            .collect();
        let stage_varying = if plan.graphs.iter().any(|g| !g.integrators.is_empty()) {
            graph_varying.clone()
        } else {
            Vec::new()
        };
        StimTable {
            stims,
            kinds,
            params,
            varying,
            graph_varying,
            stage_varying,
        }
    }

    /// Fill lanes `[l0, l1)` of each row in `slots` at the per-lane
    /// times `t`, through the slot's lowered path.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn fill(
        &self,
        slots: &[usize],
        stride: usize,
        l0: usize,
        l1: usize,
        t: &[f64],
        rows: &mut [f64],
    ) {
        for &s in slots {
            let sb = s * stride;
            // One lane: `Stimulus::at` gives the same bits and costs
            // less than the lowered rows (a one-lane run through the
            // rows takes up to 1.2x as long; EXPERIMENTS.md §15).
            if l1 - l0 == 1 {
                rows[sb + l0] = self.stims[sb + l0].at(t[l0]);
                continue;
            }
            let pb = s * STIM_PARAMS * stride;
            let params = &self.params;
            match self.kinds[s] {
                StimKind::Constant => {
                    rows[sb + l0..sb + l1].copy_from_slice(&params[pb + l0..pb + l1]);
                }
                StimKind::Sine => {
                    // Equal-length subslices let the compiler drop the
                    // bounds checks, which is what allows this loop (and
                    // the inlined `sin`) to vectorize across lanes.
                    let n = l1 - l0;
                    let off = &params[pb + l0..pb + l1];
                    let amp = &params[pb + stride + l0..pb + stride + l1];
                    let w = &params[pb + 2 * stride + l0..pb + 2 * stride + l1];
                    let ph = &params[pb + 3 * stride + l0..pb + 3 * stride + l1];
                    let out = &mut rows[sb + l0..sb + l1];
                    let t = &t[l0..l1];
                    for i in 0..n {
                        out[i] = off[i] + amp[i] * crate::math::sin(w[i] * t[i] + ph[i]);
                    }
                }
                StimKind::General => {
                    for l in l0..l1 {
                        rows[sb + l] = self.stims[sb + l].at(t[l]);
                    }
                }
            }
        }
    }
}

/// Per-slot lowering of the stimulus row fill. When every lane of a
/// slot carries the same [`Stimulus`] variant, `at` is unrolled into
/// straight-line arithmetic over lane-major parameter rows; with the
/// inline [`crate::math::sin`] the hot `Sine` fill is branch-free and
/// vectorizes across lanes. Mixed-variant slots keep the per-lane enum
/// dispatch of [`Stimulus::at`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum StimKind {
    /// All lanes `Constant`; parameter row 0 holds the level.
    Constant,
    /// All lanes `Sine`; parameter rows hold offset, amplitude,
    /// `2π·frequency`, phase. The angular frequency is pre-multiplied
    /// with the exact association [`Stimulus::at`] uses
    /// (`(2.0 * π) * frequency`), so the fill stays bit-identical.
    Sine,
    /// Mixed variants: evaluate [`Stimulus::at`] per lane.
    General,
}

/// Parameter rows per slot in the lowered stimulus table.
const STIM_PARAMS: usize = 4;

/// Copy lanes `span.1..span.2` of each of `rows` from `src` to `dst`.
#[inline]
fn copy_rows(rows: &[u32], src: &[f64], span: (usize, usize, usize), dst: &mut [f64]) {
    let (stride, l0, l1) = span;
    for &r in rows {
        let lanes = r as usize * stride + l0..r as usize * stride + l1;
        dst[lanes.clone()].copy_from_slice(&src[lanes]);
    }
}

/// RK4 slopes of lanes `span.1..span.2`: `k[j] = gain_j · v[driver_j]`
/// for every integrator `(block, driver, gain)`; `span.0` is the stride.
#[inline]
fn slopes(ints: &[(u32, u32, f64)], v: &[f64], span: (usize, usize, usize), k: &mut [f64]) {
    let (stride, l0, l1) = span;
    for (j, &(_, driver, gain)) in ints.iter().enumerate() {
        let k = &mut k[j * stride..][l0..l1];
        let v = &v[driver as usize * stride..][l0..l1];
        for (k, v) in k.iter_mut().zip(v) {
            *k = gain * v;
        }
    }
}

/// An RK4 stage state of lanes `span.1..span.2`: each integrator row of
/// `stage` becomes `y + (dt · c) · k`, with `c` one half or one. Both
/// scalings of `dt` are exact, so this is the `y + dt / 2.0 * k` and
/// `y + dt * k` of the textbook stages, bit for bit.
#[inline]
fn shift(
    ints: &[(u32, u32, f64)],
    y: &[f64],
    k: &[f64],
    dt: &[f64],
    c: f64,
    span: (usize, usize, usize),
    stage: &mut [f64],
) {
    let (stride, l0, l1) = span;
    for (j, &(i, _, _)) in ints.iter().enumerate() {
        let row = i as usize * stride;
        let out = &mut stage[row..][l0..l1];
        let lanes = y[row..][l0..l1]
            .iter()
            .zip(&k[j * stride..][l0..l1])
            .zip(&dt[l0..l1]);
        for (s, ((y, k), dt)) in out.iter_mut().zip(lanes) {
            *s = y + dt * c * k;
        }
    }
}

/// Copy one driver row (lanes `l0..l0 + W`) into a stack array; an
/// unconnected port reads as 0.0 in every lane. The local copy breaks
/// the read/write aliasing on `out` that would otherwise force the
/// compiler to assume the destination row overlaps its sources, so the
/// fixed-width lane loops unroll and vectorize.
#[inline(always)]
fn row<const W: usize>(buf: &[f64], d: i32, stride: usize, l0: usize) -> [f64; W] {
    let mut r = [0.0; W];
    if d != NO_DRIVER {
        let b = d as usize * stride + l0;
        r.copy_from_slice(&buf[b..b + W]);
    }
    r
}

/// What a graph evaluation reads besides the rows it writes, each slice
/// graph-local and lane-strided except the stimulus rows, the signals
/// and the per-lane step sizes `dt`.
#[derive(Clone, Copy)]
struct EvalInputs<'a> {
    stim_rows: &'a [f64],
    state: &'a [f64],
    discrete: &'a [f64],
    prev_in: &'a [f64],
    signals: &'a [f64],
    dt: &'a [f64],
}

/// Evaluate `tape` (all of graph `g`'s instructions or its stage tape)
/// for lanes `[l0, l1)` into `out` by dispatching to fixed-width
/// kernels. Lanes are independent, so any partition of the span into
/// sub-spans computes identical bits; the fixed widths exist purely so
/// the lane loops compile to straight-line SIMD ([`MAX_LANES`] = 8 keeps
/// the ladder short). A nonzero `S` is the stride of a whole-batch span
/// of `S` lanes, so every row offset folds to a shift.
#[inline]
fn eval_graph_span<const S: usize>(
    g: &GraphPlan<'_>,
    tape: &[Instr],
    (stride, l0, l1): (usize, usize, usize),
    inputs: &EvalInputs<'_>,
    out: &mut [f64],
) {
    if S != 0 {
        return eval_graph_span_w::<S, S>(&g.operands, tape, S, 0, inputs, out);
    }
    macro_rules! kernel {
        ($w:literal, $l:expr) => {
            eval_graph_span_w::<$w, 0>(&g.operands, tape, stride, $l, inputs, out)
        };
    }
    let mut l = l0;
    while l < l1 {
        let w = match l1 - l {
            8.. => 8,
            4..=7 => 4,
            2..=3 => 2,
            _ => 1,
        };
        match w {
            8 => kernel!(8, l),
            4 => kernel!(4, l),
            2 => kernel!(2, l),
            _ => kernel!(1, l),
        }
        l += w;
    }
}

/// The fixed-width kernel: lanes `[l0, l0 + W)`. A nonzero `S` is the
/// stride, known at compile time; `S == 0` takes it from `stride`.
fn eval_graph_span_w<const W: usize, const S: usize>(
    operands: &[i32],
    tape: &[Instr],
    stride: usize,
    l0: usize,
    inputs: &EvalInputs<'_>,
    out: &mut [f64],
) {
    let stride = if S == 0 { stride } else { S };
    let EvalInputs {
        stim_rows,
        state,
        discrete,
        prev_in,
        signals,
        dt,
    } = *inputs;
    let dt: &[f64; W] = dt[l0..l0 + W].try_into().expect("W lanes");
    // Apply `f` lane by lane to the driver row of `d`.
    macro_rules! unary {
        ($ob:expr, $d:expr, |$x:ident| $e:expr) => {{
            let r = row::<W>(out, $d, stride, l0);
            let dst = &mut out[$ob..$ob + W];
            for l in 0..W {
                let $x = r[l];
                dst[l] = $e;
            }
        }};
    }
    macro_rules! binary {
        ($ob:expr, $a:expr, $b:expr, |$x:ident, $y:ident| $e:expr) => {{
            let a = row::<W>(out, $a, stride, l0);
            let b = row::<W>(out, $b, stride, l0);
            let dst = &mut out[$ob..$ob + W];
            for l in 0..W {
                let ($x, $y) = (a[l], b[l]);
                dst[l] = $e;
            }
        }};
    }
    for ins in tape {
        let ob = ins.out as usize * stride + l0;
        match ins.op {
            CompiledOp::Input(s) | CompiledOp::ControlInput(CtlSrc::Stim(s)) => {
                let sb = s as usize * stride + l0;
                out[ob..ob + W].copy_from_slice(&stim_rows[sb..sb + W]);
            }
            CompiledOp::ControlInput(CtlSrc::Signal(s)) => {
                let sb = s as usize * stride + l0;
                out[ob..ob + W].copy_from_slice(&signals[sb..sb + W]);
            }
            CompiledOp::ControlInput(CtlSrc::Zero) => out[ob..ob + W].fill(0.0),
            CompiledOp::Const(v) => out[ob..ob + W].fill(v),
            CompiledOp::Scale(gain, a) => unary!(ob, a, |x| gain * x),
            CompiledOp::Add(at, arity) => {
                // Per-lane accumulation in port order, from -0.0 as
                // `Iterator::sum` folds: an all -0.0 sum stays -0.0.
                let mut acc = [-0.0_f64; W];
                for &d in &operands[at as usize..(at + arity) as usize] {
                    let r = row::<W>(out, d, stride, l0);
                    for l in 0..W {
                        acc[l] += r[l];
                    }
                }
                out[ob..ob + W].copy_from_slice(&acc);
            }
            CompiledOp::Sub(a, b) => binary!(ob, a, b, |x, y| x - y),
            CompiledOp::Mul(a, b) => binary!(ob, a, b, |x, y| x * y),
            CompiledOp::Div(a, b) => binary!(ob, a, b, |x, d| x / if d.abs() < 1e-12 {
                1e-12_f64.copysign(d + 1e-30)
            } else {
                d
            }),
            CompiledOp::Integrate => out[ob..ob + W].copy_from_slice(&state[ob..ob + W]),
            CompiledOp::Differentiate(gain, a) => {
                let r = row::<W>(out, a, stride, l0);
                let prev = &prev_in[ob..ob + W];
                let dst = &mut out[ob..ob + W];
                for l in 0..W {
                    dst[l] = gain * (r[l] - prev[l]) / dt[l];
                }
            }
            CompiledOp::Log(a) => unary!(ob, a, |x| crate::math::ln(x.max(1e-12))),
            CompiledOp::Antilog(a) => unary!(ob, a, |x| crate::math::exp(x.clamp(-50.0, 50.0))),
            CompiledOp::Abs(a) => unary!(ob, a, |x| x.abs()),
            CompiledOp::DiscreteState => {
                out[ob..ob + W].copy_from_slice(&discrete[ob..ob + W]);
            }
            CompiledOp::Switch(a, c) => binary!(ob, a, c, |x, c| if c > 0.5 { x } else { 0.0 }),
            CompiledOp::Mux(at, arity) => {
                let ports = &operands[at as usize..=(at + arity) as usize];
                let sel = row::<W>(out, ports[arity as usize], stride, l0);
                for l in 0..W {
                    let s = sel[l].round().clamp(0.0, (arity - 1) as f64) as usize;
                    out[ob + l] = lane_port!(out, ports[s], stride, l0 + l);
                }
            }
            CompiledOp::Comparator(threshold, a) => unary!(ob, a, |x| f64::from(x > threshold)),
            CompiledOp::Adc(lsb, a) => unary!(ob, a, |x| (x / lsb).round() * lsb),
            CompiledOp::Limiter(level, a) => unary!(ob, a, |x| x.clamp(-level, level)),
            CompiledOp::OutputStage(Some(limit), a) => unary!(ob, a, |x| x.clamp(-limit, limit)),
            CompiledOp::OutputStage(None, a) | CompiledOp::Output(a) => unary!(ob, a, |x| x),
            CompiledOp::Logic(op, at, arity) => {
                let ports = &operands[at as usize..(at + arity) as usize];
                for l in l0..l0 + W {
                    let high = |&d: &i32| lane_port!(out, d, stride, l) > 0.5;
                    let b = match op {
                        LogicOp::Not => lane_port!(out, operands[at as usize], stride, l) <= 0.5,
                        LogicOp::And => ports.iter().all(high),
                        LogicOp::Or => ports.iter().any(high),
                        LogicOp::Xor => ports.iter().filter(|d| high(d)).count() % 2 == 1,
                    };
                    out[ins.out as usize * stride + l] = f64::from(b);
                }
            }
        }
    }
}

/// Current boolean level of a compiled event in lane `l`.
fn event_level_lane(
    event: &CompiledEvent,
    stride: usize,
    l: usize,
    values: &[f64],
    signals: &[f64],
    stim_rows: &[f64],
) -> bool {
    match event {
        CompiledEvent::Above { src, threshold } => {
            let v = match *src {
                ValueSrc::Value(slot) => values[slot * stride + l],
                ValueSrc::Stim(s) => stim_rows[s as usize * stride + l],
                ValueSrc::Zero => 0.0,
            };
            v > *threshold
        }
        CompiledEvent::Change(src) => {
            let v = match *src {
                CtlSrc::Signal(s) => signals[s as usize * stride + l],
                CtlSrc::Stim(s) => stim_rows[s as usize * stride + l],
                CtlSrc::Zero => 0.0,
            };
            v > 0.5
        }
    }
}

/// Evaluate a compiled data-path expression in lane `l` (booleans as
/// 0.0/1.0).
fn eval_dp_lane(
    expr: &CompiledDp,
    stride: usize,
    l: usize,
    values: &[f64],
    signals: &[f64],
    stim_rows: &[f64],
) -> f64 {
    match expr {
        CompiledDp::Const(v) => *v,
        CompiledDp::Signal(s) => signals[*s as usize * stride + l],
        CompiledDp::Quantity(src) => match *src {
            ValueSrc::Value(slot) => values[slot * stride + l],
            ValueSrc::Stim(s) => stim_rows[s as usize * stride + l],
            ValueSrc::Zero => 0.0,
        },
        CompiledDp::EventLevel(event) => f64::from(event_level_lane(
            event, stride, l, values, signals, stim_rows,
        )),
        CompiledDp::Adc(inner) => {
            let v = eval_dp_lane(inner, stride, l, values, signals, stim_rows);
            let lsb = 5.0 / 256.0;
            (v / lsb).round() * lsb
        }
        CompiledDp::Not(inner) => {
            f64::from(eval_dp_lane(inner, stride, l, values, signals, stim_rows) <= 0.5)
        }
        CompiledDp::Binary { op, lhs, rhs } => {
            use vase_vhif::DpBinaryOp;
            let a = eval_dp_lane(lhs, stride, l, values, signals, stim_rows);
            let b = eval_dp_lane(rhs, stride, l, values, signals, stim_rows);
            match op {
                DpBinaryOp::Add => a + b,
                DpBinaryOp::Sub => a - b,
                DpBinaryOp::Mul => a * b,
                DpBinaryOp::Div => a / if b.abs() < 1e-12 { 1e-12 } else { b },
                DpBinaryOp::And => f64::from(a > 0.5 && b > 0.5),
                DpBinaryOp::Or => f64::from(a > 0.5 || b > 0.5),
                DpBinaryOp::Eq => f64::from((a - b).abs() < 1e-9),
                DpBinaryOp::NotEq => f64::from((a - b).abs() >= 1e-9),
                DpBinaryOp::Lt => f64::from(a < b),
                DpBinaryOp::LtEq => f64::from(a <= b),
                DpBinaryOp::Gt => f64::from(a > b),
                DpBinaryOp::GtEq => f64::from(a >= b),
            }
        }
    }
}
