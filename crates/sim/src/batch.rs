//! The behavioral (VHIF) simulation engine: lane-batched, fixed-step
//! RK4 stepping with FSM co-simulation, fault recovery and cancellation.
//! It is the one behavioral integrator: `tests/simulation.rs`,
//! `tests/behavioral_traces.rs` and `crates/bench/tests/opt_oracle.rs`
//! compare against its fixed grid, as the paper checks its netlists
//! with fixed-step SPICE transients (Fig. 8).
//!
//! A [`BatchSession`] advances up to [`MAX_LANES`] *lanes* — independent
//! parameter variants of one compiled plan — in lockstep through the
//! same step schedule, on the lane machine it shares with the netlist
//! engine ([`crate::lanes`]): one tape over a lane-strided slot array
//! (`slots[slot * lanes + lane]`), walked in fixed-width kernels, and
//! one end-of-step held-state update. This engine adds its own op set,
//! its stimulus rows, the FSM walk, per-lane `dt` and step-halving
//! recovery. A single run ([`CompiledSim::run`], and through it
//! [`simulate_design`](crate::simulate_design)) is a one-lane batch;
//! batches of 1, 4 and 8 lanes step with their width known at compile
//! time, and other widths with a runtime stride.
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
use std::ops::Range;

use vase_vhif::block::LogicOp;

use crate::fault::{FaultKind, SimFault, SplitMix64};
use crate::lanes::{self, chunks, each, lane_row, Slot};
use crate::plan::{
    CompiledDp, CompiledEvent, CompiledOp, CompiledSim, CompiledTrigger, CtlSrc, TraceSrc, ValueSrc,
};
use crate::stimulus::Stimulus;
use crate::trace::SimResult;

/// Maximum lanes per behavioral batch: one kernel chunk, so every batch
/// width up to it steps chunk-major, and widths 1, 4 and 8 with their
/// stride known at compile time. The netlist engine has its own cap,
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

impl CompiledSim {
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
    pub fn batch_session(&self, lanes: &[BatchLane]) -> BatchSession<'_> {
        BatchSession::new(self, lanes)
    }

    /// A batch of `lanes` identical copies of the plan's own stimuli —
    /// the benchmarking/self-test configuration where every lane must
    /// reproduce [`CompiledSim::run`] bit for bit.
    pub fn batch_replicated(&self, lanes: usize) -> BatchSession<'_> {
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

/// Mutable state of one lane-batched run over a [`CompiledSim`] plan.
///
/// All buffers are allocated at construction;
/// [`step`](BatchSession::step) is allocation-free (asserted by
/// `crates/sim/tests/no_alloc.rs`).
pub struct BatchSession<'p> {
    plan: &'p CompiledSim,
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
    /// Start-of-step slot values (every block row, then the zero row),
    /// and the RK4 stage scratch with the same layout.
    values: Vec<f64>,
    stage_values: Vec<f64>,
    /// Integrator states, RK4 stage states and the four stage slopes,
    /// lane-strided per integrator.
    integ: Vec<f64>,
    stage_integ: Vec<f64>,
    slopes: [Vec<f64>; 4],
    /// Held states (latch and Schmitt outputs, differentiator previous
    /// inputs), lane-strided.
    held: Vec<f64>,
    /// Pre-step snapshot of `integ`, then of `held`, for per-lane
    /// rollback.
    saved: Vec<f64>,
    /// FSM signals, lane-major.
    signals: Vec<f64>,
    /// Previous event levels per machine, `[event * lanes + lane]`.
    prev_levels: Vec<Vec<bool>>,
    // Per-lane time scratch, filled by the caller of the span kernels:
    // step start, RK mid-stage, RK end-stage, and effective dt.
    ts: Vec<f64>,
    th: Vec<f64>,
    tf: Vec<f64>,
    sub_dt: Vec<f64>,
    // Stimulus rows at those times (`[slot * lanes + lane]`), filled by
    // the same caller. Hoisting the transcendental stimulus evaluations
    // out of the kernels lets one fill serve every reader of a slot,
    // and both RK4 mid-stages, which share one midpoint.
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

impl<'p> BatchSession<'p> {
    fn new(plan: &'p CompiledSim, lane_specs: &[BatchLane]) -> Self {
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
        let integ: Vec<f64> = plan
            .integ_init
            .iter()
            .flat_map(|&init| std::iter::repeat_n(init, stride))
            .collect();
        let k = vec![0.0; integ.len()];
        let held = vec![0.0; plan.held.len() * stride];
        let values = vec![0.0; (plan.blocks + 1) * stride];
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
        let samples = plan.steps + 1;
        BatchSession {
            plan,
            lanes: stride,
            dt: lane_specs.iter().map(|lane| lane.dt).collect(),
            stims,
            step: 0,
            alive: stride,
            active: vec![true; stride],
            stage_values: values.clone(),
            values,
            stage_integ: k.clone(),
            slopes: [k.clone(), k.clone(), k.clone(), k],
            saved: vec![0.0; integ.len() + held.len()],
            integ,
            held,
            signals: vec![0.0; plan.signal_names.len() * stride],
            prev_levels: plan
                .machines
                .iter()
                .map(|m| vec![false; m.events.len() * stride])
                .collect(),
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
    /// evaluate the tape (RK4 over the integrator states), check each
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
        let state = self.integ.iter().chain(&self.held);
        for (saved, &v) in self.saved.iter_mut().zip(state) {
            *saved = v;
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
        self.advance::<S>(0..stride);
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

    /// Evaluate the tape for `lanes` and advance their integrators one
    /// RK4 step of `sub_dt` (stimulus rows at `ts`/`th`/`tf`, all
    /// caller-filled), then update their held states from the
    /// start-of-step values. A nonzero `S` is the batch width, known at
    /// compile time; the lanes are then the whole batch.
    fn advance<const S: usize>(&mut self, lanes: Range<usize>) {
        let plan = self.plan;
        let (stride, lanes) = if S == 0 {
            (self.lanes, lanes)
        } else {
            (S, 0..S)
        };
        let [k1, k2, k3, k4] = &mut self.slopes;
        let dt = &self.sub_dt;
        let tape = |tape, stim_rows| Kernel::<S> {
            plan,
            tape,
            stride,
            stim_rows,
            held: &self.held,
            signals: &self.signals,
            dt,
        };
        let step = tape(&plan.tape, &self.stim_rows_s);
        eval(&step, lanes.clone(), &self.integ, &mut self.values, k1);
        if !plan.integrators.is_empty() {
            let (stage, out) = (&mut self.stage_integ, &mut self.stage_values);
            for &b in &plan.stage_copies {
                let row = b as usize * stride..;
                let src = &self.values[row.clone()][lanes.clone()];
                out[row][lanes.clone()].copy_from_slice(src);
            }
            let mid = tape(&plan.stage_tape, &self.stim_rows_h);
            let end = tape(&plan.stage_tape, &self.stim_rows_f);
            let span = (stride, lanes.clone());
            shift(&self.integ, k1, dt, 0.5, span.clone(), stage);
            eval(&mid, lanes.clone(), stage, out, k2);
            shift(&self.integ, k2, dt, 0.5, span.clone(), stage);
            eval(&mid, lanes.clone(), stage, out, k3);
            shift(&self.integ, k3, dt, 1.0, span, stage);
            eval(&end, lanes.clone(), stage, out, k4);
            for (j, y) in self.integ.chunks_exact_mut(stride).enumerate() {
                let kb = j * stride;
                for l in lanes.clone() {
                    let k = (k1[kb + l], k2[kb + l], k3[kb + l], k4[kb + l]);
                    y[l] += dt[l] / 6.0 * (k.0 + 2.0 * k.1 + 2.0 * k.2 + k.3);
                }
            }
        }
        lanes::update_held(&plan.held, &self.values, stride, lanes, &mut self.held);
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
        let mut diverged = false;
        for buf in [&self.values, &self.integ] {
            for v in buf.iter().skip(l).step_by(self.lanes) {
                if !v.is_finite() {
                    return Some(FaultKind::NonFinite);
                }
                diverged |= v.abs() > limit;
            }
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
            self.advance::<0>(l..l + 1);
        }
        if let Some((slot, v)) = poison {
            self.values[slot * self.lanes + l] = v;
        }
    }

    /// Restore lane `l`'s integrator and held states from the pre-step
    /// snapshot.
    fn rollback_lane(&mut self, l: usize) {
        let state = self.integ.iter_mut().chain(&mut self.held);
        for (v, saved) in state.zip(&self.saved).skip(l).step_by(self.lanes) {
            *v = *saved;
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
        let (integ, held) = self.saved.split_at(self.integ.len());
        let tape = Kernel::<0> {
            plan,
            tape: &plan.tape,
            stride,
            stim_rows: &self.stim_rows_s,
            held,
            signals: &self.signals,
            dt: &self.dt,
        };
        let k = &mut self.slopes[0];
        eval(&tape, l..l + 1, integ, &mut self.values, k);
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
        for buf in [&mut self.values, &mut self.integ, &mut self.held] {
            buf.iter_mut()
                .skip(l)
                .step_by(self.lanes)
                .for_each(|v| *v = 0.0);
        }
    }

    /// Draw lane `l`'s injected fault for this step from its own
    /// deterministic stream.
    fn draw_poison(&mut self, l: usize) -> Option<(usize, f64)> {
        let inj = self.plan.injection?;
        let blocks = self.plan.blocks;
        let rng = self.rngs[l].as_mut()?;
        if blocks == 0 || rng.next_f64() >= inj.rate {
            return None;
        }
        Some((rng.index(blocks), inj.value))
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
    /// The varying slots an RK stage reads: `graph_varying` when the
    /// design has integrators, else none. Only these need the mid- and
    /// end-stage rows.
    stage_varying: Vec<usize>,
}

impl StimTable {
    /// Transpose the lanes' stimulus vectors and classify each slot.
    fn new(plan: &CompiledSim, lane_specs: &[BatchLane]) -> Self {
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
                plan.tape.iter().any(|&(_, op)| match op {
                    CompiledOp::Input(i) | CompiledOp::ControlInput(CtlSrc::Stim(i)) => {
                        i as usize == s
                    }
                    _ => false,
                })
            })
            .collect();
        let stage_varying = if !plan.integrators.is_empty() {
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

/// An RK4 stage state of lanes `span.1`: each integrator row of `stage`
/// becomes `y + (dt · c) · k`, with `c` one half or one and `span.0`
/// the stride. Both scalings of `dt` are exact, so this is the
/// `y + dt / 2.0 * k` and `y + dt * k` of the textbook stages, bit for
/// bit.
#[inline]
fn shift(y: &[f64], k: &[f64], dt: &[f64], c: f64, span: (usize, Range<usize>), stage: &mut [f64]) {
    let (stride, lanes) = span;
    for (j, out) in stage.chunks_exact_mut(stride).enumerate() {
        let row = j * stride..;
        let ys = y[row.clone()][lanes.clone()].iter();
        let ks = &k[row][lanes.clone()];
        for ((s, (y, k)), dt) in out[lanes.clone()]
            .iter_mut()
            .zip(ys.zip(ks))
            .zip(&dt[lanes.clone()])
        {
            *s = y + dt * c * k;
        }
    }
}

/// [`lanes::walk`] over `lanes`, which are the whole batch when `S` is
/// nonzero: the walk then folds to the one span of the batch width.
/// The walk stays behind this call: inlined at each of `advance`'s
/// four evaluations, it made the 8-lane step of four Table 1 apps
/// 1.04–1.23× slower (EXPERIMENTS.md §22).
fn eval<const S: usize>(
    tape: &Kernel<'_, S>,
    lanes: Range<usize>,
    integ: &[f64],
    slots: &mut [f64],
    k: &mut [f64],
) {
    let lanes = if S == 0 { lanes } else { 0..S };
    lanes::walk(tape, lanes, integ, slots, k);
}

/// One evaluation of a tape (the full tape or the stage tape) over the
/// session's slots: what it reads besides the slots and the integrator
/// states. A nonzero `S` is the stride, known at compile time; `S == 0`
/// takes it from `stride`.
struct Kernel<'a, const S: usize> {
    plan: &'a CompiledSim,
    tape: &'a [(Slot, CompiledOp)],
    stride: usize,
    stim_rows: &'a [f64],
    held: &'a [f64],
    signals: &'a [f64],
    /// Per-lane step sizes.
    dt: &'a [f64],
}

impl<const S: usize> lanes::Tape for Kernel<'_, S> {
    #[inline(always)]
    fn span<const W: usize, const WIDE: bool>(
        &self,
        lanes: Range<usize>,
        integ: &[f64],
        slots: &mut [f64],
        k: &mut [f64],
    ) -> usize {
        let stride = if S == 0 { self.stride } else { S };
        for &(out, op) in self.tape {
            self.op_w::<W, WIDE>(stride, out, op, lanes.clone(), integ, slots);
        }
        for (j, &(driver, gain)) in self.plan.integrators.iter().enumerate() {
            let kb = j * stride;
            chunks::<W, WIDE>(lanes.clone(), |l0| {
                let v = lane_row::<W>(slots, driver, stride, l0);
                for l in 0..W {
                    k[kb + l0 + l] = gain * v[l];
                }
            });
        }
        W
    }
}

impl<const S: usize> Kernel<'_, S> {
    /// One block's operation over `lanes`, chunk by chunk, into row
    /// `out`.
    #[inline(always)]
    fn op_w<const W: usize, const WIDE: bool>(
        &self,
        stride: usize,
        out: Slot,
        op: CompiledOp,
        lanes: Range<usize>,
        integ: &[f64],
        slots: &mut [f64],
    ) {
        let operands = &self.plan.operands;
        let row = |s: &[f64], slot: Slot, l0| lane_row::<W>(s, slot, stride, l0);
        let ob = out as usize * stride;
        // Apply `f` lane by lane to the row of `a` (and of `b`).
        macro_rules! unary {
            ($a:expr, |$x:ident| $e:expr) => {
                each::<W, WIDE>(slots, ob, lanes, |s, l0, v| {
                    let a = row(s, $a, l0);
                    for l in 0..W {
                        let $x = a[l];
                        v[l] = $e;
                    }
                })
            };
        }
        macro_rules! binary {
            ($a:expr, $b:expr, |$x:ident, $y:ident| $e:expr) => {
                each::<W, WIDE>(slots, ob, lanes, |s, l0, v| {
                    let (a, b) = (row(s, $a, l0), row(s, $b, l0));
                    for l in 0..W {
                        let ($x, $y) = (a[l], b[l]);
                        v[l] = $e;
                    }
                })
            };
        }
        match op {
            CompiledOp::Input(i) | CompiledOp::ControlInput(CtlSrc::Stim(i)) => {
                each::<W, WIDE>(slots, ob, lanes, |_, l0, v| *v = row(self.stim_rows, i, l0))
            }
            CompiledOp::ControlInput(CtlSrc::Signal(i)) => {
                each::<W, WIDE>(slots, ob, lanes, |_, l0, v| *v = row(self.signals, i, l0))
            }
            CompiledOp::ControlInput(CtlSrc::Zero) => {
                each::<W, WIDE>(slots, ob, lanes, |_, _, v| *v = [0.0; W])
            }
            CompiledOp::Const(c) => each::<W, WIDE>(slots, ob, lanes, |_, _, v| *v = [c; W]),
            CompiledOp::Scale(gain, a) => unary!(a, |x| gain * x),
            CompiledOp::Add(at, arity) => each::<W, WIDE>(slots, ob, lanes, |s, l0, v| {
                // Per-lane accumulation in port order, from -0.0 as
                // `Iterator::sum` folds: an all -0.0 sum stays -0.0.
                *v = [-0.0; W];
                for &d in &operands[at as usize..(at + arity) as usize] {
                    let r = row(s, d, l0);
                    for l in 0..W {
                        v[l] += r[l];
                    }
                }
            }),
            CompiledOp::Sub(a, b) => binary!(a, b, |x, y| x - y),
            CompiledOp::Mul(a, b) => binary!(a, b, |x, y| x * y),
            CompiledOp::Div(a, b) => binary!(a, b, |x, d| x / if d.abs() < 1e-12 {
                1e-12_f64.copysign(d + 1e-30)
            } else {
                d
            }),
            CompiledOp::Integrate(j) => {
                each::<W, WIDE>(slots, ob, lanes, |_, l0, v| *v = row(integ, j, l0))
            }
            CompiledOp::Differentiate(gain, a, h) => {
                each::<W, WIDE>(slots, ob, lanes, |s, l0, v| {
                    let (a, prev) = (row(s, a, l0), row(self.held, h, l0));
                    let dt = &self.dt[l0..l0 + W];
                    for l in 0..W {
                        v[l] = gain * (a[l] - prev[l]) / dt[l];
                    }
                })
            }
            CompiledOp::Log(a) => unary!(a, |x| crate::math::ln(x.max(1e-12))),
            CompiledOp::Antilog(a) => unary!(a, |x| crate::math::exp(x.clamp(-50.0, 50.0))),
            CompiledOp::Abs(a) => unary!(a, |x| x.abs()),
            CompiledOp::Held(h) => {
                each::<W, WIDE>(slots, ob, lanes, |_, l0, v| *v = row(self.held, h, l0))
            }
            CompiledOp::Switch(a, c) => binary!(a, c, |x, c| if c > 0.5 { x } else { 0.0 }),
            CompiledOp::Mux(at, arity) => each::<W, WIDE>(slots, ob, lanes, |s, l0, v| {
                let ports = &operands[at as usize..=(at + arity) as usize];
                let sel = row(s, ports[arity as usize], l0);
                for l in 0..W {
                    let p = sel[l].round().clamp(0.0, (arity - 1) as f64) as usize;
                    v[l] = s[ports[p] as usize * stride + l0 + l];
                }
            }),
            CompiledOp::Comparator(threshold, a) => unary!(a, |x| f64::from(x > threshold)),
            CompiledOp::Adc(lsb, a) => unary!(a, |x| (x / lsb).round() * lsb),
            CompiledOp::Limiter(level, a) => unary!(a, |x| x.clamp(-level, level)),
            CompiledOp::OutputStage(Some(limit), a) => unary!(a, |x| x.clamp(-limit, limit)),
            CompiledOp::OutputStage(None, a) | CompiledOp::Output(a) => unary!(a, |x| x),
            CompiledOp::Logic(op, at, arity) => each::<W, WIDE>(slots, ob, lanes, |s, l0, v| {
                let ports = &operands[at as usize..(at + arity) as usize];
                for l in 0..W {
                    let lane = |d: Slot| s[d as usize * stride + l0 + l];
                    let high = |&d: &Slot| lane(d) > 0.5;
                    let b = match op {
                        LogicOp::Not => lane(operands[at as usize]) <= 0.5,
                        LogicOp::And => ports.iter().all(high),
                        LogicOp::Or => ports.iter().any(high),
                        LogicOp::Xor => ports.iter().filter(|d| high(d)).count() % 2 == 1,
                    };
                    v[l] = f64::from(b);
                }
            }),
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
