//! Behavioral (VHIF-level) transient simulation.
//!
//! Simulates a [`VhifDesign`] directly: the signal-flow graphs are
//! evaluated block-by-block in topological order with RK4 integration
//! of the integrator states, and the FSMs co-simulate event-driven:
//! when a sensitivity event fires, the machine runs through its states
//! (executing data-path operations and taking guarded arcs) and
//! suspends back in `start` — exactly the simplified process-interaction
//! model of paper Section 3.
//!
//! [`simulate_design`] is the one-shot entry point; it compiles the
//! design into a [`crate::plan::CompiledSim`] evaluation plan (all
//! names resolved to dense indices, allocation-free stepping) and runs
//! it as a one-lane [`crate::BatchSession`]. Callers that simulate the
//! same design repeatedly — frequency sweeps, benchmarks — should
//! compile once and start sessions themselves; see [`crate::plan`].

use std::collections::BTreeMap;

use vase_vhif::VhifDesign;

use crate::error::SimError;
use crate::fault::FaultInjection;
use crate::plan::CompiledSim;
use crate::stimulus::Stimulus;
use crate::trace::SimResult;

/// Transient-simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Time step, s.
    pub dt: f64,
    /// End time, s.
    pub t_end: f64,
    /// Any block value or integrator state whose magnitude exceeds
    /// this is treated as numerical divergence: the step is rolled
    /// back and retried at a halved step, and an unrecoverable step
    /// ends the run with a partial trace and a
    /// [`SimFault`](crate::SimFault) record.
    pub divergence_limit: f64,
    /// Maximum step-halving retries for a faulty step (`k` retries
    /// re-integrate the step with `2^k` substeps of `dt / 2^k`). `0`
    /// disables recovery: the first fault aborts the run.
    pub max_step_halvings: u32,
    /// Opt-in deterministic fault injection (see
    /// [`FaultInjection`](crate::FaultInjection)); `None` — the
    /// default — costs nothing in the step loop.
    pub fault_injection: Option<FaultInjection>,
}

/// The most `f64` values one run may record: its time axis and each
/// recorded trace hold `steps + 1` samples. 2^27 values are 1 GiB, far
/// above the largest shipped window (30,001 samples per trace) and
/// `vase serve`'s default (5,001 samples). A run past it would fail to
/// allocate and abort the process, or grow until it did; a fixed bound
/// rejects the same windows on every host.
const MAX_RECORDED_VALUES: usize = 1 << 27;

impl SimConfig {
    /// `n` samples over `t_end` seconds, with default fault handling
    /// (divergence limit `1e12`, up to 5 step halvings, no injection).
    pub fn new(dt: f64, t_end: f64) -> Self {
        SimConfig {
            dt,
            t_end,
            ..SimConfig::default()
        }
    }

    /// The number of steps of this window (`steps + 1` samples).
    ///
    /// # Errors
    ///
    /// [`SimError::BadConfig`] when `dt` or `t_end` is not finite and
    /// positive, or when `steps + 1` does not fit a `usize`.
    pub(crate) fn steps(&self) -> Result<usize, SimError> {
        let (dt, t_end) = (self.dt, self.t_end);
        if !(dt.is_finite() && dt > 0.0 && t_end.is_finite() && t_end > 0.0) {
            return Err(SimError::BadConfig {
                what: format!("dt and t_end must be finite and positive, got {dt:e} and {t_end:e}"),
            });
        }
        let steps = (t_end / dt).ceil();
        if steps >= usize::MAX as f64 {
            return Err(SimError::BadConfig {
                what: format!("{t_end:e} s at dt {dt:e} s is {steps} steps, too many to count"),
            });
        }
        Ok(steps as usize)
    }

    /// [`steps`](Self::steps) for a run that records `traces` traces.
    ///
    /// # Errors
    ///
    /// As [`steps`](Self::steps), and [`SimError::BadConfig`] when the
    /// run would record more than [`MAX_RECORDED_VALUES`].
    pub(crate) fn recorded_steps(&self, traces: usize) -> Result<usize, SimError> {
        let steps = self.steps()?;
        let values = (steps + 1).saturating_mul(traces + 1);
        if values > MAX_RECORDED_VALUES {
            let (dt, t_end) = (self.dt, self.t_end);
            return Err(SimError::BadConfig {
                what: format!(
                    "{t_end:e} s at dt {dt:e} s is {steps} steps; recording the time axis and \
                     {traces} traces would store {values} values, over the bound of 2^27"
                ),
            });
        }
        Ok(steps)
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            dt: 1e-5,
            t_end: 10e-3,
            divergence_limit: 1e12,
            max_step_halvings: 5,
            fault_injection: None,
        }
    }
}

/// Simulate a VHIF design.
///
/// `inputs` supplies a stimulus per analog input port; *signal* ports
/// of the event-driven kind may also be driven by a stimulus (values
/// > 0.5 read as `'1'`).
///
/// # Errors
///
/// * [`SimError::MissingStimulus`] if an analog input has no stimulus
///   (FSM-driven control inputs are exempt);
/// * [`SimError::AlgebraicLoop`] if a graph has a combinational cycle;
/// * [`SimError::BadConfig`] when `dt` or `t_end` is not finite and
///   positive, or when the window would record more than 2^27 values
///   (time axis and traces).
pub fn simulate_design(
    design: &VhifDesign,
    inputs: &BTreeMap<String, Stimulus>,
    config: &SimConfig,
) -> Result<SimResult, SimError> {
    Ok(CompiledSim::new(design, inputs, config)?.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vase_vhif::{BlockKind, DataOp, DpExpr, Event, Fsm, SignalFlowGraph, Trigger};

    fn stim(entries: &[(&str, Stimulus)]) -> BTreeMap<String, Stimulus> {
        entries.iter().map(|(n, s)| (n.to_string(), *s)).collect()
    }

    #[test]
    fn amplifier_graph_scales_input() {
        let mut g = SignalFlowGraph::new("amp");
        let x = g.add(BlockKind::Input { name: "x".into() });
        let s = g.add(BlockKind::Scale { gain: 3.0 });
        let y = g.add(BlockKind::Output { name: "y".into() });
        g.connect(x, s, 0).expect("wire");
        g.connect(s, y, 0).expect("wire");
        let mut d = VhifDesign::new("t");
        d.graphs.push(g);
        let r = simulate_design(
            &d,
            &stim(&[("x", Stimulus::Constant { level: 0.5 })]),
            &SimConfig::new(1e-4, 1e-2),
        )
        .expect("simulates");
        let y = r.trace("y").expect("trace");
        assert!((y.last().unwrap() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn first_order_decay_matches_analytic() {
        // dx/dt = -x, x(0)=1 → x(t) = e^{-t}.
        let mut g = SignalFlowGraph::new("ode");
        let integ = g.add(BlockKind::Integrate {
            gain: 1.0,
            initial: 1.0,
        });
        let neg = g.add(BlockKind::Scale { gain: -1.0 });
        let y = g.add(BlockKind::Output { name: "x".into() });
        g.connect(integ, neg, 0).expect("wire");
        g.connect(neg, integ, 0).expect("wire");
        g.connect(integ, y, 0).expect("wire");
        let mut d = VhifDesign::new("t");
        d.graphs.push(g);
        let r =
            simulate_design(&d, &BTreeMap::new(), &SimConfig::new(1e-3, 1.0)).expect("simulates");
        let x = r.trace("x").expect("trace");
        let expected = (-1.0_f64).exp();
        assert!(
            (x.last().unwrap() - expected).abs() < 1e-4,
            "x(1) = {} vs {expected}",
            x.last().unwrap()
        );
    }

    #[test]
    fn harmonic_oscillator_conserves_amplitude() {
        // x'' = -x via two integrators: RK4 should keep amplitude ~1
        // over a few periods.
        let mut g = SignalFlowGraph::new("osc");
        let i1 = g.add(BlockKind::Integrate {
            gain: 1.0,
            initial: 1.0,
        }); // x
        let i2 = g.add(BlockKind::Integrate {
            gain: 1.0,
            initial: 0.0,
        }); // v? order below
        let neg = g.add(BlockKind::Scale { gain: -1.0 });
        let out = g.add(BlockKind::Output { name: "x".into() });
        // v' = -x ; x' = v
        g.connect(i1, neg, 0).expect("x -> neg");
        g.connect(neg, i2, 0).expect("neg -> v'");
        g.connect(i2, i1, 0).expect("v -> x'");
        g.connect(i1, out, 0).expect("x -> out");
        let mut d = VhifDesign::new("t");
        d.graphs.push(g);
        let r =
            simulate_design(&d, &BTreeMap::new(), &SimConfig::new(1e-3, 12.6)).expect("simulates");
        let (lo, hi) = r.range("x").expect("range");
        assert!((hi - 1.0).abs() < 1e-3, "hi {hi}");
        assert!((lo + 1.0).abs() < 1e-3, "lo {lo}");
    }

    #[test]
    fn limiter_clips_output() {
        let mut g = SignalFlowGraph::new("clip");
        let x = g.add(BlockKind::Input { name: "x".into() });
        let lim = g.add(BlockKind::Limiter { level: 1.5 });
        let y = g.add(BlockKind::Output { name: "y".into() });
        g.connect(x, lim, 0).expect("wire");
        g.connect(lim, y, 0).expect("wire");
        let mut d = VhifDesign::new("t");
        d.graphs.push(g);
        let r = simulate_design(
            &d,
            &stim(&[("x", Stimulus::sine(3.0, 100.0))]),
            &SimConfig::new(1e-5, 0.02),
        )
        .expect("simulates");
        let (lo, hi) = r.range("y").expect("range");
        assert!(hi <= 1.5 + 1e-9 && lo >= -1.5 - 1e-9);
        assert!(
            r.fraction_at_level("y", 1.5, 1e-6) > 0.1,
            "clipping plateau expected"
        );
    }

    #[test]
    fn fsm_event_sets_control_signal() {
        // A switch passes the input only after `line` rises above 0.5.
        let mut g = SignalFlowGraph::new("sw");
        let line = g.add(BlockKind::Input {
            name: "line".into(),
        });
        let ctl = g.add(BlockKind::ControlInput { name: "c1".into() });
        let sw = g.add(BlockKind::Switch);
        let y = g.add(BlockKind::Output { name: "y".into() });
        g.connect(line, sw, 0).expect("wire");
        g.connect(ctl, sw, 1).expect("wire");
        g.connect(sw, y, 0).expect("wire");

        let mut fsm = Fsm::new("ctl");
        let start = fsm.start();
        let on = fsm.add_state("on");
        fsm.state_mut(on)
            .ops
            .push(DataOp::new("c1", DpExpr::Bit(true)));
        fsm.add_transition(
            start,
            on,
            Trigger::AnyEvent(vec![Event::Above {
                quantity: "line".into(),
                threshold: 0.5,
            }]),
        );
        fsm.add_transition(on, start, Trigger::Always);

        let mut d = VhifDesign::new("t");
        d.graphs.push(g);
        d.fsms.push(fsm);
        let r = simulate_design(
            &d,
            &stim(&[(
                "line",
                Stimulus::Step {
                    before: 0.0,
                    after: 1.0,
                    at: 5e-3,
                },
            )]),
            &SimConfig::new(1e-4, 1e-2),
        )
        .expect("simulates");
        let y = r.trace("y").expect("trace");
        assert!((y[10] - 0.0).abs() < 1e-9, "switch open before event");
        assert!(
            (y.last().unwrap() - 1.0).abs() < 1e-9,
            "switch closed after event"
        );
        let c1 = r.trace("c1").expect("c1 recorded");
        assert_eq!(*c1.last().unwrap(), 1.0);
    }

    #[test]
    fn guarded_fsm_branches() {
        // c1 set iff line above threshold at resume time (the receiver's
        // compensation machine).
        let mut fsm = Fsm::new("comp");
        let start = fsm.start();
        let s_set = fsm.add_state("set");
        let s_clr = fsm.add_state("clear");
        let ev = Event::Above {
            quantity: "line".into(),
            threshold: 0.5,
        };
        fsm.add_transition(start, s_set, Trigger::AnyEvent(vec![ev.clone()]));
        fsm.state_mut(s_set)
            .ops
            .push(DataOp::new("c1", DpExpr::Bit(true)));
        fsm.state_mut(s_clr)
            .ops
            .push(DataOp::new("c1", DpExpr::Bit(false)));
        // guard split after resume
        let g_up = Trigger::Guard(DpExpr::EventLevel(ev.clone()));
        let g_dn = Trigger::Guard(DpExpr::Not(Box::new(DpExpr::EventLevel(ev))));
        // restructure: start -> chooser
        let mut fsm2 = Fsm::new("comp");
        let start2 = fsm2.start();
        let chooser = fsm2.add_state("chooser");
        let set2 = fsm2.add_state("set");
        let clr2 = fsm2.add_state("clear");
        fsm2.state_mut(set2)
            .ops
            .push(DataOp::new("c1", DpExpr::Bit(true)));
        fsm2.state_mut(clr2)
            .ops
            .push(DataOp::new("c1", DpExpr::Bit(false)));
        fsm2.add_transition(
            start2,
            chooser,
            Trigger::AnyEvent(vec![Event::Above {
                quantity: "line".into(),
                threshold: 0.5,
            }]),
        );
        fsm2.add_transition(chooser, set2, g_up);
        fsm2.add_transition(chooser, clr2, g_dn);
        fsm2.add_transition(set2, start2, Trigger::Always);
        fsm2.add_transition(clr2, start2, Trigger::Always);
        drop(fsm);

        let mut g = SignalFlowGraph::new("g");
        let _ = g.add(BlockKind::Input {
            name: "line".into(),
        });
        let mut d = VhifDesign::new("t");
        d.graphs.push(g);
        d.fsms.push(fsm2);
        let r = simulate_design(
            &d,
            &stim(&[("line", Stimulus::sine(1.0, 100.0))]),
            &SimConfig::new(1e-5, 0.02),
        )
        .expect("simulates");
        let c1 = r.trace("c1").expect("trace");
        // The control toggles with the sine crossing 0.5.
        let (lo, hi) = r.range("c1").expect("range");
        assert_eq!((lo, hi), (0.0, 1.0));
        assert!(c1.contains(&1.0) && c1.contains(&0.0));
    }

    #[test]
    fn missing_stimulus_reported() {
        let mut g = SignalFlowGraph::new("g");
        let _ = g.add(BlockKind::Input {
            name: "nope".into(),
        });
        let mut d = VhifDesign::new("t");
        d.graphs.push(g);
        let err = simulate_design(&d, &BTreeMap::new(), &SimConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::MissingStimulus { name } if name == "nope"));
    }

    #[test]
    fn bad_config_rejected() {
        let d = VhifDesign::new("t");
        let window = (1u64 << 27) as f64;
        for (dt, t_end) in [
            (0.0, 1.0),
            (f64::NAN, 1.0),
            (1e-5, f64::NAN),
            (1e-5, f64::INFINITY),
            (1e-9, 10.0),
            // One value past the bound: the time axis of 2^27 + 1 samples.
            (1.0, window),
        ] {
            let err = simulate_design(&d, &BTreeMap::new(), &SimConfig::new(dt, t_end))
                .expect_err("rejected");
            assert!(
                matches!(err, SimError::BadConfig { .. }),
                "{dt} {t_end}: {err}"
            );
        }
        // The largest window the bound admits compiles (it is not run).
        let config = SimConfig::new(1.0, window - 1.0);
        let plan = CompiledSim::new(&d, &BTreeMap::new(), &config).expect("within the bound");
        assert_eq!(plan.steps() as f64, window - 1.0);
    }

    #[test]
    fn sample_hold_tracks_and_holds() {
        let mut g = SignalFlowGraph::new("sh");
        let x = g.add(BlockKind::Input { name: "x".into() });
        let c = g.add(BlockKind::ControlInput { name: "ctl".into() });
        let sh = g.add(BlockKind::SampleHold);
        let y = g.add(BlockKind::Output { name: "y".into() });
        g.connect(x, sh, 0).expect("wire");
        g.connect(c, sh, 1).expect("wire");
        g.connect(sh, y, 0).expect("wire");
        let mut d = VhifDesign::new("t");
        d.graphs.push(g);
        let r = simulate_design(
            &d,
            &stim(&[
                (
                    "x",
                    Stimulus::Ramp {
                        from: 0.0,
                        to: 1.0,
                        duration: 1e-2,
                    },
                ),
                (
                    "ctl",
                    Stimulus::Step {
                        before: 1.0,
                        after: 0.0,
                        at: 5e-3,
                    },
                ),
            ]),
            &SimConfig::new(1e-4, 1e-2),
        )
        .expect("simulates");
        let y = r.trace("y").expect("trace");
        // Held at the value when ctl dropped (~0.5), not the final 1.0.
        assert!(
            (y.last().unwrap() - 0.5).abs() < 0.02,
            "held {}",
            y.last().unwrap()
        );
    }

    #[test]
    fn compiled_plan_sessions_are_reusable_and_identical() {
        // Two sessions from one plan produce bit-identical traces, and
        // swapping the stimulus vector redirects the run.
        let mut g = SignalFlowGraph::new("amp");
        let x = g.add(BlockKind::Input { name: "x".into() });
        let s = g.add(BlockKind::Scale { gain: 2.0 });
        let y = g.add(BlockKind::Output { name: "y".into() });
        g.connect(x, s, 0).expect("wire");
        g.connect(s, y, 0).expect("wire");
        let mut d = VhifDesign::new("t");
        d.graphs.push(g);
        let inputs = stim(&[("x", Stimulus::Constant { level: 1.0 })]);
        let plan = CompiledSim::new(&d, &inputs, &SimConfig::new(1e-4, 1e-3)).expect("compiles");

        let a = plan.run();
        let b = plan.run();
        assert_eq!(a, b, "sessions must be deterministic");
        assert_eq!(a.trace("y").unwrap().last(), Some(&2.0));

        let xi = plan.stimulus_index("x").expect("bound");
        let mut stims = plan.stimuli().to_vec();
        stims[xi] = Stimulus::Constant { level: -0.5 };
        let mut session = plan.batch_session(&[plan.batch_lane(stims)]);
        session.run();
        let c = session.into_results().pop().expect("one lane");
        assert_eq!(c.trace("y").unwrap().last(), Some(&-1.0));
    }
}
