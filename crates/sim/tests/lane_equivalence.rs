//! The wide-simulation contract: a lane of a [`BatchSession`] is
//! *bit-identical* to the one-lane run of its own configuration
//! ([`CompiledSim::run`]) under fixed-step RK4, for any batch width and
//! lane packing — the SoA layout changes the indexing, never the
//! per-lane floating-point operation sequence. The one-lane run's bits
//! are pinned by `tests/behavioral_traces.rs`. Plus: per-lane fault
//! isolation, adaptive RKF45 sanity, and the netlist-level batch
//! (factor 1.0 lanes reproduce the scalar run).
//!
//! [`BatchSession`]: vase_sim::BatchSession
//! [`CompiledSim::run`]: vase_sim::CompiledSim::run

use std::collections::BTreeMap;

use vase_library::{ComponentKind, Netlist, PlacedComponent, SourceRef};
use vase_sim::{
    AdaptiveConfig, BatchLane, CompiledNetlist, CompiledSim, FaultInjection, FaultKind, SimConfig,
    Stimulus,
};
use vase_vhif::{BlockKind, DataOp, DpExpr, Event, Fsm, SignalFlowGraph, Trigger, VhifDesign};

fn stim(entries: &[(&str, Stimulus)]) -> BTreeMap<String, Stimulus> {
    entries.iter().map(|(n, s)| (n.to_string(), *s)).collect()
}

/// y' = w0 (x - y): the golden-trace RC lowpass.
fn rc_lowpass(w0: f64) -> VhifDesign {
    let mut g = SignalFlowGraph::new("rc");
    let x = g.add(BlockKind::Input { name: "x".into() });
    let sub = g.add(BlockKind::Sub);
    let integ = g.add(BlockKind::Integrate {
        gain: w0,
        initial: 0.0,
    });
    let y = g.add(BlockKind::Output { name: "y".into() });
    g.connect(x, sub, 0).expect("wire");
    g.connect(integ, sub, 1).expect("wire");
    g.connect(sub, integ, 0).expect("wire");
    g.connect(integ, y, 0).expect("wire");
    let mut d = VhifDesign::new("t");
    d.graphs.push(g);
    d
}

/// x'' = -w² x with x(0) = 1: two chained integrators.
fn harmonic_oscillator(w: f64) -> VhifDesign {
    let mut g = SignalFlowGraph::new("osc");
    let neg = g.add(BlockKind::Scale { gain: -1.0 });
    let v = g.add(BlockKind::Integrate {
        gain: w,
        initial: 0.0,
    });
    let x = g.add(BlockKind::Integrate {
        gain: w,
        initial: 1.0,
    });
    let out = g.add(BlockKind::Output { name: "x".into() });
    g.connect(x, neg, 0).expect("wire");
    g.connect(neg, v, 0).expect("wire");
    g.connect(v, x, 0).expect("wire");
    g.connect(x, out, 0).expect("wire");
    let mut d = VhifDesign::new("t");
    d.graphs.push(g);
    d
}

/// Switch + FSM toggling on `line` crossings — the discrete/event path.
fn fsm_design() -> VhifDesign {
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
            threshold: 0.0,
        }]),
    );
    fsm.add_transition(on, start, Trigger::Always);

    let mut d = VhifDesign::new("t");
    d.graphs.push(g);
    d.fsms.push(fsm);
    d
}

#[test]
fn replicated_lanes_match_scalar_bitwise() {
    let cases: Vec<(VhifDesign, BTreeMap<String, Stimulus>)> = vec![
        (
            rc_lowpass(1_000.0),
            stim(&[("x", Stimulus::sine(0.5, 300.0))]),
        ),
        (
            harmonic_oscillator(2.0 * std::f64::consts::PI * 50.0),
            BTreeMap::new(),
        ),
        (fsm_design(), stim(&[("line", Stimulus::sine(1.0, 500.0))])),
    ];
    let config = SimConfig::new(1e-5, 5e-3);
    for (design, inputs) in &cases {
        let plan = CompiledSim::new(design, inputs, &config).expect("compiles");
        let scalar = plan.run();
        for lanes in [1, 4, 8] {
            let mut batch = plan.batch_replicated(lanes);
            batch.run();
            for (l, result) in batch.into_results().into_iter().enumerate() {
                assert_eq!(
                    result, scalar,
                    "lane {l} of a {lanes}-wide batch must match scalar bitwise"
                );
            }
        }
    }
}

#[test]
fn mixed_dt_and_stimulus_lanes_match_their_scalar_runs() {
    // A sweep-shaped batch: every lane has its own (stimulus, dt) pair,
    // like one chunk of a frequency sweep. Each lane must match the
    // scalar run of its own configuration bitwise.
    let design = rc_lowpass(2_000.0);
    let freqs = [100.0, 300.0, 900.0, 2_700.0];
    let base = SimConfig::new(1e-5, 4e-3);
    let plan = CompiledSim::new(
        &design,
        &stim(&[("x", Stimulus::sine(1.0, freqs[0]))]),
        &base,
    )
    .expect("compiles");

    let lanes: Vec<BatchLane> = freqs
        .iter()
        .map(|&f| BatchLane {
            stims: vec![Stimulus::sine(1.0, f)],
            dt: 1.0 / (f * 400.0),
        })
        .collect();
    let mut batch = plan.batch_session(&lanes);
    batch.run();
    let results = batch.into_results();

    for (lane, &f) in freqs.iter().enumerate() {
        // The scalar reference must take the same number of steps, so
        // configure t_end from the plan's step count.
        let dt = 1.0 / (f * 400.0);
        let config = SimConfig::new(dt, plan.steps() as f64 * dt);
        let inputs = stim(&[("x", Stimulus::sine(1.0, f))]);
        let reference = CompiledSim::new(&design, &inputs, &config)
            .expect("compiles")
            .run();
        assert_eq!(results[lane], reference, "lane {lane} (f = {f} Hz)");
    }
}

#[test]
fn injected_single_lane_batch_matches_scalar_injected_run() {
    // Lane 0 keeps the raw injection seed, so a one-lane batch replays
    // the scalar engine's injection schedule — including recoveries —
    // bit for bit.
    let design = rc_lowpass(1_000.0);
    let inputs = stim(&[("x", Stimulus::sine(0.5, 300.0))]);
    let mut config = SimConfig::new(1e-5, 5e-3);
    config.fault_injection = Some(FaultInjection::transient_nan(7, 0.02));
    let plan = CompiledSim::new(&design, &inputs, &config).expect("compiles");
    let scalar = plan.run();
    assert!(
        scalar.recovered_steps > 0,
        "the transient injection must trigger recoveries"
    );
    let mut batch = plan.batch_replicated(1);
    batch.run();
    let result = batch.into_results().remove(0);
    assert_eq!(result, scalar);
}

#[test]
fn diverging_lane_degrades_to_partial_trace_without_poisoning_batch() {
    // Lane 1 gets a step size far beyond RK4's stability region for
    // this pole, so it diverges; its batchmates run at a stable dt and
    // must still match their scalar references bitwise.
    let design = rc_lowpass(1_000.0);
    let inputs = stim(&[("x", Stimulus::Constant { level: 1.0 })]);
    let base = SimConfig::new(1e-5, 5e-3);
    let plan = CompiledSim::new(&design, &inputs, &base).expect("compiles");

    let stable = plan.batch_lane(vec![Stimulus::Constant { level: 1.0 }]);
    let unstable = BatchLane {
        stims: vec![Stimulus::Constant { level: 1.0 }],
        dt: 1.0,
    };
    let mut batch = plan.batch_session(&[stable.clone(), unstable, stable]);
    batch.run();
    assert!(
        batch.fault(1).is_some(),
        "the unstable lane must record a fault"
    );
    assert!(batch.fault(0).is_none() && batch.fault(2).is_none());
    let results = batch.into_results();

    let fault = results[1].fault.expect("unstable lane fault");
    assert_eq!(fault.kind, FaultKind::Divergence);
    assert!(
        results[1].time.len() < plan.steps() + 1,
        "the dead lane keeps a partial trace ({} samples)",
        results[1].time.len()
    );

    let scalar = plan.run();
    assert_eq!(
        results[0], scalar,
        "lane 0 unaffected by its dead neighbour"
    );
    assert_eq!(
        results[2], scalar,
        "lane 2 unaffected by its dead neighbour"
    );
}

#[test]
fn adaptive_rkf45_tracks_the_analytic_solution_with_fewer_steps() {
    // The RC step response is smooth, so RKF45 should hit a 1e-6
    // relative tolerance in far fewer accepted steps than the 500-step
    // fixed grid while staying accurate at its recorded samples.
    let tau = 1e-3;
    let design = rc_lowpass(1.0 / tau);
    let inputs = stim(&[("x", Stimulus::Constant { level: 1.0 })]);
    let config = SimConfig::new(tau / 100.0, 5.0 * tau);
    let plan = CompiledSim::new(&design, &inputs, &config).expect("compiles");

    let mut batch = plan.batch_replicated(4);
    let stats = batch.run_adaptive(&AdaptiveConfig::default());
    assert!(stats.accepted > 0);
    assert!(
        stats.accepted < plan.steps(),
        "adaptive must take fewer steps than the fixed grid ({} vs {})",
        stats.accepted,
        plan.steps()
    );
    assert!(
        stats.max_h > stats.min_h,
        "the controller must actually adapt the step"
    );

    for result in batch.into_results() {
        assert!(result.fault.is_none());
        let y = result.trace("y").expect("trace");
        assert_eq!(result.time.len(), y.len());
        let t_last = *result.time.last().expect("samples");
        assert!(
            (t_last - 5.0 * tau).abs() < 1e-12,
            "the run must reach t_end"
        );
        for (&t, &v) in result.time.iter().zip(y) {
            let exact = 1.0 - (-t / tau).exp();
            assert!(
                (v - exact).abs() < 1e-4,
                "t = {t}: adaptive sample {v} vs analytic {exact}"
            );
        }
    }
}

#[test]
fn adaptive_rkf45_shrinks_the_step_for_a_stiff_pole() {
    // A fast pole forces the controller to reject and shrink: the
    // accepted minimum step must end up well below the initial one.
    let design = rc_lowpass(200_000.0);
    let inputs = stim(&[("x", Stimulus::Constant { level: 1.0 })]);
    let config = SimConfig::new(1e-4, 2e-3);
    let plan = CompiledSim::new(&design, &inputs, &config).expect("compiles");
    let mut batch = plan.batch_replicated(2);
    let stats = batch.run_adaptive(&AdaptiveConfig::default());
    assert!(stats.rejected > 0, "the stiff pole must cause rejections");
    assert!(stats.min_h < 1e-4 / 2.0, "min_h = {}", stats.min_h);
    for result in batch.into_results() {
        assert!(result.fault.is_none());
        let y = result.trace("y").expect("trace");
        assert!((y.last().expect("samples") - 1.0).abs() < 1e-3);
    }
}

#[test]
fn netlist_batch_with_unit_factors_matches_scalar_bitwise() {
    // A netlist with every perturbable kind that matters for yield:
    // summing weights, integrator weights, a reference, a limiter.
    let mut n = Netlist::new();
    n.push(PlacedComponent {
        kind: ComponentKind::VoltageRef { level: 0.25 },
        inputs: vec![],
        implements: vec![],
        label: "ref".into(),
    });
    n.push(PlacedComponent {
        kind: ComponentKind::SummingAmp {
            weights: vec![1.5, -1.0],
        },
        inputs: vec![SourceRef::External("x".into()), SourceRef::Component(0)],
        implements: vec![],
        label: "sum".into(),
    });
    n.push(PlacedComponent {
        kind: ComponentKind::Integrator {
            weights: vec![500.0],
            initial: 0.1,
        },
        inputs: vec![SourceRef::Component(1)],
        implements: vec![],
        label: "int".into(),
    });
    n.push(PlacedComponent {
        kind: ComponentKind::Limiter { level: 1.25 },
        inputs: vec![SourceRef::Component(2)],
        implements: vec![],
        label: "lim".into(),
    });
    n.outputs.push(("y".into(), SourceRef::Component(3)));

    let stimuli = stim(&[("x", Stimulus::sine(1.0, 200.0))]);
    let plan =
        CompiledNetlist::new(&n, &stimuli, &[], &SimConfig::new(1e-5, 0.01)).expect("compiles");
    let scalar = plan.run();
    for lanes in [1, 4, 8] {
        let factors = vec![vec![1.0; plan.param_count()]; lanes];
        let mut batch = plan.batch_session(&factors);
        batch.run();
        for (l, result) in batch.into_results().into_iter().enumerate() {
            assert_eq!(result, scalar, "lane {l} of {lanes}");
        }
    }
}
