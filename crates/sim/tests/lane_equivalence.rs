//! The wide-simulation contract: a lane of a [`BatchSession`] is
//! *bit-identical* to the one-lane run of its own configuration
//! ([`CompiledSim::run`]) under fixed-step RK4, for any batch width and
//! lane packing — the SoA layout changes the indexing, never the
//! per-lane floating-point operation sequence. The one-lane run's bits
//! are pinned by `tests/behavioral_traces.rs`. Plus: per-lane fault
//! isolation and the netlist-level batch (factor 1.0 lanes reproduce
//! the scalar run at every width up to [`MAX_NETLIST_LANES`], and a
//! perturbed lane reproduces the one-lane batch of its own factors).
//!
//! [`BatchSession`]: vase_sim::BatchSession
//! [`CompiledSim::run`]: vase_sim::CompiledSim::run
//! [`MAX_NETLIST_LANES`]: vase_sim::MAX_NETLIST_LANES

use std::collections::BTreeMap;

use vase_library::{ComponentKind, Netlist, PlacedComponent, SourceRef};
use vase_sim::{
    BatchLane, CompiledNetlist, CompiledSim, FaultInjection, FaultKind, SimConfig, Stimulus,
    MAX_NETLIST_LANES,
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

/// Behavioral batch widths: every width up to [`MAX_LANES`] whose lane
/// split differs. Widths 1, 4 and 8 step with their stride known at
/// compile time; 2, 3, 5 and 7 walk a runtime stride in 4-, 2- and
/// 1-lane kernels.
///
/// [`MAX_LANES`]: vase_sim::MAX_LANES
const LANE_WIDTHS: [usize; 7] = [1, 2, 3, 4, 5, 7, 8];

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
        for lanes in LANE_WIDTHS {
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
    // Lane 0 keeps the raw injection seed, so lane 0 of any batch
    // replays the scalar engine's injection schedule — including
    // recoveries — bit for bit. In the 5-lane batch, whose stride is
    // known only at run time, each recovery re-integrates one lane of
    // the wide buffers.
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
    for lanes in [1, 5] {
        let mut batch = plan.batch_replicated(lanes);
        batch.run();
        let result = batch.into_results().remove(0);
        assert_eq!(result, scalar, "lane 0 of {lanes}");
    }
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

/// Netlist batch widths: one chunk (1, 4, 8), an 8-lane span with a
/// 4-lane chunk left over (12), and the cap (64).
const NETLIST_WIDTHS: [usize; 5] = [1, 4, 8, 12, MAX_NETLIST_LANES];

/// A netlist with every perturbable kind that matters for yield:
/// summing weights, integrator weights, a reference, a limiter.
fn yield_netlist() -> Netlist {
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
    n
}

#[test]
fn netlist_batch_with_unit_factors_matches_scalar_bitwise() {
    let n = yield_netlist();
    let stimuli = stim(&[("x", Stimulus::sine(1.0, 200.0))]);
    let plan =
        CompiledNetlist::new(&n, &stimuli, &[], &SimConfig::new(1e-5, 0.01)).expect("compiles");
    let scalar = plan.run();
    for lanes in NETLIST_WIDTHS {
        let factors = vec![vec![1.0; plan.param_count()]; lanes];
        let mut batch = plan.batch_session(&factors);
        batch.run();
        for (l, result) in batch.into_results().into_iter().enumerate() {
            assert_eq!(result, scalar, "lane {l} of {lanes}");
        }
    }
}

#[test]
fn perturbed_lanes_of_a_wide_netlist_batch_match_their_one_lane_runs() {
    // Every lane of a full-width batch carries its own factors; each
    // must equal, bit for bit, a one-lane batch of the same factors.
    let n = yield_netlist();
    let stimuli = stim(&[("x", Stimulus::sine(1.0, 200.0))]);
    let plan =
        CompiledNetlist::new(&n, &stimuli, &[], &SimConfig::new(1e-5, 0.01)).expect("compiles");
    let factors: Vec<Vec<f64>> = (0..MAX_NETLIST_LANES)
        .map(|l| {
            (0..plan.param_count())
                .map(|p| 1.0 + 0.002 * ((l * 7 + p * 3) % 21) as f64 - 0.02)
                .collect()
        })
        .collect();
    let mut batch = plan.batch_session(&factors);
    batch.run();
    let results = batch.into_results();
    assert_eq!(results.len(), MAX_NETLIST_LANES);
    let y = |l: usize| results[l].trace("y").expect("trace").to_vec();
    assert!(
        (1..MAX_NETLIST_LANES).any(|l| y(l) != y(0)),
        "the factors must move the lanes apart"
    );
    for (l, (result, factors)) in results.iter().zip(&factors).enumerate() {
        let mut one = plan.batch_session(std::slice::from_ref(factors));
        one.run();
        let reference = one.into_results().remove(0);
        assert_eq!(*result, reference, "lane {l}");
    }
}
