//! The cooperative-cancellation contract for long-running simulations:
//! a tripped [`CancelToken`] stops every engine within one
//! [`CHECK_STRIDE`] of steps, the result carries the best-so-far
//! partial trace flagged `cancelled`, and a `None`/untripped token is
//! bit-identical to the token-free path.
//!
//! [`CancelToken`]: vase_budget::CancelToken
//! [`CHECK_STRIDE`]: vase_budget::CHECK_STRIDE

use std::collections::BTreeMap;

use vase_budget::{CancelToken, CHECK_STRIDE};
use vase_library::{ComponentKind, Netlist, PlacedComponent, SourceRef};
use vase_sim::{AdaptiveConfig, CompiledNetlist, CompiledSim, SimConfig, Stimulus};
use vase_vhif::{BlockKind, SignalFlowGraph, VhifDesign};

fn stim(entries: &[(&str, Stimulus)]) -> BTreeMap<String, Stimulus> {
    entries.iter().map(|(n, s)| (n.to_string(), *s)).collect()
}

/// y' = w0 (x - y): a feedback loop that runs for thousands of steps.
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

/// A small macromodel netlist: x -> summing amp -> integrator -> y.
fn netlist() -> Netlist {
    let mut n = Netlist::new();
    n.push(PlacedComponent {
        kind: ComponentKind::SummingAmp {
            weights: vec![1.0, -1.0],
        },
        inputs: vec![SourceRef::External("x".into()), SourceRef::Component(1)],
        implements: vec![],
        label: "sum".into(),
    });
    n.push(PlacedComponent {
        kind: ComponentKind::Integrator {
            weights: vec![1_000.0],
            initial: 0.0,
        },
        inputs: vec![SourceRef::Component(0)],
        implements: vec![],
        label: "int".into(),
    });
    n.outputs.push(("y".into(), SourceRef::Component(1)));
    n
}

const STRIDE: usize = CHECK_STRIDE as usize;

#[test]
fn pre_cancelled_scalar_session_stops_within_one_stride() {
    let design = rc_lowpass(1_000.0);
    let inputs = stim(&[("x", Stimulus::sine(0.5, 300.0))]);
    // 5000 steps: far beyond one stride.
    let config = SimConfig::new(1e-6, 5e-3);
    let plan = CompiledSim::new(&design, &inputs, &config).expect("compiles");

    let token = CancelToken::new();
    token.cancel();
    let mut session = plan.batch_replicated(1);
    session.set_cancel_token(token);
    session.run();
    let result = session.into_results().pop().expect("one lane");
    assert!(result.cancelled, "pre-cancelled run must be flagged");
    assert!(
        result.time.len() <= STRIDE,
        "stopped after {} samples, expected at most one stride ({STRIDE})",
        result.time.len()
    );
}

#[test]
fn untripped_token_is_bit_identical_to_token_free_run() {
    let design = rc_lowpass(1_000.0);
    let inputs = stim(&[("x", Stimulus::sine(0.5, 300.0))]);
    let config = SimConfig::new(1e-5, 5e-3);
    let plan = CompiledSim::new(&design, &inputs, &config).expect("compiles");

    let bare = plan.run();
    let mut session = plan.batch_replicated(1);
    session.set_cancel_token(CancelToken::new());
    session.run();
    let mut tokened = session.into_results().pop().expect("one lane");
    assert!(!tokened.cancelled);
    tokened.cancelled = bare.cancelled; // only possible difference
    assert_eq!(tokened, bare);
}

#[test]
fn pre_cancelled_batch_session_stops_within_one_stride() {
    let design = rc_lowpass(1_000.0);
    let inputs = stim(&[("x", Stimulus::sine(0.5, 300.0))]);
    let config = SimConfig::new(1e-6, 5e-3);
    let plan = CompiledSim::new(&design, &inputs, &config).expect("compiles");

    let token = CancelToken::new();
    token.cancel();
    let mut batch = plan.batch_replicated(4);
    batch.set_cancel_token(token);
    batch.run();
    for (l, result) in batch.into_results().into_iter().enumerate() {
        assert!(result.cancelled, "lane {l} must be flagged cancelled");
        assert!(result.time.len() <= STRIDE, "lane {l}: {} samples", result.time.len());
    }
}

#[test]
fn pre_cancelled_adaptive_batch_stops_within_one_stride() {
    let design = rc_lowpass(1_000.0);
    let inputs = stim(&[("x", Stimulus::sine(0.5, 300.0))]);
    let config = SimConfig::new(1e-6, 5e-3);
    let plan = CompiledSim::new(&design, &inputs, &config).expect("compiles");

    let token = CancelToken::new();
    token.cancel();
    let mut batch = plan.batch_replicated(2);
    batch.set_cancel_token(token);
    let stats = batch.run_adaptive(&AdaptiveConfig::default());
    assert_eq!(stats.accepted, 0, "pre-cancelled adaptive run must accept no steps");
    for (l, result) in batch.into_results().into_iter().enumerate() {
        assert!(result.cancelled, "lane {l} must be flagged cancelled");
        assert!(result.time.len() <= STRIDE, "lane {l}: {} samples", result.time.len());
    }
}

#[test]
fn pre_cancelled_netlist_run_stops_within_one_stride() {
    let n = netlist();
    let stimuli = stim(&[("x", Stimulus::sine(1.0, 200.0))]);
    let plan =
        CompiledNetlist::new(&n, &stimuli, &[], &SimConfig::new(1e-6, 5e-3)).expect("compiles");

    let token = CancelToken::new();
    token.cancel();
    let result = plan.run_with_cancel(Some(&token));
    assert!(result.cancelled);
    assert!(result.time.len() <= STRIDE, "{} samples", result.time.len());

    // And a None token is bit-identical to the plain run.
    assert_eq!(plan.run_with_cancel(None), plan.run());
}

#[test]
fn pre_cancelled_netlist_batch_stops_within_one_stride() {
    let n = netlist();
    let stimuli = stim(&[("x", Stimulus::sine(1.0, 200.0))]);
    let plan =
        CompiledNetlist::new(&n, &stimuli, &[], &SimConfig::new(1e-6, 5e-3)).expect("compiles");

    let token = CancelToken::new();
    token.cancel();
    let factors = vec![vec![1.0; plan.param_count()]; 4];
    let mut batch = plan.batch_session(&factors);
    batch.set_cancel_token(token);
    batch.run();
    for (l, result) in batch.into_results().into_iter().enumerate() {
        assert!(result.cancelled, "lane {l} must be flagged cancelled");
        assert!(result.time.len() <= STRIDE, "lane {l}: {} samples", result.time.len());
    }
}

#[test]
fn token_tripped_mid_run_keeps_best_so_far_prefix() {
    // Run a prefix without a token, then resume with a tripped token:
    // the already-recorded samples must survive into the result.
    let design = rc_lowpass(1_000.0);
    let inputs = stim(&[("x", Stimulus::sine(0.5, 300.0))]);
    let config = SimConfig::new(1e-6, 5e-3);
    let plan = CompiledSim::new(&design, &inputs, &config).expect("compiles");

    let reference = plan.run();
    let token = CancelToken::new();
    let mut session = plan.batch_replicated(1);
    session.set_cancel_token(token.clone());
    for _ in 0..700 {
        session.step();
    }
    token.cancel();
    session.run();
    let result = session.into_results().pop().expect("one lane");
    assert!(result.cancelled);
    assert!(result.time.len() >= 700, "prefix lost: {} samples", result.time.len());
    assert!(
        result.time.len() <= 700 + STRIDE,
        "overran the stride: {} samples",
        result.time.len()
    );
    // The partial trace is a bitwise prefix of the full run.
    let y_partial = result.trace("y").expect("trace");
    let y_full = reference.trace("y").expect("trace");
    assert_eq!(y_partial, &y_full[..y_partial.len()]);
}
