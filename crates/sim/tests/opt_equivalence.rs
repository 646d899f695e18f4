//! Optimization equivalence suite: the `-O2` pass pipeline must be
//! semantics-preserving at the bit level. Each test builds a design
//! with deliberately redundant structure — unreachable blocks for
//! `dce`, literal-fed arithmetic for `const-fold`, and duplicate blocks
//! and gain-1.0 copies that no pass may break — simulates it before
//! and after `PassManager::for_opt_level(2)`, and asserts the traces
//! are `==` (bit-identical `f64`s, not approximately equal).

use std::collections::BTreeMap;

use vase_sim::{simulate_design, SimConfig, Stimulus};
use vase_vhif::{BlockKind, PassManager, SignalFlowGraph, VhifDesign};

fn stim(entries: &[(&str, Stimulus)]) -> BTreeMap<String, Stimulus> {
    entries.iter().map(|(n, s)| (n.to_string(), *s)).collect()
}

/// Run the full `-O2` pipeline on a copy; assert it actually rewrote
/// something (a vacuously-equal test proves nothing) and shrank the
/// design, then return the optimized copy.
fn optimized(d: &VhifDesign) -> VhifDesign {
    let mut opt = d.clone();
    let stats = PassManager::for_opt_level(2).run(&mut opt);
    let rewrites: usize = stats.iter().map(|s| s.rewrites).sum();
    assert!(rewrites > 0, "redundancy was not exercised: {stats:#?}");
    let before: usize = d.graphs.iter().map(|g| g.len()).sum();
    let after: usize = opt.graphs.iter().map(|g| g.len()).sum();
    assert!(
        after < before,
        "expected a block reduction ({before} -> {after})"
    );
    opt
}

/// The RC lowpass `y' = w0 (x - y)` with redundancy layered on top:
///
/// * the input reaches the subtractor through a gain-1.0 copy,
/// * the output tap is computed twice by identical gain-1.0 scales,
///   one of them unread (`dce` collects it),
/// * a literal product `2 * 3` drives a second output `bias`
///   (`const-fold` collapses the multiply),
/// * a scale hangs off the input with no consumers (`dce` collects it).
fn redundant_rc_lowpass(w0: f64) -> VhifDesign {
    let mut g = SignalFlowGraph::new("rc");
    let x = g.add(BlockKind::Input { name: "x".into() });
    let copy = g.add(BlockKind::Scale { gain: 1.0 });
    let sub = g.add(BlockKind::Sub);
    let integ = g.add(BlockKind::Integrate {
        gain: w0,
        initial: 0.0,
    });
    let tap_a = g.add(BlockKind::Scale { gain: 1.0 });
    let tap_b = g.add(BlockKind::Scale { gain: 1.0 });
    let y = g.add(BlockKind::Output { name: "y".into() });
    let c2 = g.add(BlockKind::Const { value: 2.0 });
    let c3 = g.add(BlockKind::Const { value: 3.0 });
    let mul = g.add(BlockKind::Mul);
    let bias = g.add(BlockKind::Output {
        name: "bias".into(),
    });
    let dead = g.add(BlockKind::Scale { gain: 5.0 });
    g.connect(x, copy, 0).expect("wire");
    g.connect(copy, sub, 0).expect("wire");
    g.connect(integ, sub, 1).expect("wire");
    g.connect(sub, integ, 0).expect("wire");
    g.connect(integ, tap_a, 0).expect("wire");
    g.connect(integ, tap_b, 0).expect("wire");
    g.connect(tap_a, y, 0).expect("wire");
    g.connect(c2, mul, 0).expect("wire");
    g.connect(c3, mul, 1).expect("wire");
    g.connect(mul, bias, 0).expect("wire");
    g.connect(x, dead, 0).expect("wire");
    let _ = tap_b; // identical twin of tap_a, left for dce
    let mut d = VhifDesign::new("t");
    d.graphs.push(g);
    d
}

/// The harmonic oscillator `x'' = -w² x` with a gain-1.0 copy inside
/// the feedback loop, duplicate negators, and an unreachable `Abs`.
fn redundant_oscillator(w: f64) -> VhifDesign {
    let mut g = SignalFlowGraph::new("osc");
    let neg_a = g.add(BlockKind::Scale { gain: -1.0 });
    let neg_b = g.add(BlockKind::Scale { gain: -1.0 });
    let v = g.add(BlockKind::Integrate {
        gain: w,
        initial: 0.0,
    });
    let x = g.add(BlockKind::Integrate {
        gain: w,
        initial: 1.0,
    });
    let loop_copy = g.add(BlockKind::Scale { gain: 1.0 });
    let out = g.add(BlockKind::Output { name: "x".into() });
    let dead = g.add(BlockKind::Abs);
    g.connect(x, loop_copy, 0).expect("wire");
    g.connect(loop_copy, neg_a, 0).expect("wire");
    g.connect(loop_copy, neg_b, 0).expect("wire");
    g.connect(neg_a, v, 0).expect("wire");
    g.connect(v, x, 0).expect("wire");
    g.connect(x, out, 0).expect("wire");
    g.connect(neg_b, dead, 0).expect("wire");
    let mut d = VhifDesign::new("t");
    d.graphs.push(g);
    d
}

#[test]
fn rc_lowpass_traces_are_bit_identical_after_o2() {
    let tau = 1e-3;
    let d = redundant_rc_lowpass(1.0 / tau);
    let opt = optimized(&d);
    let inputs = stim(&[("x", Stimulus::sine(0.5, 300.0))]);
    let config = SimConfig::new(tau / 100.0, 10.0 * tau);
    let base = simulate_design(&d, &inputs, &config).expect("simulates");
    let fast = simulate_design(&opt, &inputs, &config).expect("simulates");
    assert_eq!(base.time, fast.time);
    for name in ["y", "bias"] {
        let a = base.trace(name).expect("trace");
        let b = fast.trace(name).expect("trace survives optimization");
        assert!(
            a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits()),
            "trace {name} diverged after optimization"
        );
    }
    // The folded bias output really is the literal product.
    assert!(fast.trace("bias").expect("trace").iter().all(|v| *v == 6.0));
}

#[test]
fn oscillator_traces_are_bit_identical_after_o2() {
    let f = 50.0;
    let w = 2.0 * std::f64::consts::PI * f;
    let d = redundant_oscillator(w);
    let opt = optimized(&d);
    let period = 1.0 / f;
    let config = SimConfig::new(period / 2_000.0, 3.0 * period);
    let base = simulate_design(&d, &BTreeMap::new(), &config).expect("simulates");
    let fast = simulate_design(&opt, &BTreeMap::new(), &config).expect("simulates");
    assert_eq!(base.time, fast.time);
    let a = base.trace("x").expect("trace");
    let b = fast.trace("x").expect("trace survives optimization");
    assert!(
        a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits()),
        "oscillator trace diverged after optimization"
    );
    // Numerics stay on the analytic solution too, not just self-equal.
    let exact_last = (w * base.time.last().unwrap()).cos();
    assert!((b.last().unwrap() - exact_last).abs() < 1e-7);
}

/// `y = f(k) * x` for a literal `k`: the constant-fed `Log` or
/// `Antilog` the compiler emits for `log(k)` or `exp(k)` of a VASS
/// `constant`.
fn transcendental_of_literal(kind: BlockKind, k: f64) -> VhifDesign {
    let mut g = SignalFlowGraph::new("f");
    let c = g.add(BlockKind::Const { value: k });
    let f = g.add(kind);
    let x = g.add(BlockKind::Input { name: "x".into() });
    let mul = g.add(BlockKind::Mul);
    let y = g.add(BlockKind::Output { name: "y".into() });
    g.connect(c, f, 0).expect("wire");
    g.connect(f, mul, 0).expect("wire");
    g.connect(x, mul, 1).expect("wire");
    g.connect(mul, y, 0).expect("wire");
    let mut d = VhifDesign::new("t");
    d.graphs.push(g);
    d
}

/// Simulate `d` before and after `-O2` and assert `y` is bit-identical.
fn assert_y_survives_o2(d: &VhifDesign) {
    let mut opt = d.clone();
    PassManager::for_opt_level(2).run(&mut opt);
    let inputs = stim(&[("x", Stimulus::sine(0.5, 1_000.0))]);
    let config = SimConfig::new(1e-5, 2e-3);
    let base = simulate_design(d, &inputs, &config).expect("simulates");
    let fast = simulate_design(&opt, &inputs, &config).expect("simulates");
    let a = base.trace("y").expect("trace");
    let b = fast.trace("y").expect("trace survives optimization");
    assert!(
        a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits()),
        "trace y diverged after optimization"
    );
}

#[test]
fn exp_of_a_literal_keeps_the_simulators_bits_after_o2() {
    // The standard library's exp(1.5) is one ulp below the simulator's.
    assert_y_survives_o2(&transcendental_of_literal(BlockKind::Antilog, 1.5));
}

#[test]
fn ln_of_a_literal_keeps_the_simulators_bits_after_o2() {
    // The standard library's ln(3) is one ulp above the simulator's.
    assert_y_survives_o2(&transcendental_of_literal(BlockKind::Log, 3.0));
}

#[test]
fn o0_manager_is_identity() {
    let d = redundant_rc_lowpass(1e3);
    let mut same = d.clone();
    let stats = PassManager::for_opt_level(0).run(&mut same);
    assert!(stats.is_empty());
    assert_eq!(d, same);
}
