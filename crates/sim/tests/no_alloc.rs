//! The compiled-plan acceptance property: once a [`BatchSession`] or a
//! [`BatchNetlistSession`] exists, stepping it performs **zero heap
//! allocation** — every buffer (block values or slots, RK4 stages, FSM
//! event levels, trace storage) is sized at session creation — and a
//! Monte Carlo yield run requests the same bytes however many steps it
//! takes. Asserted with a counting global allocator.
//!
//! [`BatchSession`]: vase_sim::BatchSession
//! [`BatchNetlistSession`]: vase_sim::BatchNetlistSession

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use vase_library::{ComponentKind, Netlist, PlacedComponent, SourceRef};
use vase_sim::{
    monte_carlo_netlist, CompiledNetlist, CompiledSim, MonteCarloConfig, SimConfig, Stimulus,
};
use vase_vhif::{BlockKind, DataOp, DpExpr, Event, Fsm, SignalFlowGraph, Trigger, VhifDesign};

/// Counts every allocation and reallocation made **by the current
/// thread**, and sums the bytes each requests; frees are not counted
/// (a steady-state step must do neither). The count must be per-thread: the libtest harness runs
/// tests on parallel threads and itself allocates (spawning the next
/// test's thread, buffering output) — a process-global counter races
/// with that activity and flakes, while the stepping loop under test
/// runs entirely on this thread.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Bump the current thread's count and byte sum. `try_with` instead of
/// `with`: the allocator is also called during thread teardown after
/// the thread-locals have been dropped, where `with` would panic.
fn count_one(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

fn bytes() -> usize {
    BYTES.with(Cell::get)
}

/// RC lowpass (integrator feedback) — exercises the continuous path:
/// topological evaluation plus RK4 staging.
fn rc_lowpass_design() -> VhifDesign {
    let mut g = SignalFlowGraph::new("rc");
    let x = g.add(BlockKind::Input { name: "x".into() });
    let sub = g.add(BlockKind::Sub);
    let integ = g.add(BlockKind::Integrate {
        gain: 1_000.0,
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

/// Switch + FSM toggling on `line` crossings — exercises the discrete
/// path: event edge detection, state walking, data-path evaluation.
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

fn assert_batched_steady_state_alloc_free(
    design: &VhifDesign,
    inputs: &[(&str, Stimulus)],
    lanes: usize,
) {
    let inputs: BTreeMap<String, Stimulus> =
        inputs.iter().map(|(n, s)| (n.to_string(), *s)).collect();
    let config = SimConfig::new(1e-5, 10e-3); // 1000 steps
    let plan = CompiledSim::new(design, &inputs, &config).expect("compiles");
    let mut session = plan.batch_replicated(lanes);
    session.step();
    session.step();
    let before = allocations();
    while !session.done() {
        session.step();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state lane-batched stepping must not allocate ({} allocations over {} steps x {lanes} lanes)",
        after - before,
        plan.steps(),
    );
    for result in session.into_results() {
        assert_eq!(result.time.len(), plan.steps() + 1);
    }
}

#[test]
fn continuous_stepping_is_allocation_free() {
    assert_batched_steady_state_alloc_free(
        &rc_lowpass_design(),
        &[("x", Stimulus::sine(1.0, 200.0))],
        1,
    );
}

#[test]
fn batched_continuous_stepping_is_allocation_free() {
    assert_batched_steady_state_alloc_free(
        &rc_lowpass_design(),
        &[("x", Stimulus::sine(1.0, 200.0))],
        8,
    );
}

#[test]
fn batched_fsm_stepping_is_allocation_free() {
    assert_batched_steady_state_alloc_free(
        &fsm_design(),
        &[("line", Stimulus::sine(1.0, 500.0))],
        4,
    );
}

#[test]
fn fsm_stepping_is_allocation_free() {
    // The sine crosses the event threshold repeatedly, so the FSM takes
    // transitions (and rewrites `c1`) throughout the window — the exact
    // path that formerly built a `String` event key per event per step.
    assert_batched_steady_state_alloc_free(
        &fsm_design(),
        &[("line", Stimulus::sine(1.0, 500.0))],
        1,
    );
}

fn place(kind: ComponentKind, inputs: Vec<SourceRef>) -> PlacedComponent {
    PlacedComponent {
        kind,
        inputs,
        implements: vec![],
        label: "c".into(),
    }
}

/// Amplifier, integrator (RK4 stages), zero-cross detector (held
/// state) and antilog amplifier over one sine input.
fn macromodel_netlist() -> Netlist {
    let x = || SourceRef::External("x".into());
    let mut n = Netlist::new();
    n.push(place(ComponentKind::InvertingAmp { gain: -2.0 }, vec![x()]));
    n.push(place(
        ComponentKind::Integrator {
            weights: vec![100.0, -50.0],
            initial: 0.0,
        },
        vec![SourceRef::Component(0), SourceRef::Component(1)],
    ));
    n.push(place(
        ComponentKind::ZeroCrossDetector {
            level: 0.0,
            hysteresis: 0.01,
        },
        vec![x()],
    ));
    n.push(place(
        ComponentKind::AntilogAmp,
        vec![SourceRef::Component(1)],
    ));
    n.outputs.push(("y".into(), SourceRef::Component(1)));
    n.outputs.push(("d".into(), SourceRef::Component(2)));
    n.outputs.push(("e".into(), SourceRef::Component(3)));
    n
}

fn sine_input() -> BTreeMap<String, Stimulus> {
    [("x".to_string(), Stimulus::sine(1.0, 500.0))]
        .into_iter()
        .collect()
}

#[test]
fn netlist_batch_run_is_allocation_free() {
    let netlist = macromodel_netlist();
    let config = SimConfig::new(1e-5, 10e-3); // 1000 steps
    let plan = CompiledNetlist::new(&netlist, &sine_input(), &[], &config).expect("compiles");
    for lanes in [1, 8] {
        let factors = vec![vec![1.0; plan.param_count()]; lanes];
        let mut session = plan.batch_session(&factors);
        let before = allocations();
        session.run();
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "a recording netlist session must not allocate while it runs ({} allocations over {} steps x {lanes} lanes)",
            after - before,
            plan.steps(),
        );
        for result in session.into_results() {
            assert_eq!(result.time.len(), plan.steps() + 1);
        }
    }
}

#[test]
fn monte_carlo_memory_does_not_grow_with_the_step_count() {
    let netlist = macromodel_netlist();
    let ranges: BTreeMap<String, (f64, f64)> = [
        ("y".to_string(), (-1.0, 1.0)),
        ("e".to_string(), (0.0, 2.0)),
    ]
    .into_iter()
    .collect();
    let mc = MonteCarloConfig {
        samples: 16,
        tolerance: 0.05,
        ..MonteCarloConfig::default()
    };
    let requested = |steps: usize| {
        let config = SimConfig::new(1e-5, steps as f64 * 1e-5);
        let plan = CompiledNetlist::new(&netlist, &sine_input(), &[], &config).expect("compiles");
        assert_eq!(plan.steps(), steps);
        let before = bytes();
        let report = monte_carlo_netlist(&plan, &ranges, &mc);
        let used = bytes() - before;
        assert_eq!(report.samples, 16);
        assert_eq!(report.traces.len(), 2);
        used
    };
    let (short, long) = (requested(1_000), requested(10_000));
    assert_eq!(
        short, long,
        "Monte Carlo requested {short} bytes at 1,000 steps and {long} at 10,000"
    );
}
