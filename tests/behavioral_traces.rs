//! Bit-level pin of the behavioral (VHIF) engine: for every design of
//! the corpus specs at `-O0` and `-O2`, the `simulate_design` run's
//! traces (name, sample count and an FNV-1a hash of the raw `f64` bits);
//! the six Table 1 runs over their `tests/simulation.rs` windows and
//! stimuli; one injected run that recovers by step halving and one that
//! aborts with a partial trace; one two-lane adaptive RKF45 run; and one
//! frequency sweep of the biquad. Any change to a block's arithmetic,
//! the RK4 or RKF45 stepping, the FSM walk, the stimulus evaluation or
//! the fault handling shows up as a diff against the committed table.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test -p vase --test behavioral_traces
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use vase::flow::{synthesize_source, FlowOptions, SynthesizedDesign};
use vase::sim::{
    frequency_response, log_sweep, simulate_design, AdaptiveConfig, CompiledSim, FaultInjection,
    SimConfig, SimError, SimResult, Stimulus,
};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root")
}

/// 64-bit FNV-1a over the little-endian bytes of each sample's bits.
fn fnv1a(samples: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in samples {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn write_result(out: &mut String, result: &SimResult) {
    writeln!(out, "  time n={} fnv={:016x}", result.time.len(), fnv1a(&result.time))
        .expect("write");
    for (name, samples) in &result.traces {
        writeln!(out, "  trace {name} n={} fnv={:016x}", samples.len(), fnv1a(samples))
            .expect("write");
    }
    writeln!(
        out,
        "  fault={:?} recovered={} cancelled={}",
        result.fault, result.recovered_steps, result.cancelled
    )
    .expect("write");
}

/// Stimuli for `d`: the named entry of `known` where there is one, else
/// a 0.5 V, 1 kHz sine for every input the plan reports missing (the
/// bootstrap `netlist_traces.rs` uses).
fn stimuli_for(
    d: &SynthesizedDesign,
    config: &SimConfig,
    known: &[(&str, Stimulus)],
) -> BTreeMap<String, Stimulus> {
    let mut stimuli: BTreeMap<String, Stimulus> =
        known.iter().map(|(n, s)| (n.to_string(), *s)).collect();
    loop {
        match CompiledSim::new(&d.vhif, &stimuli, config) {
            Ok(_) => return stimuli,
            Err(SimError::MissingStimulus { name }) => {
                stimuli.insert(name, Stimulus::sine(0.5, 1_000.0));
            }
            Err(e) => panic!("{}: plan failed to compile: {e}", d.entity),
        }
    }
}

fn synthesize(label: &str, source: &str, opt_level: u8) -> Vec<SynthesizedDesign> {
    let options = FlowOptions { opt_level, ..FlowOptions::default() };
    synthesize_source(source, &options).unwrap_or_else(|e| panic!("{label}: {e}"))
}

/// The corpus half: one `simulate_design` run per design and level.
fn corpus_table() -> String {
    let config = SimConfig::new(1e-5, 2e-3);
    let mut out = String::new();
    for (name, _, source) in vase::benchmarks::corpus() {
        for level in [0u8, 2] {
            for d in &synthesize(name, source, level) {
                writeln!(out, "# {name} -O{level} {}", d.entity).expect("write");
                let stimuli = stimuli_for(d, &config, &[]);
                let result = simulate_design(&d.vhif, &stimuli, &config).expect("simulates");
                write_result(&mut out, &result);
            }
        }
    }
    out
}

/// The Table 1 half: each application over the window and stimuli
/// `tests/simulation.rs` uses for it (the runs `netlist_traces.rs`
/// pins at the netlist level).
fn table1_table() -> String {
    let sine = Stimulus::sine;
    let constant = |level| Stimulus::Constant { level };
    let clock = Stimulus::Pulse { low: 0.0, high: 0.5, period: 1e-3, duty: 0.5 };
    let runs = [
        (
            "receiver fig8",
            vase::benchmarks::RECEIVER.source,
            SimConfig::new(1e-6, 3e-3),
            vec![("line", sine(0.8, 1_000.0)), ("local", sine(0.2, 1_000.0))],
        ),
        (
            "receiver small-signal",
            vase::benchmarks::RECEIVER.source,
            SimConfig::new(1e-6, 2e-3),
            vec![("line", sine(0.05, 1_000.0)), ("local", constant(0.0))],
        ),
        (
            "function generator",
            vase::benchmarks::FUNCTION_GENERATOR.source,
            SimConfig::new(1e-5, 8e-3),
            vec![],
        ),
        (
            "missile",
            vase::benchmarks::MISSILE.source,
            SimConfig::new(1e-3, 20.0),
            vec![("thrust", constant(1.0)), ("dragk", constant(0.5))],
        ),
        (
            "iterative",
            vase::benchmarks::ITERATIVE.source,
            SimConfig::new(1e-3, 30.0),
            vec![("target", constant(0.5))],
        ),
        (
            "power meter",
            vase::benchmarks::POWER_METER.source,
            SimConfig::new(1e-5, 5e-3),
            vec![("vsens", constant(1.0)), ("isens", constant(0.25)), ("clk", clock)],
        ),
    ];
    let mut out = String::new();
    for (label, source, config, known) in runs {
        for d in &synthesize(label, source, 0) {
            writeln!(out, "# {label} {} dt={:e} t_end={:e}", d.entity, config.dt, config.t_end)
                .expect("write");
            let stimuli = stimuli_for(d, &config, &known);
            let result = simulate_design(&d.vhif, &stimuli, &config).expect("simulates");
            write_result(&mut out, &result);
        }
    }
    out
}

/// The fault half: injected NaNs on the receiver, once transient (the
/// step-halving retry recovers) and once persistent (the run aborts
/// with a partial trace).
fn fault_table() -> String {
    let d = &synthesize("receiver", vase::benchmarks::RECEIVER.source, 0)[0];
    let mut out = String::new();
    for (label, injection) in [
        ("transient_nan(0xFA57, 0.05)", FaultInjection::transient_nan(0xFA57, 0.05)),
        ("persistent_nan(0xFA57, 0.01)", FaultInjection::persistent_nan(0xFA57, 0.01)),
    ] {
        let mut config = SimConfig::new(1e-5, 2e-3);
        config.fault_injection = Some(injection);
        writeln!(out, "# receiver {} {label}", d.entity).expect("write");
        let stimuli = stimuli_for(d, &config, &[]);
        let result = simulate_design(&d.vhif, &stimuli, &config).expect("simulates");
        if injection.persistent {
            assert!(result.fault.is_some(), "a persistent fault must abort the run");
            assert!(
                !result.time.is_empty() && result.time.len() < 201,
                "the abort keeps a partial trace ({} samples)",
                result.time.len()
            );
        } else {
            assert!(result.fault.is_none(), "transient faults recover: {:?}", result.fault);
            assert!(result.recovered_steps > 0, "the injection must fire");
        }
        write_result(&mut out, &result);
    }
    out
}

/// One adaptive RKF45 run of the missile at two lanes that differ in
/// thrust: the step statistics and each lane's traces.
fn adaptive_table() -> String {
    let d = &synthesize("missile", vase::benchmarks::MISSILE.source, 0)[0];
    let config = SimConfig::new(1e-3, 2.0);
    let known = [("thrust", Stimulus::Constant { level: 1.0 }), ("dragk", Stimulus::Constant {
        level: 0.5,
    })];
    let stimuli = stimuli_for(d, &config, &known);
    let plan = CompiledSim::new(&d.vhif, &stimuli, &config).expect("compiles");
    let thrust = plan.stimulus_index("thrust").expect("thrust is stimulated");
    let mut weak = plan.stimuli().to_vec();
    weak[thrust] = Stimulus::Constant { level: 0.5 };
    let lanes = [plan.batch_lane(plan.stimuli().to_vec()), plan.batch_lane(weak)];
    let mut session = plan.batch_session(&lanes);
    let stats = session.run_adaptive(&AdaptiveConfig::default());
    let mut out = String::new();
    writeln!(out, "# missile {} adaptive lanes=2 {stats:?}", d.entity).expect("write");
    for (l, result) in session.into_results().iter().enumerate() {
        writeln!(out, " lane {l}").expect("write");
        write_result(&mut out, result);
    }
    out
}

/// One frequency sweep of the biquad's lowpass output: the bits of each
/// point's gain and phase.
fn sweep_table() -> String {
    let (name, _, source) = vase::benchmarks::CORPUS_EXTRA[0];
    let d = &synthesize(name, source, 0)[0];
    let freqs = log_sweep(100.0, 10_000.0, 9);
    let points = frequency_response(&d.vhif, "vin", "lowpass", 1.0, &freqs, &BTreeMap::new())
        .expect("sweeps");
    let mut out = String::new();
    writeln!(out, "# {name} {} frequency_response vin -> lowpass", d.entity).expect("write");
    for p in &points {
        writeln!(
            out,
            "  f={:016x} gain={:016x} phase={:016x}",
            p.frequency_hz.to_bits(),
            p.gain.to_bits(),
            p.phase_rad.to_bits()
        )
        .expect("write");
    }
    out
}

/// Compare `got` with the committed snapshot, or rewrite it under
/// `UPDATE_SNAPSHOTS`.
fn check_snapshot(got: &str) {
    let path = repo_root().join("tests/snapshots/sim/behavioral_traces.txt");
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        fs::create_dir_all(path.parent().expect("parent")).expect("snapshot dir");
        fs::write(&path, got).expect("write snapshot");
        return;
    }
    let want = fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing {}; run with UPDATE_SNAPSHOTS=1", path.display()));
    if want != got {
        let diff: Vec<String> = want
            .lines()
            .zip(got.lines())
            .filter(|(w, g)| w != g)
            .map(|(w, g)| format!("- {w}\n+ {g}"))
            .collect();
        panic!(
            "behavioral_traces.txt changed: {} line(s) differ, {} lines expected, {} got\n{}",
            diff.len(),
            want.lines().count(),
            got.lines().count(),
            diff.join("\n")
        );
    }
}

#[test]
fn behavioral_traces_match_the_committed_table() {
    let mut got = corpus_table();
    got.push_str(&table1_table());
    got.push_str(&fault_table());
    got.push_str(&adaptive_table());
    got.push_str(&sweep_table());
    check_snapshot(&got);
}
