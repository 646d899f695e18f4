//! Bit-level pin of the macromodel (netlist) engine: for every design of
//! the corpus specs at `-O0` and `-O2`, the scalar run's traces (name,
//! sample count and an FNV-1a hash of the raw `f64` bits), and the
//! Monte Carlo yield report at 8 and at 3 lanes plus one run with an
//! injected lane fault; then the five Table 1 applications over their
//! full `tests/simulation.rs` windows, scalar only. Any change to a
//! component's transfer function, the RK4 arithmetic, the stimulus
//! evaluation, the fault scan or the yield scoring shows up as a diff
//! against the committed table.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test -p vase --test netlist_traces
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use vase::flow::{synthesize_source, FlowOptions, SynthesizedDesign};
use vase::sim::{
    monte_carlo_netlist, CompiledNetlist, MonteCarloConfig, SimConfig, SimError, SimResult,
    Stimulus,
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
/// bootstrap `lane_corpus.rs` uses).
fn stimuli_for(
    d: &SynthesizedDesign,
    config: &SimConfig,
    known: &[(&str, Stimulus)],
) -> BTreeMap<String, Stimulus> {
    let mut stimuli: BTreeMap<String, Stimulus> =
        known.iter().map(|(n, s)| (n.to_string(), *s)).collect();
    loop {
        match CompiledNetlist::new(
            &d.synthesis.netlist,
            &stimuli,
            &d.synthesis.control_bindings,
            config,
        ) {
            Ok(_) => return stimuli,
            Err(SimError::MissingStimulus { name }) => {
                stimuli.insert(name, Stimulus::sine(0.5, 1_000.0));
            }
            Err(e) => panic!("{}: plan failed to compile: {e}", d.entity),
        }
    }
}

/// The corpus half: scalar traces and yield reports per design.
fn corpus_table() -> String {
    let config = SimConfig::new(1e-5, 2e-3);
    let mut out = String::new();
    for (name, _, source) in vase::benchmarks::corpus() {
        for level in [0u8, 2] {
            let options = FlowOptions { opt_level: level, ..FlowOptions::default() };
            let designs = synthesize_source(source, &options)
                .unwrap_or_else(|e| panic!("{name} -O{level}: {e}"));
            for d in &designs {
                writeln!(out, "# {name} -O{level} {}", d.entity).expect("write");
                let stimuli = stimuli_for(d, &config, &[]);
                let plan = CompiledNetlist::new(
                    &d.synthesis.netlist,
                    &stimuli,
                    &d.synthesis.control_bindings,
                    &config,
                )
                .expect("compiles");
                let nominal = plan.run();
                write_result(&mut out, &nominal);
                // The declared ranges, plus the nominal envelope of every
                // other recorded trace, so perturbed samples both pass
                // and fail.
                let mut ranges = d.value_ranges.clone();
                for trace in nominal.traces.keys() {
                    if let Some(envelope) = nominal.range(trace) {
                        ranges.entry(trace.clone()).or_insert(envelope);
                    }
                }
                let mc = MonteCarloConfig {
                    samples: 64,
                    tolerance: 0.02,
                    seed: 0x5EED,
                    lanes: 8,
                    inject: None,
                };
                for (label, cfg) in [
                    ("lanes=8", mc),
                    ("lanes=3", MonteCarloConfig { lanes: 3, ..mc }),
                    ("inject=(3,10)", MonteCarloConfig { inject: Some((3, 10)), ..mc }),
                ] {
                    let report = monte_carlo_netlist(&plan, &ranges, &cfg);
                    writeln!(out, "  mc {label} {report:?}").expect("write");
                }
            }
        }
    }
    out
}

/// The Table 1 half: each application's netlist over the window and
/// stimuli `tests/simulation.rs` uses for it.
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
        let designs = synthesize_source(source, &FlowOptions::default())
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        for d in &designs {
            writeln!(out, "# {label} {} dt={:e} t_end={:e}", d.entity, config.dt, config.t_end)
                .expect("write");
            let stimuli = stimuli_for(d, &config, &known);
            let plan = CompiledNetlist::new(
                &d.synthesis.netlist,
                &stimuli,
                &d.synthesis.control_bindings,
                &config,
            )
            .expect("compiles");
            write_result(&mut out, &plan.run());
        }
    }
    out
}

/// Compare `got` with the committed snapshot, or rewrite it under
/// `UPDATE_SNAPSHOTS`.
fn check_snapshot(got: &str) {
    let path = repo_root().join("tests/snapshots/sim/netlist_traces.txt");
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
            "netlist_traces.txt changed: {} line(s) differ, {} lines expected, {} got\n{}",
            diff.len(),
            want.lines().count(),
            got.lines().count(),
            diff.join("\n")
        );
    }
}

#[test]
fn netlist_traces_match_the_committed_table() {
    let mut got = corpus_table();
    got.push_str(&table1_table());
    check_snapshot(&got);
}
