//! The generated-corpus oracle for the VHIF pass pipeline: what `-O2`
//! may change and what it may not.
//!
//! * **Mapped cost.** For the shipped sources, the first [`GENERATED`]
//!   designs of `tests/support/generator.rs` and the first [`MUTANTS`]
//!   `vase-fuzz` mutants at the smoke seed, each row records, at `-O0`
//!   and at `-O2`, every architecture's mapped op-amp count and the bit
//!   pattern of its estimated area (or the stage that rejected the
//!   source), against the committed `tests/snapshots/opt/mapped.txt`.
//!   A pass may be deleted only if this table does not move.
//! * **Traces.** Every generated design that compiles is simulated
//!   behaviorally before and after the `-O2` pipeline, and every
//!   output-port trace must match bit for bit.
//!
//! Regenerate the table after an intentional change with:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test -p vase-bench --test opt_oracle
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use vase::flow::{synthesize_source, FlowError, FlowOptions};
use vase::sim::{simulate_design, SimConfig, Stimulus};
use vase::vhif::{BlockKind, PassManager};
use vase_bench::mutants::{build_mutant, corpus, SMOKE_SEED};

#[path = "../../../tests/support/generator.rs"]
mod generator;

use generator::generate;

/// How many generated designs both checks cover.
const GENERATED: u64 = 500;

/// How many mutants the table covers.
const MUTANTS: usize = 512;

fn pin_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/snapshots/opt/mapped.txt")
}

/// One row per architecture and level: op amps and area bits, or the
/// stage whose error stopped the flow.
fn pin_source(name: &str, source: &str, out: &mut String) {
    for level in [0u8, 2] {
        let options = FlowOptions { opt_level: level, ..FlowOptions::default() };
        match synthesize_source(source, &options) {
            Ok(designs) => {
                for d in &designs {
                    let s = &d.synthesis;
                    writeln!(
                        out,
                        "{name} -O{level} {}: opamps={} area={:016x}",
                        d.entity,
                        s.netlist.opamp_count(),
                        s.estimate.area_m2.to_bits()
                    )
                    .expect("write");
                }
            }
            Err(e) => {
                let stage = match e {
                    FlowError::Frontend(_) => "frontend",
                    FlowError::Compile(_) => "compile",
                    FlowError::Verify(_) => "verify",
                    FlowError::Map(_) => "map",
                };
                writeln!(out, "{name} -O{level}: {stage} error").expect("write");
            }
        }
    }
}

fn table() -> String {
    let specs = corpus();
    let mut out = String::new();
    for (name, source) in &specs {
        pin_source(name, source, &mut out);
    }
    for seed in 0..GENERATED {
        pin_source(&format!("gen/{seed}"), &generate(seed), &mut out);
    }
    for i in 0..MUTANTS {
        let (pick, mutant) = build_mutant(&specs, SMOKE_SEED, i);
        pin_source(&format!("mutant {i} of {}", specs[pick].0), &mutant, &mut out);
    }
    out
}

#[test]
fn mapped_cost_matches_the_pin_at_o0_and_o2() {
    let got = table();
    let path = pin_path();
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(&path, &got).expect("write pin");
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("{}: {e}; regenerate with UPDATE_SNAPSHOTS=1", path.display())
    });
    let diffs: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .take(10)
        .map(|(w, g)| format!("- {w}\n+ {g}"))
        .collect();
    assert!(
        want == got,
        "mapped cost changed ({} vs {} rows):\n{}",
        want.lines().count(),
        got.lines().count(),
        diffs.join("\n")
    );
}

#[test]
fn output_traces_are_bit_identical_at_o0_and_o2() {
    let config = SimConfig::new(1e-5, 2e-3);
    let stimuli: BTreeMap<String, Stimulus> = ["x0", "x1", "z0", "z1"]
        .into_iter()
        .map(|n| (n.to_owned(), Stimulus::sine(0.5, 1_000.0)))
        .chain([(
            "s".to_owned(),
            Stimulus::Pulse { low: 0.0, high: 1.0, period: 5e-4, duty: 0.5 },
        )])
        .collect();
    let mut simulated = 0;
    for seed in 0..GENERATED {
        let Ok(designs) = vase::compile_source(&generate(seed)) else { continue };
        for (entity, raw, _) in designs {
            let mut opt = raw.clone();
            PassManager::for_opt_level(2).run(&mut opt);
            let base = simulate_design(&raw, &stimuli, &config);
            let fast = simulate_design(&opt, &stimuli, &config);
            let (base, fast) = match (base, fast) {
                (Ok(base), Ok(fast)) => (base, fast),
                (base, fast) => {
                    assert_eq!(
                        base.err().map(|e| e.to_string()),
                        fast.err().map(|e| e.to_string()),
                        "gen/{seed} {entity}: only one level simulates"
                    );
                    continue;
                }
            };
            assert_eq!(base.time, fast.time, "gen/{seed} {entity}: time axis");
            assert_eq!(base.fault, fast.fault, "gen/{seed} {entity}: fault");
            let ports = raw.graphs.iter().flat_map(|g| g.iter()).filter_map(|(_, b)| {
                match &b.kind {
                    BlockKind::Output { name } => Some(name.clone()),
                    _ => None,
                }
            });
            for port in ports {
                let a = base.trace(&port).unwrap_or_else(|| panic!("gen/{seed}: no {port}"));
                let b = fast.trace(&port).unwrap_or_else(|| panic!("gen/{seed}: lost {port}"));
                assert!(
                    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits()),
                    "gen/{seed} {entity}: trace {port} differs after -O2"
                );
            }
            simulated += 1;
        }
    }
    assert!(simulated > 300, "only {simulated} generated designs simulated");
}
