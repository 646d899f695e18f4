//! Corpus-wide wide-simulation acceptance: for **every** shipped
//! specification (the 5 Table 1 applications plus the 6 extended-corpus
//! examples), a lane of a batched simulation is bit-identical to the
//! scalar engine — at the behavioral (VHIF) level and at the netlist
//! level, whose batches reach [`MAX_NETLIST_LANES`] lanes — and Monte
//! Carlo yield analysis completes with a scored report.
//!
//! [`MAX_NETLIST_LANES`]: vase::sim::MAX_NETLIST_LANES

use std::collections::BTreeMap;

use vase::flow::{monte_carlo_designs, synthesize_source, FlowOptions, SynthesizedDesign};
use vase::sim::{
    CompiledNetlist, CompiledSim, MonteCarloConfig, SimConfig, SimError, Stimulus,
    MAX_NETLIST_LANES,
};

/// Build a stimulus map by retrying: every [`SimError::MissingStimulus`]
/// gets a small sine until the design compiles (the same bootstrap the
/// benchmark harness uses — specs disagree on input names).
fn auto_stimuli(
    mut build: impl FnMut(&BTreeMap<String, Stimulus>) -> Result<(), SimError>,
) -> BTreeMap<String, Stimulus> {
    let mut stimuli = BTreeMap::new();
    loop {
        match build(&stimuli) {
            Ok(()) => return stimuli,
            Err(SimError::MissingStimulus { name }) => {
                stimuli.insert(name, Stimulus::sine(0.5, 1_000.0));
            }
            Err(e) => panic!("corpus spec failed to compile a plan: {e}"),
        }
    }
}

fn synthesized_corpus() -> Vec<(&'static str, Vec<SynthesizedDesign>)> {
    vase::benchmarks::corpus()
        .into_iter()
        .map(|(name, _, source)| {
            let designs = synthesize_source(source, &FlowOptions::default())
                .unwrap_or_else(|e| panic!("{name} failed to synthesize: {e}"));
            (name, designs)
        })
        .collect()
}

/// Behavioral batch widths: every width up to [`MAX_LANES`] whose lane
/// split differs. Widths 1, 4 and 8 step with their stride known at
/// compile time; 2, 3, 5 and 7 walk a runtime stride in 4-, 2- and
/// 1-lane kernels.
///
/// [`MAX_LANES`]: vase::sim::MAX_LANES
const LANE_WIDTHS: [usize; 7] = [1, 2, 3, 4, 5, 7, 8];

#[test]
fn every_spec_behavioral_batch_matches_scalar_bitwise() {
    let config = SimConfig::new(1e-5, 2e-3);
    for (name, designs) in synthesized_corpus() {
        for d in &designs {
            let stimuli =
                auto_stimuli(|s| CompiledSim::new(&d.vhif, s, &config).map(|_| ()));
            let plan = CompiledSim::new(&d.vhif, &stimuli, &config).expect("compiles");
            let scalar = plan.run();
            for lanes in LANE_WIDTHS {
                let mut batch = plan.batch_replicated(lanes);
                batch.run();
                for (l, result) in batch.into_results().into_iter().enumerate() {
                    assert_eq!(
                        result, scalar,
                        "{name}: lane {l} of a {lanes}-wide batch diverged from scalar"
                    );
                }
            }
        }
    }
}

#[test]
fn every_spec_netlist_batch_matches_scalar_bitwise() {
    let config = SimConfig::new(1e-5, 2e-3);
    for (name, designs) in synthesized_corpus() {
        for d in &designs {
            let bindings = &d.synthesis.control_bindings;
            let stimuli = auto_stimuli(|s| {
                CompiledNetlist::new(&d.synthesis.netlist, s, bindings, &config).map(|_| ())
            });
            let plan = CompiledNetlist::new(&d.synthesis.netlist, &stimuli, bindings, &config)
                .expect("compiles");
            let scalar = plan.run();
            // 12 lanes: an 8-lane span and a 4-lane chunk left over.
            for lanes in [1, 4, 8, 12, MAX_NETLIST_LANES] {
                let factors = vec![vec![1.0; plan.param_count()]; lanes];
                let mut batch = plan.batch_session(&factors);
                batch.run();
                for (l, result) in batch.into_results().into_iter().enumerate() {
                    assert_eq!(
                        result, scalar,
                        "{name}: netlist lane {l} of {lanes} diverged from scalar"
                    );
                }
            }
        }
    }
}

#[test]
fn every_spec_completes_monte_carlo_yield_analysis() {
    let config = SimConfig::new(1e-5, 2e-3);
    let mc = MonteCarloConfig {
        samples: 16,
        tolerance: 0.02,
        ..MonteCarloConfig::default()
    };
    for (name, designs) in synthesized_corpus() {
        let bindings_probe = &designs[0];
        let stimuli = auto_stimuli(|s| {
            CompiledNetlist::new(
                &bindings_probe.synthesis.netlist,
                s,
                &bindings_probe.synthesis.control_bindings,
                &config,
            )
            .map(|_| ())
        });
        for (i, report) in monte_carlo_designs(&designs, &stimuli, &config, &mc)
            .into_iter()
            .enumerate()
        {
            let report = report
                .unwrap_or_else(|e| panic!("{name} design {i}: Monte Carlo failed: {e}"));
            assert_eq!(report.samples, 16, "{name}");
            assert_eq!(report.degraded, 0, "{name}: nominal run must not degrade");
            // Every scored trace accounts for every non-degraded sample.
            for ty in &report.traces {
                assert_eq!(ty.passed + ty.failed, 16, "{name}: trace {}", ty.name);
            }
        }
    }
}
