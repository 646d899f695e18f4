//! Monte Carlo tolerance / yield analysis over lane-batched netlist
//! simulation.
//!
//! The paper sizes components against the MOSIS process corners; this
//! module asks the statistical version of that question: with every
//! gain-setting component (resistor-ratio gains, integrator RC weights,
//! reference levels) perturbed by a uniform manufacturing tolerance,
//! what fraction of produced circuits still keeps every annotated
//! quantity inside its declared range?
//!
//! Sampling is deterministic and lane-packing independent: all
//! perturbation factors are drawn up front, in sample order, from one
//! [`SplitMix64`](crate::fault) stream seeded by
//! [`MonteCarloConfig::seed`] — changing the batch width reorders only
//! the *execution*, never the factors, so yields are reproducible
//! across lane configurations.

use std::collections::BTreeMap;

use crate::batch::MAX_LANES;
use crate::fault::SplitMix64;
use crate::netlist_sim::CompiledNetlist;

/// Configuration of one Monte Carlo yield run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloConfig {
    /// Number of perturbed circuit samples to simulate.
    pub samples: usize,
    /// Fractional component tolerance: each perturbable parameter is
    /// scaled by a factor drawn uniformly from
    /// `[1 - tolerance, 1 + tolerance]`. Must be in `[0, 1)` so gains
    /// keep their sign.
    pub tolerance: f64,
    /// Seed of the perturbation stream.
    pub seed: u64,
    /// Batch width (clamped to `1..=`[`MAX_LANES`]).
    pub lanes: usize,
    /// Demo/test hook: poison `(sample, step)` with a NaN so that lane
    /// degrades to a partial trace (the batch keeps going).
    pub inject: Option<(usize, usize)>,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            samples: 256,
            tolerance: 0.05,
            seed: 0x5EED,
            lanes: MAX_LANES,
            inject: None,
        }
    }
}

/// Yield of one range-annotated trace across the sample population.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceYield {
    /// Trace name.
    pub name: String,
    /// Declared range lower bound.
    pub lo: f64,
    /// Declared range upper bound.
    pub hi: f64,
    /// Samples whose trace stayed inside the range (non-degraded only).
    pub passed: usize,
    /// Samples whose trace left the range.
    pub failed: usize,
}

/// Aggregate result of [`monte_carlo_netlist`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct YieldReport {
    /// Total simulated samples.
    pub samples: usize,
    /// Samples that completed and kept every checked trace in range.
    pub passed: usize,
    /// Samples retired early with a [`crate::SimFault`] (partial
    /// trace); these count against yield but not against any one trace.
    pub degraded: usize,
    /// Per-trace breakdown, for every declared range that matches a
    /// recorded trace.
    pub traces: Vec<TraceYield>,
}

impl YieldReport {
    /// Overall yield in `[0, 1]` (1.0 for an empty run).
    pub fn yield_fraction(&self) -> f64 {
        if self.samples == 0 {
            1.0
        } else {
            self.passed as f64 / self.samples as f64
        }
    }
}

/// Run `cfg.samples` tolerance-perturbed transients of `plan` through
/// lane batches and score each against the declared `ranges`
/// (`name -> (lo, hi)`, e.g. from `'range lo to hi` annotations).
///
/// A sample *passes* when it completes without a fault and every
/// checked trace stays within its range (with a small absolute slack
/// proportional to the bound magnitudes, so exact-rail designs are not
/// failed on representation noise). The batches fold each checked
/// trace into per-lane in-range flags as they step, so no trace is
/// stored.
///
/// # Panics
///
/// Panics when `cfg.tolerance` is not in `[0, 1)`.
pub fn monte_carlo_netlist(
    plan: &CompiledNetlist<'_>,
    ranges: &BTreeMap<String, (f64, f64)>,
    cfg: &MonteCarloConfig,
) -> YieldReport {
    assert!(
        cfg.tolerance.is_finite() && (0.0..1.0).contains(&cfg.tolerance),
        "tolerance must be a fraction in [0, 1), got {}",
        cfg.tolerance
    );
    let np = plan.param_count();
    // All factors up front, in sample order: lane packing cannot change
    // which perturbation a sample receives.
    let mut rng = SplitMix64::new(cfg.seed);
    let factors: Vec<Vec<f64>> = (0..cfg.samples)
        .map(|_| {
            (0..np)
                .map(|_| 1.0 + cfg.tolerance * (2.0 * rng.next_f64() - 1.0))
                .collect()
        })
        .collect();

    // Every declared range that names a recorded trace, with its
    // slackened bounds.
    let mut scored = Vec::new();
    let mut checks = Vec::new();
    for (name, &(lo, hi)) in ranges {
        if let Some(slot) = plan.trace_slot(name) {
            let eps = 1e-9 * (1.0 + lo.abs().max(hi.abs()));
            checks.push((slot, lo - eps, hi + eps));
            scored.push(TraceYield {
                name: name.clone(),
                lo,
                hi,
                passed: 0,
                failed: 0,
            });
        }
    }

    let lanes = cfg.lanes.clamp(1, MAX_LANES);
    let mut report = YieldReport {
        samples: cfg.samples,
        ..YieldReport::default()
    };
    let mut base = 0;
    while base < cfg.samples {
        let chunk = (cfg.samples - base).min(lanes);
        let mut session = plan.scoring_session(&factors[base..base + chunk], checks.clone());
        if let Some((sample, step)) = cfg.inject {
            if (base..base + chunk).contains(&sample) {
                session.inject_lane_fault(sample - base, step);
            }
        }
        session.run();
        for l in 0..chunk {
            if session.fault(l).is_some() {
                report.degraded += 1;
                continue;
            }
            let mut sample_ok = true;
            for (c, ty) in scored.iter_mut().enumerate() {
                if session.in_range(l, c) {
                    ty.passed += 1;
                } else {
                    ty.failed += 1;
                    sample_ok = false;
                }
            }
            if sample_ok {
                report.passed += 1;
            }
        }
        base += chunk;
    }

    // Only a run with a completed sample reports per-trace yields.
    if report.degraded < report.samples {
        report.traces = scored;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_sim::SimConfig;
    use crate::stimulus::Stimulus;
    use vase_library::{ComponentKind, Netlist, PlacedComponent, SourceRef};

    fn amp_netlist(gain: f64) -> Netlist {
        let mut n = Netlist::new();
        n.push(PlacedComponent {
            kind: ComponentKind::InvertingAmp { gain },
            inputs: vec![SourceRef::External("x".into())],
            implements: vec![],
            label: "a".into(),
        });
        n.outputs.push(("y".into(), SourceRef::Component(0)));
        n
    }

    fn stims() -> BTreeMap<String, Stimulus> {
        [("x".to_string(), Stimulus::sine(1.0, 100.0))]
            .into_iter()
            .collect()
    }

    #[test]
    fn zero_tolerance_has_full_yield_inside_range() {
        let n = amp_netlist(-1.5);
        let plan =
            CompiledNetlist::new(&n, &stims(), &[], &SimConfig::new(1e-4, 0.02)).expect("compiles");
        let ranges = [("y".to_string(), (-2.0, 2.0))].into_iter().collect();
        let cfg = MonteCarloConfig {
            samples: 16,
            tolerance: 0.0,
            ..MonteCarloConfig::default()
        };
        let report = monte_carlo_netlist(&plan, &ranges, &cfg);
        assert_eq!(report.passed, 16);
        assert_eq!(report.degraded, 0);
        assert!((report.yield_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tolerance_failures_show_up_in_trace_yield() {
        // Gain -1.5 into a ±1.5 range: any upward gain perturbation
        // pushes the peak out of range, so yield must drop below 1.
        let n = amp_netlist(-1.5);
        let plan =
            CompiledNetlist::new(&n, &stims(), &[], &SimConfig::new(1e-4, 0.02)).expect("compiles");
        let ranges = [("y".to_string(), (-1.5, 1.5))].into_iter().collect();
        let cfg = MonteCarloConfig {
            samples: 64,
            tolerance: 0.1,
            ..MonteCarloConfig::default()
        };
        let report = monte_carlo_netlist(&plan, &ranges, &cfg);
        assert!(report.passed < 64, "some gain-up samples must fail");
        assert!(report.passed > 0, "some gain-down samples must pass");
        let ty = &report.traces[0];
        assert_eq!(ty.name, "y");
        assert_eq!(ty.passed + ty.failed, 64);
    }

    #[test]
    fn yield_is_independent_of_lane_packing() {
        let n = amp_netlist(-1.5);
        let plan =
            CompiledNetlist::new(&n, &stims(), &[], &SimConfig::new(1e-4, 0.02)).expect("compiles");
        let ranges: BTreeMap<String, (f64, f64)> =
            [("y".to_string(), (-1.5, 1.5))].into_iter().collect();
        let base = MonteCarloConfig {
            samples: 33,
            tolerance: 0.1,
            ..MonteCarloConfig::default()
        };
        let wide = monte_carlo_netlist(&plan, &ranges, &MonteCarloConfig { lanes: 8, ..base });
        let narrow = monte_carlo_netlist(&plan, &ranges, &MonteCarloConfig { lanes: 1, ..base });
        let odd = monte_carlo_netlist(&plan, &ranges, &MonteCarloConfig { lanes: 3, ..base });
        assert_eq!(wide, narrow);
        assert_eq!(wide, odd);
    }

    #[test]
    fn injected_lane_degrades_without_failing_the_batch() {
        let n = amp_netlist(-1.0);
        let plan =
            CompiledNetlist::new(&n, &stims(), &[], &SimConfig::new(1e-4, 0.02)).expect("compiles");
        let ranges = [("y".to_string(), (-2.0, 2.0))].into_iter().collect();
        let cfg = MonteCarloConfig {
            samples: 8,
            tolerance: 0.01,
            inject: Some((3, 50)),
            ..MonteCarloConfig::default()
        };
        let report = monte_carlo_netlist(&plan, &ranges, &cfg);
        assert_eq!(report.degraded, 1, "exactly the poisoned sample degrades");
        assert_eq!(report.passed, 7, "its batchmates complete and pass");
    }

    /// The trace-based rule: record every lane's traces and pass a
    /// sample's trace when every recorded sample lies in
    /// `[lo − eps, hi + eps]`; the scored set comes from the first
    /// completed sample, so a run with none scores no trace.
    fn trace_rule_yield(
        plan: &CompiledNetlist<'_>,
        ranges: &BTreeMap<String, (f64, f64)>,
        cfg: &MonteCarloConfig,
    ) -> YieldReport {
        let mut rng = SplitMix64::new(cfg.seed);
        let factors: Vec<Vec<f64>> = (0..cfg.samples)
            .map(|_| {
                (0..plan.param_count())
                    .map(|_| 1.0 + cfg.tolerance * (2.0 * rng.next_f64() - 1.0))
                    .collect()
            })
            .collect();
        let lanes = cfg.lanes.clamp(1, MAX_LANES);
        let mut report = YieldReport {
            samples: cfg.samples,
            ..YieldReport::default()
        };
        let mut scored: Option<Vec<TraceYield>> = None;
        for (i, chunk) in factors.chunks(lanes).enumerate() {
            let base = i * lanes;
            let mut session = plan.batch_session(chunk);
            if let Some((sample, step)) = cfg.inject {
                if (base..base + chunk.len()).contains(&sample) {
                    session.inject_lane_fault(sample - base, step);
                }
            }
            session.run();
            for result in session.into_results() {
                if result.fault.is_some() {
                    report.degraded += 1;
                    continue;
                }
                let scored = scored.get_or_insert_with(|| {
                    ranges
                        .iter()
                        .filter(|(name, _)| result.traces.contains_key(*name))
                        .map(|(name, &(lo, hi))| TraceYield {
                            name: name.clone(),
                            lo,
                            hi,
                            passed: 0,
                            failed: 0,
                        })
                        .collect()
                });
                let mut sample_ok = true;
                for ty in scored.iter_mut() {
                    let eps = 1e-9 * (1.0 + ty.lo.abs().max(ty.hi.abs()));
                    let ok = result.traces[&ty.name]
                        .iter()
                        .all(|&v| v >= ty.lo - eps && v <= ty.hi + eps);
                    if ok {
                        ty.passed += 1;
                    } else {
                        ty.failed += 1;
                        sample_ok = false;
                    }
                }
                if sample_ok {
                    report.passed += 1;
                }
            }
        }
        report.traces = scored.unwrap_or_default();
        report
    }

    #[test]
    fn yield_scored_while_stepping_equals_the_trace_rule() {
        // An amplifier into an integrator: `y` fails on gain-up
        // samples, `z` on gain-down ones, the stimulus `x` never, and
        // `ghost` names no recorded trace.
        let mut n = amp_netlist(-1.5);
        n.push(PlacedComponent {
            kind: ComponentKind::Integrator {
                weights: vec![100.0],
                initial: 0.0,
            },
            inputs: vec![SourceRef::Component(0)],
            implements: vec![],
            label: "i".into(),
        });
        n.outputs.push(("z".into(), SourceRef::Component(1)));
        let plan =
            CompiledNetlist::new(&n, &stims(), &[], &SimConfig::new(1e-4, 0.02)).expect("compiles");
        let ranges: BTreeMap<String, (f64, f64)> = [
            ("ghost".to_string(), (-1.0, 1.0)),
            ("x".to_string(), (-1.0, 1.0)),
            ("y".to_string(), (-1.5, 1.5)),
            ("z".to_string(), (-0.5, 0.45)),
        ]
        .into_iter()
        .collect();
        let base = MonteCarloConfig {
            samples: 20,
            tolerance: 0.1,
            ..MonteCarloConfig::default()
        };
        for lanes in [1, 3, 8] {
            for inject in [None, Some((4, 30))] {
                let cfg = MonteCarloConfig {
                    lanes,
                    inject,
                    ..base
                };
                let report = monte_carlo_netlist(&plan, &ranges, &cfg);
                assert_eq!(
                    report,
                    trace_rule_yield(&plan, &ranges, &cfg),
                    "{lanes} lanes, {inject:?}"
                );
                assert_eq!(report.degraded, usize::from(inject.is_some()));
                let names: Vec<&str> = report.traces.iter().map(|t| t.name.as_str()).collect();
                assert_eq!(names, ["x", "y", "z"]);
                for ty in &report.traces {
                    assert_eq!(ty.passed + ty.failed, 20 - report.degraded, "{}", ty.name);
                }
                assert!(report.traces[1].failed > 0 && report.traces[2].failed > 0);
                assert!(report.passed > 0);
            }
        }
        // Every sample degraded: nothing is scored.
        let cfg = MonteCarloConfig {
            samples: 1,
            inject: Some((0, 3)),
            ..base
        };
        let report = monte_carlo_netlist(&plan, &ranges, &cfg);
        assert_eq!(report, trace_rule_yield(&plan, &ranges, &cfg));
        assert_eq!((report.degraded, report.passed), (1, 0));
        assert!(report.traces.is_empty());
    }
}
