//! `corpus_flow`: the eleven shipped specifications at `-O0` and `-O2`,
//! one `synthesize_unit` call per unit, no cover cache.
//!
//! These are real designs, and each unit spends most of its 0.1–0.5 ms
//! in the frontend and compiler, so this workload shows frontend,
//! compiler, VHIF and range-analysis changes while bypassing search.
//! Its `-O2` half is the only place the pass pipeline rewrites anything.

use std::time::Instant;

use vase::flow::{synthesize_unit, FlowOptions, FlowReport};

use crate::expected::Expected;
use crate::harness::{self, CheckUnit, Measured, RunConfig};
use crate::layers;
use crate::rng::Rng;
use crate::trace::Tracer;

const OPT_LEVELS: [u8; 2] = [0, 2];

struct Unit {
    key: String,
    source: &'static str,
    options: FlowOptions,
    opamps: usize,
}

fn check(report: &FlowReport, expected_opamps: usize) -> Result<(), String> {
    if let Some(e) = &report.error {
        return Err(format!("{}: {e}", report.name));
    }
    if report.budget_exhausted() {
        return Err(format!("{}: mapping budget exhausted", report.name));
    }
    let opamps: usize = report
        .designs
        .iter()
        .map(|d| d.synthesis.netlist.opamp_count())
        .sum();
    if opamps != expected_opamps {
        return Err(format!(
            "{}: {opamps} op amps, expected {expected_opamps}",
            report.name
        ));
    }
    Ok(())
}

/// Run the workload.
pub fn run(cfg: &RunConfig, tr: &mut Tracer, m: &mut Measured) -> Result<(), String> {
    let expected = Expected::load()?;
    let setup = |_: &mut Tracer, m: &mut Measured| {
        let mut units = Vec::new();
        for (_, entity, source) in vase::benchmarks::corpus() {
            for level in OPT_LEVELS {
                let opamps = expected
                    .corpus(entity, level)
                    .ok_or_else(|| format!("expected.txt has no entry for `{entity}`"))?;
                let options = FlowOptions {
                    opt_level: level,
                    ..FlowOptions::default()
                };
                units.push(Unit {
                    key: format!("{entity}@O{level}"),
                    source,
                    options,
                    opamps,
                });
            }
        }
        // Warm-up: one untimed pass, so first-touch costs stay in set-up.
        for u in &units {
            m.check(check(
                &synthesize_unit(&u.key, u.source, &u.options, None, None),
                u.opamps,
            ));
        }
        Ok(units)
    };
    let mut rng = Rng::new(cfg.seed, 1);
    let mut order: Vec<usize> = (0..vase::benchmarks::corpus().len() * OPT_LEVELS.len()).collect();
    let round = |tr: &mut Tracer, m: &mut Measured, units: &mut Vec<Unit>, _| {
        rng.shuffle(&mut order);
        for &i in &order {
            let u = &units[i];
            let (outcome, ms) = if tr.on() {
                match layers::run_pair(tr, &mut m.pairs, &u.key, i as u64, u.source, &u.options) {
                    Ok((report, _, ms)) => (check(&report, u.opamps), ms),
                    Err(e) => (Err(e), 0.0),
                }
            } else {
                let t = Instant::now();
                let report = synthesize_unit(&u.key, u.source, &u.options, None, None);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                (check(&report, u.opamps), ms)
            };
            m.sample(&u.key, ms);
            m.check(outcome);
        }
        Ok(order.len())
    };
    let units = harness::measure(cfg, tr, m, setup, round)?;
    m.rss_mb.extend(harness::peak_rss_mb("self"));

    let checks: Vec<CheckUnit<'_>> = units
        .iter()
        .map(|u| CheckUnit {
            key: u.key.clone(),
            source: u.source,
            options: u.options,
        })
        .collect();
    harness::check_outputs(cfg, tr, m, &checks, true);
    Ok(())
}
