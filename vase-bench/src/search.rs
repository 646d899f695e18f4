//! `search_heavy`: generated PI-controller cascades of 8–11 stages,
//! mapped with the exact and the guided search strategy.
//!
//! Mapping takes over 98% of each 15–200 ms unit and the search visits
//! 5k–40k nodes, so this workload isolates the architecture generator
//! while still entering through VASS source. Every round maps the same
//! sources, in an order drawn from the seed, so each unit's median is
//! taken over repeats of one input; both strategies see the same
//! source, so their covers must cost the same.

use std::time::Instant;

use vase::archgen::{MapperConfig, SearchStrategy};
use vase::flow::{synthesize_unit, FlowOptions, FlowReport};

use crate::expected::Expected;
use crate::harness::{self, CheckUnit, Measured, RunConfig};
use crate::layers::{self, same_area};
use crate::rng::Rng;
use crate::trace::Tracer;

const STAGES: [usize; 4] = [8, 9, 10, 11];
const SMOKE_STAGES: [usize; 2] = [3, 4];
const STRATEGIES: [SearchStrategy; 2] = [SearchStrategy::Exact, SearchStrategy::Guided];
/// The fixed stream the cascades' gains are drawn from.
const GAINS_SEED: u64 = 0x5eed_9a17;

/// A VASS cascade of `stages` PI-controller stages; stage `k` is
/// `e_k == setpoint - y_{k-1}; i_k'dot == ki*e_k; u_k == kp*e_k + i_k;
/// y_k'dot == kg*u_k`, with `y_0` the `meas` input and gains from `rng`.
pub fn cascade_source(stages: usize, rng: &mut Rng) -> String {
    let mut decls = String::new();
    let mut stmts = String::new();
    for k in 1..=stages {
        decls.push_str(&format!(
            "  quantity e{k} : real;\n  quantity i{k} : real;\n  quantity u{k} : real;\n  quantity y{k} : real;\n"
        ));
        let prev = if k == 1 {
            "meas".to_owned()
        } else {
            format!("y{}", k - 1)
        };
        let kp = rng.f64_in(0.5, 4.0);
        let ki = rng.f64_in(5.0, 50.0);
        let kg = rng.f64_in(0.25, 2.0);
        stmts.push_str(&format!(
            "  e{k} == setpoint - {prev};\n  i{k}'dot == {ki:.4} * e{k};\n  \
             u{k} == {kp:.4} * e{k} + i{k};\n  y{k}'dot == {kg:.4} * u{k};\n"
        ));
    }
    format!(
        "entity pi_cascade is\n  port (\n    quantity setpoint : in real is voltage range -1.0 to 1.0;\n    \
         quantity meas : in real is voltage range -1.0 to 1.0;\n    \
         quantity yout : out real is voltage\n  );\nend entity;\n\n\
         architecture behavioral of pi_cascade is\n{decls}begin\n{stmts}  yout == y{stages};\nend architecture;\n"
    )
}

fn options(strategy: SearchStrategy) -> FlowOptions {
    FlowOptions {
        mapper: MapperConfig {
            strategy,
            ..MapperConfig::default()
        },
        opt_level: 2,
        ..FlowOptions::default()
    }
}

fn key(stages: usize, strategy: SearchStrategy) -> String {
    format!(
        "pi{stages}.{}",
        if strategy == SearchStrategy::Exact {
            "exact"
        } else {
            "guided"
        }
    )
}

/// Status, budget and op-amp checks; returns the design's area.
fn check(report: &FlowReport, opamps: usize) -> Result<f64, String> {
    if let Some(e) = &report.error {
        return Err(format!("{}: {e}", report.name));
    }
    if report.budget_exhausted() {
        return Err(format!("{}: mapping budget exhausted", report.name));
    }
    let got: usize = report
        .designs
        .iter()
        .map(|d| d.synthesis.netlist.opamp_count())
        .sum();
    if got != opamps {
        return Err(format!("{}: {got} op amps, expected {opamps}", report.name));
    }
    Ok(report
        .designs
        .iter()
        .map(|d| d.synthesis.estimate.area_m2)
        .sum())
}

/// The sources: one cascade per size, shared by both strategies. Their
/// gains are the same for every seed, because the search's effort
/// depends on them (visited nodes moved by ±2% from seed to seed), and
/// that would read as noise between runs; the seed orders the units.
fn sources(sizes: &[usize]) -> Vec<String> {
    let mut rng = Rng::new(GAINS_SEED, 100);
    sizes.iter().map(|&s| cascade_source(s, &mut rng)).collect()
}

/// Run the workload.
pub fn run(cfg: &RunConfig, tr: &mut Tracer, m: &mut Measured) -> Result<(), String> {
    let per_stage = Expected::load()?.opamps_per_stage;
    let sizes: &[usize] = if cfg.smoke { &SMOKE_STAGES } else { &STAGES };
    let setup = |_: &mut Tracer, m: &mut Measured| {
        let sources = sources(sizes);
        // Warm-up: the smallest unit, untimed.
        let report = synthesize_unit(
            "warm-up",
            &sources[0],
            &options(SearchStrategy::Exact),
            None,
            None,
        );
        m.check(check(&report, sizes[0] * per_stage).map(drop));
        Ok(sources)
    };
    let mut order: Vec<(usize, SearchStrategy)> = (0..sizes.len())
        .flat_map(|i| STRATEGIES.map(|s| (i, s)))
        .collect();
    let mut rng = Rng::new(cfg.seed, 2);
    let round = |tr: &mut Tracer, m: &mut Measured, sources: &mut Vec<String>, _| {
        rng.shuffle(&mut order);
        let mut areas = vec![[None, None]; sizes.len()];
        for (n, &(i, strategy)) in order.iter().enumerate() {
            if n > 0 {
                m.probe();
            }
            let k = key(sizes[i], strategy);
            let unit = (sizes[i] * 2 + usize::from(strategy == SearchStrategy::Guided)) as u64;
            let opts = options(strategy);
            let (report, ms) = if tr.on() {
                match layers::run_pair(tr, &mut m.pairs, &k, unit, &sources[i], &opts) {
                    Ok((report, _, ms)) => (report, ms),
                    Err(e) => {
                        m.check(Err(e));
                        continue;
                    }
                }
            } else {
                let t = Instant::now();
                let report = synthesize_unit(&k, &sources[i], &opts, None, None);
                (report, t.elapsed().as_secs_f64() * 1e3)
            };
            m.sample(&k, ms);
            let area = check(&report, sizes[i] * per_stage);
            areas[i][usize::from(strategy == SearchStrategy::Guided)] = area.as_ref().ok().copied();
            m.check(area.map(drop));
        }
        for (i, pair) in areas.iter().enumerate() {
            if let [Some(exact), Some(guided)] = *pair {
                m.check(if same_area(exact, guided) {
                    Ok(())
                } else {
                    Err(format!(
                        "pi{}: guided area {guided:e} m2 != exact {exact:e} m2",
                        sizes[i]
                    ))
                });
            }
        }
        Ok(order.len())
    };
    let sources = harness::measure(cfg, tr, m, setup, round)?;
    m.rss_mb.extend(harness::peak_rss_mb("self"));

    // Guided≡exact is checked per round above, so the output checks
    // only replay the exact covers.
    let checks: Vec<CheckUnit<'_>> = sizes
        .iter()
        .zip(&sources)
        .map(|(&s, source)| CheckUnit {
            key: key(s, SearchStrategy::Exact),
            source,
            options: options(SearchStrategy::Exact),
        })
        .collect();
    harness::check_outputs(cfg, tr, m, &checks, false);
    Ok(())
}
