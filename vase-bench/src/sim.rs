//! `sim_transient`: run time of the generated circuits, no compile
//! work. Set-up synthesizes the five Table 1 applications; the timed
//! part runs `vase::flow::simulate_designs` transients with the stimuli
//! of `tests/simulation.rs` and `vase::flow::monte_carlo_designs` yield
//! runs of 64 samples at ±2%.
//!
//! It drives the scalar engine and the lane-batched engine side by
//! side, so a change that makes the scalar path a one-lane batch can be
//! compared on both.

use std::collections::BTreeMap;
use std::time::Instant;

use vase::flow::{monte_carlo_designs, simulate_designs, FlowOptions, SynthesizedDesign};
use vase::sim::{
    monte_carlo_netlist, CompiledNetlist, MonteCarloConfig, SimConfig, SimResult, Stimulus,
    SweepConfig, YieldReport,
};

use crate::expected::Expected;
use crate::harness::{self, CheckUnit, Measured, RunConfig};
use crate::layers;
use crate::rng::Rng;
use crate::trace::Tracer;

/// The five applications: benchmark, step, end time (as in
/// `tests/simulation.rs`).
fn table1_apps() -> [(vase::benchmarks::Benchmark, f64, f64); 5] {
    use vase::benchmarks::*;
    [
        (RECEIVER, 1e-6, 3e-3),
        (POWER_METER, 1e-5, 5e-3),
        (MISSILE, 1e-3, 20.0),
        (ITERATIVE, 1e-3, 30.0),
        (FUNCTION_GENERATOR, 1e-5, 8e-3),
    ]
}

/// Monte Carlo tolerance.
const TOLERANCE: f64 = 0.02;

/// One application ready to simulate.
struct App {
    name: &'static str,
    designs: Vec<SynthesizedDesign>,
    stimuli: BTreeMap<String, Stimulus>,
    config: SimConfig,
    steps: usize,
}

#[derive(Clone, Copy, PartialEq)]
enum Engine {
    Scalar,
    Lanes,
}

fn check_scalar(app: &App, results: &[SimResult], clip: f64) -> Result<(), String> {
    for r in results {
        layers::check_transient(app.name, r, app.steps)?;
    }
    if app.name == "telephone" {
        let (lo, hi) = results
            .first()
            .and_then(|r| r.range("earph"))
            .ok_or("receiver: no `earph` trace")?;
        if (hi - clip).abs() > 1e-9 || (lo + clip).abs() > 1e-9 {
            return Err(format!(
                "receiver: earph spans [{lo}, {hi}], expected clipping at ±{clip} V"
            ));
        }
    }
    Ok(())
}

fn check_yield(app: &App, report: &YieldReport, samples: usize) -> Result<(), String> {
    if report.samples != samples || report.degraded != 0 {
        return Err(format!(
            "{}: Monte Carlo ran {} samples with {} degraded, expected {samples} clean",
            app.name, report.samples, report.degraded
        ));
    }
    Ok(())
}

/// One timed operation through the flow's entry points. In a traced
/// run the same operation is then replayed layer by layer (plan build,
/// then stepping) and must give the same result.
fn simulate(
    tr: &mut Tracer,
    unit: u64,
    app: &App,
    engine: Engine,
    mc: &MonteCarloConfig,
    e: &Expected,
) -> (Result<(), String>, f64) {
    let t = Instant::now();
    match engine {
        Engine::Scalar => {
            let results = simulate_designs(
                &app.designs,
                &app.stimuli,
                &app.config,
                &SweepConfig::default(),
            );
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let outcome = results
                .map_err(|err| format!("{}: {err}", app.name))
                .and_then(|r| {
                    check_scalar(app, &r, e.receiver_clip_v)?;
                    replay(tr, unit, app, engine, mc, &r, &[])
                });
            (outcome, ms)
        }
        Engine::Lanes => {
            let reports: Result<Vec<YieldReport>, _> =
                monte_carlo_designs(&app.designs, &app.stimuli, &app.config, mc)
                    .into_iter()
                    .collect();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let outcome = reports
                .map_err(|err| format!("{}: {err}", app.name))
                .and_then(|r| {
                    r.iter()
                        .try_for_each(|y| check_yield(app, y, e.mc_samples))?;
                    replay(tr, unit, app, engine, mc, &[], &r)
                });
            (outcome, ms)
        }
    }
}

fn replay(
    tr: &mut Tracer,
    unit: u64,
    app: &App,
    engine: Engine,
    mc: &MonteCarloConfig,
    scalar: &[SimResult],
    yields: &[YieldReport],
) -> Result<(), String> {
    if !tr.on() {
        return Ok(());
    }
    for (i, d) in app.designs.iter().enumerate() {
        let netlist = &d.synthesis.netlist;
        let plan = tr
            .span("sim.plan", unit, || {
                CompiledNetlist::new(
                    netlist,
                    &app.stimuli,
                    &d.synthesis.control_bindings,
                    &app.config,
                )
            })
            .map_err(|e| format!("{}: {e}", app.name))?;
        let same = match engine {
            Engine::Scalar => {
                let r = tr.span("sim.scalar", unit, || plan.run());
                tr.count("sim.scalar_steps", plan.steps() as f64);
                tr.count("sim.recovered_steps", r.recovered_steps as f64);
                scalar.get(i) == Some(&r)
            }
            Engine::Lanes => {
                let y = tr.span("sim.lanes", unit, || {
                    monte_carlo_netlist(&plan, &d.value_ranges, mc)
                });
                tr.count("sim.lane_steps", (plan.steps() * mc.samples) as f64);
                yields.get(i) == Some(&y)
            }
        };
        if !same {
            return Err(format!(
                "{}: layer-by-layer replay differs from the flow's result",
                app.name
            ));
        }
    }
    Ok(())
}

/// Run the workload.
pub fn run(cfg: &RunConfig, tr: &mut Tracer, m: &mut Measured) -> Result<(), String> {
    let expected = Expected::load()?;
    let known = harness::known_stimuli();
    let options = FlowOptions {
        opt_level: 2,
        ..FlowOptions::default()
    };
    let setup = |tr: &mut Tracer, m: &mut Measured| {
        let mut apps = Vec::new();
        for (i, (bench, dt, t_end)) in table1_apps().into_iter().enumerate() {
            let t_end = if cfg.smoke {
                (t_end / 10.0).max(1e-3)
            } else {
                t_end
            };
            let config = SimConfig::new(dt, t_end);
            let (report, _, _) = layers::run_pair(
                tr,
                &mut m.pairs,
                bench.entity,
                3_000_000 + i as u64,
                bench.source,
                &options,
            )?;
            let d = report
                .designs
                .first()
                .ok_or_else(|| format!("{}: no design", bench.entity))?;
            let stimuli = layers::stimuli_for(
                &d.synthesis.netlist,
                &d.synthesis.control_bindings,
                &config,
                &known,
            );
            let steps = (config.t_end / config.dt).ceil() as usize;
            apps.push(App {
                name: bench.entity,
                designs: report.designs,
                stimuli,
                config,
                steps,
            });
        }
        // Warm-up: one untimed receiver transient.
        let warm = simulate_designs(
            &apps[0].designs,
            &apps[0].stimuli,
            &apps[0].config,
            &SweepConfig::default(),
        );
        m.check(
            warm.map_err(|e| e.to_string())
                .and_then(|r| check_scalar(&apps[0], &r, expected.receiver_clip_v)),
        );
        Ok(apps)
    };
    let mc = MonteCarloConfig {
        samples: expected.mc_samples,
        tolerance: TOLERANCE,
        seed: cfg.seed,
        ..MonteCarloConfig::default()
    };
    let mut order: Vec<(usize, Engine)> = (0..table1_apps().len())
        .flat_map(|i| [(i, Engine::Scalar), (i, Engine::Lanes)])
        .collect();
    let mut rng = Rng::new(cfg.seed, 3);
    let round = |tr: &mut Tracer, m: &mut Measured, apps: &mut Vec<App>, _| {
        rng.shuffle(&mut order);
        for (n, &(i, engine)) in order.iter().enumerate() {
            if n > 0 {
                m.probe();
            }
            let unit = (i * 2 + usize::from(engine == Engine::Lanes)) as u64;
            let (outcome, ms) = simulate(tr, unit, &apps[i], engine, &mc, &expected);
            let key = format!(
                "{}.{}",
                apps[i].name,
                if engine == Engine::Scalar {
                    "scalar"
                } else {
                    "mc"
                }
            );
            m.sample(&key, ms);
            m.check(outcome);
        }
        Ok(order.len())
    };
    harness::measure(cfg, tr, m, setup, round)?;
    m.rss_mb.extend(harness::peak_rss_mb("self"));

    let checks: Vec<CheckUnit<'_>> = table1_apps()
        .iter()
        .map(|(b, _, _)| CheckUnit {
            key: b.entity.to_owned(),
            source: b.source,
            options,
        })
        .collect();
    harness::check_outputs(cfg, tr, m, &checks, true);
    Ok(())
}
