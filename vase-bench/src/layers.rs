//! The synthesis flow driven one layer at a time from outside, and the
//! layer contracts every workload's outputs are checked against.
//!
//! [`synthesize_layered`] calls each layer's public function in the
//! order `vase::flow::synthesize_unit` does, each under its own span.
//! [`run_pair`] runs it beside the real `synthesize_unit` on the same
//! unit and requires identical netlists, so the decomposition cannot
//! drift from the flow it measures.

use std::collections::BTreeMap;
use std::time::Instant;

use vase::archgen::{synthesize_with_cache, MapperConfig, SearchStrategy, SynthesisResult};
use vase::compiler::compile;
use vase::estimate::Estimator;
use vase::flow::{derive_constraints, synthesize_unit, FlowOptions, FlowReport};
use vase::frontend::{analyze, parse_design_file};
use vase::library::Netlist;
use vase::sim::{CompiledNetlist, SimConfig, SimError, SimResult, Stimulus};
use vase::vhif::verify::verify_design;
use vase::vhif::{PassManager, VhifDesign};

use crate::stats;
use crate::trace::{Span, Tracer};

/// One architecture as the layered flow produced it.
pub struct LayeredArch {
    /// Entity name.
    pub entity: String,
    /// The VHIF design after passes and range annotation.
    pub vhif: VhifDesign,
    /// The estimator mapping ran against.
    pub estimator: Estimator,
    /// The mapping result.
    pub synthesis: SynthesisResult,
}

/// One mapping call under a span named for its search strategy, with
/// its node counts.
fn map_traced(
    tr: &mut Tracer,
    unit: u64,
    vhif: &VhifDesign,
    estimator: &Estimator,
    mapper: &MapperConfig,
) -> Result<SynthesisResult, String> {
    let (span, nodes) = match mapper.strategy {
        SearchStrategy::Exact => ("archgen.map.exact", "archgen.nodes.exact"),
        SearchStrategy::Guided => ("archgen.map.guided", "archgen.nodes.guided"),
    };
    let synthesis = tr
        .span(span, unit, || {
            synthesize_with_cache(vhif, estimator, mapper, None, None)
        })
        .map_err(|e| format!("map: {e}"))?;
    let stats = &synthesis.stats;
    tr.count(nodes, stats.visited_nodes as f64);
    tr.count(
        "archgen.pruned",
        (stats.pruned_nodes + stats.memo_pruned) as f64,
    );
    Ok(synthesis)
}

/// The flow of `synthesize_unit`, one public layer call per span, all
/// inside one `core.unit` span.
pub fn synthesize_layered(
    tr: &mut Tracer,
    unit: u64,
    source: &str,
    options: &FlowOptions,
) -> Result<Vec<LayeredArch>, String> {
    let outer = tr.open_span("core.unit", unit);
    let result = layered_flow(tr, unit, source, options);
    tr.close_span(outer);
    result
}

fn layered_flow(
    tr: &mut Tracer,
    unit: u64,
    source: &str,
    options: &FlowOptions,
) -> Result<Vec<LayeredArch>, String> {
    tr.count("frontend.bytes", source.len() as f64);
    let design = tr
        .span("frontend.parse", unit, || parse_design_file(source))
        .map_err(|e| format!("parse: {e}"))?;
    let analyzed = tr
        .span("frontend.sema", unit, || analyze(&design))
        .map_err(|e| format!("sema: {e}"))?;
    let compiled = tr
        .span("compiler.lower", unit, || compile(&analyzed))
        .map_err(|e| format!("compile: {e}"))?;
    let mut out = Vec::new();
    for mut arch in compiled.designs {
        tr.count("compiler.blocks", arch.vhif.stats().blocks as f64);
        if options.opt_level > 0 {
            let passes = tr.span("vhif.passes", unit, || {
                PassManager::for_opt_level(options.opt_level).run(&mut arch.vhif)
            });
            tr.count(
                "vhif.pass_rewrites",
                passes.iter().map(|p| p.rewrites).sum::<usize>() as f64,
            );
        }
        let source_arch = analyzed.architecture_of(&arch.entity);
        if options.verify {
            let mut diags = tr.span("vhif.verify", unit, || {
                let ctx = source_arch
                    .map(vase::lint::verify_context)
                    .unwrap_or_default();
                verify_design(&arch.vhif, &ctx)
            });
            diags.extend(
                tr.span("analyze.range", unit, || {
                    vase::analyze::annotate_design_bounds_with_cancel(&mut arch.vhif, None)
                })
                .diagnostics,
            );
            if options.deny_warnings {
                vase::diag::deny_warnings(&mut diags);
            }
            if vase::diag::has_errors(&diags) {
                return Err(format!("verify: {}", vase::diag::summary(&diags)));
            }
        }
        let estimator = tr.span("core.constraints", unit, || {
            Estimator::new(match source_arch {
                Some(a) if options.derive_constraints => derive_constraints(a, options.constraints),
                _ => options.constraints,
            })
        });
        let synthesis = map_traced(tr, unit, &arch.vhif, &estimator, &options.mapper)?;
        out.push(LayeredArch {
            entity: arch.entity,
            vhif: arch.vhif,
            estimator,
            synthesis,
        });
    }
    Ok(out)
}

/// One unit's timings from [`run_pair`], ms.
#[derive(Default)]
struct PairSamples {
    /// `synthesize_unit` wall time.
    unit: Vec<f64>,
    /// The layered flow's `core.unit` span.
    layered: Vec<f64>,
    /// The sum of the layer spans inside it.
    layers: Vec<f64>,
}

/// Wall times of the two sides of every [`run_pair`] call, per unit key
/// (recorded in traced runs).
#[derive(Default)]
pub struct PairTimes {
    samples: BTreeMap<String, PairSamples>,
    /// Whether the next pair runs `synthesize_unit` first.
    flip: bool,
}

impl PairTimes {
    /// Median over units of (`synthesize_unit` time − the layer spans'
    /// sum), in µs: the flow's own bookkeeping (panic isolation,
    /// diagnostics, constraint derivation).
    pub fn flow_overhead_us(&self) -> f64 {
        let values: Vec<f64> = self
            .samples
            .values()
            .map(|p| (stats::median(&p.unit) - stats::median(&p.layers)) * 1e3)
            .collect();
        if values.is_empty() {
            return 0.0;
        }
        stats::median(&values)
    }

    /// Per unit, layered flow time / `synthesize_unit` time.
    fn ratios(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples
            .values()
            .map(|p| stats::median(&p.layered) / stats::median(&p.unit))
    }

    /// Geometric mean over units of (layered flow time /
    /// `synthesize_unit` time): how much the spans and the split calls
    /// cost, and the check that the layers account for the flow.
    pub fn layered_over_unit(&self) -> f64 {
        let ratios: Vec<f64> = self.ratios().collect();
        if ratios.is_empty() {
            return 0.0;
        }
        stats::geomean(&ratios)
    }

    /// The largest per-unit |layered − synthesize_unit| / synthesize_unit.
    pub fn worst_layered_deviation(&self) -> f64 {
        self.ratios().map(|r| (r - 1.0).abs()).fold(0.0, f64::max)
    }

    /// Distinct units timed both ways.
    pub fn units(&self) -> usize {
        self.samples.len()
    }
}

/// Run the layered flow and the real `synthesize_unit` on one unit,
/// time both, and require identical netlists. Returns the real flow's
/// report, the layered architectures, and `synthesize_unit`'s wall
/// time in ms.
pub fn run_pair(
    tr: &mut Tracer,
    pairs: &mut PairTimes,
    key: &str,
    unit: u64,
    source: &str,
    options: &FlowOptions,
) -> Result<(FlowReport, Vec<LayeredArch>, f64), String> {
    let timed_unit = || {
        let t = Instant::now();
        let report = synthesize_unit(key, source, options, None, None);
        (report, t.elapsed().as_secs_f64() * 1e3)
    };
    // Whichever side runs second finds the caches warm, so the sides
    // take turns going first.
    pairs.flip = !pairs.flip;
    let early = pairs.flip.then(timed_unit);
    let first_span = tr.spans().len();
    let layered = synthesize_layered(tr, unit, source, options);
    let (report, unit_ms) = early.unwrap_or_else(timed_unit);
    let layered = layered?;
    if let Some(e) = &report.error {
        return Err(format!("{key}: {e}"));
    }
    let same = layered.len() == report.designs.len()
        && layered.iter().zip(&report.designs).all(|(l, d)| {
            l.entity == d.entity
                && l.synthesis.netlist == d.synthesis.netlist
                && l.synthesis.control_bindings == d.synthesis.control_bindings
        });
    if !same {
        return Err(format!(
            "{key}: layered netlist differs from synthesize_unit's"
        ));
    }
    if let Some((root, inner)) = tr.spans()[first_span..].split_first() {
        let ms = |s: &Span| s.end.saturating_sub(s.start).as_secs_f64() * 1e3;
        let layers = inner
            .iter()
            .filter(|s| s.parent == Some(first_span) && !s.name.starts_with("core."))
            .map(ms)
            .sum();
        let entry = pairs.samples.entry(key.to_owned()).or_default();
        entry.unit.push(unit_ms);
        entry.layered.push(ms(root));
        entry.layers.push(layers);
    }
    Ok((report, layered, unit_ms))
}

/// Relative equality for areas that should be bit-identical but cross
/// a decimal text encoding on the serve path.
pub fn same_area(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// Guided search must find a cover of the same cost as the exact
/// search that produced `arch` (the guided≡exact contract).
pub fn check_guided(
    tr: &mut Tracer,
    unit: u64,
    arch: &LayeredArch,
    mapper: &MapperConfig,
) -> Result<(), String> {
    let guided = MapperConfig {
        strategy: SearchStrategy::Guided,
        ..*mapper
    };
    let g = map_traced(tr, unit, &arch.vhif, &arch.estimator, &guided)?;
    let exact = &arch.synthesis;
    if g.netlist.opamp_count() != exact.netlist.opamp_count()
        || !same_area(g.estimate.area_m2, exact.estimate.area_m2)
    {
        return Err(format!(
            "{}: guided cover ({} op amps, {:e} m2) differs from exact ({} op amps, {:e} m2)",
            arch.entity,
            g.netlist.opamp_count(),
            g.estimate.area_m2,
            exact.netlist.opamp_count(),
            exact.estimate.area_m2
        ));
    }
    Ok(())
}

/// Lanes run per batch in the lanes≡scalar check.
const CHECK_LANES: usize = 4;

/// Stimuli for every external input of `netlist`: the named entry of
/// `known` where there is one, else a 0.5 V constant (positive, so log
/// amplifiers stay in their domain).
pub fn stimuli_for(
    netlist: &Netlist,
    bindings: &[(String, usize)],
    config: &SimConfig,
    known: &BTreeMap<&str, Stimulus>,
) -> BTreeMap<String, Stimulus> {
    let mut stimuli = BTreeMap::new();
    while let Err(SimError::MissingStimulus { name }) =
        CompiledNetlist::new(netlist, &stimuli, bindings, config)
    {
        let stimulus = known
            .get(name.as_str())
            .copied()
            .unwrap_or(Stimulus::Constant { level: 0.5 });
        if stimuli.insert(name, stimulus).is_some() {
            break;
        }
    }
    stimuli
}

/// A completed transient: no fault, `steps + 1` samples, every sample
/// finite.
pub fn check_transient(what: &str, result: &SimResult, steps: usize) -> Result<(), String> {
    if let Some(fault) = &result.fault {
        return Err(format!("{what}: simulation fault: {fault}"));
    }
    if result.time.len() != steps + 1 {
        return Err(format!(
            "{what}: {} samples, expected {}",
            result.time.len(),
            steps + 1
        ));
    }
    if let Some((name, _)) = result
        .traces
        .iter()
        .find(|(_, v)| v.iter().any(|x| !x.is_finite()))
    {
        return Err(format!("{what}: trace `{name}` has a non-finite sample"));
    }
    Ok(())
}

/// Simulate `netlist` with the scalar engine and with a batch of
/// nominal lanes: the transient must complete cleanly and every lane
/// must reproduce the scalar traces bit for bit (the lanes≡scalar
/// contract).
pub fn check_lanes(
    tr: &mut Tracer,
    unit: u64,
    what: &str,
    netlist: &Netlist,
    bindings: &[(String, usize)],
    stimuli: &BTreeMap<String, Stimulus>,
    config: &SimConfig,
) -> Result<(), String> {
    let plan = tr
        .span("sim.plan", unit, || {
            CompiledNetlist::new(netlist, stimuli, bindings, config)
        })
        .map_err(|e| format!("{what}: {e}"))?;
    let scalar = tr.span("sim.scalar", unit, || plan.run());
    tr.count("sim.scalar_steps", plan.steps() as f64);
    tr.count("sim.recovered_steps", scalar.recovered_steps as f64);
    check_transient(what, &scalar, plan.steps())?;
    let factors = vec![vec![1.0; plan.param_count()]; CHECK_LANES];
    let lanes = tr.span("sim.lanes", unit, || {
        let mut batch = plan.batch_session(&factors);
        batch.run();
        batch.into_results()
    });
    tr.count("sim.lane_steps", (plan.steps() * CHECK_LANES) as f64);
    if lanes.iter().any(|lane| *lane != scalar) {
        return Err(format!(
            "{what}: a nominal batch lane differs from the scalar run"
        ));
    }
    Ok(())
}
