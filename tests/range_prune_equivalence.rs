//! Equivalence gate for the range-analysis → mapper feedback path.
//!
//! The fixed-point range analysis attaches proven per-block bounds to
//! every verified design (`VhifDesign::bounds`); the mapper consumes
//! them only when `MapperConfig::range_prune` is on. This suite proves
//! the contract over the full 11-spec corpus:
//!
//! * **Off (the default) is bit-identical**: a flow run that attaches
//!   bounds but leaves pruning off produces byte-for-byte the same
//!   netlist and estimate as a run that never attaches bounds at all —
//!   the feature cannot perturb existing results.
//! * **On is safe**: with pruning enabled every spec still synthesizes
//!   a structurally valid netlist.
//! * **Cache keys separate**: a shared cover cache warmed by a
//!   pruning-on run never serves its entries to a pruning-off run.

use vase::flow::{synthesize_source, synthesize_unit, FlowOptions, SynthesizedDesign};
use vase_archgen::CoverCache;

/// Synthesize `source` through the flow's full entry point,
/// [`synthesize_unit`], consulting and updating `cache`.
fn synthesize_cached(
    source: &str,
    options: &FlowOptions,
    cache: &CoverCache,
) -> Result<Vec<SynthesizedDesign>, String> {
    let report = synthesize_unit("spec", source, options, Some(cache), None);
    match report.error {
        Some(e) => Err(e.to_string()),
        None => Ok(report.designs),
    }
}

/// Debug formatting round-trips f64 bit patterns (shortest-roundtrip
/// printing, `-0.0` included), so string equality here is bit identity
/// for every float in the netlist and estimate.
fn fingerprint(designs: &[SynthesizedDesign]) -> String {
    designs
        .iter()
        .map(|d| {
            format!("{}\n{:?}\n{:?}\n", d.entity, d.synthesis.netlist, d.synthesis.estimate)
        })
        .collect()
}

#[test]
fn pruning_off_is_bit_identical_with_or_without_bounds() {
    for (name, _entity, source) in vase::benchmarks::corpus() {
        // verify: true runs the range analysis and attaches bounds.
        let with_bounds = synthesize_source(source, &FlowOptions::default())
            .unwrap_or_else(|e| panic!("{name}: flow with bounds failed: {e}"));
        // verify: false never attaches bounds; the mapper sees none.
        let options = FlowOptions { verify: false, ..FlowOptions::default() };
        let without_bounds = synthesize_source(source, &options)
            .unwrap_or_else(|e| panic!("{name}: flow without bounds failed: {e}"));
        assert_eq!(
            fingerprint(&with_bounds),
            fingerprint(&without_bounds),
            "{name}: attaching bounds with range_prune off changed the mapping"
        );
        for d in &with_bounds {
            assert_eq!(
                d.synthesis.stats.range_pruned, 0,
                "{name}/{}: pruned with range_prune off",
                d.entity
            );
        }
    }
}

#[test]
fn pruning_on_synthesizes_every_spec() {
    let mut options = FlowOptions::default();
    options.mapper.range_prune = true;
    for (name, _entity, source) in vase::benchmarks::corpus() {
        let designs = synthesize_source(source, &options)
            .unwrap_or_else(|e| panic!("{name}: flow with range_prune failed: {e}"));
        assert!(!designs.is_empty(), "{name}: no designs");
        for d in &designs {
            d.synthesis
                .netlist
                .validate()
                .unwrap_or_else(|e| panic!("{name}/{}: invalid netlist: {e}", d.entity));
            assert!(
                d.synthesis.estimate.area_m2.is_finite() && d.synthesis.estimate.area_m2 > 0.0,
                "{name}/{}: degenerate area",
                d.entity
            );
        }
    }
}

#[test]
fn shared_cache_keeps_pruned_and_unpruned_runs_apart() {
    let cache = CoverCache::new();
    let mut pruned = FlowOptions::default();
    pruned.mapper.range_prune = true;
    let source = vase::benchmarks::RECEIVER.source;
    // Warm the shared cache with a pruning-on run first …
    let _ = synthesize_cached(source, &pruned, &cache).expect("pruned run succeeds");
    // … then a pruning-off run through the same cache must match a
    // cache-free run exactly: its keys never collide with the warmed
    // entries.
    let through_cache =
        synthesize_cached(source, &FlowOptions::default(), &cache).expect("cached run succeeds");
    let fresh = synthesize_source(source, &FlowOptions::default()).expect("fresh run succeeds");
    assert_eq!(fingerprint(&through_cache), fingerprint(&fresh));
}
