//! Corpus-wide acceptance for the model-guided mapping search and the
//! content-addressed cover cache: on **every** shipped specification
//! (the 5 Table 1 applications plus the extended-corpus examples) the
//! guided search run to completion returns the bit-identical
//! architecture of the exact search, and a warm cover-cache pass —
//! in-memory or reloaded from disk — replays it without searching.

use vase::archgen::{CoverCache, MapperConfig, SearchStrategy};
use vase::flow::{synthesize_source, synthesize_unit, FlowOptions, SynthesizedDesign};

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


#[test]
fn guided_matches_exact_on_every_spec() {
    let guided_options = FlowOptions {
        mapper: MapperConfig {
            strategy: SearchStrategy::Guided,
            ..MapperConfig::default()
        },
        ..FlowOptions::default()
    };
    for (name, _, source) in vase::benchmarks::corpus() {
        let exact = synthesize_source(source, &FlowOptions::default())
            .unwrap_or_else(|e| panic!("{name} failed to synthesize: {e}"));
        let guided = synthesize_source(source, &guided_options)
            .unwrap_or_else(|e| panic!("{name} failed guided synthesis: {e}"));
        assert_eq!(exact.len(), guided.len(), "{name}: design count differs");
        for (e, u) in exact.iter().zip(&guided) {
            assert_eq!(
                e.synthesis.netlist, u.synthesis.netlist,
                "{name}/{}: guided netlist diverges from exact",
                e.vhif.name
            );
            assert_eq!(
                e.synthesis.estimate.area_m2.to_bits(),
                u.synthesis.estimate.area_m2.to_bits(),
                "{name}/{}: area not bit-identical",
                e.vhif.name
            );
        }
    }
}

#[test]
fn cover_cache_round_trip_on_every_spec() {
    let options = FlowOptions::default();
    let cache = CoverCache::new();
    // Cold pass: every design is a miss and populates the cache.
    let mut cold = Vec::new();
    for (name, _, source) in vase::benchmarks::corpus() {
        let designs = synthesize_cached(source, &options, &cache)
            .unwrap_or_else(|e| panic!("{name} failed cold synthesis: {e}"));
        for d in &designs {
            assert_eq!(d.synthesis.stats.cache_hits, 0, "{name}/{}: cold hit", d.vhif.name);
        }
        cold.push((name, designs));
    }
    assert!(!cache.is_empty(), "cold pass cached nothing");
    let verify = |cache: &CoverCache, label: &str| {
        for (name, cold_designs) in &cold {
            let warm = synthesize_cached(name_source(name), &options, cache)
                .unwrap_or_else(|e| panic!("{name} failed {label} synthesis: {e}"));
            for (c, w) in cold_designs.iter().zip(&warm) {
                assert_eq!(
                    w.synthesis.stats.cache_hits, 1,
                    "{name}/{}: {label} pass missed the cache",
                    w.vhif.name
                );
                assert_eq!(
                    w.synthesis.stats.visited_nodes, 0,
                    "{name}/{}: {label} hit still searched",
                    w.vhif.name
                );
                assert_eq!(
                    c.synthesis.netlist, w.synthesis.netlist,
                    "{name}/{}: {label} replay diverges from the cold search",
                    w.vhif.name
                );
            }
        }
    };
    // Warm pass: every design is served from the in-memory cache.
    verify(&cache, "warm");
    // Persistence: a save/load round trip must serve the same covers.
    let dir = std::env::temp_dir().join(format!("vase-cover-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("corpus.cache");
    cache.save(&path).expect("save");
    let reloaded = CoverCache::load(&path).expect("load");
    assert_eq!(reloaded.len(), cache.len(), "reload dropped entries");
    verify(&reloaded, "reloaded");
    std::fs::remove_dir_all(&dir).ok();
}

/// Look a corpus spec's source back up by name (the corpus is small).
fn name_source(wanted: &str) -> &'static str {
    vase::benchmarks::corpus()
        .into_iter()
        .find(|(name, _, _)| *name == wanted)
        .map(|(_, _, source)| source)
        .expect("known corpus spec")
}
