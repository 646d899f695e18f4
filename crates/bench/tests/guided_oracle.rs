//! Generated guided≡exact oracle.
//!
//! * **Graphs.** The three synthetic families at 8, 16, 24, 32 and 40
//!   operation blocks, seeds 0..40 each (600 graphs), mapped by the
//!   exact search and by the guided search run to completion, under the
//!   default configuration and under the sequencing-rule ablation: the
//!   netlists must be equal on every graph. The guided search's leaf
//!   tie-break and its tie-safe dominance memo reproduce the DFS's
//!   choice among equal-area mappings, and the exact search's memo,
//!   keyed on placed area, keeps the area optimum. The ablation is
//!   where the guided memo's tie rule decides: visiting alternatives
//!   smallest-cover-first, the guided search reaches many cover sets by
//!   the preorder-later path first, and without the rule it returns a
//!   different netlist of equal area on every filter chain.
//! * **Designs.** The first [`GENERATED`] designs of
//!   `tests/support/generator.rs` at `-O0` and `-O2`: the exact search,
//!   the guided search and the exact search with `memoize: false` agree
//!   on every architecture's op amps and area bits.
//! * **Cover cache.** The cache key leaves out the strategy, so a cover
//!   the exact search stored answers a guided lookup; on the 80 control
//!   loops of 8 and 16 blocks that lookup must return the cold guided
//!   netlist.
//! * **Large loops.** Both strategies complete `control_loop` at 100
//!   and 200 blocks (the `archgen_bench` graphs) under the default
//!   configuration and agree.

use vase::flow::{synthesize_source, FlowError, FlowOptions};
use vase_archgen::{map_graph, map_graph_with_cache, CoverCache, MapperConfig, SearchStrategy};
use vase_bench::synthetic::{control_loop, FAMILIES};
use vase_bench::SEED;
use vase_estimate::Estimator;

#[path = "../../../tests/support/generator.rs"]
mod generator;

use generator::generate;

const OPS: [usize; 5] = [8, 16, 24, 32, 40];
const SEEDS: u64 = 40;

/// How many generated designs the design check covers.
const GENERATED: u64 = 500;

/// Run the oracle over every generated graph under `base` (exact) and
/// its guided twin.
fn oracle(base: MapperConfig) {
    let estimator = Estimator::default();
    let guided_config = MapperConfig {
        strategy: SearchStrategy::Guided,
        ..base
    };
    for (family, generate) in FAMILIES {
        for ops in OPS {
            for seed in 0..SEEDS {
                let case = format!("{family}({ops}, {seed})");
                let g = generate(ops, seed);
                let exact = map_graph(&g, &estimator, &base).expect("exact maps");
                let guided = map_graph(&g, &estimator, &guided_config)
                    .unwrap_or_else(|e| panic!("{case}: guided failed: {e}"));
                assert!(
                    !exact.stats.budget_exhausted && !guided.stats.budget_exhausted,
                    "{case}: a search hit the node cap"
                );
                assert_eq!(guided.netlist, exact.netlist, "{case}: netlists differ");
                assert_eq!(
                    guided.estimate.area_m2.to_bits(),
                    exact.estimate.area_m2.to_bits(),
                    "{case}: areas differ"
                );
            }
        }
    }
}

#[test]
fn guided_matches_exact_on_generated_graphs() {
    oracle(MapperConfig::default());
}

#[test]
fn guided_matches_exact_on_generated_graphs_without_sequencing() {
    oracle(MapperConfig {
        sequencing: false,
        ..MapperConfig::default()
    });
}

/// Each architecture's op amps and area bits, or the stage whose error
/// stopped the flow.
fn mapped_cost(
    source: &str,
    opt_level: u8,
    mapper: MapperConfig,
) -> Result<Vec<(usize, u64)>, &'static str> {
    let options = FlowOptions {
        mapper,
        opt_level,
        ..FlowOptions::default()
    };
    match synthesize_source(source, &options) {
        Ok(designs) => Ok(designs
            .iter()
            .map(|d| {
                (
                    d.synthesis.netlist.opamp_count(),
                    d.synthesis.estimate.area_m2.to_bits(),
                )
            })
            .collect()),
        Err(FlowError::Frontend(_)) => Err("frontend"),
        Err(FlowError::Compile(_)) => Err("compile"),
        Err(FlowError::Verify(_)) => Err("verify"),
        Err(FlowError::Map(_)) => Err("map"),
    }
}

#[test]
fn searches_agree_on_generated_designs() {
    let unmemoized = MapperConfig {
        memoize: false,
        ..MapperConfig::default()
    };
    for seed in 0..GENERATED {
        let source = generate(seed);
        for level in [0u8, 2] {
            let exact = mapped_cost(&source, level, MapperConfig::default());
            let guided = mapped_cost(&source, level, MapperConfig::guided());
            let full = mapped_cost(&source, level, unmemoized);
            assert_eq!(
                guided, exact,
                "gen/{seed} -O{level}: guided differs from exact"
            );
            assert_eq!(
                full, exact,
                "gen/{seed} -O{level}: memoize: false differs from exact"
            );
        }
    }
}

#[test]
fn an_exact_cover_answers_a_guided_lookup_with_the_guided_netlist() {
    let estimator = Estimator::default();
    let cache = CoverCache::new();
    for ops in [8, 16] {
        for seed in 0..SEEDS {
            let case = format!("control_loop({ops}, {seed})");
            let g = control_loop(ops, seed);
            map_graph_with_cache(&g, &estimator, &MapperConfig::default(), None, Some(&cache))
                .expect("exact maps");
            let cold = map_graph(&g, &estimator, &MapperConfig::guided()).expect("guided maps");
            let warm =
                map_graph_with_cache(&g, &estimator, &MapperConfig::guided(), None, Some(&cache))
                    .expect("guided lookup maps");
            assert_eq!(warm.stats.cache_hits, 1, "{case}: the lookup missed");
            assert_eq!(
                warm.netlist, cold.netlist,
                "{case}: the cached cover differs"
            );
        }
    }
}

#[test]
fn both_strategies_complete_large_control_loops() {
    let estimator = Estimator::default();
    for ops in [100, 200] {
        let g = control_loop(ops, SEED);
        let exact = map_graph(&g, &estimator, &MapperConfig::default()).expect("exact maps");
        let guided = map_graph(&g, &estimator, &MapperConfig::guided()).expect("guided maps");
        for (name, r) in [("exact", &exact), ("guided", &guided)] {
            assert!(
                !r.stats.budget_exhausted,
                "{name} hit the node cap at {ops} blocks"
            );
        }
        assert_eq!(
            guided.netlist, exact.netlist,
            "control_loop({ops}): netlists differ"
        );
    }
}
