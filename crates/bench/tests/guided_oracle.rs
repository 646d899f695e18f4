//! Generated guided≡exact oracle: the three synthetic families at 8,
//! 16, 24, 32 and 40 operation blocks, seeds 0..40 each (600 graphs),
//! mapped by the exact search and by the guided search run to
//! completion, under the default configuration and under the
//! sequencing-rule ablation.
//!
//! On every graph the two agree on the op-amp count and guided's area
//! is no larger than exact's. Where the area bits are equal the
//! netlists must be equal too: the guided search's leaf tie-break and
//! its tie-safe dominance memo reproduce the DFS's choice among
//! equal-area mappings. Where guided is strictly smaller, the gap must
//! be the exact search's memo loss: the dominance memo compares op
//! amps, not area, so the DFS can drop the area optimum among mappings
//! of equal op-amp count, and the exact search with `memoize: false`
//! then finds guided's area bit for bit.
//!
//! The ablation is where the memo's tie rule decides: visiting
//! alternatives smallest-cover-first, the guided search reaches many
//! cover sets by the preorder-later path first, and without the rule
//! it returns a different netlist of equal area on every filter chain.

use vase_archgen::{map_graph, MapperConfig, SearchStrategy};
use vase_bench::synthetic::FAMILIES;
use vase_estimate::Estimator;

const OPS: [usize; 5] = [8, 16, 24, 32, 40];
const SEEDS: u64 = 40;

/// Run the oracle over every generated graph under `base` (exact) and
/// its guided twin; returns `(identical, gaps)`.
fn oracle(base: MapperConfig) -> (usize, usize) {
    let estimator = Estimator::default();
    let guided_config = MapperConfig {
        strategy: SearchStrategy::Guided,
        ..base
    };
    let unmemoized = MapperConfig {
        memoize: false,
        ..base
    };
    let (mut identical, mut gaps) = (0, 0);
    for (family, generate) in FAMILIES {
        for ops in OPS {
            for seed in 0..SEEDS {
                let case = format!("{family}({ops}, {seed})");
                let g = generate(ops, seed);
                let exact = map_graph(&g, &estimator, &base).expect("exact maps");
                let guided = map_graph(&g, &estimator, &guided_config)
                    .unwrap_or_else(|e| panic!("{case}: guided failed: {e}"));
                assert!(
                    !guided.stats.budget_exhausted,
                    "{case}: guided hit the node cap"
                );
                assert_eq!(
                    guided.netlist.opamp_count(),
                    exact.netlist.opamp_count(),
                    "{case}: op amps differ"
                );
                let (e, u) = (exact.estimate.area_m2, guided.estimate.area_m2);
                assert!(u <= e, "{case}: guided area {u:e} exceeds exact {e:e}");
                if u.to_bits() == e.to_bits() {
                    assert_eq!(
                        guided.netlist, exact.netlist,
                        "{case}: equal areas, netlists differ"
                    );
                    identical += 1;
                } else {
                    let full = map_graph(&g, &estimator, &unmemoized).expect("unmemoized maps");
                    assert_eq!(
                        full.estimate.area_m2.to_bits(),
                        u.to_bits(),
                        "{case}: guided area {u:e} is not the unmemoized optimum {:e}",
                        full.estimate.area_m2
                    );
                    gaps += 1;
                }
            }
        }
    }
    (identical, gaps)
}

#[test]
fn guided_matches_exact_on_generated_graphs() {
    let (identical, gaps) = oracle(MapperConfig::default());
    eprintln!("{identical} identical, {gaps} gaps explained by the exact search's memo");
}

#[test]
fn guided_matches_exact_on_generated_graphs_without_sequencing() {
    let (identical, gaps) = oracle(MapperConfig {
        sequencing: false,
        ..MapperConfig::default()
    });
    eprintln!("{identical} identical, {gaps} gaps explained by the exact search's memo");
}
