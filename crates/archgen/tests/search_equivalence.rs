//! Equivalences of the mapper's search drivers on random graphs: the
//! guided search run to completion returns the exact search's netlist,
//! a warm cover cache replays the cold search, an explicit unlimited
//! budget changes nothing, and a budget-cut search still returns a
//! valid, deterministic incumbent.
//!
//! Randomized graphs come from a seed-driven generator (a SplitMix64
//! stream) instead of proptest, which is unavailable in the offline
//! build environment; every case is reproducible from its printed seed.

use vase_archgen::{
    map_graph, map_graph_with_cache, Budget, CoverCache, MapperConfig, SearchStrategy,
};
use vase_estimate::Estimator;
use vase_vhif::{BlockKind, SignalFlowGraph};

/// SplitMix64 step: deterministic, well-mixed, dependency-free.
fn split_mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random layered combinational signal-flow graph with one output
/// (mirrors the workspace-level `arb_graph`): 1-3 inputs, 1-9 ops drawn
/// from Scale/Add/Sub/Mul with deterministic wiring.
fn random_graph(seed: u64) -> SignalFlowGraph {
    let mut state = seed;
    let n_inputs = 1 + (split_mix(&mut state) % 3) as usize;
    let n_ops = 1 + (split_mix(&mut state) % 9) as usize;
    let mut g = SignalFlowGraph::new("random");
    let mut pool = Vec::new();
    for i in 0..n_inputs {
        pool.push(g.add(BlockKind::Input { name: format!("in{i}") }));
    }
    for i in 0..n_ops {
        let op = (split_mix(&mut state) % 4) as u8;
        let unit = (split_mix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        let gain = 0.25 + unit * (8.0 - 0.25);
        let a = pool[i % pool.len()];
        let b = pool[(i * 7 + 1) % pool.len()];
        let id = match op {
            0 => {
                let id = g.add(BlockKind::Scale { gain });
                g.connect(a, id, 0).expect("wire");
                id
            }
            1 => {
                let id = g.add(BlockKind::Add { arity: 2 });
                g.connect(a, id, 0).expect("wire");
                g.connect(b, id, 1).expect("wire");
                id
            }
            2 => {
                let id = g.add(BlockKind::Sub);
                g.connect(a, id, 0).expect("wire");
                g.connect(b, id, 1).expect("wire");
                id
            }
            _ => {
                let id = g.add(BlockKind::Mul);
                g.connect(a, id, 0).expect("wire");
                g.connect(b, id, 1).expect("wire");
                id
            }
        };
        pool.push(id);
    }
    let out = g.add(BlockKind::Output { name: "y".into() });
    let last = *pool.last().expect("nonempty");
    g.connect(last, out, 0).expect("wire");
    g
}

/// Under a tight node budget both search strategies report exhaustion
/// and return a valid incumbent — the anytime contract.
#[test]
fn budget_exhaustion_is_reported_with_a_valid_incumbent() {
    let mut cut = [0usize; 2];
    for case in 0u64..16 {
        let seed = 0xb0d6_e7edu64.wrapping_add(case.wrapping_mul(0x9e37_79b9));
        let g = random_graph(seed);
        let estimator = Estimator::default();
        for (i, strategy) in [SearchStrategy::Exact, SearchStrategy::Guided].into_iter().enumerate() {
            // Only graphs whose full search needs clearly more than the
            // budget make exhaustion certain; tiny graphs can complete
            // inside any nonzero budget.
            let config = MapperConfig { strategy, ..MapperConfig::default() };
            let full = map_graph(&g, &estimator, &config).expect("maps");
            if full.stats.nodes_explored() <= 8 {
                continue;
            }
            let config = MapperConfig { budget: Budget::nodes(2), ..config };
            let result = map_graph(&g, &estimator, &config)
                .unwrap_or_else(|e| panic!("seed={seed:#x} {strategy:?}: {e}"));
            assert!(
                result.stats.budget_exhausted,
                "seed={seed:#x} {strategy:?}: a 2-node budget must exhaust"
            );
            assert!(
                result.stats.nodes_explored() >= 1,
                "seed={seed:#x} {strategy:?}: exhaustion still explores"
            );
            result.netlist.validate().unwrap_or_else(|e| {
                panic!("seed={seed:#x} {strategy:?}: incumbent invalid: {e}")
            });
            cut[i] += 1;
        }
    }
    assert!(cut.iter().all(|&n| n > 0), "every strategy is cut at least once: {cut:?}");
}

/// Budget-exhausted incumbents are deterministic.
#[test]
fn budgeted_incumbent_is_deterministic() {
    for case in 0u64..12 {
        let seed = 0x1ac5_eed5u64.wrapping_add(case.wrapping_mul(0x9e37_79b9));
        let g = random_graph(seed);
        let estimator = Estimator::default();
        let config = MapperConfig { budget: Budget::nodes(8), ..MapperConfig::default() };
        let a = map_graph(&g, &estimator, &config).expect("maps");
        let b = map_graph(&g, &estimator, &config).expect("maps");
        assert_eq!(a.netlist.opamp_count(), b.netlist.opamp_count(), "seed={seed:#x}");
        assert!(
            (a.estimate.area_m2 - b.estimate.area_m2).abs() <= a.estimate.area_m2 * 1e-12,
            "seed={seed:#x}: {} vs {}",
            a.estimate.area_m2,
            b.estimate.area_m2
        );
    }
}

/// The model-guided best-first search run to completion returns the
/// bit-identical netlist of the exact depth-first search on every
/// random graph — not just the same cost, the same architecture.
#[test]
fn guided_matches_exact_bitwise_on_random_graphs() {
    for case in 0u64..48 {
        let seed = 0xa11e_9001u64.wrapping_add(case.wrapping_mul(0x9e37_79b9));
        let g = random_graph(seed);
        let estimator = Estimator::default();
        let exact = map_graph(&g, &estimator, &MapperConfig::default());
        let guided_config = MapperConfig {
            strategy: SearchStrategy::Guided,
            ..MapperConfig::default()
        };
        let guided = map_graph(&g, &estimator, &guided_config);
        match (exact, guided) {
            (Ok(e), Ok(u)) => {
                assert_eq!(e.netlist, u.netlist, "seed={seed:#x}: netlists diverge");
                assert_eq!(
                    e.estimate.area_m2.to_bits(),
                    u.estimate.area_m2.to_bits(),
                    "seed={seed:#x}: area not bit-identical"
                );
            }
            (Err(e), Err(u)) => assert_eq!(e, u, "seed={seed:#x}"),
            (e, u) => panic!("seed={seed:#x}: disagreement: {e:?} vs {u:?}"),
        }
    }
}

/// A warm cover-cache lookup replays the bit-identical netlist of the
/// cold search that populated it, reports the hit, and explores zero
/// nodes — under both search strategies.
#[test]
fn warm_cache_replays_cold_search_bitwise() {
    for case in 0u64..24 {
        let seed = 0xa11e_9001u64.wrapping_add(case.wrapping_mul(0x9e37_79b9));
        let g = random_graph(seed);
        let estimator = Estimator::default();
        for strategy in [SearchStrategy::Exact, SearchStrategy::Guided] {
            let config = MapperConfig { strategy, ..MapperConfig::default() };
            let cache = CoverCache::new();
            let cold = match map_graph_with_cache(&g, &estimator, &config, None, Some(&cache)) {
                Ok(r) => r,
                // Unmappable graphs must fail identically warm or cold.
                Err(e) => {
                    let again = map_graph_with_cache(&g, &estimator, &config, None, Some(&cache));
                    assert_eq!(again.expect_err("still fails"), e, "seed={seed:#x}");
                    continue;
                }
            };
            assert_eq!(cold.stats.cache_hits, 0, "seed={seed:#x} {strategy:?}");
            assert_eq!(cold.stats.cache_misses, 1, "seed={seed:#x} {strategy:?}");
            let warm = map_graph_with_cache(&g, &estimator, &config, None, Some(&cache))
                .unwrap_or_else(|e| panic!("seed={seed:#x} {strategy:?}: warm run failed: {e}"));
            assert_eq!(warm.stats.cache_hits, 1, "seed={seed:#x} {strategy:?}: no hit");
            assert_eq!(
                warm.stats.visited_nodes, 0,
                "seed={seed:#x} {strategy:?}: warm hit explored nodes"
            );
            assert_eq!(warm.netlist, cold.netlist, "seed={seed:#x} {strategy:?}");
            assert_eq!(
                warm.estimate.area_m2.to_bits(),
                cold.estimate.area_m2.to_bits(),
                "seed={seed:#x} {strategy:?}"
            );
        }
    }
}

/// An unlimited budget must not change results: with and without the
/// (default) unlimited budget the mapper finds the same optimum and
/// never reports exhaustion.
#[test]
fn unlimited_budget_matches_seed_behavior() {
    for case in 0u64..12 {
        let seed = 0x5eed_0000u64.wrapping_add(case.wrapping_mul(0x9e37_79b9));
        let g = random_graph(seed);
        let estimator = Estimator::default();
        let base = map_graph(&g, &estimator, &MapperConfig::default()).expect("maps");
        let explicit = MapperConfig { budget: Budget::unlimited(), ..MapperConfig::default() };
        let with_budget = map_graph(&g, &estimator, &explicit).expect("maps");
        assert!(!base.stats.budget_exhausted, "seed={seed:#x}");
        assert!(!with_budget.stats.budget_exhausted, "seed={seed:#x}");
        assert_eq!(
            base.netlist.opamp_count(),
            with_budget.netlist.opamp_count(),
            "seed={seed:#x}"
        );
        assert!(
            (base.estimate.area_m2 - with_budget.estimate.area_m2).abs()
                <= base.estimate.area_m2 * 1e-12,
            "seed={seed:#x}"
        );
    }
}
