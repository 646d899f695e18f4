//! # vase-bench
//!
//! Workload generators and shared helpers for the benchmark harness
//! that regenerates every table and figure of the paper (see the
//! binaries in `src/bin/`).

#![warn(missing_docs)]

pub mod mutants;
pub mod rng;
pub mod synthetic;

/// JSON writing lives in `vase-diag` (the lint engine shares the same
/// writer for `vase lint --format json`); re-exported here so the bench
/// binaries keep their `crate::json` path.
pub use vase_diag::json;

use std::path::PathBuf;

use rng::SplitMix64;
use vase::vhif::{BlockId, BlockKind, SignalFlowGraph};

/// Deterministic seed used by all benchmarks (reproducible runs).
pub const SEED: u64 = 0x5eed_da7e;

/// Write the report of the benchmark `name` and return where it went:
/// a full run replaces `BENCH_<name>.json` in the working directory, a
/// `--smoke` run writes the same file name under
/// [`std::env::temp_dir`], so a smoke run never overwrites a committed
/// full report.
///
/// # Errors
///
/// Any I/O error writing the file.
pub fn write_report(name: &str, smoke: bool, report: &json::Json) -> std::io::Result<PathBuf> {
    let file = format!("BENCH_{name}.json");
    let path = if smoke { std::env::temp_dir().join(file) } else { PathBuf::from(file) };
    std::fs::write(&path, report.to_string_pretty())?;
    Ok(path)
}

/// Build the paper's Fig. 6a example graph: two scaled inputs summed
/// and rescaled — mappable with 4, 3, or 2 op amps depending on the
/// branching decisions (or 1 with the full Scale∘Add fold).
pub fn fig6_graph() -> SignalFlowGraph {
    let mut g = SignalFlowGraph::new("fig6");
    let a = g.add(BlockKind::Input { name: "a".into() });
    let b = g.add(BlockKind::Input { name: "b".into() });
    let s1 = g.add_labelled(BlockKind::Scale { gain: 2.0 }, "block1");
    let s2 = g.add_labelled(BlockKind::Scale { gain: 3.0 }, "block2");
    let add = g.add_labelled(BlockKind::Add { arity: 2 }, "block3");
    let s3 = g.add_labelled(BlockKind::Scale { gain: 0.5 }, "block4");
    let y = g.add(BlockKind::Output { name: "y".into() });
    g.connect(a, s1, 0).expect("wire");
    g.connect(b, s2, 0).expect("wire");
    g.connect(s1, add, 0).expect("wire");
    g.connect(s2, add, 1).expect("wire");
    g.connect(add, s3, 0).expect("wire");
    g.connect(s3, y, 0).expect("wire");
    g
}

/// Generate a random layered signal-flow graph with `ops` operation
/// blocks (scales, adders, subtractors, multipliers, integrators) over
/// `inputs` external inputs — the scaling workload for the mapper
/// benchmarks. Deterministic for a given `seed`.
pub fn random_graph(ops: usize, inputs: usize, seed: u64) -> SignalFlowGraph {
    let mut rng = SplitMix64::new(seed);
    let mut g = SignalFlowGraph::new(format!("rand{ops}"));
    let mut pool: Vec<BlockId> = (0..inputs.max(1))
        .map(|i| g.add(BlockKind::Input { name: format!("in{i}") }))
        .collect();
    for _ in 0..ops {
        let a = pool[rng.index(pool.len())];
        let b = pool[rng.index(pool.len())];
        let id = match rng.index(6) {
            0 | 1 => {
                let gain: f64 = rng.f64_in(0.25, 8.0);
                let id = g.add(BlockKind::Scale { gain });
                g.connect(a, id, 0).expect("wire");
                id
            }
            2 | 3 => {
                let id = g.add(BlockKind::Add { arity: 2 });
                g.connect(a, id, 0).expect("wire");
                g.connect(b, id, 1).expect("wire");
                id
            }
            4 => {
                let id = g.add(BlockKind::Sub);
                g.connect(a, id, 0).expect("wire");
                g.connect(b, id, 1).expect("wire");
                id
            }
            _ => {
                let id = g.add(BlockKind::Integrate { gain: 1.0, initial: 0.0 });
                g.connect(a, id, 0).expect("wire");
                id
            }
        };
        pool.push(id);
    }
    // Tap the most recent blocks as outputs so everything is reachable.
    let out = g.add(BlockKind::Output { name: "y".into() });
    let last = *pool.last().expect("nonempty");
    g.connect(last, out, 0).expect("wire");
    g
}

/// Generate a synthetic VASS source with `n` chained weighted-sum
/// equations — the compiler-throughput workload.
pub fn synthetic_source(n: usize) -> String {
    let mut decls = String::new();
    let mut stmts = String::new();
    for i in 0..n {
        decls.push_str(&format!("  quantity q{i} : real;\n"));
        let prev = if i == 0 { "x".to_owned() } else { format!("q{}", i - 1) };
        let weight = 0.5 + (i % 7) as f64 * 0.25;
        stmts.push_str(&format!("  q{i} == {weight:.2} * {prev} + 0.125 * x;\n"));
    }
    format!(
        "entity chain is\n  port (quantity x : in real is voltage;\n        \
         quantity y : out real is voltage);\nend entity;\n\
         architecture a of chain is\n{decls}begin\n{stmts}  y == q{} * 1.0;\nend architecture;\n",
        n - 1
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vase::archgen::{map_graph, MapperConfig};
    use vase::estimate::Estimator;

    #[test]
    fn fig6_graph_is_valid_and_maps() {
        let g = fig6_graph();
        g.validate().expect("valid");
        let r = map_graph(&g, &Estimator::default(), &MapperConfig::default()).expect("maps");
        assert!(r.netlist.opamp_count() <= 2);
    }

    #[test]
    fn random_graphs_are_deterministic_and_valid() {
        let a = random_graph(12, 3, SEED);
        let b = random_graph(12, 3, SEED);
        assert_eq!(a, b, "same seed must give the same graph");
        let c = random_graph(12, 3, SEED + 1);
        assert_ne!(a, c, "different seeds should differ");
        assert!(a.topo_order().is_ok());
    }

    #[test]
    fn random_graphs_map_at_every_size() {
        for ops in [2, 6, 10] {
            let g = random_graph(ops, 2, SEED);
            let r = map_graph(&g, &Estimator::default(), &MapperConfig::default())
                .unwrap_or_else(|e| panic!("ops={ops}: {e}"));
            r.netlist.validate().expect("valid");
        }
    }

    #[test]
    fn synthetic_source_synthesizes() {
        let src = synthetic_source(8);
        let designs =
            vase::flow::synthesize_source(&src, &vase::flow::FlowOptions::default())
                .expect("synthesizes");
        assert!(designs[0].synthesis.netlist.opamp_count() >= 1);
    }
}
