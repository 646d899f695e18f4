//! Node-for-node pin of the architecture generator's search: for every
//! corpus spec at `-O0` and `-O2`, the `MapStats` counters, op-amp
//! count and area of each search driver — exact and guided, each plain,
//! seeded by a cancel token, with range pruning on, and cut short by a
//! four-node budget — plus the greedy heuristic, compared against a
//! committed table. Any change to the branching, bounding or sequencing
//! rules, the dominance memo, the greedy seed or the leaf evaluation
//! shows up here as a counter diff.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test -p vase --test search_counters
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use vase::archgen::{
    map_graph_greedy, Budget, CancelToken, MapStats, MapperConfig, SearchStrategy,
};
use vase::estimate::{Estimator, PerformanceConstraints};
use vase::flow::{derive_constraints, synthesize_unit, FlowOptions};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root")
}

fn counters(stats: &MapStats) -> String {
    format!(
        "visited={} pruned={} memo_pruned={} complete={} infeasible={} range_pruned={} \
         exhausted={}",
        stats.visited_nodes,
        stats.pruned_nodes,
        stats.memo_pruned,
        stats.complete_mappings,
        stats.infeasible_mappings,
        stats.range_pruned,
        stats.budget_exhausted,
    )
}

/// The flow's estimator for `entity`: the default constraints refined
/// by the spec's own annotations, exactly as the flow derives them.
fn flow_estimator(source: &str, entity: &str) -> Estimator {
    let design = vase::frontend::parse_design_file(source).expect("parses");
    let analyzed = vase::frontend::analyze(&design).expect("analyzes");
    let baseline = PerformanceConstraints::default();
    let constraints =
        analyzed.architecture_of(entity).map_or(baseline, |a| derive_constraints(a, baseline));
    Estimator::new(constraints)
}

/// One table row per (spec, level, driver).
fn table() -> String {
    let mut out = String::new();
    for (_, _, source) in vase::benchmarks::corpus() {
        for level in [0u8, 2] {
            let modes: [(&str, SearchStrategy, bool, bool, Budget); 8] = [
                ("exact", SearchStrategy::Exact, false, false, Budget::unlimited()),
                ("exact+token", SearchStrategy::Exact, true, false, Budget::unlimited()),
                ("exact+range", SearchStrategy::Exact, false, true, Budget::unlimited()),
                ("exact+nodes", SearchStrategy::Exact, false, false, Budget::nodes(4)),
                ("guided", SearchStrategy::Guided, false, false, Budget::unlimited()),
                ("guided+token", SearchStrategy::Guided, true, false, Budget::unlimited()),
                ("guided+range", SearchStrategy::Guided, false, true, Budget::unlimited()),
                ("guided+nodes", SearchStrategy::Guided, false, false, Budget::nodes(4)),
            ];
            let mut graphs = Vec::new();
            for (mode, strategy, with_token, range_prune, budget) in modes {
                let options = FlowOptions {
                    mapper: MapperConfig {
                        strategy,
                        range_prune,
                        budget,
                        ..MapperConfig::default()
                    },
                    opt_level: level,
                    ..FlowOptions::default()
                };
                // A live token is never tripped; its presence alone
                // switches the search to the greedy-seeded anytime mode.
                let token = with_token.then(CancelToken::new);
                let report = synthesize_unit("spec", source, &options, None, token.as_ref());
                assert!(report.error.is_none(), "{mode} -O{level}: {:?}", report.error);
                for d in &report.designs {
                    let s = &d.synthesis;
                    writeln!(
                        out,
                        "{} -O{level} {mode:<12} {} opamps={} area_m2={:?}",
                        d.entity,
                        counters(&s.stats),
                        s.netlist.opamp_count(),
                        s.estimate.area_m2,
                    )
                    .expect("write");
                    if mode == "exact" {
                        graphs.push((d.entity.clone(), d.vhif.graphs.clone()));
                    }
                }
            }
            for (entity, design_graphs) in graphs {
                let estimator = flow_estimator(source, &entity);
                for graph in &design_graphs {
                    let row = match map_graph_greedy(graph, &estimator, &MapperConfig::default()) {
                        Ok(r) => format!(
                            "{} opamps={} area_m2={:?}",
                            counters(&r.stats),
                            r.netlist.opamp_count(),
                            r.estimate.area_m2
                        ),
                        Err(e) => format!("error={e}"),
                    };
                    writeln!(out, "{entity} -O{level} greedy[{}] {row}", graph.name())
                        .expect("write");
                }
            }
        }
    }
    out
}

#[test]
fn search_counters_match_the_committed_table() {
    let path = repo_root().join("tests/snapshots/search/counters.txt");
    let got = table();
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        fs::create_dir_all(path.parent().expect("parent")).expect("snapshot dir");
        fs::write(&path, &got).expect("write snapshot");
        return;
    }
    let want = fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing {}; run with UPDATE_SNAPSHOTS=1", path.display()));
    if want != got {
        let diff: Vec<String> = want
            .lines()
            .zip(got.lines())
            .filter(|(w, g)| w != g)
            .map(|(w, g)| format!("- {w}\n+ {g}"))
            .collect();
        panic!(
            "search counters changed: {} row(s) differ, {} rows expected, {} got\n{}",
            diff.len(),
            want.lines().count(),
            got.lines().count(),
            diff.join("\n")
        );
    }
}
