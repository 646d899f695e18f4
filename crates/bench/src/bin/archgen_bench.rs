//! Emit `BENCH_archgen.json`: mapper search cost on the five Table 1
//! applications (sequential vs parallel vs guided) and search scaling
//! on seeded synthetic graphs (exact vs guided vs cover-cache), so the
//! performance trajectory of the architecture generator is recorded
//! run-over-run.
//!
//! ```sh
//! cargo run --release -p vase-bench --bin archgen_bench [-- --smoke]
//! ```
//!
//! For each Table 1 application the full flow is synthesized `REPS`
//! times with the sequential mapper, with two mapper workers, and with
//! the model-guided best-first search run to completion; the fastest
//! mapping phase of each is reported and the guided op-amp count is
//! asserted equal to the exact one (guided-to-completion is exact).
//!
//! For each synthetic family (`filter_chain`, `control_loop`,
//! `fanout_mesh`) at 25/50/100/200 operation blocks, one mapping run
//! each under a wall-clock deadline records exact vs guided wall time
//! and nodes explored plus whether the search completed, then a cold
//! [`CoverCache`] run and a warm repeat measure the content-addressed
//! lookup path (warm hits must replay bit-identically with zero nodes
//! explored).
//!
//! `--smoke` drops to one repetition, the 25-block size, and a short
//! deadline so the binary doubles as a CI gate; the report then carries
//! `"smoke": true` and is written under the system temp directory,
//! never over the committed `BENCH_archgen.json`.

use vase::archgen::{
    map_graph, map_graph_with_cache, Budget, CoverCache, MapResult, MapStats, MapperConfig,
    SearchStrategy,
};
use vase::estimate::Estimator;
use vase::flow::{synthesize_source, FlowOptions};
use vase_bench::json::Json;
use vase_bench::synthetic::{FAMILIES, SIZES};
use vase_bench::SEED;

const REPS: usize = 3;
/// Mapper worker threads of the `parallel` column. Explicit rather than
/// auto-detected, so the column never silently times the sequential
/// search on a host that reports one core.
const PARALLEL_JOBS: usize = 2;
/// Per-search wall-clock deadline for the synthetic sweep. Sized so
/// the exact search exhausts it on `control_loop` at 100 blocks
/// (~10.5M nodes needed) while the guided search completes (~1.3M
/// nodes): the model-guided bound proves optimality with ~8× fewer
/// visits.
const DEADLINE_MS: u64 = 60_000;
const SMOKE_DEADLINE_MS: u64 = 250;

struct RunRecord {
    visited_nodes: u64,
    wall_us: u64,
    visits_per_second: f64,
}

impl RunRecord {
    fn from_stats(stats: &MapStats) -> Self {
        RunRecord {
            visited_nodes: stats.visited_nodes,
            wall_us: stats.elapsed_us,
            visits_per_second: stats.visits_per_second(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("visited_nodes", Json::Int(self.visited_nodes as i128)),
            ("wall_us", Json::Int(self.wall_us as i128)),
            ("visits_per_second", Json::Num(self.visits_per_second)),
        ])
    }
}

struct AppRecord {
    application: String,
    opamps: usize,
    sequential: RunRecord,
    parallel: RunRecord,
    guided: RunRecord,
    /// Sequential wall time over parallel wall time (mapping phase).
    speedup: f64,
}

impl AppRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("application", Json::str(self.application.clone())),
            ("opamps", Json::Int(self.opamps as i128)),
            ("sequential", self.sequential.to_json()),
            ("parallel", self.parallel.to_json()),
            ("guided", self.guided.to_json()),
            ("speedup", Json::Num(self.speedup)),
        ])
    }
}

/// One deadline-bounded mapping run on a synthetic graph.
struct SearchRecord {
    wall_us: u64,
    visited_nodes: u64,
    completed: bool,
    opamps: usize,
}

impl SearchRecord {
    fn from_result(r: &MapResult) -> Self {
        SearchRecord {
            wall_us: r.stats.elapsed_us,
            visited_nodes: r.stats.visited_nodes,
            completed: !r.stats.budget_exhausted,
            opamps: r.netlist.opamp_count(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("wall_us", Json::Int(self.wall_us as i128)),
            ("visited_nodes", Json::Int(self.visited_nodes as i128)),
            ("completed", Json::Bool(self.completed)),
            ("opamps", Json::Int(self.opamps as i128)),
        ])
    }
}

struct SyntheticRecord {
    family: &'static str,
    ops: usize,
    exact: SearchRecord,
    guided: SearchRecord,
    cold_cache: SearchRecord,
    warm_cache: SearchRecord,
    warm_hit: bool,
    /// Cold-cache wall time over warm-cache wall time.
    warm_speedup: f64,
}

impl SyntheticRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("family", Json::str(self.family)),
            ("ops", Json::Int(self.ops as i128)),
            ("exact", self.exact.to_json()),
            ("guided", self.guided.to_json()),
            ("cold_cache", self.cold_cache.to_json()),
            ("warm_cache", self.warm_cache.to_json()),
            ("warm_hit", Json::Bool(self.warm_hit)),
            ("warm_speedup", Json::Num(self.warm_speedup)),
        ])
    }
}

/// Synthesize `source` `reps` times with `mapper`; return the stats of
/// the fastest mapping phase and the total op-amp count.
fn best_run(source: &str, mapper: MapperConfig, reps: usize) -> Result<(MapStats, usize), String> {
    let options = FlowOptions {
        mapper,
        ..FlowOptions::default()
    };
    let mut best: Option<MapStats> = None;
    let mut opamps = 0;
    for _ in 0..reps {
        let designs = synthesize_source(source, &options).map_err(|e| e.to_string())?;
        // Designs are synthesized one after another, so the mapping
        // phase's wall clock is the per-design sum (what merge yields).
        let mut stats = MapStats::default();
        for d in &designs {
            stats.merge(&d.synthesis.stats);
        }
        opamps = designs
            .iter()
            .map(|d| d.synthesis.netlist.opamp_count())
            .sum();
        if best.is_none_or(|b| stats.elapsed_us < b.elapsed_us) {
            best = Some(stats);
        }
    }
    Ok((best.expect("reps >= 1"), opamps))
}

/// The Table 1 corpus: sequential vs parallel vs guided-to-completion.
fn bench_corpus(reps: usize) -> Result<Vec<AppRecord>, Box<dyn std::error::Error>> {
    static BENCHMARKS: [vase::benchmarks::Benchmark; 5] = [
        vase::benchmarks::RECEIVER,
        vase::benchmarks::POWER_METER,
        vase::benchmarks::MISSILE,
        vase::benchmarks::ITERATIVE,
        vase::benchmarks::FUNCTION_GENERATOR,
    ];
    let guided_config = MapperConfig {
        strategy: SearchStrategy::Guided,
        ..MapperConfig::default()
    };
    let mut apps = Vec::new();
    for b in &BENCHMARKS {
        let (seq, seq_opamps) = best_run(b.source, MapperConfig::default(), reps)?;
        let parallel = MapperConfig {
            parallelism: PARALLEL_JOBS,
            ..MapperConfig::default()
        };
        let (par, par_opamps) = best_run(b.source, parallel, reps)?;
        let (gui, gui_opamps) = best_run(b.source, guided_config, reps)?;
        assert_eq!(
            seq_opamps, par_opamps,
            "{}: parallel mapping changed the architecture",
            b.name
        );
        assert_eq!(
            seq_opamps, gui_opamps,
            "{}: guided-to-completion cost differs from exact",
            b.name
        );
        let speedup = seq.elapsed_us as f64 / par.elapsed_us.max(1) as f64;
        println!(
            "{:<22} seq {:>10} | par {:>10} | guided {:>10} | speedup {:.2}x ({} visited)",
            b.name,
            format!("{} µs", seq.elapsed_us),
            format!("{} µs", par.elapsed_us),
            format!("{} µs", gui.elapsed_us),
            speedup,
            seq.visited_nodes,
        );
        apps.push(AppRecord {
            application: b.name.to_owned(),
            opamps: seq_opamps,
            sequential: RunRecord::from_stats(&seq),
            parallel: RunRecord::from_stats(&par),
            guided: RunRecord::from_stats(&gui),
            speedup,
        });
    }
    Ok(apps)
}

/// The synthetic scaling sweep: exact vs guided vs cold/warm cache at
/// each size, one deadline-bounded run apiece (exhausted runs already
/// cost the full deadline, so repetitions would only multiply that).
fn bench_synthetic(
    sizes: &[usize],
    deadline_ms: u64,
) -> Result<Vec<SyntheticRecord>, Box<dyn std::error::Error>> {
    let estimator = Estimator::default();
    let budget = Budget::deadline_ms(deadline_ms);
    let exact_config = MapperConfig {
        budget,
        ..MapperConfig::default()
    };
    let guided_config = MapperConfig {
        strategy: SearchStrategy::Guided,
        ..exact_config
    };
    let mut records = Vec::new();
    for (family, generate) in FAMILIES {
        for &ops in sizes {
            let g = generate(ops, SEED);
            let exact = map_graph(&g, &estimator, &exact_config)
                .map_err(|e| format!("{family}@{ops} exact: {e}"))?;
            let guided = map_graph(&g, &estimator, &guided_config)
                .map_err(|e| format!("{family}@{ops} guided: {e}"))?;
            let cache = CoverCache::new();
            let cold = map_graph_with_cache(&g, &estimator, &guided_config, None, Some(&cache))
                .map_err(|e| format!("{family}@{ops} cold: {e}"))?;
            let warm = map_graph_with_cache(&g, &estimator, &guided_config, None, Some(&cache))
                .map_err(|e| format!("{family}@{ops} warm: {e}"))?;
            let warm_hit = warm.stats.cache_hits > 0;
            if !cold.stats.budget_exhausted {
                // A completed cold run must populate the cache, and the
                // warm hit must replay the identical architecture
                // without exploring a single node.
                assert!(warm_hit, "{family}@{ops}: completed cold run did not warm the cache");
                assert_eq!(warm.stats.visited_nodes, 0, "{family}@{ops}: warm hit explored nodes");
                assert_eq!(
                    warm.netlist, cold.netlist,
                    "{family}@{ops}: warm replay diverged from the cold search"
                );
            }
            let rec = SyntheticRecord {
                family,
                ops,
                exact: SearchRecord::from_result(&exact),
                guided: SearchRecord::from_result(&guided),
                cold_cache: SearchRecord::from_result(&cold),
                warm_cache: SearchRecord::from_result(&warm),
                warm_hit,
                warm_speedup: cold.stats.elapsed_us as f64 / warm.stats.elapsed_us.max(1) as f64,
            };
            println!(
                "{:<13}@{:>3} exact {:>10} ({}) | guided {:>10} ({}) | warm {:>6} ({})",
                family,
                ops,
                format!("{} µs", rec.exact.wall_us),
                if rec.exact.completed { "done" } else { "deadline" },
                format!("{} µs", rec.guided.wall_us),
                if rec.guided.completed { "done" } else { "deadline" },
                format!("{} µs", rec.warm_cache.wall_us),
                if warm_hit { "hit" } else { "miss" },
            );
            records.push(rec);
        }
    }
    Ok(records)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let reps = if smoke { 1 } else { REPS };
    let deadline_ms = if smoke { SMOKE_DEADLINE_MS } else { DEADLINE_MS };
    let sizes: &[usize] = if smoke { &SIZES[..1] } else { &SIZES };

    let apps = bench_corpus(reps)?;
    println!();
    let synthetic = bench_synthetic(sizes, deadline_ms)?;

    let report = Json::obj([
        ("benchmark", Json::str("archgen")),
        ("smoke", Json::Bool(smoke)),
        ("jobs", Json::Int(PARALLEL_JOBS as i128)),
        ("repetitions", Json::Int(reps as i128)),
        ("deadline_ms", Json::Int(deadline_ms as i128)),
        ("seed", Json::Int(SEED as i128)),
        ("apps", Json::Arr(apps.iter().map(AppRecord::to_json).collect())),
        (
            "synthetic",
            Json::Arr(synthetic.iter().map(SyntheticRecord::to_json).collect()),
        ),
    ]);
    let path = vase_bench::write_report("archgen", smoke, &report)?;
    println!("\nwritten to {} ({PARALLEL_JOBS} worker(s))", path.display());
    Ok(())
}
