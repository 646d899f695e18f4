//! Emit `BENCH_opt.json`: effect of the VHIF optimization pipeline on
//! every shipped benchmark spec — block/edge counts before and after
//! `-O2`, per-spec pass rewrites, and the architecture generator's
//! mapping wall-clock at `-O0` vs `-O2` — so the cost model behind the
//! pass pipeline is recorded run-over-run.
//!
//! ```sh
//! cargo run --release -p vase-bench --bin opt_bench [-- --smoke]
//! ```
//!
//! `--smoke` drops to a single synthesis repetition per spec so the
//! binary doubles as a CI gate, and writes its report under the system
//! temp directory, never over the committed `BENCH_opt.json`; the full
//! run keeps the best of `REPS` mapping phases, matching
//! `archgen_bench`.

use vase::archgen::MapStats;
use vase::flow::{synthesize_source, FlowOptions};
use vase::vhif::PassManager;
use vase_bench::json::Json;

const REPS: usize = 3;

struct SpecRecord {
    name: String,
    blocks_o0: usize,
    blocks_o2: usize,
    edges_o0: usize,
    edges_o2: usize,
    rewrites: usize,
    map_o0_us: u64,
    map_o2_us: u64,
    opamps_o0: usize,
    opamps_o2: usize,
}

impl SpecRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("spec", Json::str(self.name.clone())),
            ("blocks_o0", Json::Int(self.blocks_o0 as i128)),
            ("blocks_o2", Json::Int(self.blocks_o2 as i128)),
            ("edges_o0", Json::Int(self.edges_o0 as i128)),
            ("edges_o2", Json::Int(self.edges_o2 as i128)),
            ("pass_rewrites", Json::Int(self.rewrites as i128)),
            ("map_o0_us", Json::Int(self.map_o0_us as i128)),
            ("map_o2_us", Json::Int(self.map_o2_us as i128)),
            ("opamps_o0", Json::Int(self.opamps_o0 as i128)),
            ("opamps_o2", Json::Int(self.opamps_o2 as i128)),
        ])
    }
}

/// Best-of-`reps` mapping wall-clock (summed over the file's designs)
/// and the resulting op-amp count at one optimization level.
fn best_map_run(source: &str, opt_level: u8, reps: usize) -> Result<(u64, usize), String> {
    let options = FlowOptions {
        opt_level,
        ..FlowOptions::default()
    };
    let mut best: Option<u64> = None;
    let mut opamps = 0;
    for _ in 0..reps {
        let designs = synthesize_source(source, &options).map_err(|e| e.to_string())?;
        let mut stats = MapStats::default();
        for d in &designs {
            stats.merge(&d.synthesis.stats);
        }
        opamps = designs.iter().map(|d| d.synthesis.netlist.opamp_count()).sum();
        if best.is_none_or(|b| stats.elapsed_us < b) {
            best = Some(stats.elapsed_us);
        }
    }
    Ok((best.expect("reps >= 1"), opamps))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let reps = if smoke { 1 } else { REPS };

    let mut specs = Vec::new();
    for (name, _, source) in vase::benchmarks::corpus() {
        // Structural effect: compile once, run the -O2 pipeline, diff.
        let designs = vase::compile_source(source).map_err(|e| e.to_string())?;
        let mut blocks_o0 = 0;
        let mut blocks_o2 = 0;
        let mut edges_o0 = 0;
        let mut edges_o2 = 0;
        let mut rewrites = 0;
        for (_, vhif, _) in designs {
            blocks_o0 += vhif.graphs.iter().map(|g| g.len()).sum::<usize>();
            edges_o0 += vhif.edge_count();
            let mut opt = vhif;
            let stats = PassManager::for_opt_level(2).run(&mut opt);
            rewrites += stats.iter().map(|s| s.rewrites).sum::<usize>();
            blocks_o2 += opt.graphs.iter().map(|g| g.len()).sum::<usize>();
            edges_o2 += opt.edge_count();
        }
        // Mapping cost with and without the pipeline in the flow.
        let (map_o0_us, opamps_o0) = best_map_run(source, 0, reps)?;
        let (map_o2_us, opamps_o2) = best_map_run(source, 2, reps)?;
        println!(
            "{name:<22} blocks {blocks_o0:>3} -> {blocks_o2:>3} | map O0 {map_o0_us:>8} µs, O2 {map_o2_us:>8} µs"
        );
        specs.push(SpecRecord {
            name: name.to_owned(),
            blocks_o0,
            blocks_o2,
            edges_o0,
            edges_o2,
            rewrites,
            map_o0_us,
            map_o2_us,
            opamps_o0,
            opamps_o2,
        });
    }

    let total_o0: usize = specs.iter().map(|s| s.blocks_o0).sum();
    let total_o2: usize = specs.iter().map(|s| s.blocks_o2).sum();
    let map_o0: u64 = specs.iter().map(|s| s.map_o0_us).sum();
    let map_o2: u64 = specs.iter().map(|s| s.map_o2_us).sum();
    assert!(
        total_o2 < total_o0,
        "optimization pipeline no longer reduces the corpus ({total_o0} -> {total_o2} blocks)"
    );

    let report = Json::obj([
        ("benchmark", Json::str("opt")),
        ("smoke", Json::Bool(smoke)),
        ("repetitions", Json::Int(reps as i128)),
        ("total_blocks_o0", Json::Int(total_o0 as i128)),
        ("total_blocks_o2", Json::Int(total_o2 as i128)),
        ("total_map_o0_us", Json::Int(map_o0 as i128)),
        ("total_map_o2_us", Json::Int(map_o2 as i128)),
        ("specs", Json::Arr(specs.iter().map(SpecRecord::to_json).collect())),
    ]);
    let path = vase_bench::write_report("opt", smoke, &report)?;
    println!(
        "\nwritten to {} (corpus blocks {total_o0} -> {total_o2}, \
         mapping {map_o0} µs -> {map_o2} µs)",
        path.display()
    );
    Ok(())
}
