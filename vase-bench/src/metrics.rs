//! The metrics a run prints: end-to-end ones from an untraced run,
//! per-layer ones from a traced run. The names, units and directions
//! are the ones `BENCHMARK.json` declares.

use crate::harness::Measured;
use crate::stats;
use crate::trace::Tracer;

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Samples the value was computed from.
    pub n: usize,
    /// How the value was taken, for the human-readable line.
    pub how: String,
}

fn metric(
    name: &'static str,
    unit: &'static str,
    value: f64,
    n: usize,
    how: impl Into<String>,
) -> Metric {
    Metric {
        name,
        unit,
        value,
        n,
        how: how.into(),
    }
}

/// The end-to-end metrics. The timings are paced (see
/// [`crate::pace`]).
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let per_unit: Vec<f64> = m
        .unit_ms
        .values()
        .map(|v| stats::median(v.values()))
        .collect();
    let timed: u64 = m.unit_ms.values().map(|v| v.seen()).sum();
    let or_zero = |v: &[f64], f: &dyn Fn(&[f64]) -> f64| if v.is_empty() { 0.0 } else { f(v) };
    vec![
        metric(
            "setup_s",
            "s",
            or_zero(&m.setup_s, &stats::median),
            m.setup_s.len(),
            "median of paced set-up repetitions",
        ),
        metric(
            "unit_ms_geomean",
            "ms",
            or_zero(&per_unit, &stats::geomean),
            timed as usize,
            format!(
                "geometric mean over {} units of each unit's paced median",
                per_unit.len()
            ),
        ),
        metric(
            "unit_ms_tail",
            "ms",
            or_zero(m.round_tails.values(), &stats::median),
            m.round_tails.seen() as usize,
            "median over rounds of each round's paced p99 operation",
        ),
        metric(
            "units_per_s",
            "1/s",
            or_zero(m.round_rates.values(), &stats::median),
            m.round_rates.seen() as usize,
            "median over rounds of operations per paced second",
        ),
        metric(
            "peak_rss_mb",
            "MiB",
            or_zero(&m.rss_mb, &stats::median),
            m.rss_mb.len(),
            "VmHWM of the working process",
        ),
        metric(
            "opamps_total",
            "count",
            m.opamps_total,
            1,
            "one pass over the distinct designs",
        ),
        metric(
            "area_total_mm2",
            "mm2",
            m.area_total_mm2,
            1,
            "one pass over the distinct designs",
        ),
    ]
}

/// The per-layer metrics, from the spans and counters of a traced run.
pub fn per_layer(tr: &Tracer, m: &Measured) -> Vec<Metric> {
    let totals = tr.totals();
    let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.self_time.as_secs_f64());
    let calls = |name: &str| totals.get(name).map_or(0, |t| t.count as usize);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mean_us = |name: &'static str, metric_name: &'static str| {
        metric(
            metric_name,
            "us",
            ratio(secs(name) * 1e6, calls(name) as f64),
            calls(name),
            format!("mean self time of `{name}`"),
        )
    };
    let exact_nodes = tr.counter("archgen.nodes.exact");
    let guided_nodes = tr.counter("archgen.nodes.guided");
    let map_calls = calls("archgen.map.exact") + calls("archgen.map.guided");
    let map_s = secs("archgen.map.exact") + secs("archgen.map.guided");
    let front_s = secs("frontend.parse") + secs("frontend.sema");
    vec![
        mean_us("frontend.parse", "frontend.parse_us"),
        mean_us("frontend.sema", "frontend.sema_us"),
        metric(
            "frontend.mb_per_s",
            "MB/s",
            ratio(tr.counter("frontend.bytes") / 1e6, front_s),
            calls("frontend.parse"),
            "source bytes / (parse + sema)",
        ),
        mean_us("compiler.lower", "compiler.lower_us"),
        metric(
            "compiler.blocks",
            "count",
            ratio(
                tr.counter("compiler.blocks"),
                calls("compiler.lower") as f64,
            ),
            calls("compiler.lower"),
            "VHIF blocks per compiled unit",
        ),
        mean_us("vhif.passes", "vhif.passes_us"),
        metric(
            "vhif.pass_rewrites",
            "count",
            ratio(
                tr.counter("vhif.pass_rewrites"),
                calls("vhif.passes") as f64,
            ),
            calls("vhif.passes"),
            "rewrites per pipeline run",
        ),
        mean_us("vhif.verify", "vhif.verify_us"),
        mean_us("analyze.range", "analyze.range_us"),
        metric(
            "archgen.map_us",
            "us",
            ratio(map_s * 1e6, map_calls as f64),
            map_calls,
            "mean time per mapping call",
        ),
        metric(
            "archgen.visited_nodes",
            "count",
            ratio(exact_nodes + guided_nodes, map_calls as f64),
            map_calls,
            "decision-tree nodes per mapping call",
        ),
        metric(
            "archgen.us_per_node.exact",
            "us",
            ratio(secs("archgen.map.exact") * 1e6, exact_nodes),
            exact_nodes as usize,
            "exact search time per visited node",
        ),
        metric(
            "archgen.us_per_node.guided",
            "us",
            ratio(secs("archgen.map.guided") * 1e6, guided_nodes),
            guided_nodes as usize,
            "guided search time per visited node",
        ),
        metric(
            "archgen.pruned_share",
            "fraction",
            ratio(tr.counter("archgen.pruned"), exact_nodes + guided_nodes),
            map_calls,
            "(bound + memo pruned) / visited",
        ),
        metric(
            "archgen.cache_hit_ratio",
            "fraction",
            m.serve.cache_hit_ratio,
            m.serve.responses,
            "serve responses: cache hits / lookups",
        ),
        mean_us("sim.plan", "sim.plan_compile_us"),
        metric(
            "sim.scalar_step_ns",
            "ns",
            ratio(secs("sim.scalar") * 1e9, tr.counter("sim.scalar_steps")),
            tr.counter("sim.scalar_steps") as usize,
            "scalar stepping time per step",
        ),
        metric(
            "sim.lane_step_ns",
            "ns",
            ratio(secs("sim.lanes") * 1e9, tr.counter("sim.lane_steps")),
            tr.counter("sim.lane_steps") as usize,
            "batched stepping time per lane-step",
        ),
        metric(
            "sim.recovered_steps",
            "count",
            tr.counter("sim.recovered_steps"),
            calls("sim.scalar"),
            "steps rescued by step halving",
        ),
        metric(
            "serve.outside_job_share",
            "fraction",
            m.serve.outside_job_share,
            m.serve.responses,
            "median (round trip - elapsed_ms) / round trip",
        ),
        metric(
            "serve.flow_share",
            "fraction",
            m.serve.flow_share,
            m.serve.responses,
            "median timings.total_ms / elapsed_ms",
        ),
        metric(
            "core.flow_overhead_us",
            "us",
            m.pairs.flow_overhead_us(),
            m.pairs.units(),
            "synthesize_unit minus its layer spans, median over units",
        ),
    ]
}
