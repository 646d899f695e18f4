//! The `vase serve` job handler: plugs the synthesis flow into the
//! generic [`vase_serve`] substrate.
//!
//! One [`FlowJobHandler`] lives for the whole daemon. It owns the warm
//! state — a shared [`CoverCache`] that accumulates proven covers
//! across requests — and persists it crash-safely on the server's
//! snapshot cadence (the cache's own write-temp-then-rename protocol,
//! see `vase_archgen::cache`). A snapshot point writes only when a
//! cover was inserted since the last successful write, and two
//! workers' snapshots run one after the other. Every job runs with
//! the effective deadline lowered into the mapper's
//! [`vase_budget::Budget`] *and* the serve-level [`CancelToken`]
//! threaded through analysis and simulation stepping loops, so a
//! deadline stops all three layers.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use vase_archgen::CoverCache;
use vase_budget::CancelToken;
use vase_diag::json::Json;
use vase_serve::{JobHandler, JobOutput, Op, Request};
use vase_sim::{SimConfig, Stimulus};

use crate::flow::{
    sim_diagnostics, simulate_designs_reported, synthesize_unit, FlowOptions, PhaseTimings,
    SynthesizedDesign,
};

/// Per-phase wall-clock timings as a JSON object — the `timings` field
/// of both `synth --format json` reports and serve responses.
pub fn timings_to_json(t: &PhaseTimings) -> Json {
    Json::obj(vec![
        ("parse_ms", Json::Num(t.parse_ms)),
        ("opt_ms", Json::Num(t.opt_ms)),
        ("verify_ms", Json::Num(t.verify_ms)),
        ("synth_ms", Json::Num(t.synth_ms)),
        ("sim_ms", Json::Num(t.sim_ms)),
        ("total_ms", Json::Num(t.total_ms)),
    ])
}

/// One synthesized design as the JSON object serve responses carry.
fn design_to_json(d: &SynthesizedDesign) -> Json {
    Json::obj(vec![
        ("entity", Json::str(&d.entity)),
        ("opamps", Json::Int(d.synthesis.netlist.opamp_count() as i128)),
        ("area_m2", Json::Num(d.synthesis.estimate.area_m2)),
        ("budget_exhausted", Json::Bool(d.synthesis.stats.budget_exhausted)),
        ("nodes_explored", Json::Int(d.synthesis.stats.nodes_explored() as i128)),
        ("cache_hits", Json::Int(d.synthesis.stats.cache_hits as i128)),
        ("cache_misses", Json::Int(d.synthesis.stats.cache_misses as i128)),
    ])
}

/// The long-lived flow handler behind `vase serve`.
pub struct FlowJobHandler {
    options: FlowOptions,
    /// Warm cover cache and where to snapshot it; `None` runs cold.
    cache: Option<(PathBuf, CoverCache)>,
}

impl FlowJobHandler {
    /// A handler with the given default options and no cache
    /// persistence.
    pub fn new(options: FlowOptions) -> Self {
        FlowJobHandler { options, cache: None }
    }

    /// Attach a cover-cache snapshot file. An existing readable file
    /// warms the cache; a truncated or garbage one degrades to a cold
    /// start (matching the CLI's `--cache-file` behavior) — the warm
    /// path must never refuse to serve.
    pub fn with_cache_file(mut self, path: PathBuf) -> Self {
        let cache = if path.exists() {
            match CoverCache::load(&path) {
                Ok(cache) => cache,
                Err(e) => {
                    eprintln!(
                        "warning: cover cache `{}` is unreadable ({e}); \
                         starting with an empty cache",
                        path.display()
                    );
                    CoverCache::new()
                }
            }
        } else {
            CoverCache::new()
        };
        self.cache = Some((path, cache));
        self
    }

    /// Hit/miss/size counters of the warm cache, if one is attached.
    pub fn cache_stats(&self) -> Option<(u64, u64, usize)> {
        self.cache.as_ref().map(|(_, c)| (c.hits(), c.misses(), c.len()))
    }

    /// The request's source text: inline `source` wins, else the file
    /// at `path` is read per-request (so an edited file re-serves
    /// without a daemon restart).
    fn source_of(request: &Request) -> Result<(String, String), String> {
        if let Some(src) = &request.source {
            let name = request.path.clone().unwrap_or_else(|| "<inline>".to_owned());
            return Ok((name, src.clone()));
        }
        let Some(path) = &request.path else {
            return Err("request needs a `source` or `path` field".to_owned());
        };
        std::fs::read_to_string(path)
            .map(|src| (path.clone(), src))
            .map_err(|e| format!("cannot read `{path}`: {e}"))
    }

    /// Job options for one request: the daemon defaults with the
    /// request's `opt_level` and the effective deadline lowered into
    /// the mapping budget.
    fn job_options(&self, request: &Request, deadline_ms: Option<u64>) -> FlowOptions {
        let mut options = self.options;
        if let Some(level) = request.opt_level {
            options.opt_level = level;
        }
        if let Some(ms) = deadline_ms {
            let tighter = match options.mapper.budget.deadline_ms {
                Some(existing) => existing.min(ms),
                None => ms,
            };
            options.mapper.budget.deadline_ms = Some(tighter);
        }
        options
    }

    fn lint(&self, source: &str) -> JobOutput {
        let diagnostics = crate::lint_source(source);
        let mut out = if vase_diag::has_errors(&diagnostics) {
            JobOutput::error("lint found errors")
        } else {
            JobOutput::ok()
        };
        out.diagnostics = diagnostics;
        out
    }

    fn analyze(&self, source: &str, token: &CancelToken) -> JobOutput {
        let compiled = match crate::flow::compile_source(source) {
            Ok(c) => c,
            Err(e) => return JobOutput::error(e.to_string()),
        };
        let mut out = JobOutput::ok();
        for (entity, mut vhif, _) in compiled {
            let result = vase_analyze::annotate_design_bounds_with_cancel(&mut vhif, Some(token));
            out.designs.push(Json::obj(vec![
                ("entity", Json::str(&entity)),
                ("converged", Json::Bool(result.converged)),
                ("cancelled", Json::Bool(result.cancelled)),
            ]));
            out.diagnostics.extend(result.diagnostics);
        }
        if vase_diag::has_errors(&out.diagnostics) {
            out.status = "error".into();
            out.error = Some("range analysis proved at least one violation".to_owned());
        }
        out
    }

    fn synth(&self, name: &str, source: &str, options: &FlowOptions, token: &CancelToken)
        -> JobOutput {
        let report =
            synthesize_unit(name, source, options, self.cache.as_ref().map(|(_, c)| c), Some(token));
        let mut out = JobOutput::ok();
        out.status = report.status().to_string();
        out.error = report.error.as_ref().map(|e| e.to_string());
        out.diagnostics = report.diagnostics;
        out.designs = report.designs.iter().map(design_to_json).collect();
        out.timings = timings_to_json(&report.timings);
        out
    }

    fn sim(&self, name: &str, source: &str, request: &Request, options: &FlowOptions,
           token: &CancelToken) -> JobOutput {
        let report =
            synthesize_unit(name, source, options, self.cache.as_ref().map(|(_, c)| c), Some(token));
        let mut timings = report.timings;
        let mut out = JobOutput::ok();
        out.status = report.status().to_string();
        out.error = report.error.as_ref().map(|e| e.to_string());
        out.diagnostics = report.diagnostics;
        if report.error.is_some() {
            out.timings = timings_to_json(&timings);
            return out;
        }
        let config =
            SimConfig::new(request.dt.unwrap_or(1e-6), request.tend.unwrap_or(5e-3));
        let stimuli: BTreeMap<String, Stimulus> = BTreeMap::new();
        let t0 = Instant::now();
        let results = simulate_designs_reported(&report.designs, &stimuli, &config, Some(token));
        timings.sim_ms += t0.elapsed().as_secs_f64() * 1e3;
        timings.total_ms += timings.sim_ms;
        let mut failed = false;
        for (d, result) in report.designs.iter().zip(&results) {
            match result {
                Ok(result) => {
                    out.diagnostics.extend(sim_diagnostics(result));
                    let outputs: Vec<(String, Json)> = d
                        .synthesis
                        .netlist
                        .outputs
                        .iter()
                        .filter_map(|(port, _)| {
                            result.range(port).map(|(lo, hi)| {
                                (port.clone(), Json::Arr(vec![Json::Num(lo), Json::Num(hi)]))
                            })
                        })
                        .collect();
                    out.designs.push(Json::obj(vec![
                        ("entity", Json::str(&d.entity)),
                        ("samples", Json::Int(result.time.len() as i128)),
                        ("cancelled", Json::Bool(result.cancelled)),
                        (
                            "output_ranges",
                            Json::Obj(outputs),
                        ),
                    ]));
                }
                Err(e) => {
                    failed = true;
                    out.designs.push(Json::obj(vec![
                        ("entity", Json::str(&d.entity)),
                        ("error", Json::str(e.to_string())),
                    ]));
                }
            }
        }
        if failed && out.status == "ok" {
            out.status = "error".into();
            out.error = Some("one or more designs failed to simulate".to_owned());
        }
        out.timings = timings_to_json(&timings);
        out
    }
}

impl JobHandler for FlowJobHandler {
    fn handle(&self, request: &Request, token: &CancelToken, deadline_ms: Option<u64>)
        -> JobOutput {
        let (name, source) = match Self::source_of(request) {
            Ok(pair) => pair,
            Err(e) => return JobOutput::error(e),
        };
        let options = self.job_options(request, deadline_ms);
        match request.op {
            Op::Lint => self.lint(&source),
            Op::Analyze => self.analyze(&source, token),
            Op::Synth => self.synth(&name, &source, &options, token),
            Op::Sim => self.sim(&name, &source, request, &options, token),
            // Ping and Shutdown are answered by the server loop and
            // never reach the handler.
            Op::Ping | Op::Shutdown => JobOutput::ok(),
        }
    }

    /// Crash-safe warm-state persistence: `CoverCache::save` writes
    /// `<path>.tmp` and renames, one save at a time, so a `kill -9`
    /// mid-snapshot leaves either the previous snapshot or the new one
    /// — never a torn file. With no insert since the last successful
    /// save it writes nothing; a failed save is retried at the next
    /// snapshot point.
    fn snapshot(&self) {
        if let Some((path, cache)) = &self.cache {
            if let Err(e) = cache.save(path) {
                eprintln!("warning: cover cache snapshot to `{}` failed: {e}", path.display());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vase_serve::{serve, ServerConfig};

    fn request_line(id: u64, op: &str, source: &str) -> String {
        Json::obj(vec![
            ("id", Json::Int(id as i128)),
            ("op", Json::str(op)),
            ("source", Json::str(source)),
        ])
        .to_line()
    }

    fn serve_lines(handler: &FlowJobHandler, lines: &[String]) -> Vec<Json> {
        let input = lines.join("\n");
        let mut out = Vec::new();
        serve(input.as_bytes(), &mut out, handler, ServerConfig::default())
            .expect("in-process serve");
        String::from_utf8(out)
            .expect("UTF-8 responses")
            .lines()
            .map(|l| Json::parse(l).expect("valid response JSON"))
            .collect()
    }

    #[test]
    fn synth_jobs_round_trip_with_timings_and_designs() {
        let handler = FlowJobHandler::new(FlowOptions::default());
        let src = crate::benchmarks::RECEIVER.source;
        let responses = serve_lines(&handler, &[request_line(1, "synth", src)]);
        assert_eq!(responses.len(), 1);
        let r = &responses[0];
        assert_eq!(r.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(r.get("exit").and_then(Json::as_int), Some(0));
        let designs = r.get("designs").and_then(Json::as_arr).expect("designs");
        assert!(!designs.is_empty());
        assert!(designs[0].get("opamps").and_then(Json::as_int).expect("opamps") > 0);
        let timings = r.get("timings").expect("timings object");
        assert!(timings.get("total_ms").and_then(Json::as_f64).expect("total") > 0.0);
    }

    #[test]
    fn warm_cache_turns_repeat_requests_into_a211_hits() {
        let dir = std::env::temp_dir()
            .join(format!("vase-serve-warm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let cache_path = dir.join("covers.bin");
        let _ = std::fs::remove_file(&cache_path);
        let src = crate::benchmarks::RECEIVER.source;

        // Cold daemon: populates the cache, snapshots at shutdown.
        let handler =
            FlowJobHandler::new(FlowOptions::default()).with_cache_file(cache_path.clone());
        let _ = serve_lines(&handler, &[request_line(1, "synth", src)]);
        assert!(cache_path.exists(), "shutdown snapshot persisted the cache");

        // Restarted daemon: the same request must hit the warm cache
        // and say so with A211 diagnostics.
        let handler =
            FlowJobHandler::new(FlowOptions::default()).with_cache_file(cache_path.clone());
        let responses = serve_lines(&handler, &[request_line(2, "synth", src)]);
        let diags = responses[0].get("diagnostics").and_then(Json::as_arr).expect("diags");
        assert!(
            diags.iter().any(|d| d.get("code").and_then(Json::as_str) == Some("A211")),
            "warm-cache round trip must report A211 hits"
        );
        let (hits, _, _) = handler.cache_stats().expect("cache attached");
        assert!(hits > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_whole_stack_degrades_malformed_sources_to_error_responses() {
        let handler = FlowJobHandler::new(FlowOptions::default());
        let responses = serve_lines(
            &handler,
            &[
                request_line(1, "synth", "entity broken is port(q: quantity"),
                request_line(2, "lint", "-- empty file"),
                request_line(3, "analyze", "garbage !!"),
            ],
        );
        assert_eq!(responses.len(), 3, "bad sources never kill the daemon");
        for r in &responses {
            let status = r.get("status").and_then(Json::as_str).expect("status");
            assert!(status == "ok" || status == "error", "unexpected status {status}");
        }
    }
}
