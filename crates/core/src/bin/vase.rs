//! `vase` — command-line front end for the behavioral-synthesis flow.
//!
//! ```text
//! vase parse   <file.vhd>             check a VASS specification
//! vase compile <file.vhd> [--dot out.dot]  dump the VHIF representation
//! vase opt     <file.vhd> [options]   run the VHIF passes (const-fold, then dce),
//!                                     dump the result
//!     --print-stats     per-pass block/edge/rewrite/timing statistics
//!     --dot <base>      write <base>-before.dot and <base>-after.dot
//! vase synth   <file.vhd>... [options] synthesize to an op-amp netlist
//!     -O0|-O1|-O2       optimization level for the VHIF passes (default -O0;
//!                       -O1 and -O2 run the same two passes)
//!     --greedy          use the greedy heuristic instead of branch-and-bound
//!     --deadline-ms <t> mapping wall-clock budget; on exhaustion the best
//!                       incumbent architecture is returned (exit code 3)
//!     --max-nodes <n>   mapping explored-node budget (same anytime contract)
//!     --strategy exact|guided  mapping search: exhaustive branch-and-bound
//!                       (default) or model-guided best-first, which prunes on
//!                       a lower bound of the final area and returns the
//!                       exact search's netlist when run to completion (both
//!                       run the one shared Fig. 5 branching step; the
//!                       greedy heuristic calls it too)
//!     --cache-file <p>  persistent content-addressed cover cache: loaded
//!                       before mapping (when the file exists), saved after;
//!                       structurally repeated graphs then map in O(lookup)
//!     --range-prune     let the mapper drop library alternatives that the
//!                       fixed-point range analysis proves dominated at the
//!                       block's real output swing (off by default; off is
//!                       bit-identical to pre-analysis behavior)
//!     --format text|json  report style for multi-file batches (default text)
//!     --spice <out.sp>  also write a SPICE deck
//!     Multiple input files run as a panic-isolated batch: each file goes
//!     through the flow's full entry point (`vase::flow::synthesize_unit`;
//!     `synthesize_source` is the plain one), so a failing file is
//!     reported and the rest still synthesize.
//! vase lint    <file.vhd> [options]   run every static check, report diagnostics
//!     --format text|json    listing style (default text)
//!     --deny warnings       exit nonzero on warnings too
//! vase analyze <file.vhd> [options]   fixed-point range analysis: proven
//!                                     per-block bounds and range verdicts
//!     --format text|json    listing style (default text)
//! vase sim     <file.vhd> [options]   synthesize, then transient-simulate
//!     --input name=<stim>   stimulus per input; <stim> is one of
//!                           const:<v> | sine:<amp>,<freq> |
//!                           step:<before>,<after>,<t> |
//!                           pulse:<low>,<high>,<period>,<duty>
//!     --tend <seconds>      simulation length   (default 5e-3)
//!     --dt <seconds>        time step           (default 1e-6)
//!     --csv <out.csv>       write raw traces
//!     --monte-carlo <n>     instead of one transient, run <n>
//!                           tolerance-perturbed samples per design through
//!                           lane batches and report yield against the
//!                           specification's `range` annotations
//!     --tolerance <pct>     component tolerance in percent (default 5)
//!     --seed <u64>          perturbation stream seed (default 0x5EED)
//!     --inject-lane <s>:<t> poison sample <s> at step <t> (fault-isolation
//!                           demo: that lane degrades, the batch completes);
//!                           a sample or step outside the run is an error
//! vase serve  [options]               long-lived service: NDJSON requests
//!     --socket <path> | --workers <n> | --queue-depth <n> | --cache-file <p> |
//!     --snapshot-every <n> | --inject panic:N,timeout:N,malformed:N |
//!     --seed <u64> | --deadline-ms/--max-nodes/--strategy (as in `synth`)
//!     --snapshot-every <n>  save the --cache-file every <n> completed jobs
//!                           (default 8; 0 = only at shutdown); a snapshot
//!                           point with no new cover since the last save
//!                           writes nothing
//! vase table1 [options]               regenerate the paper's Table 1
//!     --deadline-ms/--max-nodes/--strategy  mapping budget and search,
//!                           as in `synth`
//!
//! `sim`, `serve` and `table1` also accept the `-O` levels of `synth`.
//! Each subcommand accepts only the flags listed for it; any other
//! `-`/`--` argument is a usage error that names it (exit code 1).
//!
//! Exit codes: `0` success, `1` hard failure (flow error, denied
//! diagnostics, bad usage), `3` degraded success (a mapping budget was
//! exhausted or a simulation aborted with a partial trace).
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::collections::BTreeMap;
use std::process::ExitCode;

use vase::archgen::{Budget, CoverCache, MapperConfig, SearchStrategy};
use vase::diag::json::{diagnostic_to_json, Json};
use vase::flow::{
    compile_source, monte_carlo_designs, opt_diagnostics, sim_diagnostics,
    simulate_designs_reported, synthesize_source, synthesize_unit, yield_diagnostics,
    FlowOptions, FlowStatus,
};
use vase::serve::{FaultPlan, ServerConfig};
use vase::service::timings_to_json;
use vase::sim::{render_ascii, MonteCarloConfig, SimConfig, Stimulus};

/// Exit code for degraded-but-usable results (budget-exhausted
/// incumbent plans, partial simulation traces).
const EXIT_DEGRADED: u8 = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<u8, String> {
    let Some(command) = args.first() else {
        return Err("missing command; try `vase parse|compile|synth|sim|table1`".into());
    };
    match command.as_str() {
        "parse" => cmd_parse(&args[1..]),
        "compile" => cmd_compile(&args[1..]),
        "opt" => cmd_opt(&args[1..]),
        "lint" => cmd_lint(&args[1..]),
        "analyze" => cmd_analyze(&args[1..]),
        "synth" => cmd_synth(&args[1..]),
        "sim" => cmd_sim(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "table1" => cmd_table1(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("vase — VHDL-AMS behavioral synthesis of analog systems");
            println!("commands: parse, compile, opt, lint, analyze, synth, sim, serve, table1 (see crate docs)");
            Ok(0)
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// The flags one subcommand accepts: `values` (space-separated) take an
/// operand, so a value is never mistaken for an input path; `switches`
/// stand alone; `opt_levels` admits `-O0|-O1|-O2`. Any other argument
/// starting with `-` is a usage error that names it.
struct FlagSet {
    command: &'static str,
    values: &'static str,
    switches: &'static str,
    opt_levels: bool,
}

const fn flags(
    command: &'static str,
    values: &'static str,
    switches: &'static str,
    opt_levels: bool,
) -> FlagSet {
    FlagSet { command, values, switches, opt_levels }
}

const PARSE: FlagSet = flags("parse", "", "", false);
const COMPILE: FlagSet = flags("compile", "--dot", "", false);
const OPT: FlagSet = flags("opt", "--dot", "--print-stats", false);
const LINT: FlagSet = flags("lint", "--format --deny", "", false);
const ANALYZE: FlagSet = flags("analyze", "--format", "", false);
const SYNTH: FlagSet = flags(
    "synth",
    "--deadline-ms --max-nodes --strategy --cache-file --format --spice",
    "--greedy --range-prune",
    true,
);
const SIM: FlagSet = flags(
    "sim",
    "--input --tend --dt --csv --monte-carlo --tolerance --seed --inject-lane",
    "",
    true,
);
const SERVE: FlagSet = flags(
    "serve",
    "--deadline-ms --max-nodes --strategy --workers --queue-depth --socket --snapshot-every \
     --cache-file --inject --seed",
    "",
    true,
);
const TABLE1: FlagSet = flags("table1", "--deadline-ms --max-nodes --strategy", "", true);

impl FlagSet {
    /// Every non-flag argument, in order: the input file paths. Fails
    /// on a flag this subcommand does not accept and on a value flag
    /// without its operand.
    fn inputs<'a>(&self, args: &'a [String]) -> Result<Vec<&'a String>, String> {
        let listed = |list: &str, a: &str| list.split_whitespace().any(|f| f == a);
        let mut paths = Vec::new();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let a = arg.as_str();
            if listed(self.values, a) {
                if rest.next().is_none() {
                    return Err(format!("`vase {}`: `{a}` needs a value", self.command));
                }
            } else if !a.starts_with('-') {
                paths.push(arg);
            } else if !(listed(self.switches, a) || self.opt_levels && a.starts_with("-O")) {
                let mut accepted: Vec<&str> = self
                    .values
                    .split_whitespace()
                    .chain(self.switches.split_whitespace())
                    .collect();
                if self.opt_levels {
                    accepted.push("-O0|-O1|-O2");
                }
                return Err(format!(
                    "`vase {}` does not accept `{a}` (flags: {})",
                    self.command,
                    if accepted.is_empty() { "none".to_owned() } else { accepted.join(", ") }
                ));
            }
        }
        Ok(paths)
    }
}

/// The input file of a single-file subcommand: the last path argument
/// (the file may appear before or after flags), as `(path, source)`.
fn read_source(flags: &FlagSet, args: &[String]) -> Result<(String, String), String> {
    read_sources(flags, args)?.pop().ok_or_else(|| "missing input file".to_owned())
}

/// Read every input file of a multi-file batch as `(path, source)`.
fn read_sources(flags: &FlagSet, args: &[String]) -> Result<Vec<(String, String)>, String> {
    let paths = flags.inputs(args)?;
    if paths.is_empty() {
        return Err("missing input file".into());
    }
    paths
        .into_iter()
        .map(|path| {
            std::fs::read_to_string(path)
                .map(|source| (path.clone(), source))
                .map_err(|e| format!("cannot read `{path}`: {e}"))
        })
        .collect()
}

/// Parse the `--deadline-ms`/`--max-nodes` mapping-budget flags.
fn budget_flags(args: &[String]) -> Result<Budget, String> {
    let mut budget = Budget::unlimited();
    if let Some(v) = flag_value(args, "--deadline-ms") {
        budget.deadline_ms =
            Some(v.parse::<u64>().map_err(|e| format!("bad --deadline-ms `{v}`: {e}"))?);
    }
    if let Some(v) = flag_value(args, "--max-nodes") {
        budget.max_nodes =
            Some(v.parse::<u64>().map_err(|e| format!("bad --max-nodes `{v}`: {e}"))?);
    }
    Ok(budget)
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

/// Parse `-O<n>` optimization-level flags (`-O0`..`-O2`); `None` when
/// absent.
fn opt_level_flag(args: &[String]) -> Result<Option<u8>, String> {
    for a in args {
        if let Some(level) = a.strip_prefix("-O") {
            return match level {
                "0" => Ok(Some(0)),
                "1" => Ok(Some(1)),
                "2" | "" => Ok(Some(2)),
                other => Err(format!("bad optimization level `-O{other}` (use -O0..-O2)")),
            };
        }
    }
    Ok(None)
}

/// Parse `--strategy exact|guided`; `None` when absent.
fn strategy_flag(args: &[String]) -> Result<Option<SearchStrategy>, String> {
    match flag_value(args, "--strategy") {
        None => Ok(None),
        Some("exact") => Ok(Some(SearchStrategy::Exact)),
        Some("guided") => Ok(Some(SearchStrategy::Guided)),
        Some(other) => Err(format!("unknown --strategy `{other}` (exact, guided)")),
    }
}

fn cmd_parse(args: &[String]) -> Result<u8, String> {
    let (_, source) = read_source(&PARSE, args)?;
    let design = vase::frontend::parse_design_file(&source).map_err(|e| e.to_string())?;
    let analyzed = vase::frontend::analyze(&design).map_err(|e| e.to_string())?;
    for arch in &analyzed.architectures {
        let stats = vase::compiler::vass_stats(&analyzed.design, &arch.entity);
        println!("architecture {} of {}: {}", arch.name, arch.entity, stats);
    }
    println!("ok");
    Ok(0)
}

fn cmd_compile(args: &[String]) -> Result<u8, String> {
    let (_, source) = read_source(&COMPILE, args)?;
    for (entity, vhif, stats) in compile_source(&source).map_err(|e| e.to_string())? {
        println!("-- entity {entity} ({stats})");
        println!("{vhif}");
        if let Some(path) = flag_value(args, "--dot") {
            std::fs::write(path, vase::vhif::design_to_dot(&vhif))
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
            println!("DOT graph written to {path}");
        }
        println!(
            "DAE note: simultaneous statements admit multiple signal-flow solvers; the\n\
             compiler chose a causal assignment, the mapper explores the alternatives."
        );
    }
    Ok(0)
}

fn cmd_opt(args: &[String]) -> Result<u8, String> {
    let (_, source) = read_source(&OPT, args)?;
    let manager = vase::vhif::PassManager::for_opt_level(2);
    let print_stats = args.iter().any(|a| a == "--print-stats");
    for (entity, mut vhif, _) in compile_source(&source).map_err(|e| e.to_string())? {
        if let Some(base) = flag_value(args, "--dot") {
            let path = format!("{base}-before.dot");
            std::fs::write(&path, vase::vhif::design_to_dot(&vhif))
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
            println!("DOT graph written to {path}");
        }
        let stats = manager.run(&mut vhif);
        if let Some(base) = flag_value(args, "--dot") {
            let path = format!("{base}-after.dot");
            std::fs::write(&path, vase::vhif::design_to_dot(&vhif))
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
            println!("DOT graph written to {path}");
        }
        let names: Vec<&str> = stats.iter().map(|s| s.name).collect();
        println!("-- entity {entity} (passes: {})", names.join(","));
        println!("{vhif}");
        if print_stats {
            for s in &stats {
                println!("{s}");
            }
        }
        for d in opt_diagnostics(&stats) {
            println!("{d}");
        }
    }
    Ok(0)
}

fn cmd_lint(args: &[String]) -> Result<u8, String> {
    let (path, source) = read_source(&LINT, args)?;
    let mut diags = vase::lint_source(&source);
    if args.windows(2).any(|w| w[0] == "--deny" && w[1] == "warnings") {
        vase::diag::deny_warnings(&mut diags);
    }
    match flag_value(args, "--format").unwrap_or("text") {
        "text" => print!("{}", vase::diag::render_all(&diags, &source, &path)),
        "json" => {
            println!("{}", vase::diag::json::report_to_json(&path, &diags).to_string_pretty())
        }
        other => return Err(format!("unknown --format `{other}` (text, json)")),
    }
    if vase::diag::has_errors(&diags) {
        return Err(format!("{path}: {}", vase::diag::summary(&diags)));
    }
    Ok(0)
}

fn cmd_analyze(args: &[String]) -> Result<u8, String> {
    let (_, source) = read_source(&ANALYZE, args)?;
    let analyses = vase::analyze_source(&source).map_err(|e| e.to_string())?;
    match flag_value(args, "--format").unwrap_or("text") {
        "text" => print!("{}", vase::analysis::render_analysis_text(&analyses)),
        "json" => {
            println!("{}", vase::analysis::analyses_to_json(&analyses).to_string_pretty())
        }
        other => return Err(format!("unknown --format `{other}` (text, json)")),
    }
    let has_errors =
        analyses.iter().any(|a| vase::diag::has_errors(&a.result.diagnostics));
    if has_errors {
        return Err("range analysis proved at least one violation".into());
    }
    Ok(0)
}

fn cmd_synth(args: &[String]) -> Result<u8, String> {
    let greedy = args.iter().any(|a| a == "--greedy");
    let mut mapper = MapperConfig {
        budget: budget_flags(args)?,
        ..MapperConfig::default()
    };
    if let Some(strategy) = strategy_flag(args)? {
        mapper.strategy = strategy;
    }
    mapper.range_prune = args.iter().any(|a| a == "--range-prune");
    if greedy {
        // Greedy applies per graph; run the pieces manually on the
        // last input file.
        let (_, source) = read_source(&SYNTH, args)?;
        let compiled = compile_source(&source).map_err(|e| e.to_string())?;
        let mut degraded = false;
        for (entity, vhif, _) in compiled {
            let estimator = vase::estimate::Estimator::default();
            for graph in &vhif.graphs {
                let result = vase::archgen::map_graph_greedy(graph, &estimator, &mapper)
                    .map_err(|e| e.to_string())?;
                println!("-- entity {entity} (greedy)");
                println!("{}", result.netlist);
                println!("estimate: {}", result.estimate);
                println!("search: {}", result.stats);
                degraded |= result.stats.budget_exhausted;
            }
        }
        return Ok(if degraded { EXIT_DEGRADED } else { 0 });
    }
    let options = FlowOptions {
        mapper,
        opt_level: opt_level_flag(args)?.unwrap_or(0),
        ..FlowOptions::default()
    };
    let sources = read_sources(&SYNTH, args)?;
    // With --cache-file, load the persisted cover cache (an absent file
    // starts empty), thread it through the whole batch, and save it
    // back afterwards so the next run reuses every proven cover.
    let cache_path = flag_value(args, "--cache-file");
    let cover_cache = match cache_path {
        Some(path) => {
            let p = std::path::Path::new(path);
            Some(if p.exists() {
                match CoverCache::load(p) {
                    Ok(cache) => cache,
                    Err(e) => {
                        // A truncated or garbage cache file degrades to
                        // a cold start (every graph reports an A212
                        // miss and repopulates it) instead of refusing
                        // to synthesize at all.
                        eprintln!(
                            "warning: cover cache `{path}` is unreadable ({e}); \
                             starting with an empty cache"
                        );
                        CoverCache::new()
                    }
                }
            } else {
                CoverCache::new()
            })
        }
        None => None,
    };
    let reports: Vec<_> = sources
        .iter()
        .map(|(name, source)| synthesize_unit(name, source, &options, cover_cache.as_ref(), None))
        .collect();
    if let (Some(path), Some(cache)) = (cache_path, &cover_cache) {
        cache
            .save(std::path::Path::new(path))
            .map_err(|e| format!("cannot write cover cache `{path}`: {e}"))?;
        println!(
            "cover cache: {} hit(s), {} miss(es), {} cover(s) saved to {path}",
            cache.hits(),
            cache.misses(),
            cache.len()
        );
    }
    match flag_value(args, "--format").unwrap_or("text") {
        "text" => render_synth_text(args, &reports)?,
        "json" => println!("{}", synth_reports_to_json(&reports).to_string_pretty()),
        other => return Err(format!("unknown --format `{other}` (text, json)")),
    }
    let hard_failure = reports
        .iter()
        .any(|r| matches!(r.status(), FlowStatus::Error | FlowStatus::Panicked));
    if hard_failure {
        Err("one or more input files failed to synthesize".into())
    } else if reports.iter().any(|r| r.budget_exhausted()) {
        Ok(EXIT_DEGRADED)
    } else {
        Ok(0)
    }
}

fn render_synth_text(args: &[String], reports: &[vase::flow::FlowReport]) -> Result<(), String> {
    let multi = reports.len() > 1;
    for report in reports {
        if multi {
            println!("== {} [{}]", report.name, report.status());
        }
        for diag in &report.diagnostics {
            println!("{diag}");
        }
        if let Some(error) = &report.error {
            eprintln!("error: {}: {error}", report.name);
            continue;
        }
        for d in &report.designs {
            println!("-- entity {}", d.entity);
            println!("{}", d.synthesis.netlist);
            println!("estimate: {}", d.synthesis.estimate);
            println!("search: {}", d.synthesis.stats);
            if let Some(path) = flag_value(args, "--spice") {
                let deck = vase::library::to_spice(&d.synthesis.netlist, &d.entity, 5e-3);
                std::fs::write(path, deck).map_err(|e| format!("cannot write `{path}`: {e}"))?;
                println!("SPICE deck written to {path}");
            }
        }
        println!("timings: {}", report.timings);
    }
    Ok(())
}

fn synth_reports_to_json(reports: &[vase::flow::FlowReport]) -> Json {
    Json::Arr(
        reports
            .iter()
            .map(|report| {
                Json::obj(vec![
                    ("file", Json::str(&report.name)),
                    ("status", Json::str(report.status().to_string())),
                    (
                        "error",
                        match &report.error {
                            Some(e) => Json::str(e.to_string()),
                            None => Json::Null,
                        },
                    ),
                    ("timings", timings_to_json(&report.timings)),
                    (
                        "diagnostics",
                        Json::Arr(report.diagnostics.iter().map(diagnostic_to_json).collect()),
                    ),
                    (
                        "designs",
                        Json::Arr(
                            report
                                .designs
                                .iter()
                                .map(|d| {
                                    Json::obj(vec![
                                        ("entity", Json::str(&d.entity)),
                                        (
                                            "opamps",
                                            Json::Int(d.synthesis.netlist.opamp_count() as i128),
                                        ),
                                        ("area_m2", Json::Num(d.synthesis.estimate.area_m2)),
                                        (
                                            "budget_exhausted",
                                            Json::Bool(d.synthesis.stats.budget_exhausted),
                                        ),
                                        (
                                            "nodes_explored",
                                            Json::Int(d.synthesis.stats.nodes_explored() as i128),
                                        ),
                                        (
                                            "cache_hits",
                                            Json::Int(d.synthesis.stats.cache_hits as i128),
                                        ),
                                        (
                                            "cache_misses",
                                            Json::Int(d.synthesis.stats.cache_misses as i128),
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

/// `vase serve` — a long-lived synthesis service over newline-
/// delimited JSON (stdin/stdout by default, `--socket <path>` for a
/// Unix socket). Requests are scheduled across `--workers` threads
/// behind a `--queue-depth`-bounded queue; beyond it requests are shed
/// with `A221` and a retry hint. Each job is panic-isolated and runs
/// under the `--deadline-ms` default (overridable per request), which
/// the watchdog enforces with `A220` best-so-far degradation. Warm
/// state (`--cache-file`) is snapshotted crash-safely every
/// `--snapshot-every` jobs and at shutdown; a snapshot point with no
/// cover inserted since the last save writes nothing. `--inject
/// panic:N,timeout:N,malformed:N` (with `--seed`) arms deterministic
/// fault injection for resilience testing.
fn cmd_serve(args: &[String]) -> Result<u8, String> {
    SERVE.inputs(args)?;
    let mut mapper = MapperConfig::default();
    let mut budget = budget_flags(args)?;
    // --deadline-ms is the default *job* deadline; the handler lowers
    // it into each job's mapping budget itself, so only --max-nodes
    // stays in the daemon-wide base budget.
    let default_deadline_ms = budget.deadline_ms.take();
    mapper.budget = budget;
    if let Some(strategy) = strategy_flag(args)? {
        mapper.strategy = strategy;
    }
    let options = FlowOptions {
        mapper,
        opt_level: opt_level_flag(args)?.unwrap_or(0),
        ..FlowOptions::default()
    };
    let mut handler = vase::service::FlowJobHandler::new(options);
    if let Some(path) = flag_value(args, "--cache-file") {
        handler = handler.with_cache_file(std::path::PathBuf::from(path));
    }
    let config = ServerConfig {
        workers: usize_flag(args, "--workers", 2)?,
        queue_depth: usize_flag(args, "--queue-depth", 16)?,
        default_deadline_ms,
        snapshot_every: usize_flag(args, "--snapshot-every", 8)? as u64,
        inject: match flag_value(args, "--inject") {
            Some(spec) => {
                let seed = match flag_value(args, "--seed") {
                    Some(v) => v.parse::<u64>().map_err(|e| format!("bad --seed `{v}`: {e}"))?,
                    None => 0x5EED,
                };
                Some(FaultPlan::parse(spec, seed)?)
            }
            None => None,
        },
    };

    let stats = match flag_value(args, "--socket") {
        Some(path) => serve_socket(path, &handler, &config)?,
        None => {
            let stdin = std::io::stdin();
            vase::serve::serve(stdin.lock(), std::io::stdout(), &handler, config)
                .map_err(|e| format!("serve failed: {e}"))?
        }
    };
    eprintln!(
        "serve: {} request(s), {} response(s), {} shed, {} panic(s), {} deadline hit(s)",
        stats.requests, stats.responses, stats.shed, stats.panicked, stats.deadline_hits
    );
    if let Some((hits, misses, len)) = handler.cache_stats() {
        eprintln!("serve: cover cache: {hits} hit(s), {misses} miss(es), {len} cover(s)");
    }
    Ok(0)
}

/// Serve over a Unix socket: one connection at a time (the warm cache
/// is shared across connections), until a client sends `shutdown`. An
/// I/O error on a connection, such as a client's reset, ends only that
/// connection: it is logged to stderr, what the connection did up to
/// the error joins the summary, and the next one is accepted.
fn serve_socket(
    path: &str,
    handler: &vase::service::FlowJobHandler,
    config: &ServerConfig,
) -> Result<vase::serve::ServeStats, String> {
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)
        .map_err(|e| format!("cannot bind socket `{path}`: {e}"))?;
    let mut total = vase::serve::ServeStats::default();
    loop {
        let (stream, _) = listener.accept().map_err(|e| format!("accept failed: {e}"))?;
        let reader = match stream.try_clone() {
            Ok(reader) => reader,
            Err(e) => {
                eprintln!("serve: connection dropped: {e}");
                continue;
            }
        };
        let stats = match vase::serve::serve(
            std::io::BufReader::new(reader),
            stream,
            handler,
            config.clone(),
        ) {
            Ok(stats) => stats,
            Err(dropped) => {
                eprintln!("serve: connection dropped: {dropped}");
                dropped.stats
            }
        };
        total.merge(&stats);
        if stats.shutdown {
            break;
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(total)
}

/// Parse an optional non-negative integer flag with a default.
fn usize_flag(args: &[String], flag: &str, default: usize) -> Result<usize, String> {
    match flag_value(args, flag) {
        Some(v) => v.parse::<usize>().map_err(|e| format!("bad {flag} `{v}`: {e}")),
        None => Ok(default),
    }
}

fn parse_stimulus(spec: &str) -> Result<Stimulus, String> {
    let (kind, params) = spec.split_once(':').unwrap_or((spec, ""));
    let values: Vec<f64> = if params.is_empty() {
        Vec::new()
    } else {
        params
            .split(',')
            .map(|v| match v.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(x),
                Ok(_) => Err(format!("parameter `{v}` is not finite")),
                Err(e) => Err(format!("bad number `{v}`: {e}")),
            })
            .collect::<Result<_, _>>()?
    };
    let need = |n: usize| -> Result<(), String> {
        if values.len() == n {
            Ok(())
        } else {
            Err(format!(
                "stimulus `{kind}` needs {n} parameter(s), got {}",
                values.len()
            ))
        }
    };
    match kind {
        "const" => {
            need(1)?;
            Ok(Stimulus::Constant { level: values[0] })
        }
        "sine" => {
            need(2)?;
            Ok(Stimulus::sine(values[0], values[1]))
        }
        "step" => {
            need(3)?;
            Ok(Stimulus::Step {
                before: values[0],
                after: values[1],
                at: values[2],
            })
        }
        "pulse" => {
            need(4)?;
            Ok(Stimulus::Pulse {
                low: values[0],
                high: values[1],
                period: values[2],
                duty: values[3],
            })
        }
        other => Err(format!(
            "unknown stimulus `{other}` (const, sine, step, pulse)"
        )),
    }
}

fn cmd_sim(args: &[String]) -> Result<u8, String> {
    let (_, source) = read_source(&SIM, args)?;
    let options = FlowOptions {
        opt_level: opt_level_flag(args)?.unwrap_or(0),
        ..FlowOptions::default()
    };
    let designs = synthesize_source(&source, &options).map_err(|e| e.to_string())?;
    let t_end: f64 = flag_value(args, "--tend")
        .unwrap_or("5e-3")
        .parse()
        .map_err(|e| format!("bad --tend: {e}"))?;
    let dt: f64 = flag_value(args, "--dt")
        .unwrap_or("1e-6")
        .parse()
        .map_err(|e| format!("bad --dt: {e}"))?;
    let mut stimuli: BTreeMap<String, Stimulus> = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--input" {
            let spec = args.get(i + 1).ok_or("--input needs name=<stimulus>")?;
            let (name, stim) = spec
                .split_once('=')
                .ok_or_else(|| format!("bad --input `{spec}`, expected name=<stimulus>"))?;
            let stim = parse_stimulus(stim).map_err(|e| format!("bad --input `{spec}`: {e}"))?;
            stimuli.insert(name.to_owned(), stim);
            i += 2;
        } else {
            i += 1;
        }
    }
    let config = SimConfig::new(dt, t_end);
    if flag_value(args, "--monte-carlo").is_some() {
        return cmd_sim_monte_carlo(args, &designs, &stimuli, &config);
    }
    let results = simulate_designs_reported(&designs, &stimuli, &config, None);
    let mut failed = false;
    let mut partial = false;
    for (d, result) in designs.iter().zip(&results) {
        match result {
            Ok(result) => {
                for diag in sim_diagnostics(result) {
                    println!("{diag}");
                }
                partial |= result.is_partial();
                for (name, _) in &d.synthesis.netlist.outputs {
                    println!("{}", render_ascii(result, name, 72, 14));
                }
                if let Some(path) = flag_value(args, "--csv") {
                    std::fs::write(path, result.to_csv(&[]))
                        .map_err(|e| format!("cannot write `{path}`: {e}"))?;
                    println!("traces written to {path}");
                }
            }
            Err(e) => {
                eprintln!("error: entity {}: {e}", d.entity);
                failed = true;
            }
        }
    }
    if failed {
        Err("one or more architectures failed to simulate".into())
    } else if partial {
        Ok(EXIT_DEGRADED)
    } else {
        Ok(0)
    }
}

/// The `vase sim --monte-carlo` mode: instead of one nominal transient,
/// run tolerance-perturbed samples of each design through lane batches
/// and report per-trace yield against the specification's `range`
/// annotations.
fn cmd_sim_monte_carlo(
    args: &[String],
    designs: &[vase::flow::SynthesizedDesign],
    stimuli: &BTreeMap<String, Stimulus>,
    config: &SimConfig,
) -> Result<u8, String> {
    let samples: usize = flag_value(args, "--monte-carlo")
        .expect("checked by caller")
        .parse()
        .map_err(|e| format!("bad --monte-carlo: {e}"))?;
    let pct: f64 = flag_value(args, "--tolerance")
        .unwrap_or("5")
        .parse()
        .map_err(|e| format!("bad --tolerance: {e}"))?;
    if !(0.0..100.0).contains(&pct) {
        return Err(format!("--tolerance is a percentage in [0, 100), got {pct}"));
    }
    let seed: u64 = match flag_value(args, "--seed") {
        Some(v) => v.parse().map_err(|e| format!("bad --seed `{v}`: {e}"))?,
        None => MonteCarloConfig::default().seed,
    };
    let inject = match flag_value(args, "--inject-lane") {
        Some(spec) => {
            let (s, t) = spec.split_once(':').ok_or_else(|| {
                format!("bad --inject-lane `{spec}`, expected <sample>:<step>")
            })?;
            let sample: usize =
                s.parse().map_err(|e| format!("bad --inject-lane sample `{s}`: {e}"))?;
            let step: usize =
                t.parse().map_err(|e| format!("bad --inject-lane step `{t}`: {e}"))?;
            // A poison outside the run would leave the yield untouched
            // while the S403 note claims a poisoned sample.
            if sample >= samples {
                return Err(format!(
                    "`--inject-lane {spec}` poisons nothing: sample {sample} is not one \
                     of the {samples} the run draws"
                ));
            }
            let steps = config.steps().map_err(|e| e.to_string())?;
            if step > steps {
                return Err(format!(
                    "`--inject-lane {spec}` poisons nothing: step {step} is past the \
                     last step ({steps}) of the window"
                ));
            }
            Some((sample, step))
        }
        None => None,
    };
    let mc = MonteCarloConfig {
        samples,
        tolerance: pct / 100.0,
        seed,
        inject,
    };
    let reports = monte_carlo_designs(designs, stimuli, config, &mc);
    let mut failed = false;
    let mut degraded = false;
    for (d, report) in designs.iter().zip(&reports) {
        match report {
            Ok(report) => {
                for diag in yield_diagnostics(&mc, report) {
                    println!("{diag}");
                }
                degraded |= report.degraded > 0;
                println!(
                    "entity {}: yield {}/{} ({:.1}%) at \u{00b1}{pct}% tolerance, \
                     {} degraded",
                    d.entity,
                    report.passed,
                    report.samples,
                    100.0 * report.yield_fraction(),
                    report.degraded,
                );
                if report.traces.is_empty() {
                    println!(
                        "  (no `range` annotation matches a recorded trace; yield \
                         counts fault-free completion only)"
                    );
                }
                for ty in &report.traces {
                    println!(
                        "  {:<16} range [{}, {}]: {} passed, {} failed",
                        ty.name, ty.lo, ty.hi, ty.passed, ty.failed
                    );
                }
            }
            Err(e) => {
                eprintln!("error: entity {}: {e}", d.entity);
                failed = true;
            }
        }
    }
    if failed {
        Err("one or more architectures failed Monte Carlo simulation".into())
    } else if degraded {
        Ok(EXIT_DEGRADED)
    } else {
        Ok(0)
    }
}

fn cmd_table1(args: &[String]) -> Result<u8, String> {
    static BENCHMARKS: [vase::benchmarks::Benchmark; 5] = [
        vase::benchmarks::RECEIVER,
        vase::benchmarks::POWER_METER,
        vase::benchmarks::MISSILE,
        vase::benchmarks::ITERATIVE,
        vase::benchmarks::FUNCTION_GENERATOR,
    ];
    TABLE1.inputs(args)?;
    let mut mapper = MapperConfig {
        budget: budget_flags(args)?,
        ..MapperConfig::default()
    };
    if let Some(strategy) = strategy_flag(args)? {
        mapper.strategy = strategy;
    }
    let opt_level = opt_level_flag(args)?.unwrap_or(0);
    let options = FlowOptions {
        mapper,
        opt_level,
        ..FlowOptions::default()
    };
    let mut rows = Vec::new();
    for b in &BENCHMARKS {
        rows.push((vase::table1_row(b, &options).map_err(|e| e.to_string())?, Some(b)));
    }
    println!("{}", vase::format_table1(&rows));
    for (row, _) in &rows {
        println!("{:<22} search: {}", row.application, row.stats);
    }
    if rows.iter().any(|(row, _)| row.stats.budget_exhausted) {
        Ok(EXIT_DEGRADED)
    } else {
        Ok(0)
    }
}
