//! `vase-fuzz` — deterministic mutation fuzzing of the analysis
//! pipeline.
//!
//! Mutates the 17 shipped VASS specifications (the 11-example
//! benchmark corpus plus the 6 lint fixtures) with the offline
//! SplitMix64 generator and asserts two oracles on every mutant:
//!
//! * the full parse → sema → compile → verify path
//!   ([`vase::lint_source`]) never panics — broken input must come
//!   back as diagnostics, not aborts;
//! * the fixed-point range analysis ([`vase::analyze_source`]) never
//!   panics and, on every mutant it can compile, reaches its fixed
//!   point (`converged`) — widening must bound the iteration on
//!   arbitrary mutated graphs, cyclic ones included.
//!
//! ```text
//! vase-fuzz [--smoke] [--seed <n>] [--mutants <n>] [--verbose]
//! ```
//!
//! `--smoke` is the CI configuration: fixed seed, 128 mutants, exit
//! nonzero on any panic. Every run is bit-reproducible from its seed;
//! a failing mutant is reprinted with the `--seed`/`--mutants` pair
//! that regenerates it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use vase_bench::mutants::{build_mutant, corpus, SMOKE_SEED};

/// Mutant count of `--smoke` runs: ≥ 100 per the resilience contract.
const SMOKE_MUTANTS: usize = 128;

struct RunStats {
    clean: usize,
    diagnosed: usize,
    panics: usize,
    /// Mutants the range analyzer compiled and solved to a fixed point.
    analyzed: usize,
    /// Mutants whose range analysis failed to converge (oracle breach).
    diverged: usize,
}

fn run(seed: u64, mutants: usize, verbose: bool) -> RunStats {
    let specs = corpus();
    let mut stats = RunStats {
        clean: 0,
        diagnosed: 0,
        panics: 0,
        analyzed: 0,
        diverged: 0,
    };
    // Silence the default per-panic backtrace spew; panics are counted
    // and reported in the summary instead.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for i in 0..mutants {
        let (pick, mutant) = build_mutant(&specs, seed, i);
        match catch_unwind(AssertUnwindSafe(|| vase::lint_source(&mutant))) {
            Ok(diags) if diags.is_empty() => stats.clean += 1,
            Ok(diags) => {
                stats.diagnosed += 1;
                if verbose {
                    println!(
                        "mutant {i} ({}): {} diagnostic(s), first: {}",
                        specs[pick].0,
                        diags.len(),
                        diags[0]
                    );
                }
            }
            Err(_) => {
                stats.panics += 1;
                eprintln!(
                    "PANIC on mutant {i} of {} (base spec `{}`); reproduce with \
                     --seed {seed:#x} --mutants {mutants}\n--- mutant source ---\n{}\n---",
                    specs[pick].0, specs[pick].0, mutant
                );
            }
        }
        // Second oracle: the range analyzer must neither panic nor
        // fail to reach its widened fixed point. Frontend/compile
        // errors are fine (the mutant is simply not analyzable).
        match catch_unwind(AssertUnwindSafe(|| vase::analyze_source(&mutant))) {
            Ok(Ok(analyses)) => {
                stats.analyzed += 1;
                for a in &analyses {
                    if !a.result.converged {
                        stats.diverged += 1;
                        eprintln!(
                            "DIVERGED on mutant {i} (base spec `{}`, entity `{}`); reproduce \
                             with --seed {seed:#x} --mutants {mutants}",
                            specs[pick].0, a.entity
                        );
                    }
                }
            }
            Ok(Err(_)) => {}
            Err(_) => {
                stats.panics += 1;
                eprintln!(
                    "ANALYZER PANIC on mutant {i} (base spec `{}`); reproduce with \
                     --seed {seed:#x} --mutants {mutants}\n--- mutant source ---\n{}\n---",
                    specs[pick].0, mutant
                );
            }
        }
    }
    std::panic::set_hook(hook);
    stats
}

/// The response statuses `vase serve` is allowed to emit, with their
/// exit codes — the per-request contract the soak asserts.
const VALID_STATUSES: [(&str, i128); 7] = [
    ("ok", 0),
    ("budget-exhausted", 3),
    ("deadline-exceeded", 3),
    ("overloaded", 3),
    ("error", 1),
    ("panicked", 1),
    ("malformed", 1),
];

/// Build soak request `i`: a deterministic mix of valid jobs, fuzzed
/// mutants (sent only to the lint/analyze ops the no-panic oracle
/// covers), pathological deadlines, and malformed wire lines.
fn build_soak_request(specs: &[(String, String)], seed: u64, i: usize) -> String {
    use vase::diag::json::Json;
    let spec = &specs[i % specs.len()].1;
    let line = |op: &str, source: &str, deadline_ms: Option<u64>| {
        let mut fields = vec![
            ("id", Json::Int(i as i128)),
            ("op", Json::str(op)),
            ("source", Json::str(source)),
        ];
        if let Some(ms) = deadline_ms {
            fields.push(("deadline_ms", Json::Int(ms as i128)));
        }
        Json::obj(fields).to_line()
    };
    match i % 8 {
        0 => line("synth", spec, None),
        1 => line("lint", &build_mutant(specs, seed, i).1, None),
        2 => line("analyze", &build_mutant(specs, seed, i).1, None),
        // Pathological deadlines: effectively-zero and absurdly huge.
        3 => line("sim", spec, Some(1)),
        4 => line("synth", spec, Some(10_000_000)),
        5 => line("analyze", spec, None),
        // Broken wire data: half a request, then plain garbage.
        6 => {
            let full = line("synth", spec, None);
            full[..full.len() / 2].to_owned()
        }
        _ => format!("!!not json {i}!!"),
    }
}

/// `--soak`: drive an in-process `vase serve` over a mixed request
/// stream and assert the service invariants — one parseable response
/// per request, every status/exit pair from the published contract,
/// and no panic or hang escaping the server — then re-run the same
/// stream with deterministic fault injection armed. Returns the
/// violation count.
fn run_soak(seed: u64, requests: usize, verbose: bool) -> usize {
    use vase::diag::json::Json;
    use vase::serve::{serve, FaultPlan, ServerConfig};

    let specs = corpus();
    let input: String = (0..requests)
        .map(|i| build_soak_request(&specs, seed, i) + "\n")
        .collect();
    let mut violations = 0;
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for inject in [None, Some("panic:4,timeout:4,malformed:4")] {
        let config = ServerConfig {
            workers: 2,
            queue_depth: requests.max(16),
            snapshot_every: 4,
            inject: inject.map(|spec| FaultPlan::parse(spec, seed).expect("inject spec")),
            ..ServerConfig::default()
        };
        let handler = vase::service::FlowJobHandler::new(vase::flow::FlowOptions::default());
        let mut out = Vec::new();
        let served = catch_unwind(AssertUnwindSafe(|| {
            serve(input.as_bytes(), &mut out, &handler, config)
        }));
        let stats = match served {
            Ok(Ok(stats)) => stats,
            Ok(Err(e)) => {
                eprintln!("SOAK: serve returned an I/O error: {e}");
                violations += 1;
                continue;
            }
            Err(_) => {
                eprintln!("SOAK: a panic escaped the server loop");
                violations += 1;
                continue;
            }
        };
        let text = String::from_utf8_lossy(&out);
        let responses: Vec<&str> = text.lines().collect();
        if responses.len() != requests || stats.responses as usize != requests {
            eprintln!(
                "SOAK: {} requests but {} response line(s) (inject: {inject:?})",
                requests,
                responses.len()
            );
            violations += 1;
        }
        let mut panicked = 0usize;
        for line in &responses {
            let Ok(response) = Json::parse(line) else {
                eprintln!("SOAK: unparseable response line: {line}");
                violations += 1;
                continue;
            };
            let status = response.get("status").and_then(Json::as_str).unwrap_or("<missing>");
            let exit = response.get("exit").and_then(Json::as_int);
            if !VALID_STATUSES.iter().any(|(s, e)| *s == status && Some(*e) == exit) {
                eprintln!("SOAK: invalid status/exit pair in: {line}");
                violations += 1;
            }
            panicked += usize::from(status == "panicked");
        }
        // Without injection nothing in the mixed stream may panic
        // (mutants only reach the lint/analyze no-panic oracles).
        if inject.is_none() && panicked > 0 {
            eprintln!("SOAK: {panicked} unexpected panicked response(s) without injection");
            violations += 1;
        }
        if verbose || violations > 0 {
            println!(
                "soak pass (inject: {inject:?}): {} responses, {} shed, {} panicked, \
                 {} deadline hit(s), {} malformed",
                stats.responses, stats.shed, stats.panicked, stats.deadline_hits, stats.malformed
            );
        }
    }
    std::panic::set_hook(hook);
    violations
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let verbose = args.iter().any(|a| a == "--verbose");
    let seed = match flag_value(&args, "--seed") {
        Some(v) => {
            let v = v.trim_start_matches("0x");
            match u64::from_str_radix(v, 16).or_else(|_| v.parse()) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: bad --seed `{v}`: {e}");
                    return std::process::ExitCode::FAILURE;
                }
            }
        }
        None => SMOKE_SEED,
    };
    let mutants = match flag_value(&args, "--mutants") {
        Some(v) => match v.parse() {
            Ok(n) => n,
            Err(e) => {
                eprintln!("error: bad --mutants `{v}`: {e}");
                return std::process::ExitCode::FAILURE;
            }
        },
        None if smoke => SMOKE_MUTANTS,
        None => 512,
    };
    if args.iter().any(|a| a == "--soak") {
        let requests = match flag_value(&args, "--requests") {
            Some(v) => match v.parse() {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("error: bad --requests `{v}`: {e}");
                    return std::process::ExitCode::FAILURE;
                }
            },
            None => 160,
        };
        let violations = run_soak(seed, requests, verbose);
        println!(
            "soak: {requests} request(s) x2 passes (seed {seed:#x}): {violations} violation(s)"
        );
        return if violations > 0 {
            std::process::ExitCode::FAILURE
        } else {
            std::process::ExitCode::SUCCESS
        };
    }
    let stats = run(seed, mutants, verbose);
    println!(
        "fuzz: {mutants} mutants over {} specs (seed {seed:#x}): {} clean, {} diagnosed, \
         {} panic(s); range analysis on {} compilable mutant(s), {} diverged",
        corpus().len(),
        stats.clean,
        stats.diagnosed,
        stats.panics,
        stats.analyzed,
        stats.diverged
    );
    if stats.panics > 0 || stats.diverged > 0 {
        std::process::ExitCode::FAILURE
    } else {
        std::process::ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_seventeen_specs() {
        assert_eq!(corpus().len(), 17);
    }

    #[test]
    fn mutants_are_reproducible_from_seed_and_index() {
        let specs = corpus();
        for i in 0..8 {
            assert_eq!(
                build_mutant(&specs, 0xABCD, i),
                build_mutant(&specs, 0xABCD, i)
            );
        }
        assert_ne!(build_mutant(&specs, 1, 0).1, build_mutant(&specs, 2, 0).1);
    }

    #[test]
    fn smoke_sized_run_never_panics() {
        let stats = run(SMOKE_SEED, 32, false);
        assert_eq!(stats.panics, 0);
        assert_eq!(stats.clean + stats.diagnosed, 32);
        assert_eq!(stats.diverged, 0, "range analysis failed to converge");
    }
}
