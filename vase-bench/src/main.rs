//! `vase-bench`: one seeded benchmark of the VASE flow, end to end and
//! layer by layer.
//!
//! ```text
//! vase-bench [run] --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//!            [--smoke] [--out <records file>]
//! vase-bench compare [--benchmark BENCHMARK.json] <parent records…> -- <change records…>
//! ```
//!
//! A run prints every metric by name with its unit and sample count,
//! then, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics, or with `--trace 1`
//! the per-layer metrics, with the spans written as Chrome trace JSON.
//! It exits 0 when every output check passed, 1 when one failed, and 2
//! when the run could not be carried out. See `README.md`.

mod compare;
mod corpus;
mod expected;
mod harness;
mod layers;
mod metrics;
mod pace;
mod rng;
mod search;
mod serve;
mod sim;
mod stats;
mod trace;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use vase::diag::json::Json;

use crate::harness::{Measured, RunConfig};
use crate::trace::Tracer;

/// A workload: name and runner.
struct Workload {
    name: &'static str,
    run: fn(&RunConfig, &mut Tracer, &mut Measured) -> Result<(), String>,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "corpus_flow",
        run: corpus::run,
    },
    Workload {
        name: "search_heavy",
        run: search::run,
    },
    Workload {
        name: "serve_mixed",
        run: serve::run,
    },
    Workload {
        name: "sim_transient",
        run: sim::run,
    },
];

struct Args {
    workload: &'static Workload,
    config: RunConfig,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut config = RunConfig {
        seed: 1,
        seconds: 30.0,
        smoke: false,
    };
    let (mut trace, mut out) = (false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
                    format!("unknown workload `{name}` (corpus_flow, search_heavy, serve_mixed, sim_transient)")
                })?);
            }
            "--seed" => config.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                config.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--smoke" => config.smoke = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        config,
        trace,
        out,
    })
}

fn metrics_json(metrics: &[metrics::Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let mut tr = Tracer::new(args.trace);
    let mut m = Measured::default();
    (args.workload.run)(&args.config, &mut tr, &mut m)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rounds = m.round_rates.seen();
    println!(
        "vase-bench {}: seed {}, {} round(s), nproc {nproc}{}",
        args.workload.name,
        args.config.seed,
        rounds,
        if args.trace { ", traced" } else { "" }
    );
    let (kernel_ms, probes) = m.pace.kernel_ms();
    println!(
        "  pace: kernel {kernel_ms:.4} ms (geometric mean of {probes} probes), nominal {} ms",
        pace::NOMINAL_MS
    );
    let metrics = if args.trace {
        metrics::per_layer(&tr, &m)
    } else {
        metrics::end_to_end(&m)
    };
    for metric in &metrics {
        println!(
            "  {:<28} {:>16.6} {:<8} n={:<8} {}",
            metric.name, metric.value, metric.unit, metric.n, metric.how
        );
    }
    if args.trace {
        let layered = m.pairs.layered_over_unit();
        println!(
            "  traced layered flow / synthesize_unit: {layered:.4} (geometric mean over units; worst unit off by {:.2}%)",
            m.pairs.worst_layered_deviation() * 100.0
        );
        let path = harness::work_dir().join(format!(
            "trace-{}-{}.json",
            args.workload.name, args.config.seed
        ));
        let mut extra = vec![
            ("workload", Json::str(args.workload.name)),
            ("layered_over_unit", Json::Num(layered)),
            (
                "worst_layered_deviation",
                Json::Num(m.pairs.worst_layered_deviation()),
            ),
        ];
        extra.append(&mut m.summary);
        tr.write_chrome(&path, extra)
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
        println!("  chrome trace: {}", path.display());
    }
    let failed = m.failures.len() as u64;
    for f in m.failures.iter().take(20) {
        eprintln!("check failed: {f}");
    }
    let correct = failed == 0 && m.attempted > 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(i128::from(m.attempted))),
        ("failed", Json::Int(i128::from(failed))),
        ("metrics", metrics_json(&metrics)),
    ]);
    if let Some(path) = &args.out {
        let record = Json::obj([
            ("workload", Json::str(args.workload.name)),
            ("seed", Json::Int(i128::from(args.config.seed))),
            ("trace", Json::Bool(args.trace)),
            ("smoke", Json::Bool(args.config.smoke)),
            ("nproc", Json::Int(nproc as i128)),
            ("correct", Json::Bool(correct)),
            ("metrics", metrics_json(&metrics)),
        ]);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open `{}`: {e}", path.display()))?;
        writeln!(file, "{}", record.to_line())
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    }
    println!("{}", result.to_line());
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::run(&args[1..]),
        Some("run") => parse_args(&args[1..]).and_then(|a| run(&a)),
        _ => parse_args(&args).and_then(|a| run(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("vase-bench: {e}");
            ExitCode::from(2)
        }
    }
}
