//! `serve_mixed`: the real `vase serve` daemon over its stdin/stdout
//! protocol, driven by one closed-loop client with two requests in
//! flight.
//!
//! This is the only workload that crosses the process, protocol and
//! queue boundary. Most requests replay cached covers, while a steady 5%
//! of freshly generated cascades write new covers, and every eighth job
//! rewrites the snapshot file, so snapshot and replay costs show here
//! and nowhere else. Each round starts a fresh daemon on an empty cache
//! file, so every round does the same work. The `sim` op is left out:
//! the protocol carries no stimuli, so every design with inputs fails.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use vase::diag::json::Json;
use vase::flow::FlowOptions;

use crate::expected::Expected;
use crate::harness::{self, CheckUnit, Measured, RunConfig};
use crate::layers::{self, same_area};
use crate::pace::Pace;
use crate::rng::Rng;
use crate::search::cascade_source;
use crate::stats;
use crate::trace::Tracer;

/// Requests per round (one daemon lifetime).
const REQUESTS: usize = 3_000;
const SMOKE_REQUESTS: usize = 200;
/// Requests the client keeps in flight (the machine has two cores).
const IN_FLIGHT: usize = 2;
/// Requests between two probes of the host's pace.
const PROBE_EVERY: usize = 250;
/// Stage counts of the fixed pool of cascades.
const POOL_STAGES: [usize; 8] = [4, 4, 5, 5, 5, 6, 6, 6];

/// A synthesizable source and its expected result.
struct Spec {
    key: String,
    source: String,
    opt_level: u8,
    opamps: usize,
    area_m2: f64,
}

/// One request; corpus spec `c` is `specs[2 * c]` (its -O0 entry).
#[derive(Clone, Copy, PartialEq)]
enum Op {
    /// Lint of corpus spec `c`.
    Lint(usize),
    /// Range analysis of corpus spec `c`.
    Analyze(usize),
    /// Synthesis of `specs[i]`.
    Synth(usize),
    /// Synthesis of a fresh cascade of this many stages.
    Fresh(usize),
}

/// The daemon under test, shut down (or killed) on drop.
struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    cache: PathBuf,
}

impl Daemon {
    fn spawn(vase: &Path, cache: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(&cache);
        let mut child = Command::new(vase)
            .args(["serve", "--workers", "2", "--cache-file"])
            .arg(&cache)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start `{}`: {e}", vase.display()))?;
        let stdin = child.stdin.take().ok_or("daemon has no stdin")?;
        let stdout = BufReader::new(child.stdout.take().ok_or("daemon has no stdout")?);
        let mut d = Daemon {
            child,
            stdin,
            stdout,
            cache,
        };
        d.send(r#"{"id":"ping","op":"ping"}"#)?;
        let pong = d.receive()?;
        if pong.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(format!("daemon did not answer ping: {}", pong.to_line()));
        }
        Ok(d)
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        self.stdin
            .write_all(buf.as_bytes())
            .map_err(|e| format!("write to daemon: {e}"))
    }

    fn receive(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("daemon closed its output".to_owned()),
            Ok(_) => Json::parse(line.trim_end()).map_err(|e| format!("bad response line: {e}")),
            Err(e) => Err(format!("read from daemon: {e}")),
        }
    }

    /// Peak memory, then a clean `shutdown` and exit.
    fn finish(mut self) -> Result<f64, String> {
        let rss = harness::peak_rss_mb(&self.child.id().to_string()).ok_or("no daemon VmHWM")?;
        self.send(r#"{"id":"bye","op":"shutdown"}"#)?;
        self.receive()?;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait for daemon: {e}"))?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(rss)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Already exited after `finish`; otherwise an error path left it
        // running and it must not outlive the benchmark.
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.cache);
        let _ = std::fs::remove_file(self.cache.with_extension("bin.tmp"));
    }
}

fn vase_binary() -> PathBuf {
    std::env::var_os("VASE_BIN").map_or_else(
        || {
            harness::work_dir()
                .parent()
                .unwrap_or(Path::new("."))
                .join("release")
                .join("vase")
        },
        PathBuf::from,
    )
}

fn request_line(id: usize, op: &str, source: &str, opt_level: u8) -> String {
    Json::obj([
        ("id", Json::Int(id as i128)),
        ("op", Json::str(op)),
        ("source", Json::str(source)),
        ("opt_level", Json::Int(i128::from(opt_level))),
    ])
    .to_line()
}

/// A round's requests in a seeded order: 45% synth of a corpus spec
/// (half at -O0, half at -O2), 15% lint, 15% analyze, 20% synth from the
/// cascade pool, 5% synth of a fresh cascade. The counts are exact and
/// the specs take turns, so seeds differ only in order and in the fresh
/// cascades' gains. Every round of a run sends the same requests.
fn round_requests(seed: u64, n: usize, corpus: usize, pool: usize) -> Vec<(Op, String)> {
    let mut rng = Rng::new(seed, 1_000);
    let share = |percent: usize| n * percent / 100;
    let mut requests = Vec::with_capacity(n);
    requests.extend((0..share(45)).map(|i| (Op::Synth(i % (corpus * 2)), String::new())));
    requests.extend((0..share(15)).map(|i| (Op::Lint(i % corpus), String::new())));
    requests.extend((0..share(15)).map(|i| (Op::Analyze(i % corpus), String::new())));
    requests.extend((0..share(20)).map(|i| (Op::Synth(corpus * 2 + i % pool), String::new())));
    while requests.len() < n {
        let stages = 4 + requests.len() % 3;
        requests.push((Op::Fresh(stages), cascade_source(stages, &mut rng)));
    }
    rng.shuffle(&mut requests);
    requests
}

/// What set-up hands the rounds: expectations, the requests, and the
/// daemon round 0 runs on.
struct State {
    specs: Vec<Spec>,
    requests: Vec<(Op, String)>,
    daemon: Option<Daemon>,
}

/// Per-request outcome of one round.
struct Answer {
    op: Op,
    rtt_ms: f64,
    response: Json,
}

/// The unit a request's round trip is timed under: its op and design,
/// so each unit repeats the same work (a corpus synth unit also holds
/// the one cache miss per round that fills the daemon's fresh cache).
fn unit_key(op: Op, specs: &[Spec]) -> String {
    let entity = |c: usize| specs[2 * c].key.trim_end_matches("@O0");
    match op {
        Op::Lint(c) => format!("lint {}", entity(c)),
        Op::Analyze(c) => format!("analyze {}", entity(c)),
        Op::Synth(i) => format!("synth {}", specs[i].key),
        Op::Fresh(stages) => format!("synth fresh.pi{stages}"),
    }
}

/// Check one response against its expectation.
fn check_answer(a: &Answer, specs: &[Spec], per_stage: usize) -> Result<(), String> {
    let r = &a.response;
    let status = r.get("status").and_then(Json::as_str).unwrap_or("?");
    if status != "ok" {
        let error = r.get("error").and_then(Json::as_str).unwrap_or("");
        return Err(format!(
            "request {}: status {status} {error}",
            r.get("id").map_or(String::new(), Json::to_line)
        ));
    }
    let designs = r.get("designs").and_then(Json::as_arr).unwrap_or(&[]);
    let total = |field: &str| {
        designs
            .iter()
            .filter_map(|d| d.get(field).and_then(Json::as_f64))
            .sum::<f64>()
    };
    match a.op {
        Op::Lint(_) => Ok(()),
        Op::Analyze(_) => {
            if designs
                .iter()
                .all(|d| d.get("converged").and_then(Json::as_bool) == Some(true))
            {
                Ok(())
            } else {
                Err("analyze: range analysis did not converge".to_owned())
            }
        }
        Op::Synth(i) => {
            let s = &specs[i];
            if total("opamps") as usize == s.opamps && same_area(total("area_m2"), s.area_m2) {
                Ok(())
            } else {
                Err(format!(
                    "{}: daemon returned {} op amps / {:e} m2, in-process flow {} / {:e}",
                    s.key,
                    total("opamps"),
                    total("area_m2"),
                    s.opamps,
                    s.area_m2
                ))
            }
        }
        Op::Fresh(stages) => {
            if total("opamps") as usize == stages * per_stage {
                Ok(())
            } else {
                Err(format!(
                    "fresh cascade of {stages} stages: {} op amps",
                    total("opamps")
                ))
            }
        }
    }
}

/// Drive one round through `daemon` with [`IN_FLIGHT`] requests
/// outstanding, recording each round trip as it arrives. Every
/// [`PROBE_EVERY`] requests the client lets the daemon run dry and
/// probes the host's pace on both cores. Returns the answers by
/// request id.
fn drive(
    daemon: &mut Daemon,
    requests: &[(Op, String)],
    specs: &[Spec],
    tr: &mut Tracer,
    m: &mut Measured,
    round: u64,
) -> Result<Vec<Option<Answer>>, String> {
    let line_of = |i: usize| -> String {
        match requests[i].0 {
            Op::Lint(c) => request_line(i, "lint", &specs[2 * c].source, 0),
            Op::Analyze(c) => request_line(i, "analyze", &specs[2 * c].source, 0),
            Op::Synth(s) => request_line(i, "synth", &specs[s].source, specs[s].opt_level),
            Op::Fresh(_) => request_line(i, "synth", &requests[i].1, 0),
        }
    };
    let n = requests.len();
    let mut sent: Vec<Option<(Instant, u32)>> = vec![None; n];
    let mut answers: Vec<Option<Answer>> = (0..n).map(|_| None).collect();
    let (mut next, mut probed_at) = (0, 0);
    let mut free_lanes: Vec<u32> = (0..IN_FLIGHT as u32).rev().collect();
    for _ in 0..n {
        // Top up to IN_FLIGHT; at a probe point, first wait for the
        // outstanding requests (every lane free), then probe.
        while next < n && !free_lanes.is_empty() {
            if next % PROBE_EVERY == 0 && next != probed_at {
                if free_lanes.len() < IN_FLIGHT {
                    break;
                }
                m.probe();
                probed_at = next;
            }
            let line = line_of(next);
            sent[next] = Some((Instant::now(), free_lanes.pop().unwrap_or(0)));
            daemon.send(&line)?;
            next += 1;
        }
        let response = daemon.receive()?;
        let done = Instant::now();
        let id = response
            .get("id")
            .and_then(Json::as_int)
            .and_then(|i| usize::try_from(i).ok());
        let Some(id) = id.filter(|&i| i < n) else {
            return Err(format!("response with unknown id: {}", response.to_line()));
        };
        let Some((at, lane)) = sent[id] else {
            return Err(format!("response {id} for a request never sent"));
        };
        if answers[id].is_some() {
            return Err(format!("request {id} answered twice"));
        }
        free_lanes.push(lane);
        if tr.on() {
            trace_request(tr, round * 1_000_000 + id as u64, lane, at, done, &response);
        }
        let rtt_ms = (done - at).as_secs_f64() * 1e3;
        m.sample(&unit_key(requests[id].0, specs), rtt_ms);
        answers[id] = Some(Answer {
            op: requests[id].0,
            rtt_ms,
            response,
        });
    }
    Ok(answers)
}

/// One span per request, with the job and its flow phases rebuilt from
/// the response's `elapsed_ms` and `timings` (laid end to end, ending
/// when the response arrived).
fn trace_request(
    tr: &mut Tracer,
    unit: u64,
    lane: u32,
    sent: Instant,
    done: Instant,
    response: &Json,
) {
    let ms = |x: f64| std::time::Duration::from_secs_f64(x.max(0.0) / 1e3);
    let request = tr.record("serve.request", unit, lane, sent, done, None);
    let elapsed = response
        .get("elapsed_ms")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let job_start = done.checked_sub(ms(elapsed)).unwrap_or(sent).max(sent);
    let job = tr.record("serve.job", unit, lane, job_start, done, request);
    let mut at = job_start;
    for (field, name) in [
        ("parse_ms", "serve.flow.parse"),
        ("opt_ms", "serve.flow.opt"),
        ("verify_ms", "serve.flow.verify"),
        ("synth_ms", "serve.flow.synth"),
    ] {
        let Some(phase) = response
            .get("timings")
            .and_then(|t| t.get(field))
            .and_then(Json::as_f64)
        else {
            continue;
        };
        let end = (at + ms(phase)).min(done);
        tr.record(name, unit, lane, at, end, job);
        at = end;
    }
}

/// Run the workload.
pub fn run(cfg: &RunConfig, tr: &mut Tracer, m: &mut Measured) -> Result<(), String> {
    let expected = Expected::load()?;
    let vase = vase_binary();
    if !vase.is_file() {
        return Err(format!(
            "the daemon binary `{}` does not exist (build it or set VASE_BIN)",
            vase.display()
        ));
    }
    let dir = harness::work_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
    let cache_file = |round: u64| dir.join(format!("serve-{}-{round}.bin", std::process::id()));
    let corpus = vase::benchmarks::corpus().len();
    let n = if cfg.smoke { SMOKE_REQUESTS } else { REQUESTS };
    // The daemon's two workers run on both cores, so the pace is probed
    // on both.
    m.pace = Pace::new(IN_FLIGHT);

    let setup = |tr: &mut Tracer, m: &mut Measured| {
        // The expected result of every fixed synth request, from the
        // in-process flow (which the layered flow must reproduce).
        let mut pool_rng = Rng::new(0x9001, 0);
        let mut sources: Vec<(String, String, u8)> = Vec::new();
        for (_, entity, source) in vase::benchmarks::corpus() {
            for level in [0u8, 2] {
                sources.push((format!("{entity}@O{level}"), source.to_owned(), level));
            }
        }
        for (p, &stages) in POOL_STAGES.iter().enumerate() {
            sources.push((
                format!("pool{p}.pi{stages}"),
                cascade_source(stages, &mut pool_rng),
                0,
            ));
        }
        let mut specs = Vec::new();
        for (i, (key, source, opt_level)) in sources.into_iter().enumerate() {
            let options = FlowOptions {
                opt_level,
                ..FlowOptions::default()
            };
            let (report, _, _) = layers::run_pair(
                tr,
                &mut m.pairs,
                &key,
                2_000_000 + i as u64,
                &source,
                &options,
            )?;
            let opamps = report
                .designs
                .iter()
                .map(|d| d.synthesis.netlist.opamp_count())
                .sum();
            let area_m2 = report
                .designs
                .iter()
                .map(|d| d.synthesis.estimate.area_m2)
                .sum();
            specs.push(Spec {
                key,
                source,
                opt_level,
                opamps,
                area_m2,
            });
        }
        let requests = round_requests(cfg.seed, n, corpus, POOL_STAGES.len());
        let daemon = Daemon::spawn(&vase, cache_file(0))?;
        Ok(State {
            specs,
            requests,
            daemon: Some(daemon),
        })
    };
    let (mut hits, mut lookups) = (0.0, 0.0);
    let (mut outside, mut flow) = (Vec::new(), Vec::new());
    let round = |tr: &mut Tracer, m: &mut Measured, state: &mut State, round: u64| {
        let specs = &state.specs;
        let mut d = match state.daemon.take() {
            Some(d) => d,
            None => Daemon::spawn(&vase, cache_file(round))?,
        };
        let answers = drive(&mut d, &state.requests, specs, tr, m, round)?;
        if tr.on() && round == 0 {
            m.summary
                .push(("cache_save_ms", Json::Num(time_cache_save(&d.cache, &dir))));
        }
        m.rss_mb.push(d.finish()?);
        for a in answers.iter().flatten() {
            m.check(check_answer(a, specs, expected.opamps_per_stage));
            let r = &a.response;
            let elapsed = r.get("elapsed_ms").and_then(Json::as_f64).unwrap_or(0.0);
            outside.push((a.rtt_ms - elapsed) / a.rtt_ms);
            let designs = r.get("designs").and_then(Json::as_arr).unwrap_or(&[]);
            let count = |f: &str| {
                designs
                    .iter()
                    .filter_map(|d| d.get(f).and_then(Json::as_f64))
                    .sum::<f64>()
            };
            if let Op::Synth(_) | Op::Fresh(_) = a.op {
                hits += count("cache_hits");
                lookups += count("cache_hits") + count("cache_misses");
                let total = r
                    .get("timings")
                    .and_then(|t| t.get("total_ms"))
                    .and_then(Json::as_f64);
                if let Some(total) = total.filter(|_| elapsed > 0.0) {
                    flow.push(total / elapsed);
                }
            }
        }
        Ok(answers.len())
    };
    let state = harness::measure(cfg, tr, m, setup, round)?;
    let specs = &state.specs;
    // The corpus half of the expectations must match the hand-written file.
    for (i, (_, entity, _)) in vase::benchmarks::corpus().iter().enumerate() {
        for (j, level) in [0u8, 2].into_iter().enumerate() {
            let s = &specs[i * 2 + j];
            m.check(match expected.corpus(entity, level) {
                Some(e) if e == s.opamps => Ok(()),
                e => Err(format!(
                    "{}: in-process flow gives {} op amps, expected.txt {e:?}",
                    s.key, s.opamps
                )),
            });
        }
    }
    if tr.on() {
        let p50 = m
            .unit_ms
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(stats::median(v.values()))))
            .collect();
        m.summary.push(("serve_rtt_ms_p50", Json::Obj(p50)));
    }
    if lookups > 0.0 {
        m.serve.cache_hit_ratio = hits / lookups;
    }
    if !outside.is_empty() {
        m.serve.outside_job_share = stats::median(&outside);
        m.serve.responses = outside.len();
    }
    if !flow.is_empty() {
        m.serve.flow_share = stats::median(&flow);
    }

    let checks: Vec<CheckUnit<'_>> = specs
        .iter()
        .map(|s| CheckUnit {
            key: s.key.clone(),
            source: &s.source,
            options: FlowOptions {
                opt_level: s.opt_level,
                ..FlowOptions::default()
            },
        })
        .collect();
    harness::check_outputs(cfg, tr, m, &checks, true);
    Ok(())
}

/// `CoverCache::save` of a daemon's cache file, timed from outside.
fn time_cache_save(cache: &Path, dir: &Path) -> f64 {
    let Ok(covers) = vase::archgen::CoverCache::load(cache) else {
        return 0.0;
    };
    let copy = dir.join(format!("save-{}.bin", std::process::id()));
    let t = Instant::now();
    let saved = covers.save(&copy);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_file(&copy);
    if saved.is_ok() {
        ms
    } else {
        0.0
    }
}
