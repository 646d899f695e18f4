//! What every workload shares: the run settings, the measurement
//! record, repeated set-up, the round loop, and the output checks run
//! once per distinct design after timing.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use vase::flow::FlowOptions;
use vase::sim::{SimConfig, Stimulus};

use crate::layers::{self, PairTimes};
use crate::pace::Pace;
use crate::rng::Rng;
use crate::stats;
use crate::trace::Tracer;

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// How long the round loop measures.
    pub seconds: f64,
    /// Tiny sizes and a single round, for tests.
    pub smoke: bool,
}

/// Times the set-up runs per measurement; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

/// Most samples kept per unit key, and of per-round values.
const KEEP_PER_KEY: usize = 1 << 12;
const KEEP_PER_ROUND: usize = 1 << 15;

/// A uniform sample of at most `cap` of the values pushed (reservoir
/// sampling). The buffer is allocated and written in full up front, so
/// the benchmark's own memory does not grow with the number of rounds:
/// `peak_rss_mb` of an in-process workload is this process's VmHWM, and
/// a faster flow must not read as more memory.
pub struct Samples {
    kept: Vec<f64>,
    cap: usize,
    seen: u64,
}

impl Samples {
    /// An empty sample keeping at most `cap` values.
    pub fn new(cap: usize) -> Self {
        // `vec![x; n]` with a nonzero `x` writes every element, so the
        // pages are resident before the first round.
        let mut kept = vec![f64::NAN; cap];
        kept.clear();
        Samples { kept, cap, seen: 0 }
    }

    /// Record one value. Past `cap`, the value replaces a kept one with
    /// probability `cap / seen`; the slot comes from a hash of the count,
    /// so a rerun keeps the same positions.
    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.kept.len() < self.cap {
            self.kept.push(x);
        } else {
            let slot = Rng::new(self.seen, 0).next_u64() % self.seen;
            if let Some(kept) = self.kept.get_mut(slot as usize) {
                *kept = x;
            }
        }
    }

    /// The kept values.
    pub fn values(&self) -> &[f64] {
        &self.kept
    }

    /// How many values were pushed.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

impl Default for Samples {
    fn default() -> Self {
        Samples::new(KEEP_PER_ROUND)
    }
}

/// Everything one run measured. Every timing in it is paced: scaled to
/// the reference pace of the host (see [`crate::pace`]).
#[derive(Default)]
pub struct Measured {
    /// The host's pace, probed between operations.
    pub pace: Pace,
    /// Operations timed since the last probe: unit key and raw ms.
    pending: Vec<(String, f64)>,
    /// Paced time of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Per-unit paced times of the timed operations, ms.
    pub unit_ms: BTreeMap<String, Samples>,
    /// Paced times of the current round's operations, ms.
    round_ms: Vec<f64>,
    /// Pace factors of the current round's probes.
    round_factors: Vec<f64>,
    /// Each round's p99 operation time, ms.
    pub round_tails: Samples,
    /// Operations completed per paced second, one value per round.
    pub round_rates: Samples,
    /// Peak resident memory samples of the working process, MiB.
    pub rss_mb: Vec<f64>,
    /// Op amps summed over one pass of the workload's distinct designs.
    pub opamps_total: f64,
    /// Estimated area summed over the same pass, mm².
    pub area_total_mm2: f64,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// One message per failed operation or check.
    pub failures: Vec<String>,
    /// Layered-flow vs `synthesize_unit` timings.
    pub pairs: PairTimes,
    /// Serve-only ratios taken from the responses.
    pub serve: ServeRatios,
    /// Extra entries for the trace summary.
    pub summary: Vec<(&'static str, vase::diag::json::Json)>,
}

/// Ratios the serve workload reads off its responses (zero elsewhere).
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeRatios {
    /// Cover-cache hits / lookups over all synth responses.
    pub cache_hit_ratio: f64,
    /// Median share of a round trip spent outside the job.
    pub outside_job_share: f64,
    /// Median share of a synth job's time spent in the flow.
    pub flow_share: f64,
    /// Responses the ratios were taken from.
    pub responses: usize,
}

impl Measured {
    /// Count one attempted operation or check and its failure, if any.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failures.push(e);
        }
    }

    /// Record one timed operation of `key`, `ms` of wall time; it is
    /// paced at the next [`Measured::probe`].
    pub fn sample(&mut self, key: &str, ms: f64) {
        self.pending.push((key.to_owned(), ms));
    }

    /// Probe the host's pace and file the operations timed since the
    /// previous probe, scaled by the factor of that interval, which is
    /// returned. Workloads whose operations are long call this between
    /// them; [`measure`] calls it at every round's end.
    pub fn probe(&mut self) -> f64 {
        let factor = self.pace.probe();
        let mut pending = std::mem::take(&mut self.pending);
        for (key, ms) in pending.drain(..) {
            let paced = ms * factor;
            if let Some(samples) = self.unit_ms.get_mut(&key) {
                samples.push(paced);
            } else {
                let mut samples = Samples::new(KEEP_PER_KEY);
                samples.push(paced);
                self.unit_ms.insert(key, samples);
            }
            self.round_ms.push(paced);
        }
        self.pending = pending;
        self.round_factors.push(factor);
        factor
    }
}

/// Set up, then run whole rounds until `cfg.seconds` have passed
/// (exactly one round in a smoke run) and return the set-up state.
///
/// Each round is a fixed amount of work; `round` returns how many
/// operations it completed. The pace is probed at every round's end,
/// and the round's rate (its wall time less the probes', scaled by the
/// geometric mean of its pace factors) and the p99 of its operation
/// times are recorded (in a round of fewer than a hundred operations
/// that is close to its slowest one). The set-up is timed
/// [`SETUP_REPEATS`] times, each between two probes: once before the
/// first round and again at evenly spaced points of the measuring
/// window (the repeats' states are dropped).
pub fn measure<S>(
    cfg: &RunConfig,
    tr: &mut Tracer,
    m: &mut Measured,
    mut setup: impl FnMut(&mut Tracer, &mut Measured) -> Result<S, String>,
    mut round: impl FnMut(&mut Tracer, &mut Measured, &mut S, u64) -> Result<usize, String>,
) -> Result<S, String> {
    let mut timed_setup = |tr: &mut Tracer, m: &mut Measured| {
        let t = Instant::now();
        let state = setup(tr, m)?;
        let seconds = t.elapsed().as_secs_f64();
        let factor = m.probe();
        m.setup_s.push(seconds * factor);
        Ok::<S, String>(state)
    };
    m.probe();
    let mut state = timed_setup(tr, m)?;
    let repeats = if cfg.smoke { 0 } else { SETUP_REPEATS - 1 };
    let due = |k: usize| cfg.seconds * k as f64 / SETUP_REPEATS as f64;
    let (start, mut repeated) = (Instant::now(), 0);
    for r in 0.. {
        m.round_factors.clear();
        let (t, probing) = (Instant::now(), m.pace.spent());
        let ops = round(tr, m, &mut state, r)?;
        m.probe();
        let wall = t.elapsed().saturating_sub(m.pace.spent() - probing);
        let factor = stats::geomean(&m.round_factors);
        m.round_rates
            .push(ops as f64 / (wall.as_secs_f64() * factor));
        if !m.round_ms.is_empty() {
            m.round_tails.push(stats::percentile(&m.round_ms, 99.0));
            m.round_ms.clear();
        }
        let elapsed = start.elapsed().as_secs_f64();
        while repeated < repeats && elapsed >= due(repeated + 1) {
            drop(timed_setup(tr, m)?);
            repeated += 1;
        }
        if cfg.smoke || elapsed >= cfg.seconds {
            break;
        }
    }
    Ok(state)
}

/// Peak resident set (`VmHWM`) of a process (`"self"` or a pid), MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The directory runs keep working files in: `vase-bench/` under the
/// Cargo target directory, so nothing is written outside the checkout.
pub fn work_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("vase-bench")
}

/// Stimuli of the five Table 1 applications, by input name (the ones
/// `tests/simulation.rs` drives them with). Inputs of other designs get
/// a 0.5 V constant in the output checks.
pub fn known_stimuli() -> BTreeMap<&'static str, Stimulus> {
    BTreeMap::from([
        ("line", Stimulus::sine(0.8, 1_000.0)),
        ("local", Stimulus::sine(0.2, 1_000.0)),
        ("vsens", Stimulus::Constant { level: 1.0 }),
        ("isens", Stimulus::Constant { level: 0.25 }),
        (
            "clk",
            Stimulus::Pulse {
                low: 0.0,
                high: 0.5,
                period: 1e-3,
                duty: 0.5,
            },
        ),
        ("thrust", Stimulus::Constant { level: 1.0 }),
        ("dragk", Stimulus::Constant { level: 0.5 }),
        ("target", Stimulus::Constant { level: 0.5 }),
    ])
}

/// One distinct design of a workload, for the output checks.
pub struct CheckUnit<'a> {
    /// Unit key (also the name the flow reports under).
    pub key: String,
    /// VASS source.
    pub source: &'a str,
    /// Flow options the workload synthesizes it with.
    pub options: FlowOptions,
}

/// After timing, check each distinct design once against the layer
/// contracts: the layered flow reproduces `synthesize_unit`'s
/// netlist, guided search matches exact search (when `guided`), and a
/// nominal lane batch reproduces the scalar transient. Sums the
/// designs' op amps and area into the run's quality totals.
pub fn check_outputs(
    cfg: &RunConfig,
    tr: &mut Tracer,
    m: &mut Measured,
    units: &[CheckUnit<'_>],
    guided: bool,
) {
    let steps = if cfg.smoke { 200 } else { 2_000 };
    let config = SimConfig::new(1e-6, steps as f64 * 1e-6);
    let known = known_stimuli();
    for (i, u) in units.iter().enumerate() {
        let unit = 1_000_000 + i as u64;
        let archs = match layers::run_pair(tr, &mut m.pairs, &u.key, unit, u.source, &u.options) {
            Ok((_, archs, _)) => archs,
            Err(e) => {
                m.check(Err(e));
                continue;
            }
        };
        m.check(Ok(()));
        for a in &archs {
            m.opamps_total += a.synthesis.netlist.opamp_count() as f64;
            m.area_total_mm2 += a.synthesis.estimate.area_m2 * 1e6;
            if guided {
                let outcome = layers::check_guided(tr, unit, a, &u.options.mapper);
                m.check(outcome);
            }
            let bindings = &a.synthesis.control_bindings;
            let stimuli = layers::stimuli_for(&a.synthesis.netlist, bindings, &config, &known);
            let what = format!("{} ({})", u.key, a.entity);
            let outcome = layers::check_lanes(
                tr,
                unit,
                &what,
                &a.synthesis.netlist,
                bindings,
                &stimuli,
                &config,
            );
            m.check(outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_stay_bounded_and_uniform() {
        let mut s = Samples::new(64);
        let capacity = s.kept.capacity();
        for i in 0..10_000 {
            s.push(f64::from(i));
        }
        assert_eq!((s.values().len(), s.seen()), (64, 10_000));
        assert_eq!(s.kept.capacity(), capacity, "the buffer never grows");
        let median = stats::median(s.values());
        assert!((2_500.0..7_500.0).contains(&median), "{median}");
    }
}
