//! Small-signal frequency-response measurement by transient sweeps.
//!
//! The simulator is time-domain only (like the paper's SPICE runs), so
//! frequency responses are measured the lab way: drive a sine at each
//! frequency, wait for the response to settle, and correlate the
//! steady-state output against quadrature references to extract
//! magnitude and phase.
//!
//! Every frequency point is an independent transient run, so the sweep
//! parallelizes embarrassingly: [`frequency_response_with`] claims
//! points from a shared counter across scoped worker threads and merges
//! them back in frequency order, making the result (and any reported
//! error) bit-identical to the sequential sweep regardless of
//! [`SweepConfig::jobs`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use serde::{Deserialize, Serialize};
use vase_vhif::VhifDesign;

use crate::batch::{BatchLane, MAX_LANES};
use crate::error::SimError;
use crate::graph_sim::SimConfig;
use crate::plan::CompiledSim;
use crate::stimulus::Stimulus;
use crate::trace::SimResult;

fn default_lanes() -> usize {
    MAX_LANES
}

/// Worker-thread and lane-batch configuration for sweep-style workloads
/// (frequency sweeps, multi-design simulation).
///
/// Sweep points are packed into SIMD-friendly lane batches of
/// [`lanes`](SweepConfig::lanes) points first; threads (if any) then
/// claim whole *batches*, so the unit of parallel work is
/// `ceil(points / lanes)` tasks and `jobs × lanes` never oversubscribes
/// the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Worker threads; `0` means one per available hardware thread.
    /// The default is `1` (sequential), which skips thread setup
    /// entirely.
    pub jobs: usize,
    /// Lane-batch width: how many sweep points one [`crate::BatchSession`]
    /// advances in lockstep (clamped to `1..=`[`MAX_LANES`]).
    #[serde(default = "default_lanes")]
    pub lanes: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            jobs: 1,
            lanes: default_lanes(),
        }
    }
}

impl SweepConfig {
    /// Exactly `jobs` workers (`0` = auto), full-width lane batches.
    pub fn with_jobs(jobs: usize) -> Self {
        SweepConfig {
            jobs,
            ..SweepConfig::default()
        }
    }

    /// One worker per available hardware thread.
    pub fn parallel() -> Self {
        SweepConfig {
            jobs: 0,
            ..SweepConfig::default()
        }
    }

    /// Machine-sized configuration: auto worker count *and* full-width
    /// lane batches, with the worker count derated per workload by
    /// [`effective_jobs_for`](SweepConfig::effective_jobs_for).
    pub fn auto() -> Self {
        SweepConfig {
            jobs: 0,
            lanes: MAX_LANES,
        }
    }

    /// The worker count after resolving `0` to the machine's hardware
    /// threads.
    pub fn effective_jobs(&self) -> usize {
        match self.jobs {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            jobs => jobs,
        }
    }

    /// The lane-batch width after clamping to `1..=`[`MAX_LANES`].
    pub fn effective_lanes(&self) -> usize {
        self.lanes.clamp(1, MAX_LANES)
    }

    /// The worker count for a sweep of `points` points: lane batching
    /// reduces the work to `ceil(points / lanes)` tasks, and spawning
    /// more workers than tasks would only oversubscribe, so the
    /// resolved job count is capped there.
    pub fn effective_jobs_for(&self, points: usize) -> usize {
        let tasks = points.div_ceil(self.effective_lanes()).max(1);
        self.effective_jobs().min(tasks)
    }
}

/// One measured frequency point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResponsePoint {
    /// Stimulus frequency, Hz.
    pub frequency_hz: f64,
    /// Magnitude gain `|H|`, V/V.
    pub gain: f64,
    /// Phase of `H`, radians in `(-π, π]`.
    pub phase_rad: f64,
}

impl ResponsePoint {
    /// Gain in decibels.
    pub fn gain_db(&self) -> f64 {
        20.0 * self.gain.max(1e-12).log10()
    }
}

/// Measure the response `output(f)/input(f)` of a VHIF design at the
/// given frequencies by transient sweeps (amplitude
/// `amplitude` volts on `input`; all other inputs held at 0).
///
/// # Errors
///
/// Propagates simulation errors; fails with
/// [`SimError::UnknownQuantity`] if `output` is not a trace of the
/// design.
pub fn frequency_response(
    design: &VhifDesign,
    input: &str,
    output: &str,
    amplitude: f64,
    frequencies: &[f64],
    extra_inputs: &BTreeMap<String, Stimulus>,
) -> Result<Vec<ResponsePoint>, SimError> {
    frequency_response_with(
        design,
        input,
        output,
        amplitude,
        frequencies,
        extra_inputs,
        &SweepConfig::default(),
    )
}

/// Settle/measure windows of the sweep, in stimulus periods. Every
/// point runs the same *number* of steps (200 per period, 20 periods),
/// which is exactly what lets points with different frequencies share
/// one lane batch: only the step size and the sine differ.
const PERIODS_SETTLE: f64 = 12.0;
const PERIODS_MEASURE: f64 = 8.0;

fn sweep_window(frequency: f64) -> (f64, f64) {
    (
        1.0 / (frequency * 200.0),
        (PERIODS_SETTLE + PERIODS_MEASURE) / frequency,
    )
}

fn bad_frequency(frequency: f64) -> SimError {
    SimError::BadConfig {
        what: format!("frequency {frequency} <= 0"),
    }
}

/// [`frequency_response`] with an explicit worker/lane configuration.
///
/// The sweep compiles the design once, packs points into lane batches
/// of [`SweepConfig::lanes`] (each lane carrying its own sine stimulus
/// and step size), and advances each batch in lockstep; worker threads,
/// if any, claim whole batches from a shared counter. Lane execution is
/// bit-identical to the scalar per-point loop, so the returned vector —
/// and, on failure, the reported error (the one at the lowest frequency
/// index) — is bit-identical for every `jobs`/`lanes` combination.
///
/// # Errors
///
/// Same as [`frequency_response`].
pub fn frequency_response_with(
    design: &VhifDesign,
    input: &str,
    output: &str,
    amplitude: f64,
    frequencies: &[f64],
    extra_inputs: &BTreeMap<String, Stimulus>,
    sweep: &SweepConfig,
) -> Result<Vec<ResponsePoint>, SimError> {
    if frequencies.is_empty() {
        return Ok(Vec::new());
    }
    // The sequential sweep's first action is validating point 0, so the
    // plan compile below never masks that error.
    if frequencies[0] <= 0.0 {
        return Err(bad_frequency(frequencies[0]));
    }
    let f_ref = frequencies[0];
    let mut inputs = extra_inputs.clone();
    inputs.insert(input.to_owned(), Stimulus::sine(amplitude, f_ref));
    let (dt_ref, t_end_ref) = sweep_window(f_ref);
    let plan = CompiledSim::new(design, &inputs, &SimConfig::new(dt_ref, t_end_ref))?;
    let input_slot = plan
        .stimulus_index(input)
        .expect("the swept input was inserted before compiling");

    let width = sweep.effective_lanes();
    let jobs = sweep.effective_jobs_for(frequencies.len());
    if jobs <= 1 {
        let mut points = Vec::with_capacity(frequencies.len());
        for chunk in frequencies.chunks(width) {
            points.extend(measure_chunk(&plan, input_slot, output, amplitude, chunk)?);
        }
        return Ok(points);
    }
    let chunk_count = frequencies.len().div_ceil(width);
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let mut measured = std::thread::scope(|scope| {
        let plan = &plan;
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    while !failed.load(Ordering::Relaxed) {
                        let ci = next.fetch_add(1, Ordering::Relaxed);
                        if ci >= chunk_count {
                            break;
                        }
                        let chunk =
                            &frequencies[ci * width..frequencies.len().min((ci + 1) * width)];
                        let points = measure_chunk(plan, input_slot, output, amplitude, chunk);
                        if points.is_err() {
                            // Other workers stop claiming new batches;
                            // the merge below still reports the error
                            // at the lowest index deterministically.
                            failed.store(true, Ordering::Relaxed);
                        }
                        out.push((ci, points));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect::<Vec<_>>()
    });
    measured.sort_unstable_by_key(|(i, _)| *i);
    let mut points = Vec::with_capacity(frequencies.len());
    for (_, chunk_points) in measured {
        points.extend(chunk_points?);
    }
    // A worker that saw the stop flag may have skipped batches after an
    // error; if no error survived the merge, everything was measured.
    debug_assert_eq!(points.len(), frequencies.len());
    Ok(points)
}

/// Measure one batch of sweep points in lockstep lanes. Error order
/// follows the sequential per-point loop: the lowest lane index with an
/// invalid frequency (checked before anything runs) or a missing output
/// trace wins.
fn measure_chunk(
    plan: &CompiledSim<'_>,
    input_slot: usize,
    output: &str,
    amplitude: f64,
    freqs: &[f64],
) -> Result<Vec<ResponsePoint>, SimError> {
    let has_output = plan.traces.iter().any(|(name, _)| name == output);
    let mut lanes = Vec::with_capacity(freqs.len());
    for &f in freqs {
        if f <= 0.0 {
            return Err(bad_frequency(f));
        }
        if !has_output {
            return Err(SimError::UnknownQuantity {
                name: output.to_owned(),
            });
        }
        let (dt, _) = sweep_window(f);
        if !(dt > 0.0 && dt.is_finite()) {
            return Err(SimError::BadConfig {
                what: "dt and t_end must be positive".into(),
            });
        }
        let mut stims = plan.stimuli().to_vec();
        stims[input_slot] = Stimulus::sine(amplitude, f);
        lanes.push(BatchLane { stims, dt });
    }
    let mut batch = plan.batch_session(&lanes);
    batch.run();
    batch
        .into_results()
        .iter()
        .zip(freqs)
        .map(|(result, &f)| correlate(result, output, amplitude, f))
        .collect()
}

/// Quadrature correlation of the settled tail of one transient run —
/// the arithmetic of the original scalar `measure_point`, unchanged.
fn correlate(
    result: &SimResult,
    output: &str,
    amplitude: f64,
    frequency: f64,
) -> Result<ResponsePoint, SimError> {
    let trace = result
        .trace(output)
        .ok_or_else(|| SimError::UnknownQuantity {
            name: output.to_owned(),
        })?;
    let dt = 1.0 / (frequency * 200.0);
    let start = (PERIODS_SETTLE / frequency / dt) as usize;
    let mut i_acc = 0.0; // in-phase
    let mut q_acc = 0.0; // quadrature
    let mut n = 0usize;
    for (k, &v) in trace.iter().enumerate().skip(start) {
        let t = result.time[k];
        let w = 2.0 * std::f64::consts::PI * frequency * t;
        i_acc += v * w.sin();
        q_acc += v * w.cos();
        n += 1;
    }
    let scale = 2.0 / n as f64;
    let re = i_acc * scale / amplitude;
    let im = q_acc * scale / amplitude;
    Ok(ResponsePoint {
        frequency_hz: frequency,
        gain: (re * re + im * im).sqrt(),
        phase_rad: im.atan2(re),
    })
}

/// Log-spaced frequencies from `lo` to `hi` (inclusive).
pub fn log_sweep(lo: f64, hi: f64, points_count: usize) -> Vec<f64> {
    if points_count < 2 || lo <= 0.0 || hi <= lo {
        return vec![lo.max(1e-3)];
    }
    let ratio = (hi / lo).ln();
    (0..points_count)
        .map(|i| lo * (ratio * i as f64 / (points_count - 1) as f64).exp())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vase_vhif::{BlockKind, SignalFlowGraph};

    fn gain_stage(gain: f64) -> VhifDesign {
        let mut g = SignalFlowGraph::new("amp");
        let x = g.add(BlockKind::Input { name: "x".into() });
        let s = g.add(BlockKind::Scale { gain });
        let y = g.add(BlockKind::Output { name: "y".into() });
        g.connect(x, s, 0).expect("wire");
        g.connect(s, y, 0).expect("wire");
        let mut d = VhifDesign::new("t");
        d.graphs.push(g);
        d
    }

    fn rc_lowpass(w0: f64) -> VhifDesign {
        // y' = w0 (x - y): first-order lowpass, cutoff w0.
        let mut g = SignalFlowGraph::new("rc");
        let x = g.add(BlockKind::Input { name: "x".into() });
        let sub = g.add(BlockKind::Sub);
        let integ = g.add(BlockKind::Integrate {
            gain: w0,
            initial: 0.0,
        });
        let y = g.add(BlockKind::Output { name: "y".into() });
        g.connect(x, sub, 0).expect("wire");
        g.connect(integ, sub, 1).expect("wire");
        g.connect(sub, integ, 0).expect("wire");
        g.connect(integ, y, 0).expect("wire");
        let mut d = VhifDesign::new("t");
        d.graphs.push(g);
        d
    }

    #[test]
    fn flat_gain_is_flat() {
        let d = gain_stage(3.0);
        let points = frequency_response(
            &d,
            "x",
            "y",
            0.1,
            &[100.0, 1_000.0, 10_000.0],
            &BTreeMap::new(),
        )
        .expect("measures");
        for p in points {
            assert!(
                (p.gain - 3.0).abs() < 0.05,
                "gain {} at {}",
                p.gain,
                p.frequency_hz
            );
            assert!(p.phase_rad.abs() < 0.1);
        }
    }

    #[test]
    fn rc_lowpass_has_3db_point_at_cutoff() {
        let f0 = 1_000.0;
        let d = rc_lowpass(2.0 * std::f64::consts::PI * f0);
        let points = frequency_response(
            &d,
            "x",
            "y",
            0.1,
            &[f0 / 10.0, f0, f0 * 10.0],
            &BTreeMap::new(),
        )
        .expect("measures");
        assert!(
            (points[0].gain - 1.0).abs() < 0.03,
            "passband {}",
            points[0].gain
        );
        let db_at_cutoff = points[1].gain_db();
        assert!(
            (db_at_cutoff + 3.0).abs() < 0.6,
            "-3 dB point, got {db_at_cutoff}"
        );
        assert!(points[2].gain < 0.15, "stopband {}", points[2].gain);
        // Phase lags toward -90°.
        assert!(points[2].phase_rad < -1.2, "phase {}", points[2].phase_rad);
    }

    #[test]
    fn log_sweep_endpoints_and_spacing() {
        let f = log_sweep(10.0, 1_000.0, 5);
        assert_eq!(f.len(), 5);
        assert!((f[0] - 10.0).abs() < 1e-9);
        assert!((f[4] - 1000.0).abs() < 1e-6);
        // log-spaced: constant ratio
        let r = f[1] / f[0];
        for w in f.windows(2) {
            assert!((w[1] / w[0] - r).abs() < 1e-9);
        }
    }

    #[test]
    fn degenerate_sweep_is_safe() {
        assert_eq!(log_sweep(10.0, 1_000.0, 1).len(), 1);
        assert_eq!(log_sweep(0.0, 1_000.0, 4).len(), 1);
    }

    #[test]
    fn bad_frequency_rejected() {
        let d = gain_stage(1.0);
        let err = frequency_response(&d, "x", "y", 0.1, &[-5.0], &BTreeMap::new()).unwrap_err();
        assert!(matches!(err, SimError::BadConfig { .. }));
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_sequential() {
        let d = rc_lowpass(2.0 * std::f64::consts::PI * 1_000.0);
        let freqs = log_sweep(100.0, 10_000.0, 16);
        let seq = frequency_response(&d, "x", "y", 0.1, &freqs, &BTreeMap::new())
            .expect("sequential sweep");
        for jobs in [2, 3, 4, 8] {
            let par = frequency_response_with(
                &d,
                "x",
                "y",
                0.1,
                &freqs,
                &BTreeMap::new(),
                &SweepConfig::with_jobs(jobs),
            )
            .expect("parallel sweep");
            assert_eq!(seq, par, "jobs = {jobs} must not change any bit");
        }
    }

    #[test]
    fn parallel_sweep_reports_lowest_index_error() {
        // Index 2 holds the bad frequency; parallel and sequential
        // sweeps must report the same failure.
        let d = gain_stage(1.0);
        let freqs = [500.0, 700.0, -1.0, 900.0, 1_100.0, -2.0];
        let seq = frequency_response(&d, "x", "y", 0.1, &freqs, &BTreeMap::new()).unwrap_err();
        let par = frequency_response_with(
            &d,
            "x",
            "y",
            0.1,
            &freqs,
            &BTreeMap::new(),
            &SweepConfig::with_jobs(3),
        )
        .unwrap_err();
        assert_eq!(format!("{seq}"), format!("{par}"));
    }

    #[test]
    fn sweep_config_resolves_jobs() {
        assert_eq!(SweepConfig::default().effective_jobs(), 1);
        assert_eq!(SweepConfig::with_jobs(3).effective_jobs(), 3);
        assert!(SweepConfig::parallel().effective_jobs() >= 1);
    }

    #[test]
    fn lane_batching_derates_effective_jobs() {
        // 16 points in 8-wide batches are 2 tasks, so even a 64-worker
        // request resolves to 2 — jobs × lanes never oversubscribes.
        let cfg = SweepConfig::with_jobs(64);
        assert_eq!(cfg.effective_lanes(), 8);
        assert_eq!(cfg.effective_jobs_for(16), 2);
        assert_eq!(cfg.effective_jobs_for(17), 3);
        assert_eq!(cfg.effective_jobs_for(0), 1);
        let narrow = SweepConfig { jobs: 64, lanes: 1 };
        assert_eq!(narrow.effective_jobs_for(16), 16);
        // auto() resolves both dimensions machine-side.
        let auto = SweepConfig::auto();
        assert_eq!(auto.jobs, 0);
        assert!(auto.effective_jobs() >= 1);
        assert_eq!(auto.effective_lanes(), 8);
        // Out-of-range widths clamp instead of panicking.
        assert_eq!(SweepConfig { jobs: 1, lanes: 0 }.effective_lanes(), 1);
        assert_eq!(SweepConfig { jobs: 1, lanes: 99 }.effective_lanes(), 8);
    }

    #[test]
    fn lane_width_does_not_change_sweep_bits() {
        let d = rc_lowpass(2.0 * std::f64::consts::PI * 1_000.0);
        let freqs = log_sweep(200.0, 5_000.0, 10);
        let reference = frequency_response_with(
            &d,
            "x",
            "y",
            0.1,
            &freqs,
            &BTreeMap::new(),
            &SweepConfig { jobs: 1, lanes: 1 },
        )
        .expect("lanes = 1 sweep");
        for lanes in [2, 3, 8] {
            let wide = frequency_response_with(
                &d,
                "x",
                "y",
                0.1,
                &freqs,
                &BTreeMap::new(),
                &SweepConfig { jobs: 1, lanes },
            )
            .expect("wide sweep");
            assert_eq!(reference, wide, "lanes = {lanes} must not change any bit");
        }
    }
}
