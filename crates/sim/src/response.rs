//! Small-signal frequency-response measurement by transient sweeps.
//!
//! The simulator is time-domain only (like the paper's SPICE runs), so
//! frequency responses are measured the lab way: drive a sine at each
//! frequency, wait for the response to settle, and correlate the
//! steady-state output against quadrature references to extract
//! magnitude and phase.
//!
//! Every point runs the same *number* of steps, so the sweep packs its
//! points into lane batches of [`MAX_LANES`] and runs the batches in
//! order on the calling thread. A lane computes the bits of a one-lane
//! run of its own point (`crates/sim/tests/lane_equivalence.rs`), so the
//! packing changes no result.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use vase_vhif::VhifDesign;

use crate::batch::{BatchLane, MAX_LANES};
use crate::error::SimError;
use crate::graph_sim::SimConfig;
use crate::plan::CompiledSim;
use crate::stimulus::Stimulus;
use crate::trace::SimResult;

/// The sweep parameter of `vase::flow::simulate_designs`. It has no
/// field and changes nothing: it is kept only because the benchmark
/// (`vase-bench/src/sim.rs`) passes `&SweepConfig::default()`, and goes
/// with the benchmark's next change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepConfig;

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

/// Measure the response `output(f)/input(f)` of a VHIF design at the
/// given frequencies by transient sweeps (amplitude
/// `amplitude` volts on `input`; all other inputs held at 0).
///
/// The sweep compiles the design once and measures the points in lane
/// batches of [`MAX_LANES`], each lane carrying its own sine stimulus
/// and step size. On failure it reports the error of the lowest
/// frequency index.
///
/// # Errors
///
/// Propagates simulation errors; fails with
/// [`SimError::BadConfig`] at a frequency that is not positive, with
/// [`SimError::UnknownQuantity`] if `output` is not a trace of the
/// design, and with [`SimError::SweepFault`] at a point whose run ends
/// in a numerical fault.
pub fn frequency_response(
    design: &VhifDesign,
    input: &str,
    output: &str,
    amplitude: f64,
    frequencies: &[f64],
    extra_inputs: &BTreeMap<String, Stimulus>,
) -> Result<Vec<ResponsePoint>, SimError> {
    if frequencies.is_empty() {
        return Ok(Vec::new());
    }
    // Point 0 sets the plan's window, so it is validated first: the
    // plan compile below never masks its error.
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
    let mut points = Vec::with_capacity(frequencies.len());
    for chunk in frequencies.chunks(MAX_LANES) {
        points.extend(measure_chunk(&plan, input_slot, output, amplitude, chunk)?);
    }
    Ok(points)
}

/// Measure one batch of sweep points in lockstep lanes. Error order
/// follows the sequential per-point loop: the lowest index with an
/// invalid frequency, a missing output trace or a faulted run wins, so
/// the points before the first invalid one still run.
fn measure_chunk(
    plan: &CompiledSim,
    input_slot: usize,
    output: &str,
    amplitude: f64,
    freqs: &[f64],
) -> Result<Vec<ResponsePoint>, SimError> {
    let has_output = plan.traces.iter().any(|(name, _)| name == output);
    let lane = |f: f64| {
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
        Ok(BatchLane { stims, dt })
    };
    let mut lanes = Vec::with_capacity(freqs.len());
    let invalid = freqs
        .iter()
        .try_for_each(|&f| lane(f).map(|l| lanes.push(l)));
    let mut points = Vec::with_capacity(lanes.len());
    if !lanes.is_empty() {
        let mut batch = plan.batch_session(&lanes);
        batch.run();
        for (result, &f) in batch.into_results().iter().zip(freqs) {
            if let Some(fault) = result.fault {
                return Err(SimError::SweepFault {
                    frequency_hz: f,
                    fault,
                });
            }
            points.push(correlate(result, output, amplitude, f)?);
        }
    }
    invalid.map(|()| points)
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
    fn a_faulted_sweep_point_is_an_error() {
        // y' = 10^4 (x + y) grows without bound, so every point's run
        // faults; the 100 Hz point's fault comes first, also ahead of a
        // later invalid frequency.
        let mut g = SignalFlowGraph::new("unstable");
        let x = g.add(BlockKind::Input { name: "x".into() });
        let sum = g.add(BlockKind::Add { arity: 2 });
        let integ = g.add(BlockKind::Integrate {
            gain: 1e4,
            initial: 0.0,
        });
        let y = g.add(BlockKind::Output { name: "y".into() });
        g.connect(x, sum, 0).expect("wire");
        g.connect(integ, sum, 1).expect("wire");
        g.connect(sum, integ, 0).expect("wire");
        g.connect(integ, y, 0).expect("wire");
        let mut d = VhifDesign::new("t");
        d.graphs.push(g);
        for freqs in [[100.0, 1_000.0], [100.0, -1.0]] {
            let err = frequency_response(&d, "x", "y", 0.1, &freqs, &BTreeMap::new()).unwrap_err();
            assert!(
                matches!(err, SimError::SweepFault { frequency_hz, .. } if frequency_hz == 100.0),
                "{err}"
            );
        }
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
    fn parallel_sweep_reports_lowest_index_error() {
        // Index 2 holds the first bad frequency of a lane batch; the
        // sweep must report it, as a point-by-point loop would, and not
        // the later bad point at index 5.
        let d = gain_stage(1.0);
        let freqs = [500.0, 700.0, -1.0, 900.0, 1_100.0, -2.0];
        let err = frequency_response(&d, "x", "y", 0.1, &freqs, &BTreeMap::new()).unwrap_err();
        assert!(
            matches!(&err, SimError::BadConfig { what } if what == "frequency -1 <= 0"),
            "{err}"
        );
    }
}
