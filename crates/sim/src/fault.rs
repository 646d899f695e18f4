//! Numerical fault detection, recovery, and deterministic injection.
//!
//! The compiled RK4 stepper ([`crate::BatchSession`]) checks each lane's
//! state vector after every step for non-finite values and divergence
//! past [`SimConfig::divergence_limit`](crate::SimConfig). A tripped
//! step is rolled back and re-integrated with `2^k` substeps of
//! `dt / 2^k` (k up to
//! [`SimConfig::max_step_halvings`](crate::SimConfig)), which rescues
//! steps that merely left RK4's stability region at the configured
//! `dt`. A step that stays faulty ends the lane's run gracefully: the
//! lane keeps every sample recorded so far (a *partial trace*) and
//! carries a [`SimFault`] record in the [`SimResult`](crate::SimResult)
//! instead of panicking or filling the traces with NaN.
//!
//! [`FaultInjection`] is the opt-in deterministic test hook: a
//! SplitMix64 stream seeded from the config perturbs one block value
//! per firing step, so the recovery and abort paths can be exercised
//! reproducibly (same seed, same faults) without crafting unstable
//! designs. It is off by default and costs nothing when off.

use std::fmt;

use serde::{Deserialize, Serialize};

/// What kind of numerical fault the detector observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A NaN or infinity in the block values or integrator state.
    NonFinite,
    /// A finite value whose magnitude exceeded the divergence limit.
    Divergence,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::NonFinite => "non-finite value",
            FaultKind::Divergence => "divergence",
        })
    }
}

/// Record of an unrecoverable numerical fault that ended a run early.
///
/// The run's [`SimResult`](crate::SimResult) still holds every sample
/// up to (not including) the faulty step; the state the fault was
/// detected in is discarded, not recorded.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimFault {
    /// The step index the fault occurred at (equals the number of
    /// samples in the partial trace).
    pub step: usize,
    /// Simulated time of the faulty step, s.
    pub time: f64,
    /// What the detector observed.
    pub kind: FaultKind,
    /// Step-halving retries attempted before giving up.
    pub retries: u32,
}

impl fmt::Display for SimFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at step {} (t = {:.3e} s) after {} step-halving retries",
            self.kind, self.step, self.time, self.retries
        )
    }
}

/// Opt-in deterministic fault injection (a test/robustness hook).
///
/// When set on a [`SimConfig`](crate::SimConfig), each step draws from
/// a SplitMix64 stream seeded with `seed`; with probability `rate` one
/// block value is overwritten with `value` after the step's evaluation,
/// tripping the fault detector. A *transient* fault (the default)
/// applies only to the step's first attempt, so the rollback-and-halve
/// retry recovers; a *persistent* one re-applies on every retry, so the
/// run aborts with a [`SimFault`] and a partial trace. Identical seeds
/// produce identical fault schedules and therefore identical results.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultInjection {
    /// SplitMix64 seed for the fault schedule.
    pub seed: u64,
    /// Per-step probability of injecting a fault (clamped to [0, 1]).
    pub rate: f64,
    /// The value injected (e.g. `f64::NAN` to exercise the non-finite
    /// path, or a huge finite value for the divergence path).
    pub value: f64,
    /// Re-apply the fault on every retry attempt, forcing the abort
    /// path instead of the recovery path.
    pub persistent: bool,
}

impl FaultInjection {
    /// Transient NaN injection: recoverable by the step-halving retry.
    pub fn transient_nan(seed: u64, rate: f64) -> Self {
        FaultInjection {
            seed,
            rate,
            value: f64::NAN,
            persistent: false,
        }
    }

    /// Persistent NaN injection: forces a graceful abort with a
    /// partial trace once a step fires.
    pub fn persistent_nan(seed: u64, rate: f64) -> Self {
        FaultInjection {
            seed,
            rate,
            value: f64::NAN,
            persistent: true,
        }
    }
}

/// SplitMix64 — the same tiny deterministic generator the benchmark
/// harness uses, duplicated here because `vase-sim` sits below
/// `vase-bench` in the dependency order.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `[0, len)`; `len` must be non-zero.
    pub(crate) fn index(&mut self, len: usize) -> usize {
        (self.next_u64() % len as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_uniformish() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(7);
        let mut in_range = 0;
        for _ in 0..1000 {
            let f = c.next_f64();
            assert!((0.0..1.0).contains(&f));
            if f < 0.5 {
                in_range += 1;
            }
            let i = c.index(10);
            assert!(i < 10);
        }
        assert!((300..700).contains(&in_range), "half-mass {in_range}");
    }

    #[test]
    fn fault_display_names_step_and_kind() {
        let f = SimFault {
            step: 12,
            time: 1.2e-4,
            kind: FaultKind::NonFinite,
            retries: 5,
        };
        let s = f.to_string();
        assert!(s.contains("non-finite"), "{s}");
        assert!(s.contains("step 12"), "{s}");
        assert!(s.contains("5 step-halving"), "{s}");
        assert!(FaultKind::Divergence.to_string().contains("divergence"));
    }

    #[test]
    fn injection_constructors_set_persistence() {
        let t = FaultInjection::transient_nan(1, 0.5);
        assert!(!t.persistent && t.value.is_nan());
        let p = FaultInjection::persistent_nan(1, 0.5);
        assert!(p.persistent && p.value.is_nan());
    }
}
