//! Deterministic inline transcendentals for the simulation engines.
//!
//! Both engines — the behavioral lane kernels and the netlist tape
//! kernel — evaluate `sin`/`exp`/`ln` through the same straight-line
//! code here, so per-lane results are bit-identical across batch widths
//! by construction. Unlike the libm entry points they replace, these
//! bodies contain no calls, no table lookups, and no
//! data-dependent control flow (only selects), so the fixed-width lane
//! loops in `batch.rs` and `netlist_sim.rs` autovectorize them across
//! lanes — which is where the batched engines earn most of their
//! speedup on stimulus- and amplifier-heavy designs.
//!
//! Accuracy is a few ulps over the ranges the simulator uses
//! (|x| ≲ 1e6 rad for `sin`, |x| ≤ 709 for `exp`, normal positive
//! doubles for `ln`) — tighter than any tolerance the analog models
//! carry. The implementations follow the classic Cody–Waite argument
//! reductions with Taylor/remez tails; `ln` uses the musl-style
//! `log(1+f)` rational split.

/// π split for two-part Cody–Waite reduction: `PI_HI` carries 24
/// mantissa bits so `n * PI_HI` is exact for |n| < 2^29.
const PI_HI: f64 = 3.141592502593994;
const PI_LO: f64 = 1.5099579909783765e-7;
const FRAC_1_PI: f64 = core::f64::consts::FRAC_1_PI;

/// ln 2 split the same way (27 zeroed bits) for `exp`'s reduction.
const LOG2E: f64 = core::f64::consts::LOG2_E;
const EXP_LN2_HI: f64 = 0.6931471675634384;
const EXP_LN2_LO: f64 = 1.2996506893889889e-8;

/// sin(πk + r) Taylor tail on r ∈ [-π/2, π/2].
const S: [f64; 9] = [
    -0.16666666666666666,
    0.008333333333333333,
    -0.0001984126984126984,
    2.7557319223985893e-6,
    -2.505210838544172e-8,
    1.6059043836821613e-10,
    -7.647163731819816e-13,
    2.8114572543455206e-15,
    -8.22063524662433e-18,
];

/// exp(r) Taylor tail on r ∈ [-ln2/2, ln2/2].
const E: [f64; 12] = [
    0.5,
    0.16666666666666666,
    0.041666666666666664,
    0.008333333333333333,
    0.001388888888888889,
    0.0001984126984126984,
    2.48015873015873e-5,
    2.7557319223985893e-6,
    2.755731922398589e-7,
    2.505210838544172e-8,
    2.08767569878681e-9,
    1.6059043836821613e-10,
];

/// Round-to-nearest magic constant, `1.5 · 2^52`. Adding it forces a
/// value in `(-2^51, 2^51)` onto the integer grid (ulp = 1), so
/// `(x + MAGIC) - MAGIC` is round-to-nearest-even as two FP adds and
/// the integer itself sits in the low mantissa bits of the sum —
/// no `round()` libm call (x86 has no single round-half-away
/// instruction, so `f64::round` compiles to a call, which would block
/// vectorization of every lane loop that inlines these functions).
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// Sine. Reduces `x = πn + r` with r ∈ [-π/2, π/2], evaluates the odd
/// Taylor tail, and flips the sign for odd `n`. The magic-number
/// reduction limits the domain to |x| < 2^51·π, far beyond any phase
/// the simulator produces.
#[inline]
pub fn sin(x: f64) -> f64 {
    let big = x * FRAC_1_PI + ROUND_MAGIC;
    let n = big - ROUND_MAGIC;
    let r = (x - n * PI_HI) - n * PI_LO;
    let r2 = r * r;
    let mut p = S[8];
    p = S[7] + r2 * p;
    p = S[6] + r2 * p;
    p = S[5] + r2 * p;
    p = S[4] + r2 * p;
    p = S[3] + r2 * p;
    p = S[2] + r2 * p;
    p = S[1] + r2 * p;
    p = S[0] + r2 * p;
    let s = r + r * (r2 * p);
    // (-1)^n without a branch: the parity of n is the low mantissa bit
    // of the magic sum, and odd n flips the sign bit.
    let odd = (big.to_bits() & 1) << 63;
    f64::from_bits(s.to_bits() ^ odd)
}

/// Cosine, as `sin(π/2 - x)` through the same reduction (kept for
/// analysis code that wants a matching pair).
#[inline]
pub fn cos(x: f64) -> f64 {
    sin(core::f64::consts::FRAC_PI_2 - x)
}

/// Exponential. Reduces `x = n·ln2 + r`, evaluates the Taylor tail on
/// r, and scales by 2^n through the exponent bits. Saturates to 0 /
/// +∞ outside the finite double range; NaN propagates.
#[inline]
pub fn exp(x: f64) -> f64 {
    let big = x * LOG2E + ROUND_MAGIC;
    let n = big - ROUND_MAGIC;
    let r = (x - n * EXP_LN2_HI) - n * EXP_LN2_LO;
    let mut p = E[11];
    p = E[10] + r * p;
    p = E[9] + r * p;
    p = E[8] + r * p;
    p = E[7] + r * p;
    p = E[6] + r * p;
    p = E[5] + r * p;
    p = E[4] + r * p;
    p = E[3] + r * p;
    p = E[2] + r * p;
    p = E[1] + r * p;
    p = E[0] + r * p;
    let poly = 1.0 + r + r * r * p;
    // 2^n via the exponent field, split as 2^(n/2)·2^(n-n/2) so the
    // subnormal fringe (n < -1022) still scales correctly. n is read
    // straight out of the magic sum's mantissa — MAGIC's own mantissa
    // field is 2^51, so subtracting it recovers the signed integer.
    let k = (big.to_bits() & 0x000f_ffff_ffff_ffff) as i64 - 0x0008_0000_0000_0000;
    let half = k >> 1;
    let s1 = f64::from_bits(((1023 + half.clamp(-1022, 1023)) as u64) << 52);
    let s2 = f64::from_bits(((1023 + (k - half).clamp(-1022, 1023)) as u64) << 52);
    let v = poly * s1 * s2;
    // Two sequential selects, not an `if / else if` chain: the nested
    // form compiles to scalar compare-and-branch code and keeps every
    // lane loop that inlines `exp` from vectorizing.
    let v = if x > 709.782712893384 {
        f64::INFINITY
    } else {
        v
    };
    if x < -745.2 {
        0.0
    } else {
        v
    }
}

const LN_LN2_HI: f64 = 6.931471803691238e-1;
const LN_LN2_LO: f64 = 1.9082149292705877e-10;
const SQRT_2: f64 = core::f64::consts::SQRT_2;

/// ln(1+f) rational coefficients (musl `log.c` lineage).
const LG: [f64; 7] = [
    6.666666666666735e-1,
    3.999999999940942e-1,
    2.857142874366239e-1,
    2.2222198432149784e-1,
    1.8183572161618048e-1,
    1.5313837699209373e-1,
    1.479819860511659e-1,
];

/// Natural logarithm for positive doubles. Decomposes `x = 2^k · m`
/// with m ∈ [√2/2, √2] via the exponent bits and evaluates the
/// `log(1+f)` split. Zero maps to -∞, negatives and NaN to NaN;
/// subnormals are renormalized first.
#[inline]
pub fn ln(x: f64) -> f64 {
    // 2^54 is exact; one multiply renormalizes any subnormal.
    let sub = x < 2.2250738585072014e-308;
    let xs = if sub { x * 1.8014398509481984e16 } else { x };
    let bits = xs.to_bits();
    let mut k = (((bits >> 52) & 0x7ff) as i64) - 1023 - if sub { 54 } else { 0 };
    let mut m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000);
    let fold = m > SQRT_2;
    k += i64::from(fold);
    m = if fold { 0.5 * m } else { m };
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG[1] + w * (LG[3] + w * LG[5]));
    let t2 = z * (LG[0] + w * (LG[2] + w * (LG[4] + w * LG[6])));
    let r = t1 + t2;
    let hfsq = 0.5 * f * f;
    let dk = k as f64;
    let v = s * (hfsq + r) + dk * LN_LN2_LO - hfsq + f + dk * LN_LN2_HI;
    if x == 0.0 {
        f64::NEG_INFINITY
    } else if x.is_nan() || x < 0.0 {
        f64::NAN
    } else if x.is_infinite() {
        f64::INFINITY
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ulps(a: f64, b: f64) -> u64 {
        let (ia, ib) = (a.to_bits() as i64, b.to_bits() as i64);
        ia.abs_diff(ib)
    }

    #[test]
    fn sin_tracks_libm_over_simulation_range() {
        // Phases the simulator actually produces: 2π·f·t for f up to
        // tens of kHz over millisecond windows.
        let mut worst = 0.0_f64;
        for i in 0..200_001 {
            let x = -1.0e5 + i as f64;
            let x = x * 0.01;
            let (got, want) = (sin(x), x.sin());
            worst = worst.max((got - want).abs());
        }
        assert!(worst < 1e-14, "worst abs error {worst:e}");
        assert_eq!(sin(0.0), 0.0);
    }

    #[test]
    fn exp_tracks_libm_and_saturates() {
        for i in 0..140_001 {
            let x = -700.0 + i as f64 * 0.01;
            let (got, want) = (exp(x), x.exp());
            assert!(ulps(got, want) <= 8, "exp({x}) = {got:e}, libm {want:e}");
        }
        // Either side of both saturation thresholds.
        for x in [709.78, 709.79, -745.1, -745.3] {
            let (got, want) = (exp(x), x.exp());
            assert!(ulps(got, want) <= 8, "exp({x}) = {got:e}, libm {want:e}");
        }
        assert!(exp(709.78).is_finite());
        assert_eq!(exp(709.79), f64::INFINITY);
        assert!(exp(-745.1) > 0.0);
        assert_eq!(exp(-745.3), 0.0);
        assert_eq!(exp(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp(1000.0), f64::INFINITY);
        assert!(exp(f64::NAN).is_nan());
    }

    #[test]
    fn ln_tracks_libm_across_scales() {
        for e in -300..300 {
            for m in 1..100 {
                let x = (m as f64 / 50.0) * 10f64.powi(e);
                let (got, want) = (ln(x), x.ln());
                assert!(ulps(got, want) <= 8, "ln({x:e}) = {got}, libm {want}");
            }
        }
        assert_eq!(ln(0.0), f64::NEG_INFINITY);
        assert!(ln(-1.0).is_nan());
        assert_eq!(ln(1.0), 0.0);
        assert!(ln(1e-320).is_finite());
    }

    #[test]
    fn cos_matches_shifted_sine() {
        for i in 0..1000 {
            let x = i as f64 * 0.013;
            assert_eq!(cos(x), sin(core::f64::consts::FRAC_PI_2 - x));
        }
    }
}
