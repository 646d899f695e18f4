//! The lane machine both engines step on. A batch keeps its values in
//! a lane-strided slot array (`slots[slot * lanes + lane]`) with a zero
//! row that unconnected ports read, and evaluates one tape of ops over
//! it in fixed-width kernels on stack-copied rows; the held states
//! (latches, hysteresis outputs, differentiator inputs) change once per
//! step, from the start-of-step slots.
//!
//! [`walk`] evaluates a tape over a range of lanes: the whole
//! [`CHUNK_LANES`]-lane chunks form one span, walked op-major (each op
//! runs its kernel over every chunk before the next op starts, so a
//! 64-lane Monte Carlo batch pays the tape's dispatch once per RK4
//! stage), and the lanes left over walk the 4 → 2 → 1 ladder, a span
//! per chunk. A batch of up to eight lanes is thus walked chunk-major,
//! as a one-lane run is. Lanes never exchange values, so any partition
//! of a batch and either order compute identical bits; the fixed widths
//! exist so the lane loops compile to straight-line SIMD.

use std::ops::Range;

/// Index of a row of the lane-strided slot array.
pub(crate) type Slot = u32;

/// Lanes per kernel chunk, the widest fixed-width kernel: eight f64
/// lanes fill two AVX2 registers.
pub(crate) const CHUNK_LANES: usize = 8;

/// An engine's tape over its slot array.
pub(crate) trait Tape {
    /// Walk the tape once over `lanes`, a run of whole `W`-lane chunks
    /// (one chunk unless `WIDE`), with integrator (or RK4 stage) states
    /// `integ`: each op runs its kernel over every chunk before the next
    /// op starts, then each integrator's input slope goes to `k`;
    /// returns `W`.
    fn span<const W: usize, const WIDE: bool>(
        &self,
        lanes: Range<usize>,
        integ: &[f64],
        slots: &mut [f64],
        k: &mut [f64],
    ) -> usize;
}

/// Evaluate every op of `tape` into `slots` and every integrator's
/// slope into `k`, for `lanes`, in the span order of the module docs.
#[inline(always)]
pub(crate) fn walk(
    tape: &impl Tape,
    lanes: Range<usize>,
    integ: &[f64],
    slots: &mut [f64],
    k: &mut [f64],
) {
    let mut l0 = lanes.end - lanes.len() % CHUNK_LANES;
    if l0 > lanes.start {
        tape.span::<CHUNK_LANES, true>(lanes.start..l0, integ, slots, k);
    }
    while l0 < lanes.end {
        l0 += match lanes.end - l0 {
            w if w >= 4 => tape.span::<4, false>(l0..l0 + 4, integ, slots, k),
            w if w >= 2 => tape.span::<2, false>(l0..l0 + 2, integ, slots, k),
            _ => tape.span::<1, false>(l0..l0 + 1, integ, slots, k),
        };
    }
}

/// Run `kernel(slots, l0, v)` on every `W`-lane chunk of `lanes` and
/// store each chunk's `v` in the slot row starting at `ob`. The kernel
/// fills `v` through a reference: an array it returned by value took a
/// stack copy whose split stores stalled the full-width load of the
/// store below, which made 8-lane batches 1.4–2.6× slower.
#[inline(always)]
pub(crate) fn each<const W: usize, const WIDE: bool>(
    slots: &mut [f64],
    ob: usize,
    lanes: Range<usize>,
    kernel: impl Fn(&[f64], usize, &mut [f64; W]),
) {
    chunks::<W, WIDE>(lanes, |l0| {
        let mut v = [0.0; W];
        kernel(slots, l0, &mut v);
        slots[ob + l0..ob + l0 + W].copy_from_slice(&v);
    });
}

/// Call `f` with the first lane of every `W`-lane chunk of `lanes`, a
/// nonempty run of whole chunks, which is one chunk unless `WIDE`: a
/// chunk-major walk compiles to no loop here.
#[inline(always)]
pub(crate) fn chunks<const W: usize, const WIDE: bool>(
    lanes: Range<usize>,
    mut f: impl FnMut(usize),
) {
    let mut l0 = lanes.start;
    loop {
        f(l0);
        l0 += W;
        if !WIDE || l0 >= lanes.end {
            break;
        }
    }
}

/// Copy lanes `l0 .. l0 + W` of row `slot` into a stack array. The
/// local copy breaks the read/write aliasing on the slot array that
/// would otherwise keep the fixed-width lane loops from vectorizing.
#[inline(always)]
pub(crate) fn lane_row<const W: usize>(
    buf: &[f64],
    slot: u32,
    stride: usize,
    l0: usize,
) -> [f64; W] {
    let b = slot as usize * stride + l0;
    let mut r = [0.0; W];
    r.copy_from_slice(&buf[b..b + W]);
    r
}

/// End-of-step update of one held state; the state's index is the
/// update's position in its plan's list.
#[derive(Clone, Copy)]
pub(crate) enum Held {
    /// Sample-and-hold or memory: take `data` while `clock` is high.
    Latch { data: Slot, clock: Slot },
    /// Schmitt trigger or zero-cross detector: 1 above `high`, 0
    /// below `low`, else unchanged.
    Hysteresis { input: Slot, low: f64, high: f64 },
    /// Differentiator: keep the input for the next step.
    PrevIn { input: Slot },
}

/// Apply `updates` to lanes `lanes` of the held states from the
/// start-of-step `slots`.
pub(crate) fn update_held(
    updates: &[Held],
    slots: &[f64],
    stride: usize,
    lanes: Range<usize>,
    held: &mut [f64],
) {
    let row = |slot: Slot| &slots[slot as usize * stride..][lanes.clone()];
    for (update, state) in updates.iter().zip(held.chunks_exact_mut(stride)) {
        let state = &mut state[lanes.clone()];
        match *update {
            Held::Latch { data, clock } => {
                for ((s, &c), &d) in state.iter_mut().zip(row(clock)).zip(row(data)) {
                    if c > 0.5 {
                        *s = d;
                    }
                }
            }
            Held::Hysteresis { input, low, high } => {
                for (s, &u) in state.iter_mut().zip(row(input)) {
                    if u > high {
                        *s = 1.0;
                    } else if u < low {
                        *s = 0.0;
                    }
                }
            }
            Held::PrevIn { input } => state.copy_from_slice(row(input)),
        }
    }
}
