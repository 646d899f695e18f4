//! Seeded input generation.
//!
//! The benchmark keeps its own SplitMix64 rather than borrowing one of
//! the program's: a change to the program must never change the inputs
//! the benchmark feeds it, or parent and change would be measured on
//! different work.

/// SplitMix64 (Steele, Lea & Flood 2014).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `seed`, split by `stream` so that independent
    /// draws (round order, gains, request mix) never share values.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
        r.next_u64();
        r
    }

    /// Next raw output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..len` (`len > 0`).
    pub fn index(&mut self, len: usize) -> usize {
        (self.next_u64() % len as u64) as usize
    }

    /// Uniform float in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.index(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_per_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 2), draw(1, 2));
        assert_ne!(draw(1, 2), draw(1, 3));
        assert_ne!(draw(1, 2), draw(2, 2));
        let mut r = Rng::new(9, 0);
        let mut v: Vec<usize> = (0..10).collect();
        r.shuffle(&mut v);
        v.sort_unstable();
        assert_eq!(v, (0..10).collect::<Vec<_>>());
    }
}
