//! The host's pace: a fixed piece of the benchmark's own work, timed
//! between the program's operations, that every end-to-end timing is
//! scaled by.
//!
//! The benchmark runs on shared virtual machines whose speed is not
//! steady. Other tenants on the same physical cores slow high-throughput
//! code by up to 2× for seconds to minutes at a time, while a dependent
//! multiply chain or a DRAM-bound pointer chase barely notices. The
//! flows are high-throughput code (allocation, hashing, branchy
//! traversal), and their slowdowns follow a kernel of the same kind: over
//! 10-s windows of a 4-minute run, the log-times of a corpus pass and of
//! the kernel below correlated at 0.96–0.98 while each moved by 1.6–2×.
//!
//! So each timing is reported at the *reference pace*: multiplied by
//! [`NOMINAL_MS`] over the kernel's time measured beside it (the geometric
//! mean of the probes just before and just after). Over 30-s windows of
//! that run the median of a corpus unit's raw time spread 12% (quartile
//! distance over median) and its paced time 1%. The kernel is the
//! benchmark's code, never the program's, so a change to the program
//! cannot move it.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time on a quiet host, ms: a paced timing is what the
/// operation would take on a host where the kernel takes this long.
pub const NOMINAL_MS: f64 = 0.5;

/// Allocation, formatting, sorting and ordered-map inserts.
fn allocate(reps: usize) -> u64 {
    let mut total = 0u64;
    for r in 0..reps {
        let mut names: Vec<String> = (0..64)
            .map(|i| format!("q{}_{i}", (i * 7_919 + r) % 1_000))
            .collect();
        names.sort();
        let tree: std::collections::BTreeMap<&str, usize> = names
            .iter()
            .enumerate()
            .map(|(i, s)| (s.as_str(), i))
            .collect();
        total += tree
            .range("q5"..)
            .take(8)
            .map(|(_, &i)| i as u64)
            .sum::<u64>();
    }
    total
}

/// Hash-map updates and lookups over a few thousand keys.
fn hash(ops: usize) -> u64 {
    let mut counts: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let (mut s, mut acc) = (0x2545_f491_4f6c_dd1d_u64, 0u64);
    for _ in 0..ops {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let k = s % 4_096;
        *counts.entry(k).or_insert(0) += 1;
        acc = acc.wrapping_add(counts.get(&(k ^ 1)).copied().unwrap_or(0));
    }
    acc
}

/// Four independent integer chains: instruction throughput.
fn mix(iterations: u64) -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for i in 0..iterations {
        a = a.wrapping_mul(0x9e37_79b9).wrapping_add(i);
        b = b.rotate_left(5) ^ i;
        c = c.wrapping_add(b >> 3);
        d = d.wrapping_mul(31).wrapping_add(a);
    }
    a ^ b ^ c ^ d
}

/// The kernel's time, ms. It runs twice and only the second run is
/// timed, so the time does not depend on what the operation before it
/// left in the caches.
fn kernel_ms() -> f64 {
    let run = || {
        black_box(allocate(black_box(12)));
        black_box(hash(black_box(6_000)));
        black_box(mix(black_box(150_000)));
    };
    run();
    let t = Instant::now();
    run();
    t.elapsed().as_secs_f64() * 1e3
}

/// Probes of the host's pace on one thread, or on several at once when
/// the work under test spreads over several cores (the serve daemon's
/// workers).
pub struct Pace {
    threads: usize,
    /// Kernel time of the latest probe, ms.
    last_ms: f64,
    /// Wall time spent probing, so rounds can leave it out.
    spent: Duration,
    /// Sum of the probes' log kernel times, and their count.
    log_sum: f64,
    probes: u64,
}

impl Pace {
    /// A pace probed on `threads` threads, warmed up and probed once.
    pub fn new(threads: usize) -> Self {
        let mut pace = Pace {
            threads: threads.max(1),
            last_ms: NOMINAL_MS,
            spent: Duration::ZERO,
            log_sum: 0.0,
            probes: 0,
        };
        for _ in 0..3 {
            pace.probe();
        }
        (pace.log_sum, pace.probes) = (0.0, 0);
        pace
    }

    /// Time the kernel once (on every thread at the same time, taking
    /// the geometric mean of their times) and return the factor by which
    /// the interval since the previous probe is scaled: `NOMINAL_MS` over
    /// the geometric mean of the two probes' kernel times.
    pub fn probe(&mut self) -> f64 {
        let t = Instant::now();
        let ms = if self.threads == 1 {
            kernel_ms()
        } else {
            let times: Vec<f64> = std::thread::scope(|s| {
                let workers: Vec<_> = (0..self.threads).map(|_| s.spawn(kernel_ms)).collect();
                workers
                    .into_iter()
                    .map(|w| w.join().unwrap_or(f64::NAN))
                    .collect()
            });
            (times.iter().map(|x| x.ln()).sum::<f64>() / times.len() as f64).exp()
        };
        self.spent += t.elapsed();
        self.log_sum += ms.ln();
        self.probes += 1;
        let before = std::mem::replace(&mut self.last_ms, ms);
        NOMINAL_MS / (before * ms).sqrt()
    }

    /// Wall time spent probing so far.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Geometric mean of the kernel's time over the probes after
    /// warm-up, ms, and how many there were.
    pub fn kernel_ms(&self) -> (f64, u64) {
        let mean = if self.probes == 0 {
            0.0
        } else {
            (self.log_sum / self.probes as f64).exp()
        };
        (mean, self.probes)
    }
}

impl Default for Pace {
    fn default() -> Self {
        Pace::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_scale_by_the_nominal_time() {
        let mut pace = Pace::new(2);
        let f = pace.probe();
        assert!(f.is_finite() && f > 0.0, "{f}");
        assert!(pace.spent() > Duration::ZERO);
    }
}
