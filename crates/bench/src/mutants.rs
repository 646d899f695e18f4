//! Seeded source mutants of the shipped VASS specifications.
//!
//! `vase-fuzz` feeds these mutants to the analysis pipeline and asserts
//! that nothing panics; `tests/diagnostic_pins.rs` renders every
//! diagnostic they produce into a committed table. Both draw the same
//! mutants from the same corpus, so a seed and an index name one mutant
//! everywhere.

use crate::rng::SplitMix64;

/// The fixed seed of `vase-fuzz --smoke` runs (and its default
/// otherwise); the diagnostic pin uses it too.
pub const SMOKE_SEED: u64 = 0x00F0_5EED;

/// VHDL-AMS-ish tokens spliced into mutants to stress keyword
/// handling, not just byte soup.
pub const TOKENS: [&str; 16] = [
    "entity",
    "architecture",
    "process",
    "quantity",
    "signal",
    "port",
    "begin",
    "end",
    "is",
    "use",
    "when",
    "range",
    "==",
    "<=",
    "'",
    ";",
];

/// The mutation corpus: every shipped spec and lint fixture as
/// `(name, source)`.
pub fn corpus() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = vase::benchmarks::corpus()
        .into_iter()
        .map(|(name, _, source)| (name.to_string(), source.to_string()))
        .collect();
    for (name, source) in [
        (
            "lint/bad_annotations",
            include_str!("../../../examples/lint/bad_annotations.vhd"),
        ),
        (
            "lint/bad_multi",
            include_str!("../../../examples/lint/bad_multi.vhd"),
        ),
        (
            "lint/bad_parse",
            include_str!("../../../examples/lint/bad_parse.vhd"),
        ),
        (
            "lint/bad_restrictions",
            include_str!("../../../examples/lint/bad_restrictions.vhd"),
        ),
        (
            "lint/bad_undeclared",
            include_str!("../../../examples/lint/bad_undeclared.vhd"),
        ),
        (
            "lint/clean_follower",
            include_str!("../../../examples/lint/clean_follower.vhd"),
        ),
    ] {
        out.push((name.to_string(), source.to_string()));
    }
    out
}

/// Apply one random mutation to `chars`. Operating on a char vector
/// sidesteps UTF-8 boundary bookkeeping entirely.
pub fn mutate_once(chars: &mut Vec<char>, donor: &str, rng: &mut SplitMix64) {
    if chars.is_empty() {
        chars.extend(TOKENS[rng.index(TOKENS.len())].chars());
        return;
    }
    match rng.index(7) {
        // Delete a random character.
        0 => {
            let at = rng.index(chars.len());
            chars.remove(at);
        }
        // Duplicate a random chunk in place.
        1 => {
            let at = rng.index(chars.len());
            let len = 1 + rng.index(16).min(chars.len() - at - 1);
            let chunk: Vec<char> = chars[at..at + len].to_vec();
            chars.splice(at..at, chunk);
        }
        // Replace a character with random printable ASCII.
        2 => {
            let at = rng.index(chars.len());
            chars[at] = (b' ' + rng.index(95) as u8) as char;
        }
        // Insert a language token at a random position.
        3 => {
            let at = rng.index(chars.len() + 1);
            let token: Vec<char> = TOKENS[rng.index(TOKENS.len())].chars().collect();
            chars.splice(at..at, token);
        }
        // Truncate at a random position.
        4 => chars.truncate(rng.index(chars.len())),
        // Swap two random characters.
        5 => {
            let a = rng.index(chars.len());
            let b = rng.index(chars.len());
            chars.swap(a, b);
        }
        // Splice a chunk from another spec (crossover).
        _ => {
            let donor: Vec<char> = donor.chars().collect();
            if donor.is_empty() {
                return;
            }
            let from = rng.index(donor.len());
            let len = 1 + rng.index(40).min(donor.len() - from - 1);
            let at = rng.index(chars.len() + 1);
            chars.splice(at..at, donor[from..from + len].iter().copied());
        }
    }
}

/// Build mutant `i` of a run seeded with `seed`: the index of the spec
/// it was derived from and its source. Reconstructible from
/// `(seed, i)` alone.
pub fn build_mutant(specs: &[(String, String)], seed: u64, i: usize) -> (usize, String) {
    // A per-mutant generator keyed on (seed, index) keeps every mutant
    // independent of how many came before it.
    let mut rng = SplitMix64::new(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let pick = rng.index(specs.len());
    let donor = &specs[rng.index(specs.len())].1;
    let mut chars: Vec<char> = specs[pick].1.chars().collect();
    for _ in 0..1 + rng.index(4) {
        mutate_once(&mut chars, donor, &mut rng);
    }
    (pick, chars.into_iter().collect())
}
