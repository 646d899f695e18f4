//! The hand-written expected outputs (`expected.txt`), compiled in.
//!
//! The reference values come from the paper and from review, never from
//! the compiler under test at run time.

use std::collections::BTreeMap;

/// Expected outputs of every workload.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    /// Corpus entity -> op-amp count at `-O0` and at `-O2`.
    pub corpus_opamps: BTreeMap<String, [usize; 2]>,
    /// Op amps per generated PI-controller stage.
    pub opamps_per_stage: usize,
    /// The receiver's output stage clips `earph` at ± this many volts.
    pub receiver_clip_v: f64,
    /// Monte Carlo samples per yield run.
    pub mc_samples: usize,
}

const TEXT: &str = include_str!("../expected.txt");

impl Expected {
    /// Parse the compiled-in `expected.txt`.
    pub fn load() -> Result<Expected, String> {
        Self::parse(TEXT)
    }

    fn parse(text: &str) -> Result<Expected, String> {
        let mut e = Expected::default();
        for (n, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let bad = || format!("expected.txt:{}: cannot read `{line}`", n + 1);
            let words: Vec<&str> = line.split_whitespace().collect();
            let num = |i: usize| {
                words
                    .get(i)
                    .and_then(|w| w.parse::<usize>().ok())
                    .ok_or_else(bad)
            };
            match words.as_slice() {
                ["corpus", entity, _, _] => {
                    e.corpus_opamps
                        .insert((*entity).to_owned(), [num(2)?, num(3)?]);
                }
                ["opamps_per_stage", _] => e.opamps_per_stage = num(1)?,
                ["mc_samples", _] => e.mc_samples = num(1)?,
                ["receiver_clip_v", v] => e.receiver_clip_v = v.parse().map_err(|_| bad())?,
                _ => return Err(bad()),
            }
        }
        if e.corpus_opamps.len() != 11 || e.opamps_per_stage == 0 || e.mc_samples == 0 {
            return Err("expected.txt: incomplete".to_owned());
        }
        Ok(e)
    }

    /// Expected op amps of a corpus entity at an optimization level.
    pub fn corpus(&self, entity: &str, opt_level: u8) -> Option<usize> {
        self.corpus_opamps
            .get(entity)
            .map(|c| c[usize::from(opt_level > 0)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_shipped_file_parses_and_covers_the_corpus() {
        let e = Expected::load().expect("expected.txt parses");
        for (_, entity, _) in vase::benchmarks::corpus() {
            assert!(
                e.corpus(entity, 0).is_some() && e.corpus(entity, 2).is_some(),
                "{entity}"
            );
        }
        assert!(Expected::parse("corpus x 1\n").is_err());
    }
}
