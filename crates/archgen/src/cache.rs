//! The content-addressed cover cache: cross-design (and cross-run)
//! reuse of best-known covers.
//!
//! Mapping is where synthesis time goes, yet real design traffic is
//! repetitive — the same filter section, the same control loop, the
//! same library blocks wired the same way, arriving under the same
//! constraints. The cache keys each signal-flow graph by its *content*
//! ([`vase_vhif::structural_hash`], invariant to names and labels)
//! plus a fingerprint of everything else that can change the optimal
//! cover (performance constraints, matcher options, sharing, fan-out
//! limit), and stores the winning plan's components. A later mapping of
//! a structurally identical graph is then answered in O(lookup):
//! [`resolve`] the stored components and re-estimate them — both
//! deterministic — and return a netlist bitwise identical to what the
//! search would have produced.
//!
//! Cached covers are **validated, never trusted**: a lookup replays the
//! stored components against the *current* graph and estimator, and
//! any inconsistency (out-of-range block, double cover, incomplete
//! cover, resolution failure, constraint violation) falls through as a
//! miss.
//! That makes a stale or corrupted cache file a performance problem,
//! never a correctness problem.
//!
//! The cache persists as a line-oriented text file (header
//! `VASE-COVER-CACHE v1`) so `vase synth --cache-file` can carry
//! covers across runs; `f64`s are stored as exact bit patterns to keep
//! the bitwise-identity guarantee through a save/load round trip.
//!
//! Saving costs only what changed. Each entry's file lines are rendered
//! once, when the entry is inserted or loaded, and a save streams those
//! texts in key order. Every insert bumps a generation counter, and a
//! save to the path of the last successful save at an unchanged
//! generation writes nothing. Saves take a lock for their whole length,
//! so two of them never share the temp file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use vase_estimate::{Estimator, NetlistEstimate};
use vase_library::{ComponentKind, Netlist};
use vase_vhif::{structural_hash, BlockId, GraphBounds, SignalFlowGraph};

use crate::config::MapperConfig;
use crate::plan::{interface_cover, resolve, PlannedComponent};

/// The first line of every cache file.
const HEADER: &str = "VASE-COVER-CACHE v1";

/// A best-known cover for one `(graph content, context)` key.
#[derive(Debug, Clone)]
struct CachedCover {
    opamps: usize,
    components: Vec<PlannedComponent>,
    /// The entry's lines in the cache file: its `e` line and one `c`
    /// line per component.
    text: Arc<str>,
}

impl CachedCover {
    fn new(key: (u64, u64), opamps: usize, components: Vec<PlannedComponent>) -> Self {
        let text = render_entry(key, opamps, &components).into();
        CachedCover {
            opamps,
            components,
            text,
        }
    }
}

/// The covers in key order (so files are deterministic) and a count of
/// the inserts that built them.
#[derive(Debug, Default)]
struct Table {
    covers: BTreeMap<(u64, u64), CachedCover>,
    generation: u64,
}

/// A concurrent, content-addressed table of best-known covers.
///
/// Shared by reference across the mappings of a batch (and across
/// designs): hit/miss counters are atomic and the table is mutexed, so
/// one cache can serve parallel flows.
#[derive(Debug, Default)]
pub struct CoverCache {
    table: Mutex<Table>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Path and table generation of the last successful save. Held for
    /// the whole of a save, so saves never overlap.
    saved: Mutex<Option<(PathBuf, u64)>>,
}

impl CoverCache {
    /// An empty cache.
    pub fn new() -> Self {
        CoverCache::default()
    }

    /// The cache key for mapping `graph` with `estimator` under
    /// `config`: the graph's structural hash plus a fingerprint of
    /// every knob that can change which cover is optimal.
    pub fn key(graph: &SignalFlowGraph, estimator: &Estimator, config: &MapperConfig) -> (u64, u64) {
        CoverCache::key_with_bounds(graph, estimator, config, None)
    }

    /// [`CoverCache::key`] for a mapping that may range-prune against
    /// proven value bounds. The bounds join the context fingerprint
    /// *only* when `config.range_prune` is set and bounds are present —
    /// a pruning search can return a different cover, so it must not
    /// share entries with (or poison) the exact search's keys. With
    /// `range_prune` off the key is identical to [`CoverCache::key`]
    /// whether or not bounds ride on the design.
    pub fn key_with_bounds(
        graph: &SignalFlowGraph,
        estimator: &Estimator,
        config: &MapperConfig,
        bounds: Option<&GraphBounds>,
    ) -> (u64, u64) {
        let bounds = bounds.filter(|_| config.range_prune);
        (structural_hash(graph), context_fingerprint(estimator, config, bounds))
    }

    /// Look up and *validate* a cached cover. Returns the resolved
    /// netlist and its estimate on a hit; `None` (recorded as a miss)
    /// when the key is absent or the stored cover fails replay against
    /// the current graph/estimator.
    pub fn lookup(
        &self,
        key: (u64, u64),
        graph: &SignalFlowGraph,
        estimator: &Estimator,
        config: &MapperConfig,
    ) -> Option<(Netlist, NetlistEstimate)> {
        let cover = {
            let table = self.table.lock().expect("cover-cache poisoned");
            table.covers.get(&key).cloned()
        };
        let replayed = cover.and_then(|c| replay(&c, graph, estimator, config));
        match replayed {
            Some(hit) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(hit)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Record the winning cover for `key`. Last writer wins; since all
    /// writers for one key found covers for the same graph under the
    /// same context, by deterministic searches that return the same
    /// cover whichever strategy ran (the key leaves the strategy out),
    /// they agree.
    pub fn insert(&self, key: (u64, u64), opamps: usize, components: Vec<PlannedComponent>) {
        let cover = CachedCover::new(key, opamps, components);
        let mut table = self.table.lock().expect("cover-cache poisoned");
        table.covers.insert(key, cover);
        table.generation += 1;
    }

    /// Number of cached covers.
    pub fn len(&self) -> usize {
        self.table
            .lock()
            .expect("cover-cache poisoned")
            .covers
            .len()
    }

    /// Whether the cache holds no covers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validated lookups served so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed (absent key or failed validation).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Serialize the cache to its line-oriented text format: the exact
    /// bytes [`CoverCache::save`] writes.
    pub fn serialize(&self) -> String {
        let table = self.table.lock().expect("cover-cache poisoned");
        let mut out = format!("{HEADER}\n");
        for cover in table.covers.values() {
            out.push_str(&cover.text);
        }
        out
    }

    /// Parse a cache from its text format.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidData`] on a bad header or any
    /// malformed entry.
    pub fn deserialize(text: &str) -> std::io::Result<Self> {
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            return Err(bad("missing VASE-COVER-CACHE v1 header"));
        }
        let mut covers = BTreeMap::new();
        while let Some(line) = lines.next() {
            if line.is_empty() {
                continue;
            }
            let mut t = line.split_ascii_whitespace();
            if t.next() != Some("e") {
                return Err(bad("expected entry line"));
            }
            let hash = u64_hex(t.next())?;
            let ctx = u64_hex(t.next())?;
            let opamps = int(t.next())?;
            let ncomp = int(t.next())?;
            let mut components = Vec::with_capacity(ncomp);
            for _ in 0..ncomp {
                let line = lines.next().ok_or_else(|| bad("truncated entry"))?;
                let mut t = line.split_ascii_whitespace();
                if t.next() != Some("c") {
                    return Err(bad("expected component line"));
                }
                let output = BlockId::from_index(int(t.next())?);
                let ncov = int(t.next())?;
                let mut covered = Vec::with_capacity(ncov);
                for _ in 0..ncov {
                    covered.push(BlockId::from_index(int(t.next())?));
                }
                let nin = int(t.next())?;
                let mut inputs = Vec::with_capacity(nin);
                for _ in 0..nin {
                    inputs.push(BlockId::from_index(int(t.next())?));
                }
                let kind = read_kind(&mut t)?;
                if t.next().is_some() {
                    return Err(bad("trailing tokens on component line"));
                }
                components.push(PlannedComponent {
                    kind,
                    covered,
                    inputs,
                    output,
                });
            }
            let key = (hash, ctx);
            covers.insert(key, CachedCover::new(key, opamps, components));
        }
        Ok(CoverCache {
            table: Mutex::new(Table {
                covers,
                generation: 0,
            }),
            ..CoverCache::default()
        })
    }

    /// Write the cache to `path` atomically: the table goes to
    /// `<path>.tmp` first and is renamed over `path` only once fully
    /// written, so a crash (or `kill -9`) mid-save leaves the previous
    /// cache intact instead of a truncated file. The temp file lives in
    /// the same directory so the rename never crosses filesystems.
    ///
    /// A save to the path of this cache's last successful save, with no
    /// insert since, returns at once and leaves the file alone. The
    /// first save of a cache always writes, and a failed one is retried
    /// in full by the next. Concurrent saves run one at a time.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on error the target file is
    /// untouched (a stale `<path>.tmp` may remain and is overwritten by
    /// the next save).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut saved = self.saved.lock().expect("cover-cache poisoned");
        let (generation, texts) = {
            let table = self.table.lock().expect("cover-cache poisoned");
            if saved
                .as_ref()
                .is_some_and(|(p, g)| p == path && *g == table.generation)
            {
                return Ok(());
            }
            let texts: Vec<Arc<str>> = table.covers.values().map(|c| Arc::clone(&c.text)).collect();
            (table.generation, texts)
        };
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut out = BufWriter::new(std::fs::File::create(&tmp)?);
        writeln!(out, "{HEADER}")?;
        for text in &texts {
            out.write_all(text.as_bytes())?;
        }
        out.flush()?;
        drop(out);
        std::fs::rename(&tmp, path)?;
        *saved = Some((path.to_owned(), generation));
        Ok(())
    }

    /// Read a cache from `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and format errors from
    /// [`CoverCache::deserialize`].
    pub fn load(path: &Path) -> std::io::Result<Self> {
        CoverCache::deserialize(&std::fs::read_to_string(path)?)
    }
}

/// FNV-1a over everything outside the graph that can change the
/// optimal cover: performance constraints (exact bits), matcher
/// options, sharing, the fan-out limit, and — when range pruning is
/// active — the proven per-block bounds the pruning consults. The
/// bounds mix is keyed on the caller having already filtered on
/// `config.range_prune`, so pruning-off fingerprints are byte-for-byte
/// what they were before bounds existed.
fn context_fingerprint(
    estimator: &Estimator,
    config: &MapperConfig,
    bounds: Option<&GraphBounds>,
) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    let c = &estimator.constraints;
    mix(c.bandwidth_hz.to_bits());
    mix(c.signal_peak_v.to_bits());
    mix(c.max_power_w.to_bits());
    mix(c.max_area_m2.to_bits());
    mix(u64::from(config.match_options.multi_block));
    mix(u64::from(config.match_options.transforms));
    mix(u64::from(config.sharing));
    mix(config.fanout_limit as u64);
    if let Some(b) = bounds {
        // A marker first, so "pruning with all-unknown bounds" still
        // keys apart from "no pruning".
        mix(0x5241_4e47_4550_5255); // "RANGEPRU"
        mix(b.blocks.len() as u64);
        for entry in &b.blocks {
            match entry {
                Some((lo, hi)) => {
                    mix(1);
                    mix(lo.to_bits());
                    mix(hi.to_bits());
                }
                None => mix(0),
            }
        }
    }
    h
}

/// Replay a stored cover against the current graph: check its
/// coverage block by block, resolve its components, and require
/// feasibility. Any failure returns `None` (a miss).
fn replay(
    cover: &CachedCover,
    graph: &SignalFlowGraph,
    estimator: &Estimator,
    config: &MapperConfig,
) -> Option<(Netlist, NetlistEstimate)> {
    let mut covered = interface_cover(graph);
    for c in &cover.components {
        if c.output.index() >= graph.len() {
            return None;
        }
        for &b in c.covered.iter().chain(c.inputs.iter()) {
            if b.index() >= graph.len() {
                return None;
            }
        }
        for &b in &c.covered {
            // Rejects double covers and covers claiming interface
            // blocks (those are pre-covered).
            if covered.get(b.index()) {
                return None;
            }
            covered.set(b.index());
        }
    }
    // Op-amp count is recomputed from the kinds, not trusted from the
    // file (it only feeds reporting, but keep it consistent).
    let opamps: usize = cover.components.iter().map(|c| c.kind.opamp_count()).sum();
    if opamps != cover.opamps || !covered.is_full() {
        return None;
    }
    let netlist = resolve(graph, &cover.components, config.fanout_limit).ok()?;
    let estimate = estimator.estimate_netlist(&netlist);
    if !estimate.feasible() {
        return None;
    }
    Some((netlist, estimate))
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, format!("cover cache: {msg}"))
}

fn int(tok: Option<&str>) -> std::io::Result<usize> {
    tok.and_then(|t| t.parse().ok())
        .ok_or_else(|| bad("expected integer"))
}

fn u64_hex(tok: Option<&str>) -> std::io::Result<u64> {
    tok.and_then(|t| u64::from_str_radix(t, 16).ok())
        .ok_or_else(|| bad("expected hex u64"))
}

fn f64_bits(tok: Option<&str>) -> std::io::Result<f64> {
    u64_hex(tok).map(f64::from_bits)
}

/// One entry's lines in the cache file: `e hash ctx opamps n`, then
/// `c output ncov covered… nin inputs… kind…` per component.
fn render_entry(key: (u64, u64), opamps: usize, components: &[PlannedComponent]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "e {:016x} {:016x} {} {}",
        key.0,
        key.1,
        opamps,
        components.len()
    );
    for c in components {
        out.push('c');
        let _ = write!(out, " {}", c.output.index());
        let _ = write!(out, " {}", c.covered.len());
        for b in &c.covered {
            let _ = write!(out, " {}", b.index());
        }
        let _ = write!(out, " {}", c.inputs.len());
        for b in &c.inputs {
            let _ = write!(out, " {}", b.index());
        }
        write_kind(&mut out, &c.kind);
        out.push('\n');
    }
    out
}

/// Append a component kind as `tag field…`, floats as exact bit
/// patterns. Tags follow the `ComponentKind` declaration order and
/// match the byte tags of `vase_estimate::memo`.
fn write_kind(out: &mut String, kind: &ComponentKind) {
    use ComponentKind::*;
    let f = |out: &mut String, v: f64| {
        let _ = write!(out, " {:016x}", v.to_bits());
    };
    match kind {
        InvertingAmp { gain } => {
            out.push_str(" 0");
            f(out, *gain);
        }
        NonInvertingAmp { gain } => {
            out.push_str(" 1");
            f(out, *gain);
        }
        Follower => out.push_str(" 2"),
        AmplifierChain { stage_gains } => {
            let _ = write!(out, " 3 {}", stage_gains.len());
            for g in stage_gains {
                f(out, *g);
            }
        }
        SummingAmp { weights } => {
            let _ = write!(out, " 4 {}", weights.len());
            for w in weights {
                f(out, *w);
            }
        }
        DifferenceAmp { gain } => {
            out.push_str(" 5");
            f(out, *gain);
        }
        SwitchedGainAmp { gains } => {
            let _ = write!(out, " 6 {}", gains.len());
            for g in gains {
                f(out, *g);
            }
        }
        Integrator { weights, initial } => {
            let _ = write!(out, " 7 {}", weights.len());
            for w in weights {
                f(out, *w);
            }
            f(out, *initial);
        }
        Differentiator { gain } => {
            out.push_str(" 8");
            f(out, *gain);
        }
        LogAmp => out.push_str(" 9"),
        AntilogAmp => out.push_str(" 10"),
        Multiplier => out.push_str(" 11"),
        Divider => out.push_str(" 12"),
        PrecisionRectifier => out.push_str(" 13"),
        Comparator { threshold } => {
            out.push_str(" 14");
            f(out, *threshold);
        }
        ZeroCrossDetector { level, hysteresis } => {
            out.push_str(" 15");
            f(out, *level);
            f(out, *hysteresis);
        }
        SchmittTrigger { low, high } => {
            out.push_str(" 16");
            f(out, *low);
            f(out, *high);
        }
        SampleHold => out.push_str(" 17"),
        AnalogSwitch => out.push_str(" 18"),
        AnalogMux { inputs } => {
            let _ = write!(out, " 19 {inputs}");
        }
        Adc { bits } => {
            let _ = write!(out, " 20 {bits}");
        }
        LogicGate => out.push_str(" 21"),
        MemoryCell => out.push_str(" 22"),
        VoltageRef { level } => {
            out.push_str(" 23");
            f(out, *level);
        }
        Limiter { level } => {
            out.push_str(" 24");
            f(out, *level);
        }
        OutputStage {
            load_ohms,
            peak_volts,
            limit,
        } => {
            out.push_str(" 25");
            f(out, *load_ohms);
            f(out, *peak_volts);
            match limit {
                Some(l) => {
                    out.push_str(" 1");
                    f(out, *l);
                }
                None => out.push_str(" 0"),
            }
        }
    }
}

/// Parse a component kind written by [`write_kind`].
fn read_kind<'a>(t: &mut impl Iterator<Item = &'a str>) -> std::io::Result<ComponentKind> {
    use ComponentKind::*;
    let tag = int(t.next())?;
    Ok(match tag {
        0 => InvertingAmp { gain: f64_bits(t.next())? },
        1 => NonInvertingAmp { gain: f64_bits(t.next())? },
        2 => Follower,
        3 => {
            let n = int(t.next())?;
            let mut stage_gains = Vec::with_capacity(n);
            for _ in 0..n {
                stage_gains.push(f64_bits(t.next())?);
            }
            AmplifierChain { stage_gains }
        }
        4 => {
            let n = int(t.next())?;
            let mut weights = Vec::with_capacity(n);
            for _ in 0..n {
                weights.push(f64_bits(t.next())?);
            }
            SummingAmp { weights }
        }
        5 => DifferenceAmp { gain: f64_bits(t.next())? },
        6 => {
            let n = int(t.next())?;
            let mut gains = Vec::with_capacity(n);
            for _ in 0..n {
                gains.push(f64_bits(t.next())?);
            }
            SwitchedGainAmp { gains }
        }
        7 => {
            let n = int(t.next())?;
            let mut weights = Vec::with_capacity(n);
            for _ in 0..n {
                weights.push(f64_bits(t.next())?);
            }
            Integrator {
                weights,
                initial: f64_bits(t.next())?,
            }
        }
        8 => Differentiator { gain: f64_bits(t.next())? },
        9 => LogAmp,
        10 => AntilogAmp,
        11 => Multiplier,
        12 => Divider,
        13 => PrecisionRectifier,
        14 => Comparator { threshold: f64_bits(t.next())? },
        15 => ZeroCrossDetector {
            level: f64_bits(t.next())?,
            hysteresis: f64_bits(t.next())?,
        },
        16 => SchmittTrigger {
            low: f64_bits(t.next())?,
            high: f64_bits(t.next())?,
        },
        17 => SampleHold,
        18 => AnalogSwitch,
        19 => AnalogMux { inputs: int(t.next())? },
        20 => Adc {
            bits: int(t.next())? as u32,
        },
        21 => LogicGate,
        22 => MemoryCell,
        23 => VoltageRef { level: f64_bits(t.next())? },
        24 => Limiter { level: f64_bits(t.next())? },
        25 => {
            let load_ohms = f64_bits(t.next())?;
            let peak_volts = f64_bits(t.next())?;
            let limit = match int(t.next())? {
                0 => None,
                1 => Some(f64_bits(t.next())?),
                _ => return Err(bad("bad Option tag")),
            };
            OutputStage {
                load_ohms,
                peak_volts,
                limit,
            }
        }
        _ => return Err(bad("unknown component-kind tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::{map_graph, map_graph_with_cache};
    use vase_vhif::BlockKind;

    fn estimator() -> Estimator {
        Estimator::default()
    }

    fn fig6_graph(name: &str, labels: bool) -> SignalFlowGraph {
        let mut g = SignalFlowGraph::new(name);
        let a = g.add(BlockKind::Input { name: "a".into() });
        let b = g.add(BlockKind::Input { name: "b".into() });
        let s1 = g.add(BlockKind::Scale { gain: 2.0 });
        let s2 = g.add(BlockKind::Scale { gain: 3.0 });
        let add = if labels {
            g.add_labelled(BlockKind::Add { arity: 2 }, "sum")
        } else {
            g.add(BlockKind::Add { arity: 2 })
        };
        let s3 = g.add(BlockKind::Scale { gain: 0.5 });
        let y = g.add(BlockKind::Output { name: "y".into() });
        g.connect(a, s1, 0).expect("wire");
        g.connect(b, s2, 0).expect("wire");
        g.connect(s1, add, 0).expect("wire");
        g.connect(s2, add, 1).expect("wire");
        g.connect(add, s3, 0).expect("wire");
        g.connect(s3, y, 0).expect("wire");
        g
    }

    #[test]
    fn warm_lookup_is_bitwise_identical_to_cold_search() {
        let g = fig6_graph("one", false);
        let config = MapperConfig::default();
        let cache = CoverCache::new();
        let cold =
            map_graph_with_cache(&g, &estimator(), &config, None, Some(&cache)).expect("maps");
        assert_eq!(cold.stats.cache_hits, 0);
        assert_eq!(cold.stats.cache_misses, 1);
        assert_eq!(cache.len(), 1);

        let warm =
            map_graph_with_cache(&g, &estimator(), &config, None, Some(&cache)).expect("maps");
        assert_eq!(warm.stats.cache_hits, 1);
        assert_eq!(warm.stats.visited_nodes, 0, "a hit skips the search");
        assert_eq!(warm.netlist, cold.netlist);
        assert_eq!(
            warm.estimate.area_m2.to_bits(),
            cold.estimate.area_m2.to_bits()
        );
    }

    #[test]
    fn cache_hits_across_renamed_designs() {
        // Same structure, different graph name and labels → same key.
        let config = MapperConfig::default();
        let cache = CoverCache::new();
        let a = fig6_graph("design_a", false);
        let b = fig6_graph("design_b", true);
        let first =
            map_graph_with_cache(&a, &estimator(), &config, None, Some(&cache)).expect("maps");
        let second =
            map_graph_with_cache(&b, &estimator(), &config, None, Some(&cache)).expect("maps");
        assert_eq!(second.stats.cache_hits, 1);
        assert_eq!(
            first.netlist.opamp_count(),
            second.netlist.opamp_count()
        );
    }

    #[test]
    fn different_constraints_do_not_share_entries() {
        use vase_estimate::PerformanceConstraints;
        let g = fig6_graph("one", false);
        let config = MapperConfig::default();
        let cache = CoverCache::new();
        map_graph_with_cache(&g, &estimator(), &config, None, Some(&cache)).expect("maps");
        let tighter = Estimator::new(PerformanceConstraints {
            bandwidth_hz: 1e6,
            ..estimator().constraints
        });
        let second = map_graph_with_cache(&g, &tighter, &config, None, Some(&cache)).expect("maps");
        assert_eq!(second.stats.cache_hits, 0, "different constraints must miss");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn range_prune_keys_separate_only_when_active() {
        use vase_vhif::GraphBounds;
        let g = fig6_graph("one", false);
        let e = estimator();
        let off = MapperConfig::default();
        let on = MapperConfig { range_prune: true, ..MapperConfig::default() };
        let mut bounds = GraphBounds::unknown(&g);
        bounds.blocks[2] = Some((-0.5, 0.5));
        // Pruning off: bounds never reach the key.
        assert_eq!(
            CoverCache::key_with_bounds(&g, &e, &off, Some(&bounds)),
            CoverCache::key(&g, &e, &off)
        );
        // Pruning on with bounds: the key must diverge — a pruning
        // search may find a different cover.
        assert_ne!(
            CoverCache::key_with_bounds(&g, &e, &on, Some(&bounds)),
            CoverCache::key(&g, &e, &on)
        );
        // ...and depend on the bound values themselves.
        let mut other = GraphBounds::unknown(&g);
        other.blocks[2] = Some((-1.0, 1.0));
        assert_ne!(
            CoverCache::key_with_bounds(&g, &e, &on, Some(&bounds)),
            CoverCache::key_with_bounds(&g, &e, &on, Some(&other))
        );
    }

    #[test]
    fn save_load_round_trip_preserves_hits() {
        let g = fig6_graph("one", false);
        let config = MapperConfig::default();
        let cache = CoverCache::new();
        let cold =
            map_graph_with_cache(&g, &estimator(), &config, None, Some(&cache)).expect("maps");

        let text = cache.serialize();
        let reloaded = CoverCache::deserialize(&text).expect("parses");
        assert_eq!(reloaded.len(), cache.len());
        let warm =
            map_graph_with_cache(&g, &estimator(), &config, None, Some(&reloaded)).expect("maps");
        assert_eq!(warm.stats.cache_hits, 1);
        assert_eq!(warm.netlist, cold.netlist);
        // And the text form itself round-trips exactly.
        assert_eq!(reloaded.serialize(), text);
    }

    /// A process-unique scratch directory; each test cleans its own.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("vase-cache-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_file() {
        let g = fig6_graph("one", false);
        let config = MapperConfig::default();
        let cache = CoverCache::new();
        map_graph_with_cache(&g, &estimator(), &config, None, Some(&cache)).expect("maps");

        let dir = scratch_dir("atomic");
        let path = dir.join("covers.cache");
        cache.save(&path).expect("saves");
        assert!(path.exists());
        assert!(!dir.join("covers.cache.tmp").exists(), "temp file must be renamed away");
        let reloaded = CoverCache::load(&path).expect("loads");
        assert_eq!(reloaded.len(), cache.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_temp_from_killed_save_does_not_shadow_the_cache() {
        // Simulate `kill -9` mid-save: a half-written `<path>.tmp` next
        // to a valid cache. The load must see only the valid file, and
        // the next save must clean up by renaming over it.
        let g = fig6_graph("one", false);
        let config = MapperConfig::default();
        let cache = CoverCache::new();
        map_graph_with_cache(&g, &estimator(), &config, None, Some(&cache)).expect("maps");

        let dir = scratch_dir("killed");
        let path = dir.join("covers.cache");
        cache.save(&path).expect("saves");
        std::fs::write(dir.join("covers.cache.tmp"), "VASE-COVER-CACHE v1\ne 12 34")
            .expect("plant torn temp file");

        let reloaded = CoverCache::load(&path).expect("valid cache loads despite stale tmp");
        assert_eq!(reloaded.len(), cache.len());
        reloaded.save(&path).expect("saves over stale tmp");
        assert!(!dir.join("covers.cache.tmp").exists());
        assert_eq!(CoverCache::load(&path).expect("still loads").len(), cache.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Insert a one-component cover under key `(i, 0)`: distinct keys
    /// and file lines without mapping anything.
    fn insert_toy(cache: &CoverCache, i: usize) {
        cache.insert(
            (i as u64, 0),
            1,
            vec![PlannedComponent {
                kind: ComponentKind::Follower,
                covered: vec![BlockId::from_index(i)],
                inputs: vec![],
                output: BlockId::from_index(i),
            }],
        );
    }

    /// The file's inode: a save that writes renames a new file over
    /// the old one, so its inode changes.
    #[cfg(unix)]
    fn inode(path: &Path) -> u64 {
        use std::os::unix::fs::MetadataExt;
        std::fs::metadata(path).expect("saved file").ino()
    }

    fn read(path: &Path) -> String {
        std::fs::read_to_string(path).expect("saved file reads")
    }

    #[test]
    fn a_save_with_no_insert_since_the_last_leaves_the_file_alone() {
        let dir = scratch_dir("unchanged");
        let path = dir.join("covers.cache");
        let cache = CoverCache::new();
        insert_toy(&cache, 1);
        cache.save(&path).expect("saves");
        #[cfg(unix)]
        let before = inode(&path);
        cache.save(&path).expect("saves");
        #[cfg(unix)]
        assert_eq!(inode(&path), before, "nothing new, nothing written");
        assert_eq!(read(&path), cache.serialize());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_insert_makes_the_next_save_replace_the_file() {
        let dir = scratch_dir("insert");
        let path = dir.join("covers.cache");
        let cache = CoverCache::new();
        insert_toy(&cache, 1);
        cache.save(&path).expect("saves");
        #[cfg(unix)]
        let before = inode(&path);
        insert_toy(&cache, 2);
        cache.save(&path).expect("saves");
        #[cfg(unix)]
        assert_ne!(inode(&path), before, "the insert is written");
        assert_eq!(read(&path), cache.serialize());
        assert_eq!(CoverCache::load(&path).expect("loads").len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_first_save_of_an_empty_or_freshly_loaded_cache_writes() {
        let dir = scratch_dir("first");
        let path = dir.join("covers.cache");
        CoverCache::new().save(&path).expect("saves");
        assert_eq!(read(&path), "VASE-COVER-CACHE v1\n");

        let cache = CoverCache::new();
        insert_toy(&cache, 1);
        cache.save(&path).expect("saves");
        let loaded = CoverCache::load(&path).expect("loads");
        std::fs::remove_file(&path).expect("remove");
        loaded.save(&path).expect("saves");
        assert_eq!(
            read(&path),
            cache.serialize(),
            "a loaded cache writes the same bytes"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_save_to_another_path_writes() {
        let dir = scratch_dir("other");
        let cache = CoverCache::new();
        insert_toy(&cache, 1);
        cache.save(&dir.join("a.cache")).expect("saves");
        cache.save(&dir.join("b.cache")).expect("saves");
        assert_eq!(read(&dir.join("b.cache")), cache.serialize());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_save_is_retried_by_the_next() {
        let dir = scratch_dir("retry");
        let path = dir.join("missing").join("covers.cache");
        let cache = CoverCache::new();
        insert_toy(&cache, 1);
        assert!(
            cache.save(&path).is_err(),
            "the directory does not exist yet"
        );
        std::fs::create_dir_all(dir.join("missing")).expect("create dir");
        cache.save(&path).expect("saves");
        assert_eq!(read(&path), cache.serialize());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_saves_to_one_path_all_succeed_and_never_tear_the_file() {
        // Each round, one thread inserts a cover while two others save
        // the previous round's table to the same path; the barrier
        // starts both saves of a round together.
        const ROUNDS: usize = 1000;
        let dir = scratch_dir("concurrent");
        let path = dir.join("covers.cache");
        let cache = CoverCache::new();
        let barrier = std::sync::Barrier::new(3);
        let failed = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..ROUNDS {
                    insert_toy(&cache, i);
                    barrier.wait();
                }
            });
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..ROUNDS {
                        barrier.wait();
                        if cache.save(&path).is_err() {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(failed.load(Ordering::Relaxed), 0, "every save returns Ok");
        let text = read(&path);
        assert_eq!(
            CoverCache::deserialize(&text)
                .expect("final file parses")
                .len(),
            ROUNDS
        );
        assert_eq!(text, cache.serialize());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_or_garbage_cache_file_is_an_error_not_a_panic() {
        let dir = scratch_dir("garbage");
        for (name, text) in [
            ("empty", ""),
            ("header-only-truncated-entry", "VASE-COVER-CACHE v1\ne deadbeef"),
            ("truncated-component", "VASE-COVER-CACHE v1\ne 1a 2b 1 1\nc 0 1"),
            ("binary-garbage", "\u{0}\u{1}\u{2}garbage\u{ff}"),
            ("wrong-header", "SOME-OTHER-FORMAT v9\ne 1 2 3 4"),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, text).expect("write fixture");
            let err = CoverCache::load(&path).expect_err("garbage must not load");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_cover_falls_through_as_miss() {
        let g = fig6_graph("one", false);
        let config = MapperConfig::default();
        let cache = CoverCache::new();
        let key = CoverCache::key(&g, &estimator(), &config);
        // A cover claiming a block index beyond the graph.
        cache.insert(
            key,
            1,
            vec![PlannedComponent {
                kind: ComponentKind::Follower,
                covered: vec![BlockId::from_index(99)],
                inputs: vec![],
                output: BlockId::from_index(99),
            }],
        );
        let result =
            map_graph_with_cache(&g, &estimator(), &config, None, Some(&cache)).expect("maps");
        assert_eq!(result.stats.cache_hits, 0);
        assert_eq!(result.stats.cache_misses, 1);
        // The failed validation was counted on the cache itself.
        assert_eq!(cache.misses(), 1);
        // And the search overwrote the bogus entry with the real cover.
        let retry =
            map_graph_with_cache(&g, &estimator(), &config, None, Some(&cache)).expect("maps");
        assert_eq!(retry.stats.cache_hits, 1);
        // The uncached reference agrees.
        let reference = map_graph(&g, &estimator(), &config).expect("maps");
        assert_eq!(retry.netlist, reference.netlist);
    }

    #[test]
    fn deserialize_rejects_garbage() {
        assert!(CoverCache::deserialize("nonsense").is_err());
        assert!(CoverCache::deserialize("VASE-COVER-CACHE v1\ne zz").is_err());
        assert!(
            CoverCache::deserialize("VASE-COVER-CACHE v1\ne 0 0 1 1\n").is_err(),
            "truncated component list"
        );
        assert!(CoverCache::deserialize("VASE-COVER-CACHE v1").expect("empty ok").is_empty());
    }

    #[test]
    fn kind_codec_round_trips_every_variant() {
        let kinds = vec![
            ComponentKind::InvertingAmp { gain: -2.5 },
            ComponentKind::NonInvertingAmp { gain: 3.0 },
            ComponentKind::Follower,
            ComponentKind::AmplifierChain { stage_gains: vec![10.0, 20.0] },
            ComponentKind::SummingAmp { weights: vec![1.0, 1.5] },
            ComponentKind::DifferenceAmp { gain: 1.0 },
            ComponentKind::SwitchedGainAmp { gains: vec![1.0, 2.0] },
            ComponentKind::Integrator { weights: vec![0.25], initial: -1.0 },
            ComponentKind::Differentiator { gain: 0.5 },
            ComponentKind::LogAmp,
            ComponentKind::AntilogAmp,
            ComponentKind::Multiplier,
            ComponentKind::Divider,
            ComponentKind::PrecisionRectifier,
            ComponentKind::Comparator { threshold: 0.1 },
            ComponentKind::ZeroCrossDetector { level: 0.0, hysteresis: 0.05 },
            ComponentKind::SchmittTrigger { low: -1.0, high: 1.0 },
            ComponentKind::SampleHold,
            ComponentKind::AnalogSwitch,
            ComponentKind::AnalogMux { inputs: 4 },
            ComponentKind::Adc { bits: 8 },
            ComponentKind::LogicGate,
            ComponentKind::MemoryCell,
            ComponentKind::VoltageRef { level: 2.5 },
            ComponentKind::Limiter { level: 1.5 },
            ComponentKind::OutputStage { load_ohms: 270.0, peak_volts: 0.285, limit: Some(1.5) },
            ComponentKind::OutputStage { load_ohms: 75.0, peak_volts: 1.0, limit: None },
        ];
        for kind in kinds {
            let mut line = String::new();
            write_kind(&mut line, &kind);
            let mut toks = line.split_ascii_whitespace();
            let back = read_kind(&mut toks).expect("parses");
            assert_eq!(back, kind);
            assert!(toks.next().is_none(), "unconsumed tokens for {kind:?}");
        }
    }
}
