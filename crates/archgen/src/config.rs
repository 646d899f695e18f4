//! Mapper configuration and search statistics.

use std::fmt;

use serde::{Deserialize, Serialize};
use vase_budget::Budget;
use vase_library::MatchOptions;

/// Which search algorithm explores the mapping decision tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum SearchStrategy {
    /// The paper's depth-first branch-and-bound (Fig. 5): exact, with
    /// the largest-cover-first sequencing rule and the
    /// `opamps · MinArea` bounding rule.
    #[default]
    Exact,
    /// Model-guided best-first search: candidates are expanded in order
    /// of an estimator-derived score (placed-component area plus a
    /// remaining-coverage heuristic) and pruned against the incumbent
    /// with the *admissible* placed-area lower bound — a much tighter
    /// bound than `opamps · MinArea`. Run to completion it returns the
    /// same optimal netlist as [`SearchStrategy::Exact`]
    /// (property-tested bit-identical); under a limited
    /// [`Budget`] it is anytime exactly like the exact search. The
    /// guided search is sequential — `parallelism` is ignored.
    Guided,
}

/// Configuration of the architecture generator. The boolean switches
/// correspond to the algorithm ingredients of paper Section 5 and feed
/// the ablation benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MapperConfig {
    /// Pattern families available to the branching rule.
    pub match_options: MatchOptions,
    /// Enable the bounding rule (`(opamps + comp) · MinArea <
    /// current_best`).
    pub bounding: bool,
    /// Enable the sequencing rule (visit larger-cover alternatives
    /// first; sharing before allocation). Disabled, alternatives are
    /// visited smallest-first.
    pub sequencing: bool,
    /// Enable hardware sharing between blocks in different signal paths.
    pub sharing: bool,
    /// Interfacing transformation: insert a follower when a component
    /// output drives more than this many consumers.
    pub fanout_limit: usize,
    /// Safety cap on visited decision-tree nodes; the search returns
    /// the best solution found so far when exceeded. Shared across all
    /// workers in a parallel run.
    pub node_limit: u64,
    /// Dominance memoization (an extension beyond the paper): prune a
    /// partial mapping whose covered-block set was already reached with
    /// no more op amps. Collapses the exponential revisiting the paper
    /// identifies as the algorithm's scaling limit, while preserving
    /// the optimum on every workload we test.
    pub memoize: bool,
    /// Worker threads for the branch-and-bound search: `0` auto-detects
    /// from the host's available cores, `1` (the default) runs the
    /// sequential search, `n > 1` expands the top of the decision tree
    /// into about four subtree tasks per worker, executed by `n` scoped
    /// threads around a shared incumbent bound. The parallel search
    /// returns the same optimal area as the sequential one
    /// (property-tested). The guided strategy ignores it.
    #[serde(default = "default_parallelism")]
    pub parallelism: usize,
    /// Caller-facing compute budget (wall-clock deadline and/or node
    /// cap) on top of the `node_limit` safety cap. When any limit here
    /// is set the search runs in *anytime* mode: a greedy mapping seeds
    /// the incumbent up front, and budget exhaustion returns the best
    /// plan found so far flagged [`MapStats::budget_exhausted`].
    #[serde(default)]
    pub budget: Budget,
    /// Which algorithm explores the decision tree (exact depth-first
    /// branch-and-bound by default; model-guided best-first with
    /// [`SearchStrategy::Guided`]).
    #[serde(default)]
    pub strategy: SearchStrategy,
    /// Use the proven value bounds the `vase-analyze` fixed point
    /// attaches to the design to prune dominated candidates: at a block
    /// whose output range is proven, an alternative sized for more
    /// swing headroom than the proof allows is skipped when another
    /// alternative with the same cover and inputs meets the spec at
    /// the proven swing with no more area or op amps. Off by default —
    /// mapping results with this disabled are bit-identical whether or
    /// not bounds are attached.
    #[serde(default)]
    pub range_prune: bool,
}

fn default_parallelism() -> usize {
    1
}

impl Default for MapperConfig {
    fn default() -> Self {
        MapperConfig {
            match_options: MatchOptions::default(),
            bounding: true,
            sequencing: true,
            sharing: true,
            fanout_limit: 3,
            node_limit: 2_000_000,
            memoize: true,
            parallelism: default_parallelism(),
            budget: Budget::unlimited(),
            strategy: SearchStrategy::default(),
            range_prune: false,
        }
    }
}

impl MapperConfig {
    /// A truly exhaustive configuration — no bounding rule *and* no
    /// dominance memoization, so every decision-tree node is visited.
    /// This is the baseline the bounding-rule ablation compares
    /// against; it is exponentially slow beyond small graphs.
    pub fn exhaustive() -> Self {
        MapperConfig {
            bounding: false,
            memoize: false,
            ..MapperConfig::default()
        }
    }

    /// No bounding rule but dominance memoization kept on — the
    /// tractable stand-in for [`MapperConfig::exhaustive`] on larger
    /// graphs (memoization alone keeps the tree polynomial-ish while
    /// still exploring every non-dominated alternative).
    pub fn exhaustive_memoized() -> Self {
        MapperConfig {
            bounding: false,
            ..MapperConfig::default()
        }
    }

    /// The default configuration with auto-detected parallelism: one
    /// worker per available core.
    pub fn parallel() -> Self {
        MapperConfig {
            parallelism: 0,
            ..MapperConfig::default()
        }
    }

    /// The default configuration with the model-guided best-first
    /// search strategy.
    pub fn guided() -> Self {
        MapperConfig {
            strategy: SearchStrategy::Guided,
            ..MapperConfig::default()
        }
    }

    /// The number of worker threads this configuration resolves to:
    /// `parallelism`, or the host's available core count when it is
    /// `0` (auto).
    pub fn effective_parallelism(&self) -> usize {
        match self.parallelism {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// The budget a search meter actually enforces: the caller-facing
    /// [`budget`](MapperConfig::budget) with the `node_limit` safety
    /// cap folded into its node cap (whichever is smaller wins).
    pub fn effective_budget(&self) -> Budget {
        Budget {
            deadline_ms: self.budget.deadline_ms,
            max_nodes: Some(match self.budget.max_nodes {
                Some(n) => n.min(self.node_limit),
                None => self.node_limit,
            }),
        }
    }
}

/// Statistics of one mapping run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MapStats {
    /// Decision-tree nodes visited.
    pub visited_nodes: u64,
    /// Nodes pruned by the bounding rule (or by component-level
    /// infeasibility).
    pub pruned_nodes: u64,
    /// Nodes pruned by dominance memoization.
    pub memo_pruned: u64,
    /// Complete mappings reached (leaves of the decision tree).
    pub complete_mappings: u64,
    /// Complete mappings rejected as constraint-infeasible.
    pub infeasible_mappings: u64,
    /// Wall-clock search time in microseconds.
    #[serde(default)]
    pub elapsed_us: u64,
    /// Whether the search stopped on a compute budget (deadline, node
    /// cap, or cancellation) rather than proving its result optimal.
    /// When set, the returned mapping is the best *incumbent* — still
    /// verifier-clean and constraint-feasible, but possibly not the
    /// minimum-area architecture.
    #[serde(default)]
    pub budget_exhausted: bool,
    /// Graphs answered from the content-addressed cover cache without
    /// any search (one per cached graph in the design).
    #[serde(default)]
    pub cache_hits: u64,
    /// Graphs that consulted a cover cache and had to search (their
    /// results were recorded for future reuse).
    #[serde(default)]
    pub cache_misses: u64,
    /// Allocation branches skipped because a proven value bound showed
    /// the candidate dominated at the proven swing (only under
    /// [`MapperConfig::range_prune`]).
    #[serde(default)]
    pub range_pruned: u64,
}

impl MapStats {
    /// Accumulate `other` into `self` (summing every counter,
    /// including elapsed time — callers tracking wall clock across
    /// concurrent runs should overwrite `elapsed_us` afterwards).
    pub fn merge(&mut self, other: &MapStats) {
        self.visited_nodes += other.visited_nodes;
        self.pruned_nodes += other.pruned_nodes;
        self.memo_pruned += other.memo_pruned;
        self.complete_mappings += other.complete_mappings;
        self.infeasible_mappings += other.infeasible_mappings;
        self.elapsed_us += other.elapsed_us;
        self.budget_exhausted |= other.budget_exhausted;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.range_pruned += other.range_pruned;
    }

    /// Decision-tree nodes explored, the quantity compute budgets
    /// meter (an alias for [`visited_nodes`](MapStats::visited_nodes)).
    pub fn nodes_explored(&self) -> u64 {
        self.visited_nodes
    }

    /// Search throughput: visited decision-tree nodes per second of
    /// wall-clock search time (`0.0` when no time was recorded).
    pub fn visits_per_second(&self) -> f64 {
        if self.elapsed_us == 0 {
            0.0
        } else {
            self.visited_nodes as f64 * 1e6 / self.elapsed_us as f64
        }
    }
}

impl fmt::Display for MapStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "visited {} nodes ({} bound-pruned, {} memo-pruned), \
             {} complete mappings ({} infeasible) in {}",
            self.visited_nodes,
            self.pruned_nodes,
            self.memo_pruned,
            self.complete_mappings,
            self.infeasible_mappings,
            format_duration_us(self.elapsed_us),
        )?;
        if self.budget_exhausted {
            write!(f, " [budget exhausted]")?;
        }
        if self.cache_hits > 0 {
            write!(f, " [{} cover-cache hit(s)]", self.cache_hits)?;
        }
        if self.range_pruned > 0 {
            write!(f, " [{} range-pruned]", self.range_pruned)?;
        }
        Ok(())
    }
}

fn format_duration_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2} s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2} ms", us as f64 / 1e3)
    } else {
        format!("{us} µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_everything_sequentially() {
        let c = MapperConfig::default();
        assert!(c.bounding && c.sequencing && c.sharing && c.memoize);
        assert!(c.match_options.multi_block && c.match_options.transforms);
        assert_eq!(c.parallelism, 1);
        assert_eq!(c.strategy, SearchStrategy::Exact);
    }

    #[test]
    fn guided_config_switches_strategy_only() {
        let c = MapperConfig::guided();
        assert_eq!(c.strategy, SearchStrategy::Guided);
        assert_eq!(
            MapperConfig { strategy: SearchStrategy::Exact, ..c },
            MapperConfig::default()
        );
    }

    #[test]
    fn stats_merge_sums_cache_counters() {
        let mut a = MapStats { cache_hits: 1, cache_misses: 2, ..MapStats::default() };
        let b = MapStats { cache_hits: 3, cache_misses: 1, ..MapStats::default() };
        a.merge(&b);
        assert_eq!(a.cache_hits, 4);
        assert_eq!(a.cache_misses, 3);
        assert!(a.to_string().contains("4 cover-cache hit(s)"));
        assert!(!MapStats::default().to_string().contains("cover-cache"));
    }

    #[test]
    fn range_prune_is_off_by_default() {
        // Bit-identity with the historical mapper depends on this
        // default staying false.
        assert!(!MapperConfig::default().range_prune);
        assert!(!MapperConfig::guided().range_prune);
        assert!(!MapperConfig::parallel().range_prune);
        let mut a = MapStats { range_pruned: 2, ..MapStats::default() };
        let b = MapStats { range_pruned: 3, ..MapStats::default() };
        a.merge(&b);
        assert_eq!(a.range_pruned, 5);
        assert!(a.to_string().contains("[5 range-pruned]"));
        assert!(!MapStats::default().to_string().contains("range-pruned"));
    }

    #[test]
    fn exhaustive_disables_bounding_and_memoization() {
        let c = MapperConfig::exhaustive();
        assert!(!c.bounding);
        assert!(!c.memoize, "a memoized search is not exhaustive");
        assert!(c.sequencing && c.sharing);
    }

    #[test]
    fn exhaustive_memoized_keeps_memoization() {
        let c = MapperConfig::exhaustive_memoized();
        assert!(!c.bounding);
        assert!(c.memoize);
    }

    #[test]
    fn effective_parallelism_resolves_auto() {
        assert!(MapperConfig::parallel().effective_parallelism() >= 1);
        let c = MapperConfig {
            parallelism: 3,
            ..MapperConfig::default()
        };
        assert_eq!(c.effective_parallelism(), 3);
        assert_eq!(MapperConfig::default().effective_parallelism(), 1);
    }

    #[test]
    fn stats_merge_sums_counters() {
        let mut a = MapStats {
            visited_nodes: 10,
            pruned_nodes: 2,
            memo_pruned: 1,
            complete_mappings: 3,
            infeasible_mappings: 1,
            elapsed_us: 500,
            ..MapStats::default()
        };
        let b = MapStats {
            visited_nodes: 5,
            elapsed_us: 250,
            ..MapStats::default()
        };
        a.merge(&b);
        assert_eq!(a.visited_nodes, 15);
        assert_eq!(a.elapsed_us, 750);
        assert_eq!(a.pruned_nodes, 2);
    }

    #[test]
    fn stats_display_summarizes_cost() {
        let s = MapStats {
            visited_nodes: 1234,
            pruned_nodes: 56,
            memo_pruned: 7,
            complete_mappings: 8,
            infeasible_mappings: 1,
            elapsed_us: 4200,
            ..MapStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("1234"), "{text}");
        assert!(text.contains("56 bound-pruned"), "{text}");
        assert!(text.contains("7 memo-pruned"), "{text}");
        assert!(text.contains("4.20 ms"), "{text}");
    }

    #[test]
    fn effective_budget_folds_node_limit() {
        let c = MapperConfig::default();
        assert_eq!(c.effective_budget().max_nodes, Some(c.node_limit));
        assert_eq!(c.effective_budget().deadline_ms, None);
        let tight = MapperConfig {
            budget: Budget::nodes(10),
            ..MapperConfig::default()
        };
        assert_eq!(tight.effective_budget().max_nodes, Some(10));
        let loose = MapperConfig {
            budget: Budget {
                deadline_ms: Some(5),
                max_nodes: Some(u64::MAX),
            },
            ..MapperConfig::default()
        };
        // The safety cap still wins over a looser caller budget.
        assert_eq!(loose.effective_budget().max_nodes, Some(loose.node_limit));
        assert_eq!(loose.effective_budget().deadline_ms, Some(5));
    }

    #[test]
    fn budget_exhausted_merges_and_displays() {
        let mut a = MapStats::default();
        assert!(!a.to_string().contains("budget exhausted"));
        let b = MapStats {
            budget_exhausted: true,
            ..MapStats::default()
        };
        a.merge(&b);
        assert!(a.budget_exhausted);
        assert!(a.to_string().contains("[budget exhausted]"));
        assert_eq!(a.nodes_explored(), a.visited_nodes);
    }

    #[test]
    fn visits_per_second_handles_zero_time() {
        assert_eq!(MapStats::default().visits_per_second(), 0.0);
        let s = MapStats {
            visited_nodes: 1_000,
            elapsed_us: 500_000,
            ..MapStats::default()
        };
        assert!((s.visits_per_second() - 2_000.0).abs() < 1e-9);
    }
}
