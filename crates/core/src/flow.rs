//! The end-to-end synthesis flow: VASS source → parsed + analyzed AST
//! → VHIF → op-amp netlist (paper Fig. 1, the shadowed boxes).

use std::collections::BTreeMap;
use std::error::Error as StdError;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use vase_archgen::{
    synthesize_with_cache, CoverCache, MapError, MapStats, MapperConfig, SynthesisResult,
};
use vase_budget::CancelToken;
use vase_compiler::{compile, CompileError, VassStats};
use vase_diag::{Code, Diagnostic};
use vase_estimate::{Estimator, PerformanceConstraints};
use vase_frontend::{analyze, parse_design_file, FrontendError};
use vase_sim::{
    monte_carlo_netlist, simulate_netlist_with_cancel, CompiledNetlist, FaultKind,
    MonteCarloConfig, SimConfig, SimError, SimResult, Stimulus, SweepConfig, YieldReport,
};
use vase_vhif::{PassManager, PassStats, VhifDesign};

/// Options for the full flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowOptions {
    /// Architecture-generator configuration.
    pub mapper: MapperConfig,
    /// Performance constraints driving the estimator (baseline when
    /// derivation is enabled).
    pub constraints: PerformanceConstraints,
    /// Derive bandwidth/peak constraints from the specification's own
    /// `frequency`/`range` annotations (the constraint-transformation
    /// idea of the paper's companion tools \[17\]): the widest
    /// annotated frequency band and the largest annotated value range
    /// override the baseline.
    pub derive_constraints: bool,
    /// Run the VHIF verifier pass between compilation and mapping;
    /// verifier *errors* abort the flow with [`FlowError::Verify`].
    pub verify: bool,
    /// Treat verifier warnings as errors (`vase lint --deny warnings`).
    pub deny_warnings: bool,
    /// Optimization level for the VHIF pass pipeline run between
    /// compilation and verification/mapping: `0` = none; every level
    /// above runs constant folding, then dead-block elimination.
    pub opt_level: u8,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            mapper: MapperConfig::default(),
            constraints: PerformanceConstraints::default(),
            derive_constraints: true,
            verify: true,
            deny_warnings: false,
            opt_level: 0,
        }
    }
}

/// Derive performance constraints for one analyzed architecture from
/// its VASS annotations, starting from `baseline`: the maximum
/// annotated frequency becomes the bandwidth, the largest annotated
/// value magnitude becomes the signal peak.
pub fn derive_constraints(
    arch: &vase_frontend::sema::AnalyzedArchitecture,
    baseline: PerformanceConstraints,
) -> PerformanceConstraints {
    let mut constraints = baseline;
    for sym in arch.symbols.iter() {
        let set = vase_frontend::AnnotationSet::new(&sym.annotations);
        if let Some((_, hi)) = set.frequency_range() {
            constraints.bandwidth_hz = constraints.bandwidth_hz.max(hi);
        }
        if let Some((lo, hi)) = set.value_range() {
            constraints.signal_peak_v = constraints.signal_peak_v.max(lo.abs()).max(hi.abs());
        }
    }
    constraints
}

/// Extract every `'range lo to hi` annotation of an analyzed
/// architecture as `name -> (lo, hi)` — the acceptance envelope that
/// Monte Carlo yield analysis scores traces against. Degenerate ranges
/// (`lo > hi`, already flagged as `A202` by the linter) are skipped.
pub fn value_ranges(
    arch: &vase_frontend::sema::AnalyzedArchitecture,
) -> BTreeMap<String, (f64, f64)> {
    let mut ranges = BTreeMap::new();
    for sym in arch.symbols.iter() {
        let set = vase_frontend::AnnotationSet::new(&sym.annotations);
        if let Some((lo, hi)) = set.value_range() {
            if lo <= hi {
                ranges.insert(sym.name.clone(), (lo, hi));
            }
        }
    }
    ranges
}

/// Everything produced for one architecture by the full flow.
#[derive(Debug, Clone)]
pub struct SynthesizedDesign {
    /// The entity name.
    pub entity: String,
    /// VASS source statistics (Table 1 columns 2–5).
    pub vass_stats: VassStats,
    /// The VHIF intermediate representation.
    pub vhif: VhifDesign,
    /// Per-equation DAE solver alternative counts.
    pub dae_alternatives: Vec<(String, usize)>,
    /// Per-pass statistics of the optimization pipeline (empty at
    /// `opt_level` 0).
    pub opt_stats: Vec<PassStats>,
    /// The mapped netlist with estimate and search statistics.
    pub synthesis: SynthesisResult,
    /// Declared `'range` envelopes (`name -> (lo, hi)`) harvested from
    /// the specification — the pass/fail criteria of tolerance
    /// analysis.
    pub value_ranges: BTreeMap<String, (f64, f64)>,
}

/// An error from any stage of the flow.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// Lexing, parsing, or semantic analysis failed.
    Frontend(FrontendError),
    /// VASS→VHIF translation failed.
    Compile(CompileError),
    /// The VHIF verifier rejected the compiled design; mapping was not
    /// attempted. Carries every diagnostic the pass produced (warnings
    /// included), already sorted for reporting.
    Verify(Vec<Diagnostic>),
    /// Architecture synthesis failed.
    Map(MapError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Frontend(e) => write!(f, "frontend: {e}"),
            FlowError::Compile(e) => write!(f, "compile: {e}"),
            FlowError::Verify(diags) => {
                write!(f, "verify: design rejected ({})", vase_diag::summary(diags))?;
                if let Some(first) = diags.iter().find(|d| d.is_error()) {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            FlowError::Map(e) => write!(f, "map: {e}"),
        }
    }
}

impl StdError for FlowError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            FlowError::Frontend(e) => Some(e),
            FlowError::Compile(e) => Some(e),
            FlowError::Verify(_) => None,
            FlowError::Map(e) => Some(e),
        }
    }
}

impl From<FrontendError> for FlowError {
    fn from(e: FrontendError) -> Self {
        FlowError::Frontend(e)
    }
}

impl From<CompileError> for FlowError {
    fn from(e: CompileError) -> Self {
        FlowError::Compile(e)
    }
}

impl From<MapError> for FlowError {
    fn from(e: MapError) -> Self {
        FlowError::Map(e)
    }
}

/// Run the complete behavioral-synthesis flow on a VASS source file:
/// one [`SynthesizedDesign`] per architecture.
///
/// # Errors
///
/// Returns the first stage error ([`FlowError`]).
///
/// # Examples
///
/// ```
/// use vase::flow::{synthesize_source, FlowOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let designs = synthesize_source(
///     vase::benchmarks::RECEIVER.source,
///     &FlowOptions::default(),
/// )?;
/// assert_eq!(designs.len(), 1);
/// assert!(designs[0].synthesis.netlist.opamp_count() >= 3);
/// # Ok(())
/// # }
/// ```
pub fn synthesize_source(
    source: &str,
    options: &FlowOptions,
) -> Result<Vec<SynthesizedDesign>, FlowError> {
    synthesize_source_instrumented(source, options, None, None, &mut PhaseTimings::default())
}

/// The fully-instrumented flow core behind [`synthesize_source`] and
/// [`synthesize_unit`]: an optional content-addressed [`CoverCache`]
/// consulted (and updated) during mapping, a cooperative
/// [`CancelToken`] threaded into the long-running stages (the analyze
/// worklist and the branch-and-bound mapper), and per-phase wall-clock
/// accounting written into `timings` as each phase completes — so a
/// panicking or cancelled run still reports the time its finished
/// phases took.
fn synthesize_source_instrumented(
    source: &str,
    options: &FlowOptions,
    cache: Option<&CoverCache>,
    token: Option<&CancelToken>,
    timings: &mut PhaseTimings,
) -> Result<Vec<SynthesizedDesign>, FlowError> {
    let t0 = Instant::now();
    let design = parse_design_file(source).map_err(FrontendError::from)?;
    let analyzed = analyze(&design)?;
    let compiled = compile(&analyzed)?;
    timings.parse_ms += t0.elapsed().as_secs_f64() * 1e3;
    let mut out = Vec::new();
    for mut arch in compiled.designs {
        // Optimization passes run between compilation and verification,
        // so the verifier re-checks the *optimized* design before it is
        // handed to the mapper.
        let t0 = Instant::now();
        let opt_stats = PassManager::for_opt_level(options.opt_level).run(&mut arch.vhif);
        timings.opt_ms += t0.elapsed().as_secs_f64() * 1e3;
        if options.verify {
            let t0 = Instant::now();
            let ctx = analyzed
                .architecture_of(&arch.entity)
                .map(crate::lint::verify_context)
                .unwrap_or_default();
            let mut diags = vase_vhif::verify::verify_design(&arch.vhif, &ctx);
            // The fixed-point range analysis runs on the *optimized*
            // design, alongside the structural verifier: its proven
            // verdicts gate mapping the same way, and its proven
            // bounds ride on the design so the mapper can prune
            // dominated candidates (when `mapper.range_prune` is on).
            diags.extend(
                vase_analyze::annotate_design_bounds_with_cancel(&mut arch.vhif, token)
                    .diagnostics,
            );
            vase_diag::sort(&mut diags);
            if options.deny_warnings {
                vase_diag::deny_warnings(&mut diags);
            }
            timings.verify_ms += t0.elapsed().as_secs_f64() * 1e3;
            if vase_diag::has_errors(&diags) {
                return Err(FlowError::Verify(diags));
            }
        }
        let constraints = if options.derive_constraints {
            analyzed
                .architecture_of(&arch.entity)
                .map(|a| derive_constraints(a, options.constraints))
                .unwrap_or(options.constraints)
        } else {
            options.constraints
        };
        let estimator = Estimator::new(constraints);
        let t0 = Instant::now();
        let synthesis =
            synthesize_with_cache(&arch.vhif, &estimator, &options.mapper, token.cloned(), cache)?;
        timings.synth_ms += t0.elapsed().as_secs_f64() * 1e3;
        let ranges =
            analyzed.architecture_of(&arch.entity).map(value_ranges).unwrap_or_default();
        out.push(SynthesizedDesign {
            entity: arch.entity,
            vass_stats: arch.vass_stats,
            vhif: arch.vhif,
            dae_alternatives: arch.dae_alternatives,
            opt_stats,
            synthesis,
            value_ranges: ranges,
        });
    }
    Ok(out)
}

/// The kind of failure a batch unit ended with.
#[derive(Debug, Clone)]
pub enum BatchError {
    /// A flow stage returned a structured error.
    Flow(FlowError),
    /// The flow panicked; the panic was caught and the rest of the
    /// batch continued. Carries the panic payload's message.
    Panic(String),
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Flow(e) => write!(f, "{e}"),
            BatchError::Panic(message) => write!(f, "panicked: {message}"),
        }
    }
}

/// Coarse status of one batch unit, for report rendering and exit
/// codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowStatus {
    /// Flow completed and every mapping ran to proven optimality.
    Ok,
    /// Flow completed but at least one mapping returned a
    /// budget-exhausted incumbent (diagnostic `A210`).
    BudgetExhausted,
    /// A flow stage failed with a structured [`FlowError`].
    Error,
    /// The flow panicked (caught; the batch continued).
    Panicked,
}

impl fmt::Display for FlowStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FlowStatus::Ok => "ok",
            FlowStatus::BudgetExhausted => "budget-exhausted",
            FlowStatus::Error => "error",
            FlowStatus::Panicked => "panicked",
        })
    }
}

/// Per-phase wall-clock accounting for one flow unit — the service's
/// per-request observability hook. Each field is the cumulative time
/// spent in that phase, in milliseconds; phases that did not run stay
/// at zero. Times recorded before a panic or error survive in the
/// unit's [`FlowReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Parsing, semantic analysis, and VASS→VHIF lowering.
    pub parse_ms: f64,
    /// The VHIF optimization pass pipeline (zero at `opt_level` 0).
    pub opt_ms: f64,
    /// The structural verifier plus the fixed-point range analysis.
    pub verify_ms: f64,
    /// Architecture mapping (branch-and-bound or cache replay).
    pub synth_ms: f64,
    /// Transient simulation, when the unit ran one.
    pub sim_ms: f64,
    /// End-to-end wall clock for the unit, including bookkeeping
    /// between phases.
    pub total_ms: f64,
}

impl fmt::Display for PhaseTimings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse {:.1}ms, opt {:.1}ms, verify {:.1}ms, synth {:.1}ms, sim {:.1}ms, \
             total {:.1}ms",
            self.parse_ms, self.opt_ms, self.verify_ms, self.synth_ms, self.sim_ms, self.total_ms
        )
    }
}

/// The structured outcome of one panic-isolated flow unit
/// ([`synthesize_unit`]).
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// The unit's name (typically the source file path).
    pub name: String,
    /// The synthesized designs; empty when the unit failed.
    pub designs: Vec<SynthesizedDesign>,
    /// Diagnostics accumulated for the unit: `A210` budget warnings,
    /// `O3xx` optimization notes, and the verifier's findings when it
    /// rejected the design.
    pub diagnostics: Vec<Diagnostic>,
    /// The failure that stopped the unit, if any.
    pub error: Option<BatchError>,
    /// Wall-clock per-phase timings (phases completed before a failure
    /// keep their recorded time).
    pub timings: PhaseTimings,
}

impl FlowReport {
    /// The unit's coarse status.
    pub fn status(&self) -> FlowStatus {
        match &self.error {
            Some(BatchError::Panic(_)) => FlowStatus::Panicked,
            Some(BatchError::Flow(_)) => FlowStatus::Error,
            None if self.budget_exhausted() => FlowStatus::BudgetExhausted,
            None => FlowStatus::Ok,
        }
    }

    /// Whether any of the unit's mappings stopped on its compute
    /// budget.
    pub fn budget_exhausted(&self) -> bool {
        self.designs.iter().any(|d| d.synthesis.stats.budget_exhausted)
    }
}

/// Run the full flow on one `(name, source)` unit under `catch_unwind`
/// — the flow layer's full entry point ([`synthesize_source`] is the
/// plain one) and the panic-isolated, cancellable job body shared by
/// the CLI batch and the `vase serve` worker pool. A failing or even
/// panicking unit produces a [`FlowReport`] instead of unwinding into
/// the caller (a panic reports [`FlowStatus::Panicked`]); a cancelled
/// one keeps whatever its finished phases produced. The report carries
/// per-phase wall-clock timings either way.
///
/// With a [`CoverCache`], structurally repeated signal-flow graphs —
/// across architectures, across units, or across runs when the cache
/// is persisted — map in O(lookup); cache traffic surfaces as
/// `A211`/`A212` notes (see [`cache_diagnostics`]).
pub fn synthesize_unit(
    name: &str,
    source: &str,
    options: &FlowOptions,
    cache: Option<&CoverCache>,
    token: Option<&CancelToken>,
) -> FlowReport {
    let started = Instant::now();
    let mut timings = PhaseTimings::default();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        synthesize_source_instrumented(source, options, cache, token, &mut timings)
    }));
    timings.total_ms = started.elapsed().as_secs_f64() * 1e3;
    match outcome {
        Ok(Ok(designs)) => {
            let mut diagnostics = Vec::new();
            for d in &designs {
                diagnostics.extend(opt_diagnostics(&d.opt_stats));
                diagnostics.extend(budget_diagnostics(&d.synthesis.stats));
                diagnostics.extend(cache_diagnostics(&d.synthesis.stats));
            }
            FlowReport {
                name: name.to_owned(),
                designs,
                diagnostics,
                error: None,
                timings,
            }
        }
        Ok(Err(e)) => {
            let diagnostics = match &e {
                FlowError::Verify(diags) => diags.clone(),
                _ => Vec::new(),
            };
            FlowReport {
                name: name.to_owned(),
                designs: Vec::new(),
                diagnostics,
                error: Some(BatchError::Flow(e)),
                timings,
            }
        }
        Err(payload) => FlowReport {
            name: name.to_owned(),
            designs: Vec::new(),
            diagnostics: Vec::new(),
            error: Some(BatchError::Panic(panic_message(payload))),
            timings,
        },
    }
}

/// Best-effort text out of a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Render a budget-exhausted mapping as the `A210` warning: the
/// returned architecture is the best *incumbent*, not proven optimal.
pub fn budget_diagnostics(stats: &MapStats) -> Vec<Diagnostic> {
    if !stats.budget_exhausted {
        return Vec::new();
    }
    vec![Diagnostic::new(
        Code::A210,
        format!(
            "mapping budget exhausted after {} explored nodes; the returned \
             architecture is the best incumbent found, not proven minimal",
            stats.nodes_explored()
        ),
    )]
}

/// Render cover-cache traffic as `A211`/`A212` notes: how many of a
/// design's graph mappings were answered from the content-addressed
/// cache and how many ran the search (and recorded their result). With
/// no cache in play both counters are zero and no diagnostic is
/// emitted.
pub fn cache_diagnostics(stats: &MapStats) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if stats.cache_hits > 0 {
        diags.push(Diagnostic::new(
            Code::A211,
            format!(
                "{} graph mapping(s) served from the cover cache (validated \
                 best-known cover; search skipped)",
                stats.cache_hits
            ),
        ));
    }
    if stats.cache_misses > 0 {
        diags.push(Diagnostic::new(
            Code::A212,
            format!(
                "{} graph mapping(s) missed the cover cache; the search ran and \
                 its cover was recorded",
                stats.cache_misses
            ),
        ));
    }
    diags
}

/// Render a simulation outcome's numerical-fault story as `S4xx`
/// diagnostics: an `S403` note when fault injection was active, an
/// `S401` warning for steps rescued by step halving, and an
/// `S400`/`S402` error when an unrecoverable fault cut the run short
/// (the result then carries the partial trace).
pub fn sim_diagnostics(config: &SimConfig, result: &SimResult) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if config.fault_injection.is_some() {
        diags.push(Diagnostic::new(
            Code::S403,
            "deterministic fault injection is active; traces include injected faults"
                .to_owned(),
        ));
    }
    if result.recovered_steps > 0 {
        diags.push(Diagnostic::new(
            Code::S401,
            format!(
                "{} step(s) tripped the numerical fault detector and recovered \
                 by step halving",
                result.recovered_steps
            ),
        ));
    }
    if let Some(fault) = &result.fault {
        let code = match fault.kind {
            FaultKind::NonFinite => Code::S400,
            FaultKind::Divergence => Code::S402,
        };
        diags.push(Diagnostic::new(
            code,
            format!(
                "simulation aborted: {fault}; the partial trace holds {} sample(s)",
                result.time.len()
            ),
        ));
    }
    diags
}

/// Render optimization-pass statistics as `O3xx` informational
/// diagnostics: one note per pass that changed the design, plus an
/// `O300` summary when any pass ran.
pub fn opt_diagnostics(stats: &[PassStats]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for s in stats {
        if !s.changed() {
            continue;
        }
        let code = match s.name {
            "const-fold" => Code::O301,
            "dce" => Code::O303,
            _ => Code::O300,
        };
        diags.push(Diagnostic::new(code, s.to_string()));
    }
    if !stats.is_empty() {
        let before: usize = stats.first().map(|s| s.blocks_before).unwrap_or(0);
        let after: usize = stats.last().map(|s| s.blocks_after).unwrap_or(before);
        diags.push(Diagnostic::new(
            Code::O300,
            format!(
                "optimization pipeline ran {} passes: {} -> {} blocks",
                stats.len(),
                before,
                after
            ),
        ));
    }
    diags
}

/// Compile a VASS source to VHIF only (no mapping) — the
/// paper's "VHDL-AMS compiler" half of the flow.
///
/// # Errors
///
/// Returns frontend and compilation errors.
pub fn compile_source(source: &str) -> Result<Vec<(String, VhifDesign, VassStats)>, FlowError> {
    let design = parse_design_file(source).map_err(FrontendError::from)?;
    let analyzed = analyze(&design)?;
    let compiled = compile(&analyzed)?;
    Ok(compiled
        .designs
        .into_iter()
        .map(|d| (d.entity, d.vhif, d.vass_stats))
        .collect())
}

/// Transient-simulate every synthesized design's netlist against the
/// same stimuli, one [`SimResult`] per design, in design order.
///
/// With `sweep.jobs > 1` the designs are claimed from a shared counter
/// by scoped worker threads; each simulation is deterministic, and the
/// merge is by design index, so the output — including which error is
/// reported on failure (the one at the lowest index) — does not depend
/// on the worker count.
///
/// # Errors
///
/// The first per-design simulation error, in design order.
pub fn simulate_designs(
    designs: &[SynthesizedDesign],
    stimuli: &BTreeMap<String, Stimulus>,
    config: &SimConfig,
    sweep: &SweepConfig,
) -> Result<Vec<SimResult>, SimError> {
    simulate_designs_reported(designs, stimuli, config, sweep).into_iter().collect()
}

/// Panic-isolated batch variant of [`simulate_designs`]: one outcome
/// per design, in design order, continuing past failures. Each
/// per-design simulation runs under `catch_unwind`, so a panicking
/// design yields [`SimError::Panicked`] for its slot — it neither
/// kills a worker thread nor aborts the rest of the batch.
pub fn simulate_designs_reported(
    designs: &[SynthesizedDesign],
    stimuli: &BTreeMap<String, Stimulus>,
    config: &SimConfig,
    sweep: &SweepConfig,
) -> Vec<Result<SimResult, SimError>> {
    simulate_designs_reported_with_cancel(designs, stimuli, config, sweep, None)
}

/// [`simulate_designs_reported`] with a cooperative cancellation token
/// threaded into every per-design stepping loop. A tripped token stops
/// each simulation within one [`vase_budget::CHECK_STRIDE`] of steps
/// and its partial [`SimResult`] comes back flagged `cancelled`. A
/// `None` token is bit-identical to [`simulate_designs_reported`].
pub fn simulate_designs_reported_with_cancel(
    designs: &[SynthesizedDesign],
    stimuli: &BTreeMap<String, Stimulus>,
    config: &SimConfig,
    sweep: &SweepConfig,
    token: Option<&CancelToken>,
) -> Vec<Result<SimResult, SimError>> {
    let simulate = |d: &SynthesizedDesign| {
        catch_unwind(AssertUnwindSafe(|| {
            simulate_netlist_with_cancel(
                &d.synthesis.netlist,
                stimuli,
                &d.synthesis.control_bindings,
                config,
                token,
            )
        }))
        .unwrap_or_else(|payload| Err(SimError::Panicked { message: panic_message(payload) }))
    };
    let jobs = sweep.effective_jobs().min(designs.len().max(1));
    if jobs <= 1 {
        return designs.iter().map(simulate).collect();
    }
    let next = AtomicUsize::new(0);
    let mut simulated = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(d) = designs.get(i) else { break };
                        out.push((i, simulate(d)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("simulation worker panicked"))
            .collect::<Vec<_>>()
    });
    simulated.sort_unstable_by_key(|(i, _)| *i);
    simulated.into_iter().map(|(_, r)| r).collect()
}

/// Monte Carlo tolerance/yield analysis of every synthesized design:
/// each design's netlist is simulated `mc.samples` times through lane
/// batches with every gain-setting component perturbed by the
/// configured tolerance, and each run is scored against the design's
/// own `'range` annotations ([`SynthesizedDesign::value_ranges`]).
/// One [`YieldReport`] per design, in design order.
///
/// # Errors
///
/// A per-design [`SimError`] when the netlist fails to compile against
/// the stimuli; a panicking sample yields [`SimError::Panicked`] for
/// its design without aborting the rest of the batch.
pub fn monte_carlo_designs(
    designs: &[SynthesizedDesign],
    stimuli: &BTreeMap<String, Stimulus>,
    config: &SimConfig,
    mc: &MonteCarloConfig,
) -> Vec<Result<YieldReport, SimError>> {
    designs
        .iter()
        .map(|d| {
            catch_unwind(AssertUnwindSafe(|| {
                let plan = CompiledNetlist::new(
                    &d.synthesis.netlist,
                    stimuli,
                    &d.synthesis.control_bindings,
                    config,
                )?;
                Ok(monte_carlo_netlist(&plan, &d.value_ranges, mc))
            }))
            .unwrap_or_else(|payload| {
                Err(SimError::Panicked { message: panic_message(payload) })
            })
        })
        .collect()
}

/// Render a Monte Carlo yield outcome as diagnostics: an `S404`
/// warning when any lane retired early with a fault (degraded
/// samples), and an `S403` note when a fault was injected on purpose.
pub fn yield_diagnostics(mc: &MonteCarloConfig, report: &YieldReport) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if mc.inject.is_some() {
        diags.push(Diagnostic::new(
            Code::S403,
            "deterministic lane-fault injection is active; yield counts an \
             intentionally poisoned sample"
                .to_owned(),
        ));
    }
    if report.degraded > 0 {
        diags.push(Diagnostic::new(
            Code::S404,
            format!(
                "{} of {} Monte Carlo sample(s) degraded to partial traces \
                 (unrecoverable numerical fault in their lane); the remaining \
                 lanes completed and were scored normally",
                report.degraded, report.samples
            ),
        ));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn every_benchmark_synthesizes() {
        for b in benchmarks::all() {
            let designs = synthesize_source(b.source, &FlowOptions::default())
                .unwrap_or_else(|e| panic!("{} failed: {e}", b.name));
            assert_eq!(designs.len(), 1, "{}", b.name);
            let d = &designs[0];
            assert_eq!(d.entity, b.entity);
            d.synthesis.netlist.validate().unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert!(d.synthesis.estimate.feasible(), "{} infeasible", b.name);
            assert!(d.synthesis.netlist.opamp_count() > 0, "{}", b.name);
        }
    }

    #[test]
    fn optimized_flow_synthesizes_every_benchmark() {
        for b in benchmarks::all() {
            let opts = FlowOptions { opt_level: 2, ..FlowOptions::default() };
            let designs = synthesize_source(b.source, &opts)
                .unwrap_or_else(|e| panic!("{} failed at -O2: {e}", b.name));
            let d = &designs[0];
            // The optimized design still passes netlist validation and
            // the verifier (which gated mapping above).
            d.synthesis.netlist.validate().unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert!(!d.opt_stats.is_empty(), "{}: no pass stats at -O2", b.name);
            // Optimization never grows the design.
            let before = d.opt_stats.first().expect("stats").blocks_before;
            let after = d.opt_stats.last().expect("stats").blocks_after;
            assert!(after <= before, "{}: {} -> {} blocks", b.name, before, after);
            // O3xx notes render from the stats.
            let diags = opt_diagnostics(&d.opt_stats);
            assert!(diags.iter().any(|d| d.code == Code::O300));
            assert!(diags.iter().all(|d| d.severity == vase_diag::Severity::Note));
        }
    }

    #[test]
    fn flow_error_display_covers_stages() {
        let err = synthesize_source("entity broken", &FlowOptions::default()).unwrap_err();
        assert!(matches!(err, FlowError::Frontend(_)));
        assert!(err.to_string().contains("frontend"));
        assert!(err.source().is_some());
    }

    #[test]
    fn verifier_gates_mapping_under_deny_warnings() {
        // A gain of 4 can push y outside its annotated range: a
        // verifier *warning* (A201). By default the flow still maps...
        let src = "entity hot is
                     port (quantity x : in real is voltage range -1.0 to 1.0;
                           quantity y : out real is voltage range -0.5 to 0.5);
                   end entity;
                   architecture a of hot is begin y == x * 4.0; end architecture;";
        let designs =
            synthesize_source(src, &FlowOptions::default()).expect("warnings do not gate");
        assert_eq!(designs.len(), 1);
        // ...but with --deny warnings the verifier refuses to hand the
        // design to the mapper.
        let opts = FlowOptions { deny_warnings: true, ..FlowOptions::default() };
        let err = synthesize_source(src, &opts).unwrap_err();
        let FlowError::Verify(diags) = &err else { panic!("want Verify, got {err}") };
        assert!(diags.iter().any(|d| d.code == vase_diag::Code::A201), "{diags:#?}");
        assert!(err.to_string().contains("verify"));
        // Verification off: the warning is not even computed.
        let opts =
            FlowOptions { deny_warnings: true, verify: false, ..FlowOptions::default() };
        synthesize_source(src, &opts).expect("gate disabled");
    }

    #[test]
    fn constraints_derive_from_annotations() {
        // The receiver annotates line with `frequency 300 to 3.4 khz`
        // and values up to ±1 V; the derived constraints reflect that.
        let design =
            parse_design_file(crate::benchmarks::RECEIVER.source).expect("parses");
        let analyzed = analyze(&design).expect("analyzes");
        let arch = analyzed.architecture_of("telephone").expect("arch");
        let derived = derive_constraints(arch, PerformanceConstraints::audio());
        assert!((derived.bandwidth_hz - 4000.0).abs() < 1e-9 || derived.bandwidth_hz >= 3400.0);
        assert!(derived.signal_peak_v >= 1.0);

        // Without annotations the baseline passes through.
        let design = parse_design_file(
            "entity p is port (quantity x : in real is voltage;
                               quantity y : out real is voltage); end entity;
             architecture a of p is begin y == x * 2.0; end architecture;",
        )
        .expect("parses");
        let analyzed = analyze(&design).expect("analyzes");
        let arch = analyzed.architecture_of("p").expect("arch");
        let base = PerformanceConstraints::audio();
        let derived = derive_constraints(arch, base);
        assert_eq!(derived.bandwidth_hz, base.bandwidth_hz);
    }

    #[test]
    fn simulate_designs_parallel_matches_sequential() {
        // Two designs (receiver + function generator) simulated as one
        // batch: jobs=1 and jobs=4 must agree bit-for-bit.
        let mut designs = synthesize_source(
            benchmarks::RECEIVER.source,
            &FlowOptions::default(),
        )
        .expect("receiver synthesizes");
        designs.extend(
            synthesize_source(benchmarks::FUNCTION_GENERATOR.source, &FlowOptions::default())
                .expect("funcgen synthesizes"),
        );
        let mut stimuli = BTreeMap::new();
        stimuli.insert("line".to_string(), Stimulus::sine(1.0, 1_000.0));
        stimuli.insert("local".to_string(), Stimulus::sine(0.2, 1_000.0));
        // The function generator's FSM control net is external at the
        // netlist level; drive it so the batch simulates.
        stimuli.insert("ramp".to_string(), Stimulus::Constant { level: 0.0 });
        let config = SimConfig::new(1e-5, 1e-3);
        let seq = simulate_designs(&designs, &stimuli, &config, &SweepConfig::default())
            .expect("sequential batch");
        let par = simulate_designs(&designs, &stimuli, &config, &SweepConfig::with_jobs(4))
            .expect("parallel batch");
        assert_eq!(seq.len(), designs.len());
        assert_eq!(seq, par, "worker count must not change any trace bit");
    }

    #[test]
    fn monte_carlo_designs_score_against_annotated_ranges() {
        let designs = synthesize_source(benchmarks::RECEIVER.source, &FlowOptions::default())
            .expect("receiver synthesizes");
        assert!(
            !designs[0].value_ranges.is_empty(),
            "the receiver annotates value ranges; synthesis must carry them"
        );
        let mut stimuli = BTreeMap::new();
        stimuli.insert("line".to_string(), Stimulus::sine(1.0, 1_000.0));
        stimuli.insert("local".to_string(), Stimulus::sine(0.2, 1_000.0));
        let config = SimConfig::new(1e-5, 1e-3);
        let mc = MonteCarloConfig {
            samples: 16,
            tolerance: 0.02,
            ..MonteCarloConfig::default()
        };
        let reports = monte_carlo_designs(&designs, &stimuli, &config, &mc);
        assert_eq!(reports.len(), 1);
        let report = reports[0].as_ref().expect("yield report");
        assert_eq!(report.samples, 16);
        assert_eq!(report.degraded, 0);
        assert!(yield_diagnostics(&mc, report).is_empty());

        // Poisoning one sample degrades exactly that lane and surfaces
        // as the S404 warning — the batch itself still completes.
        let poisoned = MonteCarloConfig { inject: Some((3, 10)), ..mc };
        let reports = monte_carlo_designs(&designs, &stimuli, &config, &poisoned);
        let report = reports[0].as_ref().expect("yield report");
        assert_eq!(report.degraded, 1);
        let diags = yield_diagnostics(&poisoned, report);
        assert!(diags.iter().any(|d| d.code == Code::S404));
        assert!(diags.iter().any(|d| d.code == Code::S403));
    }

    /// Run each `(name, source)` unit through [`synthesize_unit`], as
    /// the CLI batch does.
    fn batch(sources: &[(String, String)], options: &FlowOptions) -> Vec<FlowReport> {
        sources
            .iter()
            .map(|(name, source)| synthesize_unit(name, source, options, None, None))
            .collect()
    }

    #[test]
    fn batch_continues_past_failing_units() {
        let sources = vec![
            ("good".to_owned(), benchmarks::RECEIVER.source.to_owned()),
            ("bad".to_owned(), "entity broken".to_owned()),
            ("also-good".to_owned(), benchmarks::FUNCTION_GENERATOR.source.to_owned()),
        ];
        let reports = batch(&sources, &FlowOptions::default());
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].status(), FlowStatus::Ok);
        assert_eq!(reports[0].name, "good");
        assert!(!reports[0].designs.is_empty());
        assert_eq!(reports[1].status(), FlowStatus::Error);
        assert!(matches!(
            reports[1].error,
            Some(BatchError::Flow(FlowError::Frontend(_)))
        ));
        assert_eq!(reports[2].status(), FlowStatus::Ok, "batch continued past the failure");
    }

    #[test]
    fn batch_flags_budget_exhaustion_with_a210() {
        let options = FlowOptions {
            mapper: MapperConfig {
                budget: vase_archgen::Budget::nodes(3),
                ..MapperConfig::default()
            },
            ..FlowOptions::default()
        };
        let sources =
            vec![("receiver".to_owned(), benchmarks::RECEIVER.source.to_owned())];
        let reports = batch(&sources, &options);
        let report = &reports[0];
        assert_eq!(report.status(), FlowStatus::BudgetExhausted, "{:?}", report.error);
        assert!(report.budget_exhausted());
        assert!(report.diagnostics.iter().any(|d| d.code == Code::A210), "{:?}", report.diagnostics);
        // The incumbent is still a valid, feasible architecture.
        let d = &report.designs[0];
        d.synthesis.netlist.validate().expect("incumbent is verifier-clean");
        assert!(d.synthesis.estimate.feasible());
    }

    #[test]
    fn verify_rejection_report_carries_diagnostics() {
        let src = "entity hot is
                     port (quantity x : in real is voltage range -1.0 to 1.0;
                           quantity y : out real is voltage range -0.5 to 0.5);
                   end entity;
                   architecture a of hot is begin y == x * 4.0; end architecture;";
        let options = FlowOptions { deny_warnings: true, ..FlowOptions::default() };
        let reports = batch(&[("hot".to_owned(), src.to_owned())], &options);
        assert_eq!(reports[0].status(), FlowStatus::Error);
        assert!(reports[0].diagnostics.iter().any(|d| d.code == Code::A201));
    }

    #[test]
    fn sim_diagnostics_cover_the_s4xx_family() {
        use vase_sim::{FaultInjection, SimFault};
        let mut config = SimConfig::new(1e-5, 1e-3);
        let clean = SimResult::default();
        assert!(sim_diagnostics(&config, &clean).is_empty());

        config.fault_injection = Some(FaultInjection::transient_nan(1, 0.5));
        let recovered = SimResult { recovered_steps: 3, ..SimResult::default() };
        let diags = sim_diagnostics(&config, &recovered);
        assert!(diags.iter().any(|d| d.code == Code::S403));
        assert!(diags.iter().any(|d| d.code == Code::S401));

        let aborted = SimResult {
            fault: Some(SimFault {
                step: 7,
                time: 7e-5,
                kind: vase_sim::FaultKind::Divergence,
                retries: 5,
            }),
            ..SimResult::default()
        };
        let diags = sim_diagnostics(&config, &aborted);
        assert!(diags.iter().any(|d| d.code == Code::S402 && d.severity == vase_diag::Severity::Error));
        let nonfinite = SimResult {
            fault: Some(SimFault {
                step: 7,
                time: 7e-5,
                kind: vase_sim::FaultKind::NonFinite,
                retries: 5,
            }),
            ..SimResult::default()
        };
        assert!(sim_diagnostics(&config, &nonfinite).iter().any(|d| d.code == Code::S400));
    }

    #[test]
    fn simulate_designs_reported_isolates_per_design_errors() {
        let designs = synthesize_source(benchmarks::RECEIVER.source, &FlowOptions::default())
            .expect("receiver synthesizes");
        // No stimuli: every design fails with MissingStimulus, but the
        // reported variant returns one slot per design instead of one
        // collapsed error.
        let outcomes = simulate_designs_reported(
            &designs,
            &BTreeMap::new(),
            &SimConfig::new(1e-5, 1e-4),
            &SweepConfig::default(),
        );
        assert_eq!(outcomes.len(), designs.len());
        assert!(outcomes.iter().all(|o| matches!(o, Err(SimError::MissingStimulus { .. }))));
    }

    #[test]
    fn compile_source_yields_vhif_without_mapping() {
        let result = compile_source(benchmarks::FUNCTION_GENERATOR.source).expect("compiles");
        let (entity, vhif, stats) = &result[0];
        assert_eq!(entity, "funcgen");
        assert!(vhif.stats().blocks >= 2);
        assert_eq!(stats.quantities, 2); // ramp + slope
    }
}
