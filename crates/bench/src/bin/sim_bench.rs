//! Emit `BENCH_sim.json`: transient-simulation throughput of the
//! compiled-plan engines and frequency-sweep wall clock, sequential vs
//! parallel, on the five Table 1 applications.
//!
//! ```sh
//! cargo run --release -p vase-bench --bin sim_bench [-- --smoke] [-- --jobs <n>]
//! ```
//!
//! Per application:
//!
//! * **behavioral** — steps/second of the compiled VHIF plan
//!   ([`vase::sim::CompiledSim`]), best of `reps` runs;
//! * **netlist** — steps/second of the compiled macromodel plan
//!   ([`vase::sim::CompiledNetlist`]);
//! * **sweep** — wall clock of a log-spaced frequency sweep between the
//!   design's first input and first output, `--jobs 1` vs `--jobs <n>`
//!   (default 4), with the two point lists checked bit-identical
//!   (designs without an input port skip the sweep and report `null`);
//! * **wide** — aggregate steps/second of a many-point stimulus sweep,
//!   a loop of one-lane sessions vs lane-batched SoA execution at
//!   widths 4 and 8, result sets checked bit-identical, with per-run
//!   allocation counts and peak heap growth from a counting global
//!   allocator;
//! * **adaptive** — accepted/rejected step counts of the batched RKF45
//!   integrator against the fixed-step count of the same window.
//!
//! `--smoke` shrinks the step counts and the sweep so the binary
//! finishes in well under a second — the tier-1 CI gate runs that mode
//! and writes its report under the system temp directory, never over
//! the committed `BENCH_sim.json`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use vase::flow::{synthesize_source, FlowOptions, SynthesizedDesign};
use vase::sim::{
    frequency_response_with, log_sweep, AdaptiveConfig, BatchLane, CompiledNetlist, CompiledSim,
    SimConfig, SimError, SimResult, Stimulus, SweepConfig,
};
use vase::vhif::BlockKind;
use vase_bench::json::Json;

/// Counts allocations and tracks live/peak heap bytes so each record
/// can report how much a run allocated (steady-state engine loops
/// should report zero growth — the buffers are sized at session
/// creation).
struct PeakAlloc;

static ALLOC_COUNT: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
            let live = LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
            let live = LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed) + new_size;
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Allocation count and peak heap growth (bytes above the level at
/// entry) across one invocation of `run`.
fn alloc_window<T>(run: impl FnOnce() -> T) -> (T, usize, usize) {
    let live0 = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live0, Ordering::Relaxed);
    let count0 = ALLOC_COUNT.load(Ordering::Relaxed);
    let out = run();
    let count = ALLOC_COUNT.load(Ordering::Relaxed) - count0;
    let peak = PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(live0);
    (out, count, peak)
}

struct Sizing {
    reps: usize,
    behavioral_steps: usize,
    netlist_steps: usize,
    sweep_points: usize,
    wide_points: usize,
}

const FULL: Sizing = Sizing {
    reps: 3,
    behavioral_steps: 20_000,
    netlist_steps: 10_000,
    sweep_points: 16,
    wide_points: 64,
};
const SMOKE: Sizing = Sizing {
    reps: 1,
    behavioral_steps: 500,
    netlist_steps: 250,
    sweep_points: 4,
    wide_points: 16,
};

struct EngineRecord {
    steps: usize,
    wall_us: u64,
    steps_per_second: f64,
    allocations: usize,
    peak_alloc_bytes: usize,
}

impl EngineRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("steps", Json::Int(self.steps as i128)),
            ("wall_us", Json::Int(self.wall_us as i128)),
            ("steps_per_second", Json::Num(self.steps_per_second)),
            ("allocations", Json::Int(self.allocations as i128)),
            ("peak_alloc_bytes", Json::Int(self.peak_alloc_bytes as i128)),
        ])
    }
}

struct SweepRecord {
    input: String,
    output: String,
    points: usize,
    sequential_wall_us: u64,
    parallel_wall_us: u64,
    speedup: f64,
    bit_identical: bool,
}

impl SweepRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("input", Json::str(self.input.clone())),
            ("output", Json::str(self.output.clone())),
            ("points", Json::Int(self.points as i128)),
            ("sequential_wall_us", Json::Int(self.sequential_wall_us as i128)),
            ("parallel_wall_us", Json::Int(self.parallel_wall_us as i128)),
            ("speedup", Json::Num(self.speedup)),
            ("bit_identical", Json::Bool(self.bit_identical)),
        ])
    }
}

/// Stimulate every input the design demands: retry construction,
/// adding a small sine for each reported [`SimError::MissingStimulus`].
fn auto_stimuli(
    mut build: impl FnMut(&BTreeMap<String, Stimulus>) -> Result<(), SimError>,
) -> Result<BTreeMap<String, Stimulus>, SimError> {
    let mut stimuli = BTreeMap::new();
    loop {
        match build(&stimuli) {
            Ok(()) => return Ok(stimuli),
            Err(SimError::MissingStimulus { name }) => {
                stimuli.insert(name, Stimulus::sine(0.5, 1_000.0));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Best-of-`reps` wall clock of `run`, as an [`EngineRecord`], with
/// allocation statistics sampled on the final repetition.
fn time_engine(steps: usize, reps: usize, mut run: impl FnMut()) -> EngineRecord {
    let mut best = u64::MAX;
    let mut allocations = 0;
    let mut peak = 0;
    for rep in 0..reps.max(1) {
        let t0 = Instant::now();
        if rep + 1 == reps.max(1) {
            let ((), count, bytes) = alloc_window(&mut run);
            allocations = count;
            peak = bytes;
        } else {
            run();
        }
        best = best.min(t0.elapsed().as_micros() as u64);
    }
    EngineRecord {
        steps,
        wall_us: best,
        steps_per_second: steps as f64 / (best.max(1) as f64 / 1e6),
        allocations,
        peak_alloc_bytes: peak,
    }
}

struct WideRecord {
    points: usize,
    steps_per_point: usize,
    lanes1: EngineRecord,
    lanes4: EngineRecord,
    lanes8: EngineRecord,
    speedup_lanes8: f64,
    bit_identical: bool,
}

impl WideRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("points", Json::Int(self.points as i128)),
            ("steps_per_point", Json::Int(self.steps_per_point as i128)),
            ("lanes1", self.lanes1.to_json()),
            ("lanes4", self.lanes4.to_json()),
            ("lanes8", self.lanes8.to_json()),
            ("speedup_lanes8", Json::Num(self.speedup_lanes8)),
            ("bit_identical", Json::Bool(self.bit_identical)),
        ])
    }
}

/// Aggregate throughput of a many-point stimulus sweep: one-lane
/// sessions looping point by point vs lane batches of widths 4 and 8,
/// over the exact same per-point work (same plan, same step count),
/// with the full result sets compared bitwise.
fn bench_wide(plan: &CompiledSim<'_>, sizing: &Sizing) -> WideRecord {
    let base = plan.stimuli().to_vec();
    let stim_sets: Vec<Vec<Stimulus>> = (0..sizing.wide_points)
        .map(|i| {
            let mut s = base.clone();
            if let Some(slot) = s.first_mut() {
                *slot = Stimulus::sine(0.5, 400.0 + 37.0 * i as f64);
            }
            s
        })
        .collect();
    let total = sizing.wide_points * plan.steps();

    let lane_run = |width: usize| -> Vec<SimResult> {
        let mut out = Vec::with_capacity(stim_sets.len());
        for chunk in stim_sets.chunks(width) {
            let lanes: Vec<BatchLane> = chunk.iter().map(|s| plan.batch_lane(s.clone())).collect();
            let mut sess = plan.batch_session(&lanes);
            sess.run();
            out.extend(sess.into_results());
        }
        out
    };

    // Warm-up pass, doubling as the bit-identity check (untimed).
    let reference = lane_run(1);
    let wide4 = lane_run(4);
    let wide8 = lane_run(8);
    let bit_identical = reference == wide4 && reference == wide8;
    drop((wide4, wide8));

    // Interleaved timing: lanes1 / lanes4 / lanes8 run back-to-back
    // inside each rep so a contention burst on the shared CPU hits all
    // three alike, and best-of-reps per engine forms the ratio. Timing
    // them as three separate rep loops lets one burst corrupt a whole
    // engine's measurement and makes the ratio swing wildly.
    let reps = sizing.reps.max(1) * 2;
    let mut best = [u64::MAX; 3];
    let mut allocs = [(0usize, 0usize); 3];
    for rep in 0..reps {
        let last = rep + 1 == reps;
        for (k, width) in [1usize, 4, 8].into_iter().enumerate() {
            let t0 = Instant::now();
            if last {
                let ((), count, bytes) = alloc_window(|| {
                    std::hint::black_box(lane_run(width));
                });
                allocs[k] = (count, bytes);
            } else {
                std::hint::black_box(lane_run(width));
            }
            best[k] = best[k].min(t0.elapsed().as_micros() as u64);
        }
    }
    let record = |k: usize| EngineRecord {
        steps: total,
        wall_us: best[k],
        steps_per_second: total as f64 / (best[k].max(1) as f64 / 1e6),
        allocations: allocs[k].0,
        peak_alloc_bytes: allocs[k].1,
    };
    let (lanes1, lanes4, lanes8) = (record(0), record(1), record(2));
    let speedup_lanes8 = lanes8.steps_per_second / lanes1.steps_per_second.max(1e-12);
    WideRecord {
        points: sizing.wide_points,
        steps_per_point: plan.steps(),
        lanes1,
        lanes4,
        lanes8,
        speedup_lanes8,
        bit_identical,
    }
}

/// One batched RKF45 run over the behavioral plan's window: how many
/// adaptive steps the batch-min controller takes (accepted/rejected)
/// vs the fixed-step count for the same span.
fn bench_adaptive(plan: &CompiledSim<'_>) -> Json {
    let mut session = plan.batch_replicated(8);
    let stats = session.run_adaptive(&AdaptiveConfig::default());
    Json::obj([
        ("lanes", Json::Int(8)),
        ("fixed_steps", Json::Int(plan.steps() as i128)),
        ("accepted", Json::Int(stats.accepted as i128)),
        ("rejected", Json::Int(stats.rejected as i128)),
        ("min_h", Json::Num(stats.min_h)),
        ("max_h", Json::Num(stats.max_h)),
    ])
}

/// First `Input` and first `Output` interface names of the design.
fn interface_names(d: &SynthesizedDesign) -> (Option<String>, Option<String>) {
    let mut input = None;
    let mut output = None;
    for g in &d.vhif.graphs {
        for (_, b) in g.iter() {
            match &b.kind {
                BlockKind::Input { name } if input.is_none() => input = Some(name.clone()),
                BlockKind::Output { name } if output.is_none() => output = Some(name.clone()),
                _ => {}
            }
        }
    }
    (input, output)
}

fn bench_app(
    b: &vase::benchmarks::Benchmark,
    sizing: &Sizing,
    jobs: usize,
) -> Result<Json, String> {
    let designs =
        synthesize_source(b.source, &FlowOptions::default()).map_err(|e| e.to_string())?;
    let d = &designs[0];

    // Behavioral compiled plan.
    let config = SimConfig::new(1e-6, sizing.behavioral_steps as f64 * 1e-6);
    let stimuli = auto_stimuli(|s| CompiledSim::new(&d.vhif, s, &config).map(|_| ()))
        .map_err(|e| e.to_string())?;
    let plan = CompiledSim::new(&d.vhif, &stimuli, &config).map_err(|e| e.to_string())?;
    let behavioral = time_engine(plan.steps(), sizing.reps, || {
        std::hint::black_box(plan.run());
    });

    // Wide simulation: the same plan over a many-point stimulus sweep,
    // one-lane loop vs lane batches, plus one adaptive RKF45 run.
    let wide = bench_wide(&plan, sizing);
    let adaptive = bench_adaptive(&plan);

    // Netlist compiled plan (control bindings close the FSM loop).
    let config = SimConfig::new(1e-6, sizing.netlist_steps as f64 * 1e-6);
    let bindings = &d.synthesis.control_bindings;
    let net_stimuli = auto_stimuli(|s| {
        CompiledNetlist::new(&d.synthesis.netlist, s, bindings, &config).map(|_| ())
    })
    .map_err(|e| e.to_string())?;
    let net_plan = CompiledNetlist::new(&d.synthesis.netlist, &net_stimuli, bindings, &config)
        .map_err(|e| e.to_string())?;
    let netlist = time_engine(net_plan.steps(), sizing.reps, || {
        std::hint::black_box(net_plan.run());
    });

    // Frequency sweep, sequential vs parallel.
    let sweep = match interface_names(d) {
        (Some(input), Some(output)) => {
            let freqs = log_sweep(200.0, 5_000.0, sizing.sweep_points);
            let mut extra = stimuli.clone();
            extra.remove(&input);
            let run = |jobs: usize| {
                let t0 = Instant::now();
                let points = frequency_response_with(
                    &d.vhif,
                    &input,
                    &output,
                    0.1,
                    &freqs,
                    &extra,
                    &SweepConfig::with_jobs(jobs),
                )
                .map_err(|e| e.to_string())?;
                Ok::<_, String>((t0.elapsed().as_micros() as u64, points))
            };
            let (seq_us, seq_points) = run(1)?;
            let (par_us, par_points) = run(jobs)?;
            Some(SweepRecord {
                input,
                output,
                points: freqs.len(),
                sequential_wall_us: seq_us,
                parallel_wall_us: par_us,
                speedup: seq_us as f64 / par_us.max(1) as f64,
                bit_identical: seq_points == par_points,
            })
        }
        _ => None,
    };

    let sweep_note = match &sweep {
        Some(s) => format!(
            "sweep {} pts seq {} µs / par {} µs ({:.2}x, identical: {})",
            s.points, s.sequential_wall_us, s.parallel_wall_us, s.speedup, s.bit_identical
        ),
        None => "no input port, sweep skipped".to_owned(),
    };
    println!(
        "{:<22} behavioral {:>12.0} steps/s | netlist {:>12.0} steps/s | wide x8 {:>5.2}x \
         (identical: {}) | {}",
        b.name,
        behavioral.steps_per_second,
        netlist.steps_per_second,
        wide.speedup_lanes8,
        wide.bit_identical,
        sweep_note
    );

    Ok(Json::obj([
        ("application", Json::str(b.name.to_owned())),
        ("behavioral", behavioral.to_json()),
        ("netlist", netlist.to_json()),
        ("wide", wide.to_json()),
        ("adaptive", adaptive),
        ("sweep", sweep.map_or(Json::Null, |s| s.to_json())),
    ]))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    static BENCHMARKS: [vase::benchmarks::Benchmark; 5] = [
        vase::benchmarks::RECEIVER,
        vase::benchmarks::POWER_METER,
        vase::benchmarks::MISSILE,
        vase::benchmarks::ITERATIVE,
        vase::benchmarks::FUNCTION_GENERATOR,
    ];
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let sizing = if smoke { SMOKE } else { FULL };
    let jobs = match args.iter().position(|a| a == "--jobs").and_then(|i| args.get(i + 1)) {
        Some(v) => match v.parse::<usize>().map_err(|e| format!("bad --jobs `{v}`: {e}"))? {
            0 => SweepConfig::parallel().effective_jobs(),
            n => n,
        },
        None => 4,
    };

    let only = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.to_ascii_lowercase());

    let mut apps = Vec::new();
    for b in &BENCHMARKS {
        if let Some(filter) = &only {
            if !b.name.to_ascii_lowercase().contains(filter) {
                continue;
            }
        }
        apps.push(bench_app(b, &sizing, jobs)?);
    }
    let report = Json::obj([
        ("benchmark", Json::str("sim")),
        ("smoke", Json::Bool(smoke)),
        ("jobs", Json::Int(jobs as i128)),
        ("repetitions", Json::Int(sizing.reps as i128)),
        ("apps", Json::Arr(apps)),
    ]);
    let path = vase_bench::write_report("sim", smoke, &report)?;
    println!("\nwritten to {} ({jobs} sweep worker(s))", path.display());
    Ok(())
}
