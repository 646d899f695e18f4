//! Allocation guard for the mapper's search: mapping a 50-block
//! control loop makes at most [`PER_NODE`] heap allocations per visited
//! decision-tree node, under both the exact depth-first search and the
//! guided best-first search's frontier. A search that deep-copies its
//! partial mapping at every node (every planned component's kind,
//! covered-block list and input list) makes dozens per node and fails
//! here; a plan held as a flat list of small `Copy` decisions makes a
//! few.
//!
//! Both searches' area completion bound proves this graph's optimum in
//! a few dozen nodes, so set-up would dominate the per-node count; each
//! search is measured with `bounding: false`, which visits about ten
//! thousand nodes. Each bounded run is held to fewer allocations in
//! total than its unbounded run.
//!
//! The count covers the whole `map_graph` call, set-up included (match
//! table, estimates, leaf netlists), and is kept per thread as in
//! `crates/sim/tests/no_alloc.rs`: libtest runs tests on parallel
//! threads, and every search runs on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vase_archgen::{map_graph, MapperConfig};
use vase_bench::synthetic::control_loop;
use vase_bench::SEED;
use vase_estimate::Estimator;

/// Allocations allowed per visited node.
const PER_NODE: u64 = 8;

/// Counts every allocation and reallocation made by the current thread.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `try_with`: the allocator also runs during thread teardown, after
/// the thread-local is gone.
fn count_one() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Map `graph` under `config` on this thread: the allocations made and
/// the nodes visited.
fn count(name: &str, graph: &vase_vhif::SignalFlowGraph, config: &MapperConfig) -> (u64, u64) {
    let before = allocations();
    let result = map_graph(graph, &Estimator::default(), config).expect("maps");
    let made = allocations() - before;
    assert!(
        !result.stats.budget_exhausted,
        "{name}: the search must complete"
    );
    (made, result.stats.visited_nodes)
}

/// Each strategy's default configuration and its `bounding: false`
/// twin.
fn strategies() -> [(&'static str, MapperConfig, MapperConfig); 2] {
    let open = |config| MapperConfig {
        bounding: false,
        ..config
    };
    [
        ("exact", MapperConfig::default(), open(MapperConfig::default())),
        ("guided", MapperConfig::guided(), open(MapperConfig::guided())),
    ]
}

#[test]
fn search_allocates_a_few_times_per_visited_node() {
    let graph = control_loop(50, SEED);
    for (name, _, unbounded) in strategies() {
        let (made, visited) = count(name, &graph, &unbounded);
        assert!(
            made <= PER_NODE * visited,
            "{name}: {made} allocations for {visited} visited nodes ({:.1} per node, at most \
             {PER_NODE} allowed)",
            made as f64 / visited as f64
        );
    }
}

#[test]
fn bounded_search_allocates_less_than_unbounded() {
    let graph = control_loop(50, SEED);
    for (name, bounded, unbounded) in strategies() {
        let (with, _) = count(name, &graph, &bounded);
        let (without, _) = count(name, &graph, &unbounded);
        assert!(
            with < without,
            "{name}: the bounded run made {with} allocations, the unbounded {without}"
        );
    }
}
