//! Allocation guard for the lexer: on every shipped spec, `lex` makes at
//! most one heap allocation per distinct identifier plus [`FIXED`]. The
//! lexer matches keywords without allocating and interns each distinct
//! identifier once into the file's name table; a lexer that builds a
//! `String` for every word makes several allocations per identifier
//! (one per occurrence, keywords included) and fails here.
//!
//! Tokens and identifiers are `Copy` (a kind or name plus a span), which
//! is asserted at compile time: the parser lends tokens out instead of
//! cloning owned text.
//!
//! The count is kept per thread, as in `search_alloc.rs`: libtest runs
//! tests on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;

use vase::frontend::ast::Ident;
use vase::frontend::lexer::lex;
use vase::frontend::names::Names;
use vase::frontend::token::{Token, TokenKind};

/// Allocations allowed beyond one per distinct identifier: the token
/// vector, the scratch buffer for literals and upper-case words, and
/// the growth of the table's spelling list and lookup map.
const FIXED: u64 = 24;

const fn assert_copy<T: Copy>() {}
const _: () = assert_copy::<Token>();
const _: () = assert_copy::<Ident>();

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

#[test]
fn lex_allocates_once_per_distinct_identifier() {
    for (name, _, source) in vase::benchmarks::corpus() {
        let mut names = Names::new();
        let before = allocations();
        let tokens = lex(source, &mut names).expect("lexes");
        let made = allocations() - before;
        let distinct: HashSet<_> = tokens
            .iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(name) | TokenKind::StringLiteral(name) => Some(name),
                _ => None,
            })
            .collect();
        let words = tokens
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Ident(_) | TokenKind::Keyword(_)))
            .count();
        let allowed = distinct.len() as u64 + FIXED;
        assert!(
            made <= allowed,
            "{name}: {made} allocations lexing {words} words with {} distinct identifiers \
             (at most {allowed} allowed)",
            distinct.len()
        );
    }
}
