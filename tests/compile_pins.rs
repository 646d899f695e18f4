//! Pin of the compiler's output. For every shipped `.vhd` source (the
//! corpus specs and the lint fixtures) and a few hundred designs from a
//! seeded generator, each architecture's row records an FNV-1a hash of
//! its `VhifDesign` `Debug` text, the names of its solver candidates and
//! its per-equation DAE alternative counts; a source the compiler
//! rejects records the error text instead. Any change to lowering, to
//! solver selection or to the rotated solver variants shows up as a
//! diff against the committed table.
//!
//! The generated designs come from `tests/support/generator.rs`, which
//! emits what makes a solver candidate (no shipped design records one).
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test -p vase --test compile_pins
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use vase::compiler::compile;
use vase::frontend::{analyze, parse_design_file};

#[path = "support/generator.rs"]
mod generator;

use generator::generate;

/// How many generated designs the pin covers.
const GENERATED: u64 = 300;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root")
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What compiling one source produced.
#[derive(Default)]
struct Tally {
    with_candidates: usize,
    with_several_candidates: usize,
    compile_errors: usize,
}

/// Append the rows of `source` (one per compiled architecture, or one
/// error row) under the heading `name`.
fn pin_source(name: &str, source: &str, out: &mut String, tally: &mut Tally) {
    let analyzed = parse_design_file(source).ok().and_then(|design| analyze(&design).ok());
    let Some(analyzed) = analyzed else {
        writeln!(out, "{name}: rejected before compile").expect("write");
        return;
    };
    let compiled = match compile(&analyzed) {
        Ok(compiled) => compiled,
        Err(e) => {
            tally.compile_errors += 1;
            writeln!(out, "{name}: error: {e}").expect("write");
            return;
        }
    };
    for d in &compiled.designs {
        let candidates: Vec<&str> = d.vhif.candidates.iter().map(|c| c.name.as_str()).collect();
        tally.with_candidates += usize::from(!candidates.is_empty());
        tally.with_several_candidates += usize::from(candidates.len() > 1);
        let dae: Vec<String> = d.dae_alternatives.iter().map(|(n, k)| format!("{n}:{k}")).collect();
        writeln!(
            out,
            "{name}: {} vhif={:016x} candidates=[{}] dae=[{}]",
            d.entity,
            fnv1a(format!("{:?}", d.vhif).as_bytes()),
            candidates.join(" "),
            dae.join(" ")
        )
        .expect("write");
    }
}

#[test]
fn compiled_designs_match_the_pin() {
    let root = repo_root();
    let mut sources = Vec::new();
    for dir in ["crates/core/specs", "examples", "examples/lint"] {
        let mut files: Vec<PathBuf> = fs::read_dir(root.join(dir))
            .expect("source dir")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "vhd"))
            .collect();
        files.sort();
        for path in files {
            let name = path.strip_prefix(&root).expect("under root").display().to_string();
            sources.push((name, fs::read_to_string(&path).expect("read source")));
        }
    }
    assert!(sources.len() >= 17, "expected the shipped sources, found {}", sources.len());

    let mut got = String::new();
    for (name, source) in &sources {
        pin_source(name, source, &mut got, &mut Tally::default());
    }
    let mut tally = Tally::default();
    for seed in 0..GENERATED {
        pin_source(&format!("gen/{seed}"), &generate(seed), &mut got, &mut tally);
    }
    // The generated designs must exercise both solver candidates and
    // compile errors, which no shipped design records.
    assert!(tally.with_candidates > 10, "too few candidate rows");
    assert!(tally.with_several_candidates > 3, "too few rows from a later rotation");
    assert!(tally.compile_errors > 10, "too few compile errors");

    let snap = root.join("tests/snapshots/compile/pins.txt");
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        fs::create_dir_all(snap.parent().expect("snapshot dir")).expect("create snapshot dir");
        fs::write(&snap, &got).expect("write snapshot");
        return;
    }
    let want = fs::read_to_string(&snap)
        .unwrap_or_else(|_| panic!("missing {}; run with UPDATE_SNAPSHOTS=1", snap.display()));
    let diffs: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .take(10)
        .map(|(w, g)| format!("- {w}\n+ {g}"))
        .collect();
    assert!(
        want == got,
        "compiler output changed ({} vs {} rows):\n{}",
        want.lines().count(),
        got.lines().count(),
        diffs.join("\n")
    );
}
