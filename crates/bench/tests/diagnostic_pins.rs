//! Pin of the diagnostics `vase::lint_source` renders. For every shipped
//! `.vhd` source (the corpus specs and the lint fixtures) and for the
//! first [`MUTANTS`] mutants of `vase-fuzz` at its smoke seed, each
//! diagnostic becomes one row: its code, its span and its message. A
//! source that lints clean gets a `clean` row. Any change to what the
//! lexer, parser, semantic analysis, compiler or verifier report — or
//! where — shows up as a diff against the committed table.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test -p vase-bench --test diagnostic_pins
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use vase_bench::mutants::{build_mutant, corpus, SMOKE_SEED};

/// How many mutants the pin covers.
const MUTANTS: usize = 512;

fn pin_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/snapshots/diag/pins.txt")
}

/// Append one row per diagnostic of `source` under the heading `name`.
fn pin_source(name: &str, source: &str, out: &mut String) {
    let diags = vase::lint_source(source);
    if diags.is_empty() {
        writeln!(out, "{name}: clean").expect("write");
    }
    for d in &diags {
        let span = if d.span.is_synthetic() {
            "-".to_owned()
        } else {
            let (s, e) = (d.span.start, d.span.end);
            format!("{}:{}-{}:{}", s.line, s.column, e.line, e.column)
        };
        let message = d.message.replace('\n', "\\n");
        writeln!(out, "{name}: {} {span} {message}", d.code).expect("write");
    }
}

fn render() -> String {
    let specs = corpus();
    let mut out = String::new();
    for (name, source) in &specs {
        pin_source(name, source, &mut out);
    }
    for i in 0..MUTANTS {
        let (pick, mutant) = build_mutant(&specs, SMOKE_SEED, i);
        pin_source(
            &format!("mutant {i} of {}", specs[pick].0),
            &mutant,
            &mut out,
        );
    }
    out
}

#[test]
fn diagnostics_match_the_pin() {
    let rendered = render();
    let path = pin_path();
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(&path, &rendered).expect("write pin");
        return;
    }
    let committed = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}; regenerate with UPDATE_SNAPSHOTS=1",
            path.display()
        )
    });
    if rendered != committed {
        let diff: Vec<String> = committed
            .lines()
            .zip(rendered.lines())
            .filter(|(a, b)| a != b)
            .take(10)
            .map(|(a, b)| format!("- {a}\n+ {b}"))
            .collect();
        panic!(
            "diagnostics differ from the pin ({} committed rows, {} rendered); first \
             differing rows:\n{}",
            committed.lines().count(),
            rendered.lines().count(),
            diff.join("\n")
        );
    }
}
