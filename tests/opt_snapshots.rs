//! Golden VHIF snapshots of every shipped benchmark spec before and
//! after the optimization pipeline: the `-O0` dump is the compiler's
//! raw output, the `-O2` dump is the same design after the full pass
//! pipeline. Any change to lowering or to a pass that alters the
//! produced structure fails these tests.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test -p vase --test opt_snapshots
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use vase::vhif::{PassManager, VhifDesign};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root")
}

/// Compile one corpus entry to its VHIF design.
fn compile_entity(entity: &str, source: &str) -> VhifDesign {
    let designs = vase::compile_source(source)
        .unwrap_or_else(|e| panic!("{entity} fails to compile: {e}"));
    designs
        .into_iter()
        .find(|(e, _, _)| e == entity)
        .map(|(_, vhif, _)| vhif)
        .unwrap_or_else(|| panic!("{entity} not among compiled designs"))
}

/// The `-O2`-optimized form of a design.
fn optimize(mut vhif: VhifDesign) -> VhifDesign {
    PassManager::for_opt_level(2).run(&mut vhif);
    vhif
}

#[test]
fn vhif_snapshots_match_at_o0_and_o2() {
    let snap_dir = repo_root().join("tests/snapshots/opt");
    let update = std::env::var_os("UPDATE_SNAPSHOTS").is_some();
    if update {
        fs::create_dir_all(&snap_dir).expect("snapshot dir");
    }
    let mut failures = Vec::new();
    for (name, entity, source) in vase::benchmarks::corpus() {
        let raw = compile_entity(entity, source);
        let opt = optimize(raw.clone());
        for (suffix, design) in [("O0", &raw), ("O2", &opt)] {
            let got = design.to_string();
            let snap = snap_dir.join(format!("{entity}-{suffix}.txt"));
            if update {
                fs::write(&snap, &got).expect("write snapshot");
                continue;
            }
            match fs::read_to_string(&snap) {
                Ok(want) if want == got => {}
                Ok(want) => failures.push(format!(
                    "{name} ({entity}, -{suffix}): VHIF changed\n--- expected\n{want}\n--- got\n{got}"
                )),
                Err(_) => failures.push(format!(
                    "{name}: missing snapshot {}; run with UPDATE_SNAPSHOTS=1",
                    snap.display()
                )),
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Every pass is semantics-preserving as far as the verifier can tell:
/// the optimized design of every shipped spec still passes the VHIF
/// verifier with no errors, and optimization never grows a design.
/// (No shipped spec has anything to fold or collect, so `-O2` leaves
/// the corpus at its `-O0` size.)
#[test]
fn optimized_corpus_verifies_clean_and_never_grows() {
    for (name, entity, source) in vase::benchmarks::corpus() {
        let design = vase::frontend::parse_design_file(source)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let analyzed =
            vase::frontend::analyze(&design).unwrap_or_else(|e| panic!("{name}: {e}"));
        let arch = analyzed.architecture_of(entity).expect("architecture");
        let ctx = vase::lint::verify_context(arch);

        let raw = compile_entity(entity, source);
        let opt = optimize(raw.clone());
        let diags = vase::vhif::verify::verify_design(&opt, &ctx);
        assert!(
            !vase::diag::has_errors(&diags),
            "{name}: optimized design fails the verifier: {diags:#?}"
        );

        let before: usize = raw.graphs.iter().map(|g| g.len()).sum();
        let after: usize = opt.graphs.iter().map(|g| g.len()).sum();
        assert!(after <= before, "{name}: optimization grew the design");
    }
}
