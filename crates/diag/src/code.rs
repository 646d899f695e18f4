//! The stable lint-code registry.
//!
//! Every diagnostic the toolchain can emit carries one of these codes.
//! Codes are grouped by the pipeline stage that detects the problem:
//!
//! * `V0xx` — frontend (lexing, parsing, semantic analysis, the VASS
//!   restrictions of paper Section 3);
//! * `I1xx` — VHIF verifier (structural invariants of the compiled
//!   signal-flow graphs and FSMs);
//! * `A2xx` — annotation/interval analysis (value and frequency range
//!   propagation);
//! * `O3xx` — optimization passes (informational notes about what each
//!   transform rewrote or removed);
//! * `S4xx` — simulation runtime (numerical faults detected by the
//!   compiled RK4 stepper and their recovery outcomes).
//!
//! Codes are append-only: a released code never changes meaning or
//! number, so scripts that match on them keep working. A code retired
//! with its check keeps its number out of use: `O302`, `O304` and
//! `O305` went with the `cse`, `coalesce` and `prune-solvers` passes.
//! `docs/lint-codes.md` is generated from this table (see
//! [`reference_markdown`]) and a test asserts it stays in sync.

use crate::diagnostic::Severity;

/// A stable diagnostic code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // each variant is documented by its registry entry
pub enum Code {
    V001,
    V002,
    V010,
    V011,
    V012,
    V013,
    V014,
    V015,
    I100,
    I101,
    I102,
    I103,
    I104,
    I105,
    I106,
    I107,
    I108,
    I109,
    I110,
    I111,
    A200,
    A201,
    A202,
    A203,
    A204,
    A205,
    A210,
    A211,
    A212,
    A220,
    A221,
    O300,
    O301,
    O303,
    S400,
    S401,
    S402,
    S403,
    S404,
}

/// One row of the code registry.
#[derive(Debug, Clone, Copy)]
pub struct CodeInfo {
    /// The code itself.
    pub code: Code,
    /// Short kebab-case name.
    pub name: &'static str,
    /// Default severity (promotable with `--deny warnings`).
    pub severity: Severity,
    /// One-line description for the reference table.
    pub description: &'static str,
}

/// The full registry, in code order.
pub const REGISTRY: &[CodeInfo] = &[
    CodeInfo {
        code: Code::V001,
        name: "lex-error",
        severity: Severity::Error,
        description: "the source text could not be tokenized",
    },
    CodeInfo {
        code: Code::V002,
        name: "parse-error",
        severity: Severity::Error,
        description: "the token stream does not form a valid VASS design file",
    },
    CodeInfo {
        code: Code::V010,
        name: "undeclared-name",
        severity: Severity::Error,
        description: "a name is referenced but never declared",
    },
    CodeInfo {
        code: Code::V011,
        name: "duplicate-declaration",
        severity: Severity::Error,
        description: "a name is declared more than once in the same scope",
    },
    CodeInfo {
        code: Code::V012,
        name: "type-mismatch",
        severity: Severity::Error,
        description: "an expression or assignment has mismatched types",
    },
    CodeInfo {
        code: Code::V013,
        name: "restriction-violation",
        severity: Severity::Error,
        description: "a VASS synthesizability restriction is violated (paper Section 3): \
                      `wait`, non-static `for` bounds, signal read-after-write, or a signal \
                      assignment inside a `while` sampling loop",
    },
    CodeInfo {
        code: Code::V014,
        name: "bad-annotation",
        severity: Severity::Error,
        description: "a synthesis annotation is malformed or contradicts another annotation",
    },
    CodeInfo {
        code: Code::V015,
        name: "invalid-use",
        severity: Severity::Error,
        description: "a declared object is used in an inappropriate role (e.g. assigning to \
                      an `in` port)",
    },
    CodeInfo {
        code: Code::I100,
        name: "compile-error",
        severity: Severity::Error,
        description: "VASS-to-VHIF lowering failed (unsupported construct, unsolvable DAE \
                      set, or use before definition)",
    },
    CodeInfo {
        code: Code::I101,
        name: "dangling-edge",
        severity: Severity::Error,
        description: "a signal-flow connection or FSM transition references a block, port, \
                      or state that does not exist",
    },
    CodeInfo {
        code: Code::I102,
        name: "undriven-port",
        severity: Severity::Error,
        description: "a block input port has no driver, or a control input is produced by \
                      no FSM and is not an external signal",
    },
    CodeInfo {
        code: Code::I103,
        name: "algebraic-loop",
        severity: Severity::Error,
        description: "a combinational cycle is not broken by any stateful block \
                      (integrator, sample-and-hold, memory, Schmitt trigger)",
    },
    CodeInfo {
        code: Code::I104,
        name: "class-mismatch",
        severity: Severity::Error,
        description: "an analog output drives a control port, or a control output drives a \
                      data port",
    },
    CodeInfo {
        code: Code::I105,
        name: "memory-conflict",
        severity: Severity::Error,
        description: "the one-memory-block-per-signal rule is violated at the IR level: a \
                      signal is stored by more than one memory, assigned twice in one FSM \
                      state, or driven by several FSMs",
    },
    CodeInfo {
        code: Code::I106,
        name: "bad-sampling-structure",
        severity: Severity::Error,
        description: "a lowered `while` sampling structure does not match paper Fig. 4: \
                      two condition networks plus an S/H pair bridged by a switch",
    },
    CodeInfo {
        code: Code::I107,
        name: "unreachable-state",
        severity: Severity::Error,
        description: "an FSM state cannot be reached from the start state",
    },
    CodeInfo {
        code: Code::I108,
        name: "ambiguous-transitions",
        severity: Severity::Error,
        description: "a state has two unconditional outgoing arcs, or two arcs triggered \
                      by the same `'above` event",
    },
    CodeInfo {
        code: Code::I109,
        name: "overlapping-above",
        severity: Severity::Warning,
        description: "two transitions from one state watch `'above` of the same quantity \
                      at different thresholds; both can be pending at once, which the \
                      paper's one-event-at-a-time model does not arbitrate",
    },
    CodeInfo {
        code: Code::I110,
        name: "dead-state",
        severity: Severity::Warning,
        description: "a non-start FSM state has no outgoing transition, so the machine \
                      can never return to its suspended state",
    },
    CodeInfo {
        code: Code::I111,
        name: "kind-mismatch",
        severity: Severity::Error,
        description: "a wire connects ports of different electrical kinds (a voltage \
                      quantity feeding a current port, or vice versa)",
    },
    CodeInfo {
        code: Code::A200,
        name: "possible-division-by-zero",
        severity: Severity::Warning,
        description: "interval propagation of the `range` annotations shows a divider \
                      whose divisor interval contains zero",
    },
    CodeInfo {
        code: Code::A201,
        name: "out-of-range-drive",
        severity: Severity::Warning,
        description: "interval propagation shows an output can exceed its annotated \
                      `range` or drive amplitude",
    },
    CodeInfo {
        code: Code::A202,
        name: "degenerate-range",
        severity: Severity::Warning,
        description: "a `range` or `frequency` annotation has its lower bound above its \
                      upper bound and is ignored by the interval analysis",
    },
    CodeInfo {
        code: Code::A203,
        name: "proven-division-by-zero",
        severity: Severity::Error,
        description: "fixed-point range analysis proves a divider's divisor is exactly \
                      zero for every reachable valuation of the annotated ranges",
    },
    CodeInfo {
        code: Code::A204,
        name: "proven-out-of-range-drive",
        severity: Severity::Error,
        description: "fixed-point range analysis proves an output's value interval is \
                      disjoint from its annotated `range`: every reachable value violates \
                      the annotation",
    },
    CodeInfo {
        code: Code::A205,
        name: "range-analysis-degraded",
        severity: Severity::Note,
        description: "the range analysis could not produce useful bounds (no usable \
                      `range` annotations, or the fixed-point iteration cap was reached \
                      and remaining intervals were widened to unbounded); range verdicts \
                      for the affected graph are conservative",
    },
    CodeInfo {
        code: Code::A210,
        name: "mapping-budget-exhausted",
        severity: Severity::Warning,
        description: "the branch-and-bound mapper hit its compute budget (deadline, node \
                      cap, or cancellation) and returned its best incumbent architecture \
                      instead of a proven optimum",
    },
    CodeInfo {
        code: Code::A211,
        name: "cover-cache-hit",
        severity: Severity::Note,
        description: "one or more signal-flow graphs were mapped from the content-addressed \
                      cover cache (validated best-known cover) instead of running the \
                      branch-and-bound search",
    },
    CodeInfo {
        code: Code::A212,
        name: "cover-cache-miss",
        severity: Severity::Note,
        description: "a cover cache was supplied but one or more signal-flow graphs had no \
                      valid cached cover; the search ran and its result was recorded for \
                      next time",
    },
    CodeInfo {
        code: Code::A220,
        name: "job-deadline-exceeded",
        severity: Severity::Warning,
        description: "a service job hit its per-request `deadline_ms` and was cancelled \
                      cooperatively; the response carries the best results produced so far \
                      (partial traces, incumbent architectures, or widened ranges)",
    },
    CodeInfo {
        code: Code::A221,
        name: "service-overloaded",
        severity: Severity::Warning,
        description: "the service queue was full (`--queue-depth`) when the request \
                      arrived, so it was shed without running; the response includes a \
                      retry-after hint instead of growing the queue without bound",
    },
    CodeInfo {
        code: Code::O300,
        name: "opt-summary",
        severity: Severity::Note,
        description: "summary of an optimization pipeline run: total blocks and edges \
                      before and after the passes",
    },
    CodeInfo {
        code: Code::O301,
        name: "opt-const-folded",
        severity: Severity::Note,
        description: "the `const-fold` pass replaced literal-fed arithmetic blocks with \
                      constants (computed with the simulator's own arithmetic)",
    },
    CodeInfo {
        code: Code::O303,
        name: "opt-dead-blocks-removed",
        severity: Severity::Note,
        description: "the `dce` pass removed blocks with no path to an output port, \
                      memory block, sampling structure, or FSM-read quantity",
    },
    CodeInfo {
        code: Code::S400,
        name: "sim-numerical-fault",
        severity: Severity::Error,
        description: "the transient simulation produced a non-finite value (NaN or \
                      infinity) that step-halving could not repair; the run aborted \
                      early and the result carries the partial trace",
    },
    CodeInfo {
        code: Code::S401,
        name: "sim-step-halved",
        severity: Severity::Warning,
        description: "the transient simulation recovered from a numerical fault by \
                      re-integrating one or more steps at a reduced internal step size",
    },
    CodeInfo {
        code: Code::S402,
        name: "sim-divergence",
        severity: Severity::Error,
        description: "the transient simulation state exceeded the divergence threshold \
                      and could not be repaired by step-halving; the run aborted early \
                      and the result carries the partial trace",
    },
    CodeInfo {
        code: Code::S403,
        name: "sim-fault-injection-active",
        severity: Severity::Note,
        description: "deterministic fault injection perturbed block evaluations during \
                      this run (test/diagnostic mode); traces do not reflect the \
                      unperturbed design",
    },
    CodeInfo {
        code: Code::S404,
        name: "sim-lane-degraded",
        severity: Severity::Warning,
        description: "one or more lanes of a batched simulation retired early with an \
                      unrecoverable numerical fault; the remaining lanes completed \
                      normally and the degraded lanes carry partial traces",
    },
];

impl Code {
    /// The code as printed, e.g. `"I102"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::V001 => "V001",
            Code::V002 => "V002",
            Code::V010 => "V010",
            Code::V011 => "V011",
            Code::V012 => "V012",
            Code::V013 => "V013",
            Code::V014 => "V014",
            Code::V015 => "V015",
            Code::I100 => "I100",
            Code::I101 => "I101",
            Code::I102 => "I102",
            Code::I103 => "I103",
            Code::I104 => "I104",
            Code::I105 => "I105",
            Code::I106 => "I106",
            Code::I107 => "I107",
            Code::I108 => "I108",
            Code::I109 => "I109",
            Code::I110 => "I110",
            Code::I111 => "I111",
            Code::A200 => "A200",
            Code::A201 => "A201",
            Code::A202 => "A202",
            Code::A203 => "A203",
            Code::A204 => "A204",
            Code::A205 => "A205",
            Code::A210 => "A210",
            Code::A211 => "A211",
            Code::A212 => "A212",
            Code::A220 => "A220",
            Code::A221 => "A221",
            Code::O300 => "O300",
            Code::O301 => "O301",
            Code::O303 => "O303",
            Code::S400 => "S400",
            Code::S401 => "S401",
            Code::S402 => "S402",
            Code::S403 => "S403",
            Code::S404 => "S404",
        }
    }

    /// This code's registry row.
    pub fn info(self) -> &'static CodeInfo {
        REGISTRY
            .iter()
            .find(|i| i.code == self)
            .expect("every code has a registry entry")
    }

    /// Short kebab-case name, e.g. `"undriven-port"`.
    pub fn name(self) -> &'static str {
        self.info().name
    }

    /// The severity this code carries unless promoted.
    pub fn default_severity(self) -> Severity {
        self.info().severity
    }
}

impl std::fmt::Display for Code {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Render the registry as the markdown reference table committed at
/// `docs/lint-codes.md`. A test asserts the file matches this output
/// exactly, so regenerating after editing the registry is:
///
/// ```text
/// cargo test -p vase-diag   # fails and prints the expected content
/// ```
pub fn reference_markdown() -> String {
    let mut out = String::new();
    out.push_str("# Lint codes\n\n");
    out.push_str(
        "Stable diagnostic codes emitted by `vase lint` and the in-flow verifier.\n\
         `V0xx` codes come from the frontend, `I1xx` from the VHIF verifier, `A2xx`\n\
         from the annotation/interval analysis (including the `A210`\n\
         mapping-budget report), `O3xx` are informational notes from the\n\
         optimization passes, and `S4xx` report numerical faults detected by the\n\
         simulation runtime. Warnings become errors under\n\
         `--deny warnings`; notes are never promoted.\n\n\
         Retired codes keep their numbers out of use: `O302`, `O304` and `O305`\n\
         went with the `cse`, `coalesce` and `prune-solvers` passes.\n\n\
         This file is generated from `crates/diag/src/code.rs` (`REGISTRY`); a test\n\
         in that crate asserts it stays in sync.\n\n",
    );
    out.push_str("| code | name | severity | description |\n");
    out.push_str("|------|------|----------|-------------|\n");
    for info in REGISTRY {
        // Collapse the multi-line string-literal continuations into
        // single spaces so the table stays one row per code.
        let description = info.description.split_whitespace().collect::<Vec<_>>().join(" ");
        out.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            info.code.as_str(),
            info.name,
            info.severity,
            description
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_sorted_and_unique() {
        assert!(REGISTRY.windows(2).all(|w| w[0].code < w[1].code));
        for info in REGISTRY {
            assert_eq!(info.code.info().name, info.name);
            assert_eq!(info.code.to_string(), info.code.as_str());
            assert!(!info.description.is_empty());
        }
        // as_str matches the group prefix conventions.
        for info in REGISTRY {
            let s = info.code.as_str();
            assert!(
                s.starts_with('V')
                    || s.starts_with('I')
                    || s.starts_with('A')
                    || s.starts_with('O')
                    || s.starts_with('S'),
                "{s}"
            );
            assert_eq!(s.len(), 4, "{s}");
        }
    }

    #[test]
    fn reference_table_lists_every_code() {
        let md = reference_markdown();
        for info in REGISTRY {
            assert!(md.contains(info.code.as_str()), "missing {}", info.code);
            assert!(md.contains(info.name), "missing name {}", info.name);
        }
    }

    #[test]
    fn lint_codes_doc_is_in_sync() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/lint-codes.md");
        let expected = reference_markdown();
        if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
            std::fs::write(path, &expected).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            return;
        }
        let on_disk = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        assert!(
            on_disk == expected,
            "docs/lint-codes.md is out of date; regenerate with \
             UPDATE_SNAPSHOTS=1 cargo test -p vase-diag, expected:\n\n{expected}"
        );
    }
}
