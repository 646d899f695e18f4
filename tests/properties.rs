//! Property-style tests over the core data structures and algorithms:
//! parser/printer round-trips, DAE-isolation numerical inverses,
//! signal-flow graph invariants, and branch-and-bound admissibility on
//! random workloads.
//!
//! The cases are generated from seed-driven SplitMix64 streams instead
//! of proptest (unavailable in the offline build environment); failures
//! print the case seed so any run is reproducible bit-for-bit.

use vase::archgen::{map_graph, MapperConfig};
use vase::estimate::Estimator;
use vase::frontend::ast::{BinaryOp, Expr, ExprKind, UnaryOp};
use vase::frontend::names::{Name, Names};
use vase::frontend::parse_expression;
use vase::frontend::span::Span;
use vase::sim::Stimulus;
use vase::vhif::{BlockKind, SignalFlowGraph};

// ----------------------------------------------------------------- rng

/// Deterministic SplitMix64 stream used by every generator below.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..len` (len > 0).
    fn index(&mut self, len: usize) -> usize {
        (self.next_u64() % len as u64) as usize
    }

    /// Uniform integer in `lo..hi`.
    fn int_in(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    /// Uniform float in `[lo, hi)`.
    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }
}

/// Per-case seeds for a named suite: decorrelated, reproducible.
fn case_seeds(suite: u64, cases: usize) -> impl Iterator<Item = u64> {
    (0..cases as u64).map(move |i| suite ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

// ---------------------------------------------------------------- expr

/// The names `a b c x`, interned into `names`.
fn leaf_names(names: &mut Names) -> [Name; 4] {
    ["a", "b", "c", "x"].map(|leaf| names.intern(leaf))
}

/// A well-formed analog expression over a fixed name set, with
/// recursion bounded by `depth` (mirrors the old proptest strategy:
/// leaves are small ints, reals, or one of `leaves`).
fn random_expr(rng: &mut Rng, leaves: &[Name; 4], depth: usize) -> Expr {
    if depth == 0 || rng.index(3) == 0 {
        return match rng.index(3) {
            0 => Expr::new(ExprKind::Int(rng.int_in(1, 100)), Span::synthetic()),
            1 => Expr::new(ExprKind::Real(rng.f64_in(0.1, 100.0)), Span::synthetic()),
            _ => Expr::name(leaves[rng.index(4)]),
        };
    }
    match rng.index(3) {
        0 => {
            let op = [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div]
                [rng.index(4)];
            let lhs = Box::new(random_expr(rng, leaves, depth - 1));
            let rhs = Box::new(random_expr(rng, leaves, depth - 1));
            Expr::new(ExprKind::Binary { op, lhs, rhs }, Span::synthetic())
        }
        1 => Expr::new(
            ExprKind::Unary {
                op: UnaryOp::Neg,
                operand: Box::new(random_expr(rng, leaves, depth - 1)),
            },
            Span::synthetic(),
        ),
        _ => Expr::new(
            ExprKind::Unary {
                op: UnaryOp::Abs,
                operand: Box::new(random_expr(rng, leaves, depth - 1)),
            },
            Span::synthetic(),
        ),
    }
}

/// Printing an expression and re-parsing it yields the same expression
/// (up to spans), so `Expr::display` is a faithful surface syntax.
#[test]
fn expr_print_parse_roundtrip() {
    let mut names = Names::new();
    let leaves = leaf_names(&mut names);
    for seed in case_seeds(0x000e_0001, 256) {
        let e = random_expr(&mut Rng::new(seed), &leaves, 4);
        let printed = e.display(&names).to_string();
        let reparsed = parse_expression(&printed, &mut names).unwrap_or_else(|err| {
            panic!("seed={seed:#x}: printed form `{printed}` failed to parse: {err}")
        });
        assert_eq!(reparsed.display(&names).to_string(), printed, "seed={seed:#x}");
    }
}

/// Constant folding agrees with direct evaluation for closed
/// expressions.
#[test]
fn const_fold_matches_evaluation() {
    fn eval(e: &Expr) -> Option<f64> {
        match &e.kind {
            ExprKind::Int(v) => Some(*v as f64),
            ExprKind::Real(v) => Some(*v),
            ExprKind::Name(_) => None,
            ExprKind::Unary { op, operand } => {
                let v = eval(operand)?;
                match op {
                    UnaryOp::Neg => Some(-v),
                    UnaryOp::Plus => Some(v),
                    UnaryOp::Abs => Some(v.abs()),
                    UnaryOp::Not => None,
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let a = eval(lhs)?;
                let b = eval(rhs)?;
                match op {
                    BinaryOp::Add => Some(a + b),
                    BinaryOp::Sub => Some(a - b),
                    BinaryOp::Mul => Some(a * b),
                    BinaryOp::Div => Some(a / b),
                    _ => None,
                }
            }
            _ => None,
        }
    }
    for seed in case_seeds(0x000e_0002, 256) {
        let e = random_expr(&mut Rng::new(seed), &leaf_names(&mut Names::new()), 4);
        match (e.const_fold(), eval(&e)) {
            (Some(f), Some(direct)) => {
                let ok = (f - direct).abs() <= 1e-9 * direct.abs().max(1.0)
                    || (f.is_nan() && direct.is_nan())
                    || (f.is_infinite() && direct.is_infinite());
                assert!(ok, "seed={seed:#x}: fold {f} vs eval {direct}");
            }
            (None, None) => {}
            // const_fold may be more conservative but never *more*
            // aggressive than direct evaluation on supported ops.
            (None, Some(_)) => panic!("seed={seed:#x}: fold missed a closed expression"),
            (Some(_), None) => panic!("seed={seed:#x}: fold invented a value"),
        }
    }
}

// -------------------------------------------------------------- solver

/// An invertible expression path around the unknown `x`: wrap x in 1-4
/// random invertible operations with nonzero consts in [0.5, 4.0).
fn random_solvable_rhs(rng: &mut Rng, x: Name) -> Expr {
    let wraps = 1 + rng.index(4);
    let mut e = Expr::name(x);
    for _ in 0..wraps {
        let k = rng.f64_in(0.5, 4.0);
        let konst = Expr::new(ExprKind::Real(k), Span::synthetic());
        let kind = match rng.index(4) {
            0 => ExprKind::Binary {
                op: BinaryOp::Add,
                lhs: Box::new(e),
                rhs: Box::new(konst),
            },
            1 => ExprKind::Binary {
                op: BinaryOp::Sub,
                lhs: Box::new(e),
                rhs: Box::new(konst),
            },
            2 => ExprKind::Binary {
                op: BinaryOp::Mul,
                lhs: Box::new(konst),
                rhs: Box::new(e),
            },
            _ => ExprKind::Binary {
                op: BinaryOp::Div,
                lhs: Box::new(e),
                rhs: Box::new(konst),
            },
        };
        e = Expr::new(kind, Span::synthetic());
    }
    e
}

fn eval_with_var(e: &Expr, var: Name, value: f64) -> f64 {
    match &e.kind {
        ExprKind::Int(v) => *v as f64,
        ExprKind::Real(v) => *v,
        ExprKind::Name(id) if id.name == var => value,
        ExprKind::Name(_) => f64::NAN,
        ExprKind::Unary { op, operand } => {
            let v = eval_with_var(operand, var, value);
            match op {
                UnaryOp::Neg => -v,
                UnaryOp::Plus => v,
                UnaryOp::Abs => v.abs(),
                UnaryOp::Not => f64::NAN,
            }
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let a = eval_with_var(lhs, var, value);
            let b = eval_with_var(rhs, var, value);
            match op {
                BinaryOp::Add => a + b,
                BinaryOp::Sub => a - b,
                BinaryOp::Mul => a * b,
                BinaryOp::Div => a / b,
                _ => f64::NAN,
            }
        }
        _ => f64::NAN,
    }
}

/// Isolating `x` from `y == f(x)` yields a true inverse: for any x₀,
/// evaluating the isolated expression at y = f(x₀) returns x₀.
#[test]
fn isolation_is_numerical_inverse() {
    use vase::compiler::solver::{isolate, Equation, Solution};
    let mut names = Names::new();
    let [x, y] = ["x", "y"].map(|v| names.intern(v));
    for seed in case_seeds(0x50_1ce2, 256) {
        let mut rng = Rng::new(seed);
        let rhs = random_solvable_rhs(&mut rng, x);
        let x0 = rng.f64_in(0.5, 8.0);
        let eq = Equation {
            lhs: Expr::name(y),
            rhs: rhs.clone(),
            span: Span::synthetic(),
        };
        let sol = isolate(&eq, x).expect("single-occurrence x is isolatable");
        let Solution::Direct(inverse) = sol else {
            panic!("seed={seed:#x}: expected a direct solution");
        };
        let y0 = eval_with_var(&rhs, x, x0);
        if !y0.is_finite() {
            continue; // mirrors the old prop_assume!
        }
        let recovered = eval_with_var(&inverse, y, y0);
        assert!(
            (recovered - x0).abs() <= 1e-6 * x0.abs().max(1.0),
            "seed={seed:#x}: f(x0)={y0}, recovered {recovered} != {x0} via {}",
            inverse.display(&names)
        );
    }
}

// --------------------------------------------------------------- graph

/// A random layered combinational signal-flow graph with one output:
/// 1-3 inputs, 1-9 ops from Scale/Add/Sub/Mul, deterministic wiring.
fn random_graph(rng: &mut Rng) -> SignalFlowGraph {
    let n_inputs = 1 + rng.index(3);
    let n_ops = 1 + rng.index(9);
    let mut g = SignalFlowGraph::new("random");
    let mut pool = Vec::new();
    for i in 0..n_inputs {
        pool.push(g.add(BlockKind::Input { name: format!("in{i}") }));
    }
    for i in 0..n_ops {
        let op = rng.index(4);
        let gain = rng.f64_in(0.25, 8.0);
        let a = pool[i % pool.len()];
        let b = pool[(i * 7 + 1) % pool.len()];
        let id = match op {
            0 => {
                let id = g.add(BlockKind::Scale { gain });
                g.connect(a, id, 0).expect("wire");
                id
            }
            1 => {
                let id = g.add(BlockKind::Add { arity: 2 });
                g.connect(a, id, 0).expect("wire");
                g.connect(b, id, 1).expect("wire");
                id
            }
            2 => {
                let id = g.add(BlockKind::Sub);
                g.connect(a, id, 0).expect("wire");
                g.connect(b, id, 1).expect("wire");
                id
            }
            _ => {
                let id = g.add(BlockKind::Mul);
                g.connect(a, id, 0).expect("wire");
                g.connect(b, id, 1).expect("wire");
                id
            }
        };
        pool.push(id);
    }
    let out = g.add(BlockKind::Output { name: "y".into() });
    let last = *pool.last().expect("nonempty");
    g.connect(last, out, 0).expect("wire");
    g
}

/// Random layered graphs are valid-by-construction except for
/// possibly-unconsumed blocks; topo order covers every block once and
/// respects data edges.
#[test]
fn topo_order_respects_edges() {
    for seed in case_seeds(0x9_0001, 256) {
        let g = random_graph(&mut Rng::new(seed));
        let order = g.topo_order().expect("layered graphs are acyclic");
        assert_eq!(order.len(), g.len(), "seed={seed:#x}");
        let position: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &b)| (b, i)).collect();
        for (id, block) in g.iter() {
            if block.kind.is_stateful() {
                continue;
            }
            for driver in g.block_inputs(id).iter().flatten() {
                assert!(
                    position[driver] < position[&id],
                    "seed={seed:#x}: {driver} must precede {id}"
                );
            }
        }
    }
}

/// The upstream cone of the output is closed under taking drivers.
#[test]
fn upstream_cone_is_closed() {
    for seed in case_seeds(0x9_0002, 256) {
        let g = random_graph(&mut Rng::new(seed));
        let out = g.outputs()[0];
        let cone = g.upstream_cone(out);
        for &b in &cone {
            for driver in g.block_inputs(b).iter().flatten() {
                assert!(cone.contains(driver), "seed={seed:#x}");
            }
        }
    }
}

/// Branch-and-bound with the bounding rule finds the same optimum as
/// the exhaustive search on random workloads (the bound is admissible),
/// and never visits more nodes.
#[test]
fn bounding_is_admissible_on_random_graphs() {
    for seed in case_seeds(0x9_0003, 64) {
        let g = random_graph(&mut Rng::new(seed));
        let estimator = Estimator::default();
        let bounded = map_graph(&g, &estimator, &MapperConfig::default());
        // `exhaustive_memoized` (not the truly exhaustive search) keeps
        // the no-bounding baseline tractable across many random cases.
        let exhaustive = map_graph(&g, &estimator, &MapperConfig::exhaustive_memoized());
        match (bounded, exhaustive) {
            (Ok(b), Ok(e)) => {
                assert_eq!(b.netlist, e.netlist, "seed={seed:#x}: bounding changed the optimum");
                assert!(
                    b.stats.visited_nodes <= e.stats.visited_nodes,
                    "seed={seed:#x}"
                );
                b.netlist.validate().expect("valid netlist");
                // Every operation block is implemented by exactly one
                // component.
                let mut covered = std::collections::HashSet::new();
                for c in &b.netlist.components {
                    for blk in &c.implements {
                        assert!(covered.insert(*blk), "seed={seed:#x}: block covered twice");
                    }
                }
                let ops = g.iter().filter(|(_, b)| !b.kind.is_interface()).count();
                assert_eq!(covered.len(), ops, "seed={seed:#x}: not all blocks covered");
            }
            (Err(b), Err(e)) => assert_eq!(b, e, "seed={seed:#x}"),
            (b, e) => panic!("seed={seed:#x}: disagreement: {b:?} vs {e:?}"),
        }
    }
}

// ------------------------------------------------------------ stimulus

/// Stimuli are total functions: finite time in, finite value out.
#[test]
fn stimuli_are_finite() {
    for seed in case_seeds(0x57_1b01, 256) {
        let mut rng = Rng::new(seed);
        let t = rng.f64_in(0.0, 10.0);
        let amp = rng.f64_in(0.0, 10.0);
        let freq = rng.f64_in(0.1, 1e6);
        let period = rng.f64_in(1e-6, 1.0);
        let duty = rng.f64_in(0.01, 0.99);
        let stimuli = [
            Stimulus::Constant { level: amp },
            Stimulus::sine(amp, freq),
            Stimulus::Step { before: -amp, after: amp, at: period },
            Stimulus::Ramp { from: -amp, to: amp, duration: period },
            Stimulus::Pulse { low: -amp, high: amp, period, duty },
        ];
        for s in stimuli {
            assert!(s.at(t).is_finite(), "seed={seed:#x}: {s:?} at {t}");
        }
    }
}

/// Random string from a charset, length `0..=max_len`.
fn random_string(rng: &mut Rng, charset: &[char], max_len: usize) -> String {
    let len = rng.index(max_len + 1);
    (0..len).map(|_| charset[rng.index(charset.len())]).collect()
}

/// Lexing arbitrary input never panics.
#[test]
fn lexer_is_total() {
    // Printable ASCII plus whitespace/control and some multibyte chars,
    // standing in for proptest's arbitrary `.{0,200}` strings.
    let mut charset: Vec<char> = (' '..='~').collect();
    charset.extend(['\n', '\t', '\r', '\0', 'é', 'Ω', '∿', '🦀']);
    for seed in case_seeds(0x1e_0001, 256) {
        let mut rng = Rng::new(seed);
        let src = random_string(&mut rng, &charset, 200);
        let _ = vase::frontend::lexer::lex(&src, &mut Names::new());
    }
}

/// Parsing arbitrary token soup never panics.
#[test]
fn parser_is_total() {
    let charset: Vec<char> = "abcdefghijklmnopqrstuvwxyz0123456789+*/()=<>;:., '"
        .chars()
        .collect();
    for seed in case_seeds(0x9a_0001, 256) {
        let mut rng = Rng::new(seed);
        let src = random_string(&mut rng, &charset, 120);
        let _ = vase::frontend::parse_design_file(&src);
        let _ = parse_expression(&src, &mut Names::new());
    }
}
