//! The seeded VASS design generator shared by the pins and oracles over
//! generated input (`tests/compile_pins.rs`,
//! `crates/bench/tests/opt_oracle.rs` and
//! `crates/bench/tests/guided_oracle.rs`, which include this file as a
//! module). `generate(seed)` is a pure
//! function of its seed, so a seed names one design everywhere.
//!
//! No shipped design records a solver candidate, so the generator
//! emits what makes one: coupled `a'dot + b'dot == f` equations whose
//! two states can both be claimed, and equations between two `inout`
//! ports, either of which can be defined. It also emits `q == f`,
//! `f == q` and `q + t == f` chains, `q'dot == f` states, `inout` ports
//! that are defined or read, and one- and multi-quantity simultaneous
//! `if` blocks, in shuffled order.

/// SplitMix64, so the generated corpus is fixed by its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    fn pick<'a>(&mut self, items: &'a [String]) -> &'a str {
        &items[self.below(items.len())]
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A sum of one to three terms over `pool`, some scaled.
fn expr(rng: &mut Rng, pool: &[String]) -> String {
    let mut terms = Vec::new();
    for i in 0..1 + rng.below(3) {
        let name = rng.pick(pool);
        let term = match rng.below(3) {
            0 => format!("{}.5 * {name}", 1 + rng.below(3)),
            _ => name.to_owned(),
        };
        let sign = if i > 0 && rng.chance(30) { " - " } else { " + " };
        if i > 0 {
            terms.push(sign.to_owned());
        }
        terms.push(term);
    }
    terms.concat()
}

/// One defining statement for `q`: `q == f`, `f == q` or `q + t == f`.
fn chain(rng: &mut Rng, q: &str, pool: &[String]) -> String {
    let f = expr(rng, pool);
    match rng.below(3) {
        0 => format!("{q} == {f};"),
        1 => format!("{f} == {q};"),
        _ => format!("{q} + {} == {f};", rng.pick(pool)),
    }
}

/// A generated design: every local quantity and the output get one
/// defining statement (a chain, a state, a coupled state pair or a
/// simultaneous `if`). Sources come from the inputs, a constant and the
/// quantities defined so far; now and then any local joins them, so
/// some designs have algebraic loops and fail.
pub fn generate(seed: u64) -> String {
    let mut rng = Rng(seed);
    let inouts: Vec<String> =
        (0..[0, 0, 0, 1, 1, 2][rng.below(6)]).map(|i| format!("z{i}")).collect();
    let locals: Vec<String> = (0..2 + rng.below(7)).map(|i| format!("q{i}")).collect();
    let mut known: Vec<String> = vec!["x0".into(), "x1".into(), "k".into()];
    let mut targets: Vec<String> = locals.clone();
    let mut stmts = Vec::new();
    if inouts.len() == 2 && rng.chance(50) {
        // Two inout ports in one equation nothing else reads: either
        // can be defined, so the solver decision has a choice.
        stmts.push(format!("z0 == z1 + {};", expr(&mut rng, &known)));
    } else {
        for z in &inouts {
            if rng.chance(50) {
                targets.push(z.clone());
            } else {
                known.push(z.clone());
            }
        }
    }
    rng.shuffle(&mut targets);

    while let Some(q) = targets.pop() {
        let mut pool = known.clone();
        if rng.chance(15) {
            pool.push(locals[rng.below(locals.len())].clone());
        }
        match rng.below(6) {
            0 | 5 if !targets.is_empty() => {
                let b = targets.pop().expect("nonempty");
                // A source between the two states spaces their
                // candidates apart, so a later rotation picks again.
                let between =
                    if rng.chance(40) { format!("{} + ", rng.pick(&pool)) } else { String::new() };
                stmts.push(format!("{q}'dot + {between}{b}'dot == {};", expr(&mut rng, &pool)));
                stmts.push(match rng.below(3) {
                    0 => format!("{b}'dot == {};", expr(&mut rng, &pool)),
                    _ => format!("{q}'dot - {b}'dot == {};", expr(&mut rng, &pool)),
                });
                known.push(b);
            }
            1 => {
                pool.push(q.clone());
                stmts.push(format!("{q}'dot == {};", expr(&mut rng, &pool)));
            }
            2 => {
                let mut defined = vec![q.clone()];
                while defined.len() < 3 && !targets.is_empty() && rng.chance(50) {
                    defined.push(targets.pop().expect("nonempty"));
                }
                let body = |rng: &mut Rng| {
                    let mut eqs: Vec<String> =
                        defined.iter().map(|d| chain(rng, d, &pool)).collect();
                    rng.shuffle(&mut eqs);
                    eqs.join("\n    ")
                };
                let then_body = body(&mut rng);
                let else_body = body(&mut rng);
                stmts.push(format!(
                    "if (s = '1') use\n    {then_body}\n  else\n    {else_body}\n  end use;"
                ));
                known.extend(defined.into_iter().skip(1));
            }
            _ => stmts.push(chain(&mut rng, &q, &pool)),
        }
        known.push(q);
    }
    stmts.push(format!("y == {};", expr(&mut rng, &known)));
    for stmt in &mut stmts {
        if rng.chance(10) && !stmt.starts_with("if") {
            *stmt = format!("l{}: {stmt}", rng.below(1000));
        }
    }
    rng.shuffle(&mut stmts);

    let inout_ports: String =
        inouts.iter().map(|z| format!("quantity {z} : inout real is voltage;\n        ")).collect();
    format!(
        "entity gen is
  port (quantity x0 : in real is voltage;
        quantity x1 : in real is voltage;
        {inout_ports}quantity y : out real is voltage;
        signal s : in bit);
end entity;
architecture a of gen is
  quantity {} : real;
  constant k : real := 2.0;
begin
  {}
end architecture;
",
        locals.join(", "),
        stmts.join("\n  ")
    )
}
