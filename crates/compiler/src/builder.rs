//! The graph builder: tracks the signal-flow graph under construction
//! plus the binding of VASS names to block outputs.

use std::borrow::Cow;
use std::collections::HashMap;
use std::mem::{discriminant, Discriminant};

use vase_frontend::ast::{FunctionDecl, Mode, ObjectClass};
use vase_frontend::names::{Name, Names};
use vase_frontend::sema::SymbolTable;
use vase_frontend::span::Span;
use vase_vhif::{BlockId, BlockKind, SignalFlowGraph};

use crate::error::CompileError;

/// Builds one signal-flow graph, threading an environment that maps
/// each VASS name to the block currently producing its value.
///
/// The environment is a `Vec` indexed by [`Name`], so a snapshot of it
/// (taken around every branch) is a slice copy. Elements of vectors
/// with a static index get names of their own past the end of the
/// file's table ([`GraphBuilder::element`]).
///
/// The environment realizes the paper's sequencing rule (Section 4):
/// instruction order is preserved *iff* the output of the block for an
/// instruction is an input of the block for a following instruction —
/// which falls out of rebinding a name to the newest defining block.
///
/// All emission goes through the builder: [`GraphBuilder::node`] is the
/// canonicalizing path (constant dedup via [`GraphBuilder::const_block`]
/// and value numbering of pure arithmetic), while
/// [`GraphBuilder::raw_node`]/[`GraphBuilder::wire`] bypass
/// canonicalization for blocks that are wired up incrementally
/// (integrator feedback, sampling-structure muxes) or must stay
/// distinct (interface markers, stateful and sampling blocks).
pub struct GraphBuilder<'a> {
    graph: SignalFlowGraph,
    /// The block producing each name's value, by [`Name::index`].
    env: Vec<Option<BlockId>>,
    names: &'a Names,
    /// The `(vector, index)` of each element name, in the order they
    /// were made: element `k` is name `names.len() + k`.
    elements: Vec<(Name, i64)>,
    symbols: &'a SymbolTable,
    functions: HashMap<Name, &'a FunctionDecl>,
    const_cache: HashMap<u64, BlockId>,
    value_numbers: HashMap<ValueKey, BlockId>,
}

/// A value-numbering key: the block kind's tag, its parameter's bits and
/// its drivers in port order.
type ValueKey = (Discriminant<BlockKind>, u64, Vec<BlockId>);

impl<'a> GraphBuilder<'a> {
    /// Create a builder for a graph named `name` over the names, symbols
    /// and functions of one architecture.
    pub fn new(
        name: impl Into<String>,
        names: &'a Names,
        symbols: &'a SymbolTable,
        functions: HashMap<Name, &'a FunctionDecl>,
    ) -> Self {
        GraphBuilder {
            graph: SignalFlowGraph::new(name),
            env: Vec::new(),
            names,
            elements: Vec::new(),
            symbols,
            functions,
            const_cache: HashMap::new(),
            value_numbers: HashMap::new(),
        }
    }

    /// Read access to the graph under construction.
    pub fn graph(&self) -> &SignalFlowGraph {
        &self.graph
    }

    /// Take the finished graph out of the builder.
    pub fn finish(self) -> SignalFlowGraph {
        self.graph
    }

    /// The architecture symbol table.
    pub fn symbols(&self) -> &'a SymbolTable {
        self.symbols
    }

    /// The file's name table.
    pub fn names(&self) -> &'a Names {
        self.names
    }

    /// The spelling of `name`; an element name reads `vector[index]`.
    pub fn spelling(&self, name: Name) -> Cow<'a, str> {
        match name.index().checked_sub(self.names.len()) {
            None => Cow::Borrowed(self.names.resolve(name)),
            Some(k) => {
                let (vector, index) = self.elements[k];
                Cow::Owned(format!("{}[{index}]", self.names.resolve(vector)))
            }
        }
    }

    /// The name of element `index` of vector `vector`, made on first
    /// use.
    pub fn element(&mut self, vector: Name, index: i64) -> Name {
        let k = match self.elements.iter().position(|&e| e == (vector, index)) {
            Some(k) => k,
            None => {
                self.elements.push((vector, index));
                self.elements.len() - 1
            }
        };
        Name::from_index(self.names.len() + k)
    }

    /// Look up a visible function.
    pub fn function(&self, name: Name) -> Option<&'a FunctionDecl> {
        self.functions.get(&name).copied()
    }

    /// The block currently bound to `name`.
    fn binding(&self, name: Name) -> Option<BlockId> {
        self.env.get(name.index()).copied().flatten()
    }

    /// Whether `name` currently has a defining block.
    pub fn is_defined(&self, name: Name) -> bool {
        self.binding(name).is_some()
    }

    /// Bind `name` to the output of `id` (rebinding shadows the old
    /// producer for subsequent readers — the SSA-like threading that
    /// realizes instruction sequencing).
    pub fn define(&mut self, name: Name, id: BlockId) {
        if name.index() >= self.env.len() {
            self.env.resize(name.index() + 1, None);
        }
        self.env[name.index()] = Some(id);
    }

    /// Remove a binding (used to scope loop-local names).
    pub fn undefine(&mut self, name: Name) {
        if let Some(slot) = self.env.get_mut(name.index()) {
            *slot = None;
        }
    }

    /// Snapshot of the current bindings (used by branch-local
    /// lowering), indexed by [`Name::index`].
    pub fn bindings(&self) -> Vec<Option<BlockId>> {
        self.env.clone()
    }

    /// Restore bindings from a snapshot.
    pub fn restore_bindings(&mut self, snapshot: Vec<Option<BlockId>>) {
        self.env = snapshot;
    }

    /// The block producing `name`, materializing sources on demand:
    ///
    /// * `in`/`inout` quantity ports become [`BlockKind::Input`] blocks,
    /// * *signals* become [`BlockKind::ControlInput`] blocks,
    /// * constants with known values become [`BlockKind::Const`] blocks.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::UseBeforeDef`] when `name` has no binding
    /// and cannot be materialized (e.g. a local quantity no statement
    /// has defined yet — the caller retries after other statements are
    /// lowered).
    pub fn source(&mut self, name: Name, span: Span) -> Result<BlockId, CompileError> {
        if let Some(id) = self.binding(name) {
            return Ok(id);
        }
        let use_before_def = |b: &Self| CompileError::UseBeforeDef {
            name: b.spelling(name).into_owned(),
            span,
        };
        let Some(sym) = self.symbols.get(name) else {
            return Err(use_before_def(self));
        };
        let id = match sym.class {
            ObjectClass::Quantity if sym.is_port && sym.mode != Some(Mode::Out) => {
                self.graph.add(BlockKind::Input { name: sym.name.clone() })
            }
            ObjectClass::Signal => {
                self.graph.add(BlockKind::ControlInput { name: sym.name.clone() })
            }
            ObjectClass::Constant => match sym.const_value {
                Some(v) => self.const_block(v),
                None => {
                    return Err(CompileError::NotStatic {
                        what: format!("constant `{}` has no foldable value", sym.name),
                        span,
                    })
                }
            },
            _ => return Err(use_before_def(self)),
        };
        self.define(name, id);
        Ok(id)
    }

    /// A (deduplicated) constant source block for `value`.
    pub fn const_block(&mut self, value: f64) -> BlockId {
        let bits = value.to_bits();
        if let Some(&id) = self.const_cache.get(&bits) {
            return id;
        }
        let id = self.graph.add(BlockKind::Const { value });
        self.const_cache.insert(bits, id);
        id
    }

    /// Add a block with its inputs connected to `inputs` (in port
    /// order). Pure arithmetic blocks are value-numbered: requesting
    /// the same operation on the same drivers returns the existing
    /// block instead of emitting a duplicate.
    ///
    /// # Errors
    ///
    /// Propagates connection errors (arity/class violations).
    pub fn node(&mut self, kind: BlockKind, inputs: &[BlockId]) -> Result<BlockId, CompileError> {
        let vn_key = value_key(&kind, inputs);
        if let Some(key) = &vn_key {
            if let Some(&id) = self.value_numbers.get(key) {
                return Ok(id);
            }
        }
        let id = self.graph.add(kind);
        for (port, &input) in inputs.iter().enumerate() {
            self.graph.connect(input, id, port)?;
        }
        if let Some(key) = vn_key {
            self.value_numbers.insert(key, id);
        }
        Ok(id)
    }

    /// Add a block *without* canonicalization — for blocks that must
    /// stay distinct (stateful blocks, sampling structures) or whose
    /// inputs are wired later (integrator feedback).
    pub fn raw_node(&mut self, kind: BlockKind) -> BlockId {
        self.graph.add(kind)
    }

    /// Connect `from`'s output to port `port` of `to`.
    ///
    /// # Errors
    ///
    /// Propagates connection errors (arity/class violations).
    pub fn wire(&mut self, from: BlockId, to: BlockId, port: usize) -> Result<(), CompileError> {
        self.graph.connect(from, to, port)?;
        Ok(())
    }

    /// The label of `id`, if any.
    pub fn label(&self, id: BlockId) -> Option<&str> {
        self.graph.block(id).label.as_deref()
    }

    /// Label block `id`.
    pub fn set_label(&mut self, id: BlockId, label: impl Into<String>) {
        self.graph.set_label(id, label);
    }

    /// The interface block (input/output/control-input) named `name`.
    pub fn find_interface(&self, name: &str) -> Option<BlockId> {
        self.graph.find_interface(name)
    }
}

/// The value-numbering key of a block of this kind fed by `inputs`, when
/// two such blocks always compute bit-identical outputs and may share
/// one block. Stateful blocks, interface markers, control-class blocks,
/// and sampling structures get none — they carry identity beyond their
/// value.
fn value_key(kind: &BlockKind, inputs: &[BlockId]) -> Option<ValueKey> {
    let param = match *kind {
        // Every NaN is one parameter, whatever its payload: a NaN gain
        // or level yields NaN either way.
        BlockKind::Scale { gain: p } | BlockKind::Limiter { level: p } if p.is_nan() => {
            f64::NAN.to_bits()
        }
        BlockKind::Scale { gain: p } | BlockKind::Limiter { level: p } => p.to_bits(),
        BlockKind::Add { arity } => arity as u64,
        BlockKind::Sub
        | BlockKind::Mul
        | BlockKind::Div
        | BlockKind::Log
        | BlockKind::Antilog
        | BlockKind::Abs => 0,
        _ => return None,
    };
    Some((discriminant(kind), param, inputs.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vase_frontend::{analyze, parse_design_file};

    /// Run `f` on a builder over a small architecture; `f` gets the
    /// name of each identifier it asks for.
    fn with_builder(f: impl FnOnce(&mut GraphBuilder<'_>, &dyn Fn(&str) -> Name)) {
        let design = parse_design_file(
            "entity e is port (quantity x : in real is voltage;
                               quantity y : out real is voltage;
                               signal s : in bit);
             end entity;
             architecture a of e is
               quantity q : real;
               constant k : real := 2.5;
             begin
               y == x * k;
             end architecture;",
        )
        .expect("parses");
        let analyzed = analyze(&design).expect("analyzes");
        let arch = analyzed.architecture_of("e").expect("arch");
        let names = &analyzed.design.names;
        let mut b = GraphBuilder::new("t", names, &arch.symbols, HashMap::new());
        f(&mut b, &|text| names.lookup(text).expect("interned"));
    }

    #[test]
    fn in_port_materializes_input_block() {
        with_builder(|b, n| {
            let id = b.source(n("x"), Span::synthetic()).expect("x");
            assert!(matches!(b.graph().kind(id), BlockKind::Input { name } if name == "x"));
            // cached on second lookup
            assert_eq!(b.source(n("x"), Span::synthetic()).expect("x"), id);
        });
    }

    #[test]
    fn signal_materializes_control_input() {
        with_builder(|b, n| {
            let id = b.source(n("s"), Span::synthetic()).expect("s");
            assert!(matches!(b.graph().kind(id), BlockKind::ControlInput { name } if name == "s"));
        });
    }

    #[test]
    fn constant_materializes_const_block() {
        with_builder(|b, n| {
            let id = b.source(n("k"), Span::synthetic()).expect("k");
            assert!(matches!(b.graph().kind(id), BlockKind::Const { value } if *value == 2.5));
        });
    }

    #[test]
    fn const_blocks_are_deduplicated() {
        with_builder(|b, _| {
            let a = b.const_block(1.5);
            let c = b.const_block(1.5);
            let d = b.const_block(2.5);
            assert_eq!(a, c);
            assert_ne!(a, d);
        });
    }

    #[test]
    fn undefined_local_quantity_errors() {
        with_builder(|b, n| {
            let err = b.source(n("q"), Span::synthetic()).unwrap_err();
            assert!(matches!(err, CompileError::UseBeforeDef { .. }));
        });
    }

    #[test]
    fn define_shadows_source() {
        with_builder(|b, n| {
            let c = b.const_block(1.0);
            b.define(n("q"), c);
            assert_eq!(b.source(n("q"), Span::synthetic()).expect("q"), c);
            b.undefine(n("q"));
            assert!(b.source(n("q"), Span::synthetic()).is_err());
        });
    }

    #[test]
    fn node_connects_all_ports() {
        with_builder(|b, n| {
            let x = b.source(n("x"), Span::synthetic()).expect("x");
            let k = b.const_block(3.0);
            let add = b.node(BlockKind::Add { arity: 2 }, &[x, k]).expect("add");
            assert_eq!(b.graph().block_inputs(add), &[Some(x), Some(k)]);
        });
    }

    #[test]
    fn pure_nodes_are_value_numbered() {
        with_builder(|b, n| {
            let x = b.source(n("x"), Span::synthetic()).expect("x");
            let a = b.node(BlockKind::Scale { gain: 2.0 }, &[x]).expect("scale");
            let c = b.node(BlockKind::Scale { gain: 2.0 }, &[x]).expect("scale");
            assert_eq!(a, c, "identical pure nodes share one block");
            // Different gain bit patterns stay distinct (0.0 vs -0.0).
            let z = b.node(BlockKind::Scale { gain: 0.0 }, &[x]).expect("scale");
            let nz = b.node(BlockKind::Scale { gain: -0.0 }, &[x]).expect("scale");
            assert_ne!(z, nz);
            // Every NaN is one parameter, whatever its payload.
            let nan = b.node(BlockKind::Scale { gain: f64::NAN }, &[x]).expect("scale");
            let other = f64::from_bits(f64::NAN.to_bits() ^ 1);
            assert!(other.is_nan());
            let other = b.node(BlockKind::Scale { gain: other }, &[x]).expect("scale");
            assert_eq!(nan, other);
            // Same parameter bits on another kind stay distinct.
            let limiter = b.node(BlockKind::Limiter { level: 2.0 }, &[x]).expect("limiter");
            assert_ne!(a, limiter);
        });
    }

    #[test]
    fn stateful_nodes_are_never_shared() {
        with_builder(|b, n| {
            let x = b.source(n("x"), Span::synthetic()).expect("x");
            let i1 =
                b.node(BlockKind::Integrate { gain: 1.0, initial: 0.0 }, &[x]).expect("integ");
            let i2 =
                b.node(BlockKind::Integrate { gain: 1.0, initial: 0.0 }, &[x]).expect("integ");
            assert_ne!(i1, i2, "integrators keep their identity");
        });
    }
}
