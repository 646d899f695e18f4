//! The signal-flow graph: blocks plus single-driver port connections.

use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::block::{Block, BlockKind, SignalClass};
use crate::error::VhifError;

/// Identifier of a block within one [`SignalFlowGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockId(pub(crate) u32);

impl BlockId {
    /// Build a block id from a raw index (must belong to the graph it
    /// is used with).
    pub fn from_index(index: usize) -> Self {
        BlockId(index as u32)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A signal-flow graph for (one mode of) the continuous-time part of a
/// VHIF design. Blocks have exactly one output; each input port has
/// exactly one driver.
///
/// # Examples
///
/// ```
/// use vase_vhif::{BlockKind, SignalFlowGraph};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = SignalFlowGraph::new("amp");
/// let x = g.add(BlockKind::Input { name: "x".into() });
/// let k = g.add(BlockKind::Scale { gain: 10.0 });
/// let y = g.add(BlockKind::Output { name: "y".into() });
/// g.connect(x, k, 0)?;
/// g.connect(k, y, 0)?;
/// g.validate()?;
/// assert_eq!(g.operation_count(), 1); // the scaler
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SignalFlowGraph {
    name: String,
    blocks: Vec<Block>,
    /// `inputs[b][p]` is the driver of port `p` of block `b`.
    inputs: Vec<Vec<Option<BlockId>>>,
}

impl SignalFlowGraph {
    /// An empty graph named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        SignalFlowGraph { name: name.into(), blocks: Vec::new(), inputs: Vec::new() }
    }

    /// The graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add an unlabelled block; returns its id.
    pub fn add(&mut self, kind: BlockKind) -> BlockId {
        self.add_block(Block::new(kind))
    }

    /// Add a labelled block; returns its id.
    pub fn add_labelled(&mut self, kind: BlockKind, label: impl Into<String>) -> BlockId {
        self.add_block(Block::labelled(kind, label))
    }

    /// Add a block; returns its id.
    pub fn add_block(&mut self, block: Block) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.inputs.push(vec![None; block.kind.input_arity()]);
        self.blocks.push(block);
        id
    }

    /// Connect the output of `from` to input port `port` of `to`.
    ///
    /// # Errors
    ///
    /// Fails if either id is out of range, `port` exceeds the arity of
    /// `to`, the port is already driven, or the signal classes are
    /// incompatible (a control port must be driven by a control-class
    /// output and a data port by an analog output).
    pub fn connect(&mut self, from: BlockId, to: BlockId, port: usize) -> Result<(), VhifError> {
        let n = self.blocks.len();
        if from.index() >= n || to.index() >= n {
            return Err(VhifError::UnknownBlock);
        }
        let to_kind = &self.blocks[to.index()].kind;
        if port >= to_kind.input_arity() {
            return Err(VhifError::BadPort {
                block: to.to_string(),
                port,
                arity: to_kind.input_arity(),
            });
        }
        let want = if port >= to_kind.data_inputs() {
            SignalClass::Control
        } else {
            SignalClass::Analog
        };
        let got = self.blocks[from.index()].kind.output_class();
        if want != got {
            return Err(VhifError::ClassMismatch {
                from: from.to_string(),
                to: to.to_string(),
                port,
                want,
                got,
            });
        }
        let slot = &mut self.inputs[to.index()][port];
        if slot.is_some() {
            return Err(VhifError::PortAlreadyDriven { block: to.to_string(), port });
        }
        *slot = Some(from);
        Ok(())
    }

    /// The block with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// The kind of block `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn kind(&self, id: BlockId) -> &BlockKind {
        &self.blocks[id.index()].kind
    }

    /// The drivers of each input port of `id` (in port order).
    pub fn block_inputs(&self, id: BlockId) -> &[Option<BlockId>] {
        &self.inputs[id.index()]
    }

    /// The drivers of each input port of `id`, or `None` when the port
    /// table does not cover `id` (possible only in malformed
    /// deserialized graphs — analyses that must not panic use this).
    pub fn try_block_inputs(&self, id: BlockId) -> Option<&[Option<BlockId>]> {
        self.inputs.get(id.index()).map(Vec::as_slice)
    }

    /// All `(consumer, port)` pairs fed by `id`'s output.
    pub fn fanout(&self, id: BlockId) -> Vec<(BlockId, usize)> {
        let mut out = Vec::new();
        for (b, ports) in self.inputs.iter().enumerate() {
            for (p, driver) in ports.iter().enumerate() {
                if *driver == Some(id) {
                    out.push((BlockId(b as u32), p));
                }
            }
        }
        out
    }

    /// Number of blocks (including interface markers).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the graph has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Number of processing blocks (excluding input/output markers) —
    /// the quantity Table 1 reports as "nr. blocks".
    pub fn operation_count(&self) -> usize {
        self.blocks.iter().filter(|b| !b.kind.is_interface()).count()
    }

    /// Iterate over `(id, block)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks.iter().enumerate().map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Ids of all blocks of a given interface name (inputs/outputs).
    pub fn find_interface(&self, name: &str) -> Option<BlockId> {
        self.iter()
            .find(|(_, b)| match &b.kind {
                BlockKind::Input { name: n }
                | BlockKind::Output { name: n }
                | BlockKind::ControlInput { name: n } => n == name,
                _ => false,
            })
            .map(|(id, _)| id)
    }

    /// The first block whose label is exactly `label` (the compiler
    /// labels each quantity's defining block with the quantity name so
    /// the event-driven part can observe internal quantities).
    pub fn find_labelled(&self, label: &str) -> Option<BlockId> {
        self.iter()
            .find(|(_, b)| b.label.as_deref() == Some(label))
            .map(|(id, _)| id)
    }

    /// All external output blocks.
    pub fn outputs(&self) -> Vec<BlockId> {
        self.iter()
            .filter(|(_, b)| matches!(b.kind, BlockKind::Output { .. }))
            .map(|(id, _)| id)
            .collect()
    }

    /// All external (analog and control) input blocks.
    pub fn external_inputs(&self) -> Vec<BlockId> {
        self.iter()
            .filter(|(_, b)| {
                matches!(b.kind, BlockKind::Input { .. } | BlockKind::ControlInput { .. })
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// Validate structural invariants:
    ///
    /// * every input port is driven,
    /// * no combinational (stateless) cycles — feedback must pass
    ///   through a stateful block (integrator, S/H, memory),
    /// * output markers exist when the graph is non-empty.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), VhifError> {
        for (id, block) in self.iter() {
            for (p, driver) in self.inputs[id.index()].iter().enumerate() {
                if driver.is_none() {
                    return Err(VhifError::UndrivenPort {
                        block: format!("{id} ({})", block.kind),
                        port: p,
                    });
                }
            }
        }
        if self.combinational_cycle().is_some() {
            return Err(VhifError::AlgebraicLoop);
        }
        Ok(())
    }

    /// Find a combinational cycle (a cycle not broken by any stateful
    /// block), if one exists. Returns one block on the cycle.
    pub fn combinational_cycle(&self) -> Option<BlockId> {
        // DFS over edges that do not leave a stateful block.
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let n = self.blocks.len();
        let mut marks = vec![Mark::White; n];
        // adjacency: combinational edge from driver -> consumer unless
        // the *consumer* is stateful (its output does not combinationally
        // depend on its input within one instant).
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (b, ports) in self.inputs.iter().enumerate() {
            if self.blocks[b].kind.is_stateful() {
                continue;
            }
            for driver in ports.iter().flatten() {
                adj[driver.index()].push(b);
            }
        }
        fn dfs(v: usize, adj: &[Vec<usize>], marks: &mut [Mark]) -> Option<usize> {
            marks[v] = Mark::Grey;
            for &w in &adj[v] {
                match marks[w] {
                    Mark::Grey => return Some(w),
                    Mark::White => {
                        if let Some(c) = dfs(w, adj, marks) {
                            return Some(c);
                        }
                    }
                    Mark::Black => {}
                }
            }
            marks[v] = Mark::Black;
            None
        }
        for v in 0..n {
            if marks[v] == Mark::White {
                if let Some(c) = dfs(v, &adj, &mut marks) {
                    return Some(BlockId(c as u32));
                }
            }
        }
        None
    }

    /// A topological order of the blocks treating stateful blocks as
    /// cycle breakers (their input edges are ignored for ordering).
    /// Stateful blocks and sources come first.
    ///
    /// # Errors
    ///
    /// Fails with [`VhifError::AlgebraicLoop`] if a combinational cycle
    /// remains.
    pub fn topo_order(&self) -> Result<Vec<BlockId>, VhifError> {
        let n = self.blocks.len();
        let mut indegree = vec![0usize; n];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (b, ports) in self.inputs.iter().enumerate() {
            if self.blocks[b].kind.is_stateful() {
                continue; // stateful consumers order like sources
            }
            for driver in ports.iter().flatten() {
                adj[driver.index()].push(b);
                indegree[b] += 1;
            }
        }
        let mut queue: VecDeque<usize> =
            (0..n).filter(|&v| indegree[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop_front() {
            order.push(BlockId(v as u32));
            for &w in &adj[v] {
                indegree[w] -= 1;
                if indegree[w] == 0 {
                    queue.push_back(w);
                }
            }
        }
        if order.len() != n {
            return Err(VhifError::AlgebraicLoop);
        }
        Ok(order)
    }

    /// Blocks reachable backwards from `from` through data edges,
    /// including `from` itself (the "cone of influence" used by the
    /// mapper's subgraph enumeration).
    pub fn upstream_cone(&self, from: BlockId) -> Vec<BlockId> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![from];
        let mut cone = Vec::new();
        while let Some(v) = stack.pop() {
            if seen[v.index()] {
                continue;
            }
            seen[v.index()] = true;
            cone.push(v);
            for driver in self.inputs[v.index()].iter().flatten() {
                stack.push(*driver);
            }
        }
        cone
    }

    /// Relabel a block (used by the compiler to tie blocks to source
    /// statements).
    pub fn set_label(&mut self, id: BlockId, label: impl Into<String>) {
        self.blocks[id.index()].label = Some(label.into());
    }

    /// The raw port table, one row per block in id order. Unlike
    /// [`SignalFlowGraph::block_inputs`] this cannot panic, so the
    /// verifier can inspect graphs deserialized from untrusted JSON
    /// whose row count or row widths disagree with the block list.
    pub(crate) fn raw_inputs(&self) -> &[Vec<Option<BlockId>>] {
        &self.inputs
    }

    // ------------------------------------------------- rewrite utilities
    //
    // The optimization passes ([`crate::passes`]) rewrite graphs with
    // the primitives below: redirect fanout, swap an operation in
    // place, splice a pass-through block out of its wire, and compact
    // away unreferenced blocks.

    /// Number of connected edges (driven input ports) in the graph.
    pub fn edge_count(&self) -> usize {
        self.inputs.iter().map(|row| row.iter().flatten().count()).sum()
    }

    /// Replace the operation of `id` with `kind`, disconnecting all of
    /// its input edges (the new kind's ports start undriven). The label
    /// and every consumer connection are kept, so the new operation
    /// must produce the same output class.
    ///
    /// # Panics
    ///
    /// Panics if the output class changes.
    pub fn replace_kind(&mut self, id: BlockId, kind: BlockKind) {
        assert_eq!(
            self.blocks[id.index()].kind.output_class(),
            kind.output_class(),
            "replace_kind must preserve the signal class"
        );
        self.inputs[id.index()] = vec![None; kind.input_arity()];
        self.blocks[id.index()].kind = kind;
    }

    /// Garbage-collect: keep exactly the blocks with `keep[id] == true`,
    /// renumbering the survivors densely in id order. Returns the remap
    /// table (`old id → new id`, `None` for collected blocks). Edges
    /// from a survivor to a collected block become undriven ports, so a
    /// subsequent [`validate`](Self::validate) catches a caller that
    /// collected a block something still reads.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len()` differs from [`len`](Self::len).
    pub fn compact(&mut self, keep: &[bool]) -> Vec<Option<BlockId>> {
        assert_eq!(keep.len(), self.blocks.len(), "keep mask must cover every block");
        let mut remap: Vec<Option<BlockId>> = Vec::with_capacity(keep.len());
        let mut next = 0u32;
        for &k in keep {
            if k {
                remap.push(Some(BlockId(next)));
                next += 1;
            } else {
                remap.push(None);
            }
        }
        let mut blocks = Vec::with_capacity(next as usize);
        let mut inputs = Vec::with_capacity(next as usize);
        for (i, block) in std::mem::take(&mut self.blocks).into_iter().enumerate() {
            if remap[i].is_none() {
                continue;
            }
            blocks.push(block);
            inputs.push(
                self.inputs[i]
                    .iter()
                    .map(|d| d.and_then(|b| remap[b.index()]))
                    .collect(),
            );
        }
        self.blocks = blocks;
        self.inputs = inputs;
        remap
    }
}

impl fmt::Display for SignalFlowGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "graph {} {{", self.name)?;
        for (id, block) in self.iter() {
            write!(f, "  {id}: {block}")?;
            let ins = &self.inputs[id.index()];
            if !ins.is_empty() {
                write!(f, " <- [")?;
                for (i, d) in ins.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match d {
                        Some(b) => write!(f, "{b}")?,
                        None => write!(f, "?")?,
                    }
                }
                write!(f, "]")?;
            }
            writeln!(f)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_chain() -> (SignalFlowGraph, BlockId, BlockId, BlockId) {
        let mut g = SignalFlowGraph::new("t");
        let x = g.add(BlockKind::Input { name: "x".into() });
        let k = g.add(BlockKind::Scale { gain: 2.0 });
        let y = g.add(BlockKind::Output { name: "y".into() });
        g.connect(x, k, 0).expect("x->k");
        g.connect(k, y, 0).expect("k->y");
        (g, x, k, y)
    }

    #[test]
    fn build_and_validate_chain() {
        let (g, x, k, y) = simple_chain();
        g.validate().expect("valid");
        assert_eq!(g.len(), 3);
        assert_eq!(g.operation_count(), 1);
        assert_eq!(g.fanout(x), vec![(k, 0)]);
        assert_eq!(g.block_inputs(y), &[Some(k)]);
    }

    #[test]
    fn undriven_port_fails_validation() {
        let mut g = SignalFlowGraph::new("t");
        let _ = g.add(BlockKind::Scale { gain: 1.0 });
        assert!(matches!(g.validate(), Err(VhifError::UndrivenPort { .. })));
    }

    #[test]
    fn double_drive_rejected() {
        let mut g = SignalFlowGraph::new("t");
        let a = g.add(BlockKind::Const { value: 1.0 });
        let b = g.add(BlockKind::Const { value: 2.0 });
        let s = g.add(BlockKind::Scale { gain: 1.0 });
        g.connect(a, s, 0).expect("first");
        assert!(matches!(g.connect(b, s, 0), Err(VhifError::PortAlreadyDriven { .. })));
    }

    #[test]
    fn port_out_of_range_rejected() {
        let mut g = SignalFlowGraph::new("t");
        let a = g.add(BlockKind::Const { value: 1.0 });
        let s = g.add(BlockKind::Scale { gain: 1.0 });
        assert!(matches!(g.connect(a, s, 1), Err(VhifError::BadPort { .. })));
    }

    #[test]
    fn class_mismatch_rejected() {
        let mut g = SignalFlowGraph::new("t");
        let a = g.add(BlockKind::Const { value: 1.0 });
        let sh = g.add(BlockKind::SampleHold);
        // analog into control port 1
        assert!(matches!(g.connect(a, sh, 1), Err(VhifError::ClassMismatch { .. })));
        // control into data port 0
        let c = g.add(BlockKind::ControlInput { name: "c".into() });
        assert!(matches!(g.connect(c, sh, 0), Err(VhifError::ClassMismatch { .. })));
        // correct wiring succeeds
        g.connect(a, sh, 0).expect("data");
        g.connect(c, sh, 1).expect("control");
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut g = SignalFlowGraph::new("t");
        let a = g.add(BlockKind::Add { arity: 2 });
        let s = g.add(BlockKind::Scale { gain: 0.5 });
        let c = g.add(BlockKind::Const { value: 1.0 });
        g.connect(c, a, 0).expect("c->a");
        g.connect(s, a, 1).expect("s->a");
        g.connect(a, s, 0).expect("a->s");
        assert!(g.combinational_cycle().is_some());
        assert!(matches!(g.validate(), Err(VhifError::AlgebraicLoop)));
        assert!(g.topo_order().is_err());
    }

    #[test]
    fn integrator_feedback_is_legal() {
        // dx/dt = -x : integrator fed by its own scaled output.
        let mut g = SignalFlowGraph::new("t");
        let integ = g.add(BlockKind::Integrate { gain: 1.0, initial: 1.0 });
        let neg = g.add(BlockKind::Scale { gain: -1.0 });
        let y = g.add(BlockKind::Output { name: "x".into() });
        g.connect(integ, neg, 0).expect("i->n");
        g.connect(neg, integ, 0).expect("n->i");
        g.connect(integ, y, 0).expect("i->y");
        g.validate().expect("valid feedback");
        let order = g.topo_order().expect("orderable");
        assert_eq!(order.len(), 3);
        // the integrator acts as a source: it precedes the scaler
        let pos =
            |id: BlockId| order.iter().position(|&b| b == id).expect("in order");
        assert!(pos(integ) < pos(neg));
    }

    #[test]
    fn upstream_cone_collects_ancestors() {
        let (g, x, k, y) = simple_chain();
        let cone = g.upstream_cone(y);
        assert_eq!(cone.len(), 3);
        assert!(cone.contains(&x) && cone.contains(&k) && cone.contains(&y));
        let cone_k = g.upstream_cone(k);
        assert_eq!(cone_k.len(), 2);
    }

    #[test]
    fn find_interface_by_name() {
        let (g, x, _, y) = simple_chain();
        assert_eq!(g.find_interface("x"), Some(x));
        assert_eq!(g.find_interface("y"), Some(y));
        assert_eq!(g.find_interface("zz"), None);
    }

    #[test]
    fn display_dumps_structure() {
        let (g, ..) = simple_chain();
        let s = g.to_string();
        assert!(s.contains("graph t {"));
        assert!(s.contains("scale(2)"));
        assert!(s.contains("<- ["));
    }
}
