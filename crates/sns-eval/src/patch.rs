//! Substitution patching: re-evaluating traced numbers under a new ρ
//! without re-running the program.
//!
//! Evaluation maintains the invariant `n = ⟦t⟧ρ` for every traced number
//! `nᵗ` it produces (rule E-OP-NUM composes values and traces in
//! lockstep). So as long as a substitution cannot change control flow —
//! checked via [`Evaluator::escaped_locs`](crate::Evaluator::escaped_locs)
//! — the program's new output is the old output with every traced number
//! replaced by `⟦t⟧ρ'`.
//!
//! A [`TraceTape`] computes that replacement. Traces are heavily shared
//! DAGs (`Arc` nodes), so the tape compiles them once — per prepare, not
//! per commit — into a flat array in topological order, deduplicated by
//! node address, with each node's value under ρ₀. A commit then
//! [sweeps](TraceTape::sweep) forward from the first leaf the update
//! binds, recomputing only the nodes downstream of a changed location.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use sns_lang::{LocId, Op, Subst};

use crate::eval::apply_num_op;
use crate::trace::{AddrHasher, Trace};

/// One tape node. A node's arguments always precede it.
#[derive(Debug, Clone, Copy)]
enum Node {
    /// The number originated at a location (the tape's `leaves` maps
    /// the location to this node).
    Leaf,
    /// `op` applied to the nodes `args[start..start + len]`.
    Op { op: Op, start: u32, len: u32 },
}

/// A canvas's traces flattened into topological order, with each node's
/// value under the program's current substitution ρ₀.
///
/// Build one per prepare with [`TraceTape::builder`]; node ids returned
/// by [`TapeBuilder::push`] stay valid for the tape's life. A sweep works
/// in buffers the tape keeps, so once built it allocates nothing.
#[derive(Debug, Default, Clone)]
pub struct TraceTape {
    nodes: Vec<Node>,
    /// Argument node ids of every `Node::Op`, concatenated.
    args: Vec<u32>,
    /// Each node's value under ρ₀, or ρ₀ ⊕ update during a [`Sweep`];
    /// meaningless where `evaluable` and `dirty` are both false.
    vals: Vec<f64>,
    /// Whether the node has a value: false under a location ρ₀ does not
    /// bind, or an operation that is not number → number.
    evaluable: Vec<bool>,
    /// Location id → its leaf ([`NO_LEAF`] where no trace mentions it).
    leaves: Vec<u32>,
    /// Whether the live sweep changed the node; all false between sweeps.
    dirty: Vec<bool>,
    /// The undo log of the live sweep: each changed node and its value
    /// before the sweep, in the order they changed.
    log: Vec<(u32, f64)>,
    /// An operation's argument values, sized for the widest one.
    xs: Vec<f64>,
}

/// The `leaves` entry of a location no trace mentions.
const NO_LEAF: u32 = u32::MAX;

/// A tape swept under `ρ₀ ⊕ update` in place, by [`TraceTape::sweep`].
/// [`commit`](Sweep::commit) makes its values the tape's; dropping it
/// instead undoes every write from the log, leaving the tape bit-identical
/// to what it was.
#[derive(Debug)]
pub struct Sweep<'t> {
    tape: &'t mut TraceTape,
}

impl Sweep<'_> {
    /// The node's new value, or `None` when the substitution leaves it
    /// unchanged (or `node` is not a tape node).
    pub fn get(&self, node: u32) -> Option<f64> {
        let i = node as usize;
        self.tape.dirty.get(i)?.then(|| self.tape.vals[i])
    }

    /// Number of tape nodes the sweep changed: the update's leaves and
    /// the operations it recomputed.
    pub fn swept(&self) -> usize {
        self.tape.log.len()
    }

    /// Installs the sweep: the tape's values become those under
    /// `ρ₀ ⊕ update`, the new ρ₀. Touches the changed nodes only.
    pub fn commit(self) {
        let tape = &mut *self.tape;
        for (i, _) in tape.log.drain(..) {
            tape.evaluable[i as usize] = true;
            tape.dirty[i as usize] = false;
        }
    }
}

impl Drop for Sweep<'_> {
    fn drop(&mut self) {
        let tape = &mut *self.tape;
        for (i, v) in tape.log.drain(..).rev() {
            tape.vals[i as usize] = v;
            tape.dirty[i as usize] = false;
        }
    }
}

impl TraceTape {
    /// A builder compiling traces against ρ₀.
    pub fn builder(rho0: &Subst) -> TapeBuilder<'_, '_> {
        TapeBuilder {
            tape: TraceTape::default(),
            rho0,
            by_addr: HashMap::default(),
            work: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// Number of distinct trace nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node's value under ρ₀ (the last committed substitution),
    /// `None` when it cannot be evaluated or `node` is not a tape node.
    pub fn value(&self, node: u32) -> Option<f64> {
        let i = node as usize;
        self.evaluable.get(i)?.then(|| self.vals[i])
    }

    /// Re-evaluates the tape under `ρ₀ ⊕ update` in place: writes the
    /// leaves of `dom(update)` and walks forward from the first of them,
    /// recomputing every node with a changed argument through
    /// [`apply_num_op`], so each value is bit-identical to a
    /// re-evaluation. Every write is logged, to be [committed](Sweep::commit)
    /// or undone.
    ///
    /// `None`, with the tape as it was, when a changed node cannot be
    /// evaluated (an argument without a value, or an operation that is not
    /// number → number); callers then fall back to a full re-evaluation.
    pub fn sweep(&mut self, update: &Subst) -> Option<Sweep<'_>> {
        let mut first = self.nodes.len();
        for (loc, v) in update.iter() {
            if let Some(i) = self.leaf(loc) {
                self.set(i as usize, v);
                first = first.min(i as usize);
            }
        }
        let sweep = Sweep { tape: self };
        let tape = &mut *sweep.tape;
        for i in first..tape.nodes.len() {
            let Node::Op { op, start, len } = tape.nodes[i] else {
                continue;
            };
            let args = &tape.args[start as usize..(start + len) as usize];
            if !args.iter().any(|&a| tape.dirty[a as usize]) {
                continue;
            }
            tape.xs.clear();
            for &a in args {
                let a = a as usize;
                if !tape.dirty[a] && !tape.evaluable[a] {
                    return None;
                }
                tape.xs.push(tape.vals[a]);
            }
            let v = apply_num_op(op, &tape.xs)?;
            tape.set(i, v);
        }
        Some(sweep)
    }

    /// Writes node `i`'s swept value, logging its old one the first time.
    fn set(&mut self, i: usize, v: f64) {
        if !std::mem::replace(&mut self.dirty[i], true) {
            self.log.push((i as u32, self.vals[i]));
        }
        self.vals[i] = v;
    }

    /// The leaf of location `l`, if any trace on the tape mentions it.
    fn leaf(&self, l: LocId) -> Option<u32> {
        self.leaves
            .get(l.0 as usize)
            .copied()
            .filter(|&i| i != NO_LEAF)
    }
}

/// Compiles traces onto a [`TraceTape`]. Shared nodes are deduplicated
/// by `Arc` address (and leaves by location) through a map that lives only
/// as long as the builder; every trace pushed must stay alive until
/// [`TapeBuilder::finish`].
#[derive(Debug)]
pub struct TapeBuilder<'t, 'r> {
    tape: TraceTape,
    rho0: &'r Subst,
    /// The node of every pushed or shared trace compiled so far. A trace
    /// held only by its parent is reached once, through that parent, so it
    /// needs no entry.
    by_addr: HashMap<*const Trace, u32, BuildHasherDefault<AddrHasher>>,
    /// Depth-first work list: visit a trace, or emit an operation whose
    /// arguments have been emitted.
    work: Vec<(&'t Arc<Trace>, bool)>,
    /// Node ids of emitted arguments not yet consumed by their operation.
    ids: Vec<u32>,
}

impl<'t> TapeBuilder<'t, '_> {
    /// The tape node of `t`, compiling it and every sub-trace not yet on
    /// the tape. Iterative, so no recursion follows trace depth.
    pub fn push(&mut self, t: &'t Arc<Trace>) -> u32 {
        self.work.push((t, false));
        while let Some((t, emit)) = self.work.pop() {
            // Only the pushed trace itself leaves an empty work list; a
            // caller may push it again.
            let shared = self.work.is_empty() || Arc::strong_count(t) > 1;
            let i = match &**t {
                Trace::Op(op, args) if emit => self.op(*op, args.len()),
                _ if shared && self.by_addr.contains_key(&Arc::as_ptr(t)) => {
                    self.ids.push(self.by_addr[&Arc::as_ptr(t)]);
                    continue;
                }
                Trace::Loc(l) => self.leaf(*l),
                Trace::Op(_, args) => {
                    self.work.push((t, true));
                    self.work.extend(args.iter().rev().map(|a| (a, false)));
                    continue;
                }
            };
            if shared {
                self.by_addr.insert(Arc::as_ptr(t), i);
            }
            self.ids.push(i);
        }
        self.ids.pop().expect("the pushed trace's node")
    }

    /// The finished tape, with its sweep buffers sized for a sweep that
    /// changes every node; the address map is dropped.
    pub fn finish(mut self) -> TraceTape {
        let n = self.tape.nodes.len();
        self.tape.dirty = vec![false; n];
        self.tape.log = Vec::with_capacity(n);
        self.tape
    }

    fn node(&mut self, node: Node, val: Option<f64>) -> u32 {
        let tape = &mut self.tape;
        let i = u32::try_from(tape.nodes.len()).expect("trace tape exceeds u32 nodes");
        tape.nodes.push(node);
        tape.vals.push(val.unwrap_or(0.0));
        tape.evaluable.push(val.is_some());
        i
    }

    fn leaf(&mut self, l: LocId) -> u32 {
        if let Some(i) = self.tape.leaf(l) {
            return i;
        }
        let i = self.node(Node::Leaf, self.rho0.get(l));
        let slot = l.0 as usize;
        if self.tape.leaves.len() <= slot {
            self.tape.leaves.resize(slot + 1, NO_LEAF);
        }
        self.tape.leaves[slot] = i;
        i
    }

    /// Emits an operation over the last `arity` emitted nodes.
    fn op(&mut self, op: Op, arity: usize) -> u32 {
        let start = self.tape.args.len() as u32;
        let first = self.ids.len() - arity;
        let tape = &mut self.tape;
        tape.xs.clear();
        let mut evaluable = true;
        for j in self.ids.drain(first..) {
            tape.args.push(j);
            match tape.value(j) {
                Some(v) => tape.xs.push(v),
                None => evaluable = false,
            }
        }
        let val = if evaluable {
            apply_num_op(op, &tape.xs)
        } else {
            None
        };
        self.node(
            Node::Op {
                op,
                start,
                len: arity as u32,
            },
            val,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;

    /// The tape of one traced number, and that number's node.
    fn tape_of(t: &Arc<Trace>, rho0: &Subst) -> (TraceTape, u32) {
        let mut b = TraceTape::builder(rho0);
        let node = b.push(t);
        (b.finish(), node)
    }

    #[test]
    fn patched_numbers_match_full_reevaluation() {
        let src = "(def [a b] [10 20]) (+ a (* 3 b))";
        let p = Program::parse(src).unwrap();
        let v = p.eval().unwrap();
        let (n, t) = v.as_num().unwrap();
        assert_eq!(n, 70.0);
        let (mut tape, node) = tape_of(t, &p.subst());
        assert_eq!(tape.value(node), Some(70.0));
        let a_loc = LocId(p.next_loc() - 3);
        let subst = Subst::from_pairs([(a_loc, 25.0)]);
        let sweep = tape.sweep(&subst).unwrap();
        let full = p.with_subst(&subst).eval().unwrap().as_num().unwrap().0;
        assert_eq!(sweep.get(node).unwrap().to_bits(), full.to_bits());
        assert_eq!(full, 85.0);
        // Committed, the tape holds the values under the new ρ₀.
        sweep.commit();
        assert_eq!(tape.value(node), Some(85.0));
    }

    #[test]
    fn clean_traces_keep_their_value_verbatim() {
        let p = Program::parse("(* 6 7)").unwrap();
        let v = p.eval().unwrap();
        let (_, t) = v.as_num().unwrap();
        let (mut tape, node) = tape_of(t, &p.subst());
        // Change nothing: the sweep marks no node.
        let sweep = tape.sweep(&Subst::new()).unwrap();
        assert_eq!(sweep.get(node), None);
        drop(sweep);
        assert_eq!(tape.value(node), Some(42.0));
    }

    #[test]
    fn unbound_location_fails_closed() {
        let p = Program::parse("(+ 1 2)").unwrap();
        let v = p.eval().unwrap();
        let (_, t) = v.as_num().unwrap();
        let Trace::Op(_, args) = &**t else {
            panic!("an addition trace")
        };
        let Trace::Loc(one) = *args[0] else {
            panic!("a literal")
        };
        // ρ₀ binds neither literal: the tape has no value for the sum.
        let (mut tape, node) = tape_of(t, &Subst::new());
        assert_eq!(tape.value(node), None);
        // An update binding one operand still cannot evaluate the sum.
        assert!(tape.sweep(&Subst::from_pairs([(one, 5.0)])).is_none());
        // An update that avoids the trace leaves it alone.
        assert_eq!(
            tape.sweep(&Subst::from_pairs([(LocId(9999), 5.0)]))
                .unwrap()
                .get(node),
            None
        );
    }

    #[test]
    fn a_location_bound_only_by_the_update_gets_its_value() {
        // ρ₀ binds l1 but not l0; the update binds l0 and nothing else.
        let t = Trace::op(Op::Mul, [Trace::loc(LocId(0)), Trace::loc(LocId(1))]);
        let rho0 = Subst::from_pairs([(LocId(1), 3.0)]);
        let (mut tape, node) = tape_of(&t, &rho0);
        assert_eq!(tape.value(node), None);
        let sweep = tape.sweep(&Subst::from_pairs([(LocId(0), 4.0)])).unwrap();
        assert_eq!(sweep.get(node), Some(12.0));
        sweep.commit();
        assert_eq!(tape.value(node), Some(12.0));
    }

    #[test]
    fn a_non_numeric_op_fails_the_sweep_and_leaves_the_tape_unchanged() {
        // `(+ l0 (< l0 l1))`: the comparison is not number → number.
        let l0 = Trace::loc(LocId(0));
        let lt = Trace::op(Op::Lt, [Arc::clone(&l0), Trace::loc(LocId(1))]);
        let t = Trace::op(Op::Add, [l0, Arc::clone(&lt)]);
        let rho0 = Subst::from_pairs([(LocId(0), 1.0), (LocId(1), 2.0)]);
        let mut b = TraceTape::builder(&rho0);
        let node = b.push(&t);
        let lt_node = b.push(&lt);
        let mut tape = b.finish();
        assert_eq!(tape.value(lt_node), None);
        assert_eq!(tape.value(node), None);
        let before: Vec<Option<f64>> = (0..tape.len() as u32).map(|i| tape.value(i)).collect();
        assert!(tape.sweep(&Subst::from_pairs([(LocId(0), 7.0)])).is_none());
        let after: Vec<Option<f64>> = (0..tape.len() as u32).map(|i| tape.value(i)).collect();
        assert_eq!(before, after);
    }

    /// Everything a sweep reads or writes, values as bits.
    fn bits(tape: &TraceTape) -> (Vec<u64>, Vec<bool>, Vec<bool>, usize) {
        let vals = tape.vals.iter().map(|v| v.to_bits()).collect();
        let (dirty, ok) = (tape.dirty.clone(), tape.evaluable.clone());
        (vals, dirty, ok, tape.log.len())
    }

    #[test]
    fn a_failed_sweep_leaks_nothing_into_the_next() {
        // `l0 · l2` precedes `l0 + (l0 < l1)`: a sweep of l0 rewrites the
        // product, then fails on the comparison.
        let (l0, l2) = (Trace::loc(LocId(0)), Trace::loc(LocId(2)));
        let mul = Trace::op(Op::Mul, [Arc::clone(&l0), Arc::clone(&l2)]);
        let lt = Trace::op(Op::Lt, [Arc::clone(&l0), Trace::loc(LocId(1))]);
        let add = Trace::op(Op::Add, [Arc::clone(&l0), lt]);
        let sum = Trace::op(Op::Add, [Arc::clone(&mul), l2]);
        let rho0 = Subst::from_pairs([(LocId(0), 1.0), (LocId(1), 2.0), (LocId(2), 3.0)]);
        let build = || {
            let mut b = TraceTape::builder(&rho0);
            let nodes = [&mul, &add, &sum].map(|t| b.push(t));
            (b.finish(), nodes)
        };
        let (mut tape, nodes) = build();
        let (mut fresh, _) = build();
        let built = bits(&tape);
        assert!(tape.sweep(&Subst::from_pairs([(LocId(0), 7.0)])).is_none());
        assert_eq!(bits(&tape), built, "the failed sweep is undone");
        let update = Subst::from_pairs([(LocId(2), 0.1)]);
        let (a, b) = (tape.sweep(&update).unwrap(), fresh.sweep(&update).unwrap());
        assert_eq!(a.swept(), b.swept());
        for node in nodes {
            assert_eq!(a.get(node).map(f64::to_bits), b.get(node).map(f64::to_bits));
        }
        assert_eq!(a.get(nodes[0]), Some(0.1 * 1.0));
        a.commit();
        b.commit();
        assert_eq!(bits(&tape), bits(&fresh));
        assert_eq!(tape.value(nodes[2]), Some(0.1 + 0.1));
    }

    #[test]
    fn shared_nodes_compile_once_and_deep_traces_do_not_recurse() {
        // A chain 100k deep: recursion on this would overflow the stack.
        let x = Trace::loc(LocId(0));
        let mut t = Arc::clone(&x);
        for _ in 0..100_000 {
            t = Trace::op(Op::Add, [t, Arc::clone(&x)]);
        }
        let rho0 = Subst::from_pairs([(LocId(0), 1.0)]);
        let mut b = TraceTape::builder(&rho0);
        let node = b.push(&t);
        assert_eq!(b.push(&t), node);
        let mut tape = b.finish();
        assert_eq!(tape.len(), 100_001);
        assert_eq!(tape.value(node), Some(100_001.0));
        let sweep = tape.sweep(&Subst::from_pairs([(LocId(0), 2.0)])).unwrap();
        assert_eq!(sweep.get(node), Some(200_002.0));
        // Dropping a chain that deep recurses in `Arc`'s destructor; unwind
        // it iteratively.
        while let Ok(Trace::Op(_, args)) = Arc::try_unwrap(t) {
            t = args.into_iter().next().expect("an addition");
        }
    }
}
