//! Run-time traces (§2.1).
//!
//! Evaluation of `little` is instrumented so that every number it produces
//! carries a trace `t ::= ℓ | (opm t1 … tm)` recording the *data flow* that
//! produced it — which program constants flowed through which primitive
//! operations. Traces deliberately ignore control flow (the paper's
//! "Dataflow-Only Traces" design note).
//!
//! A value `n` paired with its trace `t` forms a *value-trace equation*
//! `n = t`, the raw material of trace-based program synthesis.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use sns_lang::{LocId, Op};

/// A run-time trace: either a program location or a primitive operation
/// applied to sub-traces.
#[derive(Debug, Clone, PartialEq)]
pub enum Trace {
    /// The number originated at program location ℓ.
    Loc(LocId),
    /// The number is the result of `op` applied to traced arguments.
    Op(Op, TraceArgs),
}

/// The arguments of an operation trace. A primitive takes at most two,
/// so they live inside the trace node: building an operation trace
/// allocates the node alone.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceArgs {
    /// A nullary operation's (`pi`).
    Zero,
    /// A unary operation's.
    One([Arc<Trace>; 1]),
    /// A binary operation's.
    Two([Arc<Trace>; 2]),
}

impl Deref for TraceArgs {
    type Target = [Arc<Trace>];

    fn deref(&self) -> &[Arc<Trace>] {
        match self {
            TraceArgs::Zero => &[],
            TraceArgs::One(args) => args,
            TraceArgs::Two(args) => args,
        }
    }
}

impl<'a> IntoIterator for &'a TraceArgs {
    type Item = &'a Arc<Trace>;
    type IntoIter = std::slice::Iter<'a, Arc<Trace>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for TraceArgs {
    type Item = Arc<Trace>;
    type IntoIter =
        std::iter::Chain<std::option::IntoIter<Arc<Trace>>, std::option::IntoIter<Arc<Trace>>>;

    fn into_iter(self) -> Self::IntoIter {
        let (a, b) = match self {
            TraceArgs::Zero => (None, None),
            TraceArgs::One([a]) => (Some(a), None),
            TraceArgs::Two([a, b]) => (Some(a), Some(b)),
        };
        a.into_iter().chain(b)
    }
}

impl From<[Arc<Trace>; 0]> for TraceArgs {
    fn from(_: [Arc<Trace>; 0]) -> TraceArgs {
        TraceArgs::Zero
    }
}

impl From<[Arc<Trace>; 1]> for TraceArgs {
    fn from(args: [Arc<Trace>; 1]) -> TraceArgs {
        TraceArgs::One(args)
    }
}

impl From<[Arc<Trace>; 2]> for TraceArgs {
    fn from(args: [Arc<Trace>; 2]) -> TraceArgs {
        TraceArgs::Two(args)
    }
}

impl Trace {
    /// A shared location trace.
    pub fn loc(l: LocId) -> Arc<Trace> {
        Arc::new(Trace::Loc(l))
    }

    /// A shared operation trace.
    pub fn op(op: Op, args: impl Into<TraceArgs>) -> Arc<Trace> {
        Arc::new(Trace::Op(op, args.into()))
    }

    /// The set of locations mentioned anywhere in the trace.
    ///
    /// This is the paper's `Locs(t)` *before* frozen-location filtering;
    /// callers exclude frozen locations themselves because frozenness
    /// depends on the editor's freeze mode.
    pub fn locs(&self) -> BTreeSet<LocId> {
        let mut out = BTreeSet::new();
        self.collect_locs_into(&mut out);
        out
    }

    /// Collects the trace's locations into an existing set (avoids an
    /// allocation per trace when scanning many).
    pub fn collect_locs_into(&self, out: &mut BTreeSet<LocId>) {
        match self {
            Trace::Loc(l) => {
                out.insert(*l);
            }
            Trace::Op(_, args) => {
                for a in args {
                    a.collect_locs_into(out);
                }
            }
        }
    }

    /// Counts the occurrences of `loc` in the trace (distinguishes the
    /// "single-occurrence" solver fragment from the general case).
    pub fn count_loc(&self, loc: LocId) -> usize {
        match self {
            Trace::Loc(l) => usize::from(*l == loc),
            Trace::Op(_, args) => args.iter().map(|a| a.count_loc(loc)).sum(),
        }
    }

    /// Counts occurrences of every location, walking the trace as a tree:
    /// the definition [`LocMemo::counts`] memoizes over the DAG.
    pub fn count_locs_into(&self, counts: &mut HashMap<LocId, usize>) {
        match self {
            Trace::Loc(l) => *counts.entry(*l).or_insert(0) += 1,
            Trace::Op(_, args) => {
                for a in args {
                    a.count_locs_into(counts);
                }
            }
        }
    }

    /// Number of tree nodes in the trace (the paper reports a mean trace
    /// size of ~141 nodes across its corpus).
    pub fn size(&self) -> usize {
        match self {
            Trace::Loc(_) => 1,
            Trace::Op(_, args) => 1 + args.iter().map(|a| a.size()).sum::<usize>(),
        }
    }

    /// Whether the trace uses only the `+` operation (the `SolveA`
    /// "addition-only" fragment).
    pub fn is_addition_only(&self) -> bool {
        match self {
            Trace::Loc(_) => true,
            Trace::Op(Op::Add, args) => args.iter().all(|a| a.is_addition_only()),
            Trace::Op(..) => false,
        }
    }
}

/// Hashes node addresses with one multiply each: addresses are distinct
/// and 8-aligned, so SipHash's collision resistance buys nothing here.
/// Each address is folded into the state, so a key of several addresses
/// (a pair of traces) hashes all of them; a single address hashes to
/// `(addr >> 3) · φ`.
#[derive(Debug, Default)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = (self.0.rotate_left(5) ^ (n as u64 >> 3)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// A trace's locations with their occurrence counts, ascending by
/// location: `Locs(t)` and every `Count(ℓ)` within `t` in one list.
type LocCounts = Arc<[(LocId, u64)]>;

/// The location counts of traces, memoized by trace address.
///
/// Traces are DAGs: a number used twice shares its trace node, so a tree
/// walk of a canvas's traces ([`Trace::locs`], [`Trace::count_locs_into`])
/// revisits shared sub-traces once per path to them. The memo visits each
/// node once, with an explicit work list (no recursion follows trace
/// depth), and keeps the counts of shared nodes and of every trace asked
/// for. Keys are addresses, so the memo borrows the traces it has seen
/// for `'t`: it cannot outlive them, and an address cannot be reused
/// while it is alive.
#[derive(Debug)]
pub struct LocMemo<'t> {
    by_addr: HashMap<*const Trace, LocCounts, BuildHasherDefault<AddrHasher>>,
    /// The counts of each location's leaf, by location id.
    leaves: Vec<Option<LocCounts>>,
    /// Depth-first work list: visit a trace, or merge the counts of an
    /// operation whose arguments are done.
    work: Vec<(&'t Arc<Trace>, bool)>,
    /// Counts of visited traces not yet consumed by their operation.
    done: Vec<LocCounts>,
    empty: LocCounts,
}

impl Default for LocMemo<'_> {
    fn default() -> Self {
        LocMemo {
            by_addr: HashMap::default(),
            leaves: Vec::new(),
            work: Vec::new(),
            done: Vec::new(),
            empty: Arc::new([]),
        }
    }
}

impl<'t> LocMemo<'t> {
    /// The locations of `t` with their occurrence counts (as in
    /// [`Trace::count_locs_into`], saturating), ascending by location.
    pub fn counts(&mut self, t: &'t Arc<Trace>) -> &[(LocId, u64)] {
        let key = Arc::as_ptr(t);
        if !self.by_addr.contains_key(&key) {
            self.work.push((t, false));
            while let Some((t, merge)) = self.work.pop() {
                // Only the asked-for trace itself leaves an empty work
                // list; it is always kept.
                let shared = self.work.is_empty() || Arc::strong_count(t) > 1;
                let counts = match &**t {
                    Trace::Op(_, args) if merge => {
                        let first = self.done.len() - args.len();
                        let counts = merge_counts(&self.done[first..], &self.empty);
                        self.done.truncate(first);
                        counts
                    }
                    _ if shared && self.by_addr.contains_key(&Arc::as_ptr(t)) => {
                        self.done.push(Arc::clone(&self.by_addr[&Arc::as_ptr(t)]));
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
                    self.by_addr.insert(Arc::as_ptr(t), Arc::clone(&counts));
                }
                self.done.push(counts);
            }
            self.done.clear();
        }
        &self.by_addr[&key]
    }

    fn leaf(&mut self, l: LocId) -> LocCounts {
        let slot = l.0 as usize;
        if self.leaves.len() <= slot {
            self.leaves.resize(slot + 1, None);
        }
        Arc::clone(self.leaves[slot].get_or_insert_with(|| Arc::new([(l, 1)])))
    }
}

/// The counts of an operation: its arguments' counts summed location by
/// location. An operation with one counted argument shares its list.
fn merge_counts(args: &[LocCounts], empty: &LocCounts) -> LocCounts {
    let mut counted = args.iter().filter(|c| !c.is_empty());
    let Some(first) = counted.next() else {
        return Arc::clone(empty);
    };
    let Some(second) = counted.next() else {
        return Arc::clone(first);
    };
    let mut acc = first.to_vec();
    for next in std::iter::once(second).chain(counted) {
        let mut merged = Vec::with_capacity(acc.len() + next.len());
        let (mut i, mut j) = (0, 0);
        while i < acc.len() && j < next.len() {
            let ((la, ca), (lb, cb)) = (acc[i], next[j]);
            merged.push(match la.cmp(&lb) {
                std::cmp::Ordering::Less => {
                    i += 1;
                    (la, ca)
                }
                std::cmp::Ordering::Greater => {
                    j += 1;
                    (lb, cb)
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                    (la, ca.saturating_add(cb))
                }
            });
        }
        merged.extend_from_slice(&acc[i..]);
        merged.extend_from_slice(&next[j..]);
        acc = merged;
    }
    acc.into()
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trace::Loc(l) => write!(f, "{l}"),
            Trace::Op(op, args) => {
                write!(f, "({op}")?;
                for a in args {
                    write!(f, " {a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> Arc<Trace> {
        Trace::loc(LocId(i))
    }

    #[test]
    fn locs_deduplicates() {
        let t = Trace::op(Op::Add, [l(1), Trace::op(Op::Mul, [l(1), l(2)])]);
        let locs: Vec<u32> = t.locs().into_iter().map(|x| x.0).collect();
        assert_eq!(locs, vec![1, 2]);
    }

    #[test]
    fn count_loc_counts_occurrences() {
        let t = Trace::op(Op::Add, [l(1), Trace::op(Op::Mul, [l(1), l(2)])]);
        assert_eq!(t.count_loc(LocId(1)), 2);
        assert_eq!(t.count_loc(LocId(2)), 1);
        assert_eq!(t.count_loc(LocId(3)), 0);
    }

    #[test]
    fn size_counts_nodes() {
        let t = Trace::op(Op::Add, [l(1), Trace::op(Op::Mul, [l(1), l(2)])]);
        assert_eq!(t.size(), 5);
    }

    #[test]
    fn addition_only_fragment() {
        let t = Trace::op(Op::Add, [l(1), Trace::op(Op::Add, [l(2), l(3)])]);
        assert!(t.is_addition_only());
        let t = Trace::op(Op::Add, [l(1), Trace::op(Op::Mul, [l(2), l(3)])]);
        assert!(!t.is_addition_only());
    }

    #[test]
    fn memoized_counts_match_the_tree_walk_on_shared_dags() {
        // s = (+ l1 l2) is used twice, and the result once more: the tree
        // walk counts every path.
        let s = Trace::op(Op::Add, [l(1), l(2)]);
        let t = Trace::op(Op::Mul, [Arc::clone(&s), s]);
        let u = Trace::op(Op::Add, [Arc::clone(&t), Trace::op(Op::Sin, [t])]);
        let (pi, leaf) = (Trace::op(Op::Pi, []), l(7));
        let mut memo = LocMemo::default();
        for trace in [&u, &pi, &leaf] {
            let mut want = std::collections::HashMap::new();
            trace.count_locs_into(&mut want);
            let mut want: Vec<(LocId, u64)> =
                want.into_iter().map(|(l, c)| (l, c as u64)).collect();
            want.sort();
            assert_eq!(memo.counts(trace), &want[..], "{trace}");
        }
        assert_eq!(memo.counts(&u), &[(LocId(1), 4), (LocId(2), 4)]);
    }

    #[test]
    fn addr_hasher_hashes_every_address_of_a_key() {
        use std::hash::Hash;
        fn hash(key: impl Hash) -> u64 {
            let mut h = AddrHasher::default();
            key.hash(&mut h);
            h.finish()
        }
        // A single address hashes with one multiply.
        assert_eq!(
            hash(0x1000usize),
            0x200u64.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        );
        // A pair depends on both addresses and their order.
        let pair = hash((0x1000usize, 0x2000usize));
        assert_ne!(pair, hash((0x1000usize, 0x3000usize)));
        assert_ne!(pair, hash((0x3000usize, 0x2000usize)));
        assert_ne!(pair, hash((0x2000usize, 0x1000usize)));
    }

    #[test]
    fn display_uses_prefix_notation() {
        let t = Trace::op(Op::Add, [l(0), Trace::op(Op::Mul, [l(1), l(2)])]);
        assert_eq!(t.to_string(), "(+ l0 (* l1 l2))");
    }
}
