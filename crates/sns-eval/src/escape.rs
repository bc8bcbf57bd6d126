//! Escape bookkeeping: the exact set of locations whose values escaped the
//! trace system during evaluation.
//!
//! A location escapes when a number it contributes to flows into a sink
//! where it can steer control flow or leave the numeric domain: a
//! comparison, a numeric literal pattern, structural equality (`=`), or
//! `toString`. A substitution avoiding every escaped location cannot change
//! control flow, so the program's output structure and traces stay as they
//! are; one touching any of them must run the program again.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use sns_lang::LocId;

use crate::trace::{AddrHasher, Trace};
use crate::value::Value;

/// The locations that escaped the trace system, ascending.
#[derive(Debug, Clone, Default)]
pub struct Escapes {
    locs: BTreeSet<LocId>,
}

impl Escapes {
    /// An empty escape record.
    pub fn new() -> Escapes {
        Escapes::default()
    }

    /// Whether `loc` escaped.
    pub fn contains(&self, loc: &LocId) -> bool {
        self.locs.contains(loc)
    }

    /// Number of distinct escaped locations.
    pub fn len(&self) -> usize {
        self.locs.len()
    }

    /// Whether no location escaped.
    pub fn is_empty(&self) -> bool {
        self.locs.is_empty()
    }

    /// The escaped locations, ascending.
    pub fn iter(&self) -> impl Iterator<Item = &LocId> {
        self.locs.iter()
    }
}

/// Records escapes during one evaluation, visiting each trace node once.
///
/// Traces are DAGs, and a loop counter's trace grows by one node per
/// iteration: marking each comparison operand as a tree would walk the
/// counter's whole history on every iteration. The marker remembers every
/// operation node it has marked (its locations are then all in the set
/// already) and walks the rest with an explicit work list, so no recursion
/// follows trace depth. It holds each remembered node, so an address
/// cannot be freed and reused by a new node while the evaluation runs.
#[derive(Debug, Default)]
pub(crate) struct EscapeMarker {
    escapes: Escapes,
    /// Marked operation nodes by address (leaves are marked directly).
    marked: HashMap<usize, Arc<Trace>, BuildHasherDefault<AddrHasher>>,
    work: Vec<Arc<Trace>>,
    /// The same marks made by walking each trace as a tree: the
    /// definition the memoized walk must reproduce.
    #[cfg(test)]
    pub(crate) tree_walk: BTreeSet<LocId>,
}

impl EscapeMarker {
    /// The escapes recorded so far.
    pub(crate) fn escapes(&self) -> &Escapes {
        &self.escapes
    }

    /// Ends the evaluation: the escape record, without the marked nodes.
    pub(crate) fn into_escapes(self) -> Escapes {
        self.escapes
    }

    /// Marks every location of a trace observed by a comparison or a
    /// numeric literal pattern.
    pub(crate) fn mark_trace(&mut self, t: &Arc<Trace>) {
        #[cfg(test)]
        t.collect_locs_into(&mut self.tree_walk);
        self.visit(t);
        while let Some(t) = self.work.pop() {
            if let Trace::Op(_, args) = &*t {
                for a in args {
                    self.visit(a);
                }
            }
        }
    }

    /// Marks a leaf, or queues an operation node not marked before.
    fn visit(&mut self, t: &Arc<Trace>) {
        match &**t {
            Trace::Loc(l) => {
                self.escapes.locs.insert(*l);
            }
            Trace::Op(..) => {
                if let Entry::Vacant(slot) = self.marked.entry(Arc::as_ptr(t) as usize) {
                    slot.insert(Arc::clone(t));
                    self.work.push(Arc::clone(t));
                }
            }
        }
    }

    /// Marks every traced number inside a value observed by `=` or
    /// `toString` (numbers nested in lists included; closures are opaque).
    pub(crate) fn mark_value(&mut self, value: &Value) {
        let mut cur = value;
        loop {
            match cur {
                Value::Num(_, t) => return self.mark_trace(t),
                Value::Cons(cell) => {
                    self.mark_value(&cell.0);
                    cur = &cell.1;
                }
                Value::Str(_) | Value::Bool(_) | Value::Nil | Value::Closure(_) => return,
            }
        }
    }
}
