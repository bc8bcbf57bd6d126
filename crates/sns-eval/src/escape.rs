//! Escape bookkeeping: the exact set of locations whose values escaped the
//! trace system during evaluation.
//!
//! A location escapes when a number it contributes to flows into a sink
//! where it can steer control flow or leave the numeric domain: a
//! comparison, a numeric literal pattern, structural equality (`=`), or
//! `toString`. A substitution avoiding every escaped location cannot change
//! control flow, so the program's output structure and traces stay as they
//! are; one touching any of them must run the program again.

use std::collections::BTreeSet;

use sns_lang::LocId;

use crate::trace::Trace;
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

    /// Marks every location of a trace observed by a comparison or a
    /// numeric literal pattern.
    pub(crate) fn mark_trace(&mut self, t: &Trace) {
        t.collect_locs_into(&mut self.locs);
    }

    /// Marks every traced number inside a value observed by `=` or
    /// `toString`.
    pub(crate) fn mark_value(&mut self, value: &Value) {
        value.collect_locs(&mut self.locs);
    }
}
