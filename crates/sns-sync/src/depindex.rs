//! The locations a prepare read, behind keeping it across a code edit.
//!
//! A zone's analysis is a function of the run-time traces of its
//! manipulable attributes and of which of their locations are frozen. This
//! index holds every location the zones' slot traces mention, frozen or
//! not, built once per full prepare: a re-evaluated code edit keeps the
//! prepare only when each of them is frozen as it was ([`DepIndex::locs`]).
//!
//! A commit needs no location → zone map: a drag reads each trigger
//! part's current base from the trace tape, which the commit sweeps.

use sns_eval::LocMemo;
use sns_lang::LocId;

use crate::assign::Assignments;

/// Every location the zones' attribute traces mention, ascending.
#[derive(Debug)]
pub struct DepIndex {
    locs: Vec<LocId>,
}

impl DepIndex {
    /// Builds the index by one pass over every zone's attribute traces,
    /// reading each trace's locations from `memo` (shared with the
    /// analysis of the same prepare).
    pub fn build<'t>(assignments: &'t Assignments, memo: &mut LocMemo<'t>) -> DepIndex {
        let mut locs = Vec::new();
        for zone in &assignments.zones {
            for slot in &zone.slots {
                locs.extend(memo.counts(&slot.trace).iter().map(|&(l, _)| l));
            }
        }
        locs.sort_unstable();
        locs.dedup();
        DepIndex { locs }
    }

    /// Every indexed location, ascending.
    pub fn locs(&self) -> impl Iterator<Item = LocId> + '_ {
        self.locs.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use crate::assign::{analyze_canvas, Heuristic};
    use sns_eval::{FreezeMode, Program};
    use sns_svg::Canvas;

    fn build_for(src: &str) -> (Program, DepIndex) {
        let program = Program::parse(src).unwrap();
        let outcome = program.eval_traced().unwrap();
        let canvas = Canvas::from_value(&outcome.value).unwrap();
        let mode = FreezeMode::default();
        let frozen = |l: LocId| program.is_frozen(l, mode);
        let assignments = analyze_canvas(&canvas, &frozen, Heuristic::Fair);
        let index = DepIndex::build(&assignments, &mut LocMemo::default());
        (program, index)
    }

    /// The index as built before the memo: every slot trace walked as a
    /// tree.
    fn tree_walk_locs(assignments: &Assignments) -> Vec<LocId> {
        let mut locs = BTreeSet::new();
        for zone in &assignments.zones {
            for slot in &zone.slots {
                slot.trace.collect_locs_into(&mut locs);
            }
        }
        locs.into_iter().collect()
    }

    #[test]
    fn memo_fed_index_matches_the_tree_walk_across_the_corpus() {
        sns_eval::with_big_stack(|| {
            for example in sns_examples::ALL {
                let program = Program::parse(example.source).unwrap();
                let canvas = Canvas::from_value(&program.eval().unwrap()).unwrap();
                let frozen = |l: LocId| program.is_frozen(l, FreezeMode::default());
                let assignments = analyze_canvas(&canvas, &frozen, Heuristic::Fair);
                let index = DepIndex::build(&assignments, &mut LocMemo::default());
                assert_eq!(
                    index.locs().collect::<Vec<_>>(),
                    tree_walk_locs(&assignments),
                    "{}",
                    example.slug
                );
            }
        });
    }

    #[test]
    fn index_holds_every_drawn_location_frozen_or_not() {
        // Eight user literals, one frozen: all eight are indexed, since a
        // code edit that unfreezes one changes the candidates.
        let src = "(svg [(rect 'a' 10 20 30 40!) (rect 'b' 50 60 70 80)])";
        let (program, index) = build_for(src);
        let user: Vec<LocId> = (program.next_loc() - 8..program.next_loc())
            .map(LocId)
            .collect();
        assert_eq!(index.locs().collect::<Vec<_>>(), user);
    }
}
