//! The location→zone dependence index behind incremental preparation.
//!
//! A zone's analysis is a function of the run-time traces of its
//! manipulable attributes. After a commit with substitution ρ whose domain
//! avoids every escaped location (so control flow — and therefore canvas
//! structure, traces, candidate sets, and heuristic choices — is
//! unchanged), the only zones whose analyses change *at all* are those
//! whose traces mention a location in `dom(ρ)`, and for those only the
//! attributes' base values move. This index, built once per full prepare,
//! answers "which zones can a changed location reach" in O(edit) instead
//! of rescanning the canvas.
//!
//! Its locations are every location the zones' slot traces mention, frozen
//! or not: a re-evaluated code edit keeps the prepare only when each of
//! them is frozen as it was ([`DepIndex::locs`]).

use std::collections::{BTreeSet, HashMap};

use sns_eval::LocMemo;
use sns_lang::LocId;

use crate::assign::Assignments;

/// Maps every location to the zones (indices into
/// [`Assignments::zones`]) whose attribute traces mention it.
#[derive(Debug, Default, PartialEq)]
pub struct DepIndex {
    by_loc: HashMap<LocId, Vec<usize>>,
}

impl DepIndex {
    /// Builds the index by one pass over every zone's attribute traces,
    /// reading each trace's locations from `memo` (shared with the
    /// analysis of the same prepare).
    pub fn build<'t>(assignments: &'t Assignments, memo: &mut LocMemo<'t>) -> DepIndex {
        let mut by_loc: HashMap<LocId, Vec<usize>> = HashMap::new();
        let mut locs = Vec::new();
        for (i, zone) in assignments.zones.iter().enumerate() {
            locs.clear();
            for slot in &zone.slots {
                locs.extend(memo.counts(&slot.trace).iter().map(|&(l, _)| l));
            }
            locs.sort_unstable();
            locs.dedup();
            for &l in &locs {
                by_loc.entry(l).or_default().push(i);
            }
        }
        DepIndex { by_loc }
    }

    /// The zones that depend on a single location, ascending.
    pub fn zones_for(&self, loc: LocId) -> &[usize] {
        self.by_loc.get(&loc).map_or(&[], Vec::as_slice)
    }

    /// The union of zones reached by any changed location, deduplicated.
    pub fn dirty_zones(&self, changed: impl IntoIterator<Item = LocId>) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        for loc in changed {
            out.extend(self.zones_for(loc).iter().copied());
        }
        out
    }

    /// Every indexed location, in no particular order.
    pub fn locs(&self) -> impl Iterator<Item = LocId> + '_ {
        self.by_loc.keys().copied()
    }

    /// Number of distinct locations indexed.
    pub fn len(&self) -> usize {
        self.by_loc.len()
    }

    /// Whether the index is empty (a canvas with no manipulable numbers).
    pub fn is_empty(&self) -> bool {
        self.by_loc.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{analyze_canvas, Heuristic};
    use sns_eval::{FreezeMode, Program};
    use sns_svg::Canvas;

    fn build_for(src: &str) -> (Program, Assignments, DepIndex) {
        let program = Program::parse(src).unwrap();
        let outcome = program.eval_traced().unwrap();
        let canvas = Canvas::from_value(&outcome.value).unwrap();
        let mode = FreezeMode::default();
        let frozen = |l: LocId| program.is_frozen(l, mode);
        let assignments = analyze_canvas(&canvas, &frozen, Heuristic::Fair);
        let index = DepIndex::build(&assignments, &mut LocMemo::default());
        (program, assignments, index)
    }

    /// The index as built before the memo: every slot trace walked as a
    /// tree.
    fn tree_walk_index(assignments: &Assignments) -> DepIndex {
        let mut by_loc: HashMap<LocId, Vec<usize>> = HashMap::new();
        for (i, zone) in assignments.zones.iter().enumerate() {
            let mut locs = BTreeSet::new();
            for slot in &zone.slots {
                slot.trace.collect_locs_into(&mut locs);
            }
            for l in locs {
                by_loc.entry(l).or_default().push(i);
            }
        }
        DepIndex { by_loc }
    }

    #[test]
    fn memo_fed_index_matches_the_tree_walk_across_the_corpus() {
        sns_eval::with_big_stack(|| {
            for example in sns_examples::ALL {
                let program = Program::parse(example.source).unwrap();
                let canvas = Canvas::from_value(&program.eval().unwrap()).unwrap();
                let frozen = |l: LocId| program.is_frozen(l, FreezeMode::default());
                let assignments = analyze_canvas(&canvas, &frozen, Heuristic::Fair);
                assert_eq!(
                    DepIndex::build(&assignments, &mut LocMemo::default()),
                    tree_walk_index(&assignments),
                    "{}",
                    example.slug
                );
            }
        });
    }

    #[test]
    fn index_routes_locations_to_dependent_zones_only() {
        // Two rects with independent coordinates: each rect's zones depend
        // only on its own four literals.
        let src = "(svg [(rect 'a' 10 20 30 40) (rect 'b' 50 60 70 80)])";
        let (program, assignments, index) = build_for(src);

        // 8 user literals; each appears in some zone of exactly one shape.
        assert_eq!(index.len(), 8);
        assert_eq!(index.locs().count(), 8);
        let first_x = LocId(program.next_loc() - 8);
        let zones_of_first: BTreeSet<usize> = index.zones_for(first_x).iter().copied().collect();
        assert!(!zones_of_first.is_empty());
        for &i in &zones_of_first {
            assert_eq!(assignments.zones[i].shape, sns_svg::ShapeId(0));
        }
        // A dirty set over one rect's x never touches the other rect.
        let dirty = index.dirty_zones([first_x]);
        assert_eq!(dirty, zones_of_first);
    }

    #[test]
    fn shared_locations_fan_out_to_all_dependents() {
        let src = "(def s 10) (svg [(rect 'a' s 0 5 5) (rect 'b' s 20 5 5)])";
        let (program, assignments, index) = build_for(src);
        let s = LocId(program.next_loc() - 7);
        let dirty = index.dirty_zones([s]);
        let shapes: BTreeSet<sns_svg::ShapeId> =
            dirty.iter().map(|&i| assignments.zones[i].shape).collect();
        assert_eq!(shapes.len(), 2, "both rects depend on s");
    }
}
