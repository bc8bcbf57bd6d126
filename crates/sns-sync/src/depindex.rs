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
//! It also records the **zone ↔ zone** edges of the "shares a location"
//! relation, as connected components ([`DepIndex::affected_closure`]). A
//! stitched re-prepare after a subtree code edit must re-analyze every zone
//! in a component the edit touches, because the heuristic's usage rotation
//! couples zones that compete for the same locations.

use std::collections::{BTreeSet, HashMap};

use sns_eval::LocMemo;
use sns_lang::LocId;

use crate::assign::Assignments;

/// Maps every location to the zones (indices into
/// [`Assignments::zones`]) whose attribute traces mention it, plus the
/// zone→zone dependence components.
#[derive(Debug, Default, PartialEq)]
pub struct DepIndex {
    by_loc: HashMap<LocId, Vec<usize>>,
    /// Zone index → connected-component id.
    component_of: Vec<usize>,
    /// Component id → member zone indices, ascending.
    component_zones: Vec<Vec<usize>>,
}

fn find(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

fn union(parent: &mut [usize], a: usize, b: usize) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        parent[ra] = rb;
    }
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
        DepIndex::from_locs(by_loc, assignments.zones.len())
    }

    /// The index of `by_loc` (location → ascending dependent zones) over
    /// `zone_count` zones.
    fn from_locs(by_loc: HashMap<LocId, Vec<usize>>, zone_count: usize) -> DepIndex {
        // Zones sharing any location are coupled through the choice pass.
        let mut parent: Vec<usize> = (0..zone_count).collect();
        for zones in by_loc.values() {
            for &z in &zones[1..] {
                union(&mut parent, zones[0], z);
            }
        }
        let mut component_of = vec![0usize; zone_count];
        let mut roots: HashMap<usize, usize> = HashMap::new();
        let mut component_zones: Vec<Vec<usize>> = Vec::new();
        for (i, slot) in component_of.iter_mut().enumerate() {
            let root = find(&mut parent, i);
            let id = *roots.entry(root).or_insert_with(|| {
                component_zones.push(Vec::new());
                component_zones.len() - 1
            });
            *slot = id;
            component_zones[id].push(i);
        }

        DepIndex {
            by_loc,
            component_of,
            component_zones,
        }
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

    /// All zones in any usage-coupled component touched by a changed
    /// location — the set a stitched re-prepare must re-analyze. A
    /// conservative over-approximation: zones sharing no location with the
    /// edit are provably unaffected by both the base-value motion and the
    /// heuristic's usage rotation.
    pub fn affected_closure(&self, changed: &BTreeSet<LocId>) -> BTreeSet<usize> {
        let mut components = BTreeSet::new();
        for &loc in changed {
            for &z in self.zones_for(loc) {
                components.insert(self.component_of[z]);
            }
        }
        let mut out = BTreeSet::new();
        for c in components {
            out.extend(self.component_zones[c].iter().copied());
        }
        out
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
        DepIndex::from_locs(by_loc, assignments.zones.len())
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
        let first_x = LocId(program.next_loc() - 8);
        let zones_of_first: BTreeSet<usize> = index.zones_for(first_x).iter().copied().collect();
        assert!(!zones_of_first.is_empty());
        for &i in &zones_of_first {
            assert_eq!(assignments.zones[i].shape, sns_svg::ShapeId(0));
        }
        // A dirty set over one rect's x never touches the other rect.
        let dirty = index.dirty_zones([first_x]);
        assert_eq!(dirty, zones_of_first);

        // Independent rects form disjoint zone components: the closure of
        // one rect's x stays within shape 0.
        let closure = index.affected_closure(&[first_x].into_iter().collect());
        for &i in &closure {
            assert_eq!(assignments.zones[i].shape, sns_svg::ShapeId(0));
        }
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

        // The shared location couples both shapes into one component, so
        // the affected closure spans zones of both.
        let closure = index.affected_closure(&[s].into_iter().collect());
        let closure_shapes: BTreeSet<sns_svg::ShapeId> = closure
            .iter()
            .map(|&i| assignments.zones[i].shape)
            .collect();
        assert_eq!(closure_shapes.len(), 2);
    }
}
