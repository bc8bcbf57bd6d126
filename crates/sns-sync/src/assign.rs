//! Shape/attribute assignments and disambiguation heuristics (§4.1, App. B.1).
//!
//! Preparing for direct manipulation means deciding, for every zone of every
//! shape, *which program constant* each manipulable attribute should drive.
//! The candidates for an attribute are the non-frozen locations in its
//! run-time trace; a zone's candidates are the distinct *location sets*
//! reachable by picking one location per attribute.
//!
//! Ambiguity is resolved without user intervention:
//!
//! * the **fair** heuristic balances how often each location set is chosen
//!   across the canvas, rotating through the options;
//! * the **biased** heuristic prefers location sets whose locations occur in
//!   few run-time traces (`Score = Π Count(ℓ)`), falling back to fair
//!   rotation on ties.
//!
//! One analysis shares its work across zones through a `PrepareMemo`:
//! each trace's locations are computed once per trace address, and
//! candidates are enumerated once per distinct *slot signature* — the
//! zone's (attribute, offset, non-frozen locations) list, which is all
//! enumeration reads. A canvas of many look-alike shapes (a keyboard's
//! keys, a tessellation's tiles) has far fewer signatures than zones, and
//! zones of one signature share one candidate list. The memo lives for one
//! prepare; nothing is cached across prepares.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use sns_eval::{LocMemo, Trace};
use sns_lang::LocId;
use sns_svg::{resolve_attr, AttrRef, Canvas, Offset, Shape, ShapeId, Zone, ZoneSpec};

/// Disambiguation strategy (§4.1 "Fair", Appendix B.1 "Biased").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Heuristic {
    /// Balance usage counts of location sets across zones.
    #[default]
    Fair,
    /// Prefer location sets with the lowest occurrence score, then balance.
    Biased,
}

/// Cap on distinct candidate location sets enumerated per zone; beyond this
/// the enumeration is truncated deterministically (`overflow` is set).
pub const CANDIDATE_CAP: usize = 256;

/// One manipulable attribute of a zone: its offset direction, value when
/// analyzed, trace, and candidate (non-frozen) locations.
#[derive(Debug, Clone)]
pub struct AttrSlot {
    /// Which attribute this slot controls.
    pub attr: AttrRef,
    /// How the attribute follows the mouse.
    pub offset: Offset,
    /// The attribute's value when the zone was analyzed. A live session
    /// keeps an analysis across commits that move the value; the current
    /// value is the canvas's.
    pub base: f64,
    /// The attribute's run-time trace.
    pub trace: Arc<Trace>,
    /// Non-frozen locations in the trace, ascending.
    pub locs: Vec<LocId>,
}

/// One candidate assignment for a zone: a location set together with a
/// representative attribute→location mapping realizing it.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The set of locations the candidate would modify.
    pub loc_set: BTreeSet<LocId>,
    /// One attribute→location choice per attribute with candidates.
    pub assignment: Vec<(AttrRef, LocId)>,
}

/// The analysis of a single zone.
#[derive(Debug, Clone)]
pub struct ZoneAnalysis {
    /// The shape the zone belongs to.
    pub shape: ShapeId,
    /// The zone.
    pub zone: Zone,
    /// Attribute slots (in Figure 5 order).
    pub slots: Vec<AttrSlot>,
    /// Distinct candidate location sets (deduplicated, capped), shared by
    /// every zone of the prepare with the same slot signature.
    pub candidates: Arc<[Candidate]>,
    /// Whether enumeration hit [`CANDIDATE_CAP`].
    pub overflow: bool,
    /// Index into `candidates` of the heuristic's choice; `None` when the
    /// zone is Inactive.
    pub chosen: Option<usize>,
}

impl ZoneAnalysis {
    /// Whether the user can manipulate this zone at all (§5.2.1).
    pub fn is_active(&self) -> bool {
        self.chosen.is_some()
    }

    /// The chosen candidate, if the zone is active.
    pub fn chosen_candidate(&self) -> Option<&Candidate> {
        self.chosen.map(|i| &self.candidates[i])
    }

    /// The location a given attribute is assigned to (γ(v)(ζ)('k')).
    pub fn loc_for(&self, attr: &AttrRef) -> Option<LocId> {
        self.chosen_candidate()?
            .assignment
            .iter()
            .find(|(a, _)| a == attr)
            .map(|(_, l)| *l)
    }
}

/// The result of preparing a canvas for direct manipulation: one analysis
/// per (shape, zone), in deterministic canvas order.
#[derive(Debug, Clone)]
pub struct Assignments {
    /// The heuristic used.
    pub heuristic: Heuristic,
    /// Per-zone analyses.
    pub zones: Vec<ZoneAnalysis>,
}

impl Assignments {
    /// Looks up the analysis for a shape's zone.
    pub fn zone(&self, shape: ShapeId, zone: Zone) -> Option<&ZoneAnalysis> {
        self.zones
            .iter()
            .find(|z| z.shape == shape && z.zone == zone)
    }

    /// Aggregate zone statistics (the §5.2.1 table).
    pub fn zone_stats(&self) -> ZoneStats {
        let mut s = ZoneStats::default();
        for z in &self.zones {
            s.total += 1;
            match z.candidates.len() {
                0 => s.inactive += 1,
                1 => s.unambiguous += 1,
                n => {
                    s.ambiguous += 1;
                    s.ambiguous_choices += n;
                }
            }
        }
        s
    }
}

/// Counts for the §5.2.1 "Active Zones" table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZoneStats {
    /// All zones.
    pub total: usize,
    /// Zones with zero candidates.
    pub inactive: usize,
    /// Zones with exactly one candidate.
    pub unambiguous: usize,
    /// Zones with more than one candidate.
    pub ambiguous: usize,
    /// Total candidates across ambiguous zones (for the average).
    pub ambiguous_choices: usize,
}

impl ZoneStats {
    /// Active = unambiguous + ambiguous.
    pub fn active(&self) -> usize {
        self.unambiguous + self.ambiguous
    }

    /// Average number of candidates among ambiguous zones.
    pub fn avg_ambiguous_choices(&self) -> f64 {
        if self.ambiguous == 0 {
            0.0
        } else {
            self.ambiguous_choices as f64 / self.ambiguous as f64
        }
    }
}

/// Analyzes a canvas: computes every zone's candidates and resolves the
/// ambiguity with the requested heuristic. This is the core of the paper's
/// "Prepare" phase.
///
/// `is_frozen` decides which locations may not be modified (freeze mode +
/// annotations + Prelude, see [`sns_eval::Program::is_frozen`]).
pub fn analyze_canvas(
    canvas: &Canvas,
    is_frozen: &dyn Fn(LocId) -> bool,
    heuristic: Heuristic,
) -> Assignments {
    analyze_canvas_with(canvas, is_frozen, heuristic, &mut PrepareMemo::default())
}

/// [`analyze_canvas`] feeding `memo`, which the caller may go on using
/// for the same prepare (the dependence index reads its trace locations).
pub(crate) fn analyze_canvas_with<'t>(
    canvas: &'t Canvas,
    is_frozen: &dyn Fn(LocId) -> bool,
    heuristic: Heuristic,
    memo: &mut PrepareMemo<'t>,
) -> Assignments {
    // Global occurrence counts Count(ℓ) for the biased heuristic. The fair
    // heuristic never reads them (its score term is constant), so the map
    // is left empty to skip the canvas walk.
    let mut counts: HashMap<LocId, usize> = HashMap::new();
    if heuristic == Heuristic::Biased {
        for shape in canvas.shapes() {
            for num in shape.node.attr_nums() {
                for &(l, n) in memo.locs.counts(&num.t) {
                    let n = usize::try_from(n).unwrap_or(usize::MAX);
                    let count = counts.entry(l).or_insert(0);
                    *count = count.saturating_add(n);
                }
            }
        }
    }
    let mut zones = Vec::new();
    for shape in canvas.shapes() {
        for spec in shape.zones() {
            zones.push(analyze_zone(shape, &spec, is_frozen, memo));
        }
    }
    choose_all(&mut zones, heuristic, &counts);
    Assignments { heuristic, zones }
}

/// What one prepare shares across zones: each trace's locations, by trace
/// address, and each distinct slot signature's candidates.
#[derive(Debug, Default)]
pub(crate) struct PrepareMemo<'t> {
    pub(crate) locs: LocMemo<'t>,
    /// Signature hash → the signatures with that hash, each with its
    /// candidates.
    candidates: HashMap<u64, Vec<(Vec<SlotSig>, Enumerated)>>,
}

/// What candidate enumeration reads of one slot.
type SlotSig = (AttrRef, Offset, Vec<LocId>);

/// A zone's candidates and whether their enumeration overflowed.
type Enumerated = (Arc<[Candidate]>, bool);

impl PrepareMemo<'_> {
    /// The candidates of a zone with these slots, enumerated on the first
    /// request for their signature.
    fn candidates(&mut self, slots: &[AttrSlot]) -> Enumerated {
        let mut hasher = DefaultHasher::new();
        for slot in slots {
            (&slot.attr, slot.offset, &slot.locs).hash(&mut hasher);
        }
        let bucket = self.candidates.entry(hasher.finish()).or_default();
        let same = |sig: &[SlotSig]| {
            sig.len() == slots.len()
                && sig.iter().zip(slots).all(|((attr, offset, locs), s)| {
                    (attr, offset, locs) == (&s.attr, &s.offset, &s.locs)
                })
        };
        if let Some((_, (candidates, overflow))) = bucket.iter().find(|(sig, _)| same(sig)) {
            return (Arc::clone(candidates), *overflow);
        }
        let (candidates, overflow) = enumerate_candidates(slots);
        let candidates: Arc<[Candidate]> = candidates.into();
        let sig = slots
            .iter()
            .map(|s| (s.attr.clone(), s.offset, s.locs.clone()))
            .collect();
        bucket.push((sig, (Arc::clone(&candidates), overflow)));
        (candidates, overflow)
    }
}

/// One zone's slots and candidates, with `chosen` left `None`.
fn analyze_zone<'t>(
    shape: Shape<'t>,
    spec: &ZoneSpec,
    is_frozen: &dyn Fn(LocId) -> bool,
    memo: &mut PrepareMemo<'t>,
) -> ZoneAnalysis {
    let mut slots = Vec::new();
    for (attr, offset) in &spec.effects {
        let Some(num) = resolve_attr(shape.node, attr) else {
            continue;
        };
        let locs: Vec<LocId> = memo
            .locs
            .counts(&num.t)
            .iter()
            .map(|&(l, _)| l)
            .filter(|l| !is_frozen(*l))
            .collect();
        slots.push(AttrSlot {
            attr: attr.clone(),
            offset: *offset,
            base: shape.value(num),
            trace: Arc::clone(&num.t),
            locs,
        });
    }
    let (candidates, overflow) = memo.candidates(&slots);
    ZoneAnalysis {
        shape: shape.id,
        zone: spec.zone,
        slots,
        candidates,
        overflow,
        chosen: None,
    }
}

/// The sequential disambiguation pass of [`analyze_canvas`]: walks the
/// zones in canvas order, choosing a candidate per zone and counting each
/// chosen location set's uses for the fair rotation.
fn choose_all(zones: &mut [ZoneAnalysis], heuristic: Heuristic, counts: &HashMap<LocId, usize>) {
    let mut usage: HashMap<BTreeSet<LocId>, usize> = HashMap::new();
    for zone in zones {
        let chosen = choose(&zone.candidates, heuristic, &usage, counts);
        if let Some(i) = chosen {
            *usage.entry(zone.candidates[i].loc_set.clone()).or_insert(0) += 1;
        }
        zone.chosen = chosen;
    }
}

/// A group of attribute slots that must share one location choice.
struct SlotGroup<'a> {
    slots: Vec<&'a AttrSlot>,
    locs: Vec<LocId>,
}

/// Groups a zone's slots for candidate enumeration.
///
/// Attributes that vary with the *same* mouse offset — e.g. every point-x
/// of a polygon's INTERIOR zone, or `x1`/`x2` of a line's EDGE — are driven
/// by a single shared location: the intersection of their candidate sets.
/// This keeps multi-point zones from exploding combinatorially and matches
/// the small per-zone candidate counts the paper reports for
/// polygon-heavy examples (Stars 2.88, Tessellation 2.56). If the
/// intersection is empty, the slots fall back to independent choices.
fn group_slots(slots: &[AttrSlot]) -> Vec<SlotGroup<'_>> {
    let mut groups: Vec<(Offset, Vec<&AttrSlot>)> = Vec::new();
    for slot in slots.iter().filter(|s| !s.locs.is_empty()) {
        match groups.iter_mut().find(|(o, _)| *o == slot.offset) {
            Some((_, members)) => members.push(slot),
            None => groups.push((slot.offset, vec![slot])),
        }
    }
    let mut out = Vec::new();
    for (_, members) in groups {
        if members.len() == 1 {
            let locs = members[0].locs.clone();
            out.push(SlotGroup {
                slots: members,
                locs,
            });
            continue;
        }
        let mut shared: BTreeSet<LocId> = members[0].locs.iter().copied().collect();
        for m in &members[1..] {
            let other: BTreeSet<LocId> = m.locs.iter().copied().collect();
            shared = shared.intersection(&other).copied().collect();
        }
        if shared.is_empty() {
            // No common driver: each slot chooses independently.
            for m in members {
                out.push(SlotGroup {
                    slots: vec![m],
                    locs: m.locs.clone(),
                });
            }
        } else {
            out.push(SlotGroup {
                slots: members,
                locs: shared.into_iter().collect(),
            });
        }
    }
    out
}

/// Enumerates the distinct candidate location sets of a zone by folding the
/// per-group choices left to right, deduplicating by set, and capping at
/// [`CANDIDATE_CAP`].
fn enumerate_candidates(slots: &[AttrSlot]) -> (Vec<Candidate>, bool) {
    let groups = group_slots(slots);
    if groups.is_empty() {
        return (Vec::new(), false);
    }
    let mut acc: Vec<Candidate> = vec![Candidate {
        loc_set: BTreeSet::new(),
        assignment: Vec::new(),
    }];
    let mut overflow = false;
    for group in &groups {
        let mut next: Vec<Candidate> = Vec::new();
        let mut seen: std::collections::HashSet<BTreeSet<LocId>> = std::collections::HashSet::new();
        // Earlier attributes vary fastest, so the fair heuristic's rotation
        // walks the x-location first (matching §2.3: box 0 → x0, box 1 →
        // sep, …).
        'outer: for &loc in &group.locs {
            for cand in &acc {
                let mut set = cand.loc_set.clone();
                set.insert(loc);
                if seen.insert(set.clone()) {
                    let mut assignment = cand.assignment.clone();
                    for slot in &group.slots {
                        assignment.push((slot.attr.clone(), loc));
                    }
                    next.push(Candidate {
                        loc_set: set,
                        assignment,
                    });
                    if next.len() >= CANDIDATE_CAP {
                        overflow = true;
                        break 'outer;
                    }
                }
            }
        }
        acc = next;
    }
    (acc, overflow)
}

/// Picks a candidate per the heuristic: biased score first (if enabled),
/// then fewest previous uses of the location set, then enumeration order.
fn choose(
    candidates: &[Candidate],
    heuristic: Heuristic,
    usage: &HashMap<BTreeSet<LocId>, usize>,
    counts: &HashMap<LocId, usize>,
) -> Option<usize> {
    if candidates.is_empty() {
        return None;
    }
    let score = |c: &Candidate| -> u64 {
        c.loc_set
            .iter()
            .map(|l| counts.get(l).copied().unwrap_or(1).max(1) as u64)
            .fold(1u64, |a, b| a.saturating_mul(b))
    };
    let key = |i: usize, c: &Candidate| -> (u64, usize, usize) {
        let s = match heuristic {
            Heuristic::Fair => 0,
            Heuristic::Biased => score(c),
        };
        (s, usage.get(&c.loc_set).copied().unwrap_or(0), i)
    };
    candidates
        .iter()
        .enumerate()
        .min_by_key(|(i, c)| key(*i, c))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_eval::{FreezeMode, Program};

    const SINE_WAVE: &str = r#"
        (def [x0 y0 w h sep amp] [50 120 20 90 30 60])
        (def n 12!{3-30})
        (def boxi (λ i
          (let xi (+ x0 (* i sep))
          (let yi (- y0 (* amp (sin (* i (/ twoPi n)))))
            (rect 'lightblue' xi yi w h)))))
        (svg (map boxi (zeroTo n)))
    "#;

    fn prepare(src: &str, heuristic: Heuristic) -> (Program, Assignments) {
        let program = Program::parse(src).unwrap();
        let canvas = Canvas::from_value(&program.eval().unwrap()).unwrap();
        let mode = FreezeMode::default();
        let frozen = |l: LocId| program.is_frozen(l, mode);
        let assignments = analyze_canvas(&canvas, &frozen, heuristic);
        (program, assignments)
    }

    #[test]
    fn sine_wave_interior_has_four_candidates() {
        // §4.1: Locs(x) = {x0, sep}, Locs(y) = {y0, amp} → θ1..θ4.
        let (_, a) = prepare(SINE_WAVE, Heuristic::Fair);
        let interior = a.zone(ShapeId(2), Zone::Interior).unwrap();
        assert_eq!(interior.candidates.len(), 4);
        assert!(interior.is_active());
    }

    #[test]
    fn fair_heuristic_rotates_assignments() {
        // §4.1: γ(box_i) = θ_{1 + (i mod 4)} — each box's Interior gets a
        // different location set than its three predecessors.
        let (_, a) = prepare(SINE_WAVE, Heuristic::Fair);
        let sets: Vec<BTreeSet<LocId>> = (0..4)
            .map(|i| {
                a.zone(ShapeId(i), Zone::Interior)
                    .unwrap()
                    .chosen_candidate()
                    .unwrap()
                    .loc_set
                    .clone()
            })
            .collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(sets[i], sets[j], "boxes {i} and {j} share a location set");
            }
        }
        // And box 4 rotates back to box 0's set.
        let set4 = &a
            .zone(ShapeId(4), Zone::Interior)
            .unwrap()
            .chosen_candidate()
            .unwrap()
            .loc_set;
        assert_eq!(&sets[0], set4);
    }

    #[test]
    fn frozen_constants_are_excluded() {
        let (program, a) = prepare(SINE_WAVE, Heuristic::Fair);
        // `n` is frozen (12!); the width/height literals are not.
        for z in &a.zones {
            if let Some(c) = z.chosen_candidate() {
                for l in &c.loc_set {
                    assert!(!program.is_frozen(*l, FreezeMode::default()));
                }
            }
        }
    }

    #[test]
    fn all_frozen_makes_zones_inactive() {
        let program = Program::parse(SINE_WAVE).unwrap();
        let canvas = Canvas::from_value(&program.eval().unwrap()).unwrap();
        let frozen = |_: LocId| true;
        let a = analyze_canvas(&canvas, &frozen, Heuristic::Fair);
        let stats = a.zone_stats();
        assert_eq!(stats.active(), 0);
        assert_eq!(stats.inactive, stats.total);
    }

    #[test]
    fn zone_stats_add_up() {
        let (_, a) = prepare(SINE_WAVE, Heuristic::Fair);
        let s = a.zone_stats();
        assert_eq!(s.total, s.inactive + s.unambiguous + s.ambiguous);
        // 12 rects × 9 zones.
        assert_eq!(s.total, 108);
        assert!(s.avg_ambiguous_choices() > 1.0);
    }

    #[test]
    fn biased_heuristic_prefers_rare_locations() {
        // Appendix B.1's example: x0' = x0 + a + a + b + b makes a and b
        // occur twice per box trace; biased should avoid them.
        let src = r#"
            (def [x0 y0 w h sep amp] [50 120 20 90 30 60])
            (def [a b] [0 0])
            (def x0q (+ x0 (+ a (+ a (+ b b)))))
            (def boxi (λ i
              (let xi (+ x0q (* i sep))
                (rect 'lightblue' xi y0 w h))))
            (svg (map boxi (zeroTo 6!)))
        "#;
        let (program, a) = prepare(src, Heuristic::Biased);
        let name_of = |set: &BTreeSet<LocId>| -> Vec<String> {
            set.iter().map(|l| program.display_loc(*l)).collect()
        };
        for i in 1..6 {
            // With the biased heuristic, interiors alternate x0/sep and
            // never pick a or b.
            let z = a.zone(ShapeId(i), Zone::Interior).unwrap();
            let names = name_of(&z.chosen_candidate().unwrap().loc_set);
            assert!(
                !names.contains(&"a".to_string()) && !names.contains(&"b".to_string()),
                "box {i} chose {names:?}"
            );
        }
    }

    #[test]
    fn unambiguous_zone_single_candidate() {
        let (_, a) = prepare("(svg [(rect 'red' 10 20 30 40)])", Heuristic::Fair);
        let z = a.zone(ShapeId(0), Zone::Interior).unwrap();
        assert_eq!(z.candidates.len(), 1);
        let c = z.chosen_candidate().unwrap();
        assert_eq!(c.loc_set.len(), 2); // {x, y} literal locations
    }

    /// The analysis with nothing shared between zones: a fresh memo per
    /// zone, and the biased heuristic's counts from a tree walk.
    fn analyze_unshared(
        canvas: &Canvas,
        is_frozen: &dyn Fn(LocId) -> bool,
        heuristic: Heuristic,
    ) -> Assignments {
        let mut counts = HashMap::new();
        if heuristic == Heuristic::Biased {
            for shape in canvas.shapes() {
                for num in shape.node.attr_nums() {
                    num.t.count_locs_into(&mut counts);
                }
            }
        }
        let mut zones = Vec::new();
        for shape in canvas.shapes() {
            for spec in shape.zones() {
                let mut memo = PrepareMemo::default();
                zones.push(analyze_zone(shape, &spec, is_frozen, &mut memo));
            }
        }
        choose_all(&mut zones, heuristic, &counts);
        Assignments { heuristic, zones }
    }

    /// A zone's analysis as text, with each slot's trace by address.
    fn describe(z: &ZoneAnalysis) -> String {
        let slots: Vec<_> = z
            .slots
            .iter()
            .map(|s| {
                let at = Arc::as_ptr(&s.trace);
                (&s.attr, s.offset, s.base.to_bits(), &s.locs, at)
            })
            .collect();
        let candidates: Vec<_> = z
            .candidates
            .iter()
            .map(|c| (&c.loc_set, &c.assignment))
            .collect();
        format!(
            "{} {} {slots:?} {candidates:?} overflow={} chosen={:?}",
            z.shape, z.zone, z.overflow, z.chosen
        )
    }

    #[test]
    fn shared_analysis_matches_an_unshared_one_across_the_corpus() {
        sns_eval::with_big_stack(|| {
            let modes = [
                FreezeMode::annotated_only(),
                FreezeMode::all_except_thawed(),
                FreezeMode::nothing_frozen(),
            ];
            for example in sns_examples::ALL {
                let program = Program::parse(example.source).unwrap();
                let canvas = Canvas::from_value(&program.eval().unwrap()).unwrap();
                for mode in modes {
                    let frozen = |l: LocId| program.is_frozen(l, mode);
                    for heuristic in [Heuristic::Fair, Heuristic::Biased] {
                        let shared = analyze_canvas(&canvas, &frozen, heuristic);
                        let unshared = analyze_unshared(&canvas, &frozen, heuristic);
                        let at = format!("{} {mode:?} {heuristic:?}", example.slug);
                        assert_eq!(shared.zones.len(), unshared.zones.len(), "{at}");
                        for (a, b) in shared.zones.iter().zip(&unshared.zones) {
                            assert_eq!(describe(a), describe(b), "{at}");
                            for slot in &a.slots {
                                let walked: Vec<LocId> = slot
                                    .trace
                                    .locs()
                                    .into_iter()
                                    .filter(|l| !frozen(*l))
                                    .collect();
                                assert_eq!(slot.locs, walked, "{at}: {}", slot.attr);
                            }
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn look_alike_zones_share_one_candidate_list() {
        let example = sns_examples::by_slug("keyboard").unwrap();
        let program = Program::parse(example.source).unwrap();
        let canvas = Canvas::from_value(&program.eval().unwrap()).unwrap();
        let frozen = |l: LocId| program.is_frozen(l, FreezeMode::default());
        let a = analyze_canvas(&canvas, &frozen, Heuristic::Fair);
        let lists: BTreeSet<*const Candidate> =
            a.zones.iter().map(|z| z.candidates.as_ptr()).collect();
        assert!(
            lists.len() * 10 < a.zones.len(),
            "{} candidate lists for {} zones",
            lists.len(),
            a.zones.len()
        );
    }

    /// Drops a trace without recursing on its depth.
    fn drop_flat(t: Arc<Trace>) {
        let mut work = vec![t];
        while let Some(t) = work.pop() {
            if let Ok(Trace::Op(_, args)) = Arc::try_unwrap(t) {
                work.extend(args);
            }
        }
    }

    #[test]
    fn a_deep_trace_prepares_on_a_default_thread_stack() {
        use sns_eval::Value;
        use sns_lang::Op;

        // Rust's default stack for a spawned thread: 2 MiB.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let (a, b) = (LocId(0), LocId(1));
                let deep =
                    (0..100_000).fold(Trace::loc(a), |t, _| Trace::op(Op::Add, [t, Trace::loc(b)]));
                let pair = |k: &str, v: Value| Value::from_vec(vec![Value::str(k), v]);
                let num = |t: Arc<Trace>| Value::Num(7.0, t);
                let rect = Value::from_vec(vec![
                    Value::str("rect"),
                    Value::from_vec(vec![
                        pair("x", num(Arc::clone(&deep))),
                        pair("y", num(Trace::loc(LocId(2)))),
                        pair("width", num(Trace::loc(LocId(3)))),
                        pair("height", num(Trace::loc(LocId(4)))),
                    ]),
                    Value::Nil,
                ]);
                let svg = Value::from_vec(vec![
                    Value::str("svg"),
                    Value::Nil,
                    Value::from_vec(vec![rect]),
                ]);
                let canvas = Canvas::from_value(&svg).unwrap();
                drop(svg);
                for heuristic in [Heuristic::Fair, Heuristic::Biased] {
                    let mut memo = PrepareMemo::default();
                    let a = analyze_canvas_with(&canvas, &|_| false, heuristic, &mut memo);
                    let index = crate::DepIndex::build(&a, &mut memo.locs);
                    let x = a.zone(ShapeId(0), Zone::Interior).unwrap();
                    assert_eq!(x.slots[0].locs, vec![LocId(0), LocId(1)]);
                    assert!(index.locs().any(|l| l == LocId(1)));
                }
                drop(canvas);
                drop_flat(deep);
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn candidate_enumeration_caps() {
        // A polygon whose every coordinate mixes many shared locations
        // cannot blow up preparation.
        let src = r#"
            (def [a b c d e f g h] [1 2 3 4 5 6 7 8])
            (def m (+ a (+ b (+ c (+ d (+ e (+ f (+ g h))))))))
            (def pts (map (λ i [(+ m i) (+ m (* 2 i))]) (zeroTo 10!)))
            (svg [(polygon 'red' 'black' 2 pts)])
        "#;
        let (_, a) = prepare(src, Heuristic::Fair);
        for z in &a.zones {
            assert!(z.candidates.len() <= CANDIDATE_CAP);
        }
    }
}
