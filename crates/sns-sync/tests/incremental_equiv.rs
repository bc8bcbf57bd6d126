//! Corpus-wide equivalence: for every example and a seeded set of drags
//! and commits, the incremental prepare + drag fast-path must be
//! observably indistinguishable — bit for bit — from the full
//! re-evaluate + re-prepare reference path.
//!
//! Two sessions run the same program side by side: one commits through
//! [`LiveSync::commit`] (and edits code through
//! [`LiveSync::set_program_diffed`]), the reference only through the full
//! path, [`LiveSync::replace_program`] ([`full_commit`]). After every
//! drag the inferred substitutions must agree; after every commit the
//! program text, the rendered canvas, every zone analysis (slots with
//! their current values, candidates with their assignments, chosen
//! index), and every trigger with the bases a drag reads must agree.
//!
//! Every drag is also checked against the updated program evaluated in
//! full ([`checked_drag`]): a drag builds no canvas, so this is what keeps
//! the swept-canvas path honest between commits. After every fast-tier
//! commit, the numbers the trace tape's sweep wrote in place and the
//! bases drags read from the tape are checked against a fresh full
//! prepare, and every active zone of both sessions is fired
//! ([`swept_commits_match_a_fresh_full_prepare_bitwise`]).

use std::collections::BTreeSet;
use std::fmt::Write as _;

use sns_eval::Program;
use sns_lang::Subst;
use sns_svg::{resolve_attr, Canvas, RenderOptions, ShapeId, SvgChild, SvgNode, Zone};
use sns_sync::{
    DragResult, LiveConfig, LiveError, LiveStats, LiveSync, SetCodeClass, SolverChoice,
};

/// Deterministic SplitMix64 (same generator as `sns-stats`' harness).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn offset(&mut self) -> f64 {
        // Offsets in ±[1, 32], quarter-pixel granularity.
        let mag = 1.0 + (self.next_u64() % 125) as f64 * 0.25;
        if self.next_u64().is_multiple_of(2) {
            mag
        } else {
            -mag
        }
    }
}

/// The reference commit: the program under `subst`, re-evaluated and
/// prepared in full.
fn full_commit(live: &mut LiveSync, subst: &Subst) -> Result<(), LiveError> {
    live.replace_program(live.program().with_subst(subst))
}

/// A session on `program` with the default configuration.
fn session(program: Program) -> LiveSync {
    LiveSync::new(program, LiveConfig::default()).expect("prepares")
}

/// One drag step, checked against the updated program evaluated in full:
/// the drag must fail exactly when that evaluation does, and when it
/// succeeds the session's preview canvas (swept from the trace tape when
/// a tier proves it safe) must equal the evaluated canvas bit for bit.
fn checked_drag(
    live: &LiveSync,
    shape: ShapeId,
    zone: Zone,
    dx: f64,
    dy: f64,
) -> Result<DragResult, LiveError> {
    let result = live.drag(shape, zone, dx, dy);
    let Some(trigger) = live.trigger(shape, zone) else {
        assert!(
            result.is_err(),
            "a drag on inactive {shape} {zone} succeeded"
        );
        return result;
    };
    let fire = trigger.fire(&live.program().subst(), dx, dy, SolverChoice::default());
    let evaluated = live
        .program()
        .with_subst(&fire.subst)
        .eval()
        .map_err(LiveError::from)
        .and_then(|v| Canvas::from_value(&v).map_err(LiveError::from));
    match (&result, evaluated) {
        (Ok(r), Ok(full)) => {
            assert_eq!(r.subst, fire.subst, "drag on {shape} {zone}");
            let preview = live
                .preview_canvas(&r.subst)
                .expect("an accepted drag has a preview");
            assert_eq!(
                preview.to_svg(RenderOptions::default()),
                full.to_svg(RenderOptions::default()),
                "preview of {shape} {zone} by {} differs from full evaluation",
                r.subst
            );
            assert_eq!(
                value_bits(&preview),
                value_bits(&full),
                "drag on {shape} {zone}"
            );
        }
        (Err(_), Err(_)) => {}
        (r, e) => panic!("drag on {shape} {zone}: drag gave {r:?}, full evaluation {e:?}"),
    }
    result
}

/// A slot's current value, as bits: its attribute's number on the canvas.
/// (An analysis keeps the value it was prepared with.)
fn current_bits(live: &LiveSync, shape: ShapeId, attr: &sns_svg::AttrRef) -> u64 {
    let shape = live.canvas().shape(shape).expect("an analyzed shape");
    let num = resolve_attr(shape.node, attr).expect("an analyzed attribute");
    shape.value(num).to_bits()
}

/// A canvas's flat value array, as bits.
fn value_bits(canvas: &Canvas) -> Vec<u64> {
    canvas.nums().iter().map(|n| n.to_bits()).collect()
}

/// Everything observable about a prepared session, rendered to a string.
/// `f64`s are captured via `to_bits`, so equality here is bit-equality.
/// Slot values are read from the canvas and trigger bases through
/// [`LiveSync::trigger`], which reads them as a drag does.
fn fingerprint(live: &LiveSync) -> String {
    let mut out = String::new();
    out.push_str(&live.program().code());
    out.push('\n');
    out.push_str(&live.canvas().to_svg(RenderOptions::default()));
    out.push('\n');
    for z in &live.assignments().zones {
        write!(
            out,
            "{} {} chosen={:?} overflow={}",
            z.shape, z.zone, z.chosen, z.overflow
        )
        .unwrap();
        for slot in &z.slots {
            write!(
                out,
                " slot({:?},{:?},{:016x},tr{}:{:?})",
                slot.attr,
                slot.offset,
                current_bits(live, z.shape, &slot.attr),
                slot.trace.size(),
                slot.locs,
            )
            .unwrap();
        }
        for c in z.candidates.iter() {
            write!(out, " cand({:?},{:?})", c.loc_set, c.assignment).unwrap();
        }
        out.push('\n');
        if let Some(t) = live.trigger(z.shape, z.zone) {
            for p in &t.parts {
                write!(
                    out,
                    "  part({:?},{:?},{},{:016x},tr{})",
                    p.attr,
                    p.offset,
                    p.loc,
                    p.base.to_bits(),
                    p.trace.size(),
                )
                .unwrap();
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn incremental_prepare_matches_full_prepare_across_the_corpus() {
    sns_eval::with_big_stack(|| {
        let mut fallback_only = Vec::new();
        for example in sns_examples::ALL {
            let program = Program::parse(example.source).expect("corpus parses");
            let mut incremental = session(program.clone());
            let mut full = session(program);

            assert_eq!(
                fingerprint(&incremental),
                fingerprint(&full),
                "{}: initial prepare differs",
                example.slug
            );

            let active: Vec<_> = incremental
                .assignments()
                .zones
                .iter()
                .filter(|z| z.is_active())
                .map(|z| (z.shape, z.zone))
                .collect();
            if active.is_empty() {
                continue;
            }

            let mut rng = Rng(0xC0FFEE ^ example.slug.len() as u64);
            let mut incremental_commits = 0u64;
            for _ in 0..3 {
                let (shape, zone) = active[rng.below(active.len())];
                let (dx, dy) = (rng.offset(), rng.offset());
                // Both sessions must agree on whether the drag works at all.
                let a = checked_drag(&incremental, shape, zone, dx, dy);
                let b = checked_drag(&full, shape, zone, dx, dy);
                match (a, b) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(
                            a.subst, b.subst,
                            "{}: drag on {shape} {zone} inferred different updates",
                            example.slug
                        );
                        if incremental.control_flow_safe(&a.subst) {
                            incremental_commits += 1;
                        }
                        match (
                            incremental.commit(&a.subst),
                            full_commit(&mut full, &b.subst),
                        ) {
                            (Ok(()), Ok(())) => {}
                            (Err(_), Err(_)) => continue,
                            (a, b) => {
                                panic!("{}: commit outcomes diverged: {a:?} vs {b:?}", example.slug)
                            }
                        }
                        assert_eq!(
                            fingerprint(&incremental),
                            fingerprint(&full),
                            "{}: state after commit on {shape} {zone} differs",
                            example.slug
                        );
                    }
                    (Err(_), Err(_)) => continue,
                    (a, b) => panic!("{}: drag outcomes diverged: {a:?} vs {b:?}", example.slug),
                }
            }
            if incremental_commits == 0 {
                fallback_only.push(example.slug);
            }
            assert_eq!(
                incremental.stats().incremental_prepares,
                incremental_commits,
                "{}: control-flow-safe commits must take the incremental path",
                example.slug
            );
        }
        // The fast path must actually fire broadly, not just on toys: at
        // least three quarters of the corpus commits incrementally under
        // this seed.
        let total = sns_examples::ALL.len();
        assert!(
            fallback_only.len() * 4 <= total,
            "fast path missed too many examples: {fallback_only:?}"
        );
    });
}

/// Every number of a node tree, as bits, attributes before children,
/// each read from `nums` through its slot.
fn tree_bits(node: &SvgNode, nums: &[f64], out: &mut Vec<u64>) {
    out.extend(node.attr_nums().iter().map(|n| n.value(nums).to_bits()));
    for child in &node.children {
        if let SvgChild::Node(n) = child {
            tree_bits(n, nums, out);
        }
    }
}

/// The numbers a fast-tier commit moves, as bits: the canvas's flat value
/// array (written in place), shape by shape through the tree's slots,
/// every slot's current value (read from the canvas) and every trigger
/// part's current base (read from the tape, as a drag reads it).
fn written_bits(live: &LiveSync) -> (Vec<u64>, Vec<Vec<u64>>, Vec<u64>, Vec<u64>) {
    let root = value_bits(live.canvas());
    let shapes = live
        .canvas()
        .shapes()
        .map(|s| {
            let mut out = Vec::new();
            tree_bits(s.node, s.nums, &mut out);
            out
        })
        .collect();
    let zones = &live.assignments().zones;
    let slots = zones
        .iter()
        .flat_map(|z| z.slots.iter().map(|s| current_bits(live, z.shape, &s.attr)))
        .collect();
    let parts = zones
        .iter()
        .filter_map(|z| live.trigger(z.shape, z.zone))
        .flat_map(|t| t.parts.into_iter().map(|p| p.base.to_bits()))
        .collect();
    (root, shapes, slots, parts)
}

/// Every active zone of `live` fired by a drag at one fixed offset: the
/// substitution's bindings as bits, or the refusal.
fn fired_bits(live: &LiveSync) -> Vec<Result<Vec<(u32, u64)>, String>> {
    live.assignments()
        .zones
        .iter()
        .filter(|z| z.is_active())
        .map(|z| {
            live.drag(z.shape, z.zone, 7.25, -3.5)
                .map(|r| r.subst.iter().map(|(l, v)| (l.0, v.to_bits())).collect())
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// The trace tape's oracle: after every fast-tier commit, each number the
/// sweep wrote in place — the canvas's value array, and each shape's
/// numbers read through it — every slot's current value and every trigger part base a drag
/// reads from the tape is bitwise what a fresh full prepare of the
/// committed program computes, and every active zone fires the same
/// substitution in both sessions.
#[test]
fn swept_commits_match_a_fresh_full_prepare_bitwise() {
    sns_eval::with_big_stack(|| {
        let mut swept = 0u64;
        for example in sns_examples::ALL {
            let program = Program::parse(example.source).expect("corpus parses");
            let mut live = session(program);
            let active: Vec<_> = live
                .assignments()
                .zones
                .iter()
                .filter(|z| z.is_active())
                .map(|z| (z.shape, z.zone))
                .collect();
            if active.is_empty() {
                continue;
            }
            let mut rng = Rng(0x7A9E ^ example.slug.len() as u64);
            for _ in 0..4 {
                let (shape, zone) = active[rng.below(active.len())];
                let (dx, dy) = (rng.offset(), rng.offset());
                let Ok(drag) = live.drag(shape, zone, dx, dy) else {
                    continue;
                };
                if !live.control_flow_safe(&drag.subst) {
                    continue;
                }
                let before = live.stats().incremental_prepares;
                live.commit(&drag.subst)
                    .expect("a fast-tier commit succeeds");
                assert_eq!(
                    live.stats().incremental_prepares,
                    before + 1,
                    "{}: commit on {shape} {zone} left the fast tier",
                    example.slug
                );
                swept += 1;
                // A new session prepares in full; its drags take the same
                // tiers as `live`'s, so only escaped zones evaluate.
                let fresh = session(live.program().clone());
                let (root, shapes, slots, parts) = written_bits(&live);
                let (f_root, f_shapes, f_slots, f_parts) = written_bits(&fresh);
                let at = format!("{}: after commit on {shape} {zone}", example.slug);
                assert_eq!(root, f_root, "{at}: root numbers differ");
                assert_eq!(shapes, f_shapes, "{at}: shape numbers differ");
                assert_eq!(slots, f_slots, "{at}: slot values differ");
                assert_eq!(parts, f_parts, "{at}: trigger part bases differ");
                assert_eq!(
                    fired_bits(&live),
                    fired_bits(&fresh),
                    "{at}: fired zones differ"
                );
            }
        }
        assert!(swept >= 100, "only {swept} fast-tier commits exercised");
    });
}

/// The programs of livebench's `drag_large` workload: the corpus's
/// largest canvases.
const DRAG_LARGE: [&str; 7] = [
    "us50_flag",
    "fractal_tree",
    "sliders",
    "keyboard",
    "tessellation",
    "us13_flag",
    "spiral",
];

/// A fast-tier commit stores each swept number by index into the canvas's
/// flat value array. After a run of them on each large program, that
/// array is bitwise, and its render byte for byte, what a fresh session
/// of the committed program builds by evaluating it.
#[test]
fn fast_commits_leave_the_value_array_a_fresh_session_builds() {
    sns_eval::with_big_stack(|| {
        for slug in DRAG_LARGE {
            let example = sns_examples::by_slug(slug).expect("corpus example");
            let program = Program::parse(example.source).expect("corpus parses");
            let mut live = session(program);
            let proof_only: Vec<_> = live
                .assignments()
                .zones
                .iter()
                .map(|z| (z.shape, z.zone))
                .filter(|&(shape, zone)| live.drag_is_proof_only(shape, zone))
                .collect();
            let mut rng = Rng(0xF1A7 ^ slug.len() as u64);
            let mut fast = 0;
            for _ in 0..12 {
                let (shape, zone) = proof_only[rng.below(proof_only.len())];
                let (dx, dy) = (rng.offset(), rng.offset());
                let drag = live.drag(shape, zone, dx, dy).expect("a proof-only drag");
                if live.commit_fast(&drag.subst) {
                    fast += 1;
                }
            }
            assert!(
                fast >= 10,
                "{slug}: only {fast} of 12 commits took the fast tier"
            );
            let fresh = session(live.program().clone());
            assert_eq!(
                value_bits(live.canvas()),
                value_bits(fresh.canvas()),
                "{slug}: value arrays differ after {fast} fast commits"
            );
            for options in [
                RenderOptions::default(),
                RenderOptions { hide_hidden: true },
            ] {
                assert_eq!(
                    live.canvas().to_svg(options),
                    fresh.canvas().to_svg(options),
                    "{slug}: renders differ after {fast} fast commits"
                );
            }
        }
    });
}

/// Wherever `drag_is_proof_only` holds, a drag step must evaluate
/// nothing: it bumps `fast_evals`, never `full_evals`. The server answers
/// exactly those drags on its event-loop thread, which must never run an
/// evaluation. A zone qualifies exactly when none of its trigger
/// locations escaped.
#[test]
fn proof_only_zones_drag_without_evaluating_across_the_corpus() {
    sns_eval::with_big_stack(|| {
        let mut proof_only = 0usize;
        for example in sns_examples::ALL {
            let program = Program::parse(example.source).expect("corpus parses");
            let live = session(program);
            let active: Vec<_> = live
                .assignments()
                .zones
                .iter()
                .filter(|z| z.is_active())
                .map(|z| (z.shape, z.zone))
                .collect();
            for (shape, zone) in active {
                let escaped = live.escaped_locs();
                let eligible = live
                    .trigger(shape, zone)
                    .is_some_and(|t| t.loc_set().iter().all(|l| !escaped.contains(l)));
                if !live.drag_is_proof_only(shape, zone) {
                    assert!(
                        !eligible,
                        "{}: {shape} {zone} is fast-eligible but not proof-only",
                        example.slug
                    );
                    continue;
                }
                assert!(eligible, "{}: {shape} {zone}", example.slug);
                proof_only += 1;
                for (dx, dy) in [(3.0, -2.0), (-40.5, 17.25)] {
                    let before = live.stats();
                    let result = live.drag(shape, zone, dx, dy);
                    let after = live.stats();
                    assert!(
                        result.is_ok(),
                        "{}: proof-only drag on {shape} {zone} failed: {result:?}",
                        example.slug
                    );
                    assert_eq!(
                        (after.fast_evals, after.full_evals),
                        (before.fast_evals + 1, before.full_evals),
                        "{}: proof-only drag on {shape} {zone} evaluated",
                        example.slug
                    );
                }
            }
        }
        assert!(proof_only > 0, "no proof-only zone in the corpus");
    });
}

#[test]
fn escaped_locations_never_intersect_fast_committed_substs() {
    // Sanity on the soundness condition itself: for a handful of examples,
    // replay commits and check the escaped set is disjoint from every
    // incrementally committed substitution's domain.
    sns_eval::with_big_stack(|| {
        for slug in ["wave_boxes", "three_boxes", "ferris_wheel"] {
            let example = sns_examples::by_slug(slug).unwrap();
            let program = Program::parse(example.source).unwrap();
            let live = session(program);
            let escaped: BTreeSet<_> = live.escaped_locs().iter().copied().collect();
            for z in live.assignments().zones.iter().filter(|z| z.is_active()) {
                let trigger = live.trigger(z.shape, z.zone).unwrap();
                let fire = trigger.fire(
                    &live.program().subst(),
                    13.0,
                    -7.0,
                    sns_sync::SolverChoice::Paper,
                );
                if live.control_flow_safe(&fire.subst) {
                    for (loc, _) in fire.subst.iter() {
                        assert!(!escaped.contains(&loc), "{slug}: {loc} is escaped");
                    }
                }
            }
        }
    });
}

/// A program whose drags touch an escaped location: every box's fill is
/// guarded by a comparison over its x coordinate, so `x0` escapes and
/// commits that move it take the full path.
const GUARDED_BOXES: &str = r#"
    (def n 8!)
    (def x0 40)
    (def boxi (λ i
      (let x (+ x0 (* i 30))
      (let c (if (< x 600!) 'lightblue' 'salmon')
        (rect c x 50 10 80)))))
    (svg (map boxi (zeroTo n)))
"#;

#[test]
fn escaped_drags_match_full_prepare_bitwise() {
    sns_eval::with_big_stack(|| {
        let program = Program::parse(GUARDED_BOXES).expect("parses");
        let mut live = session(program.clone());
        let mut full = session(program);
        assert_eq!(fingerprint(&live), fingerprint(&full));

        let active: Vec<_> = live
            .assignments()
            .zones
            .iter()
            .filter(|z| z.is_active())
            .map(|z| (z.shape, z.zone))
            .collect();
        let mut rng = Rng(0xE5CA9ED);
        let mut escaped_drags = 0u64;
        // Small offsets keep every comparison's outcome; the last step
        // drags far past the color threshold and flips them.
        let mut steps: Vec<_> = (0..12)
            .map(|_| {
                let (shape, zone) = active[rng.below(active.len())];
                (shape, zone, rng.offset() * 0.25, rng.offset() * 0.25)
            })
            .collect();
        steps.push((active[0].0, active[0].1, 900.0, 0.0));
        for (shape, zone, dx, dy) in steps {
            let (a, b) = match (
                checked_drag(&live, shape, zone, dx, dy),
                checked_drag(&full, shape, zone, dx, dy),
            ) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(_), Err(_)) => continue,
                (a, b) => panic!("drag outcomes diverged: {a:?} vs {b:?}"),
            };
            assert_eq!(a.subst, b.subst);
            let before = live.stats().fallback_escaped;
            let escaped = !live.control_flow_safe(&a.subst);
            live.commit(&a.subst).unwrap();
            full_commit(&mut full, &b.subst).unwrap();
            if escaped {
                escaped_drags += 1;
                assert_eq!(
                    live.stats().fallback_escaped,
                    before + 1,
                    "an escaped commit on {shape} {zone} must take the full path"
                );
            }
            assert_eq!(
                fingerprint(&live),
                fingerprint(&full),
                "state diverged after commit on {shape} {zone}"
            );
        }
        assert!(escaped_drags > 0, "workload must exercise escaped drags");
    });
}

/// A rect that is only drawn while its x stays left of a threshold: past
/// it the program's output is a string, not a canvas, so the drag must be
/// refused. The guard flip defeats the tier proof, so the refusal comes
/// from the full evaluation the drag still runs on that path.
const VANISHING_RECT: &str = r#"
    (def x 100)
    (def shapes (if (< x 300!) [(rect 'blue' x 50 40 30)] 'gone'))
    (svg shapes)
"#;

#[test]
fn drags_fail_exactly_when_the_full_evaluation_does() {
    sns_eval::with_big_stack(|| {
        let live = session(Program::parse(VANISHING_RECT).expect("parses"));
        let (shape, zone) = (ShapeId(0), Zone::Interior);
        assert!(checked_drag(&live, shape, zone, 40.0, 5.0).is_ok());
        assert!(
            checked_drag(&live, shape, zone, 250.0, 0.0).is_err(),
            "a drag whose program stops rendering must be refused"
        );
        assert!(checked_drag(&live, shape, zone, -20.0, 0.0).is_ok());
    });
}

/// A `set_code`'s effect on a session's counters: full, incremental and
/// partial prepares, then structural and reconcile fallbacks.
type Counts = (u64, u64, u64, u64, u64);

/// The counts of `d` a `set_code` may move.
fn counts(d: LiveStats) -> Counts {
    (
        d.full_prepares,
        d.incremental_prepares,
        d.partial_prepares,
        d.fallback_structural,
        d.fallback_reconcile,
    )
}

/// A `set_code` that re-evaluated and prepared in full.
const FULL: Counts = (1, 0, 0, 1, 0);

/// A code edit, as a rewrite of the session's current text and of its
/// text before the last drag.
type Rewrite = Box<dyn Fn(&str, &str) -> String>;

/// Seeded `set_code` edits of every class must leave a diff-classified
/// session bit-identical to one that always replaces the program
/// wholesale, and each must take the path its row names.
#[test]
fn set_code_edits_match_full_replace_bitwise() {
    sns_eval::with_big_stack(|| {
        let mut shapes = String::from("(rect 'c0' (* 2 15) 10 20 20) ");
        for j in 1..12 {
            shapes.push_str(&format!(
                "(rect 'c{j}' {} {} 18 18) ",
                40 + j * 22,
                60 + (j % 7) * 30
            ));
        }
        let base = format!("(def unused (* 7 1313))\n(svg [{shapes}])");
        let fixed = |text: String| -> Rewrite { Box::new(move |_, _| text.clone()) };
        // Each row rewrites the session's current text (the drags between
        // edits rewrite literals, so only rewrites of the live code keep
        // everything else unchanged), and names the class the edit gets and
        // what it does to the counters.
        let edits: Vec<(&str, Rewrite, SetCodeClass, Counts)> = vec![
            (
                "literal: one coordinate nudged",
                fixed(base.replace("10 20 20", "11 20 20")),
                SetCodeClass::Literals,
                (0, 1, 0, 0, 0),
            ),
            // The program was parsed from the text before the drag, so its
            // AST holds the restored values; only ρ₀ holds the dragged ones.
            (
                "the dragged literals edited back",
                Box::new(|_, undragged| undragged.to_string()),
                SetCodeClass::Literals,
                (0, 1, 0, 0, 0),
            ),
            (
                "operator swap in a drawn rect's x",
                fixed(base.replace("(* 2 15)", "(+ 2 15)")),
                SetCodeClass::Reevaluated,
                FULL,
            ),
            (
                "identical re-submit",
                Box::new(|code, _| code.to_string()),
                SetCodeClass::Identical,
                (0, 0, 0, 0, 0),
            ),
            (
                "a shape appears",
                fixed(
                    base.replace("(* 2 15)", "(+ 2 15)")
                        .replace("])", "(circle 'red' 300 300 9)])"),
                ),
                SetCodeClass::Reevaluated,
                FULL,
            ),
            (
                "the shape disappears",
                fixed(base.clone()),
                SetCodeClass::Reevaluated,
                FULL,
            ),
            // The canvas is unchanged, but the second rect's x, which its
            // zones read, stops (then starts again) being a candidate.
            (
                "`!` added to a drawn literal",
                Box::new(|code, _| code.replacen(" 62 ", " 62! ", 1)),
                SetCodeClass::Reevaluated,
                FULL,
            ),
            (
                "that `!` removed",
                Box::new(|code, _| code.replacen(" 62! ", " 62 ", 1)),
                SetCodeClass::Reevaluated,
                FULL,
            ),
            (
                "an unused definition renamed",
                Box::new(|code, _| code.replacen("(def unused ", "(def spare ", 1)),
                SetCodeClass::Reevaluated,
                (0, 0, 1, 0, 0),
            ),
        ];

        let mut diffed = session(Program::parse(&base).expect("parses"));
        let mut full = session(Program::parse(&base).expect("parses"));

        let mut undragged = base.clone();
        for (what, edit, want, want_counts) in &edits {
            let code = diffed.program().code();
            let src = edit(&code, &undragged);
            if *want != SetCodeClass::Identical {
                assert_ne!(src, code, "{what}: the rewrite did not apply");
            }
            let before = diffed.stats();
            let class = diffed
                .set_program_diffed(Program::parse(&src).expect("parses"))
                .unwrap();
            full.replace_program(Program::parse(&src).expect("parses"))
                .unwrap();
            assert_eq!(class, *want, "{what}: misclassified");
            assert_eq!(
                counts(diffed.stats().since(&before)),
                *want_counts,
                "{what}: took the wrong path"
            );
            assert_eq!(
                fingerprint(&diffed),
                fingerprint(&full),
                "state diverged after {what} ({class:?})"
            );
            // The edited session must stay fully operational: drag + commit.
            let (shape, zone) = diffed
                .assignments()
                .zones
                .iter()
                .filter(|z| z.is_active())
                .map(|z| (z.shape, z.zone))
                .next()
                .expect("an active zone");
            let a = checked_drag(&diffed, shape, zone, 3.0, -2.0).unwrap();
            let b = checked_drag(&full, shape, zone, 3.0, -2.0).unwrap();
            assert_eq!(a.subst, b.subst);
            undragged = diffed.program().code();
            diffed.commit(&a.subst).unwrap();
            full_commit(&mut full, &b.subst).unwrap();
            assert_eq!(fingerprint(&diffed), fingerprint(&full));
        }
    });
}

/// A literal edit of `live`'s program, as the code pane would send it:
/// the update a small drag on the first active zone infers, or the
/// anchor's second literal moved by one where that changes no text.
fn literal_edit(live: &LiveSync) -> String {
    let program = live.program();
    let code = program.code();
    live.assignments()
        .zones
        .iter()
        .find_map(|z| live.trigger(z.shape, z.zone))
        .map(|t| {
            let fire = t.fire(&program.subst(), 3.0, -2.0, SolverChoice::default());
            program.with_subst(&fire.subst).code()
        })
        .filter(|edited| *edited != code)
        .unwrap_or_else(|| code.replacen("(* 7 1313)", "(* 7 1314)", 1))
}

/// Applies one code edit to both sessions: diff-classified on `diffed`,
/// wholesale on `full`. Both must accept or both refuse; the class is
/// `None` on refusal.
fn set_both(diffed: &mut LiveSync, full: &mut LiveSync, program: &Program) -> Option<SetCodeClass> {
    match (
        diffed.set_program_diffed(program.clone()),
        full.replace_program(program.clone()),
    ) {
        (Ok(class), Ok(())) => Some(class),
        (Err(_), Err(_)) => None,
        (a, b) => panic!("set_code outcomes diverged: {a:?} vs {b:?}"),
    }
}

/// `set_code` over the whole corpus. Each example sits behind the dead
/// `benchK` anchor the benchmark prefixes, and takes a literal edit, an
/// operator swap in the anchor (an edit no zone depends on, so the
/// prepare is kept), a wrap of the anchor (a structural edit that
/// renumbers every later location), then two undos and two redos that
/// re-install earlier programs, as the editor's undo stack does. After
/// every step a diff-classified session must be bit-identical to one that
/// replaces the program wholesale.
#[test]
fn set_code_matches_full_replace_across_the_corpus() {
    sns_eval::with_big_stack(|| {
        for example in sns_examples::ALL {
            let source = format!("(def benchK (* 7 1313))\n{}", example.source);
            let program = Program::parse(&source).expect("corpus parses");
            let mut diffed = session(program.clone());
            let mut full = session(program.clone());

            // Each installed program with the class of the edit that
            // installed it.
            let mut history = vec![(program, SetCodeClass::Identical)];
            for (label, want) in [
                ("literal", SetCodeClass::Literals),
                ("swap", SetCodeClass::Reevaluated),
                ("wrap", SetCodeClass::Reevaluated),
            ] {
                let code = diffed.program().code();
                let text = match label {
                    "literal" => literal_edit(&diffed),
                    "swap" => code.replacen("(* 7 1313)", "(+ 7 1313)", 1),
                    _ => code.replacen("(+ 7 1313)", "[(+ 7 1313) 0]", 1),
                };
                let program = Program::parse(&text).expect("edit parses");
                let before = diffed.stats();
                let at = format!("{}: {label}", example.slug);
                let Some(class) = set_both(&mut diffed, &mut full, &program) else {
                    assert_eq!(label, "literal", "{at}: an anchor edit was refused");
                    continue;
                };
                assert_eq!(class, want, "{at}: misclassified");
                if label == "swap" {
                    let after = diffed.stats();
                    assert_eq!(
                        (after.partial_prepares, after.fallback_reconcile),
                        (before.partial_prepares + 1, before.fallback_reconcile),
                        "{at}: the swap must keep the prepare"
                    );
                }
                assert_eq!(fingerprint(&diffed), fingerprint(&full), "{at}");
                history.push((program, want));
            }

            // Undo twice, then redo twice: (program installed, the edit
            // whose class the step shares).
            let n = history.len();
            for (k, (to, class_of)) in [
                (n - 2, n - 1),
                (n - 3, n - 2),
                (n - 2, n - 2),
                (n - 1, n - 1),
            ]
            .into_iter()
            .enumerate()
            {
                let at = format!("{}: undo/redo step {k}", example.slug);
                let class = set_both(&mut diffed, &mut full, &history[to].0)
                    .unwrap_or_else(|| panic!("{at}: refused"));
                assert_eq!(class, history[class_of].1, "{at}: misclassified");
                assert_eq!(fingerprint(&diffed), fingerprint(&full), "{at}");
            }
        }
    });
}
