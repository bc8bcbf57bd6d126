//! Structural AST diffing for incremental `set_code`.
//!
//! Given the previous and the re-parsed user program, [`diff_exprs`]
//! classifies the edit into one of four tiers, cheapest first:
//!
//! * [`AstDiff::Identical`] — the ASTs are equal; nothing changed.
//! * [`AstDiff::Literals`] — only numeric literal *values* changed. The
//!   edit is exactly a substitution over the unchanged program, so it can
//!   ride the live-sync commit path (trace patching + dirty-zone refresh).
//! * [`AstDiff::Subtree`] — a handful of local subtrees changed, each
//!   containing the same number of numeric literals before and after.
//! * [`AstDiff::Structural`] — anything else: full re-prepare.
//!
//! The classification leans on one invariant of the parser: location ids
//! are assigned in traversal order. Two programs with identical syntax
//! outside the changed regions, and equal literal *counts* inside each
//! region, therefore agree on every location id outside the regions — and
//! the regions occupy the same id ranges in both programs. That is what
//! lets the caller treat old-program location sets as valid names for
//! new-program dependencies. Edits that could break the alignment (changed
//! literal counts, too many regions, annotation changes that move the
//! frozen set) are conservatively classified [`AstDiff::Structural`].

use std::collections::BTreeSet;

use crate::ast::{Expr, LocId};

/// Maximum number of changed subtrees before the diff gives up and reports
/// a structural edit.
pub const MAX_DIFF_REGIONS: usize = 4;

/// The classification of an edit from one user program to another.
#[derive(Debug, Clone, PartialEq)]
pub enum AstDiff {
    /// The ASTs are equal (values, locations, annotations — everything).
    Identical,
    /// Only numeric literal values changed; the pairs are `(loc, new
    /// value)` for every changed literal.
    Literals(Vec<(LocId, f64)>),
    /// Up to [`MAX_DIFF_REGIONS`] local subtrees changed, each with equal
    /// literal counts on both sides. `changed_locs` is the union of the
    /// regions' location ids (identical in old and new programs) plus any
    /// literal-value edits outside the regions.
    Subtree {
        /// Locations inside changed regions or with edited values.
        changed_locs: BTreeSet<LocId>,
    },
    /// The edit reshapes the program; only a full prepare is sound.
    Structural,
}

struct Differ<'a> {
    literals: Vec<(LocId, f64)>,
    regions: Vec<(&'a Expr, &'a Expr)>,
    structural: bool,
}

impl<'a> Differ<'a> {
    fn region(&mut self, old: &'a Expr, new: &'a Expr) {
        if self.regions.len() >= MAX_DIFF_REGIONS {
            self.structural = true;
            return;
        }
        self.regions.push((old, new));
    }

    fn walk(&mut self, old: &'a Expr, new: &'a Expr) {
        if self.structural {
            return;
        }
        match (old, new) {
            (Expr::Num(a), Expr::Num(b)) => {
                // A literal whose annotation or slider range moved changes
                // the frozen/candidate structure of every prepare, and a
                // location mismatch means upstream alignment already broke:
                // both are whole-program concerns, not local edits.
                if a.loc != b.loc || a.annotation != b.annotation || a.range != b.range {
                    self.structural = true;
                } else if a.value.to_bits() != b.value.to_bits() {
                    self.literals.push((a.loc, b.value));
                }
            }
            (Expr::Str(a), Expr::Str(b)) => {
                if a != b {
                    self.region(old, new);
                }
            }
            (Expr::Bool(a), Expr::Bool(b)) => {
                if a != b {
                    self.region(old, new);
                }
            }
            (Expr::Var(a), Expr::Var(b)) => {
                if a != b {
                    self.region(old, new);
                }
            }
            (Expr::List(xs, xt), Expr::List(ys, yt)) => {
                if xs.len() != ys.len() || xt.is_some() != yt.is_some() {
                    self.region(old, new);
                    return;
                }
                for (x, y) in xs.iter().zip(ys) {
                    self.walk(x, y);
                }
                if let (Some(x), Some(y)) = (xt, yt) {
                    self.walk(x, y);
                }
            }
            (Expr::Lambda(ps, xb), Expr::Lambda(qs, yb)) => {
                if ps != qs {
                    self.region(old, new);
                } else {
                    self.walk(xb, yb);
                }
            }
            (Expr::App(xh, xs), Expr::App(yh, ys)) => {
                if xs.len() != ys.len() {
                    self.region(old, new);
                    return;
                }
                self.walk(xh, yh);
                for (x, y) in xs.iter().zip(ys) {
                    self.walk(x, y);
                }
            }
            (Expr::Prim(xo, xs), Expr::Prim(yo, ys)) => {
                if xo != yo || xs.len() != ys.len() {
                    self.region(old, new);
                    return;
                }
                for (x, y) in xs.iter().zip(ys) {
                    self.walk(x, y);
                }
            }
            (
                Expr::Let {
                    recursive: xr,
                    style: xs,
                    pat: xp,
                    bound: xb,
                    body: xe,
                },
                Expr::Let {
                    recursive: yr,
                    style: ys,
                    pat: yp,
                    bound: yb,
                    body: ye,
                },
            ) => {
                if xr != yr || xs != ys || xp != yp {
                    self.region(old, new);
                    return;
                }
                self.walk(xb, yb);
                self.walk(xe, ye);
            }
            (Expr::If(xc, xt, xe), Expr::If(yc, yt, ye)) => {
                self.walk(xc, yc);
                self.walk(xt, yt);
                self.walk(xe, ye);
            }
            (Expr::Case(xs, xb), Expr::Case(ys, yb)) => {
                if xb.len() != yb.len() || xb.iter().zip(yb).any(|((p, _), (q, _))| p != q) {
                    self.region(old, new);
                    return;
                }
                self.walk(xs, ys);
                for ((_, x), (_, y)) in xb.iter().zip(yb) {
                    self.walk(x, y);
                }
            }
            _ => self.region(old, new),
        }
    }
}

fn collect_expr_locs(expr: &Expr, out: &mut BTreeSet<LocId>) {
    expr.walk(&mut |e| {
        if let Expr::Num(n) = e {
            out.insert(n.loc);
        }
    });
}

fn count_literals(expr: &Expr) -> usize {
    let mut count = 0;
    expr.walk(&mut |e| {
        if matches!(e, Expr::Num(_)) {
            count += 1;
        }
    });
    count
}

/// Diffs two user-program ASTs (see the module docs for the tiers and the
/// location-alignment invariant the result relies on).
pub fn diff_exprs(old: &Expr, new: &Expr) -> AstDiff {
    let mut d = Differ {
        literals: Vec::new(),
        regions: Vec::new(),
        structural: false,
    };
    d.walk(old, new);
    if d.structural {
        return AstDiff::Structural;
    }
    if d.regions.is_empty() {
        return if d.literals.is_empty() {
            AstDiff::Identical
        } else {
            AstDiff::Literals(d.literals)
        };
    }
    let mut changed_locs: BTreeSet<LocId> = d.literals.iter().map(|(l, _)| *l).collect();
    for (old_region, new_region) in &d.regions {
        // Equal, non-zero literal counts keep location ids aligned and give
        // the caller at least one location to hang the region's dataflow
        // dependencies on. (Zero-literal regions — e.g. a bare color-string
        // edit — have no locations to reach them by, so the dependency
        // index cannot name their blast radius.)
        let old_count = count_literals(old_region);
        if old_count == 0 || old_count != count_literals(new_region) {
            return AstDiff::Structural;
        }
        let mut old_locs = BTreeSet::new();
        collect_expr_locs(old_region, &mut old_locs);
        let mut new_locs = BTreeSet::new();
        collect_expr_locs(new_region, &mut new_locs);
        // With aligned counts the parser must have handed out the same id
        // range; anything else means alignment broke upstream.
        if old_locs != new_locs {
            return AstDiff::Structural;
        }
        changed_locs.extend(old_locs);
    }
    AstDiff::Subtree { changed_locs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn diff(old: &str, new: &str) -> AstDiff {
        let a = parse(old).unwrap();
        let b = parse(new).unwrap();
        diff_exprs(&a.expr, &b.expr)
    }

    #[test]
    fn identical_sources_diff_to_identical() {
        assert_eq!(
            diff("(def x 5) (+ x 1)", "(def x 5) (+ x 1)"),
            AstDiff::Identical
        );
    }

    #[test]
    fn literal_value_edits_become_substitution_pairs() {
        match diff("(def [a b] [10 20]) (+ a b)", "(def [a b] [10 25]) (+ a b)") {
            AstDiff::Literals(pairs) => {
                assert_eq!(pairs.len(), 1);
                assert_eq!(pairs[0].0, LocId(1));
                assert_eq!(pairs[0].1, 25.0);
            }
            other => panic!("expected Literals, got {other:?}"),
        }
    }

    #[test]
    fn several_literal_edits_collect_in_order() {
        match diff("[1 2 3]", "[7 2 9]") {
            AstDiff::Literals(pairs) => {
                assert_eq!(pairs, vec![(LocId(0), 7.0), (LocId(2), 9.0)]);
            }
            other => panic!("expected Literals, got {other:?}"),
        }
    }

    #[test]
    fn annotation_changes_are_structural() {
        assert_eq!(diff("(def x 5) x", "(def x 5!) x"), AstDiff::Structural);
        assert_eq!(
            diff("(def x 5) x", "(def x 5{0-10}) x"),
            AstDiff::Structural
        );
    }

    #[test]
    fn op_swap_with_literal_is_a_subtree() {
        match diff("(def y (+ 1 5)) y", "(def y (- 1 5)) y") {
            AstDiff::Subtree { changed_locs } => {
                assert_eq!(
                    changed_locs,
                    BTreeSet::from([LocId(0), LocId(1)]),
                    "the region spans both of the prim's literals"
                );
            }
            other => panic!("expected Subtree, got {other:?}"),
        }
    }

    #[test]
    fn op_swap_without_literals_is_structural() {
        // `(+ x y)` → `(* x y)`: no location inside the region, so the
        // dependence index has nothing to map the edit's blast radius by.
        assert_eq!(
            diff("(def [x y] [1 2]) (+ x y)", "(def [x y] [1 2]) (* x y)"),
            AstDiff::Structural
        );
    }

    #[test]
    fn literal_count_mismatch_is_structural() {
        assert_eq!(
            diff("(def y (+ 1 5)) y", "(def y (+ (+ 1 2) 5)) y"),
            AstDiff::Structural
        );
    }

    #[test]
    fn mixed_literal_and_subtree_edits_union_their_locations() {
        match diff("[(+ 1 2) 30]", "[(- 1 2) 35]") {
            AstDiff::Subtree { changed_locs } => {
                assert_eq!(changed_locs, BTreeSet::from([LocId(0), LocId(1), LocId(2)]));
            }
            other => panic!("expected Subtree, got {other:?}"),
        }
    }

    #[test]
    fn pattern_and_binding_changes_make_the_let_the_region() {
        // Renaming the binder makes the whole `let` the changed region; the
        // literal counts still match, so this remains a (large) subtree.
        match diff("(def x 5) (+ x 1)", "(def z 5) (+ z 1)") {
            AstDiff::Subtree { changed_locs } => {
                assert_eq!(changed_locs, BTreeSet::from([LocId(0), LocId(1)]));
            }
            other => panic!("expected Subtree, got {other:?}"),
        }
    }

    #[test]
    fn too_many_regions_is_structural() {
        let old = "[(+ 1 0) (+ 2 0) (+ 3 0) (+ 4 0) (+ 5 0)]";
        let new = "[(- 1 0) (- 2 0) (- 3 0) (- 4 0) (- 5 0)]";
        assert_eq!(diff(old, new), AstDiff::Structural);
    }

    #[test]
    fn variant_changes_are_regions() {
        match diff("[5 'red']", "[5 (+ 0 7)]") {
            // Old region `'red'` has zero literals → structural.
            AstDiff::Structural => {}
            other => panic!("expected Structural, got {other:?}"),
        }
        match diff("[(+ 0 7)]", "[(if (< 1 2) 7 0)]") {
            AstDiff::Structural => {} // counts differ: 2 vs 4
            other => panic!("expected Structural, got {other:?}"),
        }
    }
}
