//! Substitutions ρ: finite maps from program locations to numbers (§3).
//!
//! A substitution is the paper's representation of a *local update*: the
//! only program changes live synchronization ever infers are new values for
//! numeric literals. A program holds its substitution ρ₀, the current value
//! of every literal, and an update rebinds locations of ρ₀. [`Subst::apply`]
//! rewrites an expression's literals instead (the paper's `ρe`).

use std::fmt;

use crate::ast::Expr;
use crate::LocId;

/// A substitution ρ mapping locations ℓ to numbers n.
///
/// The paper composes substitutions left-to-right with the rightmost binding
/// winning; [`Subst::insert`] has exactly that semantics (later inserts
/// shadow earlier ones), and iteration is in location order. The bindings
/// are one sorted vector, so a clone is one allocation whatever its size.
///
/// # Examples
///
/// ```
/// use sns_lang::{parse, unparse, LocId, Subst};
///
/// let program = parse("(+ 50 (* 2 30))").unwrap();
/// let mut rho = Subst::new();
/// rho.insert(LocId(2), 52.5); // the literal `30`
/// assert_eq!(unparse(&rho.applied(&program.expr)), "(+ 50 (* 2 52.5))");
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Subst {
    /// Sorted by location, at most one binding per location.
    binds: Vec<(LocId, f64)>,
}

impl Subst {
    /// The empty substitution.
    pub const fn new() -> Self {
        Subst { binds: Vec::new() }
    }

    /// Builds a substitution from `(location, value)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (LocId, f64)>) -> Self {
        let mut rho = Subst::new();
        rho.extend(pairs);
        rho
    }

    fn find(&self, loc: LocId) -> Result<usize, usize> {
        self.binds.binary_search_by_key(&loc, |(l, _)| *l)
    }

    /// Binds `loc` to `value` (the paper's `ρ ⊕ (ℓ ↦ n)`); a later binding
    /// for the same location shadows an earlier one.
    pub fn insert(&mut self, loc: LocId, value: f64) -> Option<f64> {
        match self.find(loc) {
            Ok(i) => Some(std::mem::replace(&mut self.binds[i].1, value)),
            Err(i) => {
                self.binds.insert(i, (loc, value));
                None
            }
        }
    }

    /// Looks up the value bound to `loc`.
    pub fn get(&self, loc: LocId) -> Option<f64> {
        self.find(loc).ok().map(|i| self.binds[i].1)
    }

    /// Whether `loc` is bound.
    pub fn contains(&self, loc: LocId) -> bool {
        self.find(loc).is_ok()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.binds.len()
    }

    /// Whether the substitution is empty.
    pub fn is_empty(&self) -> bool {
        self.binds.is_empty()
    }

    /// Iterates over `(location, value)` bindings in location order.
    pub fn iter(&self) -> impl Iterator<Item = (LocId, f64)> + '_ {
        self.binds.iter().copied()
    }

    /// The locations changed by this substitution (the paper's essence of a
    /// local update: the *set* of constants that change).
    pub fn domain(&self) -> impl Iterator<Item = LocId> + '_ {
        self.binds.iter().map(|(l, _)| *l)
    }

    /// Concatenation `ρ ρ'`: bindings of `other` take precedence.
    pub fn extended(&self, other: &Subst) -> Subst {
        let mut rho = self.clone();
        rho.extend(other.iter());
        rho
    }

    /// Rewrites every numeric literal of `expr` whose location is bound.
    pub fn apply(&self, expr: &mut Expr) {
        if self.is_empty() {
            return;
        }
        expr.walk_mut(&mut |e| {
            if let Expr::Num(n) = e {
                if let Some(v) = self.get(n.loc) {
                    n.value = v;
                }
            }
        });
    }

    /// Returns a rewritten copy of `expr` (the paper's `ρe`).
    pub fn applied(&self, expr: &Expr) -> Expr {
        let mut e = expr.clone();
        self.apply(&mut e);
        e
    }
}

impl FromIterator<(LocId, f64)> for Subst {
    fn from_iter<T: IntoIterator<Item = (LocId, f64)>>(iter: T) -> Self {
        Subst::from_pairs(iter)
    }
}

impl Extend<(LocId, f64)> for Subst {
    fn extend<T: IntoIterator<Item = (LocId, f64)>>(&mut self, iter: T) {
        for (loc, value) in iter {
            self.insert(loc, value);
        }
    }
}

impl fmt::Display for Subst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (l, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l} ↦ {}", crate::fmt_num(v))?;
        }
        write!(f, "]")
    }
}

/// Extracts the substitution ρ₀ of a parsed program: the value of every
/// numeric literal as written, keyed by location (§2.1's "substitution
/// that records location-value mappings from the source program").
pub fn program_subst(expr: &Expr) -> Subst {
    let mut rho = Subst::new();
    expr.walk(&mut |e| {
        if let Expr::Num(n) = e {
            rho.insert(n.loc, n.value);
        }
    });
    rho
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, unparse};

    #[test]
    fn apply_rewrites_only_bound_locations() {
        let mut p = parse("(+ 1 2)").unwrap();
        let rho = Subst::from_pairs([(LocId(1), 99.0)]);
        rho.apply(&mut p.expr);
        assert_eq!(unparse(&p.expr), "(+ 1 99)");
    }

    #[test]
    fn program_subst_records_all_literals() {
        let p = parse("(def [a b] [10 20]) (+ a b)").unwrap();
        let rho = program_subst(&p.expr);
        assert_eq!(rho.get(LocId(0)), Some(10.0));
        assert_eq!(rho.get(LocId(1)), Some(20.0));
        assert_eq!(rho.len(), 2);
    }

    #[test]
    fn rightmost_binding_wins_in_concatenation() {
        let a = Subst::from_pairs([(LocId(0), 1.0), (LocId(1), 2.0)]);
        let b = Subst::from_pairs([(LocId(1), 5.0)]);
        let c = a.extended(&b);
        assert_eq!(c.get(LocId(0)), Some(1.0));
        assert_eq!(c.get(LocId(1)), Some(5.0));
    }

    #[test]
    fn display_is_readable() {
        let rho = Subst::from_pairs([(LocId(3), 95.0)]);
        assert_eq!(rho.to_string(), "[l3 ↦ 95]");
    }

    #[test]
    fn applied_leaves_original_untouched() {
        let p = parse("7").unwrap();
        let rho = Subst::from_pairs([(LocId(0), 8.0)]);
        let e2 = rho.applied(&p.expr);
        assert_eq!(unparse(&p.expr), "7");
        assert_eq!(unparse(&e2), "8");
    }
}
