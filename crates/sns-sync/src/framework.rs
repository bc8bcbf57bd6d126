//! The trace-based program synthesis framework (§3), independent of SVG.
//!
//! A program `e` evaluates to a value containing `k` numbers `w1 … wk`. The
//! user updates `j` of them. A candidate update (a substitution ρ) is:
//!
//! * **faithful** if, whenever `ρe` evaluates to a value whose *value
//!   context* is similar (`∼`) to the original's, *all* updated positions
//!   carry the user's new numbers;
//! * **plausible** if at least one updated position does.
//!
//! Similarity compares structure while ignoring the numbers themselves —
//! two values are similar when one can be obtained from the other by
//! changing numeric constants only.

use sns_eval::Value;

/// One user update: "the numeric leaf at `index` (in pre-order) should
/// become `new_value`".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserUpdate {
    /// Pre-order index of the numeric leaf in the output value.
    pub index: usize,
    /// The desired new number.
    pub new_value: f64,
}

/// Collects the numeric leaves of a value in pre-order — the `w1 … wk`
/// against which user updates are expressed.
pub fn numeric_leaves(value: &Value) -> Vec<f64> {
    let mut out = Vec::new();
    collect_leaves(value, &mut out);
    out
}

fn collect_leaves(value: &Value, out: &mut Vec<f64>) {
    match value {
        Value::Num(n, _) => out.push(*n),
        Value::Cons(cell) => {
            collect_leaves(&cell.0, out);
            collect_leaves(&cell.1, out);
        }
        Value::Str(_) | Value::Bool(_) | Value::Nil | Value::Closure(_) => {}
    }
}

/// Value-context similarity `V ∼ V′` (§3): structural equality up to the
/// values of numeric constants. Strings and booleans must match exactly;
/// closures are compared by presence only (the paper's contexts never
/// contain them in output positions).
pub fn similar(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Num(..), Value::Num(..)) => true,
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Nil, Value::Nil) => true,
        (Value::Cons(x), Value::Cons(y)) => similar(&x.0, &y.0) && similar(&x.1, &y.1),
        (Value::Closure(_), Value::Closure(_)) => true,
        _ => false,
    }
}

/// The outcome of comparing an updated program's output against the user's
/// requested updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Judgment {
    /// The new output is not similar to the original (`V′ ≁ V`): control
    /// flow changed. Definition-wise the update is vacuously faithful, but
    /// editors treat this as a warning (see the Ferris wheel case study).
    NotSimilar,
    /// The new output is similar; `matched` of the `requested` user updates
    /// hold in it.
    Similar {
        /// How many requested updates the new output satisfies.
        matched: usize,
        /// How many updates the user requested.
        requested: usize,
    },
}

impl Judgment {
    /// Condition (d): every requested update holds (or the output changed
    /// shape, making the implication vacuous).
    pub fn is_faithful(self) -> bool {
        match self {
            Judgment::NotSimilar => true,
            Judgment::Similar { matched, requested } => matched == requested,
        }
    }

    /// Condition (d′): at least one requested update holds (vacuous when
    /// the output changed shape).
    pub fn is_plausible(self) -> bool {
        match self {
            Judgment::NotSimilar => true,
            Judgment::Similar { matched, requested } => matched >= 1 || requested == 0,
        }
    }
}

/// Numeric comparison tolerance when judging updates.
const JUDGE_TOL: f64 = 1e-6;

/// Judges an updated output `new` against the original output `orig` and
/// the user's requested `updates`.
pub fn judge(orig: &Value, updates: &[UserUpdate], new: &Value) -> Judgment {
    if !similar(orig, new) {
        return Judgment::NotSimilar;
    }
    let leaves = numeric_leaves(new);
    let mut matched = 0;
    for u in updates {
        if let Some(&v) = leaves.get(u.index) {
            if (v - u.new_value).abs() <= JUDGE_TOL * u.new_value.abs().max(1.0) {
                matched += 1;
            }
        }
    }
    Judgment::Similar {
        matched,
        requested: updates.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_eval::Program;

    fn value_of(src: &str) -> Value {
        Program::parse(src).unwrap().eval().unwrap()
    }

    #[test]
    fn leaves_are_preorder() {
        let v = value_of("[1 [2 3] 'x' [4]]");
        assert_eq!(numeric_leaves(&v), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn similarity_ignores_numbers_only() {
        let a = value_of("[1 'red' true]");
        let b = value_of("[99 'red' true]");
        let c = value_of("['blue' 'red' true]");
        let d = value_of("[1 'blue' true]");
        assert!(similar(&a, &b));
        assert!(!similar(&a, &c));
        assert!(!similar(&a, &d));
    }

    #[test]
    fn similarity_detects_length_changes() {
        // This is the Ferris-wheel failure mode: changing numSpokes changes
        // the number of generated shapes.
        let a = value_of("[1 2 3]");
        let b = value_of("[1 2]");
        assert!(!similar(&a, &b));
    }

    #[test]
    fn judgment_faithful_and_plausible() {
        let orig = value_of("[10 20 30]");
        let updates = [
            UserUpdate {
                index: 0,
                new_value: 11.0,
            },
            UserUpdate {
                index: 2,
                new_value: 33.0,
            },
        ];
        // Both updates satisfied → faithful.
        let new = value_of("[11 20 33]");
        let j = judge(&orig, &updates, &new);
        assert!(j.is_faithful() && j.is_plausible());
        // One satisfied → plausible only.
        let new = value_of("[11 20 30]");
        let j = judge(&orig, &updates, &new);
        assert!(!j.is_faithful() && j.is_plausible());
        // None satisfied → neither.
        let new = value_of("[10 20 30]");
        let j = judge(&orig, &updates, &new);
        assert!(!j.is_faithful() && !j.is_plausible());
        // Shape change → vacuously both (condition (c) fails).
        let new = value_of("[10 20]");
        let j = judge(&orig, &updates, &new);
        assert_eq!(j, Judgment::NotSimilar);
        assert!(j.is_faithful() && j.is_plausible());
    }
}
