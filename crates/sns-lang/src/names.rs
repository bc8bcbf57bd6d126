//! Canonical location names (§2.1).
//!
//! When a numeric literal is immediately bound to a variable — as in
//! `(def [x0 y0] [50 120])` or `(let sep 30 …)` — the paper refers to the
//! literal's location by the variable name (`x0`, `sep`) rather than by an
//! opaque `ℓk`. This module computes that naming, which the editor uses for
//! hover captions and which the Figure 1D harness uses for its output.

use std::collections::HashMap;

use crate::ast::{Expr, Pat};
use crate::LocId;

/// Computes a display name for every location whose literal is directly
/// bound to a variable. Inner (shadowing) bindings overwrite outer ones,
/// which matches how a reader of the program would refer to the constant.
///
/// # Examples
///
/// ```
/// let p = sns_lang::parse("(def [x0 sep] [50 30]) (+ x0 sep)").unwrap();
/// let names = sns_lang::loc_names(&p.expr);
/// assert_eq!(names.get(&sns_lang::LocId(0)).map(String::as_str), Some("x0"));
/// assert_eq!(names.get(&sns_lang::LocId(1)).map(String::as_str), Some("sep"));
/// ```
pub fn loc_names(expr: &Expr) -> HashMap<LocId, String> {
    let mut names = HashMap::new();
    expr.walk(&mut |e| {
        if let Expr::Let { pat, bound, .. } = e {
            record_pat_binding(pat, bound, &mut names);
        }
    });
    names
}

fn record_pat_binding(pat: &Pat, bound: &Expr, names: &mut HashMap<LocId, String>) {
    match (pat, bound) {
        (Pat::Var(x), Expr::Num(n)) => {
            names.insert(n.loc, x.to_string());
        }
        (Pat::List(ps, None), Expr::List(es, None)) if ps.len() == es.len() => {
            for (p, e) in ps.iter().zip(es) {
                record_pat_binding(p, e, names);
            }
        }
        _ => {}
    }
}

/// Renders a location for humans: its canonical name when one exists,
/// otherwise `ℓk` style (`l7`).
pub fn display_loc(loc: LocId, names: &HashMap<LocId, String>) -> String {
    names.get(&loc).cloned().unwrap_or_else(|| loc.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn names_simple_let() {
        let p = parse("(let sep 30 sep)").unwrap();
        let names = loc_names(&p.expr);
        assert_eq!(names[&LocId(0)], "sep");
    }

    #[test]
    fn names_destructuring_def() {
        let p = parse("(def [x0 y0 w h sep amp] [50 120 20 90 30 60]) x0").unwrap();
        let names = loc_names(&p.expr);
        let got: Vec<&str> = (0..6).map(|i| names[&LocId(i)].as_str()).collect();
        assert_eq!(got, vec!["x0", "y0", "w", "h", "sep", "amp"]);
    }

    #[test]
    fn names_nested_destructuring() {
        let p = parse("(let [a [b c]] [1 [2 3]] a)").unwrap();
        let names = loc_names(&p.expr);
        assert_eq!(names[&LocId(0)], "a");
        assert_eq!(names[&LocId(1)], "b");
        assert_eq!(names[&LocId(2)], "c");
    }

    #[test]
    fn computed_bindings_are_unnamed() {
        let p = parse("(let x (+ 1 2) x)").unwrap();
        let names = loc_names(&p.expr);
        assert!(names.is_empty());
        assert_eq!(display_loc(LocId(0), &names), "l0");
    }
}
