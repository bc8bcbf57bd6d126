//! Value-trace equations (§3).
//!
//! A value-trace equation `n = t` pairs a concrete number — typically an
//! attribute value the user just changed by direct manipulation — with the
//! run-time trace that produced the original value. Solving the equation for
//! one location yields a *local update*.

use std::sync::Arc;

use sns_eval::Trace;
use sns_lang::{Op, Subst};

#[cfg(test)]
use sns_lang::LocId;

/// A value-trace equation `target = trace`.
#[derive(Debug, Clone)]
pub struct Equation {
    /// The desired value (`n′` after a user update).
    pub target: f64,
    /// The trace of the original value.
    pub trace: Arc<Trace>,
}

impl Equation {
    /// Creates the equation `target = trace`.
    pub fn new(target: f64, trace: Arc<Trace>) -> Self {
        Equation { target, trace }
    }
}

impl std::fmt::Display for Equation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} = {}", sns_lang::fmt_num(self.target), self.trace)
    }
}

/// Numerically evaluates a trace under a substitution: every location is
/// looked up in `rho`, and primitive operations are recomputed.
///
/// Returns `None` if the trace mentions a location that `rho` does not bind
/// or an operation that does not produce a number.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use sns_eval::Trace;
/// use sns_lang::{LocId, Op, Subst};
///
/// let t = Trace::op(Op::Mul, [Trace::loc(LocId(0)), Trace::loc(LocId(1))]);
/// let rho = Subst::from_pairs([(LocId(0), 6.0), (LocId(1), 7.0)]);
/// assert_eq!(sns_solver::eval_trace(&rho, &t), Some(42.0));
/// ```
pub fn eval_trace(rho: &Subst, trace: &Trace) -> Option<f64> {
    match trace {
        Trace::Loc(l) => rho.get(*l),
        Trace::Op(op, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_trace(rho, a)?);
            }
            eval_numeric_op(*op, &vals)
        }
    }
}

/// Recomputes a numeric primitive on plain floats (no trace building).
pub(crate) fn eval_numeric_op(op: Op, vals: &[f64]) -> Option<f64> {
    use Op::*;
    Some(match op {
        Pi => std::f64::consts::PI,
        Cos => vals[0].cos(),
        Sin => vals[0].sin(),
        ArcCos => vals[0].acos(),
        ArcSin => vals[0].asin(),
        Round => vals[0].round(),
        Floor => vals[0].floor(),
        Ceiling => vals[0].ceil(),
        Sqrt => vals[0].sqrt(),
        Add => vals[0] + vals[1],
        Sub => vals[0] - vals[1],
        Mul => vals[0] * vals[1],
        Div => vals[0] / vals[1],
        Mod => vals[0] % vals[1],
        Pow => vals[0].powf(vals[1]),
        ArcTan2 => vals[0].atan2(vals[1]),
        Not | ToString | Lt | Gt | Le | Ge | Eq => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_trace_computes_nested_ops() {
        // (+ l0 (* l1 l2)) with l0=50, l1=2, l2=30 → 110.
        let t = Trace::op(
            Op::Add,
            [
                Trace::loc(LocId(0)),
                Trace::op(Op::Mul, [Trace::loc(LocId(1)), Trace::loc(LocId(2))]),
            ],
        );
        let rho = Subst::from_pairs([(LocId(0), 50.0), (LocId(1), 2.0), (LocId(2), 30.0)]);
        assert_eq!(eval_trace(&rho, &t), Some(110.0));
    }

    #[test]
    fn missing_location_is_none() {
        let t = Trace::loc(LocId(9));
        assert_eq!(eval_trace(&Subst::new(), &t), None);
    }

    #[test]
    fn pi_evaluates_without_bindings() {
        let t = Trace::op(Op::Pi, []);
        assert_eq!(eval_trace(&Subst::new(), &t), Some(std::f64::consts::PI));
    }

    #[test]
    fn non_numeric_ops_are_rejected() {
        let t = Trace::op(Op::Lt, [Trace::loc(LocId(0)), Trace::loc(LocId(1))]);
        let rho = Subst::from_pairs([(LocId(0), 1.0), (LocId(1), 2.0)]);
        assert_eq!(eval_trace(&rho, &t), None);
    }

    #[test]
    fn display_shows_equation() {
        let eq = Equation::new(155.0, Trace::loc(LocId(3)));
        assert_eq!(eq.to_string(), "155 = l3");
    }
}
