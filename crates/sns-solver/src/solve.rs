//! The simple value-trace equation solvers of §5.1 and Figure 6.
//!
//! Three design principles (Appendix B.2):
//!
//! 1. solve only one equation at a time;
//! 2. solve only univariate equations (one unknown location ℓ);
//! 3. solve equations only in simple, stylized forms:
//!    * [`solve_a`] — the "addition-only" fragment, where the only operation
//!      is `+` (ℓ may occur many times);
//!    * [`solve_b`] — the "single-occurrence" fragment, inverted top-down by
//!      applying inverses of primitive operations.
//!
//! [`solve`] (the paper's `Solve`/`SolveOne`) tries `SolveA` then `SolveB`.

use sns_eval::Trace;
use sns_lang::{LocId, Op, Subst};

use crate::equation::{eval_trace, Equation};

/// Relative/absolute tolerance used to validate candidate solutions.
const RESIDUAL_TOL: f64 = 1e-6;

/// Which solver fragments an equation (for a given unknown) falls into
/// (the §5.2.2 "Syntactic Fragment" statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragmentClass {
    /// Trace uses only `+` (and the unknown occurs at least once).
    pub addition_only: bool,
    /// The unknown occurs exactly once in the trace.
    pub single_occurrence: bool,
}

impl FragmentClass {
    /// Inside either supported fragment?
    pub fn in_fragment(self) -> bool {
        self.addition_only || self.single_occurrence
    }
}

/// Classifies the trace with respect to the unknown `loc`.
pub fn classify(trace: &Trace, loc: LocId) -> FragmentClass {
    let occurrences = trace.count_loc(loc);
    FragmentClass {
        addition_only: occurrences >= 1 && trace.is_addition_only(),
        single_occurrence: occurrences == 1,
    }
}

/// `SolveA`: solves `target = trace` for `loc` when the trace is
/// addition-only. The trace is walked collecting `(c, s)` — the number of
/// occurrences of `loc` and the sum of everything else — and the solution is
/// `(target - s) / c`.
///
/// Returns `None` when the trace leaves the fragment, `loc` does not occur,
/// or some other location is unbound in `rho`.
pub fn solve_a(rho: &Subst, loc: LocId, eq: &Equation) -> Option<f64> {
    let (c, s) = walk_plus(rho, loc, &eq.trace)?;
    if c == 0 {
        return None;
    }
    let k = (eq.target - s) / c as f64;
    k.is_finite().then_some(k)
}

/// The paper's `WalkPlus`: returns `(count, sum)` for an addition-only
/// trace, or `None` outside the fragment.
fn walk_plus(rho: &Subst, loc: LocId, trace: &Trace) -> Option<(u32, f64)> {
    match trace {
        Trace::Loc(l) if *l == loc => Some((1, 0.0)),
        Trace::Loc(l) => Some((0, rho.get(*l)?)),
        Trace::Op(Op::Add, args) => {
            let (c1, s1) = walk_plus(rho, loc, &args[0])?;
            let (c2, s2) = walk_plus(rho, loc, &args[1])?;
            Some((c1 + c2, s1 + s2))
        }
        Trace::Op(..) => None,
    }
}

/// `SolveB`: solves `target = trace` for `loc` when `loc` occurs exactly
/// once, by peeling primitive operations top-down with their inverses
/// (Figure 6). Operations without a usable inverse (`round`, `floor`,
/// `ceiling`, `mod`, `arctan2`) make the equation unsolvable; partial
/// inverses (`arccos`, `arcsin`, division) fail outside their domains.
pub fn solve_b(rho: &Subst, loc: LocId, eq: &Equation) -> Option<f64> {
    if eq.trace.count_loc(loc) != 1 {
        return None;
    }
    let k = invert(rho, loc, eq.target, &eq.trace)?;
    k.is_finite().then_some(k)
}

fn invert(rho: &Subst, loc: LocId, n: f64, trace: &Trace) -> Option<f64> {
    match trace {
        Trace::Loc(l) => (*l == loc).then_some(n),
        Trace::Op(op, args) => match op.arity() {
            0 => None,
            1 => {
                let inner = inv_unary(*op, n)?;
                invert(rho, loc, inner, &args[0])
            }
            2 => {
                let in_left = args[0].count_loc(loc) == 1;
                if in_left {
                    let n2 = eval_trace(rho, &args[1])?;
                    invert(rho, loc, inv_right(*op, n2, n)?, &args[0])
                } else {
                    let n1 = eval_trace(rho, &args[0])?;
                    invert(rho, loc, inv_left(*op, n1, n)?, &args[1])
                }
            }
            _ => None,
        },
    }
}

/// `Inv(op1)(n)`: the inverse of a unary operation.
fn inv_unary(op: Op, n: f64) -> Option<f64> {
    use Op::*;
    let r = match op {
        Cos => n.acos(),
        Sin => n.asin(),
        ArcCos => n.cos(),
        ArcSin => n.sin(),
        Sqrt => n * n,
        // Round/floor/ceiling discard information; no total inverse.
        Round | Floor | Ceiling => return None,
        _ => return None,
    };
    r.is_finite().then_some(r)
}

/// `InvL(op2, n1)(n)`: solve `n = (op2 n1 x)` for `x`.
fn inv_left(op: Op, n1: f64, n: f64) -> Option<f64> {
    use Op::*;
    let r = match op {
        Add => n - n1,
        Sub => n1 - n,
        Mul => n / n1,
        Div => n1 / n,
        // n = n1^x  ⇒  x = ln n / ln n1.
        Pow => n.ln() / n1.ln(),
        Mod | ArcTan2 => return None,
        _ => return None,
    };
    r.is_finite().then_some(r)
}

/// `InvR(op2, n2)(n)`: solve `n = (op2 x n2)` for `x`.
fn inv_right(op: Op, n2: f64, n: f64) -> Option<f64> {
    use Op::*;
    let r = match op {
        Add => n - n2,
        Sub => n + n2,
        Mul => n / n2,
        Div => n * n2,
        // n = x^n2  ⇒  x = n^(1/n2).
        Pow => n.powf(1.0 / n2),
        Mod | ArcTan2 => return None,
        _ => return None,
    };
    r.is_finite().then_some(r)
}

/// The combined solver (`Solve` in Figure 6, `SolveOne` in §4.1): tries
/// `SolveA` then `SolveB`, then validates the candidate by re-evaluating the
/// trace. Validation rejects, e.g., `arccos` inversions whose argument left
/// `[-1, 1]` — the paper's red-highlight failures.
pub fn solve(rho: &Subst, loc: LocId, eq: &Equation) -> Option<f64> {
    let k = solve_a(rho, loc, eq).or_else(|| solve_b(rho, loc, eq))?;
    validate(rho, loc, eq, k)
}

/// An *extension* beyond the paper's Figure 6 solvers: peels invertible
/// operations top-down as long as every occurrence of the unknown lives on
/// one side, and finishes with `WalkPlus` once the remaining subproblem is
/// addition-only.
///
/// This strictly subsumes `SolveA` and `SolveB` and additionally solves
/// equations like the §2.2 candidate `ρ4 = [ℓ1 ↦ 1.75]`, where ℓ1 occurs
/// twice inside a multiplied sub-trace: `155 = (+ x0 (* (+ ℓ1 (+ ℓ1 ℓ0)) sep))`.
/// Live synchronization uses this solver; the §5.2.2 statistics harness uses
/// the paper-faithful [`solve`] so fragment counts stay comparable.
pub fn solve_extended(rho: &Subst, loc: LocId, eq: &Equation) -> Option<f64> {
    let k = solve_a(rho, loc, eq)
        .or_else(|| invert_multi(rho, loc, eq.target, &eq.trace).filter(|k| k.is_finite()))?;
    validate(rho, loc, eq, k)
}

fn validate(rho: &Subst, loc: LocId, eq: &Equation, k: f64) -> Option<f64> {
    let mut rho2 = rho.clone();
    rho2.insert(loc, k);
    let recomputed = eval_trace(&rho2, &eq.trace)?;
    let scale = eq.target.abs().max(1.0);
    ((recomputed - eq.target).abs() <= RESIDUAL_TOL * scale).then_some(k)
}

/// Top-down inversion that tolerates multiple occurrences of the unknown,
/// provided they stay on one side of every binary operation; bottoms out
/// with `WalkPlus` on addition-only subproblems.
fn invert_multi(rho: &Subst, loc: LocId, n: f64, trace: &Trace) -> Option<f64> {
    if trace.count_loc(loc) == 0 {
        return None;
    }
    if trace.is_addition_only() {
        let (c, s) = walk_plus(rho, loc, trace)?;
        if c == 0 {
            return None;
        }
        return Some((n - s) / c as f64);
    }
    match trace {
        Trace::Loc(l) => (*l == loc).then_some(n),
        Trace::Op(op, args) => match op.arity() {
            1 => invert_multi(rho, loc, inv_unary(*op, n)?, &args[0]),
            2 => {
                let left = args[0].count_loc(loc);
                let right = args[1].count_loc(loc);
                if left > 0 && right > 0 {
                    // The unknown straddles the operation; out of scope.
                    None
                } else if left > 0 {
                    let n2 = eval_trace(rho, &args[1])?;
                    invert_multi(rho, loc, inv_right(*op, n2, n)?, &args[0])
                } else {
                    let n1 = eval_trace(rho, &args[0])?;
                    invert_multi(rho, loc, inv_left(*op, n1, n)?, &args[1])
                }
            }
            _ => None,
        },
    }
}

/// Convenience: solve and return the updated substitution `ρ ⊕ (ℓ ↦ k)`.
pub fn solve_subst(rho: &Subst, loc: LocId, eq: &Equation) -> Option<Subst> {
    let k = solve(rho, loc, eq)?;
    let mut rho2 = rho.clone();
    rho2.insert(loc, k);
    Some(rho2)
}

/// Double-checks an already-computed solution (used by property tests and
/// the synthesis framework).
pub fn check_solution(rho: &Subst, loc: LocId, eq: &Equation, k: f64) -> bool {
    let mut rho2 = rho.clone();
    rho2.insert(loc, k);
    match eval_trace(&rho2, &eq.trace) {
        Some(v) => (v - eq.target).abs() <= RESIDUAL_TOL * eq.target.abs().max(1.0),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn l(i: u32) -> Arc<Trace> {
        Trace::loc(LocId(i))
    }

    /// The sine-wave x-trace for box index 2: (+ x0 (* (+ 1 (+ 1 0)) sep))
    /// with x0 = l0, sep = l1, the Prelude `1` = l2, the Prelude `0` = l3.
    fn sine_wave_eq() -> (Subst, Equation) {
        let idx = Trace::op(Op::Add, [l(2), Trace::op(Op::Add, [l(2), l(3)])]);
        let t = Trace::op(Op::Add, [l(0), Trace::op(Op::Mul, [idx, l(1)])]);
        let rho = Subst::from_pairs([
            (LocId(0), 50.0),
            (LocId(1), 30.0),
            (LocId(2), 1.0),
            (LocId(3), 0.0),
        ]);
        (rho, Equation::new(155.0, t))
    }

    #[test]
    fn paper_section_2_solutions() {
        // §2.2: 155 = (+ x0 (* (+ l1 (+ l1 l0)) sep)) has the four solutions
        // x0 ↦ 95, sep ↦ 52.5, l0 ↦ 1.5, l1 ↦ 1.75.
        let (rho, eq) = sine_wave_eq();
        assert_eq!(solve(&rho, LocId(0), &eq), Some(95.0));
        assert_eq!(solve(&rho, LocId(1), &eq), Some(52.5));
        assert_eq!(solve(&rho, LocId(3), &eq), Some(1.5));
        // l2 (the Prelude's `1`) occurs twice under a multiplication, which
        // is outside both Figure 6 fragments…
        assert_eq!(solve(&rho, LocId(2), &eq), None);
        // …but the extended solver recovers the paper's ρ4.
        assert_eq!(solve_extended(&rho, LocId(2), &eq), Some(1.75));
    }

    #[test]
    fn extended_solver_subsumes_both_fragments() {
        let (rho, eq) = sine_wave_eq();
        for loc in [LocId(0), LocId(1), LocId(3)] {
            assert_eq!(solve_extended(&rho, loc, &eq), solve(&rho, loc, &eq));
        }
    }

    #[test]
    fn extended_solver_rejects_straddling_unknowns() {
        // 12 = (* l0 l0): the unknown sits on both sides of `*`.
        let t = Trace::op(Op::Mul, [l(0), l(0)]);
        let rho = Subst::from_pairs([(LocId(0), 2.0)]);
        assert_eq!(
            solve_extended(&rho, LocId(0), &Equation::new(12.0, t)),
            None
        );
    }

    #[test]
    fn solve_a_handles_repeated_unknowns() {
        // 10 = (+ l0 (+ l0 l1)), l1 = 4  ⇒  l0 = 3.
        let t = Trace::op(Op::Add, [l(0), Trace::op(Op::Add, [l(0), l(1)])]);
        let rho = Subst::from_pairs([(LocId(0), 0.0), (LocId(1), 4.0)]);
        let eq = Equation::new(10.0, t);
        assert_eq!(solve_a(&rho, LocId(0), &eq), Some(3.0));
        // SolveB refuses (two occurrences)…
        assert_eq!(solve_b(&rho, LocId(0), &eq), None);
        // …but the combined solver succeeds via SolveA.
        assert_eq!(solve(&rho, LocId(0), &eq), Some(3.0));
    }

    #[test]
    fn solve_b_inverts_trig() {
        // 0.5 = (cos l0) ⇒ l0 = arccos 0.5 = π/3.
        let t = Trace::op(Op::Cos, [l(0)]);
        let rho = Subst::from_pairs([(LocId(0), 0.0)]);
        let k = solve(&rho, LocId(0), &Equation::new(0.5, t)).unwrap();
        assert!((k - std::f64::consts::FRAC_PI_3).abs() < 1e-12);
    }

    #[test]
    fn cosine_bounded_equations_fail_for_large_targets() {
        // §5.2.2: n + d = f(cos l) has no solution when the target leaves
        // the range of cosine.
        let t = Trace::op(Op::Mul, [l(1), Trace::op(Op::Cos, [l(0)])]);
        let rho = Subst::from_pairs([(LocId(0), 0.0), (LocId(1), 60.0)]);
        // target 30 is fine (cos = 0.5)…
        assert!(solve(&rho, LocId(0), &Equation::new(30.0, t.clone())).is_some());
        // …target 160 requires cos = 2.67: unsolvable.
        assert_eq!(solve(&rho, LocId(0), &Equation::new(160.0, t)), None);
    }

    #[test]
    fn subtraction_and_division_inverses() {
        // 20 = (- l0 5) ⇒ l0 = 25.
        let t = Trace::op(Op::Sub, [l(0), l(1)]);
        let rho = Subst::from_pairs([(LocId(1), 5.0)]);
        assert_eq!(solve(&rho, LocId(0), &Equation::new(20.0, t)), Some(25.0));
        // 20 = (- 5 l0) ⇒ l0 = -15.
        let t = Trace::op(Op::Sub, [l(1), l(0)]);
        assert_eq!(solve(&rho, LocId(0), &Equation::new(20.0, t)), Some(-15.0));
        // 4 = (/ l0 3) ⇒ l0 = 12.
        let t = Trace::op(Op::Div, [l(0), l(1)]);
        let rho = Subst::from_pairs([(LocId(1), 3.0)]);
        assert_eq!(solve(&rho, LocId(0), &Equation::new(4.0, t)), Some(12.0));
        // 4 = (/ 3 l0) ⇒ l0 = 0.75.
        let t = Trace::op(Op::Div, [l(1), l(0)]);
        assert_eq!(solve(&rho, LocId(0), &Equation::new(4.0, t)), Some(0.75));
    }

    #[test]
    fn pow_inverses() {
        // 8 = (pow l0 3) ⇒ l0 = 2.
        let t = Trace::op(Op::Pow, [l(0), l(1)]);
        let rho = Subst::from_pairs([(LocId(1), 3.0)]);
        assert_eq!(solve(&rho, LocId(0), &Equation::new(8.0, t)), Some(2.0));
        // 8 = (pow 2 l0) ⇒ l0 = 3.
        let t = Trace::op(Op::Pow, [l(1), l(0)]);
        let rho = Subst::from_pairs([(LocId(1), 2.0)]);
        let k = solve(&rho, LocId(0), &Equation::new(8.0, t)).unwrap();
        assert!((k - 3.0).abs() < 1e-12);
    }

    #[test]
    fn round_is_not_invertible() {
        let t = Trace::op(Op::Round, [l(0)]);
        let rho = Subst::from_pairs([(LocId(0), 1.0)]);
        assert_eq!(solve(&rho, LocId(0), &Equation::new(3.0, t)), None);
    }

    #[test]
    fn mul_by_zero_coefficient_fails() {
        // Appendix B.2: 155 = (+ 50 (* 0 sep)) has no solution for sep.
        let t = Trace::op(Op::Add, [l(0), Trace::op(Op::Mul, [l(2), l(1)])]);
        let rho = Subst::from_pairs([(LocId(0), 50.0), (LocId(1), 30.0), (LocId(2), 0.0)]);
        assert_eq!(solve(&rho, LocId(1), &Equation::new(155.0, t)), None);
    }

    #[test]
    fn unknown_absent_from_trace_fails() {
        let t = Trace::op(Op::Add, [l(0), l(1)]);
        let rho = Subst::from_pairs([(LocId(0), 1.0), (LocId(1), 2.0)]);
        assert_eq!(solve(&rho, LocId(9), &Equation::new(5.0, t)), None);
    }

    #[test]
    fn classify_fragments() {
        let additive = Trace::op(Op::Add, [l(0), Trace::op(Op::Add, [l(0), l(1)])]);
        let c = classify(&additive, LocId(0));
        assert!(c.addition_only && !c.single_occurrence && c.in_fragment());

        let single = Trace::op(Op::Mul, [l(0), l(1)]);
        let c = classify(&single, LocId(0));
        assert!(!c.addition_only && c.single_occurrence);

        let outside = Trace::op(Op::Mul, [l(0), Trace::op(Op::Add, [l(0), l(1)])]);
        let c = classify(&outside, LocId(0));
        assert!(!c.in_fragment());
    }

    #[test]
    fn solve_subst_extends_rho() {
        let (rho, eq) = sine_wave_eq();
        let rho2 = solve_subst(&rho, LocId(1), &eq).unwrap();
        assert_eq!(rho2.get(LocId(1)), Some(52.5));
        assert_eq!(rho2.get(LocId(0)), Some(50.0));
    }

    #[test]
    fn check_solution_validates() {
        let (rho, eq) = sine_wave_eq();
        assert!(check_solution(&rho, LocId(0), &eq, 95.0));
        assert!(!check_solution(&rho, LocId(0), &eq, 96.0));
    }
}
