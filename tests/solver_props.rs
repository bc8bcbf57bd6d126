//! Randomized tests for the solver and substitution machinery: generated
//! traces and programs must satisfy the paper's definitional invariants.
//! (Ported from a `proptest` suite to the std-only harness in
//! `tests/support`.)

mod support;

use std::sync::Arc;

use support::{GenExt, SplitMix64};

use sketch_n_sketch::eval::Trace;
use sketch_n_sketch::lang::{LocId, Op, Subst};
use sketch_n_sketch::solver::{
    check_solution, classify, eval_trace, solve, solve_a, solve_b, solve_extended, Equation,
};

/// Generates a trace over locations l0..l5 in which l0 occurs exactly
/// once, built from invertible binary operations.
fn single_occurrence_trace(rng: &mut SplitMix64, depth: u32) -> Arc<Trace> {
    let mut with_l0 = Trace::loc(LocId(0));
    let rounds = rng.index(depth as usize + 1);
    for _ in 0..rounds {
        let op = [Op::Add, Op::Sub, Op::Mul, Op::Div][rng.index(4)];
        let other = Trace::loc(LocId(rng.u32_in(1, 5)));
        with_l0 = if rng.flag() {
            Trace::op(op, [with_l0, other])
        } else {
            Trace::op(op, [other, with_l0])
        };
    }
    with_l0
}

/// Generates an addition-only trace over locations l0..l4.
fn additive_trace(rng: &mut SplitMix64, depth: u32) -> Arc<Trace> {
    if depth == 0 || rng.index(3) == 0 {
        return Trace::loc(LocId(rng.u32_in(0, 5)));
    }
    Trace::op(
        Op::Add,
        [
            additive_trace(rng, depth - 1),
            additive_trace(rng, depth - 1),
        ],
    )
}

fn rho_for(rng: &mut SplitMix64, n_locs: u32) -> Subst {
    Subst::from_pairs((0..n_locs).map(|i| (LocId(i), rng.f64_in(-50.0, 50.0))))
}

/// Any solution the combined solver returns actually satisfies the
/// equation (soundness of Solve).
#[test]
fn solve_is_sound() {
    let mut rng = SplitMix64::seed_from_u64(1);
    for case in 0..256 {
        let trace = single_occurrence_trace(&mut rng, 4);
        let rho = rho_for(&mut rng, 5);
        let target = rng.f64_in(-500.0, 500.0);
        let eq = Equation::new(target, Arc::clone(&trace));
        if let Some(k) = solve(&rho, LocId(0), &eq) {
            assert!(
                check_solution(&rho, LocId(0), &eq, k),
                "case {case}: {trace}"
            );
        }
    }
}

/// SolveB succeeds on every single-occurrence equation whose numeric path
/// avoids division blow-ups, and its answer is exact.
#[test]
fn solve_b_inverts_when_defined() {
    let mut rng = SplitMix64::seed_from_u64(2);
    for case in 0..256 {
        let trace = single_occurrence_trace(&mut rng, 4);
        let rho = rho_for(&mut rng, 5);
        // Choose the target by evaluating the trace at a known value of l0,
        // so a solution certainly exists.
        let mut rho_known = rho.clone();
        rho_known.insert(LocId(0), 7.25);
        let Some(target) = eval_trace(&rho_known, &trace) else {
            continue;
        };
        if !target.is_finite() {
            continue;
        }
        let eq = Equation::new(target, Arc::clone(&trace));
        if let Some(k) = solve_b(&rho, LocId(0), &eq) {
            assert!(
                check_solution(&rho, LocId(0), &eq, k),
                "case {case}: {trace}"
            );
        }
    }
}

/// SolveA solves every addition-only equation containing the unknown,
/// exactly.
#[test]
fn solve_a_is_exact_on_additive_traces() {
    let mut rng = SplitMix64::seed_from_u64(3);
    for case in 0..256 {
        let trace = additive_trace(&mut rng, 5);
        let rho = rho_for(&mut rng, 5);
        let target = rng.f64_in(-500.0, 500.0);
        let eq = Equation::new(target, Arc::clone(&trace));
        let class = classify(&trace, LocId(0));
        if class.addition_only {
            let k = solve_a(&rho, LocId(0), &eq);
            assert!(k.is_some(), "case {case}: {trace}");
            assert!(
                check_solution(&rho, LocId(0), &eq, k.unwrap()),
                "case {case}: {trace}"
            );
        }
    }
}

/// The extended solver agrees with the paper solver whenever the paper
/// solver succeeds (it is a conservative extension).
#[test]
fn extended_solver_is_conservative() {
    let mut rng = SplitMix64::seed_from_u64(4);
    for case in 0..256 {
        let trace = single_occurrence_trace(&mut rng, 4);
        let rho = rho_for(&mut rng, 5);
        let target = rng.f64_in(-500.0, 500.0);
        let eq = Equation::new(target, Arc::clone(&trace));
        if let Some(k) = solve(&rho, LocId(0), &eq) {
            let k2 = solve_extended(&rho, LocId(0), &eq);
            assert!(k2.is_some(), "case {case}: {trace}");
            assert!(
                (k2.unwrap() - k).abs() <= 1e-6 * k.abs().max(1.0),
                "case {case}: {trace}"
            );
        }
    }
}

/// Fragment classification is consistent with solver behaviour: equations
/// outside both fragments are never solved by `solve`.
#[test]
fn outside_fragment_is_never_solved() {
    let mut rng = SplitMix64::seed_from_u64(5);
    for case in 0..256 {
        // Multiplying two additive traces that both mention l0 yields a
        // trace outside both fragments.
        let a = additive_trace(&mut rng, 5);
        let b = additive_trace(&mut rng, 5);
        let rho = rho_for(&mut rng, 5);
        let target = rng.f64_in(-500.0, 500.0);
        let trace = Trace::op(Op::Mul, [a, b]);
        let class = classify(&trace, LocId(0));
        if !class.in_fragment() {
            let eq = Equation::new(target, Arc::clone(&trace));
            assert_eq!(solve(&rho, LocId(0), &eq), None, "case {case}: {trace}");
        }
    }
}

/// Substitution application and `program_subst` are inverses on the
/// numeric content of programs.
#[test]
fn subst_roundtrip_on_programs() {
    use sketch_n_sketch::lang::{parse, program_subst};
    let mut rng = SplitMix64::seed_from_u64(6);
    for case in 0..128 {
        let n = 1 + rng.index(7);
        let values: Vec<f64> = (0..n)
            .map(|_| (rng.f64_in(-100.0, 100.0) * 100.0).round() / 100.0)
            .collect();
        let body = values
            .iter()
            .map(|v| sketch_n_sketch::lang::fmt_num(*v))
            .collect::<Vec<_>>()
            .join(" ");
        let src = format!("[{body}]");
        let parsed = parse(&src).unwrap();
        let rho = program_subst(&parsed.expr);
        assert_eq!(rho.len(), values.len(), "case {case}");
        // Shift every literal by 1 and read it back.
        let shifted = Subst::from_pairs(rho.iter().map(|(l, v)| (l, v + 1.0)));
        let expr2 = shifted.applied(&parsed.expr);
        let rho2 = program_subst(&expr2);
        for (l, v) in rho.iter() {
            assert_eq!(rho2.get(l), Some(v + 1.0), "case {case}");
        }
    }
}
