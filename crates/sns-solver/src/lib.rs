//! Value-trace equation solvers for trace-based program synthesis
//! (paper §5.1, Appendix B.2, Figure 6).
//!
//! Given a user edit `n′` to a value whose run-time trace is `t`, live
//! synchronization must solve the univariate equation `n′ = t` for a single
//! unknown program location ℓ. This crate implements:
//!
//! * [`solve_a`] — the **addition-only** solver (`WalkPlus`), which handles
//!   repeated occurrences of the unknown as long as the only operation is `+`;
//! * [`solve_b`] — the **single-occurrence** solver, which peels primitive
//!   operations top-down using their inverses;
//! * [`solve`] — the paper's combined `Solve`/`SolveOne` (A, then B, then a
//!   residual check);
//! * [`solve_extended`] — an extension that composes inversion with the
//!   addition-only finish, recovering candidates such as §2.2's ρ4;
//! * [`classify`] — fragment classification for the §5.2.2 statistics.
//!
//! # Examples
//!
//! ```
//! use sns_eval::Trace;
//! use sns_lang::{LocId, Op, Subst};
//! use sns_solver::{solve, Equation};
//!
//! // 155 = (+ x0 (* 2 sep))  with x0 = 50, sep = 30:
//! let idx = Trace::loc(LocId(2));
//! let t = Trace::op(Op::Add, [
//!     Trace::loc(LocId(0)),
//!     Trace::op(Op::Mul, [idx, Trace::loc(LocId(1))]),
//! ]);
//! let rho = Subst::from_pairs([(LocId(0), 50.0), (LocId(1), 30.0), (LocId(2), 2.0)]);
//! let eq = Equation::new(155.0, t);
//! assert_eq!(solve(&rho, LocId(1), &eq), Some(52.5)); // new `sep`
//! assert_eq!(solve(&rho, LocId(0), &eq), Some(95.0)); // new `x0`
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod equation;
pub mod solve;

pub use equation::{eval_trace, Equation};
pub use solve::{
    check_solution, classify, solve, solve_a, solve_b, solve_extended, solve_subst, FragmentClass,
};
