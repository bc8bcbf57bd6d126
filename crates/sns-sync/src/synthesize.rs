//! `SynthesizePlausible` (Appendix B.2): enumerate all plausible local
//! updates for a set of changed output values.
//!
//! Where live synchronization commits to *one* pre-chosen location per
//! attribute (via the heuristics), this module enumerates the whole
//! candidate space `L′1 × … × L′m` — it is what the Figure 1D harness uses
//! to show the user the four distinct effects of dragging the third box.

use std::sync::Arc;

use sns_eval::Trace;
use sns_lang::{LocId, Subst};
use sns_solver::Equation;

use crate::trigger::SolverChoice;

/// Options for plausible-update synthesis.
#[derive(Debug, Clone, Copy)]
pub struct SynthesisOptions {
    /// Which solver to use per univariate equation.
    pub solver: SolverChoice,
    /// Cap on the number of candidate location tuples explored.
    pub max_candidates: usize,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            solver: SolverChoice::Extended,
            max_candidates: 10_000,
        }
    }
}

/// A synthesized candidate update.
#[derive(Debug, Clone)]
pub struct CandidateUpdate {
    /// The locations chosen per equation (the tuple from `L′1 × … × L′m`).
    pub locs: Vec<LocId>,
    /// The resulting local update (only the changed locations).
    pub subst: Subst,
}

/// Enumerates plausible updates for the system `{n′1 = t1, …, n′m = tm}`.
///
/// For every tuple of locations (one non-frozen location from each
/// equation's trace), each equation is solved independently against `rho0`
/// and the solutions are combined left to right (later bindings shadow
/// earlier ones — plausible, not faithful). Tuples with any unsolvable
/// member are dropped; duplicate substitutions are deduplicated.
pub fn synthesize_plausible(
    rho0: &Subst,
    equations: &[Equation],
    is_frozen: &dyn Fn(LocId) -> bool,
    options: SynthesisOptions,
) -> Vec<CandidateUpdate> {
    if equations.is_empty() {
        return Vec::new();
    }
    let loc_sets: Vec<Vec<LocId>> = equations
        .iter()
        .map(|eq| {
            eq.trace
                .locs()
                .into_iter()
                .filter(|l| !is_frozen(*l))
                .collect()
        })
        .collect();
    if loc_sets.iter().any(|ls| ls.is_empty()) {
        return Vec::new();
    }

    let mut results: Vec<CandidateUpdate> = Vec::new();
    let mut seen: std::collections::HashSet<Vec<(LocId, u64)>> = std::collections::HashSet::new();
    let mut tuple = vec![0usize; loc_sets.len()];
    let mut explored = 0usize;
    'outer: loop {
        explored += 1;
        if explored > options.max_candidates {
            break;
        }
        let locs: Vec<LocId> = tuple.iter().zip(&loc_sets).map(|(&i, ls)| ls[i]).collect();
        let mut subst = Subst::new();
        let mut ok = true;
        for (loc, eq) in locs.iter().zip(equations) {
            let solution = match options.solver {
                SolverChoice::Paper => sns_solver::solve(rho0, *loc, eq),
                SolverChoice::Extended => sns_solver::solve_extended(rho0, *loc, eq),
            };
            match solution {
                Some(k) => {
                    subst.insert(*loc, k);
                }
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            // Deduplicate by the substitution's content (bit-exact).
            let key: Vec<(LocId, u64)> = subst.iter().map(|(l, v)| (l, v.to_bits())).collect();
            if seen.insert(key) {
                results.push(CandidateUpdate { locs, subst });
            }
        }
        // Advance the mixed-radix counter.
        for i in (0..tuple.len()).rev() {
            tuple[i] += 1;
            if tuple[i] < loc_sets[i].len() {
                continue 'outer;
            }
            tuple[i] = 0;
            if i == 0 {
                break 'outer;
            }
        }
        if tuple.iter().all(|&i| i == 0) {
            break;
        }
    }
    results
}

/// Synthesizes candidates for a *single* changed value — the common case of
/// dragging one attribute, and the shape of the paper's §2.2 walk-through.
pub fn synthesize_single(
    rho0: &Subst,
    target: f64,
    trace: &Arc<Trace>,
    is_frozen: &dyn Fn(LocId) -> bool,
    options: SynthesisOptions,
) -> Vec<CandidateUpdate> {
    synthesize_plausible(
        rho0,
        &[Equation::new(target, Arc::clone(trace))],
        is_frozen,
        options,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_lang::Op;

    /// Equation 3′ from §2.2: 155 = (+ x0 (* (+ l1 (+ l1 l0)) sep)).
    fn sine_eq() -> (Subst, Arc<Trace>) {
        let l = |i: u32| Trace::loc(LocId(i));
        let idx = Trace::op(Op::Add, [l(2), Trace::op(Op::Add, [l(2), l(3)])]);
        let t = Trace::op(Op::Add, [l(0), Trace::op(Op::Mul, [idx, l(1)])]);
        let rho = Subst::from_pairs([
            (LocId(0), 50.0),
            (LocId(1), 30.0),
            (LocId(2), 1.0),
            (LocId(3), 0.0),
        ]);
        (rho, t)
    }

    #[test]
    fn figure_1d_four_candidates() {
        let (rho, t) = sine_eq();
        let frozen = |_: LocId| false;
        let cands = synthesize_single(&rho, 155.0, &t, &frozen, SynthesisOptions::default());
        assert_eq!(cands.len(), 4);
        let mut solutions: Vec<(u32, f64)> = cands
            .iter()
            .map(|c| {
                let (l, v) = c.subst.iter().next().unwrap();
                (l.0, v)
            })
            .collect();
        solutions.sort_by_key(|s| s.0);
        assert_eq!(solutions, vec![(0, 95.0), (1, 52.5), (2, 1.75), (3, 1.5)]);
    }

    #[test]
    fn frozen_prelude_leaves_two_candidates() {
        // §2.2 "Frozen Constants": with l2/l3 (the Prelude's 1 and 0)
        // frozen, only x0 and sep remain.
        let (rho, t) = sine_eq();
        let frozen = |l: LocId| l.0 >= 2;
        let cands = synthesize_single(&rho, 155.0, &t, &frozen, SynthesisOptions::default());
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn everything_frozen_yields_nothing() {
        let (rho, t) = sine_eq();
        let frozen = |_: LocId| true;
        let cands = synthesize_single(&rho, 155.0, &t, &frozen, SynthesisOptions::default());
        assert!(cands.is_empty());
    }

    #[test]
    fn multi_equation_synthesis_combines_solutions() {
        // Two independent equations: x' = x0, y' = y0.
        let eqs = [
            Equation::new(15.0, Trace::loc(LocId(0))),
            Equation::new(27.0, Trace::loc(LocId(1))),
        ];
        let rho = Subst::from_pairs([(LocId(0), 10.0), (LocId(1), 20.0)]);
        let frozen = |_: LocId| false;
        let cands = synthesize_plausible(&rho, &eqs, &frozen, SynthesisOptions::default());
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].subst.get(LocId(0)), Some(15.0));
        assert_eq!(cands[0].subst.get(LocId(1)), Some(27.0));
    }

    #[test]
    fn candidate_cap_bounds_exploration() {
        // Ten equations with three candidate locations each would explore
        // 3^10 tuples; the cap keeps it finite and deterministic.
        let t = Trace::op(
            Op::Add,
            [
                Trace::loc(LocId(0)),
                Trace::op(Op::Add, [Trace::loc(LocId(1)), Trace::loc(LocId(2))]),
            ],
        );
        let eqs: Vec<Equation> = (0..10)
            .map(|i| Equation::new(10.0 + i as f64, Arc::clone(&t)))
            .collect();
        let rho = Subst::from_pairs([(LocId(0), 1.0), (LocId(1), 2.0), (LocId(2), 3.0)]);
        let frozen = |_: LocId| false;
        let opts = SynthesisOptions {
            max_candidates: 100,
            ..Default::default()
        };
        let cands = synthesize_plausible(&rho, &eqs, &frozen, opts);
        assert!(!cands.is_empty());
        assert!(cands.len() <= 100);
    }

    #[test]
    fn duplicate_substitutions_are_deduplicated() {
        // Two equations over the same single-location trace: all tuples
        // produce the same one-binding substitution.
        let t = Trace::loc(LocId(0));
        let eqs = vec![
            Equation::new(5.0, Arc::clone(&t)),
            Equation::new(5.0, Arc::clone(&t)),
        ];
        let rho = Subst::from_pairs([(LocId(0), 1.0)]);
        let frozen = |_: LocId| false;
        let cands = synthesize_plausible(&rho, &eqs, &frozen, SynthesisOptions::default());
        assert_eq!(cands.len(), 1);
    }

    #[test]
    fn no_equations_no_candidates() {
        let rho = Subst::new();
        let frozen = |_: LocId| false;
        assert!(synthesize_plausible(&rho, &[], &frozen, SynthesisOptions::default()).is_empty());
    }

    #[test]
    fn paper_solver_finds_three_of_four() {
        // With the paper-faithful solver, the repeated-unknown candidate
        // (l2 ↦ 1.75) is out of reach.
        let (rho, t) = sine_eq();
        let frozen = |_: LocId| false;
        let opts = SynthesisOptions {
            solver: SolverChoice::Paper,
            ..Default::default()
        };
        let cands = synthesize_single(&rho, 155.0, &t, &frozen, opts);
        assert_eq!(cands.len(), 3);
    }
}
