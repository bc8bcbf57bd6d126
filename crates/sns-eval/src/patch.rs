//! Substitution patching: re-evaluating traced numbers under a new ρ
//! without re-running the program.
//!
//! Evaluation maintains the invariant `n = ⟦t⟧ρ` for every traced number
//! `nᵗ` it produces (rule E-OP-NUM composes values and traces in
//! lockstep). So as long as a substitution cannot change control flow —
//! checked via [`Evaluator::escaped_locs`](crate::Evaluator::escaped_locs)
//! — the program's new output is the old output with every traced number
//! replaced by `⟦t⟧ρ'`. That replacement is what [`TracePatcher`]
//! computes, and it is the live-sync drag fast path: one mouse-move event
//! costs a walk over the *output*, not a re-evaluation of the *program*.
//!
//! Traces are heavily shared DAGs (`Arc` nodes), so both the dirtiness
//! check and the re-evaluation are memoized by node address; each distinct
//! trace node is visited at most once per patch pass.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use sns_lang::{LocId, Subst};

use crate::eval::apply_num_op;
use crate::trace::Trace;

/// Memoizing re-evaluator of traces under `ρ₀ ⊕ ρ` (base substitution
/// plus local update), without materializing the merged map.
///
/// Create one per patch pass (one drag step or one commit): the memo
/// tables key on trace-node addresses, which are only stable while the
/// traced values being patched are alive.
#[derive(Debug)]
pub struct TracePatcher<'a> {
    base: &'a Subst,
    update: &'a Subst,
    changed: BTreeSet<LocId>,
    dirty: HashMap<usize, bool>,
    vals: HashMap<usize, f64>,
}

impl<'a> TracePatcher<'a> {
    /// A patcher for `base ⊕ update`: `base` is the program's current ρ₀
    /// (every literal), `update` the local update whose domain is exactly
    /// the set of changed locations.
    pub fn new(base: &'a Subst, update: &'a Subst) -> TracePatcher<'a> {
        TracePatcher {
            base,
            update,
            changed: update.domain().collect(),
            dirty: HashMap::new(),
            vals: HashMap::new(),
        }
    }

    /// Whether the trace mentions any changed location (memoized).
    fn is_dirty(&mut self, t: &Arc<Trace>) -> bool {
        let key = Arc::as_ptr(t) as usize;
        if let Some(&d) = self.dirty.get(&key) {
            return d;
        }
        let d = match &**t {
            Trace::Loc(l) => self.changed.contains(l),
            Trace::Op(_, args) => args.iter().any(|a| self.is_dirty(a)),
        };
        self.dirty.insert(key, d);
        d
    }

    /// Evaluates the trace under the patcher's substitution (memoized).
    /// `None` when a location is unbound or an operation is non-numeric —
    /// neither happens for traces produced by evaluating the same program
    /// the substitution came from, but callers fall back to a full
    /// re-evaluation rather than trusting that.
    fn eval(&mut self, t: &Arc<Trace>) -> Option<f64> {
        let key = Arc::as_ptr(t) as usize;
        if let Some(&v) = self.vals.get(&key) {
            return Some(v);
        }
        let v = match &**t {
            Trace::Loc(l) => self.update.get(*l).or_else(|| self.base.get(*l))?,
            Trace::Op(op, args) => {
                let mut xs = Vec::with_capacity(args.len());
                for a in args {
                    xs.push(self.eval(a)?);
                }
                apply_num_op(*op, &xs)?
            }
        };
        self.vals.insert(key, v);
        Some(v)
    }

    /// The patched value of a traced number: the old value `n` when the
    /// trace avoids every changed location, `⟦t⟧ρ'` otherwise.
    pub fn patch(&mut self, n: f64, t: &Arc<Trace>) -> Option<f64> {
        if self.is_dirty(t) {
            self.eval(t)
        } else {
            Some(n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;

    #[test]
    fn patched_numbers_match_full_reevaluation() {
        let src = "(def [a b] [10 20]) (+ a (* 3 b))";
        let p = Program::parse(src).unwrap();
        let v = p.eval().unwrap();
        let (n, t) = v.as_num().unwrap();
        assert_eq!(n, 70.0);
        let a_loc = LocId(p.next_loc() - 3);
        let subst = Subst::from_pairs([(a_loc, 25.0)]);
        let rho0 = p.subst();
        let mut patcher = TracePatcher::new(&rho0, &subst);
        let patched = patcher.patch(n, t).unwrap();
        let full = p.with_subst(&subst).eval().unwrap().as_num().unwrap().0;
        assert_eq!(patched.to_bits(), full.to_bits());
        assert_eq!(patched, 85.0);
    }

    #[test]
    fn clean_traces_keep_their_value_verbatim() {
        let p = Program::parse("(* 6 7)").unwrap();
        let v = p.eval().unwrap();
        let (n, t) = v.as_num().unwrap();
        let rho = p.subst();
        // Change nothing: the patcher must return n without re-evaluating.
        let empty = Subst::new();
        let mut patcher = TracePatcher::new(&rho, &empty);
        assert!(!patcher.is_dirty(t));
        assert_eq!(patcher.patch(n, t), Some(42.0));
    }

    #[test]
    fn unbound_location_fails_closed() {
        let p = Program::parse("(+ 1 2)").unwrap();
        let v = p.eval().unwrap();
        let (_, t) = v.as_num().unwrap();
        // Neither base nor update binds the trace's locations.
        let empty = Subst::new();
        let mut patcher = TracePatcher::new(&empty, &empty);
        assert_eq!(patcher.eval(t), None);
    }
}
