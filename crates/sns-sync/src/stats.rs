//! Measurement utilities behind the paper's evaluation tables
//! (§5.2.1, §5.2.2, Appendix G).
//!
//! *Pre-equations* are the `(ρ, v, ζ, ℓ, n, t)` tuples of §5.2.2: for every
//! attribute an active zone controls, the location the heuristics assigned
//! plus the attribute's current value and trace. Deduplicating them modulo
//! shape and zone yields the unique `(ρ, ℓ, n, t)` tuples whose solvability
//! the paper reports for `d = 1` and `d = 100`.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use sns_eval::Trace;
use sns_lang::{LocId, Subst};
use sns_solver::{classify, solve, Equation};
use sns_svg::{Canvas, ShapeId, Zone};

use crate::assign::Assignments;

/// One §5.2.2 pre-equation: zone ζ of shape v will solve `n + d = t` for ℓ.
#[derive(Debug, Clone)]
pub struct PreEquation {
    /// The shape.
    pub shape: ShapeId,
    /// The zone.
    pub zone: Zone,
    /// The assigned location ℓ.
    pub loc: LocId,
    /// The attribute's current value n.
    pub n: f64,
    /// The attribute's trace t.
    pub trace: Arc<Trace>,
}

/// Extracts every pre-equation from prepared assignments (one per attribute
/// of every active zone, using the chosen location assignment).
pub fn pre_equations(assignments: &Assignments) -> Vec<PreEquation> {
    let mut out = Vec::new();
    for z in &assignments.zones {
        if !z.is_active() {
            continue;
        }
        for slot in &z.slots {
            if let Some(loc) = z.loc_for(&slot.attr) {
                out.push(PreEquation {
                    shape: z.shape,
                    zone: z.zone,
                    loc,
                    n: slot.base,
                    trace: Arc::clone(&slot.trace),
                });
            }
        }
    }
    out
}

/// Deduplicates pre-equations modulo shape and zone, keeping the first
/// occurrence of each `(ℓ, n, t)` triple.
pub fn unique_pre_equations(eqs: &[PreEquation]) -> Vec<PreEquation> {
    let mut seen: HashSet<(LocId, u64, String)> = HashSet::new();
    let mut out = Vec::new();
    for eq in eqs {
        let key = (eq.loc, eq.n.to_bits(), eq.trace.to_string());
        if seen.insert(key) {
            out.push(eq.clone());
        }
    }
    out
}

/// Solvability of one set of pre-equations (one row of the §5.2.2 table).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolvabilityStats {
    /// Unique pre-equations examined.
    pub total: usize,
    /// Outside both solver fragments (guaranteed unsolvable by `Solve`).
    pub outside_fragment: usize,
    /// In the addition-only (`SolveA`) fragment.
    pub in_fragment_a: usize,
    /// In the single-occurrence (`SolveB`) fragment.
    pub in_fragment_b: usize,
    /// In either fragment.
    pub in_fragment: usize,
    /// In-fragment and solvable for `d = 1`.
    pub solved_d1: usize,
    /// In-fragment and solvable for `d = 100`.
    pub solved_d100: usize,
    /// Total trace nodes (for the mean trace size statistic).
    pub trace_nodes: usize,
}

impl SolvabilityStats {
    /// Mean trace size in tree nodes.
    pub fn mean_trace_size(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.trace_nodes as f64 / self.total as f64
        }
    }
}

/// Tests each unique pre-equation with the paper-faithful solver at
/// `d = 1` and `d = 100` (§5.2.2 "Solvability").
pub fn solvability(rho0: &Subst, eqs: &[PreEquation]) -> SolvabilityStats {
    let mut s = SolvabilityStats::default();
    for eq in eqs {
        s.total += 1;
        s.trace_nodes += eq.trace.size();
        let class = classify(&eq.trace, eq.loc);
        if class.addition_only {
            s.in_fragment_a += 1;
        }
        if class.single_occurrence {
            s.in_fragment_b += 1;
        }
        if !class.in_fragment() {
            s.outside_fragment += 1;
            continue;
        }
        s.in_fragment += 1;
        let eq1 = Equation::new(eq.n + 1.0, Arc::clone(&eq.trace));
        if solve(rho0, eq.loc, &eq1).is_some() {
            s.solved_d1 += 1;
        }
        let eq100 = Equation::new(eq.n + 100.0, Arc::clone(&eq.trace));
        if solve(rho0, eq.loc, &eq100).is_some() {
            s.solved_d100 += 1;
        }
    }
    s
}

/// The Appendix G per-example location statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LocationStats {
    /// Distinct locations appearing in output traces.
    pub output_locs: usize,
    /// …of which non-frozen.
    pub unfrozen: usize,
    /// Unfrozen locations not assigned to any zone.
    pub unassigned: usize,
    /// Unfrozen locations assigned to at least one zone.
    pub assigned: usize,
    /// Average number of zones an assigned location controls.
    pub avg_times: f64,
    /// Average fraction of a location's candidate zones that chose it.
    pub avg_rate: f64,
}

/// Computes location statistics for a prepared canvas.
pub fn location_stats(
    canvas: &Canvas,
    assignments: &Assignments,
    is_frozen: &dyn Fn(LocId) -> bool,
) -> LocationStats {
    let mut output_locs: HashSet<LocId> = HashSet::new();
    for shape in canvas.shapes() {
        for num in shape.node.attr_nums() {
            output_locs.extend(num.t.locs());
        }
    }
    let unfrozen: HashSet<LocId> = output_locs
        .iter()
        .copied()
        .filter(|l| !is_frozen(*l))
        .collect();

    // times: zones whose chosen set contains the location.
    // opportunities: zones where the location was in some candidate.
    let mut times: HashMap<LocId, usize> = HashMap::new();
    let mut opportunities: HashMap<LocId, usize> = HashMap::new();
    for z in &assignments.zones {
        let mut candidate_locs: HashSet<LocId> = HashSet::new();
        for c in z.candidates.iter() {
            candidate_locs.extend(c.loc_set.iter().copied());
        }
        for l in candidate_locs {
            *opportunities.entry(l).or_insert(0) += 1;
        }
        if let Some(c) = z.chosen_candidate() {
            for l in &c.loc_set {
                *times.entry(*l).or_insert(0) += 1;
            }
        }
    }

    let assigned: Vec<LocId> = unfrozen
        .iter()
        .copied()
        .filter(|l| times.get(l).copied().unwrap_or(0) > 0)
        .collect();
    let avg_times = if assigned.is_empty() {
        0.0
    } else {
        assigned.iter().map(|l| times[l] as f64).sum::<f64>() / assigned.len() as f64
    };
    let avg_rate = if assigned.is_empty() {
        0.0
    } else {
        assigned
            .iter()
            .map(|l| times[l] as f64 / opportunities.get(l).copied().unwrap_or(1).max(1) as f64)
            .sum::<f64>()
            / assigned.len() as f64
    };
    LocationStats {
        output_locs: output_locs.len(),
        unfrozen: unfrozen.len(),
        unassigned: unfrozen.len() - assigned.len(),
        assigned: assigned.len(),
        avg_times,
        avg_rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{analyze_canvas, Heuristic};
    use sns_eval::{FreezeMode, Program};

    const SINE_WAVE: &str = r#"
        (def [x0 y0 w h sep amp] [50 120 20 90 30 60])
        (def n 12!{3-30})
        (def boxi (λ i
          (let xi (+ x0 (* i sep))
          (let yi (- y0 (* amp (sin (* i (/ twoPi n)))))
            (rect 'lightblue' xi yi w h)))))
        (svg (map boxi (zeroTo n)))
    "#;

    fn prepared(src: &str) -> (Program, Canvas, Assignments) {
        let program = Program::parse(src).unwrap();
        let canvas = Canvas::from_value(&program.eval().unwrap()).unwrap();
        let mode = FreezeMode::default();
        let frozen = |l: LocId| program.is_frozen(l, mode);
        let a = analyze_canvas(&canvas, &frozen, Heuristic::Fair);
        (program, canvas, a)
    }

    #[test]
    fn pre_equations_cover_active_zone_attrs() {
        let (_, _, a) = prepared(SINE_WAVE);
        let eqs = pre_equations(&a);
        // Every rect has 9 active zones controlling 2+1+2+1+3+2+4+2+3 = 20
        // attribute slots; 12 rects → 240 pre-equations.
        assert_eq!(eqs.len(), 240);
    }

    #[test]
    fn unique_pre_equations_deduplicate_across_shapes() {
        let (_, _, a) = prepared(SINE_WAVE);
        let eqs = pre_equations(&a);
        let unique = unique_pre_equations(&eqs);
        assert!(unique.len() < eqs.len());
        // Widths/heights are shared constants: their equations collapse.
        assert!(!unique.is_empty());
    }

    #[test]
    fn solvability_counts_are_consistent() {
        let (program, _, a) = prepared(SINE_WAVE);
        let unique = unique_pre_equations(&pre_equations(&a));
        let s = solvability(&program.subst(), &unique);
        assert_eq!(s.total, unique.len());
        assert_eq!(s.total, s.outside_fragment + s.in_fragment);
        assert!(s.solved_d1 <= s.in_fragment);
        assert!(s.solved_d100 <= s.solved_d1 + s.in_fragment);
        assert!(s.mean_trace_size() >= 1.0);
        // The sine-wave y-equations solve for d=1 but some fail for d=100
        // (amp·sin is bounded) — the paper's §5.2.2 observation.
        assert!(s.solved_d100 <= s.solved_d1);
    }

    #[test]
    fn location_stats_accounting() {
        let (program, canvas, a) = prepared(SINE_WAVE);
        let mode = FreezeMode::default();
        let frozen = |l: LocId| program.is_frozen(l, mode);
        let ls = location_stats(&canvas, &a, &frozen);
        // x0 y0 w h sep amp unfrozen (n is frozen; prelude frozen).
        assert_eq!(ls.unfrozen, 6);
        assert_eq!(ls.assigned + ls.unassigned, ls.unfrozen);
        assert!(ls.output_locs > ls.unfrozen);
        assert!(ls.avg_rate > 0.0 && ls.avg_rate <= 1.0);
        assert!(ls.avg_times >= 1.0);
    }
}
