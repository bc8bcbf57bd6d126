//! The text of the paper's count tables and of Figure 1C/1D, as the
//! regenerating binaries print them. They are deterministic, so
//! `tests/paper_tables.rs` pins each one byte for byte.

use std::fmt::Write as _;
use std::sync::Arc;

use sns_eval::{FreezeMode, Program};
use sns_lang::LocId;
use sns_svg::{Canvas, ShapeId};
use sns_sync::{
    judge, numeric_leaves, synthesize_single, LocationStats, SolvabilityStats, SynthesisOptions,
    UserUpdate, ZoneStats,
};

use crate::Measurement;

/// The §5.2.1 "Active Zones" table, preceded with `per_example` by the
/// Appendix G per-example zone table.
pub fn zones(measurements: &[Measurement], per_example: bool) -> String {
    let mut out = String::new();
    if per_example {
        let _ = writeln!(
            out,
            "{:<24} {:>7} {:>7} {:>5} {:>5} {:>7} {:>8}",
            "Example", "Shapes", "Zones", "0", "1", ">1", "(avg)"
        );
        for m in measurements {
            let z = &m.zones;
            let _ = writeln!(
                out,
                "{:<24} {:>7} {:>7} {:>5} {:>5} {:>7} {:>8}",
                m.name,
                m.shapes,
                z.total,
                z.inactive,
                z.unambiguous,
                z.ambiguous,
                format!("({:.2})", z.avg_ambiguous_choices()),
            );
        }
        out.push('\n');
    }

    let mut total = ZoneStats::default();
    let mut shapes = 0usize;
    for m in measurements {
        shapes += m.shapes;
        total.total += m.zones.total;
        total.inactive += m.zones.inactive;
        total.unambiguous += m.zones.unambiguous;
        total.ambiguous += m.zones.ambiguous;
        total.ambiguous_choices += m.zones.ambiguous_choices;
    }
    let pct = |n: usize| 100.0 * n as f64 / total.total.max(1) as f64;
    let _ = writeln!(
        out,
        "== Table §5.2.1: Active Zones ({} examples) ==",
        measurements.len()
    );
    let _ = writeln!(out, "Shapes        {shapes}");
    let _ = writeln!(out, "Zones         {}", total.total);
    let _ = writeln!(
        out,
        "  Inactive    {} ({:.0}%)",
        total.inactive,
        pct(total.inactive)
    );
    let _ = writeln!(out, "  Active      {}", total.active());
    let _ = writeln!(
        out,
        "    Unambiguous {} ({:.0}%)",
        total.unambiguous,
        pct(total.unambiguous)
    );
    let _ = writeln!(
        out,
        "    Ambiguous   {} ({:.0}%)  ({:.2} candidates on average)",
        total.ambiguous,
        pct(total.ambiguous),
        total.avg_ambiguous_choices()
    );
    out.push('\n');
    out.push_str("Paper reference: 3,772 shapes; 14,106 zones; 7% inactive; 34% unambiguous;\n");
    out.push_str("59% ambiguous with 3.83 candidates on average.\n");
    out
}

/// The §5.2.2 "Solving Equations" table, followed with `fragments` by the
/// Appendix G solver-fragment breakdown and its per-example rows.
pub fn solvability(measurements: &[Measurement], fragments: bool) -> String {
    let mut out = String::new();
    let mut pre_total = 0usize;
    let mut s = SolvabilityStats::default();
    let mut frag_a = 0usize;
    let mut frag_b = 0usize;
    for m in measurements {
        pre_total += m.pre_eq_total;
        s.total += m.solvability.total;
        s.outside_fragment += m.solvability.outside_fragment;
        s.in_fragment += m.solvability.in_fragment;
        s.solved_d1 += m.solvability.solved_d1;
        s.solved_d100 += m.solvability.solved_d100;
        s.trace_nodes += m.solvability.trace_nodes;
        frag_a += m.solvability.in_fragment_a;
        frag_b += m.solvability.in_fragment_b;
    }

    let pct = |n: usize| 100.0 * n as f64 / s.total.max(1) as f64;
    let _ = writeln!(
        out,
        "== Table §5.2.2: Solving Equations ({} examples) ==",
        measurements.len()
    );
    let _ = writeln!(out, "# (shape, zone) equations        {pre_total}");
    let _ = writeln!(out, "Unique Pre-Equations             {}", s.total);
    let _ = writeln!(
        out,
        "  Outside Fragment               {} ({:.0}%)",
        s.outside_fragment,
        pct(s.outside_fragment)
    );
    let _ = writeln!(out, "  Inside Fragment                {}", s.in_fragment);
    let _ = writeln!(
        out,
        "    No Solution for d=1          {} ({:.0}%)",
        s.in_fragment - s.solved_d1,
        pct(s.in_fragment - s.solved_d1)
    );
    let _ = writeln!(out, "    Solution for d=1             {}", s.solved_d1);
    let _ = writeln!(
        out,
        "      No Solution for d=100      {} ({:.0}%)",
        s.solved_d1 - s.solved_d100,
        pct(s.solved_d1 - s.solved_d100)
    );
    let _ = writeln!(
        out,
        "      Solution for d=100         {} ({:.0}%)",
        s.solved_d100,
        pct(s.solved_d100)
    );
    let _ = writeln!(
        out,
        "Mean trace size                  {:.2} nodes",
        s.mean_trace_size()
    );
    out.push('\n');
    out.push_str("Paper reference: 4,574 unique; 20% outside; 4% in-fragment unsolvable at d=1;\n");
    out.push_str("66% solvable at d=100; mean trace size 141.30.\n");

    if fragments {
        out.push_str("\n== Appendix G: solver fragments ==\n");
        let _ = writeln!(out, "# Traces in SolveA fragment      {frag_a}");
        let _ = writeln!(out, "# Traces in SolveB fragment      {frag_b}");
        let _ = writeln!(out, "# Traces in either fragment      {}", s.in_fragment);
        let _ = writeln!(
            out,
            "# Traces in no fragment          {}",
            s.outside_fragment
        );
        out.push('\n');
        let _ = writeln!(
            out,
            "{:<24} {:>7} {:>9} {:>7} {:>9} {:>9}",
            "Example", "Unique", "Outside", "InFrag", "d=1 ok", "d=100 ok"
        );
        for m in measurements {
            let v = &m.solvability;
            let _ = writeln!(
                out,
                "{:<24} {:>7} {:>9} {:>7} {:>9} {:>9}",
                m.name, v.total, v.outside_fragment, v.in_fragment, v.solved_d1, v.solved_d100
            );
        }
    }
    out
}

/// The Appendix G per-example location table, with its totals row.
pub fn locations(measurements: &[Measurement]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>6} {:>9} {:>11} {:>9} {:>11} {:>10}",
        "Example", "Locs", "Unfrozen", "Unassigned", "Assigned", "(avg times)", "(avg rate)"
    );
    let mut tot = LocationStats::default();
    let mut assigned_weighted_times = 0.0;
    let mut assigned_weighted_rate = 0.0;
    for m in measurements {
        let l = &m.locations;
        let _ = writeln!(
            out,
            "{:<24} {:>6} {:>9} {:>11} {:>9} {:>11} {:>9}%",
            m.name,
            l.output_locs,
            l.unfrozen,
            l.unassigned,
            l.assigned,
            format!("({:.1})", l.avg_times),
            (l.avg_rate * 100.0).round(),
        );
        tot.output_locs += l.output_locs;
        tot.unfrozen += l.unfrozen;
        tot.unassigned += l.unassigned;
        tot.assigned += l.assigned;
        assigned_weighted_times += l.avg_times * l.assigned as f64;
        assigned_weighted_rate += l.avg_rate * l.assigned as f64;
    }
    let n = tot.assigned.max(1) as f64;
    let _ = writeln!(
        out,
        "{:<24} {:>6} {:>9} {:>11} {:>9} {:>11} {:>9}%",
        "Totals",
        tot.output_locs,
        tot.unfrozen,
        tot.unassigned,
        tot.assigned,
        format!("({:.1})", assigned_weighted_times / n),
        (assigned_weighted_rate / n * 100.0).round(),
    );
    out.push('\n');
    out.push_str("Paper reference (68 examples): 2,075 output locs; 1,440 unfrozen;\n");
    out.push_str("465 unassigned; 975 assigned (21.1 avg times, 69% avg rate).\n");
    out
}

/// Figure 1C/1D: the third sine-wave box dragged right by 45, the
/// equation of its x, and the four candidate updates the synthesizer
/// infers with the Prelude thawed, each with its box count and judgment.
///
/// # Panics
///
/// Panics if `wave_boxes` is missing from the corpus or fails to run.
pub fn figure_1() -> String {
    let mut out = String::new();
    let ex = sns_examples::by_slug("wave_boxes").expect("corpus has wave_boxes");
    let program = Program::parse(ex.source).expect("parses");
    let value = program.eval().expect("evaluates");
    let canvas = Canvas::from_value(&value).expect("renders");

    // Figure 1C: the user drags the third box (index 2) by (+45, +28).
    let box3 = canvas.shape(ShapeId(2)).unwrap();
    let x = box3.node.num_attr("x").expect("rect has x");
    let x_value = box3.value(x);
    let (dx, _dy) = (45.0, 28.0);
    let target = x_value + dx;
    let _ = writeln!(
        out,
        "Figure 1C: drag box 3 from x = {x_value} to x' = {target}"
    );
    let _ = writeln!(out, "Equation 3': {} = {}", target, x.t);
    out.push('\n');

    // Figure 1D: candidates (Prelude thawed, as in the §2.2 discussion
    // *before* frozen constants are introduced).
    let mode = FreezeMode::nothing_frozen();
    let frozen = |l: LocId| program.is_frozen(l, mode);
    let rho0 = program.subst();
    let mut candidates = synthesize_single(
        &rho0,
        target,
        &Arc::clone(&x.t),
        &frozen,
        SynthesisOptions::default(),
    );
    candidates.sort_by_key(|c| c.locs.clone());
    let _ = writeln!(out, "Figure 1D: {} candidate updates", candidates.len());

    // The positions of the dragged x in the output's numeric leaves, for
    // faithful/plausible judgement.
    let leaves = numeric_leaves(&value);
    let index = leaves
        .iter()
        .position(|&v| v == x_value)
        .expect("x appears in output");
    let updates = [UserUpdate {
        index,
        new_value: target,
    }];

    for c in &candidates {
        let loc = c.locs[0];
        let name = program.display_loc(loc);
        let new_value = c.subst.get(loc).expect("bound");
        let updated = program.with_subst(&c.subst);
        let new_output = updated.eval().expect("candidate evaluates");
        let n_boxes = Canvas::from_value(&new_output)
            .map(|c| c.shapes().len())
            .unwrap_or(0);
        let judgment = judge(&value, &updates, &new_output);
        let _ = writeln!(
            out,
            "  ρ[{name} ↦ {}]  → {} boxes, judgment {:?}{}",
            sns_lang::fmt_num(new_value),
            n_boxes,
            judgment,
            if program.is_prelude_loc(loc) {
                "  (Prelude location!)"
            } else {
                ""
            },
        );
    }
    out.push('\n');
    out.push_str("Paper reference: ρ1 = [x0 ↦ 95], ρ2 = [sep ↦ 52.5], ρ3 = [l0 ↦ 1.5],\n");
    out.push_str("ρ4 = [l1 ↦ 1.75]; the latter two change the number of boxes and live in\n");
    out.push_str("the Prelude, which is why Prelude constants are frozen by default.\n");

    // With the default freeze mode only two candidates remain (§2.2).
    let default_mode = FreezeMode::default();
    let frozen = |l: LocId| program.is_frozen(l, default_mode);
    let remaining = synthesize_single(
        &rho0,
        target,
        &Arc::clone(&x.t),
        &frozen,
        SynthesisOptions::default(),
    );
    let _ = writeln!(
        out,
        "\nWith the Prelude frozen (default), {} candidates remain.",
        remaining.len()
    );
    out
}
