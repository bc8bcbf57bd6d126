//! Regenerates **Figure 1C/1D**: drag the third sine-wave box down and to
//! the right, and show the four candidate program updates the synthesizer
//! infers — translate-all (x0/y0), change-spacing (sep/amp), and the two
//! Prelude-location variants (ℓ0, ℓ1) that also change the number of boxes.
//!
//! The §2.2 walk-through is included: with the x-target 155 (= 110 + 45)
//! the four substitutions are x0 ↦ 95, sep ↦ 52.5, ℓ0 ↦ 1.5, ℓ1 ↦ 1.75.

use std::sync::Arc;

use sns_eval::{FreezeMode, Program};
use sns_lang::LocId;
use sns_svg::{Canvas, ShapeId};
use sns_sync::{judge, numeric_leaves, synthesize_single, SynthesisOptions, UserUpdate};

fn main() {
    sns_eval::with_big_stack(run);
}

fn run() {
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
    println!("Figure 1C: drag box 3 from x = {x_value} to x' = {target}");
    println!("Equation 3': {} = {}", target, x.t);
    println!();

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
    println!("Figure 1D: {} candidate updates", candidates.len());

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
        println!(
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
    println!();
    println!("Paper reference: ρ1 = [x0 ↦ 95], ρ2 = [sep ↦ 52.5], ρ3 = [l0 ↦ 1.5],");
    println!("ρ4 = [l1 ↦ 1.75]; the latter two change the number of boxes and live in");
    println!("the Prelude, which is why Prelude constants are frozen by default.");

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
    println!();
    println!(
        "With the Prelude frozen (default), {} candidates remain.",
        remaining.len()
    );
}
