//! Regenerates **Figure 1C/1D**: drag the third sine-wave box down and to
//! the right, and show the four candidate program updates the synthesizer
//! infers — translate-all (x0/y0), change-spacing (sep/amp), and the two
//! Prelude-location variants (ℓ0, ℓ1) that also change the number of boxes.
//!
//! The §2.2 walk-through is included: with the x-target 155 (= 110 + 45)
//! the four substitutions are x0 ↦ 95, sep ↦ 52.5, ℓ0 ↦ 1.5, ℓ1 ↦ 1.75.

fn main() {
    sns_eval::with_big_stack(|| print!("{}", bench::tables::figure_1()));
}
