//! Regenerates the §5.2.1 "Active Zones" table and, with `--per-example`,
//! the Appendix G per-example zone table.
//!
//! Paper (whole corpus of 68 programs):
//! ```text
//! Zones 14,106 | Inactive 991 (7%) | Active 13,115
//!   Unambiguous 4,856 (34%) | Ambiguous 8,259 (59%), 3.83 avg candidates
//! ```
//! Our corpus differs in absolute size; the *shape* (most zones active, a
//! majority of active zones ambiguous, small average candidate count) is
//! the reproduction target.

fn main() {
    let per_example = std::env::args().any(|a| a == "--per-example");
    sns_eval::with_big_stack(move || {
        print!(
            "{}",
            bench::tables::zones(&bench::measure_corpus(), per_example)
        );
    });
}
