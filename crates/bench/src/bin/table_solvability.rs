//! Regenerates the §5.2.2 "Solving Equations" table and, with
//! `--fragments`, the Appendix G solver-fragment breakdown.
//!
//! Paper (whole corpus):
//! ```text
//! Unique Pre-Equations 4,574
//!   Outside Fragment      919 (20%)
//!   Inside Fragment     3,655
//!     No Solution d=1     194 (4%)
//!     Solution d=1      3,461
//!       No Solution d=100 438 (10%)
//!       Solution d=100  3,023 (66%)
//! Mean trace size 141.30 nodes
//! ```

fn main() {
    let fragments = std::env::args().any(|a| a == "--fragments");
    sns_eval::with_big_stack(move || {
        print!(
            "{}",
            bench::tables::solvability(&bench::measure_corpus(), fragments)
        );
    });
}
