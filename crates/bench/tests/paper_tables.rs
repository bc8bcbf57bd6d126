//! The paper's count tables and Figure 1D, pinned byte for byte: the
//! per-example rows and totals of `table_zones --per-example` (§5.2.1),
//! `table_locations` (Appendix G) and `table_solvability --fragments`
//! (§5.2.2), all read off `bench::measure_corpus()`, and the four
//! candidate substitutions of `fig1_candidates`.
//!
//! Each section of the fixture (`tests/data/paper_tables.txt`) is what
//! the named command prints. It is regenerated only when a change to the
//! tables is intended. On a mismatch the test writes what it saw next to
//! the build's test scratch files and names that path.

use bench::tables;

const FIXTURE: &str = include_str!("data/paper_tables.txt");

#[test]
fn count_tables_and_figure_1d_match_the_fixture() {
    let corpus = bench::measure_corpus();
    let sections = [
        ("table_zones --per-example", tables::zones(&corpus, true)),
        ("table_locations", tables::locations(&corpus)),
        (
            "table_solvability --fragments",
            tables::solvability(&corpus, true),
        ),
        ("fig1_candidates", tables::figure_1()),
    ];
    let mut actual = String::new();
    for (command, text) in &sections {
        actual.push_str(&format!("$ {command}\n{text}"));
    }
    if actual != FIXTURE {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("paper_tables.txt");
        std::fs::write(&path, &actual).expect("writes the actual tables");
        let first = actual
            .lines()
            .zip(FIXTURE.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(actual.lines().count().min(FIXTURE.lines().count()));
        panic!(
            "paper tables drifted at line {}; actual output written to {}",
            first + 1,
            path.display()
        );
    }
}
