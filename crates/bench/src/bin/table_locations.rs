//! Regenerates the Appendix G per-example location table: how many
//! locations appear in output traces, how many are unfrozen, and how many
//! the heuristics actually assigned to zones (with the average number of
//! zones per assigned location and the average assignment rate).

fn main() {
    sns_eval::with_big_stack(|| print!("{}", bench::tables::locations(&bench::measure_corpus())));
}
