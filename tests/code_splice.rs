//! The code pane's splice is bitwise the full unparse: for every corpus
//! example and seeded random substitutions ρ, `Program::code_with(&ρ)`
//! (the cached text with ρ's literals spliced in) must equal the paper's
//! `ρe` unparsed: the parsed user expression with the literals of ρ₀ ⊕ ρ
//! rewritten (`Subst::applied`), byte for byte. A program whose ρ₀ was
//! updated must also re-render its own text, which `apply_subst` splices
//! into the cached text and whose literal spans it re-anchors rather than
//! unparsing again.

mod support;

use support::{GenExt, SplitMix64};

use sketch_n_sketch::eval::Program;
use sketch_n_sketch::lang::{unparse, FreezeAnnotation, LocId, Subst};

/// A value of one of the shapes the printer treats differently: negative
/// and positive integers, fractions, magnitudes at and past the integer
/// cut-off of `fmt_num`, tiny fractions, and negative zero.
fn arb_value(rng: &mut SplitMix64) -> f64 {
    match rng.index(7) {
        0 => -(rng.u32_in(1, 1000) as f64),
        1 => rng.u32_in(0, 100_000) as f64,
        2 => rng.f64_in(-1000.0, 1000.0),
        3 => rng.f64_in(1e14, 1e18).round(),
        4 => -rng.f64_in(1e15, 1e21),
        5 => rng.f64_in(-1e-6, 1e-6),
        _ => -0.0,
    }
}

/// How often a ρ bound a literal of each annotation kind.
#[derive(Default)]
struct Coverage {
    frozen: usize,
    thawed: usize,
    ranged: usize,
    prelude: usize,
    negative: usize,
    fractional: usize,
    large: usize,
}

fn arb_subst(
    rng: &mut SplitMix64,
    program: &Program,
    user: &[LocId],
    prelude: &[LocId],
    cov: &mut Coverage,
) -> Subst {
    let mut rho = Subst::new();
    for &loc in user {
        if rng.index(4) == 0 {
            rho.insert(loc, arb_value(rng));
        }
    }
    for _ in 0..rng.index(3) {
        rho.insert(prelude[rng.index(prelude.len())], arb_value(rng));
    }
    for (loc, v) in rho.iter() {
        let info = program.loc_info(loc).expect("ρ binds program locations");
        cov.frozen += usize::from(info.annotation == FreezeAnnotation::Frozen);
        cov.thawed += usize::from(info.annotation == FreezeAnnotation::Thawed);
        cov.ranged += usize::from(info.range.is_some());
        cov.prelude += usize::from(info.prelude);
        cov.negative += usize::from(v < 0.0);
        cov.fractional += usize::from(v.fract() != 0.0);
        cov.large += usize::from(v.abs() >= 1e15);
    }
    rho
}

/// The reference text of `program` under `rho`: its user expression with
/// every literal ρ₀ ⊕ ρ binds rewritten, unparsed in full.
fn unparse_under(program: &Program, rho: &Subst) -> String {
    unparse(&program.subst().extended(rho).applied(program.user_expr()))
}

#[test]
fn spliced_code_equals_the_full_unparse_across_the_corpus() {
    let mut cov = Coverage::default();
    for (i, ex) in sketch_n_sketch::examples::ALL.iter().enumerate() {
        let program = Program::parse(ex.source).expect("corpus parses");
        let (prelude, user): (Vec<LocId>, Vec<LocId>) = program
            .subst()
            .domain()
            .partition(|&l| program.is_prelude_loc(l));
        assert_eq!(
            program.code(),
            unparse_under(&program, &Subst::new()),
            "{}",
            ex.slug
        );
        let mut rng = SplitMix64::seed_from_u64(0x5911CE ^ i as u64);
        for case in 0..24 {
            let rho = arb_subst(&mut rng, &program, &user, &prelude, &mut cov);
            let expected = unparse_under(&program, &rho);
            assert_eq!(
                program.code_with(&rho),
                expected,
                "{} case {case}: splice of {rho} differs from the unparse",
                ex.slug
            );
        }
    }
    // The corpus must actually exercise every literal kind the splice can
    // meet, or the equality above proves less than it claims.
    for (what, n) in [
        ("frozen `!` literals", cov.frozen),
        ("thawed `?` literals", cov.thawed),
        ("range `{lo-hi}` literals", cov.ranged),
        ("Prelude locations", cov.prelude),
        ("negative values", cov.negative),
        ("fractional values", cov.fractional),
        ("large values", cov.large),
    ] {
        assert!(n > 0, "no ρ bound {what}");
    }
}

/// Commits re-anchor the cached text instead of dropping it: after each
/// of a run of `apply_subst`s the program's text is still the full
/// unparse, its spans still splice the next preview correctly, and a
/// clone taken before the run is unaffected.
#[test]
fn apply_subst_reanchors_the_cached_text() {
    let mut rng = SplitMix64::seed_from_u64(0xCAC4E);
    let mut cov = Coverage::default();
    for ex in sketch_n_sketch::examples::ALL {
        let mut program = Program::parse(ex.source).expect("corpus parses");
        let (prelude, user): (Vec<LocId>, Vec<LocId>) = program
            .subst()
            .domain()
            .partition(|&l| program.is_prelude_loc(l));
        let before = program.code();
        let snapshot = program.clone();
        for step in 0..6 {
            let rho = arb_subst(&mut rng, &program, &user, &prelude, &mut cov);
            let preview = program.code_with(&rho);
            program.apply_subst(&rho);
            assert_eq!(
                program.code(),
                unparse_under(&program, &Subst::new()),
                "{} step {step}: the re-anchored text differs from the unparse",
                ex.slug
            );
            assert_eq!(
                program.code(),
                preview,
                "{} step {step}: the commit and its preview disagree",
                ex.slug
            );
            let next = arb_subst(&mut rng, &program, &user, &prelude, &mut cov);
            let spliced = program.code_with(&next);
            assert_eq!(
                spliced,
                unparse_under(&program, &next),
                "{} step {step}: a splice through re-anchored spans differs",
                ex.slug
            );
            assert_eq!(spliced, program.with_subst(&next).code(), "{}", ex.slug);
        }
        // The clone taken before the updates shares nothing mutable.
        assert_eq!(snapshot.code(), before, "{}", ex.slug);
        assert_eq!(
            snapshot.code(),
            unparse_under(&snapshot, &Subst::new()),
            "{}",
            ex.slug
        );
    }
    // Re-anchoring must meet the printer's length-changing cases.
    for (what, n) in [
        ("negative values", cov.negative),
        ("fractional values", cov.fractional),
        ("large values", cov.large),
        ("Prelude locations", cov.prelude),
    ] {
        assert!(n > 0, "no ρ bound {what}");
    }
}
