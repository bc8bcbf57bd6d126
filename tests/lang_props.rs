//! Randomized tests for the `little` front-end: unparse/parse round-trips
//! on generated expressions, and evaluation determinism. (Ported from a
//! `proptest` suite to the std-only harness in `tests/support`.)

mod support;

use std::sync::Arc;

use support::{ident, GenExt, SplitMix64};

use sketch_n_sketch::lang::{
    parse, unparse, Expr, FreezeAnnotation, LetStyle, LocId, NumLit, Op, Pat,
};

fn arb_num(rng: &mut SplitMix64) -> Expr {
    let v = rng.f64_in(-1000.0, 1000.0);
    // Two decimal places keep the text form canonical.
    let value = (v * 100.0).round() / 100.0;
    let annotation = match rng.index(3) {
        0 => FreezeAnnotation::None,
        1 => FreezeAnnotation::Frozen,
        _ => FreezeAnnotation::Thawed,
    };
    let range = if rng.flag() {
        let lo = (rng.f64_in(0.0, 10.0) * 100.0).round() / 100.0;
        let hi = (rng.f64_in(10.0, 20.0) * 100.0).round() / 100.0;
        Some((lo, hi))
    } else {
        None
    };
    Expr::Num(NumLit {
        value,
        loc: LocId(0),
        annotation,
        range,
    })
}

fn arb_leaf(rng: &mut SplitMix64) -> Expr {
    match rng.index(6) {
        0 => arb_num(rng),
        1 => Expr::Var(ident(rng)),
        2 => Expr::Bool(true),
        3 => Expr::Bool(false),
        4 => {
            let len = rng.index(9);
            let mut s = String::new();
            for _ in 0..len {
                s.push(if rng.index(5) == 0 {
                    ' '
                } else {
                    (b'a' + rng.index(26) as u8) as char
                });
            }
            Expr::Str(s.into())
        }
        _ => Expr::List(vec![], None),
    }
}

fn arb_expr(rng: &mut SplitMix64, depth: u32) -> Expr {
    if depth == 0 || rng.index(5) == 0 {
        return arb_leaf(rng);
    }
    match rng.index(7) {
        0 => Expr::Prim(
            Op::Add,
            vec![arb_expr(rng, depth - 1), arb_expr(rng, depth - 1)],
        ),
        1 => Expr::Prim(
            Op::Mul,
            vec![arb_expr(rng, depth - 1), arb_expr(rng, depth - 1)],
        ),
        2 => Expr::Prim(Op::Cos, vec![arb_expr(rng, depth - 1)]),
        3 => {
            let n = 1 + rng.index(3);
            Expr::List((0..n).map(|_| arb_expr(rng, depth - 1)).collect(), None)
        }
        4 => Expr::Let {
            recursive: false,
            style: LetStyle::Let,
            pat: Pat::Var(ident(rng).into()),
            bound: Box::new(arb_expr(rng, depth - 1)),
            body: Box::new(arb_expr(rng, depth - 1)),
        },
        5 => Expr::Lambda(
            vec![Pat::Var(ident(rng).into())].into(),
            Arc::new(arb_expr(rng, depth - 1)),
        ),
        _ => Expr::If(
            Box::new(arb_expr(rng, depth - 1)),
            Box::new(arb_expr(rng, depth - 1)),
            Box::new(arb_expr(rng, depth - 1)),
        ),
    }
}

fn strip_locs(e: &mut Expr) {
    e.walk_mut(&mut |e| {
        if let Expr::Num(n) = e {
            n.loc = LocId(0);
        }
    });
}

/// unparse ∘ parse is the identity on ASTs (up to location ids).
#[test]
fn unparse_parse_roundtrip() {
    let mut rng = SplitMix64::seed_from_u64(0xC0FFEE);
    for case in 0..256 {
        let e = arb_expr(&mut rng, 4);
        let text = unparse(&e);
        let mut reparsed = parse(&text)
            .unwrap_or_else(|err| panic!("case {case}: `{text}` failed to reparse: {err}"))
            .expr;
        let mut original = e;
        strip_locs(&mut original);
        strip_locs(&mut reparsed);
        assert_eq!(original, reparsed, "case {case}: text was `{text}`");
    }
}

/// Unparsing is stable: parse(unparse(e)) unparses to the same text.
#[test]
fn unparse_is_idempotent() {
    let mut rng = SplitMix64::seed_from_u64(0xBEEF);
    for case in 0..256 {
        let e = arb_expr(&mut rng, 4);
        let t1 = unparse(&e);
        let t2 = unparse(&parse(&t1).unwrap().expr);
        assert_eq!(t1, t2, "case {case}");
    }
}

/// Parsing assigns locations densely from the requested start.
#[test]
fn locations_are_dense() {
    let mut rng = SplitMix64::seed_from_u64(0xD1CE);
    for case in 0..256 {
        let e = arb_expr(&mut rng, 4);
        let start = rng.u32_in(0, 1000);
        let text = unparse(&e);
        let parsed = sketch_n_sketch::lang::parse_with_locs(&text, start).unwrap();
        let mut locs: Vec<u32> = parsed.expr.num_literals().iter().map(|n| n.loc.0).collect();
        locs.sort_unstable();
        let expected: Vec<u32> = (start..parsed.next_loc).collect();
        assert_eq!(locs, expected, "case {case}: `{text}`");
    }
}

/// Evaluation is deterministic: same program, same value (rendered).
#[test]
fn evaluation_is_deterministic() {
    use sketch_n_sketch::eval::Program;
    for seed in (0u64..1000).step_by(16) {
        let n = 3 + (seed % 8);
        let src = format!(
            "(svg (map (λ i (rect 'red' (* i 30) (mod (* i {seed}) 90) 20 20)) (zeroTo {n})))"
        );
        let p = Program::parse(&src).unwrap();
        let a = format!("{}", p.eval().unwrap());
        let b = format!("{}", p.eval().unwrap());
        assert_eq!(a, b, "seed {seed}");
    }
}
