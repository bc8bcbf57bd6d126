//! Abstract syntax of the `little` language (paper Figure 2 and Appendix A).
//!
//! The one non-standard feature of the syntax is its numeric literals: every
//! number in a program carries a *location* identifier [`LocId`] inserted by
//! the parser, an optional freeze (`!`) or thaw (`?`) annotation, and an
//! optional range annotation (`{lo-hi}`) that asks the editor to display a
//! slider for the constant.

use std::fmt;
use std::sync::Arc;

/// A program location: the identity of one numeric literal in the AST.
///
/// Locations are assigned by the parser in source order. The Prelude is
/// parsed before user programs, so Prelude locations occupy a stable prefix
/// of the location space. A substitution ([`crate::Subst`]) maps locations to
/// new numeric values; applying it is the paper's notion of a *local update*.
///
/// # Examples
///
/// ```
/// use sns_lang::parse;
/// let parsed = parse("(+ 1 2)").unwrap();
/// // Two literals, two locations.
/// assert_eq!(parsed.next_loc, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocId(pub u32);

impl fmt::Display for LocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Freeze/thaw annotation on a numeric literal (the paper's `α`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub enum FreezeAnnotation {
    /// No annotation: behaviour is governed by the editor's freeze mode.
    #[default]
    None,
    /// `n!` — never change this constant during synthesis.
    Frozen,
    /// `n?` — explicitly changeable, even in freeze-all mode.
    Thawed,
}

/// A numeric literal together with its location and annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct NumLit {
    /// The floating-point value of the literal.
    pub value: f64,
    /// The parser-assigned location.
    pub loc: LocId,
    /// Freeze/thaw annotation (`!` / `?`).
    pub annotation: FreezeAnnotation,
    /// Range annotation `{lo-hi}`, which requests a slider widget.
    pub range: Option<(f64, f64)>,
}

impl NumLit {
    /// A bare literal with no annotations.
    pub fn new(value: f64, loc: LocId) -> Self {
        NumLit {
            value,
            loc,
            annotation: FreezeAnnotation::None,
            range: None,
        }
    }
}

/// Primitive operations (`op0`, `op1`, `op2` in Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    // Nullary.
    /// `(pi)` — the constant π.
    Pi,
    // Unary.
    /// Boolean negation.
    Not,
    /// Cosine (radians).
    Cos,
    /// Sine (radians).
    Sin,
    /// Inverse cosine.
    ArcCos,
    /// Inverse sine.
    ArcSin,
    /// Round to nearest integer.
    Round,
    /// Round down.
    Floor,
    /// Round up.
    Ceiling,
    /// Square root.
    Sqrt,
    /// Render a value as a string.
    ToString,
    // Binary.
    /// Addition (also string concatenation, as in the original system).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Modulo.
    Mod,
    /// Exponentiation.
    Pow,
    /// Two-argument arc tangent.
    ArcTan2,
    /// Less-than comparison.
    Lt,
    /// Greater-than comparison.
    Gt,
    /// Less-or-equal comparison.
    Le,
    /// Greater-or-equal comparison.
    Ge,
    /// Structural equality.
    Eq,
}

impl Op {
    /// Number of arguments the operation takes.
    pub fn arity(self) -> usize {
        use Op::*;
        match self {
            Pi => 0,
            Not | Cos | Sin | ArcCos | ArcSin | Round | Floor | Ceiling | Sqrt | ToString => 1,
            Add | Sub | Mul | Div | Mod | Pow | ArcTan2 | Lt | Gt | Le | Ge | Eq => 2,
        }
    }

    /// The surface-syntax name of the operation.
    pub fn name(self) -> &'static str {
        use Op::*;
        match self {
            Pi => "pi",
            Not => "not",
            Cos => "cos",
            Sin => "sin",
            ArcCos => "arccos",
            ArcSin => "arcsin",
            Round => "round",
            Floor => "floor",
            Ceiling => "ceiling",
            Sqrt => "sqrt",
            ToString => "toString",
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Mod => "mod",
            Pow => "pow",
            ArcTan2 => "arctan2",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            Eq => "=",
        }
    }

    /// Look an operation up by its surface-syntax name.
    pub fn from_name(name: &str) -> Option<Op> {
        use Op::*;
        Some(match name {
            "pi" => Pi,
            "not" => Not,
            "cos" => Cos,
            "sin" => Sin,
            "arccos" => ArcCos,
            "arcsin" => ArcSin,
            "round" => Round,
            "floor" => Floor,
            "ceiling" => Ceiling,
            "sqrt" => Sqrt,
            "toString" => ToString,
            "+" => Add,
            "-" => Sub,
            "*" => Mul,
            "/" => Div,
            "mod" => Mod,
            "pow" => Pow,
            "arctan2" => ArcTan2,
            "<" => Lt,
            ">" => Gt,
            "<=" => Le,
            ">=" => Ge,
            "=" => Eq,
            _ => return None,
        })
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Distinguishes `let` written by the user from `(def p e)` sugar, so the
/// unparser can reproduce the original style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LetStyle {
    /// `(let p e1 e2)` / `(letrec p e1 e2)`.
    Let,
    /// `(def p e1) e2` / `(defrec p e1) e2` at the top level.
    Def,
}

/// Patterns (`p` in Figure 2).
#[derive(Debug, Clone, PartialEq)]
pub enum Pat {
    /// A variable binder. The name is shared with every environment
    /// frame and closure that binds it, so binding allocates no string.
    Var(Arc<str>),
    /// A numeric constant pattern.
    Num(f64),
    /// A string constant pattern.
    Str(String),
    /// A boolean constant pattern.
    Bool(bool),
    /// A list pattern `[p1 … pm]` or `[p1 … pm|p0]`; `tail` is the `|p0`
    /// part. `List([], None)` is the empty-list pattern `[]`.
    List(Vec<Pat>, Option<Box<Pat>>),
}

impl Pat {
    /// Collects the variables bound by this pattern, in left-to-right order.
    pub fn binders(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_binders(&mut out);
        out
    }

    fn collect_binders<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Pat::Var(x) => out.push(x),
            Pat::Num(_) | Pat::Str(_) | Pat::Bool(_) => {}
            Pat::List(ps, tail) => {
                for p in ps {
                    p.collect_binders(out);
                }
                if let Some(t) = tail {
                    t.collect_binders(out);
                }
            }
        }
    }
}

/// Expressions (`e` in Figure 2, plus `if` retained as a node for unparsing).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Num(NumLit),
    /// String literal (single-quoted in the surface syntax), shared with
    /// every string value it evaluates to.
    Str(Arc<str>),
    /// Boolean literal.
    Bool(bool),
    /// Variable reference.
    Var(String),
    /// List literal `[e1 … em]` or `[e1 … em|e0]`. `List(vec![], None)` is `[]`.
    List(Vec<Expr>, Option<Box<Expr>>),
    /// Function `(λ p1 … pm e)` (multi-parameter sugar retained). The
    /// parameters and body are shared: every closure the λ evaluates to
    /// holds the same ones.
    Lambda(Arc<[Pat]>, Arc<Expr>),
    /// Application `(e0 e1 … em)` (curried sugar retained).
    App(Box<Expr>, Vec<Expr>),
    /// Primitive operation `(opm e1 … em)`.
    Prim(Op, Vec<Expr>),
    /// `let`/`letrec`/`def`/`defrec`. `recursive` selects `letrec`.
    Let {
        /// Whether this binding is recursive (`letrec`/`defrec`).
        recursive: bool,
        /// Surface style (`let` vs. `def`), for unparsing only.
        style: LetStyle,
        /// The bound pattern.
        pat: Pat,
        /// The bound expression.
        bound: Box<Expr>,
        /// The body in which the binding is visible.
        body: Box<Expr>,
    },
    /// `(if e1 e2 e3)` — sugar for a two-branch boolean `case`, retained as a
    /// node so programs unparse the way they were written.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `(case e (p1 e1) … (pm em))`.
    Case(Box<Expr>, Vec<(Pat, Expr)>),
}

impl Expr {
    /// Walks the expression tree, invoking `f` on every node (pre-order).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Num(_) | Expr::Str(_) | Expr::Bool(_) | Expr::Var(_) => {}
            Expr::List(es, tail) => {
                for e in es {
                    e.walk(f);
                }
                if let Some(t) = tail {
                    t.walk(f);
                }
            }
            Expr::Lambda(_, body) => body.walk(f),
            Expr::App(e0, es) => {
                e0.walk(f);
                for e in es {
                    e.walk(f);
                }
            }
            Expr::Prim(_, es) => {
                for e in es {
                    e.walk(f);
                }
            }
            Expr::Let { bound, body, .. } => {
                bound.walk(f);
                body.walk(f);
            }
            Expr::If(c, t, e) => {
                c.walk(f);
                t.walk(f);
                e.walk(f);
            }
            Expr::Case(scrut, branches) => {
                scrut.walk(f);
                for (_, e) in branches {
                    e.walk(f);
                }
            }
        }
    }

    /// Walks the expression tree mutably (pre-order). A λ body shared with
    /// another tree (or a closure) is copied before it is visited, so the
    /// walk's writes stay private to this tree.
    pub fn walk_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        f(self);
        match self {
            Expr::Num(_) | Expr::Str(_) | Expr::Bool(_) | Expr::Var(_) => {}
            Expr::List(es, tail) => {
                for e in es {
                    e.walk_mut(f);
                }
                if let Some(t) = tail {
                    t.walk_mut(f);
                }
            }
            Expr::Lambda(_, body) => Arc::make_mut(body).walk_mut(f),
            Expr::App(e0, es) => {
                e0.walk_mut(f);
                for e in es {
                    e.walk_mut(f);
                }
            }
            Expr::Prim(_, es) => {
                for e in es {
                    e.walk_mut(f);
                }
            }
            Expr::Let { bound, body, .. } => {
                bound.walk_mut(f);
                body.walk_mut(f);
            }
            Expr::If(c, t, e) => {
                c.walk_mut(f);
                t.walk_mut(f);
                e.walk_mut(f);
            }
            Expr::Case(scrut, branches) => {
                scrut.walk_mut(f);
                for (_, e) in branches {
                    e.walk_mut(f);
                }
            }
        }
    }

    /// All numeric literals in the expression, in source order.
    pub fn num_literals(&self) -> Vec<&NumLit> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Num(n) = e {
                out.push(n);
            }
        });
        out
    }

    /// Counts the AST nodes in the expression (used by size statistics).
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }
}

/// Formats an `f64` the way `little` programs write numbers: integers print
/// without a decimal point, everything else uses the shortest round-trip
/// representation.
///
/// # Examples
///
/// ```
/// assert_eq!(sns_lang::fmt_num(52.5), "52.5");
/// assert_eq!(sns_lang::fmt_num(95.0), "95");
/// assert_eq!(sns_lang::fmt_num(-0.25), "-0.25");
/// ```
pub fn fmt_num(x: f64) -> String {
    let mut out = String::new();
    write_num(&mut out, x).expect("writing to a String cannot fail");
    out
}

/// Writes `x` the way [`fmt_num`] formats it, without building a string.
///
/// # Errors
///
/// Fails only when `out` does.
pub fn write_num(out: &mut (impl fmt::Write + ?Sized), x: f64) -> fmt::Result {
    // A non-finite number is an unparseable placeholder; evaluation never
    // produces these in well-formed programs, but Debug output should not
    // panic.
    if x.is_finite() && x == x.trunc() && x.abs() < 1e15 {
        write!(out, "{}", x as i64)
    } else {
        write!(out, "{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_roundtrip_names() {
        for op in [
            Op::Pi,
            Op::Not,
            Op::Cos,
            Op::Sin,
            Op::ArcCos,
            Op::ArcSin,
            Op::Round,
            Op::Floor,
            Op::Ceiling,
            Op::Sqrt,
            Op::ToString,
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::Div,
            Op::Mod,
            Op::Pow,
            Op::ArcTan2,
            Op::Lt,
            Op::Gt,
            Op::Le,
            Op::Ge,
            Op::Eq,
        ] {
            assert_eq!(Op::from_name(op.name()), Some(op));
        }
        assert_eq!(Op::from_name("frobnicate"), None);
    }

    #[test]
    fn arity_is_consistent_with_class() {
        assert_eq!(Op::Pi.arity(), 0);
        assert_eq!(Op::Cos.arity(), 1);
        assert_eq!(Op::Add.arity(), 2);
    }

    #[test]
    fn pattern_binders_in_order() {
        let p = Pat::List(
            vec![
                Pat::Var("a".into()),
                Pat::List(vec![Pat::Var("b".into())], None),
            ],
            Some(Box::new(Pat::Var("rest".into()))),
        );
        assert_eq!(p.binders(), vec!["a", "b", "rest"]);
    }

    #[test]
    #[allow(clippy::approx_constant)] // 3.1415 is arbitrary test data
    fn fmt_num_cases() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(12.0), "12");
        assert_eq!(fmt_num(3.1415), "3.1415");
        assert_eq!(fmt_num(-7.0), "-7");
    }

    #[test]
    fn walk_visits_all_nodes() {
        let e = Expr::Prim(
            Op::Add,
            vec![
                Expr::Num(NumLit::new(1.0, LocId(0))),
                Expr::Num(NumLit::new(2.0, LocId(1))),
            ],
        );
        assert_eq!(e.size(), 3);
        assert_eq!(e.num_literals().len(), 2);
    }
}
