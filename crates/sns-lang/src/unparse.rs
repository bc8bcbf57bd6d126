//! Unparser: renders an AST back to `little` source text.
//!
//! After live synchronization applies a substitution to the program, the
//! editor re-displays the *source code* with the new constants. The unparser
//! therefore preserves surface style: `def` sequences stay `def`s, `if`
//! stays `if`, annotations (`!`, `?`, `{lo-hi}`) are re-printed, and lists
//! are printed with brackets.
//!
//! The unparser guarantees a parse round-trip: `parse(unparse(e))` produces
//! an AST equal to `e` up to location identifiers (locations are fresh on
//! every parse). This property is checked by tests in this module and by
//! property-based tests in the crate's test suite.

use crate::ast::{Expr, FreezeAnnotation, LetStyle, NumLit, Pat};
use crate::{fmt_num, LocId};

/// Where one numeric literal's *value* sits in unparsed text: the bytes
/// `start..end` hold exactly `fmt_num(value)`, annotations excluded. A
/// substitution's new text for that literal can therefore be spliced in
/// without re-printing anything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LitSpan {
    /// The literal's location.
    pub loc: LocId,
    /// Byte offset of the first character of the value.
    pub start: usize,
    /// Byte offset one past the value's last character.
    pub end: usize,
}

/// Renders an expression as `little` source text.
///
/// # Examples
///
/// ```
/// let parsed = sns_lang::parse("(def x 50) (+ x 1!)").unwrap();
/// assert_eq!(sns_lang::unparse(&parsed.expr), "(def x 50) (+ x 1!)");
/// ```
pub fn unparse(expr: &Expr) -> String {
    let mut w = Writer {
        out: String::new(),
        spans: None,
    };
    w.expr(expr, true);
    w.out
}

/// Renders an expression like [`unparse`] and also returns the span of
/// every numeric literal's value, in text order.
///
/// # Examples
///
/// ```
/// let parsed = sns_lang::parse("(+ 10 2.5!)").unwrap();
/// let (text, spans) = sns_lang::unparse_with_spans(&parsed.expr);
/// assert_eq!(text, "(+ 10 2.5!)");
/// assert_eq!(&text[spans[1].start..spans[1].end], "2.5");
/// ```
pub fn unparse_with_spans(expr: &Expr) -> (String, Vec<LitSpan>) {
    let mut w = Writer {
        out: String::new(),
        spans: Some(Vec::new()),
    };
    w.expr(expr, true);
    (w.out, w.spans.unwrap_or_default())
}

/// Renders a pattern as `little` source text.
pub fn unparse_pat(pat: &Pat) -> String {
    let mut out = String::new();
    write_pat(&mut out, pat);
    out
}

/// Appends a literal's annotations, e.g. the `!{3-30}` of `12!{3-30}`.
fn push_annotations(s: &mut String, n: &NumLit) {
    match n.annotation {
        FreezeAnnotation::None => {}
        FreezeAnnotation::Frozen => s.push('!'),
        FreezeAnnotation::Thawed => s.push('?'),
    }
    if let Some((lo, hi)) = n.range {
        s.push('{');
        s.push_str(&fmt_num(lo));
        s.push('-');
        s.push_str(&fmt_num(hi));
        s.push('}');
    }
}

fn escape_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('\'');
    for c in s.chars() {
        match c {
            '\'' => out.push_str("\\'"),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('\'');
    out
}

/// The one unparser: prints into `out` and, when `spans` is set, records
/// where each literal's value lands.
struct Writer {
    out: String,
    spans: Option<Vec<LitSpan>>,
}

impl Writer {
    fn num(&mut self, n: &NumLit) {
        let start = self.out.len();
        self.out.push_str(&fmt_num(n.value));
        if let Some(spans) = &mut self.spans {
            spans.push(LitSpan {
                loc: n.loc,
                start,
                end: self.out.len(),
            });
        }
        push_annotations(&mut self.out, n);
    }

    /// `top` is true only in def-sequence position, where `(def p e) rest`
    /// is printed as consecutive forms rather than nested parens.
    fn expr(&mut self, expr: &Expr, top: bool) {
        match expr {
            Expr::Num(n) => self.num(n),
            Expr::Str(s) => self.out.push_str(&escape_str(s)),
            Expr::Bool(b) => self.out.push_str(if *b { "true" } else { "false" }),
            Expr::Var(x) => self.out.push_str(x),
            Expr::List(elems, tail) => {
                self.out.push('[');
                for (i, e) in elems.iter().enumerate() {
                    if i > 0 {
                        self.out.push(' ');
                    }
                    self.expr(e, false);
                }
                if let Some(t) = tail {
                    self.out.push('|');
                    self.expr(t, false);
                }
                self.out.push(']');
            }
            Expr::Lambda(params, body) => {
                self.out.push_str("(λ");
                if params.len() == 1 {
                    self.out.push(' ');
                    write_pat(&mut self.out, &params[0]);
                } else {
                    self.out.push('(');
                    for (i, p) in params.iter().enumerate() {
                        if i > 0 {
                            self.out.push(' ');
                        }
                        write_pat(&mut self.out, p);
                    }
                    self.out.push(')');
                }
                self.out.push(' ');
                self.expr(body, false);
                self.out.push(')');
            }
            Expr::App(head, args) => {
                self.out.push('(');
                self.expr(head, false);
                for a in args {
                    self.out.push(' ');
                    self.expr(a, false);
                }
                self.out.push(')');
            }
            Expr::Prim(op, args) => {
                self.out.push('(');
                self.out.push_str(op.name());
                for a in args {
                    self.out.push(' ');
                    self.expr(a, false);
                }
                self.out.push(')');
            }
            Expr::Let {
                recursive,
                style,
                pat,
                bound,
                body,
            } => {
                let is_def = top && *style == LetStyle::Def;
                if is_def {
                    self.out.push('(');
                    self.out.push_str(if *recursive { "defrec" } else { "def" });
                    self.out.push(' ');
                    write_pat(&mut self.out, pat);
                    self.out.push(' ');
                    self.expr(bound, false);
                    self.out.push_str(") ");
                    self.expr(body, true);
                } else {
                    self.out.push('(');
                    self.out.push_str(if *recursive { "letrec" } else { "let" });
                    self.out.push(' ');
                    write_pat(&mut self.out, pat);
                    self.out.push(' ');
                    self.expr(bound, false);
                    self.out.push(' ');
                    self.expr(body, false);
                    self.out.push(')');
                }
            }
            Expr::If(c, t, e) => {
                self.out.push_str("(if ");
                self.expr(c, false);
                self.out.push(' ');
                self.expr(t, false);
                self.out.push(' ');
                self.expr(e, false);
                self.out.push(')');
            }
            Expr::Case(scrut, branches) => {
                self.out.push_str("(case ");
                self.expr(scrut, false);
                for (p, e) in branches {
                    self.out.push_str(" (");
                    write_pat(&mut self.out, p);
                    self.out.push(' ');
                    self.expr(e, false);
                    self.out.push(')');
                }
                self.out.push(')');
            }
        }
    }
}

fn write_pat(out: &mut String, pat: &Pat) {
    match pat {
        Pat::Var(x) => out.push_str(x),
        Pat::Num(n) => out.push_str(&fmt_num(*n)),
        Pat::Str(s) => out.push_str(&escape_str(s)),
        Pat::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Pat::List(elems, tail) => {
            out.push('[');
            for (i, p) in elems.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                write_pat(out, p);
            }
            if let Some(t) = tail {
                out.push('|');
                write_pat(out, t);
            }
            out.push(']');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    /// Strips locations so ASTs from different parses can be compared.
    fn strip_locs(e: &mut Expr) {
        e.walk_mut(&mut |e| {
            if let Expr::Num(n) = e {
                n.loc = crate::LocId(0);
            }
        });
    }

    fn roundtrip(src: &str) {
        let mut e1 = parse(src).unwrap().expr;
        let printed = unparse(&e1);
        let mut e2 = parse(&printed)
            .unwrap_or_else(|err| panic!("reparse of `{printed}` failed: {err}"))
            .expr;
        strip_locs(&mut e1);
        strip_locs(&mut e2);
        assert_eq!(e1, e2, "round-trip changed the AST for `{src}`");
    }

    #[test]
    fn roundtrips_representative_programs() {
        roundtrip("(+ 1 2)");
        roundtrip("(def x 50) (def y 60!) (+ x y)");
        roundtrip("(defrec f (λ n (if (< n 1) 0 (f (- n 1))))) (f 10)");
        roundtrip("[1 2 3]");
        roundtrip("[1 2|rest]");
        roundtrip("(case xs ([] 0) ([x|r] x))");
        roundtrip("(λ(a b) [a b])");
        roundtrip("12!{3-30}");
        roundtrip("0!{-3.14-3.14}");
        roundtrip("'hello world'");
        roundtrip("(let [a b] [1 2] (* a b))");
    }

    #[test]
    fn def_style_is_preserved() {
        let src = "(def x 5) (svg x)";
        let e = parse(src).unwrap().expr;
        assert_eq!(unparse(&e), "(def x 5) (svg x)");
    }

    #[test]
    fn let_style_is_preserved() {
        let src = "(let x 5 x)";
        let e = parse(src).unwrap().expr;
        assert_eq!(unparse(&e), "(let x 5 x)");
    }

    #[test]
    fn annotations_are_reprinted() {
        let e = parse("3.14!").unwrap().expr;
        assert_eq!(unparse(&e), "3.14!");
        let e = parse("0.5?").unwrap().expr;
        assert_eq!(unparse(&e), "0.5?");
        let e = parse("5{0-10}").unwrap().expr;
        assert_eq!(unparse(&e), "5{0-10}");
    }

    #[test]
    fn spans_cover_exactly_the_literal_values() {
        let src = "(def [a b] [-3.5 12!{3-30}]) (+ a (* b 0.25?))";
        let e = parse(src).unwrap().expr;
        let (text, spans) = unparse_with_spans(&e);
        assert_eq!(text, unparse(&e));
        let values: Vec<&str> = spans.iter().map(|s| &text[s.start..s.end]).collect();
        assert_eq!(values, ["-3.5", "12", "0.25"]);
        let locs: Vec<u32> = spans.iter().map(|s| s.loc.0).collect();
        assert_eq!(locs, [0, 1, 2]);
    }

    #[test]
    fn strings_with_quotes_escape() {
        roundtrip(r"'it\'s'");
    }
}
