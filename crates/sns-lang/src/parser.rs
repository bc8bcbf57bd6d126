//! Recursive-descent parser for `little`.
//!
//! The parser implements the grammar of Figure 2 plus the syntactic sugar of
//! Appendix A: `def`/`defrec` sequences, `if`, multi-parameter lambdas, and
//! bracketed list literals/patterns with optional `|tail`.
//!
//! Every numeric literal is assigned a fresh [`LocId`](crate::LocId) in
//! source order. Callers embedding a Prelude parse it first and thread the
//! next free location into [`parse_with_locs`] so user-program locations
//! never collide with Prelude locations.

use std::sync::Arc;

use crate::ast::{Expr, LetStyle, NumLit, Op, Pat};
use crate::error::{ParseError, Pos};
use crate::token::{lex, Token, TokenKind};
use crate::LocId;

/// The result of parsing: the expression and the next unused location id.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    /// The parsed top-level expression (with `def`s desugared to `let`s).
    pub expr: Expr,
    /// One past the largest [`LocId`] assigned while parsing.
    pub next_loc: u32,
}

/// Parses a complete `little` program, assigning locations starting at 0.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax error encountered.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), sns_lang::ParseError> {
/// let parsed = sns_lang::parse("(def x 50) (+ x 1)")?;
/// assert_eq!(parsed.next_loc, 2);
/// # Ok(())
/// # }
/// ```
pub fn parse(src: &str) -> Result<Parsed, ParseError> {
    parse_with_locs(src, 0)
}

/// Parses a program, assigning locations starting at `first_loc`.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax error encountered.
pub fn parse_with_locs(src: &str, first_loc: u32) -> Result<Parsed, ParseError> {
    let tokens = lex(src)?;
    let mut parser = Parser {
        tokens,
        i: 0,
        next_loc: first_loc,
    };
    let expr = parser.parse_seq()?;
    if parser.i != parser.tokens.len() {
        return Err(parser.error_here("unexpected trailing input after program"));
    }
    Ok(Parsed {
        expr,
        next_loc: parser.next_loc,
    })
}

struct Parser {
    tokens: Vec<Token>,
    i: usize,
    next_loc: u32,
}

impl Parser {
    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.i).map(|t| &t.kind)
    }

    fn peek2(&self) -> Option<&TokenKind> {
        self.tokens.get(self.i + 1).map(|t| &t.kind)
    }

    fn pos(&self) -> Pos {
        self.tokens
            .get(self.i)
            .map(|t| t.pos)
            .unwrap_or_else(|| self.tokens.last().map(|t| t.pos).unwrap_or_default())
    }

    fn error_here(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.pos(), msg)
    }

    fn bump(&mut self) -> Result<TokenKind, ParseError> {
        let kind = self
            .peek()
            .cloned()
            .ok_or_else(|| self.error_here("unexpected end of input"))?;
        self.i += 1;
        Ok(kind)
    }

    fn expect(&mut self, want: &TokenKind, what: &str) -> Result<(), ParseError> {
        let pos = self.pos();
        let got = self.bump()?;
        if &got == want {
            Ok(())
        } else {
            Err(ParseError::new(
                pos,
                format!("expected {what}, found {got:?}"),
            ))
        }
    }

    fn fresh_loc(&mut self) -> LocId {
        let id = LocId(self.next_loc);
        self.next_loc += 1;
        id
    }

    /// Parses a top-level sequence: zero or more `(def p e)` / `(defrec p e)`
    /// forms followed by exactly one final expression.
    fn parse_seq(&mut self) -> Result<Expr, ParseError> {
        if self.peek() == Some(&TokenKind::LParen) {
            if let Some(TokenKind::Sym(s)) = self.peek2() {
                if s == "def" || s == "defrec" {
                    let recursive = s == "defrec";
                    self.bump()?; // `(`
                    self.bump()?; // `def` / `defrec`
                    let pat = self.parse_pat()?;
                    let bound = self.parse_expr()?;
                    self.expect(&TokenKind::RParen, "`)` to close def")?;
                    let body = self.parse_seq()?;
                    return Ok(Expr::Let {
                        recursive,
                        style: LetStyle::Def,
                        pat,
                        bound: Box::new(bound),
                        body: Box::new(body),
                    });
                }
            }
        }
        self.parse_expr()
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        let pos = self.pos();
        match self.bump()? {
            TokenKind::Num {
                value,
                annotation,
                range,
            } => Ok(Expr::Num(NumLit {
                value,
                loc: self.fresh_loc(),
                annotation,
                range,
            })),
            TokenKind::Str(s) => Ok(Expr::Str(s.into())),
            TokenKind::Sym(s) => match s.as_str() {
                "true" => Ok(Expr::Bool(true)),
                "false" => Ok(Expr::Bool(false)),
                _ => Ok(Expr::Var(s)),
            },
            TokenKind::LBracket => self.parse_list_expr(),
            TokenKind::LParen => self.parse_compound(),
            other => Err(ParseError::new(pos, format!("unexpected token {other:?}"))),
        }
    }

    fn parse_list_expr(&mut self) -> Result<Expr, ParseError> {
        let mut elems = Vec::new();
        let mut tail = None;
        loop {
            match self.peek() {
                Some(TokenKind::RBracket) => {
                    self.bump()?;
                    break;
                }
                Some(TokenKind::Pipe) => {
                    self.bump()?;
                    tail = Some(Box::new(self.parse_expr()?));
                    self.expect(&TokenKind::RBracket, "`]` to close list")?;
                    break;
                }
                Some(_) => elems.push(self.parse_expr()?),
                None => return Err(self.error_here("unterminated list literal")),
            }
        }
        Ok(Expr::List(elems, tail))
    }

    fn parse_compound(&mut self) -> Result<Expr, ParseError> {
        let pos = self.pos();
        match self.peek() {
            Some(TokenKind::Lambda) => {
                self.bump()?;
                let params = self.parse_params()?;
                let body = self.parse_expr()?;
                self.expect(&TokenKind::RParen, "`)` to close lambda")?;
                Ok(Expr::Lambda(params.into(), Arc::new(body)))
            }
            Some(TokenKind::Sym(s)) => {
                let s = s.clone();
                match s.as_str() {
                    "let" | "letrec" => {
                        let recursive = s == "letrec";
                        self.bump()?;
                        let pat = self.parse_pat()?;
                        let bound = self.parse_expr()?;
                        let body = self.parse_expr()?;
                        self.expect(&TokenKind::RParen, "`)` to close let")?;
                        Ok(Expr::Let {
                            recursive,
                            style: LetStyle::Let,
                            pat,
                            bound: Box::new(bound),
                            body: Box::new(body),
                        })
                    }
                    "def" | "defrec" => Err(ParseError::new(
                        pos,
                        "`def` is only allowed at the top level, as `(def p e) rest`",
                    )),
                    "if" => {
                        self.bump()?;
                        let c = self.parse_expr()?;
                        let t = self.parse_expr()?;
                        let e = self.parse_expr()?;
                        self.expect(&TokenKind::RParen, "`)` to close if")?;
                        Ok(Expr::If(Box::new(c), Box::new(t), Box::new(e)))
                    }
                    "case" => {
                        self.bump()?;
                        let scrut = self.parse_expr()?;
                        let mut branches = Vec::new();
                        while self.peek() == Some(&TokenKind::LParen) {
                            self.bump()?;
                            let p = self.parse_pat()?;
                            let e = self.parse_expr()?;
                            self.expect(&TokenKind::RParen, "`)` to close case branch")?;
                            branches.push((p, e));
                        }
                        self.expect(&TokenKind::RParen, "`)` to close case")?;
                        if branches.is_empty() {
                            return Err(ParseError::new(pos, "case needs at least one branch"));
                        }
                        Ok(Expr::Case(Box::new(scrut), branches))
                    }
                    _ => {
                        if let Some(op) = Op::from_name(&s) {
                            self.bump()?;
                            let mut args = Vec::new();
                            while self.peek() != Some(&TokenKind::RParen) {
                                if self.peek().is_none() {
                                    return Err(self.error_here("unterminated operation"));
                                }
                                args.push(self.parse_expr()?);
                            }
                            self.bump()?; // `)`
                            if args.len() != op.arity() {
                                return Err(ParseError::new(
                                    pos,
                                    format!(
                                        "`{}` takes {} argument(s), found {}",
                                        op.name(),
                                        op.arity(),
                                        args.len()
                                    ),
                                ));
                            }
                            Ok(Expr::Prim(op, args))
                        } else {
                            self.parse_application()
                        }
                    }
                }
            }
            Some(_) => self.parse_application(),
            None => Err(self.error_here("unterminated expression")),
        }
    }

    fn parse_application(&mut self) -> Result<Expr, ParseError> {
        let pos = self.pos();
        let head = self.parse_expr()?;
        let mut args = Vec::new();
        while self.peek() != Some(&TokenKind::RParen) {
            if self.peek().is_none() {
                return Err(self.error_here("unterminated application"));
            }
            args.push(self.parse_expr()?);
        }
        self.bump()?; // `)`
        if args.is_empty() {
            return Err(ParseError::new(
                pos,
                "application needs at least one argument",
            ));
        }
        Ok(Expr::App(Box::new(head), args))
    }

    /// Lambda parameters: either a single pattern (`λi`, `λ[x y]`) or a
    /// parenthesized list of patterns (`λ(x y z)`).
    fn parse_params(&mut self) -> Result<Vec<Pat>, ParseError> {
        if self.peek() == Some(&TokenKind::LParen) {
            self.bump()?;
            let mut params = Vec::new();
            while self.peek() != Some(&TokenKind::RParen) {
                if self.peek().is_none() {
                    return Err(self.error_here("unterminated parameter list"));
                }
                params.push(self.parse_pat()?);
            }
            self.bump()?; // `)`
            if params.is_empty() {
                return Err(self.error_here("lambda needs at least one parameter"));
            }
            Ok(params)
        } else {
            Ok(vec![self.parse_pat()?])
        }
    }

    fn parse_pat(&mut self) -> Result<Pat, ParseError> {
        let pos = self.pos();
        match self.bump()? {
            TokenKind::Sym(s) => match s.as_str() {
                "true" => Ok(Pat::Bool(true)),
                "false" => Ok(Pat::Bool(false)),
                _ => Ok(Pat::Var(s.into())),
            },
            TokenKind::Num { value, .. } => Ok(Pat::Num(value)),
            TokenKind::Str(s) => Ok(Pat::Str(s)),
            TokenKind::LBracket => {
                let mut elems = Vec::new();
                let mut tail = None;
                loop {
                    match self.peek() {
                        Some(TokenKind::RBracket) => {
                            self.bump()?;
                            break;
                        }
                        Some(TokenKind::Pipe) => {
                            self.bump()?;
                            tail = Some(Box::new(self.parse_pat()?));
                            self.expect(&TokenKind::RBracket, "`]` to close list pattern")?;
                            break;
                        }
                        Some(_) => elems.push(self.parse_pat()?),
                        None => return Err(self.error_here("unterminated list pattern")),
                    }
                }
                Ok(Pat::List(elems, tail))
            }
            other => Err(ParseError::new(
                pos,
                format!("expected a pattern, found {other:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::FreezeAnnotation;

    #[test]
    fn parses_annotated_number() {
        let p = parse("12!{3-30}").unwrap();
        match p.expr {
            Expr::Num(n) => {
                assert_eq!(n.value, 12.0);
                assert_eq!(n.annotation, FreezeAnnotation::Frozen);
                assert_eq!(n.range, Some((3.0, 30.0)));
                assert_eq!(n.loc, LocId(0));
            }
            other => panic!("expected number, got {other:?}"),
        }
    }

    #[test]
    fn locations_are_sequential() {
        let p = parse("[1 2 [3|4]]").unwrap();
        let lits = p.expr.num_literals();
        let locs: Vec<u32> = lits.iter().map(|n| n.loc.0).collect();
        assert_eq!(locs, vec![0, 1, 2, 3]);
        assert_eq!(p.next_loc, 4);
    }

    #[test]
    fn locations_offset_by_first_loc() {
        let p = parse_with_locs("(+ 1 2)", 100).unwrap();
        let locs: Vec<u32> = p.expr.num_literals().iter().map(|n| n.loc.0).collect();
        assert_eq!(locs, vec![100, 101]);
    }

    #[test]
    fn def_sequence_desugars_to_let() {
        let p = parse("(def x 50) (def y 60) (+ x y)").unwrap();
        match &p.expr {
            Expr::Let {
                style: LetStyle::Def,
                pat: Pat::Var(x),
                body,
                ..
            } => {
                assert_eq!(&**x, "x");
                assert!(matches!(**body, Expr::Let { .. }));
            }
            other => panic!("expected def, got {other:?}"),
        }
    }

    #[test]
    fn parses_lambda_forms() {
        assert!(matches!(parse("(λi i)").unwrap().expr, Expr::Lambda(ps, _) if ps.len() == 1));
        assert!(matches!(parse("(λ(x y) x)").unwrap().expr, Expr::Lambda(ps, _) if ps.len() == 2));
        assert!(
            matches!(parse("(λ[i [x y]] i)").unwrap().expr, Expr::Lambda(ps, _) if ps.len() == 1)
        );
        assert!(matches!(parse("(\\x x)").unwrap().expr, Expr::Lambda(_, _)));
    }

    #[test]
    fn parses_case_and_if() {
        let p = parse("(case xs ([] 0) ([x|rest] 1))").unwrap();
        assert!(matches!(p.expr, Expr::Case(_, branches) if branches.len() == 2));
        let p = parse("(if (< x 1) 'a' 'b')").unwrap();
        assert!(matches!(p.expr, Expr::If(..)));
    }

    #[test]
    fn op_arity_is_checked() {
        assert!(parse("(+ 1)").is_err());
        assert!(parse("(cos 1 2)").is_err());
        assert!(parse("(pi)").is_ok());
    }

    #[test]
    fn application_of_ops_vs_vars() {
        assert!(matches!(
            parse("(+ 1 2)").unwrap().expr,
            Expr::Prim(Op::Add, _)
        ));
        assert!(matches!(parse("(f 1 2)").unwrap().expr, Expr::App(..)));
    }

    #[test]
    fn sine_wave_program_parses() {
        let src = r#"
            (def [x0 y0 w h sep amp] [50 120 20 90 30 60])
            (def n 12!{3-30})
            (def boxi (λi
              (let xi (+ x0 (* i sep))
              (let yi (- y0 (* amp (sin (* i (/ twoPi n)))))
                (rect 'lightblue' xi yi w h)))))
            (svg (map boxi (zeroTo n)))
        "#;
        let p = parse(src).unwrap();
        // 6 literals in the first def + n = 7 total.
        assert_eq!(p.expr.num_literals().len(), 7);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("1 2").is_err());
    }

    #[test]
    fn rejects_nested_def() {
        assert!(parse("(let x (def y 1) x)").is_err());
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse("(let x\n  5").unwrap_err();
        assert_eq!(err.pos.line, 2, "{err}");
        let err = parse("(+ 1\n\n 'a' 2 3)").unwrap_err();
        assert!(err.to_string().contains("takes 2 argument(s)"));
    }

    #[test]
    fn deeply_nested_lists_parse() {
        let mut src = String::new();
        for _ in 0..200 {
            src.push('[');
        }
        src.push('1');
        for _ in 0..200 {
            src.push(']');
        }
        let p = parse(&src).unwrap();
        assert_eq!(p.expr.num_literals().len(), 1);
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(parse("").is_err());
        assert!(parse("; only a comment").is_err());
    }

    #[test]
    fn case_requires_branches() {
        assert!(parse("(case x)").is_err());
    }

    #[test]
    fn cons_tail_list() {
        let p = parse("[1 2|rest]").unwrap();
        match p.expr {
            Expr::List(elems, Some(tail)) => {
                assert_eq!(elems.len(), 2);
                assert!(matches!(*tail, Expr::Var(_)));
            }
            other => panic!("{other:?}"),
        }
    }
}
