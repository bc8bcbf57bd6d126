//! Front-end for **`little`**, the core functional language of
//! Sketch-n-Sketch (*Programmatic and Direct Manipulation, Together at
//! Last*, PLDI 2016).
//!
//! `little` is a small untyped functional language — numbers, booleans,
//! strings, cons lists, lambdas, `let`/`letrec`, `case` — with one twist
//! that makes prodirect manipulation possible: **every numeric literal has
//! an identity**. The parser assigns each literal a [`LocId`]; freeze (`!`),
//! thaw (`?`), and range (`{lo-hi}`) annotations let the programmer control
//! how direct manipulation may change it; and a [`Subst`] maps locations to
//! new values, which is the *only* kind of program update the synthesizer
//! infers (the paper's "small updates" design principle).
//!
//! This crate provides:
//!
//! * [`parse`] / [`parse_with_locs`] — lexer + parser ([`token`], [`parser`]);
//! * the AST ([`ast`]): [`Expr`], [`Pat`], [`Op`], [`NumLit`];
//! * [`unparse`] — a style-preserving pretty-printer, so that applying a
//!   substitution and re-printing yields the updated program text, and
//!   [`unparse_with_spans`], which also reports where each literal's value
//!   was printed so later updates can be spliced into the text;
//! * [`Subst`] and [`program_subst`] — local updates ρ;
//! * [`loc_names`] — canonical names for locations bound to variables.
//!
//! # Examples
//!
//! ```
//! use sns_lang::{parse, unparse, program_subst, Subst, LocId};
//!
//! // Parse a program; each literal gets a location.
//! let mut program = parse("(def sep 30) (* 2 sep)").unwrap();
//! let rho0 = program_subst(&program.expr);
//! assert_eq!(rho0.get(LocId(0)), Some(30.0));
//!
//! // A "local update" rewrites a constant; unparse shows the new program.
//! let update = Subst::from_pairs([(LocId(0), 52.5)]);
//! update.apply(&mut program.expr);
//! assert_eq!(unparse(&program.expr), "(def sep 52.5) (* 2 sep)");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod diff;
pub mod error;
pub mod names;
pub mod parser;
pub mod subst;
pub mod token;
pub mod unparse;

pub use ast::LocId;
pub use ast::{fmt_num, write_num, Expr, FreezeAnnotation, LetStyle, NumLit, Op, Pat};
pub use diff::{diff_exprs, AstDiff, MAX_DIFF_REGIONS};
pub use error::{ParseError, Pos};
pub use names::{display_loc, loc_names};
pub use parser::{parse, parse_with_locs, Parsed};
pub use subst::{program_subst, Subst};
pub use unparse::{unparse, unparse_pat, unparse_with_spans, LitSpan};
