//! Lexer for the `little` surface syntax.
//!
//! Tokenizes parentheses, brackets, `|`, lambda markers (`λ` or `\`),
//! single-quoted strings, symbols, and annotated numbers. Numeric literals
//! absorb their trailing annotations (`!`, `?`, `{lo-hi}`) into a single
//! token so the parser sees one unit per literal.

use crate::ast::FreezeAnnotation;
use crate::error::{ParseError, Pos};

/// One lexical token, tagged with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// Source position of the first character of the token.
    pub pos: Pos,
}

/// Token kinds produced by [`lex`].
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `|`
    Pipe,
    /// `λ` or `\`
    Lambda,
    /// A numeric literal with its annotations.
    Num {
        /// Literal value.
        value: f64,
        /// Freeze (`!`) / thaw (`?`) annotation.
        annotation: FreezeAnnotation,
        /// Range annotation `{lo-hi}`.
        range: Option<(f64, f64)>,
    },
    /// A single-quoted string literal (quotes stripped).
    Str(String),
    /// A symbol: identifier or operator name.
    Sym(String),
}

struct Lexer<'a> {
    src: &'a [u8],
    i: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            i: 0,
            line: 1,
            col: 1,
        }
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.i).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.i + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.i += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if (c as char).is_whitespace() => {
                    self.bump();
                }
                Some(b';') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.pos(), msg)
    }

    /// Reads a raw signed decimal number starting at the current position.
    fn read_raw_number(&mut self) -> Result<f64, ParseError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        let mut saw_digit = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                saw_digit = true;
                self.bump();
            } else if c == b'.' && self.peek2().is_some_and(|d| d.is_ascii_digit()) {
                self.bump();
            } else {
                break;
            }
        }
        if !saw_digit {
            return Err(self.error("expected a number"));
        }
        let text = std::str::from_utf8(&self.src[start..self.i]).expect("ascii number");
        text.parse::<f64>()
            .map_err(|e| self.error(format!("bad number `{text}`: {e}")))
    }

    /// Reads the `{lo-hi}` range annotation body after the opening brace.
    fn read_range(&mut self) -> Result<(f64, f64), ParseError> {
        let lo = self.read_raw_number()?;
        if self.peek() != Some(b'-') {
            return Err(self.error("expected `-` in range annotation"));
        }
        self.bump();
        let hi = self.read_raw_number()?;
        if self.peek() != Some(b'}') {
            return Err(self.error("expected `}` to close range annotation"));
        }
        self.bump();
        Ok((lo, hi))
    }

    fn read_number_token(&mut self) -> Result<TokenKind, ParseError> {
        let value = self.read_raw_number()?;
        let mut annotation = FreezeAnnotation::None;
        match self.peek() {
            Some(b'!') => {
                annotation = FreezeAnnotation::Frozen;
                self.bump();
            }
            Some(b'?') => {
                annotation = FreezeAnnotation::Thawed;
                self.bump();
            }
            _ => {}
        }
        let mut range = None;
        if self.peek() == Some(b'{') {
            self.bump();
            range = Some(self.read_range()?);
        }
        Ok(TokenKind::Num {
            value,
            annotation,
            range,
        })
    }

    fn read_string(&mut self) -> Result<TokenKind, ParseError> {
        // Opening quote already peeked by caller.
        self.bump();
        // Bytes, decoded once at the end: the quote and the escapes are
        // ASCII bytes, which never occur inside a multi-byte UTF-8
        // sequence, so the bytes between them are whole characters.
        let mut s = Vec::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string literal")),
                Some(b'\'') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'\'') => s.push(b'\''),
                    Some(b'\\') => s.push(b'\\'),
                    Some(b'n') => s.push(b'\n'),
                    other => {
                        return Err(self.error(format!(
                            "unknown escape `\\{}`",
                            other.map(|c| c as char).unwrap_or(' ')
                        )))
                    }
                },
                Some(c) => s.push(c),
            }
        }
        let s = String::from_utf8(s).expect("a slice of a `&str` between ASCII bytes is UTF-8");
        Ok(TokenKind::Str(s))
    }

    fn is_sym_start(c: u8) -> bool {
        (c as char).is_ascii_alphabetic() || c == b'_'
    }

    fn is_sym_continue(c: u8) -> bool {
        (c as char).is_ascii_alphanumeric() || c == b'_' || c == b'?' || c == b'\''
    }

    fn next_token(&mut self) -> Result<Option<Token>, ParseError> {
        self.skip_trivia();
        let pos = self.pos();
        let Some(c) = self.peek() else {
            return Ok(None);
        };
        let kind = match c {
            b'(' => {
                self.bump();
                TokenKind::LParen
            }
            b')' => {
                self.bump();
                TokenKind::RParen
            }
            b'[' => {
                self.bump();
                TokenKind::LBracket
            }
            b']' => {
                self.bump();
                TokenKind::RBracket
            }
            b'|' => {
                self.bump();
                TokenKind::Pipe
            }
            b'\\' => {
                self.bump();
                TokenKind::Lambda
            }
            0xCE if self.peek2() == Some(0xBB) => {
                // UTF-8 encoding of `λ`.
                self.bump();
                self.bump();
                TokenKind::Lambda
            }
            b'\'' => self.read_string()?,
            b'-' if self.peek2().is_some_and(|d| d.is_ascii_digit()) => self.read_number_token()?,
            c if c.is_ascii_digit() => self.read_number_token()?,
            b'<' | b'>' => {
                self.bump();
                let mut s = (c as char).to_string();
                if self.peek() == Some(b'=') {
                    self.bump();
                    s.push('=');
                }
                TokenKind::Sym(s)
            }
            b'+' | b'-' | b'*' | b'/' | b'=' => {
                self.bump();
                TokenKind::Sym((c as char).to_string())
            }
            c if Self::is_sym_start(c) => {
                let start = self.i;
                self.bump();
                while self.peek().is_some_and(Self::is_sym_continue) {
                    self.bump();
                }
                let text = std::str::from_utf8(&self.src[start..self.i]).expect("ascii symbol");
                TokenKind::Sym(text.to_string())
            }
            other => {
                return Err(ParseError::new(
                    pos,
                    format!("unexpected character `{}`", other as char),
                ))
            }
        };
        Ok(Some(Token { kind, pos }))
    }
}

/// Tokenizes `little` source code.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed numbers, unterminated strings,
/// malformed range annotations, or characters outside the grammar.
///
/// # Examples
///
/// ```
/// let tokens = sns_lang::token::lex("(+ 1! 2)").unwrap();
/// assert_eq!(tokens.len(), 5);
/// ```
pub fn lex(src: &str) -> Result<Vec<Token>, ParseError> {
    let mut lexer = Lexer::new(src);
    let mut tokens = Vec::new();
    while let Some(tok) = lexer.next_token()? {
        tokens.push(tok);
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_parens_and_symbols() {
        assert_eq!(
            kinds("(svg x)"),
            vec![
                TokenKind::LParen,
                TokenKind::Sym("svg".into()),
                TokenKind::Sym("x".into()),
                TokenKind::RParen,
            ]
        );
    }

    #[test]
    fn lexes_annotated_numbers() {
        assert_eq!(
            kinds("12!{3-30}"),
            vec![TokenKind::Num {
                value: 12.0,
                annotation: FreezeAnnotation::Frozen,
                range: Some((3.0, 30.0)),
            }]
        );
        assert_eq!(
            kinds("0.25?"),
            vec![TokenKind::Num {
                value: 0.25,
                annotation: FreezeAnnotation::Thawed,
                range: None,
            }]
        );
    }

    #[test]
    #[allow(clippy::approx_constant)] // an arbitrary symmetric range
    fn lexes_negative_range_bounds() {
        assert_eq!(
            kinds("0!{-3.14-3.14}"),
            vec![TokenKind::Num {
                value: 0.0,
                annotation: FreezeAnnotation::Frozen,
                range: Some((-3.14, 3.14)),
            }]
        );
    }

    #[test]
    fn minus_is_symbol_unless_glued_to_digit() {
        assert_eq!(
            kinds("(- n 1)"),
            vec![
                TokenKind::LParen,
                TokenKind::Sym("-".into()),
                TokenKind::Sym("n".into()),
                TokenKind::Num {
                    value: 1.0,
                    annotation: FreezeAnnotation::None,
                    range: None
                },
                TokenKind::RParen,
            ]
        );
        assert_eq!(
            kinds("-5"),
            vec![TokenKind::Num {
                value: -5.0,
                annotation: FreezeAnnotation::None,
                range: None
            }]
        );
    }

    #[test]
    fn lexes_strings_with_escapes() {
        assert_eq!(
            kinds("'lightblue'"),
            vec![TokenKind::Str("lightblue".into())]
        );
        assert_eq!(kinds(r"'it\'s'"), vec![TokenKind::Str("it's".into())]);
        assert_eq!(kinds("'tab λ'"), vec![TokenKind::Str("tab λ".into())]);
    }

    #[test]
    fn lexes_lambda_markers() {
        assert_eq!(kinds("λi")[0], TokenKind::Lambda);
        assert_eq!(kinds("\\i")[0], TokenKind::Lambda);
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(kinds("; a comment\n42"), kinds("42"));
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            kinds("< <= > >= ="),
            vec![
                TokenKind::Sym("<".into()),
                TokenKind::Sym("<=".into()),
                TokenKind::Sym(">".into()),
                TokenKind::Sym(">=".into()),
                TokenKind::Sym("=".into()),
            ]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("'oops").is_err());
    }

    #[test]
    fn question_mark_in_identifier() {
        assert_eq!(kinds("nil?"), vec![TokenKind::Sym("nil?".into())]);
    }
}
