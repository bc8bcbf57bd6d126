//! A minimal JSON encoder/decoder — just enough for the wire format, with
//! zero dependencies.
//!
//! Numbers are `f64`, objects preserve insertion order (stable responses
//! make the integration tests and curl transcripts readable), and the
//! parser rejects trailing garbage.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
    /// A value already encoded as JSON text, written verbatim: a reply
    /// part streamed by its own writer rides inside a reply tree without
    /// being built as one. The parser never produces it, and the accessors
    /// do not look inside it.
    Raw(String),
}

impl Json {
    /// Object constructor from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// String constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    if *n == n.trunc() && n.abs() < 1e15 {
                        write!(f, "{}", *n as i64)
                    } else {
                        write!(f, "{n}")
                    }
                } else {
                    // JSON has no Infinity/NaN; degrade to null.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_str(f, s),
            Json::Raw(text) => f.write_str(text),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    v.fmt(f)?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_str(f, k)?;
                    f.write_str(":")?;
                    v.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` as a quoted JSON string, escaped as by [`Escaped`].
///
/// # Errors
///
/// Fails only when `out` does.
pub fn write_str(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_str("\"")?;
    write_escaped(out, s)?;
    out.write_str("\"")
}

/// A writer that escapes what is written through it as the inside of a
/// JSON string (no quotes): text formatted into it lands in a string of
/// the JSON being written without being built on the side.
pub struct Escaped<'a, W: fmt::Write>(pub &'a mut W);

impl<W: fmt::Write> fmt::Write for Escaped<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        write_escaped(self.0, s)
    }
}

/// Writes `s` escaped for the inside of a JSON string. Bytes that need no
/// escaping are copied a whole run at a time, so the cost is one
/// `write_str` per escaped byte plus one per run between them. Escapes are
/// `"`, `\`, `\n`, `\r`, `\t` and `\u00xx` for the other control bytes
/// below 0x20; everything else (DEL and all non-ASCII text included)
/// passes through. Every escaped byte is ASCII, so each run boundary is a
/// char boundary.
fn write_escaped(f: &mut impl fmt::Write, s: &str) -> fmt::Result {
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        f.write_str(&s[run..i])?;
        match escape {
            Some(e) => f.write_str(e)?,
            None => write!(f, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    f.write_str(&s[run..])
}

/// A JSON parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub at: usize,
    /// Description.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Maximum nesting depth the parser accepts. Recursive descent means a
/// hostile `[[[[…` body could otherwise overflow the worker's stack and
/// abort the whole process.
const MAX_DEPTH: u32 = 64;

/// Parses a complete JSON document (rejecting trailing garbage).
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first malformed byte.
pub fn parse(src: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        src: src.as_bytes(),
        i: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.src.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a [u8],
    i: usize,
    depth: u32,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            at: self.i,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", c as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.src[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = self.value_inner();
        self.depth -= 1;
        v
    }

    fn value_inner(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.i + 1..self.i + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = &self.src[self.i..];
                    let step = match rest[0] {
                        b if b < 0x80 => 1,
                        b if b >> 5 == 0b110 => 2,
                        b if b >> 4 == 0b1110 => 3,
                        _ => 4,
                    };
                    let chunk = rest
                        .get(..step)
                        .ok_or_else(|| self.err("truncated UTF-8"))?;
                    s.push_str(std::str::from_utf8(chunk).map_err(|_| self.err("invalid UTF-8"))?);
                    self.i += step;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.i]).expect("ascii");
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            at: start,
            msg: format!("bad number `{text}`"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_structures() {
        let src = r#"{"a":[1,2.5,-3],"b":"hi\nthere","c":{"d":true,"e":null}}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().as_str(), Some("hi\nthere"));
        let out = v.to_string();
        assert_eq!(parse(&out).unwrap(), v);
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::str("quote \" backslash \\ newline \n tab \t");
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse(r#""Ab""#).unwrap().as_str(), Some("Ab"));
        // Literal UTF-8 passes through.
        assert_eq!(parse("\"λx\"").unwrap().as_str(), Some("λx"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("true false").is_err());
        assert!(parse("drag me").is_err());
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // Well within a 1 MiB body cap, yet enough to smash any stack if
        // recursion were unbounded.
        let hostile = "[".repeat(500_000);
        let err = parse(&hostile).unwrap_err();
        assert!(err.msg.contains("nesting"), "{err}");
        // Reasonable nesting still parses.
        let ok = format!("{}1{}", "[".repeat(32), "]".repeat(32));
        assert!(parse(&ok).is_ok());
    }

    /// The per-character escaper the run-based one replaced, kept as the
    /// oracle its output must match byte for byte.
    struct PerChar<'a>(&'a str);

    impl fmt::Display for PerChar<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("\"")?;
            for c in self.0.chars() {
                match c {
                    '"' => f.write_str("\\\"")?,
                    '\\' => f.write_str("\\\\")?,
                    '\n' => f.write_str("\\n")?,
                    '\r' => f.write_str("\\r")?,
                    '\t' => f.write_str("\\t")?,
                    c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                    c => write!(f, "{c}")?,
                }
            }
            f.write_str("\"")
        }
    }

    /// Strings drawn from every ASCII byte, quotes, backslashes and
    /// multi-byte characters, in runs of every length up to 12, with a
    /// deterministic generator (SplitMix64).
    fn generated_strings() -> Vec<String> {
        let mut alphabet: Vec<char> = (0u8..=0x7f).map(char::from).collect();
        alphabet.extend(['"', '\\', 'é', 'λ', '€', '\u{2028}', '\u{fffd}', '😀', '𝄞']);
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut out: Vec<String> = alphabet.iter().map(char::to_string).collect();
        out.push(alphabet.iter().collect());
        out.push(String::new());
        for i in 0..4000 {
            let len = i % 13;
            out.push(
                (0..len)
                    .map(|_| alphabet[(next() % alphabet.len() as u64) as usize])
                    .collect(),
            );
        }
        out
    }

    #[test]
    fn run_escaper_matches_the_per_char_oracle_and_round_trips() {
        for s in generated_strings() {
            let v = Json::Str(s.clone());
            let text = v.to_string();
            assert_eq!(text, PerChar(&s).to_string(), "escaping {s:?}");
            assert_eq!(parse(&text).unwrap(), v, "round trip of {s:?}");
            // Keys take the same path as values.
            let obj = Json::Obj(vec![(s.clone(), Json::Arr(vec![v.clone()]))]);
            let text = obj.to_string();
            assert_eq!(text, format!("{{{}:[{}]}}", PerChar(&s), PerChar(&s)));
            assert_eq!(parse(&text).unwrap(), obj);
        }
    }

    #[test]
    fn numbers_format_cleanly() {
        assert_eq!(Json::Num(12.0).to_string(), "12");
        assert_eq!(Json::Num(12.5).to_string(), "12.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }
}
