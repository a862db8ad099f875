//! The workspace's one JSON reader and writer, dependency-free.
//!
//! [`parse`] is a strict recursive-descent parser (RFC 8259; numbers are
//! `f64`, nesting is capped at [`MAX_DEPTH`]). [`Json::to_compact`] and
//! [`Json::to_pretty`] are the only code that turns a value back into
//! text — one line without whitespace for ledger records, indented for
//! the `BENCH_*.json` files people diff — and [`escape`] is
//! the only string escaper (the streaming Chrome-trace exporter borrows
//! it). Every integer up to 2^53 prints as the digits it was built from,
//! so `parse` → write is byte-identical on anything the writer produced.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, kept as `f64`.
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys are kept).
    Obj(Vec<(String, Json)>),
}

impl From<u64> for Json {
    /// Exact up to 2^53; callers that may exceed it clamp first.
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl Json {
    /// An object from `(key, value)` pairs, in the order given.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(key, value)| (key.to_string(), value))
                .collect(),
        )
    }

    /// Member lookup on an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an exact non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// One line, no insignificant whitespace (the ledger-line form).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// The form for files people diff: two-space indentation, one member
    /// or element per line, a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// `indent` is this value's depth when pretty-printing, `None` when
    /// writing compactly.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // JSON has no NaN or infinity; `{}` on a finite f64 never
            // prints an exponent and prints integers without a point.
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, indent, ['[', ']'], items, |out, item, inner| {
                item.write(out, inner)
            }),
            Json::Obj(members) => write_seq(
                out,
                indent,
                ['{', '}'],
                members,
                |out, (key, value), inner| {
                    write_str(out, key);
                    out.push_str(if inner.is_some() { ": " } else { ":" });
                    value.write(out, inner);
                },
            ),
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&escape(s));
    out.push('"');
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    [open, close]: [char; 2],
    children: &[T],
    mut write_child: impl FnMut(&mut String, &T, Option<usize>),
) {
    let inner = indent.map(|depth| depth + 1);
    let break_line = |out: &mut String, depth: Option<usize>| {
        if let Some(depth) = depth {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
    };
    out.push(open);
    for (i, child) in children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        break_line(out, inner);
        write_child(out, child, inner);
    }
    if !children.is_empty() {
        break_line(out, indent);
    }
    out.push(close);
}

/// Escape a string for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Deepest container nesting [`parse`] accepts. The parser recurses per
/// level, so without a cap a crafted `[[[[…` overflows the stack — an
/// abort no caller can catch. The deepest document this workspace
/// writes nests 5 levels.
pub const MAX_DEPTH: usize = 64;

/// Parse a complete JSON document. Errors carry a byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            // Surrogate pairs: \uD800-\uDBFF must be
                            // followed by a low surrogate.
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("high surrogate without a low one"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control byte in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (the input is a &str, so the
                    // bytes are valid UTF-8).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        // Four hex digits and nothing else: `from_str_radix` would also
        // take a sign.
        let digits = self.bytes[self.pos..self.pos + 4].iter();
        let code = digits
            .map(|&b| char::from(b).to_digit(16))
            .try_fold(0, |code, digit| Some(code * 16 + digit?))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-ascii number"))?;
        match text.parse::<f64>() {
            // `"1e400".parse()` is `Ok(inf)`, which the writer could not
            // print back.
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(self.err("malformed or out-of-range number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structures() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": null, "d": true}, "e": "x"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x"));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
    }

    #[test]
    fn decodes_escapes_and_surrogates() {
        let v = parse(r#""a\"b\\c\n\u0041\uD83D\uDE00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nA😀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "\"unterminated",
            "1 2",
            "{\"a\": 1,}",
            "nul",
            "\"\\uD800\"",
            // A high surrogate and a non-surrogate, and a signed escape.
            "\"\\uD800\\u0041\"",
            "\"\\u+041\"",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn as_u64_is_exact_only() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn non_finite_numbers_are_rejected_not_parsed_to_infinity() {
        assert!(parse("1e400").is_err());
        assert!(parse("-1e400").is_err());
        assert_eq!(parse("1e-400").unwrap().as_f64(), Some(0.0));
    }

    /// `depth` nested containers around a `1`, alternating or uniform.
    fn nested(depth: usize, pick: fn(usize) -> bool) -> String {
        let mut text = String::new();
        for level in 0..depth {
            text.push_str(if pick(level) { "[" } else { "{\"k\":" });
        }
        text.push('1');
        for level in (0..depth).rev() {
            text.push(if pick(level) { ']' } else { '}' });
        }
        text
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        // A 2 MiB stack is the default for spawned threads: the cap must
        // hold there, not only on an 8 MiB main thread.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let shapes: [fn(usize) -> bool; 3] = [|_| true, |_| false, |l| l % 2 == 0];
                for pick in shapes {
                    assert!(parse(&nested(MAX_DEPTH, pick)).is_ok());
                    let err = parse(&nested(MAX_DEPTH + 1, pick)).unwrap_err();
                    assert!(err.contains("nesting deeper"), "{err}");
                }
                // Unclosed openers, as an attacker would send them.
                for opener in ["[", "{\"k\":"] {
                    let err = parse(&opener.repeat(200_000)).unwrap_err();
                    assert!(err.contains("nesting deeper"), "{err}");
                }
            })
            .expect("spawn")
            .join()
            .expect("the parser must return, not overflow");
    }

    #[test]
    fn compact_and_pretty_forms_reparse_to_the_same_value() {
        let doc = Json::obj([
            (
                "benchmarks",
                Json::Arr(vec![
                    Json::obj([("id", "a/b \"q\"".into()), ("median_ns", 495541u64.into())]),
                    Json::obj([
                        ("id", "c".into()),
                        ("nested", Json::Arr(vec![Json::Arr(vec![])])),
                    ]),
                ]),
            ),
            ("ratio", Json::Num(0.288)),
            ("negative", Json::Num(-0.35)),
            ("none", Json::Null),
            ("flag", Json::Bool(true)),
            ("empty", Json::Obj(Vec::new())),
            ("big", (1u64 << 53).into()),
        ]);
        assert_eq!(
            doc.to_compact(),
            "{\"benchmarks\":[{\"id\":\"a/b \\\"q\\\"\",\"median_ns\":495541},\
             {\"id\":\"c\",\"nested\":[[]]}],\"ratio\":0.288,\"negative\":-0.35,\
             \"none\":null,\"flag\":true,\"empty\":{},\"big\":9007199254740992}"
        );
        assert_eq!(
            doc.to_pretty(),
            r#"{
  "benchmarks": [
    {
      "id": "a/b \"q\"",
      "median_ns": 495541
    },
    {
      "id": "c",
      "nested": [
        []
      ]
    }
  ],
  "ratio": 0.288,
  "negative": -0.35,
  "none": null,
  "flag": true,
  "empty": {},
  "big": 9007199254740992
}
"#
        );
        assert_eq!(parse(&doc.to_compact()).unwrap(), doc);
        assert_eq!(parse(&doc.to_pretty()).unwrap(), doc);
        // What the writer printed, it prints again.
        assert_eq!(
            parse(&doc.to_pretty()).unwrap().to_pretty(),
            doc.to_pretty()
        );
    }

    #[test]
    fn non_finite_numbers_are_written_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_compact(), "null");
    }

    #[test]
    fn escape_covers_quotes_and_control_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        let hostile = "q\"\\\n\r\t\u{1}\u{1f}é→/";
        assert_eq!(
            parse(&Json::from(hostile).to_compact()).unwrap().as_str(),
            Some(hostile)
        );
    }
}
