//! The workspace's JSON: one string escaper and one small reader.
//!
//! Every file and stream the study writes (store lines, `BENCH_*.json`,
//! Chrome traces, attribution, job and epoch records) keeps its own
//! `format!` layout, so committed files stay byte-for-byte stable, but
//! escapes strings here and is read back through [`parse`]. Objects keep
//! their member order, numbers keep their source text so
//! [`Value::as_u64`] is exact, and truncated input is an `Err` — the
//! store's torn-line recovery relies on that.

use std::fmt::Write as _;

/// Appends `s` to `out` JSON-escaped (no quotes): `"` and `\` are
/// backslashed, `\n` `\r` `\t` take their short forms and every other
/// control character becomes `\u00XX`, so the text never spans lines.
pub fn escape_into(out: &mut String, s: &str) {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[start..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{:04x}", b);
        }
        out.push_str(short);
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

/// `s` as a quoted JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// `items` as a JSON array in the `[a, b, c]` layout the workspace's
/// files use (numbers, or anything else whose `Display` is JSON).
pub fn list<T: std::fmt::Display>(items: &[T]) -> String {
    let mut out = String::from("[");
    for (i, x) in items.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(out, "{sep}{x}");
    }
    out.push(']');
    out
}

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its source text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's members, in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The first member named `key`, if this is an object with one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let Value::Object(members) = self else {
            return None;
        };
        members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Member `key` read by `conv` (one of the `as_*` methods).
    ///
    /// # Errors
    ///
    /// `"missing KEY"` when absent, `"bad KEY"` when `conv` rejects it.
    pub fn field<'a, T>(
        &'a self,
        key: &str,
        conv: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        let v = self.get(key).ok_or_else(|| format!("missing {key}"))?;
        conv(v).ok_or_else(|| format!("bad {key}"))
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as an exact `u64` (no sign, fraction or exponent).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    /// The number as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// An array of exactly `N` exact integers.
    pub fn as_u64s<const N: usize>(&self) -> Option<[u64; N]> {
        let items = self.as_array().filter(|a| a.len() == N)?;
        let mut out = [0; N];
        for (slot, v) in out.iter_mut().zip(items) {
            *slot = v.as_u64()?;
        }
        Some(out)
    }
}

/// Nesting deeper than this is refused rather than risking the stack.
const MAX_DEPTH: usize = 128;

/// Parses one complete JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// The first syntax error and its byte offset, including input that
/// ends early.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { s: text, pos: 0 };
    let v = p.value(0)?;
    p.ws();
    if p.pos < text.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {} of {}", self.pos, self.s.len())
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `b` if it comes next.
    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.ws();
        let s = self.s;
        let rest = &s[self.pos..];
        if let Some(w) = ["null", "true", "false"]
            .into_iter()
            .find(|w| rest.starts_with(w))
        {
            self.pos += w.len();
            return Ok(match w {
                "null" => Value::Null,
                w => Value::Bool(w == "true"),
            });
        }
        match self.peek() {
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => {
                let len = rest
                    .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
                    .unwrap_or(rest.len());
                if rest[..len].parse::<f64>().is_err() {
                    return Err(self.err("malformed number"));
                }
                self.pos += len;
                Ok(Value::Num(rest[..len].to_string()))
            }
            Some(open @ (b'[' | b'{')) => {
                self.pos += 1;
                let close = open + 2; // `]` and `}` come two after `[` and `{`
                let mut members = Vec::new();
                if !self.eat(close) {
                    loop {
                        let key = if open == b'{' {
                            self.key()?
                        } else {
                            String::new()
                        };
                        members.push((key, self.value(depth + 1)?));
                        if self.eat(close) {
                            break;
                        }
                        if !self.eat(b',') {
                            return Err(self.err("expected ',' or a closing bracket"));
                        }
                    }
                }
                Ok(match open {
                    b'{' => Value::Object(members),
                    _ => Value::Array(members.into_iter().map(|(_, v)| v).collect()),
                })
            }
            _ => Err(self.err("expected a value")),
        }
    }

    /// An object member's `"key":`.
    fn key(&mut self) -> Result<String, String> {
        self.ws();
        let key = self.string()?;
        if !self.eat(b':') {
            return Err(self.err("expected ':'"));
        }
        Ok(key)
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string"));
        }
        self.pos += 1;
        let s = self.s;
        let mut out = String::new();
        loop {
            let rest = &s[self.pos..];
            let i = rest
                .find(['"', '\\'])
                .ok_or_else(|| self.err("unterminated string"))?;
            if let Some(bad) = rest[..i].bytes().position(|b| b < 0x20) {
                self.pos += bad;
                return Err(self.err("raw control character in string"));
            }
            out.push_str(&rest[..i]);
            self.pos += i + 1;
            if rest.as_bytes()[i] == b'"' {
                return Ok(out);
            }
            let c = match self.peek() {
                Some(b'u') => {
                    let mut code = self.hex4()?;
                    if (0xd800..0xdc00).contains(&code) && s[self.pos + 1..].starts_with("\\u") {
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if (0xdc00..0xe000).contains(&lo) {
                            code = 0x10000 + ((code - 0xd800) << 10) + (lo - 0xdc00);
                        }
                    }
                    char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))?
                }
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(c @ (b'"' | b'\\' | b'/')) => char::from(c),
                _ => return Err(self.err("bad escape")),
            };
            out.push(c);
            self.pos += 1;
        }
    }

    /// The four hex digits after the `u` at `pos`, leaving `pos` on the
    /// last of them.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.s.get(self.pos + 1..self.pos + 5).unwrap_or("");
        if hex.len() != 4 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.err("bad \\u escape"));
        }
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials_and_every_control_char() {
        assert_eq!(quote("a\"b\\c\n\r\t"), r#""a\"b\\c\n\r\t""#);
        assert_eq!(quote("\u{1}\u{1f} näïve ✓"), "\"\\u0001\\u001f näïve ✓\"");
        let all: String = (0u8..0x20).map(char::from).collect();
        let q = quote(&all);
        assert!(q.bytes().all(|b| b >= 0x20), "{q}");
        assert_eq!(parse(&q).unwrap(), Value::Str(all));
        let v = parse(r#""\u00e9\ud83d\ude80\/\b\f""#).unwrap();
        assert_eq!(v.as_str(), Some("é🚀/\u{8}\u{c}"));
    }

    #[test]
    fn reads_nested_documents_in_order_with_exact_integers() {
        let v = parse(" {\"b\": [1, -2.5e3, true, null], \"a\": {\"x\": \"y\"}, \"b\": 0} ");
        let v = v.unwrap();
        let Value::Object(members) = &v else {
            panic!("{v:?}")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["b", "a", "b"], "order and duplicates kept");
        let b = v.get("b").unwrap().as_array().unwrap();
        assert_eq!((b[0].as_u64(), b[1].as_u64()), (Some(1), None));
        assert_eq!((b[1].as_f64(), b[2].as_bool()), (Some(-2500.0), Some(true)));
        assert_eq!(b[3], Value::Null);
        assert_eq!(
            v.get("a").and_then(|a| a.get("x")),
            Some(&Value::Str("y".into()))
        );
        assert_eq!(v.field("zz", Value::as_u64), Err("missing zz".to_string()));
        assert_eq!(v.field("a", Value::as_u64), Err("bad a".to_string()));
        let big = parse("[18446744073709551615, 9007199254740993]").unwrap();
        assert_eq!(big.as_u64s(), Some([u64::MAX, 9_007_199_254_740_993]));
        assert_eq!(big.as_u64s::<3>(), None, "length is checked");
        assert!(matches!(
            parse("[[], {}]").unwrap().as_array(),
            Some([_, _])
        ));
    }

    #[test]
    fn truncated_and_malformed_input_is_an_error() {
        let doc = r#"{"key": "a\"b", "n": [1, 2.5], "o": {"t": true}, "u": "\u00e9"}"#;
        assert!(parse(doc).is_ok());
        for cut in 0..doc.len() {
            assert!(parse(&doc[..cut]).is_err(), "{cut}");
        }
        // `|`-separated, one malformed document each.
        let bad = r#"{} x|{"a" 1}|[1 2]|[1,]|[,1]|{,}|-|1e|tru|{1: 2}|"a
b"|"\q"|"\ud83d"|"\u12"|"\u+123""#;
        for b in bad.split('|') {
            assert!(parse(b).is_err(), "{b:?} parsed");
        }
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).unwrap_err().contains("too deep"));
    }
}
