//! Minimal deterministic JSON value model (the workspace builds offline,
//! so serde is not available; exporters hand-roll their JSON through this,
//! and readers such as the bench ledger's gate parse it back).

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order, so rendering is
/// deterministic — a hard requirement for the telemetry determinism tests.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience object constructor.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Parses one JSON document (RFC 8259; surrogate-pair escapes are
    /// not combined). Integers without sign, fraction or exponent become
    /// [`Json::U64`], negative ones [`Json::I64`], all else [`Json::F64`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    /// The value under `key`, if `self` is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Any numeric variant as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Renders compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    // `{v:?}` keeps a decimal point or exponent, so the
                    // value re-parses as a float; plain `{}` prints `1`.
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

/// Recursive-descent reader over the document's bytes.
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while matches!(self.s.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.i))
    }

    /// Skips whitespace, then consumes `lit` if it comes next.
    fn eat(&mut self, lit: &str) -> bool {
        self.ws();
        let hit = self.s[self.i..].starts_with(lit.as_bytes());
        if hit {
            self.i += lit.len();
        }
        hit
    }

    /// The comma-separated items of an array or object, up to `close`
    /// (the opening bracket is already consumed).
    fn items<T>(
        &mut self,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            if self.eat(close) {
                return Ok(out);
            }
            if !self.eat(",") {
                return self.err("expected ','");
            }
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        if self.eat("{") {
            let field = |p: &mut Self| {
                let key = p.string()?;
                if !p.eat(":") {
                    return p.err("expected ':'");
                }
                Ok((key, p.value()?))
            };
            return self.items("}", field).map(Json::Obj);
        }
        if self.eat("[") {
            return self.items("]", Self::value).map(Json::Arr);
        }
        for (lit, v) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
        ] {
            if self.eat(lit) {
                return Ok(v);
            }
        }
        if self.s.get(self.i) == Some(&b'"') {
            return self.string().map(Json::Str);
        }
        let start = self.i;
        while matches!(
            self.s.get(self.i),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).unwrap_or_default();
        let parsed = if text.contains(['.', 'e', 'E']) {
            text.parse().ok().map(Json::F64)
        } else if text.starts_with('-') {
            text.parse().ok().map(Json::I64)
        } else {
            text.parse().ok().map(Json::U64)
        };
        match parsed {
            Some(v) => Ok(v),
            None => {
                self.i = start;
                self.err("expected a JSON value")
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return self.err("expected string");
        }
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.s.get(self.i) else {
                return self.err("unterminated string");
            };
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = self.s.get(self.i).copied().unwrap_or(0);
                    self.i += 1;
                    let c = match esc {
                        b'"' | b'\\' | b'/' => char::from(esc),
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).unwrap_or_default();
                            self.i += 4;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match code.and_then(char::from_u32) {
                                Some(c) => c,
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                _ => out.push(c),
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::U64(42).render(), "42");
        assert_eq!(Json::I64(-7).render(), "-7");
        assert_eq!(Json::F64(1.5).render(), "1.5");
        assert_eq!(Json::F64(2.0).render(), "2.0");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(Json::Str("a\"b\\c\nd".into()).render(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::Str("\u{1}".into()).render(), r#""\u0001""#);
    }

    #[test]
    fn parse_round_trips_render() {
        let j = Json::obj(vec![
            ("s", "a\"b\\c\nd\u{1}é".into()),
            ("u", Json::U64(u64::MAX)),
            ("i", Json::I64(-7)),
            ("f", Json::F64(0.1)),
            ("e", Json::F64(1e300)),
            ("n", Json::Null),
            ("b", Json::Bool(false)),
            ("a", Json::Arr(vec![Json::obj(vec![]), Json::Arr(vec![])])),
        ]);
        assert_eq!(Json::parse(&j.render()), Ok(j));
        let spaced = Json::parse(" { \"k\" : [ 1 , 2.5 ] } ").expect("valid JSON");
        assert_eq!(
            spaced.get("k"),
            Some(&Json::Arr(vec![Json::U64(1), Json::F64(2.5)]))
        );
        assert_eq!(spaced.get("missing"), None);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "\"open",
            "tru",
            "1 2",
            "{\"a\":-}",
            "\"\\q\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn renders_nested_structures_in_order() {
        let j = Json::obj(vec![
            ("b", Json::U64(1)),
            ("a", Json::Arr(vec![Json::Null, "x".into()])),
        ]);
        assert_eq!(j.render(), r#"{"b":1,"a":[null,"x"]}"#);
    }
}
