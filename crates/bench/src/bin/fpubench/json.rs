//! A JSON parser into `serde_json::Value`. The vendored `serde_json`
//! builds and writes documents but cannot read them; `BENCHMARK.json`
//! and the result documents `fpubench compare` reads need a parser.

use serde_json::{Number, Value};

/// Parse one JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing characters at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    s: &'a [u8],
    /// Always on a character boundary of `text`.
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.i))
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            self.err(&format!("expected `{lit}`"))
        }
    }

    /// The next `,` of a list, or its closing byte (then `true`).
    fn next_or_close(&mut self, close: u8) -> Result<bool, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b',') => {
                self.i += 1;
                Ok(false)
            }
            Some(&b) if b == close => {
                self.i += 1;
                Ok(true)
            }
            _ => self.err(&format!("expected `,` or `{}`", close as char)),
        }
    }

    /// Consume an opening bracket; `true` when the list is empty.
    fn open(&mut self, close: u8) -> bool {
        self.i += 1;
        self.ws();
        let empty = self.s.get(self.i) == Some(&close);
        if empty {
            self.i += 1;
        }
        empty
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i) {
            None => self.err("unexpected end"),
            Some(b'n') => self.eat("null").map(|_| Value::Null),
            Some(b't') => self.eat("true").map(|_| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                let mut items = Vec::new();
                if !self.open(b']') {
                    loop {
                        items.push(self.value()?);
                        if self.next_or_close(b']')? {
                            break;
                        }
                    }
                }
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut pairs = Vec::new();
                if !self.open(b'}') {
                    loop {
                        self.ws();
                        if self.s.get(self.i) != Some(&b'"') {
                            return self.err("expected a key");
                        }
                        let k = self.string()?;
                        self.ws();
                        self.eat(":")?;
                        pairs.push((k, self.value()?));
                        if self.next_or_close(b'}')? {
                            break;
                        }
                    }
                }
                Ok(Value::Object(pairs))
            }
            Some(_) => self.number(),
        }
    }

    /// Integers stay exact, as `serde_json` keeps them; anything else
    /// is an `f64`.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
            self.i += 1;
        }
        let text = &self.text[start..self.i];
        let n = match (
            text.parse::<u64>(),
            text.parse::<i64>(),
            text.parse::<f64>(),
        ) {
            (Ok(u), _, _) => Number::U(u),
            (_, Ok(i), _) => Number::I(i),
            (_, _, Ok(x)) => Number::F(x),
            _ => {
                self.i = start;
                return self.err("expected a value");
            }
        };
        Ok(Value::Number(n))
    }

    fn string(&mut self) -> Result<String, String> {
        self.i += 1; // opening quote
        let mut out = String::new();
        loop {
            let Some(c) = self.text[self.i..].chars().next() else {
                return self.err("unterminated string");
            };
            self.i += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    out.push(match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self
                                .text
                                .get(self.i..self.i + 4)
                                .ok_or("short \\u escape")?;
                            self.i += 4;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return self.err("bad escape"),
                    });
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn reads_back_what_serde_json_writes() {
        let doc = json!({
            "correct": true,
            "attempted": 1000u64,
            "failed": 0u64,
            "metrics": json!({"latency_p50_us": json!({"value": 83.125, "unit": "us"})}),
            "note": "tab\t\"quoted\" µs",
            "list": json!([Value::Null, -1.5e-7, -3i64]),
        });
        let text = serde_json::to_string(&doc).expect("serializes");
        assert_eq!(parse(&text), Ok(doc));
    }

    #[test]
    fn parses_pretty_input_and_rejects_garbage() {
        let v = parse("{\n  \"a\": [1, 2.5e3, {\"b\": null}],\n  \"c\": \"\\u00b5\"\n}\n")
            .expect("valid");
        assert_eq!(v["a"].as_array().map(Vec::len), Some(3));
        assert_eq!(v["a"][0].as_u64(), Some(1));
        assert_eq!(v["a"][1].as_f64(), Some(2500.0));
        assert_eq!(v["c"], "µ");
        for bad in ["{\"a\": }", "[1, 2", "{} x", "[1 2]", "\"\\u00", "-"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
