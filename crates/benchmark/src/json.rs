//! The JSON records the benchmark prints, built without dependencies.

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A finite number, printed with every digit Rust's shortest round-trip
    /// formatting gives it. Non-finite numbers print as `null`.
    Num(f64),
    /// An unsigned integer.
    Int(u64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// An object with its keys in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object.
    pub fn obj() -> Self {
        Value::Obj(Vec::new())
    }

    /// Appends `key: value` to an object.
    ///
    /// # Panics
    /// Panics if `self` is not an object.
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Self {
        match &mut self {
            Value::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("with() on a non-object {other:?}"),
        }
        self
    }

    /// The compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Num(x) if x.is_finite() => out.push_str(&format!("{x:?}")),
            Value::Num(_) => out.push_str("null"),
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Str(s) => write_str(s, out),
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Num(x)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Int(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Int(n as u64)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::Int(u64::from(n))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// A strict JSON syntax check (RFC 8259 values), used by the tests to show
/// every printed record parses.
#[cfg(test)]
pub fn parses(text: &str) -> bool {
    struct P<'a>(&'a [u8], usize);
    impl P<'_> {
        fn ws(&mut self) {
            while self.1 < self.0.len() && b" \t\r\n".contains(&self.0[self.1]) {
                self.1 += 1;
            }
        }
        fn eat(&mut self, b: u8) -> bool {
            self.ws();
            if self.0.get(self.1) == Some(&b) {
                self.1 += 1;
                true
            } else {
                false
            }
        }
        fn lit(&mut self, s: &str) -> bool {
            if self.0[self.1..].starts_with(s.as_bytes()) {
                self.1 += s.len();
                true
            } else {
                false
            }
        }
        fn string(&mut self) -> bool {
            if !self.eat(b'"') {
                return false;
            }
            while let Some(&c) = self.0.get(self.1) {
                self.1 += 1;
                match c {
                    b'"' => return true,
                    b'\\' => {
                        let Some(&e) = self.0.get(self.1) else {
                            return false;
                        };
                        self.1 += 1;
                        if e == b'u' {
                            let hex = self.0.get(self.1..self.1 + 4);
                            if !hex.is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit)) {
                                return false;
                            }
                            self.1 += 4;
                        } else if !b"\"\\/bfnrt".contains(&e) {
                            return false;
                        }
                    }
                    c if c < 0x20 => return false,
                    _ => {}
                }
            }
            false
        }
        fn number(&mut self) -> bool {
            let start = self.1;
            let digits = |p: &mut Self| {
                let s = p.1;
                while p.0.get(p.1).is_some_and(u8::is_ascii_digit) {
                    p.1 += 1;
                }
                p.1 > s
            };
            self.lit("-");
            if !self.lit("0") && !digits(self) {
                return false;
            }
            if self.lit(".") && !digits(self) {
                return false;
            }
            if self.lit("e") || self.lit("E") {
                let _ = self.lit("+") || self.lit("-");
                if !digits(self) {
                    return false;
                }
            }
            self.1 > start
        }
        fn value(&mut self) -> bool {
            self.ws();
            match self.0.get(self.1) {
                Some(b'{') => {
                    self.1 += 1;
                    if self.eat(b'}') {
                        return true;
                    }
                    loop {
                        self.ws();
                        if !self.string() || !self.eat(b':') || !self.value() {
                            return false;
                        }
                        if self.eat(b'}') {
                            return true;
                        }
                        if !self.eat(b',') {
                            return false;
                        }
                    }
                }
                Some(b'[') => {
                    self.1 += 1;
                    if self.eat(b']') {
                        return true;
                    }
                    loop {
                        if !self.value() {
                            return false;
                        }
                        if self.eat(b']') {
                            return true;
                        }
                        if !self.eat(b',') {
                            return false;
                        }
                    }
                }
                Some(b'"') => self.string(),
                Some(b't') => self.lit("true"),
                Some(b'f') => self.lit("false"),
                Some(b'n') => self.lit("null"),
                Some(_) => self.number(),
                None => false,
            }
        }
    }
    let mut p = P(text.as_bytes(), 0);
    let ok = p.value();
    p.ws();
    ok && p.1 == text.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_objects_with_escapes() {
        let v = Value::obj()
            .with("a", 1.5)
            .with("b", 7u64)
            .with("s", "q\"\\\n")
            .with("o", Value::obj().with("t", true));
        let text = v.render();
        assert_eq!(
            text,
            r#"{"a": 1.5, "b": 7, "s": "q\"\\\u000a", "o": {"t": true}}"#
        );
        assert!(parses(&text));
    }

    #[test]
    fn numbers_keep_every_digit_and_non_finite_is_null() {
        assert_eq!(Value::Num(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Value::Num(1e-7).render(), "1e-7");
        assert_eq!(Value::Num(f64::NAN).render(), "null");
        assert!(parses("1e-7") && parses("-0.5") && parses("[1, {\"k\": null}]"));
    }

    #[test]
    fn checker_rejects_malformed_text() {
        for bad in ["{", "{\"a\" 1}", "01x", "\"\\q\"", "[1,]", "{} {}", "nul"] {
            assert!(!parses(bad), "{bad}");
        }
    }

    #[test]
    fn names_follow_the_metric_alphabet() {
        assert!(valid_name("core.tree.select_ops_per_s"));
        assert!(valid_name("op_wall_ms_p50"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
