//! Minimal hand-rolled JSON emission.
//!
//! The workspace builds without registry access, so there is no serde;
//! traces only ever need flat objects of numbers and short strings, which
//! this builder covers in ~100 lines. Output is always a single line
//! (JSONL-safe): no pretty printing, and non-finite floats become `null`
//! as JSON has no representation for them.

/// Escapes a string for inclusion in a JSON document (without quotes).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Incremental builder for one flat JSON object.
#[derive(Debug)]
pub struct JsonObj {
    buf: String,
    empty: bool,
}

impl Default for JsonObj {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonObj {
    pub fn new() -> Self {
        JsonObj {
            buf: String::from("{"),
            empty: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.empty {
            self.buf.push(',');
        }
        self.empty = false;
        self.buf.push('"');
        self.buf.push_str(&escape_json(k));
        self.buf.push_str("\":");
    }

    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.buf.push('"');
        self.buf.push_str(&escape_json(v));
        self.buf.push('"');
        self
    }

    /// Writes a float; non-finite values become `null`. Finite values use
    /// Rust's shortest-roundtrip formatting, which is valid JSON.
    pub fn field_f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        if v.is_finite() {
            self.buf.push_str(&format!("{v}"));
            // `{}` on an integral f64 prints without a decimal point,
            // which is still a valid JSON number.
        } else {
            self.buf.push_str("null");
        }
        self
    }

    pub fn field_u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        self.buf.push_str(&format!("{v}"));
        self
    }

    pub fn field_bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Writes a pre-serialised JSON value verbatim (e.g. a nested object
    /// built by another `JsonObj`, or an array the caller assembled).
    pub fn field_raw(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Closes the object and returns the serialised string.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Serialises a slice of u64s as a JSON array (for `field_raw`).
pub fn u64_array(values: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{v}"));
    }
    out.push(']');
    out
}

/// Serialises a slice of f64s as a JSON array (for `field_raw`).
/// Non-finite values become `null`, matching [`JsonObj::field_f64`].
pub fn f64_array(values: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if v.is_finite() {
            out.push_str(&format!("{v}"));
        } else {
            out.push_str("null");
        }
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_flat_object() {
        let mut o = JsonObj::new();
        o.field_str("name", "a\"b\\c")
            .field_f64("x", 1.5)
            .field_f64("inf", f64::INFINITY)
            .field_u64("n", 7)
            .field_bool("ok", true)
            .field_raw("arr", &u64_array(&[1, 2, 3]));
        assert_eq!(
            o.finish(),
            r#"{"name":"a\"b\\c","x":1.5,"inf":null,"n":7,"ok":true,"arr":[1,2,3]}"#
        );
    }

    #[test]
    fn empty_object() {
        assert_eq!(JsonObj::new().finish(), "{}");
    }

    #[test]
    fn control_chars_escaped() {
        assert_eq!(escape_json("a\nb\u{1}"), "a\\nb\\u0001");
    }

    #[test]
    fn integral_floats_are_valid_json() {
        let mut o = JsonObj::new();
        o.field_f64("v", 3.0);
        assert_eq!(o.finish(), r#"{"v":3}"#);
    }
}
