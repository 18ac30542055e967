//! The one JSON writer: every `to_json`, `to_jsonl` and `json_fields` in
//! the workspace is built on it, so escaping, comma placement and the
//! non-finite rule live in one place.
//!
//! It writes compact JSON (no whitespace) in call order and keeps no tree:
//! the caller opens and closes objects and arrays, names keys, and hands
//! values over either as strings to escape or as tokens it already
//! formatted (`w.raw(42)`, `w.raw(format_args!("{x:.3}"))`).

use std::fmt::{Display, Write};

/// Append `s` to `out` as a quoted JSON string: `"` and `\` escaped,
/// `\n` `\r` `\t` by name, any other control character as `\u00XX`.
pub fn escape_into(out: &mut String, s: &str) {
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

/// A streaming JSON writer over one `String`.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// A `,` is owed before the next key or array element.
    comma: bool,
}

impl Writer {
    /// An empty writer. Keys and values written at the top level, outside
    /// any object, make a brace-less fragment for [`Writer::raw_fields`].
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = false;
    }

    fn open(&mut self, c: char) -> &mut Writer {
        self.sep();
        self.out.push(c);
        self
    }

    fn close(&mut self, c: char) -> &mut Writer {
        self.out.push(c);
        self.comma = true;
        self
    }

    /// `{`
    pub fn begin_object(&mut self) -> &mut Writer {
        self.open('{')
    }

    /// `}`
    pub fn end_object(&mut self) -> &mut Writer {
        self.close('}')
    }

    /// `[`
    pub fn begin_array(&mut self) -> &mut Writer {
        self.open('[')
    }

    /// `]`
    pub fn end_array(&mut self) -> &mut Writer {
        self.close(']')
    }

    /// An object key (escaped); the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Writer {
        self.sep();
        escape_into(&mut self.out, k);
        self.out.push(':');
        self
    }

    /// A string value, escaped.
    pub fn string(&mut self, s: &str) -> &mut Writer {
        self.sep();
        escape_into(&mut self.out, s);
        self.comma = true;
        self
    }

    /// A value the caller already formatted as one JSON token: an integer,
    /// a bool, `null`, or a float through `format_args!`.
    pub fn raw(&mut self, token: impl Display) -> &mut Writer {
        self.sep();
        let _ = write!(self.out, "{token}");
        self.comma = true;
        self
    }

    /// A float in its shortest round-trip form; NaN and the infinities,
    /// which JSON cannot carry, become `null`.
    pub fn float(&mut self, x: f64) -> &mut Writer {
        if x.is_finite() {
            self.raw(x)
        } else {
            self.raw("null")
        }
    }

    /// Splice in `"k":v,...` text another writer produced at its top level.
    pub fn raw_fields(&mut self, fragment: &str) -> &mut Writer {
        if !fragment.is_empty() {
            self.raw(fragment);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        escape_into(&mut out, s);
        out
    }

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(escaped("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(escaped("\n\r\t"), r#""\n\r\t""#);
        assert_eq!(escaped("\u{0}\u{1f}\u{7f}é"), "\"\\u0000\\u001f\u{7f}é\"");
        // Every character below 0x20 leaves as an escape, none raw.
        for c in (0u8..0x20).map(char::from) {
            let e = escaped(&c.to_string());
            assert!(e.starts_with("\"\\") && e.is_ascii(), "{c:?} -> {e}");
        }
    }

    #[test]
    fn commas_go_between_members_and_nowhere_else() {
        let mut w = Writer::new();
        w.begin_object();
        w.key("a").raw(1);
        w.key("b")
            .begin_array()
            .raw(2)
            .string("x")
            .raw(true)
            .end_array();
        w.key("c").begin_object().key("d").raw("null").end_object();
        w.key("e").raw(3);
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"a":1,"b":[2,"x",true],"c":{"d":null},"e":3}"#
        );
    }

    #[test]
    fn empty_containers_nest() {
        let mut w = Writer::new();
        w.begin_array();
        w.begin_object().end_object();
        w.begin_array().end_array();
        w.begin_object()
            .key("k")
            .begin_array()
            .end_array()
            .end_object();
        w.end_array();
        assert_eq!(w.finish(), r#"[{},[],{"k":[]}]"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut w = Writer::new();
        w.begin_array();
        w.float(8.5).float(2.0).float(f64::NAN);
        w.float(f64::INFINITY).float(f64::NEG_INFINITY);
        w.raw(format_args!("{:.2}", 1.0 / 3.0));
        w.end_array();
        assert_eq!(w.finish(), "[8.5,2,null,null,null,0.33]");
    }

    #[test]
    fn keys_are_escaped_and_fragments_splice() {
        let mut frag = Writer::new();
        frag.key("x").raw(1).key("y\"").string("z");
        let frag = frag.finish();
        assert_eq!(frag, r#""x":1,"y\"":"z""#);
        let mut w = Writer::new();
        w.begin_object().key("head").raw(0).raw_fields(&frag);
        w.raw_fields("").key("tail").raw(2).end_object();
        assert_eq!(w.finish(), r#"{"head":0,"x":1,"y\"":"z","tail":2}"#);
    }
}
