//! The one JSON writer behind every artifact the workspace emits.
//!
//! A [`Json`] is an open root object. [`Json::raw`] appends a verbatim
//! `Display` value, [`Json::str`] an escaped string, and [`Json::obj`],
//! [`Json::arr`] and [`Json::nest`] a container filled by a closure;
//! [`Json::finish`] closes whatever is open. An empty key writes a bare
//! value, which is how array elements are written.
//!
//! Every member is followed by its container's separator, and closing a
//! container retracts the last one. An open pretty document therefore
//! ends in `,\n` after each member, so the bytes written so far do not
//! depend on what follows: [`Json::fingerprint`] hashes exactly them,
//! the `results_fnv1a64` body of the serve and time-series reports.

use crate::manifest::{fnv1a64, RunManifest};
use std::fmt::{Display, Write as _};

/// How one container lays out its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One member per line, two spaces of indent per level, `"key": value`.
    Pretty,
    /// No whitespace: `{"key":value}`, `[1,2]`.
    Compact,
    /// One line: `{ "key": value, "k": v }`, `[1, 2]`.
    Inline,
}

impl Layout {
    fn separator(self) -> &'static str {
        match self {
            Layout::Pretty => ",\n",
            Layout::Compact => ",",
            Layout::Inline => ", ",
        }
    }
}

/// A JSON document under construction; see the [module docs](self).
#[derive(Debug)]
pub struct Json {
    out: String,
    /// Layout and opening bracket of each open container, root first.
    open: Vec<(Layout, char)>,
}

impl Json {
    /// A document whose root object is [`Layout::Pretty`].
    #[must_use]
    pub fn pretty() -> Json {
        Json::root(Layout::Pretty)
    }

    /// A document whose root object is [`Layout::Compact`].
    #[must_use]
    pub fn compact() -> Json {
        Json::root(Layout::Compact)
    }

    fn root(layout: Layout) -> Json {
        let mut j = Json {
            out: String::new(),
            open: Vec::new(),
        };
        j.begin(layout, '{');
        j
    }

    fn layout(&self) -> Layout {
        self.open
            .last()
            .map_or(Layout::Compact, |&(layout, _)| layout)
    }

    fn indent(&mut self) {
        for _ in 0..self.open.len() {
            self.out.push_str("  ");
        }
    }

    /// Indent (pretty only) and `"key": ` of a new member.
    fn key(&mut self, key: &str) {
        let layout = self.layout();
        if layout == Layout::Pretty {
            self.indent();
        }
        if !key.is_empty() {
            self.out.push('"');
            json_escape(&mut self.out, key);
            self.out.push_str(match layout {
                Layout::Compact => "\":",
                _ => "\": ",
            });
        }
    }

    fn begin(&mut self, layout: Layout, bracket: char) {
        self.out.push(bracket);
        match (layout, bracket) {
            (Layout::Pretty, _) => self.out.push('\n'),
            (Layout::Inline, '{') => self.out.push(' '),
            _ => {}
        }
        self.open.push((layout, bracket));
    }

    /// Closes the innermost container, retracting its last separator.
    fn end(&mut self) {
        let Some((layout, bracket)) = self.open.pop() else {
            return;
        };
        let sep = layout.separator();
        if self.out.ends_with(sep) {
            self.out.truncate(self.out.len() - sep.len());
            if layout == Layout::Pretty {
                self.out.push('\n');
            }
        }
        match (layout, bracket) {
            (Layout::Pretty, _) => self.indent(),
            (Layout::Inline, '{') => self.out.push(' '),
            _ => {}
        }
        self.out.push(if bracket == '{' { '}' } else { ']' });
    }

    fn separate(&mut self) -> &mut Self {
        self.out.push_str(self.layout().separator());
        self
    }

    /// A member written verbatim with `Display`: a number, a boolean,
    /// `null`, `format_args!("{x:.6}")` or an already rendered value.
    pub fn raw(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self.separate()
    }

    /// A string member, quoted and escaped.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.out.push('"');
        json_escape(&mut self.out, value);
        self.out.push('"');
        self.separate()
    }

    /// A nested object in this container's layout, filled by `fill`.
    pub fn obj(&mut self, key: &str, fill: impl FnOnce(&mut Json)) -> &mut Self {
        self.nest(key, self.layout(), '{', fill)
    }

    /// A nested array in this container's layout, filled by `fill`.
    pub fn arr(&mut self, key: &str, fill: impl FnOnce(&mut Json)) -> &mut Self {
        self.nest(key, self.layout(), '[', fill)
    }

    /// A nested object (`bracket` `{`) or array (`[`) in `layout`.
    pub fn nest(
        &mut self,
        key: &str,
        layout: Layout,
        bracket: char,
        fill: impl FnOnce(&mut Json),
    ) -> &mut Self {
        self.key(key);
        self.begin(layout, bracket);
        fill(self);
        self.end();
        self.separate()
    }

    /// The run manifest as a `"manifest"` object member.
    pub fn manifest(&mut self, manifest: &RunManifest) -> &mut Self {
        self.obj("manifest", |j| manifest.write_fields(j))
    }

    /// `fnv1a64:<16 hex>` of every member written so far.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let body = self.out.strip_prefix("{\n").unwrap_or(&self.out[1..]);
        format!("fnv1a64:{:016x}", fnv1a64(body.as_bytes()))
    }

    /// Closes a results document: `results_fnv1a64` over the members
    /// written so far, the manifest, the root and a trailing newline.
    #[must_use]
    pub fn finish_fingerprinted(mut self, manifest: &RunManifest) -> String {
        let hash = self.fingerprint();
        self.str("results_fnv1a64", &hash).manifest(manifest);
        self.finish() + "\n"
    }

    /// Closes every open container and returns the document, without
    /// a trailing newline.
    #[must_use]
    pub fn finish(mut self) -> String {
        while !self.open.is_empty() {
            self.end();
        }
        self.out
    }
}

/// Appends `s` escaped for a JSON string literal.
fn json_escape(out: &mut String, s: &str) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_retracts_separators_and_fingerprints_the_open_body() {
        let mut j = Json::pretty();
        j.str("a", "x");
        assert_eq!(
            j.fingerprint(),
            format!("fnv1a64:{:016x}", fnv1a64(b"  \"a\": \"x\",\n"))
        );
        j.obj("o", |j| {
            j.raw("n", 1).arr("empty", |_| {});
        });
        assert_eq!(
            j.finish(),
            "{\n  \"a\": \"x\",\n  \"o\": {\n    \"n\": 1,\n    \"empty\": [\n    ]\n  }\n}"
        );
    }

    #[test]
    fn inline_layout_pads_objects_not_arrays() {
        let mut j = Json::pretty();
        j.nest("o", Layout::Inline, '{', |j| {
            j.raw("a", 1).raw("b", 2);
        })
        .nest("v", Layout::Inline, '[', |j| {
            j.str("", "p").str("", "q");
        })
        .nest("e", Layout::Inline, '[', |_| {});
        assert_eq!(
            j.finish(),
            "{\n  \"o\": { \"a\": 1, \"b\": 2 },\n  \"v\": [\"p\", \"q\"],\n  \"e\": []\n}"
        );
    }

    #[test]
    fn compact_escapes_strings_and_keys() {
        let mut j = Json::compact();
        j.str("k\"", "a\"b\\c\nd\u{1}").arr("v", |j| {
            j.raw("", 2).raw("", 3);
        });
        assert_eq!(
            j.finish(),
            "{\"k\\\"\":\"a\\\"b\\\\c\\nd\\u0001\",\"v\":[2,3]}"
        );
    }
}
