//! The workspace's one JSON text writer: every `--json` document and
//! `results/*.json` file is an [`Object`] rendered here. A *block*
//! object puts each field on its own line, two spaces deeper than its
//! braces; an *inline* object puts them all on one line. Arrays put one
//! item per line (an empty one is `[`, newline, `]`). Keys and strings
//! are escaped. Numbers are tokens the caller already formatted, so
//! `{:.4}` or `{:e}` output comes through unchanged.

use std::fmt::{Display, Write as _};

/// A JSON object under construction: its fields, already rendered as
/// `"key": value` text, in insertion order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[must_use]
pub struct Object {
    fields: Vec<String>,
    inline: bool,
}

impl Object {
    /// An empty object that renders one field per line.
    pub fn block() -> Self {
        Self::default()
    }

    /// An empty object that renders on one line.
    pub fn inline() -> Self {
        Self {
            fields: Vec::new(),
            inline: true,
        }
    }

    fn field(mut self, key: &str, value: &str) -> Self {
        self.fields.push(format!("{}: {value}", quote(key)));
        self
    }

    /// Adds a number (or boolean) written exactly as `token` displays.
    pub fn num(self, key: &str, token: impl Display) -> Self {
        self.field(key, &token.to_string())
    }

    /// Adds one number per `(name, value)` pair, keyed `{prefix}{name}`.
    pub fn nums<N: Display, V: Display>(
        self,
        prefix: &str,
        pairs: impl IntoIterator<Item = (N, V)>,
    ) -> Self {
        pairs.into_iter().fold(self, |object, (name, value)| {
            object.num(&format!("{prefix}{name}"), value)
        })
    }

    /// Adds a string, escaped.
    pub fn str(self, key: &str, value: impl Display) -> Self {
        self.field(key, &quote(&value.to_string()))
    }

    /// Adds `null`.
    pub fn null(self, key: &str) -> Self {
        self.field(key, "null")
    }

    /// Adds a nested object, laid out as that object was built.
    pub fn object(self, key: &str, value: Object) -> Self {
        self.field(key, &value.render())
    }

    /// Adds an array of objects, one per line.
    pub fn array(self, key: &str, items: impl IntoIterator<Item = Object>) -> Self {
        let items: Vec<String> = items.into_iter().map(|item| item.render()).collect();
        self.field(key, &list(['[', ']'], &items))
    }

    /// The JSON text, with no trailing newline.
    pub fn render(&self) -> String {
        if self.inline {
            format!("{{{}}}", self.fields.join(", "))
        } else {
            list(['{', '}'], &self.fields)
        }
    }
}

/// `items` one per line between `brackets`, each indented two spaces
/// deeper (its own inner lines included); the closing bracket gets a
/// line of its own even when there are no items.
fn list(brackets: [char; 2], items: &[String]) -> String {
    let mut out = String::from(brackets[0]);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  ");
        out.push_str(&item.replace('\n', "\n  "));
    }
    out.push('\n');
    out.push(brackets[1]);
    out
}

/// `s` as a quoted JSON string: `"`, `\` and every control character
/// are escaped, so any UTF-8 name a wire peer sends stays one string
/// (and a rendered value never holds a raw newline of its own).
fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_and_inline_layouts_nest() {
        let doc = Object::block()
            .num("n", 1)
            .object("inline", Object::inline().num("a", 1).str("b", "x"))
            .object("block", Object::block().num("c", true))
            .array(
                "items",
                [Object::block().num("d", 2), Object::inline().null("e")],
            );
        assert_eq!(
            doc.render(),
            "{\n  \"n\": 1,\n  \"inline\": {\"a\": 1, \"b\": \"x\"},\n  \"block\": {\n    \
             \"c\": true\n  },\n  \"items\": [\n    {\n      \"d\": 2\n    },\n    \
             {\"e\": null}\n  ]\n}"
        );
    }

    #[test]
    fn empty_containers_keep_their_line_break() {
        let doc = Object::block()
            .array("items", [])
            .object("block", Object::block())
            .object("inline", Object::inline());
        assert_eq!(
            doc.render(),
            "{\n  \"items\": [\n  ],\n  \"block\": {\n  },\n  \"inline\": {}\n}"
        );
    }

    #[test]
    fn number_tokens_pass_through_and_nums_prefix_their_keys() {
        let doc = Object::inline()
            .num("e", format!("{:e}", 1e-4))
            .num("f", format!("{:.2}", 4.0))
            .nums("route.", [("a", 1u64), ("b", 2)]);
        assert_eq!(
            doc.render(),
            "{\"e\": 1e-4, \"f\": 4.00, \"route.a\": 1, \"route.b\": 2}"
        );
    }

    #[test]
    fn keys_and_strings_are_escaped() {
        let doc = Object::inline().str("a\"b\\c\n", "tab\there\u{1}");
        assert_eq!(doc.render(), "{\"a\\\"b\\\\c\\n\": \"tab\\there\\u0001\"}");
    }
}
