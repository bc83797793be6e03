//! Span ⇄ LSP range conversion and lint-diagnostic → LSP mapping.
//!
//! Byte-true invariant: the LSP diagnostic's `code`, `message` and the
//! byte span carried in its `data` field are the *same strings and
//! numbers* `pospec lint --json` emits — the conversion only adds the
//! UTF-16 `range` view on top, it never rewrites the lint output.
//!
//! Every conversion takes the document text with its [`LineIndex`],
//! built once per version, so a position costs a binary search.

use pospec_json::{ObjBuilder, Value};
use pospec_lang::pos::LineIndex;
use pospec_lang::Span;
use pospec_lint::{Diagnostic, Severity};

/// An LSP `Position` (0-based line, 0-based UTF-16 column).
pub fn position_json(line: u32, character: u32) -> Value {
    ObjBuilder::new().field("line", line as u64).field("character", character as u64).build()
}

/// An LSP `Range` covering `span` within `src`.
pub fn span_to_range(index: &LineIndex, src: &str, span: &Span) -> Value {
    let start = span.offset as usize;
    offset_range(index, src, start, start + span.len as usize)
}

/// The zero range used for diagnostics with no span (e.g. file-level
/// findings).
pub fn zero_range() -> Value {
    ObjBuilder::new().field("start", position_json(0, 0)).field("end", position_json(0, 0)).build()
}

/// The byte-span object `LintReport::to_json` emits, carried verbatim
/// in the LSP diagnostic's `data` field so clients (and tests) can
/// recover the exact lint span without re-deriving it from UTF-16.
pub fn byte_span_json(span: &Span) -> Value {
    ObjBuilder::new()
        .field("line", span.line as u64)
        .field("col", span.col as u64)
        .field("offset", span.offset as u64)
        .field("len", span.len as u64)
        .build()
}

/// Convert one lint diagnostic into an LSP `Diagnostic`, with notes as
/// `relatedInformation`.
pub fn diagnostic_to_lsp(index: &LineIndex, src: &str, uri: &str, d: &Diagnostic) -> Value {
    let range = match &d.span {
        Some(s) => span_to_range(index, src, s),
        None => zero_range(),
    };
    let severity: u64 = match d.severity {
        Severity::Error => 1,
        Severity::Warning => 2,
    };
    let related: Vec<Value> = d
        .notes
        .iter()
        .map(|n| {
            let nrange = match &n.span {
                Some(s) => span_to_range(index, src, s),
                None => range.clone(),
            };
            ObjBuilder::new()
                .field(
                    "location",
                    ObjBuilder::new().field("uri", uri).field("range", nrange).build(),
                )
                .field("message", n.message.as_str())
                .build()
        })
        .collect();
    let mut b = ObjBuilder::new()
        .field("range", range)
        .field("severity", severity)
        .field("code", d.code.as_str())
        .field("source", "pospec-lint")
        .field("message", d.message.as_str());
    if !related.is_empty() {
        b = b.field("relatedInformation", Value::Arr(related));
    }
    if let Some(s) = &d.span {
        b = b.field("data", byte_span_json(s));
    }
    b.build()
}

/// A `textDocument/publishDiagnostics` params object.
pub fn publish_params(uri: &str, version: Option<u64>, diagnostics: Vec<Value>) -> Value {
    let mut b = ObjBuilder::new().field("uri", uri);
    if let Some(v) = version {
        b = b.field("version", v);
    }
    b.field("diagnostics", Value::Arr(diagnostics)).build()
}

/// Extract `(line, character)` from an LSP `Position` value.
pub fn position_of(v: &Value) -> Option<(u32, u32)> {
    let line = v.get("line")?.as_u64()? as u32;
    let character = v.get("character")?.as_u64()? as u32;
    Some((line, character))
}

/// Resolve an LSP `Position` within `src` to a byte offset.
pub fn position_to_offset(index: &LineIndex, src: &str, v: &Value) -> Option<usize> {
    let (line, character) = position_of(v)?;
    index.utf16_to_offset(src, line, character)
}

/// A `Location` value for `span` in `uri`.
pub fn location_json(uri: &str, index: &LineIndex, src: &str, span: &Span) -> Value {
    ObjBuilder::new().field("uri", uri).field("range", span_to_range(index, src, span)).build()
}

/// The LSP `Range` of the byte range `start..end` (fix edits, spans).
pub fn offset_range(index: &LineIndex, src: &str, start: usize, end: usize) -> Value {
    let (sl, sc) = index.offset_to_utf16(src, start);
    let (el, ec) = index.offset_to_utf16(src, end);
    ObjBuilder::new()
        .field("start", position_json(sl, sc))
        .field("end", position_json(el, ec))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pospec_lint::Code;

    #[test]
    fn diagnostic_carries_code_message_and_byte_span() {
        let src = "universe { object o; }\n";
        let span = Span { line: 1, col: 12, offset: 11, len: 6 };
        let d = Diagnostic::new(Code::P004, "unknown object `x`".to_string()).at(span);
        let v = diagnostic_to_lsp(&LineIndex::new(src), src, "file:///t.pos", &d);
        assert_eq!(v.get("code").and_then(Value::as_str), Some("P004"));
        assert_eq!(v.get("severity").and_then(Value::as_u64), Some(1));
        let data = v.get("data").expect("byte span");
        assert_eq!(data.get("offset").and_then(Value::as_u64), Some(11));
        assert_eq!(data.get("len").and_then(Value::as_u64), Some(6));
        let start = v.get("range").and_then(|r| r.get("start")).expect("range");
        assert_eq!(position_of(start), Some((0, 11)));
    }

    #[test]
    fn multibyte_source_shifts_utf16_but_not_bytes() {
        let src = "// 🦀\nobject o;\n";
        let off = src.find("object").expect("present") as u32;
        let span = Span { line: 2, col: 1, offset: off, len: 6 };
        let d = Diagnostic::new(Code::P102, "m".to_string()).at(span);
        let v = diagnostic_to_lsp(&LineIndex::new(src), src, "u", &d);
        let start = v.get("range").and_then(|r| r.get("start")).expect("range");
        assert_eq!(position_of(start), Some((1, 0)));
        assert_eq!(
            v.get("data").and_then(|s| s.get("offset")).and_then(Value::as_u64),
            Some(off as u64)
        );
    }
}
