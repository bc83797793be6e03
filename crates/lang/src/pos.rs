//! Byte-offset ⇄ UTF-16 position mapping.
//!
//! [`Span`] is byte-based (1-based line, 1-based
//! byte column, byte offset/length) because the lexer and the caret
//! renderer work on `&str` slices.  The Language Server Protocol
//! instead addresses text by 0-based line and **UTF-16 code-unit**
//! column.  The conversions live here so every consumer (the LSP
//! server, the caret renderer's boundary clamping) agrees on the same
//! rounding rules:
//!
//! * offsets that fall inside a multi-byte scalar round *down* to the
//!   scalar's first byte;
//! * UTF-16 columns that land on the low surrogate of a pair round
//!   down to the pair's start;
//! * columns past the end of a line clamp to the line end (exclusive
//!   of the newline), matching the LSP specification's "defaults back
//!   to the line length".

use crate::lexer::Span;

/// Round `i` down to the nearest UTF-8 character boundary of `src`
/// (clamping past-the-end offsets to `src.len()`).
pub fn floor_char_boundary(src: &str, i: usize) -> usize {
    let mut i = i.min(src.len());
    while i > 0 && !src.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// Convert a byte offset into `(line, column)` with a 0-based line and
/// a 0-based UTF-16 code-unit column.  Offsets beyond the text clamp
/// to the end; offsets inside a multi-byte scalar round down.
pub fn offset_to_utf16(src: &str, offset: usize) -> (u32, u32) {
    let off = floor_char_boundary(src, offset);
    let before = &src[..off];
    let line = before.bytes().filter(|b| *b == b'\n').count() as u32;
    let line_start = before.rfind('\n').map(|i| i + 1).unwrap_or(0);
    let col = before[line_start..].chars().map(char::len_utf16).sum::<usize>() as u32;
    (line, col)
}

/// Convert a 0-based line and 0-based UTF-16 column into a byte
/// offset.  Columns past the line end clamp to the line end; columns
/// splitting a surrogate pair round down to the scalar's start.
/// Returns `None` when `line` exceeds the number of lines in `src`.
pub fn utf16_to_offset(src: &str, line: u32, col: u32) -> Option<usize> {
    let mut start = 0usize;
    for _ in 0..line {
        start = src[start..].find('\n').map(|i| start + i + 1)?;
    }
    let end = src[start..].find('\n').map(|i| start + i).unwrap_or(src.len());
    let mut units = 0u32;
    for (i, ch) in src[start..end].char_indices() {
        if units >= col {
            return Some(start + i);
        }
        units += ch.len_utf16() as u32;
        if units > col {
            // `col` splits a surrogate pair: round down to its start.
            return Some(start + i);
        }
    }
    Some(end)
}

impl Span {
    /// This span's start as a 0-based `(line, UTF-16 column)` pair.
    pub fn utf16_start(&self, src: &str) -> (u32, u32) {
        offset_to_utf16(src, self.offset as usize)
    }

    /// This span's (exclusive) end as a 0-based `(line, UTF-16
    /// column)` pair.
    pub fn utf16_end(&self, src: &str) -> (u32, u32) {
        offset_to_utf16(src, self.offset as usize + self.len as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_round_trip() {
        let src = "universe {\n  object o;\n}\n";
        for (i, _) in src.char_indices() {
            let (l, c) = offset_to_utf16(src, i);
            assert_eq!(utf16_to_offset(src, l, c), Some(i), "offset {i}");
        }
    }

    #[test]
    fn multibyte_columns_count_utf16_units() {
        // 'é' is 2 UTF-8 bytes but 1 UTF-16 unit; '𝔘' (U+1D518) is 4
        // UTF-8 bytes and a surrogate pair (2 UTF-16 units).
        let src = "é𝔘x";
        assert_eq!(offset_to_utf16(src, 0), (0, 0));
        assert_eq!(offset_to_utf16(src, 2), (0, 1)); // after é
        assert_eq!(offset_to_utf16(src, 6), (0, 3)); // after 𝔘
        assert_eq!(utf16_to_offset(src, 0, 1), Some(2));
        assert_eq!(utf16_to_offset(src, 0, 3), Some(6));
        // A column splitting the surrogate pair rounds down.
        assert_eq!(utf16_to_offset(src, 0, 2), Some(2));
    }

    #[test]
    fn emoji_in_comments_do_not_shift_later_lines() {
        let src = "// 🦀🦀 spec below\nspec S;\n";
        let spec_off = src.find("spec S").unwrap();
        let (l, c) = offset_to_utf16(src, spec_off);
        assert_eq!((l, c), (1, 0));
        assert_eq!(utf16_to_offset(src, 1, 0), Some(spec_off));
        // On the emoji line, each 🦀 costs 2 UTF-16 units.
        let crab2 = src.find("🦀").unwrap() + "🦀".len();
        assert_eq!(offset_to_utf16(src, crab2), (0, 5)); // "// " + 2 units
    }

    #[test]
    fn mid_scalar_offsets_round_down() {
        let src = "a🦀b";
        // Bytes 2..5 are inside the emoji (starts at 1, 4 bytes long).
        for i in 2..5 {
            assert_eq!(offset_to_utf16(src, i), (0, 1));
        }
        assert_eq!(offset_to_utf16(src, 5), (0, 3));
    }

    #[test]
    fn clamping_past_line_and_text_end() {
        let src = "ab\ncd";
        assert_eq!(utf16_to_offset(src, 0, 99), Some(2));
        assert_eq!(utf16_to_offset(src, 1, 99), Some(5));
        assert_eq!(utf16_to_offset(src, 2, 0), None);
        assert_eq!(offset_to_utf16(src, 999), (1, 2));
    }

    #[test]
    fn span_range_conversion() {
        let src = "spec Ému;\n";
        let off = src.find("Ému").unwrap();
        let span =
            Span { line: 1, col: off as u32 + 1, offset: off as u32, len: "Ému".len() as u32 };
        assert_eq!(span.utf16_start(src), (0, 5));
        assert_eq!(span.utf16_end(src), (0, 8)); // É is 1 UTF-16 unit
    }

    #[test]
    fn floor_boundary_clamps() {
        let src = "🦀";
        assert_eq!(floor_char_boundary(src, 0), 0);
        assert_eq!(floor_char_boundary(src, 3), 0);
        assert_eq!(floor_char_boundary(src, 4), 4);
        assert_eq!(floor_char_boundary(src, 10), 4);
    }
}
