//! `LineIndex` agrees with a scan from byte 0 on random UTF-8.
//!
//! The reference below is the conversion the index replaced: it counts
//! newlines from the start of the text for every query.  Texts mix
//! one- to four-byte scalars (emoji and other surrogate pairs), `\r\n`
//! and empty lines; queries include offsets inside a scalar, offsets
//! past the end, columns splitting a surrogate pair, and lines and
//! columns past the text.

use pospec_lang::pos::{floor_char_boundary, offset_to_utf16, utf16_to_offset, LineIndex};
use proptest::prelude::*;

/// Scanning reference for [`LineIndex::offset_to_utf16`].
fn scan_offset_to_utf16(src: &str, offset: usize) -> (u32, u32) {
    let off = floor_char_boundary(src, offset);
    let before = &src[..off];
    let line = before.bytes().filter(|b| *b == b'\n').count() as u32;
    let line_start = before.rfind('\n').map(|i| i + 1).unwrap_or(0);
    let col = before[line_start..].chars().map(char::len_utf16).sum::<usize>() as u32;
    (line, col)
}

/// Scanning reference for [`LineIndex::utf16_to_offset`].
fn scan_utf16_to_offset(src: &str, line: u32, col: u32) -> Option<usize> {
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
            return Some(start + i);
        }
    }
    Some(end)
}

/// Scalars of every UTF-8 width, line breaks of both kinds, and
/// surrogate pairs in UTF-16.
const PALETTE: &[&str] =
    &["a", "Z", " ", ";", "é", "Ω", "中", "€", "🦀", "𝔘", "😀", "\n", "\n", "\r\n", "\r"];

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..PALETTE.len(), 0..48)
        .prop_map(|picks| picks.into_iter().map(|i| PALETTE[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn offsets_agree_with_the_scan(src in text(), probe in any::<u16>()) {
        let index = LineIndex::new(&src);
        // Every byte offset, including mid-scalar ones, plus a few past
        // the end.
        for offset in 0..src.len() + 6 {
            prop_assert_eq!(
                index.offset_to_utf16(&src, offset),
                scan_offset_to_utf16(&src, offset),
                "offset {} of {:?}", offset, src
            );
        }
        let far = src.len() + probe as usize;
        prop_assert_eq!(index.offset_to_utf16(&src, far), scan_offset_to_utf16(&src, far));
        prop_assert_eq!(offset_to_utf16(&src, far), scan_offset_to_utf16(&src, far));
    }

    #[test]
    fn positions_agree_with_the_scan(src in text(), probe in (0u32..64, 0u32..64)) {
        let index = LineIndex::new(&src);
        let lines = src.matches('\n').count() as u32 + 1;
        let widest = src.split('\n').map(|l| l.encode_utf16().count()).max().unwrap_or(0) as u32;
        // Every line and one past the last; every column up to a few
        // past the widest line.
        for line in 0..lines + 2 {
            for col in 0..widest + 4 {
                prop_assert_eq!(
                    index.utf16_to_offset(&src, line, col),
                    scan_utf16_to_offset(&src, line, col),
                    "line {} col {} of {:?}", line, col, src
                );
            }
        }
        let (line, col) = probe;
        prop_assert_eq!(
            utf16_to_offset(&src, line, col),
            scan_utf16_to_offset(&src, line, col)
        );
    }

    #[test]
    fn boundaries_round_trip(src in text()) {
        let index = LineIndex::new(&src);
        for (offset, _) in src.char_indices().chain(std::iter::once((src.len(), ' '))) {
            let (line, col) = index.offset_to_utf16(&src, offset);
            // A `\r` before a `\n` is part of its line, so every scalar
            // boundary is addressable and maps back to itself.
            prop_assert_eq!(index.utf16_to_offset(&src, line, col), Some(offset));
        }
    }
}

#[test]
fn empty_text_has_one_empty_line() {
    let index = LineIndex::new("");
    assert_eq!(index.offset_to_utf16("", 0), (0, 0));
    assert_eq!(index.offset_to_utf16("", 9), (0, 0));
    assert_eq!(index.utf16_to_offset("", 0, 5), Some(0));
    assert_eq!(index.utf16_to_offset("", 1, 0), None);
}
