//! Wire-codec properties: string round trips through both the writer's
//! escapes and a client's ASCII-only `\u` escapes, one `write` per
//! record, and decode time linear in the input size.

use pospec_json::{parse, ObjBuilder, Value};
use proptest::prelude::*;
use std::io::Write;
use std::time::{Duration, Instant};

/// Characters that stress the escaper and the decoder: quotes,
/// backslashes, every kind of control character, the edges of the BMP
/// around the surrogate block, and non-BMP scalars.
const TRICKY: &str =
    "\"\\/\n\r\t\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f} aZéΓ‖\u{D7FF}\u{E000}\u{FFFD}\u{FFFF}\u{10000}🦀\u{10FFFF}";

/// Strings mixing [`TRICKY`] characters with arbitrary scalars.
fn tricky_string() -> impl Strategy<Value = String> {
    let tricky: Vec<char> = TRICKY.chars().collect();
    prop::collection::vec((0..tricky.len() * 2, any::<u32>()), 0..48).prop_map(move |picks| {
        let pick = |(i, x): (usize, u32)| {
            tricky
                .get(i)
                .copied()
                .unwrap_or_else(|| char::from_u32(x % 0x11_0000).unwrap_or('\u{FFFD}'))
        };
        picks.into_iter().map(pick).collect()
    })
}

/// `s` as a JSON literal in pure ASCII, every character a `\uXXXX`
/// escape (non-BMP characters as UTF-16 surrogate pairs), the way
/// clients that ASCII-escape their output send it.
fn ascii_escaped(s: &str) -> String {
    let mut out = String::from("\"");
    for unit in s.encode_utf16() {
        out.push_str(&format!("\\u{unit:04X}"));
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn strings_round_trip_through_both_escape_forms(s in tricky_string()) {
        let v = Value::Str(s.clone());
        let compact = v.to_compact();
        prop_assert!(!compact.bytes().any(|b| b < 0x20), "raw control byte in {compact:?}");
        prop_assert_eq!(parse(&compact).unwrap(), v.clone());
        prop_assert_eq!(parse(&ascii_escaped(&s)).unwrap(), v.clone());
        // Keys go through the same escaper and decoder as values.
        let obj = ObjBuilder::new().field(&s, v).build();
        prop_assert_eq!(parse(&obj.to_compact()).unwrap(), obj.clone());
        prop_assert_eq!(parse(&obj.to_pretty()).unwrap(), obj);
    }
}

/// Counts the `write` calls an `io::Write` receives.
#[derive(Default)]
struct CountingWriter {
    writes: usize,
    bytes: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn write_line_is_one_write_call() {
    // Shaped like a serve `check` reply: nested objects, arrays, escapes.
    let reply = ObjBuilder::new()
        .field("id", 7u64)
        .field("ok", true)
        .field("holds", false)
        .field("cached", false)
        .field("failure", "traces")
        .field("counterexample", vec!["⟨c1,o,W⟩", "⟨c2,o,R⟩", "⟨c1,o,OW⟩"])
        .field("note", "projection h/α(Γ) \"differs\"\tat event 2\n")
        .field("stats", ObjBuilder::new().field("states", 238u64).field("micros", 63.5).build())
        .build();
    let mut w = CountingWriter::default();
    reply.write_line(&mut w).unwrap();
    assert_eq!(w.writes, 1);
    assert_eq!(String::from_utf8(w.bytes).unwrap(), reply.to_compact() + "\n");
}

#[test]
fn decoding_a_4_mib_string_is_linear() {
    let unit = "αβ \"quoted\" \\ path/to\n🦀 plain ascii run; ";
    let text = unit.repeat((4 << 20) / unit.len() + 1);
    let line = Value::Str(text.clone()).to_compact();
    assert!(line.len() > 4 << 20);
    let started = Instant::now();
    let decoded = parse(&line).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(decoded.as_str(), Some(text.as_str()));
    // A linear decoder takes milliseconds even unoptimized; one that
    // rescans the rest of the input per character takes minutes here.
    assert!(elapsed < Duration::from_secs(5), "decoding 4 MiB took {elapsed:?}");
}
