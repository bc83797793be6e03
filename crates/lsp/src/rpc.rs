//! JSON-RPC 2.0 framing: `Content-Length: N\r\n\r\n<body>` messages
//! over any `BufRead`/`Write` pair, plus response constructors.

use pospec_json::{ObjBuilder, Value};
use std::io::{self, BufRead, Write};

/// Standard JSON-RPC / LSP error codes.
pub mod code {
    /// Method not found.
    pub const METHOD_NOT_FOUND: i64 = -32601;
    /// Invalid request (malformed structure).
    pub const INVALID_REQUEST: i64 = -32600;
    /// Parse error (body is not JSON).
    pub const PARSE_ERROR: i64 = -32700;
    /// Request received before `initialize`.
    pub const SERVER_NOT_INITIALIZED: i64 = -32002;
    /// Request received after `shutdown`.
    pub const INVALID_DURING_SHUTDOWN: i64 = -32600;
}

/// The largest `Content-Length` a frame may declare.  A larger claim is
/// refused with `InvalidData` before any body buffer is allocated.
pub const MAX_CONTENT_LENGTH: usize = 64 << 20;

/// Read one framed message.  Returns `Ok(None)` on clean end-of-input
/// (EOF before any header byte), an error on a torn frame.  Header names
/// match case-insensitively, as in HTTP.
pub fn read_message(reader: &mut impl BufRead) -> io::Result<Option<Value>> {
    let mut content_length: Option<usize> = None;
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            return if content_length.is_none() {
                Ok(None)
            } else {
                Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF inside frame header"))
            };
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            if content_length.is_some() {
                break; // end of headers
            }
            continue; // stray blank line between frames
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.trim().eq_ignore_ascii_case("Content-Length") {
                content_length = Some(value.trim().parse::<usize>().map_err(|e| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("bad Content-Length: {e}"))
                })?);
            }
        }
        // Other headers (Content-Type) are ignored per the spec.
    }
    let len = content_length.ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, "frame without Content-Length")
    })?;
    if len > MAX_CONTENT_LENGTH {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("Content-Length {len} exceeds the {MAX_CONTENT_LENGTH} byte limit"),
        ));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    let text = String::from_utf8(body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("non-UTF-8 body: {e}")))?;
    let value = pospec_json::parse(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad JSON body: {e}")))?;
    Ok(Some(value))
}

/// Write one framed message: the header and body are rendered into one
/// buffer, handed to `writer` with a single `write_all`, then flushed.
pub fn write_message(writer: &mut impl Write, message: &Value) -> io::Result<()> {
    let body = message.to_compact();
    let frame = format!("Content-Length: {}\r\n\r\n{body}", body.len());
    writer.write_all(frame.as_bytes())?;
    writer.flush()
}

/// A successful response to request `id`.
pub fn response(id: &Value, result: Value) -> Value {
    ObjBuilder::new()
        .field("jsonrpc", "2.0")
        .field("id", id.clone())
        .field("result", result)
        .build()
}

/// An error response to request `id`.
pub fn error_response(id: &Value, code: i64, message: &str) -> Value {
    ObjBuilder::new()
        .field("jsonrpc", "2.0")
        .field("id", id.clone())
        .field(
            "error",
            ObjBuilder::new().field("code", code as f64).field("message", message).build(),
        )
        .build()
}

/// A server-initiated notification.
pub fn notification(method: &str, params: Value) -> Value {
    ObjBuilder::new()
        .field("jsonrpc", "2.0")
        .field("method", method)
        .field("params", params)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// Frame `body` exactly as a client would.
    pub fn frame(body: &str) -> Vec<u8> {
        format!("Content-Length: {}\r\n\r\n{body}", body.len()).into_bytes()
    }

    #[test]
    fn round_trip() {
        let msg = ObjBuilder::new().field("jsonrpc", "2.0").field("method", "x").build();
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).unwrap();
        let mut cursor = Cursor::new(buf);
        let back = read_message(&mut cursor).unwrap().unwrap();
        assert_eq!(back.get("method").and_then(Value::as_str), Some("x"));
        assert!(read_message(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn multiple_frames_and_extra_headers() {
        let mut bytes = Vec::new();
        bytes.extend(
            b"Content-Type: application/vscode-jsonrpc; charset=utf-8\r\nContent-Length: 2\r\n\r\n{}"
                .iter(),
        );
        bytes.extend(frame("{\"a\":1}"));
        let mut cursor = Cursor::new(bytes);
        assert!(read_message(&mut cursor).unwrap().is_some());
        let second = read_message(&mut cursor).unwrap().unwrap();
        assert_eq!(second.get("a").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn torn_frame_is_an_error() {
        let mut cursor = Cursor::new(b"Content-Length: 10\r\n\r\n{}".to_vec());
        assert!(read_message(&mut cursor).is_err());
    }

    #[test]
    fn header_names_match_case_insensitively() {
        for header in ["CONTENT-LENGTH: 2", "content-length:2", "Content-length : 2"] {
            let bytes = format!("{header}\r\n\r\n{{}}").into_bytes();
            let msg = read_message(&mut Cursor::new(bytes)).unwrap();
            assert_eq!(msg, Some(Value::Obj(vec![])), "header {header:?}");
        }
    }

    #[test]
    fn oversized_content_length_is_refused_before_allocating() {
        let mut cursor = Cursor::new(b"Content-Length: 1099511627776\r\n\r\n{}".to_vec());
        let err = read_message(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("1099511627776"), "{err}");
        // The limit itself is still accepted as a declaration.
        let at_limit = format!("Content-Length: {MAX_CONTENT_LENGTH}\r\n\r\n{{}}");
        let err = read_message(&mut Cursor::new(at_limit.into_bytes())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "torn, not refused");
    }

    #[test]
    fn surrogate_escaped_frame_reads_back_as_its_utf8_twin() {
        let read = |body: &str| read_message(&mut Cursor::new(frame(body))).unwrap().unwrap();
        let escaped = read(r#"{"text":"a\uD83E\uDD80b"}"#);
        assert_eq!(escaped, read(r#"{"text":"a🦀b"}"#));
        assert_eq!(escaped.get("text").and_then(Value::as_str), Some("a🦀b"));
    }

    /// Counts the `write` calls it receives.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write() {
        let mut out = CountingWriter::default();
        for name in ["x", "ému 🦀"] {
            let msg = ObjBuilder::new().field("jsonrpc", "2.0").field("method", name).build();
            let before = (out.writes, out.bytes.len());
            write_message(&mut out, &msg).unwrap();
            assert_eq!(out.writes, before.0 + 1, "one write per frame");
            assert_eq!(out.bytes[before.1..], frame(&msg.to_compact())[..]);
        }
    }

    #[test]
    fn utf8_body_length_is_in_bytes() {
        let msg = ObjBuilder::new().field("name", "ému 🦀").build();
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        let declared: usize =
            text.split(':').nth(1).unwrap().split('\r').next().unwrap().trim().parse().unwrap();
        assert_eq!(declared, body.len());
        assert!(declared > body.chars().count(), "length counts bytes, not chars");
        let back = read_message(&mut Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(back.get("name").and_then(Value::as_str), Some("ému 🦀"));
    }
}
