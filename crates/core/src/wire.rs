//! The serving wire format: allocation-free HTTP/1.1 head parsing and
//! response serialization over reused buffers.
//!
//! The gatekeeper's request cycle ([`crate::serve`]) is allocation-free
//! once a connection is warmed, in the same style the fused training
//! step uses for its workspaces: every per-request artifact lives in a
//! buffer owned by the worker or the connection and is `clear()`ed, not
//! reallocated. This module holds the pure parsing/serialization pieces
//! so they can be unit-tested and benchmarked without sockets:
//!
//! * [`parse_head`] — an incremental HTTP/1.1 request-head parser over a
//!   byte slice. Returns borrowed ranges for method/path instead of
//!   `String`s, and mirrors the previous `BufReader::read_line` parser
//!   line for line (lines split on `\n`, trailing whitespace trimmed,
//!   `split_whitespace` request line, case-insensitive headers) so
//!   responses stay byte-identical.
//! * [`parse_record_body`] — a strict single-pass parser for the two hot
//!   ingest bodies `{"record":[...]}` and `{"records":[[...],...]}`,
//!   writing straight into reused row buffers. Number tokens replicate
//!   the vendored `serde_json` classification exactly (a token is a
//!   float iff the greedy scan consumed `.`/`e`/`E`/`+`/`-` past the
//!   leading sign; integers parse as `i128` then cast) so the parsed
//!   `f64`s are bitwise identical to the tree parser's. Any deviation
//!   from the strict grammar reports [`BodyParse::Fallback`] and the
//!   caller re-parses through the general tree parser — which also owns
//!   every error message, so error responses stay byte-identical too.
//! * [`parse_record_body_slow`] — the general tree-parser fallback. It
//!   owns every error message, so the fast/slow split is invisible on
//!   the wire (`crates/core/tests/wire_fallback.rs` pins the contract:
//!   any body the fast parser accepts parses bit-identically here).
//! * [`write_head`] / [`write_single_score`] / [`write_batch_scores`] /
//!   [`write_error_body`] — response serialization into reused buffers
//!   via `fmt::Write` and the shared shortest-roundtrip float writer
//!   ([`serde::write_json_f64`]); no `format!` temporaries.
//!
//! The router tier ([`crate::route`]) reuses the same parser in both
//! directions: [`parse_head`] reads a *response* head too (the status
//! line tokenizes like a request line, with the code landing in the
//! `path` span), which is how the proxy frames upstream replies without
//! copying them.

use serde_json::Value;
use std::io::Write as _;

/// Byte range into the connection buffer (start, end).
pub type Span = (usize, usize);

/// A parsed request head: borrowed ranges plus framing facts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Head {
    /// Range of the method token.
    pub method: Span,
    /// Range of the request-target token.
    pub path: Span,
    /// Declared body length (0 when absent).
    pub content_length: usize,
    /// Whether the connection stays open after the response.
    pub keep_alive: bool,
    /// Bytes consumed by the head, including the blank line.
    pub head_len: usize,
}

/// Outcome of one [`parse_head`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadParse {
    /// A complete head was parsed.
    Complete(Head),
    /// The buffer does not yet hold a complete head; read more bytes.
    Partial,
    /// The head is unreadable (invalid UTF-8); close without a response,
    /// mirroring the old reader's `Hangup` on `read_line` errors.
    Hangup,
    /// Malformed head; answer with this status and message, then close.
    Bad(u16, &'static str),
}

/// Incrementally parse an HTTP/1.1 request head from `buf`.
///
/// `max_head` bounds the head block (request line + headers); a longer
/// head is rejected rather than buffered without limit.
pub fn parse_head(buf: &[u8], max_head: usize) -> HeadParse {
    let mut pos = 0usize;
    let mut line_no = 0usize;
    let mut head =
        Head { method: (0, 0), path: (0, 0), content_length: 0, keep_alive: false, head_len: 0 };
    loop {
        let Some(nl) = buf[pos..].iter().position(|&b| b == b'\n') else {
            if buf.len() - pos > max_head {
                return HeadParse::Bad(400, "header block too large");
            }
            return HeadParse::Partial;
        };
        let raw = &buf[pos..pos + nl + 1];
        let line_start = pos;
        pos += nl + 1;
        if pos > max_head {
            return HeadParse::Bad(400, "header block too large");
        }
        let Ok(line) = std::str::from_utf8(raw) else {
            return HeadParse::Hangup;
        };
        let line = line.trim_end();
        if line_no == 0 {
            let mut parts = line.split_whitespace();
            let (Some(m), Some(p), Some(v)) = (parts.next(), parts.next(), parts.next()) else {
                return HeadParse::Bad(400, "malformed request line");
            };
            let base = line_start;
            let off = |tok: &str| {
                let s = base + (tok.as_ptr() as usize - raw.as_ptr() as usize);
                (s, s + tok.len())
            };
            head.method = off(m);
            head.path = off(p);
            head.keep_alive = v == "HTTP/1.1";
        } else if line.is_empty() {
            head.head_len = pos;
            return HeadParse::Complete(head);
        } else if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                match value.parse() {
                    Ok(n) => head.content_length = n,
                    Err(_) => return HeadParse::Bad(400, "bad content-length"),
                }
            } else if name.eq_ignore_ascii_case("connection") {
                head.keep_alive = !value.eq_ignore_ascii_case("close");
            }
        }
        line_no += 1;
    }
}

// ------------------------------------------------------------ body parse

/// Outcome of the strict fast-path record-body parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyParse {
    /// The body parsed; rows are in the caller's buffers.
    Parsed,
    /// The body deviates from the strict hot grammar (or is outright
    /// invalid); the caller must re-parse through the general tree
    /// parser, which owns both lenient acceptance and error wording.
    Fallback,
}

/// Parse `{"record":[...]}` (`batch == false`) or
/// `{"records":[[...],...]}` (`batch == true`) into reused buffers:
/// `rows` receives every value flattened, `row_ends` the exclusive end
/// offset of each row in `rows`. `null` entries become NaN gaps per the
/// repo-wide JSON float convention.
pub fn parse_record_body(
    body: &[u8],
    batch: bool,
    rows: &mut Vec<f64>,
    row_ends: &mut Vec<usize>,
) -> BodyParse {
    rows.clear();
    row_ends.clear();
    let mut pos = 0usize;
    let b = body;
    skip_ws(b, &mut pos);
    if !eat(b, &mut pos, b"{") {
        return BodyParse::Fallback;
    }
    skip_ws(b, &mut pos);
    let key: &[u8] = if batch { b"\"records\"" } else { b"\"record\"" };
    if !eat(b, &mut pos, key) {
        return BodyParse::Fallback;
    }
    skip_ws(b, &mut pos);
    if !eat(b, &mut pos, b":") {
        return BodyParse::Fallback;
    }
    skip_ws(b, &mut pos);
    if batch {
        if !eat(b, &mut pos, b"[") {
            return BodyParse::Fallback;
        }
        skip_ws(b, &mut pos);
        if eat(b, &mut pos, b"]") {
            // Zero rows: defer to the tree parser's empty-batch handling.
        } else {
            loop {
                if parse_row(b, &mut pos, rows) == BodyParse::Fallback {
                    return BodyParse::Fallback;
                }
                row_ends.push(rows.len());
                skip_ws(b, &mut pos);
                if eat(b, &mut pos, b",") {
                    skip_ws(b, &mut pos);
                    continue;
                }
                if eat(b, &mut pos, b"]") {
                    break;
                }
                return BodyParse::Fallback;
            }
        }
    } else {
        if parse_row(b, &mut pos, rows) == BodyParse::Fallback {
            return BodyParse::Fallback;
        }
        row_ends.push(rows.len());
    }
    skip_ws(b, &mut pos);
    if !eat(b, &mut pos, b"}") {
        return BodyParse::Fallback;
    }
    skip_ws(b, &mut pos);
    if pos != b.len() || row_ends.is_empty() {
        return BodyParse::Fallback;
    }
    BodyParse::Parsed
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn eat(b: &[u8], pos: &mut usize, lit: &[u8]) -> bool {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        true
    } else {
        false
    }
}

/// One `[v, v, ...]` array of numbers/nulls appended to `rows`.
fn parse_row(b: &[u8], pos: &mut usize, rows: &mut Vec<f64>) -> BodyParse {
    if !eat(b, pos, b"[") {
        return BodyParse::Fallback;
    }
    skip_ws(b, pos);
    if eat(b, pos, b"]") {
        return BodyParse::Parsed;
    }
    loop {
        match parse_value(b, pos) {
            Some(v) => rows.push(v),
            None => return BodyParse::Fallback,
        }
        skip_ws(b, pos);
        if eat(b, pos, b",") {
            skip_ws(b, pos);
            continue;
        }
        if eat(b, pos, b"]") {
            return BodyParse::Parsed;
        }
        return BodyParse::Fallback;
    }
}

/// `null` or a number token, with the tree parser's exact float/int
/// classification so the resulting bits match it.
fn parse_value(b: &[u8], pos: &mut usize) -> Option<f64> {
    match b.get(*pos)? {
        b'n' => {
            if eat(b, pos, b"null") {
                Some(f64::NAN)
            } else {
                None
            }
        }
        b'-' | b'0'..=b'9' => {
            let start = *pos;
            let mut is_float = false;
            if b[*pos] == b'-' {
                *pos += 1;
            }
            while let Some(&c) = b.get(*pos) {
                match c {
                    b'0'..=b'9' => *pos += 1,
                    b'.' | b'e' | b'E' | b'+' | b'-' => {
                        is_float = true;
                        *pos += 1;
                    }
                    _ => break,
                }
            }
            let text = std::str::from_utf8(&b[start..*pos]).ok()?;
            if is_float {
                text.parse::<f64>().ok()
            } else {
                text.parse::<i128>().ok().map(|i| i as f64)
            }
        }
        _ => None,
    }
}

/// JSON number → f64, with `null` as a NaN gap (the repo-wide float
/// convention: the writer maps non-finite to `null`, so the reader must
/// accept it back).
pub fn json_num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        Value::Null => Some(f64::NAN),
        _ => None,
    }
}

/// The general (tree-parser) body parse, used whenever the strict fast
/// path declines. Owns every error message so wording is unchanged from
/// the pre-fast-path server — the fast/slow split must be invisible in
/// every response byte, success or error.
pub fn parse_record_body_slow(
    body: &[u8],
    batch: bool,
    rows: &mut Vec<f64>,
    row_ends: &mut Vec<usize>,
) -> Result<(), (u16, String)> {
    rows.clear();
    row_ends.clear();
    let text = std::str::from_utf8(body).map_err(|_| (400, "body is not UTF-8".to_string()))?;
    let parsed = serde_json::parse_value(text).map_err(|e| (400, format!("bad JSON: {e}")))?;
    if batch {
        let batch_rows = parsed
            .get("records")
            .and_then(|v| v.as_array())
            .ok_or_else(|| (400, "missing \"records\" array".to_string()))?;
        for row in batch_rows {
            let arr = row
                .as_array()
                .ok_or_else(|| (400, "records must be arrays of numbers".to_string()))?;
            for v in arr {
                let x = json_num(v)
                    .ok_or_else(|| (400, "records must be arrays of numbers".to_string()))?;
                rows.push(x);
            }
            row_ends.push(rows.len());
        }
    } else {
        let arr = parsed
            .get("record")
            .and_then(|v| v.as_array())
            .ok_or_else(|| (400, "missing \"record\" array of numbers".to_string()))?;
        for v in arr {
            let x = json_num(v)
                .ok_or_else(|| (400, "missing \"record\" array of numbers".to_string()))?;
            rows.push(x);
        }
        row_ends.push(rows.len());
    }
    Ok(())
}

// ------------------------------------------------------------- responses

/// Canonical reason phrases for every status the gatekeeper emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Append a response head to `out` — identical bytes to the previous
/// `format!`-built head, without the temporary.
pub fn write_head(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    content_length: usize,
    keep_alive: bool,
) {
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        status,
        reason(status),
        content_type,
        content_length,
        if keep_alive { "keep-alive" } else { "close" },
    );
}

/// [`write_head`] plus a `retry-after` header (load-shedding responses:
/// the gatekeeper's saturated accept queues and the router's saturated
/// backends both use it, so the shed bytes are identical at every tier).
pub fn write_head_retry(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    content_length: usize,
    keep_alive: bool,
    retry_after_secs: u64,
) {
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\nretry-after: {}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        status,
        reason(status),
        content_type,
        retry_after_secs,
        content_length,
        if keep_alive { "keep-alive" } else { "close" },
    );
}

/// `{"score":s,"anomaly":b}` into a reused body buffer.
pub fn write_single_score(body: &mut String, score: f64, anomaly: bool) {
    body.push_str("{\"score\":");
    serde::write_json_f64(body, score);
    body.push_str(",\"anomaly\":");
    body.push_str(if anomaly { "true" } else { "false" });
    body.push('}');
}

/// `{"scores":[...],"anomalies":[...]}` into a reused body buffer.
pub fn write_batch_scores(body: &mut String, scores: &[(f64, bool)]) {
    body.push_str("{\"scores\":[");
    for (i, (s, _)) in scores.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        serde::write_json_f64(body, *s);
    }
    body.push_str("],\"anomalies\":[");
    for (i, (_, a)) in scores.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(if *a { "true" } else { "false" });
    }
    body.push_str("]}");
}

/// `{"error":"..."}` into a reused body buffer.
pub fn write_error_body(body: &mut String, message: &str) {
    body.push_str("{\"error\":");
    serde::write_json_string(body, message);
    body.push('}');
}

/// A complete `{"error":"..."}` response appended to `out`, its body
/// staged in the reused `body` buffer. Both tiers answer their own errors
/// through it, so the bytes are the same at every tier.
pub fn write_error_response(
    out: &mut Vec<u8>,
    body: &mut String,
    status: u16,
    message: &str,
    keep_alive: bool,
) {
    body.clear();
    write_error_body(body, message);
    write_head(out, status, "application/json", body.len(), keep_alive);
    out.extend_from_slice(body.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(raw: &[u8]) -> Head {
        match parse_head(raw, 1 << 16) {
            HeadParse::Complete(h) => h,
            other => panic!("expected complete head, got {other:?}"),
        }
    }

    #[test]
    fn head_parses_tokens_and_framing() {
        let raw = b"POST /v1/ingest/a/e HTTP/1.1\r\nhost: x\r\ncontent-length: 12\r\n\r\nrest";
        let h = complete(raw);
        assert_eq!(&raw[h.method.0..h.method.1], b"POST");
        assert_eq!(&raw[h.path.0..h.path.1], b"/v1/ingest/a/e");
        assert_eq!(h.content_length, 12);
        assert!(h.keep_alive);
        assert_eq!(h.head_len, raw.len() - 4);
    }

    #[test]
    fn head_connection_close_and_version() {
        let h = complete(b"GET / HTTP/1.1\r\nconnection: Close\r\n\r\n");
        assert!(!h.keep_alive);
        let h = complete(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!h.keep_alive);
        let h = complete(b"GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n");
        assert!(h.keep_alive);
    }

    #[test]
    fn head_partial_and_bad() {
        assert_eq!(parse_head(b"GET / HTTP/1.1\r\nhost: x", 1 << 16), HeadParse::Partial);
        assert_eq!(parse_head(b"\r\n", 1 << 16), HeadParse::Bad(400, "malformed request line"));
        assert_eq!(
            parse_head(b"GET / HTTP/1.1\r\ncontent-length: x\r\n\r\n", 1 << 16),
            HeadParse::Bad(400, "bad content-length")
        );
        assert_eq!(
            parse_head(b"GET / HTTP/1.1\r\nxxxxxxxxxxxxxxxx", 8),
            HeadParse::Bad(400, "header block too large")
        );
        assert_eq!(parse_head(b"GET /\xff\xfe HTTP/1.1\r\n\r\n", 1 << 16), HeadParse::Hangup);
    }

    #[test]
    fn head_accepts_bare_lf_like_the_line_reader_did() {
        let h = complete(b"GET /v1/healthz HTTP/1.1\ncontent-length: 3\n\n");
        assert_eq!(h.content_length, 3);
    }

    fn rows_of(body: &[u8], batch: bool) -> Option<(Vec<f64>, Vec<usize>)> {
        let mut rows = Vec::new();
        let mut ends = Vec::new();
        match parse_record_body(body, batch, &mut rows, &mut ends) {
            BodyParse::Parsed => Some((rows, ends)),
            BodyParse::Fallback => None,
        }
    }

    #[test]
    fn single_record_parses_with_gaps() {
        let (rows, ends) = rows_of(b"{\"record\":[1,-2.5,null,3e2]}", false).unwrap();
        assert_eq!(ends, vec![4]);
        assert_eq!(rows[0].to_bits(), 1.0f64.to_bits());
        assert_eq!(rows[1].to_bits(), (-2.5f64).to_bits());
        assert!(rows[2].is_nan());
        assert_eq!(rows[3].to_bits(), 300.0f64.to_bits());
    }

    #[test]
    fn batch_records_parse_rows() {
        let (rows, ends) = rows_of(b"{\"records\":[[1,2],[3,4],[5,6]]}", true).unwrap();
        assert_eq!(ends, vec![2, 4, 6]);
        assert_eq!(rows, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn whitespace_tolerated_like_the_tree_parser() {
        let (rows, _) = rows_of(b" { \"record\" : [ 1 , 2 ] } ", false).unwrap();
        assert_eq!(rows, vec![1.0, 2.0]);
    }

    #[test]
    fn deviations_fall_back() {
        for body in [
            &b"{\"wrong\":[1]}"[..],
            b"{\"record\":[1],\"x\":2}",
            b"{\"record\":\"nope\"}",
            b"not json",
            b"{\"record\":[1,]}",
            b"{\"record\":[1-2]}",
            b"{\"record\":[true]}",
        ] {
            assert!(rows_of(body, false).is_none(), "{:?}", std::str::from_utf8(body));
        }
        assert!(rows_of(b"{\"records\":[]}", true).is_none(), "empty batch defers");
    }

    #[test]
    fn number_bits_match_the_tree_parser() {
        // Same classification: int unless the scan ate . e E + -.
        for text in ["0", "-7", "1e-3", "2.5E+4", "123456789012345678", "-0.0"] {
            let body = format!("{{\"record\":[{text}]}}");
            let (rows, _) = rows_of(body.as_bytes(), false).unwrap();
            let tree = serde_json::parse_value(&body).unwrap();
            let want = match tree.get("record").unwrap().as_array().unwrap()[0] {
                serde_json::Value::Int(i) => i as f64,
                serde_json::Value::Float(f) => f,
                ref other => panic!("{other:?}"),
            };
            assert_eq!(rows[0].to_bits(), want.to_bits(), "{text}");
        }
    }

    #[test]
    fn response_builders_match_format_output() {
        let mut out = Vec::new();
        write_head(&mut out, 200, "application/json", 17, true);
        assert_eq!(
            std::str::from_utf8(&out).unwrap(),
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 17\r\nconnection: keep-alive\r\n\r\n"
        );
        let mut body = String::new();
        write_single_score(&mut body, 0.25, false);
        assert_eq!(body, "{\"score\":0.25,\"anomaly\":false}");
        body.clear();
        write_single_score(&mut body, f64::NAN, true);
        assert_eq!(body, "{\"score\":null,\"anomaly\":true}");
        body.clear();
        write_batch_scores(&mut body, &[(1.5, false), (f64::INFINITY, true)]);
        assert_eq!(body, "{\"scores\":[1.5,null],\"anomalies\":[false,true]}");
        body.clear();
        write_error_body(&mut body, "no such route");
        assert_eq!(body, "{\"error\":\"no such route\"}");
    }
}
