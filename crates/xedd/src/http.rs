//! A minimal HTTP/1.1 layer: request parsing, query-string → engine
//! [`Query`] conversion, response/chunked writers and a tiny test client.
//!
//! `xedd` serves exactly three GET routes over plain sockets, so this is
//! deliberately not a general HTTP implementation: one request per
//! connection (`Connection: close` semantics), no bodies on requests, and
//! chunked transfer encoding only on the streaming response path. The
//! parser is strict about what it does accept — malformed request lines
//! and unknown query parameters are errors, never guesses.

use std::io::{BufRead, Read, Write};
use std::net::TcpStream;
use xed_faultsim::engine::{Query, QueryKind};
use xed_faultsim::fault::FaultExtent;
use xed_faultsim::fit::{FitRates, ModeRate};
use xed_faultsim::rareevent::TailMode;
use xed_faultsim::{CodeModel, Scheme};

/// Longest request line / header line accepted, in bytes.
const MAX_LINE: usize = 8 * 1024;
/// Most header lines accepted per request.
const MAX_HEADERS: usize = 64;

/// A parsed request line: method, decoded path, decoded query parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The HTTP method (uppercased as received; the server only routes
    /// `GET`).
    pub method: String,
    /// The percent-decoded path component (no query string).
    pub path: String,
    /// Query parameters in request order, percent-decoded.
    pub params: Vec<(String, String)>,
    /// A trace id propagated via the `X-Xedd-Trace` header (16 hex
    /// digits), if the client sent a well-formed one. Malformed values
    /// are ignored, never errors — tracing must not fail a request.
    pub trace: Option<u64>,
}

/// Reads one line (CRLF- or LF-terminated) with a length bound.
fn read_line(reader: &mut impl BufRead) -> Result<String, String> {
    let mut buf = Vec::with_capacity(128);
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                if buf.len() >= MAX_LINE {
                    return Err("header line too long".to_string());
                }
                buf.push(byte[0]);
            }
            Err(e) => return Err(format!("read failed: {e}")),
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf).map_err(|_| "header line is not UTF-8".to_string())
}

/// Parses one request from a buffered stream: request line plus headers
/// up to the blank line. Headers are consumed and discarded, except
/// `X-Xedd-Trace`, whose value (16 hex digits) propagates a caller's
/// trace id into the daemon's span records.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, String> {
    let line = read_line(reader)?;
    let mut parts = line.split_ascii_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let target = parts.next().ok_or("request line has no target")?;
    let version = parts.next().ok_or("request line has no version")?;
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol {version}"));
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let mut trace = None;
    for _ in 0..MAX_HEADERS {
        let Some(header) = read_request_header(reader)? else {
            return Ok(Request {
                method,
                path: percent_decode(raw_path)?,
                params: parse_query_string(raw_query.unwrap_or(""))?,
                trace,
            });
        };
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("x-xedd-trace") {
                trace = parse_trace_id(value.trim());
            }
        }
    }
    Err("too many headers".to_string())
}

/// Parses an `X-Xedd-Trace` header value: exactly 16 lowercase-or-upper
/// hex digits, nonzero. Anything else is `None` (ignored).
pub fn parse_trace_id(value: &str) -> Option<u64> {
    if value.len() != 16 {
        return None;
    }
    match u64::from_str_radix(value, 16) {
        Ok(0) | Err(_) => None,
        Ok(id) => Some(id),
    }
}

/// Reads one header line; `None` marks the end-of-headers blank line.
fn read_request_header(reader: &mut impl BufRead) -> Result<Option<String>, String> {
    let line = read_line(reader)?;
    if line.is_empty() {
        Ok(None)
    } else {
        Ok(Some(line))
    }
}

/// Percent-decodes one path or query component (`+` decodes to space, as
/// form encoding produces).
pub fn percent_decode(text: &str) -> Result<String, String> {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                    .ok_or_else(|| format!("bad percent escape in {text:?}"))?;
                out.push(hex);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| format!("percent-decoded {text:?} is not UTF-8"))
}

/// Splits and decodes an `a=1&b=2` query string.
pub fn parse_query_string(query: &str) -> Result<Vec<(String, String)>, String> {
    let mut params = Vec::new();
    for pair in query.split('&') {
        if pair.is_empty() {
            continue;
        }
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        params.push((percent_decode(k)?, percent_decode(v)?));
    }
    Ok(params)
}

fn parse_extent(name: &str) -> Option<FaultExtent> {
    match name.to_ascii_lowercase().as_str() {
        "bit" => Some(FaultExtent::Bit),
        "word" => Some(FaultExtent::Word),
        "column" | "col" => Some(FaultExtent::Column),
        "row" => Some(FaultExtent::Row),
        "bank" => Some(FaultExtent::Bank),
        "chip" => Some(FaultExtent::Chip),
        _ => None,
    }
}

/// Parses a custom FIT table: `extent:transient:permanent` triples joined
/// by commas, e.g. `bit:14.2:18.6,chip:2.0:6.1`.
fn parse_fit(spec: &str) -> Result<FitRates, String> {
    let mut rows: Vec<ModeRate> = Vec::new();
    for entry in spec.split(',') {
        let mut fields = entry.split(':');
        let extent = fields
            .next()
            .and_then(parse_extent)
            .ok_or_else(|| format!("fit entry {entry:?}: unknown extent"))?;
        let transient_fit = fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("fit entry {entry:?}: bad transient FIT"))?;
        let permanent_fit = fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("fit entry {entry:?}: bad permanent FIT"))?;
        if fields.next().is_some() {
            return Err(format!(
                "fit entry {entry:?}: expected extent:transient:permanent"
            ));
        }
        if rows.iter().any(|r| r.extent == extent) {
            return Err(format!("fit entry {entry:?}: duplicate extent"));
        }
        rows.push(ModeRate {
            extent,
            transient_fit,
            permanent_fit,
        });
    }
    if rows.is_empty() {
        return Err("fit table must have at least one row".to_string());
    }
    Ok(FitRates::custom(rows))
}

fn parse_num<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse::<T>()
        .map_err(|_| format!("parameter {name}={value}: not a valid number"))
}

fn parse_bool(name: &str, value: &str) -> Result<bool, String> {
    match value {
        "1" | "true" | "yes" => Ok(true),
        "0" | "false" | "no" => Ok(false),
        _ => Err(format!("parameter {name}={value}: expected a boolean")),
    }
}

/// Parses the `code_model` parameter: `known`, `inferred`, or
/// `ambiguous:<unresolved_rows>` (mirroring the `Display` spellings of
/// `CodeModel`).
fn parse_code_model(value: &str) -> Result<CodeModel, String> {
    match value {
        "known" => Ok(CodeModel::Known),
        "inferred" => Ok(CodeModel::InferredExact),
        _ => match value.strip_prefix("ambiguous:") {
            Some(rows) => Ok(CodeModel::InferredAmbiguous {
                unresolved_rows: parse_num("code_model", rows)?,
            }),
            None => Err(format!(
                "unknown code_model {value:?} (known | inferred | ambiguous:<rows>)"
            )),
        },
    }
}

/// Builds an engine [`Query`] from decoded query parameters.
///
/// Recognized parameters: `scheme` (required), `kind` (`lifetime` |
/// `tail`), `samples`, `years`, `seed`, `epsilon`, `block`, `threads`,
/// `force` (`clique` | `count` | `plain`), `fit`
/// (`extent:transient:permanent,...`), `on_die_ecc`, `on_die_miss`,
/// `scaling` (per-bit rate), `intersection`, `code_model` (`known` |
/// `inferred` | `ambiguous:<rows>` — the controller's knowledge of the
/// on-die ECC function, DESIGN.md §17). Anything else is an error — a
/// typo must never silently fall back to a default and alias another
/// query's cache key.
pub fn query_from_params(params: &[(String, String)]) -> Result<Query, String> {
    let mut scheme: Option<Scheme> = None;
    let mut kind = QueryKind::Lifetime;
    let mut force: Option<TailMode> = None;
    let mut samples = 1_000_000u64;
    let mut query = Query::lifetime(Scheme::Xed, samples, 0);
    for (name, value) in params {
        match name.as_str() {
            "scheme" => {
                scheme =
                    Some(Scheme::parse(value).ok_or_else(|| format!("unknown scheme {value:?}"))?);
            }
            "kind" => {
                kind = match value.as_str() {
                    "lifetime" => QueryKind::Lifetime,
                    "tail" => QueryKind::Tail { force: None },
                    _ => return Err(format!("unknown kind {value:?} (lifetime | tail)")),
                };
            }
            "force" => {
                force = Some(match value.as_str() {
                    "clique" => TailMode::CliqueForced,
                    "count" => TailMode::CountConditioned,
                    "plain" => TailMode::PlainMc,
                    _ => return Err(format!("unknown force mode {value:?}")),
                });
            }
            "samples" => samples = parse_num(name, value)?,
            "years" => query.years = parse_num(name, value)?,
            "seed" => query.seed = parse_num(name, value)?,
            "epsilon" => query.epsilon = Some(parse_num(name, value)?),
            "block" => query.exec.block = parse_num(name, value)?,
            "threads" => query.exec.threads = parse_num(name, value)?,
            "fit" => query.rates = parse_fit(value)?,
            "on_die_ecc" => query.params.on_die_ecc = parse_bool(name, value)?,
            "on_die_miss" => query.params.on_die_miss = parse_num(name, value)?,
            "scaling" => query.params.scaling.bit_rate = parse_num(name, value)?,
            "intersection" => query.params.require_line_intersection = parse_bool(name, value)?,
            "code_model" => query.params.code_model = parse_code_model(value)?,
            _ => return Err(format!("unknown parameter {name:?}")),
        }
    }
    query.scheme = scheme.ok_or("missing required parameter scheme")?;
    query.samples = samples;
    query.kind = match kind {
        QueryKind::Lifetime => {
            if force.is_some() {
                return Err("force applies to tail queries only".to_string());
            }
            QueryKind::Lifetime
        }
        QueryKind::Tail { .. } => QueryKind::Tail { force },
    };
    query.validate()?;
    Ok(query)
}

/// The status lines the daemon emits.
fn status_line(status: u16) -> &'static str {
    match status {
        200 => "HTTP/1.1 200 OK",
        400 => "HTTP/1.1 400 Bad Request",
        404 => "HTTP/1.1 404 Not Found",
        503 => "HTTP/1.1 503 Service Unavailable",
        _ => "HTTP/1.1 500 Internal Server Error",
    }
}

/// Writes a complete (non-chunked) response with optional extra headers.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    write_response_typed(stream, status, "application/json", extra_headers, body)
}

/// Like [`write_response`] with an explicit `Content-Type` — the
/// Prometheus exposition on `/metrics?format=prometheus` is plain text,
/// not JSON.
pub fn write_response_typed(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    let mut head = String::with_capacity(256);
    head.push_str(status_line(status));
    head.push_str("\r\nContent-Type: ");
    head.push_str(content_type);
    head.push_str("\r\nConnection: close\r\n");
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("Content-Length: ");
    head.push_str(&body.len().to_string());
    head.push_str("\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Writes the head of a chunked streaming response.
pub fn write_chunked_head(
    stream: &mut impl Write,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    let mut head = String::with_capacity(256);
    head.push_str(status_line(200));
    head.push_str(
        "\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n",
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// Writes one chunk carrying `line` plus a trailing newline (NDJSON
/// framing inside chunked framing: one JSON document per chunk).
pub fn write_chunk(stream: &mut impl Write, line: &str) -> std::io::Result<()> {
    write!(stream, "{:x}\r\n{line}\n\r\n", line.len() + 1)?;
    stream.flush()
}

/// Terminates a chunked response.
pub fn write_chunked_end(stream: &mut impl Write) -> std::io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// A response as the test client sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response headers, lowercased names.
    pub headers: Vec<(String, String)>,
    /// The full decoded body.
    pub body: String,
    /// For chunked responses: one entry per chunk, in arrival order (the
    /// streamed NDJSON lines, newline stripped). Empty otherwise.
    pub chunks: Vec<String>,
}

impl ClientResponse {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// An open chunked-response stream: the test client's incremental view
/// of a streaming query, one chunk at a time. Reading chunk-by-chunk is
/// what lets the selftest *hold a flight open* — attach followers after
/// the leader's first partial but before its last.
#[derive(Debug)]
pub struct ChunkStream {
    reader: std::io::BufReader<TcpStream>,
    /// HTTP status code.
    pub status: u16,
    /// Response headers, lowercased names.
    pub headers: Vec<(String, String)>,
}

impl ChunkStream {
    /// Sends a GET and parses the response head. The response must be
    /// chunked (it is an error to open a Content-Length body this way).
    pub fn open(addr: &str, target: &str) -> Result<ChunkStream, String> {
        Self::open_with(addr, target, &[])
    }

    /// Like [`ChunkStream::open`], with extra request headers (e.g.
    /// `("X-Xedd-Trace", "00000000deadbeef")` to propagate a trace id).
    pub fn open_with(
        addr: &str,
        target: &str,
        extra_headers: &[(&str, &str)],
    ) -> Result<ChunkStream, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let mut extra = String::new();
        for (name, value) in extra_headers {
            extra.push_str(&format!("{name}: {value}\r\n"));
        }
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: xedd\r\nConnection: close\r\n{extra}\r\n"
        )
        .map_err(|e| format!("send request: {e}"))?;
        let mut reader = std::io::BufReader::new(stream);
        let status_line = read_line(&mut reader)?;
        let status = status_line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| format!("bad status line {status_line:?}"))?;
        let mut headers = Vec::new();
        loop {
            let line = read_line(&mut reader)?;
            if line.is_empty() {
                break;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| format!("bad header line {line:?}"))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let chunked = headers
            .iter()
            .any(|(n, v)| n == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
        if !chunked {
            return Err(format!("response to {target} is not chunked"));
        }
        Ok(ChunkStream {
            reader,
            status,
            headers,
        })
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Reads the next chunk (newline framing stripped); `None` marks the
    /// terminating zero-length chunk.
    pub fn next_chunk(&mut self) -> Result<Option<String>, String> {
        let size_line = read_line(&mut self.reader)?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| format!("bad chunk size {size_line:?}"))?;
        if size == 0 {
            let _trailer = read_line(&mut self.reader)?;
            return Ok(None);
        }
        let mut chunk = vec![0u8; size];
        self.reader
            .read_exact(&mut chunk)
            .map_err(|e| format!("chunk read: {e}"))?;
        let _crlf = read_line(&mut self.reader)?;
        let text = String::from_utf8(chunk).map_err(|_| "chunk is not UTF-8".to_string())?;
        Ok(Some(text.trim_end_matches('\n').to_string()))
    }

    /// Drains every remaining chunk.
    pub fn drain(&mut self) -> Result<Vec<String>, String> {
        let mut chunks = Vec::new();
        while let Some(chunk) = self.next_chunk()? {
            chunks.push(chunk);
        }
        Ok(chunks)
    }
}

/// A blocking one-shot GET against `addr` (used by the selftest, the
/// integration tests, and `xedtop`; the daemon itself never makes
/// outbound requests).
pub fn client_get(addr: &str, target: &str) -> Result<ClientResponse, String> {
    client_get_with(addr, target, &[])
}

/// Like [`client_get`], with extra request headers (e.g. a propagated
/// `X-Xedd-Trace` id).
pub fn client_get_with(
    addr: &str,
    target: &str,
    extra_headers: &[(&str, &str)],
) -> Result<ClientResponse, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut extra = String::new();
    for (name, value) in extra_headers {
        extra.push_str(&format!("{name}: {value}\r\n"));
    }
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: xedd\r\nConnection: close\r\n{extra}\r\n"
    )
    .map_err(|e| format!("send request: {e}"))?;
    let mut reader = std::io::BufReader::new(stream);
    read_client_response(&mut reader)
}

/// Parses a response (status line, headers, identity or chunked body)
/// from a buffered stream.
pub fn read_client_response(reader: &mut impl BufRead) -> Result<ClientResponse, String> {
    let status_line = read_line(reader)?;
    let status = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("bad header line {line:?}"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let chunked = headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    if chunked {
        let mut chunks = Vec::new();
        let mut body = String::new();
        loop {
            let size_line = read_line(reader)?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| format!("bad chunk size {size_line:?}"))?;
            if size == 0 {
                let _trailer = read_line(reader)?;
                break;
            }
            let mut chunk = vec![0u8; size];
            reader
                .read_exact(&mut chunk)
                .map_err(|e| format!("chunk read: {e}"))?;
            let _crlf = read_line(reader)?;
            let text = String::from_utf8(chunk).map_err(|_| "chunk is not UTF-8".to_string())?;
            body.push_str(&text);
            chunks.push(text.trim_end_matches('\n').to_string());
        }
        return Ok(ClientResponse {
            status,
            headers,
            body,
            chunks,
        });
    }
    let length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok());
    let body = match length {
        Some(len) => {
            let mut buf = vec![0u8; len];
            reader
                .read_exact(&mut buf)
                .map_err(|e| format!("body read: {e}"))?;
            String::from_utf8(buf).map_err(|_| "body is not UTF-8".to_string())?
        }
        None => {
            let mut buf = String::new();
            reader
                .read_to_string(&mut buf)
                .map_err(|e| format!("body read: {e}"))?;
            buf
        }
    };
    Ok(ClientResponse {
        status,
        headers,
        body,
        chunks: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_a_request_line_with_query() {
        let raw = "GET /v1/query?scheme=xed&samples=1000 HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = read_request(&mut Cursor::new(raw)).expect("well-formed");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/query");
        assert_eq!(
            req.params,
            vec![
                ("scheme".to_string(), "xed".to_string()),
                ("samples".to_string(), "1000".to_string()),
            ]
        );
        assert_eq!(req.trace, None, "no trace header, no trace id");
    }

    #[test]
    fn captures_a_propagated_trace_header() {
        let raw = "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Xedd-Trace: 00000000DEADBEEF\r\n\r\n";
        let req = read_request(&mut Cursor::new(raw)).expect("well-formed");
        assert_eq!(req.trace, Some(0xDEAD_BEEF));
        // Malformed values are ignored, never request errors.
        for bad in ["deadbeef", "zz000000deadbeef", "0000000000000000", ""] {
            let raw = format!("GET / HTTP/1.1\r\nx-xedd-trace: {bad}\r\n\r\n");
            let req = read_request(&mut Cursor::new(raw)).expect("well-formed");
            assert_eq!(req.trace, None, "{bad:?} must be ignored");
        }
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for raw in [
            "\r\n\r\n",
            "GET\r\n\r\n",
            "GET /x\r\n\r\n",
            "GET /x SPDY/3\r\n\r\n",
        ] {
            assert!(read_request(&mut Cursor::new(raw)).is_err(), "{raw:?}");
        }
    }

    #[test]
    fn percent_decoding_round_trips() {
        assert_eq!(percent_decode("a%20b+c").expect("valid"), "a b c");
        assert_eq!(percent_decode("%2Fv1%2Fquery").expect("valid"), "/v1/query");
        assert!(percent_decode("%zz").is_err());
        assert!(percent_decode("%2").is_err());
    }

    fn params(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn builds_queries_from_parameters() {
        let q = query_from_params(&params(&[
            ("scheme", "xed-chipkill"),
            ("kind", "tail"),
            ("force", "count"),
            ("samples", "5000"),
            ("seed", "11"),
            ("years", "5"),
        ]))
        .expect("valid");
        assert_eq!(q.scheme, Scheme::XedChipkill);
        assert_eq!(
            q.kind,
            QueryKind::Tail {
                force: Some(TailMode::CountConditioned)
            }
        );
        assert_eq!((q.samples, q.seed, q.years), (5000, 11, 5.0));
    }

    #[test]
    fn code_model_parameter_parses_all_spellings() {
        for (spelling, expected) in [
            ("known", CodeModel::Known),
            ("inferred", CodeModel::InferredExact),
            (
                "ambiguous:2",
                CodeModel::InferredAmbiguous { unresolved_rows: 2 },
            ),
            (
                "ambiguous:0",
                CodeModel::InferredAmbiguous { unresolved_rows: 0 },
            ),
        ] {
            let q = query_from_params(&params(&[("scheme", "xed"), ("code_model", spelling)]))
                .expect("valid");
            assert_eq!(q.params.code_model, expected, "{spelling}");
        }
        // Default: the paper's known-code assumption.
        let q = query_from_params(&params(&[("scheme", "xed")])).expect("valid");
        assert_eq!(q.params.code_model, CodeModel::Known);
        for bad in ["guessable", "ambiguous", "ambiguous:x", "ambiguous:9"] {
            assert!(
                query_from_params(&params(&[("scheme", "xed"), ("code_model", bad)])).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn custom_fit_tables_parse_and_reject_duplicates() {
        let q = query_from_params(&params(&[
            ("scheme", "xed"),
            ("fit", "bit:14.2:18.6,chip:2.0:6.1"),
        ]))
        .expect("valid");
        assert_eq!(q.rates.rows().len(), 2);
        for bad in [
            "bit:1:2,bit:3:4", // duplicate extent
            "galaxy:1:2",      // unknown extent
            "bit:1",           // missing field
            "bit:1:2:3",       // extra field
            "",                // empty table
        ] {
            assert!(
                query_from_params(&params(&[("scheme", "xed"), ("fit", bad)])).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn unknown_parameters_are_rejected() {
        assert!(query_from_params(&params(&[("scheme", "xed"), ("samplez", "1")])).is_err());
        assert!(
            query_from_params(&params(&[])).is_err(),
            "scheme is required"
        );
        assert!(
            query_from_params(&params(&[("scheme", "xed"), ("force", "clique")])).is_err(),
            "force without kind=tail"
        );
    }

    #[test]
    fn oversized_thread_counts_are_rejected() {
        // One request must not make a daemon worker spawn 100k OS threads.
        let raw = "GET /v1/query?scheme=xed&samples=1&threads=100000 HTTP/1.1\r\n\r\n";
        let req = read_request(&mut Cursor::new(raw)).expect("well-formed");
        let err = query_from_params(&req.params).expect_err("threads above the bound");
        assert!(err.contains("threads"), "{err}");
        let q = query_from_params(&params(&[("scheme", "xed"), ("threads", "256")]))
            .expect("256 threads is within the bound");
        assert_eq!(q.exec.threads, 256);
    }

    #[test]
    fn responses_round_trip_through_the_client_parser() {
        let mut wire = Vec::new();
        write_response(&mut wire, 200, &[("X-Xedd-Cache", "hit")], "{\"ok\":true}").expect("write");
        let resp = read_client_response(&mut Cursor::new(wire)).expect("parse");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-xedd-cache"), Some("hit"));
        assert_eq!(resp.body, "{\"ok\":true}");
        assert!(resp.chunks.is_empty());
    }

    #[test]
    fn chunked_responses_round_trip_with_chunk_boundaries() {
        let mut wire = Vec::new();
        write_chunked_head(&mut wire, &[("X-Xedd-Cache", "miss")]).expect("head");
        write_chunk(&mut wire, "{\"trials\":1}").expect("chunk");
        write_chunk(&mut wire, "{\"trials\":2}").expect("chunk");
        write_chunked_end(&mut wire).expect("end");
        let resp = read_client_response(&mut Cursor::new(wire)).expect("parse");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.chunks, ["{\"trials\":1}", "{\"trials\":2}"]);
        assert_eq!(resp.body, "{\"trials\":1}\n{\"trials\":2}\n");
    }
}
