//! The `mrx serve` wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame is `u32 LE payload_len` followed by `payload_len` bytes of
//! payload; every payload starts with `u32 LE req_id | u8 verb_or_status`.
//! Request frames are small by construction — tenant names, path
//! expressions, and snapshot paths are all bounded — and the declared
//! length is checked against [`MAX_REQUEST_FRAME`] **before** any buffer is
//! allocated, so a hostile length prefix cannot make the server allocate.
//! Responses carry node-id lists and may be larger (bounded by
//! [`MAX_RESPONSE_FRAME`], which clients enforce symmetrically).
//!
//! Malformed input of any kind — bad verb, oversized field, truncated
//! body, non-UTF-8 text — decodes to a typed [`ServeError::Protocol`],
//! never a panic: every read is bounds-checked and every allocation is
//! capped first.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::fmt;
use std::io::{self, Read, Write};

use mrx_error::BudgetKind;

/// Hard cap on request payloads (a request is a verb plus bounded
/// strings; 16 KiB is ~4x the largest legal request).
pub const MAX_REQUEST_FRAME: u32 = 16 * 1024;
/// Hard cap on response payloads (a full-corpus node list plus headers).
pub const MAX_RESPONSE_FRAME: u32 = 64 * 1024 * 1024;
/// Longest accepted tenant name, in bytes.
pub const MAX_TENANT_BYTES: usize = 64;
/// Longest accepted path expression, in bytes.
pub const MAX_EXPR_BYTES: usize = 4096;
/// Longest accepted snapshot path (RELOAD), in bytes.
pub const MAX_PATH_BYTES: usize = 4096;

const VERB_QUERY: u8 = 1;
const VERB_STATS: u8 = 2;
const VERB_RELOAD: u8 = 3;
const VERB_PING: u8 = 4;
const VERB_SHUTDOWN: u8 = 5;

const STATUS_ANSWER: u8 = 0;
const STATUS_TEXT: u8 = 1;
const STATUS_PROTOCOL: u8 = 16;
const STATUS_OVERLOADED: u8 = 17;
const STATUS_RATE_LIMITED: u8 = 18;
const STATUS_BUDGET: u8 = 19;
const STATUS_STORE: u8 = 20;
const STATUS_PATH: u8 = 21;
const STATUS_SERVER: u8 = 22;
const STATUS_SHUTTING_DOWN: u8 = 23;
const STATUS_RELOAD_REJECTED: u8 = 24;

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Evaluate `expr` on behalf of `tenant`.
    Query { tenant: String, expr: String },
    /// Health/stats probe: counters, epoch, degraded components.
    Stats,
    /// Validate `path` fully and hot-swap to it (or roll back).
    Reload { path: String },
    /// Liveness probe.
    Ping,
    /// Begin a graceful drain-and-stop.
    Shutdown,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A complete answer, stamped with the *serving epoch* it was computed
    /// under (bumped by every successful RELOAD).
    Answer {
        epoch: u64,
        index_nodes: u64,
        data_nodes: u64,
        validated: bool,
        nodes: Vec<u32>,
    },
    /// Verb-specific text (STATS JSON, RELOAD summary JSON, `pong`, ...).
    Text(String),
    /// A typed failure. The server never sends partial answers: any
    /// mid-evaluation failure surfaces here instead.
    Error(ServeError),
}

/// Every way the server refuses or fails a request — the wire-level error
/// taxonomy. Refusals (`Overloaded`, `RateLimited`) carry a retry-after
/// hint; resource trips carry the partial cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request frame was malformed (bad verb, oversized or truncated
    /// field, bogus length). The connection is closed after this.
    Protocol(String),
    /// Load shed: the bounded request queue (global or per-tenant) is
    /// full. Retry after the hinted backoff.
    Overloaded { retry_after_ms: u32 },
    /// The tenant's token bucket is empty. Retry after the hinted backoff.
    RateLimited { retry_after_ms: u32 },
    /// The query tripped its tenant's resource budget (steps, result
    /// size, deadline, or disconnect cancellation).
    Budget {
        kind: BudgetKind,
        index_nodes: u64,
        data_nodes: u64,
    },
    /// The snapshot failed underneath the query (page checksum poison,
    /// unreadable section) in a way that cannot be degraded soundly.
    Store(String),
    /// The path expression failed to parse or compile.
    Path(String),
    /// Any other server-side failure.
    Server(String),
    /// The server is draining; no new queries are accepted.
    ShuttingDown,
    /// RELOAD validation failed; the previous snapshot is still serving.
    ReloadRejected(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServeError::Overloaded { retry_after_ms } => {
                write!(f, "overloaded (retry after {retry_after_ms} ms)")
            }
            ServeError::RateLimited { retry_after_ms } => {
                write!(f, "rate limited (retry after {retry_after_ms} ms)")
            }
            ServeError::Budget {
                kind,
                index_nodes,
                data_nodes,
            } => write!(
                f,
                "budget exhausted ({kind:?}) after {index_nodes} index + {data_nodes} data visits"
            ),
            ServeError::Store(m) => write!(f, "store error: {m}"),
            ServeError::Path(m) => write!(f, "path error: {m}"),
            ServeError::Server(m) => write!(f, "server error: {m}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::ReloadRejected(m) => write!(f, "reload rejected: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

fn budget_kind_code(k: BudgetKind) -> u8 {
    match k {
        BudgetKind::Steps => 0,
        BudgetKind::ResultNodes => 1,
        BudgetKind::Deadline => 2,
        BudgetKind::Cancelled => 3,
    }
}

fn budget_kind_from(code: u8) -> Result<BudgetKind, ServeError> {
    match code {
        0 => Ok(BudgetKind::Steps),
        1 => Ok(BudgetKind::ResultNodes),
        2 => Ok(BudgetKind::Deadline),
        3 => Ok(BudgetKind::Cancelled),
        other => Err(bad(format!("unknown budget kind {other}"))),
    }
}

fn bad(msg: impl Into<String>) -> ServeError {
    ServeError::Protocol(msg.into())
}

/// A bounds-checked cursor over one payload. Every accessor fails typed on
/// truncation instead of slicing out of range.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ServeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad(format!("truncated {what}")))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, ServeError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, ServeError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32, ServeError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, ServeError> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn str_bounded(&mut self, len: usize, max: usize, what: &str) -> Result<String, ServeError> {
        if len > max {
            return Err(bad(format!("{what} exceeds {max} bytes ({len})")));
        }
        let raw = self.take(len, what)?;
        String::from_utf8(raw.to_vec()).map_err(|_| bad(format!("{what} is not UTF-8")))
    }

    fn finish(&self, what: &str) -> Result<(), ServeError> {
        if self.pos != self.buf.len() {
            return Err(bad(format!(
                "{what} has {} trailing bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn put_str_u16(out: &mut Vec<u8>, s: &str, max: usize) {
    let bytes = s.as_bytes();
    let n = bytes.len().min(max).min(u16::MAX as usize);
    out.extend_from_slice(&(n as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..n]);
}

/// Encodes a request payload (no length prefix — see [`write_frame`]).
pub fn encode_request(req_id: u32, req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&req_id.to_le_bytes());
    match req {
        Request::Query { tenant, expr } => {
            out.push(VERB_QUERY);
            let t = tenant.as_bytes();
            let tn = t.len().min(MAX_TENANT_BYTES).min(u8::MAX as usize);
            out.push(tn as u8);
            out.extend_from_slice(&t[..tn]);
            put_str_u16(&mut out, expr, MAX_EXPR_BYTES);
        }
        Request::Stats => out.push(VERB_STATS),
        Request::Reload { path } => {
            out.push(VERB_RELOAD);
            put_str_u16(&mut out, path, MAX_PATH_BYTES);
        }
        Request::Ping => out.push(VERB_PING),
        Request::Shutdown => out.push(VERB_SHUTDOWN),
    }
    out
}

/// Decodes a request payload. On success returns `(req_id, request)`; on
/// failure returns the request id that could be salvaged (0 if even that
/// was truncated) so the error response can still be correlated.
pub fn decode_request(payload: &[u8]) -> Result<(u32, Request), (u32, ServeError)> {
    let salvage_id = if payload.len() >= 4 {
        u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]])
    } else {
        0
    };
    decode_request_inner(payload).map_err(|e| (salvage_id, e))
}

fn decode_request_inner(payload: &[u8]) -> Result<(u32, Request), ServeError> {
    let mut c = Cursor::new(payload);
    let req_id = c.u32("request header")?;
    let verb = c.u8("verb")?;
    let req = match verb {
        VERB_QUERY => {
            let tn = c.u8("tenant length")? as usize;
            let tenant = c.str_bounded(tn, MAX_TENANT_BYTES, "tenant")?;
            let en = c.u16("expr length")? as usize;
            let expr = c.str_bounded(en, MAX_EXPR_BYTES, "expr")?;
            Request::Query { tenant, expr }
        }
        VERB_STATS => Request::Stats,
        VERB_RELOAD => {
            let pn = c.u16("path length")? as usize;
            let path = c.str_bounded(pn, MAX_PATH_BYTES, "path")?;
            Request::Reload { path }
        }
        VERB_PING => Request::Ping,
        VERB_SHUTDOWN => Request::Shutdown,
        other => return Err(bad(format!("unknown verb {other}"))),
    };
    c.finish("request")?;
    Ok((req_id, req))
}

/// Encodes a response payload (no length prefix — see [`write_frame`]).
pub fn encode_response(req_id: u32, resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&req_id.to_le_bytes());
    match resp {
        Response::Answer {
            epoch,
            index_nodes,
            data_nodes,
            validated,
            nodes,
        } => {
            out.push(STATUS_ANSWER);
            out.extend_from_slice(&epoch.to_le_bytes());
            out.extend_from_slice(&index_nodes.to_le_bytes());
            out.extend_from_slice(&data_nodes.to_le_bytes());
            out.push(u8::from(*validated));
            out.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
            out.reserve(nodes.len() * 4);
            for n in nodes {
                out.extend_from_slice(&n.to_le_bytes());
            }
        }
        Response::Text(s) => {
            out.push(STATUS_TEXT);
            let bytes = s.as_bytes();
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        Response::Error(e) => match e {
            ServeError::Protocol(m) => {
                out.push(STATUS_PROTOCOL);
                put_str_u16(&mut out, m, u16::MAX as usize);
            }
            ServeError::Overloaded { retry_after_ms } => {
                out.push(STATUS_OVERLOADED);
                out.extend_from_slice(&retry_after_ms.to_le_bytes());
            }
            ServeError::RateLimited { retry_after_ms } => {
                out.push(STATUS_RATE_LIMITED);
                out.extend_from_slice(&retry_after_ms.to_le_bytes());
            }
            ServeError::Budget {
                kind,
                index_nodes,
                data_nodes,
            } => {
                out.push(STATUS_BUDGET);
                out.push(budget_kind_code(*kind));
                out.extend_from_slice(&index_nodes.to_le_bytes());
                out.extend_from_slice(&data_nodes.to_le_bytes());
            }
            ServeError::Store(m) => {
                out.push(STATUS_STORE);
                put_str_u16(&mut out, m, u16::MAX as usize);
            }
            ServeError::Path(m) => {
                out.push(STATUS_PATH);
                put_str_u16(&mut out, m, u16::MAX as usize);
            }
            ServeError::Server(m) => {
                out.push(STATUS_SERVER);
                put_str_u16(&mut out, m, u16::MAX as usize);
            }
            ServeError::ShuttingDown => out.push(STATUS_SHUTTING_DOWN),
            ServeError::ReloadRejected(m) => {
                out.push(STATUS_RELOAD_REJECTED);
                put_str_u16(&mut out, m, u16::MAX as usize);
            }
        },
    }
    out
}

/// Decodes a response payload into `(req_id, response)`.
pub fn decode_response(payload: &[u8]) -> Result<(u32, Response), ServeError> {
    let mut c = Cursor::new(payload);
    let req_id = c.u32("response header")?;
    let status = c.u8("status")?;
    let resp = match status {
        STATUS_ANSWER => {
            let epoch = c.u64("epoch")?;
            let index_nodes = c.u64("index cost")?;
            let data_nodes = c.u64("data cost")?;
            let validated = c.u8("validated flag")? != 0;
            let n = c.u32("node count")? as usize;
            // Bound before allocating: the remaining payload must actually
            // contain n ids.
            let raw = c.take(n.saturating_mul(4), "node list")?;
            let mut nodes = Vec::with_capacity(n);
            for ch in raw.chunks_exact(4) {
                nodes.push(u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]));
            }
            Response::Answer {
                epoch,
                index_nodes,
                data_nodes,
                validated,
                nodes,
            }
        }
        STATUS_TEXT => {
            let n = c.u32("text length")? as usize;
            Response::Text(c.str_bounded(n, MAX_RESPONSE_FRAME as usize, "text")?)
        }
        STATUS_PROTOCOL => {
            let n = c.u16("message length")? as usize;
            Response::Error(ServeError::Protocol(c.str_bounded(
                n,
                u16::MAX as usize,
                "message",
            )?))
        }
        STATUS_OVERLOADED => Response::Error(ServeError::Overloaded {
            retry_after_ms: c.u32("retry hint")?,
        }),
        STATUS_RATE_LIMITED => Response::Error(ServeError::RateLimited {
            retry_after_ms: c.u32("retry hint")?,
        }),
        STATUS_BUDGET => {
            let kind = budget_kind_from(c.u8("budget kind")?)?;
            Response::Error(ServeError::Budget {
                kind,
                index_nodes: c.u64("index cost")?,
                data_nodes: c.u64("data cost")?,
            })
        }
        STATUS_STORE => {
            let n = c.u16("message length")? as usize;
            Response::Error(ServeError::Store(c.str_bounded(
                n,
                u16::MAX as usize,
                "message",
            )?))
        }
        STATUS_PATH => {
            let n = c.u16("message length")? as usize;
            Response::Error(ServeError::Path(c.str_bounded(
                n,
                u16::MAX as usize,
                "message",
            )?))
        }
        STATUS_SERVER => {
            let n = c.u16("message length")? as usize;
            Response::Error(ServeError::Server(c.str_bounded(
                n,
                u16::MAX as usize,
                "message",
            )?))
        }
        STATUS_SHUTTING_DOWN => Response::Error(ServeError::ShuttingDown),
        STATUS_RELOAD_REJECTED => {
            let n = c.u16("message length")? as usize;
            Response::Error(ServeError::ReloadRejected(c.str_bounded(
                n,
                u16::MAX as usize,
                "message",
            )?))
        }
        other => return Err(bad(format!("unknown status {other}"))),
    };
    c.finish("response")?;
    Ok((req_id, resp))
}

/// Writes one frame: length prefix plus payload.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Blocking frame read (client side): length prefix, cap check **before**
/// allocation, then the payload.
pub fn read_frame<R: Read>(r: &mut R, max_len: u32) -> io::Result<Vec<u8>> {
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4)?;
    let len = u32::from_le_bytes(len4);
    if len > max_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_len}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let reqs = [
            Request::Query {
                tenant: "acme".into(),
                expr: "//person/name".into(),
            },
            Request::Stats,
            Request::Reload {
                path: "/tmp/x.mrx".into(),
            },
            Request::Ping,
            Request::Shutdown,
        ];
        for (i, r) in reqs.iter().enumerate() {
            let enc = encode_request(i as u32 + 7, r);
            let (id, back) = decode_request(&enc).unwrap();
            assert_eq!(id, i as u32 + 7);
            assert_eq!(&back, r);
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = [
            Response::Answer {
                epoch: 3,
                index_nodes: 10,
                data_nodes: 20,
                validated: true,
                nodes: vec![1, 5, 9],
            },
            Response::Text("pong".into()),
            Response::Error(ServeError::Protocol("bad".into())),
            Response::Error(ServeError::Overloaded { retry_after_ms: 50 }),
            Response::Error(ServeError::RateLimited {
                retry_after_ms: 120,
            }),
            Response::Error(ServeError::Budget {
                kind: BudgetKind::Deadline,
                index_nodes: 4,
                data_nodes: 2,
            }),
            Response::Error(ServeError::Store("poisoned".into())),
            Response::Error(ServeError::Path("nope".into())),
            Response::Error(ServeError::Server("oops".into())),
            Response::Error(ServeError::ShuttingDown),
            Response::Error(ServeError::ReloadRejected("torn".into())),
        ];
        for (i, r) in resps.iter().enumerate() {
            let enc = encode_response(i as u32, r);
            let (id, back) = decode_response(&enc).unwrap();
            assert_eq!(id, i as u32);
            assert_eq!(&back, r);
        }
    }

    #[test]
    fn malformed_requests_fail_typed() {
        // Empty, truncated header, unknown verb, oversized tenant,
        // truncated expr, trailing garbage.
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![1, 2],
            {
                let mut v = 0u32.to_le_bytes().to_vec();
                v.push(99);
                v
            },
            {
                let mut v = 0u32.to_le_bytes().to_vec();
                v.push(VERB_QUERY);
                v.push(200); // tenant length > MAX_TENANT_BYTES
                v.extend(std::iter::repeat_n(b'a', 200));
                v.extend_from_slice(&1u16.to_le_bytes());
                v.push(b'x');
                v
            },
            {
                let mut v = 0u32.to_le_bytes().to_vec();
                v.push(VERB_QUERY);
                v.push(1);
                v.push(b't');
                v.extend_from_slice(&500u16.to_le_bytes()); // declared > actual
                v.push(b'x');
                v
            },
            {
                let mut v = encode_request(1, &Request::Ping);
                v.push(0xFF);
                v
            },
        ];
        for (i, c) in cases.iter().enumerate() {
            let err = decode_request(c);
            assert!(
                matches!(err, Err((_, ServeError::Protocol(_)))),
                "case {i} must fail typed, got {err:?}"
            );
        }
    }

    #[test]
    fn answer_node_list_is_bounded_by_payload() {
        // A response declaring 1M nodes but carrying none must fail typed,
        // not allocate 4 MB.
        let mut v = 0u32.to_le_bytes().to_vec();
        v.push(STATUS_ANSWER);
        v.extend_from_slice(&0u64.to_le_bytes());
        v.extend_from_slice(&0u64.to_le_bytes());
        v.extend_from_slice(&0u64.to_le_bytes());
        v.push(1);
        v.extend_from_slice(&1_000_000u32.to_le_bytes());
        assert!(decode_response(&v).is_err());
    }
}
