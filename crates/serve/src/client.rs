//! A small blocking client for the serve protocol — used by the CLI
//! verbs, the integration tests, and the benches.
//!
//! One request is outstanding at a time (mirroring the server's
//! per-connection contract). Request ids increment per connection and are
//! checked on receipt; id 0 is accepted as a wildcard because the server
//! uses it for connection-level rejections (accept-time shed, slow-frame
//! kills) that precede or outrun any particular request.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::proto::{
    decode_response, encode_request, read_frame, write_frame, Request, Response, ServeError,
    MAX_RESPONSE_FRAME,
};

/// A client-side failure: transport, protocol, or a typed server error.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (includes read timeouts).
    Io(io::Error),
    /// The server answered with a typed error.
    Server(ServeError),
    /// The response itself was malformed or mismatched.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Server(e) => write!(f, "{e}"),
            ClientError::Protocol(m) => write!(f, "malformed response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A successful answer plus its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReply {
    /// Serving epoch the answer was computed under.
    pub epoch: u64,
    /// Index nodes visited.
    pub index_nodes: u64,
    /// Data nodes visited.
    pub data_nodes: u64,
    /// Whether any extent needed validation.
    pub validated: bool,
    /// The answer set (sorted node ids).
    pub nodes: Vec<u32>,
}

/// A blocking connection to one `mrx serve` daemon.
pub struct Client {
    stream: TcpStream,
    next_id: u32,
}

impl Client {
    /// Connects with a 30-second read timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_with(addr, Duration::from_secs(30))
    }

    /// Connects with an explicit read timeout (writes share it).
    pub fn connect_with(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Client { stream, next_id: 1 })
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        let payload = encode_request(id, req);
        write_frame(&mut self.stream, &payload)?;
        let resp = read_frame(&mut self.stream, MAX_RESPONSE_FRAME)?;
        let (rid, resp) =
            decode_response(&resp).map_err(|e| ClientError::Protocol(e.to_string()))?;
        if rid != id && rid != 0 {
            return Err(ClientError::Protocol(format!(
                "response id {rid} does not match request id {id}"
            )));
        }
        Ok(resp)
    }

    /// Evaluates `expr` as `tenant`; typed server errors surface as
    /// [`ClientError::Server`].
    pub fn query(&mut self, tenant: &str, expr: &str) -> Result<QueryReply, ClientError> {
        let resp = self.roundtrip(&Request::Query {
            tenant: tenant.to_string(),
            expr: expr.to_string(),
        })?;
        match resp {
            Response::Answer {
                epoch,
                index_nodes,
                data_nodes,
                validated,
                nodes,
            } => Ok(QueryReply {
                epoch,
                index_nodes,
                data_nodes,
                validated,
                nodes,
            }),
            Response::Error(e) => Err(ClientError::Server(e)),
            Response::Text(_) => Err(ClientError::Protocol(
                "text response to a QUERY verb".into(),
            )),
        }
    }

    fn expect_text(&mut self, req: &Request) -> Result<String, ClientError> {
        match self.roundtrip(req)? {
            Response::Text(s) => Ok(s),
            Response::Error(e) => Err(ClientError::Server(e)),
            Response::Answer { .. } => Err(ClientError::Protocol(
                "answer response to a text verb".into(),
            )),
        }
    }

    /// Fetches the health/stats JSON.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        self.expect_text(&Request::Stats)
    }

    /// Asks the server to validate and hot-swap to `path`; returns the
    /// swap summary JSON on success.
    pub fn reload(&mut self, path: &str) -> Result<String, ClientError> {
        self.expect_text(&Request::Reload {
            path: path.to_string(),
        })
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let s = self.expect_text(&Request::Ping)?;
        if s == "pong" {
            Ok(())
        } else {
            Err(ClientError::Protocol(format!(
                "unexpected ping reply {s:?}"
            )))
        }
    }

    /// Requests a graceful drain-and-stop.
    pub fn shutdown_server(&mut self) -> Result<String, ClientError> {
        self.expect_text(&Request::Shutdown)
    }

    /// Writes raw bytes straight onto the socket — the fault bench uses
    /// this to inject malformed frames.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads one response frame (paired with [`Client::send_raw`]).
    pub fn read_response_raw(&mut self) -> Result<(u32, Response), ClientError> {
        let payload = read_frame(&mut self.stream, MAX_RESPONSE_FRAME)?;
        decode_response(&payload).map_err(|e| ClientError::Protocol(e.to_string()))
    }
}
