//! A tiny blocking client for the wire protocol.
//!
//! Used by `pospec call`, the integration tests, and the bench
//! campaign.  One [`Client`] owns one connection; [`Client::call`]
//! writes a request line and blocks for the matching response line
//! (the protocol answers in order per connection).

use crate::retry::{request_idempotent, RetryPolicy};
use pospec_json::Value;
use std::cell::Cell;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::time::Duration;

/// Why a call failed on the client side.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, or write).
    Io(std::io::Error),
    /// The server closed the connection before answering.
    Disconnected,
    /// The response line was not valid JSON.
    BadResponse(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::BadResponse(e) => write!(f, "malformed response: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One connection to a `pospec-serve` instance.
pub struct Client {
    addr: String,
    timeout: Cell<Option<Duration>>,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to `addr` (e.g. `127.0.0.1:7077`).
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            addr: addr.to_string(),
            timeout: Cell::new(None),
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Bound how long a single call may wait for its response.  The
    /// value is remembered and re-applied after [`Client::reconnect`].
    pub fn set_timeout(&self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.writer.set_write_timeout(timeout)?;
        self.reader.get_ref().set_read_timeout(timeout)?;
        self.timeout.set(timeout);
        Ok(())
    }

    /// Drop the current connection and dial the same address again,
    /// keeping the configured timeout.  A connection that suffered any
    /// transport error (including a read timeout) may hold a half-read
    /// response, so retrying without reconnecting could pair a request
    /// with a stale answer — the retry path always goes through here.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        let fresh = Client::connect(&self.addr)?;
        fresh.set_timeout(self.timeout.get())?;
        *self = fresh;
        Ok(())
    }

    /// Send one request object and wait for its response object.
    pub fn call(&mut self, request: &Value) -> Result<Value, ClientError> {
        request.write_line(&mut self.writer)?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Disconnected);
        }
        pospec_json::parse(line.trim_end()).map_err(|e| ClientError::BadResponse(e.to_string()))
    }

    /// [`Client::call`] with seeded-backoff retries.
    ///
    /// Retries happen on transport errors (reconnecting first — broken
    /// pipes, timeouts, and mid-line closes all desync the stream) and
    /// on structured `overloaded` refusals (same connection, it is
    /// healthy).  Only requests [`request_idempotent`] approves retry
    /// automatically; `retry_unsafe` overrides that judgement for
    /// callers who know the op is safe to repeat.  When the budget runs
    /// out the last error (or the `overloaded` response) is returned.
    pub fn call_retrying(
        &mut self,
        request: &Value,
        policy: &RetryPolicy,
        retry_unsafe: bool,
    ) -> Result<Value, ClientError> {
        let retryable = retry_unsafe || request_idempotent(request);
        let mut delays = policy.schedule();
        loop {
            let error = match self.call(request) {
                Ok(response) => {
                    if retryable && error_kind(&response) == Some("overloaded") {
                        match delays.next() {
                            Some(delay) => {
                                std::thread::sleep(delay);
                                continue;
                            }
                            None => return Ok(response),
                        }
                    }
                    return Ok(response);
                }
                Err(e) => e,
            };
            if !retryable {
                return Err(error);
            }
            match delays.next() {
                Some(delay) => {
                    std::thread::sleep(delay);
                    // Reconnect failures are not fatal here: the next
                    // call on the stale stream fails fast and consumes
                    // the next slot of the budget.
                    let _ = self.reconnect();
                }
                None => return Err(error),
            }
        }
    }
}

/// Did the response report success?
pub fn response_ok(response: &Value) -> bool {
    response.get("ok").and_then(Value::as_bool) == Some(true)
}

/// The `error.kind` of a failed response, if any.
pub fn error_kind(response: &Value) -> Option<&str> {
    response.get("error").and_then(|e| e.get("kind")).and_then(Value::as_str)
}
