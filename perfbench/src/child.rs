//! Child processes of the `pospec` CLI and the two wire clients that
//! drive them: Content-Length framed JSON-RPC over stdio (`pospec lsp`)
//! and newline-delimited JSON over TCP (`pospec serve`).

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long any single reply may take before the operation counts as
/// failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A child process that is killed and reaped when dropped, so no exit
/// path of the benchmark leaves it running.
pub struct ChildGuard {
    child: Child,
}

impl ChildGuard {
    /// Start `pospec ARGS` with piped stdin and stdout.  The child
    /// inherits the benchmark's CPU placement.
    pub fn spawn(
        pospec: &Path,
        args: &[&str],
    ) -> io::Result<(ChildGuard, ChildStdin, ChildStdout)> {
        let mut child = Command::new(pospec)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = child.stdout.take().expect("stdout is piped");
        Ok((ChildGuard { child }, stdin, stdout))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Wait up to `timeout` for a clean exit; kill the child after that.
    /// Returns whether it exited successfully on its own.
    pub fn finish(mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return false, // Drop kills and reaps.
            }
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A framed JSON-RPC connection to a `pospec lsp` child.  A reader
/// thread timestamps each incoming frame on arrival, so round trips end
/// when the reply is in, not when the benchmark gets round to decoding
/// it.
pub struct LspConn {
    pub child: ChildGuard,
    stdin: ChildStdin,
    frames: Receiver<(Instant, String)>,
    reader: JoinHandle<()>,
}

impl LspConn {
    pub fn spawn(pospec: &Path, depth: usize) -> io::Result<LspConn> {
        let depth = depth.to_string();
        let (child, stdin, stdout) = ChildGuard::spawn(pospec, &["lsp", "--depth", &depth])?;
        let (tx, frames) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut r = BufReader::new(stdout);
            while let Some(body) = read_frame(&mut r) {
                if tx.send((Instant::now(), body)).is_err() {
                    break;
                }
            }
        });
        Ok(LspConn { child, stdin, frames, reader })
    }

    pub fn send(&mut self, body: &str) -> io::Result<()> {
        write!(self.stdin, "Content-Length: {}\r\n\r\n{body}", body.len())?;
        self.stdin.flush()
    }

    /// The next frame and its arrival time.
    pub fn recv(&self) -> Option<(Instant, String)> {
        self.frames.recv_timeout(REPLY_TIMEOUT).ok()
    }

    /// `shutdown` then `exit`, and wait for the child.  Returns whether
    /// the server exited cleanly.
    pub fn close(mut self, shutdown_id: u64) -> bool {
        let sent = self
            .send(&format!(r#"{{"jsonrpc":"2.0","id":{shutdown_id},"method":"shutdown"}}"#))
            .is_ok();
        let acked = sent && self.recv().is_some();
        let _ = self.send(r#"{"jsonrpc":"2.0","method":"exit"}"#);
        drop(self.stdin);
        let clean = self.child.finish(Duration::from_secs(10));
        let _ = self.reader.join();
        acked && clean
    }
}

/// Read one `Content-Length` frame body; `None` at end of stream.
fn read_frame(r: &mut impl BufRead) -> Option<String> {
    let mut len = None;
    let mut line = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line).ok()? == 0 {
            return None;
        }
        let l = line.trim_end();
        if l.is_empty() {
            if len.is_some() {
                break;
            }
            continue;
        }
        if let Some(v) = l.strip_prefix("Content-Length:") {
            len = v.trim().parse::<usize>().ok();
        }
    }
    let mut body = vec![0u8; len?];
    r.read_exact(&mut body).ok()?;
    String::from_utf8(body).ok()
}

/// One newline-delimited JSON connection to a `pospec serve` child.
pub struct LineConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl LineConn {
    pub fn connect(addr: &str) -> io::Result<LineConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(LineConn { writer: stream.try_clone()?, reader: BufReader::new(stream) })
    }

    /// Send one request line; return the response line and its arrival
    /// time.
    pub fn call(&mut self, line: &str) -> io::Result<(String, Instant)> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut out = String::new();
        if self.reader.read_line(&mut out)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
        }
        let at = Instant::now();
        out.truncate(out.trim_end().len());
        Ok((out, at))
    }
}

/// Spawn `pospec serve` on an ephemeral port; return the child, its
/// address, and its stdout (kept open so the closing summary line never
/// meets a closed pipe).
pub fn spawn_server(
    pospec: &Path,
    workers: usize,
    queue: usize,
) -> io::Result<(ChildGuard, String, BufReader<ChildStdout>)> {
    let (workers, queue) = (workers.to_string(), queue.to_string());
    let args = ["serve", "--addr", "127.0.0.1:0", "--workers", &workers, "--queue", &queue];
    let (child, _stdin, stdout) = ChildGuard::spawn(pospec, &args)?;
    let mut out = BufReader::new(stdout);
    let mut banner = String::new();
    out.read_line(&mut banner)?;
    // "pospec-serve listening on 127.0.0.1:PORT (N worker(s), queue Q)"
    let addr = banner
        .strip_prefix("pospec-serve listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or_else(|| io::Error::other(format!("unexpected banner `{}`", banner.trim())))?;
    Ok((child, addr.to_string(), out))
}
