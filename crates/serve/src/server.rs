//! The TCP front of the daemon: a line-oriented accept loop.
//!
//! Deliberately thin — every request line is handed to
//! [`Daemon::handle`], which is where all behavior lives. One thread
//! per connection (tenant counts are bounded by fleets, not by C10K
//! ambitions); the listener polls in non-blocking mode so an orderly
//! shutdown request can actually stop the loop.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::daemon::Daemon;
use crate::protocol::{error_line, ErrorCode};

/// Set by the `SIGTERM` handler; the accept loop polls it and turns it
/// into [`Daemon::graceful_shutdown`] on the next iteration.
static SIGTERM_RECEIVED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_sigterm(_sig: i32) {
    // Async-signal-safe: one relaxed store, nothing else.
    SIGTERM_RECEIVED.store(true, Ordering::Relaxed);
}

/// Install a `SIGTERM` handler that requests an orderly shutdown (stop
/// admission, flush + fsync WALs, seal final snapshots, exit 0). No-op
/// off Unix. Uses the libc `signal` symbol directly — no crate
/// dependency — which is fine for a handler this trivial.
pub fn install_sigterm_handler() {
    #[cfg(unix)]
    {
        // SAFETY: `signal(2)` with a handler that only performs an
        // atomic store is async-signal-safe; SIGTERM is 15 on every
        // Unix this builds for.
        unsafe {
            extern "C" {
                fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
            }
            const SIGTERM: i32 = 15;
            signal(SIGTERM, on_sigterm);
        }
    }
}

/// Whether a `SIGTERM` has been received since the handler was
/// installed (visible for tests).
#[must_use]
pub fn sigterm_received() -> bool {
    SIGTERM_RECEIVED.load(Ordering::Relaxed)
}

/// A serving daemon bound to a TCP address.
pub struct Server {
    daemon: Arc<Daemon>,
    listener: TcpListener,
    local: SocketAddr,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral test port).
    pub fn bind(daemon: Arc<Daemon>, addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        Ok(Self { daemon, listener, local })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// The daemon this server fronts.
    #[must_use]
    pub fn daemon(&self) -> &Arc<Daemon> {
        &self.daemon
    }

    /// Accept and serve until a `shutdown` request flips the daemon's
    /// flag. Each connection gets its own thread; a connection error
    /// (including a client dropping mid-line) kills that connection
    /// only. At shutdown every live connection's read half is shut, so
    /// a worker waiting on an idle client returns at once, while a
    /// request already read still gets its reply on the write half.
    pub fn run(&self) -> std::io::Result<()> {
        let mut workers = Vec::new();
        while !self.daemon.shutdown_requested() {
            if SIGTERM_RECEIVED.load(Ordering::Relaxed) {
                self.daemon.graceful_shutdown();
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // A connection whose handle cannot be cloned is
                    // dropped, as its worker would drop it.
                    let Ok(reader) = stream.try_clone() else { continue };
                    let daemon = Arc::clone(&self.daemon);
                    let worker = std::thread::spawn(move || serve_connection(&daemon, stream));
                    workers.push((worker, reader));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
            workers.retain(|(w, _)| !w.is_finished());
        }
        for (_, reader) in &workers {
            let _ = reader.shutdown(Shutdown::Read);
        }
        for (w, _) in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

/// The longest request line a connection may send: the bytes before its
/// `\n`. The largest legitimate request is a `repl.sync` whose `have`
/// map lists every tenant, and 16 MiB covers 100k tenants at the
/// 128-byte name bound.
pub(crate) const MAX_LINE: usize = 16 << 20;

/// Serve one connection: read lines, answer lines, until EOF or error.
/// A half-written request (connection dropped mid-line) simply ends the
/// connection — nothing was accepted, nothing is lost — and so does a
/// line that is not UTF-8. A line longer than [`MAX_LINE`] is answered
/// with one `bad_request` and ends it too, so no client can grow one
/// line without bound.
fn serve_connection(daemon: &Daemon, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the cap is enough to tell a line too long.
        match (&mut reader).take(MAX_LINE as u64 + 1).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => return, // EOF, dropped mid-line or timed out
            Ok(_) => {}
        }
        if buf.ends_with(b"\n") {
            buf.pop();
            if buf.ends_with(b"\r") {
                buf.pop();
            }
        }
        let reply = if buf.len() > MAX_LINE {
            daemon.counters.requests.fetch_add(1, Ordering::Relaxed);
            daemon.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
            error_line(ErrorCode::BadRequest, &format!("request line exceeds {MAX_LINE} bytes"))
        } else {
            let Ok(line) = std::str::from_utf8(&buf) else { return };
            if line.trim().is_empty() {
                continue;
            }
            daemon.handle(line)
        };
        if writer.write_all(reply.as_bytes()).is_err()
            || writer.write_all(b"\n").is_err()
            || writer.flush().is_err()
            || buf.len() > MAX_LINE
            || daemon.shutdown_requested()
        {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    use super::*;
    use crate::daemon::ServeOptions;

    /// Send `bytes` and read the reply line (`None`: the connection
    /// closed without one).
    fn send(
        stream: &mut TcpStream,
        reader: &mut BufReader<TcpStream>,
        bytes: &[u8],
    ) -> Option<String> {
        stream.write_all(bytes).unwrap();
        let mut reply = String::new();
        match reader.read_line(&mut reply) {
            Ok(n) if n > 0 => Some(reply),
            _ => None,
        }
    }

    fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    /// A line at the cap is read and answered like any other; one byte
    /// longer gets one `bad_request` and its connection closes, as a line
    /// that is not UTF-8 closes it unanswered. Other connections keep
    /// being served throughout.
    #[test]
    fn request_lines_over_the_cap_are_refused_and_close_the_connection() {
        let dir = std::env::temp_dir().join(format!("rsz-server-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let daemon = Arc::new(
            Daemon::new(ServeOptions { state_dir: dir.clone(), ..ServeOptions::default() })
                .unwrap(),
        );
        let server = Server::bind(Arc::clone(&daemon), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run().unwrap());
        let (mut other, mut other_reader) = connect(addr);
        assert!(send(&mut other, &mut other_reader, b"GET /livez\n")
            .unwrap()
            .contains("\"ok\":true"));

        let mut line = vec![b'x'; MAX_LINE];
        line.push(b'\n');
        let (mut at_cap, mut at_cap_reader) = connect(addr);
        let reply = send(&mut at_cap, &mut at_cap_reader, &line).unwrap();
        assert!(
            reply.contains("\"error\":\"bad_request\"") && !reply.contains("exceeds"),
            "{reply}"
        );
        assert!(send(&mut at_cap, &mut at_cap_reader, b"GET /livez\n")
            .unwrap()
            .contains("\"ok\":true"));

        line.insert(0, b'x');
        let (mut over, mut over_reader) = connect(addr);
        let reply = send(&mut over, &mut over_reader, &line).unwrap();
        assert!(
            reply.contains("\"error\":\"bad_request\"") && reply.contains("exceeds"),
            "{reply}"
        );
        let mut rest = String::new();
        assert!(matches!(over_reader.read_line(&mut rest), Ok(0) | Err(_)), "{rest}");

        let (mut binary, mut binary_reader) = connect(addr);
        assert_eq!(send(&mut binary, &mut binary_reader, b"\xff\xfe\n"), None);

        assert!(send(&mut other, &mut other_reader, b"GET /livez\n")
            .unwrap()
            .contains("\"ok\":true"));
        assert_eq!(daemon.counters.bad_requests.load(Ordering::Relaxed), 2);
        drop((at_cap, at_cap_reader)); // its worker returns at EOF
        send(&mut other, &mut other_reader, b"{\"op\":\"shutdown\"}\n").unwrap();
        handle.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A client holding an idle connection does not hold up shutdown:
    /// `run` returns at once, not at the connection's read timeout, and
    /// the idle client then reads EOF.
    #[test]
    fn shutdown_does_not_wait_on_idle_connections() {
        let dir = std::env::temp_dir().join(format!("rsz-server-idle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = ServeOptions { state_dir: dir.clone(), ..ServeOptions::default() };
        let server = Server::bind(Arc::new(Daemon::new(options).unwrap()), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let (done_tx, done) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || done_tx.send(server.run().is_ok()).unwrap());
        let (mut idle, mut idle_reader) = connect(addr);
        assert!(send(&mut idle, &mut idle_reader, b"GET /livez\n")
            .unwrap()
            .contains("\"ok\":true"));
        let (mut stopper, mut stopper_reader) = connect(addr);
        let reply = send(&mut stopper, &mut stopper_reader, b"{\"op\":\"shutdown\"}\n").unwrap();
        assert!(reply.contains("\"ok\":true"), "{reply}");
        let returned = done.recv_timeout(Duration::from_secs(1));
        assert_eq!(returned, Ok(true), "run must return within 1 s of the shutdown");
        handle.join().unwrap();
        let mut rest = String::new();
        assert!(matches!(idle_reader.read_line(&mut rest), Ok(0) | Err(_)), "{rest}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
