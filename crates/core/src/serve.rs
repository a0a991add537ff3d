//! The one skeleton for the monitor's own host threads — the RHC server,
//! the telemetry server and the self-watchdog: one stop/join lifecycle
//! ([`Service`]) and one bounded line reader ([`LineReader`]).

use std::io::{BufRead, BufReader, ErrorKind, Read as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The longest line, terminator included, either socket accepts.
pub(crate) const MAX_LINE: usize = 8 * 1024;
/// Live handler threads per listener; a connection beyond them is closed.
pub(crate) const MAX_CONNECTIONS: usize = 32;
/// How often a handler blocked in a read looks at the stop flag.
const READ_POLL: Duration = Duration::from_millis(25);
/// How long a write may block: a client that stops reading then fails a
/// write instead of holding its handler, and `stop` with it.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// A host thread with a stop flag. [`Service::stop`] raises the flag,
/// wakes a listener's blocking `accept`, and joins; it is idempotent.
/// Dropping without `stop` raises the flag and never blocks.
#[derive(Debug)]
pub(crate) struct Service {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    wake: Option<SocketAddr>,
}

impl Service {
    /// Runs `body` on a thread named `name`; `body` returns once its flag
    /// is raised.
    pub(crate) fn spawn(name: &str, body: impl FnOnce(Arc<AtomicBool>) + Send + 'static) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new().name(name.to_owned()).spawn(move || body(flag));
        Service { stop, handle: Some(handle.expect("spawn service thread")), wake: None }
    }

    /// Binds an ephemeral loopback port and runs `handler` on a thread of
    /// its own for each connection, at most `cap` at once, reading it
    /// through a [`LineReader`].
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub(crate) fn listen<H>(name: &str, cap: usize, handler: H) -> std::io::Result<Self>
    where
        H: Fn(LineReader, &AtomicBool) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let wake = Some(listener.local_addr()?);
        let handler = Arc::new(handler);
        let mut service = Service::spawn(name, move |stop| {
            let mut handlers: Vec<JoinHandle<()>> = Vec::new();
            while let Ok((stream, _)) = listener.accept() {
                // `stop` raises the flag, then wakes us with a connection.
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                handlers.retain(|h| !h.is_finished());
                let timeouts = stream.set_read_timeout(Some(READ_POLL)).is_ok()
                    && stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_ok();
                if handlers.len() < cap && timeouts {
                    let (handler, stop) = (Arc::clone(&handler), Arc::clone(&stop));
                    let spawned = std::thread::Builder::new()
                        .spawn(move || handler(LineReader::new(stream), &stop));
                    handlers.extend(spawned.ok());
                }
            }
            for h in handlers {
                let _ = h.join();
            }
        });
        service.wake = wake;
        Ok(service)
    }

    /// The address a listener accepts on.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.wake.expect("only a listening service has an address")
    }

    /// Raises the flag and wakes the accept, once; returns the thread.
    fn signal(&mut self) -> Option<JoinHandle<()>> {
        let handle = self.handle.take()?;
        self.stop.store(true, Ordering::SeqCst);
        if let Some(addr) = self.wake {
            let _ = TcpStream::connect(addr);
        }
        Some(handle)
    }

    /// Stops the thread and joins it. Idempotent.
    pub(crate) fn stop(&mut self) {
        if let Some(h) = self.signal() {
            let _ = h.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.signal();
    }
}

/// Reads `\n`-terminated lines of at most [`MAX_LINE`] bytes from a
/// connection. A read timeout keeps a partial line for the next poll.
pub(crate) struct LineReader {
    inner: BufReader<TcpStream>,
    line: Vec<u8>,
}

impl LineReader {
    fn new(stream: TcpStream) -> Self {
        LineReader { inner: BufReader::new(stream), line: Vec::new() }
    }

    /// The connection, for writing a reply.
    pub(crate) fn stream(&mut self) -> &mut TcpStream {
        self.inner.get_mut()
    }

    /// The next line without its `\r\n` or `\n`. `None` means the caller
    /// closes the connection: end of stream (a partial last line is
    /// dropped), a hard I/O error, invalid UTF-8, `stop` raised, or a
    /// line longer than [`MAX_LINE`].
    pub(crate) fn next_line(&mut self, stop: &AtomicBool) -> Option<&str> {
        self.line.clear();
        while !self.line.ends_with(b"\n") {
            if stop.load(Ordering::SeqCst) || self.line.len() >= MAX_LINE {
                return None;
            }
            let room = (MAX_LINE - self.line.len()) as u64;
            match (&mut self.inner).take(room).read_until(b'\n', &mut self.line) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => return None,
            }
        }
        let line = std::str::from_utf8(&self.line).ok()?;
        Some(line.trim_end_matches('\n').trim_end_matches('\r'))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::io::Write as _;
    use std::time::Instant;

    /// Sends `payload` (the server may close before it is all written) and
    /// asserts that the server closes the connection within 2 s without
    /// sending a byte.
    pub(crate) fn assert_closed_unanswered(addr: SocketAddr, payload: &[u8]) {
        let start = Instant::now();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_write_timeout(Some(Duration::from_secs(2))).expect("write timeout");
        stream.set_read_timeout(Some(Duration::from_secs(2))).expect("read timeout");
        let _ = stream.write_all(payload);
        let mut reply = Vec::new();
        if let Err(e) = stream.read_to_end(&mut reply) {
            let open = matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut);
            assert!(!open, "the server kept the connection open for 2 s");
        }
        assert!(reply.is_empty(), "the server answered: {:?}", String::from_utf8_lossy(&reply));
        assert!(start.elapsed() < Duration::from_secs(2), "closing took {:?}", start.elapsed());
    }

    /// Echoes every line back until the reader gives up.
    fn echo(mut reader: LineReader, stop: &AtomicBool) {
        while let Some(line) = reader.next_line(stop) {
            let reply = format!("{line}\n");
            if reader.stream().write_all(reply.as_bytes()).is_err() {
                return;
            }
        }
    }

    /// Sends one line and reads the reply: `Some(line)` when served,
    /// `None` when the server closed the connection.
    fn ping(addr: SocketAddr) -> (TcpStream, Option<String>) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
        let _ = stream.write_all(b"ping\n");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut reply = String::new();
        match reader.read_line(&mut reply) {
            Ok(n) if n > 0 => (stream, Some(reply)),
            Ok(_) => (stream, None),
            Err(e) => {
                assert!(
                    !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                    "neither served nor closed within 5 s"
                );
                (stream, None)
            }
        }
    }

    #[test]
    fn a_connection_over_the_cap_is_closed_and_served_once_one_leaves() {
        let mut service = Service::listen("test-echo", 2, echo).expect("bind");
        let (first, reply) = ping(service.addr());
        assert_eq!(reply.as_deref(), Some("ping\n"));
        let (_second, reply) = ping(service.addr());
        assert_eq!(reply.as_deref(), Some("ping\n"));
        let (_third, reply) = ping(service.addr());
        assert_eq!(reply, None, "a third live connection must be refused at a cap of 2");

        drop(first);
        // The first handler sees EOF and exits; the accept loop notices on
        // its next accept, so retry until the slot is free.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if ping(service.addr()).1.as_deref() == Some("ping\n") {
                break;
            }
            assert!(Instant::now() < deadline, "the freed slot was never reused");
            std::thread::sleep(Duration::from_millis(10));
        }
        service.stop();
    }

    #[test]
    fn line_reader_keeps_partial_lines_across_polls_and_bounds_length() {
        let mut service = Service::listen("test-echo", MAX_CONNECTIONS, echo).expect("bind");
        let mut stream = TcpStream::connect(service.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
        // A line dribbled in across several read polls arrives whole.
        stream.write_all(b"hel").unwrap();
        std::thread::sleep(READ_POLL * 3);
        stream.write_all(b"lo\r\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply, "hello\n");
        // The longest allowed line still passes; one byte more closes.
        let longest = format!("{}\n", "a".repeat(MAX_LINE - 1));
        stream.write_all(longest.as_bytes()).unwrap();
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply, longest);
        let _ = stream.write_all("a".repeat(MAX_LINE + 1).as_bytes());
        reply.clear();
        assert!(!matches!(reader.read_line(&mut reply), Ok(n) if n > 0), "{reply:?}");
        service.stop();
    }

    #[test]
    fn stop_is_idempotent_and_drop_never_blocks() {
        let mut service = Service::spawn("test-loop", |stop| {
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        service.stop();
        service.stop();
        // A handler that ignores the flag must not block a drop.
        let gate = Arc::new(AtomicBool::new(true));
        let held = Arc::clone(&gate);
        let (started, handler_started) = std::sync::mpsc::channel();
        let wedged = Service::listen("test-wedged", 2, move |_, _| {
            let _ = started.send(());
            while held.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        })
        .expect("bind");
        let _client = TcpStream::connect(wedged.addr()).expect("connect");
        handler_started.recv_timeout(Duration::from_secs(5)).expect("handler runs");
        drop(wedged);
        gate.store(false, Ordering::SeqCst);
    }
}
