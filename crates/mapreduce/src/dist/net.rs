//! The distributed runtime's socket: one listener/stream pair over the
//! platform's socket family, which the build picks. That is a
//! Unix-domain socket in the system temp directory wherever the platform
//! has them, and loopback TCP (`127.0.0.1`, an ephemeral port) only
//! where it has none. Every worker is a process or thread the
//! coordinator starts on its own host, so neither family reaches a peer
//! the other could not.
//!
//! Every wait on a socket has a deadline. `accept` polls a non-blocking
//! listener; every connected stream, accepted or dialled, waits at most
//! its deadline in any one read or write.

use crate::error::MrError;
use std::io::{Read, Write};
#[cfg(not(unix))]
use std::net::{TcpListener as RawListener, TcpStream as RawStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener as RawListener, UnixStream as RawStream};
use std::time::{Duration, Instant};

/// How long `accept` sleeps between two polls of its listener.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Unread: the build picks the socket family (see the module doc). Kept,
/// with its one value, only because the `benchmark/` package names it;
/// it goes when that package is next changed (ROADMAP item 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// The platform's socket family (see the module doc).
    #[default]
    Uds,
}

/// A bound shuffle-service endpoint. Dropping a Unix-domain listener
/// removes its socket file.
pub(crate) struct Listener {
    socket: RawListener,
    /// What workers connect to: the socket file's path, or host:port.
    addr: String,
}

impl Listener {
    /// Bind a listener, non-blocking so that `accept` can poll it.
    pub(crate) fn bind() -> Result<Listener, MrError> {
        let listener = Self::bind_blocking()?;
        listener
            .socket
            .set_nonblocking(true)
            .map_err(|e| MrError::Net(format!("listener nonblocking: {e}")))?;
        Ok(listener)
    }

    #[cfg(unix)]
    fn bind_blocking() -> Result<Listener, MrError> {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Tells concurrently bound listeners within one process apart
        // (the pid alone is not enough: one test binary runs many
        // coordinators).
        static LISTENER_SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "scihadoop-shuffle-{}-{}.sock",
            std::process::id(),
            LISTENER_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&path);
        let socket = RawListener::bind(&path)
            .map_err(|e| MrError::Net(format!("bind listener {path:?}: {e}")))?;
        let addr = path.to_string_lossy().into_owned();
        Ok(Listener { socket, addr })
    }

    #[cfg(not(unix))]
    fn bind_blocking() -> Result<Listener, MrError> {
        let bound = RawListener::bind(("127.0.0.1", 0))
            .and_then(|socket| Ok((socket.local_addr()?.to_string(), socket)));
        let (addr, socket) = bound.map_err(|e| MrError::Net(format!("bind listener: {e}")))?;
        Ok(Listener { socket, addr })
    }

    /// The address workers must connect to.
    pub(crate) fn addr(&self) -> &str {
        &self.addr
    }

    /// Accept one worker connection. The listener is polled every
    /// `ACCEPT_POLL`; between polls, a worker that has exited (`alive`
    /// says so) or a `deadline` that has passed ends the wait. The
    /// accepted stream waits at most `deadline` in any read or write.
    pub(crate) fn accept(
        &self,
        deadline: Duration,
        alive: &mut dyn FnMut() -> bool,
    ) -> Result<Stream, MrError> {
        let t0 = Instant::now();
        loop {
            match self.socket.accept() {
                Ok((socket, _)) => return Stream(socket).with_deadline(deadline),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(MrError::Net(format!("accept: {e}"))),
            }
            if !alive() {
                return Err(MrError::Net(
                    "a worker process exited before connecting to the shuffle service".into(),
                ));
            }
            if t0.elapsed() > deadline {
                return Err(MrError::Net(format!(
                    "no worker connected within {deadline:?}"
                )));
            }
            std::thread::sleep(ACCEPT_POLL);
        }
    }
}

#[cfg(unix)]
impl Drop for Listener {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.addr);
    }
}

/// One connected socket.
#[derive(Debug)]
pub(crate) struct Stream(RawStream);

impl Stream {
    /// Connect to the coordinator, once: its listener is bound before
    /// any worker exists, so a refusal is final. The stream waits at
    /// most `deadline` in any read or write.
    pub(crate) fn connect(addr: &str, deadline: Duration) -> Result<Stream, MrError> {
        let socket =
            RawStream::connect(addr).map_err(|e| MrError::Net(format!("connect {addr}: {e}")))?;
        Stream(socket).with_deadline(deadline)
    }

    /// Set a connected stream up: blocking, Nagle off on TCP, and
    /// `deadline` as the timeout of every read and write, so a peer that
    /// goes silent ends the conversation in a `Net` error instead of a
    /// hang. The one place a stream's timeouts are set.
    fn with_deadline(self, deadline: Duration) -> Result<Stream, MrError> {
        let set_up = |e: std::io::Error| MrError::Net(format!("set up stream: {e}"));
        #[cfg(not(unix))]
        self.0.set_nodelay(true).map_err(set_up)?;
        self.0
            .set_nonblocking(false)
            .and_then(|()| self.0.set_read_timeout(Some(deadline)))
            .and_then(|()| self.0.set_write_timeout(Some(deadline)))
            .map_err(set_up)?;
        Ok(self)
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DEADLINE;

    impl Stream {
        /// The read and write timeouts the stream carries.
        fn timeouts(&self) -> (Option<Duration>, Option<Duration>) {
            (
                self.0.read_timeout().unwrap(),
                self.0.write_timeout().unwrap(),
            )
        }

        /// Half-close: the peer reads end-of-stream after what was sent.
        pub(crate) fn shutdown_write(&self) {
            self.0.shutdown(std::net::Shutdown::Write).unwrap();
        }
    }

    /// Connect to `listener` from a thread of its own, `delay` from now.
    fn connect_after(
        listener: &Listener,
        delay: Duration,
        deadline: Duration,
    ) -> std::thread::JoinHandle<Stream> {
        let addr = listener.addr().to_string();
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            Stream::connect(&addr, deadline).unwrap()
        })
    }

    #[test]
    fn accept_takes_a_connection() {
        let listener = Listener::bind().unwrap();
        let addr = listener.addr().to_string();
        let join = connect_after(&listener, Duration::ZERO, DEADLINE);
        let mut accepted = listener.accept(DEADLINE, &mut || true).unwrap();
        let mut client = join.join().unwrap();
        client.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        accepted.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        drop(listener);
        if cfg!(unix) {
            assert!(!std::path::Path::new(&addr).exists(), "socket file removed");
        }
    }

    #[test]
    fn accept_times_out_idle() {
        let listener = Listener::bind().unwrap();
        let t0 = Instant::now();
        let err = listener
            .accept(Duration::from_millis(120), &mut || true)
            .unwrap_err();
        assert!(
            err.to_string().contains("no worker connected within"),
            "{err}"
        );
        assert!(t0.elapsed() >= Duration::from_millis(120));
        assert!(t0.elapsed() < Duration::from_secs(5), "must not hang");
    }

    #[test]
    fn accept_takes_a_late_connection() {
        // The connection lands well after the wait starts, after many
        // empty polls.
        let listener = Listener::bind().unwrap();
        let join = connect_after(&listener, Duration::from_millis(150), DEADLINE);
        let mut accepted = listener.accept(DEADLINE, &mut || true).unwrap();
        let mut client = join.join().unwrap();
        client.write_all(b"late").unwrap();
        let mut buf = [0u8; 4];
        accepted.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"late");
    }

    #[test]
    fn accept_notices_dead_workers() {
        let listener = Listener::bind().unwrap();
        let t0 = Instant::now();
        let err = listener.accept(DEADLINE, &mut || false).unwrap_err();
        assert!(
            err.to_string().contains("exited before connecting"),
            "{err}"
        );
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn accept_and_connect_install_the_deadline_on_reads_and_writes() {
        let listener = Listener::bind().unwrap();
        let join = connect_after(&listener, Duration::ZERO, DEADLINE);
        let accepted = listener.accept(DEADLINE, &mut || true).unwrap();
        let connected = join.join().unwrap();
        for stream in [&accepted, &connected] {
            assert_eq!(stream.timeouts(), (Some(DEADLINE), Some(DEADLINE)));
        }
    }
}
