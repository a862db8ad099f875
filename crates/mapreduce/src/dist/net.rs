//! Socket transports for the distributed runtime: loopback TCP and
//! Unix-domain sockets behind one listener/stream pair, so the rest of
//! the module is transport-agnostic.
//!
//! Every wait on a socket has a deadline. `accept` polls a non-blocking
//! listener; every connected stream, accepted or dialled, waits at most
//! its deadline in any one read or write.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use crate::error::MrError;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long `accept` sleeps between two polls of its listener.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Which socket family the shuffle service speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// Loopback TCP (`127.0.0.1`, ephemeral port).
    Tcp,
    /// Unix-domain socket in the system temp directory.
    #[default]
    Uds,
}

impl Transport {
    /// Parse a CLI-style name (`tcp` / `uds`).
    pub fn parse(s: &str) -> Result<Transport, MrError> {
        match s {
            "tcp" => Ok(Transport::Tcp),
            "uds" | "unix" => Ok(Transport::Uds),
            other => Err(MrError::Config(format!(
                "unknown transport {other:?} (expected tcp or uds)"
            ))),
        }
    }

    /// Stable CLI/env name.
    pub fn name(self) -> &'static str {
        match self {
            Transport::Tcp => "tcp",
            Transport::Uds => "uds",
        }
    }
}

/// Distinguishes concurrently bound listeners within one process (the
/// pid alone is not enough: one test binary runs many coordinators).
static LISTENER_SEQ: AtomicU64 = AtomicU64::new(0);

/// A bound shuffle-service endpoint. Dropping a UDS listener removes
/// its socket file.
pub(crate) enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Uds(UnixListener, PathBuf),
}

impl Listener {
    /// Bind a listener, non-blocking so that `accept` can poll it.
    pub(crate) fn bind(transport: Transport) -> Result<Listener, MrError> {
        let listener = match transport {
            Transport::Tcp => {
                let l = TcpListener::bind(("127.0.0.1", 0))
                    .map_err(|e| MrError::Net(format!("bind tcp listener: {e}")))?;
                Listener::Tcp(l)
            }
            #[cfg(unix)]
            Transport::Uds => {
                let path = std::env::temp_dir().join(format!(
                    "scihadoop-shuffle-{}-{}.sock",
                    std::process::id(),
                    LISTENER_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                let _ = std::fs::remove_file(&path);
                let l = UnixListener::bind(&path)
                    .map_err(|e| MrError::Net(format!("bind uds listener {path:?}: {e}")))?;
                Listener::Uds(l, path)
            }
            #[cfg(not(unix))]
            Transport::Uds => {
                return Err(MrError::Config(
                    "unix-domain sockets are not available on this platform".into(),
                ))
            }
        };
        match &listener {
            Listener::Tcp(l) => l.set_nonblocking(true),
            #[cfg(unix)]
            Listener::Uds(l, _) => l.set_nonblocking(true),
        }
        .map_err(|e| MrError::Net(format!("listener nonblocking: {e}")))?;
        Ok(listener)
    }

    /// The address workers must connect to (host:port, or a socket
    /// path).
    pub(crate) fn addr(&self) -> Result<String, MrError> {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .map_err(|e| MrError::Net(format!("listener local_addr: {e}"))),
            #[cfg(unix)]
            Listener::Uds(_, path) => Ok(path.to_string_lossy().into_owned()),
        }
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
            let accepted = match self {
                Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
                #[cfg(unix)]
                Listener::Uds(l, _) => l.accept().map(|(s, _)| Stream::Uds(s)),
            };
            match accepted {
                Ok(stream) => return stream.with_deadline(deadline),
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

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Uds(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One connected socket, either family.
#[derive(Debug)]
pub(crate) enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

impl Stream {
    /// Connect to the coordinator, once: its listener is bound before
    /// any worker exists, so a refusal is final. The stream waits at
    /// most `deadline` in any read or write.
    pub(crate) fn connect(
        transport: Transport,
        addr: &str,
        deadline: Duration,
    ) -> Result<Stream, MrError> {
        let stream = match transport {
            Transport::Tcp => TcpStream::connect(addr).map(Stream::Tcp),
            #[cfg(unix)]
            Transport::Uds => UnixStream::connect(addr).map(Stream::Uds),
            #[cfg(not(unix))]
            Transport::Uds => {
                return Err(MrError::Config(
                    "unix-domain sockets are not available on this platform".into(),
                ))
            }
        };
        stream
            .map_err(|e| MrError::Net(format!("connect {} {addr}: {e}", transport.name())))?
            .with_deadline(deadline)
    }

    /// Set a connected stream up: blocking, Nagle off on TCP, and
    /// `deadline` as the timeout of every read and write, so a peer that
    /// goes silent ends the conversation in a `Net` error instead of a
    /// hang. The one place a stream's timeouts are set.
    fn with_deadline(self, deadline: Duration) -> Result<Stream, MrError> {
        match &self {
            Stream::Tcp(s) => s
                .set_nodelay(true)
                .and_then(|()| s.set_nonblocking(false))
                .and_then(|()| s.set_read_timeout(Some(deadline)))
                .and_then(|()| s.set_write_timeout(Some(deadline))),
            #[cfg(unix)]
            Stream::Uds(s) => s
                .set_nonblocking(false)
                .and_then(|()| s.set_read_timeout(Some(deadline)))
                .and_then(|()| s.set_write_timeout(Some(deadline))),
        }
        .map_err(|e| MrError::Net(format!("set up stream: {e}")))?;
        Ok(self)
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Uds(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DEADLINE;

    impl Stream {
        /// The read and write timeouts the stream carries.
        fn timeouts(&self) -> (Option<Duration>, Option<Duration>) {
            match self {
                Stream::Tcp(s) => (s.read_timeout().unwrap(), s.write_timeout().unwrap()),
                #[cfg(unix)]
                Stream::Uds(s) => (s.read_timeout().unwrap(), s.write_timeout().unwrap()),
            }
        }
    }

    /// Every transport this platform has.
    fn transports() -> impl Iterator<Item = Transport> {
        [Transport::Tcp, Transport::Uds]
            .into_iter()
            .filter(|&t| cfg!(unix) || t == Transport::Tcp)
    }

    /// Connect to `listener` from a thread of its own, `delay` from now.
    fn connect_after(
        transport: Transport,
        listener: &Listener,
        delay: Duration,
        deadline: Duration,
    ) -> std::thread::JoinHandle<Stream> {
        let addr = listener.addr().unwrap();
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            Stream::connect(transport, &addr, deadline).unwrap()
        })
    }

    #[test]
    fn transport_names_roundtrip() {
        assert_eq!(Transport::parse("tcp").unwrap(), Transport::Tcp);
        assert_eq!(Transport::parse("uds").unwrap(), Transport::Uds);
        assert_eq!(Transport::parse("unix").unwrap(), Transport::Uds);
        assert!(Transport::parse("carrier-pigeon").is_err());
        assert_eq!(
            Transport::parse(Transport::Tcp.name()).unwrap(),
            Transport::Tcp
        );
    }

    #[test]
    fn accept_takes_a_connection_on_both_transports() {
        for transport in transports() {
            let listener = Listener::bind(transport).unwrap();
            let addr = listener.addr().unwrap();
            let join = connect_after(transport, &listener, Duration::ZERO, DEADLINE);
            let mut accepted = listener.accept(DEADLINE, &mut || true).unwrap();
            let mut client = join.join().unwrap();
            client.write_all(b"ping").unwrap();
            let mut buf = [0u8; 4];
            accepted.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"ping", "{transport:?}");
            drop(listener);
            if transport == Transport::Uds {
                assert!(!std::path::Path::new(&addr).exists(), "socket file removed");
            }
        }
    }

    #[test]
    fn accept_times_out_idle() {
        for transport in transports() {
            let listener = Listener::bind(transport).unwrap();
            let t0 = Instant::now();
            let err = listener
                .accept(Duration::from_millis(120), &mut || true)
                .unwrap_err();
            assert!(
                err.to_string().contains("no worker connected within"),
                "{err}"
            );
            assert!(t0.elapsed() >= Duration::from_millis(120), "{transport:?}");
            assert!(t0.elapsed() < Duration::from_secs(5), "must not hang");
        }
    }

    #[test]
    fn accept_takes_a_late_connection() {
        // The connection lands well after the wait starts, after many
        // empty polls.
        for transport in transports() {
            let listener = Listener::bind(transport).unwrap();
            let join = connect_after(transport, &listener, Duration::from_millis(150), DEADLINE);
            let mut accepted = listener.accept(DEADLINE, &mut || true).unwrap();
            let mut client = join.join().unwrap();
            client.write_all(b"late").unwrap();
            let mut buf = [0u8; 4];
            accepted.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"late", "{transport:?}");
        }
    }

    #[test]
    fn accept_notices_dead_workers() {
        for transport in transports() {
            let listener = Listener::bind(transport).unwrap();
            let t0 = Instant::now();
            let err = listener.accept(DEADLINE, &mut || false).unwrap_err();
            assert!(
                err.to_string().contains("exited before connecting"),
                "{err}"
            );
            assert!(t0.elapsed() < Duration::from_secs(1), "{transport:?}");
        }
    }

    #[test]
    fn accept_and_connect_install_the_deadline_on_reads_and_writes() {
        for transport in transports() {
            let listener = Listener::bind(transport).unwrap();
            let join = connect_after(transport, &listener, Duration::ZERO, DEADLINE);
            let accepted = listener.accept(DEADLINE, &mut || true).unwrap();
            let connected = join.join().unwrap();
            for stream in [&accepted, &connected] {
                assert_eq!(stream.timeouts(), (Some(DEADLINE), Some(DEADLINE)));
            }
        }
    }
}
