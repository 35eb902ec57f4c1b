//! The frame client: `evirel-serve`'s wire protocol re-implemented
//! from its specification (`crates/serve/src/protocol.rs`), with no
//! dependency on the repository's crates.
//!
//! A frame is a `u32` big-endian payload length followed by that many
//! bytes of UTF-8. A reply's first line is `OK`, `ERR <kind>` or
//! `BUSY`; the rest is the body.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest frame the server sends (`MAX_FRAME_BYTES`).
const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// One persistent connection.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    out: Vec<u8>,
    reply: Vec<u8>,
}

impl Client {
    /// Connect with `TCP_NODELAY` and a per-read timeout: a server
    /// that stops answering becomes an error, not a hang.
    ///
    /// # Errors
    /// Connection errors.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Client {
            stream,
            out: Vec::new(),
            reply: Vec::new(),
        })
    }

    /// Send one request and wait for its reply. Header and payload go
    /// out in one write (separate writes would meet Nagle and delayed
    /// ACK). The returned text is the whole reply payload.
    ///
    /// # Errors
    /// I/O errors and timeouts; `InvalidData` for an oversized or
    /// non-UTF-8 reply. After any error the connection is unusable.
    pub fn call(&mut self, payload: &str) -> io::Result<&str> {
        self.out.clear();
        self.out
            .extend_from_slice(&(payload.len() as u32).to_be_bytes());
        self.out.extend_from_slice(payload.as_bytes());
        self.stream.write_all(&self.out)?;
        let mut header = [0u8; 4];
        self.stream.read_exact(&mut header)?;
        let len = u32::from_be_bytes(header) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply frame of {len} bytes exceeds the protocol's ceiling"),
            ));
        }
        self.reply.resize(len, 0);
        self.stream.read_exact(&mut self.reply)?;
        std::str::from_utf8(&self.reply)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "reply is not UTF-8"))
    }
}

/// A reply split into its parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply<'a> {
    /// `OK\n<body>`
    Ok(&'a str),
    /// `ERR <kind>\n<message>`
    Err(&'a str, &'a str),
    /// `BUSY\n<message>`
    Busy(&'a str),
    /// Anything else.
    Malformed,
}

impl<'a> Reply<'a> {
    /// Split a reply payload on its status line.
    pub fn parse(payload: &'a str) -> Reply<'a> {
        let (head, body) = payload.split_once('\n').unwrap_or((payload, ""));
        let mut words = head.split_whitespace();
        match words.next() {
            Some("OK") => Reply::Ok(body),
            Some("BUSY") => Reply::Busy(body),
            Some("ERR") => Reply::Err(words.next().unwrap_or("unknown"), body),
            _ => Reply::Malformed,
        }
    }
}

/// The value of `key=` on a space-separated header line such as
/// `tuples=6 conflicts=13 cached=0 generation=0`.
pub fn header_field(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|w| w.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn replies_split_on_the_status_line() {
        assert_eq!(Reply::parse("OK\nbody\nmore"), Reply::Ok("body\nmore"));
        assert_eq!(Reply::parse("OK"), Reply::Ok(""));
        assert_eq!(
            Reply::parse("ERR parse\nbad token"),
            Reply::Err("parse", "bad token")
        );
        assert_eq!(Reply::parse("BUSY\nqueue full"), Reply::Busy("queue full"));
        assert_eq!(Reply::parse("what"), Reply::Malformed);
        assert_eq!(Reply::parse(""), Reply::Malformed);
    }

    #[test]
    fn header_fields_parse_by_exact_key() {
        let line = "tuples=6 conflicts=13 cached=0 generation=42";
        assert_eq!(header_field(line, "tuples"), Some(6));
        assert_eq!(header_field(line, "generation"), Some(42));
        assert_eq!(header_field(line, "gen"), None);
        assert_eq!(
            header_field("merged m3 tuples=6 generation=7", "generation"),
            Some(7)
        );
        assert_eq!(header_field("tuples=x", "tuples"), None);
    }

    #[test]
    fn call_round_trips_one_frame_and_times_out_on_silence() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done, wait) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut header = [0u8; 4];
            s.read_exact(&mut header).unwrap();
            let mut body = vec![0u8; u32::from_be_bytes(header) as usize];
            s.read_exact(&mut body).unwrap();
            assert_eq!(body, b"PING");
            let reply = b"OK\npong";
            // Header and payload in separate writes: the client must
            // reassemble.
            s.write_all(&(reply.len() as u32).to_be_bytes()).unwrap();
            s.write_all(reply).unwrap();
            // Read the second request and never answer it; keep the
            // socket open until the client has seen its timeout.
            s.read_exact(&mut header).unwrap();
            wait.recv().unwrap();
        });
        let mut c = Client::connect(addr, Duration::from_millis(100)).unwrap();
        assert_eq!(c.call("PING").unwrap(), "OK\npong");
        let err = c.call("PING").unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "{err:?}"
        );
        done.send(()).unwrap();
        server.join().unwrap();
    }
}
