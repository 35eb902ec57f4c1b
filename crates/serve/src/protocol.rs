//! The evirel-serve wire protocol: length-prefixed UTF-8 frames.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! +----------------+---------------------+
//! | u32 big-endian |  UTF-8 payload      |
//! | payload length |  (length bytes)     |
//! +----------------+---------------------+
//! ```
//!
//! The payload is line-oriented: the **first line** carries the verb
//! (requests) or status (responses); everything after the first `\n`
//! is the body. Requests:
//!
//! ```text
//! PING                         liveness check
//! QUERY\n<eql text>            execute a query (read)
//! EXPLAIN\n<eql text>          plans, est vs actual rows per
//!                              operator (executes), cache state (read)
//! MERGE <name>\n<eql text>     execute, register result as <name>
//!                              (write — publishes a new generation)
//! STATS                        server/cache/pool counters plus
//!                              per-relation planner statistics
//! METRICS                      every counter/gauge/histogram in
//!                              Prometheus text exposition (`# TYPE`
//!                              lines, stable `evirel_*` names) —
//!                              the scrape endpoint
//! FOLLOW <generation>          become a replication subscriber: "I
//!                              have applied through <generation>;
//!                              stream me everything after it". The
//!                              connection switches to the one-way
//!                              stream-frame protocol below.
//! PROMOTE                      follower only: stop following, start
//!                              accepting writes
//! SHUTDOWN                     stop accepting, drain, exit
//! ```
//!
//! A `FOLLOW` connection first receives a normal `OK`/`ERR` response;
//! on `OK` every subsequent frame is a [`StreamFrame`]: `SEG` chunks
//! carrying segment bytes (hex-encoded so frames stay UTF-8), `REC`
//! journal records, `SNAP`/`SNAPEND` bracketing a full state
//! transfer, and `GEN` idle heartbeats. See [`StreamFrame`] for the
//! exact grammar.
//!
//! Responses: `OK\n<body>`, `ERR <kind>\n<message>` (kind is
//! [`evirel_query::QueryError::kind`] or `protocol`), and
//! `BUSY\n<message>` — the typed admission-control rejection sent
//! when the pending-connection queue is full. A client that receives
//! `BUSY` should back off and reconnect; the stream is closed right
//! after the frame.
//!
//! The framing layer is deliberately small enough that clients with
//! no dependency on this crate (the repository benchmark's std-only
//! client, or any other language entirely) can re-implement it from
//! this comment alone. Within the workspace this module is the one
//! codec: the server, the follower and the [`crate::load`] driver all
//! speak it.

use std::fmt;
use std::io::{self, Read, Write};

/// Hard ceiling on one frame's payload. Large enough for any rendered
/// relation this workspace produces, small enough that a corrupt or
/// hostile length prefix cannot make a worker allocate gigabytes.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// How much a payload read grows its buffer at a time beyond what has
/// already arrived: memory follows the bytes, not the length prefix.
const READ_CHUNK_BYTES: usize = 8 * 1024;

/// One frame buffer, reused for every frame a connection reads and
/// writes — the one framing routine. A frame to send is begun
/// ([`FrameBuf::begin`]: a 4-byte length placeholder), written into
/// through [`fmt::Write`], and sealed ([`FrameBuf::seal`]: the length
/// patched in), then goes out in one `write_all` — header and payload
/// in separate writes would hand Nagle + delayed-ACK a ~40 ms stall
/// per frame on loopback. A frame received ([`FrameBuf::read_from`])
/// leaves its payload in the same buffer, which grows only as payload
/// bytes actually arrive. [`write_frame`] and [`read_frame`] are this
/// routine over a fresh buffer.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    /// Start a frame to send, discarding whatever the buffer held.
    pub fn begin(&mut self) {
        self.buf.clear();
        self.buf.extend_from_slice(&[0; 4]);
    }

    /// Patch the length prefix of the frame begun last and return the
    /// whole frame, prefix included — ready for one `write_all`.
    ///
    /// # Errors
    /// `InvalidInput` if the payload exceeds [`MAX_FRAME_BYTES`].
    pub fn seal(&mut self) -> io::Result<&[u8]> {
        let len = self.buf.len() - 4;
        if len > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame of {len} bytes exceeds MAX_FRAME_BYTES"),
            ));
        }
        self.buf[..4].copy_from_slice(&(len as u32).to_be_bytes());
        Ok(&self.buf)
    }

    /// Read one frame into this buffer and return its payload.
    /// `Ok(None)` is a clean end-of-stream (the peer closed between
    /// frames); an EOF in the *middle* of a frame is an error, as are
    /// oversized lengths and invalid UTF-8.
    ///
    /// A read timeout (`WouldBlock`/`TimedOut`) surfaces **only when
    /// no frame byte has arrived yet** — the idle case a poll loop
    /// handles. Once any byte of a frame has been consumed, timeouts
    /// retry until the frame completes: the consumed bytes are gone
    /// from the stream, so bailing out would leave the next read
    /// starting mid-frame and desync the connection (a slow or
    /// fragmenting peer is not a protocol error). After each
    /// mid-frame timeout `keep_waiting` decides whether to retry;
    /// `false` aborts with `TimedOut` — the stream is then desynced
    /// and must be dropped, which is exactly right for a server
    /// shutting down.
    ///
    /// # Errors
    /// I/O errors (a frame-start timeout surfaces as
    /// `WouldBlock`/`TimedOut` — the server's poll loop relies on
    /// this); `InvalidData` for oversized or non-UTF-8 payloads;
    /// `TimedOut` when `keep_waiting` gives up mid-frame.
    pub fn read_from(
        &mut self,
        r: &mut impl Read,
        keep_waiting: impl Fn() -> bool,
    ) -> io::Result<Option<&str>> {
        if !read_payload(r, &mut self.buf, keep_waiting)? {
            return Ok(None);
        }
        std::str::from_utf8(&self.buf)
            .map(Some)
            .map_err(|_| not_utf8())
    }
}

impl fmt::Write for FrameBuf {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Read one frame's payload into `buf` (cleared first); `false` on a
/// clean end-of-stream. See [`FrameBuf::read_from`].
fn read_payload(
    r: &mut impl Read,
    buf: &mut Vec<u8>,
    keep_waiting: impl Fn() -> bool,
) -> io::Result<bool> {
    buf.clear();
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed mid-header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) && filled == 0 => return Err(e),
            Err(e) if is_timeout(&e) => abandon_or_retry(&keep_waiting)?,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_BYTES"),
        ));
    }
    let mut filled = 0;
    while filled < len {
        if filled == buf.len() {
            // Grow by at most what has arrived so far, or one chunk: a
            // length prefix alone allocates nothing, and a peer that
            // claims 16 MiB and stops after 10 bytes holds one chunk.
            buf.resize(filled + (len - filled).min(filled.max(READ_CHUNK_BYTES)), 0);
        }
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed mid-payload",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => abandon_or_retry(&keep_waiting)?,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

fn not_utf8() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "frame payload is not UTF-8")
}

/// Write one frame.
///
/// # Errors
/// I/O errors; `InvalidInput` if `payload` exceeds
/// [`MAX_FRAME_BYTES`].
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let mut frame = FrameBuf {
        buf: Vec::with_capacity(4 + payload.len()),
    };
    frame.begin();
    frame.buf.extend_from_slice(payload.as_bytes());
    w.write_all(frame.seal()?)?;
    w.flush()
}

/// Read one frame into a fresh buffer; see [`FrameBuf::read_from`].
///
/// # Errors
/// As [`FrameBuf::read_from`] — a frame-start timeout surfaces as
/// `WouldBlock`/`TimedOut` (the server's poll loop relies on this);
/// `InvalidData` for oversized or non-UTF-8 payloads.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    read_frame_with(r, || true)
}

/// [`read_frame`] with bounded mid-frame patience: after each
/// mid-frame timeout, `keep_waiting` decides whether to retry (see
/// [`FrameBuf::read_from`]).
///
/// # Errors
/// As [`read_frame`], plus `TimedOut` when `keep_waiting` gives up
/// mid-frame.
pub fn read_frame_with(
    r: &mut impl Read,
    keep_waiting: impl Fn() -> bool,
) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    if !read_payload(r, &mut buf, keep_waiting)? {
        return Ok(None);
    }
    String::from_utf8(buf).map(Some).map_err(|_| not_utf8())
}

/// A frame-start (or idle) read timeout: a poll tick, not a failure.
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn abandon_or_retry(keep_waiting: &impl Fn() -> bool) -> io::Result<()> {
    if keep_waiting() {
        Ok(())
    } else {
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "gave up waiting mid-frame",
        ))
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Execute an EQL query against a pinned snapshot.
    Query(String),
    /// Explain an EQL query (plans, rewrites, plan-cache state).
    Explain(String),
    /// Execute an EQL query and register the result under `name` —
    /// the write path; publishes a new catalog generation.
    Merge {
        /// Catalog name the result is registered under.
        name: String,
        /// The query producing the relation to register.
        query: String,
    },
    /// Server, plan-cache, and buffer-pool counters.
    Stats,
    /// Every metric in Prometheus text exposition — the scrape
    /// endpoint. Same numbers as `STATS`, machine-readable.
    Metrics,
    /// Subscribe to the replication stream from the generation after
    /// `from` (the subscriber's last applied generation).
    Follow {
        /// The caller has durably applied through this generation.
        from: u64,
    },
    /// Promote a follower: detach from its primary and accept writes.
    Promote,
    /// Graceful shutdown: stop accepting, drain pending sessions.
    Shutdown,
}

impl Request {
    /// Parse a request frame payload.
    ///
    /// # Errors
    /// A human-readable description of the malformation (sent back as
    /// `ERR protocol`).
    pub fn parse(payload: &str) -> Result<Request, String> {
        let (head, body) = match payload.split_once('\n') {
            Some((h, b)) => (h.trim(), b),
            None => (payload.trim(), ""),
        };
        let mut words = head.split_whitespace();
        let verb = words.next().unwrap_or("");
        let request = match verb {
            "PING" => Request::Ping,
            "STATS" => Request::Stats,
            "METRICS" => Request::Metrics,
            "SHUTDOWN" => Request::Shutdown,
            "PROMOTE" => Request::Promote,
            "FOLLOW" => {
                let from = words
                    .next()
                    .ok_or("FOLLOW requires a generation: FOLLOW <generation>")?
                    .parse::<u64>()
                    .map_err(|e| format!("FOLLOW generation is not a u64: {e}"))?;
                Request::Follow { from }
            }
            "QUERY" | "EXPLAIN" => {
                if body.trim().is_empty() {
                    return Err(format!("{verb} requires a query body after the verb line"));
                }
                if verb == "QUERY" {
                    Request::Query(body.to_owned())
                } else {
                    Request::Explain(body.to_owned())
                }
            }
            "MERGE" => {
                let name = words
                    .next()
                    .ok_or("MERGE requires a target name: MERGE <name>")?;
                if !is_identifier(name) {
                    return Err(format!(
                        "MERGE target {name:?} is not an identifier ([A-Za-z_][A-Za-z0-9_]*)"
                    ));
                }
                if body.trim().is_empty() {
                    return Err("MERGE requires a query body after the verb line".into());
                }
                Request::Merge {
                    name: name.to_owned(),
                    query: body.to_owned(),
                }
            }
            "" => return Err("empty request".into()),
            other => return Err(format!("unknown verb {other:?}")),
        };
        if let Some(junk) = words.next() {
            return Err(format!(
                "unexpected trailing token {junk:?} on the {verb} verb line"
            ));
        }
        Ok(request)
    }

    /// Encode this request as a frame payload (inverse of
    /// [`Request::parse`]).
    pub fn encode(&self) -> String {
        match self {
            Request::Ping => "PING".into(),
            Request::Stats => "STATS".into(),
            Request::Metrics => "METRICS".into(),
            Request::Shutdown => "SHUTDOWN".into(),
            Request::Promote => "PROMOTE".into(),
            Request::Follow { from } => format!("FOLLOW {from}"),
            Request::Query(q) => format!("QUERY\n{q}"),
            Request::Explain(q) => format!("EXPLAIN\n{q}"),
            Request::Merge { name, query } => format!("MERGE {name}\n{query}"),
        }
    }

    /// The lowercase verb name — the stable `verb` label value on the
    /// server's per-verb request counters and latency histograms.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Query(_) => "query",
            Request::Explain(_) => "explain",
            Request::Merge { .. } => "merge",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Follow { .. } => "follow",
            Request::Promote => "promote",
            Request::Shutdown => "shutdown",
        }
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success; the body is verb-specific text.
    Ok {
        /// Verb-specific body (rendered relation, stats, …).
        body: String,
    },
    /// A typed failure — the request was understood and rejected.
    Err {
        /// Machine-readable kind: [`evirel_query::QueryError::kind`]
        /// values, `protocol` for malformed requests, or `panic` for
        /// a caught worker panic.
        kind: String,
        /// Human-readable description.
        message: String,
    },
    /// Admission control: the server is at capacity. Back off and
    /// retry; the connection is closed after this frame.
    Busy {
        /// Human-readable description (includes queue capacity).
        message: String,
    },
}

impl Response {
    /// Convenience constructor for `Err` responses.
    pub fn error(kind: impl Into<String>, message: impl Into<String>) -> Response {
        Response::Err {
            kind: kind.into(),
            message: message.into(),
        }
    }

    /// Write the frame payload into `out` — a [`FrameBuf`] being sent,
    /// or a `String` ([`Response::encode`]).
    ///
    /// # Errors
    /// Only what `out` reports.
    pub fn write_to(&self, out: &mut impl fmt::Write) -> fmt::Result {
        let (status, kind, text) = self.parts();
        out.write_str(status)?;
        if let Some(kind) = kind {
            out.write_char(' ')?;
            out.write_str(kind)?;
        }
        out.write_char('\n')?;
        out.write_str(text)
    }

    /// Encode as a frame payload.
    pub fn encode(&self) -> String {
        let (_, kind, text) = self.parts();
        let mut out = String::with_capacity(8 + kind.map_or(0, str::len) + text.len());
        let _ = self.write_to(&mut out);
        out
    }

    /// Status word, `ERR` kind, and the text after the status line.
    fn parts(&self) -> (&'static str, Option<&str>, &str) {
        match self {
            Response::Ok { body } => ("OK", None, body),
            Response::Err { kind, message } => ("ERR", Some(kind), message),
            Response::Busy { message } => ("BUSY", None, message),
        }
    }

    /// Parse a response frame payload (the client side of
    /// [`Response::encode`]).
    ///
    /// # Errors
    /// A description of the malformation.
    pub fn parse(payload: &str) -> Result<Response, String> {
        let (head, body) = match payload.split_once('\n') {
            Some((h, b)) => (h.trim(), b),
            None => (payload.trim(), ""),
        };
        let mut words = head.split_whitespace();
        match words.next() {
            Some("OK") => Ok(Response::Ok { body: body.into() }),
            Some("BUSY") => Ok(Response::Busy {
                message: body.into(),
            }),
            Some("ERR") => Ok(Response::Err {
                kind: words.next().unwrap_or("unknown").into(),
                message: body.into(),
            }),
            _ => Err(format!("unrecognized response status line {head:?}")),
        }
    }
}

fn is_identifier(s: &str) -> bool {
    let mut chars = s.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

// ------------------------------------------------- replication stream

/// How many raw segment bytes one `SEG` frame carries at most. Hex
/// encoding doubles the payload, so 1 MiB raw stays far under
/// [`MAX_FRAME_BYTES`] while keeping per-frame overhead negligible.
pub const SEG_CHUNK_BYTES: usize = 1 << 20;

/// One frame of the replication stream a `FOLLOW` connection carries
/// after its `OK`. All frames flow primary → follower; the grammar
/// (first line = tag + space-separated fields, body where noted):
///
/// ```text
/// SEG <file> <offset> <total_len>\n<hex bytes>   one segment chunk
/// REC BIND <name> <file> <fv> <crc> <tuples> <gen>   a journal record
/// REC BIND <name> <file> 3 <crc> <tuples> <gen>\n<hex bytes>
///                                                an inline bind
/// REC DROP <name> <gen>
/// SNAP <gen> <n>\n<n metadata lines>             full-state header
/// SNAPEND <gen>                                  full-state commit
/// GEN <gen>                                      idle heartbeat
/// ```
///
/// A `REC BIND` with a body is an inline bind: the body is its whole
/// v3 segment (at most `evirel_store::INLINE_SEGMENT_MAX` bytes,
/// hex-encoded), which the follower verifies against `<crc>` and
/// `<tuples>` and journals with the record — no `SEG` frame precedes
/// it. Without a body the record names a file shipped by `SEG` frames.
///
/// Ordering contract: every `SEG` chunk of a file precedes the `REC
/// BIND` (or `SNAPEND`) that makes it live; `REC` generations are
/// strictly increasing; a `SNAP … SNAPEND` bracket replaces the
/// follower's whole durable state atomically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamFrame {
    /// A chunk of segment-file bytes, hex-encoded on the wire.
    Seg {
        /// Segment file name (validated: `seg-*.evb`, no paths).
        file: String,
        /// Byte offset this chunk starts at (chunks arrive in order).
        offset: u64,
        /// The file's final size — the receiver renames the staging
        /// file into place when the last byte lands.
        total_len: u64,
        /// The raw bytes (decoded from hex).
        chunk: Vec<u8>,
    },
    /// One journal record to apply (tail mode). An inline bind is sent
    /// with its bytes: one still holding its journal position
    /// ([`evirel_store::InlineSegment::At`]) has no wire form, and the
    /// sender loads it first ([`evirel_store::JournalRecord::loaded`]).
    Rec(evirel_store::JournalRecord),
    /// Full-state transfer header: the complete durable entry set at
    /// `generation`. Segment payloads for entries the follower lacks
    /// follow as `SEG` frames, then [`StreamFrame::SnapEnd`].
    Snap {
        /// The committed generation this snapshot represents.
        generation: u64,
        /// Every durable binding's metadata.
        entries: Vec<evirel_store::ManifestEntry>,
    },
    /// Full-state transfer commit point.
    SnapEnd {
        /// Must match the preceding [`StreamFrame::Snap`].
        generation: u64,
    },
    /// Idle heartbeat: the primary's committed generation. Doubles as
    /// liveness — a follower treats prolonged silence as a dead link.
    Gen {
        /// The primary's committed generation.
        committed: u64,
    },
}

impl StreamFrame {
    /// Encode as a frame payload.
    pub fn encode(&self) -> String {
        use evirel_store::{InlineSegment, JournalRecord};
        match self {
            StreamFrame::Seg {
                file,
                offset,
                total_len,
                chunk,
            } => format!("SEG {file} {offset} {total_len}\n{}", to_hex(chunk)),
            StreamFrame::Rec(JournalRecord::Bind {
                name,
                file,
                format_version,
                checksum,
                tuple_count,
                generation,
            }) => format!(
                "REC BIND {name} {file} {format_version} {checksum} {tuple_count} {generation}"
            ),
            StreamFrame::Rec(JournalRecord::BindInline {
                name,
                file,
                checksum,
                tuple_count,
                generation,
                segment,
            }) => {
                let mut out =
                    format!("REC BIND {name} {file} 3 {checksum} {tuple_count} {generation}\n");
                // A position has no bytes to send: without a body the
                // follower looks for a file that is not there, and the
                // record fails verification instead of binding.
                if let InlineSegment::Bytes(bytes) = segment {
                    out.push_str(&to_hex(bytes));
                }
                out
            }
            StreamFrame::Rec(JournalRecord::Drop { name, generation }) => {
                format!("REC DROP {name} {generation}")
            }
            StreamFrame::Snap {
                generation,
                entries,
            } => {
                let mut out = format!("SNAP {generation} {}", entries.len());
                for e in entries {
                    out.push_str(&format!(
                        "\n{} {} {} {} {} {}",
                        e.name, e.file, e.format_version, e.checksum, e.tuple_count, e.generation
                    ));
                }
                out
            }
            StreamFrame::SnapEnd { generation } => format!("SNAPEND {generation}"),
            StreamFrame::Gen { committed } => format!("GEN {committed}"),
        }
    }

    /// Parse a stream-frame payload.
    ///
    /// # Errors
    /// A description of the malformation — a follower treats this as
    /// a poisoned link: drop the connection and resume from its own
    /// applied generation.
    pub fn parse(payload: &str) -> Result<StreamFrame, String> {
        use evirel_store::{InlineSegment, JournalRecord};
        let (head, body) = match payload.split_once('\n') {
            Some((h, b)) => (h, b),
            None => (payload, ""),
        };
        let mut words = head.split_whitespace();
        let frame = match words.next().unwrap_or("") {
            "SEG" => {
                let file = segment_file(words.next())?;
                let offset = num(words.next(), "SEG offset")?;
                let total_len = num(words.next(), "SEG total length")?;
                StreamFrame::Seg {
                    file,
                    offset,
                    total_len,
                    chunk: from_hex(body)?,
                }
            }
            "REC" => match words.next() {
                Some("BIND") => {
                    let name = identifier(words.next(), "REC BIND name")?;
                    let file = segment_file(words.next())?;
                    let format_version = num(words.next(), "REC BIND format version")? as u16;
                    let checksum = num(words.next(), "REC BIND checksum")? as u32;
                    let tuple_count = num(words.next(), "REC BIND tuple count")?;
                    let generation = num(words.next(), "REC BIND generation")?;
                    if body.is_empty() {
                        StreamFrame::Rec(JournalRecord::Bind {
                            name,
                            file,
                            format_version,
                            checksum,
                            tuple_count,
                            generation,
                        })
                    } else if format_version != 3 {
                        return Err(format!(
                            "an inline REC BIND carries a v3 segment, not format version \
                             {format_version}"
                        ));
                    } else {
                        StreamFrame::Rec(JournalRecord::BindInline {
                            name,
                            file,
                            checksum,
                            tuple_count,
                            generation,
                            segment: InlineSegment::Bytes(from_hex(body)?.into()),
                        })
                    }
                }
                Some("DROP") => StreamFrame::Rec(JournalRecord::Drop {
                    name: identifier(words.next(), "REC DROP name")?,
                    generation: num(words.next(), "REC DROP generation")?,
                }),
                other => return Err(format!("unknown REC kind {other:?}")),
            },
            "SNAP" => {
                let generation = num(words.next(), "SNAP generation")?;
                let count = num(words.next(), "SNAP entry count")? as usize;
                let lines: Vec<&str> = if body.is_empty() {
                    Vec::new()
                } else {
                    body.lines().collect()
                };
                if lines.len() != count {
                    return Err(format!(
                        "SNAP announces {count} entries but carries {}",
                        lines.len()
                    ));
                }
                let mut entries = Vec::with_capacity(count);
                for line in lines {
                    let mut f = line.split_whitespace();
                    entries.push(evirel_store::ManifestEntry {
                        name: identifier(f.next(), "SNAP entry name")?,
                        file: segment_file(f.next())?,
                        format_version: num(f.next(), "SNAP entry format version")? as u16,
                        checksum: num(f.next(), "SNAP entry checksum")? as u32,
                        tuple_count: num(f.next(), "SNAP entry tuple count")?,
                        generation: num(f.next(), "SNAP entry generation")?,
                    });
                    if let Some(junk) = f.next() {
                        return Err(format!("trailing token {junk:?} on a SNAP entry line"));
                    }
                }
                StreamFrame::Snap {
                    generation,
                    entries,
                }
            }
            "SNAPEND" => StreamFrame::SnapEnd {
                generation: num(words.next(), "SNAPEND generation")?,
            },
            "GEN" => StreamFrame::Gen {
                committed: num(words.next(), "GEN generation")?,
            },
            other => return Err(format!("unknown stream frame tag {other:?}")),
        };
        if let Some(junk) = words.next() {
            return Err(format!(
                "unexpected trailing token {junk:?} on a stream frame"
            ));
        }
        Ok(frame)
    }
}

fn num(word: Option<&str>, what: &str) -> Result<u64, String> {
    word.ok_or_else(|| format!("missing {what}"))?
        .parse::<u64>()
        .map_err(|e| format!("{what} is not a u64: {e}"))
}

fn identifier(word: Option<&str>, what: &str) -> Result<String, String> {
    let w = word.ok_or_else(|| format!("missing {what}"))?;
    if is_identifier(w) {
        Ok(w.to_owned())
    } else {
        Err(format!("{what} {w:?} is not an identifier"))
    }
}

fn segment_file(word: Option<&str>) -> Result<String, String> {
    let w = word.ok_or("missing segment file name")?;
    if evirel_store::valid_segment_file_name(w) {
        Ok(w.to_owned())
    } else {
        Err(format!("invalid segment file name {w:?}"))
    }
}

/// Lowercase hex encoding (segment bytes must ride in UTF-8 frames).
pub fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = Vec::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(DIGITS[(b >> 4) as usize]);
        out.push(DIGITS[(b & 0x0f) as usize]);
    }
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// Inverse of [`to_hex`].
///
/// # Errors
/// A description of the malformation (odd length, non-hex digit).
pub fn from_hex(s: &str) -> Result<Vec<u8>, String> {
    let s = s.trim_end_matches('\n');
    if !s.len().is_multiple_of(2) {
        return Err(format!("hex payload has odd length {}", s.len()));
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        let hi = hex_digit(pair[0])?;
        let lo = hex_digit(pair[1])?;
        out.push((hi << 4) | lo);
    }
    Ok(out)
}

fn hex_digit(b: u8) -> Result<u8, String> {
    match b {
        b'0'..=b'9' => Ok(b - b'0'),
        b'a'..=b'f' => Ok(b - b'a' + 10),
        b'A'..=b'F' => Ok(b - b'A' + 10),
        other => Err(format!("invalid hex digit {:?}", other as char)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "QUERY\nSELECT * FROM ra").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("QUERY\nSELECT * FROM ra")
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn truncated_and_oversized_frames_are_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "PING").unwrap();
        buf.truncate(6); // header + 2 of 4 payload bytes
        assert!(read_frame(&mut &buf[..]).is_err());
        // Mid-header EOF is also an error (not a clean close).
        assert!(read_frame(&mut &buf[..2]).is_err());
        // A hostile length prefix fails before allocating.
        let huge = (MAX_FRAME_BYTES as u32 + 1).to_be_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
    }

    /// A reader scripted as a sequence of partial reads and timeout
    /// errors — the shape of a slow client on a socket with a read
    /// timeout.
    struct Flaky {
        steps: std::collections::VecDeque<Result<Vec<u8>, io::ErrorKind>>,
    }

    impl Flaky {
        fn new(steps: impl IntoIterator<Item = Result<Vec<u8>, io::ErrorKind>>) -> Flaky {
            Flaky {
                steps: steps.into_iter().collect(),
            }
        }
    }

    impl Read for Flaky {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.steps.pop_front() {
                None => Ok(0),
                Some(Err(kind)) => Err(kind.into()),
                Some(Ok(bytes)) => {
                    assert!(bytes.len() <= buf.len(), "test chunk exceeds request");
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
            }
        }
    }

    #[test]
    fn mid_frame_timeouts_retry_instead_of_desyncing() {
        // Timeouts strike between header halves and between payload
        // halves; the frame must still arrive whole.
        let mut r = Flaky::new([
            Ok(vec![0, 0]),
            Err(io::ErrorKind::WouldBlock),
            Ok(vec![0, 4]),
            Err(io::ErrorKind::TimedOut),
            Ok(b"PI".to_vec()),
            Err(io::ErrorKind::WouldBlock),
            Ok(b"NG".to_vec()),
        ]);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("PING"));
    }

    /// A peer that claims the largest frame, sends 10 bytes of it and
    /// hangs up gets the error it always got — and costs one read
    /// chunk, not the 16 MiB its length prefix asked for.
    #[test]
    fn a_claimed_length_allocates_only_what_arrives() {
        let mut claim = (MAX_FRAME_BYTES as u32).to_be_bytes().to_vec();
        claim.extend_from_slice(b"QUERY\nSELE");
        let mut frame = FrameBuf::default();
        let err = frame.read_from(&mut &claim[..], || true).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(err.to_string(), "stream closed mid-payload");
        assert!(frame.buf.capacity() < 64 * 1024, "{}", frame.buf.capacity());
        let err = read_frame(&mut &claim[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(err.to_string(), "stream closed mid-payload");
        // A payload that does arrive, trickled in, arrives whole.
        let payload = "x".repeat(3 * READ_CHUNK_BYTES + 5);
        let mut sent = Vec::new();
        write_frame(&mut sent, &payload).unwrap();
        let (header, body) = sent.split_at(4);
        let steps = std::iter::once(header).chain(body.chunks(1024));
        let mut trickle = Flaky::new(steps.map(|c| Ok(c.to_vec())));
        let got = frame.read_from(&mut trickle, || true).unwrap();
        assert_eq!(got, Some(payload.as_str()));
    }

    /// One buffer carries a connection's frames both ways: a reply is
    /// begun, written and sealed in it, and a request read into it,
    /// with the bytes `write_frame`/`read_frame` produce and accept.
    #[test]
    fn one_frame_buffer_reads_and_writes() {
        use std::fmt::Write as _;
        let mut frame = FrameBuf::default();
        let mut wire = Vec::new();
        for (k, body) in ["pong", "", "tuples=1\n| é |"].into_iter().enumerate() {
            frame.begin();
            Response::Ok { body: body.into() }
                .write_to(&mut frame)
                .unwrap();
            write!(frame, "{k}").unwrap();
            let sealed = frame.seal().unwrap().to_vec();
            let mut expected = Vec::new();
            write_frame(&mut expected, &format!("OK\n{body}{k}")).unwrap();
            assert_eq!(sealed, expected);
            wire.extend_from_slice(&sealed);
        }
        let mut r = &wire[..];
        for (k, body) in ["pong", "", "tuples=1\n| é |"].into_iter().enumerate() {
            let got = frame.read_from(&mut r, || true).unwrap();
            assert_eq!(got, Some(format!("OK\n{body}{k}").as_str()));
        }
        assert_eq!(frame.read_from(&mut r, || true).unwrap(), None);
        // Oversized replies are refused at the seal, as by write_frame.
        frame.begin();
        frame.buf.resize(4 + MAX_FRAME_BYTES + 1, b'x');
        assert_eq!(
            frame.seal().unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        // Non-UTF-8 payloads are refused on read.
        let bad = [0, 0, 0, 2, 0xff, 0xfe];
        let err = frame.read_from(&mut &bad[..], || true).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn frame_start_timeout_surfaces_as_idle() {
        let mut r = Flaky::new([Err(io::ErrorKind::WouldBlock)]);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn keep_waiting_false_abandons_mid_frame() {
        let mut r = Flaky::new([Ok(vec![0, 0]), Err(io::ErrorKind::WouldBlock)]);
        let err = read_frame_with(&mut r, || false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Ping,
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
            Request::Promote,
            Request::Follow { from: 0 },
            Request::Follow { from: u64::MAX },
            Request::Query("SELECT * FROM ra".into()),
            Request::Explain("SELECT * FROM ra UNION rb".into()),
            Request::Merge {
                name: "m0".into(),
                query: "SELECT * FROM ra UNION rb".into(),
            },
        ] {
            assert_eq!(Request::parse(&req.encode()), Ok(req));
        }
    }

    #[test]
    fn verb_labels_are_lowercase_and_distinct() {
        let verbs: Vec<&str> = [
            Request::Ping,
            Request::Query(String::new()),
            Request::Explain(String::new()),
            Request::Merge {
                name: String::new(),
                query: String::new(),
            },
            Request::Stats,
            Request::Metrics,
            Request::Follow { from: 0 },
            Request::Promote,
            Request::Shutdown,
        ]
        .iter()
        .map(Request::verb)
        .collect();
        let unique: std::collections::BTreeSet<&&str> = verbs.iter().collect();
        assert_eq!(unique.len(), verbs.len(), "labels must be distinct");
        for v in verbs {
            assert_eq!(v, v.to_ascii_lowercase(), "labels are lowercase");
        }
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for bad in [
            "",
            "FROBNICATE",
            "QUERY",
            "QUERY\n   ",
            "MERGE\nSELECT * FROM ra",
            "MERGE 1bad\nSELECT * FROM ra",
            "MERGE name-with-dash\nSELECT * FROM ra",
            "MERGE two names\nSELECT * FROM ra",
            "PING extra",
            "METRICS now",
            "FOLLOW",
            "FOLLOW abc",
            "FOLLOW -1",
            "FOLLOW 3 4",
            "PROMOTE now",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        for bytes in [&b""[..], &b"\x00"[..], &b"\xff\x00\x7f evirel"[..]] {
            assert_eq!(from_hex(&to_hex(bytes)).unwrap(), bytes);
        }
        assert!(from_hex("abc").is_err(), "odd length");
        assert!(from_hex("zz").is_err(), "non-hex digit");
        // Uppercase input is tolerated on decode.
        assert_eq!(from_hex("DEADBEEF").unwrap(), vec![0xde, 0xad, 0xbe, 0xef]);
    }

    #[test]
    fn stream_frames_round_trip() {
        use evirel_store::{InlineSegment, JournalRecord, ManifestEntry};
        for frame in [
            StreamFrame::Seg {
                file: "seg-000007.evb".into(),
                offset: 1024,
                total_len: 4096,
                chunk: vec![0, 1, 2, 0xff],
            },
            StreamFrame::Seg {
                file: "seg-000001.evb".into(),
                offset: 0,
                total_len: 0,
                chunk: vec![],
            },
            StreamFrame::Rec(JournalRecord::Bind {
                name: "m3".into(),
                file: "seg-000003.evb".into(),
                format_version: 3,
                checksum: 0xDEAD_BEEF,
                tuple_count: 42,
                generation: 7,
            }),
            StreamFrame::Rec(JournalRecord::Drop {
                name: "m3".into(),
                generation: 8,
            }),
            StreamFrame::Rec(JournalRecord::BindInline {
                name: "m4".into(),
                file: "seg-000009.evb".into(),
                checksum: 0x0BAD_F00D,
                tuple_count: 6,
                generation: 9,
                segment: InlineSegment::Bytes(vec![0, 1, 0xfe, 0xff, 0x45].into()),
            }),
            StreamFrame::Snap {
                generation: 12,
                entries: vec![
                    ManifestEntry {
                        name: "a".into(),
                        file: "seg-000001.evb".into(),
                        format_version: 3,
                        checksum: 1,
                        tuple_count: 2,
                        generation: 3,
                    },
                    ManifestEntry {
                        name: "b".into(),
                        file: "seg-000002.evb".into(),
                        format_version: 3,
                        checksum: 4,
                        tuple_count: 5,
                        generation: 12,
                    },
                ],
            },
            StreamFrame::Snap {
                generation: 1,
                entries: vec![],
            },
            StreamFrame::SnapEnd { generation: 12 },
            StreamFrame::Gen { committed: 99 },
        ] {
            assert_eq!(
                StreamFrame::parse(&frame.encode()),
                Ok(frame.clone()),
                "{frame:?}"
            );
        }
    }

    #[test]
    fn malformed_stream_frames_are_typed_errors() {
        for bad in [
            "",
            "WAT 1",
            "SEG ../../etc/passwd 0 4\nabcd",
            "SEG seg-1.evj 0 4\nabcd",
            "SEG seg-000001.evb 0 4\nxyzw",
            "SEG seg-000001.evb 0\nabcd",
            "REC BIND bad-name seg-000001.evb 3 1 2 3",
            "REC BIND m1 nope.evb 3 1 2 3",
            "REC UPSERT m1 4",
            "REC DROP m1",
            // An inline bind's body must be hex, of a v3 segment.
            "REC BIND m1 seg-000001.evb 3 1 2 3\nabc",
            "REC BIND m1 seg-000001.evb 3 1 2 3\nzz",
            "REC BIND m1 seg-000001.evb 2 1 2 3\nabcd",
            "SNAP 3 2\na seg-000001.evb 3 1 2 3",
            "SNAP 3 1\na seg-000001.evb 3 1 2 3 junk",
            "SNAPEND",
            "GEN",
            "GEN 1 2",
        ] {
            assert!(StreamFrame::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Ok {
                body: "pong".into(),
            },
            Response::error("parse", "parse error at offset 3"),
            Response::Busy {
                message: "64 pending".into(),
            },
        ] {
            assert_eq!(Response::parse(&resp.encode()), Ok(resp));
        }
    }
}
