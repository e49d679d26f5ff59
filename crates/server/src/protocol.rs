//! The `hpcd` wire protocol: length-prefixed JSON frames with a
//! versioned header, shared by the daemon and the client.
//!
//! ## Frame layout (all integers big-endian)
//!
//! ```text
//! offset 0..4    magic      b"HPCD"
//! offset 4..6    version    u16 — protocol revision, see [`PROTOCOL_VERSION`]
//! offset 6..8    flags      u16 — capability bits, see [`caps`]
//! offset 8..12   length     u32 — payload byte count
//! offset 12..    payload    `length` bytes of UTF-8 JSON
//! ```
//!
//! A peer validates the header as soon as its 12 bytes arrive, so an
//! oversized or garbage frame is rejected *before* any payload is
//! buffered. Truncation (EOF inside a frame) is reported distinctly
//! from a clean EOF at a frame boundary.
//!
//! ## Version and capability rules
//!
//! Every frame carries the sender's protocol version. The daemon
//! accepts exactly [`PROTOCOL_VERSION`]; on mismatch it answers with a
//! [`WireError::UnsupportedVersion`] response (framed with its *own*
//! version) and closes the connection.
//!
//! The flags word (the header field that was required-zero before
//! capability bits existed) carries [`caps`] bits. A client sets the
//! capability a request relies on (e.g. [`caps::STREAMING`] on session
//! ops); the daemon answers a request whose bits it does not implement
//! with a typed [`WireError::Unsupported`] — the connection stays
//! usable, unlike the old behavior of hanging up on any non-zero word.
//! Every daemon response frame advertises the full [`caps::SUPPORTED`]
//! set, so one `ping` round trip tells a client what the server can do.

use crate::metrics::OpSlot;
use numa_obs::Snapshot;
use serde::{Deserialize, Serialize};
use std::fmt::{self, Write as _};
use std::io::{self, Read, Write};

/// Current protocol revision.
pub const PROTOCOL_VERSION: u16 = 1;

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"HPCD";

/// Header size in bytes (magic + version + reserved + length).
pub const HEADER_LEN: usize = 12;

/// Default cap on payload size: 4 MiB holds any profile the simulator
/// emits with generous headroom while bounding per-connection memory.
pub const DEFAULT_MAX_FRAME: usize = 4 << 20;

/// Capability bits carried in the frame header's flags word.
///
/// A request frame sets the bits the request relies on; a response
/// frame advertises everything the daemon implements. Unknown bits in a
/// request draw a typed [`WireError::Unsupported`] instead of a closed
/// connection, so a newer client downgrades gracefully against an older
/// daemon.
pub mod caps {
    /// Streaming ingestion sessions: `OpenSession` / `AppendChunk` /
    /// `SealSession` / `AbortSession`.
    pub const STREAMING: u16 = 1 << 0;

    /// Binary columnar profile payloads (`IngestBinary` /
    /// `AppendChunkBinary`): request payloads framed as numa-codec
    /// containers instead of JSON. A client that negotiated this via
    /// `ping` sends codec bytes; one that didn't falls back to JSON and
    /// the daemon serves it unchanged.
    pub const BINARY_CODEC: u16 = 1 << 1;

    /// The `Metrics` op: Prometheus text exposition of every daemon
    /// counter over the wire. A daemon predating the metrics registry
    /// answers the op with a typed `Unsupported` instead of a closed
    /// connection.
    pub const METRICS: u16 = 1 << 2;

    /// Every capability this build implements; response frames carry
    /// this set.
    pub const SUPPORTED: u16 = STREAMING | BINARY_CODEC | METRICS;

    /// Render a capability set for display (`ping` output, errors).
    pub fn render(flags: u16) -> String {
        let mut names = Vec::new();
        if flags & STREAMING != 0 {
            names.push("streaming");
        }
        if flags & BINARY_CODEC != 0 {
            names.push("binary-codec");
        }
        if flags & METRICS != 0 {
            names.push("metrics");
        }
        let unknown = flags & !SUPPORTED;
        if unknown != 0 {
            names.push("unknown");
        }
        if names.is_empty() {
            format!("{flags:#06x} (none)")
        } else {
            format!("{flags:#06x} ({})", names.join(", "))
        }
    }
}

// ---------------------------------------------------------------------------
// Framing errors
// ---------------------------------------------------------------------------

/// Structural frame failures, detected from the header alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Declared payload length exceeds the receiver's cap.
    Oversized { len: usize, max: usize },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:?} (expected {MAGIC:?})"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Failures while pulling a frame off a blocking reader.
#[derive(Debug)]
pub enum RecvError {
    /// Underlying transport error (including read timeouts, surfaced as
    /// `WouldBlock`/`TimedOut`).
    Io(io::Error),
    /// Structurally invalid frame.
    Frame(FrameError),
    /// The stream ended in the middle of a frame.
    TruncatedEof { got: usize },
}

impl RecvError {
    /// Whether this is a read timeout rather than a hard failure.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            RecvError::Io(e) if e.kind() == io::ErrorKind::WouldBlock
                || e.kind() == io::ErrorKind::TimedOut
        )
    }
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Io(e) => write!(f, "transport error: {e}"),
            RecvError::Frame(e) => write!(f, "frame error: {e}"),
            RecvError::TruncatedEof { got } => {
                write!(f, "connection closed mid-frame after {got} byte(s)")
            }
        }
    }
}

impl std::error::Error for RecvError {}

impl From<io::Error> for RecvError {
    fn from(e: io::Error) -> Self {
        RecvError::Io(e)
    }
}

impl From<FrameError> for RecvError {
    fn from(e: FrameError) -> Self {
        RecvError::Frame(e)
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// One decoded frame: the sender's version and capability flags plus
/// the raw payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    pub version: u16,
    /// Capability bits ([`caps`]). Requests set what they rely on;
    /// responses advertise what the daemon implements.
    pub flags: u16,
    pub payload: Vec<u8>,
}

/// Checked header length for a payload. The wire format stores the
/// length as a `u32`, so anything past `u32::MAX` bytes cannot be
/// framed at all — this is where that is enforced (a plain `as u32`
/// cast would silently truncate and emit a corrupt header).
pub fn frame_len(payload_len: usize) -> Result<u32, FrameError> {
    u32::try_from(payload_len).map_err(|_| FrameError::Oversized {
        len: payload_len,
        max: u32::MAX as usize,
    })
}

/// Serialize a frame with no capability flags. Fails (rather than
/// emitting a corrupt header) when the payload does not fit the `u32`
/// length field.
pub fn encode_frame(version: u16, payload: &[u8]) -> Result<Vec<u8>, FrameError> {
    encode_frame_flags(version, 0, payload)
}

/// Serialize a frame carrying capability flags.
pub fn encode_frame_flags(version: u16, flags: u16, payload: &[u8]) -> Result<Vec<u8>, FrameError> {
    let len = frame_len(payload.len())?;
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&version.to_be_bytes());
    out.extend_from_slice(&flags.to_be_bytes());
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Write one flag-less frame to a blocking writer. See
/// [`write_frame_flags`].
pub fn write_frame(
    w: &mut impl Write,
    version: u16,
    payload: &[u8],
    max: usize,
) -> Result<(), RecvError> {
    write_frame_flags(w, version, 0, payload, max)
}

/// Write one frame to a blocking writer. Refuses payloads above `max`
/// locally so a well-behaved peer never triggers the remote cap; the
/// wire format's own `u32` ceiling applies even when `max` is larger.
pub fn write_frame_flags(
    w: &mut impl Write,
    version: u16,
    flags: u16,
    payload: &[u8],
    max: usize,
) -> Result<(), RecvError> {
    if payload.len() > max {
        return Err(RecvError::Frame(FrameError::Oversized {
            len: payload.len(),
            max,
        }));
    }
    w.write_all(&encode_frame_flags(version, flags, payload)?)?;
    w.flush()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Incremental decoding
// ---------------------------------------------------------------------------

/// Push-style frame parser: feed bytes as they arrive (in arbitrary
/// chunks), pull complete frames out. Survives any split of the byte
/// stream, which is exactly what TCP delivers.
#[derive(Debug)]
pub struct FrameDecoder {
    max_frame: usize,
    buf: Vec<u8>,
    /// Set once a structural error is seen; the stream is unrecoverable
    /// past that point and every later poll repeats the error.
    poisoned: Option<FrameError>,
}

impl FrameDecoder {
    pub fn new(max_frame: usize) -> Self {
        FrameDecoder {
            max_frame,
            buf: Vec::new(),
            poisoned: None,
        }
    }

    /// Append newly received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as a frame.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Try to pull the next complete frame. `Ok(None)` means "need more
    /// bytes"; a structural error poisons the decoder permanently.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let magic = [self.buf[0], self.buf[1], self.buf[2], self.buf[3]];
        if magic != MAGIC {
            return Err(self.poison(FrameError::BadMagic(magic)));
        }
        let version = u16::from_be_bytes([self.buf[4], self.buf[5]]);
        // Capability bits are policy, not framing: unknown bits are the
        // *receiver's* call (the daemon answers with a typed error), so
        // the decoder accepts any flags word.
        let flags = u16::from_be_bytes([self.buf[6], self.buf[7]]);
        let len =
            u32::from_be_bytes([self.buf[8], self.buf[9], self.buf[10], self.buf[11]]) as usize;
        if len > self.max_frame {
            return Err(self.poison(FrameError::Oversized {
                len,
                max: self.max_frame,
            }));
        }
        if self.buf.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let payload = self.buf[HEADER_LEN..HEADER_LEN + len].to_vec();
        self.buf.drain(..HEADER_LEN + len);
        Ok(Some(Frame {
            version,
            flags,
            payload,
        }))
    }

    fn poison(&mut self, e: FrameError) -> FrameError {
        self.poisoned = Some(e.clone());
        e
    }
}

/// Read exactly one frame from a blocking reader. Returns `Ok(None)` on
/// a clean EOF at a frame boundary; EOF mid-frame is
/// [`RecvError::TruncatedEof`].
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Option<Frame>, RecvError> {
    let mut decoder = FrameDecoder::new(max_frame);
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(frame) = decoder.next_frame()? {
            return Ok(Some(frame));
        }
        match r.read(&mut chunk) {
            Ok(0) => {
                return if decoder.pending() == 0 {
                    Ok(None)
                } else {
                    Err(RecvError::TruncatedEof {
                        got: decoder.pending(),
                    })
                };
            }
            Ok(n) => decoder.push(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Output shape for report queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReportFormat {
    Text,
    Json,
}

/// Every operation the daemon serves. Profile references are resolved
/// server-side exactly like `hpcstore-sim --profile`: an id prefix or a
/// label.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Ingest one serialized profile under a label.
    Ingest { label: String, json: String },
    /// List stored profiles.
    List,
    /// Resolve an id prefix or label to a stored profile.
    Resolve { reference: String },
    /// Cross-run aggregate over the whole stored set.
    Aggregate,
    /// Top-n hottest variables across the stored set.
    Top { n: usize },
    /// Per-profile report, text or JSON.
    Report {
        profile: String,
        format: ReportFormat,
    },
    /// Code-centric CCT view; subtrees below `min_share_permille`/1000
    /// of program cost are elided.
    CodeView {
        profile: String,
        min_share_permille: u16,
    },
    /// Address-centric view of one variable.
    AddressView { profile: String, var: String },
    /// Pairwise diff of two stored runs.
    Diff { before: String, after: String },
    /// Store accounting (profile count, dedup, cache counters).
    StoreStats,
    /// Daemon observability: one metric-registry snapshot plus the
    /// store's set hash and the retained slow ops ([`ServerStats`]).
    ServerStats,
    /// Prometheus text exposition of every registered metric (requires
    /// [`caps::METRICS`]); the same text `GET /metrics` serves.
    Metrics,
    /// Drop every memoized artifact (admin; used to measure cold paths).
    ClearCache,
    /// Ask the daemon to drain and exit (admin).
    Shutdown,
    /// Open a streaming ingestion session (requires
    /// [`caps::STREAMING`]). The reply carries the session id, the lease
    /// the client must renew by appending, and the buffer limits.
    OpenSession { label: String },
    /// Append chunk `seq` (strictly sequential from 0) to an open
    /// session. `chunk` is a serialized `ChunkPayload`.
    AppendChunk {
        session: u64,
        seq: u64,
        chunk: String,
    },
    /// Seal a session: assemble its chunks and commit the profile
    /// through the ordinary ingest path.
    SealSession { session: u64 },
    /// Abort a session, discarding everything buffered for it.
    AbortSession { session: u64 },
    /// Ingest one binary-codec profile container (requires
    /// [`caps::BINARY_CODEC`]). Travels as a [`BINARY_REQUEST_MAGIC`]
    /// envelope, not JSON.
    IngestBinary { label: String, bytes: Vec<u8> },
    /// Append a binary-codec chunk to an open session (requires
    /// [`caps::STREAMING`] | [`caps::BINARY_CODEC`]). Travels as a
    /// [`BINARY_REQUEST_MAGIC`] envelope, not JSON.
    AppendChunkBinary {
        session: u64,
        seq: u64,
        bytes: Vec<u8>,
    },
}

impl Request {
    /// The request's per-op metrics slot.
    pub fn op_slot(&self) -> OpSlot {
        match self {
            Request::Ping => OpSlot::Ping,
            Request::Ingest { .. } => OpSlot::Ingest,
            Request::List => OpSlot::List,
            Request::Resolve { .. } => OpSlot::Resolve,
            Request::Aggregate => OpSlot::Aggregate,
            Request::Top { .. } => OpSlot::Top,
            Request::Report { .. } => OpSlot::Report,
            Request::CodeView { .. } => OpSlot::CodeView,
            Request::AddressView { .. } => OpSlot::AddressView,
            Request::Diff { .. } => OpSlot::Diff,
            Request::StoreStats => OpSlot::StoreStats,
            Request::ServerStats => OpSlot::ServerStats,
            Request::Metrics => OpSlot::Metrics,
            Request::ClearCache => OpSlot::ClearCache,
            Request::Shutdown => OpSlot::Shutdown,
            Request::OpenSession { .. } => OpSlot::OpenSession,
            Request::AppendChunk { .. } => OpSlot::AppendChunk,
            Request::SealSession { .. } => OpSlot::SealSession,
            Request::AbortSession { .. } => OpSlot::AbortSession,
            Request::IngestBinary { .. } => OpSlot::IngestBinary,
            Request::AppendChunkBinary { .. } => OpSlot::AppendChunkBinary,
        }
    }

    /// Stable op name, used for per-op metrics and display.
    pub fn op_name(&self) -> &'static str {
        self.op_slot().name()
    }

    /// The capability bits this request relies on; the client stamps
    /// them on the request frame, and the daemon rejects a streaming op
    /// whose frame failed to declare [`caps::STREAMING`].
    pub fn required_caps(&self) -> u16 {
        match self {
            Request::OpenSession { .. }
            | Request::AppendChunk { .. }
            | Request::SealSession { .. }
            | Request::AbortSession { .. } => caps::STREAMING,
            Request::IngestBinary { .. } => caps::BINARY_CODEC,
            Request::AppendChunkBinary { .. } => caps::STREAMING | caps::BINARY_CODEC,
            Request::Metrics => caps::METRICS,
            _ => 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One row of a `List` response.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProfileEntry {
    /// Hex content id.
    pub id: String,
    pub label: String,
    pub threads: usize,
    pub json_bytes: usize,
}

/// One retained slow-op span in a `ServerStats` response: a request
/// whose total service time crossed the daemon's `--slow-op-ms`
/// threshold, with the structured facts its trace collected.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SlowOpRow {
    /// Trace sequence number (strictly monotonic per daemon).
    pub seq: u64,
    pub op: String,
    /// Request payload size in bytes.
    pub bytes: u64,
    /// Store shard the request touched, if any.
    pub shard: Option<u32>,
    /// Memo-cache outcome, if the request consulted the cache.
    pub cache_hit: Option<bool>,
    /// Microseconds spent blocked on the WAL ack, if the request
    /// staged data.
    pub wal_ack_us: Option<u64>,
    /// End-to-end service time in microseconds.
    pub total_us: u64,
    /// Whether the request drew a typed error.
    pub error: bool,
}

/// The `server-stats` payload: one snapshot of the daemon's metric
/// registry (every number the `metrics` scrape serves, read once),
/// plus the two things that are not metrics.
///
/// This shape replaced a flat struct of copied counters without a
/// protocol version bump: the op, its name and [`PROTOCOL_VERSION`]
/// are unchanged, only this reply's JSON differs. A client built
/// against the old shape fails to decode this one reply; every other
/// op is unaffected.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    pub metrics: Snapshot,
    /// Hex content hash of the stored set — two daemons (or a daemon
    /// before and after a crash-restart) holding the same corpus report
    /// the same value.
    pub store_set_hash: String,
    /// Recent requests that crossed the slow-op threshold, oldest
    /// first.
    pub recent_slow_ops: Vec<SlowOpRow>,
}

impl ServerStats {
    /// The snapshot's Prometheus text, then comment lines with a
    /// percentile summary per histogram, the set hash and the slow ops.
    /// The whole text still parses as exposition format.
    pub fn render(&self) -> String {
        let mut out = self.metrics.render();
        for (name, h) in self.metrics.histograms() {
            let _ = writeln!(
                out,
                "# {name}: p50 {}, p95 {}, p99 {}, max {} over {} sample(s)",
                h.percentile(0.50),
                h.percentile(0.95),
                h.percentile(0.99),
                h.max,
                h.count
            );
        }
        let _ = writeln!(out, "# store set hash {}", self.store_set_hash);
        if !self.recent_slow_ops.is_empty() {
            out.push_str("# recent slow ops:\n");
        }
        for s in &self.recent_slow_ops {
            let _ = writeln!(
                out,
                "#   #{} {:<14} {:>8} µs, {} byte(s){}{}{}{}",
                s.seq,
                s.op,
                s.total_us,
                s.bytes,
                match s.shard {
                    Some(sh) => format!(", shard {sh}"),
                    None => String::new(),
                },
                match s.cache_hit {
                    Some(true) => ", cache hit",
                    Some(false) => ", cache miss",
                    None => "",
                },
                match s.wal_ack_us {
                    Some(us) => format!(", wal ack {us} µs"),
                    None => String::new(),
                },
                if s.error { ", error" } else { "" },
            );
        }
        out
    }
}

/// Typed error taxonomy every failure maps into. The connection stays
/// usable after a request-level error; frame-level errors
/// ([`WireError::Malformed`], [`WireError::Oversized`],
/// [`WireError::UnsupportedVersion`]) close it, since the byte stream
/// can no longer be trusted.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WireError {
    /// Payload was not valid UTF-8 JSON for a known request.
    Malformed { detail: String },
    /// Frame payload exceeded the daemon's cap.
    Oversized { len: usize, max: usize },
    /// Client spoke a protocol revision the daemon does not serve.
    UnsupportedVersion { got: u16, supported: u16 },
    /// A profile reference matched nothing in the store.
    UnknownProfile { reference: String },
    /// A profile reference matched more than one stored profile.
    /// Candidates are rendered `"{id}  {label}"` rows so a client can
    /// show the user what to disambiguate between.
    AmbiguousReference {
        reference: String,
        candidates: Vec<String>,
    },
    /// The profile never recorded that variable.
    UnknownVariable { name: String },
    /// A set-level query hit an empty store.
    EmptyStore,
    /// An ingested payload was not a valid profile.
    ProfileParse { label: String, message: String },
    /// The daemon failed internally (a bug, not a client error).
    Internal { detail: String },
    /// The request relies on capability bits the daemon does not
    /// implement (or a streaming op arrived without declaring
    /// [`caps::STREAMING`]). The connection stays usable.
    Unsupported { feature: u16, supported: u16 },
    /// No such open session (never opened, already sealed or aborted,
    /// or lease-expired and reaped).
    UnknownSession { session: u64 },
    /// Chunks must arrive strictly in sequence, exactly once.
    BadChunkSequence {
        session: u64,
        got: u64,
        expected: u64,
    },
    /// One chunk exceeded the daemon's per-chunk limit.
    ChunkTooLarge { session: u64, len: u64, max: u64 },
    /// The session (or daemon-wide) buffer budget is exhausted; retry
    /// later or fall back to one-shot ingestion.
    SessionBufferFull { session: u64, bytes: u64, max: u64 },
    /// The daemon cannot take more streaming work right now (too many
    /// sessions or global backpressure); retry later.
    Busy { detail: String },
    /// A chunk payload did not parse.
    ChunkParse {
        session: u64,
        seq: u64,
        message: String,
    },
    /// A sealed chunk set did not assemble into a profile; the session
    /// was discarded.
    SessionIncomplete { session: u64, detail: String },
    /// The daemon could not make the operation durable (WAL append or
    /// commit failed — full disk, I/O error). The operation was rolled
    /// back, **not** applied: an ingest can be retried as-is; a chunk
    /// append can be retried at the same sequence number; a failed seal
    /// discards the session, which must be re-streamed. The daemon
    /// keeps serving reads, and the connection stays usable.
    NotDurable { detail: String },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Malformed { detail } => write!(f, "malformed request: {detail}"),
            WireError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the server cap of {max}")
            }
            WireError::UnsupportedVersion { got, supported } => {
                write!(
                    f,
                    "protocol version {got} unsupported (server speaks {supported})"
                )
            }
            WireError::UnknownProfile { reference } => {
                write!(f, "{reference:?} matches no stored profile")
            }
            WireError::AmbiguousReference {
                reference,
                candidates,
            } => {
                write!(
                    f,
                    "{reference:?} is ambiguous: {} profiles match",
                    candidates.len()
                )?;
                for row in candidates.iter().take(8) {
                    write!(f, "\n  {row}")?;
                }
                if candidates.len() > 8 {
                    write!(f, "\n  ... and {} more", candidates.len() - 8)?;
                }
                Ok(())
            }
            WireError::UnknownVariable { name } => {
                write!(f, "variable {name:?} not present in the profile")
            }
            WireError::EmptyStore => write!(f, "the store holds no profiles"),
            WireError::ProfileParse { label, message } => {
                write!(f, "cannot parse profile {label:?}: {message}")
            }
            WireError::Internal { detail } => write!(f, "internal server error: {detail}"),
            WireError::Unsupported { feature, supported } => write!(
                f,
                "capability {} not supported (server implements {})",
                caps::render(*feature),
                caps::render(*supported)
            ),
            WireError::UnknownSession { session } => {
                write!(
                    f,
                    "no open session {session:#x} (sealed, aborted, or lease expired)"
                )
            }
            WireError::BadChunkSequence {
                session,
                got,
                expected,
            } => write!(
                f,
                "session {session:#x}: chunk seq {got} out of order (expected {expected})"
            ),
            WireError::ChunkTooLarge { session, len, max } => write!(
                f,
                "session {session:#x}: chunk of {len} bytes exceeds the {max}-byte limit"
            ),
            WireError::SessionBufferFull {
                session,
                bytes,
                max,
            } => write!(
                f,
                "session {session:#x}: buffer would reach {bytes} bytes (limit {max})"
            ),
            WireError::Busy { detail } => write!(f, "daemon busy: {detail}"),
            WireError::ChunkParse {
                session,
                seq,
                message,
            } => write!(
                f,
                "session {session:#x}: chunk {seq} does not parse: {message}"
            ),
            WireError::SessionIncomplete { session, detail } => {
                write!(f, "session {session:#x} does not assemble: {detail}")
            }
            WireError::NotDurable { detail } => {
                write!(f, "operation not durable (rolled back): {detail}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Every reply the daemon sends.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    Pong,
    Ingested {
        id: String,
        added: bool,
    },
    Profiles(Vec<ProfileEntry>),
    Resolved {
        id: String,
        label: String,
    },
    /// Rendered artifact text (aggregate, top, report, views, diff,
    /// store-stats).
    Text(String),
    ServerStats(ServerStats),
    CacheCleared,
    ShuttingDown,
    /// A streaming session is open; stream chunks under this id and
    /// within these limits, appending at least once per `lease_ms`.
    SessionOpened {
        session: u64,
        lease_ms: u64,
        max_chunk_bytes: u64,
        max_session_bytes: u64,
    },
    /// Chunk accepted (and, on a durable store, staged in the WAL).
    /// `open_bytes` is the daemon-wide buffered total after the append.
    ChunkAppended {
        session: u64,
        seq: u64,
        open_bytes: u64,
    },
    /// The session assembled and committed. `added` is false when the
    /// identical profile was already stored (content-addressed dedup).
    SessionSealed {
        id: String,
        added: bool,
        chunks: u64,
    },
    SessionAborted {
        session: u64,
    },
    Error(WireError),
}

// ---------------------------------------------------------------------------
// Payload helpers (JSON requests + the binary request envelope)
// ---------------------------------------------------------------------------

/// Magic opening a binary request payload. JSON payloads cannot start
/// with these bytes (`N` opens no JSON value), so the two request
/// encodings are disjoint and a receiver dispatches on the first four
/// bytes alone.
pub const BINARY_REQUEST_MAGIC: [u8; 4] = *b"NBRQ";

const BINOP_INGEST: u8 = 0;
const BINOP_APPEND_CHUNK: u8 = 1;

/// Binary envelope layout (all integers big-endian):
///
/// ```text
/// offset 0..4  magic   b"NBRQ"
/// offset 4     opcode  0 = IngestBinary, 1 = AppendChunkBinary
///
/// opcode 0:  u32 label_len, label bytes, codec bytes (rest)
/// opcode 1:  u64 session, u64 seq, chunk bytes (rest)
/// ```
fn encode_binary_request(req: &Request) -> Option<Vec<u8>> {
    match req {
        Request::IngestBinary { label, bytes } => {
            let mut out = Vec::with_capacity(9 + label.len() + bytes.len());
            out.extend_from_slice(&BINARY_REQUEST_MAGIC);
            out.push(BINOP_INGEST);
            out.extend_from_slice(&(label.len() as u32).to_be_bytes());
            out.extend_from_slice(label.as_bytes());
            out.extend_from_slice(bytes);
            Some(out)
        }
        Request::AppendChunkBinary {
            session,
            seq,
            bytes,
        } => {
            let mut out = Vec::with_capacity(21 + bytes.len());
            out.extend_from_slice(&BINARY_REQUEST_MAGIC);
            out.push(BINOP_APPEND_CHUNK);
            out.extend_from_slice(&session.to_be_bytes());
            out.extend_from_slice(&seq.to_be_bytes());
            out.extend_from_slice(bytes);
            Some(out)
        }
        _ => None,
    }
}

fn decode_binary_request(payload: &[u8]) -> Result<Request, WireError> {
    let malformed = |detail: &str| WireError::Malformed {
        detail: detail.to_string(),
    };
    let body = &payload[BINARY_REQUEST_MAGIC.len()..];
    let (&opcode, body) = body
        .split_first()
        .ok_or_else(|| malformed("binary request truncated before opcode"))?;
    match opcode {
        BINOP_INGEST => {
            if body.len() < 4 {
                return Err(malformed("binary ingest truncated before label length"));
            }
            let label_len = u32::from_be_bytes(body[..4].try_into().unwrap()) as usize;
            if body.len() < 4 + label_len {
                return Err(malformed("binary ingest label exceeds payload"));
            }
            let label = std::str::from_utf8(&body[4..4 + label_len])
                .map_err(|_| malformed("binary ingest label is not UTF-8"))?
                .to_string();
            Ok(Request::IngestBinary {
                label,
                bytes: body[4 + label_len..].to_vec(),
            })
        }
        BINOP_APPEND_CHUNK => {
            if body.len() < 16 {
                return Err(malformed("binary chunk append truncated before header"));
            }
            let session = u64::from_be_bytes(body[..8].try_into().unwrap());
            let seq = u64::from_be_bytes(body[8..16].try_into().unwrap());
            Ok(Request::AppendChunkBinary {
                session,
                seq,
                bytes: body[16..].to_vec(),
            })
        }
        other => Err(WireError::Malformed {
            detail: format!("unknown binary request opcode {other}"),
        }),
    }
}

/// Decode a frame payload into a request: the binary envelope when it
/// opens with [`BINARY_REQUEST_MAGIC`], UTF-8 JSON otherwise.
/// Distinguishes "not UTF-8" from "not a request" in the error detail.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    if payload.starts_with(&BINARY_REQUEST_MAGIC) {
        return decode_binary_request(payload);
    }
    let text = std::str::from_utf8(payload).map_err(|e| WireError::Malformed {
        detail: format!("payload is not UTF-8: {e}"),
    })?;
    serde_json::from_str(text).map_err(|e| WireError::Malformed {
        detail: e.to_string(),
    })
}

/// Encode a request as a frame payload. Binary-codec requests take the
/// [`BINARY_REQUEST_MAGIC`] envelope; everything else is JSON.
pub fn encode_request(req: &Request) -> Vec<u8> {
    if let Some(bin) = encode_binary_request(req) {
        return bin;
    }
    serde_json::to_string(req)
        .expect("requests always serialize")
        .into_bytes()
}

/// Encode a response as a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    serde_json::to_string(resp)
        .expect("responses always serialize")
        .into_bytes()
}

/// Decode a frame payload into a response.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let text = std::str::from_utf8(payload).map_err(|e| WireError::Malformed {
        detail: format!("payload is not UTF-8: {e}"),
    })?;
    serde_json::from_str(text).map_err(|e| WireError::Malformed {
        detail: e.to_string(),
    })
}
