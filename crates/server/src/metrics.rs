//! Request observability for the daemon: per-op counters and a
//! fixed-bucket latency histogram, all homed on `numa-obs` handles.
//!
//! The hot path (one request) touches exactly three relaxed atomics:
//! op requests, the histogram bucket, and optionally op errors. Every
//! reader (the Prometheus scrape and `server-stats`) goes through the
//! registry the handles are adopted into by [`Metrics::register`] —
//! one storage location per number, one read path.

use numa_obs::{Counter, Histogram, Registry};

/// Every op the daemon serves, densely numbered for counter arrays.
/// [`crate::Request::op_slot`] maps each request to its slot with one
/// exhaustive `match`; [`OpSlot::Unknown`] absorbs malformed requests
/// that never decoded to an op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpSlot {
    Ping,
    Ingest,
    IngestBinary,
    List,
    Resolve,
    Aggregate,
    Top,
    Report,
    CodeView,
    AddressView,
    Diff,
    StoreStats,
    ServerStats,
    Metrics,
    ClearCache,
    Shutdown,
    OpenSession,
    AppendChunk,
    AppendChunkBinary,
    SealSession,
    AbortSession,
    Unknown,
}

impl OpSlot {
    pub const COUNT: usize = OpSlot::Unknown as usize + 1;
    /// Stable op names, indexed by slot: the `op` label of every per-op
    /// series and [`crate::Request::op_name`].
    pub const NAMES: [&'static str; OpSlot::COUNT] = [
        "ping",
        "ingest",
        "ingest-binary",
        "list",
        "resolve",
        "aggregate",
        "top",
        "report",
        "code-view",
        "address-view",
        "diff",
        "store-stats",
        "server-stats",
        "metrics",
        "clear-cache",
        "shutdown",
        "open-session",
        "append-chunk",
        "append-chunk-binary",
        "seal-session",
        "abort-session",
        "unknown",
    ];

    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }
}

/// All daemon counters, shared by workers via `Arc`.
#[derive(Default)]
pub struct Metrics {
    requests: [Counter; OpSlot::COUNT],
    errors: [Counter; OpSlot::COUNT],
    latency: Histogram,
    connections_accepted: Counter,
    connections_closed: Counter,
    rejected_oversized: Counter,
    malformed_frames: Counter,
    timeouts: Counter,
}

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record_request(&self, op: OpSlot, elapsed: std::time::Duration, is_error: bool) {
        self.requests[op as usize].inc();
        if is_error {
            self.errors[op as usize].inc();
        }
        self.latency.record_duration(elapsed);
    }

    pub fn connection_accepted(&self) {
        self.connections_accepted.inc();
    }

    pub fn connection_closed(&self) {
        self.connections_closed.inc();
    }

    pub fn rejected_oversized(&self) {
        self.rejected_oversized.inc();
    }

    pub fn malformed_frame(&self) {
        self.malformed_frames.inc();
    }

    pub fn timeout(&self) {
        self.timeouts.inc();
    }

    /// Adopt every counter into `registry` under the `numa_server_`
    /// prefix (clones of the same handles the hot path increments).
    pub fn register(&self, registry: &Registry) {
        for (i, name) in OpSlot::NAMES.iter().enumerate() {
            registry.counter(
                "numa_server_requests_total",
                "Requests served, by op.",
                &[("op", name)],
                self.requests[i].clone(),
            );
            registry.counter(
                "numa_server_errors_total",
                "Requests answered with a typed error, by op.",
                &[("op", name)],
                self.errors[i].clone(),
            );
        }
        registry.histogram(
            "numa_server_request_latency_us",
            "End-to-end request service time in microseconds.",
            self.latency.clone(),
        );
        registry.counter(
            "numa_server_connections_accepted_total",
            "TCP connections accepted.",
            &[],
            self.connections_accepted.clone(),
        );
        registry.counter(
            "numa_server_connections_closed_total",
            "TCP connections closed.",
            &[],
            self.connections_closed.clone(),
        );
        registry.counter(
            "numa_server_rejected_oversized_total",
            "Frames rejected for exceeding the size cap.",
            &[],
            self.rejected_oversized.clone(),
        );
        registry.counter(
            "numa_server_malformed_frames_total",
            "Frames that failed to decode.",
            &[],
            self.malformed_frames.clone(),
        );
        registry.counter(
            "numa_server_timeouts_total",
            "Connections dropped on read timeout.",
            &[],
            self.timeouts.clone(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use std::time::Duration;

    #[test]
    fn histogram_percentiles_bracket_samples() {
        let h = Histogram::new();
        for us in [1u64, 10, 100, 1000, 10_000] {
            for _ in 0..20 {
                h.record_duration(Duration::from_micros(us));
            }
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        let p50 = s.percentile(0.50);
        // The median sample is 100 µs; its bucket's upper bound is 128.
        assert!((100..=128).contains(&p50), "p50 = {p50}");
        let p99 = s.percentile(0.99);
        assert!(p99 >= 10_000, "p99 = {p99}");
        assert_eq!(s.max, 10_000);
    }

    #[test]
    fn op_slots_cover_every_request() {
        use crate::protocol::ReportFormat;
        let s = String::new;
        // One row per `Request` variant, with the name every per-op
        // series (and the benchmark's scrape) is keyed by.
        let reqs = [
            (Request::Ping, "ping"),
            (
                Request::Ingest {
                    label: s(),
                    json: s(),
                },
                "ingest",
            ),
            (Request::List, "list"),
            (Request::Resolve { reference: s() }, "resolve"),
            (Request::Aggregate, "aggregate"),
            (Request::Top { n: 1 }, "top"),
            (
                Request::Report {
                    profile: s(),
                    format: ReportFormat::Text,
                },
                "report",
            ),
            (
                Request::CodeView {
                    profile: s(),
                    min_share_permille: 0,
                },
                "code-view",
            ),
            (
                Request::AddressView {
                    profile: s(),
                    var: s(),
                },
                "address-view",
            ),
            (
                Request::Diff {
                    before: s(),
                    after: s(),
                },
                "diff",
            ),
            (Request::StoreStats, "store-stats"),
            (Request::ServerStats, "server-stats"),
            (Request::Metrics, "metrics"),
            (Request::ClearCache, "clear-cache"),
            (Request::Shutdown, "shutdown"),
            (Request::OpenSession { label: s() }, "open-session"),
            (
                Request::AppendChunk {
                    session: 0,
                    seq: 0,
                    chunk: s(),
                },
                "append-chunk",
            ),
            (Request::SealSession { session: 0 }, "seal-session"),
            (Request::AbortSession { session: 0 }, "abort-session"),
            (
                Request::IngestBinary {
                    label: s(),
                    bytes: Vec::new(),
                },
                "ingest-binary",
            ),
            (
                Request::AppendChunkBinary {
                    session: 0,
                    seq: 0,
                    bytes: Vec::new(),
                },
                "append-chunk-binary",
            ),
        ];
        let mut slots: Vec<usize> = Vec::new();
        for (r, name) in &reqs {
            assert_eq!(r.op_name(), *name);
            assert_ne!(r.op_slot(), OpSlot::Unknown, "{name}");
            slots.push(r.op_slot() as usize);
        }
        // Every slot but `unknown` is some request's, exactly once.
        slots.sort_unstable();
        assert_eq!(slots, (0..OpSlot::COUNT - 1).collect::<Vec<_>>());
    }

    #[test]
    fn registered_counters_share_storage_with_the_hot_path() {
        let m = Metrics::new();
        let registry = Registry::new();
        m.register(&registry);
        m.record_request(Request::Ping.op_slot(), Duration::from_micros(5), false);
        m.record_request(Request::Ping.op_slot(), Duration::from_micros(7), true);
        let text = registry.render();
        assert!(
            text.contains("numa_server_requests_total{op=\"ping\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("numa_server_errors_total{op=\"ping\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("numa_server_request_latency_us_count 2\n"),
            "{text}"
        );
    }
}
