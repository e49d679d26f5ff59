//! Declared metrics, the run outcome, and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root declares the same metric
//! names and units; the `declared_metrics_match_benchmark_json` test
//! keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The three workloads.
pub const WORKLOADS: [&str; 3] = ["profile", "ingest", "query"];

/// An end-to-end metric. Every workload reports each one; `meaning`
/// says what it measures on `profile`, `ingest` and `query`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub meaning: [&'static str; 3],
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        meaning: [
            "median set-up: each study at --size small through hpcrun-sim and hpcprof-sim",
            "median per-round set-up: corpus generation, durable daemon spawn to first ping",
            "median set-up: corpus generation, daemon spawn to first ping, preload, warm-up",
        ],
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        meaning: [
            "one study in seq mode, hpcrun-sim then hpcprof-sim: mean of per-study medians",
            "ingest_ack_p50_us: one-shot durable ingest, send to ack",
            "query_p50_us: every read op",
        ],
    },
    EndToEnd {
        name: "op_tail_us",
        unit: "us",
        meaning: [
            "p90 of the same seq-mode study runs",
            "ingest_ack_p99_us: p99 of one-shot durable ingest acks",
            "query_p90_us: p90 of every read op (p99 repeats only within ~13%)",
        ],
    },
    EndToEnd {
        name: "op2_p50_us",
        unit: "us",
        meaning: [
            "one study in par mode, hpcrun-sim then hpcprof-sim: mean of per-study medians",
            "stream_p50_us: open, appends, seal",
            "warm_aggregate_p50_us: aggregate with no write since the previous one",
        ],
    },
    EndToEnd {
        name: "op3_p50_us",
        unit: "us",
        meaning: [
            "hpcprof-sim alone, the text report of one medium profile: mean of per-study medians",
            "reopen_s: restart on the data dir until list returns the full corpus",
            "write: ingest of a new profile while the reads run",
        ],
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        meaning: [
            "study runs completed per second",
            "ingest_ops_per_s: one-shot, stream and re-send ops per second",
            "query_ops_per_s: read and write ops per second",
        ],
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        meaning: [
            "largest peak RSS of any hpcrun-sim or hpcprof-sim process",
            "daemon_rss_mb: VmHWM of hpcd-sim at the end of each round (median)",
            "daemon_rss_mb: VmHWM of hpcd-sim at the end of the run",
        ],
    },
];

/// A per-layer metric: no bound, but the end-to-end metric it should
/// move (or "none" for exact counts a pure speed-up must not change).
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub moves: &'static str,
}

/// Daemon ops whose request and error counts are scraped.
pub const DAEMON_OPS: [&str; 11] = [
    "ingest-binary",
    "open-session",
    "append-chunk-binary",
    "seal-session",
    "list",
    "aggregate",
    "top",
    "report",
    "code-view",
    "address-view",
    "diff",
];

/// Ops whose wire cost (client RPC minus in-process call) is reported.
pub const WIRE_OPS: [&str; 7] = [
    "aggregate",
    "top",
    "report",
    "code-view",
    "address-view",
    "diff",
    "ingest-binary",
];

/// Span layers: the workspace crates the benchmark calls into, plus its
/// own code.
pub const LAYERS: [&str; 14] = [
    "machine",
    "sim",
    "sampling",
    "core",
    "workloads",
    "codec",
    "engine",
    "analysis",
    "store",
    "live",
    "server",
    "obs",
    "cli",
    "bench",
];

/// Crates whose non-test lines are counted (`loc.<crate>`).
pub const CRATES: [&str; 15] = [
    "analysis",
    "bench",
    "cli",
    "codec",
    "core",
    "engine",
    "faults",
    "live",
    "machine",
    "obs",
    "sampling",
    "server",
    "sim",
    "store",
    "workloads",
];

pub fn per_layer() -> Vec<PerLayer> {
    let fixed: &[(&str, &'static str, &'static str)] = &[
        (
            "sim.accesses_per_s_seq",
            "1/s",
            "profile op_p50_us (profile_seq_s)",
        ),
        (
            "sim.accesses_per_s_par",
            "1/s",
            "profile op2_p50_us (profile_par_s)",
        ),
        (
            "sim.ns_per_access_l1",
            "ns",
            "profile op_p50_us, op2_p50_us",
        ),
        (
            "sim.ns_per_access_dram",
            "ns",
            "profile op_p50_us, op2_p50_us",
        ),
        (
            "core.monitor_wall_frac",
            "ratio",
            "profile op_p50_us, op2_p50_us",
        ),
        (
            "core.samples",
            "count",
            "none: exact, must not move on a pure speed-up",
        ),
        (
            "core.sim_overhead_frac",
            "ratio",
            "none: exact, must not move on a pure speed-up",
        ),
        ("core.to_json_ms", "ms", "profile op_p50_us, op2_p50_us"),
        (
            "engine.build_ms",
            "ms",
            "profile op_p50_us; query op_tail_us on cache misses",
        ),
        (
            "analysis.report_ms",
            "ms",
            "profile op_p50_us, op3_p50_us; query op_tail_us on misses",
        ),
        (
            "codec.encode_us",
            "us",
            "ingest op_p50_us, op2_p50_us, op3_p50_us",
        ),
        (
            "codec.decode_us",
            "us",
            "ingest op_p50_us, op2_p50_us, op3_p50_us",
        ),
        (
            "codec.bytes_per_profile",
            "bytes",
            "ingest op_p50_us, op2_p50_us, op3_p50_us",
        ),
        ("store.id_hash_us", "us", "ingest op_p50_us, ops_per_s"),
        ("store.ingest_mem_us", "us", "ingest op_p50_us"),
        (
            "store.ingest_durable_us",
            "us",
            "ingest op_p50_us, op_tail_us (minus ingest_mem_us: WAL ack)",
        ),
        ("store.flush_ms", "ms", "ingest op_tail_us"),
        ("store.reopen_ms", "ms", "ingest op3_p50_us (reopen_s)"),
        (
            "store.warm_aggregate_us",
            "us",
            "query op2_p50_us (warm_aggregate_p50_us)",
        ),
        (
            "store.artifact_text_us",
            "us",
            "query op2_p50_us (warm_aggregate_p50_us)",
        ),
        (
            "store.cold_aggregate_ms",
            "ms",
            "query op3_p50_us, op_tail_us",
        ),
        (
            "store.wal_appends",
            "count",
            "ingest ops_per_s (base of store.wal_batch)",
        ),
        (
            "store.wal_group_commits",
            "count",
            "ingest ops_per_s (base of store.wal_batch)",
        ),
        ("store.wal_batch", "ratio", "ingest ops_per_s"),
        ("store.snapshots_written", "count", "ingest op_tail_us"),
        ("store.dedup_hits", "count", "ingest ops_per_s"),
        (
            "store.ingest_attempts",
            "count",
            "base of store.dedup_ratio",
        ),
        ("store.dedup_ratio", "ratio", "ingest ops_per_s"),
        ("store.cache_hits", "count", "query op_p50_us, op_tail_us"),
        ("store.cache_misses", "count", "query op_p50_us, op_tail_us"),
        (
            "store.cache_lookups",
            "count",
            "base of store.cache_hit_ratio",
        ),
        (
            "store.cache_hit_ratio",
            "ratio",
            "query op_p50_us, op_tail_us",
        ),
        ("live.stream_us", "us", "ingest op2_p50_us (stream_p50_us)"),
        ("obs.record_ns", "ns", "every daemon op latency"),
        (
            "failed_frac",
            "ratio",
            "every metric: failed ops over attempted",
        ),
        (
            "trace_overhead_frac",
            "ratio",
            "none: traced over untraced op_p50_us, minus 1",
        ),
    ];
    let mut out: Vec<PerLayer> = fixed
        .iter()
        .map(|&(name, unit, moves)| PerLayer {
            name: name.to_string(),
            unit,
            moves,
        })
        .collect();
    for op in WIRE_OPS {
        out.push(PerLayer {
            name: format!("server.wire_us.{op}"),
            unit: "us",
            moves: if op == "ingest-binary" {
                "ingest op_p50_us"
            } else {
                "query op_p50_us"
            },
        });
    }
    for op in DAEMON_OPS {
        out.push(PerLayer {
            name: format!("daemon.requests.{op}"),
            unit: "count",
            moves: "none: request mix of the workload",
        });
        out.push(PerLayer {
            name: format!("daemon.errors.{op}"),
            unit: "count",
            moves: "failed_frac",
        });
    }
    for layer in LAYERS {
        out.push(PerLayer {
            name: format!("self_ms.{layer}"),
            unit: "ms",
            moves: "the traced workload's op metrics",
        });
    }
    for krate in CRATES {
        out.push(PerLayer {
            name: format!("loc.{krate}"),
            unit: "lines",
            moves: "none: design size",
        });
    }
    out.push(PerLayer {
        name: "loc.total".to_string(),
        unit: "lines",
        moves: "none: design size",
    });
    out
}

/// What a run found: its checks, op counts and metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, described.
    pub wrong: Vec<String>,
    metrics: BTreeMap<String, (f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.0)
    }

    /// Record a correctness check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong.push(what());
        }
    }

    /// A named figure printed for people (not part of the result line).
    pub fn note(&mut self, name: &str, value: f64, unit: &str, what: &str) {
        self.notes
            .push(format!("{name} = {value:.6} {unit}  # {what}"));
    }

    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }

    /// The result line. `names` is the metric set of the run's mode; a
    /// declared metric the run did not set is a benchmark bug.
    pub fn result_json(&self, names: &[(String, &'static str)]) -> Result<String, String> {
        let mut m = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let (value, set_unit) = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if set_unit != unit {
                return Err(format!(
                    "metric {name} measured in {set_unit}, declared in {unit}"
                ));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        ))
    }
}

/// `(name, unit)` of the metrics a run in `trace` mode must print.
pub fn declared(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer().into_iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        all.extend(per_layer().into_iter().map(|m| m.name));
        assert!(all.len() <= 16 + 128);
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for n in &all {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }

    #[test]
    fn result_requires_every_declared_metric() {
        let mut o = Outcome::default();
        o.set("a", 1.5, "s");
        let names = vec![("a".to_string(), "s"), ("b".to_string(), "ms")];
        assert!(o.result_json(&names).is_err());
        o.set("b", 2.0, "ms");
        let line = o.result_json(&names).unwrap();
        assert!(line.contains("\"b\": {\"value\": 2.0, \"unit\": \"ms\"}"));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
    }
}
