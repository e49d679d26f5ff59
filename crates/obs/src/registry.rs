//! Metric naming and Prometheus text exposition.
//!
//! A [`Registry`] maps metric family names to the handles (or closure
//! collectors) that hold the live values. Registration happens once at
//! startup. [`Registry::snapshot`] reads every series once into a
//! [`Snapshot`]; [`Snapshot::render`] emits it in the Prometheus text
//! format (`text/plain; version=0.0.4`):
//!
//! ```text
//! # HELP numa_server_requests_total Requests served, by op.
//! # TYPE numa_server_requests_total counter
//! numa_server_requests_total{op="ping"} 42
//! ```
//!
//! Registering the same family name again appends a series (e.g. one
//! per op label); help and type come from the first registration.

use crate::metrics::{bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

enum Source {
    Counter(Counter),
    Gauge(Gauge),
    /// Derived counter value, read under the owning component's lock.
    CounterFn(Box<dyn Fn() -> u64 + Send + Sync>),
    /// Derived gauge value.
    GaugeFn(Box<dyn Fn() -> i64 + Send + Sync>),
    Histogram(Histogram),
}

struct Series {
    /// Rendered label set, `{key="value",...}` or empty.
    labels: String,
    source: Source,
}

struct Family {
    name: String,
    help: String,
    kind: &'static str,
    series: Vec<Series>,
}

/// A set of named metric families rendered as Prometheus text.
///
/// Components register cloned handles (one storage location, two
/// readers) or closures for values derived under their own locks.
/// Thread-safe; registration and rendering may race, each render sees
/// a consistent family list.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)], handle: Counter) {
        self.register(name, help, "counter", labels, Source::Counter(handle));
    }

    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)], handle: Gauge) {
        self.register(name, help, "gauge", labels, Source::Gauge(handle));
    }

    pub fn counter_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.register(
            name,
            help,
            "counter",
            labels,
            Source::CounterFn(Box::new(f)),
        );
    }

    pub fn gauge_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> i64 + Send + Sync + 'static,
    ) {
        self.register(name, help, "gauge", labels, Source::GaugeFn(Box::new(f)));
    }

    pub fn histogram(&self, name: &str, help: &str, handle: Histogram) {
        self.register(name, help, "histogram", &[], Source::Histogram(handle));
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: &'static str,
        labels: &[(&str, &str)],
        source: Source,
    ) {
        debug_assert!(valid_name(name), "invalid metric name {name:?}");
        debug_assert!(
            labels.iter().all(|(k, _)| valid_name(k)),
            "invalid label key in {labels:?}"
        );
        let labels = render_labels(labels);
        let mut families = self.families.lock();
        match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                debug_assert_eq!(f.kind, kind, "family {name:?} re-registered as {kind}");
                f.series.push(Series { labels, source });
            }
            None => families.push(Family {
                name: name.to_string(),
                help: help.to_string(),
                kind,
                series: vec![Series { labels, source }],
            }),
        }
    }

    /// Read every series exactly once: counters and gauges by value,
    /// closure collectors by one call, histograms through one
    /// [`Histogram::snapshot`]. Every reader of the registry (the
    /// scrape, `server-stats`, tests) works from such a copy.
    pub fn snapshot(&self) -> Snapshot {
        let families = self.families.lock();
        Snapshot {
            families: families
                .iter()
                .map(|family| FamilySnapshot {
                    name: family.name.clone(),
                    help: family.help.clone(),
                    series: family
                        .series
                        .iter()
                        .map(|series| (series.labels.clone(), series.source.read()))
                        .collect(),
                })
                .collect(),
        }
    }

    /// Render every family in registration order as Prometheus text.
    pub fn render(&self) -> String {
        self.snapshot().render()
    }
}

impl Source {
    fn read(&self) -> Reading {
        match self {
            Source::Counter(c) => Reading::Counter(c.get()),
            Source::CounterFn(f) => Reading::Counter(f()),
            Source::Gauge(g) => Reading::Gauge(g.get()),
            Source::GaugeFn(f) => Reading::Gauge(f()),
            Source::Histogram(h) => Reading::Histogram(Box::new(h.snapshot())),
        }
    }
}

/// One series' value as read by [`Registry::snapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
enum Reading {
    Counter(u64),
    Gauge(i64),
    /// Boxed: 27 buckets dwarf a scalar, and most series are scalars.
    Histogram(Box<HistogramSnapshot>),
}

impl Reading {
    fn kind(&self) -> &'static str {
        match self {
            Reading::Counter(_) => "counter",
            Reading::Gauge(_) => "gauge",
            Reading::Histogram(_) => "histogram",
        }
    }

    /// The value of a counter or gauge; `None` for a histogram.
    /// `i128` holds every `u64` counter and `i64` gauge exactly.
    fn value(&self) -> Option<i128> {
        match self {
            Reading::Counter(v) => Some(*v as i128),
            Reading::Gauge(v) => Some(*v as i128),
            Reading::Histogram(_) => None,
        }
    }
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct FamilySnapshot {
    name: String,
    help: String,
    /// `(rendered label set, value)` per series, in registration order.
    series: Vec<(String, Reading)>,
}

/// A point-in-time copy of every series in a [`Registry`], taken by
/// [`Registry::snapshot`]. It is plain data: it travels over the wire
/// as the `server-stats` payload and renders as the same Prometheus
/// text the registry serves.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    families: Vec<FamilySnapshot>,
}

impl Snapshot {
    /// A counter or gauge by its series key, exactly as the text
    /// exposition prints it: `numa_live_open_sessions`, or
    /// `numa_server_requests_total{op="ingest"}` for a labelled series.
    pub fn get(&self, key: &str) -> Option<i128> {
        self.families.iter().find_map(|family| {
            let labels = key.strip_prefix(family.name.as_str())?;
            family
                .series
                .iter()
                .find(|(l, _)| l == labels)
                .and_then(|(_, reading)| reading.value())
        })
    }

    /// The sum of every counter or gauge series of family `name` (all
    /// label values), `None` when no such family was registered.
    pub fn sum(&self, name: &str) -> Option<i128> {
        let family = self.families.iter().find(|f| f.name == name)?;
        Some(family.series.iter().filter_map(|(_, r)| r.value()).sum())
    }

    /// The histogram registered as `name`.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms().find(|(n, _)| *n == name).map(|(_, h)| h)
    }

    /// Every histogram in the snapshot, in registration order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &HistogramSnapshot)> {
        self.families.iter().flat_map(|family| {
            family
                .series
                .iter()
                .filter_map(|(_, reading)| match reading {
                    Reading::Histogram(h) => Some((family.name.as_str(), &**h)),
                    _ => None,
                })
        })
    }

    /// Prometheus text exposition (`text/plain; version=0.0.4`) of
    /// every family, in registration order.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        for family in &self.families {
            let Some((_, first)) = family.series.first() else {
                continue;
            };
            let name = &family.name;
            let _ = writeln!(out, "# HELP {name} {}", family.help);
            let _ = writeln!(out, "# TYPE {name} {}", first.kind());
            for (labels, reading) in &family.series {
                match reading {
                    Reading::Counter(v) => {
                        let _ = writeln!(out, "{name}{labels} {v}");
                    }
                    Reading::Gauge(v) => {
                        let _ = writeln!(out, "{name}{labels} {v}");
                    }
                    Reading::Histogram(snap) => {
                        let mut cumulative = 0u64;
                        for i in 0..BUCKETS {
                            cumulative = cumulative.saturating_add(snap.buckets[i]);
                            let le = bucket_upper_bound(i);
                            if le == u64::MAX {
                                continue; // folded into +Inf below
                            }
                            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                        }
                        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", snap.count);
                        let _ = writeln!(out, "{name}_sum {}", snap.sum);
                        let _ = writeln!(out, "{name}_count {}", snap.count);
                    }
                }
            }
        }
        out
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with(|c: char| c.is_ascii_digit())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
    out
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_families_with_labels_and_help() {
        let registry = Registry::new();
        let ping = Counter::new();
        let ingest = Counter::new();
        ping.add(3);
        ingest.add(2);
        registry.counter(
            "numa_requests_total",
            "Requests by op.",
            &[("op", "ping")],
            ping,
        );
        registry.counter(
            "numa_requests_total",
            "ignored duplicate help",
            &[("op", "ingest")],
            ingest,
        );
        let g = Gauge::new();
        g.set(-4);
        registry.gauge("numa_open_bytes", "Buffered bytes.", &[], g);
        registry.counter_fn("numa_derived_total", "Derived.", &[], || 7);

        let text = registry.render();
        assert!(text.contains("# HELP numa_requests_total Requests by op.\n"));
        assert!(text.contains("# TYPE numa_requests_total counter\n"));
        assert!(text.contains("numa_requests_total{op=\"ping\"} 3\n"));
        assert!(text.contains("numa_requests_total{op=\"ingest\"} 2\n"));
        assert!(text.contains("numa_open_bytes -4\n"));
        assert!(text.contains("numa_derived_total 7\n"));
        // Help appears once per family even with two series.
        assert_eq!(text.matches("# HELP numa_requests_total").count(), 1);
    }

    #[test]
    fn renders_histogram_with_cumulative_buckets() {
        let registry = Registry::new();
        let h = Histogram::new();
        h.record(1); // bucket 0 (le 2)
        h.record(3); // bucket 1 (le 4)
        h.record(1 << 40); // overflow bucket
        registry.histogram("numa_latency_us", "Latency.", h);
        let text = registry.render();
        assert!(text.contains("# TYPE numa_latency_us histogram\n"));
        assert!(text.contains("numa_latency_us_bucket{le=\"2\"} 1\n"));
        assert!(text.contains("numa_latency_us_bucket{le=\"4\"} 2\n"));
        assert!(text.contains("numa_latency_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("numa_latency_us_count 3\n"));
        let sum = 1 + 3 + (1u64 << 40);
        assert!(text.contains(&format!("numa_latency_us_sum {sum}\n")));
    }

    #[test]
    fn snapshot_looks_up_series_by_key() {
        let registry = Registry::new();
        let ping = Counter::new();
        ping.add(3);
        registry.counter("numa_requests_total", "By op.", &[("op", "ping")], ping);
        registry.counter_fn("numa_requests_total", "By op.", &[("op", "list")], || 4);
        registry.gauge_fn("numa_open_bytes", "Buffered.", &[], || -4);
        let h = Histogram::new();
        h.record(3);
        registry.histogram("numa_latency_us", "Latency.", h);

        let snap = registry.snapshot();
        assert_eq!(snap.get("numa_requests_total{op=\"ping\"}"), Some(3));
        assert_eq!(snap.get("numa_requests_total{op=\"list\"}"), Some(4));
        assert_eq!(snap.get("numa_requests_total{op=\"nope\"}"), None);
        assert_eq!(snap.get("numa_requests_total"), None);
        assert_eq!(snap.get("numa_open_bytes"), Some(-4));
        assert_eq!(snap.get("numa_open"), None);
        assert_eq!(
            snap.get("numa_latency_us"),
            None,
            "histograms are not scalars"
        );
        assert_eq!(snap.sum("numa_requests_total"), Some(7));
        assert_eq!(snap.sum("numa_missing_total"), None);
        assert_eq!(snap.histogram("numa_latency_us").map(|h| h.count), Some(1));
        // The snapshot survives the wire and renders the registry text.
        let wire = serde_json::to_string(&snap).expect("serialize");
        let back: Snapshot = serde_json::from_str(&wire).expect("round trip");
        assert_eq!(back, snap);
        assert_eq!(back.render(), registry.render());
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
