//! In-memory spans recorded around the benchmark's own calls into each
//! layer. Nothing inside the program is instrumented: a span covers one
//! call from this benchmark into a layer's public function (or one
//! request to a spawned process), and is tagged with that layer.
//!
//! Each client thread owns a [`Tracer`]; spans nest through an explicit
//! stack, so a span's parent is the span open around it on the same
//! thread. A disabled tracer records nothing, which is how the untraced
//! half of a traced run is measured.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer's list.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle for a span opened with [`Tracer::begin`].
#[must_use]
pub struct Open(Option<usize>);

/// Per-thread span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            enabled,
            epoch,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            thread: self.thread,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
            self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, layer);
        let r = f();
        self.end(open);
        r
    }
}

/// The spans of every tracer of a run.
#[derive(Default)]
pub struct Trace {
    /// Each tracer's spans; parent indices point into the same list.
    threads: Vec<Vec<Span>>,
}

impl Trace {
    pub fn absorb(&mut self, tracer: Tracer) {
        if !tracer.spans.is_empty() {
            self.threads.push(tracer.spans);
        }
    }

    /// Self time of every span: its duration minus its children's.
    fn self_times(&self) -> impl Iterator<Item = (&Span, u64)> + '_ {
        self.threads.iter().flat_map(|spans| {
            let mut child_ns = vec![0u64; spans.len()];
            for s in spans {
                if let Some(p) = s.parent {
                    child_ns[p] += s.dur_ns();
                }
            }
            spans
                .iter()
                .zip(child_ns)
                .map(|(s, c)| (s, s.dur_ns().saturating_sub(c)))
        })
    }

    /// Summed self time per layer, in nanoseconds.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut by = BTreeMap::new();
        for (s, own) in self.self_times() {
            *by.entry(s.layer).or_insert(0) += own;
        }
        by
    }

    /// `(layer, name) -> (count, total ns, self ns)`.
    pub fn by_name(&self) -> BTreeMap<(&'static str, &'static str), (u64, u64, u64)> {
        let mut by = BTreeMap::new();
        for (s, own) in self.self_times() {
            let e = by.entry((s.layer, s.name)).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += own;
        }
        by
    }

    /// Every span as a JSON array: name, layer, thread, start, end, parent.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        let mut first = true;
        for (t, spans) in self.threads.iter().enumerate() {
            for (i, s) in spans.iter().enumerate() {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let parent = match s.parent {
                    Some(p) => format!("\"{t}.{p}\""),
                    None => "null".to_string(),
                };
                let _ = write!(
                    out,
                    "{{\"id\": \"{t}.{i}\", \"name\": \"{}\", \"layer\": \"{}\", \"thread\": {}, \
                     \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                    s.name, s.layer, s.thread, s.start_ns, s.end_ns
                );
            }
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        let outer = t.begin("outer", "bench");
        t.span("inner", "store", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(outer);
        let mut trace = Trace::default();
        trace.absorb(t);
        let by = trace.by_name();
        let (_, outer_total, outer_self) = by[&("bench", "outer")];
        let (_, inner_total, inner_self) = by[&("store", "inner")];
        assert_eq!(inner_total, inner_self);
        assert_eq!(outer_self, outer_total - inner_total);
        assert!(inner_total >= 5_000_000);
        assert!(trace.to_json().contains("\"parent\": \"0.0\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        t.span("x", "bench", || ());
        let mut trace = Trace::default();
        trace.absorb(t);
        assert!(trace.self_ns_by_layer().is_empty());
    }
}
