//! End-to-end and per-layer benchmark of the NUMA profiler
//! (`hpcrun-sim` + `hpcprof-sim`) and the `hpcd-sim` daemon.
//!
//! Three seeded workloads, each run against the release binaries:
//!
//! * `profile` — the four case studies through `hpcrun-sim` and
//!   `hpcprof-sim`, in seq and par mode;
//! * `ingest` — two clients writing distinct profiles to a durable daemon,
//!   then a restart on its data directory;
//! * `query` — two clients reading a 2048-profile in-memory daemon, with
//!   one write in 200.
//!
//! With `--trace 1` a run also times calls into each layer's public
//! functions in-process ([`layers`]) and reports span self times.

pub mod checks;
pub mod corpus;
pub mod layers;
pub mod loc;
pub mod procs;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload_ingest;
pub mod workload_profile;
pub mod workload_query;

use procs::Scrape;
use report::Outcome;
use trace::Trace;

/// Command-line settings of one run.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one pass of a workload measured.
#[derive(Default)]
pub struct Measured {
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// The op-class figures, in µs (see `report::END_TO_END` for what
    /// each class is on each workload).
    pub op_p50_us: f64,
    pub op_tail_us: f64,
    pub op2_p50_us: f64,
    pub op3_p50_us: f64,
    /// Samples behind the op figures, for the record.
    pub samples: [usize; 3],
    /// Ops completed per second of load.
    pub ops_per_s: f64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Daemon metrics before and after each load phase.
    pub scrapes: Vec<(Scrape, Scrape)>,
    pub trace: Trace,
}

impl Measured {
    /// Sum of a scraped series' increase over every load phase.
    pub fn scraped(&self, key: &str) -> f64 {
        self.scrapes
            .iter()
            .map(|(before, after)| procs::delta(before, after, key))
            .sum()
    }
}

/// The end-to-end metrics of one pass.
pub fn set_end_to_end(out: &mut Outcome, m: &Measured) {
    out.set("setup_s", stats::median(&m.setup_s), "s");
    out.set("op_p50_us", m.op_p50_us, "us");
    out.set("op_tail_us", m.op_tail_us, "us");
    out.set("op2_p50_us", m.op2_p50_us, "us");
    out.set("op3_p50_us", m.op3_p50_us, "us");
    out.set("ops_per_s", m.ops_per_s, "1/s");
    out.set("peak_rss_mb", m.peak_rss_mb, "MB");
    let [n1, n2, n3] = m.samples;
    out.note(
        "samples",
        n1 as f64,
        "count",
        &format!(
            "op {n1} / op2 {n2} / op3 {n3} / set-ups {}",
            m.setup_s.len()
        ),
    );
    let failed_frac = m.failed as f64 / m.attempted.max(1) as f64;
    out.note(
        "failed_frac",
        failed_frac,
        "ratio",
        "failed or refused ops over attempted",
    );
}

/// Run one pass of the context's workload for `seconds`.
pub fn measure(
    ctx: &Ctx,
    seconds: f64,
    tracing: bool,
    out: &mut Outcome,
) -> std::io::Result<Measured> {
    match ctx.workload.as_str() {
        "profile" => workload_profile::measure(ctx, seconds, tracing, out),
        "ingest" => workload_ingest::measure(ctx, seconds, tracing, out),
        "query" => workload_query::measure(ctx, seconds, tracing, out),
        other => Err(std::io::Error::other(format!(
            "unknown workload {other:?} (profile, ingest, query)"
        ))),
    }
}
