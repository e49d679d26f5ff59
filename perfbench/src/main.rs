//! `perfbench --workload profile|ingest|query --seed N --seconds S --trace 0|1`
//!
//! Runs one workload against the release binaries in the target
//! directory (`$CARGO_TARGET_DIR`, default `target`), from the root of a
//! checkout. Prints named figures, then one JSON result line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits non-zero, printing no result, when the benchmark
//! itself cannot run. `perfbench/run.py` builds and runs it.

use perfbench::report::{self, Outcome, CRATES, DAEMON_OPS, LAYERS};
use perfbench::trace::Tracer;
use perfbench::{layers, loc, measure, procs, set_end_to_end, Ctx, Measured};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload profile|ingest|query --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == key)
            .ok_or_else(|| format!("{key} is required"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{key} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !report::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Ctx {
        workload,
        seed,
        seconds: seconds.max(0.1),
        trace,
    })
}

/// Host facts recorded with every result.
fn host_facts() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    format!(
        "host: {cpus} visible CPU(s); {}; git rev {}",
        cmd("rustc", &["--version"]),
        cmd("git", &["rev-parse", "--short", "HEAD"])
    )
}

/// Per-layer figures of a traced run that come from outside the layer
/// suite: daemon counts, failures, span self times and lines of code.
fn traced_figures(
    out: &mut Outcome,
    untraced: &Measured,
    traced: &Measured,
) -> std::io::Result<()> {
    let m = traced;
    let sum = |prefix: &str| m.scraped(prefix);
    for op in DAEMON_OPS {
        out.set(
            format!("daemon.requests.{op}"),
            sum(&format!("numa_server_requests_total{{op=\"{op}\"}}")),
            "count",
        );
        out.set(
            format!("daemon.errors.{op}"),
            sum(&format!("numa_server_errors_total{{op=\"{op}\"}}")),
            "count",
        );
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (appends, commits) = (
        sum("numa_store_wal_appends_total"),
        sum("numa_store_wal_group_commits_total"),
    );
    out.set("store.wal_appends", appends, "count");
    out.set("store.wal_group_commits", commits, "count");
    out.set("store.wal_batch", ratio(appends, commits), "ratio");
    out.set(
        "store.snapshots_written",
        sum("numa_store_snapshots_written_total"),
        "count",
    );
    let dedup = sum("numa_store_dedup_hits_total");
    let attempts = sum("numa_server_requests_total{op=\"ingest-binary\"}")
        + sum("numa_server_requests_total{op=\"seal-session\"}");
    out.set("store.dedup_hits", dedup, "count");
    out.set("store.ingest_attempts", attempts, "count");
    out.set("store.dedup_ratio", ratio(dedup, attempts), "ratio");
    let (hits, misses) = (
        sum("numa_store_cache_hits_total"),
        sum("numa_store_cache_misses_total"),
    );
    out.set("store.cache_hits", hits, "count");
    out.set("store.cache_misses", misses, "count");
    out.set("store.cache_lookups", hits + misses, "count");
    out.set("store.cache_hit_ratio", ratio(hits, hits + misses), "ratio");

    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed + traced.failed;
    out.set(
        "failed_frac",
        ratio(failed as f64, attempted as f64),
        "ratio",
    );
    out.set(
        "trace_overhead_frac",
        traced.op_p50_us / untraced.op_p50_us - 1.0,
        "ratio",
    );
    let self_ns = m.trace.self_ns_by_layer();
    for layer in LAYERS {
        let ns = self_ns.get(layer).copied().unwrap_or(0);
        out.set(format!("self_ms.{layer}"), ns as f64 / 1e6, "ms");
    }
    let mut total = 0.0;
    for krate in CRATES {
        let lines = loc::count_dir(&Path::new("crates").join(krate).join("src"))? as f64;
        total += lines;
        out.set(format!("loc.{krate}"), lines, "lines");
    }
    out.set("loc.total", total, "lines");
    Ok(())
}

fn run(ctx: &Ctx) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    if !ctx.trace {
        let m = measure(ctx, ctx.seconds, false, &mut out)?;
        out.attempted = m.attempted;
        out.failed = m.failed;
        set_end_to_end(&mut out, &m);
        return Ok(out);
    }
    // Traced run: an untraced half, a traced half, then the layer suite.
    let half = ctx.seconds / 2.0;
    out.notes.push("untraced half:".to_string());
    let untraced = measure(ctx, half, false, &mut out)?;
    out.notes.push("traced half:".to_string());
    let mut traced = measure(ctx, half, true, &mut out)?;
    let mut tracer = Tracer::new(true, std::time::Instant::now(), 99);
    layers::run(&mut out, &mut tracer, ctx.seed)?;
    traced.trace.absorb(tracer);
    out.attempted = untraced.attempted + traced.attempted;
    out.failed = untraced.failed + traced.failed;
    traced_figures(&mut out, &untraced, &traced)?;

    let path = procs::target_dir().join(format!(
        "perfbench-trace-{}-{}.json",
        ctx.workload, ctx.seed
    ));
    std::fs::write(&path, traced.trace.to_json())?;
    out.notes
        .push(format!("spans written to {}", path.display()));
    out.notes.push(format!(
        "{:<10} {:<22} {:>7} {:>12} {:>12}",
        "layer", "span", "count", "total_ms", "self_ms"
    ));
    for ((layer, name), (count, total, own)) in traced.trace.by_name() {
        out.notes.push(format!(
            "{layer:<10} {name:<22} {count:>7} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    out.notes
        .push("per-layer metric -> end-to-end metric it should move:".to_string());
    for m in report::per_layer() {
        let value = out.get(&m.name).unwrap_or(f64::NAN);
        out.notes
            .push(format!("  {} = {value} {} -> {}", m.name, m.unit, m.moves));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&ctx) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} cannot run: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    let result = match out.result_json(&report::declared(ctx.trace)) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    println!("{}", host_facts());
    for m in report::END_TO_END {
        let i = report::WORKLOADS
            .iter()
            .position(|w| *w == ctx.workload)
            .expect("known workload");
        if let Some(v) = out.get(m.name) {
            println!("{} = {v:.6} {}  # {}", m.name, m.unit, m.meaning[i]);
        }
    }
    for note in &out.notes {
        println!("{note}");
    }
    for w in &out.wrong {
        println!("WRONG: {w}");
    }
    println!("{result}");
    ExitCode::SUCCESS
}
