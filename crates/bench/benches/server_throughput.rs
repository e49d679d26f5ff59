//! Daemon throughput over loopback: requests/sec and tail latency for
//! cached vs. uncached aggregate queries, the serving-layer companion
//! to `store_throughput`.
//!
//! One `hpcd` server with a preloaded corpus, one blocking client per
//! measurement. `aggregate_warm` hits the store's memo cache on every
//! request (the steady state of a dashboard polling the daemon);
//! `aggregate_cold` clears the cache first, so each iteration pays the
//! full cross-run merge plus two round trips.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use numa_machine::{Machine, MachinePreset};
use numa_profiler::ProfilerConfig;
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_server::{Client, Server, ServerConfig};
use numa_sim::ExecMode;
use numa_store::ProfileStore;
use numa_workloads::{run_profiled, Blackscholes, BlackscholesVariant};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

const CORPUS: usize = 8;

/// Ceiling on the warm-aggregate p50 overhead of observability
/// (default config vs. span capture disabled), in percent. Loopback
/// p50s on shared CI runners jitter well past the real cost of three
/// relaxed atomics and a ring push, so the default is lenient and the
/// knob (`NUMA_OBS_MAX_OVERHEAD_PCT`) lets starved hosts loosen it
/// further.
fn max_overhead_pct() -> f64 {
    std::env::var("NUMA_OBS_MAX_OVERHEAD_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5.0)
}

/// Distinct serialized runs (option count varies the content).
fn corpus() -> Vec<(String, String)> {
    (0..CORPUS)
        .map(|i| {
            let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
            let w = Blackscholes::new(48 + 8 * i as u64, 3, BlackscholesVariant::Baseline);
            let config = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 16));
            let (_, _, p) = run_profiled(&w, machine, 8, ExecMode::Sequential, config);
            (format!("run-{i}"), p.to_json())
        })
        .collect()
}

fn start_daemon_with(
    config: ServerConfig,
) -> (
    SocketAddr,
    std::thread::JoinHandle<std::io::Result<numa_server::ServerStats>>,
) {
    let store = Arc::new(ProfileStore::new());
    let report = store.ingest_batch(&corpus());
    assert_eq!(report.added.len(), CORPUS);
    let server = Server::bind("127.0.0.1:0", config, store).expect("bind ephemeral");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn start_daemon() -> (
    SocketAddr,
    std::thread::JoinHandle<std::io::Result<numa_server::ServerStats>>,
) {
    start_daemon_with(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    })
}

/// Interleaved rounds of the observability A/B, and warm aggregates
/// timed per side in each round.
const AB_ROUNDS: usize = 30;
const AB_REQUESTS: usize = 150;

/// p50 in ns of `AB_REQUESTS` warm aggregates, each timed alone.
fn warm_p50_ns(client: &mut Client) -> u64 {
    let mut ns: Vec<u64> = (0..AB_REQUESTS)
        .map(|_| {
            let t = Instant::now();
            black_box(client.aggregate().expect("warm aggregate"));
            t.elapsed().as_nanos() as u64
        })
        .collect();
    ns.sort_unstable();
    ns[AB_REQUESTS / 2]
}

/// Measure per-request latencies, return (req/s, p50, p95, p99) in µs.
fn measure(client: &mut Client, n: usize, mut op: impl FnMut(&mut Client)) -> (f64, u64, u64, u64) {
    let mut lat_us: Vec<u64> = Vec::with_capacity(n);
    let start = Instant::now();
    for _ in 0..n {
        let t = Instant::now();
        op(client);
        lat_us.push(t.elapsed().as_micros() as u64);
    }
    let wall = start.elapsed().as_secs_f64();
    lat_us.sort_unstable();
    let pct = |p: f64| lat_us[(((p * n as f64).ceil() as usize).clamp(1, n)) - 1];
    (n as f64 / wall, pct(0.50), pct(0.95), pct(0.99))
}

fn bench_server(c: &mut Criterion) {
    let (addr, server) = start_daemon();
    let mut client = Client::connect(addr).expect("connect");

    let mut group = c.benchmark_group("server_rpc");
    group.sample_size(10);
    group.bench_function("ping", |b| b.iter(|| client.ping().expect("ping")));
    group.bench_function("aggregate_warm", |b| {
        client.clear_cache().expect("clear");
        client.aggregate().expect("prime the cache");
        b.iter(|| black_box(client.aggregate().expect("aggregate")).len())
    });
    group.bench_function("aggregate_cold", |b| {
        b.iter(|| {
            client.clear_cache().expect("clear");
            black_box(client.aggregate().expect("aggregate")).len()
        })
    });
    group.finish();

    // Tail-latency summary over loopback, recorded like
    // store_throughput's cold/warm headline.
    client.clear_cache().expect("clear");
    client.aggregate().expect("prime");
    let (warm_rps, w50, w95, w99) = measure(&mut client, 400, |c| {
        c.aggregate().expect("warm aggregate");
    });
    let (cold_rps, c50, c95, c99) = measure(&mut client, 40, |c| {
        c.clear_cache().expect("clear");
        c.aggregate().expect("cold aggregate");
    });
    println!(
        "server_rpc/summary: warm aggregate {warm_rps:.0} req/s \
         (p50 {w50} µs, p95 {w95} µs, p99 {w99} µs); \
         cold aggregate {cold_rps:.0} req/s \
         (p50 {c50} µs, p95 {c95} µs, p99 {c99} µs) over {CORPUS} profiles"
    );
    let stats = client.server_stats().expect("server-stats").metrics;
    let latency = stats
        .histogram("numa_server_request_latency_us")
        .expect("latency histogram");
    println!(
        "server_rpc/daemon: {} request(s), {} error(s), daemon-side p50 {} µs p99 {} µs",
        stats.sum("numa_server_requests_total").expect("requests"),
        stats.sum("numa_server_errors_total").expect("errors"),
        latency.percentile(0.50),
        latency.percentile(0.99)
    );

    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("run ok");

    // Observability overhead A/B: the same warm-aggregate workload on
    // the default config vs a daemon with span capture disabled
    // (`trace_capacity: 0`). Both daemons stay up and the rounds
    // interleave, the order swapping every round, so drift in host
    // state lands on both sides alike. Requests are timed in ns. The
    // verdict is the median over rounds of each round's paired
    // overhead (traced vs untraced p50, measured back to back); each
    // side's median p50 and its range over rounds print next to it.
    let mut sides = [
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
        ServerConfig {
            workers: 4,
            trace_capacity: 0,
            ..ServerConfig::default()
        },
    ]
    .map(|config| {
        let (addr, server) = start_daemon_with(config);
        let mut client = Client::connect(addr).expect("connect");
        client.aggregate().expect("prime");
        (client, server)
    });
    let mut rounds: Vec<[f64; 2]> = Vec::with_capacity(AB_ROUNDS);
    for round in 0..AB_ROUNDS {
        let mut p50_us = [0.0; 2];
        for k in 0..2 {
            let side = (round + k) % 2;
            p50_us[side] = warm_p50_ns(&mut sides[side].0) as f64 / 1e3;
        }
        rounds.push(p50_us);
    }
    for (mut client, server) in sides {
        client.shutdown().expect("shutdown");
        server.join().expect("join").expect("run ok");
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let side = |i: usize| {
        let p50s: Vec<f64> = rounds.iter().map(|r| r[i]).collect();
        let (lo, hi) = p50s
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        (median(p50s), lo, hi)
    };
    let (traced, untraced) = (side(0), side(1));
    let overhead_pct = median(rounds.iter().map(|[t, u]| (t / u - 1.0) * 100.0).collect());
    let ceiling = max_overhead_pct();
    println!(
        "server_rpc/obs-overhead: warm aggregate p50 {:.2} µs traced (rounds {:.2}..{:.2}) \
         vs {:.2} µs untraced (rounds {:.2}..{:.2}); paired overhead {overhead_pct:+.1}% \
         over {AB_ROUNDS} interleaved rounds (ceiling {ceiling}%)",
        traced.0, traced.1, traced.2, untraced.0, untraced.1, untraced.2
    );
    assert!(
        overhead_pct <= ceiling,
        "observability must cost <{ceiling}% warm-aggregate p50 \
         (traced {:.2} µs vs untraced {:.2} µs, paired overhead {overhead_pct:+.1}%; \
         override with NUMA_OBS_MAX_OVERHEAD_PCT on starved CI hosts)",
        traced.0,
        untraced.0
    );
}

criterion_group!(benches, bench_server);
criterion_main!(benches);
