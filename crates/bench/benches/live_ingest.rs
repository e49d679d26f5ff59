//! Streaming-ingestion throughput over loopback: `stream_profile`
//! (open → per-chunk append → seal) vs one-shot `ingest` for the same
//! corpus, then sealed-streams/sec with 1, 4 and 8 concurrent
//! streaming clients.
//!
//! After the first iteration every seal deduplicates against the
//! store, so steady-state numbers measure the full streaming path —
//! framing, chunk staging, reassembly and canonical hashing — without
//! unbounded store growth.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use numa_machine::{Machine, MachinePreset};
use numa_profiler::{NumaProfile, ProfilerConfig};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_server::{Client, Server, ServerConfig};
use numa_sim::ExecMode;
use numa_store::ProfileStore;
use numa_workloads::{run_profiled, Blackscholes, BlackscholesVariant};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

const STREAMS: usize = 8;
const CHUNK_THREADS: usize = 2;

/// Distinct runs (option count varies the content hash).
fn corpus() -> Vec<NumaProfile> {
    (0..STREAMS)
        .map(|i| {
            let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
            let w = Blackscholes::new(48 + 8 * i as u64, 3, BlackscholesVariant::Baseline);
            let config = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 16));
            let (_, _, p) = run_profiled(&w, machine, 8, ExecMode::Sequential, config);
            p
        })
        .collect()
}

fn start_daemon() -> (
    SocketAddr,
    std::thread::JoinHandle<std::io::Result<numa_server::ServerStats>>,
) {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: STREAMS,
            ..ServerConfig::default()
        },
        Arc::new(ProfileStore::new()),
    )
    .expect("bind ephemeral");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn bench_live(c: &mut Criterion) {
    let profiles = Arc::new(corpus());
    let jsons: Vec<String> = profiles.iter().map(|p| p.to_json()).collect();
    let (addr, server) = start_daemon();
    let mut client = Client::connect(addr).expect("connect");

    let mut group = c.benchmark_group("live_ingest");
    group.sample_size(10);
    group.bench_function("oneshot_ingest", |b| {
        b.iter(|| {
            let (id, _) = client.ingest("bench-oneshot", &jsons[0]).expect("ingest");
            black_box(id)
        })
    });
    group.bench_function("streamed_ingest", |b| {
        b.iter(|| {
            let (id, _, chunks) = client
                .stream_profile("bench-stream", &profiles[0], CHUNK_THREADS)
                .expect("stream");
            black_box((id, chunks))
        })
    });
    group.finish();

    // Concurrent sealed-streams/sec, one client per stream. Each
    // thread streams its own distinct profile so seals never contend
    // on the same content id.
    for clients in [1usize, 4, STREAMS] {
        let rounds = 8;
        let start = Instant::now();
        std::thread::scope(|s| {
            for t in 0..clients {
                let profiles = Arc::clone(&profiles);
                s.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    for r in 0..rounds {
                        let label = format!("bench-c{t}-r{r}");
                        c.stream_profile(&label, &profiles[t], CHUNK_THREADS)
                            .expect("stream");
                    }
                });
            }
        });
        let wall = start.elapsed().as_secs_f64();
        let sealed = (clients * rounds) as f64;
        println!(
            "live_ingest/concurrency: {clients} client(s) sealed {sealed:.0} stream(s) \
             in {wall:.3} s ({:.0} seals/s)",
            sealed / wall
        );
    }
    let stats = client.server_stats().expect("server-stats").metrics;
    let series = |key: &str| stats.get(key).expect(key);
    println!(
        "live_ingest/daemon: {} session(s) opened, {} sealed, {} chunk(s) appended, \
         {} backpressure rejection(s)",
        series("numa_live_sessions_opened_total"),
        series("numa_live_sessions_sealed_total"),
        series("numa_live_chunks_appended_total"),
        series("numa_live_backpressure_rejections_total")
    );

    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("run ok");
}

criterion_group!(benches, bench_live);
criterion_main!(benches);
