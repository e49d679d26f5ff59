//! `ingest`: the durable write path. Each round starts `hpcd-sim
//! --data-dir` with its default flush policy (`--fsync-wal off`,
//! `--snapshot-wal-kib 4096`) on a fresh directory. Two closed-loop
//! clients send 160 ops: ~70% one-shot `ingest_binary` of a new profile,
//! ~20% `stream_profile`-style sessions (8 threads per chunk) and ~10%
//! re-sends of a profile already stored, which take the dedup path. The
//! profiles are seeded one-counter perturbations of `--size small` runs
//! of the four case studies (100–200 KB binary each), so a round crosses
//! about five WAL compactions. After a clean shutdown the daemon restarts
//! on the same directory and must answer `list` and `aggregate` as before.

use crate::checks;
use crate::corpus::{self, Rng, STUDIES};
use crate::procs::{self, Daemon};
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{Ctx, Measured};
use numa_profiler::NumaProfile;
use numa_server::{Client, ClientError};
use numa_store::stream::split_profile;
use numa_store::ProfileId;
use std::io;
use std::time::{Duration, Instant};

/// Ops per round, split evenly between the clients. Enough to cross
/// several compactions; small enough that the snapshots, each a copy of
/// the whole corpus, do not dominate the disk traffic.
pub const ROUND_OPS: usize = 160;
pub const CLIENTS: usize = 2;
/// Threads per streamed chunk.
pub const CHUNK_THREADS: usize = 8;
/// Threads per profile: the `amd` preset's 48 hardware threads.
pub const PROFILE_THREADS: usize = 48;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    OneShot,
    Stream,
    Resend,
}

enum Payload {
    Bytes(Vec<u8>),
    Chunks(Vec<Vec<u8>>),
}

struct Planned {
    kind: Kind,
    base: usize,
    idx: u64,
    payload: Payload,
}

struct Acked {
    kind: Kind,
    base: usize,
    idx: u64,
    id: String,
    added: bool,
}

fn label(base: usize, idx: u64) -> String {
    format!("{}-{idx}", STUDIES[base])
}

/// One client's seeded op list for one round.
fn plan(
    bases: &[NumaProfile],
    salt: u64,
    rng: &mut Rng,
    round: usize,
    client: usize,
) -> Vec<Planned> {
    let mut fresh: Vec<(usize, u64)> = Vec::new();
    (0..ROUND_OPS / CLIENTS)
        .map(|k| {
            let u = rng.unit();
            if u >= 0.9 && !fresh.is_empty() {
                let (base, idx) = fresh[rng.below(fresh.len())];
                let bytes = numa_codec::encode_profile(&corpus::perturb(&bases[base], idx, salt));
                return Planned {
                    kind: Kind::Resend,
                    base,
                    idx,
                    payload: Payload::Bytes(bytes),
                };
            }
            let idx = (round * ROUND_OPS + k * CLIENTS + client) as u64;
            let base = rng.below(bases.len());
            let p = corpus::perturb(&bases[base], idx, salt);
            fresh.push((base, idx));
            if (0.7..0.9).contains(&u) {
                let chunks = split_profile(&p, CHUNK_THREADS)
                    .iter()
                    .map(|c| c.to_binary())
                    .collect();
                Planned {
                    kind: Kind::Stream,
                    base,
                    idx,
                    payload: Payload::Chunks(chunks),
                }
            } else {
                Planned {
                    kind: Kind::OneShot,
                    base,
                    idx,
                    payload: Payload::Bytes(numa_codec::encode_profile(&p)),
                }
            }
        })
        .collect()
}

fn stream(
    c: &mut Client,
    t: &mut Tracer,
    label: &str,
    chunks: Vec<Vec<u8>>,
) -> Result<(String, bool), ClientError> {
    let info = t.span("open-session", "server", || c.open_session(label))?;
    for (seq, chunk) in chunks.into_iter().enumerate() {
        t.span("append-chunk-binary", "server", || {
            c.append_chunk_binary(info.session, seq as u64, chunk)
        })?;
    }
    let (id, added, _) = t.span("seal-session", "server", || c.seal_session(info.session))?;
    Ok((id, added))
}

/// What one client thread brings back.
#[derive(Default)]
struct Driven {
    latencies: Vec<(Kind, f64)>,
    acked: Vec<Acked>,
    failed: u64,
}

fn drive(addr: &str, ops: Vec<Planned>, t: &mut Tracer) -> io::Result<Driven> {
    let mut c = Client::connect(addr).map_err(|e| io::Error::other(e.to_string()))?;
    c.ping().map_err(|e| io::Error::other(e.to_string()))?;
    let mut d = Driven::default();
    for op in ops {
        let label = label(op.base, op.idx);
        let start = Instant::now();
        let res = match op.payload {
            Payload::Bytes(bytes) => {
                t.span("ingest-binary", "server", || c.ingest_binary(&label, bytes))
            }
            Payload::Chunks(chunks) => {
                let s = t.begin("stream", "bench");
                let r = stream(&mut c, t, &label, chunks);
                t.end(s);
                r
            }
        };
        let us = start.elapsed().as_secs_f64() * 1e6;
        match res {
            Ok((id, added)) => {
                d.latencies.push((op.kind, us));
                d.acked.push(Acked {
                    kind: op.kind,
                    base: op.base,
                    idx: op.idx,
                    id,
                    added,
                });
            }
            Err(e) => {
                d.failed += 1;
                eprintln!("perfbench: ingest op failed: {e}");
            }
        }
    }
    Ok(d)
}

fn io_err(e: ClientError) -> io::Error {
    io::Error::other(e.to_string())
}

/// Restart-surviving view of the store: sorted list rows.
fn listing(c: &mut Client) -> io::Result<Vec<(String, String, usize, usize)>> {
    let mut rows: Vec<_> = c
        .list()
        .map_err(io_err)?
        .into_iter()
        .map(|e| (e.id, e.label, e.threads, e.json_bytes))
        .collect();
    rows.sort();
    Ok(rows)
}

pub fn measure(ctx: &Ctx, seconds: f64, tracing: bool, out: &mut Outcome) -> io::Result<Measured> {
    let mut m = Measured::default();
    let work = procs::work_dir("ingest")?;
    let salt = corpus::salt(ctx.seed);
    let epoch = Instant::now();
    let mut tracers: Vec<Tracer> = (0..=CLIENTS as u32)
        .map(|i| Tracer::new(tracing, epoch, i))
        .collect();
    let (mut acks, mut streams, mut resends, mut reopens) = (vec![], vec![], vec![], vec![]);
    let (mut load_s, mut ops_done, mut rss_mb) = (0.0, 0u64, vec![]);
    let start = Instant::now();
    let mut round = 0;
    while round == 0 || start.elapsed().as_secs_f64() < seconds {
        // Set-up: inputs, then a durable daemon answering a ping.
        let t = Instant::now();
        let bases = tracers[CLIENTS].span("bases", "workloads", || {
            corpus::bases("small", PROFILE_THREADS)
        });
        let plans: Vec<Vec<Planned>> = (0..CLIENTS)
            .map(|client| {
                let mut rng = Rng::fork(ctx.seed, (round * CLIENTS + client) as u64 + 100);
                tracers[CLIENTS].span("plan", "codec", || {
                    plan(&bases, salt, &mut rng, round, client)
                })
            })
            .collect();
        let data = work.join(format!("data-{round}"));
        let args = vec!["--data-dir".to_string(), data.display().to_string()];
        let daemon = Daemon::spawn(&args, &work.join(format!("daemon-{round}.log")))?;
        let mut admin = daemon.connect()?;
        admin.ping().map_err(io_err)?;
        m.setup_s.push(t.elapsed().as_secs_f64());
        let before = procs::scrape(&mut admin)?;
        drop(admin);

        // Load: two closed-loop clients.
        let t = Instant::now();
        let addr = daemon.addr.clone();
        let driven: Vec<io::Result<Driven>> = std::thread::scope(|s| {
            let handles: Vec<_> = plans
                .into_iter()
                .zip(tracers.iter_mut())
                .map(|(ops, tracer)| {
                    let addr = &addr;
                    s.spawn(move || drive(addr, ops, tracer))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        load_s += t.elapsed().as_secs_f64();
        let mut acked = Vec::new();
        for d in driven {
            let d = d?;
            m.attempted += (d.latencies.len() as u64) + d.failed;
            m.failed += d.failed;
            ops_done += d.latencies.len() as u64;
            for (kind, us) in d.latencies {
                match kind {
                    Kind::OneShot => acks.push(us),
                    Kind::Stream => streams.push(us),
                    Kind::Resend => resends.push(us),
                }
            }
            acked.extend(d.acked);
        }

        // State before shutdown, then a clean stop.
        let mut admin = daemon.connect()?;
        let after = procs::scrape(&mut admin)?;
        let listed = listing(&mut admin)?;
        let aggregate = admin.aggregate().map_err(io_err)?;
        rss_mb.push(procs::vm_hwm_kb(daemon.pid()).unwrap_or(0) as f64 / 1024.0);
        drop(admin);
        m.scrapes.push((before, after));
        let status = daemon.shutdown()?;
        out.check(status.success(), || {
            format!("hpcd-sim exited with {status} after shutdown")
        });

        // Reopen: restart on the data dir until `list` shows the corpus.
        let t = Instant::now();
        let span = tracers[CLIENTS].begin("reopen", "cli");
        let daemon = Daemon::spawn(&args, &work.join(format!("reopen-{round}.log")))?;
        let mut c = daemon.connect()?;
        let relisted = loop {
            let rows = listing(&mut c)?;
            if rows.len() >= listed.len() || t.elapsed() > Duration::from_secs(60) {
                break rows;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        tracers[CLIENTS].end(span);
        reopens.push(t.elapsed().as_secs_f64() * 1e6);
        let reaggregate = c.aggregate().map_err(io_err)?;
        drop(c);
        let status = daemon.shutdown()?;
        out.check(status.success(), || {
            format!("reopened hpcd-sim exited with {status} after shutdown")
        });
        out.check(relisted == listed, || {
            format!(
                "round {round}: list after restart differs ({} vs {} rows)",
                relisted.len(),
                listed.len()
            )
        });
        out.check(reaggregate == aggregate, || {
            format!("round {round}: aggregate text after restart differs")
        });

        // Every reply against the locally computed identity.
        let fresh = acked.iter().filter(|a| a.kind != Kind::Resend).count();
        out.check(listed.len() == fresh, || {
            format!(
                "round {round}: {} profiles stored, {fresh} distinct acknowledged",
                listed.len()
            )
        });
        for a in &acked {
            let p = corpus::perturb(&bases[a.base], a.idx, salt);
            let (want, _) = tracers[CLIENTS].span("id-hash", "store", || ProfileId::of(&p));
            if let Err(e) =
                checks::check_ingest(&a.id, a.added, &want.to_string(), a.kind == Kind::Resend)
            {
                out.check(false, || e);
            }
        }
        let _ = std::fs::remove_dir_all(&data);
        round += 1;
    }
    m.op_p50_us = median(&acks);
    m.op_tail_us = percentile(&acks, 0.99);
    m.op2_p50_us = median(&streams);
    m.op3_p50_us = median(&reopens);
    m.samples = [acks.len(), streams.len(), reopens.len()];
    m.ops_per_s = ops_done as f64 / load_s.max(1e-9);
    m.peak_rss_mb = median(&rss_mb);
    out.note(
        "ingest_ack_p50_us",
        m.op_p50_us,
        "us",
        "one-shot durable ingest, send to ack",
    );
    out.note(
        "ingest_ack_p90_us",
        percentile(&acks, 0.90),
        "us",
        "one-shot durable ingest",
    );
    out.note(
        "ingest_ack_p99_us",
        m.op_tail_us,
        "us",
        "one-shot durable ingest",
    );
    out.note("stream_p50_us", m.op2_p50_us, "us", "open, appends, seal");
    out.note(
        "resend_p50_us",
        median(&resends),
        "us",
        "re-send of a stored profile (dedup)",
    );
    out.note(
        "ingest_ops_per_s",
        m.ops_per_s,
        "1/s",
        "one-shot, stream and re-send ops",
    );
    out.note(
        "reopen_s",
        m.op3_p50_us / 1e6,
        "s",
        "restart until list shows the corpus",
    );
    out.note(
        "daemon_rss_mb",
        m.peak_rss_mb,
        "MB",
        "VmHWM at the end of a round, median",
    );
    out.note(
        "rounds",
        round as f64,
        "count",
        &format!("{ROUND_OPS} ops each"),
    );
    let _ = std::fs::remove_dir_all(&work);
    for t in tracers {
        m.trace.absorb(t);
    }
    Ok(m)
}
