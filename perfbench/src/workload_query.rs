//! `query`: the read path with writes beside the reads. An in-memory
//! `hpcd-sim` (no `--data-dir`, so no WAL) is preloaded with 2048 seeded
//! 8-thread profiles — 8× its default 256-entry memo cache — and warmed
//! with one aggregate, which builds every lazy engine. Two closed-loop
//! clients then send: about half pooled queries (`aggregate`, `top 10`),
//! just under half per-profile views (text `report`, `code_view`,
//! `address_view`, `diff`) on Zipf-skewed profiles, and one op in 200 an
//! ingest of a new profile, which invalidates the pooled answers.

use crate::checks;
use crate::corpus::{self, Rng, Zipf, STUDIES};
use crate::procs::{self, Daemon};
use crate::report::Outcome;
use crate::stats::{fnv, median, percentile};
use crate::trace::Tracer;
use crate::{Ctx, Measured};
use numa_profiler::NumaProfile;
use numa_server::{Client, ClientError, ReportFormat};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Profiles preloaded at set-up.
pub const CORPUS: usize = 2048;
pub const CLIENTS: usize = 2;
/// Threads per profile.
pub const PROFILE_THREADS: usize = 8;
/// One op in `WRITE_EVERY` is an ingest.
pub const WRITE_EVERY: usize = 200;
/// Zipf exponent of the per-profile choice.
pub const ZIPF_S: f64 = 1.0;
/// `code_view` elides subtrees under this share, in permille.
pub const MIN_SHARE_PERMILLE: u16 = 5;

fn io_err(e: ClientError) -> io::Error {
    io::Error::other(e.to_string())
}

/// The corpus: for each profile, its base study and encoded bytes.
fn corpus_bytes(bases: &[NumaProfile], salt: u64, n: usize) -> Vec<(usize, Vec<u8>)> {
    (0..n)
        .map(|i| {
            let base = i % bases.len();
            let p = corpus::perturb(&bases[base], i as u64, salt);
            (base, numa_codec::encode_profile(&p))
        })
        .collect()
}

/// Ingest `items` over `CLIENTS` connections; returns ids in input order.
fn preload(addr: &str, items: Vec<(usize, Vec<u8>)>) -> io::Result<Vec<String>> {
    let per = items.len().div_ceil(CLIENTS);
    let mut numbered = items.into_iter().enumerate();
    let parts: Vec<Vec<_>> = (0..CLIENTS)
        .map(|_| numbered.by_ref().take(per).collect())
        .collect();
    let ids: Vec<io::Result<Vec<(usize, String)>>> = std::thread::scope(|s| {
        let hs: Vec<_> = parts
            .into_iter()
            .map(|part| {
                s.spawn(move || {
                    let mut c = Client::connect(addr).map_err(io_err)?;
                    let mut ids = Vec::with_capacity(part.len());
                    for (i, (base, bytes)) in part {
                        let (id, added) = c
                            .ingest_binary(&format!("{}-{i}", STUDIES[base]), bytes)
                            .map_err(io_err)?;
                        if !added {
                            return Err(io::Error::other(format!("preload {i} deduplicated")));
                        }
                        ids.push((i, id));
                    }
                    Ok(ids)
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("preload thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for part in ids {
        all.extend(part?);
    }
    all.sort();
    Ok(all.into_iter().map(|(_, id)| id).collect())
}

/// A daemon ready for the load, and what the clients need to know.
pub struct Loaded {
    pub daemon: Daemon,
    pub bases: Vec<NumaProfile>,
    /// Profile ids, by corpus index.
    pub ids: Vec<String>,
}

/// Set-up: corpus generation, daemon spawn to first ping, preload and
/// a warming aggregate.
pub fn setup(seed: u64, n: usize, log: &std::path::Path) -> io::Result<Loaded> {
    let bases = corpus::bases("small", PROFILE_THREADS);
    let items = corpus_bytes(&bases, corpus::salt(seed), n);
    let daemon = Daemon::spawn(&[], log)?;
    let mut c = daemon.connect()?;
    c.ping().map_err(io_err)?;
    drop(c);
    let ids = preload(&daemon.addr, items)?;
    let mut c = daemon.connect()?;
    c.aggregate().map_err(io_err)?;
    c.top(10).map_err(io_err)?;
    Ok(Loaded { daemon, bases, ids })
}

/// Key of a read whose reply must repeat byte for byte.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    /// Pooled query at a given run count (the corpus only grows).
    Pooled(&'static str, u64),
    View(&'static str, usize, usize),
}

/// Cross-client write accounting for the aggregate run-count check and
/// the warm/cold classification.
struct Shared {
    sent: AtomicU64,
    acked: AtomicU64,
    /// `acked` as last seen by a completed aggregate / top.
    agg_epoch: AtomicU64,
    top_epoch: AtomicU64,
}

#[derive(Default)]
struct Driven {
    reads: Vec<f64>,
    warm_agg: Vec<f64>,
    cold_pooled: Vec<f64>,
    writes: Vec<f64>,
    replies: Vec<(Key, u64)>,
    wrong: Vec<String>,
    done: u64,
    failed: u64,
}

struct Load<'a> {
    addr: &'a str,
    loaded: &'a Loaded,
    shared: &'a Shared,
    zipf: &'a Zipf,
    /// Zipf rank -> corpus index.
    rank_to_profile: &'a [usize],
    salt: u64,
    stop_at: Instant,
}

fn drive(load: &Load, client: usize, mut rng: Rng, t: &mut Tracer) -> io::Result<Driven> {
    let mut c = Client::connect(load.addr).map_err(io_err)?;
    c.ping().map_err(io_err)?;
    let mut d = Driven::default();
    let sh = load.shared;
    let mut writes = 0u64;
    let pick = |rng: &mut Rng| load.rank_to_profile[load.zipf.sample(rng)];
    while Instant::now() < load.stop_at {
        d.done += 1;
        if rng.below(WRITE_EVERY) == 0 {
            let idx = (CORPUS + client + CLIENTS * writes as usize) as u64;
            writes += 1;
            let base = idx as usize % load.loaded.bases.len();
            let bytes = numa_codec::encode_profile(&corpus::perturb(
                &load.loaded.bases[base],
                idx,
                load.salt,
            ));
            sh.sent.fetch_add(1, Ordering::SeqCst);
            let label = format!("{}-{idx}", STUDIES[base]);
            let start = Instant::now();
            match t.span("ingest-binary", "server", || c.ingest_binary(&label, bytes)) {
                Ok((_, added)) => {
                    d.writes.push(start.elapsed().as_secs_f64() * 1e6);
                    sh.acked.fetch_add(1, Ordering::SeqCst);
                    if !added {
                        d.wrong.push(format!("write {idx} deduplicated"));
                    }
                }
                Err(e) => {
                    d.failed += 1;
                    eprintln!("perfbench: query-side ingest failed: {e}");
                }
            }
            continue;
        }
        let pooled = rng.below(2) == 0;
        let acked_before = sh.acked.load(Ordering::SeqCst);
        let sent_before = sh.sent.load(Ordering::SeqCst);
        let start = Instant::now();
        let (reply, key) = if pooled {
            let is_agg = rng.below(2) == 0;
            let (name, epoch) = if is_agg {
                ("aggregate", &sh.agg_epoch)
            } else {
                ("top", &sh.top_epoch)
            };
            let cold = epoch.load(Ordering::SeqCst) != acked_before;
            let warm = !cold && sent_before == acked_before;
            let r = if is_agg {
                t.span("aggregate", "server", || c.aggregate())
            } else {
                t.span("top", "server", || c.top(10))
            };
            let us = start.elapsed().as_secs_f64() * 1e6;
            let Ok(text) = r else {
                d.failed += 1;
                continue;
            };
            d.reads.push(us);
            if cold {
                d.cold_pooled.push(us);
            } else if warm && is_agg {
                d.warm_agg.push(us);
            }
            epoch.fetch_max(acked_before, Ordering::SeqCst);
            let runs = if is_agg {
                let sent_after = sh.sent.load(Ordering::SeqCst);
                match checks::check_aggregate_runs(
                    &text,
                    CORPUS as u64 + acked_before,
                    CORPUS as u64 + sent_after,
                ) {
                    Ok(runs) => Some(runs),
                    Err(e) => {
                        d.wrong.push(e);
                        None
                    }
                }
            } else {
                // A top-n reply carries no run count: only a quiet corpus
                // pins it down.
                (sent_before == acked_before && sh.sent.load(Ordering::SeqCst) == sent_before)
                    .then_some(CORPUS as u64 + acked_before)
            };
            (text, runs.map(|n| Key::Pooled(name, n)))
        } else {
            let p = pick(&mut rng);
            let id = &load.loaded.ids[p];
            let base = &load.loaded.bases[p % load.loaded.bases.len()];
            let (r, key) = match rng.below(4) {
                0 => (
                    t.span("report", "server", || c.report(id, ReportFormat::Text)),
                    Key::View("report", p, 0),
                ),
                1 => (
                    t.span("code-view", "server", || {
                        c.code_view(id, MIN_SHARE_PERMILLE)
                    }),
                    Key::View("code-view", p, 0),
                ),
                2 => {
                    let v = rng.below(base.vars.len());
                    let var = &base.vars[v].name;
                    (
                        t.span("address-view", "server", || c.address_view(id, var)),
                        Key::View("address-view", p, v),
                    )
                }
                _ => {
                    let q = pick(&mut rng);
                    (
                        t.span("diff", "server", || c.diff(id, &load.loaded.ids[q])),
                        Key::View("diff", p, q),
                    )
                }
            };
            let us = start.elapsed().as_secs_f64() * 1e6;
            let Ok(text) = r else {
                d.failed += 1;
                continue;
            };
            d.reads.push(us);
            (text, Some(key))
        };
        if let Some(key) = key {
            d.replies.push((key, fnv(reply.as_bytes())));
        }
    }
    Ok(d)
}

pub fn measure(ctx: &Ctx, seconds: f64, tracing: bool, out: &mut Outcome) -> io::Result<Measured> {
    let mut m = Measured::default();
    let work = procs::work_dir("query")?;
    let epoch = Instant::now();
    let mut tracers: Vec<Tracer> = (0..=CLIENTS as u32)
        .map(|i| Tracer::new(tracing, epoch, i))
        .collect();

    // Set-up, three times; the last daemon serves the load.
    let mut loaded: Option<Loaded> = None;
    for i in 0..3 {
        if let Some(prev) = loaded.take() {
            prev.daemon.shutdown()?;
        }
        let t = Instant::now();
        let log = work.join(format!("daemon-{i}.log"));
        loaded = Some(tracers[CLIENTS].span("setup", "bench", || setup(ctx.seed, CORPUS, &log))?);
        m.setup_s.push(t.elapsed().as_secs_f64());
    }
    let loaded = loaded.expect("three set-ups ran");
    let mut admin = loaded.daemon.connect()?;
    let before = procs::scrape(&mut admin)?;
    drop(admin);

    let mut rng = Rng::fork(ctx.seed, 2);
    let mut rank_to_profile: Vec<usize> = (0..CORPUS).collect();
    rng.shuffle(&mut rank_to_profile);
    let zipf = Zipf::new(CORPUS, ZIPF_S);
    let shared = Shared {
        sent: AtomicU64::new(0),
        acked: AtomicU64::new(0),
        agg_epoch: AtomicU64::new(0),
        top_epoch: AtomicU64::new(0),
    };
    let start = Instant::now();
    let load = Load {
        addr: &loaded.daemon.addr,
        loaded: &loaded,
        shared: &shared,
        zipf: &zipf,
        rank_to_profile: &rank_to_profile,
        salt: corpus::salt(ctx.seed),
        stop_at: start + std::time::Duration::from_secs_f64(seconds),
    };
    let driven: Vec<io::Result<Driven>> = std::thread::scope(|s| {
        let hs: Vec<_> = tracers
            .iter_mut()
            .take(CLIENTS)
            .enumerate()
            .map(|(client, tracer)| {
                let load = &load;
                let rng = Rng::fork(ctx.seed, 200 + client as u64);
                s.spawn(move || drive(load, client, rng, tracer))
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let load_s = start.elapsed().as_secs_f64();
    let (mut reads, mut warm, mut writes, mut cold) = (vec![], vec![], vec![], vec![]);
    let mut replies = Vec::new();
    let mut done = 0;
    for d in driven {
        let d = d?;
        reads.extend(d.reads);
        warm.extend(d.warm_agg);
        writes.extend(d.writes);
        cold.extend(d.cold_pooled);
        replies.extend(d.replies);
        for w in d.wrong {
            out.check(false, || w);
        }
        done += d.done;
        m.attempted += d.done;
        m.failed += d.failed;
    }
    m.ops_per_s = (done - m.failed) as f64 / load_s;
    m.op_p50_us = median(&reads);
    m.op_tail_us = percentile(&reads, 0.90);
    m.op2_p50_us = median(&warm);
    m.op3_p50_us = median(&writes);
    m.samples = [reads.len(), warm.len(), writes.len()];
    match checks::check_repeatable(replies) {
        Ok(repeats) => out.note(
            "repeated_replies",
            repeats as f64,
            "count",
            "byte-identical repeats checked",
        ),
        Err(e) => out.check(false, || e),
    }

    let mut admin = loaded.daemon.connect()?;
    let after = procs::scrape(&mut admin)?;
    let written = shared.acked.load(Ordering::SeqCst);
    let text = admin.aggregate().map_err(io_err)?;
    let runs = CORPUS as u64 + written;
    if let Err(e) = checks::check_aggregate_runs(&text, runs, runs) {
        out.check(false, || e);
    }
    m.peak_rss_mb = procs::vm_hwm_kb(loaded.daemon.pid()).unwrap_or(0) as f64 / 1024.0;
    drop(admin);
    m.scrapes.push((before, after));
    loaded.daemon.shutdown()?;

    out.note("query_p50_us", m.op_p50_us, "us", "every read op");
    out.note("query_p90_us", m.op_tail_us, "us", "every read op");
    out.note(
        "query_p99_us",
        percentile(&reads, 0.99),
        "us",
        "every read op",
    );
    out.note(
        "warm_aggregate_p50_us",
        m.op2_p50_us,
        "us",
        "no write since the previous aggregate",
    );
    out.note(
        "write_p50_us",
        m.op3_p50_us,
        "us",
        "ingest of a new profile during the reads",
    );
    out.note(
        "cold_pooled_p50_us",
        median(&cold),
        "us",
        "first aggregate or top after a write",
    );
    out.note("query_ops_per_s", m.ops_per_s, "1/s", "read and write ops");
    out.note(
        "daemon_rss_mb",
        m.peak_rss_mb,
        "MB",
        "VmHWM at the end of the run",
    );
    out.note("writes", written as f64, "count", "ingests during the load");
    let _ = std::fs::remove_dir_all(&work);
    for t in tracers {
        m.trace.absorb(t);
    }
    Ok(m)
}
