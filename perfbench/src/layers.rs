//! The traced run's in-process layer suite: timed calls into each
//! layer's public functions, from this benchmark's own code.
//!
//! * profiler side — `sim` (unmonitored runs and cache-resident vs.
//!   DRAM-bound sweeps), `core` (profiled runs, serialization), `engine`
//!   and `analysis` on the four case studies at `--size medium`;
//! * write side — `codec`, identity hash, in-memory vs. durable
//!   `ProfileStore::ingest_binary`, flush, reopen and `live` sessions on
//!   the `ingest` workload's 48-thread `--size small` profiles;
//! * read side — warm and cold aggregates, artifact rendering, and the
//!   wire cost of each query op (client RPC to a spawned `hpcd-sim`
//!   minus the same call on an in-process store holding the same 512
//!   profiles).

use crate::corpus::{self, STUDIES};
use crate::procs;
use crate::report::{Outcome, WIRE_OPS};
use crate::stats::median;
use crate::trace::Tracer;
use numa_analysis::{full_text_report, Analyzer};
use numa_engine::Engine;
use numa_live::{LiveConfig, SessionManager};
use numa_machine::{Machine, MachinePreset, PlacementPolicy};
use numa_profiler::ProfilerConfig;
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_server::{Client, ReportFormat};
use numa_sim::{ExecMode, Program};
use numa_store::stream::split_profile;
use numa_store::{PersistOptions, ProfileId, ProfileStore, Query, StoreConfig};
use numa_workloads::{run_profiled, run_unmonitored};
use std::hint::black_box;
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Profiles in the write-side stores.
const WRITE_PROFILES: usize = 64;
/// Profiles in the read-side store and daemon.
const READ_PROFILES: usize = 512;
/// Repetitions of each warm read.
const READ_REPS: usize = 200;

/// Median wall time of `reps` calls, in µs.
fn time_us<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let xs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&xs)
}

fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

pub fn run(out: &mut Outcome, t: &mut Tracer, seed: u64) -> io::Result<()> {
    profiler_side(out, t);
    write_side(out, t, seed)?;
    read_side(out, t, seed)?;
    let h = numa_obs::Histogram::new();
    let n = 1_000_000u64;
    let (_, s) = t.span("histogram-record", "obs", || {
        secs(|| (0..n).for_each(|i| h.record(black_box(i))))
    });
    out.set("obs.record_ns", s * 1e9 / n as f64, "ns");
    Ok(())
}

fn profiler_side(out: &mut Outcome, t: &mut Tracer) {
    // A Machine hosts one Program, so every run gets a fresh one.
    let machine = |t: &mut Tracer| {
        t.span("from-preset", "machine", || {
            Machine::from_preset(MachinePreset::AmdMagnyCours)
        })
    };
    let threads = machine(t).topology().total_cpus();
    let (mut acc, mut wall) = ([0u64; 2], [0.0f64; 2]);
    let (mut wall_profiled, mut elapsed, mut baseline, mut samples) = (0.0, 0u64, 0u64, 0u64);
    let (mut to_json_ms, mut build_ms, mut report_ms) = (0.0, 0.0, 0.0);
    for study in STUDIES {
        let w = t.span("parse-workload", "cli", || {
            numa_tools::parse_workload(study, "baseline", "medium").expect("valid study")
        });
        let mut per_mode = Vec::new();
        for (i, mode) in [ExecMode::Sequential, ExecMode::Parallel]
            .into_iter()
            .enumerate()
        {
            let m = machine(t);
            let ((stats, _), s) = t.span("run-unmonitored", "sim", || {
                secs(|| run_unmonitored(w.as_ref(), m, threads, mode))
            });
            acc[i] += stats.mem_accesses;
            wall[i] += s;
            per_mode.push((stats.instructions, stats.mem_accesses));
        }
        out.check(per_mode[0] == per_mode[1], || {
            format!(
                "{study}: seq/par (instructions, mem_accesses) {:?} != {:?}",
                per_mode[0], per_mode[1]
            )
        });
        let config = t.span("mechanism-config", "sampling", || {
            ProfilerConfig::new(MechanismConfig::scaled(MechanismKind::Ibs, 64)).with_bins(5)
        });
        let m = machine(t);
        let ((stats, _, profile), s) = t.span("run-profiled", "core", || {
            secs(|| run_profiled(w.as_ref(), m, threads, ExecMode::Sequential, config))
        });
        wall_profiled += s;
        elapsed += stats.elapsed_cycles;
        baseline += stats.baseline_cycles;
        samples += profile
            .threads
            .iter()
            .map(|th| th.totals.samples_mem)
            .sum::<u64>();
        to_json_ms += t.span("to-json", "core", || time_us(3, || profile.to_json())) / 1e3;
        let profile = Arc::new(profile);
        build_ms += t.span("engine-new", "engine", || {
            time_us(3, || Engine::new(Arc::clone(&profile)))
        }) / 1e3;
        let analyzer = Analyzer::from_engine(Arc::new(Engine::new(profile)));
        report_ms += t.span("full-text-report", "analysis", || {
            time_us(3, || full_text_report(&analyzer))
        }) / 1e3;
    }
    out.set("sim.accesses_per_s_seq", acc[0] as f64 / wall[0], "1/s");
    out.set("sim.accesses_per_s_par", acc[1] as f64 / wall[1], "1/s");
    out.set(
        "core.monitor_wall_frac",
        wall_profiled / wall[0] - 1.0,
        "ratio",
    );
    out.set("core.samples", samples as f64, "count");
    out.set(
        "core.sim_overhead_frac",
        (elapsed as f64 - baseline as f64) / baseline as f64,
        "ratio",
    );
    out.set("core.to_json_ms", to_json_ms, "ms");
    out.set("engine.build_ms", build_ms, "ms");
    out.set("analysis.report_ms", report_ms, "ms");

    // One thread sweeping a buffer that fits L1 (16 KiB, 8-byte loads)
    // and one that overflows L3 (64 MiB, one load per 64-byte line).
    for (name, bytes, stride, passes) in [
        ("sim.ns_per_access_l1", 16u64 << 10, 8u64, 400),
        ("sim.ns_per_access_dram", 64 << 20, 64, 2),
    ] {
        let mut p = Program::unmonitored(machine(t), 1, ExecMode::Sequential);
        let mut base = 0;
        let count = bytes / stride;
        p.serial("warm", |ctx| {
            base = ctx.alloc("buffer", bytes, PlacementPolicy::FirstTouch);
            ctx.load_range(base, count, stride as u32);
        });
        let before = p.stats().mem_accesses;
        let (_, s) = t.span("sweep", "sim", || {
            secs(|| {
                p.serial("sweep", |ctx| {
                    for _ in 0..passes {
                        ctx.load_range(base, count, stride as u32);
                    }
                })
            })
        });
        let accesses = p.stats().mem_accesses - before;
        out.set(name, s * 1e9 / accesses as f64, "ns");
    }
}

/// Ingest every profile from two threads, like the daemon's clients; all
/// are new, so each must be added. Returns the median latency in µs.
fn ingest_all(
    store: &ProfileStore,
    encoded: &[Vec<u8>],
    out: &mut Outcome,
    t: &mut Tracer,
    name: &'static str,
) -> f64 {
    let lat: Vec<(f64, bool)> = t.span(name, "store", || {
        std::thread::scope(|s| {
            let hs: Vec<_> = (0..2)
                .map(|k| {
                    s.spawn(move || {
                        (k..encoded.len())
                            .step_by(2)
                            .map(|i| {
                                let t = Instant::now();
                                let r = store.ingest_binary(&format!("p{i}"), &encoded[i]);
                                (t.elapsed().as_secs_f64() * 1e6, matches!(r, Ok((_, true))))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            hs.into_iter()
                .flat_map(|h| h.join().expect("ingest thread panicked"))
                .collect()
        })
    });
    let added = lat.iter().filter(|(_, ok)| *ok).count();
    out.check(added == lat.len(), || {
        format!("{name}: {added} of {} new profiles added", lat.len())
    });
    median(&lat.iter().map(|(us, _)| *us).collect::<Vec<_>>())
}

fn write_side(out: &mut Outcome, t: &mut Tracer, seed: u64) -> io::Result<()> {
    let salt = corpus::salt(seed);
    let bases = t.span("bases", "workloads", || {
        corpus::bases("small", crate::workload_ingest::PROFILE_THREADS)
    });
    let (mut enc, mut dec, mut hash, mut bytes) = (0.0, 0.0, 0.0, 0usize);
    for b in &bases {
        let encoded = numa_codec::encode_profile(b);
        bytes += encoded.len();
        enc += t.span("encode", "codec", || {
            time_us(5, || numa_codec::encode_profile(b))
        });
        dec += t.span("decode", "codec", || {
            time_us(5, || numa_codec::decode_profile(&encoded))
        });
        hash += t.span("id-hash", "store", || time_us(5, || ProfileId::of(b)));
    }
    let n = bases.len() as f64;
    out.set("codec.encode_us", enc / n, "us");
    out.set("codec.decode_us", dec / n, "us");
    out.set("codec.bytes_per_profile", bytes as f64 / n, "bytes");
    out.set("store.id_hash_us", hash / n, "us");

    let profiles: Vec<_> = (0..WRITE_PROFILES)
        .map(|i| corpus::perturb(&bases[i % bases.len()], i as u64, salt))
        .collect();
    let encoded: Vec<Vec<u8>> = profiles.iter().map(numa_codec::encode_profile).collect();

    let mem = ProfileStore::new();
    let us = ingest_all(&mem, &encoded, out, t, "ingest-mem");
    out.set("store.ingest_mem_us", us, "us");
    let mem_hash = mem.set_hash();
    drop(mem);

    let dir = procs::work_dir("layers-durable")?;
    let open = || {
        ProfileStore::open_durable_config(&dir, StoreConfig::default(), PersistOptions::default())
    };
    let durable = open()?;
    let us = ingest_all(&durable, &encoded, out, t, "ingest-durable");
    out.set("store.ingest_durable_us", us, "us");
    let flush: Vec<f64> = (0..3)
        .map(|_| t.span("flush", "store", || secs(|| durable.flush())))
        .map(|(r, s)| r.map(|_| s * 1e3))
        .collect::<io::Result<_>>()?;
    out.set("store.flush_ms", median(&flush), "ms");
    drop(durable);
    let mut reopen = Vec::new();
    for _ in 0..3 {
        let (store, s) = t.span("open-durable", "store", || secs(open));
        let store = store?;
        out.check(
            store.len() == WRITE_PROFILES && store.set_hash() == mem_hash,
            || {
                format!(
                    "reopened store holds {} profiles, set hash differs: {}",
                    store.len(),
                    store.set_hash() != mem_hash
                )
            },
        );
        reopen.push(s * 1e3);
    }
    out.set("store.reopen_ms", median(&reopen), "ms");
    let _ = std::fs::remove_dir_all(&dir);

    // Streaming sessions on an in-memory store.
    let mgr = SessionManager::new(Arc::new(ProfileStore::new()), LiveConfig::default());
    let mut stream = Vec::new();
    for (i, p) in profiles.iter().enumerate().take(16) {
        let chunks: Vec<Vec<u8>> = split_profile(p, 8).iter().map(|c| c.to_binary()).collect();
        let start = Instant::now();
        let sealed = t.span(
            "session",
            "live",
            || -> Result<_, numa_live::SessionError> {
                let ticket = mgr.open(&format!("s{i}"))?;
                for (seq, c) in chunks.iter().enumerate() {
                    mgr.append_binary(ticket.session, seq as u64, c)?;
                }
                mgr.seal(ticket.session)
            },
        );
        stream.push(start.elapsed().as_secs_f64() * 1e6);
        let want = ProfileId::of(p).0;
        out.check(matches!(&sealed, Ok(s) if s.added && s.id == want), || {
            format!("session {i} sealed as {sealed:?}, expected a new {want}")
        });
    }
    mgr.stop();
    out.set("live.stream_us", median(&stream), "us");
    Ok(())
}

fn read_side(out: &mut Outcome, t: &mut Tracer, seed: u64) -> io::Result<()> {
    let work = procs::work_dir("layers-read")?;
    let loaded = t.span("setup", "bench", || {
        crate::workload_query::setup(seed, READ_PROFILES, &work.join("daemon.log"))
    })?;
    let store = ProfileStore::new();
    let salt = corpus::salt(seed);
    for i in 0..READ_PROFILES {
        let base = i % loaded.bases.len();
        let bytes =
            numa_codec::encode_profile(&corpus::perturb(&loaded.bases[base], i as u64, salt));
        store
            .ingest_binary(&format!("{}-{i}", STUDIES[base]), &bytes)
            .map_err(other)?;
    }
    store.aggregate().map_err(other)?;

    let cold: Vec<f64> = (0..5)
        .map(|_| {
            store.clear_cache();
            t.span("cold-aggregate", "store", || {
                time_us(1, || store.aggregate())
            })
        })
        .collect();
    out.set("store.cold_aggregate_ms", median(&cold) / 1e3, "ms");
    out.set(
        "store.warm_aggregate_us",
        t.span("warm-aggregate", "store", || {
            time_us(READ_REPS, || store.aggregate())
        }),
        "us",
    );
    let artifact = store.aggregate().map_err(other)?;
    out.set(
        "store.artifact_text_us",
        t.span("artifact-text", "store", || {
            time_us(READ_REPS, || artifact.text())
        }),
        "us",
    );

    let id: ProfileId = loaded.ids[0].parse().map_err(other)?;
    let after: ProfileId = loaded.ids[1].parse().map_err(other)?;
    let var = loaded.bases[0].vars[0].name.clone();
    let mut c: Client = loaded.daemon.connect()?;
    for op in WIRE_OPS {
        if op == "ingest-binary" {
            continue;
        }
        let q = match op {
            "aggregate" => Query::Aggregate,
            "top" => Query::TopVariables(10),
            "report" => Query::TextReport(id),
            "code-view" => Query::CodeView {
                profile: id,
                min_share_permille: crate::workload_query::MIN_SHARE_PERMILLE,
            },
            "address-view" => Query::AddressView {
                profile: id,
                var: var.clone(),
            },
            _ => Query::Diff { before: id, after },
        };
        let local = store.query(q.clone()).map_err(other)?.text();
        let rpc = |c: &mut Client| match op {
            "aggregate" => c.aggregate(),
            "top" => c.top(10),
            "report" => c.report(&loaded.ids[0], ReportFormat::Text),
            "code-view" => c.code_view(&loaded.ids[0], crate::workload_query::MIN_SHARE_PERMILLE),
            "address-view" => c.address_view(&loaded.ids[0], &var),
            _ => c.diff(&loaded.ids[0], &loaded.ids[1]),
        };
        let remote = rpc(&mut c).map_err(other)?;
        out.check(remote == local, || {
            format!("{op}: daemon reply differs from the in-process answer")
        });
        let inproc = t.span("query", "store", || {
            time_us(READ_REPS, || store.query(q.clone()).map(|a| a.text()))
        });
        let wire = t.span("rpc", "server", || time_us(READ_REPS, || rpc(&mut c)));
        out.set(format!("server.wire_us.{op}"), wire - inproc, "us");
    }

    // Ingest of new profiles: the same bytes into both stores.
    let fresh: Vec<Vec<u8>> = (0..50)
        .map(|k| {
            let i = READ_PROFILES + k;
            numa_codec::encode_profile(&corpus::perturb(&loaded.bases[i % 4], i as u64, salt))
        })
        .collect();
    let mut k = 0;
    let inproc = t.span("ingest-binary", "store", || {
        time_us(fresh.len(), || {
            k += 1;
            store.ingest_binary("fresh", &fresh[k - 1])
        })
    });
    let mut owned = fresh.clone().into_iter();
    let wire = t.span("rpc", "server", || {
        time_us(fresh.len(), || {
            c.ingest_binary("fresh", owned.next().expect("one payload per call"))
        })
    });
    out.set("server.wire_us.ingest-binary", wire - inproc, "us");
    drop(c);
    loaded.daemon.shutdown()?;
    let _ = std::fs::remove_dir_all(&work);
    Ok(())
}
