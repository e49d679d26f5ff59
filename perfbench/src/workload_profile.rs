//! `profile`: the paper's own user path. Each round profiles the four
//! case studies at `--size medium` on the `amd` preset with IBS, once in
//! `--mode seq` and once in `--mode par`, in a seeded order: `hpcrun-sim`
//! writes the profile, then `hpcprof-sim` renders the text report.
//! No daemon, store, session or wire code runs here.

use crate::checks::{self, MEDIUM};
use crate::corpus::{Rng, STUDIES};
use crate::report::Outcome;
use crate::stats::{fnv, median, percentile};
use crate::trace::Tracer;
use crate::{procs, Ctx, Measured};
use numa_profiler::NumaProfile;
use std::io;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

fn hpcrun(workload: &str, size: &str, mode: &str, out: &Path) -> io::Result<Command> {
    let mut cmd = Command::new(procs::bin("hpcrun-sim")?);
    cmd.args(["--workload", workload, "--size", size, "--machine", "amd"])
        .args(["--mechanism", "ibs", "--mode", mode, "--out"])
        .arg(out);
    Ok(cmd)
}

fn hpcprof(profile: &Path) -> io::Result<Command> {
    let mut cmd = Command::new(procs::bin("hpcprof-sim")?);
    cmd.arg("--in").arg(profile);
    Ok(cmd)
}

/// Profile and report one study; returns the report text.
fn profile_and_report(study: &str, size: &str, mode: &str, dir: &Path) -> io::Result<String> {
    let file = dir.join(format!("{study}-{size}-{mode}.json"));
    procs::run(&mut hpcrun(study, size, mode, &file)?)?;
    let text = procs::run(&mut hpcprof(&file)?)?;
    Ok(String::from_utf8_lossy(&text).into_owned())
}

pub fn measure(ctx: &Ctx, seconds: f64, tracing: bool, out: &mut Outcome) -> io::Result<Measured> {
    let mut m = Measured::default();
    let mut tracer = Tracer::new(tracing, Instant::now(), 0);

    // Set-up, three times: a fresh directory and a small run of each
    // study, which also pages the binaries in.
    let mut dir = std::path::PathBuf::new();
    for _ in 0..3 {
        let t = Instant::now();
        dir = procs::work_dir("profile")?;
        for study in STUDIES {
            profile_and_report(study, "small", "seq", &dir)?;
        }
        m.setup_s.push(t.elapsed().as_secs_f64());
    }

    let mut rng = Rng::fork(ctx.seed, 1);
    let mut jobs: Vec<(usize, &str)> = (0..STUDIES.len())
        .flat_map(|s| [(s, "seq"), (s, "par")])
        .collect();
    let mut seq_hash: [Option<u64>; 4] = [None; 4];
    // (study, µs) of seq jobs, par jobs and hpcprof-sim alone.
    let mut timed: [Vec<(usize, f64)>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let (mut jobs_done, mut busy_s, mut rounds) = (0u64, 0.0, 0);
    let start = Instant::now();
    while jobs_done == 0 || start.elapsed().as_secs_f64() < seconds {
        rng.shuffle(&mut jobs);
        let round = tracer.begin("round", "bench");
        let mut instructions = [[0u64; 2]; 4];
        for &(s, mode) in &jobs {
            if rounds > 0 && start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            let study = STUDIES[s];
            let par = usize::from(mode == "par");
            let file = dir.join(format!("{study}-{mode}.json"));
            m.attempted += 1;
            let t0 = Instant::now();
            let span = tracer.begin("hpcrun-sim", "cli");
            let ran = hpcrun(study, "medium", mode, &file).and_then(|mut c| procs::run(&mut c));
            tracer.end(span);
            let t1 = Instant::now();
            let span = tracer.begin("hpcprof-sim", "cli");
            let report = ran.and_then(|_| hpcprof(&file).and_then(|mut c| procs::run(&mut c)));
            tracer.end(span);
            let t2 = Instant::now();
            let report = match report {
                Ok(r) => String::from_utf8_lossy(&r).into_owned(),
                Err(e) => {
                    m.failed += 1;
                    eprintln!("perfbench: {study} {mode} failed: {e}");
                    continue;
                }
            };
            timed[par].push((s, (t2 - t0).as_secs_f64() * 1e6));
            timed[2].push((s, (t2 - t1).as_secs_f64() * 1e6));
            busy_s += (t2 - t0).as_secs_f64();
            jobs_done += 1;

            // Checks, outside the timed span.
            let json = std::fs::read(&file)?;
            if par == 0 {
                let h = fnv(&json);
                let first = *seq_hash[s].get_or_insert(h);
                out.check(first == h, || {
                    format!("{study}: seq profile bytes differ between repeats")
                });
            }
            match NumaProfile::from_json(&String::from_utf8_lossy(&json)) {
                Ok(p) => instructions[s][par] = p.total_instructions(),
                Err(e) => out.check(false, || {
                    format!("{study} {mode}: profile does not parse: {e}")
                }),
            }
            if let Err(e) = checks::check_verdict(&report, &MEDIUM[s]) {
                out.check(false, || format!("{mode}: {e}"));
            }
        }
        tracer.end(round);
        rounds += 1;
        for (s, [seq, par]) in instructions.iter().enumerate() {
            out.check(seq == par || *seq == 0 || *par == 0, || {
                format!("{}: instructions seq {seq} != par {par}", STUDIES[s])
            });
        }
    }
    m.ops_per_s = jobs_done as f64 / busy_s.max(1e-9);

    m.peak_rss_mb = procs::children_max_rss_kb().unwrap_or(0) as f64 / 1024.0;

    // EXPERIMENTS.md's figure-scale LULESH verdict, once per run.
    let large = profile_and_report("lulesh", "large", "seq", &dir)?;
    if let Err(e) = checks::check_figure_scale(&large) {
        out.check(false, || e);
    }

    // The studies differ in cost, so each class reads as the mean of the
    // four per-study medians; the seq tail is over all seq runs.
    let [seq, par, report] = timed.each_ref().map(|t| mean_of_study_medians(t));
    let seq_all: Vec<f64> = timed[0].iter().map(|(_, us)| *us).collect();
    m.op_p50_us = seq;
    m.op_tail_us = percentile(&seq_all, 0.90);
    m.op2_p50_us = par;
    m.op3_p50_us = report;
    m.samples = [timed[0].len(), timed[1].len(), timed[2].len()];
    let four = STUDIES.len() as f64 / 1e6;
    out.note(
        "profile_seq_s",
        seq * four,
        "s",
        "four studies, --mode seq, median per study",
    );
    out.note(
        "profile_par_s",
        par * four,
        "s",
        "four studies, --mode par, median per study",
    );
    let _ = std::fs::remove_dir_all(&dir);
    m.trace.absorb(tracer);
    Ok(m)
}

/// Mean over the studies of each study's median time.
fn mean_of_study_medians(timed: &[(usize, f64)]) -> f64 {
    let medians: Vec<f64> = (0..STUDIES.len())
        .map(|s| {
            let xs: Vec<f64> = timed
                .iter()
                .filter(|(i, _)| *i == s)
                .map(|(_, us)| *us)
                .collect();
            median(&xs)
        })
        .collect();
    medians.iter().sum::<f64>() / medians.len() as f64
}
