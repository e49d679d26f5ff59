//! The release binaries under test, the daemon process, and what can be
//! read about them from outside: peak memory and the metrics scrape.

use numa_server::Client;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Cargo's target directory, as the build used it.
pub fn target_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
}

/// Path of a release binary of the `numa-tools` package.
pub fn bin(name: &str) -> io::Result<PathBuf> {
    let path = target_dir().join("release").join(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "{} is missing: build with `cargo build --release -p numa-tools`",
                path.display()
            ),
        ))
    }
}

/// A fresh, empty scratch directory under the target directory.
pub fn work_dir(name: &str) -> io::Result<PathBuf> {
    let dir = target_dir()
        .join("perfbench-work")
        .join(format!("{name}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Run a command to completion, returning its stdout; a non-zero exit is
/// an error carrying the command's stderr.
pub fn run(cmd: &mut Command) -> io::Result<Vec<u8>> {
    let out = cmd.stdin(Stdio::null()).output()?;
    if !out.status.success() {
        return Err(io::Error::other(format!(
            "{cmd:?} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )));
    }
    Ok(out.stdout)
}

/// Largest peak resident set, in KiB, of any child process this process
/// has waited for (`getrusage(RUSAGE_CHILDREN)`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn children_max_rss_kb() -> Option<u64> {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    // `struct rusage` on 64-bit Linux: two timevals, then 14 longs of
    // which `ru_maxrss` is the first.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of this target, and getrusage writes nothing else.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    (rc == 0).then_some(usage.maxrss.max(0) as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn children_max_rss_kb() -> Option<u64> {
    None
}

/// Peak resident set (`VmHWM`) of a live process, in KiB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// A running `hpcd-sim`. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    /// Kept open: the daemon must never see a closed stdout.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Spawn `hpcd-sim` on an ephemeral loopback port with `args`, its
    /// stderr going to `log`, and wait for the bound address.
    pub fn spawn(args: &[String], log: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(bin("hpcd-sim")?)
            .arg("--listen")
            .arg("127.0.0.1:0")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(std::fs::File::create(log)?)
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let status = child.wait()?;
                return Err(io::Error::other(format!(
                    "hpcd-sim exited with {status} before listening; see {}",
                    log.display()
                )));
            }
            if let Some(a) = line.trim().strip_prefix("hpcd-sim: listening on ") {
                break a.to_string();
            }
        };
        Ok(Daemon {
            child,
            _stdout: stdout,
            addr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> io::Result<Client> {
        Client::connect_retry(&self.addr, Duration::from_secs(10))
            .map_err(|e| io::Error::other(format!("connect {}: {e}", self.addr)))
    }

    /// Graceful stop: the shutdown op, then wait for the process (which
    /// flushes a durable store before it exits).
    pub fn shutdown(mut self) -> io::Result<ExitStatus> {
        let mut c = self.connect()?;
        c.shutdown()
            .map_err(|e| io::Error::other(format!("shutdown: {e}")))?;
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return Ok(status);
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("hpcd-sim did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One metrics scrape, keyed by `name{labels}`.
pub type Scrape = BTreeMap<String, f64>;

/// Parse Prometheus text exposition; comment lines are skipped.
pub fn parse_scrape(text: &str) -> Scrape {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            Some((key.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// `after - before` for one series (0 when absent).
pub fn delta(before: &Scrape, after: &Scrape, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

/// Fetch and parse the daemon's metrics.
pub fn scrape(client: &mut Client) -> io::Result<Scrape> {
    client
        .metrics()
        .map(|t| parse_scrape(&t))
        .map_err(|e| io::Error::other(format!("metrics: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_parses_labelled_series() {
        let s = parse_scrape(
            "# HELP x y\nnuma_server_requests_total{op=\"ping\"} 3\nnuma_store_dedup_hits_total 2\n",
        );
        assert_eq!(s["numa_server_requests_total{op=\"ping\"}"], 3.0);
        let after = parse_scrape("numa_store_dedup_hits_total 7\n");
        assert_eq!(delta(&s, &after, "numa_store_dedup_hits_total"), 5.0);
    }

    #[test]
    fn own_peak_memory_is_readable() {
        assert!(vm_hwm_kb(std::process::id()).unwrap_or(1) > 0);
    }
}
