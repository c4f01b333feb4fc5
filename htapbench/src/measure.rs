//! Measurement plumbing: latency samples, the benchmark's own spans,
//! engine counter deltas, and process and disk probes.

use anker_core::obs::{HistogramSnapshot, MetricsSnapshot};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Durations in nanoseconds, in the order they were taken, reduced to
/// nearest-rank quantiles.
#[derive(Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

/// Nearest-rank quantile of `ns` (0 when empty).
fn nearest_rank(ns: &[u64], q: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1] as f64
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos() as u64);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Nearest-rank quantile in nanoseconds (0 when empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        nearest_rank(&self.ns, q)
    }

    /// Median over `n` consecutive windows (in push order) of each
    /// window's nearest-rank `q` quantile, in microseconds. A tail that
    /// rests on one slow stretch of a shared host moves one window, not
    /// the figure.
    pub fn windowed_us(&self, q: f64, n: usize) -> f64 {
        let len = self.ns.len() / n.max(1);
        if len == 0 {
            return 0.0;
        }
        let mut per: Vec<f64> = self
            .ns
            .chunks_exact(len)
            .map(|w| nearest_rank(w, q))
            .collect();
        per.sort_by(f64::total_cmp);
        per[per.len() / 2] / 1e3
    }

    pub fn us(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e3
    }

    pub fn ms(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e6
    }

    pub fn s(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e9
    }
}

/// One completed span of the benchmark's own trace.
pub struct Span {
    name: &'static str,
    tid: u32,
    start_ns: u64,
    dur_ns: u64,
}

/// Per-thread span journal. Off in untraced runs, where `record` does
/// nothing; the traced run keeps every span in memory until the process
/// writes the chrome-trace file at exit.
pub struct SpanLog {
    on: bool,
    origin: Instant,
    tid: u32,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(on: bool, origin: Instant, tid: u32) -> SpanLog {
        SpanLog {
            on,
            origin,
            tid,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(Span {
                name,
                tid: self.tid,
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                dur_ns: end.duration_since(start).as_nanos() as u64,
            });
        }
    }

    /// Write the spans as a chrome://tracing (Perfetto) JSON file.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}{sep}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Engine metrics read before and after a phase.
pub struct Delta {
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl Delta {
    pub fn new(before: MetricsSnapshot, after: MetricsSnapshot) -> Delta {
        Delta { before, after }
    }

    pub fn counter(&self, name: &str) -> u64 {
        let a = self.after.counter(name).unwrap_or(0);
        a.saturating_sub(self.before.counter(name).unwrap_or(0))
    }

    pub fn hist(&self, name: &str) -> Option<HistogramSnapshot> {
        let mut h = self.after.histogram(name)?.clone();
        if let Some(b) = self.before.histogram(name) {
            for (x, y) in h.buckets.iter_mut().zip(&b.buckets) {
                *x = x.saturating_sub(*y);
            }
            h.sum = h.sum.saturating_sub(b.sum);
        }
        Some(h)
    }

    /// Quantile of a `*_ns` stage histogram over the phase, in
    /// microseconds (0 when the stage never ran).
    pub fn hist_us(&self, name: &str, q: f64) -> f64 {
        self.hist(name).map_or(0.0, |h| h.quantile(q) / 1e3)
    }
}

/// Resident set size of this process in MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Size of one file in bytes (0 when it cannot be read).
pub fn file_bytes(path: PathBuf) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Copy the regular files of `src` into a fresh `dst` (the engine's
/// durability directory is flat).
pub fn copy_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst)?;
    for e in std::fs::read_dir(src)? {
        let e = e?;
        if e.file_type()?.is_file() {
            std::fs::copy(e.path(), dst.join(e.file_name()))?;
        }
    }
    Ok(())
}

/// Cut the newest WAL segment of `dir` to half its length (self-test of
/// the crash-image checks).
pub fn truncate_newest_segment(dir: &Path) -> std::io::Result<()> {
    let seg = newest_file(dir, "wal-").ok_or(std::io::ErrorKind::NotFound)?;
    let f = std::fs::OpenOptions::new().write(true).open(seg)?;
    let len = f.metadata()?.len();
    f.set_len(len / 2)
}

/// The newest file in `dir` whose name starts with `prefix`.
pub fn newest_file(dir: &Path, prefix: &str) -> Option<PathBuf> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix))
        })
        .collect();
    names.sort();
    names.pop()
}

/// The source revision, when the benchmark runs inside a git checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
