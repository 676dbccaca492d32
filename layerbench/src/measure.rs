//! Measurement helpers: an exact nanosecond latency histogram,
//! nearest-rank percentiles, the machine fingerprint, and peak RSS.

use std::time::Duration;

/// Latencies below this many nanoseconds are counted in exact 1 ns
/// buckets; longer ones are kept verbatim. Hit-path operations take
/// about a microsecond, so the overflow list stays short.
const EXACT_NS: usize = 1 << 15;

/// A latency recorder with 1 ns resolution: a dense count array for
/// short operations plus a list of the long ones. Recording is one
/// array increment, so it can sit inside a closed loop that runs
/// millions of operations per second.
pub struct LatencyHist {
    counts: Vec<u32>,
    long: Vec<u64>,
    n: u64,
}

impl LatencyHist {
    pub fn new() -> Self {
        Self {
            counts: vec![0; EXACT_NS],
            long: Vec::new(),
            n: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, d: Duration) {
        let ns = d.as_nanos() as u64;
        match self.counts.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.long.push(ns),
        }
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.long.extend_from_slice(&other.long);
        self.n += other.n;
    }

    /// The nearest-rank `q`-quantile in nanoseconds (`0 < q ≤ 1`).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        assert!(self.n > 0, "quantile of an empty histogram");
        let rank = nearest_rank(self.n, q);
        let mut seen = 0u64;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return ns as f64;
            }
        }
        let mut long = self.long.clone();
        long.sort_unstable();
        long[(rank - seen - 1) as usize] as f64
    }
}

/// The 1-based nearest rank of quantile `q` among `n` samples.
pub fn nearest_rank(n: u64, q: f64) -> u64 {
    ((q * n as f64).ceil() as u64).clamp(1, n)
}

/// Nearest-rank quantile of a sample (sorted in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    values.sort_by(f64::total_cmp);
    values[nearest_rank(values.len() as u64, q) as usize - 1]
}

/// The median of a sample, averaging the two middle values when the
/// count is even.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Describes which order statistic a nearest-rank tail quantile really
/// is for `n` samples, e.g. `"p99 = rank 9901 of 10000"`; with fewer
/// than 100 samples the p99 rank is the maximum.
pub fn tail_note(label: &str, n: u64, q: f64) -> String {
    let rank = nearest_rank(n, q);
    let beyond = n - rank;
    format!("{label} = rank {rank} of {n} samples ({beyond} beyond it)")
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine fingerprint recorded with every result.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu),
        ("rustc", command_line(&["rustc", "--version"])),
        ("git_commit", command_line(&["git", "rev-parse", "HEAD"])),
    ]
}

/// First line of a command's standard output, or `"unknown"`. The child
/// is waited for before returning.
fn command_line(argv: &[&str]) -> String {
    std::process::Command::new(argv[0])
        .args(&argv[1..])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}
