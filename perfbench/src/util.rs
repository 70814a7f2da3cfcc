//! Shared pieces: seeded randomness, the payload oracle, latency
//! summaries, process probes and the result line.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// SplitMix64: small, fast and fully determined by its seed, so the
/// same `--seed` always yields the same inputs.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// One 64-bit value from several, for deriving independent streams.
pub fn mix(parts: &[u64]) -> u64 {
    let mut rng = Rng::new(0x6f64_655f_6265_6e63);
    for &p in parts {
        rng.0 ^= p;
        rng.next_u64();
    }
    rng.next_u64()
}

/// Zipf(theta) over `0..n` by inverse CDF; rank 0 is the hottest key.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(theta);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Bytes of a whole-body payload, regenerated on demand from
/// `(seed, object, revision)` so the oracle keeps no copies. The first
/// 16 bytes name the object and revision, so a reader that raced a
/// writer can still say which revision it must have seen.
pub fn payload(seed: u64, object: u64, revision: u64, len: usize) -> Vec<u8> {
    let mut body = vec![0u8; len];
    Rng::new(mix(&[seed, object, revision])).fill(&mut body[16..]);
    body[..8].copy_from_slice(&object.to_le_bytes());
    body[8..16].copy_from_slice(&revision.to_le_bytes());
    body
}

/// The `(object, revision)` a whole-body payload claims, if it is
/// exactly the payload those two name.
pub fn check_payload(seed: u64, body: &[u8], len: usize) -> Option<(u64, u64)> {
    if body.len() != len {
        return None;
    }
    let object = u64::from_le_bytes(body[..8].try_into().ok()?);
    let revision = u64::from_le_bytes(body[8..16].try_into().ok()?);
    (payload(seed, object, revision, len) == body).then_some((object, revision))
}

/// Latency samples of one operation type, in nanoseconds.
#[derive(Default, Clone)]
pub struct Samples(pub Vec<u64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos() as u64);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// The `q`-quantile in microseconds (nearest rank), or 0 with no
    /// samples.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_unstable();
        let idx = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
        v[idx] as f64 / 1e3
    }

    pub fn mean_us(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<u64>() as f64 / self.0.len() as f64 / 1e3
    }
}

/// The gated figures of timed phases, kept per window and reported as
/// the median over all windows, so that slow spells on a shared machine
/// move a run's result less than they would a pooled figure.
#[derive(Clone)]
pub struct Windowed {
    start: Instant,
    width: Duration,
    latency: Vec<Samples>,
    requests: Vec<u64>,
}

impl Default for Windowed {
    fn default() -> Windowed {
        Windowed::new(Instant::now(), Duration::ZERO, Duration::from_secs(1))
    }
}

impl Windowed {
    /// A phase of length `total` from `start`, split into windows of
    /// about `width`.
    pub fn new(start: Instant, total: Duration, width: Duration) -> Windowed {
        let count = match total.as_nanos() / width.as_nanos() {
            0 if !total.is_zero() => 1,
            n => n as usize,
        };
        Windowed {
            start,
            width: total.checked_div(count as u32).unwrap_or(width),
            latency: vec![Samples::default(); count],
            requests: vec![0; count],
        }
    }

    /// Record one client call that just completed, carrying `requests`
    /// requests. Calls completing after the last window are dropped.
    pub fn push(&mut self, d: Duration, requests: u64) {
        let idx = (self.start.elapsed().as_nanos() / self.width.as_nanos()) as usize;
        if idx < self.latency.len() {
            self.latency[idx].push(d);
            self.requests[idx] += requests;
        }
    }

    /// Add another phase's windows after this one's.
    pub fn append(&mut self, other: Windowed) {
        self.latency.extend(other.latency);
        self.requests.extend(other.requests);
        self.width = other.width;
    }

    /// Add another client's calls in the same phase.
    pub fn merge(&mut self, other: &Windowed) {
        for (a, b) in self.latency.iter_mut().zip(&other.latency) {
            a.extend(b);
        }
        for (a, b) in self.requests.iter_mut().zip(&other.requests) {
            *a += b;
        }
    }

    /// Median over windows of each window's `q`-quantile, in µs.
    pub fn quantile_us(&self, q: f64) -> f64 {
        median(self.latency.iter().map(|s| s.quantile_us(q)).collect())
    }

    /// Median over windows of requests completed per second.
    pub fn rate(&self) -> f64 {
        let secs = self.width.as_secs_f64();
        median(self.requests.iter().map(|&n| n as f64 / secs).collect())
    }
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// When a timed phase's clients stop: at the deadline, or as soon as
/// one of them finds a wrong body.
pub struct Until<'a> {
    pub deadline: Instant,
    pub abort: &'a AtomicBool,
}

impl Until<'_> {
    pub fn done(&self) -> bool {
        Instant::now() >= self.deadline || self.abort.load(Ordering::Relaxed)
    }

    pub fn abort(&self) {
        self.abort.store(true, Ordering::Relaxed);
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn rss_hwm_mb() -> f64 {
    proc_status_field("VmHWM:") / 1024.0
}

/// Threads in this process right now.
pub fn process_threads() -> f64 {
    proc_status_field("Threads:")
}

fn proc_status_field(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Database file plus its WAL, in bytes.
pub fn store_bytes(db: &Path) -> u64 {
    let wal = PathBuf::from(format!("{}.wal", db.display()));
    [db.to_path_buf(), wal]
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum()
}

/// A directory for one run's database files, inside the checkout and
/// removed again when dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(workload: &str) -> WorkDir {
        let dir = PathBuf::from(".bench_data").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the benchmark data directory");
        WorkDir(dir)
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Time `f`, returning its value and how long it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Named metric values with units, printed as a table and as the
/// result line.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.0)
    }

    pub fn print_table(&self, title: &str) {
        println!("{title}");
        for (name, (value, unit)) in &self.0 {
            println!("  {name:<44} {value:>16.4} {unit}");
        }
    }

    /// Only the named metrics, in the result line's format; each must
    /// have been measured and be a finite number.
    pub fn json(&self, names: &[&str]) -> Result<String, String> {
        let mut items = Vec::with_capacity(names.len());
        for name in names {
            match self.0.get(*name) {
                Some((value, unit)) if value.is_finite() => items.push(format!(
                    "{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}"
                )),
                Some((value, _)) => return Err(format!("metric {name} is {value}")),
                None => return Err(format!("metric {name} was not measured")),
            }
        }
        Ok(format!("{{{}}}", items.join(", ")))
    }
}

/// Operation counts of a run: what the result line reports.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}
