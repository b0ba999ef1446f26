//! Timing summaries, output digests, process resource usage, the in-memory
//! span recorder, and the report the binary prints.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Nearest-rank quantile of an ascending slice (0 for an empty one).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A sample summarised as its median and p90, with the sample count.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub median: f64,
    pub p90: f64,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Summary {
        median: quantile(&v, 0.5),
        p90: quantile(&v, 0.9),
        n: v.len(),
    }
}

/// One part of a timed phase: work done, wall seconds, latency samples.
pub struct Part<'a> {
    pub work: u64,
    pub secs: f64,
    pub latencies: &'a [f64],
}

/// Throughput and pooled latency over the least-disturbed half of the
/// parts, ranked by throughput, with the indices of the parts used. Host
/// CPU steal comes in bursts of seconds; parts it hits fall out of the
/// figure as long as it spares half of them, while a slowdown of the code
/// itself slows every part and shows in full.
pub fn best_half(parts: &[Part]) -> (f64, Summary, Vec<usize>) {
    let mut order: Vec<usize> = (0..parts.len()).collect();
    let rate = |i: usize| parts[i].work as f64 / parts[i].secs;
    order.sort_by(|&a, &b| rate(b).total_cmp(&rate(a)));
    order.truncate(parts.len().div_ceil(2));
    order.sort_unstable();
    let work: u64 = order.iter().map(|&i| parts[i].work).sum();
    let secs: f64 = order.iter().map(|&i| parts[i].secs).sum();
    let pooled: Vec<f64> = order
        .iter()
        .flat_map(|&i| parts[i].latencies.iter().copied())
        .collect();
    (work as f64 / secs, summarize(&pooled), order)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// FNV-1a over 64-bit words: a cheap, order-sensitive output fingerprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// CPU time and peak resident set of this process so far.
pub struct Usage {
    pub cpu_s: f64,
    pub max_rss_mb: f64,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads `struct rusage` with the 64-bit Linux layout");

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s
/// of which the first is the peak resident set in KiB.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

pub fn usage() -> Usage {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kib: 0,
        _rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable value with the layout of Linux's
    // `struct rusage` on 64-bit targets (checked by the cfg above), and
    // getrusage(2) writes only within that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) fails only on a bad pointer");
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    Usage {
        cpu_s: secs(ru.utime) + secs(ru.stime),
        max_rss_mb: ru.maxrss_kib as f64 / 1024.0,
    }
}

/// One recorded span: a named call into a layer, made by the benchmark.
pub struct Span {
    pub name: &'static str,
    /// The session or chunk the span belongs to.
    pub id: u64,
    /// Index of the parent span, when the span has one.
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

/// Spans kept in memory and written out once the run ends.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            id,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| us(s.end - s.start))
            .collect()
    }

    /// Writes one tab-separated line per span: index, name, id, parent,
    /// start and end in ns since the trace began.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tid\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name,
                s.id,
                (s.start - self.epoch).as_nanos(),
                (s.end - self.epoch).as_nanos()
            )?;
        }
        out.flush()
    }
}

/// What one run measured and checked, printed as the last stdout line.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str, usize)>,
    counts: Vec<(String, u64)>,
}

impl Report {
    /// A measured value, its unit and the number of samples behind it.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        if !value.is_finite() {
            self.problems
                .push(format!("{name} is not finite ({value})"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit, n));
    }

    /// A timing summary as two metrics: `name` (median) and `name.p90`.
    pub fn timing(&mut self, name: &str, s: Summary, unit: &'static str) {
        self.metric(name, s.median, unit, s.n);
        self.metric(&format!("{name}.p90"), s.p90, unit, s.n);
    }

    /// An exact count or digest: it must repeat on every run of one seed.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_string(), value));
    }

    pub fn fail(&mut self, problem: String) {
        self.problems.push(problem);
    }

    pub fn print(&self) {
        for (name, value, unit, n) in &self.metrics {
            println!("  {name:<40} {value:>16.6} {unit:<6} (n={n})");
        }
        for (name, value) in &self.counts {
            println!("  {name:<40} {value:>16} exact");
        }
        for p in &self.problems {
            println!("  PROBLEM: {p}");
        }
    }

    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty() && self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit, n)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\", \"n\": {n}}}"
            );
        }
        s.push_str("}, \"counts\": {");
        for (i, (name, value)) in self.counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {value}");
        }
        s.push_str("}, \"problems\": [");
        for (i, p) in self.problems.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{}\"", p.replace('\\', "\\\\").replace('"', "'"));
        }
        s.push_str("]}");
        s
    }
}
