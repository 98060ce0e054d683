//! Shared measurement plumbing: order statistics, the seeded generator,
//! peak-RSS probes, the span tracer behind `--trace 1`, and the report
//! printed as the run's last line.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Median of a sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty sample");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Milliseconds in a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// SplitMix64: the whole benchmark's input generator. One seed gives
/// one input set, on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005e_ed0f_be4c_4d4a)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// Draw an index from cumulative weights.
    pub fn weighted(&mut self, cumulative: &[f64]) -> usize {
        let total = *cumulative.last().expect("non-empty weights");
        let x = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        cumulative
            .partition_point(|&c| c <= x)
            .min(cumulative.len() - 1)
    }
}

/// Peak resident set (`VmHWM`) of a process in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One recorded span: a public call, timed from outside.
#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

struct TraceBuf {
    origin: Instant,
    spans: Vec<SpanRec>,
}

static TRACE: Mutex<Option<TraceBuf>> = Mutex::new(None);

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Start keeping spans (the `--trace 1` mode). Spans stay in memory
/// until [`trace_summary`] reads them at the end of the run.
pub fn trace_enable() {
    *TRACE.lock().unwrap() = Some(TraceBuf {
        origin: Instant::now(),
        spans: Vec::new(),
    });
}

/// Run `f` inside a span named `name`. Untraced runs call `f` directly
/// and read no clock. A span opened on one thread nests under the span
/// open on that thread, so per-connection client threads keep their own
/// trees.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let index = {
        let mut guard = TRACE.lock().unwrap();
        let Some(buf) = guard.as_mut() else {
            drop(guard);
            return f();
        };
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let start = buf.origin.elapsed();
        buf.spans.push(SpanRec {
            name,
            start,
            end: start,
            parent,
        });
        buf.spans.len() - 1
    };
    OPEN.with(|o| o.borrow_mut().push(index));
    let out = f();
    OPEN.with(|o| o.borrow_mut().pop());
    let mut guard = TRACE.lock().unwrap();
    let buf = guard.as_mut().expect("tracing stays on once enabled");
    buf.spans[index].end = buf.origin.elapsed();
    out
}

/// Per-name totals derived from the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    /// Wall time inside spans of this name.
    pub total_ms: f64,
    /// Wall time inside spans of this name minus their child spans.
    pub self_ms: f64,
}

/// Fold the recorded spans into per-name totals and self times.
pub fn trace_summary() -> BTreeMap<&'static str, SpanTotals> {
    let guard = TRACE.lock().unwrap();
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    let Some(buf) = guard.as_ref() else {
        return out;
    };
    let mut child_ms = vec![0.0f64; buf.spans.len()];
    for s in &buf.spans {
        if let Some(p) = s.parent {
            child_ms[p] += ms(s.end - s.start);
        }
    }
    for (i, s) in buf.spans.iter().enumerate() {
        let total = ms(s.end - s.start);
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ms += total;
        e.self_ms += total - child_ms[i];
    }
    out
}

/// What one run prints: its metrics, its operation accounting, and the
/// verdict of its output checks.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Per-kind `(attempted, failed)` counts, printed before the result.
    ops: BTreeMap<String, (u64, u64)>,
    failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            !self.metrics.iter().any(|(n, _, _)| n == name),
            "metric {name} reported twice"
        );
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Count one attempted operation of `kind`, failed or not.
    pub fn op(&mut self, kind: &str, failed: bool) {
        let e = self.ops.entry(kind.to_string()).or_default();
        e.0 += 1;
        if failed {
            e.1 += 1;
        }
    }

    /// Record an output check. A failing check makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Print the per-kind accounting, then the result object as the last
    /// line of standard output.
    pub fn print(&self, workload: &str) {
        let (mut attempted, mut failed) = (0u64, 0u64);
        for (kind, (a, f)) in &self.ops {
            println!("ops {workload}.{kind}: attempted {a} failed {f}");
            attempted += a;
            failed += f;
        }
        println!("ops {workload}: attempted {attempted} failed {failed}");
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            self.correct()
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push_str("}}");
        println!("{out}");
    }
}

/// The host reference: a fixed kernel that is not part of the program
/// under test: sorting fresh copies of 32 Ki random `u32`s, unstable and
/// stable, which allocates, branches and streams over a 128 KiB buffer.
/// A dependent-load chain missed the host phases that move pgr's own
/// timings; this kernel follows them (README.md). This host's speed
/// drifts by tens of percent over minutes, as other tenants come and go;
/// timing the kernel around every measured unit and dividing it out
/// leaves the program's own cost. See README.md, "Host-corrected
/// timings".
pub struct HostClock {
    data: Vec<u32>,
    last_ms: f64,
    /// Every reference time taken, for the run's record.
    pub refs_ms: Vec<f64>,
}

/// The reference kernel's nominal time: a corrected figure is the
/// measured time scaled to a host on which the kernel takes this long.
pub const NOMINAL_REF_MS: f64 = 1.0;

/// A measured time and its host-corrected value, in ms.
#[derive(Debug, Clone, Copy, Default)]
pub struct Took {
    pub raw_ms: f64,
    pub ms: f64,
}

impl Took {
    /// A time measured inside this one, corrected alike.
    pub fn scale(&self, raw_ms: f64) -> Took {
        Took {
            raw_ms,
            ms: raw_ms * self.ms / self.raw_ms,
        }
    }
}

impl HostClock {
    pub fn new() -> HostClock {
        let mut rng = Rng::new(0x4e57);
        let mut clock = HostClock {
            data: (0..1 << 15).map(|_| rng.next_u64() as u32).collect(),
            last_ms: 0.0,
            refs_ms: Vec::new(),
        };
        clock.last_ms = clock.reference();
        clock
    }

    /// The reference time now: the median of five timed passes of the
    /// kernel (1.5 to 1.9 ms each here), in ms.
    pub fn reference(&mut self) -> f64 {
        let passes: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                let mut v = self.data.clone();
                v.sort_unstable();
                std::hint::black_box(&v);
                let mut w = self.data.clone();
                w.sort();
                std::hint::black_box(&w);
                ms(t0.elapsed())
            })
            .collect();
        let took = median(&passes);
        self.refs_ms.push(took);
        took
    }

    /// Time `f` between two reference passes and correct the time by
    /// their mean.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Took) {
        let before = self.last_ms;
        let (out, took) = timed(f);
        self.last_ms = self.reference();
        let raw_ms = ms(took);
        let ms = raw_ms * NOMINAL_REF_MS / ((before + self.last_ms) / 2.0);
        (out, Took { raw_ms, ms })
    }
}
