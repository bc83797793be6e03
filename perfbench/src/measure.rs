//! Timing primitives shared by the workloads: the run budget, the span
//! tracer, order statistics and peak-RSS probes.

use std::time::{Duration, Instant};

/// How long, or how many operations, a workload's measured loop runs.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub deadline: Instant,
    /// Smoke runs stop after a fixed number of operations instead.
    pub max_ops: Option<u64>,
}

impl Budget {
    pub fn new(seconds: u64, max_ops: Option<u64>) -> Budget {
        Budget { deadline: Instant::now() + Duration::from_secs(seconds), max_ops }
    }

    /// Should operation number `done` (0-based) still run?
    pub fn more(&self, done: u64) -> bool {
        match self.max_ops {
            Some(max) => done < max,
            None => Instant::now() < self.deadline,
        }
    }
}

/// One recorded span: a call into a layer's public function.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.function`, e.g. `lint.lint_document_cached`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The operation the span belongs to (0 = set-up and replays).
    pub op: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.  Disabled tracers cost one branch per span.
pub struct Tracer {
    epoch: Instant,
    pub enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer { epoch, enabled, spans: Vec::new(), stack: Vec::new(), op: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Attribute the spans that follow to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` inside a span named `name`; `f` gets the tracer back so it
    /// can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op: self.op });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenate per-thread span lists, re-basing parent indices.
pub fn merge_spans(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for part in parts {
        let base = out.len();
        out.extend(part.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Do all spans lie within their parents, on the same operation?
pub fn spans_nest(spans: &[Span]) -> bool {
    spans.iter().all(|s| match s.parent {
        None => s.start_ns <= s.end_ns,
        Some(p) => {
            let q = &spans[p];
            q.start_ns <= s.start_ns && s.end_ns <= q.end_ns && q.op == s.op
        }
    })
}

/// Self time per span: its duration minus the time its children cover
/// (children of one parent never overlap: each thread records its own).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    spans.iter().zip(child).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
}

/// Total duration, in milliseconds, of every span called `name`.
pub fn span_total_ms(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e6).sum()
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `f` and return its result with its wall-clock duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Peak resident set size (`VmHWM`, KiB) of process `pid`, or of this
/// process for `None`.
pub fn peak_rss_kb(pid: Option<u32>) -> u64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            })
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now(), true);
        t.set_op(1);
        t.span("op", |t| {
            t.span("lang.parse", |_| std::thread::sleep(Duration::from_millis(2)));
            t.span("lint.run", |_| std::thread::sleep(Duration::from_millis(2)));
        });
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert!(spans_nest(&spans));
        let selfs = self_times_ns(&spans);
        assert!(selfs[0] < spans[0].dur_ns() - 3_000_000, "children cover most of the root");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].layer(), "lang");
    }

    #[test]
    fn merged_spans_keep_their_parents() {
        let mut a = Tracer::new(Instant::now(), true);
        a.span("op", |t| t.span("x.y", |_| ()));
        let mut b = Tracer::new(Instant::now(), true);
        b.span("op", |t| t.span("x.z", |_| ()));
        let merged = merge_spans(vec![a.into_spans(), b.into_spans()]);
        assert_eq!(merged[3].parent, Some(2));
        assert!(spans_nest(&merged));
    }
}
