//! What a workload run produces, the metric tables it is reported
//! against, and the two output documents: the one-line result and the
//! traced run's span file.

use crate::measure::{median, quantile, ratio, self_times_ns, Span};
use pospec_core::CacheStats;
use pospec_json::{ObjBuilder, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("op_p50_ms", "ms"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, `(name, unit, every workload measures it)`, in
/// `BENCHMARK.json` order.  Layer-specific metrics read 0 on workloads
/// that never call into their layer; every time in ms or µs is measured
/// on all four workloads, the rest are counts, sizes, ratios and shares.
pub const PER_LAYER: [(&str, &str, bool); 32] = [
    ("alphabet.enumerate_ms", "ms", true),
    ("alphabet.sigma_events", "count", true),
    ("alphabet.conditions_ms", "ms", true),
    ("regex.build_ms", "ms", true),
    ("regex.minimize_ms", "ms", true),
    ("regex.subset_states", "count", true),
    ("regex.trie_states", "count", false),
    ("regex.pred_calls", "count", false),
    ("regex.min_states_in", "count", true),
    ("regex.min_states_out", "count", true),
    ("core.build_ms", "ms", true),
    ("core.dfa_misses", "count", true),
    ("core.hit_ratio", "ratio", true),
    ("core.otf_explored", "count", true),
    ("core.warm_check_us", "us", true),
    ("core.batch_efficiency", "ratio", true),
    ("gen.setup_share_pct", "%", false),
    ("lang.doc_kb", "KiB", false),
    ("lang.elaborations_per_op", "count", false),
    ("lang.spec_reuses_per_op", "count", false),
    ("lang.share_pct", "%", false),
    ("lint.diagnostics", "count", false),
    ("lint.share_pct", "%", false),
    ("json.max_line_kb", "KiB", false),
    ("json.share_pct", "%", false),
    ("serve.queue_highwater", "count", false),
    ("serve.pair_hit_ratio", "ratio", false),
    ("serve.load_spec_share_pct", "%", false),
    ("lsp.pair_checks_per_edit", "count", false),
    ("lsp.dfa_misses_per_edit", "count", false),
    ("lsp.diag_kb", "KiB", false),
    ("lsp.self_share_pct", "%", false),
];

/// One completed operation.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub end: Instant,
    pub ms: f64,
    pub traced: bool,
}

/// Everything one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per output that disagreed with its known answer.
    pub wrong: Vec<String>,
    /// Duration of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// When the measured loop started, and every operation it completed.
    pub loop_start: Option<Instant>,
    pub ops: Vec<Op>,
    /// Peak RSS of the working process once `Ctx::rss_after` operations
    /// are done (or at the end of a shorter run).
    pub peak_rss_kb: u64,
    /// The `PER_LAYER` metrics this workload measured.
    pub layers: BTreeMap<&'static str, f64>,
    /// Further per-layer numbers, written only to the trace file.
    pub detail: BTreeMap<&'static str, f64>,
    /// Raw counters (cache, registry, server) for the trace file.
    pub counters: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn record_op(&mut self, end: Instant, ms: f64, traced: bool) {
        self.ops.push(Op { end, ms, traced });
    }

    /// Latencies of the traced or of the untraced operations, in
    /// completion order.
    pub fn latencies(&self, traced: bool) -> Vec<f64> {
        let mut ops: Vec<&Op> = self.ops.iter().filter(|o| o.traced == traced).collect();
        ops.sort_by_key(|o| o.end);
        ops.iter().map(|o| o.ms).collect()
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _, _)| *n == name), "unknown metric {name}");
        self.layers.insert(name, value);
    }
}

/// Automaton-cache counters summed over a workload's operations.
#[derive(Debug, Default, Clone, Copy)]
pub struct CoreCounts {
    pub ops: u64,
    pub build_nanos: u64,
    pub dfa_misses: u64,
    pub hits: u64,
    pub misses: u64,
    pub otf_explored: u64,
}

impl CoreCounts {
    pub fn add(&mut self, s: &CacheStats) {
        self.ops += 1;
        self.build_nanos += s.build_nanos;
        self.dfa_misses += s.dfa_misses;
        self.hits += s.hits();
        self.misses += s.misses();
        self.otf_explored += s.otf_explored;
    }

    /// Deltas between two `cache` objects of a server's stats reply,
    /// spread over `ops` operations.
    pub fn from_json(before: &Value, after: &Value, ops: u64) -> CoreCounts {
        let d = |k: &str| {
            let get = |v: &Value| v.get(k).and_then(Value::as_u64).unwrap_or(0);
            get(after).saturating_sub(get(before))
        };
        CoreCounts {
            ops,
            build_nanos: d("build_nanos"),
            dfa_misses: d("dfa_misses"),
            hits: d("hits"),
            misses: d("misses"),
            otf_explored: d("otf_explored"),
        }
    }

    pub fn fill(&self, out: &mut Outcome) {
        for (k, v) in [
            ("core.ops", self.ops),
            ("core.build_nanos", self.build_nanos),
            ("core.dfa_misses", self.dfa_misses),
            ("core.hits", self.hits),
            ("core.misses", self.misses),
            ("core.otf_explored", self.otf_explored),
        ] {
            out.counters.insert(k.to_string(), v as f64);
        }
        let per_op = |v: u64| ratio(v as f64, self.ops as f64);
        out.set("core.build_ms", per_op(self.build_nanos) / 1e6);
        out.set("core.dfa_misses", per_op(self.dfa_misses));
        out.set("core.hit_ratio", ratio(self.hits as f64, (self.hits + self.misses) as f64));
        out.set("core.otf_explored", per_op(self.otf_explored));
    }
}

/// Numeric leaves of `v` as dotted keys under `prefix`.
pub fn flatten(prefix: &str, v: &Value, into: &mut BTreeMap<String, f64>) {
    match v {
        Value::Num(n) => {
            into.insert(prefix.to_string(), *n);
        }
        Value::Obj(fields) => {
            for (k, f) in fields {
                flatten(&format!("{prefix}.{k}"), f, into);
            }
        }
        _ => {}
    }
}

/// The end-to-end metrics of a run, `(name, value, unit)`.
///
/// Throughput is the median over blocks of `block` consecutive
/// operations: a burst of interference from outside the benchmark then
/// moves one block, not the run's figure.
pub fn end_to_end(out: &Outcome, block: usize) -> Vec<(&'static str, f64, &'static str)> {
    let mut ends: Vec<Instant> = out.ops.iter().map(|o| o.end).collect();
    ends.sort();
    // A run shorter than one block is one block.
    let size = block.min(ends.len()).max(1);
    let mut rates = Vec::new();
    if let Some(mut prev) = out.loop_start {
        for chunk in ends.chunks_exact(size) {
            let last = chunk[size - 1];
            rates.push(ratio(size as f64, (last - prev).as_secs_f64()));
            prev = last;
        }
    }
    let throughput = median(&rates);
    let values = [
        median(&out.setup_s),
        quantile(&out.latencies(false), 0.5),
        throughput,
        out.peak_rss_kb as f64 / 1024.0,
    ];
    END_TO_END.iter().zip(values).map(|((n, u), v)| (*n, v, *u)).collect()
}

/// The median over blocks of `block` consecutive untraced operations of
/// the block's `q`-quantile latency, in ms.  Written to the trace file:
/// on a shared 2-vCPU VM it moved by up to a quarter between runs, too
/// much to bound.
pub fn tail_ms(out: &Outcome, q: f64, block: usize) -> f64 {
    let lat = out.latencies(false);
    let tails: Vec<f64> = lat.chunks_exact(block).map(|c| quantile(c, q)).collect();
    if tails.is_empty() {
        quantile(&lat, q)
    } else {
        median(&tails)
    }
}

/// The per-layer metrics of a traced run, `(name, value, unit)`; 0 for a
/// layer the workload never calls.
pub fn per_layer(out: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    PER_LAYER
        .iter()
        .map(|(name, unit, _)| (*name, out.layers.get(name).copied().unwrap_or(0.0), *unit))
        .collect()
}

/// Metrics every workload must measure that this run did not.
pub fn missing_layers(out: &Outcome) -> Vec<&'static str> {
    PER_LAYER
        .iter()
        .filter(|(name, _, universal)| *universal && !out.layers.contains_key(name))
        .map(|(name, _, _)| *name)
        .collect()
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> Value {
    let mut b = ObjBuilder::new();
    for (name, value, unit) in metrics {
        b = b.field(name, ObjBuilder::new().field("value", *value).field("unit", *unit).build());
    }
    b.build()
}

/// The last line of standard output.
pub fn result_line(out: &Outcome, metrics: &[(&str, f64, &str)]) -> Value {
    ObjBuilder::new()
        .field("correct", out.wrong.is_empty())
        .field("attempted", out.attempted)
        .field("failed", out.failed)
        .field("metrics", metrics_json(metrics))
        .build()
}

/// Self time and span count per layer.
fn layer_self_times(spans: &[Span]) -> Value {
    let mut acc: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let e = acc.entry(s.layer()).or_default();
        e.0 += self_ns as f64 / 1e6;
        e.1 += 1;
    }
    let mut b = ObjBuilder::new();
    for (layer, (self_ms, n)) in acc {
        b = b.field(layer, ObjBuilder::new().field("self_ms", self_ms).field("spans", n).build());
    }
    b.build()
}

/// The traced run's document: `{meta, workloads: {name: {...}}}`.
pub fn trace_document(
    meta: Value,
    workload: &str,
    out: &Outcome,
    e2e: &[(&str, f64, &str)],
    layers: &[(&str, f64, &str)],
    overhead_pct: f64,
) -> Value {
    let mut detail = ObjBuilder::new();
    for (k, v) in &out.detail {
        detail = detail.field(k, *v);
    }
    let mut counters = ObjBuilder::new();
    for (k, v) in &out.counters {
        counters = counters.field(k, *v);
    }
    let spans: Vec<Value> = out
        .spans
        .iter()
        .map(|s| {
            ObjBuilder::new()
                .field("name", s.name)
                .field("start_us", s.start_ns as f64 / 1e3)
                .field("end_us", s.end_ns as f64 / 1e3)
                .field("parent", s.parent.map(Value::from).unwrap_or(Value::Null))
                .field("op", s.op)
                .build()
        })
        .collect();
    let body = ObjBuilder::new()
        .field("end_to_end", metrics_json(e2e))
        .field("setup_reps_s", Value::Arr(out.setup_s.iter().map(|s| Value::from(*s)).collect()))
        .field("layers", metrics_json(layers))
        .field("layer_detail", detail.build())
        .field("self_time", layer_self_times(&out.spans))
        .field("counters", counters.build())
        .field("trace_overhead_pct", overhead_pct)
        .field("wrong", Value::Arr(out.wrong.iter().map(|w| Value::from(w.as_str())).collect()))
        .field("spans", Value::Arr(spans))
        .build();
    ObjBuilder::new()
        .field("meta", meta)
        .field("workloads", ObjBuilder::new().field(workload, body).build())
        .build()
}
