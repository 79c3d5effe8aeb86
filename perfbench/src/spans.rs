//! Spans recorded by the benchmark around each call it makes into a
//! layer's public function.
//!
//! A span has a name (`<layer>.<what>`, e.g. `core.augmented`), the
//! layer it belongs to (the name's first component), start and end
//! times, its parent and the workload. Spans stay in memory and are
//! written out once, when the benchmark ends. A span's self time is its
//! duration minus the durations of its children.
//!
//! Most children run inside their parent's interval. A *replayed* child
//! ([`Tracer::replay`]) re-runs part of its parent's work separately —
//! the benchmark cannot reach inside `jouppi_serve::sim::simulate`, so it
//! times trace recording and the augmented-cache replay of the same
//! request on their own and charges them to the `serve.sim` span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use jouppi_serve::json::Json;

use crate::Metric;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Memory references the call processed (0 when not meaningful).
    pub refs: u64,
}

/// The layer of a span name: the name up to its first `.`.
fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        layer_of(self.name)
    }

    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Totals over every span sharing one name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Summed references processed.
    pub refs: u64,
    /// Each span's duration in nanoseconds, in recording order.
    pub durations_ns: Vec<f64>,
}

impl NameTotals {
    /// Self nanoseconds per reference processed (`NaN` without refs).
    pub fn ns_per_ref(&self) -> f64 {
        if self.refs == 0 {
            f64::NAN
        } else {
            self.self_ns as f64 / self.refs as f64
        }
    }
}

/// The span recorder of one workload run. Single-threaded: spans are
/// taken on the thread that makes the call.
pub struct Tracer {
    enabled: bool,
    workload: &'static str,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A recording tracer for `workload`.
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            enabled: true,
            workload,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// A tracer that records nothing (the end-to-end run).
    pub fn disabled(workload: &'static str) -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new(workload)
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record<T>(
        &self,
        name: &'static str,
        refs: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                refs,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        (out, id)
    }

    /// Runs `f` under a span whose parent is the innermost open span.
    /// Returns `f`'s value and the span's index (`usize::MAX` when
    /// disabled).
    pub fn span<T>(&self, name: &'static str, refs: u64, f: impl FnOnce() -> T) -> (T, usize) {
        if !self.enabled {
            return (f(), usize::MAX);
        }
        let parent = self.stack.borrow().last().copied();
        self.record(name, refs, parent, f)
    }

    /// Runs `f` under a span charged to `parent` as a replayed child (see
    /// the module docs).
    pub fn replay<T>(
        &self,
        parent: usize,
        name: &'static str,
        refs: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        self.record(name, refs, Some(parent), f).0
    }

    /// Sets the references of span `id` (for calls whose work is only
    /// known once they return). No-op when disabled.
    pub fn set_refs(&self, id: usize, refs: u64) {
        if let Some(s) = self.spans.borrow_mut().get_mut(id) {
            s.refs = refs;
        }
    }

    /// The number of spans recorded so far; pass it to
    /// [`Tracer::by_name`] to total only later spans.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Each span's self time: duration minus its children's durations,
    /// floored at zero. Parallel to [`Tracer::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Totals per span name over the spans recorded from index `from` on.
    pub fn by_name(&self, from: usize) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans().iter().zip(self.self_times_ns()).skip(from) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.self_ns += self_ns;
            t.refs += s.refs;
            t.durations_ns.push(s.duration_ns() as f64);
        }
        out
    }

    /// The spans as JSON lines (one object per span).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans().iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Int(i as i64)),
                ("name", Json::str(s.name)),
                ("layer", Json::str(s.layer())),
                ("start_ns", Json::Int(s.start_ns as i64)),
                ("end_ns", Json::Int(s.end_ns as i64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                ),
                ("workload", Json::str(self.workload)),
                ("refs", Json::Int(s.refs as i64)),
            ]);
            out.push_str(&line.encode());
            out.push('\n');
        }
        out
    }
}

/// Spans whose self time is simulation-engine work (the `cache` and
/// `core` layers' replay loops).
pub const ENGINE_SPANS: [&str; 4] = [
    "cache.classify",
    "cache.single_pass",
    "cache.working_set",
    "core.augmented",
];

/// The per-layer view of a traced run's spans.
#[derive(Clone, Debug)]
pub struct Breakdown {
    /// Per span name: count, self time, references, ns per reference and
    /// median duration; per layer: share of the summed self time.
    pub json: Json,
    /// `trace.record` self nanoseconds per recorded reference.
    pub record_ns_per_ref: f64,
    /// Engine self nanoseconds per replayed reference ([`ENGINE_SPANS`]).
    pub engine_ns_per_ref: f64,
    /// Summed self time per layer, nanoseconds.
    pub layer_ns: BTreeMap<&'static str, u64>,
}

impl Breakdown {
    /// The per-layer metrics every workload reports in the traced run,
    /// given the workload's decomposed ratio and tracing overhead.
    pub fn metrics(&self, decomposed_ratio: f64, overhead: f64) -> Vec<Metric> {
        [
            ("trace.record.ns_per_ref", self.record_ns_per_ref, "ns"),
            ("engine.ns_per_ref", self.engine_ns_per_ref, "ns"),
            ("decomposed_ratio", decomposed_ratio, "ratio"),
            ("trace_overhead", overhead, "ratio"),
        ]
        .into_iter()
        .map(|(name, value, unit)| Metric {
            name: name.to_owned(),
            value,
            unit,
        })
        .collect()
    }
}

/// Builds the [`Breakdown`] of the spans recorded from index `from` on.
pub fn breakdown(tracer: &Tracer, from: usize) -> Breakdown {
    let names = tracer.by_name(from);
    let mut layer_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut per_name = Vec::new();
    let (mut engine_ns, mut engine_refs) = (0u64, 0u64);
    for (name, t) in &names {
        *layer_ns.entry(layer_of(name)).or_insert(0) += t.self_ns;
        if ENGINE_SPANS.contains(name) {
            engine_ns += t.self_ns;
            engine_refs += t.refs;
        }
        per_name.push((
            (*name).to_owned(),
            Json::obj([
                ("count", Json::Int(t.count as i64)),
                ("self_ms", Json::Float(t.self_ns as f64 / 1e6)),
                ("refs", Json::Int(t.refs as i64)),
                ("ns_per_ref", Json::Float(t.ns_per_ref())),
                ("p50_us", Json::Float(crate::median(&t.durations_ns) / 1e3)),
            ]),
        ));
    }
    let total: u64 = layer_ns.values().sum();
    let shares = layer_ns
        .iter()
        .map(|(layer, ns)| {
            (
                format!("{layer}.share"),
                Json::Float(*ns as f64 / total.max(1) as f64),
            )
        })
        .collect();
    Breakdown {
        json: Json::obj([
            ("spans", Json::Obj(per_name)),
            ("layer_shares", Json::Obj(shares)),
        ]),
        record_ns_per_ref: names
            .get("trace.record")
            .map_or(f64::NAN, NameTotals::ns_per_ref),
        engine_ns_per_ref: if engine_refs == 0 {
            f64::NAN
        } else {
            engine_ns as f64 / engine_refs as f64
        },
        layer_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_replayed_children() {
        let t = Tracer::new("w");
        let ((), outer) = t.span("serve.sim", 0, || {
            t.span("trace.record", 10, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        t.replay(outer, "core.augmented", 5, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[1].layer(), "trace");
        let self_ns = t.self_times_ns();
        // The outer span covers only the nested child's interval, so the
        // replayed child's duration floors its self time at zero.
        assert_eq!(self_ns[0], 0);
        assert_eq!(self_ns[1], spans[1].duration_ns());
        let by_name = t.by_name(0);
        assert_eq!(by_name["trace.record"].refs, 10);
        assert!(!t.by_name(2).contains_key("trace.record"));
        assert!(t.to_jsonl().lines().count() == 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled("w");
        let (v, id) = t.span("cache.classify", 1, || 7);
        assert_eq!((v, id), (7, usize::MAX));
        assert!(t.spans().is_empty());
    }
}
