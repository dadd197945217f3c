//! In-memory span tracing and its reductions: per-layer self time,
//! unattributed time, percentiles with their sample-count rule, and the
//! metric-name grammar the result line must obey.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! product crates; nothing inside the product is instrumented. A span's
//! *self time* is its duration minus the part of its interval covered by
//! its children, so summing self times over every span of one root gives
//! exactly the root's duration.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `core.ff_warm`.
    pub name: &'static str,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Work done inside the span (instructions, units, bytes — the
    /// layer decides), recorded at the boundary.
    pub count: u64,
    /// Identifier shared by every span of one iteration or job.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans in memory; [`Tracer::write_jsonl`] writes them out once
/// the benchmark ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (share one epoch
    /// between tracers whose spans are merged).
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the request id stamped on spans begun from now on.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            count: 0,
            request: self.request,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open one) with the
    /// work it did.
    pub fn end(&mut self, id: usize, count: u64) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].count = count;
    }

    /// Records an interval timed elsewhere (between two observed
    /// events) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, count: u64) {
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns,
            count,
            request: self.request,
        });
    }

    /// Runs `f` inside a span whose count is `f`'s second result.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> (T, u64)) -> T {
        let id = self.begin(name);
        let (value, count) = f();
        self.end(id, count);
        value
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (same epoch), re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns, s.count
            )?;
        }
        Ok(())
    }
}

/// Each span's self time: its duration minus the union of its children's
/// intervals clipped to it (children on other threads may overlap).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Summed self time, seconds.
    pub self_s: f64,
    /// Summed work count.
    pub count: u64,
    /// Number of spans.
    pub spans: u64,
}

/// One traced root (an iteration or a job) reduced to its layers.
#[derive(Debug, Clone, Default)]
pub struct RootSummary {
    /// The root's duration, seconds.
    pub wall_s: f64,
    /// The root's own self time (time no layer span covers), seconds.
    pub unattributed_s: f64,
    /// Every descendant layer's totals, by name.
    pub layers: BTreeMap<&'static str, LayerTotal>,
}

/// Reduces every root span named `root` to a [`RootSummary`], in the
/// order the roots were recorded.
pub fn summarize_roots(spans: &[Span], root: &str) -> Vec<RootSummary> {
    let selfs = self_times(spans);
    let mut top = vec![usize::MAX; spans.len()];
    let mut index_of_root = BTreeMap::new();
    let mut out: Vec<RootSummary> = Vec::new();
    for (id, s) in spans.iter().enumerate() {
        // Parents always precede children, so one forward pass finds
        // every span's outermost ancestor.
        top[id] = match s.parent {
            None => id,
            Some(p) => top[p],
        };
        if s.parent.is_none() && s.name == root {
            index_of_root.insert(id, out.len());
            out.push(RootSummary {
                wall_s: s.duration_ns() as f64 * 1e-9,
                unattributed_s: selfs[id] as f64 * 1e-9,
                layers: BTreeMap::new(),
            });
        } else if let Some(&slot) = index_of_root.get(&top[id]) {
            let layer = out[slot].layers.entry(s.name).or_default();
            layer.self_s += selfs[id] as f64 * 1e-9;
            layer.count += s.count;
            layer.spans += 1;
        }
    }
    out
}

/// Sum of one layer's totals over many roots.
pub fn layer_sum(roots: &[RootSummary], name: &str) -> LayerTotal {
    roots
        .iter()
        .filter_map(|r| r.layers.get(name))
        .fold(LayerTotal::default(), |acc, l| LayerTotal {
            self_s: acc.self_s + l.self_s,
            count: acc.count + l.count,
            spans: acc.spans + l.spans,
        })
}

/// 1-based nearest rank of percentile `p` (0 < p ≤ 1) among `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples lying strictly beyond percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Whether `n` samples support reporting percentile `p`: at least ten
/// samples must lie beyond it. The median is reported regardless.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= 10
}

/// Nearest-rank percentile of `values` (0 for an empty set).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// The median: the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is not positive (a layer that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Metric names: start with a letter or digit, at most 64 characters of
/// `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Units: at most 16 characters of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: start,
            end_ns: end,
            count: 1,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let spans = [
            span("iter", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 40, 90),
            span("a.inner", Some(1), 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![30, 15, 50, 5]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two children on different threads overlap in [20, 30).
        let spans = [
            span("job", None, 0, 100),
            span("x", Some(0), 10, 30),
            span("y", Some(0), 20, 50),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 40);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = [span("p", None, 10, 20), span("c", Some(0), 5, 25)];
        assert_eq!(self_times(&spans), vec![0, 20]);
    }

    #[test]
    fn self_times_of_a_root_sum_to_its_duration() {
        let spans = [
            span("iter", None, 0, 1000),
            span("a", Some(0), 0, 400),
            span("b", Some(1), 100, 300),
            span("c", Some(0), 500, 900),
        ];
        let roots = summarize_roots(&spans, "iter");
        assert_eq!(roots.len(), 1);
        let r = &roots[0];
        let layered: f64 = r.layers.values().map(|l| l.self_s).sum();
        assert!((layered + r.unattributed_s - r.wall_s).abs() < 1e-12);
        assert!((r.unattributed_s - 200e-9).abs() < 1e-15);
        assert_eq!(r.layers["b"].spans, 1);
    }

    #[test]
    fn roots_with_other_names_are_ignored() {
        let spans = [
            span("setup", None, 0, 10),
            span("workloads.load", Some(0), 0, 10),
            span("iter", None, 10, 20),
        ];
        let roots = summarize_roots(&spans, "iter");
        assert_eq!(roots.len(), 1);
        assert!(roots[0].layers.is_empty());
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let id = a.begin("iter");
        a.end(id, 0);
        let mut b = Tracer::new(epoch);
        let outer = b.begin("iter");
        let inner = b.begin("x");
        b.end(inner, 3);
        b.end(outer, 0);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[2].count, 3);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert!(percentile_supported(20, 0.5));
        assert!(!percentile_supported(19, 0.5));
        assert!(percentile_supported(100, 0.9));
        assert!(!percentile_supported(99, 0.9));
        assert!(!percentile_supported(0, 0.5));
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(5, 0.9), 0);
    }

    #[test]
    fn nearest_rank_percentiles_and_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn metric_name_grammar() {
        for good in [
            "wall_s",
            "core.ff_mips",
            "ckpt.bytes_per_unit",
            "9lives",
            "a-b.c_d",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in [
            "",
            "_lead",
            ".dot",
            "has space",
            "ünï",
            "a/b",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        for unit in ["ms", "s", "1/s", "count", "MIPS", "%", "us/unit"] {
            assert!(valid_unit(unit), "{unit}");
        }
        assert!(!valid_unit("per second"));
        assert!(!valid_unit(""));
    }
}
