//! In-memory spans for the traced run.
//!
//! A span is one timed call at a layer boundary: the request it belongs
//! to, a layer name (plus an optional solver tag), the span that caused it,
//! and start/end in nanoseconds since the run's clock origin. Spans stay in
//! memory while the benchmark runs and are written out once at the end.
//!
//! A span's **self time** is its duration minus the part of its interval
//! covered by its direct children (overlapping children count once).

use crate::stats;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Request id (stream position) the call belongs to.
    pub req: u64,
    /// Layer name, e.g. `sim.run`.
    pub name: &'static str,
    /// Solver tag (`""` when the layer is solver-independent).
    pub tag: &'static str,
    /// Index of the causing span in the same log, or [`ROOT`].
    pub parent: u32,
    /// Start, nanoseconds since the clock origin.
    pub start_ns: u64,
    /// End, nanoseconds since the clock origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Per-layer metric name: `<name>_us` or `<name>_us.<tag>`.
    pub fn metric(&self) -> String {
        if self.tag.is_empty() {
            format!("{}_us", self.name)
        } else {
            format!("{}_us.{}", self.name, self.tag)
        }
    }
}

/// An append-only span log.
#[derive(Clone, Debug, Default)]
pub struct SpanLog {
    /// Spans in push order; parents precede their children.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// Appends a span and returns its index (for children's `parent`).
    pub fn push(
        &mut self,
        req: u64,
        name: &'static str,
        tag: &'static str,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.spans.push(Span { req, name, tag, parent, start_ns, end_ns });
        (self.spans.len() - 1) as u32
    }

    /// Moves `other`'s spans to the end of this log, re-basing their parent
    /// indices.
    pub fn append(&mut self, other: SpanLog) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Self time of every span, index-aligned with [`SpanLog::spans`]:
    /// duration minus the union of its direct children's intervals
    /// (clipped to the parent's own interval).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(kids) = children.get_mut(s.parent as usize) {
                kids.push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| s.dur_ns() - covered(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// Median self time per call, in microseconds, keyed by
    /// [`Span::metric`].
    pub fn median_self_us(&self) -> BTreeMap<String, f64> {
        let mut by_metric: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            by_metric.entry(s.metric()).or_default().push(t);
        }
        by_metric.into_iter().map(|(k, mut v)| (k, stats::us(stats::median(&mut v)))).collect()
    }

    /// Per-request self-time totals of each layer named in `layers`
    /// (solver tags folded together), over the requests in `reqs`: for each
    /// layer, one total per request — zero where the request never entered
    /// that layer.
    pub fn per_request_totals(&self, layers: &[&str], reqs: &[u64]) -> Vec<Vec<u64>> {
        let index: BTreeMap<u64, usize> = reqs.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        let mut totals = vec![vec![0u64; reqs.len()]; layers.len()];
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            let (Some(li), Some(&ri)) =
                (layers.iter().position(|&l| l == s.name), index.get(&s.req))
            else {
                continue;
            };
            totals[li][ri] += t;
        }
        totals
    }

    /// Writes at most `limit` spans as tab-separated lines
    /// (`req name tag parent start_ns end_ns self_ns`).
    pub fn write_tsv(&self, path: &Path, limit: usize) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "req\tname\ttag\tparent\tstart_ns\tend_ns\tself_ns")?;
        for (s, t) in self.spans.iter().zip(self.self_times()).take(limit) {
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.tag, parent, s.start_ns, s.end_ns, t
            )?;
        }
        out.flush()
    }
}

/// Length of `[lo, hi)` covered by the union of `intervals` (each clipped
/// to `[lo, hi)`).
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// The end-to-end time no replayed layer accounts for: client latency
/// minus the sum of per-layer medians, in nanoseconds (negative when the
/// layers, replayed one request at a time, add up to more than the client
/// saw).
pub fn residual_ns(client_ns: u64, layer_medians_ns: &[u64]) -> i64 {
    client_ns as i64 - layer_medians_ns.iter().map(|&m| m as i64).sum::<i64>()
}
