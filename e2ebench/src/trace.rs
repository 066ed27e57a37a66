//! In-memory span tracer for the traced run.
//!
//! Spans are recorded by the benchmark itself, around each call it makes
//! into a library layer: the library is timed from outside, unchanged.
//! Every span carries a name (`<layer>.<step>[.<detail>]`), start and end
//! offsets from the tracer's epoch, its parent, and the id of the query
//! (or figure round) it belongs to. Spans stay in memory until the run
//! ends; self time is derived from them afterwards.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<step>[.<detail>]`; the layer is the text before the
    /// first dot. The `bench` layer is the benchmark's own glue.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Id shared by all spans of one query or round.
    pub query: u64,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer this span times: the name up to the first dot.
    #[must_use]
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }
}

/// Span recorder. Not thread-safe by design: the benchmark calls into
/// the library from one thread, and the library's own worker threads
/// run inside the spans that called them.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Empty tracer; its epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record `f` as a span named `name` of query `query`, nested under
    /// whichever span is open. `f` gets the tracer back to open children.
    pub fn span<R>(
        &mut self,
        name: impl Into<String>,
        query: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            query,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// All spans recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of that
    /// interval covered by its direct children (children never overlap:
    /// they are opened one after another on the benchmark's thread).
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.duration_ns());
            }
        }
        out
    }

    /// Self seconds summed per span name.
    #[must_use]
    pub fn self_seconds_by_name(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name.clone()).or_insert(0.0) += ns as f64 * 1e-9;
        }
        out
    }

    /// Total seconds of the root spans (those without a parent).
    #[must_use]
    pub fn root_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .sum()
    }

    /// Self seconds summed over spans of library layers, i.e. every layer
    /// except the benchmark's own `bench` glue.
    #[must_use]
    pub fn attributed_seconds(&self) -> f64 {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.layer() != "bench")
            .map(|(_, ns)| ns as f64 * 1e-9)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_keeps_query_ids() {
        let mut t = Tracer::new();
        t.span("bench.round", 7, |t| {
            spin(2);
            t.span("engine.sweep", 7, |t| {
                spin(3);
                t.span("core.probe", 7, |_| spin(4));
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.query == 7));
        let by = t.self_seconds_by_name();
        assert!(by["core.probe"] >= 0.004);
        assert!(by["engine.sweep"] >= 0.003 && by["engine.sweep"] < by["core.probe"] + 0.003);
        let total = t.root_seconds();
        let sum: f64 = by.values().sum();
        assert!(
            (sum - total).abs() < 1e-6,
            "self times sum to the root: {sum} vs {total}"
        );
        assert!(t.attributed_seconds() < total);
    }
}
