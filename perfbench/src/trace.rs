//! In-memory spans, written out when the run ends, and the small
//! statistics helpers every phase reports with.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed interval: a call into a layer, or a whole operation.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

/// Records spans when enabled; a disabled tracer records nothing and
/// only runs the closures it is handed.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    overhead: Duration,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            overhead: Duration::ZERO,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a span over `[start, end]` and returns its id.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let entered = Instant::now();
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.to_owned(),
            start_us: us(start),
            end_us: us(end),
            parent,
            request,
        });
        self.overhead += entered.elapsed();
        Some(self.spans.len() - 1)
    }

    /// Runs `f` as a span named `name` and returns its result and its
    /// duration in milliseconds (measured whether or not tracing is on).
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, request);
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// Opens a parent span; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> Option<usize> {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let end = Instant::now()
                .saturating_duration_since(self.origin)
                .as_secs_f64()
                * 1e6;
            self.spans[id].end_us = end;
        }
    }

    /// Time spent recording spans, in milliseconds.
    pub fn overhead_ms(&self) -> f64 {
        self.overhead.as_secs_f64() * 1e3
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name: each span's duration minus the part
    /// its children cover.
    pub fn self_times_ms(&self) -> BTreeMap<String, f64> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_us[p] += span.end_us - span.start_us;
            }
        }
        let mut totals = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_us) {
            *totals.entry(span.name.clone()).or_insert(0.0) +=
                (span.end_us - span.start_us - children) / 1e3;
        }
        totals
    }

    /// Every child lies inside its parent and points back at an earlier span.
    pub fn nests(&self) -> bool {
        self.spans.iter().enumerate().all(|(i, span)| {
            span.start_us <= span.end_us
                && span.parent.is_none_or(|p| {
                    let parent = &self.spans[p];
                    p < i && parent.start_us <= span.start_us && span.end_us <= parent.end_us
                })
        })
    }
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of unsorted values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}
