//! Spans recorded from the benchmark's own side of each call into a
//! layer. Nothing is instrumented inside the program: a span brackets the
//! benchmark's call into a crate's public function.
//!
//! With tracing off the recorder still times every span it is asked to
//! (the end-to-end metrics need the stage times) but stores nothing.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::stats::median;

/// One recorded span. `id` is the request id for request spans and the
/// model index for per-model replays.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: Option<u64>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// A span that has started and not yet ended.
#[must_use = "end the span with Tracer::end"]
pub struct Open {
    start: Instant,
    idx: Option<usize>,
}

impl Open {
    /// The span's index, to pass as a child's parent (`None` with
    /// tracing off).
    pub fn id(&self) -> Option<usize> {
        self.idx
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds from the recorder's epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn start(&mut self, name: &'static str, parent: Option<usize>) -> Open {
        self.start_with(name, parent, None)
    }

    pub fn start_with(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: Option<u64>,
    ) -> Open {
        let start = Instant::now();
        let idx = self.on.then(|| {
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: 0,
                parent,
                id,
            });
            self.spans.len() - 1
        });
        Open { start, idx }
    }

    /// Ends `open`, returning its duration whether or not it was stored.
    pub fn end(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(i) = open.idx {
            self.spans[i].end_ns = self.ns(end);
        }
        end - open.start
    }

    /// Stores a span measured elsewhere (a generator thread's samples).
    pub fn push(&mut self, span: Span) {
        if self.on {
            self.spans.push(span);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median duration in seconds of the spans called `name`; per-model
    /// spans (those with an `id`) take the median per model and sum the
    /// models. `None` when no such span was recorded.
    pub fn median_secs(&self, name: &str) -> Option<f64> {
        let mut groups: BTreeMap<Option<u64>, Vec<f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            groups.entry(s.id).or_default().push(s.secs());
        }
        (!groups.is_empty()).then(|| groups.values().map(|d| median(d)).sum())
    }

    /// Median duration of request-level spans called `name`, pooled over
    /// every request.
    pub fn pooled_median_secs(&self, name: &str) -> Option<f64> {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect();
        (!d.is_empty()).then(|| median(&d))
    }

    pub fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| v.map_or(Json::Null, |v| Json::Num(v as f64));
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("parent", opt(s.parent.map(|p| p as u64))),
                        ("id", opt(s.id)),
                    ])
                })
                .collect(),
        )
    }
}
