//! In-memory span recorder for the traced replay.
//!
//! A span has a name, a start, an end and the span that was open when it
//! started. Spans of one op live in one [`Tracer`], so the tracer is the
//! op's identifier. A layer's self time is the duration of its spans minus
//! the part their direct children cover.

use std::time::Instant;

/// One recorded interval, in seconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (`io`, `cc`, `mapping`, ...) or `op` for the root.
    pub name: &'static str,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<usize>,
}

impl Span {
    /// `end - start`.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records the spans of one op.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; its clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            // Enough for the deepest op (8-way recursion, ~10 levels per
            // bisection) without growing while spans are being timed.
            spans: Vec::with_capacity(1024),
            open: Vec::with_capacity(16),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start: 0.0,
            end: 0.0,
            parent,
        });
        self.open.push(id);
        self.spans[id].start = self.now();
        let out = f(self);
        self.spans[id].end = self.now();
        self.open.pop();
        out
    }

    /// Duration of the most recently started span (for a leaf span just
    /// closed, that span).
    pub fn last_duration(&self) -> f64 {
        self.spans.last().map_or(0.0, Span::duration)
    }

    /// All spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration();
            }
        }
        own
    }

    /// Summed self time of the spans named `name`.
    pub fn self_time(&self, name: &str) -> f64 {
        self.self_times()
            .iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(t, _)| t)
            .sum()
    }

    /// Summed duration of the spans named `name` (spans of one layer never
    /// nest inside each other, so nothing is counted twice).
    pub fn total_time(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Duration of the root span (the whole op).
    pub fn root_duration(&self) -> f64 {
        self.spans.first().map_or(0.0, Span::duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut tr = Tracer::new();
        tr.span("op", |tr| {
            tr.span("kway", |tr| {
                tr.span("fm", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let own = tr.self_times();
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        for (i, s) in spans.iter().enumerate() {
            assert!(own[i] >= -1e-12 && own[i] <= s.duration() + 1e-12);
        }
        let covered: f64 = own.iter().sum();
        assert!((covered - tr.root_duration()).abs() < 1e-9);
        assert!(tr.self_time("fm") >= 0.002);
    }
}
