//! Wall-clock spans recorded around the benchmark's calls into each layer.
//!
//! Spans live in memory and are written once, at exit, as Chrome
//! trace-event JSON (opens in Perfetto or `chrome://tracing`). A disabled
//! tracer records nothing, so the untraced run pays one branch per call.

use crate::json::Value;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer call or grouping, e.g. `core.searcher.search` or `op`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The op (move, wave or game) the span belongs to.
    pub op: Option<u64>,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records while `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans begun from now on.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Opens a span; `None` when recording is off.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: Option<u64>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Every span recorded, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Total and self time (duration minus the union of its children's
    /// intervals) summed over every span named `name`.
    pub fn total_and_self_ns(&self, name: &str) -> (u64, u64) {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut total = 0;
        let mut own = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                total += s.dur_ns();
                own += self_ns((s.start_ns, s.end_ns), &children[i]);
            }
        }
        (total, own)
    }

    /// The spans as a Chrome trace-event document: complete (`X`) events
    /// with µs timestamps; id, parent and op ride in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = Value::obj().with("id", i);
            if let Some(p) = s.parent {
                args = args.with("parent", p);
            }
            if let Some(op) = s.op {
                args = args.with("op", op);
            }
            let event = Value::obj()
                .with("name", s.name)
                .with(
                    "cat",
                    s.name.rsplit_once('.').map_or(s.name, |(layer, _)| layer),
                )
                .with("ph", "X")
                .with("ts", s.start_ns as f64 / 1e3)
                .with("dur", s.dur_ns() as f64 / 1e3)
                .with("pid", 1u64)
                .with("tid", 1u64)
                .with("args", args);
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&event.render());
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of the interval `span`: its length minus the part of it that
/// the union of `children` covers. Children may nest, overlap or stick out
/// of the span; only their covered share inside it is subtracted.
pub fn self_ns(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    hi.saturating_sub(lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parses;

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_ns((0, 100), &[]), 100);
        assert_eq!(self_ns((0, 100), &[(10, 20), (50, 70)]), 70);
    }

    #[test]
    fn self_time_counts_overlapping_and_nested_children_once() {
        // (10,40) and (30,60) overlap; (15,25) nests inside the first.
        assert_eq!(self_ns((0, 100), &[(10, 40), (30, 60), (15, 25)]), 50);
        // A child sticking out of the span only covers its inside part.
        assert_eq!(self_ns((50, 100), &[(0, 60), (90, 200)]), 30);
        // A child covering everything leaves no self time.
        assert_eq!(self_ns((10, 20), &[(0, 30)]), 0);
    }

    #[test]
    fn tracer_nests_spans_and_computes_self_time() {
        let mut t = Tracer::new(true);
        let outer = t.begin("core.arena.game", None, Some(0));
        let inner = t.begin("core.searcher.search", outer, Some(0));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let (total, own) = t.total_and_self_ns("core.arena.game");
        assert!(total >= t.spans()[1].dur_ns());
        assert_eq!(own, total - t.spans()[1].dur_ns());
        assert!(parses(&t.chrome_json()));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("op", None, None);
        t.end(id);
        assert!(id.is_none() && t.spans().is_empty());
    }
}
