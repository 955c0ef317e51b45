//! Harness-side span recording.
//!
//! Spans are recorded *around* the calls into the program, never inside it.
//! A span has a name (`<layer>.<what>`, the layer being the crate the call
//! lands in), a start and end in nanoseconds since the tracer's origin, the
//! span that caused it, and a request id shared by every span of one
//! request / rep / round. They live in memory and are written out once,
//! when the workload ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub req: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Totals for every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: usize,
    pub total_s: f64,
    /// Duration minus the part of the interval child spans cover.
    pub self_s: f64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans on the (single) harness thread, innermost last.
    stack: Vec<u32>,
    req: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), req: 0 }
    }

    /// Switch recording on or off between reps: the traced pass alternates,
    /// so traced and untraced timings of the same operation sit side by
    /// side in one run and their ratio is the tracing overhead.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggle tracing only between spans");
        self.enabled = on;
    }

    /// The id the next recorded span will get (`None` while off), so spans
    /// timed elsewhere can name it as their parent.
    pub fn next_id(&self) -> Option<u32> {
        self.enabled.then_some(self.spans.len() as u32)
    }

    /// Start a new request / rep / round: later spans carry its id.
    pub fn next_request(&mut self) -> u64 {
        self.req += 1;
        self.req
    }

    /// Run `f`, return its result and wall seconds, and — when tracing is
    /// on — record a span around it. `f` receives the tracer so the calls
    /// it makes can nest.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        if !self.enabled {
            let t0 = Instant::now();
            let r = f(self);
            return (r, t0.elapsed().as_secs_f64());
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            req: self.req,
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
        });
        self.stack.push(id);
        let t0 = Instant::now();
        let r = f(self);
        let t1 = Instant::now();
        self.stack.pop();
        let (start_ns, end_ns) = (self.ns(t0), self.ns(t1));
        let span = &mut self.spans[id as usize];
        (span.start_ns, span.end_ns) = (start_ns, end_ns);
        (r, (t1 - t0).as_secs_f64())
    }

    /// Record a span timed elsewhere (the load generator's collector
    /// thread hands back instants). Returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: &str,
        req: u64,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent, req, name: name.to_string(), start_ns, end_ns });
        Some(id)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: the span fields plus `self_ns`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let selfs = self_ns(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id, parent, s.req, s.name, s.start_ns, s.end_ns, self_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span), so overlapping children — requests in
/// flight together — are not subtracted twice.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut cursor) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

pub fn totals(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_ns(spans)) {
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_s += (s.end_ns - s.start_ns) as f64 / 1e9;
        t.self_s += self_ns as f64 / 1e9;
    }
    out
}

/// Self seconds per layer (the part of a span name before the first `.`).
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (name, t) in totals(spans) {
        let layer = name.split('.').next().unwrap_or(&name).to_string();
        *out.entry(layer).or_default() += t.self_s;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, req: 1, name: name.into(), start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span(0, None, "core.rep", 0, 100),
            span(1, Some(0), "eval.new", 10, 40),
            // Overlaps the first child: only 40..60 is newly covered.
            span(2, Some(0), "eval.run", 30, 60),
            // Sticks out past the parent: clipped to 90..100.
            span(3, Some(0), "serve.late", 90, 130),
            span(4, Some(1), "index.search", 15, 25),
        ];
        assert_eq!(self_ns(&spans), vec![100 - 50 - 10, 20, 30, 40, 10]);
        let t = totals(&spans);
        assert_eq!(t["core.rep"].count, 1);
        assert!((t["core.rep"].self_s - 40e-9).abs() < 1e-15);
        let layers = layer_self_s(&spans);
        assert!((layers["eval"] - 50e-9).abs() < 1e-15);
        assert!((layers["index"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn nesting_follows_the_call_stack_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let req = t.next_request();
        let ((), secs) = t.time("core.outer", |t| {
            t.time("index.inner", |_| ());
        });
        assert!(secs >= 0.0);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].req, req);
        assert!(t.spans()[0].start_ns <= t.spans()[1].start_ns);
        assert!(t.spans()[1].end_ns <= t.spans()[0].end_ns);

        t.set_enabled(false);
        t.time("core.unseen", |_| ());
        let now = Instant::now();
        assert_eq!(t.record("serve.request", 9, None, now, now), None);
        assert_eq!(t.spans().len(), 2);
    }
}
