//! In-memory spans for the traced run. Each span records its name,
//! start, end, parent span and request id; spans are kept in memory and
//! written out as JSON lines when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Sentinel parent of a root span.
const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A handle to an open span.
#[derive(Debug, Clone, Copy)]
#[must_use = "a span must be ended"]
pub struct SpanId(u32);

/// One thread's span recorder. Spans nest by a stack: a span begun
/// while another is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder timing relative to `origin` (share one origin between
    /// threads so their spans can be merged).
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, req: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.begin_at(name, req, start_ns)
    }

    /// Opens a span that started at an earlier, already measured time.
    pub fn begin_at(&mut self, name: &'static str, req: u64, start_ns: u64) -> SpanId {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(ROOT),
            req,
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn end(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        self.end_at(id, end_ns);
    }

    pub fn end_at(&mut self, id: SpanId, end_ns: u64) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id.0), "spans end in stack order");
        self.spans[id.0 as usize].end_ns = end_ns;
    }

    /// Renames an open or closed span (e.g. to the provenance label
    /// known only once the call returns).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id.0 as usize].name = name;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        out
    }

    /// Summed duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Self time per span: its duration minus the part of it its
    /// children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                covered[s.parent as usize] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Share of root-span time covered by their direct children, over
    /// roots that have children (the layer spans): 1.0 when the layers
    /// account for all the traced time.
    pub fn coverage(&self) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.duration_ns();
                has_child[s.parent as usize] = true;
            }
        }
        let (mut covered, mut total) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == ROOT && has_child[i] {
                covered += child_ns[i].min(s.duration_ns());
                total += s.duration_ns();
            }
        }
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&'static str, u64, u64, u32)]) -> Tracer {
        let mut t = Tracer::new(Instant::now());
        for &(name, start_ns, end_ns, parent) in spans {
            t.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                req: 0,
            });
        }
        t
    }

    #[test]
    fn self_time_and_coverage_subtract_children() {
        // root [0, 100) with children [10, 40) and [50, 95).
        let t = tracer_with(&[("root", 0, 100, ROOT), ("a", 10, 40, 0), ("b", 50, 95, 0)]);
        assert_eq!(t.self_times(), vec![25, 30, 45]);
        assert!((t.coverage() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn nesting_follows_the_open_stack() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.begin("outer", 1);
        t.time("inner", 1, || ());
        t.end(outer);
        let lone = t.begin("lone", 2);
        t.end(lone);
        let parents: Vec<u32> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![ROOT, 0, ROOT]);
        let mut other = Tracer::new(Instant::now());
        let o = other.begin("o", 3);
        other.time("oc", 3, || ());
        other.end(o);
        t.absorb(other);
        assert_eq!(t.spans()[4].parent, 3);
    }
}
