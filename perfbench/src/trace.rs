//! In-memory spans recorded around calls into each layer's public
//! functions. Nothing inside the measured crates is instrumented: a span
//! is the wall time of one call, as seen from the benchmark.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call: `name` ran from `start_ns` to `end_ns` (since the
/// trace began) on behalf of request `request`, inside span `parent`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The span log of a traced run.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Trace::close`]. Returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, request });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, request);
        let r = f();
        self.close(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id` minus the part its direct children cover.
    pub fn self_secs(&self, id: usize) -> f64 {
        let children: f64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::secs).sum();
        self.spans[id].secs() - children
    }

    /// Writes the spans as JSON lines (written once, after measuring).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_account_for_the_parent_minus_self_time() {
        let mut t = Trace::new();
        let root = t.open("root", None, 7);
        t.span("a", Some(root), 7, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.span("b", Some(root), 7, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.close(root);
        let children = t.spans()[1].secs() + t.spans()[2].secs();
        assert!(children >= 0.004);
        assert!((t.self_secs(root) - (t.spans()[root].secs() - children)).abs() < 1e-12);
        assert!(t.self_secs(root) >= 0.0);
        assert!(t.spans().iter().all(|s| s.request == 7 && s.end_ns >= s.start_ns));
    }
}
