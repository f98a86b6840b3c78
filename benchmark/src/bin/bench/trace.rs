//! Spans recorded by the benchmark around its calls into each layer. They
//! are kept in memory while a traced run measures and written out as JSON
//! lines when it ends; tracing inside the program is a later change.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans written to the trace file; the metrics use all of them, the file
/// is for reading and stays small.
pub const FILE_SPAN_CAP: usize = 20_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// 1-based; 0 is "no span".
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u32,
    pub pass: u32,
    pub tuples: u32,
    pub results: u32,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span — its name, `(parent, pass)`, `(start, end)`
    /// and counts — and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        (parent, pass): (u32, u64),
        (start, end): (Instant, Instant),
        tuples: usize,
        results: usize,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            pass: pass as u32,
            tuples: tuples as u32,
            results: results as u32,
        });
        id
    }

    /// Reserves the id of a span whose children are recorded before it
    /// closes (a pass).
    pub fn open(&mut self, name: &'static str, parent: u32, pass: u64, start: Instant) -> u32 {
        self.record(name, (parent, pass), (start, start), 0, 0)
    }

    pub fn close(&mut self, id: u32, end: Instant, tuples: usize, results: usize) {
        let end_ns = self.ns(end);
        let span = &mut self.spans[id as usize - 1];
        (span.end_ns, span.tuples, span.results) = (end_ns, tuples as u32, results as u32);
    }

    /// Time inside `id` not covered by its children: a layer's self time.
    #[cfg(test)]
    pub fn self_ns(&self, id: u32) -> u64 {
        let span = &self.spans[id as usize - 1];
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == id).map(|s| s.end_ns - s.start_ns).sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// Writes the first [`FILE_SPAN_CAP`] spans as JSON lines; returns how
    /// many were written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let n = self.spans.len().min(FILE_SPAN_CAP);
        for s in &self.spans[..n] {
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"pass\":{},\"tuples\":{},\"results\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, s.pass, s.tuples, s.results
            )?;
        }
        w.flush()?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let pass = t.open("pass", 0, 7, t0);
        let call = t.record(
            "operator.ingest",
            (pass, 7),
            (t0 + Duration::from_nanos(100), t0 + Duration::from_nanos(400)),
            4096,
            3,
        );
        t.close(pass, t0 + Duration::from_nanos(1_000), 4096, 3);
        assert_eq!((pass, call), (1, 2));
        assert_eq!(t.spans[1].parent, pass);
        assert_eq!(t.self_ns(pass), 700);
        assert_eq!(t.self_ns(call), 300);
    }

    #[test]
    fn trace_file_is_json_lines() {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        t.record("store.append", (0, 1), (t0, t0 + Duration::from_nanos(5)), 10, 0);
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("target/bench/test-trace-{}.jsonl", std::process::id()));
        assert_eq!(t.write_jsonl(&path).unwrap(), 1);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(text.starts_with("{\"id\":1,\"name\":\"store.append\",\"start_ns\":"));
        assert!(text.ends_with(",\"parent\":0,\"pass\":1,\"tuples\":10,\"results\":0}\n"));
    }
}
