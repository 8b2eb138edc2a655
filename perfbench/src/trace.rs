//! The in-memory span recorder of traced runs.
//!
//! A span has a name, a start, an end, a parent and a request id; it
//! also carries the allocations its thread made while it was open.
//! Spans stay in memory and are written out as JSON lines when the run
//! ends. A layer's self time is its span minus the time its child spans
//! cover.

use crate::sys;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    pub request: u64,
    pub allocs: u64,
}

/// Self time and self allocations of every span of one name.
#[derive(Debug, Default, Clone)]
pub struct LayerStats {
    pub self_ns: Vec<u64>,
    pub self_allocs: Vec<u64>,
}

pub struct Recorder {
    origin: Instant,
    /// Whether spans are kept; a recorder that is off costs one branch.
    on: bool,
    pub spans: Vec<Span>,
    alloc_at_open: Vec<u64>,
}

impl Recorder {
    pub fn new() -> Self {
        Self { origin: Instant::now(), on: true, spans: Vec::new(), alloc_at_open: Vec::new() }
    }

    /// A recorder that keeps nothing (for timed, untraced replays).
    pub fn off() -> Self {
        Self { on: false, ..Self::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        if !self.on {
            return 0;
        }
        self.alloc_at_open.push(sys::thread_allocs());
        self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, request, allocs: 0 });
        let i = self.spans.len() - 1;
        // Stamp last, so the recorder's own bookkeeping stays outside.
        self.spans[i].start_ns = self.now();
        i
    }

    /// Close span `i` (spans close in reverse order of opening).
    pub fn close(&mut self, i: usize) {
        if !self.on {
            return;
        }
        let end = self.now();
        let opened = self.alloc_at_open.pop().expect("close matches an open");
        let s = &mut self.spans[i];
        s.end_ns = end;
        s.allocs = sys::thread_allocs() - opened;
    }

    /// Record a span measured elsewhere (e.g. on a worker thread).
    pub fn add(&mut self, name: &'static str, start: Instant, end: Instant, parent: Option<usize>) {
        if !self.on {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let (start_ns, end_ns) = (at(start), at(end));
        self.spans.push(Span { name, start_ns, end_ns, parent, request: 0, allocs: 0 });
    }

    /// Self time and allocations per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
                child_allocs[p] += s.allocs;
            }
        }
        let mut out: BTreeMap<&'static str, LayerStats> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.self_ns.push((s.end_ns - s.start_ns).saturating_sub(child_ns[i]));
            e.self_allocs.push(s.allocs.saturating_sub(child_allocs[i]));
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"request\":{},\"allocs\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.allocs
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new();
        let root = r.open("root", None, 1);
        let child = r.open("child", Some(root), 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.close(child);
        r.close(root);
        let layers = r.layers();
        let child_ns = layers["child"].self_ns[0];
        let root_ns = layers["root"].self_ns[0];
        assert!(child_ns >= 2_000_000, "child spans its sleep: {child_ns}");
        assert!(root_ns < child_ns, "root self time excludes the child: {root_ns}");
        assert_eq!(r.spans[child].parent, Some(root));
    }

    #[test]
    fn a_recorder_that_is_off_keeps_nothing() {
        let mut r = Recorder::off();
        let root = r.open("root", None, 1);
        let child = r.open("child", Some(root), 1);
        r.close(child);
        r.close(root);
        r.add("worker", Instant::now(), Instant::now(), None);
        assert!(r.spans.is_empty() && r.layers().is_empty());
    }
}
