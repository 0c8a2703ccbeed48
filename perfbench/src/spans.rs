//! Spans recorded by the benchmark's own code around each call into a
//! layer of the program, kept in memory and written out when a traced run
//! ends.
//!
//! A span's layer is its name up to the first `.` (`task.submit` belongs
//! to `task`). Its self time is its duration minus the part of its
//! interval that its child spans cover; children that overlap (the two
//! co-executed applications) are merged before subtracting, so self time
//! is never negative and children never cover more than their parent.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.call` name.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the call served (task index, application index, pass).
    pub request: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any number of threads.
pub(crate) struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub(crate) fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub(crate) fn open(&self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("tracer poisoned by a panic");
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Closes span `id`.
    pub(crate) fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("tracer poisoned by a panic")[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub(crate) fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans.
    pub(crate) fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("tracer poisoned by a panic")
    }
}

/// Runs `f` inside a span when `tracer` is present, directly otherwise.
pub(crate) fn maybe<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<usize>,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, parent, request, f),
        None => f(),
    }
}

/// Appends `src` to `dst`, rebasing parent indices.
pub(crate) fn append(dst: &mut Vec<Span>, src: Vec<Span>) {
    let base = dst.len();
    dst.extend(src.into_iter().map(|s| Span {
        parent: s.parent.map(|p| p + base),
        ..s
    }));
}

/// The layer of a span name: everything before the first `.`.
pub(crate) fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// For each span, the ns of its interval covered by its children (their
/// union, clipped to the parent).
pub fn child_cover_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(parent, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, parent.start_ns);
            for &(s, e) in kids.iter() {
                let s = s.max(reach);
                let e = e.min(parent.end_ns);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            covered
        })
        .collect()
}

/// Self time per layer in ns: each span's duration minus its children's
/// cover, summed by layer.
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let cover = child_cover_ns(spans);
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(cover) {
        *out.entry(layer_of(s.name)).or_insert(0) += s.dur_ns() - c;
    }
    out
}

/// Durations in ns of every span called `name`.
pub(crate) fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Writes spans as JSON lines, one array per span:
/// `[id, name, start_ns, end_ns, parent, request]`.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "[{id}, \"{}\", {}, {}, {parent}, {}]",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    w.flush()
}
