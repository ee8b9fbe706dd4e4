//! Wall-clock spans around calls into the crates' public functions,
//! kept in memory and written out once, when the traced pass ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    /// The request the span belongs to (an operation or iteration
    /// index); spans of one request share it.
    request: u64,
    start_us: f64,
    end_us: f64,
}

/// The span log of one traced run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span now; spans opened before it is closed may name it
    /// as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_us();
        self.record(name, parent, request, now, now)
    }

    /// Closes span `id` now and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = now;
        (span.end_us - span.start_us) / 1e6
    }

    /// Runs `f` inside a span; returns its result and the span's
    /// duration in seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent, request);
        let out = f();
        (out, self.close(id))
    }

    /// Records a span whose boundaries were measured elsewhere (client
    /// stamps and server trace events, in µs of their own timebase).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start_us: f64,
        end_us: f64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            request,
            start_us,
            end_us,
        });
        self.spans.len() - 1
    }

    /// Writes one JSON object per span to `path`.
    pub fn dump(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"span\":\"{}\",\"parent\":{parent},\"request\":{},\"start_us\":{},\"end_us\":{}}}",
                s.name, s.request, s.start_us, s.end_us
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}
