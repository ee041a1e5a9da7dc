//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A child process keeps its spans in memory and hands them to the parent
//! on its result stream; the parent merges every child of a run into one
//! Chrome trace-event file and derives per-layer self times from it. The
//! program under test carries no instrumentation of its own: every span
//! here wraps a call to a public function of one layer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::json::quote;

/// One closed span. Times are microseconds since the owning process's
/// epoch; `parent` indexes the same process's span list.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub dur_us: f64,
}

/// The in-memory recorder of one process. With tracing off it records
/// nothing and `open`/`close` cost one branch.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    last_closed: Option<usize>,
}

impl Recorder {
    pub fn new(on: bool, epoch: Instant) -> Recorder {
        Recorder {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            last_closed: None,
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &str) {
        if !self.on {
            return;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.stack.last().copied(),
            start_us: self.now_us(),
            dur_us: -1.0,
        });
        self.stack.push(id);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let id = self.stack.pop().expect("close matches an open span");
        let now = self.now_us();
        let s = &mut self.spans[id];
        s.dur_us = now - s.start_us;
        self.last_closed = Some(id);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Records a span known only by its length: the last `dur_us` of the
    /// most recently closed span, as its child. Used where a public call
    /// does two jobs back to back and reports the first one's length.
    pub fn tail_child(&mut self, name: &str, dur_us: f64) {
        if !self.on {
            return;
        }
        let Some(last) = self.last_closed else {
            return;
        };
        let p = &self.spans[last];
        let dur = dur_us.clamp(0.0, p.dur_us);
        let span = Span {
            name: name.to_owned(),
            parent: Some(last),
            start_us: p.start_us + p.dur_us - dur,
            dur_us: dur,
        };
        self.spans.push(span);
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "every span was closed");
        self.spans
    }
}

/// One process's spans as the parent received them.
pub struct ProcessSpans {
    pub pid: usize,
    pub sample: usize,
    pub label: String,
    /// Offset of the process's epoch from the run's epoch.
    pub offset_us: f64,
    /// Wall time of the process from its epoch to its last report.
    pub wall_us: f64,
    pub spans: Vec<Span>,
}

/// Self time of every span: its length minus the part of it its children
/// cover. Spans of one process nest (one thread records them), so the
/// children's lengths simply add up.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.dur_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_us;
        }
    }
    own
}

/// Per span name: (calls, total µs, self µs), over every process.
pub fn by_name(procs: &[ProcessSpans]) -> BTreeMap<String, (usize, f64, f64)> {
    let mut out: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
    for p in procs {
        for (s, own) in p.spans.iter().zip(self_times(&p.spans)) {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += s.dur_us;
            e.2 += own;
        }
    }
    out
}

/// Share of the processes' wall time that top-level spans cover.
pub fn coverage(procs: &[ProcessSpans]) -> f64 {
    let wall: f64 = procs.iter().map(|p| p.wall_us).sum();
    let top: f64 = procs
        .iter()
        .flat_map(|p| p.spans.iter().filter(|s| s.parent.is_none()))
        .map(|s| s.dur_us)
        .sum();
    if wall > 0.0 {
        top / wall
    } else {
        0.0
    }
}

/// Renders the processes as a Chrome trace-event document: one complete
/// ("X") event per span, one process per child, whose metadata event
/// carries the process's wall time.
pub fn chrome_json(procs: &[ProcessSpans]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
    };
    for p in procs {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {}, \"tid\": 0, \
             \"args\": {{\"name\": {}, \"wall_us\": {:.3}}}}}",
            p.pid,
            quote(&p.label),
            p.wall_us
        );
        for (id, s) in p.spans.iter().enumerate() {
            sep(&mut out);
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |x| x.to_string());
            let _ = write!(
                out,
                "{{\"name\": {}, \"ph\": \"X\", \"pid\": {}, \"tid\": 0, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"id\": {id}, \"parent\": {parent}, \"sample\": {}}}}}",
                quote(&s.name),
                p.pid,
                p.offset_us + s.start_us,
                s.dur_us,
                p.sample
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new(true, Instant::now());
        r.open("outer");
        r.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.close();
        let spans = r.into_spans();
        let own = self_times(&spans);
        assert_eq!(spans[1].parent, Some(0));
        assert!(own[0] >= 0.0 && own[0] < spans[0].dur_us);
        assert!((own[0] + own[1] - spans[0].dur_us).abs() < 1e-6);
    }
}
