//! Timers and spans around calls into the program.
//!
//! A [`Probe`] lives for one repetition. Workloads hand it closures that
//! contain *only* calls into the program; command generation, payloads,
//! verification and bookkeeping happen between probe calls, outside every
//! timer. Each segment is bracketed by the estimator's reference loop. With
//! a [`Tracer`] attached the same closures also record spans.

use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc;
use crate::estimator::{reference_loop_ns, Sample};

/// Sentinel parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// The segment the span belongs to (one id per segment).
    pub seg: u32,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log, written out once when the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, seg: u32, parent: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            seg,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records a span measured by the caller.
    pub fn record(&mut self, name: &'static str, seg: u32, parent: u32, start: Instant, ns: u64) {
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            seg,
            parent,
            start_ns,
            end_ns: start_ns + ns,
        });
    }

    /// The log as JSON: a name table plus one
    /// `[name, segment, parent, start_ns, end_ns]` row per span
    /// (`parent` is a row index, -1 for roots).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut names: Vec<&'static str> = Vec::new();
        let mut out = String::with_capacity(self.spans.len() * 40 + 256);
        let mut rows = String::with_capacity(self.spans.len() * 40);
        for (i, s) in self.spans.iter().enumerate() {
            let name = match names.iter().position(|n| *n == s.name) {
                Some(p) => p,
                None => {
                    names.push(s.name);
                    names.len() - 1
                }
            };
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                rows,
                "{sep}[{name},{},{parent},{},{}]",
                s.seg, s.start_ns, s.end_ns
            );
        }
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"columns\":[\"name\",\"segment\",\"parent\",\"start_ns\",\"end_ns\"],\"names\":["
        );
        for (i, n) in names.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{n}\"");
        }
        let _ = write!(out, "],\"spans\":[\n{rows}\n]}}\n");
        out
    }
}

/// What a timed closure uses to make its calls into the program.
pub struct Calls<'a> {
    tracer: Option<&'a mut Tracer>,
    parent: u32,
    seg: u32,
}

impl Calls<'_> {
    /// Makes one call into a layer, as a child span when tracing.
    #[inline]
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self.tracer.as_deref_mut() {
            None => f(),
            Some(tr) => {
                let id = tr.open(name, self.seg, self.parent);
                let out = f();
                tr.close(id);
                out
            }
        }
    }
}

/// Per-repetition recorder of segment times and allocation counts.
#[derive(Debug, Default)]
pub struct Probe {
    /// One sample per set-up segment, in order.
    pub setup: Vec<Sample>,
    /// One sample per timed segment, in order.
    pub timed: Vec<Sample>,
    /// Heap allocations made inside timed segments.
    pub allocs: u64,
    /// Bytes requested inside timed segments.
    pub alloc_bytes: u64,
    pub tracer: Option<Tracer>,
}

impl Probe {
    pub fn traced() -> Self {
        Probe {
            tracer: Some(Tracer::default()),
            ..Probe::default()
        }
    }

    fn run<T>(&mut self, timed: bool, span: &'static str, f: impl FnOnce(&mut Calls) -> T) -> T {
        let seg = (self.setup.len() + self.timed.len()) as u32;
        let top = self.tracer.as_mut().map(|tr| tr.open(span, seg, NO_PARENT));
        let mut calls = Calls {
            tracer: self.tracer.as_mut(),
            parent: top.unwrap_or(NO_PARENT),
            seg,
        };
        let (a0, b0) = alloc::snapshot();
        let ref_before = reference_loop_ns();
        let t0 = Instant::now();
        let out = f(&mut calls);
        let ns = t0.elapsed().as_nanos() as u64;
        let ref_ns = (ref_before + reference_loop_ns()) / 2;
        let (a1, b1) = alloc::snapshot();
        if let (Some(tr), Some(id)) = (self.tracer.as_mut(), top) {
            tr.close(id);
        }
        if timed {
            self.timed.push(Sample { ns, ref_ns });
            self.allocs += a1 - a0;
            self.alloc_bytes += b1 - b0;
        } else {
            self.setup.push(Sample { ns, ref_ns });
        }
        out
    }

    /// One set-up segment (counts towards `setup_s`).
    pub fn setup<T>(&mut self, span: &'static str, f: impl FnOnce(&mut Calls) -> T) -> T {
        self.run(false, span, f)
    }

    /// One timed segment (counts towards `host_kpages_per_s`).
    pub fn timed<T>(&mut self, span: &'static str, f: impl FnOnce(&mut Calls) -> T) -> T {
        self.run(true, span, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_segment_and_serialize() {
        let mut p = Probe::traced();
        p.setup("build", |c| c.call("inner.a", || 1));
        let v = p.timed("top", |c| c.call("inner.b", || 2) + c.call("inner.b", || 3));
        assert_eq!(v, 5);
        assert_eq!((p.setup.len(), p.timed.len()), (1, 1));
        let tr = p.tracer.as_ref().unwrap();
        assert_eq!(tr.spans.len(), 5);
        assert_eq!(tr.spans[2].name, "top");
        assert_eq!(tr.spans[2].parent, NO_PARENT);
        assert_eq!((tr.spans[3].parent, tr.spans[3].seg), (2, 1));
        assert!(tr.spans.iter().all(|s| s.end_ns >= s.start_ns));
        let json = tr.to_json("w", 1);
        assert!(json.contains("\"names\":[\"build\",\"inner.a\",\"top\",\"inner.b\"]"));
        assert!(json.contains("[3,1,2,"));
    }

    #[test]
    fn untraced_probe_only_times_and_counts_allocations() {
        let mut p = Probe::default();
        let v = p.timed("top", |c| c.call("x", || vec![0u8; 100]));
        assert_eq!(v.len(), 100);
        assert!(p.tracer.is_none());
        assert!(p.allocs >= 1 && p.alloc_bytes >= 100);
    }
}
