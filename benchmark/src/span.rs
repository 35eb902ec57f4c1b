//! In-memory spans for the traced replay.
//!
//! A span is one timed call across a layer boundary: name, start,
//! end, and the span that caused it. The spans of one request share
//! its trace id. They stay in memory while the replay runs and are
//! written out as JSON lines when it ends.

use std::io::{self, Write};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's
/// creation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `plan.execute`.
    pub name: &'static str,
    /// Index of the request this span belongs to.
    pub trace: u32,
    /// Index (into the tracer's span list) of the causing span.
    pub parent: Option<u32>,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

impl Span {
    /// Wall time covered.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans. When disabled, [`Tracer::span`] runs the closure
/// and records nothing — the untraced replay that the tracing
/// overhead is measured against takes the same code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    trace: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only passes calls through.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            trace: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Spans opened from now on belong to request `trace`.
    pub fn set_trace(&mut self, trace: u32) {
        self.trace = trace;
    }

    /// Time `f` as a span named `name`, child of whichever span is
    /// open on this tracer. `f` gets the tracer back so it can open
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_named(|t| (name, f(t)))
    }

    /// [`Tracer::span`] for a call whose outcome decides what the span
    /// is called (a cache lookup that turns out a hit or a miss): `f`
    /// returns the name with its result.
    pub fn span_named<T>(&mut self, f: impl FnOnce(&mut Tracer) -> (&'static str, T)) -> T {
        if !self.enabled {
            return f(self).1;
        }
        let name = "";
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            trace: self.trace,
            parent: self.open.last().copied(),
            start: self.origin.elapsed().as_nanos() as u64,
            end: 0,
        });
        self.open.push(id);
        let (name, out) = f(self);
        self.open.pop();
        let span = &mut self.spans[id as usize];
        span.end = self.origin.elapsed().as_nanos() as u64;
        span.name = name;
        out
    }

    /// Everything recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span.
    ///
    /// # Errors
    /// I/O errors from `w`.
    pub fn write_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"trace\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.name, s.start, s.end
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover. Children of one parent on one
/// thread do not overlap, but the union is taken anyway so that a
/// clock that reads the same twice cannot produce a negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start.max(parent.start), s.end.min(parent.end));
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// Durations of every span called `name`, ascending.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<u64> {
    let mut d: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .collect();
    d.sort_unstable();
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            name,
            trace: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0,100) ─ a [10,40) ─ a1 [15,25)
        //                 └ b [50,90)
        let spans = vec![
            span("request", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("a1", Some(1), 15, 25),
            span("b", Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_or_overhanging_children_never_go_negative() {
        let spans = vec![
            span("p", None, 10, 20),
            span("c1", Some(0), 5, 15),  // starts before the parent
            span("c2", Some(0), 12, 30), // overlaps c1, ends after
        ];
        // Children cover [10,20) entirely once clipped and unioned.
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn tracer_nests_and_tags_spans_and_is_silent_when_disabled() {
        let mut t = Tracer::new(true);
        t.set_trace(7);
        let out = t.span("outer", |t| t.span("inner", |_| 1) + t.span("inner", |_| 2));
        assert_eq!(out, 3);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent, s[0].trace), ("outer", None, 7));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert_eq!((s[2].name, s[2].parent), ("inner", Some(0)));
        assert!(s[0].start <= s[1].start && s[1].end <= s[2].start && s[2].end <= s[0].end);
        assert_eq!(durations_of(s, "inner").len(), 2);

        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("{\"id\":0,\"trace\":7,\"parent\":null,\"name\":\"outer\""));

        assert_eq!(t.span_named(|_| ("decided-late", 9)), 9);
        assert_eq!(t.spans()[3].name, "decided-late");

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |t| t.span("y", |_| 5)), 5);
        assert!(off.spans().is_empty());
    }
}
