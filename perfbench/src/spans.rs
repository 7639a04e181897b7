//! Host-time spans around every layer call the benchmark makes.
//!
//! A span has a name, a start and an end (nanoseconds since the recorder
//! was created), a parent, and the id of the design point it belongs to.
//! Spans are kept in memory and written out once, at exit, as TSV. Self
//! time is a span's duration minus the durations of its direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `sim.dense_point`.
    pub name: &'static str,
    /// Start, in ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Design point the span belongs to (shared by all its spans).
    pub point: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder with an explicit open-span stack.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    point: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            point: 0,
        }
    }
}

impl Recorder {
    /// Sets the design-point id stamped on spans opened from now on.
    pub fn set_point(&mut self, point: u64) {
        self.point = point;
    }

    /// Opens a span; close it with [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str) {
        let now = self.now_ns();
        self.push(name, now, now);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let now = self.now_ns();
        let index = self.open.pop().expect("exit without enter");
        self.spans[index].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Opens a span with explicit times (the start is final; the end is
    /// overwritten when the span closes).
    pub fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            point: self.point,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span at an explicit time.
    #[cfg(test)]
    pub fn pop_at(&mut self, end_ns: u64) {
        let index = self.open.pop().expect("pop without push");
        self.spans[index].end_ns = end_ns;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// TSV of every span: `index, parent, point, name, start_ns, end_ns`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("index\tparent\tpoint\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.point, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time (ns) per span name over `spans[from..]`: each span's duration
/// minus the durations of its direct children.
pub fn self_time_ns(spans: &[Span], from: usize) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in &spans[from..] {
        if let Some(parent) = s.parent {
            child_ns[parent] += s.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().skip(from) {
        *out.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(child_ns[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut r = Recorder::default();
        r.set_point(7);
        r.push("point", 0, 0); //          0..100
        r.push("sim.dense_point", 10, 0); // 10..60
        r.push("inner", 20, 0); //         20..30
        r.pop_at(30);
        r.pop_at(60);
        r.push("sim.oracle_point", 60, 0); // 60..90
        r.pop_at(90);
        r.pop_at(100);
        r.push("point", 100, 0); //        100..105, no children
        r.pop_at(105);

        let spans = r.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert_eq!(spans[4].parent, None);
        assert!(spans[..4].iter().all(|s| s.point == 7));

        let self_ns = self_time_ns(spans, 0);
        assert_eq!(self_ns["point"], (100 - 50 - 30) + 5);
        assert_eq!(self_ns["sim.dense_point"], 50 - 10);
        assert_eq!(self_ns["inner"], 10);
        assert_eq!(self_ns["sim.oracle_point"], 30);
        // Self times partition the root spans' total duration.
        assert_eq!(self_ns.values().sum::<u64>(), 105);

        // A window starting mid-way ignores earlier spans entirely.
        let tail = self_time_ns(spans, 4);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail["point"], 5);
    }

    #[test]
    fn live_spans_nest_and_serialize() {
        let mut r = Recorder::default();
        let v = r.span("outer", || 3);
        assert_eq!(v, 3);
        r.enter("a");
        r.span("b", || ());
        r.exit();
        assert_eq!(r.len(), 3);
        assert_eq!(r.spans()[2].parent, Some(1));
        let tsv = r.to_tsv();
        assert_eq!(tsv.lines().count(), 4);
        assert!(tsv.lines().nth(3).unwrap().starts_with("2\t1\t0\tb\t"));
    }
}
