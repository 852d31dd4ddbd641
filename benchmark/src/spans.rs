//! Benchmark-side spans: timed from outside, around calls into the
//! program's public functions. Kept in memory; written out when the
//! run ends.

use std::time::Instant;

use crate::json::Value;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (0-based) all spans of one op share.
    pub op: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records a tree of spans on one thread through `enter`/`exit` pairs.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: usize) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one; returns
    /// its duration in milliseconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].dur_ns() as f64 / 1e6
    }

    /// Times `f` as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, op: usize, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// Appends the closed spans of a recorder created later, on this
    /// recorder's clock.
    pub fn absorb(&mut self, later: Recorder) {
        assert!(later.open.is_empty(), "absorbed recorder has open spans");
        let shift = later
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        let base = self.spans.len();
        self.spans.extend(later.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        // Not `sum()`: an empty f64 sum is -0.0, which prints as "-0".
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.dur_ns() as f64 / 1e6)
    }

    /// The spans as a JSON array, each with its self time.
    pub fn to_json(&self) -> Value {
        let selfs = self_times_ns(&self.spans);
        Value::Arr(
            self.spans
                .iter()
                .zip(selfs)
                .map(|(s, self_ns)| {
                    Value::obj([
                        ("name", Value::Str(s.name.into())),
                        ("op", Value::Num(s.op as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("start_ms", Value::Num(s.start_ns as f64 / 1e6)),
                        ("dur_ms", Value::Num(s.dur_ns() as f64 / 1e6)),
                        ("self_ms", Value::Num(self_ns as f64 / 1e6)),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the part its direct children
/// cover. Children of one parent never overlap here (one thread, strict
/// nesting), so their cover is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] = selfs[p].saturating_sub(s.dur_ns());
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        // op: 100 - (30 + 40); a: 30 - 10; leaves keep their duration.
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn recorder_nests_and_orders_spans() {
        let mut r = Recorder::new();
        let op = r.enter("op", 3);
        let got = r.time("leaf", 3, || 7);
        assert_eq!(got, 7);
        r.exit(op);
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent, s[1].op), (None, Some(0), 3));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(r.total_ms("op") >= r.total_ms("leaf"));
    }

    #[test]
    fn absorb_rebases_parents_and_clock() {
        let mut first = Recorder::new();
        first.time("a", 0, || ());
        let mut later = Recorder::new();
        let op = later.enter("op", 1);
        later.time("b", 1, || ());
        later.exit(op);
        first.absorb(later);
        let s = first.spans();
        assert_eq!(
            s.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["a", "op", "b"]
        );
        assert_eq!((s[1].parent, s[2].parent), (None, Some(1)));
        assert!(
            s[0].end_ns <= s[1].start_ns,
            "later spans land after earlier ones"
        );
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn recorder_rejects_crossed_exits() {
        let mut r = Recorder::new();
        let a = r.enter("a", 0);
        let _b = r.enter("b", 0);
        r.exit(a);
    }
}
