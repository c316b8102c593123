//! In-memory span recorder for the harness's own calls into each layer.
//!
//! A span is (name, id, parent, start, end). Spans of one rep — or one
//! request — share an id. Nothing is written until the workload ends.
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    /// Rep (or request) the span belongs to.
    pub id: u32,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans; nesting follows call order (`open` … `close`).
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    id: u32,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            id: 0,
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.t0
    }

    /// Id stamped on spans opened from now on.
    pub fn set_id(&mut self, id: u32) {
        self.id = id;
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn open(&mut self, name: &str) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            id: self.id,
            parent: self.stack.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        idx
    }

    /// Close the innermost open span, which must be `idx`.
    pub fn close(&mut self, idx: usize) {
        let now = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close in LIFO order");
        self.spans[idx].end_ns = now;
    }

    /// Run `f` inside a span and return its result with the span's
    /// duration in seconds.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> (R, f64) {
        let idx = self.open(name);
        let r = f(self);
        self.close(idx);
        (r, self.spans[idx].dur_ns() as f64 / 1e9)
    }

    /// Add a span timed elsewhere (e.g. on the load-generator thread).
    pub fn add(
        &mut self,
        name: &str,
        id: u32,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            id,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `idx` in seconds.
    pub fn secs(&self, idx: usize) -> f64 {
        self.spans[idx].dur_ns() as f64 / 1e9
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                kids[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, k)| {
            k.sort_unstable();
            let (mut covered, mut edge) = (0u64, s.start_ns);
            for &(a, b) in k.iter() {
                let a = a.max(edge);
                if b > a {
                    covered += b - a;
                    edge = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Self time summed per span name, in seconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name.clone()).or_insert(0.0) += ns as f64 / 1e9;
    }
    out
}

/// Share of span `root`'s duration that its descendants account for
/// (1 − root self time / root duration).
pub fn coverage(spans: &[Span], root: usize) -> f64 {
    let dur = spans[root].dur_ns();
    if dur == 0 {
        return 1.0;
    }
    1.0 - self_times_ns(spans)[root] as f64 / dur as f64
}

/// The span file: every span plus self time per name.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut out = format!(
        "{{\"schema\":\"xpass-benchmark-trace/v1\",\"workload\":\"{workload}\",\"spans\":["
    );
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "\n{{\"i\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.name, s.id, s.start_ns, s.end_ns
        ));
    }
    out.push_str("\n],\"self_s_by_name\":{");
    for (i, (name, secs)) in self_time_by_name(spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{secs}"));
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("rep", None, 0, 100),
            span("setup", Some(0), 5, 25),
            span("run", Some(0), 30, 90),
            span("slice", Some(2), 30, 50),
            span("slice", Some(2), 50, 85),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 5, 20, 35]);
        let by = self_time_by_name(&spans);
        assert_eq!(by["slice"], 55e-9);
        assert_eq!(by["run"], 5e-9);
        assert!((coverage(&spans, 0) - 0.8).abs() < 1e-12);
        // Every nanosecond of the root is attributed exactly once.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span("req", None, 10, 60),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 50), // overlaps a by 10
            span("c", Some(0), 55, 80), // overhangs the parent by 20
        ];
        // cover = [10,50) ∪ [55,60) = 45 → self 5
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn recorder_nests_by_call_order() {
        let mut rec = Recorder::new();
        rec.set_id(3);
        let (v, secs) = rec.time("outer", |rec| rec.time("inner", |_| 7).0);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        let s = rec.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(
            (s[0].name.as_str(), s[0].parent, s[0].id),
            ("outer", None, 3)
        );
        assert_eq!((s[1].name.as_str(), s[1].parent), ("inner", Some(0)));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(to_json("w", s).contains("\"self_s_by_name\""));
    }
}
