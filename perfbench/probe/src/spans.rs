//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into the simulator's public API, kept
//! in memory, and written once when the run ends. Each span carries its
//! name, start and end (nanoseconds since the recorder was created), the
//! index of its parent span, and the id of the request it belongs to.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: usize,
}

impl Recorder {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), request: 0 }
    }

    /// Spans recorded from now on belong to request `id`.
    pub fn set_request(&mut self, id: usize) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request: self.request });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration_ns();
        }
    }
    own
}

/// Self time summed per `(request, name)`.
pub fn self_time_by_request(spans: &[Span]) -> BTreeMap<(usize, &'static str), u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry((s.request, s.name)).or_insert(0) += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0, 100) ⊃ compile [10, 30), price [30, 90) ⊃ replay [40, 70)
        let spans = vec![
            span("request", 0, 100, None),
            span("compile", 10, 30, Some(0)),
            span("price", 30, 90, Some(0)),
            span("replay", 40, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 30, 30]);
    }

    #[test]
    fn self_time_sums_repeated_names_within_a_request() {
        let mut spans = vec![
            span("request", 0, 50, None),
            span("fault.session", 0, 5, Some(0)),
            span("fault.session", 20, 27, Some(0)),
        ];
        spans.push(Span { request: 1, ..span("request", 60, 70, None) });
        let by = self_time_by_request(&spans);
        assert_eq!(by[&(0, "fault.session")], 12);
        assert_eq!(by[&(0, "request")], 38);
        assert_eq!(by[&(1, "request")], 10);
    }

    #[test]
    fn recorder_nests_and_closes_spans() {
        let mut rec = Recorder::new();
        rec.set_request(3);
        let value = rec.span("outer", |rec| rec.span("inner", |_| 7));
        assert_eq!(value, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(rec.to_json().contains("\"name\":\"inner\""));
    }
}
