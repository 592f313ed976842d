//! The compact Chrome-trace store and the borrow-keyed metrics fold must
//! export exactly the bytes of the straightforward implementations they
//! replace: owned `ChromeEvent` records (strings and a `BTreeMap` of
//! arguments per event) cloned, stably sorted and serialized, and a
//! metrics fold keyed by freshly built `(String, String)` tuples and
//! `format!`ed counter names. Both references are kept here, in test
//! code, and fed the same random event streams as the real sinks —
//! awkward strings, duplicate argument keys, non-finite values, timestamp
//! ties across tracks, interleaved metadata, and streams split across
//! per-job sinks and then absorbed/merged.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::rc::Rc;
use transpim_obs::{
    ArgValue, ChromeEvent, ChromeTraceSink, CounterEvent, FanoutSink, InstantEvent, MetricsSink,
    Sink, SinkHandle, SpanEvent, TrackId,
};

// ---------------------------------------------------------------------------
// Reference implementations
// ---------------------------------------------------------------------------

fn ref_write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn ref_write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Owned-record trace sink: every event becomes a `ChromeEvent`; export
/// clones, sorts and writes.
#[derive(Default)]
struct RefChrome {
    events: Vec<ChromeEvent>,
}

fn owned_args<'a>(args: impl Iterator<Item = (&'a str, ArgValue)>) -> BTreeMap<String, ArgValue> {
    args.map(|(k, v)| (k.to_owned(), v)).collect()
}

impl RefChrome {
    fn record(&mut self, name: &str, cat: &str, ph: &str, ts: f64, dur: Option<f64>, tid: u64) {
        self.events.push(ChromeEvent {
            name: name.to_owned(),
            cat: cat.to_owned(),
            ph: ph.to_owned(),
            ts,
            dur,
            pid: 1,
            tid,
            args: BTreeMap::new(),
        });
    }

    fn absorb(&mut self, other: RefChrome) {
        self.events.extend(other.events);
    }

    fn to_json_string(&self) -> String {
        let mut events = self.events.clone();
        events.sort_by(|a, b| {
            let meta = |e: &ChromeEvent| u8::from(e.ph != "M");
            meta(a)
                .cmp(&meta(b))
                .then(a.ts.partial_cmp(&b.ts).unwrap_or(std::cmp::Ordering::Equal))
                .then(a.tid.cmp(&b.tid))
        });
        let mut out = String::from("[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            ref_write_str(&mut out, &e.name);
            out.push_str(",\"cat\":");
            ref_write_str(&mut out, &e.cat);
            out.push_str(",\"ph\":");
            ref_write_str(&mut out, &e.ph);
            out.push_str(",\"ts\":");
            ref_write_f64(&mut out, e.ts);
            if let Some(dur) = e.dur {
                out.push_str(",\"dur\":");
                ref_write_f64(&mut out, dur);
            }
            let _ = write!(out, ",\"pid\":{},\"tid\":{}", e.pid, e.tid);
            if !e.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (key, value)) in e.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    ref_write_str(&mut out, key);
                    out.push(':');
                    match value {
                        ArgValue::Num(n) => ref_write_f64(&mut out, *n),
                        ArgValue::Str(s) => ref_write_str(&mut out, s),
                    }
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push(']');
        out
    }
}

impl Sink for RefChrome {
    fn span(&mut self, e: &SpanEvent<'_>) {
        self.record(
            &e.name,
            &e.category,
            "X",
            e.start_ns / 1000.0,
            Some(e.dur_ns / 1000.0),
            e.track.0,
        );
        self.events.last_mut().unwrap().args =
            owned_args(e.args.iter().map(|(k, v)| (k, v.clone())));
    }

    fn instant(&mut self, e: &InstantEvent<'_>) {
        self.record(&e.name, &e.category, "i", e.ts_ns / 1000.0, None, e.track.0);
        self.events.last_mut().unwrap().args =
            owned_args(e.args.iter().map(|(k, v)| (k, v.clone())));
    }

    fn counter(&mut self, e: &CounterEvent<'_>) {
        self.record(&e.name, "counter", "C", e.ts_ns / 1000.0, None, e.track.0);
        self.events.last_mut().unwrap().args =
            owned_args(e.values.iter().map(|(k, v)| (k, ArgValue::Num(*v))));
    }

    fn track_name(&mut self, track: TrackId, name: &str) {
        self.record("thread_name", "__metadata", "M", 0.0, None, track.0);
        self.events.last_mut().unwrap().args =
            owned_args(std::iter::once(("name", ArgValue::Str(name.to_owned()))));
    }
}

#[derive(Default, Clone)]
struct RefAccum {
    count: u64,
    total_ns: f64,
    arg_sums: BTreeMap<String, f64>,
}

/// Tuple-keyed metrics fold with a fresh key per event.
#[derive(Default)]
struct RefMetrics {
    spans: BTreeMap<(String, String), RefAccum>,
    counters: BTreeMap<String, f64>,
    instants: BTreeMap<String, u64>,
    extra: BTreeMap<String, f64>,
}

impl RefMetrics {
    fn merge(&mut self, other: RefMetrics) {
        for (key, incoming) in other.spans {
            let a = self.spans.entry(key).or_default();
            a.count += incoming.count;
            a.total_ns += incoming.total_ns;
            for (arg, sum) in incoming.arg_sums {
                *a.arg_sums.entry(arg).or_default() += sum;
            }
        }
        for (name, value) in other.counters {
            self.counters.insert(name, value);
        }
        for (name, count) in other.instants {
            *self.instants.entry(name).or_default() += count;
        }
        for (key, value) in other.extra {
            self.extra.insert(key, value);
        }
    }

    fn to_flat(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for ((category, name), a) in &self.spans {
            let base = format!("span.{category}.{name}");
            out.insert(format!("{base}.count"), a.count as f64);
            out.insert(format!("{base}.total_ns"), a.total_ns);
            for (arg, sum) in &a.arg_sums {
                out.insert(format!("{base}.{arg}"), *sum);
            }
        }
        for (name, value) in &self.counters {
            out.insert(format!("counter.{name}"), *value);
        }
        for (name, count) in &self.instants {
            out.insert(format!("event.{name}.count"), *count as f64);
        }
        for (key, value) in &self.extra {
            out.insert(key.clone(), *value);
        }
        out
    }

    fn to_json_string(&self) -> String {
        let flat = self.to_flat();
        let mut out = String::from("{");
        for (i, (key, value)) in flat.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  ");
            ref_write_str(&mut out, key);
            out.push_str(": ");
            ref_write_f64(&mut out, *value);
        }
        if !flat.is_empty() {
            out.push('\n');
        }
        out.push('}');
        out
    }

    fn to_csv_string(&self) -> String {
        let mut out = String::from("metric,value\n");
        for (k, v) in self.to_flat() {
            out.push_str(&format!("{k},{v}\n"));
        }
        out
    }
}

impl Sink for RefMetrics {
    fn span(&mut self, e: &SpanEvent<'_>) {
        let a = self.spans.entry((e.category.to_string(), e.name.to_string())).or_default();
        a.count += 1;
        a.total_ns += e.dur_ns;
        for (key, value) in e.args.iter() {
            if let ArgValue::Num(v) = value {
                *a.arg_sums.entry(key.to_owned()).or_default() += v;
            }
        }
    }

    fn instant(&mut self, e: &InstantEvent<'_>) {
        *self.instants.entry(e.name.to_string()).or_default() += 1;
    }

    fn counter(&mut self, e: &CounterEvent<'_>) {
        for (series, value) in e.values.iter() {
            self.counters.insert(format!("{}.{series}", e.name), *value);
        }
    }
}

// ---------------------------------------------------------------------------
// Random event streams
// ---------------------------------------------------------------------------

/// Labels that stress escaping, key collisions (`a.b` + `c` vs `a` +
/// `b.c`) and the keys the sinks themselves use.
const LABELS: &[&str] = &[
    "fc",
    "enc.attn",
    "a",
    "a.b",
    "b.c",
    "c",
    "",
    "count",
    "total_ns",
    "name",
    "quote\"d",
    "back\\slash",
    "ctl\u{1}\n\t\u{8}\u{c}\r\u{1f}",
    "µs ✓ 日本",
    "emoji 🦀",
    "busy_frac",
];

fn label(rng: &mut StdRng) -> String {
    if rng.gen_range(0u32..4) > 0 {
        return LABELS[rng.gen_range(0..LABELS.len())].to_owned();
    }
    const CHARS: &[char] = &['x', 'y', '.', '"', '\\', '\n', '\u{7}', 'é', '✓', ' '];
    (0..rng.gen_range(0usize..6)).map(|_| CHARS[rng.gen_range(0..CHARS.len())]).collect()
}

fn number(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u32..10) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 5e-324,
        5 => 1.0e300,
        6 => f64::from(rng.gen_range(0u32..1000)),
        _ => rng.gen_range(-1.0e6f64..1.0e6),
    }
}

/// Timestamps from a small set, so ties across tracks are common.
fn timestamp(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u32..8) {
        0 => f64::INFINITY,
        1 => f64::NEG_INFINITY,
        2 => -0.0,
        n => f64::from(n) * 250.5,
    }
}

fn track(rng: &mut StdRng) -> TrackId {
    TrackId(rng.gen_range(0u64..5))
}

fn arg_value(rng: &mut StdRng) -> ArgValue {
    if rng.gen_range(0u32..5) == 0 {
        ArgValue::Str(label(rng))
    } else {
        ArgValue::Num(number(rng))
    }
}

enum Op {
    Span(SpanEvent<'static>),
    Instant(InstantEvent<'static>),
    Counter(CounterEvent<'static>),
    TrackName(TrackId, String),
    Metric(String, f64),
}

fn random_op(rng: &mut StdRng) -> Op {
    let nargs = rng.gen_range(0usize..9);
    match rng.gen_range(0u32..10) {
        0..=3 => {
            let mut e =
                SpanEvent::new(label(rng), label(rng), track(rng), timestamp(rng), number(rng));
            for _ in 0..nargs {
                e = e.with_arg(label(rng), arg_value(rng));
            }
            Op::Span(e)
        }
        4 | 5 => {
            let mut e = InstantEvent::new(label(rng), label(rng), track(rng), timestamp(rng));
            for _ in 0..nargs {
                e = e.with_arg(label(rng), arg_value(rng));
            }
            Op::Instant(e)
        }
        6 | 7 => {
            let mut e = CounterEvent::sample(
                label(rng),
                track(rng),
                timestamp(rng),
                label(rng),
                number(rng),
            );
            for _ in 1..nargs {
                e.values.push(label(rng), number(rng));
            }
            Op::Counter(e)
        }
        8 => Op::TrackName(track(rng), label(rng)),
        _ => Op::Metric(label(rng), number(rng)),
    }
}

/// One job's sinks: the real pair and the reference pair, all fed through
/// one fan-out handle.
struct Job {
    chrome: Rc<RefCell<ChromeTraceSink>>,
    metrics: Rc<RefCell<MetricsSink>>,
    ref_chrome: Rc<RefCell<RefChrome>>,
    ref_metrics: Rc<RefCell<RefMetrics>>,
    sink: SinkHandle,
}

impl Job {
    fn new() -> Self {
        let chrome = ChromeTraceSink::shared();
        let metrics = MetricsSink::shared();
        let ref_chrome = Rc::new(RefCell::new(RefChrome::default()));
        let ref_metrics = Rc::new(RefCell::new(RefMetrics::default()));
        let sink = SinkHandle::new(FanoutSink::new(vec![
            SinkHandle::from_shared(chrome.clone()),
            SinkHandle::from_shared(metrics.clone()),
            SinkHandle::from_shared(ref_chrome.clone()),
            SinkHandle::from_shared(ref_metrics.clone()),
        ]));
        Self { chrome, metrics, ref_chrome, ref_metrics, sink }
    }

    fn apply(&self, op: &Op) {
        match op {
            Op::Span(e) => self.sink.span(e.clone()),
            Op::Instant(e) => self.sink.instant(e.clone()),
            Op::Counter(e) => self.sink.counter(e.clone()),
            Op::TrackName(t, name) => self.sink.track_name(*t, name),
            Op::Metric(key, v) => {
                self.metrics.borrow_mut().push_metric(key.clone(), *v);
                self.ref_metrics.borrow_mut().extra.insert(key.clone(), *v);
            }
        }
    }

    fn into_parts(self) -> (ChromeTraceSink, MetricsSink, RefChrome, RefMetrics) {
        drop(self.sink);
        (own(self.chrome), own(self.metrics), own(self.ref_chrome), own(self.ref_metrics))
    }
}

fn own<T>(rc: Rc<RefCell<T>>) -> T {
    Rc::try_unwrap(rc).ok().expect("sole owner").into_inner()
}

fn assert_same_documents(
    chrome: &ChromeTraceSink,
    metrics: &MetricsSink,
    ref_chrome: &RefChrome,
    ref_metrics: &RefMetrics,
) -> Result<(), TestCaseError> {
    let want = ref_chrome.to_json_string();
    prop_assert_eq!(&chrome.to_json_string().unwrap(), &want);
    let mut streamed = Vec::new();
    chrome.write_json(&mut streamed).unwrap();
    prop_assert_eq!(&String::from_utf8(streamed).unwrap(), &want);
    prop_assert_eq!(chrome.len(), ref_chrome.events.len());
    prop_assert_eq!(metrics.to_json_string().unwrap(), ref_metrics.to_json_string());
    prop_assert_eq!(metrics.to_csv_string(), ref_metrics.to_csv_string());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn compact_exporters_match_reference_bytes(
        seed in 0u64..(1u64 << 32),
        len in 0usize..160,
        splits in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ops: Vec<Op> = (0..len).map(|_| random_op(&mut rng)).collect();

        // One shared sink over the whole stream.
        let whole = Job::new();
        ops.iter().for_each(|op| whole.apply(op));
        let (chrome, metrics, ref_chrome, ref_metrics) = whole.into_parts();
        assert_same_documents(&chrome, &metrics, &ref_chrome, &ref_metrics)?;

        // The same stream split across per-job sinks, absorbed and merged
        // in submission order.
        let mut cuts: Vec<usize> = (1..splits).map(|_| rng.gen_range(0..len + 1)).collect();
        cuts.sort_unstable();
        cuts.insert(0, 0);
        cuts.push(len);
        let mut merged = (
            ChromeTraceSink::new(),
            MetricsSink::new(),
            RefChrome::default(),
            RefMetrics::default(),
        );
        for w in cuts.windows(2) {
            let job = Job::new();
            ops[w[0]..w[1]].iter().for_each(|op| job.apply(op));
            let (c, m, rc, rm) = job.into_parts();
            merged.0.absorb(c);
            merged.1.merge(m);
            merged.2.absorb(rc);
            merged.3.merge(rm);
        }
        assert_same_documents(&merged.0, &merged.1, &merged.2, &merged.3)?;
    }
}

#[test]
fn streamed_file_matches_in_memory_document() {
    let mut rng = StdRng::seed_from_u64(7);
    let job = Job::new();
    for _ in 0..500 {
        job.apply(&random_op(&mut rng));
    }
    let (chrome, ..) = job.into_parts();
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("obs_export_trace.json");
    chrome.write_to(&path).unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), chrome.to_json_string().unwrap());
}
