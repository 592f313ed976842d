//! Chrome-tracing / Perfetto JSON sink.
//!
//! Produces the JSON-array flavor of the [trace-event format] that
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly: complete spans (`ph: "X"`), instants (`ph: "i"`), counters
//! (`ph: "C"`), and thread-name metadata (`ph: "M"`). Timestamps are
//! exported in microseconds, in non-decreasing order.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::event::{ArgValue, CounterEvent, InstantEvent, SpanEvent, TrackId};
use crate::json;
use crate::sink::Sink;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::rc::Rc;

/// One trace-event-format record, as exported (see
/// [`ChromeTraceSink::sorted_events`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChromeEvent {
    /// Event name.
    pub name: String,
    /// Comma-separated category list.
    pub cat: String,
    /// Phase: `X` (complete), `i` (instant), `C` (counter), `M` (metadata).
    pub ph: String,
    /// Timestamp in microseconds.
    pub ts: f64,
    /// Duration in microseconds (complete spans only).
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub dur: Option<f64>,
    /// Process id (the simulator is one process).
    pub pid: u32,
    /// Thread id — the [`TrackId`] of the emitting timeline.
    pub tid: u64,
    /// Event arguments.
    #[serde(skip_serializing_if = "BTreeMap::is_empty", default)]
    pub args: BTreeMap<String, ArgValue>,
}

const PID: u32 = 1;
const NS_PER_US: f64 = 1000.0;

/// Trace-event phase of a stored record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ph {
    Complete,
    Instant,
    Counter,
    Metadata,
}

impl Ph {
    fn as_str(self) -> &'static str {
        match self {
            Ph::Complete => "X",
            Ph::Instant => "i",
            Ph::Counter => "C",
            Ph::Metadata => "M",
        }
    }
}

/// A stored argument value; strings are ids into the sink's string table.
#[derive(Debug, Clone, Copy)]
enum Val {
    Num(f64),
    Str(u32),
}

/// One trace event as stored: strings are interned ids and the arguments
/// are a range of the sink's shared argument arena.
#[derive(Debug, Clone, Copy)]
struct Record {
    ts: f64,
    /// Duration in microseconds; exported for [`Ph::Complete`] only.
    dur: f64,
    tid: u64,
    name: u32,
    cat: u32,
    args_start: u32,
    args_len: u32,
    ph: Ph,
}

/// Deduplicating string table: every distinct name, category, argument
/// key and string argument is stored once.
#[derive(Debug, Default)]
struct Strings {
    ids: HashMap<Box<str>, u32>,
    strs: Vec<Box<str>>,
}

impl Strings {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = u32::try_from(self.strs.len()).expect("fewer than 2^32 distinct trace strings");
        self.strs.push(s.into());
        self.ids.insert(s.into(), id);
        id
    }

    fn get(&self, id: u32) -> &str {
        &self.strs[id as usize]
    }
}

/// Sink that accumulates trace-event records and serializes them as one
/// JSON array. Costs memory proportional to the event count; attach it only
/// when a trace was requested.
///
/// Records are stored compactly — interned strings, the phase as an enum,
/// arguments in one shared arena kept sorted by key — so once its strings
/// have been seen, an event costs no allocation beyond the amortized growth
/// of the record and argument vectors. Export sorts a
/// permutation of record indices and streams the document; the bytes are
/// exactly those of serializing [`sorted_events`](Self::sorted_events).
#[derive(Debug, Default)]
pub struct ChromeTraceSink {
    records: Vec<Record>,
    args: Vec<(u32, Val)>,
    strings: Strings,
}

impl ChromeTraceSink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty sink behind the shared handle plumbing: keep the returned
    /// `Rc` to read the trace back after the run, and pass
    /// `SinkHandle::from_shared(rc.clone())` to the simulation.
    pub fn shared() -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(Self::new()))
    }

    /// Append another sink's events after this one's.
    ///
    /// Absorbing per-job sinks **in submission order** reproduces the
    /// event sequence one shared sink would have recorded from a serial
    /// run: [`sorted_events`](Self::sorted_events) sorts stably, so
    /// records with equal `(ts, tid)` keep their append order.
    pub fn absorb(&mut self, other: ChromeTraceSink) {
        let ids: Vec<u32> = other.strings.strs.iter().map(|s| self.strings.intern(s)).collect();
        let offset = self.args.len();
        u32::try_from(offset + other.args.len()).expect("fewer than 2^32 trace arguments");
        let offset = offset as u32;
        self.args.extend(other.args.into_iter().map(|(key, val)| {
            let val = match val {
                Val::Str(s) => Val::Str(ids[s as usize]),
                num => num,
            };
            (ids[key as usize], val)
        }));
        self.records.extend(other.records.into_iter().map(|r| Record {
            name: ids[r.name as usize],
            cat: ids[r.cat as usize],
            args_start: r.args_start + offset,
            ..r
        }));
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Record indices in export order: metadata first, then by timestamp,
    /// then by track; the sort is stable, so ties keep append order.
    fn export_order(&self) -> Vec<u32> {
        let n = u32::try_from(self.records.len()).expect("fewer than 2^32 trace records");
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let (a, b) = (&self.records[a as usize], &self.records[b as usize]);
            let meta = |r: &Record| u8::from(r.ph != Ph::Metadata);
            meta(a)
                .cmp(&meta(b))
                .then(a.ts.partial_cmp(&b.ts).unwrap_or(std::cmp::Ordering::Equal))
                .then(a.tid.cmp(&b.tid))
        });
        order
    }

    fn record_args(&self, r: &Record) -> &[(u32, Val)] {
        let start = r.args_start as usize;
        &self.args[start..start + r.args_len as usize]
    }

    /// The recorded events, sorted by timestamp (then track), with
    /// metadata records first.
    pub fn sorted_events(&self) -> Vec<ChromeEvent> {
        self.export_order()
            .into_iter()
            .map(|i| {
                let r = &self.records[i as usize];
                ChromeEvent {
                    name: self.strings.get(r.name).to_owned(),
                    cat: self.strings.get(r.cat).to_owned(),
                    ph: r.ph.as_str().to_owned(),
                    ts: r.ts,
                    dur: (r.ph == Ph::Complete).then_some(r.dur),
                    pid: PID,
                    tid: r.tid,
                    args: self
                        .record_args(r)
                        .iter()
                        .map(|&(key, val)| {
                            let val = match val {
                                Val::Num(n) => ArgValue::Num(n),
                                Val::Str(s) => ArgValue::Str(self.strings.get(s).to_owned()),
                            };
                            (self.strings.get(key).to_owned(), val)
                        })
                        .collect(),
                }
            })
            .collect()
    }

    /// Append one record as a trace-event JSON object (the shape the serde
    /// derive of [`ChromeEvent`] produces: optional fields omitted when
    /// empty).
    fn write_record(&self, r: &Record, out: &mut String) {
        use std::fmt::Write;
        out.push_str("{\"name\":");
        json::write_str(out, self.strings.get(r.name));
        out.push_str(",\"cat\":");
        json::write_str(out, self.strings.get(r.cat));
        out.push_str(",\"ph\":\"");
        out.push_str(r.ph.as_str());
        out.push_str("\",\"ts\":");
        json::write_f64(out, r.ts);
        if r.ph == Ph::Complete {
            out.push_str(",\"dur\":");
            json::write_f64(out, r.dur);
        }
        let _ = write!(out, ",\"pid\":{PID},\"tid\":{}", r.tid);
        let args = self.record_args(r);
        if !args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, &(key, val)) in args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_str(out, self.strings.get(key));
                out.push(':');
                match val {
                    Val::Num(n) => json::write_f64(out, n),
                    Val::Str(s) => json::write_str(out, self.strings.get(s)),
                }
            }
            out.push('}');
        }
        out.push('}');
    }

    /// Stream the trace as a JSON array document to `w`, one record at a
    /// time (wrap files in a [`BufWriter`]).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_json(&self, w: &mut impl Write) -> Result<(), crate::ObsError> {
        let mut line = String::with_capacity(256);
        w.write_all(b"[")?;
        for (i, idx) in self.export_order().into_iter().enumerate() {
            line.clear();
            if i > 0 {
                line.push(',');
            }
            self.write_record(&self.records[idx as usize], &mut line);
            w.write_all(line.as_bytes())?;
        }
        w.write_all(b"]")?;
        Ok(())
    }

    /// Serialize the trace as a JSON array document in memory.
    ///
    /// # Errors
    ///
    /// Reserved for fallible exporters; writing to memory always returns
    /// `Ok`.
    pub fn to_json_string(&self) -> Result<String, crate::ObsError> {
        let mut out = Vec::with_capacity(self.records.len() * 96 + 2);
        self.write_json(&mut out)?;
        Ok(String::from_utf8(out).expect("the JSON writer emits UTF-8"))
    }

    /// Serialize and write the trace to `path`.
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O failures.
    pub fn write_to(&self, path: impl AsRef<std::path::Path>) -> Result<(), crate::ObsError> {
        let mut w = BufWriter::new(File::create(path)?);
        self.write_json(&mut w)?;
        w.flush()?;
        Ok(())
    }

    /// Append one record and return it (spans then set their duration).
    /// Arguments are inserted into the record's arena range in key order;
    /// a repeated key overwrites the earlier value, as collecting into a
    /// `BTreeMap` does.
    fn push<'v>(
        &mut self,
        ph: Ph,
        name: &str,
        cat: &str,
        ts: f64,
        tid: u64,
        args: impl Iterator<Item = (&'v str, ArgRef<'v>)>,
    ) -> &mut Record {
        let name = self.strings.intern(name);
        let cat = self.strings.intern(cat);
        let start = self.args.len();
        for (key, value) in args {
            let val = match value {
                ArgRef::Num(n) => Val::Num(n),
                ArgRef::Str(s) => Val::Str(self.strings.intern(s)),
            };
            let strings = &self.strings;
            match self.args[start..].binary_search_by(|&(k, _)| strings.get(k).cmp(key)) {
                Ok(i) => self.args[start + i].1 = val,
                Err(i) => {
                    let key = self.strings.intern(key);
                    self.args.insert(start + i, (key, val));
                }
            }
        }
        self.records.push(Record {
            ts,
            dur: 0.0,
            tid,
            name,
            cat,
            args_start: u32::try_from(start).expect("fewer than 2^32 trace arguments"),
            args_len: (self.args.len() - start) as u32,
            ph,
        });
        self.records.last_mut().expect("just pushed")
    }
}

/// A borrowed argument value on its way into the arena.
#[derive(Clone, Copy)]
enum ArgRef<'v> {
    Num(f64),
    Str(&'v str),
}

impl<'v> From<&'v ArgValue> for ArgRef<'v> {
    fn from(v: &'v ArgValue) -> Self {
        match v {
            ArgValue::Num(n) => ArgRef::Num(*n),
            ArgValue::Str(s) => ArgRef::Str(s),
        }
    }
}

impl Sink for ChromeTraceSink {
    fn span(&mut self, event: &SpanEvent<'_>) {
        let args = event.args.iter().map(|(k, v)| (k, v.into()));
        let ts = event.start_ns / NS_PER_US;
        self.push(Ph::Complete, &event.name, &event.category, ts, event.track.0, args).dur =
            event.dur_ns / NS_PER_US;
    }

    fn instant(&mut self, event: &InstantEvent<'_>) {
        let args = event.args.iter().map(|(k, v)| (k, v.into()));
        let ts = event.ts_ns / NS_PER_US;
        self.push(Ph::Instant, &event.name, &event.category, ts, event.track.0, args);
    }

    fn counter(&mut self, event: &CounterEvent<'_>) {
        let args = event.values.iter().map(|(k, v)| (k, ArgRef::Num(*v)));
        let ts = event.ts_ns / NS_PER_US;
        self.push(Ph::Counter, &event.name, "counter", ts, event.track.0, args);
    }

    fn track_name(&mut self, track: TrackId, name: &str) {
        let args = std::iter::once(("name", ArgRef::Str(name)));
        self.push(Ph::Metadata, "thread_name", "__metadata", 0.0, track.0, args);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled() -> ChromeTraceSink {
        let mut s = ChromeTraceSink::new();
        s.track_name(TrackId(2), "arithmetic");
        s.span(
            &SpanEvent::new("fc", "arithmetic", TrackId(2), 2000.0, 1000.0)
                .with_arg("energy_pj", 7.0),
        );
        s.span(&SpanEvent::new("attn", "data-movement", TrackId(1), 0.0, 2000.0));
        s.counter(&CounterEvent::sample("util", TrackId(3), 500.0, "busy", 0.25));
        s.instant(&InstantEvent::new("mark", "ring", TrackId(4), 1500.0));
        s
    }

    #[test]
    fn exports_parseable_sorted_json() {
        let s = filled();
        let json = s.to_json_string().unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = v.as_array().unwrap();
        assert_eq!(events.len(), 5);
        // Metadata first, then non-decreasing timestamps.
        assert_eq!(events[0]["ph"], "M");
        let ts: Vec<f64> = events[1..].iter().map(|e| e["ts"].as_f64().unwrap()).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "timestamps must be sorted: {ts:?}");
    }

    #[test]
    fn span_units_are_microseconds() {
        let s = filled();
        let events = s.sorted_events();
        let fc = events.iter().find(|e| e.name == "fc").unwrap();
        assert_eq!(fc.ts, 2.0);
        assert_eq!(fc.dur, Some(1.0));
        assert_eq!(fc.args["energy_pj"], ArgValue::Num(7.0));
    }

    #[test]
    fn roundtrips_through_serde() {
        let s = filled();
        let json = s.to_json_string().unwrap();
        let back: Vec<ChromeEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s.sorted_events());
    }

    #[test]
    fn absorbing_split_streams_matches_one_shared_sink() {
        let mut first = ChromeTraceSink::new();
        first.track_name(TrackId(2), "arithmetic");
        first.span(
            &SpanEvent::new("fc", "arithmetic", TrackId(2), 2000.0, 1000.0)
                .with_arg("energy_pj", 7.0),
        );
        let mut second = ChromeTraceSink::new();
        second.span(&SpanEvent::new("attn", "data-movement", TrackId(1), 0.0, 2000.0));
        second.counter(&CounterEvent::sample("util", TrackId(3), 500.0, "busy", 0.25));
        second.instant(&InstantEvent::new("mark", "ring", TrackId(4), 1500.0));

        let mut merged = ChromeTraceSink::new();
        merged.absorb(first);
        merged.absorb(second);
        assert_eq!(merged.to_json_string().unwrap(), filled().to_json_string().unwrap());
    }

    #[test]
    fn empty_trace_is_an_empty_array() {
        assert_eq!(ChromeTraceSink::new().to_json_string().unwrap(), "[]");
    }
}
