//! The event model: spans, instants, and counters on named tracks.
//!
//! Times are nanoseconds of *simulated* time since simulation start —
//! observability describes the machine being modeled, not the host running
//! the model. Sinks translate units as their format requires (the Chrome
//! sink exports microseconds, per the trace-event spec).

use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Identifier of one timeline row ("thread" in Chrome-trace terms).
///
/// Emitters pick the layout; the simulator reserves low ids for breakdown
/// categories, one row for ring-broadcast hops, and a range for per-bank
/// hop occupancy (see `transpim_hbm::engine::tracks`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct TrackId(pub u64);

impl TrackId {
    /// The default track for emitters that do not care about placement.
    pub const DEFAULT: TrackId = TrackId(0);
}

/// One argument value attached to an event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
pub enum ArgValue {
    /// Numeric payload (energies, byte counts, utilizations).
    Num(f64),
    /// String payload (labels, resource names).
    Str(String),
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::Num(v)
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::Num(v as f64)
    }
}

impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::Num(f64::from(v))
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_owned())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// Key of an event argument or counter series. Emitters pass static
/// labels, which cost nothing to attach.
pub type Key = Cow<'static, str>;

/// Arguments stored inline before [`ArgList`] spills to the heap; the
/// simulator's emitters attach at most five.
const INLINE_ARGS: usize = 6;

/// Ordered `(key, value)` list attached to an event: the first
/// [`INLINE_ARGS`] entries live inline, so building an event with a few
/// arguments allocates nothing. Duplicate keys are kept in push order;
/// sinks decide how to fold them.
#[derive(Debug, Clone, PartialEq)]
pub struct ArgList<V> {
    inline: [Option<(Key, V)>; INLINE_ARGS],
    len: usize,
    spill: Vec<(Key, V)>,
}

impl<V> Default for ArgList<V> {
    fn default() -> Self {
        Self { inline: Default::default(), len: 0, spill: Vec::new() }
    }
}

impl<V> ArgList<V> {
    /// Append one entry.
    pub fn push(&mut self, key: impl Into<Key>, value: V) {
        let entry = (key.into(), value);
        match self.inline.get_mut(self.len) {
            Some(slot) => *slot = Some(entry),
            None => self.spill.push(entry),
        }
        self.len += 1;
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries in push order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &V)> {
        self.inline
            .iter()
            .map_while(Option::as_ref)
            .chain(&self.spill)
            .map(|(k, v)| (k.as_ref(), v))
    }
}

/// A complete interval on a track: something that took time.
///
/// Names and categories borrow when they can (`'a` is the emitter's
/// label, e.g. the engine's current scope), so emitting an event copies no
/// strings; sinks that keep events copy or intern what they store.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent<'a> {
    /// Human-readable name (scope label, hop label, op label).
    pub name: Cow<'a, str>,
    /// Category label, matching the breakdown vocabulary of the emitter
    /// (e.g. `data-movement`, `arithmetic`, `ring`).
    pub category: Cow<'a, str>,
    /// Track the span renders on.
    pub track: TrackId,
    /// Start, in simulated nanoseconds.
    pub start_ns: f64,
    /// Duration, in simulated nanoseconds (≥ 0).
    pub dur_ns: f64,
    /// Attached arguments.
    pub args: ArgList<ArgValue>,
}

impl<'a> SpanEvent<'a> {
    /// A span with no arguments.
    pub fn new(
        name: impl Into<Cow<'a, str>>,
        category: impl Into<Cow<'a, str>>,
        track: TrackId,
        start_ns: f64,
        dur_ns: f64,
    ) -> Self {
        Self {
            name: name.into(),
            category: category.into(),
            track,
            start_ns,
            dur_ns,
            args: ArgList::default(),
        }
    }

    /// Attach one argument (builder style).
    pub fn with_arg(mut self, key: impl Into<Key>, value: impl Into<ArgValue>) -> Self {
        self.args.push(key, value.into());
        self
    }
}

/// A point-in-time marker on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct InstantEvent<'a> {
    /// Human-readable name.
    pub name: Cow<'a, str>,
    /// Category label.
    pub category: Cow<'a, str>,
    /// Track the marker renders on.
    pub track: TrackId,
    /// Timestamp, in simulated nanoseconds.
    pub ts_ns: f64,
    /// Attached arguments.
    pub args: ArgList<ArgValue>,
}

impl<'a> InstantEvent<'a> {
    /// An instant with no arguments.
    pub fn new(
        name: impl Into<Cow<'a, str>>,
        category: impl Into<Cow<'a, str>>,
        track: TrackId,
        ts_ns: f64,
    ) -> Self {
        Self {
            name: name.into(),
            category: category.into(),
            track,
            ts_ns,
            args: ArgList::default(),
        }
    }

    /// Attach one argument (builder style).
    pub fn with_arg(mut self, key: impl Into<Key>, value: impl Into<ArgValue>) -> Self {
        self.args.push(key, value.into());
        self
    }
}

/// A sampled counter value series (utilization, occupancy, queue depth).
#[derive(Debug, Clone, PartialEq)]
pub struct CounterEvent<'a> {
    /// Counter series name (one chart per name in trace viewers).
    pub name: Cow<'a, str>,
    /// Track the counter renders on.
    pub track: TrackId,
    /// Sample timestamp, in simulated nanoseconds.
    pub ts_ns: f64,
    /// `(series, value)` samples taken at `ts_ns`.
    pub values: ArgList<f64>,
}

impl<'a> CounterEvent<'a> {
    /// A counter with a single `(series, value)` sample.
    pub fn sample(
        name: impl Into<Cow<'a, str>>,
        track: TrackId,
        ts_ns: f64,
        series: impl Into<Key>,
        value: f64,
    ) -> Self {
        let mut values = ArgList::default();
        values.push(series, value);
        Self { name: name.into(), track, ts_ns, values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_attach_args() {
        let s = SpanEvent::new("fc", "arithmetic", TrackId(2), 1.0, 5.0)
            .with_arg("energy_pj", 10.0)
            .with_arg("label", "a");
        let args: Vec<_> = s.args.iter().collect();
        assert_eq!(
            args,
            [("energy_pj", &ArgValue::Num(10.0)), ("label", &ArgValue::Str("a".into()))]
        );
    }

    #[test]
    fn arg_values_serialize_untagged() {
        let n = serde_json::to_string(&ArgValue::Num(2.5)).unwrap();
        let s = serde_json::to_string(&ArgValue::Str("x".into())).unwrap();
        assert_eq!(n, "2.5");
        assert_eq!(s, "\"x\"");
    }

    #[test]
    fn counter_sample_is_single_series() {
        let c = CounterEvent::sample("util", TrackId::DEFAULT, 3.0, "busy", 0.5);
        assert_eq!(c.values.iter().collect::<Vec<_>>(), [("busy", &0.5)]);
    }

    #[test]
    fn arg_lists_spill_past_the_inline_capacity_in_order() {
        let mut args = ArgList::default();
        for i in 0..INLINE_ARGS + 3 {
            args.push(format!("k{i}"), i);
        }
        assert_eq!(args.len(), INLINE_ARGS + 3);
        let keys: Vec<String> = args.iter().map(|(k, _)| k.to_owned()).collect();
        let want: Vec<String> = (0..INLINE_ARGS + 3).map(|i| format!("k{i}")).collect();
        assert_eq!(keys, want);
        assert!(args.iter().zip(0..).all(|((_, v), i)| *v == i));
    }
}
