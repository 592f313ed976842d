//! Lump-accumulating phase engine.
//!
//! The executor in `transpim` prices each dataflow step in closed form as
//! one or two [`Lump`]s, and the engine runs them back to back: the
//! step-synchronous structure of the paper's dataflow (Section III). The
//! one contention effect inside a step, the Figure 9 ring schedule, is
//! priced before it reaches the engine, by the slot scheduler of
//! `transpim-acu`. Each lump is attributed to one breakdown [`Category`],
//! which is how the Figure 11 breakdowns are produced.
//!
//! # Accounting
//!
//! Statistics are exact integer tallies of fixed quanta, so they do not
//! depend on the order lumps are added in, and a repeated pass can be added
//! by multiplication ([`Engine::repeat_since`]).
//!
//! # Observability
//!
//! With an enabled [`SinkHandle`] (`transpim-obs`) attached, every lump is
//! emitted as a span on its category's track of [`tracks`], followed by
//! that category's cumulative busy-fraction counter. With the default
//! (null) handle, the emission path is never entered.

use crate::stats::{Category, ScopedStats, SimStats};
use transpim_obs::{CounterEvent, SinkHandle, SpanEvent};

/// One priced phase whose makespan is known in closed form (every bank runs
/// the same PIM batch, or `n` identical ring steps): the unit the executor
/// prices and the engine runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lump {
    /// Breakdown category of the whole phase.
    pub category: Category,
    /// Phase makespan in nanoseconds, before the engine's latency scale.
    pub latency_ns: f64,
    /// Total energy in picojoules.
    pub energy_pj: f64,
    /// Total bytes moved.
    pub bytes: f64,
}

impl Lump {
    /// A lump of `category` with the given makespan, energy and bytes.
    pub fn new(category: Category, latency_ns: f64, energy_pj: f64, bytes: f64) -> Self {
        Self { category, latency_ns, energy_pj, bytes }
    }
}

/// Track layout of the simulator's trace emission. Keeping the layout in
/// one place means every emitter (the phase engine, the ring scheduler in
/// `transpim-acu`, the executor in `transpim`) lands on consistent
/// timeline rows in a trace viewer.
pub mod tracks {
    use crate::resource::ResourceId;
    use crate::stats::Category;
    use transpim_obs::TrackId;

    /// Row shared by all ring-broadcast hop events.
    pub const RING: TrackId = TrackId(16);

    /// Row shared by all fault-injection events (ECC corrections, retries,
    /// degradation markers). Named lazily on the first fault so fault-free
    /// traces stay byte-identical.
    pub const FAULT: TrackId = TrackId(17);

    /// First row of the per-resource occupancy range.
    pub const RESOURCE_BASE: u64 = 64;

    /// Row of one breakdown category's phase spans.
    pub fn category(c: Category) -> TrackId {
        TrackId(1 + c.index() as u64)
    }

    /// Row of one resource's timeline (ring hops use their source bank's).
    pub fn resource(r: ResourceId) -> TrackId {
        TrackId(RESOURCE_BASE + u64::from(r.0))
    }
}

/// Quanta per unit: every lump's latency, energy and bytes are tallied as
/// whole multiples of 2⁻³² ns, pJ and bytes. Scaling by a power of two is
/// exact in f64, so a lump is rounded once, down to a whole quantum.
const QUANTA_PER_UNIT: f64 = 4_294_967_296.0;

/// 2⁶³, past which a count of quanta no longer converts as an `i64`.
const I64_LIMIT: f64 = 9_223_372_036_854_775_808.0;

/// `value` in whole quanta, rounded down. Values under 2³¹ units take the
/// native `i64` conversion.
fn quanta(value: f64) -> u128 {
    let scaled = value * QUANTA_PER_UNIT;
    if scaled < I64_LIMIT {
        scaled as i64 as u128
    } else {
        scaled as u128
    }
}

fn units(quanta: u128) -> f64 {
    quanta as f64 / QUANTA_PER_UNIT
}

/// Statistics as exact integer tallies of quanta, one `u128` count per
/// slot: `c` for category `c`'s time, `ENERGY + c` for its energy, and
/// [`BYTES`]. Integer addition is associative, so a tally does not depend
/// on the order its lumps ran in; [`SimStats`] is its f64 projection.
///
/// The counts are kept as `u64` halves: adding a lump is then one native
/// add per slot, and the carry into the high half is almost never taken.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    low: [u64; 9],
    high: [u64; 9],
}

const ENERGY: usize = 4;
const BYTES: usize = 8;

impl Tally {
    fn count(&self, slot: usize) -> u128 {
        u128::from(self.high[slot]) << 64 | u128::from(self.low[slot])
    }

    fn set(&mut self, slot: usize, count: u128) {
        self.low[slot] = count as u64;
        self.high[slot] = (count >> 64) as u64;
    }

    fn add(&mut self, slot: usize, quanta: u128) {
        let (low, carry) = self.low[slot].overflowing_add(quanta as u64);
        self.low[slot] = low;
        let high = (quanta >> 64) as u64 + u64::from(carry);
        if high != 0 {
            self.high[slot] += high;
        }
    }

    fn latency(&self) -> u128 {
        (0..4).map(|c| self.count(c)).sum()
    }

    /// Fold `other` in `times` times.
    fn add_times(&mut self, other: &Tally, times: u128) {
        for slot in 0..9 {
            self.set(slot, self.count(slot) + other.count(slot) * times);
        }
    }

    /// What was tallied since `mark`, an earlier copy of this tally.
    fn since(&self, mark: &Tally) -> Tally {
        let mut pass = Tally::default();
        for slot in 0..9 {
            pass.set(slot, self.count(slot) - mark.count(slot));
        }
        pass
    }

    fn stats(&self) -> SimStats {
        SimStats {
            latency_ns: units(self.latency()),
            time_ns: std::array::from_fn(|c| units(self.count(c))),
            energy_pj: std::array::from_fn(|c| units(self.count(ENERGY + c))),
            bytes_moved: units(self.count(BYTES)),
        }
    }
}

/// One scope label and its tally, `None` until the scope runs a lump.
#[derive(Debug, Clone)]
struct Scope {
    label: String,
    tally: Option<Tally>,
}

/// The per-scope tallies at one point of a run, for
/// [`Engine::repeat_since`].
#[derive(Debug, Clone)]
pub struct Mark(Vec<Option<Tally>>);

/// The phase engine: runs lumps, advances simulated time, and accumulates
/// global and per-scope statistics.
///
/// # Example
///
/// ```
/// use transpim_hbm::engine::{Engine, Lump};
/// use transpim_hbm::stats::Category;
///
/// let mut e = Engine::new();
/// e.set_scope("fc");
/// e.run(Lump::new(Category::Arithmetic, 100.0, 5_000.0, 0.0));
/// assert_eq!(e.stats().latency_ns, 100.0);
/// assert_eq!(e.scoped().get("fc").map(|s| s.latency_ns), Some(100.0));
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    /// Every scope seen so far, in first-seen order; the global statistics
    /// are their sum.
    scopes: Vec<Scope>,
    /// Index of the current scope in `scopes`.
    current: usize,
    sink: SinkHandle,
    latency_scale: f64,
    tracks_named: bool,
}

/// Counter series name of each category's cumulative busy fraction,
/// `util.<label>`, indexed by [`Category::index`].
const UTIL_COUNTERS: [&str; 4] =
    ["util.data-movement", "util.arithmetic", "util.reduction", "util.other"];

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// New engine at time zero, with the null (disabled) sink.
    pub fn new() -> Self {
        Self {
            scopes: vec![Scope { label: String::from("init"), tally: None }],
            current: 0,
            sink: SinkHandle::null(),
            latency_scale: 1.0,
            tracks_named: false,
        }
    }

    /// New engine that emits every lump to `sink`.
    pub fn with_sink(sink: SinkHandle) -> Self {
        Self { sink, ..Self::new() }
    }

    /// The attached sink handle (the null handle when tracing is off).
    pub fn sink(&self) -> &SinkHandle {
        &self.sink
    }

    /// Whether lumps emit observability events: an enabled sink is
    /// attached.
    pub fn emitting(&self) -> bool {
        self.sink.is_enabled()
    }

    /// Current simulated time: nanoseconds elapsed since the engine
    /// started. The next lump's span starts here.
    pub fn now_ns(&self) -> f64 {
        units(self.busy().iter().sum())
    }

    /// Simulated time spent so far in each category, in quanta.
    fn busy(&self) -> [u128; 4] {
        let mut busy = [0; 4];
        for tally in self.scopes.iter().filter_map(|s| s.tally.as_ref()) {
            for (c, time) in busy.iter_mut().enumerate() {
                *time += tally.count(c);
            }
        }
        busy
    }

    /// The latency stretch applied to every lump (≥ 1; refresh model).
    pub fn latency_scale(&self) -> f64 {
        self.latency_scale
    }

    /// Stretch every lump's latency by `scale` (≥ 1): used to model
    /// sustained-throughput losses such as DRAM refresh
    /// ([`crate::timing::TimingParams::refresh_overhead`]).
    ///
    /// # Panics
    ///
    /// Panics if `scale < 1.0`.
    pub fn set_latency_scale(&mut self, scale: f64) {
        assert!(scale >= 1.0, "latency scale must be ≥ 1, got {scale}");
        self.latency_scale = scale;
    }

    /// Set the label under which subsequent lumps are recorded (e.g. the
    /// current Transformer layer kind).
    pub fn set_scope(&mut self, scope: &str) {
        if self.scopes[self.current].label != scope {
            self.current = match self.scopes.iter().position(|s| s.label == scope) {
                Some(i) => i,
                None => {
                    self.scopes.push(Scope { label: scope.to_owned(), tally: None });
                    self.scopes.len() - 1
                }
            };
        }
    }

    /// Run one lump; returns its scaled makespan in nanoseconds.
    pub fn run(&mut self, lump: Lump) -> f64 {
        if self.emitting() {
            let start_ns = self.now_ns();
            let latency = self.record(lump);
            self.emit(lump, start_ns, latency);
            latency
        } else {
            self.record(lump)
        }
    }

    /// Add one lump to the current scope's tally.
    fn record(&mut self, lump: Lump) -> f64 {
        let Lump { category, latency_ns, energy_pj, bytes } = lump;
        debug_assert!(latency_ns >= 0.0 && energy_pj >= 0.0 && bytes >= 0.0);
        let latency = latency_ns * self.latency_scale;
        let c = category.index();
        let tally = self.scopes[self.current].tally.get_or_insert_with(Tally::default);
        tally.add(c, quanta(latency));
        tally.add(ENERGY + c, quanta(energy_pj));
        tally.add(BYTES, quanta(bytes));
        latency
    }

    /// The span of a just-recorded lump on its category's track, then the
    /// category's cumulative busy fraction (a utilization-over-time curve).
    // Out of line, so the untraced path through `run` stays small.
    #[cold]
    fn emit(&mut self, lump: Lump, start_ns: f64, latency: f64) {
        if !self.tracks_named {
            for c in Category::ALL {
                self.sink.track_name(tracks::category(c), &format!("phase:{}", c.label()));
            }
            self.sink.track_name(tracks::RING, "ring hops");
            self.tracks_named = true;
        }
        let category = lump.category;
        self.sink.span(
            SpanEvent::new(
                self.scopes[self.current].label.as_str(),
                category.label(),
                tracks::category(category),
                start_ns,
                latency,
            )
            .with_arg("energy_pj", lump.energy_pj)
            .with_arg("bytes", lump.bytes),
        );
        let busy = self.busy();
        let elapsed: u128 = busy.iter().sum();
        if elapsed > 0 {
            let now_ns = units(elapsed);
            self.sink.counter(CounterEvent::sample(
                UTIL_COUNTERS[category.index()],
                tracks::category(category),
                now_ns,
                "busy_frac",
                units(busy[category.index()]) / now_ns,
            ));
        }
    }

    /// The per-scope statistics as of now, for [`Engine::repeat_since`].
    pub fn mark(&self) -> Mark {
        Mark(self.scopes.iter().map(|s| s.tally).collect())
    }

    /// Run `times` more copies of everything run since `mark`, as one
    /// multiplication per scope.
    ///
    /// This is how the executor prices a zero-delta repeat: it runs the
    /// body once and repeats it `count − 1` times. The tallies are
    /// integers, so the statistics equal running the body `count` times,
    /// bit for bit. Stats-only: callers must not repeat while emission is
    /// on (spans would be lost).
    pub fn repeat_since(&mut self, mark: &Mark, times: u64) {
        debug_assert!(!self.emitting(), "repeat_since is stats-only; emit by re-running the body");
        let times = u128::from(times);
        for (i, scope) in self.scopes.iter_mut().enumerate() {
            if let Some(tally) = &mut scope.tally {
                let before = mark.0.get(i).copied().flatten().unwrap_or_default();
                let pass = tally.since(&before);
                tally.add_times(&pass, times);
            }
        }
    }

    /// The sum of the scopes' tallies.
    fn total(&self) -> Tally {
        let mut total = Tally::default();
        for tally in self.scopes.iter().filter_map(|s| s.tally.as_ref()) {
            total.add_times(tally, 1);
        }
        total
    }

    /// Global statistics accumulated so far.
    pub fn stats(&self) -> SimStats {
        self.total().stats()
    }

    /// Per-scope statistics accumulated so far, the current scope's
    /// included.
    pub fn scoped(&self) -> ScopedStats {
        let mut scoped = ScopedStats::new();
        for scope in &self.scopes {
            if let Some(tally) = &scope.tally {
                *scoped.entry_mut(&scope.label) = tally.stats();
            }
        }
        scoped
    }

    /// Consume the engine, returning `(global, per-scope)` statistics.
    pub fn into_stats(self) -> (SimStats, ScopedStats) {
        (self.stats(), self.scoped())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transpim_obs::{ChromeTraceSink, NullSink};

    #[test]
    fn util_counter_names_follow_category_labels() {
        for c in Category::ALL {
            assert_eq!(UTIL_COUNTERS[c.index()], format!("util.{}", c.label()));
        }
    }

    #[test]
    fn sink_records_phases_in_order() {
        let chrome = ChromeTraceSink::shared();
        let mut e = Engine::with_sink(SinkHandle::from_shared(chrome.clone()));
        e.set_scope("fc");
        e.run(Lump::new(Category::Arithmetic, 5.0, 1.0, 0.0));
        e.set_scope("attn");
        e.run(Lump::new(Category::DataMovement, 3.0, 2.0, 16.0));
        let events = chrome.borrow().sorted_events();
        let spans: Vec<_> = events.iter().filter(|e| e.ph == "X").collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "fc");
        assert_eq!(spans[0].ts, 0.0);
        assert_eq!(spans[1].name, "attn");
        assert_eq!(spans[1].ts, 0.005); // 5 ns in µs
        assert_eq!(spans[1].dur, Some(0.003));
        // Category tracks are named once.
        assert!(events
            .iter()
            .any(|e| e.ph == "M" && e.tid == tracks::category(Category::Arithmetic).0));
    }

    #[test]
    fn repeated_pass_matches_rerun_passes_exactly() {
        // A zero-delta repeat runs its body once and multiplies the pass:
        // that must be bit-identical to running the body every time.
        let run_once = |e: &mut Engine| {
            e.set_scope("dec.fc");
            e.run(Lump::new(Category::Arithmetic, 5.3, 1.7, 0.0));
            e.set_scope("dec.attn");
            e.run(Lump::new(Category::DataMovement, 3.9, 2.2, 17.0));
        };
        let mut repeated = Engine::new();
        repeated.set_latency_scale(1.25);
        let mut rerun = repeated.clone();
        let mark = repeated.mark();
        run_once(&mut repeated);
        repeated.repeat_since(&mark, 6);
        for _ in 0..7 {
            run_once(&mut rerun);
        }
        assert_eq!(repeated.stats(), rerun.stats());
        assert_eq!(repeated.scoped(), rerun.scoped());
    }

    #[test]
    fn null_sink_runs_match_untraced_runs_exactly() {
        let phases = |e: &mut Engine| {
            e.set_scope("a");
            e.run(Lump::new(Category::Arithmetic, 5.0, 1.0, 0.0));
            e.set_scope("b");
            e.run(Lump::new(Category::DataMovement, 7.0, 2.0, 16.0));
        };
        let mut plain = Engine::new();
        phases(&mut plain);
        let mut nulled = Engine::with_sink(SinkHandle::new(NullSink));
        phases(&mut nulled);
        assert_eq!(plain.stats(), nulled.stats());
        assert_eq!(plain.scoped(), nulled.scoped());
    }

    #[test]
    fn engine_accumulates_by_scope() {
        let mut e = Engine::new();
        e.set_scope("a");
        e.run(Lump::new(Category::Arithmetic, 5.0, 1.0, 0.0));
        e.set_scope("b");
        e.run(Lump::new(Category::DataMovement, 7.0, 2.0, 16.0));
        assert_eq!(e.stats().latency_ns, 12.0);
        let scoped = e.scoped();
        let scope = |label| *scoped.get(label).expect("the scope ran a lump");
        assert_eq!(scope("a").latency_ns, 5.0);
        assert_eq!(scope("b").latency_ns, 7.0);
        assert_eq!(scope("b").bytes_moved, 16.0);
    }
}
