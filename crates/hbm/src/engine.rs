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
/// prices, the engine runs and the repeat-replay log records.
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
/// assert_eq!(e.scoped().get("fc").unwrap().latency_ns, 100.0);
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    stats: SimStats,
    /// Every scope's statistics as of the last scope change; the current
    /// scope's running entry is `slot`.
    scoped: ScopedStats,
    scope: String,
    /// The current scope's statistics, accumulated here rather than looked
    /// up per lump, and written back to `scoped` on the next scope change.
    slot: SimStats,
    /// Whether `slot` is an entry of `scoped`: the scope had one when it
    /// became current, or has recorded a lump since.
    slot_live: bool,
    sink: SinkHandle,
    latency_scale: f64,
    tracks_named: bool,
}

/// Counter series name of each category's cumulative busy fraction,
/// `util.<label>`, indexed by [`Category::index`].
const UTIL_COUNTERS: [&str; 4] =
    ["util.data-movement", "util.arithmetic", "util.reduction", "util.other"];

/// One recorded pricing action from a repeat body's first iteration: the
/// exact statistics updates `Engine::run` applied, minus the step walk
/// that produced them. Replaying the log repeats the identical f64
/// operation sequence, so replayed statistics are byte-identical to
/// re-pricing the body.
#[derive(Debug, Clone, PartialEq)]
pub enum LumpAction {
    /// A `set_scope` call.
    Scope(String),
    /// A lump, as handed to [`Engine::run`] (pre-`latency_scale`).
    Lump(Lump),
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// New engine at time zero, with the null (disabled) sink.
    pub fn new() -> Self {
        Self {
            stats: SimStats::new(),
            scoped: ScopedStats::new(),
            scope: String::from("init"),
            slot: SimStats::new(),
            slot_live: false,
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
        self.stats.latency_ns
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
        if self.scope != scope {
            self.write_back();
            self.scope.clear();
            self.scope.push_str(scope);
            let entry = self.scoped.get(scope);
            self.slot_live = entry.is_some();
            self.slot = entry.copied().unwrap_or_default();
        }
    }

    /// Store the current scope's slot in the per-scope statistics.
    fn write_back(&mut self) {
        if self.slot_live {
            *self.scoped.entry_mut(&self.scope) = self.slot;
        }
    }

    /// Run one lump; returns its scaled makespan in nanoseconds.
    pub fn run(&mut self, lump: Lump) -> f64 {
        let start_ns = self.stats.latency_ns;
        let latency = self.record(lump);
        if self.emitting() {
            self.emit(lump, start_ns, latency);
        }
        latency
    }

    /// The statistics update of one lump — the only place the engine
    /// accumulates, so [`Engine::run`] and [`Engine::replay_lumps`] perform
    /// the same f64 operations by construction.
    fn record(&mut self, lump: Lump) -> f64 {
        let Lump { category, latency_ns, energy_pj, bytes } = lump;
        debug_assert!(latency_ns >= 0.0 && energy_pj >= 0.0 && bytes >= 0.0);
        let latency = latency_ns * self.latency_scale;
        self.stats.record(category, latency, energy_pj, bytes);
        self.slot.record(category, latency, energy_pj, bytes);
        self.slot_live = true;
        latency
    }

    /// The span of a just-recorded lump on its category's track, then the
    /// category's cumulative busy fraction (a utilization-over-time curve).
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
                self.scope.as_str(),
                category.label(),
                tracks::category(category),
                start_ns,
                latency,
            )
            .with_arg("energy_pj", lump.energy_pj)
            .with_arg("bytes", lump.bytes),
        );
        if self.stats.latency_ns > 0.0 {
            self.sink.counter(CounterEvent::sample(
                UTIL_COUNTERS[category.index()],
                tracks::category(category),
                self.stats.latency_ns,
                "busy_frac",
                self.stats.time_ns[category.index()] / self.stats.latency_ns,
            ));
        }
    }

    /// Re-apply a recorded lump-action log `times` times.
    ///
    /// This is the compressed-pricing fast path: the executor prices a
    /// zero-delta repeat body once through [`Engine::run`] while logging
    /// each lump, then replays the log for the remaining iterations.
    /// Replay and `run` share one statistics update, so the resulting
    /// [`SimStats`]/[`ScopedStats`] are byte-identical to walking the
    /// unrolled steps. Stats-only: callers must not replay while emission
    /// is on (spans would be lost).
    pub fn replay_lumps(&mut self, actions: &[LumpAction], times: u64) {
        debug_assert!(!self.emitting(), "replay_lumps is stats-only; emit by re-running the body");
        for _ in 0..times {
            for action in actions {
                match action {
                    LumpAction::Scope(s) => self.set_scope(s),
                    LumpAction::Lump(lump) => {
                        self.record(*lump);
                    }
                }
            }
        }
    }

    /// Global statistics accumulated so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Per-scope statistics accumulated so far, the current scope's
    /// included.
    pub fn scoped(&self) -> ScopedStats {
        let mut scoped = self.scoped.clone();
        if self.slot_live {
            *scoped.entry_mut(&self.scope) = self.slot;
        }
        scoped
    }

    /// Consume the engine, returning `(global, per-scope)` statistics.
    pub fn into_stats(mut self) -> (SimStats, ScopedStats) {
        self.write_back();
        (self.stats, self.scoped)
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
    fn replayed_lumps_match_rerun_lumps_exactly() {
        // The compressed-pricing contract: replaying a recorded log N
        // times is byte-identical to running the same lumps N times.
        let fc = Lump::new(Category::Arithmetic, 5.3, 1.7, 0.0);
        let attn = Lump::new(Category::DataMovement, 3.9, 2.2, 17.0);
        let log = vec![
            LumpAction::Scope("dec.fc".to_string()),
            LumpAction::Lump(fc),
            LumpAction::Scope("dec.attn".to_string()),
            LumpAction::Lump(attn),
        ];
        let run_once = |e: &mut Engine| {
            e.set_scope("dec.fc");
            e.run(fc);
            e.set_scope("dec.attn");
            e.run(attn);
        };
        let mut replayed = Engine::new();
        replayed.set_latency_scale(1.25);
        let mut rerun = replayed.clone();
        run_once(&mut replayed);
        replayed.replay_lumps(&log, 6);
        for _ in 0..7 {
            run_once(&mut rerun);
        }
        assert_eq!(replayed.stats(), rerun.stats());
        assert_eq!(replayed.scoped(), rerun.scoped());
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
        assert_eq!(e.scoped().get("a").unwrap().latency_ns, 5.0);
        assert_eq!(e.scoped().get("b").unwrap().latency_ns, 7.0);
        assert_eq!(e.scoped().get("b").unwrap().bytes_moved, 16.0);
    }
}
