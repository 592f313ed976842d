//! Discrete-event phase engine.
//!
//! The dataflow compilers lower a Transformer into a sequence of *phases*
//! (FC compute, a ring-broadcast step, a Softmax normalization, ...). Within
//! a phase, operations on disjoint resources proceed in parallel and
//! operations sharing a resource serialize; phases are barriers, matching the
//! step-synchronous structure of the paper's dataflow (Section III). Each
//! phase is attributed to one breakdown [`Category`], which is how the
//! Figure 11 breakdowns are produced.
//!
//! # Observability
//!
//! The engine carries a [`SinkHandle`] (`transpim-obs`). With an enabled
//! sink attached, every phase is emitted as a span on its category's track,
//! and [`Phase::Scheduled`] phases additionally emit per-op spans and
//! per-[`ResourceId`] occupancy counters on the resource tracks of
//! [`tracks`]. With the default (null) handle, the emission paths are never
//! entered and the engine behaves exactly as an uninstrumented one.

use crate::resource::ResourceId;
use crate::stats::{Category, ScopedStats, SimStats};
use std::collections::{HashMap, HashSet};
use transpim_obs::{CounterEvent, SinkHandle, SpanEvent};

/// One operation inside a [`Phase::Scheduled`] phase: it occupies every
/// listed resource for `latency_ns`, consumes `energy_pj`, and moves `bytes`
/// through the memory system.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseOp {
    /// Resources occupied for the duration of the op.
    pub resources: Vec<ResourceId>,
    /// Occupancy time in nanoseconds.
    pub latency_ns: f64,
    /// Energy in picojoules.
    pub energy_pj: f64,
    /// Bytes read/written (bandwidth accounting).
    pub bytes: f64,
}

/// A barrier-synchronized execution phase.
#[derive(Debug, Clone, PartialEq)]
pub enum Phase {
    /// Operations placed by greedy list scheduling with resource contention
    /// (used for bus transfers, reductions across banks, ...). Ops are
    /// started in order; each starts as soon as all its resources are free.
    Scheduled {
        /// Breakdown category of the whole phase.
        category: Category,
        /// Operations to schedule, in issue order.
        ops: Vec<PhaseOp>,
    },
    /// A lock-step operation whose makespan is known in closed form — e.g.
    /// "every bank executes this identical PIM batch in parallel" or a
    /// memoized composite such as `n` identical ring steps. Latency is the
    /// makespan; energy and bytes are system-wide totals.
    Lump {
        /// Breakdown category of the whole phase.
        category: Category,
        /// Phase makespan in nanoseconds.
        latency_ns: f64,
        /// Total energy in picojoules.
        energy_pj: f64,
        /// Total bytes moved.
        bytes: f64,
    },
}

impl Phase {
    /// Convenience constructor for a [`Phase::Lump`].
    pub fn lump(category: Category, latency_ns: f64, energy_pj: f64, bytes: f64) -> Self {
        Phase::Lump { category, latency_ns, energy_pj, bytes }
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

    /// Row of one contended resource's occupancy timeline.
    pub fn resource(r: ResourceId) -> TrackId {
        TrackId(RESOURCE_BASE + u64::from(r.0))
    }
}

/// Greedy list scheduler: returns the makespan of `ops` run under resource
/// contention. Each op starts at the earliest time all of its resources are
/// free (ops are considered in order), which reproduces the Figure 9 ring
/// schedule when the hops are issued in the paper's slot order.
pub fn schedule_makespan(ops: &[PhaseOp]) -> f64 {
    let mut free_at: HashMap<ResourceId, f64> = HashMap::new();
    let mut makespan = 0.0f64;
    for op in ops {
        let start = op
            .resources
            .iter()
            .map(|r| free_at.get(r).copied().unwrap_or(0.0))
            .fold(0.0f64, f64::max);
        let end = start + op.latency_ns;
        for r in &op.resources {
            free_at.insert(*r, end);
        }
        makespan = makespan.max(end);
    }
    makespan
}

/// Start/end of one op as placed by the greedy list scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpPlacement {
    /// Start time relative to the phase start (ns).
    pub start_ns: f64,
    /// End time relative to the phase start (ns).
    pub end_ns: f64,
}

/// Full placement of a scheduled phase: the makespan plus one
/// [`OpPlacement`] per op, in issue order. Same schedule as
/// [`schedule_makespan`], with the per-op timeline retained for trace
/// emission.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SchedulePlacements {
    /// Phase makespan in nanoseconds.
    pub makespan_ns: f64,
    /// Per-op start/end, parallel to the input op slice.
    pub ops: Vec<OpPlacement>,
}

/// Greedy list scheduling with the per-op placements retained.
pub fn schedule_placements(ops: &[PhaseOp]) -> SchedulePlacements {
    let mut free_at: HashMap<ResourceId, f64> = HashMap::new();
    let mut placed = SchedulePlacements { makespan_ns: 0.0, ops: Vec::with_capacity(ops.len()) };
    for op in ops {
        let start = op
            .resources
            .iter()
            .map(|r| free_at.get(r).copied().unwrap_or(0.0))
            .fold(0.0f64, f64::max);
        let end = start + op.latency_ns;
        for r in &op.resources {
            free_at.insert(*r, end);
        }
        placed.ops.push(OpPlacement { start_ns: start, end_ns: end });
        placed.makespan_ns = placed.makespan_ns.max(end);
    }
    placed
}

/// The phase engine: runs phases, advances simulated time, and accumulates
/// global and per-scope statistics.
///
/// # Example
///
/// ```
/// use transpim_hbm::engine::{Engine, Phase};
/// use transpim_hbm::stats::Category;
///
/// let mut e = Engine::new();
/// e.set_scope("fc");
/// e.run(Phase::lump(Category::Arithmetic, 100.0, 5_000.0, 0.0));
/// assert_eq!(e.stats().latency_ns, 100.0);
/// assert_eq!(e.scoped().get("fc").unwrap().latency_ns, 100.0);
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    stats: SimStats,
    scoped: ScopedStats,
    scope: String,
    sink: SinkHandle,
    latency_scale: f64,
    tracks_named: bool,
    named_resources: HashSet<u32>,
    quiet: bool,
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
    /// A lump phase. `latency_ns` is pre-`latency_scale`; replay rescales
    /// exactly as `run` does.
    Lump {
        /// Phase category.
        category: Category,
        /// Unscaled latency contribution.
        latency_ns: f64,
        /// Energy contribution.
        energy_pj: f64,
        /// Bytes-moved contribution.
        bytes: f64,
    },
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
            sink: SinkHandle::null(),
            latency_scale: 1.0,
            tracks_named: false,
            named_resources: HashSet::new(),
            quiet: false,
        }
    }

    /// New engine that emits every phase (and, for scheduled phases, per-op
    /// and per-resource occupancy events) to `sink`.
    pub fn with_sink(sink: SinkHandle) -> Self {
        Self { sink, ..Self::new() }
    }

    /// Attach (or replace) the observability sink.
    pub fn attach_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }

    /// The attached sink handle (the null handle when tracing is off).
    pub fn sink(&self) -> &SinkHandle {
        &self.sink
    }

    /// Suppress (or re-enable) span/counter emission while keeping the
    /// statistics accounting bit-for-bit unchanged. Used by the executor's
    /// repeat collapsing: iterations 1..N of a repeat run quietly and are
    /// represented by one summary span.
    pub fn set_quiet(&mut self, quiet: bool) {
        self.quiet = quiet;
    }

    /// Whether phases currently emit observability events: a sink is
    /// attached and quiet mode is off.
    pub fn emitting(&self) -> bool {
        self.sink.is_enabled() && !self.quiet
    }

    /// Current simulated time: nanoseconds elapsed since the engine
    /// started. The next phase's span starts here.
    pub fn now_ns(&self) -> f64 {
        self.stats.latency_ns
    }

    /// The latency stretch applied to every phase (≥ 1; refresh model).
    pub fn latency_scale(&self) -> f64 {
        self.latency_scale
    }

    /// Stretch every phase's latency by `scale` (≥ 1): used to model
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

    /// Set the label under which subsequent phases are recorded (e.g. the
    /// current Transformer layer kind).
    pub fn set_scope(&mut self, scope: &str) {
        if self.scope != scope {
            self.scope.clear();
            self.scope.push_str(scope);
        }
    }

    /// Run one phase; returns its makespan in nanoseconds.
    pub fn run(&mut self, phase: Phase) -> f64 {
        let start_ns = self.stats.latency_ns;
        let emit = self.emitting();
        if emit && !self.tracks_named {
            self.name_category_tracks();
        }
        let (category, mut latency, energy, bytes) = match &phase {
            Phase::Lump { category, latency_ns, energy_pj, bytes } => {
                (*category, *latency_ns, *energy_pj, *bytes)
            }
            Phase::Scheduled { category, ops } => {
                let latency = if emit {
                    let placed = schedule_placements(ops);
                    self.emit_scheduled(*category, ops, &placed, start_ns);
                    placed.makespan_ns
                } else {
                    schedule_makespan(ops)
                };
                let energy = ops.iter().map(|o| o.energy_pj).sum();
                let bytes = ops.iter().map(|o| o.bytes).sum();
                (*category, latency, energy, bytes)
            }
        };
        debug_assert!(latency >= 0.0 && energy >= 0.0 && bytes >= 0.0);
        latency *= self.latency_scale;
        if emit {
            self.sink.span(
                SpanEvent::new(
                    self.scope.as_str(),
                    category.label(),
                    tracks::category(category),
                    start_ns,
                    latency,
                )
                .with_arg("energy_pj", energy)
                .with_arg("bytes", bytes),
            );
        }
        self.stats.record(category, latency, energy, bytes);
        self.scoped.record(&self.scope, category, latency, energy, bytes);
        if emit && self.stats.latency_ns > 0.0 {
            // Cumulative busy fraction of this category so far — plotted by
            // trace viewers as a utilization-over-time curve.
            self.sink.counter(CounterEvent::sample(
                UTIL_COUNTERS[category.index()],
                tracks::category(category),
                self.stats.latency_ns,
                "busy_frac",
                self.stats.time_ns[category.index()] / self.stats.latency_ns,
            ));
        }
        latency
    }

    /// Per-op spans on the occupied resources' tracks plus one occupancy
    /// counter per resource (busy fraction of the phase makespan).
    fn emit_scheduled(
        &mut self,
        category: Category,
        ops: &[PhaseOp],
        placed: &SchedulePlacements,
        start_ns: f64,
    ) {
        use std::fmt::Write;
        let scale = self.latency_scale;
        let mut busy: HashMap<ResourceId, f64> = HashMap::new();
        let mut label = String::new();
        for (i, (op, p)) in ops.iter().zip(&placed.ops).enumerate() {
            label.clear();
            let _ = write!(label, "op{i}");
            for r in &op.resources {
                *busy.entry(*r).or_default() += p.end_ns - p.start_ns;
                if self.named_resources.insert(r.0) {
                    self.sink.track_name(tracks::resource(*r), &format!("res{}", r.0));
                }
                self.sink.span(
                    SpanEvent::new(
                        label.as_str(),
                        category.label(),
                        tracks::resource(*r),
                        start_ns + p.start_ns * scale,
                        (p.end_ns - p.start_ns) * scale,
                    )
                    .with_arg("bytes", op.bytes),
                );
            }
        }
        if placed.makespan_ns > 0.0 {
            let mut per_resource: Vec<(ResourceId, f64)> = busy.into_iter().collect();
            per_resource.sort_by_key(|(r, _)| *r);
            for (r, busy_ns) in per_resource {
                label.clear();
                let _ = write!(label, "util.res{}", r.0);
                self.sink.counter(CounterEvent::sample(
                    label.as_str(),
                    tracks::resource(r),
                    start_ns,
                    "busy_frac",
                    busy_ns / placed.makespan_ns,
                ));
            }
        }
    }

    fn name_category_tracks(&mut self) {
        for c in Category::ALL {
            self.sink.track_name(tracks::category(c), &format!("phase:{}", c.label()));
        }
        self.sink.track_name(tracks::RING, "ring hops");
        self.tracks_named = true;
    }

    /// Re-apply a recorded lump-action log `times` times.
    ///
    /// This is the compressed-pricing fast path: the executor prices a
    /// zero-delta repeat body once through [`Engine::run`] while logging
    /// each lump, then replays the log for the remaining iterations. The
    /// replay performs the same f64 additions in the same order as `run`
    /// would, so the resulting [`SimStats`]/[`ScopedStats`] are
    /// byte-identical to walking the unrolled steps. Stats-only: callers
    /// must not replay while emission is on (spans would be lost).
    pub fn replay_lumps(&mut self, actions: &[LumpAction], times: u64) {
        debug_assert!(!self.emitting(), "replay_lumps is stats-only; emit by re-running the body");
        for _ in 0..times {
            for action in actions {
                match action {
                    LumpAction::Scope(s) => self.set_scope(s),
                    LumpAction::Lump { category, latency_ns, energy_pj, bytes } => {
                        let latency = latency_ns * self.latency_scale;
                        self.stats.record(*category, latency, *energy_pj, *bytes);
                        self.scoped.record(&self.scope, *category, latency, *energy_pj, *bytes);
                    }
                }
            }
        }
    }

    /// Global statistics accumulated so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Per-scope statistics accumulated so far.
    pub fn scoped(&self) -> &ScopedStats {
        &self.scoped
    }

    /// Consume the engine, returning `(global, per-scope)` statistics.
    pub fn into_stats(self) -> (SimStats, ScopedStats) {
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

    fn op(resources: &[u32], latency: f64) -> PhaseOp {
        PhaseOp {
            resources: resources.iter().map(|&r| ResourceId(r)).collect(),
            latency_ns: latency,
            energy_pj: 1.0,
            bytes: 8.0,
        }
    }

    #[test]
    fn disjoint_ops_run_in_parallel() {
        assert_eq!(schedule_makespan(&[op(&[0], 10.0), op(&[1], 7.0), op(&[2], 3.0)]), 10.0);
    }

    #[test]
    fn shared_resource_serializes() {
        assert_eq!(schedule_makespan(&[op(&[0, 5], 10.0), op(&[1, 5], 7.0)]), 17.0);
    }

    #[test]
    fn placements_agree_with_makespan() {
        let ops = vec![op(&[0, 5], 10.0), op(&[1, 5], 7.0), op(&[2], 3.0)];
        let placed = schedule_placements(&ops);
        assert_eq!(placed.makespan_ns, schedule_makespan(&ops));
        assert_eq!(placed.ops.len(), 3);
        assert_eq!(placed.ops[0].start_ns, 0.0);
        assert_eq!(placed.ops[1].start_ns, 10.0); // waits for resource 5
        assert_eq!(placed.ops[2].start_ns, 0.0); // disjoint, runs immediately
    }

    #[test]
    fn figure9_ring_step_costs_3t_with_links_and_8t_without() {
        use crate::geometry::{BankId, HbmGeometry};
        use crate::resource::{BusParams, ResourceMap};
        // 1 stack, 1 channel, 2 groups of 4 banks: the Figure 9 example.
        let g = HbmGeometry {
            stacks: 1,
            channels_per_stack: 1,
            groups_per_channel: 2,
            banks_per_group: 4,
            ..HbmGeometry::default()
        };
        // Uniform bandwidths so every hop costs the same time T.
        let bus = BusParams {
            channel_gbs: 16.0,
            group_gbs: 16.0,
            ring_link_gbs: 16.0,
            stack_gbs: 16.0,
            host_gbs: 16.0,
        };
        let t = 16.0; // 256 bytes at 16 GB/s
        let hop = |m: &ResourceMap, s: u32, d: u32| {
            let r = m.route(BankId(s), BankId(d));
            let latency_ns = r.transfer_ns(256.0);
            PhaseOp { resources: r.resources, latency_ns, energy_pj: 0.0, bytes: 256.0 }
        };

        // With ring links, issued in the paper's slot order:
        // slot 1: 3→4 (buses), 0→1 and 6→7 (links);
        // slot 2: 7→0 (buses), 2→3 and 4→5 (links);
        // slot 3: 1→2 and 5→6 (links).
        let m = ResourceMap::new(g, bus, true);
        let ops = vec![
            hop(&m, 3, 4),
            hop(&m, 0, 1),
            hop(&m, 6, 7),
            hop(&m, 7, 0),
            hop(&m, 2, 3),
            hop(&m, 4, 5),
            hop(&m, 1, 2),
            hop(&m, 5, 6),
        ];
        assert!((schedule_makespan(&ops) - 3.0 * t).abs() < 1e-9);

        // Without ring links every hop is mediated by the single shared
        // channel bus and controller, so the eight hops fully serialize —
        // the 8 T the paper quotes for the original HBM datapath.
        let m = ResourceMap::new(g, bus, false);
        let ops: Vec<PhaseOp> = (0..8u32).map(|i| hop(&m, i, (i + 1) % 8)).collect();
        assert!((schedule_makespan(&ops) - 8.0 * t).abs() < 1e-9);
    }

    #[test]
    fn sink_records_phases_in_order() {
        let chrome = ChromeTraceSink::shared();
        let mut e = Engine::with_sink(SinkHandle::from_shared(chrome.clone()));
        e.set_scope("fc");
        e.run(Phase::lump(Category::Arithmetic, 5.0, 1.0, 0.0));
        e.set_scope("attn");
        e.run(Phase::lump(Category::DataMovement, 3.0, 2.0, 16.0));
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
    fn scheduled_phase_emits_per_resource_occupancy() {
        let chrome = ChromeTraceSink::shared();
        let mut e = Engine::with_sink(SinkHandle::from_shared(chrome.clone()));
        e.set_scope("xfer");
        e.run(Phase::Scheduled {
            category: Category::DataMovement,
            ops: vec![op(&[0, 5], 10.0), op(&[1, 5], 6.0)],
        });
        let events = chrome.borrow().sorted_events();
        // Shared resource 5 is busy the whole 16 ns makespan; bank 0 only
        // 10 — plus the cumulative per-category utilization sample.
        let util: Vec<_> = events.iter().filter(|e| e.ph == "C").collect();
        assert_eq!(util.len(), 4);
        let busy = |name: &str| {
            util.iter()
                .find(|e| e.name == name)
                .map(|e| match &e.args["busy_frac"] {
                    transpim_obs::ArgValue::Num(v) => *v,
                    other => panic!("non-numeric busy_frac: {other:?}"),
                })
                .unwrap()
        };
        assert!((busy("util.res5") - 1.0).abs() < 1e-12);
        assert!((busy("util.res0") - 10.0 / 16.0).abs() < 1e-12);
        // The whole run is one data-movement phase, so its cumulative
        // utilization is 1.
        assert!((busy("util.data-movement") - 1.0).abs() < 1e-12);
        // Per-op spans land on the resource tracks.
        assert!(events
            .iter()
            .any(|e| e.ph == "X" && e.tid >= tracks::RESOURCE_BASE && e.name == "op1"));
    }

    #[test]
    fn replayed_lumps_match_rerun_lumps_exactly() {
        // The compressed-pricing contract: replaying a recorded log N
        // times is byte-identical to running the same lumps N times.
        let log = vec![
            LumpAction::Scope("dec.fc".to_string()),
            LumpAction::Lump {
                category: Category::Arithmetic,
                latency_ns: 5.3,
                energy_pj: 1.7,
                bytes: 0.0,
            },
            LumpAction::Scope("dec.attn".to_string()),
            LumpAction::Lump {
                category: Category::DataMovement,
                latency_ns: 3.9,
                energy_pj: 2.2,
                bytes: 17.0,
            },
        ];
        let run_once = |e: &mut Engine| {
            e.set_scope("dec.fc");
            e.run(Phase::lump(Category::Arithmetic, 5.3, 1.7, 0.0));
            e.set_scope("dec.attn");
            e.run(Phase::lump(Category::DataMovement, 3.9, 2.2, 17.0));
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
    fn quiet_mode_suppresses_emission_but_not_stats() {
        let chrome = ChromeTraceSink::shared();
        let mut e = Engine::with_sink(SinkHandle::from_shared(chrome.clone()));
        e.set_scope("fc");
        e.run(Phase::lump(Category::Arithmetic, 5.0, 1.0, 0.0));
        e.set_quiet(true);
        assert!(!e.emitting());
        e.run(Phase::lump(Category::Arithmetic, 5.0, 1.0, 0.0));
        e.set_quiet(false);
        e.run(Phase::lump(Category::Arithmetic, 5.0, 1.0, 0.0));
        assert_eq!(e.stats().latency_ns, 15.0);
        let spans = chrome.borrow().sorted_events().iter().filter(|e| e.ph == "X").count();
        assert_eq!(spans, 2, "quiet phase emits no span");
    }

    #[test]
    fn null_sink_runs_match_untraced_runs_exactly() {
        let phases = |e: &mut Engine| {
            e.set_scope("a");
            e.run(Phase::lump(Category::Arithmetic, 5.0, 1.0, 0.0));
            e.set_scope("b");
            e.run(Phase::Scheduled {
                category: Category::DataMovement,
                ops: vec![op(&[0], 3.0), op(&[0], 4.0)],
            });
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
        e.run(Phase::lump(Category::Arithmetic, 5.0, 1.0, 0.0));
        e.set_scope("b");
        e.run(Phase::Scheduled {
            category: Category::DataMovement,
            ops: vec![op(&[0], 3.0), op(&[0], 4.0)],
        });
        assert_eq!(e.stats().latency_ns, 12.0);
        assert_eq!(e.scoped().get("a").unwrap().latency_ns, 5.0);
        assert_eq!(e.scoped().get("b").unwrap().latency_ns, 7.0);
        assert_eq!(e.scoped().get("b").unwrap().bytes_moved, 16.0);
    }
}
