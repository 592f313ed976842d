//! The execution engine: prices each dataflow [`Step`] on a concrete
//! architecture and drives the phase engine in `transpim-hbm`.
//!
//! Pricing rules per architecture follow Section IV and the baselines of
//! Section V-A2:
//!
//! * point-wise arithmetic → bit-serial in-situ PIM batches
//!   (`transpim-pim`) on PIM architectures, or the per-channel near-bank
//!   vector unit on NBP;
//! * reductions → ACU adder trees when present, the in-array shift-add
//!   tree on OriginalPIM, the near-bank tree on NBP;
//! * Softmax reciprocals → the ACU divider, iterative PIM Newton–Raphson,
//!   or near-bank multiplies;
//! * communication → the ring/broadcast scheduler of `transpim-acu` on
//!   architecture-specific resource maps (ring links only when the
//!   broadcast hardware exists).
//!
//! Pricing has two halves. `Executor::cost` maps one step to at most two
//! lumps from the cost models and the memoized schedules; it never sees
//! the engine, the sink or a fault session. One emission loop owns the
//! rest: trace detail, fault gating and running each lump on the engine.
//!
//! Ring steps, one-to-all broadcasts and reduction trees are memoized in
//! one schedule cache keyed by their structure, since the decoder repeats
//! them thousands of times.

use crate::arch::{ArchConfig, ArchKind};
use crate::calib;
use crate::error::SimError;
use std::collections::{HashMap, HashSet};
use transpim_acu::adder_tree::AcuReduceModel;
use transpim_acu::data_buffer::DataBufferModel;
use transpim_acu::divider::DividerModel;
use transpim_acu::ring::{
    self, emit_hop_events, one_to_all_broadcast, pairwise_reduce_hops, schedule_hops,
    schedule_hops_placed, Hop, HopPlacement, ScheduleResult, TransferCostModel,
};
use transpim_dataflow::ir::{BankRange, Program, Step, StepDelta};
use transpim_fault::{FaultSession, FlipOutcome};
use transpim_hbm::engine::{tracks, Engine, Lump};
use transpim_hbm::geometry::BankId;
use transpim_hbm::resource::ResourceMap;
use transpim_hbm::stats::{Category, ScopedStats, SimStats};
use transpim_obs::{InstantEvent, SinkHandle, SpanEvent};
use transpim_pim::cost::{PimCostModel, PimOp};
use transpim_pim::rowclone::RowCloneModel;

/// Prices dataflow programs on one architecture.
#[derive(Debug)]
pub struct Executor {
    arch: ArchConfig,
    map: ResourceMap,
    pim: PimCostModel,
    acu: AcuReduceModel,
    divider: DividerModel,
    buffer: Option<DataBufferModel>,
    rowclone: RowCloneModel,
    xfer: TransferCostModel,
    /// Row-cycle-bound per-bank streaming rate (GB/s): the pace at which a
    /// bank can sustainably read or write rows through its row buffer.
    /// Broadcast writes are paced by this floor even on the buffered
    /// datapath — every receiving bank's array write is the bottleneck.
    stream_floor_gbs: f64,
    /// Every communication schedule priced so far. Pure memoization of
    /// `map`, so reuse across runs never changes a priced number or an
    /// emitted event.
    schedules: HashMap<ScheduleKey, Schedule>,
    /// Whether [`Executor::apply_ring_faults`] rewired the resource map.
    /// A degraded executor prices a different machine than any
    /// [`ArchConfig`] describes, so it is never reused across cells.
    map_faulted: bool,
}

/// The communication pattern a cached schedule prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pattern {
    /// One full ring step ([`Step::RingBroadcast`]).
    Ring,
    /// The transfers of a pairwise halving tree
    /// ([`Step::PairwiseReduceTree`]); its in-bank adds are priced apart.
    Tree,
    /// A one-to-all broadcast from bank `src` ([`Step::OneToAll`]).
    OneToAll { src: u32 },
}

/// Structural key of a communication schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ScheduleKey {
    pattern: Pattern,
    banks: BankRange,
    bytes: u64,
}

impl ScheduleKey {
    /// The hop sets of a ring or tree, one per barrier-separated level: a
    /// ring step is one level, the tree one per halving stride. A
    /// one-to-all broadcast is priced in closed form and has none.
    fn levels(&self) -> Vec<Vec<Hop>> {
        let ids = self.banks.to_vec();
        match self.pattern {
            Pattern::Ring => vec![ring::ring_step_hops(&ids, self.bytes)],
            Pattern::Tree => std::iter::successors(Some(1usize), |s| Some(s * 2))
                .take_while(|&stride| stride < ids.len())
                .map(|stride| pairwise_reduce_hops(&ids, stride, self.bytes))
                .collect(),
            Pattern::OneToAll { .. } => Vec::new(),
        }
    }

    /// Price the schedule: levels run back to back.
    fn price(&self, map: &ResourceMap, xfer: &TransferCostModel) -> Schedule {
        let cost = match self.pattern {
            Pattern::OneToAll { src } => {
                one_to_all_broadcast(map, xfer, BankId(src), &self.banks.to_vec(), self.bytes)
            }
            Pattern::Ring | Pattern::Tree => {
                let mut total = ScheduleResult::default();
                for hops in self.levels() {
                    let r = schedule_hops(map, xfer, &hops);
                    total.latency_ns += r.latency_ns;
                    total.energy_pj += r.energy_pj;
                    total.bytes += r.bytes;
                    total.slots += r.slots;
                }
                total
            }
        };
        Schedule { cost, hops: None }
    }

    /// Per-hop placements of every level, each level offset by the
    /// latency of the levels before it.
    fn placements(&self, map: &ResourceMap, xfer: &TransferCostModel) -> Vec<HopPlacement> {
        let mut all = Vec::new();
        let mut offset = 0.0;
        for hops in self.levels() {
            let (r, placed) = schedule_hops_placed(map, xfer, &hops);
            all.extend(placed.into_iter().map(|mut p| {
                p.start_ns += offset;
                p
            }));
            offset += r.latency_ns;
        }
        all
    }
}

/// A memoized schedule: its cost, and the per-hop placements a traced run
/// fills in the first time it draws the schedule in detail.
#[derive(Debug)]
struct Schedule {
    cost: ScheduleResult,
    hops: Option<Vec<HopPlacement>>,
}

/// The lumps one step costs — at most two (a reduction tree moves, then
/// adds).
type Lumps = [Option<Lump>; 2];

fn lump(category: Category, (latency_ns, energy_pj): (f64, f64), bytes: f64) -> Option<Lump> {
    Some(Lump { category, latency_ns, energy_pj, bytes })
}

/// What one pricing run owns beyond the executor's models and caches.
struct Run<'s> {
    engine: Engine,
    /// Gates every lump. Absent when the session perturbs nothing, so
    /// such runs keep the zero-delta repeat fast path.
    session: Option<&'s mut FaultSession>,
    /// Ring and tree topologies that already emitted one fully detailed
    /// per-hop exemplar. The decoder prices the same topology thousands of
    /// times (with per-step byte counts); later occurrences collapse to a
    /// summary span so the trace does not grow with the step count.
    detailed: HashSet<(Pattern, BankRange)>,
}

impl<'s> Run<'s> {
    fn new(engine: Engine, session: Option<&'s mut FaultSession>) -> Self {
        Self { engine, session, detailed: HashSet::new() }
    }
}

impl Executor {
    /// Normalize an input configuration to what the executor prices:
    /// bank-to-bank streaming rates differ with the communication
    /// hardware. Without the TransPIM buffers, every transfer is
    /// row-cycle bound: open the source row, stream it beat by beat
    /// over the shared bus, open and restore the destination row. With
    /// the buffers, group segments pipeline independently at the
    /// column-access rate.
    fn normalized(mut arch: ArchConfig) -> ArchConfig {
        let g = arch.hbm.geometry;
        let t = arch.hbm.timing;
        if arch.kind.has_buffers() {
            arch.hbm.bus.group_gbs = f64::from(g.dq_bits) / 8.0 / t.t_ccd_s; // 16 GB/s
        } else {
            let beats = f64::from(g.row_bits()) / f64::from(g.dq_bits);
            let unbuffered_gbs = f64::from(g.row_bytes) / (2.0 * t.t_rc + beats * t.t_ccd_l);
            arch.hbm.bus.group_gbs = unbuffered_gbs;
            arch.hbm.bus.channel_gbs = unbuffered_gbs;
        }
        arch
    }

    /// Whether this executor prices exactly the architecture `arch`
    /// describes (modulo the bus-rate normalization [`Executor::new`]
    /// applies) — i.e. whether reusing it for `arch` is sound.
    pub fn prices_arch(&self, arch: &ArchConfig) -> bool {
        !self.map_faulted && self.arch == Self::normalized(arch.clone())
    }

    /// Build an executor for `arch`.
    pub fn new(arch: ArchConfig) -> Self {
        let arch = Self::normalized(arch);
        let g = arch.hbm.geometry;
        let t = arch.hbm.timing;
        let beats = f64::from(g.row_bits()) / f64::from(g.dq_bits);
        let stream_floor_gbs = f64::from(g.row_bytes) / (2.0 * t.t_rc + beats * t.t_ccd_l);
        let hbm = &arch.hbm;
        let map = hbm.resource_map(arch.kind.has_buffers());
        let pim = PimCostModel::new(hbm.geometry, hbm.timing, hbm.energy, arch.pim);
        let acu = AcuReduceModel::new(hbm.geometry, hbm.timing, hbm.energy, arch.acu);
        let buffer = arch.kind.has_buffers().then(|| DataBufferModel::new(hbm.timing, hbm.energy));
        let rowclone = RowCloneModel::new(hbm.geometry, hbm.timing, hbm.energy);
        let xfer = TransferCostModel::new(hbm.geometry, hbm.energy, arch.kind.has_buffers());
        Self {
            arch,
            map,
            pim,
            acu,
            divider: DividerModel::default(),
            buffer,
            rowclone,
            xfer,
            stream_floor_gbs,
            schedules: HashMap::new(),
            map_faulted: false,
        }
    }

    /// The architecture being priced.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// Run a program, returning global and per-scope statistics. Lump
    /// latencies include the DRAM refresh stretch (each bank loses `t_RFC`
    /// of every `t_REFI`).
    pub fn run(&mut self, program: &Program) -> (SimStats, ScopedStats) {
        self.run_with_sink(program, SinkHandle::null())
    }

    /// [`Executor::run`] with an observability sink attached: lump spans,
    /// per-category utilization counters and per-hop ring events are
    /// emitted to `sink` as the engine executes. The statistics are
    /// bit-for-bit those of [`Executor::run`].
    pub fn run_with_sink(
        &mut self,
        program: &Program,
        sink: SinkHandle,
    ) -> (SimStats, ScopedStats) {
        self.execute(program, sink, None).expect("only a fault session can fail a run")
    }

    /// Run a program under a fault session: every lump is repriced through
    /// the degradation policies (stuck-plane serialization, ECC checks and
    /// corrections, bounded parity retries, divider fallback), correctable
    /// faults are absorbed into the statistics, and uncorrectable ones
    /// surface as a typed [`SimError`].
    ///
    /// Ring-link faults change *routing*, not lump repricing — apply them
    /// first with [`Executor::apply_ring_faults`]. An empty session leaves
    /// the run byte-identical to [`Executor::run`].
    ///
    /// # Errors
    ///
    /// [`SimError::Uncorrectable`] when an injected fault exceeds the ECC
    /// scheme and every degradation policy.
    pub fn run_degraded(
        &mut self,
        program: &Program,
        session: &mut FaultSession,
    ) -> Result<(SimStats, ScopedStats), SimError> {
        self.execute(program, SinkHandle::null(), Some(session))
    }

    /// Price `program` with `sink` attached, under `session` when one is
    /// given. Every public entry point lands here. An empty session prices
    /// exactly as no session.
    pub(crate) fn execute(
        &mut self,
        program: &Program,
        sink: SinkHandle,
        session: Option<&mut FaultSession>,
    ) -> Result<(SimStats, ScopedStats), SimError> {
        let mut engine = Engine::with_sink(sink);
        engine.set_latency_scale(1.0 + self.arch.hbm.timing.refresh_overhead());
        let mut run = Run::new(engine, session.filter(|s| !s.is_empty()));
        self.segment(program.steps(), &[], &mut run)?;
        Ok(run.engine.into_stats())
    }

    /// Rewire the resource map around the session's ring-link faults: dead
    /// links fall back to the shared channel bus (Figure 9's 8T path),
    /// degraded links keep their dedicated link at reduced bandwidth. The
    /// schedule cache is invalidated.
    pub fn apply_ring_faults(&mut self, session: &FaultSession) {
        if !session.rewires_ring() {
            return;
        }
        let dead: Vec<u32> = session.dead_links().iter().copied().collect();
        let degraded: Vec<(u32, f64)> =
            session.degraded_links().iter().map(|(&g, &f)| (g, f)).collect();
        self.map = self.map.clone().with_ring_faults(&dead, &degraded);
        self.schedules.clear();
        self.map_faulted = true;
    }

    /// The emission loop: price a step slice — a whole program or one
    /// repeat-body iteration — and run its lumps. `known` holds the lumps
    /// of steps already costed (parallel to `steps`, or empty); the rest
    /// are costed here. The pipelined-ring fusion window applies within the
    /// slice (compiled repeat bodies begin with a scope and end with a
    /// memory touch, so fusion never wants to cross an iteration boundary).
    fn segment(
        &mut self,
        steps: &[Step],
        known: &[Option<Lumps>],
        run: &mut Run<'_>,
    ) -> Result<(), SimError> {
        let mut i = 0;
        while i < steps.len() {
            let step = &steps[i];
            i += 1;
            match step {
                Step::Scope(label) => {
                    run.engine.set_scope(label);
                    continue;
                }
                Step::Repeat { count, body, delta } => {
                    self.repeat(*count, body, delta, run)?;
                    continue;
                }
                _ => {}
            }
            let mut lumps = self.cost_of(steps, known, i - 1);
            match (step, steps.get(i)) {
                (Step::RingBroadcast { banks, repeat, .. }, Some(Step::PointwiseMul { .. }))
                    if self.arch.pipelined_ring =>
                {
                    let mul = self.cost_of(steps, known, i);
                    Self::pipeline(&mut lumps, mul, *banks, *repeat, &run.engine);
                    i += 1;
                }
                _ if run.engine.emitting() => self.detail(step, run),
                _ => {}
            }
            for lump in lumps.into_iter().flatten() {
                self.emit(step, lump, run)?;
            }
        }
        Ok(())
    }

    /// Pipelined ring: a ring broadcast immediately followed by the
    /// point-wise multiply it feeds executes round by round — transfer of
    /// round k+1 overlaps compute of round k — so the pair costs
    /// max(transfer, compute) instead of the barrier sum. Only the ring's
    /// share can hide; breakdown attribution keeps the visible residual as
    /// movement. The overlap window is computed from the fault-free compute
    /// latency; degradation applies to the residual lumps afterwards
    /// (conservative — a slowed multiply could hide more of the ring than
    /// we credit).
    fn pipeline(lumps: &mut Lumps, mul: Lumps, banks: BankRange, repeat: u64, engine: &Engine) {
        let [mul, _] = mul;
        if let (Some(ring), Some(mul)) = (lumps[0].as_mut(), mul) {
            let ring_ns = ring.latency_ns;
            ring.latency_ns = (ring_ns - mul.latency_ns).max(0.0);
            if engine.emitting() {
                // Per-hop detail is meaningless here — rounds overlap the
                // multiply — so mark the fused pair instead.
                engine.sink().instant(
                    InstantEvent::new("pipelined-ring", "ring", tracks::RING, engine.now_ns())
                        .with_arg("ring_ns", ring_ns)
                        .with_arg("mul_ns", mul.latency_ns)
                        .with_arg("visible_ring_ns", ring.latency_ns)
                        .with_arg("banks", u64::from(banks.count))
                        .with_arg("repeat", repeat),
                );
            }
        }
        lumps[1] = mul;
    }

    /// Gate a lump through the fault session (when one is attached) and
    /// run it. Every lump the executor prices flows through here.
    ///
    /// # Errors
    ///
    /// [`SimError::Uncorrectable`] for flips the ECC scheme cannot absorb.
    fn emit(&self, step: &Step, mut lump: Lump, run: &mut Run<'_>) -> Result<(), SimError> {
        if let Some(sess) = run.session.as_deref_mut() {
            if let Step::Recip { per_bank, total } = *step {
                if self.arch.kind.has_acu() && !sess.broken_dividers().is_empty() {
                    (lump.latency_ns, lump.energy_pj) = self.recip_degraded(
                        per_bank.of(total),
                        total,
                        sess,
                        run.engine.latency_scale(),
                    );
                }
            }
            lump = self.degrade(&run.engine, sess, lump)?;
        }
        run.engine.run(lump);
        Ok(())
    }

    /// Apply the lump-level degradation policies and account their
    /// incremental cost (in scaled engine time, so the session's overhead
    /// equals the end-to-end latency delta for shape-preserving
    /// scenarios):
    ///
    /// * in-memory arithmetic (and in-array reductions on PIM-only)
    ///   serializes over the subarrays surviving stuck bit-planes;
    /// * data movement pays the ECC check-bit bandwidth tax, per-flip
    ///   SECDED corrections (one extra row cycle + activation each), and
    ///   one bounded retry of the whole transfer when parity detects a
    ///   flip it cannot repair;
    /// * an unprotected flip is uncorrectable — the simulator knows it
    ///   happened, so silent corruption is reported as an error.
    ///
    /// Only `DataMovement` traffic is ECC-checked; `MemTouch` capacity
    /// walks never leave the arrays.
    fn degrade(
        &self,
        engine: &Engine,
        sess: &mut FaultSession,
        mut lump: Lump,
    ) -> Result<Lump, SimError> {
        let scale = engine.latency_scale();
        let in_memory = self.arch.kind.computes_in_memory();
        let in_array_reduce = in_memory && !self.arch.kind.has_acu();
        match lump.category {
            Category::Arithmetic if in_memory => Self::serialize(sess, &mut lump, scale),
            Category::Reduction if in_array_reduce => Self::serialize(sess, &mut lump, scale),
            Category::DataMovement => {
                let tax = sess.ecc_overhead_fraction();
                if tax > 0.0 {
                    let extra_lat = lump.latency_ns * tax;
                    let extra_pj = lump.energy_pj * tax;
                    lump.latency_ns += extra_lat;
                    lump.energy_pj += extra_pj;
                    sess.add_overhead(extra_lat * scale, extra_pj);
                }
                match sess.observe_transfer(lump.bytes) {
                    FlipOutcome::None => {}
                    FlipOutcome::Corrected(flips) => {
                        let extra_lat = flips as f64 * self.arch.hbm.timing.t_rc;
                        let extra_pj = flips as f64 * self.arch.hbm.energy.e_act;
                        lump.latency_ns += extra_lat;
                        lump.energy_pj += extra_pj;
                        sess.add_overhead(extra_lat * scale, extra_pj);
                        Self::fault_event(engine, sess, "ecc-correct", flips);
                    }
                    FlipOutcome::Retry(flips) => {
                        // One bounded re-read of the transfer (check bits
                        // included); the retry itself is not re-drawn.
                        sess.add_overhead(lump.latency_ns * scale, lump.energy_pj);
                        lump.latency_ns *= 2.0;
                        lump.energy_pj *= 2.0;
                        Self::fault_event(engine, sess, "parity-retry", flips);
                    }
                    FlipOutcome::Uncorrectable(flips) => {
                        Self::fault_event(engine, sess, "uncorrectable-flip", flips);
                        return Err(SimError::Uncorrectable {
                            fault: format!(
                                "{flips} transient bit flip(s) on a {:.0}-byte transfer \
                                 with no correcting ECC scheme",
                                lump.bytes
                            ),
                            at_ns: Some(engine.now_ns()),
                        });
                    }
                }
            }
            _ => {}
        }
        Ok(lump)
    }

    /// Stretch an in-memory lump over the subarrays surviving stuck
    /// bit-planes.
    fn serialize(sess: &mut FaultSession, lump: &mut Lump, scale: f64) {
        let slow = sess.pim_slowdown();
        if slow > 1.0 {
            let extra = lump.latency_ns * (slow - 1.0);
            lump.latency_ns += extra;
            sess.add_overhead(extra * scale, 0.0);
        }
    }

    /// Emit a fault instant on the dedicated fault track. The track is
    /// named lazily on the first event so fault-free traces never see it.
    fn fault_event(engine: &Engine, sess: &mut FaultSession, name: &'static str, flips: u64) {
        if !engine.emitting() {
            return;
        }
        if sess.mark_fault_track_named() {
            engine.sink().track_name(tracks::FAULT, "faults");
        }
        engine.sink().instant(
            InstantEvent::new(name, "fault", tracks::FAULT, engine.now_ns())
                .with_arg("flips", flips),
        );
    }

    /// The lumps of `steps[j]`: from `known` when it holds them, else
    /// costed now.
    fn cost_of(&mut self, steps: &[Step], known: &[Option<Lumps>], j: usize) -> Lumps {
        match known.get(j) {
            Some(Some(lumps)) => *lumps,
            _ => self.cost(&steps[j]),
        }
    }

    /// The lumps `step` costs on this architecture, from the cost models
    /// and the memoized schedules. Scopes and repeats cost nothing here:
    /// the emission loop walks them.
    fn cost(&mut self, step: &Step) -> Lumps {
        use Category::{Arithmetic, DataMovement, Other, Reduction};
        match *step {
            Step::Scope(_) | Step::Repeat { .. } => [None, None],

            Step::PointwiseMul { elems_per_bank, total_elems, a_bits, b_bits } => {
                let op = PimOp::Mul { a_bits, b_bits };
                let cost = self.pointwise(op, elems_per_bank.of(total_elems), total_elems);
                [lump(Arithmetic, cost, 0.0), None]
            }
            Step::PointwiseAdd { elems_per_bank, total_elems, bits } => {
                let op = PimOp::Add { bits };
                let cost = self.pointwise(op, elems_per_bank.of(total_elems), total_elems);
                [lump(Arithmetic, cost, 0.0), None]
            }
            Step::Exp { elems_per_bank, total_elems, bits, order } => {
                let op = PimOp::ExpTaylor { bits, order };
                let cost = self.pointwise(op, elems_per_bank.of(total_elems), total_elems);
                [lump(Arithmetic, cost, 0.0), None]
            }

            Step::Reduce { vec_len, bits, vectors_per_bank, total_vectors } => {
                let per_bank = vectors_per_bank.of(total_vectors);
                [lump(Reduction, self.reduce(vec_len, bits, per_bank, total_vectors), 0.0), None]
            }
            Step::Recip { per_bank, total } => {
                [lump(Reduction, self.recip(per_bank.of(total), total), 0.0), None]
            }

            Step::Replicate { value_bits, copies, count_per_bank, total_count } => {
                let (per_ns, per_pj) = ring::replicate_in_bank(
                    self.buffer.as_ref(),
                    &self.arch.hbm.timing,
                    &self.arch.hbm.energy,
                    value_bits,
                    copies,
                );
                let cost =
                    (per_ns * count_per_bank.of(total_count) as f64, per_pj * total_count as f64);
                let bytes = total_count as f64 * f64::from(copies) * f64::from(value_bits) / 8.0;
                [lump(DataMovement, cost, bytes), None]
            }

            Step::HostBroadcast { bytes, banks } => {
                let moved = bytes as f64 * f64::from(banks.max(1));
                [lump(DataMovement, self.host_broadcast(bytes, banks), moved), None]
            }
            Step::HostScatter { total_bytes } => {
                [lump(DataMovement, self.host_scatter(total_bytes), total_bytes as f64), None]
            }

            Step::RingBroadcast { banks, bytes_per_hop, repeat, parallel } => {
                let r = self.schedule(ScheduleKey {
                    pattern: Pattern::Ring,
                    banks,
                    bytes: bytes_per_hop,
                });
                let (n, p) = (repeat as f64, f64::from(parallel));
                [lump(DataMovement, (r.latency_ns * n, r.energy_pj * n * p), r.bytes * n * p), None]
            }
            Step::OneToAll { src, banks, bytes, parallel } => {
                let r =
                    self.schedule(ScheduleKey { pattern: Pattern::OneToAll { src }, banks, bytes });
                let p = f64::from(parallel);
                [lump(DataMovement, (r.latency_ns, r.energy_pj * p), r.bytes * p), None]
            }
            Step::PairwiseReduceTree { banks, bytes, bits, elems, parallel } => {
                let r = self.schedule(ScheduleKey { pattern: Pattern::Tree, banks, bytes });
                let p = f64::from(parallel);
                // One in-bank add per tree level.
                let levels = 32 - banks.count.max(1).leading_zeros() as u64;
                let (lat, pj) = self.pointwise(PimOp::Add { bits }, elems, elems * levels);
                [
                    lump(DataMovement, (r.latency_ns, r.energy_pj * p), r.bytes * p),
                    lump(Reduction, (lat * levels as f64, pj * p), 0.0),
                ]
            }

            Step::BroadcastDup { bytes, banks } => {
                let moved = bytes as f64 * f64::from(banks.max(1));
                [lump(DataMovement, self.broadcast_dup(bytes, banks), moved), None]
            }
            Step::IntraBankCopy { bytes_per_bank, total_bytes } => {
                let bytes_per_bank = bytes_per_bank.of(total_bytes);
                let cost = match &self.buffer {
                    Some(b) => (
                        b.inter_subarray_copy_ns(bytes_per_bank),
                        b.inter_subarray_copy_pj(total_bytes),
                    ),
                    None => (
                        self.rowclone.buffered_copy_latency_ns(bytes_per_bank),
                        self.rowclone.buffered_copy_energy_pj(total_bytes),
                    ),
                };
                [lump(DataMovement, cost, total_bytes as f64), None]
            }
            Step::ShuffleAll { total_bytes } => {
                [lump(DataMovement, self.shuffle_all(total_bytes), total_bytes as f64), None]
            }

            Step::MemTouch { bytes_per_bank, total_bytes } => {
                let cost = self.mem_touch(bytes_per_bank.of(total_bytes), total_bytes);
                [lump(Other, cost, total_bytes as f64), None]
            }
        }
    }

    /// Price `count` iterations of a repeat body.
    ///
    /// Two strategies, both denoting exactly the unrolled pricing and
    /// emitting exactly the unrolled trace:
    ///
    /// * **multiply** (zero deltas, nothing to emit, no session): price
    ///   iteration 0 once, then [`Engine::repeat_since`] adds the remaining
    ///   `count - 1` iterations as one multiplication per scope. The engine
    ///   tallies integers, so the statistics are bit-identical to the
    ///   unrolled pricing at O(body) cost;
    /// * **in-place advance** (non-zero deltas, or emission is on, or a
    ///   session draws per lump): walk a scratch copy of the body per
    ///   iteration. Steps with a zero delta are costed once per repeat;
    ///   only the varying steps are advanced and re-costed per iteration.
    ///   Fault gating, trace detail and pipelined-ring fusion still run per
    ///   step, in order, so every lump reaches the engine as unrolled.
    ///
    /// Debug builds verify the final scratch body against [`Step::at`].
    fn repeat(
        &mut self,
        count: u64,
        body: &[Step],
        delta: &[StepDelta],
        run: &mut Run<'_>,
    ) -> Result<(), SimError> {
        if count == 0 || body.is_empty() {
            return Ok(());
        }
        let zero_delta = delta.iter().all(StepDelta::is_zero);
        // Transient-flip draws advance per lump, so under a session every
        // iteration is priced live.
        if zero_delta && !run.engine.emitting() && run.session.is_none() {
            let mark = run.engine.mark();
            self.segment(body, &[], run)?;
            run.engine.repeat_since(&mark, count - 1);
            return Ok(());
        }

        let known: Vec<Option<Lumps>> =
            body.iter().zip(delta).map(|(s, d)| d.is_zero().then(|| self.cost(s))).collect();
        let varying: Vec<usize> = (0..body.len()).filter(|&j| known[j].is_none()).collect();
        let mut scratch = body.to_vec();
        for i in 0..count {
            if i > 0 {
                for &j in &varying {
                    scratch[j].advance(&delta[j]);
                }
            }
            self.segment(&scratch, &known, run)?;
        }
        #[cfg(debug_assertions)]
        if count > 1 {
            for (j, s) in scratch.iter().enumerate() {
                debug_assert_eq!(
                    *s,
                    body[j].at(&delta[j], count - 1),
                    "in-place advance diverged from Step::at"
                );
            }
        }
        Ok(())
    }

    // ---- compute pricing -------------------------------------------------

    /// NBP abstract op count per element for a PIM op.
    fn nbp_ops(op: PimOp) -> f64 {
        match op {
            PimOp::Mul { .. } | PimOp::Add { bits: _ } => 1.0,
            PimOp::ExpTaylor { order, .. } => 2.0 * f64::from(order),
            PimOp::Bitwise { planes } => f64::from(planes).max(1.0) / 16.0,
        }
    }

    fn op_bits(op: PimOp) -> u32 {
        match op {
            PimOp::Mul { a_bits, b_bits } => a_bits.max(b_bits),
            PimOp::Add { bits } => bits,
            PimOp::ExpTaylor { bits, .. } => bits,
            PimOp::Bitwise { .. } => 1,
        }
    }

    fn pointwise(&self, op: PimOp, elems_per_bank: u64, total_elems: u64) -> (f64, f64) {
        if self.arch.kind.computes_in_memory() {
            (self.pim.latency_ns(op, elems_per_bank), self.pim.energy_pj(op, total_elems))
        } else {
            let g = &self.arch.hbm.geometry;
            let per_channel = elems_per_bank * u64::from(g.banks_per_channel());
            let rate = f64::from(calib::NBP_LANES)
                * calib::NBP_CLOCK_GHZ
                * f64::from(calib::NBP_UNITS_PER_CHANNEL); // elems/ns/channel
            let lat = per_channel as f64 * Self::nbp_ops(op) / rate;
            let pj = total_elems as f64
                * Self::nbp_ops(op)
                * (f64::from(Self::op_bits(op))
                    * (self.arch.hbm.energy.e_pre_gsa + self.arch.hbm.energy.e_post_gsa)
                    + calib::NBP_LOGIC_PJ_PER_OP);
            (lat, pj)
        }
    }

    fn reduce(
        &self,
        vec_len: u32,
        bits: u32,
        vectors_per_bank: u64,
        total_vectors: u64,
    ) -> (f64, f64) {
        match self.arch.kind {
            ArchKind::TransPim | ArchKind::TransPimNb => (
                self.acu.bank_latency_ns(vec_len, bits, vectors_per_bank),
                self.acu.energy_pj(vec_len, bits, total_vectors),
            ),
            ArchKind::OriginalPim => (
                self.pim.reduce_tree_latency_ns(vec_len, bits, vectors_per_bank),
                self.pim.reduce_tree_energy_pj(vec_len, bits, total_vectors),
            ),
            ArchKind::Nbp => {
                let g = &self.arch.hbm.geometry;
                let per_channel = vectors_per_bank * u64::from(g.banks_per_channel());
                let elems = per_channel * u64::from(vec_len);
                let rate = f64::from(calib::NBP_LANES) * calib::NBP_CLOCK_GHZ;
                let lat = elems as f64 / rate + per_channel as f64 * calib::NBP_VECTOR_RESTART_NS;
                let total_elems = total_vectors * u64::from(vec_len);
                let pj = total_elems as f64
                    * (f64::from(bits)
                        * (self.arch.hbm.energy.e_pre_gsa + self.arch.hbm.energy.e_post_gsa)
                        + calib::NBP_LOGIC_PJ_PER_OP);
                (lat, pj)
            }
        }
    }

    fn recip(&self, per_bank: u64, total: u64) -> (f64, f64) {
        match self.arch.kind {
            ArchKind::TransPim | ArchKind::TransPimNb => {
                let per_divider = per_bank.div_ceil(u64::from(self.arch.acu.p_sub).max(1));
                (self.divider.latency_ns(per_divider), self.divider.energy_pj(total))
            }
            ArchKind::OriginalPim => {
                // Newton–Raphson in the arrays: 2 multiplies + 1 add per
                // iteration at Softmax width.
                let mul = PimOp::Mul { a_bits: 16, b_bits: 16 };
                let add = PimOp::Add { bits: 16 };
                let iters = f64::from(calib::PIM_RECIP_ITERATIONS);
                let lat = iters
                    * (2.0 * self.pim.latency_ns(mul, per_bank)
                        + self.pim.latency_ns(add, per_bank));
                let pj =
                    iters * (2.0 * self.pim.energy_pj(mul, total) + self.pim.energy_pj(add, total));
                (lat, pj)
            }
            ArchKind::Nbp => {
                let ops = 3.0 * f64::from(calib::PIM_RECIP_ITERATIONS);
                let g = &self.arch.hbm.geometry;
                let per_channel = per_bank * u64::from(g.banks_per_channel());
                let rate = f64::from(calib::NBP_LANES) * calib::NBP_CLOCK_GHZ;
                let lat = per_channel as f64 * ops / rate;
                let pj = total as f64 * ops * calib::NBP_LOGIC_PJ_PER_OP;
                (lat, pj)
            }
        }
    }

    /// [`Executor::recip`] when some ACU dividers are broken: the affected
    /// banks fall back to Newton–Raphson reciprocal in their arrays (the
    /// OriginalPim path), running alongside the healthy dividers. Latency
    /// is the slower of the two sides; energy blends by the broken
    /// fraction. The incremental cost is charged to the session in scaled
    /// engine time.
    fn recip_degraded(
        &self,
        per_bank: u64,
        total: u64,
        sess: &mut FaultSession,
        scale: f64,
    ) -> (f64, f64) {
        let (div_lat, div_pj) = self.recip(per_bank, total);
        let mul = PimOp::Mul { a_bits: 16, b_bits: 16 };
        let add = PimOp::Add { bits: 16 };
        let iters = f64::from(calib::PIM_RECIP_ITERATIONS);
        let nr_lat =
            iters * (2.0 * self.pim.latency_ns(mul, per_bank) + self.pim.latency_ns(add, per_bank));
        let nr_pj = iters * (2.0 * self.pim.energy_pj(mul, total) + self.pim.energy_pj(add, total));
        let frac = sess.broken_divider_fraction();
        let lat = div_lat.max(nr_lat);
        let pj = div_pj * (1.0 - frac) + nr_pj * frac;
        sess.add_overhead((lat - div_lat) * scale, pj - div_pj);
        (lat, pj)
    }

    // ---- movement pricing ------------------------------------------------

    fn layout_factor(&self) -> f64 {
        if self.arch.kind.computes_in_memory() {
            calib::LAYOUT_REORG_OVERHEAD
        } else {
            1.0
        }
    }

    fn host_broadcast(&self, bytes: u64, banks: u32) -> (f64, f64) {
        let g = &self.arch.hbm.geometry;
        let bus = &self.arch.hbm.bus;
        let b = bytes as f64;
        let bits = b * 8.0;
        let channels = f64::from(g.total_channels());
        let base = b / bus.host_gbs + b / bus.stack_gbs;
        let (lat, bus_traversals) = if self.arch.kind.has_buffers() {
            // Broadcast write: one channel-bus pass per channel, all banks
            // of the channel latch simultaneously — paced by the banks'
            // row-write rate, not the bus burst rate.
            (base + self.layout_factor() * b / self.stream_floor_gbs.min(bus.channel_gbs), channels)
        } else {
            // Original datapath: one serialized, row-cycle-bound pass per
            // bank on each channel's shared bus.
            let per_chan = f64::from(g.banks_per_channel());
            (
                base + self.layout_factor() * per_chan * b / bus.channel_gbs,
                channels * f64::from(g.banks_per_channel()),
            )
        };
        let e = &self.arch.hbm.energy;
        let pj = bits * e.e_io * (1.0 + f64::from(g.stacks))
            + bits * e.e_post_gsa * bus_traversals
            + f64::from(banks) * self.xfer.bank_write_energy_pj(bytes);
        (lat, pj)
    }

    fn host_scatter(&self, total_bytes: u64) -> (f64, f64) {
        let g = &self.arch.hbm.geometry;
        let bus = &self.arch.hbm.bus;
        let b = total_bytes as f64;
        let per_channel = b / f64::from(g.total_channels());
        let lat = b / bus.host_gbs
            + self.layout_factor() * per_channel / self.stream_floor_gbs.min(bus.channel_gbs);
        let e = &self.arch.hbm.energy;
        let bits = b * 8.0;
        let pj = bits * (e.e_io + e.e_post_gsa) + self.xfer.bank_write_energy_pj(total_bytes);
        (lat, pj)
    }

    fn shuffle_all(&self, total_bytes: u64) -> (f64, f64) {
        let g = &self.arch.hbm.geometry;
        let bus = &self.arch.hbm.bus;
        // With buffers every bank-group segment streams independently;
        // without them each channel's shared bus is the unit of transfer.
        let agg = if self.arch.kind.has_buffers() {
            f64::from(g.total_groups()) * bus.group_gbs
        } else {
            f64::from(g.total_channels()) * bus.channel_gbs
        };
        let lat = self.layout_factor() * total_bytes as f64 / agg;
        let e = &self.arch.hbm.energy;
        let bits = total_bytes as f64 * 8.0;
        // Read out of one bank, across the bus, into another.
        let pj = bits * (2.0 * (e.e_pre_gsa + e.e_post_gsa) + e.e_io)
            + 2.0 * (total_bytes as f64 / f64::from(g.row_bytes)) * e.e_act;
        (lat, pj)
    }

    fn broadcast_dup(&self, bytes: u64, banks: u32) -> (f64, f64) {
        let g = &self.arch.hbm.geometry;
        let bus = &self.arch.hbm.bus;
        let b = bytes as f64;
        let copies_per_channel = if self.arch.kind.has_buffers() {
            1.0 // broadcast write reaches all banks of the channel at once
        } else {
            f64::from(g.banks_per_channel())
        };
        // Broadcast writes are paced by the receiving banks' row-write
        // rate (channel_gbs already equals it on unbuffered datapaths).
        let lat = b / bus.stack_gbs
            + self.layout_factor() * copies_per_channel * b
                / self.stream_floor_gbs.min(bus.channel_gbs);
        let e = &self.arch.hbm.energy;
        let bits = b * 8.0;
        let pj = bits * (e.e_pre_gsa + e.e_post_gsa) // gather source read
            + bits * e.e_post_gsa * f64::from(g.total_channels()) * copies_per_channel
            + f64::from(banks) * self.xfer.bank_write_energy_pj(bytes);
        (lat, pj)
    }

    fn mem_touch(&self, bytes_per_bank: u64, total_bytes: u64) -> (f64, f64) {
        let g = &self.arch.hbm.geometry;
        let t = &self.arch.hbm.timing;
        let rows = bytes_per_bank.div_ceil(u64::from(g.row_bytes).max(1)) as f64;
        let beats = (bytes_per_bank * 8).div_ceil(u64::from(g.dq_bits)) as f64;
        let lat = rows * t.t_rc + beats * t.t_ccd_l;
        let e = &self.arch.hbm.energy;
        let total_rows = total_bytes.div_ceil(u64::from(g.row_bytes).max(1)) as f64;
        let pj = total_rows * e.e_act + total_bytes as f64 * 8.0 * e.e_pre_gsa;
        (lat, pj)
    }

    // ---- scheduled/memoized communication ---------------------------------

    fn schedule(&mut self, key: ScheduleKey) -> ScheduleResult {
        let Self { schedules, map, xfer, .. } = self;
        schedules.entry(key).or_insert_with(|| key.price(map, xfer)).cost
    }

    /// Trace detail of a step, emitted before its lumps run. A one-to-all
    /// broadcast marks an instant. A ring or tree emits per-hop spans (plus
    /// one summary span for the remaining `repeat - 1` identical ring
    /// rounds) the first time this run meets its topology, and a single
    /// summary span afterwards.
    fn detail(&mut self, step: &Step, run: &mut Run<'_>) {
        let (key, rounds) = match *step {
            Step::RingBroadcast { banks, bytes_per_hop, repeat, .. } => {
                (ScheduleKey { pattern: Pattern::Ring, banks, bytes: bytes_per_hop }, repeat)
            }
            Step::PairwiseReduceTree { banks, bytes, .. } => {
                (ScheduleKey { pattern: Pattern::Tree, banks, bytes }, 1)
            }
            Step::OneToAll { src, banks, bytes, .. } => {
                (ScheduleKey { pattern: Pattern::OneToAll { src }, banks, bytes }, 1)
            }
            _ => return,
        };
        let Self { schedules, map, xfer, .. } = self;
        let schedule = schedules.entry(key).or_insert_with(|| key.price(map, xfer));
        let r = schedule.cost;
        let (engine, sink) = (&run.engine, run.engine.sink());
        let (scale, base) = (engine.latency_scale(), engine.now_ns());
        let (banks, bytes) = (u64::from(key.banks.count), key.bytes);
        if let Pattern::OneToAll { src } = key.pattern {
            sink.instant(
                InstantEvent::new("one-to-all", "ring", tracks::RING, base)
                    .with_arg("src_bank", u64::from(src))
                    .with_arg("banks", banks)
                    .with_arg("bytes", bytes)
                    .with_arg("slots", u64::from(r.slots)),
            );
            return;
        }
        if !run.detailed.insert((key.pattern, key.banks)) {
            sink.span(match key.pattern {
                Pattern::Ring => {
                    let dur = r.latency_ns * rounds as f64 * scale;
                    SpanEvent::new("ring", "ring", tracks::RING, base, dur)
                        .with_arg("banks", banks)
                        .with_arg("bytes_per_hop", bytes)
                        .with_arg("slots", u64::from(r.slots))
                        .with_arg("rounds", rounds)
                }
                _ => {
                    SpanEvent::new("reduce-tree", "ring", tracks::RING, base, r.latency_ns * scale)
                        .with_arg("banks", banks)
                        .with_arg("bytes", bytes)
                }
            });
            return;
        }
        let hops = schedule.hops.get_or_insert_with(|| key.placements(map, xfer));
        emit_hop_events(sink, map, base, scale, hops);
        if rounds > 1 {
            sink.span(
                SpanEvent::new(
                    format!("ring x{}", rounds - 1),
                    "ring",
                    tracks::RING,
                    base + r.latency_ns * scale,
                    r.latency_ns * (rounds - 1) as f64 * scale,
                )
                .with_arg("banks", banks)
                .with_arg("bytes_per_hop", bytes)
                .with_arg("slots", u64::from(r.slots)),
            );
        }
    }

    /// Expose the ring-step scheduler for ablation benches: cost of one
    /// full ring step over `banks` with `bytes` per hop.
    pub fn ring_step_cost(&mut self, banks: BankRange, bytes: u64) -> ScheduleResult {
        self.schedule(ScheduleKey { pattern: Pattern::Ring, banks, bytes })
    }

    /// Expose the decoder's pairwise reduction-tree transfer cost for
    /// ablation benches (movement only; the in-bank adds are priced
    /// separately by [`Step::PairwiseReduceTree`]).
    pub fn reduce_tree_cost(&mut self, banks: BankRange, bytes: u64) -> ScheduleResult {
        self.schedule(ScheduleKey { pattern: Pattern::Tree, banks, bytes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transpim_dataflow::ir::Precision;
    use transpim_dataflow::{layer_flow, token_flow};
    use transpim_obs::ChromeTraceSink;
    use transpim_transformer::workload::Workload;

    fn run(kind: ArchKind, token: bool, w: &Workload) -> SimStats {
        let arch = ArchConfig::new(kind);
        let banks = arch.hbm.geometry.total_banks();
        let prog =
            if token { token_flow::compile(w, banks) } else { layer_flow::compile(w, banks) };
        let mut ex = Executor::new(arch);
        ex.run(&prog).0
    }

    /// Price `prog` with a Chrome trace attached; returns the statistics
    /// and the trace document.
    fn traced(arch: ArchConfig, prog: &Program) -> (SimStats, ScopedStats, String) {
        let chrome = ChromeTraceSink::shared();
        let (stats, scoped) =
            Executor::new(arch).run_with_sink(prog, SinkHandle::from_shared(chrome.clone()));
        let trace = chrome.borrow().to_json_string().expect("trace must serialize");
        (stats, scoped, trace)
    }

    fn small_workload() -> Workload {
        let mut w = Workload::imdb();
        w.model.encoder_layers = 2;
        w
    }

    #[test]
    fn transpim_beats_pim_only_and_nbp() {
        let w = small_workload();
        let t = run(ArchKind::TransPim, true, &w).latency_ns;
        let p = run(ArchKind::OriginalPim, true, &w).latency_ns;
        let n = run(ArchKind::Nbp, true, &w).latency_ns;
        assert!(t < p, "TransPIM {t} should beat OriginalPIM {p}");
        assert!(t < n, "TransPIM {t} should beat NBP {n}");
    }

    #[test]
    fn token_dataflow_beats_layer_dataflow() {
        let w = small_workload();
        for kind in ArchKind::ALL {
            let t = run(kind, true, &w).latency_ns;
            let l = run(kind, false, &w).latency_ns;
            assert!(t < l, "{kind}: token {t} should beat layer {l}");
        }
    }

    #[test]
    fn buffers_reduce_data_movement() {
        let w = small_workload();
        let with = run(ArchKind::TransPim, true, &w);
        let without = run(ArchKind::TransPimNb, true, &w);
        let m_with = with.time_ns[Category::DataMovement.index()];
        let m_without = without.time_ns[Category::DataMovement.index()];
        assert!(
            m_with < m_without,
            "buffered movement {m_with} should beat unbuffered {m_without}"
        );
    }

    #[test]
    fn acu_slashes_reduction_time() {
        let w = small_workload();
        let t = run(ArchKind::TransPim, true, &w);
        let p = run(ArchKind::OriginalPim, true, &w);
        let rt = t.time_ns[Category::Reduction.index()];
        let rp = p.time_ns[Category::Reduction.index()];
        assert!(rp > 5.0 * rt, "ACU reduction {rt} should be ≫ faster than PIM-only {rp}");
    }

    #[test]
    fn nbp_arithmetic_is_slow_but_busy() {
        let w = small_workload();
        let n = run(ArchKind::Nbp, true, &w);
        let t = run(ArchKind::TransPim, true, &w);
        let an = n.time_ns[Category::Arithmetic.index()];
        let at = t.time_ns[Category::Arithmetic.index()];
        assert!(an > 2.0 * at, "NBP arithmetic {an} should lag PIM {at}");
        assert!(n.compute_utilization() > t.compute_utilization());
    }

    #[test]
    fn breakdown_partitions_latency() {
        let w = small_workload();
        let s = run(ArchKind::TransPim, true, &w);
        let sum: f64 = s.time_ns.iter().sum();
        assert!((sum - s.latency_ns).abs() < 1e-6 * s.latency_ns.max(1.0));
        assert!(s.total_energy_pj() > 0.0 && s.bytes_moved > 0.0);
    }

    #[test]
    fn pipelined_ring_never_slower_and_hides_movement() {
        let w = {
            let mut w = Workload::pubmed();
            w.model.encoder_layers = 2;
            w.model.decoder_layers = 0;
            w.decode_len = 0;
            w
        };
        let prog = token_flow::compile(&w, 2048);
        let barrier = {
            let mut ex = Executor::new(ArchConfig::new(ArchKind::TransPim));
            ex.run(&prog).0
        };
        let pipelined = {
            let arch = ArchConfig::new(ArchKind::TransPim).with_pipelined_ring(true);
            let mut ex = Executor::new(arch);
            ex.run(&prog).0
        };
        assert!(pipelined.latency_ns <= barrier.latency_ns);
        assert!(
            pipelined.time_ns[Category::DataMovement.index()]
                <= barrier.time_ns[Category::DataMovement.index()]
        );
        // Energy is work, not schedule: unchanged.
        assert!(
            (pipelined.total_energy_pj() - barrier.total_energy_pj()).abs()
                < 1e-6 * barrier.total_energy_pj()
        );
    }

    #[test]
    fn zero_sized_steps_are_free_and_finite() {
        let mut ex = Executor::new(ArchConfig::new(ArchKind::TransPim));
        let mut prog = transpim_dataflow::ir::Program::new();
        prog.push(Step::PointwiseMul {
            elems_per_bank: 0.into(),
            total_elems: 0,
            a_bits: 8,
            b_bits: 8,
        });
        prog.push(Step::Reduce {
            vec_len: 1,
            bits: 8,
            vectors_per_bank: 0.into(),
            total_vectors: 0,
        });
        prog.push(Step::HostScatter { total_bytes: 0 });
        prog.push(Step::MemTouch { bytes_per_bank: 0.into(), total_bytes: 0 });
        let (stats, _) = ex.run(&prog);
        assert!(stats.latency_ns.is_finite() && stats.latency_ns >= 0.0);
        assert!(stats.total_energy_pj().is_finite());
    }

    #[test]
    fn decoder_program_executes() {
        let mut w = Workload::pubmed();
        w.model.encoder_layers = 1;
        w.model.decoder_layers = 1;
        w.decode_len = 3;
        w.seq_len = 256;
        let s = run(ArchKind::TransPim, true, &w);
        assert!(s.latency_ns > 0.0);
    }

    #[test]
    fn precision_default_is_paper_precision() {
        let p = Precision::default();
        assert_eq!((p.act_bits, p.softmax_bits, p.taylor_order), (8, 16, 5));
    }

    #[test]
    fn traced_run_matches_untraced_and_parses() {
        let w = small_workload();
        let arch = ArchConfig::new(ArchKind::TransPim);
        let banks = arch.hbm.geometry.total_banks();
        let prog = token_flow::compile(&w, banks);
        let (plain, plain_scoped) = Executor::new(arch.clone()).run(&prog);
        let (traced, traced_scoped, trace) = traced(arch, &prog);
        assert_eq!(plain, traced, "tracing must not perturb the statistics");
        assert_eq!(plain_scoped, traced_scoped);
        let parsed: serde_json::Value = serde_json::from_str(&trace).expect("trace is JSON");
        let events = parsed.as_array().expect("chrome trace is a JSON array");
        assert!(!events.is_empty(), "a real program must emit events");
        // Ring-hop spans from the communication scheduler are present.
        assert!(events.iter().any(|e| e["cat"] == "ring"), "per-hop ring events expected");
    }

    #[test]
    fn ring_hop_spans_nest_inside_their_phase() {
        let mut ex = Executor::new(ArchConfig::new(ArchKind::TransPim));
        let mut prog = transpim_dataflow::ir::Program::new();
        prog.push(Step::RingBroadcast {
            banks: BankRange { start: 0, count: 8 },
            bytes_per_hop: 256,
            repeat: 3,
            parallel: 1,
        });
        let chrome = ChromeTraceSink::shared();
        ex.run_with_sink(&prog, SinkHandle::from_shared(chrome.clone()));
        let sink = chrome.borrow();
        let spans: Vec<_> = sink
            .sorted_events()
            .into_iter()
            .filter(|e| e.ph == "X" && e.cat != "__metadata")
            .collect();
        let phase = spans.iter().find(|e| e.cat == "data-movement").expect("phase span");
        let phase_end = phase.ts + phase.dur.unwrap_or(0.0);
        let hops: Vec<_> = spans.iter().filter(|e| e.cat == "ring").collect();
        assert!(!hops.is_empty());
        for h in &hops {
            let end = h.ts + h.dur.unwrap_or(0.0);
            assert!(
                h.ts >= phase.ts - 1e-9 && end <= phase_end + 1e-9,
                "hop [{}, {end}] escapes phase [{}, {phase_end}]",
                h.ts,
                phase.ts,
            );
        }
    }

    #[test]
    fn repeated_ring_topologies_collapse_to_summary_spans() {
        // The decoder prices the same ring/tree topology thousands of
        // times; only the first occurrence may emit per-hop detail or the
        // trace size (and traced-run cost) grows with the step count.
        let mut ex = Executor::new(ArchConfig::new(ArchKind::TransPim));
        let mut prog = transpim_dataflow::ir::Program::new();
        let banks = BankRange { start: 0, count: 8 };
        for bytes in [256, 512, 1024] {
            prog.push(Step::RingBroadcast { banks, bytes_per_hop: bytes, repeat: 1, parallel: 1 });
            prog.push(Step::PairwiseReduceTree { banks, bytes, bits: 16, elems: 64, parallel: 1 });
        }
        let chrome = ChromeTraceSink::shared();
        ex.run_with_sink(&prog, SinkHandle::from_shared(chrome.clone()));
        let sink = chrome.borrow();
        let events = sink.sorted_events();
        let hop_count = events.iter().filter(|e| e.name.starts_with("hop ")).count();
        // One detailed exemplar per topology: 8 ring hops (full ring
        // round) + 7 tree hops (4 + 2 + 1 halving levels).
        assert_eq!(hop_count, 15, "per-hop detail must not repeat per occurrence");
        assert_eq!(events.iter().filter(|e| e.name == "ring").count(), 2);
        assert_eq!(events.iter().filter(|e| e.name == "reduce-tree").count(), 2);
    }

    #[test]
    fn one_to_all_schedules_are_keyed_by_source() {
        // The broadcast prices its source: whether the source sits in the
        // target stack and whose write energy is skipped. A schedule cached
        // for one source must not be served for another.
        let arch = ArchConfig::new(ArchKind::TransPim);
        let last = arch.hbm.geometry.total_banks() - 1;
        let banks = BankRange { start: 0, count: 8 };
        let program = |src| {
            let mut prog = Program::new();
            prog.push(Step::OneToAll { src, banks, bytes: 4096, parallel: 1 });
            prog
        };
        let mut reused = Executor::new(arch.clone());
        reused.run(&program(0));
        let (warm, _) = reused.run(&program(last));
        let (fresh, _) = Executor::new(arch).run(&program(last));
        assert_eq!(warm, fresh, "a cached one-to-all schedule leaked across sources");
    }

    fn decode_workload() -> Workload {
        let mut w = Workload::pubmed();
        w.model.encoder_layers = 1;
        w.model.decoder_layers = 2;
        w.decode_len = 12;
        w.seq_len = 128;
        w
    }

    #[test]
    fn compressed_pricing_matches_unrolled_bitwise() {
        // The compiled decode loop arrives as `Step::Repeat`; pricing it
        // must be indistinguishable — bit for bit, scoped and total — from
        // pricing the unrolled step sequence, on every architecture and
        // both dataflows.
        let w = decode_workload();
        for kind in ArchKind::ALL {
            let arch = ArchConfig::new(kind);
            let banks = arch.hbm.geometry.total_banks();
            for token in [true, false] {
                let prog = if token {
                    token_flow::compile(&w, banks)
                } else {
                    layer_flow::compile(&w, banks)
                };
                let unrolled = prog.unroll();
                assert_eq!(prog.unrolled_len(), unrolled.len() as u64);
                if token {
                    assert!(prog.len() < unrolled.len(), "{kind}: decode loop should compress");
                }
                let (a, sa) = Executor::new(arch.clone()).run(&prog);
                let (b, sb) = Executor::new(arch.clone()).run(&unrolled);
                assert_eq!(a, b, "{kind}: compressed stats must equal unrolled stats");
                assert_eq!(sa, sb, "{kind}: scoped stats must agree too");
            }
        }
    }

    #[test]
    fn traced_compressed_matches_traced_unrolled() {
        // Tracing a compressed program walks every iteration and must
        // produce a byte-identical trace document.
        let w = decode_workload();
        let arch = ArchConfig::new(ArchKind::TransPim);
        let banks = arch.hbm.geometry.total_banks();
        let prog = token_flow::compile(&w, banks);
        let unrolled = prog.unroll();
        let (s1, sc1, t1) = traced(arch.clone(), &prog);
        let (s2, sc2, t2) = traced(arch, &unrolled);
        assert_eq!(s1, s2);
        assert_eq!(sc1, sc2);
        assert_eq!(t1, t2, "tracing must not observe the compression");
    }
}
