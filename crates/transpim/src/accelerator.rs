//! One-call simulation of a workload × dataflow × architecture combination.

use crate::arch::ArchConfig;
use crate::error::SimError;
use crate::exec::Executor;
use crate::report::{DataflowKind, SimReport};
use transpim_dataflow::ir::Program;
use transpim_dataflow::{layer_flow, token_flow};
use transpim_fault::{FaultScenario, FaultSession, SystemInfo};
use transpim_obs::SinkHandle;
use transpim_transformer::workload::Workload;

/// A configured memory-based accelerator.
///
/// # Example
///
/// ```
/// use transpim::{Accelerator, ArchConfig, ArchKind, DataflowKind};
/// use transpim_transformer::workload::Workload;
///
/// let mut w = Workload::imdb();
/// w.model.encoder_layers = 1; // keep the doctest fast
/// let acc = Accelerator::new(ArchConfig::new(ArchKind::TransPim));
/// let token = acc.simulate(&w, DataflowKind::Token);
/// let layer = acc.simulate(&w, DataflowKind::Layer);
/// assert!(token.latency_ms() < layer.latency_ms());
/// ```
#[derive(Debug, Clone)]
pub struct Accelerator {
    arch: ArchConfig,
}

/// One simulation request for [`Accelerator::run`]. Start from
/// [`Simulation::new`] and override fields with struct-update syntax:
///
/// ```
/// use transpim::accelerator::Simulation;
/// use transpim::{Accelerator, ArchConfig, ArchKind, ChromeTraceSink, DataflowKind, SinkHandle};
/// use transpim_transformer::workload::Workload;
///
/// let mut w = Workload::imdb();
/// w.model.encoder_layers = 1; // keep the doctest fast
/// let chrome = ChromeTraceSink::shared();
/// let sink = SinkHandle::from_shared(chrome.clone());
/// let acc = Accelerator::new(ArchConfig::new(ArchKind::TransPim));
/// let sim = Simulation { sink, ..Simulation::new(&w, DataflowKind::Token) };
/// let report = acc.run(sim).expect("a fault-free run cannot fail");
/// assert_eq!(report.stats, acc.simulate(&w, DataflowKind::Token).stats);
/// assert!(!chrome.borrow().is_empty());
/// ```
#[derive(Debug)]
pub struct Simulation<'a> {
    /// The workload to compile and price.
    pub workload: &'a Workload,
    /// The dataflow it is compiled under.
    pub dataflow: DataflowKind,
    /// Where phase spans, resource counters, per-hop ring events and fault
    /// instants go. [`SinkHandle::null`] emits nothing and changes no
    /// priced number.
    pub sink: SinkHandle,
    /// A fault scenario to degrade gracefully under. `None` and an empty
    /// scenario give byte-identical reports.
    pub faults: Option<&'a FaultScenario>,
    /// An executor to price on, so its schedule cache carries over from
    /// earlier requests of the same architecture (e.g. a sweep over
    /// sequence lengths). Reuse changes no priced number and no emitted
    /// event. `None` prices on a fresh executor.
    pub executor: Option<&'a mut Executor>,
}

impl<'a> Simulation<'a> {
    /// A fault-free request with no sink, on a fresh executor.
    pub fn new(workload: &'a Workload, dataflow: DataflowKind) -> Self {
        Self { workload, dataflow, sink: SinkHandle::null(), faults: None, executor: None }
    }
}

impl Accelerator {
    /// Build an accelerator around an architecture configuration.
    pub fn new(arch: ArchConfig) -> Self {
        Self { arch }
    }

    /// The architecture.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// Compile `workload` under `dataflow` into a dataflow program for this
    /// architecture's bank count — without pricing it. The returned program
    /// is loop-compressed: decode iterations arrive as
    /// [`transpim_dataflow::ir::Step::Repeat`] steps, so its step count is
    /// O(layers), not O(decode_len × layers). Use
    /// [`transpim_dataflow::ir::Program::unroll`] for the explicit sequence.
    pub fn compile(&self, workload: &Workload, dataflow: DataflowKind) -> Program {
        compile(workload, dataflow, self.arch.hbm.geometry.total_banks())
    }

    /// Compile `workload` under `dataflow` and simulate it.
    pub fn simulate(&self, workload: &Workload, dataflow: DataflowKind) -> SimReport {
        self.run(Simulation::new(workload, dataflow)).expect("only a fault scenario can fail a run")
    }

    /// Simulate under an injected fault scenario; see [`Simulation::faults`]
    /// and [`Accelerator::run`].
    ///
    /// # Errors
    ///
    /// See [`Accelerator::run`].
    pub fn simulate_degraded(
        &self,
        workload: &Workload,
        dataflow: DataflowKind,
        scenario: &FaultScenario,
    ) -> Result<SimReport, SimError> {
        self.run(Simulation { faults: Some(scenario), ..Simulation::new(workload, dataflow) })
    }

    /// Compile and price one request — the single simulation path every
    /// other entry point delegates to.
    ///
    /// Under a fault scenario the run degrades gracefully: tokens re-shard
    /// around failed banks, ring traffic re-routes around dead neighbor
    /// links over the shared channel bus (Figure 9's 8T path), stuck
    /// bit-planes serialize the surviving subarrays, broken ACU dividers
    /// fall back to in-array Newton–Raphson, and transient flips are
    /// absorbed by the scenario's ECC scheme. Fault events appear as
    /// instants on a dedicated trace track, and a non-empty scenario's
    /// accounting lands in [`SimReport::faults`]. A scenario that rewires
    /// ring links prices a machine no [`ArchConfig`] describes, so it runs
    /// on a private executor and leaves [`Simulation::executor`] untouched.
    ///
    /// # Errors
    ///
    /// [`SimError::Scenario`] when the scenario references hardware the
    /// geometry does not have, [`SimError::Uncorrectable`] when a fault
    /// exceeds every degradation policy (no banks survive, a bank's
    /// subarrays all stuck, or an unprotected transient flip).
    ///
    /// # Panics
    ///
    /// Panics if [`Simulation::executor`] was built from a different
    /// [`ArchConfig`] than this accelerator (cached schedules would be
    /// priced for the wrong geometry).
    pub fn run(&self, sim: Simulation<'_>) -> Result<SimReport, SimError> {
        if let Some(exec) = &sim.executor {
            assert!(
                exec.prices_arch(&self.arch),
                "executor architecture does not match accelerator architecture"
            );
        }
        let g = &self.arch.hbm.geometry;
        let info = SystemInfo {
            total_banks: g.total_banks(),
            total_groups: g.total_groups(),
            subarrays_per_bank: g.subarrays_per_bank,
        };
        let mut session = sim.faults.map(|s| FaultSession::new(s, info)).transpose()?;
        // Re-shard over the surviving pool (session validation guarantees
        // at least one healthy bank). The compiled program addresses the
        // healthy banks renumbered contiguously in ring order.
        let failed = session.as_ref().map_or(0, FaultSession::failed_bank_count);
        let program = compile(sim.workload, sim.dataflow, g.total_banks() - failed);
        let mut private = None;
        let exec = match sim.executor {
            Some(exec) if !session.as_ref().is_some_and(FaultSession::rewires_ring) => exec,
            _ => private.insert(Executor::new(self.arch.clone())),
        };
        if let Some(session) = &session {
            exec.apply_ring_faults(session);
        }
        let (stats, scoped) = exec.execute(&program, sim.sink, session.as_mut())?;
        Ok(SimReport {
            system: self.arch.system_label(sim.dataflow.label()),
            arch: self.arch.kind,
            dataflow: sim.dataflow,
            workload: sim.workload.name.clone(),
            stats,
            scoped,
            total_ops: sim.workload.total_ops(),
            batch: sim.workload.batch,
            faults: session.filter(|s| !s.is_empty()).map(|s| s.stats()),
        })
    }
}

fn compile(workload: &Workload, dataflow: DataflowKind, banks: u32) -> Program {
    match dataflow {
        DataflowKind::Token => token_flow::compile(workload, banks),
        DataflowKind::Layer => layer_flow::compile(workload, banks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchKind;
    use transpim_obs::{ChromeTraceSink, MetricsSink};

    #[test]
    fn simulate_produces_labeled_report() {
        let mut w = Workload::imdb();
        w.model.encoder_layers = 1;
        let acc = Accelerator::new(ArchConfig::new(ArchKind::TransPimNb));
        let r = acc.simulate(&w, DataflowKind::Layer);
        assert_eq!(r.system, "Layer-TransPIM-NB");
        assert_eq!(r.workload, "IMDB");
        assert!(r.latency_ms() > 0.0);
        assert!(r.scoped.get("enc.fc").is_some());
    }

    #[test]
    fn executor_reuse_never_changes_priced_results() {
        // One executor reused across sequence lengths and both dataflows
        // (warm ring/broadcast/tree schedule caches) must price exactly
        // what a fresh executor prices for every cell.
        let arch = ArchConfig::new(ArchKind::TransPim);
        let acc = Accelerator::new(arch.clone());
        let mut shared = crate::exec::Executor::new(arch);
        for seq_len in [96usize, 192, 96] {
            for df in DataflowKind::ALL {
                let mut w = Workload::synthetic_roberta(seq_len);
                w.model.encoder_layers = 1;
                let reused = acc
                    .run(Simulation { executor: Some(&mut shared), ..Simulation::new(&w, df) })
                    .expect("a fault-free run cannot fail");
                let fresh = acc.simulate(&w, df);
                assert_eq!(reused.stats, fresh.stats, "{df} @ {seq_len}");
                assert_eq!(reused.scoped, fresh.scoped, "{df} @ {seq_len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match accelerator architecture")]
    fn executor_reuse_rejects_mismatched_arch() {
        let mut w = Workload::imdb();
        w.model.encoder_layers = 1;
        let mut exec = crate::exec::Executor::new(ArchConfig::new(ArchKind::Nbp));
        let sim =
            Simulation { executor: Some(&mut exec), ..Simulation::new(&w, DataflowKind::Token) };
        let _ = Accelerator::new(ArchConfig::new(ArchKind::TransPim)).run(sim);
    }

    /// Report, trace and metrics documents of one observed run.
    fn observed(acc: &Accelerator, w: &Workload, exec: Option<&mut Executor>) -> [String; 3] {
        let chrome = ChromeTraceSink::shared();
        let metrics = MetricsSink::shared();
        let sink = SinkHandle::fanout(vec![
            SinkHandle::from_shared(chrome.clone()),
            SinkHandle::from_shared(metrics.clone()),
        ]);
        let sim = Simulation { sink, executor: exec, ..Simulation::new(w, DataflowKind::Token) };
        let report = acc.run(sim).expect("a fault-free run cannot fail");
        let trace = chrome.borrow().to_json_string().expect("trace serializes");
        let metrics = metrics.borrow().to_json_string().expect("metrics serialize");
        [report.to_json().expect("report serializes"), trace, metrics]
    }

    #[test]
    fn reused_executor_with_sinks_matches_fresh_executor_bytes() {
        // Which ring and tree topologies already emitted per-hop detail is
        // per-run state: an executor warmed by earlier observed runs must
        // emit exactly the documents a fresh executor emits.
        let mut w = Workload::pubmed();
        w.model.encoder_layers = 1;
        w.model.decoder_layers = 1;
        w.decode_len = 4;
        w.seq_len = 128;
        let arch = ArchConfig::new(ArchKind::TransPim);
        let acc = Accelerator::new(arch.clone());
        let fresh = observed(&acc, &w, None);
        let mut exec = Executor::new(arch);
        for run in 0..3 {
            assert_eq!(observed(&acc, &w, Some(&mut exec)), fresh, "reused run {run} diverged");
        }
    }

    #[test]
    fn compiled_decode_programs_scale_with_layers_not_decode_len() {
        // The GPT decode loop compiles to `Repeat` steps: the program's
        // step count is a function of the model depth, not of how many
        // tokens get generated.
        let acc = Accelerator::new(ArchConfig::new(ArchKind::TransPim));
        let mut w = Workload::lm();
        w.decode_len = 128;
        let short = acc.compile(&w, DataflowKind::Token);
        w.decode_len = 4096;
        let long = acc.compile(&w, DataflowKind::Token);
        assert!(long.unrolled_len() > 16 * short.unrolled_len());
        assert!(
            long.len() <= short.len() + 8,
            "step count must not grow with decode_len ({} vs {})",
            long.len(),
            short.len()
        );
        assert!(
            (long.len() as u64) * 1000 < long.unrolled_len(),
            "expected ≥1000× compression at decode_len=4096"
        );
    }

    #[test]
    fn traced_simulation_matches_plain_simulation() {
        let mut w = Workload::imdb();
        w.model.encoder_layers = 1;
        let acc = Accelerator::new(ArchConfig::new(ArchKind::TransPim));
        let plain = acc.simulate(&w, DataflowKind::Token);
        let chrome = ChromeTraceSink::shared();
        let sink = SinkHandle::from_shared(chrome.clone());
        let traced = acc
            .run(Simulation { sink, ..Simulation::new(&w, DataflowKind::Token) })
            .expect("fault-free");
        let trace = chrome.borrow().to_json_string().expect("trace serializes");
        assert_eq!(plain.stats, traced.stats);
        assert!(serde_json::from_str::<serde_json::Value>(&trace).is_ok());
    }
}
