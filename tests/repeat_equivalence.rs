//! Loop compression is an encoding, not a semantics change: a program
//! carrying `Step::Repeat` must be observationally indistinguishable from
//! its unrolled expansion. These tests pin that contract end-to-end for
//! every default workload — bit-for-bit statistics, report documents,
//! metrics documents, and trace documents — and re-pin the job-pool
//! determinism of `run_grid` now that the cells it prices are compressed.

use transpim::arch::{ArchConfig, ArchKind};
use transpim::exec::Executor;
use transpim::report::{DataflowKind, SimReport};
use transpim::Accelerator;
use transpim_bench::{run_grid, GridCell};
use transpim_hbm::stats::{ScopedStats, SimStats};
use transpim_obs::{ChromeTraceSink, FanoutSink, MetricsSink, SinkHandle};
use transpim_transformer::workload::Workload;

/// Price a program with full observability attached; return the priced
/// statistics plus the rendered metrics and trace documents.
fn observe(
    arch: &ArchConfig,
    prog: &transpim_dataflow::ir::Program,
) -> (SimStats, ScopedStats, String, String, String) {
    let chrome = ChromeTraceSink::shared();
    let metrics = MetricsSink::shared();
    let sink = SinkHandle::new(FanoutSink::new(vec![
        SinkHandle::from_shared(chrome.clone()),
        SinkHandle::from_shared(metrics.clone()),
    ]));
    let (stats, scoped) = Executor::new(arch.clone()).run_with_sink(prog, sink);
    let trace = chrome.borrow().to_json_string().expect("serialize trace");
    let metrics = metrics.borrow();
    (
        stats,
        scoped,
        trace,
        metrics.to_json_string().expect("serialize metrics"),
        metrics.to_csv_string(),
    )
}

#[test]
fn compressed_and_unrolled_documents_are_byte_identical() {
    for w in Workload::paper_suite() {
        for df in DataflowKind::ALL {
            let arch = ArchConfig::new(ArchKind::TransPim);
            let acc = Accelerator::new(arch.clone());
            let prog = acc.compile(&w, df);
            let unrolled = prog.unroll();
            assert_eq!(prog.unrolled_len(), unrolled.len() as u64, "{df} {}", w.name);

            let (s_c, sc_c, trace_c, mjson_c, mcsv_c) = observe(&arch, &prog);
            let (s_u, sc_u, trace_u, mjson_u, mcsv_u) = observe(&arch, &unrolled);
            assert_eq!(s_c, s_u, "{df} {}: stats diverged", w.name);
            assert_eq!(sc_c, sc_u, "{df} {}: scoped stats diverged", w.name);
            assert_eq!(mjson_c, mjson_u, "{df} {}: metrics JSON diverged", w.name);
            assert_eq!(mcsv_c, mcsv_u, "{df} {}: metrics CSV diverged", w.name);
            assert_eq!(trace_c, trace_u, "{df} {}: trace diverged", w.name);

            // Report documents: the public API prices the compressed
            // program; a report rebuilt around the unrolled pricing must
            // serialize to the same bytes.
            let report_c = acc.simulate(&w, df);
            let report_u = SimReport { stats: s_u, scoped: sc_u, ..report_c.clone() };
            assert_eq!(
                report_c.to_json().expect("serialize report"),
                report_u.to_json().expect("serialize report"),
                "{df} {}: report diverged",
                w.name
            );
        }
    }
}

#[test]
fn suite_grid_is_deterministic_across_job_counts() {
    // The compressed decode loops must not perturb the job pool's
    // determinism contract: jobs=1 and jobs=8 render identical report and
    // metrics documents for the full default suite.
    let grid = || {
        let mut cells = Vec::new();
        for w in Workload::paper_suite() {
            for df in DataflowKind::ALL {
                cells.push(GridCell::custom(ArchConfig::new(ArchKind::TransPim), df, &w));
            }
        }
        cells
    };
    let render = |jobs: usize| {
        let mut merged = MetricsSink::new();
        let mut doc = String::new();
        for output in run_grid(jobs, false, true, grid()) {
            doc.push_str(&output.report.to_json().expect("serialize report"));
            doc.push('\n');
            merged.merge(output.metrics.expect("metrics requested"));
        }
        doc.push_str(&merged.to_json_string().expect("serialize metrics"));
        doc
    };
    let serial = render(1);
    assert_eq!(serial, render(8), "jobs=8 diverged from jobs=1");
}

#[test]
fn gpt_decode_step_count_is_flat_in_decode_len() {
    // The acceptance bar for the compressed IR: the GPT decode program's
    // step count is O(layers), not O(decode_len × layers), in both
    // dataflows (the layer flow adds one repeat per 2048 tokens).
    let acc = Accelerator::new(ArchConfig::new(ArchKind::TransPim));
    for dataflow in DataflowKind::ALL {
        let mut w = Workload::lm();
        let mut lens = Vec::new();
        for decode in [256usize, 1024, 4096] {
            w.decode_len = decode;
            let prog = acc.compile(&w, dataflow);
            // The compiled length is dominated by the (uncompressed)
            // prefill, so the ratio floor grows with the decode length:
            // ≥100× at 256 tokens, ≥1000× at 4096.
            let floor = if decode >= 4096 { 1000 } else { 100 };
            assert!(
                (prog.len() as u64) * floor < prog.unrolled_len(),
                "{dataflow:?} decode={decode}: expected ≥{floor}× step compression, got {} vs {}",
                prog.len(),
                prog.unrolled_len()
            );
            lens.push(prog.len());
        }
        let spread = lens.iter().max().unwrap() - lens.iter().min().unwrap();
        assert!(spread <= 8, "{dataflow:?}: step count should not scale with decode_len: {lens:?}");
    }
}
