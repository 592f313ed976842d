//! `perfbench-probe` — the in-process half of the perfbench benchmark.
//!
//! ```text
//! perfbench-probe oracle <requests.json> <out-dir>
//! perfbench-probe traced <requests.json> <seconds> <out-dir>
//! ```
//!
//! `oracle` writes, for every `transpim-sim` request, the report the CLI
//! must produce, computed in-process: requests marked `unroll` are priced
//! from the fully unrolled program on a fresh executor, other plain and
//! observed requests through `Accelerator::simulate` with no sink,
//! degraded requests through `Accelerator::simulate_degraded`. Files go to
//! `<out-dir>/<id>.json`, with every request's unrolled step count in
//! `<out-dir>/steps.json` and every `sweep` request's cells, in CSV row
//! order, in `<out-dir>/cells.json`.
//!
//! `traced` runs the requests in-process in whole passes for about
//! `<seconds>`, recording a span around each call into a simulator layer,
//! and writes `<out-dir>/traced.json` (per-layer metrics, in-process
//! request times, failures), `<out-dir>/spans.json` (every span) and
//! `<out-dir>/traced/<id>.json` (the reports it priced).

mod request;
mod spans;

use request::{GridRequest, Kind, Request, SimRequest};
use spans::{self_time_by_request, Recorder};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use transpim::accelerator::Accelerator;
use transpim::exec::Executor;
use transpim::fault::{FaultSession, SystemInfo};
use transpim::report::{DataflowKind, SimReport};
use transpim::{ChromeTraceSink, FanoutSink, MetricsSink, SinkHandle, Step};
use transpim_dataflow::ir::Program;
use transpim_dataflow::{layer_flow, token_flow};
use transpim_hbm::stats::{ScopedStats, SimStats};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        ["oracle", requests, out] => load(requests).and_then(|r| oracle(&r, Path::new(out))),
        ["traced", requests, seconds, out] => seconds
            .parse::<f64>()
            .map_err(|e| format!("seconds: {e}"))
            .and_then(|s| load(requests).and_then(|r| traced(&r, s, Path::new(out)))),
        _ => Err("usage: perfbench-probe oracle <requests.json> <out-dir> | \
                  traced <requests.json> <seconds> <out-dir>"
            .into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            ExitCode::from(2)
        }
    }
}

fn load(path: &str) -> Result<Vec<Request>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    request::parse(&text)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The report `transpim-sim` assembles from priced statistics.
fn report(r: &SimRequest, stats: SimStats, scoped: ScopedStats) -> SimReport {
    SimReport {
        system: r.arch.system_label(r.dataflow.label()),
        arch: r.arch.kind,
        dataflow: r.dataflow,
        workload: r.workload.name.clone(),
        stats,
        scoped,
        total_ops: r.workload.total_ops(),
        batch: r.workload.batch,
        faults: None,
    }
}

fn json<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, String> {
    serde_json::to_string_pretty(value).map_err(|e| e.to_string())
}

fn to_json(report: &SimReport) -> Result<String, String> {
    report.to_json().map_err(|e| format!("serializing report: {e}"))
}

/// The report `transpim-sim` must write for `r`, and the number of
/// unrolled steps it prices.
fn oracle_report(r: &SimRequest) -> Result<(String, u64), String> {
    let acc = Accelerator::new(r.arch.clone());
    let report = match &r.faults {
        Some(scenario) => {
            acc.simulate_degraded(&r.workload, r.dataflow, scenario).map_err(|e| e.to_string())?
        }
        None if r.unroll => {
            let program = acc.compile(&r.workload, r.dataflow).unroll();
            let (stats, scoped) = Executor::new(r.arch.clone()).run(&program);
            report(r, stats, scoped)
        }
        None => acc.simulate(&r.workload, r.dataflow),
    };
    // The library returns no program, so the step count takes a compile
    // of its own.
    let banks = match &r.faults {
        Some(scenario) => healthy_banks(
            &r.arch,
            &FaultSession::new(scenario, system_info(&r.arch)).map_err(|e| e.to_string())?,
        ),
        None => r.arch.hbm.geometry.total_banks(),
    };
    Ok((to_json(&report)?, compile(banks, r).unrolled_len()))
}

/// Degraded programs are compiled over the banks that survive (as in
/// `Accelerator::simulate_degraded_with_sink`).
fn healthy_banks(arch: &transpim::ArchConfig, session: &FaultSession) -> u32 {
    arch.hbm.geometry.total_banks() - session.failed_bank_count()
}

fn system_info(arch: &transpim::ArchConfig) -> SystemInfo {
    let g = &arch.hbm.geometry;
    SystemInfo {
        total_banks: g.total_banks(),
        total_groups: g.total_groups(),
        subarrays_per_bank: g.subarrays_per_bank,
    }
}

fn oracle(requests: &[Request], out: &Path) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let jobs: Vec<_> = requests
        .iter()
        .map(|r| {
            move || {
                let result = match &r.kind {
                    Kind::Sim(sim) => oracle_report(sim).map(|(json, n)| (Some(json), n)),
                    Kind::Grid(g) => Ok((None, grid_steps(g))),
                };
                (r.id.as_str(), result)
            }
        })
        .collect();
    let mut steps: BTreeMap<String, u64> = BTreeMap::new();
    for (id, result) in transpim_par::run(transpim_par::max_threads(), jobs) {
        let (report, n) = result.map_err(|e| format!("{id}: {e}"))?;
        if let Some(json) = report {
            write(&out.join(format!("{id}.json")), &json)?;
        }
        steps.insert(id.to_string(), n);
    }
    // The cells as sweep's CSV labels them (seq_len,stacks,dataflow,arch),
    // so the driver can check that `request::grid_cells` still mirrors
    // sweep's grid layout.
    let cells: BTreeMap<String, Vec<String>> = requests
        .iter()
        .filter_map(|r| match &r.kind {
            Kind::Grid(g) => Some((r.id.clone(), g.cells.iter().map(cell_label).collect())),
            Kind::Sim(_) => None,
        })
        .collect();
    write(&out.join("steps.json"), &json(&steps)?)?;
    write(&out.join("cells.json"), &json(&cells)?)
}

fn cell_label(cell: &transpim_bench::GridCell) -> String {
    let stacks = cell.arch.hbm.geometry.stacks;
    format!("{},{stacks},{},{}", cell.workload.seq_len, cell.dataflow, cell.arch.kind)
}

/// Unrolled steps of every cell of a grid.
fn grid_steps(g: &GridRequest) -> u64 {
    g.cells
        .iter()
        .map(|cell| Accelerator::new(cell.arch.clone()).compile(&cell.workload, cell.dataflow))
        .map(|p| p.unrolled_len())
        .sum()
}

/// Counts gathered while tracing, summed over every priced program.
#[derive(Debug, Default)]
struct Counts {
    programs: u64,
    compiled_steps: u64,
    unrolled_steps: u64,
    repeat_steps: u64,
    /// Unrolled steps priced inside an `exec.price` span.
    priced_steps: u64,
    observed: u64,
    trace_events: u64,
    trace_bytes: u64,
    metrics_bytes: u64,
    degraded: u64,
    injected: u64,
    corrected: u64,
    cells: u64,
    executors: u64,
}

impl Counts {
    fn program(&mut self, p: &Program) {
        let unrolled = p.unrolled_len();
        let outside = p.steps().iter().filter(|s| !matches!(s, Step::Repeat { .. })).count();
        self.programs += 1;
        self.compiled_steps += p.len() as u64;
        self.unrolled_steps += unrolled;
        self.repeat_steps += unrolled - outside as u64;
    }
}

fn compile_span(df: DataflowKind) -> &'static str {
    match df {
        DataflowKind::Token => "dataflow.token_compile",
        DataflowKind::Layer => "dataflow.layer_compile",
    }
}

fn compile(banks: u32, r: &SimRequest) -> Program {
    match r.dataflow {
        DataflowKind::Token => token_flow::compile(&r.workload, banks),
        DataflowKind::Layer => layer_flow::compile(&r.workload, banks),
    }
}

/// One traced `transpim-sim` request; returns the report JSON.
fn traced_sim(rec: &mut Recorder, c: &mut Counts, r: &SimRequest) -> Result<String, String> {
    let banks = r.arch.hbm.geometry.total_banks();
    if let Some(scenario) = &r.faults {
        return rec.span("request", |rec| {
            let info = system_info(&r.arch);
            let mut session = rec
                .span("fault.session", |_| FaultSession::new(scenario, info))
                .map_err(|e| e.to_string())?;
            let program = rec
                .span(compile_span(r.dataflow), |_| compile(healthy_banks(&r.arch, &session), r));
            let mut exec = rec.span("exec.new", |_| Executor::new(r.arch.clone()));
            rec.span("fault.session", |_| exec.apply_ring_faults(&session));
            let (stats, scoped) = rec
                .span("fault.price", |_| exec.run_degraded(&program, &mut session))
                .map_err(|e| e.to_string())?;
            let mut report = report(r, stats, scoped);
            if !scenario.is_empty() {
                let f = session.stats();
                c.degraded += 1;
                c.injected += f.injected;
                c.corrected += f.corrected;
                report.faults = Some(f);
            }
            c.program(&program);
            rec.span("report.serialize", |_| to_json(&report))
        });
    }
    if r.observe {
        let (json, program) = rec.span("request", |rec| {
            let program = rec.span(compile_span(r.dataflow), |_| compile(banks, r));
            let mut exec = rec.span("exec.new", |_| Executor::new(r.arch.clone()));
            let chrome = ChromeTraceSink::shared();
            let metrics = MetricsSink::shared();
            let sink = SinkHandle::new(FanoutSink::new(vec![
                SinkHandle::from_shared(chrome.clone()),
                SinkHandle::from_shared(metrics.clone()),
            ]));
            let (stats, scoped) =
                rec.span("obs.sink_price", |_| exec.run_with_sink(&program, sink));
            let report = report(r, stats, scoped);
            let json = rec.span("report.serialize", |_| to_json(&report))?;
            let trace = rec
                .span("obs.trace_serialize", |_| chrome.borrow().to_json_string())
                .map_err(|e| e.to_string())?;
            {
                // The headline figures transpim-sim appends to --metrics
                // (`push_headline_metrics` in src/bin/transpim-sim.rs).
                let mut m = metrics.borrow_mut();
                m.push_metric("report.latency_ms", report.latency_ms());
                m.push_metric("report.energy_mj", report.stats.total_energy_pj() * 1e-9);
                m.push_metric("report.bytes_moved", report.stats.bytes_moved);
                m.push_metric("report.utilization", report.utilization());
            }
            let doc = rec
                .span("obs.metrics_serialize", |_| metrics.borrow().to_json_string())
                .map_err(|e| e.to_string())?;
            c.observed += 1;
            c.trace_events += chrome.borrow().len() as u64;
            c.trace_bytes += trace.len() as u64;
            c.metrics_bytes += doc.len() as u64;
            Ok::<_, String>((json, program))
        })?;
        // The same program priced with no sink attached, for
        // obs.sink_price_ms; outside the request span, which mirrors the
        // CLI's own work.
        rec.span("baseline", |rec| {
            let mut exec = Executor::new(r.arch.clone());
            rec.span("exec.price", |_| exec.run(&program))
        });
        c.priced_steps += program.unrolled_len();
        c.program(&program);
        return Ok(json);
    }
    rec.span("request", |rec| {
        let program = rec.span(compile_span(r.dataflow), |_| compile(banks, r));
        let mut exec = rec.span("exec.new", |_| Executor::new(r.arch.clone()));
        let (stats, scoped) = rec.span("exec.price", |_| exec.run(&program));
        c.priced_steps += program.unrolled_len();
        c.program(&program);
        rec.span("report.serialize", |_| to_json(&report(r, stats, scoped)))
    })
}

/// One traced `sweep` request: the pooled grid, then the same cells one by
/// one on fresh executors. Returns the cells whose reports differ.
fn traced_grid(rec: &mut Recorder, c: &mut Counts, g: &GridRequest) -> Vec<usize> {
    let pooled = rec.span("request", |rec| {
        rec.span("par.grid", |_| transpim_bench::run_grid(g.jobs, false, false, g.cells.clone()))
    });
    let mut batches: Vec<(&transpim::ArchConfig, DataflowKind)> = Vec::new();
    for cell in &g.cells {
        if !batches.iter().any(|&(a, d)| a == &cell.arch && d == cell.dataflow) {
            batches.push((&cell.arch, cell.dataflow));
        }
    }
    c.cells += g.cells.len() as u64;
    c.executors += batches.len() as u64;
    let serial: Vec<SimReport> = rec.span("par.serial", |rec| {
        g.cells
            .iter()
            .map(|cell| {
                let sim = SimRequest {
                    workload: cell.workload.clone(),
                    dataflow: cell.dataflow,
                    arch: cell.arch.clone(),
                    faults: None,
                    observe: false,
                    unroll: false,
                };
                let banks = cell.arch.hbm.geometry.total_banks();
                let program = rec.span(compile_span(cell.dataflow), |_| compile(banks, &sim));
                let mut exec = rec.span("exec.new", |_| Executor::new(cell.arch.clone()));
                let (stats, scoped) = rec.span("exec.price", |_| exec.run(&program));
                c.priced_steps += program.unrolled_len();
                c.program(&program);
                report(&sim, stats, scoped)
            })
            .collect()
    });
    pooled
        .iter()
        .zip(&serial)
        .enumerate()
        .filter(|(_, (p, s))| p.report != **s)
        .map(|(i, _)| i)
        .collect()
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Host cost of recording one span, measured on a scratch recorder.
fn span_cost_ns() -> f64 {
    const N: usize = 20_000;
    let mut rec = Recorder::new();
    let t = Instant::now();
    for _ in 0..N {
        rec.span("calibrate", |rec| rec.span("calibrate.child", |_| ()));
    }
    t.elapsed().as_nanos() as f64 / (2 * N) as f64
}

fn traced(requests: &[Request], seconds: f64, out: &Path) -> Result<(), String> {
    let reports_dir: PathBuf = out.join("reports");
    std::fs::create_dir_all(&reports_dir).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    let mut failed = 0usize;
    let mut failures: Vec<String> = Vec::new();
    let mut reports: BTreeMap<&str, String> = BTreeMap::new();
    // Instance index → request index, for per-request aggregation.
    let mut instance_of: Vec<usize> = Vec::new();
    let start = Instant::now();
    loop {
        let pass_start = Instant::now();
        for (index, r) in requests.iter().enumerate() {
            rec.set_request(instance_of.len());
            instance_of.push(index);
            let problem = match &r.kind {
                Kind::Sim(sim) => match traced_sim(&mut rec, &mut counts, sim) {
                    Ok(json) => match reports.get(r.id.as_str()) {
                        Some(prev) if *prev != json => Some("report changed between passes".into()),
                        Some(_) => None,
                        None => {
                            reports.insert(&r.id, json);
                            None
                        }
                    },
                    Err(e) => Some(e),
                },
                Kind::Grid(grid) => {
                    let cells = traced_grid(&mut rec, &mut counts, grid);
                    (!cells.is_empty())
                        .then(|| format!("run_grid cells {cells:?} differ from fresh executors"))
                }
            };
            if let Some(p) = problem {
                failed += 1;
                failures.push(format!("{}: {p}", r.id));
            }
        }
        // Whole passes only, so every request weighs the same.
        let pass = pass_start.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + pass > seconds {
            break;
        }
    }
    let passes = instance_of.len() / requests.len().max(1);
    for (id, json) in &reports {
        write(&reports_dir.join(format!("{id}.json")), json)?;
    }

    let spans = rec.spans();
    let by_instance = self_time_by_request(spans);
    let ms = |name: &str| -> Vec<(usize, f64)> {
        by_instance
            .iter()
            .filter(|((_, n), _)| *n == name)
            .map(|(&(i, _), &ns)| (i, ns as f64 * 1e-6))
            .collect()
    };
    let med = |name: &str| median(ms(name).into_iter().map(|(_, v)| v).collect());
    let total = |name: &str| ms(name).into_iter().map(|(_, v)| v).sum::<f64>();
    // par.serial is reported inclusive of the cells it prices.
    let serial: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "par.serial")
        .map(|s| s.duration_ns() as f64 * 1e-6)
        .collect();
    let sink_minus_plain: Vec<f64> = {
        let plain: BTreeMap<usize, f64> = ms("exec.price").into_iter().collect();
        ms("obs.sink_price").into_iter().filter_map(|(i, v)| plain.get(&i).map(|p| v - p)).collect()
    };
    let top_ns: u64 = spans.iter().filter(|s| s.parent.is_none()).map(|s| s.duration_ns()).sum();

    let c = &counts;
    let metrics: BTreeMap<String, f64> = [
        ("dataflow.token_compile_ms", med("dataflow.token_compile")),
        ("dataflow.layer_compile_ms", med("dataflow.layer_compile")),
        ("dataflow.compiled_steps", ratio(c.compiled_steps as f64, c.programs)),
        ("dataflow.unrolled_steps", ratio(c.unrolled_steps as f64, c.programs)),
        ("dataflow.repeat_share", ratio(c.repeat_steps as f64, c.unrolled_steps)),
        ("exec.new_ms", med("exec.new")),
        ("exec.price_ms", med("exec.price")),
        ("exec.ns_per_step", ratio(total("exec.price") * 1e6, c.priced_steps)),
        ("obs.sink_price_ms", median(sink_minus_plain)),
        ("obs.trace_serialize_ms", med("obs.trace_serialize")),
        ("obs.metrics_serialize_ms", med("obs.metrics_serialize")),
        ("obs.trace_events", ratio(c.trace_events as f64, c.observed)),
        ("obs.trace_bytes", ratio(c.trace_bytes as f64, c.observed)),
        ("obs.metrics_bytes", ratio(c.metrics_bytes as f64, c.observed)),
        ("report.serialize_ms", med("report.serialize")),
        ("par.grid_ms", med("par.grid")),
        ("par.serial_ms", median(serial.clone())),
        ("par.speedup", {
            let grid = total("par.grid");
            if grid > 0.0 {
                serial.iter().sum::<f64>() / grid
            } else {
                0.0
            }
        }),
        ("par.cells_per_executor", ratio(c.cells as f64, c.executors)),
        ("fault.session_ms", med("fault.session")),
        ("fault.price_ms", med("fault.price")),
        ("fault.injected", ratio(c.injected as f64, c.degraded)),
        ("fault.corrected", ratio(c.corrected as f64, c.degraded)),
        ("trace.overhead_frac", spans.len() as f64 * span_cost_ns() / top_ns.max(1) as f64),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect();

    // In-process time of each request: its `request` span, median over
    // passes.
    let mut inproc: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "request") {
        inproc
            .entry(requests[instance_of[s.request]].id.as_str())
            .or_default()
            .push(s.duration_ns() as f64 * 1e-6);
    }
    let inproc: BTreeMap<String, f64> =
        inproc.into_iter().map(|(id, v)| (id.to_string(), median(v))).collect();

    let doc = format!(
        "{{\n\"metrics\": {},\n\"inproc_ms\": {},\n\"passes\": {passes},\n\"attempted\": {},\n\
         \"failed\": {failed},\n\"failures\": {}\n}}\n",
        json(&metrics)?,
        json(&inproc)?,
        instance_of.len(),
        json(&failures)?,
    );
    write(&out.join("spans.json"), &rec.to_json())?;
    write(&out.join("traced.json"), &doc)
}
