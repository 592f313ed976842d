//! Benchmark requests, as the driver writes them to `requests.json`.
//!
//! A request describes one CLI invocation: a `transpim-sim` simulation
//! (`Sim`) or a `sweep` grid (`Grid`). The probe rebuilds exactly the
//! inputs the CLI would build from the same arguments.

use serde_json::Value;
use transpim::arch::{ArchConfig, ArchKind};
use transpim::fault::FaultScenario;
use transpim::report::DataflowKind;
use transpim_bench::GridCell;
use transpim_transformer::workload::Workload;

/// One `transpim-sim` invocation.
#[derive(Debug, Clone)]
pub struct SimRequest {
    pub workload: Workload,
    pub dataflow: DataflowKind,
    pub arch: ArchConfig,
    /// Fault scenario, with `--faults`.
    pub faults: Option<FaultScenario>,
    /// Whether `--trace` and `--metrics` are attached.
    pub observe: bool,
    /// Whether the oracle prices the fully unrolled program.
    pub unroll: bool,
}

/// One `sweep` invocation.
#[derive(Debug, Clone)]
pub struct GridRequest {
    pub cells: Vec<GridCell>,
    pub jobs: usize,
}

#[derive(Debug, Clone)]
pub enum Kind {
    Sim(Box<SimRequest>),
    Grid(GridRequest),
}

#[derive(Debug, Clone)]
pub struct Request {
    pub id: String,
    pub kind: Kind,
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("request is missing '{key}'"))
}

fn text<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    field(v, key)?.as_str().ok_or_else(|| format!("'{key}' is not a string"))
}

fn number(v: &Value, key: &str) -> Result<u64, String> {
    field(v, key)?.as_u64().ok_or_else(|| format!("'{key}' is not a whole number"))
}

fn numbers(v: &Value, key: &str) -> Result<Vec<u64>, String> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| format!("'{key}' is not a list"))?
        .iter()
        .map(|x| x.as_u64().ok_or_else(|| format!("'{key}' holds a non-integer")))
        .collect()
}

fn workload(name: &str) -> Result<Workload, String> {
    match name {
        "lm" => Ok(Workload::lm()),
        "pubmed" => Ok(Workload::pubmed()),
        "arxiv" => Ok(Workload::arxiv()),
        other => Err(format!("unknown workload '{other}'")),
    }
}

fn arch(name: &str) -> Result<ArchConfig, String> {
    let kind = match name {
        "transpim" => ArchKind::TransPim,
        "transpim-nb" => ArchKind::TransPimNb,
        other => return Err(format!("unknown architecture '{other}'")),
    };
    // transpim-sim's defaults (`Opts` in src/bin/transpim-sim.rs): 8 stacks,
    // 16 ACUs per bank, 4 adder trees. The oracle's reports differ from
    // every CLI report if these drift.
    Ok(ArchConfig::new(kind).with_stacks(8).with_acu(16, 4))
}

fn dataflow(name: &str) -> Result<DataflowKind, String> {
    match name {
        "token" => Ok(DataflowKind::Token),
        "layer" => Ok(DataflowKind::Layer),
        other => Err(format!("unknown dataflow '{other}'")),
    }
}

/// The cells `sweep --model M --lengths … --stacks …` simulates, in its
/// submission order (the loops of `main` in crates/bench/src/bin/sweep.rs).
/// The driver checks them against the rows of sweep's CSV.
fn grid_cells(model: &str, lengths: &[u64], stacks: &[u64]) -> Result<Vec<GridCell>, String> {
    let mut cells = Vec::new();
    for &l in lengths {
        let l = usize::try_from(l).map_err(|e| e.to_string())?;
        let w = match model {
            "roberta" => Workload::synthetic_roberta(l),
            "pegasus" => Workload { decode_len: 0, ..Workload::synthetic_pegasus(l) },
            other => return Err(format!("unknown grid model '{other}'")),
        };
        for &s in stacks {
            let s = u32::try_from(s).map_err(|e| e.to_string())?;
            for kind in ArchKind::ALL {
                for df in DataflowKind::ALL {
                    cells.push(GridCell::system(kind, df, &w, s));
                }
            }
        }
    }
    Ok(cells)
}

fn parse_one(v: &Value) -> Result<Request, String> {
    let id = text(v, "id")?.to_string();
    let kind = if v.get("model").is_some() {
        Kind::Grid(GridRequest {
            cells: grid_cells(text(v, "model")?, &numbers(v, "lengths")?, &numbers(v, "stacks")?)?,
            jobs: usize::try_from(number(v, "jobs")?).map_err(|e| e.to_string())?.max(1),
        })
    } else {
        let mut w = workload(text(v, "workload")?)?;
        w.decode_len = usize::try_from(number(v, "decode")?).map_err(|e| e.to_string())?;
        let faults = match v.get("faults") {
            Some(Value::String(path)) => {
                Some(FaultScenario::from_json_file(path).map_err(|e| format!("{path}: {e}"))?)
            }
            _ => None,
        };
        Kind::Sim(Box::new(SimRequest {
            workload: w,
            dataflow: dataflow(text(v, "dataflow")?)?,
            arch: arch(text(v, "arch")?)?,
            faults,
            observe: v.get("observe").and_then(Value::as_bool).unwrap_or(false),
            unroll: v.get("unroll").and_then(Value::as_bool).unwrap_or(false),
        }))
    };
    Ok(Request { id, kind })
}

/// Parse `{"requests": [...]}`.
pub fn parse(text: &str) -> Result<Vec<Request>, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("requests: {e}"))?;
    field(&doc, "requests")?
        .as_array()
        .ok_or("'requests' is not a list")?
        .iter()
        .map(parse_one)
        .collect()
}
