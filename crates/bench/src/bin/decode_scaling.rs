//! `decode_scaling` — wall-clock measurement of decode compilation and
//! pricing.
//!
//! Compiles and prices the GPT decode workload under both dataflows at
//! growing generation lengths (256, 1024, 4096 and 100k tokens), timing the
//! two stages apart: `token_flow`/`layer_flow` compile, then `Executor`
//! pricing. Before timing, each point up to 4096 tokens is checked to
//! price bitwise-identically to its unrolled expansion. Prints a table and
//! writes the medians, their min–max spread, the repetition count and the
//! host to `results/BENCH_decode.json`.
//!
//! ```bash
//! cargo run --release -p transpim-bench --bin decode_scaling
//! cargo run --release -p transpim-bench --bin decode_scaling -- --reps 9
//! ```
//!
//! Run in release: debug builds are 10–100× slower, so their timings mean
//! nothing.

use std::time::Instant;
use transpim::arch::{ArchConfig, ArchKind};
use transpim::exec::Executor;
use transpim_bench::{note, rule, write_json};
use transpim_dataflow::ir::Program;
use transpim_dataflow::{layer_flow, token_flow};
use transpim_transformer::workload::Workload;

const DECODE_LENS: [usize; 4] = [256, 1024, 4096, 100_000];
/// Longest decode whose unrolled expansion is materialized for the
/// equivalence check (the layer flow unrolls to ~2.4 M steps at 4096).
const MAX_UNROLLED_DECODE: usize = 4096;
const BANKS: u32 = 2048;

/// A dataflow compiler: workload and bank count to program.
type Compiler = fn(&Workload, u32) -> Program;

/// Median and min–max spread of one stage's wall clock over the reps.
#[derive(serde::Serialize)]
struct Timing {
    median_ms: f64,
    min_ms: f64,
    max_ms: f64,
}

#[derive(serde::Serialize)]
struct Row {
    dataflow: &'static str,
    decode_len: usize,
    compiled_steps: usize,
    unrolled_steps: u64,
    compile: Timing,
    price: Timing,
}

#[derive(serde::Serialize)]
struct Doc {
    benchmark: String,
    host_cpu: String,
    host_cpus: usize,
    reps: usize,
    rows: Vec<Row>,
}

/// Wall-clock milliseconds of `f` over `reps` runs; returns the last
/// result alongside.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (Timing, T) {
    let mut ms = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        out = Some(std::hint::black_box(f()));
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    ms.sort_by(f64::total_cmp);
    let timing = Timing { median_ms: ms[ms.len() / 2], min_ms: ms[0], max_ms: ms[ms.len() - 1] };
    (timing, out.expect("at least one repetition"))
}

/// The CPU model name, where the OS reports one.
fn host_cpu() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name")?.split(':').nth(1).map(str::trim))
                .map(str::to_string)
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut reps = 5usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--reps" => {
                reps = it.next().and_then(|v| v.parse().ok()).filter(|&r| r >= 1).unwrap_or_else(
                    || {
                        note("error: --reps needs a positive integer");
                        std::process::exit(2);
                    },
                );
            }
            other => {
                note(format!("error: unknown option '{other}'"));
                eprintln!("usage: decode_scaling [--reps N]");
                std::process::exit(2);
            }
        }
    }
    if cfg!(debug_assertions) {
        note("warning: debug build — timings are meaningless");
    }

    let arch = ArchConfig::new(ArchKind::TransPim);
    let flows: [(&str, Compiler); 2] =
        [("token", token_flow::compile), ("layer", layer_flow::compile)];
    println!(
        "{:>8} {:>10} {:>10} {:>14} {:>12} {:>12}",
        "flow", "decode_len", "steps", "steps(unroll)", "compile ms", "price ms"
    );
    rule(71);

    let mut rows = Vec::new();
    for (dataflow, compile) in flows {
        for decode in DECODE_LENS {
            let mut w = Workload::lm();
            w.decode_len = decode;

            // Sanity first, timing after: the compiled encoding must price
            // exactly as its unrolled expansion.
            if decode <= MAX_UNROLLED_DECODE {
                let prog = compile(&w, BANKS);
                let (stats, _) = Executor::new(arch.clone()).run(&prog);
                let (unrolled, _) = Executor::new(arch.clone()).run(&prog.unroll());
                assert_eq!(
                    stats, unrolled,
                    "{dataflow} decode={decode}: compressed pricing diverged"
                );
            }

            let (compile_ms, prog) = timed(reps, || compile(&w, BANKS));
            let (price_ms, _) = timed(reps, || Executor::new(arch.clone()).run(&prog));
            let row = Row {
                dataflow,
                decode_len: decode,
                compiled_steps: prog.len(),
                unrolled_steps: prog.unrolled_len(),
                compile: compile_ms,
                price: price_ms,
            };
            println!(
                "{:>8} {:>10} {:>10} {:>14} {:>12.3} {:>12.3}",
                row.dataflow,
                row.decode_len,
                row.compiled_steps,
                row.unrolled_steps,
                row.compile.median_ms,
                row.price.median_ms
            );
            rows.push(row);
        }
    }

    let doc = Doc {
        benchmark: format!(
            "GPT (lm) decode on {BANKS}-bank TransPIM: compile and price wall clock per dataflow, \
             decode_len in {DECODE_LENS:?}, median and min-max over {reps} reps"
        ),
        host_cpu: host_cpu(),
        host_cpus: std::thread::available_parallelism().map_or(1, usize::from),
        reps,
        rows,
    };
    write_json("BENCH_decode", &doc);
}
