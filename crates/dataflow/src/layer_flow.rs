//! The layer-based baseline dataflow (Section II-C).
//!
//! Prior memory-based DNN accelerators schedule at layer granularity: the
//! whole memory processes one layer at a time, so *all* of a layer's
//! operands are loaded (and duplicated for parallelism) before compute, and
//! every intermediate result is written back and re-distributed for the
//! next layer. For attention this is expensive twice over:
//!
//! * each bank computing score rows needs the **full** `K` (and later `V`)
//!   matrix — a one-to-many duplication ([`Step::BroadcastDup`]) whose
//!   loaded volume grows with the number of active banks,
//! * the `h × L × L` score matrix itself is written out after the score
//!   stage, reloaded for Softmax, and reloaded again for the weighted-value
//!   stage — the quadratic term of Figure 3(b).
//!
//! Compute work is identical to the token dataflow (same arithmetic, spread
//! over all banks); only the movement differs — which is exactly the
//! comparison the paper's Figure 10/11 makes.
//!
//! Every step spreads its total evenly over the banks the program is
//! compiled for, so every busiest-bank size is [`PerBank::Spread`]: derived
//! from the total when priced, never stored. That leaves the decode loop
//! one non-affine field, the Softmax/value row length `ceil(ctx/N)`, and
//! the loop compiles to one [`Step::Repeat`] per plateau of it.

use crate::ir::{BankRange, PerBank, Precision, Program, Step};
use transpim_transformer::model::ModelConfig;
use transpim_transformer::workload::Workload;

/// Compile `workload` under the layer-based dataflow for `total_banks`.
pub fn compile(workload: &Workload, total_banks: u32) -> Program {
    compile_with(workload, total_banks, Precision::default())
}

/// Compile with explicit precision.
pub fn compile_with(workload: &Workload, total_banks: u32, p: Precision) -> Program {
    let mut prog = Program::new();
    let cfg = &workload.model;
    let b = workload.batch as u64;

    prog.push(Step::scope("load.input"));
    prog.push(Step::HostScatter {
        total_bytes: workload.batch_tokens() * cfg.d_model as u64 * u64::from(p.act_bits) / 8,
    });

    let enc_layers = if cfg.encoder_layers > 0 { cfg.encoder_layers } else { cfg.decoder_layers };
    for _ in 0..enc_layers {
        encoder_layer(&mut prog, cfg, workload.seq_len as u64, b, total_banks, p);
    }

    if cfg.decoder_layers > 0 && workload.decode_len > 0 {
        // The context a decode token attends over is `ctx = l + t`. Its
        // row length `ceil(ctx/N)` is a step function; every other field is
        // a total affine in `t` or a constant. One repeat per plateau of
        // the row length: the block (all layers) of the plateau's first
        // token, advanced per token by its difference to the next token's
        // block on the same plateau.
        let (l, n) = (workload.seq_len as u64, u64::from(total_banks));
        let decode = workload.decode_len as u64;
        let block = |t: u64, row_len: u64| {
            let mut out = Vec::new();
            for _ in 0..cfg.decoder_layers {
                decoder_layer(&mut out, cfg, l + t, row_len as u32, b, total_banks, p);
            }
            out
        };
        let mut t = 0;
        while t < decode {
            let row_len = (l + t).div_ceil(n).max(1);
            // First token past the plateau: its last context is `row_len·N`.
            let end = (row_len * n - l + 1).min(decode);
            let (first, next) = (block(t, row_len), block(t + 1, row_len));
            let delta = first
                .iter()
                .zip(&next)
                .map(|(a, b)| a.affine_delta(b).expect("decode totals are affine in the token"))
                .collect();
            prog.push(Step::repeat(end - t, first, delta));
            t = end;
        }
    }
    prog
}

/// Bytes loaded for one encoder layer at sequence length `l` — the
/// Figure 3(b) accounting, exposed for the motivation experiment.
pub fn encoder_layer_loaded_bytes(
    cfg: &ModelConfig,
    l: u64,
    active_banks: u64,
    p: Precision,
) -> [(&'static str, u64); 4] {
    let d = cfg.d_model as u64;
    let h = cfg.heads as u64;
    let dff = cfg.d_ff as u64;
    let act_b = u64::from(p.act_bits) / 8;
    let sm_b = u64::from(p.softmax_bits) / 8;
    let fc = 3 * l * d * act_b + 3 * d * d * act_b;
    // Q scatter + K and V duplicated into every active bank + the score
    // matrix written, reloaded for Softmax, and reloaded again.
    let attn =
        l * d * act_b + 2 * l * d * act_b * active_banks + 3 * h * l * l * sm_b + d * d * act_b;
    let softmax = 2 * h * l * l * sm_b;
    let ffn = l * d * act_b + 2 * d * dff * act_b + l * dff * act_b;
    [("fc", fc), ("attention", attn), ("softmax", softmax), ("ffn", ffn)]
}

fn encoder_layer(
    prog: &mut Program,
    cfg: &ModelConfig,
    l: u64,
    b: u64,
    total_banks: u32,
    p: Precision,
) {
    let d = cfg.d_model as u64;
    let h = cfg.heads as u64;
    let dh = d / h;
    let dff = cfg.d_ff as u64;
    let act_b = u64::from(p.act_bits) / 8;
    let sm_b = u64::from(p.softmax_bits) / 8;
    let spread = PerBank::Spread { over_banks: total_banks };

    // ---- FC: reload inputs (duplicated 3× for the Q/K/V banks), broadcast
    // weights, compute, store Q/K/V.
    prog.push(Step::scope("enc.fc"));
    prog.push(Step::ShuffleAll { total_bytes: 3 * l * d * act_b * b });
    prog.push(Step::HostBroadcast { bytes: 3 * d * d * act_b, banks: total_banks });
    prog.push(Step::PointwiseMul {
        elems_per_bank: spread,
        total_elems: 3 * l * d * d * b,
        a_bits: p.act_bits,
        b_bits: p.act_bits,
    });
    prog.push(Step::Reduce {
        vec_len: d as u32,
        bits: p.acc_bits,
        vectors_per_bank: spread,
        total_vectors: 3 * l * d * b,
    });
    prog.push(Step::MemTouch { bytes_per_bank: spread, total_bytes: 3 * l * d * act_b * b });

    // ---- Attention scores: Q scattered to the banks owning score rows,
    // K duplicated into every one of them.
    prog.push(Step::scope("enc.attn"));
    prog.push(Step::ShuffleAll { total_bytes: l * d * act_b * b });
    prog.push(Step::BroadcastDup { bytes: l * d * act_b * b, banks: total_banks });
    prog.push(Step::PointwiseMul {
        elems_per_bank: spread,
        total_elems: l * l * d * b,
        a_bits: p.act_bits,
        b_bits: p.act_bits,
    });
    prog.push(Step::Reduce {
        vec_len: dh as u32,
        bits: p.acc_bits,
        vectors_per_bank: spread,
        total_vectors: l * l * h * b,
    });
    // Score matrix written out for the Softmax stage.
    prog.push(Step::MemTouch { bytes_per_bank: spread, total_bytes: h * l * l * sm_b * b });

    // ---- Softmax: scores reloaded and redistributed row-wise, then
    // written back — the quadratic reload of Figure 3(b).
    prog.push(Step::scope("enc.softmax"));
    prog.push(Step::ShuffleAll { total_bytes: 2 * h * l * l * sm_b * b });
    prog.push(Step::Exp {
        elems_per_bank: spread,
        total_elems: l * l * h * b,
        bits: p.softmax_bits,
        order: p.taylor_order,
    });
    prog.push(Step::Reduce {
        vec_len: l as u32,
        bits: p.softmax_bits,
        vectors_per_bank: spread,
        total_vectors: l * h * b,
    });
    prog.push(Step::Recip { per_bank: spread, total: l * h * b });
    prog.push(Step::Replicate {
        value_bits: p.softmax_bits,
        copies: l as u32,
        count_per_bank: spread,
        total_count: l * h * b,
    });
    prog.push(Step::PointwiseMul {
        elems_per_bank: spread,
        total_elems: l * l * h * b,
        a_bits: p.softmax_bits,
        b_bits: p.softmax_bits,
    });

    // ---- Weighted values: probabilities reloaded, V duplicated.
    prog.push(Step::scope("enc.attn"));
    prog.push(Step::ShuffleAll { total_bytes: h * l * l * sm_b * b });
    prog.push(Step::BroadcastDup { bytes: l * d * act_b * b, banks: total_banks });
    prog.push(Step::PointwiseMul {
        elems_per_bank: spread,
        total_elems: l * l * d * b,
        a_bits: p.softmax_bits,
        b_bits: p.act_bits,
    });
    prog.push(Step::Reduce {
        vec_len: l as u32,
        bits: p.acc_bits,
        vectors_per_bank: spread,
        total_vectors: l * d * b,
    });
    prog.push(Step::HostBroadcast { bytes: d * d * act_b, banks: total_banks });
    prog.push(Step::PointwiseMul {
        elems_per_bank: spread,
        total_elems: l * d * d * b,
        a_bits: p.act_bits,
        b_bits: p.act_bits,
    });
    prog.push(Step::Reduce {
        vec_len: d as u32,
        bits: p.acc_bits,
        vectors_per_bank: spread,
        total_vectors: l * d * b,
    });
    prog.push(Step::PointwiseAdd {
        elems_per_bank: spread,
        total_elems: l * d * b,
        bits: p.act_bits,
    });

    // ---- FFN: attention output reloaded, weights broadcast.
    prog.push(Step::scope("enc.ffn"));
    prog.push(Step::ShuffleAll { total_bytes: l * d * act_b * b });
    prog.push(Step::HostBroadcast { bytes: 2 * d * dff * act_b, banks: total_banks });
    prog.push(Step::PointwiseMul {
        elems_per_bank: spread,
        total_elems: l * d * dff * b,
        a_bits: p.act_bits,
        b_bits: p.act_bits,
    });
    prog.push(Step::Reduce {
        vec_len: d as u32,
        bits: p.acc_bits,
        vectors_per_bank: spread,
        total_vectors: l * dff * b,
    });
    prog.push(Step::PointwiseMul {
        elems_per_bank: spread,
        total_elems: l * dff * d * b,
        a_bits: p.act_bits,
        b_bits: p.act_bits,
    });
    prog.push(Step::Reduce {
        vec_len: dff as u32,
        bits: p.acc_bits,
        vectors_per_bank: spread,
        total_vectors: l * d * b,
    });
    prog.push(Step::PointwiseAdd {
        elems_per_bank: spread,
        total_elems: l * d * b,
        bits: p.act_bits,
    });
    prog.push(Step::MemTouch { bytes_per_bank: spread, total_bytes: l * d * act_b * b });
}

/// One decoder block for a token attending over `ctx` positions, whose
/// per-bank score row is `row_len = ceil(ctx/N)` positions long.
fn decoder_layer(
    out: &mut Vec<Step>,
    cfg: &ModelConfig,
    ctx: u64,
    row_len: u32,
    b: u64,
    total_banks: u32,
    p: Precision,
) {
    let n = u64::from(total_banks);
    let banks = BankRange::new(0, total_banks);
    let d = cfg.d_model as u64;
    let h = cfg.heads as u64;
    let dff = cfg.d_ff as u64;
    let act_b = u64::from(p.act_bits) / 8;
    let sm_b = u64::from(p.softmax_bits) / 8;
    let spread = PerBank::Spread { over_banks: total_banks };

    // Whole-memory-per-layer: the decoder's single-token matvecs are
    // output-split across the banks, so this layer's weights are
    // *scattered* (each bank holds only its output columns) and re-streamed
    // every step, while the new token's state is duplicated to every bank.
    out.push(Step::scope("dec.fc"));
    let weight_bytes =
        (4 * d * d + if cfg.cross_attention { 4 * d * d } else { 0 } + 2 * d * dff) * act_b;
    out.push(Step::HostScatter { total_bytes: weight_bytes });
    out.push(Step::ShuffleAll { total_bytes: (2 * ctx * d * act_b + d * act_b) * b });
    out.push(Step::PointwiseMul {
        elems_per_bank: spread,
        total_elems: 3 * d * d * b,
        a_bits: p.act_bits,
        b_bits: p.act_bits,
    });
    out.push(Step::Reduce {
        vec_len: d as u32,
        bits: p.acc_bits,
        vectors_per_bank: spread,
        total_vectors: 3 * d * b,
    });

    out.push(Step::scope("dec.attn"));
    out.push(Step::BroadcastDup { bytes: d * act_b * b, banks: total_banks }); // q to all banks
    out.push(Step::PointwiseMul {
        elems_per_bank: spread,
        total_elems: ctx * d * b,
        a_bits: p.act_bits,
        b_bits: p.act_bits,
    });
    out.push(Step::Reduce {
        vec_len: (d / h) as u32,
        bits: p.acc_bits,
        vectors_per_bank: spread,
        total_vectors: ctx * h * b,
    });
    out.push(Step::Exp {
        elems_per_bank: spread,
        total_elems: ctx * h * b,
        bits: p.softmax_bits,
        order: p.taylor_order,
    });
    out.push(Step::Reduce {
        vec_len: row_len,
        bits: p.softmax_bits,
        vectors_per_bank: h.into(),
        total_vectors: h * n * b,
    });
    out.push(Step::PairwiseReduceTree {
        banks,
        bytes: h * sm_b,
        bits: p.softmax_bits,
        elems: h,
        parallel: b as u32,
    });
    out.push(Step::Recip { per_bank: h.into(), total: h * b });
    out.push(Step::BroadcastDup { bytes: h * sm_b * b, banks: total_banks });
    out.push(Step::PointwiseMul {
        elems_per_bank: spread,
        total_elems: ctx * h * b,
        a_bits: p.softmax_bits,
        b_bits: p.softmax_bits,
    });
    out.push(Step::PointwiseMul {
        elems_per_bank: spread,
        total_elems: ctx * d * b,
        a_bits: p.softmax_bits,
        b_bits: p.act_bits,
    });
    out.push(Step::Reduce {
        vec_len: row_len,
        bits: p.acc_bits,
        vectors_per_bank: d.into(),
        total_vectors: d * n * b,
    });
    out.push(Step::PairwiseReduceTree {
        banks,
        bytes: d * sm_b,
        bits: p.acc_bits,
        elems: d,
        parallel: b as u32,
    });
    let proj_matvecs: u64 = if cfg.cross_attention { 4 } else { 2 };
    out.push(Step::PointwiseMul {
        elems_per_bank: spread,
        total_elems: proj_matvecs * d * d * b,
        a_bits: p.act_bits,
        b_bits: p.act_bits,
    });
    out.push(Step::Reduce {
        vec_len: d as u32,
        bits: p.acc_bits,
        vectors_per_bank: spread,
        total_vectors: proj_matvecs * d * b,
    });

    out.push(Step::scope("dec.ffn"));
    out.push(Step::PointwiseMul {
        elems_per_bank: spread,
        total_elems: 2 * d * dff * b,
        a_bits: p.act_bits,
        b_bits: p.act_bits,
    });
    out.push(Step::Reduce {
        vec_len: d as u32,
        bits: p.acc_bits,
        vectors_per_bank: spread,
        total_vectors: 2 * dff * b,
    });
    out.push(Step::MemTouch { bytes_per_bank: spread, total_bytes: d * act_b * b });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token_flow;
    use transpim_transformer::workload::Workload;

    #[test]
    fn layer_flow_moves_far_more_than_token_flow() {
        let w = Workload::triviaqa();
        let layer = compile(&w, 2048);
        let token = token_flow::compile(&w, 2048);
        let lm = layer.internal_movement_bytes();
        let tm = token.internal_movement_bytes();
        assert!(lm > 3 * tm, "layer {lm} should dwarf token {tm}");
    }

    #[test]
    fn compute_work_matches_token_flow() {
        let w = Workload::imdb();
        let layer = compile(&w, 2048);
        let token = token_flow::compile(&w, 2048);
        assert_eq!(layer.total_mul_elems(), token.total_mul_elems());
    }

    #[test]
    fn loaded_bytes_grow_quadratically_in_attention() {
        // Figure 3(b): the attention/softmax loads are quadratic in L.
        let cfg = transpim_transformer::model::ModelConfig::roberta_base();
        let p = Precision::default();
        let at = |l: u64| {
            encoder_layer_loaded_bytes(&cfg, l, 2048, p)
                .iter()
                .find(|(k, _)| *k == "softmax")
                .expect("the loaded-bytes table has a softmax row")
                .1 as f64
        };
        let ratio = at(2048) / at(512);
        assert!((ratio - 16.0).abs() < 1.0, "softmax reload ratio {ratio} should be ~16 for 4x L");
    }

    #[test]
    fn decode_unrolls_to_per_token_blocks() {
        // Token by token, each layer's block at its own context length:
        // what the per-plateau repeats must denote, at bank counts that
        // put plateau edges anywhere in the decode.
        let mut w = Workload::pubmed();
        w.model.encoder_layers = 1;
        w.model.decoder_layers = 2;
        w.batch = 2;
        let (b, p) = (w.batch as u64, Precision::default());
        for (banks, seq, decode) in [(1, 3, 9), (3, 5, 40), (7, 64, 100), (64, 1, 130), (5, 10, 1)]
        {
            w.seq_len = seq;
            w.decode_len = decode;
            let prog = compile(&w, banks);
            let prefill = compile(&Workload { decode_len: 0, ..w.clone() }, banks);
            let mut expected = prefill.steps().to_vec();
            for t in 0..decode as u64 {
                let ctx = seq as u64 + t;
                let row_len = ctx.div_ceil(u64::from(banks)).max(1) as u32;
                for _ in 0..w.model.decoder_layers {
                    decoder_layer(&mut expected, &w.model, ctx, row_len, b, banks, p);
                }
            }
            assert_eq!(prog.unroll().steps(), expected, "banks {banks}, L {seq}, decode {decode}");
        }
    }

    #[test]
    fn no_ring_broadcasts_in_layer_flow() {
        let w = Workload::imdb();
        let prog = compile(&w, 2048);
        assert!(!prog.steps().iter().any(|s| matches!(s, Step::RingBroadcast { .. })));
        assert!(prog.steps().iter().any(|s| matches!(s, Step::BroadcastDup { .. })));
    }
}
