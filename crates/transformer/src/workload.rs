//! The paper's evaluation workloads (Section V-A3).
//!
//! | workload | model | task | sequence | decode |
//! |---|---|---|---|---|
//! | IMDB | RoBERTa | text classification | 128 | — |
//! | TriviaQA | RoBERTa | question answering | 512 | — |
//! | PubMed | Pegasus | summarization | 4096 | 256 |
//! | Arxiv | Pegasus | summarization | 6144 | 192 |
//! | LM | GPT-2-medium | language modeling | 1024 ctx | 128 |
//!
//! Sequence lengths follow the paper's Figure 14 axis (IMDB = 128,
//! PubMed = 4096) and the datasets' standard truncations. Token *values*
//! are synthetic (see DESIGN.md substitutions): simulated cost depends only
//! on lengths and shapes.

use crate::model::{ModelConfig, ModelError};
use serde::{Deserialize, Serialize};

/// One evaluation workload: a model plus sequence/decode lengths and the
/// batch size used to fill the memory-based accelerator (the paper measures
/// per-batch time because short workloads under-utilize the banks).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Workload name (dataset).
    pub name: String,
    /// Model configuration.
    pub model: ModelConfig,
    /// Encoder-side (or decoder-context) sequence length `L`.
    pub seq_len: usize,
    /// Decoder steps (0 for encoder-only tasks).
    pub decode_len: usize,
    /// Sequences per batch.
    pub batch: usize,
}

impl Workload {
    /// IMDB text classification on RoBERTa (L = 128).
    pub fn imdb() -> Self {
        Self {
            name: "IMDB".into(),
            model: ModelConfig::roberta_base(),
            seq_len: 128,
            decode_len: 0,
            batch: 16,
        }
    }

    /// TriviaQA question answering on RoBERTa (L = 512).
    pub fn triviaqa() -> Self {
        Self {
            name: "TriviaQA".into(),
            model: ModelConfig::roberta_base(),
            seq_len: 512,
            decode_len: 0,
            batch: 4,
        }
    }

    /// PubMed summarization on Pegasus (L = 4096, 256 generated tokens).
    pub fn pubmed() -> Self {
        Self {
            name: "PubMed".into(),
            model: ModelConfig::pegasus_large(),
            seq_len: 4096,
            decode_len: 256,
            batch: 1,
        }
    }

    /// Arxiv summarization on Pegasus: arXiv documents are longer than
    /// PubMed abstracts' sources (L = 6144) with shorter summaries.
    pub fn arxiv() -> Self {
        Self {
            name: "Arxiv".into(),
            model: ModelConfig::pegasus_large(),
            seq_len: 6144,
            decode_len: 192,
            batch: 1,
        }
    }

    /// Language modeling on GPT-2-medium: 1024-token context, generating
    /// 128 tokens one at a time (the SpAtten-comparable generative-stage
    /// benchmark the paper's Section V-B discusses).
    pub fn lm() -> Self {
        Self {
            name: "LM".into(),
            model: ModelConfig::gpt2_medium(),
            seq_len: 1024,
            decode_len: 128,
            batch: 1,
        }
    }

    /// The five paper workloads in Figure 10 order.
    pub fn paper_suite() -> Vec<Workload> {
        vec![Self::imdb(), Self::triviaqa(), Self::pubmed(), Self::arxiv(), Self::lm()]
    }

    /// A synthetic Pegasus summarization workload with an arbitrary
    /// sequence length (the Figure 11(b) 32 K point and the Figure 15
    /// scalability sweep).
    pub fn synthetic_pegasus(seq_len: usize) -> Self {
        Self {
            name: format!("synthetic-{seq_len}"),
            model: ModelConfig::pegasus_large(),
            seq_len,
            decode_len: 256,
            batch: 1,
        }
    }

    /// A synthetic RoBERTa encoder-only workload (Figure 14 power sweep).
    pub fn synthetic_roberta(seq_len: usize) -> Self {
        Self {
            name: format!("roberta-{seq_len}"),
            model: ModelConfig::roberta_base(),
            seq_len,
            decode_len: 0,
            batch: 1,
        }
    }

    /// Check the workload for simulation use: the model shape, then
    /// `1 ≤ batch, seq_len ≤ u32::MAX` and `decode_len, d_ff ≤ u32::MAX`
    /// (the sharding indexes sequences and tokens with `u32`, and vector
    /// lengths are `u32`), then that every work size the dataflow
    /// compilers derive fits in `u64`.
    ///
    /// # Errors
    ///
    /// [`ModelError`] naming the first offending field or product.
    pub fn validate(&self) -> Result<(), ModelError> {
        self.model.validate()?;
        for (field, value, min) in [
            ("batch", self.batch, 1),
            ("seq_len", self.seq_len, 1),
            ("decode_len", self.decode_len, 0),
            ("d_ff", self.model.d_ff, 1),
        ] {
            if value < min || u32::try_from(value).is_err() {
                return Err(ModelError::OutOfRange { field, value, min });
            }
        }
        if let Some(size) = self.overflowing_size() {
            return Err(ModelError::TooLarge { size });
        }
        match self.checked_total_macs().and_then(|macs| macs.checked_mul(2)) {
            Some(_) => Ok(()),
            None => Err(ModelError::TooLarge { size: "total ops" }),
        }
    }

    /// The first of the largest work sizes the dataflow compilers derive
    /// from this shape that overflows `u64`, by name. Each bounds one
    /// step's element, vector or byte count at operands of up to 16 bits;
    /// every other size either compiler derives is at most one of them. A
    /// decode step (balanced placement) attends over at most
    /// `seq_len + decode_len` positions, plus the padding of two bank
    /// shards of at most `u32::MAX` banks each.
    fn overflowing_size(&self) -> Option<&'static str> {
        let m = &self.model;
        let [l, b, d, h, dff, layers] =
            [self.seq_len, self.batch, m.d_model, m.heads, m.d_ff, m.decoder_layers]
                .map(|v| v as u64);
        let ctx = l + self.decode_len as u64 + 2 * u64::from(u32::MAX);
        // 2·layers·(8·d² + 2·d·d_ff) resident decoder weight bytes.
        let weights = d.saturating_mul(4).saturating_add(dff);
        let sizes: [(&'static str, &[u64]); 6] = [
            ("3·seq_len·d_model²·batch", &[3, l, d, d, b]),
            ("seq_len²·d_model·batch", &[l, l, d, b]),
            ("4·heads·seq_len²·batch", &[4, h, l, l, b]),
            ("seq_len·d_model·d_ff·batch", &[l, d, dff, b]),
            ("4·(seq_len + decode_len)·d_model·batch", &[4, ctx, d, b]),
            ("4·decoder_layers·d_model·(4·d_model + d_ff)", &[4, layers, d, weights]),
        ];
        let overflows =
            |factors: &[u64]| factors.iter().try_fold(1u64, |acc, &f| acc.checked_mul(f)).is_none();
        sizes.iter().find(|(_, factors)| overflows(factors)).map(|(size, _)| *size)
    }

    /// Total tokens per batch (`batch × L`).
    pub fn batch_tokens(&self) -> u64 {
        (self.batch * self.seq_len) as u64
    }

    /// Total MACs of one batch: encoder stack per sequence plus the decode
    /// loop (self-attention grows with the generated prefix; cross-attention
    /// spans the encoder context).
    ///
    /// # Panics
    ///
    /// Panics if the count overflows `u64`, which [`Workload::validate`]
    /// rejects.
    pub fn total_macs(&self) -> u64 {
        self.checked_total_macs().expect("validated workloads count their MACs in u64")
    }

    /// [`Workload::total_macs`] in closed form, or `None` when it overflows
    /// `u64`. A decode step's MACs are affine in its prefix `p` with slope
    /// `2·d_model`, and the prefix grows by one per generated token, so the
    /// `D` steps sum to `D·f(p₀) + d_model·D·(D − 1)`. Every per-layer count
    /// is exact in `u128` once the work sizes fit in `u64`.
    fn checked_total_macs(&self) -> Option<u64> {
        if self.overflowing_size().is_some() {
            return None;
        }
        let m = &self.model;
        let l = self.seq_len as u64;
        // Decoder-only models attend over context + generated prefix.
        let (first, ctx) = if m.cross_attention { (1, l) } else { (l + 1, 0) };
        let steps = self.decode_len as u128;
        let growth =
            (m.d_model as u128).checked_mul(steps.checked_mul(steps.saturating_sub(1))?)?;
        let dec = steps.checked_mul(m.decoder_step_macs(first, ctx))?.checked_add(growth)?;
        let enc = (m.encoder_layers as u128).checked_mul(m.encoder_layer_macs(l))?;
        let layers = enc.checked_add((m.decoder_layers as u128).checked_mul(dec)?)?;
        u64::try_from(layers.checked_mul(self.batch as u128)?).ok()
    }

    /// Total arithmetic operations (2 ops per MAC) — the GOP numerator in
    /// the paper's throughput and GOP/J metrics.
    pub fn total_ops(&self) -> u64 {
        2 * self.total_macs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_suite_has_expected_lengths() {
        let suite = Workload::paper_suite();
        let lens: Vec<usize> = suite.iter().map(|w| w.seq_len).collect();
        assert_eq!(lens, vec![128, 512, 4096, 6144, 1024]);
        assert_eq!(suite[2].decode_len, 256);
        assert_eq!(suite[4].model.name, "gpt2-medium");
    }

    #[test]
    fn validate_bounds_lengths_to_u32() {
        for w in Workload::paper_suite() {
            assert_eq!(w.validate(), Ok(()), "{}", w.name);
        }
        let max = u32::MAX as usize;
        // The longest lm decode whose op count fits in u64: 1.8e19 ops.
        let edge = Workload { decode_len: 19_365_493, ..Workload::lm() };
        assert_eq!(edge.validate(), Ok(()));
        assert_eq!(edge.total_ops(), 18_446_743_742_358_650_880);
        let err = Workload { decode_len: 19_365_494, ..Workload::lm() }.validate();
        assert_eq!(err, Err(ModelError::TooLarge { size: "total ops" }));
        // A u32::MAX-token sequence is indexable, but its attention
        // multiplies overflow u64.
        let err = Workload { seq_len: max, ..Workload::lm() }.validate().unwrap_err();
        assert_eq!(err, ModelError::TooLarge { size: "seq_len²·d_model·batch" });
        let err = Workload { seq_len: max + 1, ..Workload::imdb() }.validate().unwrap_err();
        assert_eq!(err, ModelError::OutOfRange { field: "seq_len", value: max + 1, min: 1 });
        assert_eq!(err.to_string(), "workload seq_len 4294967296 is outside 1..=4294967295");
        let err = Workload { batch: 0, ..Workload::imdb() }.validate().unwrap_err();
        assert_eq!(err, ModelError::OutOfRange { field: "batch", value: 0, min: 1 });
        let err = Workload { decode_len: max + 1, ..Workload::lm() }.validate().unwrap_err();
        assert!(matches!(err, ModelError::OutOfRange { field: "decode_len", min: 0, .. }));
        let err = Workload { batch: max, seq_len: max, ..Workload::imdb() }.validate().unwrap_err();
        assert_eq!(err, ModelError::TooLarge { size: "3·seq_len·d_model²·batch" });
        let mut bad = Workload { batch: 0, ..Workload::imdb() };
        bad.model.heads = 0;
        assert_eq!(bad.validate(), Err(ModelError::Zero("heads")), "the model is checked first");
    }

    #[test]
    fn long_sequences_dominate_mac_counts() {
        let short = Workload::imdb().total_macs() / Workload::imdb().batch as u64;
        let long = Workload::pubmed().total_macs();
        assert!(long > 50 * short);
    }

    #[test]
    fn closed_form_macs_match_the_decode_loop() {
        for mut w in Workload::paper_suite() {
            for decode_len in [0, 1, 2, 7, 300] {
                w.decode_len = decode_len;
                let m = &w.model;
                let l = w.seq_len as u64;
                let enc = m.encoder_layers as u128 * m.encoder_layer_macs(l);
                let dec: u128 = (0..decode_len as u64)
                    .map(|t| match m.cross_attention {
                        true => m.decoder_step_macs(t + 1, l),
                        false => m.decoder_step_macs(l + t + 1, 0),
                    })
                    .sum();
                let looped = w.batch as u128 * (enc + m.decoder_layers as u128 * dec);
                assert_eq!(u128::from(w.total_macs()), looped, "{} decode {decode_len}", w.name);
            }
        }
    }

    #[test]
    fn decode_adds_work() {
        let mut w = Workload::pubmed();
        let with = w.total_macs();
        w.decode_len = 0;
        let without = w.total_macs();
        assert!(with > without);
    }

    #[test]
    fn batch_scales_macs_linearly() {
        let mut w = Workload::imdb();
        let one = {
            w.batch = 1;
            w.total_macs()
        };
        let eight = {
            w.batch = 8;
            w.total_macs()
        };
        assert_eq!(eight, 8 * one);
    }

    #[test]
    fn gops_are_plausible() {
        // PubMed on Pegasus-large at L=4096 plus 256 decode steps is a
        // multi-TOP workload (attention is quadratic in L).
        let ops = Workload::pubmed().total_ops();
        assert!(ops > 1000e9 as u64 && ops < 6000e9 as u64, "{ops}");
    }
}
