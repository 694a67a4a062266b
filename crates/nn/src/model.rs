//! Floating-point transformer forward pass — exact and THE-X-style
//! approximated variants.

use crate::config::TransformerConfig;
use crate::weights::TransformerWeights;
use primer_math::activation;
use primer_math::MatF;

/// Which non-polynomial implementations the forward pass uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationMode {
    /// Exact softmax / GELU / LayerNorm (ground truth; what Primer's GC
    /// phase preserves up to fixed-point quantization).
    Exact,
    /// THE-X-style polynomial surrogates (what FHE-only systems must
    /// use; costs accuracy).
    PolyApprox,
}

/// Floating-point model: configuration + weights.
#[derive(Debug, Clone)]
pub struct Transformer {
    cfg: TransformerConfig,
    weights: TransformerWeights,
}

impl Transformer {
    /// Wraps weights for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if block count disagrees with the config.
    pub fn new(cfg: TransformerConfig, weights: TransformerWeights) -> Self {
        assert_eq!(weights.blocks.len(), cfg.n_blocks, "block count mismatch");
        Self { cfg, weights }
    }

    /// The configuration.
    pub fn config(&self) -> &TransformerConfig {
        &self.cfg
    }

    /// The weights.
    pub fn weights(&self) -> &TransformerWeights {
        &self.weights
    }

    /// Embeds token ids: `X[1] = onehot(X[0])·W_E + λ`.
    ///
    /// # Panics
    ///
    /// Panics if `tokens.len() != n_tokens` or an id exceeds the vocab.
    pub fn embed(&self, tokens: &[usize]) -> MatF {
        assert_eq!(tokens.len(), self.cfg.n_tokens, "token count mismatch");
        MatF::from_fn(self.cfg.n_tokens, self.cfg.d_model, |i, j| {
            assert!(tokens[i] < self.cfg.vocab, "token id out of vocabulary");
            self.weights.we[(tokens[i], j)] + self.weights.pos[(i, j)]
        })
    }

    /// Full encoder forward; returns the final hidden states (n × d).
    pub fn hidden_states(&self, tokens: &[usize], mode: ActivationMode) -> MatF {
        let mut x = self.embed(tokens);
        for block in &self.weights.blocks {
            x = self.encoder_block(&x, block, mode);
        }
        x
    }

    /// Classification logits (first-token pooling, like BERT's \[CLS\]).
    pub fn logits(&self, tokens: &[usize], mode: ActivationMode) -> Vec<f64> {
        let h = self.hidden_states(tokens, mode);
        let pooled = MatF::from_fn(1, self.cfg.d_model, |_, j| h[(0, j)]);
        pooled.matmul_f(&self.weights.classifier).row(0).to_vec()
    }

    /// Predicted class (argmax of logits).
    pub fn classify(&self, tokens: &[usize], mode: ActivationMode) -> usize {
        argmax(&self.logits(tokens, mode))
    }

    /// Per-token (start, end) span scores for SQuAD-style tasks.
    pub fn span_scores(&self, tokens: &[usize], mode: ActivationMode) -> (Vec<f64>, Vec<f64>) {
        let h = self.hidden_states(tokens, mode);
        let scores = h.matmul_f(&self.weights.span_head);
        let start = (0..self.cfg.n_tokens).map(|i| scores[(i, 0)]).collect();
        let end = (0..self.cfg.n_tokens).map(|i| scores[(i, 1)]).collect();
        (start, end)
    }

    /// Predicted answer span (start ≤ end by construction).
    pub fn predict_span(&self, tokens: &[usize], mode: ActivationMode) -> (usize, usize) {
        let (s, e) = self.span_scores(tokens, mode);
        let start = argmax(&s);
        let end_rel = argmax(&e[start..]);
        (start, start + end_rel)
    }

    fn encoder_block(&self, x: &MatF, b: &crate::weights::BlockWeights, mode: ActivationMode) -> MatF {
        let cfg = &self.cfg;
        let q = x.matmul_f(&b.wq);
        let k = x.matmul_f(&b.wk);
        let v = x.matmul_f(&b.wv);
        let scale = cfg.attn_scale();
        let dh = cfg.d_head();
        let n = cfg.n_tokens;

        // Multi-head attention.
        let mut concat = MatF::zeros_f(n, cfg.d_model);
        for h in 0..cfg.n_heads {
            let col0 = h * dh;
            for i in 0..n {
                // Row i of Q_h × K_hᵀ, scaled.
                let mut scores = vec![0.0; n];
                for (j, s) in scores.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for c in 0..dh {
                        acc += q[(i, col0 + c)] * k[(j, col0 + c)];
                    }
                    *s = acc * scale;
                }
                let probs = match mode {
                    ActivationMode::Exact => activation::softmax(&scores),
                    ActivationMode::PolyApprox => activation::poly_softmax(&scores),
                };
                for c in 0..dh {
                    let mut acc = 0.0;
                    for (j, p) in probs.iter().enumerate() {
                        acc += p * v[(j, col0 + c)];
                    }
                    concat[(i, col0 + c)] = acc;
                }
            }
        }
        let attn = concat.matmul_f(&b.wo);

        // Residual + LayerNorm 1.
        let mut x1 = MatF::zeros_f(n, cfg.d_model);
        for i in 0..n {
            let row: Vec<f64> =
                (0..cfg.d_model).map(|j| x[(i, j)] + attn[(i, j)]).collect();
            let normed = match mode {
                ActivationMode::Exact => {
                    activation::layer_norm(&row, &b.ln1_gamma, &b.ln1_beta, 1e-3)
                }
                ActivationMode::PolyApprox => {
                    activation::poly_layer_norm(&row, &b.ln1_gamma, &b.ln1_beta, 1e-3)
                }
            };
            for (j, val) in normed.into_iter().enumerate() {
                x1[(i, j)] = val;
            }
        }

        // Feed-forward with GELU.
        let inner = x1.matmul_f(&b.w1);
        let activated = inner.map(|&v| match mode {
            ActivationMode::Exact => activation::gelu(v),
            ActivationMode::PolyApprox => activation::poly_gelu(v),
        });
        let ff = activated.matmul_f(&b.w2);

        // Residual + LayerNorm 2.
        let mut out = MatF::zeros_f(n, cfg.d_model);
        for i in 0..n {
            let row: Vec<f64> =
                (0..cfg.d_model).map(|j| x1[(i, j)] + ff[(i, j)]).collect();
            let normed = match mode {
                ActivationMode::Exact => {
                    activation::layer_norm(&row, &b.ln2_gamma, &b.ln2_beta, 1e-3)
                }
                ActivationMode::PolyApprox => {
                    activation::poly_layer_norm(&row, &b.ln2_gamma, &b.ln2_beta, 1e-3)
                }
            };
            for (j, val) in normed.into_iter().enumerate() {
                out[(i, j)] = val;
            }
        }
        out
    }
}

/// Index of the maximum element, with the **lowest index winning ties**
/// (the tie-break every pipeline — float, fixed-point, private — must
/// share so predictions can never diverge on equal logits).
///
/// # Panics
///
/// Panics on an empty slice or a NaN comparison.
pub fn argmax(xs: &[f64]) -> usize {
    assert!(!xs.is_empty(), "non-empty");
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate().skip(1) {
        if v.partial_cmp(&xs[best]).expect("no NaNs") == std::cmp::Ordering::Greater {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::TransformerWeights;
    use primer_math::rng::seeded;

    #[test]
    fn argmax_prefers_lowest_index_on_ties() {
        assert_eq!(argmax(&[0.5, 2.0, 2.0, 1.0]), 1);
        assert_eq!(argmax(&[3.0, 3.0, 3.0]), 0);
        assert_eq!(argmax(&[-1.0, 0.0, 4.0]), 2);
    }
    use rand::Rng;

    fn model() -> Transformer {
        let cfg = TransformerConfig::test_small();
        let w = TransformerWeights::random(&cfg, &mut seeded(150));
        Transformer::new(cfg, w)
    }

    #[test]
    fn forward_is_deterministic() {
        let m = model();
        let tokens = vec![1, 5, 9, 13, 2, 0];
        let a = m.logits(&tokens, ActivationMode::Exact);
        let b = m.logits(&tokens, ActivationMode::Exact);
        assert_eq!(a, b);
    }

    #[test]
    fn outputs_are_finite_and_input_dependent() {
        let m = model();
        let a = m.logits(&[1, 5, 9, 13, 2, 0], ActivationMode::Exact);
        let b = m.logits(&[8, 8, 8, 8, 8, 8], ActivationMode::Exact);
        assert!(a.iter().all(|v| v.is_finite()));
        assert_ne!(a, b, "logits must depend on input");
    }

    #[test]
    fn approx_mode_differs_but_correlates() {
        let m = model();
        let mut rng = seeded(151);
        let mut agree = 0;
        let total = 40;
        for _ in 0..total {
            let tokens: Vec<usize> =
                (0..6).map(|_| rng.gen_range(0..m.config().vocab)).collect();
            let exact = m.classify(&tokens, ActivationMode::Exact);
            let approx = m.classify(&tokens, ActivationMode::PolyApprox);
            if exact == approx {
                agree += 1;
            }
        }
        // Approximation should agree often but not always — the THE-X
        // accuracy-loss mechanism.
        assert!(agree >= total / 2, "agreement too low: {agree}/{total}");
        assert!(agree < total, "approximation suspiciously exact");
    }

    #[test]
    fn span_prediction_is_ordered() {
        let m = model();
        let (s, e) = m.predict_span(&[3, 1, 4, 1, 5, 9], ActivationMode::Exact);
        assert!(s <= e);
        assert!(e < m.config().n_tokens);
    }

    #[test]
    fn embed_rejects_bad_tokens() {
        let m = model();
        let result = std::panic::catch_unwind(|| m.embed(&[9999, 0, 0, 0, 0, 0]));
        assert!(result.is_err());
    }
}
