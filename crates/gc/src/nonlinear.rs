//! Fixed-point non-linear function circuits.
//!
//! Each gadget replicates the corresponding `primer_math::fxp` algorithm
//! **gate for gate** — identical polynomial constants, identical Newton
//! iteration counts, identical shift semantics — so the garbled execution
//! is bit-exact against the plaintext fixed-point reference on the valid
//! input domain (positive inputs for recip/rsqrt, `x ≥ 0` for exp_neg,
//! magnitudes small enough not to overflow the configured width).
//!
//! [`mul_q`] itself has no domain: it builds only the product bits below
//! `frac + width`, and its output is identical to `fxp::mul_q` wrapped to
//! `width` for all inputs.

use crate::arith::{max_signed, msb_index, shift_by_neg_signed};
use crate::builder::{Bit, CircuitBuilder, Word};
use primer_math::fxp::const_q;

/// Numeric configuration: word `width` and fractional bits `frac` of the
/// GC-internal fixed-point format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcNumCfg {
    /// Two's-complement word width.
    pub width: usize,
    /// Fractional bits.
    pub frac: u32,
}

impl GcNumCfg {
    /// Default protocol configuration: 48-bit words, 12 fractional bits
    /// (wide enough for LayerNorm variance sums at BERT dimensions).
    pub fn protocol() -> Self {
        Self { width: 48, frac: 12 }
    }

    /// Compact configuration for fast tests.
    pub fn test() -> Self {
        Self { width: 32, frac: 12 }
    }

    fn index_bits(&self) -> usize {
        7
    }
}

/// `(a*b) >> frac` — fixed-point multiply matching `fxp::mul_q`.
pub fn mul_q(b: &mut CircuitBuilder, cfg: GcNumCfg, x: &Word, y: &Word) -> Word {
    let frac = cfg.frac as usize;
    // Output bits [frac, frac + width) depend only on product bits below
    // frac + width, so nothing above them is built.
    b.mul_low_signed(x, y, cfg.width + frac)[frac..].to_vec()
}

fn cq(b: &CircuitBuilder, cfg: GcNumCfg, v: f64) -> Word {
    b.const_word(const_q(v, cfg.frac), cfg.width)
}

/// `2^f` for `f ∈ [0, 1]`, cubic Horner — matches `fxp::exp2_frac`.
pub fn exp2_frac(b: &mut CircuitBuilder, cfg: GcNumCfg, f: &Word) -> Word {
    let c0 = cq(b, cfg, 1.0);
    let c1 = cq(b, cfg, 0.695_976_1);
    let c2 = cq(b, cfg, 0.224_940_4);
    let c3 = cq(b, cfg, 0.079_083_5);
    let mut acc = c3;
    acc = mul_q(b, cfg, &acc, f);
    acc = b.add(&acc, &c2);
    acc = mul_q(b, cfg, &acc, f);
    acc = b.add(&acc, &c1);
    acc = mul_q(b, cfg, &acc, f);
    b.add(&acc, &c0)
}

/// `e^{-x}` for `x ≥ 0` — matches `fxp::exp_neg`.
pub fn exp_neg(b: &mut CircuitBuilder, cfg: GcNumCfg, x: &Word) -> Word {
    let frac = cfg.frac as usize;
    let log2e = cq(b, cfg, std::f64::consts::LOG2_E);
    let y = mul_q(b, cfg, x, &log2e);
    // Integer part k (unsigned; y ≥ 0 on the valid domain). The shifter
    // only needs its low index bits; the underflow test below needs all.
    let k_full = b.resize_unsigned(&y[frac..].to_vec(), (cfg.width - frac).max(cfg.index_bits()));
    let k = b.resize_unsigned(&k_full, cfg.index_bits());
    // Fractional part f ∈ [0, 1).
    let mut f: Word = y[..frac].to_vec();
    f.resize(cfg.width, Bit::Const(false));
    // m = exp2(1 - f) >> 1.
    let one = b.const_word(1i64 << frac, cfg.width);
    let one_minus_f = b.sub(&one, &f);
    let m_raw = exp2_frac(b, cfg, &one_minus_f);
    let m = b.shr_arith_const(&m_raw, 1);
    // Shift down by k; zero if k > frac + 1.
    let shifted = b.shr_arith_dyn(&m, &k);
    let limit = b.const_word(frac as i64 + 1, k_full.len());
    let too_big = b.lt_unsigned(&limit, &k_full);
    let zero = b.const_word(0, cfg.width);
    b.mux_word(too_big, &zero, &shifted)
}

/// `1/x` for `x > 0` — matches `fxp::recip` (normalize + 3 Newton steps).
pub fn recip(b: &mut CircuitBuilder, cfg: GcNumCfg, x: &Word) -> Word {
    let frac = cfg.frac as i64;
    let idx = cfg.index_bits();
    // e = msb_index(x); s = e + 1 - frac (signed).
    let e = msb_index(b, x, idx);
    let mut e_signed = e.clone();
    e_signed.push(Bit::Const(false)); // make room for sign
    let offset = b.const_word(1 - frac, idx + 1);
    let s = b.add(&e_signed, &offset);
    // m = shift_signed(x, -s) ∈ [0.5, 1).
    let m = shift_by_neg_signed(b, x, &s);
    // y = 48/17 − 32/17·m, then 3 Newton iterations y ← y(2 − m·y).
    let c48_17 = cq(b, cfg, 48.0 / 17.0);
    let c32_17 = cq(b, cfg, 32.0 / 17.0);
    let two = b.const_word(2i64 << cfg.frac, cfg.width);
    let t0 = mul_q(b, cfg, &c32_17, &m);
    let mut y = b.sub(&c48_17, &t0);
    for _ in 0..3 {
        let my = mul_q(b, cfg, &m, &y);
        let corr = b.sub(&two, &my);
        y = mul_q(b, cfg, &y, &corr);
    }
    // 1/x = (1/m) * 2^{-s}.
    shift_by_neg_signed(b, &y, &s)
}

/// `1/sqrt(x)` for `x > 0` — matches `fxp::rsqrt` (4 Newton steps).
pub fn rsqrt(b: &mut CircuitBuilder, cfg: GcNumCfg, x: &Word) -> Word {
    let frac = cfg.frac as i64;
    let idx = cfg.index_bits();
    let e = msb_index(b, x, idx);
    let mut e_signed = e.clone();
    e_signed.push(Bit::Const(false));
    let offset = b.const_word(-frac, idx + 1);
    let s_raw = b.add(&e_signed, &offset);
    // Make s even: s += s & 1.
    let lsb: Word = {
        let mut w = vec![Bit::Const(false); idx + 1];
        w[0] = s_raw[0];
        w
    };
    let s = b.add(&s_raw, &lsb);
    let m = shift_by_neg_signed(b, x, &s);
    let c_a = cq(b, cfg, 1.649_9);
    let c_b = cq(b, cfg, 0.471_4);
    let three = b.const_word(3i64 << cfg.frac, cfg.width);
    let t0 = mul_q(b, cfg, &c_b, &m);
    let mut y = b.sub(&c_a, &t0);
    for _ in 0..4 {
        let y2 = mul_q(b, cfg, &y, &y);
        let xy2 = mul_q(b, cfg, &m, &y2);
        let diff = b.sub(&three, &xy2);
        let halved = b.shr_arith_const(&diff, 1);
        y = mul_q(b, cfg, &y, &halved);
    }
    // result = shift_signed(y, -s/2); s is even so s/2 is exact.
    let half_s = b.shr_arith_const(&s, 1);
    shift_by_neg_signed(b, &y, &half_s)
}

/// Logistic sigmoid — matches `fxp::sigmoid`.
pub fn sigmoid(b: &mut CircuitBuilder, cfg: GcNumCfg, x: &Word) -> Word {
    let sign = *x.last().expect("non-empty");
    let x_abs = crate::arith::abs(b, x);
    let e = exp_neg(b, cfg, &x_abs);
    let one = b.const_word(1i64 << cfg.frac, cfg.width);
    let denom = b.add(&one, &e);
    let pos = recip(b, cfg, &denom);
    let neg_case = b.sub(&one, &pos);
    b.mux_word(sign, &neg_case, &pos)
}

/// GELU in sigmoid form — matches `fxp::gelu`.
pub fn gelu(b: &mut CircuitBuilder, cfg: GcNumCfg, x: &Word) -> Word {
    let k = cq(b, cfg, 1.702);
    let kx = mul_q(b, cfg, &k, x);
    let s = sigmoid(b, cfg, &kx);
    mul_q(b, cfg, x, &s)
}

/// Stable SoftMax over a slice of words — matches `fxp::softmax`.
pub fn softmax(b: &mut CircuitBuilder, cfg: GcNumCfg, xs: &[Word]) -> Vec<Word> {
    assert!(!xs.is_empty(), "softmax of an empty slice");
    let mut m = xs[0].clone();
    for x in &xs[1..] {
        m = max_signed(b, &m, x);
    }
    let exps: Vec<Word> = xs
        .iter()
        .map(|x| {
            let d = b.sub(&m, x);
            exp_neg(b, cfg, &d)
        })
        .collect();
    let mut sum = b.const_word(0, cfg.width);
    for e in &exps {
        sum = b.add(&sum, e);
    }
    let r = recip(b, cfg, &sum);
    exps.iter().map(|e| mul_q(b, cfg, e, &r)).collect()
}

/// LayerNorm with public affine constants — matches `fxp::layer_norm`.
/// `gamma`/`beta` are Q(frac) constants baked into the circuit (they are
/// the server's public-to-the-circuit model weights).
pub fn layer_norm(
    b: &mut CircuitBuilder,
    cfg: GcNumCfg,
    xs: &[Word],
    gamma: &[i64],
    beta: &[i64],
) -> Vec<Word> {
    assert_eq!(xs.len(), gamma.len(), "gamma length");
    assert_eq!(xs.len(), beta.len(), "beta length");
    let n = xs.len();
    let inv_n = const_q(1.0 / n as f64, cfg.frac);
    let inv_n_w = b.const_word(inv_n, cfg.width);
    let mut sum = b.const_word(0, cfg.width);
    for x in xs {
        sum = b.add(&sum, x);
    }
    let mean = mul_q(b, cfg, &sum, &inv_n_w);
    let centered: Vec<Word> = xs.iter().map(|x| b.sub(x, &mean)).collect();
    let mut var_sum = b.const_word(0, cfg.width);
    for c in &centered {
        let sq = mul_q(b, cfg, c, c);
        var_sum = b.add(&var_sum, &sq);
    }
    let var_raw = mul_q(b, cfg, &var_sum, &inv_n_w);
    let eps = b.const_word(const_q(1e-3, cfg.frac).max(1), cfg.width);
    let var = b.add(&var_raw, &eps);
    let rs = rsqrt(b, cfg, &var);
    centered
        .iter()
        .zip(gamma.iter().zip(beta))
        .map(|(c, (&g, &be))| {
            let normed = mul_q(b, cfg, c, &rs);
            let g_w = b.const_word(g, cfg.width);
            let scaled = mul_q(b, cfg, &normed, &g_w);
            let b_w = b.const_word(be, cfg.width);
            b.add(&scaled, &b_w)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_bits_signed, to_bits, CircuitBuilder};
    use primer_math::fxp;

    const CFG: GcNumCfg = GcNumCfg { width: 32, frac: 12 };

    /// Builds a unary circuit and checks bit-exactness against the fxp
    /// reference on the given inputs.
    fn check_unary(
        f_circ: impl Fn(&mut CircuitBuilder, GcNumCfg, &Word) -> Word,
        f_ref: impl Fn(i64) -> i64,
        inputs: &[i64],
    ) {
        let mut b = CircuitBuilder::new();
        let x = b.garbler_input(CFG.width);
        let out = f_circ(&mut b, CFG, &x);
        let c = b.build(&out);
        for &v in inputs {
            let got = from_bits_signed(&c.eval_plain(&to_bits(v, CFG.width), &[]));
            let want = f_ref(v);
            assert_eq!(got, want, "input {v} ({})", v as f64 / 4096.0);
        }
    }

    fn q(x: f64) -> i64 {
        fxp::const_q(x, CFG.frac)
    }

    #[test]
    fn exp2_bit_exact() {
        let inputs: Vec<i64> = (0..=16).map(|i| i * 256).collect();
        check_unary(exp2_frac, |v| fxp::exp2_frac(v, CFG.frac), &inputs);
    }

    #[test]
    fn exp_neg_bit_exact() {
        let inputs: Vec<i64> =
            [0.0f64, 0.1, 0.5, 1.0, 2.0, 3.7, 8.0, 15.0, 30.0].iter().map(|&x| q(x)).collect();
        check_unary(exp_neg, |v| fxp::exp_neg(v, CFG.frac), &inputs);
    }

    /// Exponents whose integer part is 128 or more must underflow to 0,
    /// not wrap in the shifter's 7-bit shift amount.
    #[test]
    fn exp_neg_underflows_past_seven_bit_exponents() {
        for width in [32usize, 48] {
            let cfg = GcNumCfg { width, frac: CFG.frac };
            let mut b = CircuitBuilder::new();
            let x = b.garbler_input(width);
            let out = exp_neg(&mut b, cfg, &x);
            let c = b.build(&out);
            for v in [88.8f64, 90.0, 95.0, 180.0] {
                let xq = q(v);
                let got = from_bits_signed(&c.eval_plain(&to_bits(xq, width), &[]));
                assert_eq!(got, fxp::exp_neg(xq, cfg.frac), "exp_neg({v}) at width {width}");
            }
        }
    }

    #[test]
    fn recip_bit_exact() {
        let inputs: Vec<i64> =
            [0.1f64, 0.5, 1.0, 1.5, 2.0, 3.3, 10.0, 100.0].iter().map(|&x| q(x)).collect();
        check_unary(recip, |v| fxp::recip(v, CFG.frac), &inputs);
    }

    #[test]
    fn rsqrt_bit_exact() {
        let inputs: Vec<i64> =
            [0.1f64, 0.25, 0.9, 1.0, 2.0, 16.0, 70.0].iter().map(|&x| q(x)).collect();
        check_unary(rsqrt, |v| fxp::rsqrt(v, CFG.frac), &inputs);
    }

    #[test]
    fn sigmoid_and_gelu_bit_exact() {
        let inputs: Vec<i64> =
            [-6.0f64, -2.5, -0.7, 0.0, 0.3, 1.9, 6.0].iter().map(|&x| q(x)).collect();
        check_unary(sigmoid, |v| fxp::sigmoid(v, CFG.frac), &inputs);
        check_unary(gelu, |v| fxp::gelu(v, CFG.frac), &inputs);
    }

    #[test]
    fn softmax_bit_exact() {
        let vals: Vec<i64> = [-1.0f64, 0.5, 2.0, 0.0].iter().map(|&x| q(x)).collect();
        let mut b = CircuitBuilder::new();
        let xs: Vec<Word> = (0..4).map(|_| b.garbler_input(CFG.width)).collect();
        let ys = softmax(&mut b, CFG, &xs);
        let flat: Vec<_> = ys.into_iter().flatten().collect();
        let c = b.build(&flat);
        let mut input_bits = Vec::new();
        for &v in &vals {
            input_bits.extend(to_bits(v, CFG.width));
        }
        let out = c.eval_plain(&input_bits, &[]);
        let want = fxp::softmax(&vals, CFG.frac);
        for (i, w) in want.iter().enumerate() {
            let got =
                from_bits_signed(&out[i * CFG.width..(i + 1) * CFG.width]);
            assert_eq!(got, *w, "softmax slot {i}");
        }
    }

    #[test]
    fn layer_norm_bit_exact() {
        let vals: Vec<i64> = [0.0f64, 0.5, 1.0, 1.5, -2.0, 0.25, 3.0, -0.5]
            .iter()
            .map(|&x| q(x))
            .collect();
        let gamma: Vec<i64> = (0..8).map(|i| q(1.0 + i as f64 / 16.0)).collect();
        let beta: Vec<i64> = (0..8).map(|i| q(i as f64 / 8.0 - 0.5)).collect();
        let mut b = CircuitBuilder::new();
        let xs: Vec<Word> = (0..8).map(|_| b.garbler_input(CFG.width)).collect();
        let ys = layer_norm(&mut b, CFG, &xs, &gamma, &beta);
        let flat: Vec<_> = ys.into_iter().flatten().collect();
        let c = b.build(&flat);
        let mut input_bits = Vec::new();
        for &v in &vals {
            input_bits.extend(to_bits(v, CFG.width));
        }
        let out = c.eval_plain(&input_bits, &[]);
        let inv_n = fxp::const_q(1.0 / 8.0, CFG.frac);
        let want = fxp::layer_norm(&vals, &gamma, &beta, inv_n, CFG.frac);
        for (i, w) in want.iter().enumerate() {
            let got = from_bits_signed(&out[i * CFG.width..(i + 1) * CFG.width]);
            assert_eq!(got, *w, "layer_norm slot {i}");
        }
    }

    #[test]
    fn softmax_gate_budget_is_sane() {
        let mut b = CircuitBuilder::new();
        let xs: Vec<Word> = (0..8).map(|_| b.garbler_input(CFG.width)).collect();
        let ys = softmax(&mut b, CFG, &xs);
        let flat: Vec<_> = ys.into_iter().flatten().collect();
        let c = b.build(&flat);
        // ~10 multiplies per element at 32 bits ≈ tens of thousands of
        // ANDs; anything above a million signals a gadget blowup.
        assert!(c.and_count() < 1_000_000, "and count {}", c.and_count());
        assert!(c.and_count() > 1_000, "and count suspiciously low");
    }
}
