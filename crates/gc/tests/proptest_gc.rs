//! Property-based tests: circuit gadgets vs integer semantics, and
//! garbled evaluation vs plain evaluation.

use primer_gc::builder::{from_bits_signed, from_bits_unsigned, to_bits, CircuitBuilder};
use primer_gc::garble::{evaluate, garble};
use primer_math::rng::seeded;
use proptest::prelude::*;

fn wrap(v: i64, width: usize) -> i64 {
    let m = 1i64 << width;
    let r = ((v % m) + m) % m;
    if r >= m / 2 {
        r - m
    } else {
        r
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Adder/subtractor/multiplier circuits match two's-complement
    /// integer arithmetic for arbitrary inputs.
    #[test]
    fn arithmetic_circuits_match_integers(a in -2048i64..2048, b in -2048i64..2048) {
        let width = 12;
        let mut bld = CircuitBuilder::new();
        let x = bld.garbler_input(width);
        let y = bld.evaluator_input(width);
        let sum = bld.add(&x, &y);
        let diff = bld.sub(&x, &y);
        let prod = bld.mul(&x, &y);
        let mut outs = sum;
        outs.extend(diff);
        outs.extend(prod);
        let c = bld.build(&outs);
        let out = c.eval_plain(&to_bits(a, width), &to_bits(b, width));
        prop_assert_eq!(from_bits_signed(&out[..width]), wrap(a + b, width));
        prop_assert_eq!(from_bits_signed(&out[width..2 * width]), wrap(a - b, width));
        prop_assert_eq!(from_bits_signed(&out[2 * width..]), wrap(a.wrapping_mul(b), width));
    }

    /// The truncated multiplier yields the low `out_w` bits of the
    /// signed product, for random operand widths and every `out_w` up to
    /// the full product width.
    #[test]
    fn truncated_multiplier_matches_i128_product(
        a_w in 1usize..33,
        b_w in 1usize..33,
        a in i64::MIN..i64::MAX,
        b in i64::MIN..i64::MAX,
    ) {
        let (a, b) = (wrap(a, a_w), wrap(b, b_w));
        let mut bld = CircuitBuilder::new();
        let x = bld.garbler_input(a_w);
        let y = bld.evaluator_input(b_w);
        let mut outs = Vec::new();
        for out_w in 1..=a_w + b_w {
            outs.extend(bld.mul_low_signed(&x, &y, out_w));
        }
        let c = bld.build(&outs);
        let out = c.eval_plain(&to_bits(a, a_w), &to_bits(b, b_w));
        let product = (a as i128 * b as i128) as u128;
        let mut at = 0;
        for out_w in 1..=a_w + b_w {
            let got = from_bits_unsigned(&out[at..at + out_w]) as u128;
            prop_assert_eq!(got, product & ((1u128 << out_w) - 1), "{}x{} low {} bits", a, b, out_w);
            at += out_w;
        }
    }

    /// The fixed-point multiply equals `fxp::mul_q` wrapped to the word
    /// width on unrestricted inputs, not just on the valid domain.
    #[test]
    fn mul_q_matches_fxp_on_all_inputs(
        width in 4usize..49,
        frac in 1u32..17,
        a in i64::MIN..i64::MAX,
        b in i64::MIN..i64::MAX,
    ) {
        use primer_gc::nonlinear::{mul_q, GcNumCfg};
        let cfg = GcNumCfg { width, frac };
        let (a, b) = (wrap(a, width), wrap(b, width));
        let mut bld = CircuitBuilder::new();
        let x = bld.garbler_input(width);
        let y = bld.evaluator_input(width);
        let out = mul_q(&mut bld, cfg, &x, &y);
        let c = bld.build(&out);
        let got = from_bits_signed(&c.eval_plain(&to_bits(a, width), &to_bits(b, width)));
        prop_assert_eq!(got, wrap(primer_math::fxp::mul_q(a, b, frac), width));
    }

    /// Garbled evaluation equals plain evaluation on a comparator+mux
    /// circuit for arbitrary inputs (the core garbling soundness claim).
    #[test]
    fn garbled_equals_plain(a in -128i64..128, b in -128i64..128, seed in 0u64..1000) {
        let width = 8;
        let mut bld = CircuitBuilder::new();
        let x = bld.garbler_input(width);
        let y = bld.evaluator_input(width);
        let lt = bld.lt_signed(&x, &y);
        let mx = bld.mux_word(lt, &y, &x); // max(x, y)
        let c = bld.build(&mx);
        let want = c.eval_plain(&to_bits(a, width), &to_bits(b, width));

        let mut rng = seeded(seed);
        let (garbled, enc) = garble(&c, &mut rng);
        let gl: Vec<u128> = to_bits(a, width)
            .iter()
            .enumerate()
            .map(|(i, &v)| enc.garbler_label(i, v))
            .collect();
        let el: Vec<u128> = to_bits(b, width)
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let (l0, l1) = enc.evaluator_pair(i);
                if v { l1 } else { l0 }
            })
            .collect();
        let got = evaluate(&c, &garbled, &gl, &el);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(from_bits_signed(&got), a.max(b));
    }

    /// Ring gadgets: add_mod/sub_mod match Z_t for arbitrary elements.
    #[test]
    fn mod_gadgets_match_ring(x in 0u64..769, y in 0u64..769) {
        use primer_gc::arith::{add_mod, ring_bits, sub_mod};
        let t = 769u64;
        let w = ring_bits(t);
        let mut bld = CircuitBuilder::new();
        let a = bld.garbler_input(w);
        let b = bld.evaluator_input(w);
        let s = add_mod(&mut bld, &a, &b, t);
        let d = sub_mod(&mut bld, &a, &b, t);
        let mut outs = s;
        outs.extend(d);
        let c = bld.build(&outs);
        let out = c.eval_plain(&to_bits(x as i64, w), &to_bits(y as i64, w));
        let got_sum = primer_gc::builder::from_bits_unsigned(&out[..w]);
        let got_diff = primer_gc::builder::from_bits_unsigned(&out[w..]);
        prop_assert_eq!(got_sum, (x + y) % t);
        prop_assert_eq!(got_diff, (x + t - y) % t);
    }

    /// The sigmoid circuit is bit-exact against fxp for arbitrary inputs
    /// in the numeric domain.
    #[test]
    fn sigmoid_circuit_bit_exact(x in -(6i64 << 12)..(6i64 << 12)) {
        use primer_gc::nonlinear::{sigmoid, GcNumCfg};
        let cfg = GcNumCfg { width: 32, frac: 12 };
        let mut bld = CircuitBuilder::new();
        let input = bld.garbler_input(cfg.width);
        let out = sigmoid(&mut bld, cfg, &input);
        let c = bld.build(&out);
        let got = from_bits_signed(&c.eval_plain(&to_bits(x, cfg.width), &[]));
        prop_assert_eq!(got, primer_math::fxp::sigmoid(x, cfg.frac));
    }
}
