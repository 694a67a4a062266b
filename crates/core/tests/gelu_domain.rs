//! Exhaustive proof that the narrow-word GELU step is exact.
//!
//! The GELU step saturates its input to `bits` bits before the
//! activation, so its input set is finite. This suite feeds every one
//! of those `2^bits` values through the real step circuit (built at
//! `gelu_width(spec)`) and checks the output against `reference_step`,
//! i.e. `fxp::gelu`, on both numeric profiles. A width that is one bit
//! too narrow, or a gadget that wraps, fails here by value.
//!
//! Plain scalar evaluation of 32k inputs is too slow in a debug build,
//! so the circuit runs bit-sliced: each wire is a `u64` holding 64
//! independent evaluations.

use primer_core::gcmod::{build_step_circuit, gelu_width, reference_step, GcStepKind};
use primer_core::SystemConfig;
use primer_gc::arith::ring_bits;
use primer_gc::circuit::{Gate, OutBit};
use primer_gc::{Circuit, GcNumCfg};
use primer_nn::{PipelineSpec, TransformerConfig};

const LANES: usize = 64;

/// Evaluates `c` on 64 input vectors at once; bit `l` of every wire
/// word belongs to lane `l`.
fn eval_sliced(c: &Circuit, garbler: &[u64], evaluator: &[u64]) -> Vec<u64> {
    assert_eq!(garbler.len(), c.garbler_inputs as usize, "garbler input len");
    assert_eq!(evaluator.len(), c.evaluator_inputs as usize, "evaluator input len");
    let mut wires = Vec::with_capacity(c.num_wires());
    wires.extend_from_slice(garbler);
    wires.extend_from_slice(evaluator);
    for g in &c.gates {
        let v = match *g {
            Gate::Xor(a, b) => wires[a as usize] ^ wires[b as usize],
            Gate::And(a, b) => wires[a as usize] & wires[b as usize],
            Gate::Inv(a) => !wires[a as usize],
        };
        wires.push(v);
    }
    c.outputs
        .iter()
        .map(|o| match *o {
            OutBit::Wire(w) => wires[w as usize],
            OutBit::Const(b) => if b { !0 } else { 0 },
        })
        .collect()
}

/// Bit-slices `LANES` ring words of `rb` bits into `rb` lane words.
fn slice_words(vals: &[u64], rb: usize) -> Vec<u64> {
    (0..rb)
        .map(|i| vals.iter().enumerate().fold(0u64, |acc, (l, &v)| acc | ((v >> i) & 1) << l))
        .collect()
}

/// Runs every raw input through a one-element GELU step, 64 at a time,
/// with a zero client share and mask so the output is the value itself.
fn gelu_step_outputs(spec: &PipelineSpec, gc: GcNumCfg, raw: &[i64]) -> Vec<i64> {
    let kind = GcStepKind::Gelu { elems: 1 };
    let circuit = build_step_circuit(&kind, spec, gc);
    let rb = ring_bits(spec.ring.modulus());
    let zeros = vec![0u64; 2 * rb];
    let mut out = Vec::with_capacity(raw.len());
    for chunk in raw.chunks(LANES) {
        let ring: Vec<u64> = chunk.iter().map(|&v| spec.ring.from_signed(v)).collect();
        let sliced = eval_sliced(&circuit, &zeros, &slice_words(&ring, rb));
        for l in 0..chunk.len() {
            let v = sliced.iter().enumerate().fold(0u64, |acc, (i, &w)| acc | ((w >> l) & 1) << i);
            out.push(spec.ring.to_signed(v));
        }
    }
    out
}

/// Every saturated input `v ∈ [−2^(bits−1), 2^(bits−1))`, presented as
/// the double-scale product `v << frac` the step truncates, plus a few
/// raw values far outside the range to exercise the saturation.
fn check_profile(sys: &SystemConfig) {
    let spec = &sys.pipeline;
    let f = spec.fixed;
    let half = 1i64 << (f.bits() - 1);
    let mut raw: Vec<i64> = (-half..half).map(|v| v << f.frac()).collect();
    raw.extend([half << (f.frac() + 3), -(half << (f.frac() + 3)), (half << f.frac()) + 5]);
    let kind = GcStepKind::Gelu { elems: raw.len() };
    let want = reference_step(&kind, spec, &raw, &[]);
    let got = gelu_step_outputs(spec, sys.gc, &raw);
    let bad: Vec<_> = raw
        .iter()
        .zip(got.iter().zip(&want))
        .filter(|(_, (g, w))| g != w)
        .map(|(r, (g, w))| (r >> f.frac(), *g, *w))
        .collect();
    assert!(
        bad.is_empty(),
        "{}/{} inputs differ at width {} (input, circuit, reference): {:?}",
        bad.len(),
        raw.len(),
        gelu_width(spec),
        &bad[..bad.len().min(8)]
    );
}

#[test]
fn gelu_step_is_exact_on_the_whole_test_profile_domain() {
    let sys = SystemConfig::test_profile(&TransformerConfig::test_tiny()).expect("profile");
    assert_eq!(gelu_width(&sys.pipeline), 21);
    check_profile(&sys);
}

#[test]
fn gelu_step_is_exact_on_the_whole_paper_profile_domain() {
    let sys = SystemConfig::paper_profile(&TransformerConfig::test_tiny()).expect("profile");
    assert_eq!(gelu_width(&sys.pipeline), 22);
    check_profile(&sys);
}

#[test]
fn bit_sliced_evaluator_matches_eval_plain() {
    let sys = SystemConfig::test_profile(&TransformerConfig::test_tiny()).expect("profile");
    let spec = &sys.pipeline;
    let raw: Vec<i64> = (0..LANES as i64).map(|i| (i - 32) * 997).collect();
    let circuit = build_step_circuit(&GcStepKind::Gelu { elems: 1 }, spec, sys.gc);
    let rb = ring_bits(spec.ring.modulus());
    let sliced = gelu_step_outputs(spec, sys.gc, &raw);
    for (&r, &s) in raw.iter().zip(&sliced) {
        let bits: Vec<bool> = (0..rb).map(|i| (spec.ring.from_signed(r) >> i) & 1 == 1).collect();
        let plain = circuit.eval_plain(&vec![false; 2 * rb], &bits);
        let v = plain.iter().enumerate().fold(0u64, |acc, (i, &b)| acc | (b as u64) << i);
        assert_eq!(spec.ring.to_signed(v), s, "raw {r}");
    }
}
