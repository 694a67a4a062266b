//! Ablation: the cost of the feed-forward activation inside GC.
//!
//! The paper's Fig. 4 garbles ReLU-style activations; BERT itself uses
//! GELU. This ablation prices both (plus the bare truncation) in AND
//! gates per element at several GC word widths — the design trade-off
//! DESIGN.md calls out — and verifies both circuits against their
//! fixed-point references. The GC width only moves share reconstruction
//! and truncation for GELU: the activation runs at its own word,
//! derived from the pipeline spec (`gelu_width`).
//!
//! Run: `cargo run --release --example gelu_ablation`

use primer::core::gcmod::{build_step_circuit, gelu_width, reference_step, GcStepKind};
use primer::gc::builder::{from_bits_signed, to_bits};
use primer::gc::GcNumCfg;
use primer::math::{FixedSpec, Ring};
use primer::nn::PipelineSpec;

fn main() {
    let spec = PipelineSpec::new(Ring::new((1 << 29) + 11), FixedSpec::new(12, 5), 12);
    println!("AND gates per element (share reconstruction + trunc included):");
    println!("{:<10} {:>12} {:>12} {:>12}", "GC width", "TruncSat", "ReLU", "GELU");
    for width in [24usize, 32, 48] {
        let gc = GcNumCfg { width, frac: 12 };
        let per_elem = |kind: &GcStepKind, elems: usize| {
            build_step_circuit(kind, &spec, gc).and_count() / elems
        };
        let trunc = per_elem(&GcStepKind::TruncSat { elems: 8 }, 8);
        let relu = per_elem(&GcStepKind::Relu { elems: 8 }, 8);
        let gelu = per_elem(&GcStepKind::Gelu { elems: 4 }, 4);
        println!("{:<10} {:>12} {:>12} {:>12}", width, trunc, relu, gelu);
    }
    // The GC width sets where shares are reconstructed and truncated;
    // the activation itself always runs at the spec-derived GELU width.
    println!(
        "GELU computes at its derived {}-bit word whatever the GC width (gelu_width)",
        gelu_width(&spec)
    );

    // Verify both activation circuits against the reference on a few
    // raw double-scale inputs.
    let gc = GcNumCfg { width: 32, frac: 12 };
    let raw: Vec<i64> = vec![4_000, -4_000, 1 << 11, -(1 << 13)];
    for kind in [GcStepKind::Relu { elems: 4 }, GcStepKind::Gelu { elems: 4 }] {
        let circuit = build_step_circuit(&kind, &spec, gc);
        // Shares: client share 0, server share = value; masks 0 — so the
        // circuit output *is* the function value.
        let rb = primer::gc::arith::ring_bits(spec.ring.modulus());
        let mut client_bits = Vec::new();
        for _ in 0..4 {
            client_bits.extend(to_bits(0, rb)); // share_c
        }
        for _ in 0..4 {
            client_bits.extend(to_bits(0, rb)); // masks
        }
        let mut server_bits = Vec::new();
        for &v in &raw {
            server_bits.extend(to_bits(spec.ring.from_signed(v) as i64, rb));
        }
        let out = circuit.eval_plain(&client_bits, &server_bits);
        let want = reference_step(&kind, &spec, &raw, &[]);
        let got: Vec<i64> = out
            .chunks(rb)
            .map(|c| {
                let v = primer::gc::builder::from_bits_unsigned(c);
                spec.ring.to_signed(v)
            })
            .collect();
        assert_eq!(got, want, "{kind:?} circuit vs reference");
        let _ = from_bits_signed(&out[..rb]);
        println!("{kind:?}: circuit output matches fixed-point reference ✓");
    }
    println!();
    println!("takeaway: GELU costs ~an order of magnitude more AND gates than the");
    println!("ReLU-style activation the paper garbles — the engine supports both;");
    println!("the cost model prices the paper's choice (see DESIGN.md).");
}
