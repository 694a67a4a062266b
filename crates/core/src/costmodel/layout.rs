//! Noise-budgeted layout selection: which rotation mode each weight
//! chain runs in, which packing each FHGS triple ships in, and the exact
//! Galois key list a session's choices require.
//!
//! Three layouts compete (DESIGN.md §12):
//!
//! * **output-rotation diagonals** (the default Horner chains) — safe on
//!   every profile, `O(block)` rotations per output ciphertext;
//! * **input-rotation diagonals** — one hoisted `rotate_many` per input
//!   ciphertext covering only the *occupied* diagonal levels, usually
//!   several times fewer rotations, but the key-switch noise lands
//!   *before* the mask multiply and gets amplified by it, so the mode is
//!   gated by [`NoiseModel`] per parameter profile;
//! * **zero-rotation replicated packing** (FHGS triples only) — no
//!   rotations at all, paid for in slots.
//!
//! Every function here is a pure function of *public shapes and
//! parameters* — both parties can (and do) evaluate them independently
//! and arrive at the same plan, which is what lets the client ship an
//! exact dedicated-key list at Setup ([`galois_steps`]) and the server
//! reject a mismatched plan before any offline work starts.
//!
//! There is deliberately no override. The plan's inputs are the model
//! and HE profile (which the serving welcome pins) and the protocol
//! variant (which the hello pins), so two parties that completed a
//! handshake cannot disagree on a layout, and nothing about it needs
//! negotiating, caching by key or re-validating on resume. Every arm
//! is still reachable: the selector picks each of them on some
//! supported `(model, profile, variant)` (see the tests below and
//! `tests/layout_equivalence.rs`).

use crate::fhgs::{zr_layouts, FhgsDims, FhgsMode};
use crate::packing::{
    matmul_counts_mode, tf_chain_terms_max, tf_input_steps, Packing, RotationMode,
};
use crate::session::ProtocolVariant;
use crate::system::SystemConfig;
use primer_he::{HeParams, NoiseModel};

/// Whether the input-rotation chain for `Enc(X: rows × in_cols) · W
/// (in_cols × out_cols)` is guaranteed to decrypt correctly on this
/// profile: the worst-case bound of its longest accumulation chain —
/// every term a *rotated then masked* ciphertext, plus one plaintext
/// add of margin for the protocol's `±R_s` terms — must fit the budget.
pub fn input_mode_noise_safe(
    params: &HeParams,
    rows: usize,
    in_cols: usize,
    out_cols: usize,
) -> bool {
    let model = NoiseModel::new(params);
    let term = model.mul_plain_bits(model.rotated_bits(model.fresh_bits()));
    let terms = tf_chain_terms_max(rows, in_cols, out_cols, params.row_size());
    let chain = NoiseModel::sum_bits(term, terms);
    model.add_plain_bits(chain) <= model.budget_bits()
}

/// Selects the rotation mode for one weight-chain matmul. Input mode is
/// chosen only when (a) the layout is tokens-first, (b) the noise budget
/// provably carries the chain, and (c) it actually issues fewer
/// rotations than the Horner chain.
pub fn chain_mode(
    params: &HeParams,
    packing: Packing,
    rows: usize,
    in_cols: usize,
    out_cols: usize,
) -> RotationMode {
    if packing != Packing::TokensFirst || !input_mode_noise_safe(params, rows, in_cols, out_cols) {
        return RotationMode::Output;
    }
    let simd = params.row_size();
    let inp = matmul_counts_mode(packing, rows, in_cols, out_cols, simd, RotationMode::Input);
    let out = matmul_counts_mode(packing, rows, in_cols, out_cols, simd, RotationMode::Output);
    if inp.rotations < out.rotations {
        RotationMode::Input
    } else {
        RotationMode::Output
    }
}

/// What one shipped ciphertext costs in NTT-equivalents (serialization,
/// wire bytes, deserialization). Without this term the zero-rotation
/// layout — whose *compute* is linear in its ciphertext count — would
/// "win" paper-scale shapes on NTT units alone while ballooning traffic
/// by ~40×; with it, slot-hungry layouts only win when their ciphertext
/// counts are genuinely comparable.
const WIRE_NTT_EQUIV: u64 = 8;

/// Selects the triple packing for one FHGS product by comparing both
/// modes in NTT-op units (the dominant per-ciphertext cost) plus a
/// wire term (`WIRE_NTT_EQUIV` per shipped ciphertext): diagonal
/// pays `D + 3` NTTs per rotation plus a mask prep per multiply;
/// zero-rotation pays only encrypts, mask preps and decrypts, but on
/// `⌈n·m·k / slots⌉` ciphertexts per flight. Small products (one
/// ciphertext per flight) go zero-rotation; paper-scale attention stays
/// diagonal.
pub fn fhgs_mode(params: &HeParams, packing: Packing, dims: FhgsDims) -> FhgsMode {
    let d = NoiseModel::new(params).digit_total() as u64;
    let simd = params.row_size();
    // E1: Enc(R_a: n×k)·U_b (k×m); E2: Enc(R_bᵀ: m×k)·U_aᵀ (k×n).
    let c1 = matmul_counts_mode(packing, dims.n, dims.k, dims.m, simd, RotationMode::Output);
    let c2 = matmul_counts_mode(packing, dims.m, dims.k, dims.n, simd, RotationMode::Output);
    let diag_wire = (c1.in_cts + c2.in_cts + c1.out_cts) // offline triple
        + (c1.out_cts + c2.out_cts); // online replies
    let diag = 2 * (c1.in_cts + c2.in_cts + c1.out_cts)   // offline triple encrypts
        + (c1.rotations + c2.rotations) * (d + 3)         // online key switches
        + (c1.mul_plain + c2.mul_plain)                   // online mask preps
        + 3 * (c1.out_cts + c2.out_cts)                   // plain add/sub + decrypts
        + diag_wire * WIRE_NTT_EQUIV;
    let [la, lb] = zr_layouts(dims, params.slot_count());
    let (a, b) = (la.num_cts as u64, lb.num_cts as u64);
    let zr_wire = (2 * a + b) // offline triple
        + (a + b); // online replies
    let zr = 2 * (2 * a + b)   // offline triple encrypts (E1 side ×2: R_a and R_a·R_b)
        + (3 * a + 2 * b)      // online mask preps + plain add/sub
        + (a + b)              // decrypts
        + zr_wire * WIRE_NTT_EQUIV;
    if zr < diag {
        FhgsMode::ZeroRotation
    } else {
        FhgsMode::Diagonal(packing)
    }
}

/// The rotation steps one weight chain issues under its selected mode
/// (empty for zero-rotation FHGS; never called for it).
fn chain_steps(
    params: &HeParams,
    packing: Packing,
    rows: usize,
    in_cols: usize,
    out_cols: usize,
) -> Vec<usize> {
    let simd = params.row_size();
    match packing {
        Packing::TokensFirst => match chain_mode(params, packing, rows, in_cols, out_cols) {
            RotationMode::Output => vec![rows.next_power_of_two()],
            RotationMode::Input => tf_input_steps(rows, in_cols, out_cols, simd),
        },
        Packing::FeatureBased => {
            if in_cols.next_power_of_two().min(simd) == simd {
                vec![1]
            } else {
                vec![1, simd - 1]
            }
        }
    }
}

/// Every weight-chain shape `(rows, in_cols, out_cols)` of a variant, in
/// the canonical plane order (embed, combined, per-block QKV/WO/W1/W2,
/// classifier) — mirrors `ModelPlane::prepare`. Together with
/// [`fhgs_shapes`] this enumerates every decision the selector makes
/// for a session, which is how tests pin the plan per configuration.
pub fn chain_shapes(sys: &SystemConfig, variant: ProtocolVariant) -> Vec<(usize, usize, usize)> {
    let cfg = &sys.model;
    let n = cfg.n_tokens;
    let (d, dff) = (cfg.d_model, cfg.d_ff);
    let mut shapes = vec![(n, cfg.vocab, d)];
    if variant.combined() {
        shapes.extend([(n, cfg.vocab, d); 3]);
    }
    for b in 0..cfg.n_blocks {
        if b > 0 || !variant.combined() {
            shapes.extend([(n, d, d); 3]);
        }
        shapes.extend([(n, d, d), (n, d, dff), (n, dff, d)]);
    }
    shapes.push((1, d, cfg.n_classes));
    shapes
}

/// The two FHGS product shapes of a variant's attention (score, then
/// attention×value) — identical across blocks and heads.
pub fn fhgs_shapes(sys: &SystemConfig) -> [FhgsDims; 2] {
    let n = sys.model.n_tokens;
    let dh = sys.model.d_head();
    [FhgsDims { n, k: dh, m: n }, FhgsDims { n, k: n, m: dh }]
}

/// The **exact** Galois key list a session under this config and
/// variant requires: the union of every selected chain's
/// steps plus the FHGS online chains' steps (none in zero-rotation
/// mode). Client Setup generates dedicated keys for precisely this
/// list; server Setup verifies it covers the plane (including hoisted
/// steps, which admit no power-of-two fallback).
pub fn galois_steps(sys: &SystemConfig, variant: ProtocolVariant) -> Vec<usize> {
    let params = sys.he.params();
    let packing = variant.packing();
    let half = params.row_size();
    let mut steps: Vec<usize> = Vec::new();
    let mut add = |list: Vec<usize>| {
        for s in list {
            let s = s % half;
            if s != 0 && !steps.contains(&s) {
                steps.push(s);
            }
        }
    };
    for (rows, in_cols, out_cols) in chain_shapes(sys, variant) {
        add(chain_steps(params, packing, rows, in_cols, out_cols));
    }
    if variant.has_offline_phase() {
        for dims in fhgs_shapes(sys) {
            match fhgs_mode(params, packing, dims) {
                FhgsMode::ZeroRotation => {}
                FhgsMode::Diagonal(p) => {
                    // E1 rotates an (n × k) input, E2 an (m × k) input,
                    // both in output mode (fresh-mask chains).
                    add(chain_steps_output(params, p, dims.n, dims.k));
                    add(chain_steps_output(params, p, dims.m, dims.k));
                }
            }
        }
    }
    steps.sort_unstable();
    steps
}

/// Output-mode steps for a chain over an `rows × in_cols` input (the
/// FHGS online matmuls always run output mode).
fn chain_steps_output(params: &HeParams, packing: Packing, rows: usize, in_cols: usize) -> Vec<usize> {
    let simd = params.row_size();
    match packing {
        Packing::TokensFirst => vec![rows.next_power_of_two()],
        Packing::FeatureBased => {
            if in_cols.next_power_of_two().min(simd) == simd {
                vec![1]
            } else {
                vec![1, simd - 1]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primer_nn::TransformerConfig;

    /// The selector's whole plan for a session, one char per weight
    /// chain (`o`utput / `i`nput rotation), then `/` and one char per
    /// FHGS shape (`d`iagonal / `z`ero-rotation) for variants with an
    /// offline phase.
    fn plan(sys: &SystemConfig, variant: ProtocolVariant) -> String {
        let params = sys.he.params();
        let packing = variant.packing();
        let mut out: String = chain_shapes(sys, variant)
            .into_iter()
            .map(|(rows, i, o)| match chain_mode(params, packing, rows, i, o) {
                RotationMode::Output => 'o',
                RotationMode::Input => 'i',
            })
            .collect();
        if variant.has_offline_phase() {
            out.push('/');
            out.extend(fhgs_shapes(sys).into_iter().map(|dims| match fhgs_mode(params, packing, dims) {
                FhgsMode::Diagonal(_) => 'd',
                FhgsMode::ZeroRotation => 'z',
            }));
        }
        out
    }

    #[test]
    fn selector_decisions_on_test_profile() {
        let sys = SystemConfig::test_profile(&TransformerConfig::test_tiny()).expect("profile");
        let params = sys.he.params();

        // The wide test profile carries the input-rotation chain; the
        // narrow toy profile must not.
        assert!(input_mode_noise_safe(params, 4, 32, 8));
        assert!(!input_mode_noise_safe(&primer_he::HeParams::toy(), 4, 32, 8));

        // Auto picks input mode for tokens-first weight chains at the
        // test shapes (fewer rotations, budget holds) …
        assert_eq!(
            chain_mode(params, Packing::TokensFirst, 4, 32, 8),
            RotationMode::Input
        );
        // … but never for feature-based layouts.
        assert_eq!(
            chain_mode(params, Packing::FeatureBased, 4, 32, 8),
            RotationMode::Output
        );
        // And never where the budget is too tight.
        assert_eq!(
            chain_mode(&primer_he::HeParams::toy(), Packing::TokensFirst, 4, 32, 8),
            RotationMode::Output
        );

        // Tiny FHGS products (one ciphertext per flight) go
        // zero-rotation; paper-scale attention stays diagonal.
        let tiny = FhgsDims { n: 4, k: 8, m: 4 };
        assert_eq!(fhgs_mode(params, Packing::TokensFirst, tiny), FhgsMode::ZeroRotation);
        let paper = FhgsDims { n: 128, k: 64, m: 128 };
        let paper_params = primer_he::HeParams::paper_8k();
        assert_eq!(
            fhgs_mode(&paper_params, Packing::TokensFirst, paper),
            FhgsMode::Diagonal(Packing::TokensFirst)
        );

        // The key plan is exact, deduped, sorted, and nonempty for every
        // variant; tokens-first plans include the hoisted input steps.
        for variant in ProtocolVariant::all() {
            let steps = galois_steps(&sys, variant);
            assert!(!steps.is_empty(), "{variant:?} key plan empty");
            assert!(steps.windows(2).all(|w| w[0] < w[1]), "{variant:?} not sorted/deduped");
        }
        let fp_steps = galois_steps(&sys, ProtocolVariant::Fp);
        let hoisted = tf_input_steps(4, 32, 8, params.row_size());
        assert!(
            hoisted.iter().all(|s| fp_steps.contains(s)),
            "plan must cover hoisted steps"
        );

        // What the selector picks on supported configurations that
        // between them take every arm: tokens-first output and input
        // chains, feature-based output chains (Base, F), diagonal and
        // zero-rotation FHGS. A selector change that leaves an arm
        // unreachable fails here, and the arm is then dead code.
        use ProtocolVariant::{Base, Fp, Fpc, F};
        let tiny = TransformerConfig::test_tiny();
        let mix = TransformerConfig::new("layout-mix", 32, 1, 32, 1, 32, 3);
        let test = |m: &TransformerConfig| SystemConfig::test_profile(m).expect("test profile");
        let paper = SystemConfig::paper_profile(&tiny).expect("paper profile");
        let table = [
            (test(&tiny), Base, "oooooooo"),
            (test(&tiny), F, "oooooooo/zz"),
            (test(&tiny), Fp, "iiiiiiii/zz"),
            (test(&tiny), Fpc, "iiiiiiii/zz"),
            (paper, Fp, "oooooooo/zz"),
            (test(&mix), Fp, "oooooioi/dd"),
        ];
        for (sys, variant, want) in &table {
            assert_eq!(plan(sys, *variant), *want, "{} {variant:?}", sys.model.name);
        }
    }
}
