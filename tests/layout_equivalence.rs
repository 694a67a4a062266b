//! Layout equivalence over an input sweep: the layout selector is a
//! pure function of `(model, profile, variant)`, and every arm it can
//! pick must produce logits **bit-identical** to the plaintext
//! fixed-point reference — a layout is a performance choice, never a
//! semantics choice. The sweep runs full client/server sessions on
//! inputs that between them take all five arms (tokens-first output
//! and input chains, feature-based output chains, diagonal and
//! zero-rotation FHGS), so each arm exercises its own Galois key plan,
//! prepared plane and FHGS triple packing end-to-end over the wire.
//!
//! The suite also validates the noise gate the selector relies on:
//! on every parameter profile where [`input_mode_noise_safe`] approves
//! the input-rotation chain, the **measured** post-matmul noise of a
//! real encrypted matmul stays at or below the analytic worst-case
//! bound the gate compared against the budget.

use primer_core::costmodel::layout::{
    chain_mode, chain_shapes, fhgs_mode, fhgs_shapes, input_mode_noise_safe,
};
use primer_core::fhgs::FhgsMode;
use primer_core::packing::{
    decrypt_matrix, encrypt_matrix, matmul_weights, tf_chain_terms_max, tf_input_steps,
    MatmulWeights, RotationMode,
};
use primer_core::{
    build_session_circuits, ClientSession, GcMode, Packing, ProtocolVariant, ServerSession,
    SystemConfig,
};
use primer_he::{
    BatchEncoder, Encryptor, Evaluator, HeContext, HeParams, KeyGenerator, NoiseModel,
};
use primer_math::rng::seeded;
use primer_math::{MatZ, Ring};
use primer_net::MemTransport;
use primer_nn::{FixedTransformer, TransformerConfig, TransformerWeights};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One selector arm, as the sweep records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Arm {
    TokensFirstOutput,
    TokensFirstInput,
    FeatureBasedOutput,
    DiagonalFhgs,
    ZeroRotationFhgs,
}

/// Every arm the selector takes for one session.
fn arms(sys: &SystemConfig, variant: ProtocolVariant) -> BTreeSet<Arm> {
    let params = sys.he.params();
    let packing = variant.packing();
    let mut taken = BTreeSet::new();
    for (rows, in_cols, out_cols) in chain_shapes(sys, variant) {
        taken.insert(match (packing, chain_mode(params, packing, rows, in_cols, out_cols)) {
            (Packing::TokensFirst, RotationMode::Output) => Arm::TokensFirstOutput,
            (Packing::TokensFirst, RotationMode::Input) => Arm::TokensFirstInput,
            (Packing::FeatureBased, RotationMode::Output) => Arm::FeatureBasedOutput,
            (Packing::FeatureBased, RotationMode::Input) => {
                panic!("feature-based chains never rotate inputs")
            }
        });
    }
    if variant.has_offline_phase() {
        for dims in fhgs_shapes(sys) {
            taken.insert(match fhgs_mode(params, packing, dims) {
                FhgsMode::Diagonal(_) => Arm::DiagonalFhgs,
                FhgsMode::ZeroRotation => Arm::ZeroRotationFhgs,
            });
        }
    }
    taken
}

/// One full session on `cfg` under the test profile, returning the
/// logits for one query.
fn run_session(cfg: &TransformerConfig, variant: ProtocolVariant, tokens: &[usize]) -> Vec<i64> {
    let sys = SystemConfig::test_profile(cfg).expect("profile");
    let weights = TransformerWeights::random(cfg, &mut seeded(800));
    let fixed = Arc::new(FixedTransformer::quantize(cfg, &weights, sys.pipeline));
    let circuits = Arc::new(build_session_circuits(&sys, variant, &fixed));
    let (total, pool) = (1, 1);

    let (ct, st, _meter) = MemTransport::pair();
    let (sys_s, fixed_s, circuits_s) = (sys.clone(), Arc::clone(&fixed), Arc::clone(&circuits));
    let server = std::thread::spawn(move || {
        let mut session = ServerSession::setup(
            sys_s, variant, GcMode::Simulated, fixed_s, circuits_s, 801, total, pool, &st,
        )
        .expect("in-process key transfer");
        session.serve_one(&st).expect("in-process flight");
    });

    let mut session = ClientSession::setup(
        sys,
        variant,
        GcMode::Simulated,
        fixed,
        circuits,
        801,
        total,
        pool,
        &ct,
    );
    let logits = session.infer(tokens, &ct).expect("in-process flight");
    server.join().expect("server thread");
    logits
}

fn reference_logits(cfg: &TransformerConfig, variant: ProtocolVariant, tokens: &[usize]) -> Vec<i64> {
    let sys = SystemConfig::test_profile(cfg).expect("profile");
    let weights = TransformerWeights::random(cfg, &mut seeded(800));
    let fixed = FixedTransformer::quantize(cfg, &weights, sys.pipeline);
    if matches!(variant, ProtocolVariant::Fpc) {
        fixed.logits_combined(tokens)
    } else {
        fixed.logits(tokens)
    }
}

/// Runs one input-mode encrypted matmul on `params` and asserts the
/// measured output noise stays under the analytic chain bound (and the
/// product is exact). Returns the worst measured/bound gap in bits.
fn measure_input_chain(params: &HeParams) -> f64 {
    let (rows, cols, out_cols) = (4usize, 32, 8);
    let ctx = HeContext::new(params.clone());
    let ring = Ring::new(params.t());
    let model = NoiseModel::new(params);
    let encoder = BatchEncoder::new(&ctx);
    let mut rng = seeded(810);
    let kg = KeyGenerator::new(&ctx, &mut rng);
    let encryptor = Encryptor::new(&ctx, kg.secret_key().clone(), 811);
    let eval = Evaluator::new(&ctx);
    let keys = kg.galois_keys(&tf_input_steps(rows, cols, out_cols, encoder.row_size()), false, &mut rng);

    let x = MatZ::from_fn(rows, cols, |i, j| ((i * 7 + j * 3) % 41) as u64);
    let w = MatZ::from_fn(cols, out_cols, |i, j| ((i * 5 + j * 13) % 37) as u64);
    let packed = encrypt_matrix(Packing::TokensFirst, &x, &encoder, &encryptor);
    let out = matmul_weights(
        &packed,
        &MatmulWeights::Fresh { w: &w, encoder: &encoder, mode: RotationMode::Input },
        &eval,
        &keys,
    )
    .expect("dedicated keys provisioned");
    assert_eq!(decrypt_matrix(&out, &encoder, &encryptor), x.matmul(&ring, &w));

    // The bound the selector's gate compared against the budget: every
    // term is a rotated-then-masked ciphertext, `terms` of them summed.
    let term = model.mul_plain_bits(model.rotated_bits(model.fresh_bits()));
    let terms = tf_chain_terms_max(rows, cols, out_cols, params.row_size());
    let bound = NoiseModel::sum_bits(term, terms);
    let mut worst_gap = f64::NEG_INFINITY;
    for ct in &out.cts {
        let measured = model.measured_bits(encryptor.noise_budget(ct));
        assert!(
            measured <= bound,
            "measured {measured:.1} bits exceeds analytic bound {bound:.1} (n={})",
            params.n()
        );
        worst_gap = worst_gap.max(measured - bound);
    }
    worst_gap
}

#[test]
fn every_selected_layout_is_reference_exact_and_the_noise_gate_is_sound() {
    // Part 1: the input sweep. test-tiny takes the tokens-first input
    // chains, feature-based output chains and zero-rotation FHGS;
    // layout-mix (32 tokens: wider FHGS products, and chains where
    // input rotation does not pay) takes tokens-first output chains and
    // diagonal FHGS. All must agree bit-exactly with the reference.
    let tiny = TransformerConfig::test_tiny();
    let mix = TransformerConfig::new("layout-mix", 32, 1, 32, 1, 32, 3);
    let mix_tokens: Vec<usize> = (0..mix.n_tokens).map(|i| (i * 7 + 3) % mix.vocab).collect();
    let mut sweep: Vec<(&TransformerConfig, ProtocolVariant, Vec<usize>)> =
        ProtocolVariant::all().into_iter().map(|v| (&tiny, v, vec![3, 17, 0, 29])).collect();
    sweep.extend([ProtocolVariant::Fp, ProtocolVariant::Fpc].map(|v| (&mix, v, mix_tokens.clone())));

    let mut taken = BTreeSet::new();
    for (cfg, variant, tokens) in &sweep {
        let sys = SystemConfig::test_profile(cfg).expect("profile");
        taken.extend(arms(&sys, *variant));
        let got = run_session(cfg, *variant, tokens);
        let want = reference_logits(cfg, *variant, tokens);
        assert_eq!(got, want, "{} diverged on {}", variant.name(), cfg.name);
    }
    let every_arm = BTreeSet::from([
        Arm::TokensFirstOutput,
        Arm::TokensFirstInput,
        Arm::FeatureBasedOutput,
        Arm::DiagonalFhgs,
        Arm::ZeroRotationFhgs,
    ]);
    assert_eq!(taken, every_arm, "the sweep must take every selector arm");

    // Part 2: the gate itself. Wherever the model approves the
    // input-rotation chain, real ciphertexts must obey the bound it
    // reasoned about (toy is the designed counterexample: gated off).
    let (rows, cols, out_cols) = (4usize, 32, 8);
    assert!(!input_mode_noise_safe(&HeParams::toy(), rows, cols, out_cols));
    for params in [HeParams::test_2k(), HeParams::test_2k_wide(), HeParams::paper_8k()] {
        if input_mode_noise_safe(&params, rows, cols, out_cols) {
            let gap = measure_input_chain(&params);
            assert!(gap <= 0.0, "bound violated by {gap:.1} bits at n={}", params.n());
        }
    }
    // At least the wide test profile must actually take the measured
    // branch, or part 2 silently tested nothing.
    assert!(input_mode_noise_safe(&HeParams::test_2k_wide(), rows, cols, out_cols));
}
