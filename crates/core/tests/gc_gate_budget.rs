//! AND-gate budgets for the garbled circuits a session garbles.
//!
//! AND gates set the garbling time and the table bytes of every query,
//! and a gadget that quietly builds more product bits than it keeps
//! still passes every bit-exactness test. These bounds are pinned at
//! the counts of the truncated multipliers and the narrow GELU word, so
//! a circuit cannot grow back without a test naming it.

use primer_core::gcmod::{build_step_circuit, GcStepKind};
use primer_core::{Engine, GcMode, ProtocolVariant, SystemConfig};
use primer_math::rng::seeded;
use primer_nn::{FixedTransformer, TransformerConfig, TransformerWeights};

/// GELU step on the test profile, share reconstruction to re-sharing,
/// per element (74.3 k with full-width products at the 48-bit word).
const GELU_AND_PER_ELEM: usize = 10_991;

/// Every circuit of one test-tiny FPC session (12.39 M with full-width
/// products and a 48-bit GELU).
const FPC_SESSION_AND: u64 = 2_951_968;

#[test]
fn gelu_step_stays_within_its_gate_budget() {
    let sys = SystemConfig::test_profile(&TransformerConfig::test_tiny()).expect("profile");
    let ands = |elems| {
        build_step_circuit(&GcStepKind::Gelu { elems }, &sys.pipeline, sys.gc).and_count()
    };
    let per_elem = (ands(8) - ands(4)) / 4;
    assert!(per_elem <= GELU_AND_PER_ELEM, "GELU: {per_elem} AND/elem > {GELU_AND_PER_ELEM}");
}

#[test]
fn fpc_session_stays_within_its_gate_budget() {
    let cfg = TransformerConfig::test_tiny();
    let sys = SystemConfig::test_profile(&cfg).expect("profile");
    let weights = TransformerWeights::random(&cfg, &mut seeded(400));
    let fixed = FixedTransformer::quantize(&cfg, &weights, sys.pipeline);
    let engine = Engine::new(sys, ProtocolVariant::Fpc, fixed, GcMode::Simulated, 401);
    let report = engine.run(&[3, 17, 0, 29]);
    assert!(report.matches_plaintext_reference(), "FPC output must stay bit-exact");
    assert!(
        report.gc_and_gates <= FPC_SESSION_AND,
        "FPC session: {} AND > {FPC_SESSION_AND}",
        report.gc_and_gates
    );
}
