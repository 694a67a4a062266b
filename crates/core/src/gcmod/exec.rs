//! Execution of garbled step circuits: the client (garbler) and server
//! (evaluator) halves of one step, in both real-garbled and simulated
//! modes, with wire traffic padded to the exact garbled sizes.

use super::GcMode;
use primer_gc::{Circuit, EvaluatorSession, GarblerSession, OtGroup};
use rand::Rng;
use primer_net::Transport;

fn pack_bools(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

fn unpack_bools(bytes: &[u8], len: usize) -> Vec<bool> {
    (0..len).map(|i| (bytes[i / 8] >> (i % 8)) & 1 == 1).collect()
}

/// Wire-size estimates for simulated mode (mirrors what the garbled path
/// actually ships, so byte metering stays honest).
fn offline_bytes(circuit: &Circuit) -> usize {
    // Garbled tables + output decode + IKNP columns (128 columns of
    // ceil(inputs/128) blocks) + base-OT flights (~128 × 2 × 256B).
    let tables = circuit.and_count() * 32 + circuit.outputs.len();
    let iknp = 128 * (circuit.evaluator_inputs as usize).div_ceil(128) * 16;
    tables + iknp + 128 * 512
}

fn online_bytes(circuit: &Circuit) -> usize {
    // Garbler labels + flip bits + OT corrections.
    circuit.garbler_inputs as usize * 16
        + (circuit.evaluator_inputs as usize).div_ceil(8)
        + circuit.evaluator_inputs as usize * 32
}

/// Client (garbler) half of one step execution: the state its offline
/// phase leaves for the online phase.
#[derive(Debug)]
pub enum GcClientStep {
    /// Real garbling: the garbler session the online phase consumes.
    Garbled(GarblerSession),
    /// Plain evaluation behind placeholder traffic; nothing to keep.
    Simulated,
}

impl GcClientStep {
    /// Offline phase: garble (or ship placeholder traffic).
    pub fn offline<R: Rng + ?Sized>(
        circuit: &Circuit,
        mode: GcMode,
        group: &OtGroup,
        transport: &dyn Transport,
        rng: &mut R,
    ) -> Self {
        match mode {
            GcMode::Garbled => {
                Self::Garbled(GarblerSession::offline(circuit, group, transport, rng))
            }
            GcMode::Simulated => {
                crate::wire::send_placeholder(transport, offline_bytes(circuit));
                Self::Simulated
            }
        }
    }

    /// Online phase: provide the client's input bits.
    pub fn online(self, circuit: &Circuit, transport: &dyn Transport, bits: &[bool]) {
        assert_eq!(bits.len(), circuit.garbler_inputs as usize, "garbler input width");
        match self {
            Self::Garbled(session) => session.online(transport, bits),
            Self::Simulated => {
                let mut payload = pack_bools(bits);
                // Pad to the real online label traffic.
                payload.resize(payload.len() + online_bytes(circuit), 0);
                transport.send_owned(payload);
            }
        }
    }
}

/// Server (evaluator) half of one step execution: the state its offline
/// phase leaves for the online phase.
#[derive(Debug)]
pub enum GcServerStep {
    /// Real garbling: the evaluator session the online phase consumes.
    Garbled(EvaluatorSession),
    /// Plain evaluation behind placeholder traffic; nothing to keep.
    Simulated,
}

impl GcServerStep {
    /// Offline phase.
    pub fn offline<R: Rng + ?Sized>(
        circuit: &Circuit,
        mode: GcMode,
        group: &OtGroup,
        transport: &dyn Transport,
        rng: &mut R,
    ) -> Self {
        match mode {
            GcMode::Garbled => {
                Self::Garbled(EvaluatorSession::offline(circuit, group, transport, rng))
            }
            GcMode::Simulated => {
                let _ = transport.recv();
                Self::Simulated
            }
        }
    }

    /// Online phase: provide the server's input bits; returns outputs.
    pub fn online(
        self,
        circuit: &Circuit,
        transport: &dyn Transport,
        bits: &[bool],
    ) -> Vec<bool> {
        assert_eq!(bits.len(), circuit.evaluator_inputs as usize, "evaluator input width");
        match self {
            Self::Garbled(session) => session.online(circuit, transport, bits),
            Self::Simulated => {
                let payload = transport.recv();
                let g_bits =
                    unpack_bools(&payload, circuit.garbler_inputs as usize);
                circuit.eval_plain(&g_bits, bits)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{
        build_step_circuit, reference_step, ring_words_to_bits, bits_to_ring_words, GcStepKind,
    };
    use super::*;
    use primer_gc::arith::ring_bits;
    use primer_gc::GcNumCfg;
    use primer_math::rng::seeded;
    use primer_math::{fxp, FixedSpec, MatZ, Ring};
    use primer_net::run_two_party;
    use primer_nn::PipelineSpec;
    use primer_ss::share_vec;

    fn spec() -> PipelineSpec {
        PipelineSpec::new(Ring::new((1 << 29) + 11), FixedSpec::new(12, 5), 12)
    }

    /// Runs a step both in the simulated and garbled modes and checks
    /// the result against the reference semantics.
    fn check_step(kind: GcStepKind, raw: Vec<i64>, residual: Vec<i64>, mode: GcMode) {
        let spec = spec();
        let gc = GcNumCfg { width: 32, frac: 12 };
        let ring = spec.ring;
        let t = ring.modulus();
        let rb = ring_bits(t);
        let circuit = build_step_circuit(&kind, &spec, gc);
        let n = kind.elems();

        // Share the raw inputs (and residuals) between the parties.
        let mut rng = seeded(300);
        let raw_ring: Vec<u64> = raw.iter().map(|&v| ring.from_signed(v)).collect();
        let (c_share, s_share) = share_vec(&ring, &raw_ring, &mut rng);
        let res_ring: Vec<u64> = residual.iter().map(|&v| ring.from_signed(v)).collect();
        let (rc_share, rs_share) = share_vec(&ring, &res_ring, &mut rng);
        let masks = MatZ::random(&ring, 1, n, &mut rng).into_vec();

        // Client bits: shares, [residual shares], masks.
        let mut client_vals = c_share.clone();
        if kind.has_residual() {
            client_vals.extend_from_slice(&rc_share);
        }
        client_vals.extend_from_slice(&masks);
        let client_bits = ring_words_to_bits(&client_vals, rb);
        let mut server_vals = s_share.clone();
        if kind.has_residual() {
            server_vals.extend_from_slice(&rs_share);
        }
        let server_bits = ring_words_to_bits(&server_vals, rb);

        let (c1, c2) = (circuit.clone(), circuit.clone());
        let (_, out_bits, _) = run_two_party(
            move |tr| {
                let mut rng = seeded(301);
                let step =
                    GcClientStep::offline(&c1, mode, &OtGroup::test_768(), &tr, &mut rng);
                step.online(&c1, &tr, &client_bits);
            },
            move |tr| {
                let mut rng = seeded(302);
                let step =
                    GcServerStep::offline(&c2, mode, &OtGroup::test_768(), &tr, &mut rng);
                step.online(&c2, &tr, &server_bits)
            },
        );
        let server_out = bits_to_ring_words(&out_bits, rb);
        // Reconstruct: server share + client mask must equal reference.
        let want = reference_step(&kind, &spec, &raw, &residual);
        for i in 0..n {
            let got = ring.to_signed(ring.add(server_out[i], masks[i]));
            assert_eq!(got, want[i], "elem {i} ({kind:?}, {mode:?})");
        }
    }

    #[test]
    fn trunc_sat_step_simulated() {
        let raw: Vec<i64> = vec![0, 1, -1, 1000, -1000, 123_456, -99_999, 32 << 5];
        check_step(GcStepKind::TruncSat { elems: 8 }, raw, vec![], GcMode::Simulated);
    }

    #[test]
    fn trunc_sat_step_garbled() {
        let raw: Vec<i64> = vec![700, -4096, 88_888, -3];
        check_step(GcStepKind::TruncSat { elems: 4 }, raw, vec![], GcMode::Garbled);
    }

    #[test]
    fn relu_and_gelu_steps_simulated() {
        let raw: Vec<i64> = vec![5000, -5000, 64, -64, 0, 20_000];
        check_step(GcStepKind::Relu { elems: 6 }, raw.clone(), vec![], GcMode::Simulated);
        check_step(GcStepKind::Gelu { elems: 6 }, raw, vec![], GcMode::Simulated);
    }

    #[test]
    fn softmax_step_simulated() {
        // Raw scores at double scale (2·frac = 10 bits).
        let raw: Vec<i64> =
            vec![1 << 10, 2 << 10, 0, -(1 << 10), 3 << 10, 1 << 9, -(1 << 9), 1 << 10];
        let prescale = fxp::const_q(0.5, 12);
        check_step(
            GcStepKind::Softmax { rows: 2, cols: 4, prescale },
            raw,
            vec![],
            GcMode::Simulated,
        );
    }

    #[test]
    fn layer_norm_residual_step_simulated() {
        let raw: Vec<i64> = (0..8).map(|i| (i - 4) << 10).collect();
        let residual: Vec<i64> = (0..8).map(|i| (8 - i) << 4).collect();
        let gamma: Vec<i64> = (0..4).map(|i| fxp::const_q(1.0 + i as f64 / 8.0, 12)).collect();
        let beta: Vec<i64> = (0..4).map(|i| fxp::const_q(i as f64 / 4.0 - 0.5, 12)).collect();
        check_step(
            GcStepKind::LayerNormResidual { rows: 2, cols: 4, gamma, beta },
            raw,
            residual,
            GcMode::Simulated,
        );
    }

    #[test]
    fn softmax_step_garbled_matches_simulated_circuit() {
        let raw: Vec<i64> = vec![1 << 10, 0, -(1 << 9), 2 << 10];
        let prescale = fxp::const_q(0.5, 12);
        check_step(
            GcStepKind::Softmax { rows: 1, cols: 4, prescale },
            raw,
            vec![],
            GcMode::Garbled,
        );
    }
}
