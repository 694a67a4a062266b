//! Per-layer replays for the traced run: the GC and HE primitives a
//! session runs, timed from outside the crates through their public
//! functions, on the workload's own session circuits and HE parameters.
//!
//! The sessions themselves cannot be timed per primitive without spans
//! inside the crates, so the traced run calls the same functions again
//! on the same inputs: garbling, evaluation, plain evaluation, base OT,
//! the IKNP random-OT set-up and the fixed-key AES block, and the HE
//! rotation and NTT.

use crate::metrics::{median, Metrics};
use crate::trace::{self, ms_since};
use primer_core::SystemConfig;
use primer_gc::aes::Aes128;
use primer_gc::garble::{evaluate, garble};
use primer_gc::ot::{base_ot_receive, base_ot_send, rot_receiver_offline, rot_sender_offline};
use primer_gc::Circuit;
use primer_math::rng::seeded;
use primer_net::MemTransport;
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Hash calls half-gates garbling makes per AND gate.
const HASHES_PER_AND: u64 = 4;

/// Base OTs in one IKNP base set.
const BASE_OTS: usize = 128;

/// Step kinds in the order `build_session_circuits` emits a session's
/// circuits: the first truncation (of the combined embedding and QKV
/// under CHGS), then per block an extra QKV truncation (unless CHGS
/// folded it into the first), softmax, truncation, LayerNorm, GELU and
/// LayerNorm.
pub fn step_kinds(n_blocks: usize, combined: bool) -> Vec<&'static str> {
    let mut kinds = vec!["trunc"];
    for b in 0..n_blocks {
        if b > 0 || !combined {
            kinds.push("trunc");
        }
        kinds.extend(["softmax", "trunc", "layernorm", "gelu", "layernorm"]);
    }
    kinds
}

fn add(m: &mut Metrics, name: String, v: f64, unit: &'static str) {
    let prev = m.get(&name).unwrap_or(0.0);
    m.put(name, prev + v, unit);
}

/// Sizes of a session's circuits: total and per step kind AND gates, and
/// the garbled-table bytes of one query.
pub fn sizes(m: &mut Metrics, circuits: &[Circuit], kinds: &[&'static str]) {
    assert_eq!(
        kinds.len(),
        circuits.len(),
        "one step kind per session circuit"
    );
    let mut total = 0u64;
    let mut table = 0u64;
    for kind in ["trunc", "softmax", "layernorm", "gelu"] {
        m.put(format!("gc.and_gates.{kind}"), 0.0, "count");
    }
    for (c, kind) in circuits.iter().zip(kinds) {
        total += c.and_count() as u64;
        table += c.garbled_size_bytes() as u64;
        add(
            m,
            format!("gc.and_gates.{kind}"),
            c.and_count() as f64,
            "count",
        );
    }
    m.put("gc.and_gates", total as f64, "count");
    m.put("gc.table_bytes", table as f64, "B");
}

/// Plain (simulated-mode) evaluation of one query's circuits on random
/// inputs.
pub fn eval_plain(m: &mut Metrics, circuits: &[Circuit]) {
    let mut rng = seeded(0x9a7a);
    let mut plain_ms = 0.0;
    for c in circuits {
        let g_bits: Vec<bool> = (0..c.garbler_inputs).map(|_| rng.gen()).collect();
        let e_bits: Vec<bool> = (0..c.evaluator_inputs).map(|_| rng.gen()).collect();
        let _s = trace::span("gc.eval_plain");
        let t = Instant::now();
        black_box(c.eval_plain(&g_bits, &e_bits));
        plain_ms += ms_since(t);
    }
    m.put("gc.eval_plain_ms", plain_ms, "ms");
}

/// Replays one query's real GC work on `circuits` (garbling, garbled
/// evaluation checked against plain evaluation, the AES block and the
/// OTs) and records the garbled-path `gc.*` metrics.
pub fn garbling(m: &mut Metrics, circuits: &[Circuit], kinds: &[&'static str], sys: &SystemConfig) {
    let and_gates: u64 = circuits.iter().map(|c| c.and_count() as u64).sum();
    m.put("gc.hashes", (HASHES_PER_AND * and_gates) as f64, "count");
    let mut rng = seeded(0x9a7b);
    let (mut garble_ms, mut eval_ms) = (0.0, 0.0);
    for kind in ["trunc", "softmax", "layernorm", "gelu"] {
        m.put(format!("gc.garble_ms.{kind}"), 0.0, "ms");
    }
    for (c, kind) in circuits.iter().zip(kinds) {
        let g_bits: Vec<bool> = (0..c.garbler_inputs).map(|_| rng.gen()).collect();
        let e_bits: Vec<bool> = (0..c.evaluator_inputs).map(|_| rng.gen()).collect();

        let t = Instant::now();
        let (tables, encoding) = {
            let _s = trace::span("gc.garble");
            garble(c, &mut rng)
        };
        let ms = ms_since(t);
        garble_ms += ms;
        add(m, format!("gc.garble_ms.{kind}"), ms, "ms");

        let g_labels: Vec<u128> = g_bits
            .iter()
            .enumerate()
            .map(|(i, &b)| encoding.garbler_label(i, b))
            .collect();
        let e_labels: Vec<u128> = e_bits
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let (zero, one) = encoding.evaluator_pair(i);
                if b {
                    one
                } else {
                    zero
                }
            })
            .collect();
        let t = Instant::now();
        let out = {
            let _s = trace::span("gc.eval");
            evaluate(c, &tables, &g_labels, &e_labels)
        };
        eval_ms += ms_since(t);
        assert_eq!(
            out,
            c.eval_plain(&g_bits, &e_bits),
            "garbled evaluation matches plain"
        );
    }
    m.put("gc.garble_ms", garble_ms, "ms");
    m.put("gc.eval_ms", eval_ms, "ms");
    m.put("gc.aes_ns", aes_ns(), "ns");
    ot(m, circuits, sys);
}

/// Nanoseconds per fixed-key AES block: the median of several timed
/// chains of dependent calls.
fn aes_ns() -> f64 {
    const CALLS: u32 = 1 << 18;
    let aes = Aes128::fixed();
    let samples: Vec<f64> = (0..5)
        .map(|i| {
            let _s = trace::span("gc.aes");
            let mut x = black_box(i as u128);
            let t = Instant::now();
            for _ in 0..CALLS {
                x = aes.encrypt_block(black_box(x));
            }
            black_box(x);
            t.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    median(&samples)
}

/// OT replays: one base set (median of three) and the IKNP random-OT
/// set-up of every circuit, each over an in-memory pair, plus the OT
/// counts of one garbled query.
fn ot(m: &mut Metrics, circuits: &[Circuit], sys: &SystemConfig) {
    let group = sys.ot_group.group();
    let base: Vec<f64> = (0..3u64)
        .map(|i| {
            let _s = trace::span("gc.ot.base");
            let (ct, st, _) = MemTransport::pair();
            let g = group.clone();
            let t = Instant::now();
            let sender = std::thread::spawn(move || {
                let mut rng = seeded(0x0b5 + i);
                let pairs: Vec<(u128, u128)> =
                    (0..BASE_OTS).map(|_| (rng.gen(), rng.gen())).collect();
                base_ot_send(&g, &st, &pairs, &mut rng);
            });
            let mut rng = seeded(0x0b6 + i);
            let choices: Vec<bool> = (0..BASE_OTS).map(|_| rng.gen()).collect();
            black_box(base_ot_receive(&group, &ct, &choices, &mut rng));
            sender.join().expect("base OT sender");
            ms_since(t)
        })
        .collect();
    m.put("gc.ot.base_ms", median(&base), "ms");

    let mut setup_ms = 0.0;
    let mut count = 0u64;
    for (i, c) in circuits.iter().enumerate() {
        let n = c.evaluator_inputs as usize;
        count += n as u64;
        let _s = trace::span("gc.ot.setup");
        let (ct, st, _) = MemTransport::pair();
        let g = group.clone();
        let t = Instant::now();
        let receiver = std::thread::spawn(move || {
            black_box(rot_receiver_offline(
                &g,
                &st,
                n,
                &mut seeded(0x07 + i as u64),
            ));
        });
        black_box(rot_sender_offline(
            &group,
            &ct,
            n,
            &mut seeded(0x70 + i as u64),
        ));
        receiver.join().expect("random-OT receiver");
        setup_ms += ms_since(t);
    }
    m.put("gc.ot.setup_ms", setup_ms, "ms");
    m.put("gc.ot.count", count as f64, "count");
    // Each circuit instance of a garbled query runs its own base set.
    m.put("gc.ot.base_sets", circuits.len() as f64, "count");
}

/// Replays the HE primitives the offline phase is priced in: one
/// row rotation (a key switch) and one forward NTT of one RNS prime,
/// in microseconds per call.
pub fn he(m: &mut Metrics, sys: &SystemConfig) {
    use primer_he::{BatchEncoder, Encryptor, Evaluator, KeyGenerator};
    let ctx = &sys.he;
    let mut rng = seeded(0x4e);
    let keygen = KeyGenerator::new(ctx, &mut rng);
    let keys = keygen.galois_keys(&[1], false, &mut rng);
    let encryptor = Encryptor::new(ctx, keygen.secret_key().clone(), 0x4f);
    let encoder = BatchEncoder::new(ctx);
    let eval = Evaluator::new(ctx);
    let slots: Vec<u64> = (0..ctx.n() as u64).collect();
    let ct = encryptor.encrypt(&encoder.encode(&slots));
    let rotate: Vec<f64> = (0..32)
        .map(|_| {
            let _s = trace::span("he.rotate");
            let t = Instant::now();
            black_box(
                eval.rotate_rows(&ct, 1, &keys)
                    .expect("step-1 key generated above"),
            );
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.put("he.rotate_us", median(&rotate), "us");

    let table = &ctx.ntt()[0];
    let mut poly: Vec<u64> = (0..table.len() as u64)
        .map(|i| i % table.modulus().value())
        .collect();
    let ntt: Vec<f64> = (0..256)
        .map(|_| {
            let _s = trace::span("he.ntt");
            let t = Instant::now();
            table.forward(black_box(&mut poly));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.put("he.ntt_us", median(&ntt), "us");
}
