//! The live `/stats` admin surface: a poll on the control channel is
//! answered mid-run, out-of-band — no worker slot, no session id — and
//! reports the live session table, pool depths, worker occupancy,
//! plane-cache accounting, per-phase percentiles, per-channel traffic
//! and cumulative HE op counts.

mod common;

use common::{first_frame_exchange, start_server};
use primer_core::{GcMode, ProtocolVariant};
use primer_nn::TransformerConfig;
use primer_serve::{
    poll_stats, ClientBuilder, ClientHello, ProtoError, ServerWelcome, SessionState, StatsRequest,
    StatsSnapshot,
};

/// The full poll lifecycle against a bounded server: an empty snapshot
/// before any session, then a populated one after a completed session —
/// while the server is still alive waiting for its second session, so
/// the poll is answered genuinely mid-run. Polls must not consume the
/// session budget: the server still serves exactly 2 sessions.
#[test]
fn stats_polls_answer_mid_run_without_consuming_sessions() {
    let model = TransformerConfig::test_tiny();
    let tokens = vec![3usize, 17, 0, 29];
    let (addr, server) = start_server(model, 2, 2, 2);

    // Poll 0: nothing has happened yet. The snapshot is well-formed and
    // empty — and it must not count toward the 2-session budget.
    let empty = poll_stats(addr).expect("pre-session poll");
    assert_eq!(empty.workers_cap(), 2);
    assert_eq!(empty.workers_active(), 0);
    assert!(empty.sessions().is_empty());
    assert!(empty.he_ops().is_empty());
    assert_eq!(empty.planes_built(), 0);

    // Session A runs to completion.
    let client = ClientBuilder::new(ProtocolVariant::Fpc);
    let out_a = client.run(addr, &[tokens.clone(), tokens.clone()]).expect("session A");
    assert_eq!(out_a.predictions.len(), 2);

    // Poll 1: the server is still waiting for session 2, so this is a
    // genuine mid-run poll. Session A is in the live table, completed,
    // with its queries, pool bound, HE ops, phases and traffic visible.
    let snap = poll_stats(addr).expect("mid-run poll");
    assert_eq!(snap.workers_cap(), 2);
    assert_eq!(snap.sessions().len(), 1, "exactly session A in the live table");
    let s = &snap.sessions()[0];
    assert_eq!(s.id, 0);
    assert_eq!(s.variant, ProtocolVariant::Fpc);
    assert_eq!(s.state, SessionState::Completed);
    assert_eq!(s.queries_done, 2);
    assert_eq!(s.queries_booked, 2);
    assert_eq!(s.pool_capacity, 2, "negotiated pool bound");

    // Cumulative HE op counts survive session completion (the counter
    // cells outlive the worker). Fpc setup+queries must have rotated
    // and multiplied.
    let op = |name: &str| snap.he_ops().iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
    assert!(op("he.rotations") > 0, "he_ops: {:?}", snap.he_ops());
    assert!(op("he.mul_plain") > 0, "he_ops: {:?}", snap.he_ops());
    assert!(op("he.add") > 0, "he_ops: {:?}", snap.he_ops());

    // Per-phase latency histograms: setup recorded once, online once
    // per query.
    let phase = |name: &str| {
        snap.phases()
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| *p)
            .unwrap_or_else(|| panic!("phase {name} missing: {:?}", snap.phases()))
    };
    assert_eq!(phase("setup").count, 1);
    assert_eq!(phase("online").count, 2);
    let online = phase("online");
    assert!(online.p50_ns > 0 && online.p50_ns <= online.p95_ns && online.p95_ns <= online.p99_ns);
    assert!(online.max_ns >= online.min_ns && online.sum_ns > 0);

    // Prepared-plane cache: session A built the Fpc plane.
    assert_eq!(snap.planes_built(), 1);

    // Per-channel traffic: online and offline both moved bytes, and the
    // per-channel sum equals the client's meter plus setup (the control
    // channel is handshake-only and metered separately).
    let chan = |name: &str| {
        snap.channels()
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.total_bytes())
            .unwrap_or_else(|| panic!("channel {name} missing: {:?}", snap.channels()))
    };
    assert!(chan("online") > 0);
    assert!(chan("offline") > 0);
    assert!(chan("control") > 0, "handshake frames are metered too");
    assert_eq!(
        chan("online") + chan("offline"),
        out_a.client_traffic.total_bytes(),
        "server-side channel meters must agree with the client's"
    );

    // The rendered form is a human-readable report with the key lines.
    let text = snap.render();
    assert!(text.contains("workers:"), "render:\n{text}");
    assert!(text.contains("completed"), "render:\n{text}");
    assert!(text.contains("rotations="), "render:\n{text}");

    // Session B: polls did not consume the budget, so the server still
    // accepts and serves a second session, then exits with exactly two
    // completed records.
    let out_b = client.run(addr, &[tokens]).expect("session B");
    assert_eq!(out_b.session_id, 1, "stats polls must not consume session ids");
    let stats = server.join().expect("server thread");
    assert_eq!(stats.sessions().len(), 2, "exactly the two real sessions were served");
    assert_eq!(stats.prepared().built, 1);
    assert_eq!(stats.prepared().reused, 1, "session B reused session A's plane");
}

/// Overwrites the protocol version a control frame carries after its
/// 4-byte magic.
fn with_version(mut frame: Vec<u8>, version: u32) -> Vec<u8> {
    frame[4..8].copy_from_slice(&version.to_le_bytes());
    frame
}

/// v4 is the only stats dialect: a v3 poll gets a reasoned reject, and
/// a v4 snapshot needs its whole 32-byte counter tail to decode.
#[test]
fn stats_polls_speak_only_v4() {
    let (addr, server) = start_server(TransformerConfig::test_tiny(), 1, 1, 1);

    let v3_poll = with_version(StatsRequest.encode(), 3);
    match StatsSnapshot::decode(&first_frame_exchange(addr, &v3_poll)) {
        Err(ProtoError::Rejected(reason)) => {
            assert!(reason.contains("theirs 3"), "reject must name the version: {reason}")
        }
        other => panic!("v3 poll: expected a reasoned reject, got {other:?}"),
    }

    let frame = first_frame_exchange(addr, &StatsRequest.encode());
    let snap = StatsSnapshot::decode(&frame).expect("v4 snapshot");
    assert_eq!(snap.workers_cap(), 1);
    assert_eq!(StatsSnapshot::decode(&frame[..frame.len() - 32]), Err(ProtoError::Truncated));

    // A hello in a foreign version is a failed session attempt, which
    // concludes the server's one-session run without any Setup work.
    let hello = ClientHello {
        variant: ProtocolVariant::F,
        mode: GcMode::Simulated,
        queries: 1,
        pool: 1,
        resume: None,
    };
    let reply = first_frame_exchange(addr, &with_version(hello.encode(), 3));
    assert!(matches!(ServerWelcome::decode(&reply), Err(ProtoError::Rejected(_))));
    let stats = server.join().expect("server thread");
    assert!(stats.sessions().is_empty(), "no poll or rejected hello became a session");
}
