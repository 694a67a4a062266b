//! The in-process workloads: one client/server session pair on two
//! threads over a [`MemTransport`], driven phase by phase.
//!
//! Both parties meet on a side channel (not the metered wire) before
//! and after each phase, so a phase's wall time runs from "both parties
//! start" to "both parties done" and the shared meter's deltas bracket
//! exactly that phase's traffic. Set-up runs several times, each with
//! fresh sessions, and the last pair then serves closed-loop queries:
//! refill the pool, drain it one query at a time, repeat until the time
//! is up.

use crate::metrics::Tally;
use crate::timed::Timed;
use crate::trace::{self, ms_since, timed};
use crate::Model;
use primer_core::{build_session_circuits, ClientSession, GcMode, ProtocolVariant, ServerSession};
use primer_gc::Circuit;
use primer_he::OpCounts;
use primer_math::rng::derive;
use primer_net::{LinkShaper, MemTransport, NetworkModel, ShapedTransport, TrafficSnapshot};
use rand::Rng;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// What one in-process workload runs.
#[derive(Debug, Clone)]
pub struct Spec {
    /// GC execution mode of the session.
    pub mode: GcMode,
    /// Link model both ends' sends are charged to (one shared link).
    pub link: NetworkModel,
    /// Bundles per refill.
    pub pool: usize,
    /// Set-ups per run; the median is reported.
    pub setups: usize,
    /// Queries to run even when the time is up.
    pub min_queries: usize,
    /// Whether a run affords many queries, so that a traced run can
    /// alternate traced and untraced queries to measure the tracing
    /// overhead. Off where one query takes so long that a run affords
    /// only one.
    pub many_queries: bool,
}

/// Queries a session is booked for: more than any run can reach, so the
/// pool never refills on its own and every refill is the benchmark's.
const BOOKED: usize = 1 << 20;

type End = Timed<ShapedTransport<MemTransport>>;

/// Client-to-server phase commands on the side channel.
enum Cmd {
    Refill,
    Query(u64),
    Stop,
}

/// Everything the client party measured.
#[derive(Debug, Default)]
pub struct ClientOut {
    /// Session start to both parties ready, seconds.
    pub setup_s: f64,
    /// This party's `build_session_circuits`, milliseconds.
    pub circuit_build_ms: f64,
    /// This party's `ClientSession::setup`, milliseconds.
    pub setup_ms: f64,
    /// Refill wall time per bundle, milliseconds, one per refill.
    pub refill_ms: Vec<f64>,
    /// This party's `refill` call per bundle, milliseconds.
    pub party_refill_ms: Vec<f64>,
    /// Online wall time per query, milliseconds.
    pub online_ms: Vec<f64>,
    /// This party's `infer` call per query, milliseconds.
    pub infer_ms: Vec<f64>,
    /// Wall time of the query loop, seconds.
    pub loop_s: f64,
    /// Queries completed.
    pub queries: u64,
    /// Set-up traffic.
    pub setup_traffic: TrafficSnapshot,
    /// Summed refill traffic.
    pub offline_traffic: TrafficSnapshot,
    /// Summed online traffic.
    pub online_traffic: TrafficSnapshot,
    /// `(send, receive wait)` nanoseconds over the query loop.
    pub wire_ns: (u64, u64),
    /// Untraced and traced query wall times, for the trace overhead.
    pub split_ms: (Vec<f64>, Vec<f64>),
    /// Spans recorded during the query loop.
    pub loop_spans: usize,
}

/// Everything the server party measured.
#[derive(Default)]
pub struct ServerOut {
    /// This party's `build_session_circuits`, milliseconds.
    pub circuit_build_ms: f64,
    /// This party's `ServerSession::setup`, milliseconds.
    pub setup_ms: f64,
    /// This party's `refill` call per bundle, milliseconds.
    pub party_refill_ms: Vec<f64>,
    /// This party's `serve_one` call per query, milliseconds.
    pub serve_one_ms: Vec<f64>,
    /// HE operations of the served queries' offline bundles.
    pub he_offline: OpCounts,
    /// HE operations of the served queries' online phases.
    pub he_online: OpCounts,
    /// `(send, receive wait)` nanoseconds over the query loop.
    pub wire_ns: (u64, u64),
    /// The session's circuits, in consumption order.
    pub circuits: Option<Arc<Vec<Circuit>>>,
}

fn delta(meter: &primer_net::Meter, mark: &mut TrafficSnapshot) -> TrafficSnapshot {
    let now = TrafficSnapshot::capture(meter);
    let d = now.since(mark);
    *mark = now;
    d
}

/// Runs `spec` for `seconds` of querying on the model of `model`:
/// returns each session pair's measurements, the querying one last.
pub fn run(spec: &Spec, model: &Model, seconds: f64, tally: &Tally) -> Vec<(ClientOut, ServerOut)> {
    let mut setups = Vec::with_capacity(spec.setups);
    for i in 0..spec.setups {
        let last = i + 1 == spec.setups;
        let budget = if last { Some(seconds) } else { None };
        match session(spec, model, i as u64, budget, tally) {
            Some(pair) => setups.push(pair),
            None => break,
        }
    }
    setups
}

/// One session pair: set-up, then (with a budget) the query loop.
/// `None` when a party failed; the tally then holds the failure.
fn session(
    spec: &Spec,
    model: &Model,
    index: u64,
    budget: Option<f64>,
    tally: &Tally,
) -> Option<(ClientOut, ServerOut)> {
    let (ct, st, meter) = MemTransport::pair();
    let shaper = LinkShaper::new(spec.link);
    let ct = Timed::new(
        ShapedTransport::with_shaper(ct, Arc::clone(&shaper)),
        "net.send.client",
        "net.recv_wait.client",
    );
    let st = Timed::new(
        ShapedTransport::with_shaper(st, shaper),
        "net.send.server",
        "net.recv_wait.server",
    );
    let (cmd_tx, cmd_rx) = channel::<Cmd>();
    let (done_tx, done_rx) = channel::<()>();
    let session_seed = model.session_seed(index);

    let server = {
        let (spec, model) = (spec.clone(), model.clone());
        std::thread::Builder::new()
            .name("bench-server".into())
            .spawn(move || server_party(&spec, &model, session_seed, st, cmd_rx, done_tx))
            .expect("spawn server party")
    };

    let client = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        client_party(
            spec,
            model,
            session_seed,
            &ct,
            &meter,
            budget,
            tally,
            (&cmd_tx, &done_rx),
        )
    }));
    // Whatever happened, release the server: a stop on a live session,
    // or a dropped wire that ends its blocked receive.
    let _ = cmd_tx.send(Cmd::Stop);
    drop(ct);
    let server = server.join();
    match (client, server) {
        (Ok(Some(c)), Ok(Some(s))) => Some((c, s)),
        // A failed session fails the query it was working towards.
        _ => {
            tally.attempt();
            tally.error();
            None
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn client_party(
    spec: &Spec,
    model: &Model,
    session_seed: u64,
    ct: &End,
    meter: &primer_net::Meter,
    budget: Option<f64>,
    tally: &Tally,
    (cmd, done): (&Sender<Cmd>, &Receiver<()>),
) -> Option<ClientOut> {
    let variant = ProtocolVariant::Fpc;
    let mut out = ClientOut::default();
    let mut mark = TrafficSnapshot::default();
    let start = Instant::now();
    let setup = trace::span("session.setup.client");
    let (circuits, build_ms) = timed("core.circuit_build.client", || {
        Arc::new(build_session_circuits(&model.sys, variant, &model.fixed))
    });
    let (mut session, setup_ms) = timed("core.setup.client", || {
        ClientSession::setup(
            model.sys.clone(),
            variant,
            spec.mode,
            Arc::clone(&model.fixed),
            circuits,
            session_seed,
            BOOKED,
            spec.pool,
            ct,
        )
    });
    done.recv().ok()?;
    drop(setup);
    out.setup_s = start.elapsed().as_secs_f64();
    out.circuit_build_ms = build_ms;
    out.setup_ms = setup_ms;
    out.setup_traffic = delta(meter, &mut mark);
    let Some(seconds) = budget else {
        return Some(out);
    };

    let mut queries = derive(model.seed, "queries");
    let wire0 = ct.clock().read();
    let loop_start = Instant::now();
    let mut next_query = 0u64;
    let traced = trace::enabled();
    let split = traced && spec.many_queries;
    let spans0 = trace::recorded();
    while loop_start.elapsed().as_secs_f64() < seconds || (next_query as usize) < spec.min_queries {
        cmd.send(Cmd::Refill).ok()?;
        let t0 = Instant::now();
        let (refilled, party_ms) = timed("core.refill.client", || session.refill(ct, spec.pool));
        refilled.ok()?;
        done.recv().ok()?;
        out.refill_ms.push(ms_since(t0) / spec.pool as f64);
        out.party_refill_ms.push(party_ms / spec.pool as f64);
        out.offline_traffic = out.offline_traffic.plus(&delta(meter, &mut mark));

        for _ in 0..spec.pool {
            let q = next_query;
            next_query += 1;
            let tokens: Vec<usize> = (0..model.cfg.n_tokens)
                .map(|_| queries.gen_range(0..model.cfg.vocab))
                .collect();
            let reference = model.fixed.logits_combined(&tokens);
            // With a trace split, odd queries run traced and even ones
            // untraced, so the overhead is measured within one session.
            let traced_now = traced && (!split || q % 2 == 1);
            trace::set_enabled(traced_now);
            trace::set_query(Some(q));
            cmd.send(Cmd::Query(q)).ok()?;
            let t0 = Instant::now();
            let (logits, infer_ms) = timed("core.infer", || session.infer(&tokens, ct));
            let logits = logits.ok()?;
            done.recv().ok()?;
            let wall = ms_since(t0);
            trace::set_query(None);
            out.online_ms.push(wall);
            out.infer_ms.push(infer_ms);
            if traced_now {
                out.split_ms.1.push(wall);
            } else {
                out.split_ms.0.push(wall);
            }
            out.online_traffic = out.online_traffic.plus(&delta(meter, &mut mark));
            tally.attempt();
            if logits != reference {
                tally.wrong();
            }
            out.queries += 1;
        }
        trace::set_enabled(traced);
    }
    out.loop_s = loop_start.elapsed().as_secs_f64();
    out.loop_spans = trace::recorded() - spans0;
    let wire1 = ct.clock().read();
    out.wire_ns = (wire1.0 - wire0.0, wire1.1 - wire0.1);
    Some(out)
}

fn server_party(
    spec: &Spec,
    model: &Model,
    session_seed: u64,
    st: End,
    cmds: Receiver<Cmd>,
    done: Sender<()>,
) -> Option<ServerOut> {
    let variant = ProtocolVariant::Fpc;
    let mut out = ServerOut::default();
    let setup = trace::span("session.setup.server");
    let (circuits, build_ms) = timed("core.circuit_build.server", || {
        Arc::new(build_session_circuits(&model.sys, variant, &model.fixed))
    });
    out.circuit_build_ms = build_ms;
    out.circuits = Some(Arc::clone(&circuits));
    let (session, setup_ms) = timed("core.setup.server", || {
        ServerSession::setup(
            model.sys.clone(),
            variant,
            spec.mode,
            Arc::clone(&model.fixed),
            circuits,
            session_seed,
            BOOKED,
            spec.pool,
            &st,
        )
    });
    drop(setup);
    out.setup_ms = setup_ms;
    let mut session = session.ok()?;
    done.send(()).ok()?;

    let wire0 = st.clock().read();
    loop {
        match cmds.recv().ok()? {
            Cmd::Stop => break,
            Cmd::Refill => {
                let (refilled, party_ms) =
                    timed("core.refill.server", || session.refill(&st, spec.pool));
                refilled.ok()?;
                out.party_refill_ms.push(party_ms / spec.pool as f64);
            }
            Cmd::Query(q) => {
                trace::set_query(Some(q));
                let (round, serve_ms) = timed("core.serve_one", || session.serve_one(&st));
                trace::set_query(None);
                let round = round.ok()?;
                out.serve_one_ms.push(serve_ms);
                out.he_offline = out.he_offline.plus(&round.he_offline);
                out.he_online = out.he_online.plus(&round.he_online);
            }
        }
        done.send(()).ok()?;
    }
    let wire1 = st.clock().read();
    out.wire_ns = (wire1.0 - wire0.0, wire1.1 - wire0.1);
    Some(out)
}
