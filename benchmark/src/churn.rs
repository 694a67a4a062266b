//! serve-churn: short simulated sessions through `primer_serve` over
//! TCP loopback.
//!
//! Closed-loop client threads each open a two-query session, run it and
//! finish it, then open the next, in rounds they start together. Rounds
//! alternate FPC and F, so the server's plane cache holds two keys, and
//! one session in four suspends after its first query and resumes on a
//! new connection. Set-up, the handshake, the plane cache and
//! suspend-image writes and reads dominate here, not pooled offline
//! work.

use crate::metrics::{median, Metrics, Tally};
use crate::replay;
use crate::trace::{self, ms_since, timed};
use crate::{derive_seed, Model};
use primer_core::{build_session_circuits, Engine, GcMode, ProtocolVariant};
use primer_math::rng::derive;
use primer_serve::{
    poll_stats, ClientBuilder, ClientError, ServerBuilder, ServerConfig, SessionHandle,
    SessionSummary,
};
use rand::Rng;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Queries per session.
const QUERIES: usize = 2;
/// Offline bundles per production batch. With a pool of 2 a session's
/// first query would wait for both bundles and its second for none, so
/// per-query latency would split into two modes and its median would
/// jump between them from run to run.
const POOL: usize = 1;
/// Every `SUSPEND_EVERY`-th session suspends after its first query.
const SUSPEND_EVERY: u64 = 4;
/// Rounds (one session per client thread each) a run makes even when
/// the time is up, so the online tail always has support.
const MIN_ROUNDS: u64 = 10;

/// Rounds that fill the server's circuit and plane caches (one per
/// variant); a traced run leaves them out of its overhead comparison.
const WARM_ROUNDS: u64 = 2;

/// Whether a traced run traces `round`. After the warm rounds, pairs of
/// rounds (one FPC, one F) alternate between untraced and traced, so
/// the overhead compares sessions of the same mix at the same point in
/// the run.
fn traced_round(round: u64) -> bool {
    round >= WARM_ROUNDS && (round / 2) % 2 == 1
}

/// Client-side timings, milliseconds, and the server's session
/// summaries.
#[derive(Default)]
struct Timings {
    open_ms: Vec<f64>,
    online_ms: Vec<f64>,
    session_ms: Vec<f64>,
    /// Per session: (wall time − open) / queries.
    query_ms: Vec<f64>,
    suspend_ms: Vec<f64>,
    resume_ms: Vec<f64>,
    /// Session wall times split by whether the session ran traced.
    split_ms: (Vec<f64>, Vec<f64>),
    summaries: Vec<SessionSummary>,
}

/// What one completed session measured.
struct Done {
    open_ms: f64,
    online_ms: Vec<f64>,
    suspend_ms: Option<f64>,
    resume_ms: Option<f64>,
    summary: SessionSummary,
}

/// Runs serve-churn for `seconds` with `clients` load threads.
pub fn run(model: &Model, seconds: f64, traced: bool, clients: usize, tally: &Tally) -> Metrics {
    let suspend_dir = crate::out_dir().join(format!("suspend-{}", std::process::id()));
    let mut config = ServerConfig::test_default(model.cfg.clone());
    config.weight_seed = model.weight_seed;
    config.seed = derive_seed(model.seed, "server");
    config.max_workers = clients;
    config.pool = POOL;
    config.suspend_dir = Some(suspend_dir.clone());
    let server = ServerBuilder::from_config(config)
        .bind("127.0.0.1:0")
        .expect("bind a loopback port");
    let addr = server.local_addr().expect("bound address");
    // The server has no shutdown call: its event loop idles once the
    // clients are done and ends with the process.
    std::thread::Builder::new()
        .name("bench-serve".into())
        .spawn(move || server.run_forever())
        .expect("spawn server event loop");

    trace::set_enabled(false);
    let timings = Mutex::new(Timings::default());
    let barrier = Barrier::new(clients);
    let more = AtomicBool::new(true);
    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let (timings, barrier, more) = (&timings, &barrier, &more);
            s.spawn(move || {
                for round in 0u64.. {
                    // Clients start each round together: every run then
                    // sees the same overlap of concurrent sessions, not a
                    // random phase between the clients.
                    if barrier.wait().is_leader() {
                        let elapsed = start.elapsed().as_secs_f64();
                        // Stop only after whole cycles: as many FPC as F
                        // sessions and one suspension in every
                        // `SUSPEND_EVERY`, so the mix, and with it bytes
                        // and flights per query, does not depend on how
                        // many rounds fit in the time.
                        let whole = round.is_multiple_of(2)
                            && (round * clients as u64).is_multiple_of(SUSPEND_EVERY);
                        let go_on = elapsed < seconds || round < MIN_ROUNDS || !whole;
                        more.store(go_on, Ordering::SeqCst);
                        trace::set_enabled(traced && traced_round(round));
                    }
                    barrier.wait();
                    if !more.load(Ordering::SeqCst) {
                        break;
                    }
                    let traced_now = trace::enabled();
                    let id = round * clients as u64 + c as u64;
                    let variant = if round % 2 == 0 {
                        ProtocolVariant::Fpc
                    } else {
                        ProtocolVariant::F
                    };
                    let suspend = id % SUSPEND_EVERY == SUSPEND_EVERY - 1;
                    let seed = derive_seed(model.seed, &format!("churn-{id}"));
                    trace::set_query(Some(id));
                    let t0 = Instant::now();
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        session(model, addr, variant, seed, suspend, tally)
                    }));
                    trace::set_query(None);
                    let wall = ms_since(t0);
                    match result {
                        Ok(Some(done)) => {
                            let mut t = timings.lock().expect("timings lock");
                            t.query_ms.push((wall - done.open_ms) / QUERIES as f64);
                            t.open_ms.push(done.open_ms);
                            t.online_ms.extend(done.online_ms);
                            t.suspend_ms.extend(done.suspend_ms);
                            t.resume_ms.extend(done.resume_ms);
                            t.summaries.push(done.summary);
                            t.session_ms.push(wall);
                            if round >= WARM_ROUNDS && traced_now {
                                t.split_ms.1.push(wall);
                            } else if round >= WARM_ROUNDS {
                                t.split_ms.0.push(wall);
                            }
                        }
                        Ok(None) => {}
                        Err(_) => {
                            tally.attempt();
                            tally.error();
                        }
                    }
                }
            });
        }
    });
    let loop_s = start.elapsed().as_secs_f64();
    trace::set_enabled(false);
    let stats = poll_stats(addr);
    let _ = std::fs::remove_dir_all(&suspend_dir);

    let t = timings.into_inner().expect("timings lock");
    let mut m = Metrics::default();
    if t.session_ms.is_empty() {
        return m;
    }
    let per_query = |f: &dyn Fn(&SessionSummary) -> u64| -> Vec<f64> {
        t.summaries
            .iter()
            .map(|s| f(s) as f64 / s.queries.max(1) as f64)
            .collect()
    };
    let queries: u64 = t.summaries.iter().map(|s| s.queries).sum();
    let total = |f: &dyn Fn(&SessionSummary) -> u64| -> f64 {
        t.summaries.iter().map(f).sum::<u64>() as f64 / queries as f64
    };
    if !traced {
        m.put("setup_s", median(&t.open_ms) / 1e3, "s");
        // The server's offline compute per query: its producer runs
        // beside the client's, so no client call brackets a refill.
        m.put(
            "offline_ms",
            median(&per_query(&|s| s.offline.compute_ns)) / 1e6,
            "ms",
        );
        m.put("online_p50_ms", median(&t.online_ms), "ms");
        crate::put_tail(&mut m, &t.online_ms);
        m.put("query_ms", median(&t.query_ms), "ms");
        m.put("bytes_per_query", total(&|s| s.traffic.total_bytes()), "B");
        m.put(
            "flights_per_query",
            total(&|s| s.traffic.total_messages()),
            "count",
        );
        m.put("session_p50_ms", median(&t.session_ms), "ms");
        m.put("sessions_per_s", t.session_ms.len() as f64 / loop_s, "1/s");
        m.put("peak_rss_mb", crate::peak_rss_mb(), "MB");
        return m;
    }
    // The server parties run inside the serving stack; their set-up,
    // offline and online times come from each session's summary.
    let setup_ms: Vec<f64> = t
        .summaries
        .iter()
        .map(|s| s.setup.compute_ns as f64 / 1e6)
        .collect();
    m.put("core.setup_ms.server", median(&setup_ms), "ms");
    m.put(
        "core.refill_ms.server",
        median(&per_query(&|s| s.offline.compute_ns)) / 1e6,
        "ms",
    );
    m.put(
        "core.serve_one_ms",
        median(&per_query(&|s| s.online.compute_ns)) / 1e6,
        "ms",
    );
    m.put("core.infer_ms", median(&t.online_ms), "ms");
    let sessions = t.summaries.len() as f64;
    m.put(
        "net.bytes.setup",
        t.summaries.iter().map(|s| s.setup.bytes).sum::<u64>() as f64 / sessions,
        "B",
    );
    m.put(
        "net.flights.setup",
        t.summaries.iter().map(|s| s.setup.messages).sum::<u64>() as f64 / sessions,
        "count",
    );
    m.put("net.bytes.offline", total(&|s| s.offline.bytes), "B");
    m.put(
        "net.flights.offline",
        total(&|s| s.offline.messages),
        "count",
    );
    m.put("net.bytes.online", total(&|s| s.online.bytes), "B");
    m.put("net.flights.online", total(&|s| s.online.messages), "count");
    m.put("serve.open_ms", median(&t.open_ms), "ms");
    if !t.suspend_ms.is_empty() {
        m.put("serve.suspend_ms", median(&t.suspend_ms), "ms");
        m.put("serve.resume_ms", median(&t.resume_ms), "ms");
    }
    match stats {
        Ok(s) => {
            m.put("serve.planes_built", s.planes_built() as f64, "count");
            m.put("serve.planes_reused", s.planes_reused() as f64, "count");
            m.put("serve.plane_evictions", s.plane_evictions() as f64, "count");
            m.put("serve.plane_build_ms", s.plane_build_ms() as f64, "ms");
            m.put("serve.shed_total", s.shed_total() as f64, "count");
        }
        Err(e) => eprintln!("primer-benchmark: final /stats poll failed: {e}"),
    }
    let (untraced, traced_ms) = &t.split_ms;
    if !untraced.is_empty() && !traced_ms.is_empty() {
        m.put(
            "obs.trace_overhead_ms",
            median(traced_ms) - median(untraced),
            "ms",
        );
    }
    // The sessions are half FPC and half F. The circuit build (which
    // the serving stack runs inside `open` and, once per variant, on the
    // server), GC sizes, plain evaluation and the HE operation counts
    // (of one in-process query: the client cannot see the server's) are
    // measured per variant and reported averaged over that mix. Garbling is replayed on the FPC circuits only, as on the
    // other workloads: a second replay would take about 45 s.
    let mut per_variant = Vec::new();
    for variant in [ProtocolVariant::Fpc, ProtocolVariant::F] {
        let (circuits, build_ms) = timed("core.circuit_build", || {
            build_session_circuits(&model.sys, variant, &model.fixed)
        });
        let kinds = replay::step_kinds(model.cfg.n_blocks, variant.combined());
        let mut v = Metrics::default();
        v.put("core.circuit_build_ms", build_ms, "ms");
        replay::sizes(&mut v, &circuits, &kinds);
        replay::eval_plain(&mut v, &circuits);
        he_counts(&mut v, model, variant);
        if variant == ProtocolVariant::Fpc {
            replay::garbling(&mut m, &circuits, &kinds, &model.sys);
        }
        per_variant.push(v);
    }
    for (name, _, unit) in per_variant[0].iter() {
        let mean = per_variant.iter().filter_map(|v| v.get(name)).sum::<f64>() / 2.0;
        m.put(name, mean, unit);
    }
    replay::he(&mut m, &model.sys);
    m
}

/// The HE operation counts of one simulated `variant` query.
fn he_counts(m: &mut Metrics, model: &Model, variant: ProtocolVariant) {
    let engine = Engine::new(
        model.sys.clone(),
        variant,
        (*model.fixed).clone(),
        GcMode::Simulated,
        derive_seed(model.seed, "he-counts"),
    );
    let tokens: Vec<usize> = (0..model.cfg.n_tokens).collect();
    let report = {
        let _s = trace::span("core.engine_run");
        engine.run(&tokens)
    };
    let (off, on) = (&report.he_ops_offline, &report.he_ops_online);
    m.put("he.rotations.offline", off.rotations as f64, "count");
    m.put("he.rotations.online", on.rotations as f64, "count");
    m.put("he.ntt.offline", off.ntt as f64, "count");
    m.put("he.ntt.online", on.ntt as f64, "count");
    m.put("he.mask_prep.offline", off.mask_prep as f64, "count");
}

/// One session: open, two queries (suspending and resuming between
/// them when `suspend`), finish. Returns what it measured if it
/// completed; every query it could not run is counted as failed.
fn session(
    model: &Model,
    addr: SocketAddr,
    variant: ProtocolVariant,
    seed: u64,
    suspend: bool,
    tally: &Tally,
) -> Option<Done> {
    let mut rng = derive(seed, "queries");
    let queries: Vec<Vec<usize>> = (0..QUERIES)
        .map(|_| {
            (0..model.cfg.n_tokens)
                .map(|_| rng.gen_range(0..model.cfg.vocab))
                .collect()
        })
        .collect();
    let fail = |done: usize, e: ClientError| {
        eprintln!("primer-benchmark: serve-churn session failed: {e}");
        let left = (QUERIES - done) as u64;
        match e {
            ClientError::Busy { .. } => tally.refuse(left),
            _ => {
                for _ in 0..left {
                    tally.attempt();
                    tally.error();
                }
            }
        }
        None
    };
    let builder = ClientBuilder::new(variant).pool(POOL).seed(seed);
    let (handle, open_ms) = timed("serve.open", || builder.open(addr, QUERIES));
    let mut handle: SessionHandle = match handle {
        Ok(h) => h,
        Err(e) => return fail(0, e),
    };
    let mut online_ms = Vec::with_capacity(QUERIES);
    let (mut suspend_ms, mut resume_ms) = (None, None);
    for (i, tokens) in queries.iter().enumerate() {
        if i == 1 && suspend {
            let (parked, ms) = timed("serve.suspend", || handle.suspend());
            suspend_ms = Some(ms);
            let parked = match parked {
                Ok(p) => p,
                Err(e) => return fail(i, e),
            };
            let (resumed, ms) = timed("serve.resume", || parked.resume(addr));
            resume_ms = Some(ms);
            handle = match resumed {
                Ok(h) => h,
                Err(e) => return fail(i, e),
            };
        }
        let (prediction, ms) = timed("serve.infer", || handle.infer(tokens));
        let prediction = match prediction {
            Ok(p) => p,
            Err(e) => return fail(i, e),
        };
        online_ms.push(ms);
        let reference = if variant.combined() {
            model.fixed.logits_combined(tokens)
        } else {
            model.fixed.logits(tokens)
        };
        tally.attempt();
        if prediction.logits != reference {
            tally.wrong();
        }
    }
    let (finished, _) = timed("serve.finish", || handle.finish());
    match finished {
        Ok(outcome) => Some(Done {
            open_ms,
            online_ms,
            suspend_ms,
            resume_ms,
            summary: outcome.summary,
        }),
        Err(e) => {
            eprintln!("primer-benchmark: serve-churn finish failed: {e}");
            tally.error();
            None
        }
    }
}
