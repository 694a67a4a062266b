//! `bench-json` — the phase-level benchmark harness behind the repo's
//! perf trajectory (`BENCH_*.json`) and the CI perf gate.
//!
//! ```text
//! bench-json [--out BENCH_pr5.json] [--check BASELINE.json] [--tolerance 0.25]
//!            [--pool 4] [--refills 2] [--threads 1,4] [--gate-only]
//! ```
//!
//! `--gate-only` skips measurement entirely and gates an existing
//! `--out` file against the `--check` baseline (what CI runs after the
//! measurement step has already produced its artifact).
//!
//! For every protocol variant on `test-tiny`, at each requested
//! `PRIMER_THREADS` value, it runs one persistent client/server session
//! pair over an in-memory transport and measures wall-clock per phase:
//!
//! * **setup** — key generation + Galois-key transfer + weight prep
//!   (one iteration);
//! * **offline** — one lockstep pool refill of `--pool` bundles (the
//!   acceptance metric: the refill fans bundle production out across
//!   the thread pool), averaged over `--refills` refills;
//! * **online** — one query consuming a pooled bundle, averaged over
//!   `--pool × --refills` queries.
//!
//! Phase boundaries are barriers, so a phase's time is "both parties
//! ready" → "both parties done" — the number a serving operator would
//! see. Results land in `--out` (schema: `primer_bench::benchjson`).
//! With `--check`, the run additionally gates the **offline and
//! online** means against a committed baseline and exits non-zero on
//! regression beyond the tolerance (CI skips this step when the commit
//! message carries the `[bench-skip]` tag).

use primer_bench::benchjson::{check_regressions, parse_json, to_json, BenchRecord};
use primer_core::{build_session_circuits, ClientSession, GcMode, ProtocolVariant, ServerSession, SystemConfig};
use primer_he::OpCounts;
use primer_math::rng::seeded;
use primer_net::MemTransport;
use primer_nn::{FixedTransformer, TransformerConfig, TransformerWeights};
use rand::Rng;
use std::process::exit;
use std::sync::{Arc, Barrier};
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: bench-json [--out PATH] [--check BASELINE] [--tolerance F] [--pool N] \
         [--refills N] [--threads LIST] [--gate-only]"
    );
    exit(2);
}

struct PhaseTimes {
    setup_ms: f64,
    offline_refill_ms: Vec<f64>,
    online_query_ms: Vec<f64>,
    /// Server-side HE ops across **all** refills (offline) and all
    /// queries (online) — divided down to per-iteration means when the
    /// records are emitted.
    offline_ops: OpCounts,
    online_ops: OpCounts,
}

/// Runs one session pair and measures the three phases. `pool` is both
/// the refill batch size and the per-refill query drain count.
fn run_session(variant: ProtocolVariant, pool: usize, refills: usize) -> PhaseTimes {
    let cfg = TransformerConfig::test_tiny();
    let sys = SystemConfig::test_profile(&cfg).expect("test profile");
    let weights = TransformerWeights::random(&cfg, &mut seeded(4007));
    let fixed = Arc::new(FixedTransformer::quantize(&cfg, &weights, sys.pipeline));
    let circuits = Arc::new(build_session_circuits(&sys, variant, &fixed));
    let total = pool * refills;
    let mut qrng = seeded(4009);
    let queries: Vec<Vec<usize>> = (0..total)
        .map(|_| (0..cfg.n_tokens).map(|_| qrng.gen_range(0..cfg.vocab)).collect())
        .collect();

    let (ct, st, _meter) = MemTransport::pair();
    let barrier = Arc::new(Barrier::new(2));
    let (sys_s, fixed_s, circuits_s, barrier_s) =
        (sys.clone(), Arc::clone(&fixed), Arc::clone(&circuits), Arc::clone(&barrier));

    let server = std::thread::spawn(move || -> (OpCounts, OpCounts) {
        barrier_s.wait();
        let mut session = ServerSession::setup(
            sys_s, variant, GcMode::Simulated, fixed_s, circuits_s, 4011, total, pool, &st,
        )
        .expect("in-process key transfer");
        barrier_s.wait();
        let (mut offline_ops, mut online_ops) = (OpCounts::default(), OpCounts::default());
        for _ in 0..refills {
            barrier_s.wait();
            session.refill(&st, pool).expect("in-process flight");
            barrier_s.wait();
            for _ in 0..pool {
                barrier_s.wait();
                let round = session.serve_one(&st).expect("in-process flight");
                offline_ops = offline_ops.plus(&round.he_offline);
                online_ops = online_ops.plus(&round.he_online);
                barrier_s.wait();
            }
        }
        (offline_ops, online_ops)
    });

    barrier.wait();
    let t0 = Instant::now();
    let mut session = ClientSession::setup(
        sys, variant, GcMode::Simulated, fixed, circuits, 4011, total, pool, &ct,
    );
    barrier.wait();
    let setup_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut offline_refill_ms = Vec::with_capacity(refills);
    let mut online_query_ms = Vec::with_capacity(total);
    let mut next_query = queries.iter();
    for _ in 0..refills {
        barrier.wait();
        let t0 = Instant::now();
        session.refill(&ct, pool).expect("in-process flight");
        barrier.wait();
        offline_refill_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        for _ in 0..pool {
            let tokens = next_query.next().expect("query per drain");
            barrier.wait();
            let t0 = Instant::now();
            session.infer(tokens, &ct).expect("in-process flight");
            barrier.wait();
            online_query_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    let (offline_ops, online_ops) = server.join().expect("server thread");
    PhaseTimes { setup_ms, offline_refill_ms, online_query_ms, offline_ops, online_ops }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Exact sample percentiles over a phase's per-iteration wall-clocks —
/// `None` for single-sample phases, where a percentile is just the mean
/// again and would only pad the artifact.
fn percentiles(xs: &[f64]) -> (Option<f64>, Option<f64>, Option<f64>) {
    if xs.len() < 2 {
        return (None, None, None);
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("wall-clock is never NaN"));
    let p = |q| Some(primer_obs::percentile_of_sorted(&sorted, q));
    (p(0.50), p(0.95), p(0.99))
}

fn variant_code(v: ProtocolVariant) -> &'static str {
    match v {
        ProtocolVariant::Base => "base",
        ProtocolVariant::F => "f",
        ProtocolVariant::Fp => "fp",
        ProtocolVariant::Fpc => "fpc",
    }
}

fn main() {
    let mut out_path = "BENCH_pr5.json".to_string();
    let mut check_path: Option<String> = None;
    let mut tolerance = 0.25f64;
    let mut pool = 4usize;
    let mut refills = 2usize;
    let mut thread_counts = vec![1usize, 4];
    let mut gate_only = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--out" => out_path = value(&mut i),
            "--check" => check_path = Some(value(&mut i)),
            "--tolerance" => tolerance = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--pool" => pool = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--refills" => refills = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--threads" => {
                thread_counts = value(&mut i)
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--gate-only" => gate_only = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
        i += 1;
    }
    assert!(pool >= 1 && refills >= 1 && !thread_counts.is_empty());

    if gate_only {
        let check = check_path.unwrap_or_else(|| {
            eprintln!("--gate-only needs --check BASELINE");
            usage()
        });
        gate(&out_path, &check, tolerance);
        return;
    }

    // Multi-thread cells are only meaningful with the cores to back
    // them: a 4-thread pool on a 1-core machine measures scheduling, not
    // parallelism. Say so loudly next to the numbers.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Some(&starved) = thread_counts.iter().find(|&&t| t > cores) {
        eprintln!(
            "WARNING: this machine exposes {cores} core(s); the t{starved} cells cannot show \
             wall-clock speedup here (expect ~1.0x — re-run on a multi-core machine for the \
             real offline speedup)"
        );
    }

    // The tier every cell below dispatches to (PRIMER_SIMD overridable,
    // same resolution the kernels use) — recorded per record so committed
    // baselines say which kernel lane produced them.
    let simd_tier = primer_he::simd::level().name().to_string();
    eprintln!("SIMD tier: {simd_tier}");

    let mut records = Vec::new();
    for &threads in &thread_counts {
        // The pool reads PRIMER_THREADS at every scope, so setting it
        // between runs re-sizes the parallelism for the next session.
        std::env::set_var("PRIMER_THREADS", threads.to_string());
        for variant in ProtocolVariant::all() {
            let code = variant_code(variant);
            eprintln!("measuring {code} at {threads} thread(s)…");
            let times = run_session(variant, pool, refills);
            // Per-iteration op counts ride next to wall-clock: counts are
            // deterministic per refill/query, so the integer division is
            // exact, and they survive in the committed artifact even when
            // a small profile's wall-clock is too noisy to show a layout
            // win.
            let per_iter = |ops: &OpCounts, iters: usize| {
                let n = iters.max(1) as u64;
                (Some(ops.rotations / n), Some(ops.ntt / n), Some(ops.mask_prep / n))
            };
            records.push(BenchRecord {
                bench: "setup".into(),
                variant: code.into(),
                threads,
                mean_ms: times.setup_ms,
                iters: 1,
                rotations: None,
                ntt: None,
                mask_prep: None,
                p50_ms: None,
                p95_ms: None,
                p99_ms: None,
                simd: Some(simd_tier.clone()),
            });
            let (rotations, ntt, mask_prep) = per_iter(&times.offline_ops, refills);
            let (p50_ms, p95_ms, p99_ms) = percentiles(&times.offline_refill_ms);
            records.push(BenchRecord {
                bench: "offline".into(),
                variant: code.into(),
                threads,
                mean_ms: mean(&times.offline_refill_ms),
                iters: times.offline_refill_ms.len(),
                rotations,
                ntt,
                mask_prep,
                p50_ms,
                p95_ms,
                p99_ms,
                simd: Some(simd_tier.clone()),
            });
            let (rotations, ntt, mask_prep) =
                per_iter(&times.online_ops, times.online_query_ms.len());
            let (p50_ms, p95_ms, p99_ms) = percentiles(&times.online_query_ms);
            records.push(BenchRecord {
                bench: "online".into(),
                variant: code.into(),
                threads,
                mean_ms: mean(&times.online_query_ms),
                iters: times.online_query_ms.len(),
                rotations,
                ntt,
                mask_prep,
                p50_ms,
                p95_ms,
                p99_ms,
                simd: Some(simd_tier.clone()),
            });
        }
    }

    std::fs::write(&out_path, to_json(&records)).unwrap_or_else(|e| {
        eprintln!("write {out_path}: {e}");
        exit(1);
    });
    eprintln!("wrote {} records to {out_path}", records.len());

    // Speedup summaries: thread scaling per phase (threads[0] is the
    // baseline column).
    let base_threads = thread_counts[0];
    for phase in ["offline", "online"] {
        for &threads in thread_counts.iter().skip(1) {
            for variant in ProtocolVariant::all() {
                let code = variant_code(variant);
                let find = |t: usize| {
                    records
                        .iter()
                        .find(|r| r.bench == phase && r.variant == code && r.threads == t)
                        .map(|r| r.mean_ms)
                };
                if let (Some(a), Some(b)) = (find(base_threads), find(threads)) {
                    eprintln!(
                        "{phase} {code}: {a:.1} ms @ t{base_threads} → {b:.1} ms @ t{threads} \
                         ({:.2}x)",
                        a / b
                    );
                }
            }
        }
    }

    if let Some(path) = check_path {
        gate(&out_path, &path, tolerance);
    }
}

/// Gates `current_path` against `baseline_path`, exiting non-zero (with
/// one line per violation) on any offline- or online-phase regression.
fn gate(current_path: &str, baseline_path: &str, tolerance: f64) {
    let load = |path: &str| -> Vec<BenchRecord> {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("read {path}: {e}");
            exit(1);
        });
        parse_json(&text).unwrap_or_else(|e| {
            eprintln!("parse {path}: {e}");
            exit(1);
        })
    };
    let current = load(current_path);
    let baseline = load(baseline_path);
    let problems = check_regressions(&current, &baseline, tolerance);
    if problems.is_empty() {
        eprintln!(
            "perf gate: offline+online means in {current_path} within {:.0}% of {baseline_path}",
            tolerance * 100.0
        );
    } else {
        for p in &problems {
            eprintln!("perf gate: {p}");
        }
        exit(1);
    }
}
