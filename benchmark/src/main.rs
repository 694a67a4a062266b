//! `primer-benchmark` — the repository benchmark.
//!
//! ```text
//! primer-benchmark --workload garbled-lan|sim-batch|serve-churn|all
//!                  --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload runs `test-tiny` under the test profile with the
//! full Primer variant (FPC; serve-churn alternates FPC and F), in its
//! own process (peak RSS is per process; `all` re-runs this binary once
//! per workload). Inputs — the model weights, every session seed and
//! every query — derive from `--seed`. Each query's logits are compared
//! bit for bit with the plaintext fixed-point reference; a wrong logit
//! fails the run.
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! holding the end-to-end metrics; with `--trace 1` the same workload
//! runs with benchmark-side spans on and the JSON holds the per-layer
//! metrics instead. See README.md next to this file for what each
//! workload and metric is for.

mod churn;
mod inproc;
mod metrics;
mod replay;
mod timed;
mod trace;

use metrics::{median, tail, Metrics, Tally};
use primer_core::{GcMode, SystemConfig};
use primer_net::NetworkModel;
use primer_nn::{FixedTransformer, TransformerConfig, TransformerWeights};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["garbled-lan", "sim-batch", "serve-churn"];

/// A seed no tuning run of this benchmark used: a claimed gain must also
/// hold on it.
const HELD_OUT_SEED: u64 = 9_151_314_442_816_847_872;

/// Load threads `serve-churn` drives; the benchmark refuses to start
/// more than the machine has cores.
const CHURN_CLIENTS: usize = 2;

/// The end-to-end metrics of `BENCHMARK.json`, which every workload
/// reports with `--trace 0`, and their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("offline_ms", "ms"),
    ("online_p50_ms", "ms"),
    ("query_ms", "ms"),
    ("bytes_per_query", "B"),
    ("flights_per_query", "count"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of `BENCHMARK.json`, which every workload
/// reports with `--trace 1`, and their units.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("core.circuit_build_ms", "ms"),
    ("core.setup_ms.server", "ms"),
    ("core.refill_ms.server", "ms"),
    ("core.infer_ms", "ms"),
    ("core.serve_one_ms", "ms"),
    ("gc.and_gates", "count"),
    ("gc.and_gates.trunc", "count"),
    ("gc.and_gates.softmax", "count"),
    ("gc.and_gates.layernorm", "count"),
    ("gc.and_gates.gelu", "count"),
    ("gc.table_bytes", "B"),
    ("gc.garble_ms", "ms"),
    ("gc.garble_ms.trunc", "ms"),
    ("gc.garble_ms.softmax", "ms"),
    ("gc.garble_ms.layernorm", "ms"),
    ("gc.garble_ms.gelu", "ms"),
    ("gc.aes_ns", "ns"),
    ("gc.hashes", "count"),
    ("gc.eval_ms", "ms"),
    ("gc.eval_plain_ms", "ms"),
    ("gc.ot.base_sets", "count"),
    ("gc.ot.base_ms", "ms"),
    ("gc.ot.setup_ms", "ms"),
    ("gc.ot.count", "count"),
    ("he.rotations.offline", "count"),
    ("he.rotations.online", "count"),
    ("he.ntt.offline", "count"),
    ("he.ntt.online", "count"),
    ("he.mask_prep.offline", "count"),
    ("he.rotate_us", "us"),
    ("he.ntt_us", "us"),
    ("net.bytes.setup", "B"),
    ("net.bytes.offline", "B"),
    ("net.bytes.online", "B"),
    ("net.flights.setup", "count"),
    ("net.flights.offline", "count"),
    ("net.flights.online", "count"),
    ("obs.trace_overhead_ms", "ms"),
];

/// The benchmark's model and the seeds derived from the workload seed.
#[derive(Clone)]
pub struct Model {
    /// Workload seed everything below derives from.
    pub seed: u64,
    /// `test-tiny`.
    pub cfg: TransformerConfig,
    /// Test profile for `cfg`.
    pub sys: SystemConfig,
    /// Seed the weights are drawn from.
    pub weight_seed: u64,
    /// The quantized model both parties and the reference use.
    pub fixed: Arc<FixedTransformer>,
}

impl Model {
    fn new(seed: u64) -> Self {
        let cfg = TransformerConfig::test_tiny();
        let sys = SystemConfig::test_profile(&cfg).expect("test-tiny fits the test profile");
        let weight_seed = derive_seed(seed, "weights");
        let weights = TransformerWeights::random(&cfg, &mut primer_math::rng::seeded(weight_seed));
        let fixed = Arc::new(FixedTransformer::quantize(&cfg, &weights, sys.pipeline));
        Self {
            seed,
            cfg,
            sys,
            weight_seed,
            fixed,
        }
    }

    /// The seed of the `index`-th session of a run.
    pub fn session_seed(&self, index: u64) -> u64 {
        derive_seed(self.seed, &format!("session-{index}"))
    }
}

/// A 64-bit seed for `label`, derived from the workload seed.
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    use rand::Rng;
    primer_math::rng::derive(seed, label).gen()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Where traces go: inside the checkout, in the build directory that
/// `.gitignore` already excludes.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("primer-benchmark")
}

/// The checked-out commit, read from `.git` in the working directory
/// (never from a parent directory), or `unknown`.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("primer-benchmark: {e}");
            eprintln!(
                "usage: primer-benchmark --workload <{}|all> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Pinned, not inherited: results must not depend on the caller's
    // environment. Set before any thread exists.
    std::env::set_var("PRIMER_THREADS", nproc.to_string());
    if args.workload == "all" {
        return run_all(&args);
    }
    if args.workload == "serve-churn" && CHURN_CLIENTS > nproc {
        eprintln!(
            "primer-benchmark: refusing to start {CHURN_CLIENTS} load threads on {nproc} core(s)"
        );
        return ExitCode::from(2);
    }
    let env = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"held_out_seed\":{HELD_OUT_SEED},\"nproc\":{nproc},\
         \"primer_threads\":{nproc},\"simd\":\"{}\",\"commit\":\"{}\",\"trace\":{}}}",
        args.workload,
        args.seed,
        primer_he::simd::level().name(),
        commit(),
        u8::from(args.trace)
    );
    println!("env {env}");

    let tally = Tally::default();
    trace::set_enabled(args.trace);
    let metrics = match args.workload.as_str() {
        "garbled-lan" => in_process(&args, &tally, garbled_lan()),
        "sim-batch" => in_process(&args, &tally, sim_batch()),
        _ => churn::run(
            &Model::new(args.seed),
            args.seconds,
            args.trace,
            CHURN_CLIENTS,
            &tally,
        ),
    };
    if args.trace {
        trace::set_enabled(false);
        let spans = trace::take_spans();
        let path = out_dir().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match trace::write_jsonl(&path, &spans) {
            Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("primer-benchmark: cannot write {}: {e}", path.display()),
        }
        print_self_times(&spans);
    }
    report(&metrics, &tally, args.trace)
}

/// Prints the metric tables and the result line; the exit code fails
/// the run on any wrong logit or failed query.
///
/// The result line holds exactly the metrics `BENCHMARK.json` lists for
/// the run's mode. A workload also measures metrics that only it can
/// (listed in README.md); those are printed in the second table only.
fn report(metrics: &Metrics, tally: &Tally, traced: bool) -> ExitCode {
    let listed: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let missing: Vec<&str> = listed
        .iter()
        .filter(|(name, _)| metrics.get(name).is_none())
        .map(|(name, _)| *name)
        .collect();
    let (attempted, errored, refused, wrong) = tally.read();
    let failed = tally.failed();
    let row = |(name, value, unit): (&str, f64, &str)| {
        println!("{name:<34} {value:>16.4}  {unit}");
    };
    println!("{:<34} {:>16}  unit", "metric", "value");
    metrics
        .iter()
        .filter(|(name, _, _)| listed.iter().any(|(l, _)| l == name))
        .for_each(row);
    println!(
        "{:<34} {:>16}  unit",
        "measured on this workload only", "value"
    );
    metrics
        .iter()
        .filter(|(name, _, _)| !PER_LAYER.iter().chain(&END_TO_END).any(|(l, _)| l == name))
        .for_each(row);
    println!(
        "queries: {attempted} attempted, {errored} errored, {refused} refused, {wrong} wrong; \
         failed_share {:.6}",
        failed as f64 / attempted.max(1) as f64
    );
    if failed == 0 && !missing.is_empty() {
        eprintln!("primer-benchmark: no value for {missing:?}");
        return ExitCode::FAILURE;
    }
    let body: Vec<String> = listed
        .iter()
        .filter_map(|&(name, unit)| {
            let value = metrics.get(name)?;
            assert_eq!(metrics.unit(name), Some(unit), "unit of {name}");
            Some(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ))
        })
        .collect();
    let correct = failed == 0 && attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_self_times(spans: &[trace::SpanRec]) {
    println!(
        "{:<28} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, f) in trace::fold(spans) {
        println!(
            "{name:<28} {:>8} {:>12.3} {:>12.3}",
            f.count,
            f.total_ns as f64 / 1e6,
            f.self_ns as f64 / 1e6
        );
    }
}

/// Runs every workload, each in its own child process, and exits
/// non-zero if any of them failed.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("primer-benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        println!("== {w}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace"])
            .arg(if args.trace { "1" } else { "0" })
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The private path a user runs: real garbling and OT over a LAN-shaped
/// link, one closed-loop client, one bundle per refill. `BENCHMARK.json`
/// does not list it: a run affords one ~50 s query, too few samples for
/// a timing that holds still on a shared host (see README.md).
fn garbled_lan() -> inproc::Spec {
    inproc::Spec {
        mode: GcMode::Garbled,
        link: NetworkModel::paper_lan(),
        pool: 1,
        setups: 3,
        min_queries: 1,
        many_queries: false,
    }
}

/// One long simulated-GC session refilling a pool of several bundles.
fn sim_batch() -> inproc::Spec {
    inproc::Spec {
        mode: GcMode::Simulated,
        link: NetworkModel::ideal(),
        pool: 4,
        setups: 5,
        min_queries: 2 * metrics::TAIL_SUPPORT,
        many_queries: true,
    }
}

/// Records `online_tail_ms` when the samples support a tail percentile
/// (see [`metrics::tail`]), printing which percentile it is.
pub fn put_tail(m: &mut Metrics, online_ms: &[f64]) {
    if let Some((pct, v)) = tail(online_ms) {
        println!("online_tail_ms is p{pct:.2} of {} queries", online_ms.len());
        m.put("online_tail_ms", v, "ms");
    }
}

fn in_process(args: &Args, tally: &Tally, spec: inproc::Spec) -> Metrics {
    let model = Model::new(args.seed);
    let sessions = inproc::run(&spec, &model, args.seconds, tally);
    let mut m = Metrics::default();
    let Some((client, server)) = sessions.last().filter(|(c, _)| c.queries > 0) else {
        return m;
    };
    let setup_s: Vec<f64> = sessions.iter().map(|(c, _)| c.setup_s).collect();
    let q = client.queries as f64;
    if !args.trace {
        m.put("setup_s", median(&setup_s), "s");
        m.put("offline_ms", median(&client.refill_ms), "ms");
        m.put("online_p50_ms", median(&client.online_ms), "ms");
        put_tail(&mut m, &client.online_ms);
        m.put("query_ms", client.loop_s * 1e3 / q, "ms");
        let traffic = client.offline_traffic.plus(&client.online_traffic);
        m.put("bytes_per_query", traffic.total_bytes() as f64 / q, "B");
        m.put(
            "flights_per_query",
            traffic.total_messages() as f64 / q,
            "count",
        );
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
        return m;
    }
    let circuit_ms: Vec<f64> = sessions
        .iter()
        .flat_map(|(c, s)| [c.circuit_build_ms, s.circuit_build_ms])
        .collect();
    m.put("core.circuit_build_ms", median(&circuit_ms), "ms");
    let setup_c: Vec<f64> = sessions.iter().map(|(c, _)| c.setup_ms).collect();
    let setup_srv: Vec<f64> = sessions.iter().map(|(_, s)| s.setup_ms).collect();
    m.put("core.setup_ms.client", median(&setup_c), "ms");
    m.put("core.setup_ms.server", median(&setup_srv), "ms");
    m.put(
        "core.refill_ms.client",
        median(&client.party_refill_ms),
        "ms",
    );
    m.put(
        "core.refill_ms.server",
        median(&server.party_refill_ms),
        "ms",
    );
    m.put("core.infer_ms", median(&client.infer_ms), "ms");
    m.put("core.serve_one_ms", median(&server.serve_one_ms), "ms");

    let he = |m: &mut Metrics, phase: &str, ops: &primer_he::OpCounts| {
        m.put(
            format!("he.rotations.{phase}"),
            ops.rotations as f64 / q,
            "count",
        );
        m.put(format!("he.ntt.{phase}"), ops.ntt as f64 / q, "count");
        if phase == "offline" {
            m.put("he.mask_prep.offline", ops.mask_prep as f64 / q, "count");
        }
    };
    he(&mut m, "offline", &server.he_offline);
    he(&mut m, "online", &server.he_online);

    for (phase, t, per) in [
        ("setup", &client.setup_traffic, 1.0),
        ("offline", &client.offline_traffic, q),
        ("online", &client.online_traffic, q),
    ] {
        m.put(
            format!("net.bytes.{phase}"),
            t.total_bytes() as f64 / per,
            "B",
        );
        m.put(
            format!("net.flights.{phase}"),
            t.total_messages() as f64 / per,
            "count",
        );
    }
    m.put(
        "net.send_ms.client",
        client.wire_ns.0 as f64 / 1e6 / q,
        "ms",
    );
    m.put(
        "net.send_ms.server",
        server.wire_ns.0 as f64 / 1e6 / q,
        "ms",
    );
    m.put(
        "net.recv_wait_ms.client",
        client.wire_ns.1 as f64 / 1e6 / q,
        "ms",
    );
    m.put(
        "net.recv_wait_ms.server",
        server.wire_ns.1 as f64 / 1e6 / q,
        "ms",
    );
    let (untraced, traced) = &client.split_ms;
    if spec.many_queries {
        m.put(
            "obs.trace_overhead_ms",
            median(traced) - median(untraced),
            "ms",
        );
    } else {
        // One query per run: the overhead is the spans one traced query
        // records, priced at the measured cost of recording a span.
        let cost_ns = trace::span_cost_ns();
        println!(
            "obs.trace_overhead_ms is {:.0} spans/query at {cost_ns:.1} ns/span",
            client.loop_spans as f64 / q
        );
        m.put(
            "obs.trace_overhead_ms",
            client.loop_spans as f64 / q * cost_ns / 1e6,
            "ms",
        );
    }

    let circuits = server
        .circuits
        .as_ref()
        .expect("server party kept its circuits");
    let kinds = replay::step_kinds(model.cfg.n_blocks, true);
    replay::sizes(&mut m, circuits, &kinds);
    replay::eval_plain(&mut m, circuits);
    // Replayed on every workload: sim-batch does not garble, but its
    // circuits are the ones a garbled session of the same model would.
    replay::garbling(&mut m, circuits, &kinds, &model.sys);
    replay::he(&mut m, &model.sys);
    if matches!(spec.mode, GcMode::Garbled) {
        print_shares(&m, client.loop_s * 1e3 / q);
    }
    m
}

/// Prints which share of a query's wall time the GC primitives, the
/// party's sends and the HE operations account for, from the per-layer
/// metrics alone.
fn print_shares(m: &Metrics, query_ms: f64) {
    let get = |name: &str| m.get(name).unwrap_or(0.0);
    let gc = get("gc.garble_ms") + get("gc.eval_ms") + get("gc.ot.setup_ms");
    let send = get("net.send_ms.client") + get("net.send_ms.server");
    let he = (get("he.rotations.offline") + get("he.rotations.online")) * get("he.rotate_us") / 1e3
        + (get("he.ntt.offline") + get("he.ntt.online")) * get("he.ntt_us") / 1e3;
    let pct = |x: f64| 100.0 * x / query_ms;
    // Sessions hoist most rotations, which makes each cheaper than the
    // replayed stand-alone rotation: the HE share is an upper bound.
    println!(
        "of query_ms {query_ms:.1}: gc garble+eval+ot {:.1}%, net sends {:.1}%, \
         he rotations+ntt at most {:.1}%",
        pct(gc),
        pct(send),
        pct(he)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use primer_core::{build_session_circuits, Engine, ProtocolVariant};

    /// `(name, unit)` of every metric in the `section` list of
    /// `BENCHMARK.json`, in order.
    fn manifest(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text.find(&format!("\"{section}\"")).expect("section");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("end of the list")];
        let value = |entry: &str, key: &str| -> String {
            let at = entry.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5;
            entry[at..].split('"').next().expect("value").to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (value(entry, "name"), value(entry, "unit")))
            .collect()
    }

    /// What the result line prints is what `BENCHMARK.json` lists.
    #[test]
    fn metric_lists_match_the_manifest() {
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(manifest("end_to_end"), own(&END_TO_END));
        assert_eq!(manifest("per_layer"), own(&PER_LAYER));
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(metrics::valid_name(name), "{name}");
        }
    }

    /// The per-step AND-gate metrics add up to `gc.and_gates`, which is
    /// the count the engine itself reports for a query of the session.
    #[test]
    fn and_gate_metrics_match_the_engine_report() {
        let model = Model::new(5);
        let circuits = build_session_circuits(&model.sys, ProtocolVariant::Fpc, &model.fixed);
        let mut m = Metrics::default();
        replay::sizes(
            &mut m,
            &circuits,
            &replay::step_kinds(model.cfg.n_blocks, true),
        );
        let total = m.get("gc.and_gates").expect("gc.and_gates");
        let by_step: f64 = ["trunc", "softmax", "layernorm", "gelu"]
            .iter()
            .map(|k| m.get(&format!("gc.and_gates.{k}")).expect("per-step count"))
            .sum();
        assert_eq!(by_step, total);

        let engine = Engine::new(
            model.sys.clone(),
            ProtocolVariant::Fpc,
            (*model.fixed).clone(),
            GcMode::Simulated,
            model.session_seed(0),
        );
        let report = engine.run(&[3, 1, 4, 1]);
        assert!(report.matches_plaintext_reference());
        assert_eq!(report.gc_and_gates as f64, total);
    }
}
