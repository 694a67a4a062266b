//! Shared harness for the serving integration tests.

use primer_core::{Engine, GcMode, ProtocolVariant, SystemConfig};
use primer_math::rng::seeded;
use primer_nn::{FixedTransformer, TransformerConfig, TransformerWeights};
use primer_net::{TcpConnection, Transport};
use primer_serve::{ServerBuilder, ServerConfig, ServerStats, CH_CONTROL};
use std::net::SocketAddr;
use std::thread::JoinHandle;

/// The weight seed every test server announces (clients rebuild the
/// same model from it, and so do the in-process reference engines).
pub const WEIGHT_SEED: u64 = 7;

/// Starts a test-profile server for `sessions` **concluded** sessions
/// on an OS port.
#[allow(dead_code)]
pub fn start_server(
    model: TransformerConfig,
    sessions: usize,
    max_workers: usize,
    pool: usize,
) -> (SocketAddr, JoinHandle<ServerStats>) {
    start_server_with(model, sessions, move |c| {
        c.max_workers = max_workers;
        c.pool = pool;
    })
}

/// [`start_server`] with full config control (shed policy, suspend
/// directory, plane-cache bound, …). Each test binary compiles its own
/// copy of this module, so suites that only use the simple form don't
/// reference this one.
#[allow(dead_code)]
pub fn start_server_with(
    model: TransformerConfig,
    sessions: usize,
    tweak: impl FnOnce(&mut ServerConfig),
) -> (SocketAddr, JoinHandle<ServerStats>) {
    let mut config = ServerConfig::test_default(model);
    config.weight_seed = WEIGHT_SEED;
    tweak(&mut config);
    let server = ServerBuilder::from_config(config).bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.serve_sessions(sessions));
    (addr, handle)
}

/// The in-process reference engine for the same model the test servers
/// serve: bit-identical logits are the acceptance bar for the TCP path.
/// (Each test binary compiles its own copy of this module; suites that
/// only exercise the admin surface don't call it.)
#[allow(dead_code)]
pub fn reference_engine(
    model: &TransformerConfig,
    variant: ProtocolVariant,
    mode: GcMode,
) -> Engine {
    let sys = SystemConfig::test_profile(model).expect("profile");
    let weights = TransformerWeights::random(model, &mut seeded(WEIGHT_SEED));
    let fixed = FixedTransformer::quantize(model, &weights, sys.pipeline);
    // The engine seed drives masks/keys only; the protocol reconstructs
    // exact values regardless, so any seed yields the same logits.
    Engine::new(sys, variant, fixed, mode, 0xe16)
}

/// Sends `frame` as a connection's first control frame and returns the
/// server's one-frame answer.
#[allow(dead_code)]
pub fn first_frame_exchange(addr: SocketAddr, frame: &[u8]) -> Vec<u8> {
    let mut conn = TcpConnection::connect(addr).expect("connect");
    let control = conn.take_channel(CH_CONTROL);
    control.send(frame);
    control.recv()
}
