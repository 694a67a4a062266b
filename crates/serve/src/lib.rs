//! # `primer_serve` — concurrent private-inference serving over TCP
//!
//! The network serving stack on top of the session engine: a
//! [`Server`] accepts many TCP clients, negotiates a session with each
//! ([`proto`]), and serves them concurrently — one worker per
//! connection, bounded by [`ServerConfig::max_workers`] — while each
//! session's offline bundle production runs on a dedicated producer
//! thread, overlapping in-flight online queries.
//!
//! ## Connection anatomy
//!
//! Every connection is one multiplexed
//! [`TcpConnection`](primer_net::tcp::TcpConnection) carrying three
//! logical channels:
//!
//! | channel | constant | traffic |
//! |---------|----------|---------|
//! | 0 | [`CH_ONLINE`]  | Setup (Galois keys) + per-query online phases |
//! | 1 | [`CH_OFFLINE`] | pipelined offline bundle production |
//! | 2 | [`CH_CONTROL`] | handshake, suspend/resume, end-of-session stats, live `/stats` polls |
//!
//! Keeping the phases on separate channels (each with its own meter) is
//! what lets a session's offline producer run *while* online queries
//! are in flight without corrupting per-phase traffic attribution.
//!
//! ## Determinism
//!
//! The served model's weights are drawn from a seed the server announces
//! in its welcome frame, so both parties quantize bit-identical models —
//! the protocol then guarantees the reconstructed logits equal the
//! plaintext fixed-point reference exactly, regardless of session
//! randomness, concurrency or transport. The `tests/` suites assert
//! TCP serving is bit-identical to the in-process `Engine` path.
//!
//! Binaries: `primer-server` and `primer-client` wrap [`Server`] and
//! [`ClientBuilder`] with a tiny CLI (see the README quickstart).

pub(crate) mod cache;
pub mod client;
pub mod error;
pub mod proto;
pub mod registry;
pub mod server;
pub(crate) mod suspend;

pub use client::{
    poll_stats, sample_random_queries, ClientBuilder, ClientError, Prediction, RunOutcome,
    SessionHandle, SuspendedSession,
};
pub use error::{ServeError, SessionOutcome};
pub use proto::{
    ClientHello, PhaseStat, Profile, ProtoError, ServerWelcome, SessionState, SessionStat,
    SessionSummary, StatsRequest, StatsSnapshot, StatsSnapshotBuilder, SuspendReply,
    SuspendRequest,
};
pub use registry::{PreparedPlaneStats, ServerStats, SessionRecord};
pub use server::{Server, ServerBuilder, ServerConfig, ShedPolicy};

use primer_core::{ConfigError, PhaseCost, SystemConfig};
use primer_net::{LinkShaper, MeteredTransport, ShapedTransport, TcpTransport};
use primer_nn::TransformerConfig;
use std::sync::Arc;

/// Connection channel carrying Setup + online query phases.
pub const CH_ONLINE: usize = 0;
/// Connection channel carrying pipelined offline bundle production.
pub const CH_OFFLINE: usize = 1;
/// Connection channel carrying the handshake and stats frames.
pub const CH_CONTROL: usize = 2;

/// Instantiates the [`SystemConfig`] a negotiated profile names.
///
/// # Errors
///
/// [`ConfigError`] when the model cannot be packed under the profile.
pub(crate) fn system_for(
    profile: Profile,
    model: &TransformerConfig,
) -> Result<SystemConfig, ConfigError> {
    match profile {
        Profile::Test => SystemConfig::test_profile(model),
        Profile::Paper => SystemConfig::paper_profile(model),
    }
}

/// Wraps a channel in a [`ShapedTransport`] charging the connection's
/// **shared** link shaper when one is configured — all channels of a
/// connection queue behind one modeled link, so a pipelined session
/// cannot exceed the modeled bandwidth in aggregate. Boxed so workers
/// hold either shape uniformly.
pub(crate) fn maybe_shaped(
    t: TcpTransport,
    shaper: Option<&Arc<LinkShaper>>,
) -> Box<dyn MeteredTransport + Send> {
    match shaper {
        Some(s) => Box::new(ShapedTransport::with_shaper(t, Arc::clone(s))),
        None => Box::new(t),
    }
}

/// Converts an engine [`PhaseCost`] into its wire summary form.
pub(crate) fn phase_summary(p: &PhaseCost) -> proto::PhaseSummary {
    proto::PhaseSummary {
        compute_ns: p.compute.as_nanos() as u64,
        bytes: p.bytes,
        messages: p.messages,
    }
}

/// Resolves a model name (`test-tiny`, `bert-base`, …) to its config —
/// shared by both binaries.
pub fn model_by_name(name: &str) -> Option<TransformerConfig> {
    Some(match name {
        "test-tiny" => TransformerConfig::test_tiny(),
        "test-small" => TransformerConfig::test_small(),
        "bert-tiny" => TransformerConfig::bert_tiny(),
        "bert-small" => TransformerConfig::bert_small(),
        "bert-base" => TransformerConfig::bert_base(),
        "bert-medium" => TransformerConfig::bert_medium(),
        "bert-large" => TransformerConfig::bert_large(),
        _ => return None,
    })
}
