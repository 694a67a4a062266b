//! The client side: connect, negotiate, run queries over a pipelined
//! session, collect the server's summary.
//!
//! The API is [`ClientBuilder`]: chainable configuration, one-shot
//! runs ([`ClientBuilder::run`] / [`ClientBuilder::run_random`]), and
//! an incremental [`SessionHandle`] that can [`suspend`] a session
//! mid-batch — parking its unconsumed offline bundles client-side and
//! a matching image server-side — and [`resume`] it later against the
//! same server or a restarted one, with bit-identical logits.
//!
//! [`suspend`]: SessionHandle::suspend
//! [`resume`]: SuspendedSession::resume

use crate::proto::{
    ClientHello, ProtoError, ServerWelcome, SessionSummary, StatsRequest, StatsSnapshot,
    SuspendReply, SuspendRequest,
};
use crate::{maybe_shaped, system_for, CH_CONTROL, CH_OFFLINE, CH_ONLINE};
use primer_core::{
    argmax_logits, build_session_circuits, ClientOnline, ClientSession, GcMode, ProtocolVariant,
    SuspendedClientSession,
};
use primer_he::HeError;
use primer_math::rng::seeded;
use primer_net::tcp::TcpConnection;
use primer_net::{MeteredTransport, Meter, NetworkModel, TrafficSnapshot};
use primer_nn::{FixedTransformer, TransformerConfig, TransformerWeights};
use std::io;
use std::net::ToSocketAddrs;
use std::sync::Arc;
use std::thread::JoinHandle;

/// A fresh unpredictable seed from OS entropy (`RandomState` hashes
/// per-process random keys), without a dependency on an OS rng crate.
fn entropy_seed() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    let mut h = std::collections::hash_map::RandomState::new().build_hasher();
    h.write_u64(std::time::UNIX_EPOCH.elapsed().map_or(0, |d| d.subsec_nanos() as u64));
    h.finish()
}

/// Chainable client constructor — the client API.
///
/// ```no_run
/// # use primer_serve::ClientBuilder;
/// # use primer_core::ProtocolVariant;
/// let outcome = ClientBuilder::new(ProtocolVariant::Fpc)
///     .pool(4)
///     .run_random("127.0.0.1:7000", 8)
///     .expect("run");
/// ```
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    variant: ProtocolVariant,
    mode: GcMode,
    pool: usize,
    seed: u64,
    shape: Option<NetworkModel>,
}

impl ClientBuilder {
    /// Starts from the defaults: simulated GC, a pool of 2, no traffic
    /// shaping, and a fresh entropy-derived session seed (see
    /// [`ClientBuilder::seed`]).
    pub fn new(variant: ProtocolVariant) -> Self {
        Self { variant, mode: GcMode::Simulated, pool: 2, seed: entropy_seed(), shape: None }
    }

    /// GC execution mode to request.
    pub fn mode(mut self, mode: GcMode) -> Self {
        self.mode = mode;
        self
    }

    /// Offline pool bound to pipeline with.
    pub fn pool(mut self, pool: usize) -> Self {
        self.pool = pool;
        self
    }

    /// Pins the client session seed (masks, keys, encryption
    /// randomness).
    ///
    /// **Privacy:** two sessions run from the same seed reuse the same
    /// mask stream, so the server can difference their masked inputs
    /// and learn how the private queries differ. The default is fresh
    /// OS entropy per builder; pin a seed only for reproducibility
    /// experiments with non-sensitive inputs.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Traffic shaping on the client's channels (one shared link shaper
    /// covers all channels of the connection).
    pub fn shape(mut self, shape: Option<NetworkModel>) -> Self {
        self.shape = shape;
        self
    }

    /// Connects, negotiates a session and runs `queries` private
    /// inferences through it, with offline bundle production pipelined
    /// on its own connection channel.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on socket failures, handshake rejection, a busy
    /// server under a shedding policy, or a model the queries do not
    /// fit.
    pub fn run<A: ToSocketAddrs>(
        &self,
        addr: A,
        queries: &[Vec<usize>],
    ) -> Result<RunOutcome, ClientError> {
        // Shape-check before the expensive Setup work: the handshake
        // announces the model, and a session that would only run
        // ill-fitting queries should fail before any key material
        // flows.
        let mut handle = self.open_checked(addr, queries.len(), |model| {
            for (i, q) in queries.iter().enumerate() {
                if q.len() != model.n_tokens {
                    return Err(ClientError::Config(format!(
                        "query {i} has {} tokens, the negotiated model takes {}",
                        q.len(),
                        model.n_tokens
                    )));
                }
                if let Some(&tok) = q.iter().find(|&&tok| tok >= model.vocab) {
                    return Err(ClientError::Config(format!(
                        "query {i} token {tok} outside vocab {}",
                        model.vocab
                    )));
                }
            }
            Ok(())
        })?;
        for q in queries {
            handle.infer(q)?;
        }
        handle.finish()
    }

    /// Like [`ClientBuilder::run`], but samples `n` random token
    /// sequences from the session seed once the model shape is known
    /// (the handshake announces it) — what `primer-client` runs without
    /// `--tokens`.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on socket failures, handshake rejection, or a
    /// busy server under a shedding policy.
    pub fn run_random<A: ToSocketAddrs>(&self, addr: A, n: usize) -> Result<RunOutcome, ClientError> {
        let mut handle = self.open(addr, n)?;
        for q in sample_random_queries(handle.model(), self.seed, n) {
            handle.infer(&q)?;
        }
        handle.finish()
    }

    /// Connects and negotiates a session booking `count` queries, but
    /// runs none of them yet: the caller drives inference one query at
    /// a time through the returned [`SessionHandle`] (and may suspend
    /// between queries).
    ///
    /// # Errors
    ///
    /// [`ClientError`] on socket failures, handshake rejection, or a
    /// busy server under a shedding policy ([`ClientError::Busy`]).
    pub fn open<A: ToSocketAddrs>(&self, addr: A, count: usize) -> Result<SessionHandle, ClientError> {
        self.open_checked(addr, count, |_| Ok(()))
    }

    /// [`ClientBuilder::open`] with a post-welcome check: `check` runs
    /// once the model is known but before any Setup work.
    fn open_checked<A: ToSocketAddrs>(
        &self,
        addr: A,
        count: usize,
        check: impl FnOnce(&TransformerConfig) -> Result<(), ClientError>,
    ) -> Result<SessionHandle, ClientError> {
        let mut conn = TcpConnection::connect(addr)?;
        let shaper = self.shape.map(primer_net::LinkShaper::new);
        let online_t = maybe_shaped(conn.take_channel(CH_ONLINE), shaper.as_ref());
        let offline_t = maybe_shaped(conn.take_channel(CH_OFFLINE), shaper.as_ref());
        let control = maybe_shaped(conn.take_channel(CH_CONTROL), shaper.as_ref());

        control.send(
            &ClientHello {
                variant: self.variant,
                mode: self.mode,
                queries: count as u32,
                pool: self.pool as u32,
                resume: None,
            }
            .encode(),
        );
        let welcome = decode_welcome(&recv_handshake(&*control)?)?;
        let model = welcome.model.clone();
        check(&model)?;
        // The pool the session actually runs with is the *negotiated*
        // one (our request clamped by the server's cap): production is
        // batched by it, which shapes the wire schedule, so both
        // parties must agree.
        let pool = (welcome.pool as usize).max(1);

        // Reconstruct the identical quantized model from the negotiated
        // seed: the GC step circuits bake in LayerNorm constants, so
        // the garbler needs them too.
        let sys =
            system_for(welcome.profile, &model).map_err(|e| ClientError::Config(e.to_string()))?;
        let weights = TransformerWeights::random(&model, &mut seeded(welcome.weight_seed));
        let fixed = Arc::new(FixedTransformer::quantize(&model, &weights, sys.pipeline));
        let circuits = Arc::new(build_session_circuits(&sys, self.variant, &fixed));

        let session = ClientSession::setup(
            sys,
            self.variant,
            self.mode,
            fixed,
            circuits,
            self.seed,
            count,
            pool,
            &*online_t,
        );
        let (producer, online) = session.into_pipelined(pool);

        let offline_meter = Arc::clone(offline_t.meter());
        let producer_handle = std::thread::Builder::new()
            .name("offline-producer-client".into())
            .spawn(move || producer.run(&*offline_t))
            .expect("spawn offline producer");

        Ok(SessionHandle {
            cfg: self.clone(),
            session_id: welcome.session_id,
            model,
            online,
            online_t,
            control,
            offline_meter: Some(offline_meter),
            producer: Some(producer_handle),
            booked: count,
            predictions: Vec::with_capacity(count),
            prior_traffic: TrafficSnapshot::default(),
        })
    }
}

/// Blocking control-channel read for handshake-stage replies that
/// survives a vanished peer. A server that accepts the socket but exits
/// before answering (a draining server discards hellos once its budget
/// is met) surfaces as [`ProtoError::Truncated`] — which the retry
/// classifiers treat as transient — instead of the transport's
/// mid-protocol panic, which is reserved for drops *inside* an admitted
/// session.
fn recv_handshake(t: &dyn MeteredTransport) -> Result<Vec<u8>, ClientError> {
    use primer_net::PollRecv;
    loop {
        match t.try_recv() {
            PollRecv::Frame(b) => return Ok(b),
            PollRecv::Empty => std::thread::sleep(std::time::Duration::from_millis(1)),
            PollRecv::Disconnected => return Err(ClientError::Proto(ProtoError::Truncated)),
            PollRecv::Unsupported => return Ok(t.recv()),
        }
    }
}

/// Decodes a welcome, surfacing a shed handshake as the typed
/// [`ClientError::Busy`].
fn decode_welcome(bytes: &[u8]) -> Result<ServerWelcome, ClientError> {
    match ServerWelcome::decode(bytes) {
        Ok(w) => Ok(w),
        Err(ProtoError::Busy { active, cap }) => Err(ClientError::Busy { active, cap }),
        Err(e) => Err(e.into()),
    }
}

/// Samples `n` random token sequences for `model` from `seed` — the
/// query stream [`ClientBuilder::run_random`] uses (public so callers
/// driving a [`SessionHandle`] query by query can reproduce it).
pub fn sample_random_queries(model: &TransformerConfig, seed: u64, n: usize) -> Vec<Vec<usize>> {
    use rand::Rng;
    let mut rng = seeded(seed ^ 0x70_6b_65_6e);
    (0..n).map(|_| (0..model.n_tokens).map(|_| rng.gen_range(0..model.vocab)).collect()).collect()
}

/// An open serving session the caller drives query by query.
///
/// Obtained from [`ClientBuilder::open`] (fresh) or
/// [`SuspendedSession::resume`]. Run queries with
/// [`SessionHandle::infer`]; between queries the session may
/// [`SessionHandle::suspend`]; once every booked query ran,
/// [`SessionHandle::finish`] collects the server's summary.
pub struct SessionHandle {
    cfg: ClientBuilder,
    session_id: u64,
    model: TransformerConfig,
    online: ClientOnline,
    online_t: Box<dyn MeteredTransport + Send>,
    control: Box<dyn MeteredTransport + Send>,
    /// `None` on a resumed session — its offline phase completed before
    /// suspension, so there is no offline channel or producer.
    offline_meter: Option<Arc<Meter>>,
    producer: Option<JoinHandle<Result<(), HeError>>>,
    booked: usize,
    predictions: Vec<Prediction>,
    /// Traffic accumulated before the last suspension (resumed
    /// sessions report cumulative totals).
    prior_traffic: TrafficSnapshot,
}

impl SessionHandle {
    /// The server-assigned session id (the resume token, if suspended).
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// The negotiated model configuration.
    pub fn model(&self) -> &TransformerConfig {
        &self.model
    }

    /// Queries booked but not yet run.
    pub fn remaining(&self) -> usize {
        self.booked - self.predictions.len()
    }

    /// Runs one private inference.
    ///
    /// # Errors
    ///
    /// [`ClientError::Session`] when every booked query already ran, a
    /// mid-session flight is malformed, or the offline producer ended
    /// before delivering this query's bundle.
    pub fn infer(&mut self, tokens: &[usize]) -> Result<Prediction, ClientError> {
        if self.remaining() == 0 {
            return Err(ClientError::Session(format!(
                "all {} booked queries already ran; call finish()",
                self.booked
            )));
        }
        let logits = self
            .online
            .infer(tokens, &*self.online_t)
            .map_err(|e| ClientError::Session(e.to_string()))?;
        let p = Prediction { predicted: argmax_logits(&logits), logits };
        self.predictions.push(p.clone());
        Ok(p)
    }

    /// Suspends the session between queries: asks the server to park
    /// its half, drains this side's offline pipeline into memory, and
    /// returns a [`SuspendedSession`] that can resume later — against
    /// this server process or a restarted one pointed at the same
    /// suspend directory.
    ///
    /// Consumes the handle either way: if the server refuses (garbled
    /// mode, no suspend directory), the session is abandoned, not
    /// resumable — check refusal conditions before calling.
    ///
    /// # Errors
    ///
    /// [`ClientError::Session`] on refusal, on a garbled-mode session
    /// (one-time labels are not serializable — checked client-side
    /// before bothering the server), or when nothing remains to
    /// suspend.
    pub fn suspend(mut self) -> Result<SuspendedSession, ClientError> {
        if matches!(self.cfg.mode, GcMode::Garbled) {
            return Err(ClientError::Session(
                "garbled sessions cannot suspend (one-time labels are not serializable)".into(),
            ));
        }
        if self.remaining() == 0 {
            return Err(ClientError::Session(
                "all booked queries already ran; call finish(), not suspend()".into(),
            ));
        }
        self.control.send(&SuspendRequest.encode());
        // The server acks BEFORE draining, so both sides drain their
        // offline pipelines concurrently — the remaining bundles flow
        // in the normal lockstep schedule.
        match SuspendReply::decode(&self.control.recv())? {
            SuspendReply::Refused(reason) => {
                Err(ClientError::Session(format!("server refused to suspend: {reason}")))
            }
            SuspendReply::Parked => Err(ClientError::Session(
                "parked confirmation arrived before the suspend ack".into(),
            )),
            SuspendReply::Ack { token, remaining } => {
                if remaining != self.remaining() as u64 {
                    return Err(ClientError::Session(format!(
                        "server acked {remaining} remaining queries, client has {}",
                        self.remaining()
                    )));
                }
                let parked = self.online.suspend();
                if let Some(h) = self.producer.take() {
                    h.join()
                        .map_err(|_| {
                            ClientError::Session("offline producer thread panicked".into())
                        })?
                        .map_err(|e| ClientError::Session(e.to_string()))?;
                }
                // Both drains are done; now wait for the server to
                // confirm the image is durably on disk, so a suspend()
                // that returned can always be resumed.
                match SuspendReply::decode(&self.control.recv())? {
                    SuspendReply::Parked => {}
                    other => {
                        return Err(ClientError::Session(format!(
                            "expected parked confirmation, got {other:?}"
                        )))
                    }
                }
                let mut traffic =
                    self.prior_traffic.plus(&TrafficSnapshot::capture(self.online_t.meter()));
                if let Some(m) = &self.offline_meter {
                    traffic = traffic.plus(&TrafficSnapshot::capture(m));
                }
                Ok(SuspendedSession {
                    token,
                    parked,
                    cfg: self.cfg,
                    model: self.model,
                    booked: self.booked,
                    predictions: self.predictions,
                    traffic,
                })
            }
        }
    }

    /// Collects the server's end-of-session summary once every booked
    /// query ran.
    ///
    /// # Errors
    ///
    /// [`ClientError::Session`] when queries remain unserved.
    pub fn finish(mut self) -> Result<RunOutcome, ClientError> {
        if self.remaining() != 0 {
            return Err(ClientError::Session(format!(
                "{} of {} booked queries not yet run",
                self.remaining(),
                self.booked
            )));
        }
        let summary = SessionSummary::decode(&self.control.recv())?;
        if let Some(h) = self.producer.take() {
            h.join()
                .map_err(|_| ClientError::Session("offline producer thread panicked".into()))?
                .map_err(|e| ClientError::Session(e.to_string()))?;
        }
        let mut client_traffic =
            self.prior_traffic.plus(&TrafficSnapshot::capture(self.online_t.meter()));
        if let Some(m) = &self.offline_meter {
            client_traffic = client_traffic.plus(&TrafficSnapshot::capture(m));
        }
        Ok(RunOutcome {
            session_id: self.session_id,
            model: self.model,
            predictions: self.predictions,
            summary,
            client_traffic,
        })
    }
}

/// A session parked by [`SessionHandle::suspend`]: the client half
/// (keys + unconsumed offline bundles) in memory, the server half on
/// disk under the resume token.
pub struct SuspendedSession {
    token: u64,
    parked: SuspendedClientSession,
    cfg: ClientBuilder,
    model: TransformerConfig,
    booked: usize,
    predictions: Vec<Prediction>,
    traffic: TrafficSnapshot,
}

impl SuspendedSession {
    /// The resume token (the session id on the serving side).
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Queries this session can still run.
    pub fn remaining(&self) -> usize {
        self.parked.remaining()
    }

    /// Reconnects and resumes the session — against the same server
    /// process or a restarted one pointed at the same suspend
    /// directory. The returned handle continues exactly where the
    /// suspended one stopped, with bit-identical remaining logits.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on socket failures or when the server no longer
    /// recognizes the token (consumed, restarted without the suspend
    /// directory, or reconfigured).
    pub fn resume<A: ToSocketAddrs>(self, addr: A) -> Result<SessionHandle, ClientError> {
        let parts = self.handshake(addr)?;
        Ok(self.attach(parts))
    }

    /// Like [`SuspendedSession::resume`], but retries transient
    /// failures until `timeout` elapses — the restart flow: the client
    /// keeps knocking while the old server exits and the new one binds.
    /// Transient means socket-level errors plus connections the server
    /// dropped without answering (a draining server discards hellos
    /// once its budget is met, which surfaces as a truncated frame).
    /// Deliberate answers (token rejected, busy, protocol mismatch)
    /// stay immediate: retrying cannot fix them.
    ///
    /// # Errors
    ///
    /// The last transient error once `timeout` elapses, or any
    /// non-retryable error as soon as it occurs.
    pub fn resume_retrying<A: ToSocketAddrs + Clone>(
        self,
        addr: A,
        timeout: std::time::Duration,
    ) -> Result<SessionHandle, ClientError> {
        let start = std::time::Instant::now();
        loop {
            let transient = |e: &ClientError| {
                matches!(e, ClientError::Io(_) | ClientError::Proto(ProtoError::Truncated))
            };
            match self.handshake(addr.clone()) {
                Ok(parts) => return Ok(self.attach(parts)),
                Err(e) if transient(&e) && start.elapsed() < timeout => {
                    std::thread::sleep(std::time::Duration::from_millis(500));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The resume handshake: connect, identify by token, validate the
    /// welcome. Borrows `self` so a socket-level failure leaves the
    /// parked session intact for a retry.
    fn handshake<A: ToSocketAddrs>(&self, addr: A) -> Result<ResumeParts, ClientError> {
        let cfg = &self.cfg;
        let mut conn = TcpConnection::connect(addr)?;
        let shaper = cfg.shape.map(primer_net::LinkShaper::new);
        let online_t = maybe_shaped(conn.take_channel(CH_ONLINE), shaper.as_ref());
        let control = maybe_shaped(conn.take_channel(CH_CONTROL), shaper.as_ref());
        control.send(
            &ClientHello {
                variant: cfg.variant,
                mode: GcMode::Simulated,
                queries: self.parked.remaining() as u32,
                pool: cfg.pool as u32,
                resume: Some(self.token),
            }
            .encode(),
        );
        let welcome = decode_welcome(&recv_handshake(&*control)?)?;
        if welcome.session_id != self.token {
            return Err(ClientError::Session(format!(
                "server resumed session {} for token {}",
                welcome.session_id, self.token
            )));
        }
        Ok(ResumeParts { online_t, control })
    }

    fn attach(self, parts: ResumeParts) -> SessionHandle {
        SessionHandle {
            cfg: self.cfg,
            session_id: self.token,
            model: self.model,
            online: self.parked.into_online(),
            online_t: parts.online_t,
            control: parts.control,
            offline_meter: None,
            producer: None,
            booked: self.booked,
            predictions: self.predictions,
            prior_traffic: self.traffic,
        }
    }
}

/// The transports a successful resume handshake produced (no offline
/// channel: the offline phase completed before suspension).
struct ResumeParts {
    online_t: Box<dyn MeteredTransport + Send>,
    control: Box<dyn MeteredTransport + Send>,
}

/// One query's reconstructed result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prediction {
    /// Reconstructed fixed-point logits.
    pub logits: Vec<i64>,
    /// Argmax class (lowest index wins ties, like the engine).
    pub predicted: usize,
}

/// What a completed client run returns.
#[derive(Debug)]
pub struct RunOutcome {
    /// Server-assigned session id.
    pub session_id: u64,
    /// The negotiated model configuration.
    pub model: TransformerConfig,
    /// Per-query results, in submission order.
    pub predictions: Vec<Prediction>,
    /// The server's end-of-session stats.
    pub summary: SessionSummary,
    /// Client-side metered traffic (online + offline channels; the
    /// control channel's few handshake bytes are not session traffic).
    pub client_traffic: TrafficSnapshot,
}

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// Handshake/stats decoding failure or server rejection.
    Proto(ProtoError),
    /// The server shed this session at admission (worker cap reached
    /// under a shedding policy) — retry later.
    Busy {
        /// Sessions the server was serving when it shed this one.
        active: u64,
        /// The server's concurrent-session cap.
        cap: u64,
    },
    /// The negotiated model cannot be instantiated or the queries do
    /// not fit it.
    Config(String),
    /// A mid-session flight was malformed (truncated or forged bytes) —
    /// the session failed partway through.
    Session(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::Busy { active, cap } => {
                write!(f, "server busy: {active}/{cap} sessions, try again later")
            }
            ClientError::Config(m) => write!(f, "config: {m}"),
            ClientError::Session(m) => write!(f, "session: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// Polls a running server's live `/stats` surface: connects, sends one
/// [`StatsRequest`] on the control channel and decodes the snapshot.
/// The poll is answered by the event loop itself — it never occupies a
/// session worker slot, so it works even while every worker is busy
/// (or every hello is being shed).
///
/// # Errors
///
/// [`ClientError`] on socket failures or a malformed/rejected reply.
pub fn poll_stats<A: ToSocketAddrs>(addr: A) -> Result<StatsSnapshot, ClientError> {
    let mut conn = TcpConnection::connect(addr)?;
    let control = maybe_shaped(conn.take_channel(CH_CONTROL), None);
    control.send(&StatsRequest.encode());
    Ok(StatsSnapshot::decode(&recv_handshake(&*control)?)?)
}
