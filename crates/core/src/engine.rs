//! I/O-agnostic session state machines, written once for every
//! execution mode.
//!
//! The request round has three parties — the SU sends its encrypted
//! request, the SDC blinds it and asks the STP for the sign test and
//! key conversion, the SDC releases the license — and around that round
//! sits the retry/replay bookkeeping that makes it survive a hostile
//! network. This module holds that bookkeeping in three plain structs —
//! [`SdcSessionEngine`], [`StpSessionEngine`] and [`SuSessionEngine`] —
//! that know nothing about threads, clocks or channels:
//!
//! * the service engines map one inbound frame to at most one outbound
//!   `(recipient, frame)` pair ([`SdcSessionEngine::handle`],
//!   [`StpSessionEngine::handle`]);
//! * the SU engine is driven by [`SuEvent`]s (a delivered frame or an
//!   expired deadline) and answers with a [`SuAction`]: either "send
//!   these frames and wake me after `deadline`" or a final
//!   [`SessionOutcome`].
//!
//! What a frame *carries* is left to a [`SessionCrypto`]
//! implementation: [`PaillierRsa`] runs the real Paillier/RSA parties,
//! and the simulator's plaintext model (`pisa_sim::model`) swaps in the
//! WATCH decision oracle and analytic wire sizes. Both run every arm
//! below — replay, stale reject, ε-preserving resend, fresh phase 1,
//! reply acceptance, SU retry and backoff — so the modeled fidelity
//! cannot drift from the real one.
//!
//! The socket services ([`SdcService`](crate::SdcService) and friends)
//! supply real time and TCP connections; the virtual-time
//! discrete-event simulator (`pisa-sim`) supplies virtual time and an
//! event heap. Both drive the *same* code with the same RNG streams, so
//! both reach the plaintext WATCH decisions — the chaos tests check
//! every session against them.

use crate::error::PisaError;
use crate::keys::SuId;
use crate::license::License;
use crate::messages::{PisaMessage, SdcResponseMsg, SdcToStpMsg, StpToSdcMsg, SuRequestMsg};
use crate::sdc::SdcServer;
use crate::session::{EngineConfig, SessionMsg, SessionOutcome};
use crate::stp::StpServer;
use crate::su::SuClient;
use crate::SystemConfig;
use pisa_crypto::paillier::PaillierPublicKey;
use pisa_crypto::rsa::RsaPublicKey;
use pisa_crypto::sha256::Sha256;
use pisa_net::{NetMetrics, Party};
use pisa_radio::tv::Channel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Duration;

/// The content half of the session protocol: every step of the request
/// round that depends on what the messages carry. The engines own the
/// rest — which attempt is current, what to replay, when to retry.
///
/// `Sdc`, `Stp` and `Su` are each party's keys and crypto state; the
/// steps are associated functions over them, so the engines dispatch
/// statically.
pub trait SessionCrypto {
    /// One session frame: header (session id, attempt) plus payload.
    type Msg;
    /// What a license binds a request to.
    type Digest: Copy + Eq;
    /// An SU request, as the SDC's phase 1 consumes it.
    type Request;
    /// A key-converted STP reply, as the SDC's phase 2 consumes it.
    type Reply;
    /// Phase-1 output the SDC keeps while the sign test is in flight and
    /// re-sends unchanged on a retry, so ε never changes.
    type Query;
    /// Phase-2 output the SDC keeps to replay idempotently.
    type Response;
    /// The SDC's keys and crypto state.
    type Sdc;
    /// The STP's keys and crypto state.
    type Stp;
    /// One SU's keys and its built request.
    type Su;

    /// The session id in a frame's header.
    fn session(msg: &Self::Msg) -> u64;

    /// Sorts a frame addressed to the SDC.
    fn sdc_frame(msg: Self::Msg) -> SdcFrame<Self>;

    /// SDC phase 1: blind the request for the sign test. `None` rejects
    /// the request.
    fn phase1(
        sdc: &mut Self::Sdc,
        su: SuId,
        digest: Self::Digest,
        request: Self::Request,
    ) -> Option<Self::Query>;

    /// SDC phase 2: unblind the STP's reply to `query` and release the
    /// license.
    ///
    /// # Errors
    ///
    /// A [`Phase2Error`] saying whether the session survives.
    fn phase2(
        sdc: &mut Self::Sdc,
        su: SuId,
        reply: Self::Reply,
        query: &Self::Query,
    ) -> Result<Self::Response, Phase2Error>;

    /// The SDC → STP frame carrying `query` for `su`'s `attempt`.
    fn query_frame(
        sdc: &Self::Sdc,
        su: SuId,
        attempt: u32,
        digest: Self::Digest,
        query: &Self::Query,
    ) -> Self::Msg;

    /// The SDC → SU frame carrying `response` for `su`'s `attempt`.
    fn response_frame(
        sdc: &Self::Sdc,
        su: SuId,
        attempt: u32,
        digest: Self::Digest,
        response: &Self::Response,
    ) -> Self::Msg;

    /// The STP's sign test and key conversion of one SDC frame: the
    /// reply frame, or `None` to reject it.
    fn key_convert(stp: &mut Self::Stp, msg: Self::Msg) -> Option<Self::Msg>;

    /// The SU a session belongs to.
    fn su_id(su: &Self::Su) -> SuId;

    /// The SU's request frame for `attempt`.
    fn request_frame(su: &Self::Su, attempt: u32) -> Self::Msg;

    /// Matches a frame against the SU's request and verifies it:
    /// `Some(verified)` for a response to this request, `None` for a
    /// foreign SU or digest, or an out-of-protocol message.
    fn verify_response(su: &Self::Su, msg: Self::Msg) -> Option<bool>;
}

/// A frame addressed to the SDC, sorted by [`SessionCrypto::sdc_frame`].
pub enum SdcFrame<C: SessionCrypto + ?Sized> {
    /// An SU request.
    Request {
        /// The requesting SU.
        su: SuId,
        /// The SU attempt in the header.
        attempt: u32,
        /// The request's content digest.
        digest: C::Digest,
        /// The request itself.
        request: C::Request,
    },
    /// An STP reply.
    Reply {
        /// The SU the reply belongs to.
        su: SuId,
        /// The SU attempt in the header.
        attempt: u32,
        /// The reply itself.
        reply: C::Reply,
    },
    /// Anything else: outside the SDC's part of the protocol.
    Other {
        /// The session id in the header.
        session: u64,
    },
}

/// Why [`SessionCrypto::phase2`] released nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase2Error {
    /// The reply is unusable (wrong shape, unknown SU): keep the phase-1
    /// state, so an SU retry re-drives the round.
    Rejected,
    /// The server's state no longer matches the engine's: drop the
    /// session, so the next retry re-runs phase 1.
    Desynchronized,
}

/// Where one session stands inside the SDC service engine — the
/// explicit per-session state machine of the protocol's server side.
enum SessionPhase<C: SessionCrypto> {
    /// Phase 1 ran (request blinded, ε retained); the query is in
    /// flight to the STP for the sign test. Stored so a retried or
    /// duplicated request re-sends the *same* blinding instead of
    /// desynchronizing ε.
    AwaitingStp {
        attempt: u32,
        digest: C::Digest,
        query: C::Query,
    },
    /// Phase 2 ran and the license was released; the response replays
    /// idempotently for retries of the same attempt.
    Completed {
        attempt: u32,
        digest: C::Digest,
        response: C::Response,
    },
}

/// The SDC side of the session protocol: phase-1 blinding, phase-2
/// license release, and the retry/replay bookkeeping between them.
///
/// One inbound frame maps to at most one outbound frame; malformed,
/// stale or duplicated traffic is rejected and counted, never panicked
/// on.
pub struct SdcSessionEngine<C: SessionCrypto = PaillierRsa> {
    sdc: C::Sdc,
    sessions: HashMap<SuId, SessionPhase<C>>,
    metrics: NetMetrics,
}

impl<C: SessionCrypto> SdcSessionEngine<C> {
    /// Wraps the SDC's crypto state with the session bookkeeping.
    pub fn from_party(sdc: C::Sdc, metrics: NetMetrics) -> Self {
        SdcSessionEngine {
            sdc,
            sessions: HashMap::new(),
            metrics,
        }
    }

    /// Processes one frame addressed to the SDC, returning the frame to
    /// send in response, if any.
    pub fn handle(&mut self, frame: C::Msg) -> Option<(Party, C::Msg)> {
        match C::sdc_frame(frame) {
            SdcFrame::Request {
                su,
                attempt,
                digest,
                request,
            } => self.on_request(su, attempt, digest, request),
            SdcFrame::Reply { su, attempt, reply } => self.on_reply(su, attempt, reply),
            // PU updates and reflected responses are outside this
            // engine's protocol: reject, never panic.
            SdcFrame::Other { session } => {
                self.metrics.record_session_reject(session);
                None
            }
        }
    }

    fn on_request(
        &mut self,
        su: SuId,
        attempt: u32,
        digest: C::Digest,
        request: C::Request,
    ) -> Option<(Party, C::Msg)> {
        let session = u64::from(su.0);
        match self.sessions.get_mut(&su) {
            // Idempotent replay for a retried request this engine
            // already answered.
            Some(SessionPhase::Completed {
                attempt: done,
                digest: d,
                response,
            }) if *d == digest && attempt == *done => {
                let frame = C::response_frame(&self.sdc, su, *done, digest, response);
                return Some((Party::Su(su.0), frame));
            }
            // A stale duplicate of a superseded attempt: the SU has
            // moved on, don't recompute.
            Some(SessionPhase::Completed {
                attempt: done,
                digest: d,
                ..
            }) if *d == digest && attempt < *done => {
                self.metrics.record_session_reject(session);
                return None;
            }
            // Retry or duplicate while the sign test is in flight: ε
            // must not change, so re-send the stored query under the
            // newest attempt instead of re-blinding.
            Some(SessionPhase::AwaitingStp {
                attempt: pending,
                digest: d,
                query,
            }) if *d == digest => {
                *pending = (*pending).max(attempt);
                let frame = C::query_frame(&self.sdc, su, *pending, digest, query);
                return Some((Party::Stp, frame));
            }
            // New request, a fresh attempt after a bad response, or a
            // corrupted digest: phase 1.
            _ => {}
        }
        let Some(query) = C::phase1(&mut self.sdc, su, digest, request) else {
            self.metrics.record_session_reject(session);
            return None;
        };
        let frame = C::query_frame(&self.sdc, su, attempt, digest, &query);
        self.sessions.insert(
            su,
            SessionPhase::AwaitingStp {
                attempt,
                digest,
                query,
            },
        );
        Some((Party::Stp, frame))
    }

    fn on_reply(&mut self, su: SuId, attempt: u32, reply: C::Reply) -> Option<(Party, C::Msg)> {
        let session = u64::from(su.0);
        let (digest, released) = match self.sessions.get(&su) {
            Some(SessionPhase::AwaitingStp {
                attempt: pending,
                digest,
                query,
            }) if *pending == attempt => (*digest, C::phase2(&mut self.sdc, su, reply, query)),
            // Stale attempt, duplicate of a consumed reply, or no
            // phase-1 state: reject.
            _ => {
                self.metrics.record_session_reject(session);
                return None;
            }
        };
        match released {
            Ok(response) => {
                let frame = C::response_frame(&self.sdc, su, attempt, digest, &response);
                self.sessions.insert(
                    su,
                    SessionPhase::Completed {
                        attempt,
                        digest,
                        response,
                    },
                );
                Some((Party::Su(su.0), frame))
            }
            // An SU retry will re-drive the round.
            Err(Phase2Error::Rejected) => {
                self.metrics.record_session_reject(session);
                None
            }
            // Drop the desynchronized view so the next retry re-runs
            // phase 1.
            Err(Phase2Error::Desynchronized) => {
                self.metrics.record_session_reject(session);
                self.sessions.remove(&su);
                None
            }
        }
    }
}

/// The STP side of the session protocol: the sign test and key
/// conversion of each blinded sign-test query. Under [`PaillierRsa`] a
/// query re-sent on an SU retry is converted once and its reply
/// replayed (see [`PaillierStp`]).
pub struct StpSessionEngine<C: SessionCrypto = PaillierRsa> {
    stp: C::Stp,
    metrics: NetMetrics,
}

impl<C: SessionCrypto> StpSessionEngine<C> {
    /// Wraps the STP's crypto state.
    pub fn from_party(stp: C::Stp, metrics: NetMetrics) -> Self {
        StpSessionEngine { stp, metrics }
    }

    /// Processes one frame addressed to the STP, returning the frame to
    /// send in response, if any.
    pub fn handle(&mut self, frame: C::Msg) -> Option<(Party, C::Msg)> {
        let session = C::session(&frame);
        let reply = C::key_convert(&mut self.stp, frame);
        if reply.is_none() {
            self.metrics.record_session_reject(session);
        }
        reply.map(|reply| (Party::Sdc, reply))
    }
}

/// What the SU state machine was just told: either a frame arrived on
/// its mailbox, or its current receive deadline expired.
#[derive(Debug)]
pub enum SuEvent<M = SessionMsg> {
    /// A frame was delivered to this SU.
    Frame(M),
    /// The deadline from the previous [`SuAction::Continue`] expired
    /// with nothing (acceptable) delivered.
    Timeout,
}

/// What the SU state machine wants next.
#[derive(Debug)]
pub enum SuAction<M = SessionMsg> {
    /// Send `sends` to the SDC, then wait: deliver the next frame as
    /// [`SuEvent::Frame`], or [`SuEvent::Timeout`] once `deadline`
    /// passes with none. Receiving a frame re-arms the *full* deadline.
    Continue {
        /// Frames to send to [`Party::Sdc`], in order (possibly none).
        sends: Vec<M>,
        /// How long to wait for the next frame.
        deadline: Duration,
    },
    /// The session reached a terminal state.
    Finish(SessionOutcome),
}

/// The SU side of one session: send the request, then retry it with
/// exponential backoff until a verifiable response, a definite denial,
/// or an exhausted budget.
pub struct SuSessionEngine<C: SessionCrypto = PaillierRsa> {
    su: C::Su,
    engine: EngineConfig,
    metrics: NetMetrics,
    attempt: u32,
    corrupt_possible: bool,
}

impl<C: SessionCrypto> SuSessionEngine<C> {
    /// Wraps an SU's crypto state (its request already built) with the
    /// retry policy. `corrupt_possible` says whether any link can
    /// corrupt payloads — it decides if an unverifiable response is a
    /// denial or possibly a flipped bit.
    pub fn from_party(
        su: C::Su,
        engine: &EngineConfig,
        corrupt_possible: bool,
        metrics: NetMetrics,
    ) -> Self {
        SuSessionEngine {
            su,
            engine: engine.clone(),
            metrics,
            attempt: 0,
            corrupt_possible,
        }
    }

    /// The SU this engine speaks for.
    pub fn su_id(&self) -> SuId {
        C::su_id(&self.su)
    }

    /// Kicks the session off: the attempt-0 request and its deadline.
    pub fn start(&self) -> SuAction<C::Msg> {
        self.wait(vec![C::request_frame(&self.su, self.attempt)])
    }

    /// Advances the state machine by one event.
    pub fn on_event(&mut self, event: SuEvent<C::Msg>) -> SuAction<C::Msg> {
        match event {
            SuEvent::Frame(frame) => match C::verify_response(&self.su, frame) {
                // A flipped bit cannot forge a valid RSA signature: a
                // verified grant is final.
                Some(true) => self.finish(Some(true)),
                // Links never mangle payloads, and the attempt tags rule
                // out ε mismatches, so an unverifiable signature IS the
                // deny.
                Some(false) if !self.corrupt_possible => self.finish(Some(false)),
                // Could be a denial or a flipped bit in G̃ —
                // indistinguishable by design, so spend a retry to find
                // out.
                Some(false) => {
                    self.metrics.record_session_reject(self.session());
                    if self.attempt >= self.engine.max_retries {
                        return self.finish(Some(false));
                    }
                    self.retry()
                }
                // Foreign digest, foreign SU, duplicate or
                // out-of-protocol message: reject and keep waiting out a
                // fresh full deadline.
                None => {
                    self.metrics.record_session_reject(self.session());
                    self.wait(Vec::new())
                }
            },
            SuEvent::Timeout => {
                self.metrics.record_session_timeout(self.session());
                if self.attempt >= self.engine.max_retries {
                    return self.finish(None);
                }
                self.retry()
            }
        }
    }

    fn session(&self) -> u64 {
        u64::from(self.su_id().0)
    }

    fn retry(&mut self) -> SuAction<C::Msg> {
        self.attempt += 1;
        self.metrics.record_session_retry(self.session());
        self.wait(vec![C::request_frame(&self.su, self.attempt)])
    }

    fn wait(&self, sends: Vec<C::Msg>) -> SuAction<C::Msg> {
        SuAction::Continue {
            sends,
            deadline: self.engine.deadline(self.attempt),
        }
    }

    fn finish(&self, granted: Option<bool>) -> SuAction<C::Msg> {
        SuAction::Finish(SessionOutcome {
            su_id: self.su_id(),
            granted,
            attempts: self.attempt + 1,
        })
    }
}

// ---------------------------------------------------------------------
// The real parties: Paillier ciphertexts and RSA licenses
// ---------------------------------------------------------------------

/// The real protocol: Paillier-encrypted matrices, blinded sign tests,
/// RSA-signed licenses.
pub enum PaillierRsa {}

/// The SDC's keys and crypto state under [`PaillierRsa`].
pub struct PaillierSdc {
    server: SdcServer,
    su_keys: HashMap<SuId, PaillierPublicKey>,
    workers: usize,
    rng: StdRng,
}

/// The STP's keys and crypto state under [`PaillierRsa`].
///
/// It also memoizes its last reply per SU, keyed by a SHA-256 digest of
/// the query it answers. The SDC re-sends a stored query unchanged on every SU retry, so a
/// byte-identical query is answered from the memo, re-tagged with the
/// incoming attempt, instead of costing another key conversion. An
/// entry is written only after a successful conversion, so the memo
/// never outgrows the SU key directory, and it is not checkpointed: a
/// restarted STP converts again.
pub struct PaillierStp {
    server: StpServer,
    workers: usize,
    rng: StdRng,
    replies: HashMap<SuId, ([u8; 32], StpToSdcMsg)>,
}

/// The STP memo key of a sign-test query: SHA-256 over everything its
/// reply depends on besides `pk_j` — the matrix shape, the region and
/// every blinded ciphertext.
fn query_digest(query: &SdcToStpMsg) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(&(query.v_matrix.channels() as u64).to_be_bytes());
    h.update(&(query.region_blocks as u64).to_be_bytes());
    for ct in query.v_matrix.ciphertexts() {
        let bytes = ct.as_raw().to_be_bytes();
        h.update(&(bytes.len() as u64).to_be_bytes());
        h.update(&bytes);
    }
    h.finalize()
}

/// One SU's keys and encrypted request under [`PaillierRsa`].
pub struct PaillierSu {
    client: SuClient,
    signing: RsaPublicKey,
    digest: [u8; 32],
    request: SuRequestMsg,
}

impl SessionCrypto for PaillierRsa {
    type Msg = SessionMsg;
    type Digest = [u8; 32];
    type Request = SuRequestMsg;
    type Reply = StpToSdcMsg;
    type Query = SdcToStpMsg;
    type Response = SdcResponseMsg;
    type Sdc = PaillierSdc;
    type Stp = PaillierStp;
    type Su = PaillierSu;

    fn session(msg: &SessionMsg) -> u64 {
        msg.session
    }

    fn sdc_frame(msg: SessionMsg) -> SdcFrame<Self> {
        match msg.msg {
            PisaMessage::SuRequest(request) => SdcFrame::Request {
                su: request.su_id,
                attempt: msg.attempt,
                digest: License::digest_request(request.f_matrix.ciphertexts()),
                request,
            },
            PisaMessage::StpToSdc(reply) => SdcFrame::Reply {
                su: reply.su_id,
                attempt: msg.attempt,
                reply,
            },
            _ => SdcFrame::Other {
                session: msg.session,
            },
        }
    }

    fn phase1(
        sdc: &mut PaillierSdc,
        _su: SuId,
        _digest: [u8; 32],
        request: SuRequestMsg,
    ) -> Option<SdcToStpMsg> {
        sdc.server
            .process_request_phase1_parallel(&request, sdc.workers, &mut sdc.rng)
            .ok()
    }

    fn phase2(
        sdc: &mut PaillierSdc,
        su: SuId,
        reply: StpToSdcMsg,
        _query: &SdcToStpMsg,
    ) -> Result<SdcResponseMsg, Phase2Error> {
        let su_pk = sdc.su_keys.get(&su).ok_or(Phase2Error::Rejected)?;
        sdc.server
            .process_request_phase2(&reply, su_pk, &mut sdc.rng)
            .map_err(|e| match e {
                // Shape mismatch keeps the server-side ε state.
                PisaError::DimensionMismatch { .. } => Phase2Error::Rejected,
                _ => Phase2Error::Desynchronized,
            })
    }

    fn query_frame(
        _sdc: &PaillierSdc,
        su: SuId,
        attempt: u32,
        _digest: [u8; 32],
        query: &SdcToStpMsg,
    ) -> SessionMsg {
        SessionMsg {
            session: u64::from(su.0),
            attempt,
            msg: PisaMessage::SdcToStp(query.clone()),
        }
    }

    fn response_frame(
        _sdc: &PaillierSdc,
        su: SuId,
        attempt: u32,
        _digest: [u8; 32],
        response: &SdcResponseMsg,
    ) -> SessionMsg {
        SessionMsg {
            session: u64::from(su.0),
            attempt,
            msg: PisaMessage::SdcResponse(response.clone()),
        }
    }

    fn key_convert(stp: &mut PaillierStp, msg: SessionMsg) -> Option<SessionMsg> {
        let PisaMessage::SdcToStp(query) = msg.msg else {
            return None;
        };
        let key = query_digest(&query);
        let reply = match stp.replies.get(&query.su_id) {
            Some((memo_key, reply)) if *memo_key == key => {
                let _span = pisa_obs::span("key_conversion.replay");
                reply.clone()
            }
            _ => {
                let (reply, _obs) = stp
                    .server
                    .key_convert_parallel(&query, stp.workers, &mut stp.rng)
                    .ok()?;
                stp.replies.insert(query.su_id, (key, reply.clone()));
                reply
            }
        };
        Some(SessionMsg {
            session: msg.session,
            attempt: msg.attempt,
            msg: PisaMessage::StpToSdc(reply),
        })
    }

    fn su_id(su: &PaillierSu) -> SuId {
        su.client.id()
    }

    fn request_frame(su: &PaillierSu, attempt: u32) -> SessionMsg {
        SessionMsg {
            session: u64::from(su.client.id().0),
            attempt,
            msg: PisaMessage::SuRequest(su.request.clone()),
        }
    }

    fn verify_response(su: &PaillierSu, msg: SessionMsg) -> Option<bool> {
        match msg.msg {
            PisaMessage::SdcResponse(resp)
                if resp.license.su_id == su.client.id()
                    && resp.license.request_digest == su.digest =>
            {
                Some(su.client.handle_response(&resp, &su.signing))
            }
            _ => None,
        }
    }
}

impl SdcSessionEngine<PaillierRsa> {
    /// Wraps `sdc` with the session bookkeeping. `su_keys` maps each
    /// participating SU to its Paillier key (needed for phase 2);
    /// `workers` sizes the per-entry crypto fan-out (byte-identical for any
    /// worker count, so purely a throughput knob); `seed` starts the
    /// engine's private RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(
        sdc: SdcServer,
        su_keys: HashMap<SuId, PaillierPublicKey>,
        workers: usize,
        metrics: NetMetrics,
        seed: u64,
    ) -> Self {
        assert!(workers > 0, "need at least one crypto worker");
        let party = PaillierSdc {
            server: sdc,
            su_keys,
            workers,
            rng: StdRng::seed_from_u64(seed),
        };
        Self::from_party(party, metrics)
    }

    /// Unwraps the server once the storm is over.
    pub fn into_server(self) -> SdcServer {
        self.sdc.server
    }

    /// The wrapped server (read-only; checkpointing reads its snapshot
    /// through this without tearing the engine down).
    pub fn server(&self) -> &SdcServer {
        &self.sdc.server
    }

    /// Serializes the per-session protocol table — which attempt each
    /// SU is on, the request digest, and the in-flight STP query or the
    /// released response — so a restarted engine resumes mid-protocol
    /// instead of re-running phase 1 with fresh ε (which would
    /// desynchronize from any STP reply already in flight).
    ///
    /// # Errors
    ///
    /// Any [`pisa_net::codec::CodecError`] if a field cannot fit its
    /// wire width; in-range state never fails.
    pub fn snapshot_sessions(&self) -> Result<bytes::Bytes, pisa_net::codec::CodecError> {
        use pisa_net::codec::Writer;
        let mut ids: Vec<SuId> = self.sessions.keys().copied().collect();
        ids.sort_unstable();
        let mut w = Writer::new();
        w.put_u8(SESSIONS_VERSION);
        w.put_u32(crate::wire::wire_u32(ids.len())?);
        for id in ids {
            // The id came from the map's own key set one statement ago.
            let Some(phase) = self.sessions.get(&id) else {
                continue;
            };
            w.put_u32(id.0);
            match phase {
                SessionPhase::AwaitingStp {
                    attempt,
                    digest,
                    query,
                } => {
                    w.put_u8(PHASE_AWAITING_STP);
                    w.put_u32(*attempt);
                    w.put_raw(digest);
                    w.put_bytes(&PisaMessage::SdcToStp(query.clone()).encode()?)?;
                }
                SessionPhase::Completed {
                    attempt,
                    digest,
                    response,
                } => {
                    w.put_u8(PHASE_COMPLETED);
                    w.put_u32(*attempt);
                    w.put_raw(digest);
                    w.put_bytes(&PisaMessage::SdcResponse(response.clone()).encode()?)?;
                }
            }
        }
        Ok(w.finish())
    }

    /// Replaces the per-session table from a
    /// [`snapshot_sessions`](Self::snapshot_sessions) frame. The frame
    /// is treated as adversarial: counts are bounded by the remaining
    /// bytes before allocation, SU ids must be strictly increasing, and
    /// each entry's payload must decode to the message kind its phase
    /// tag claims.
    ///
    /// # Errors
    ///
    /// Any [`pisa_net::codec::CodecError`] on a malformed frame; the
    /// existing table is left untouched on error.
    pub fn restore_sessions(&mut self, frame: &[u8]) -> Result<(), pisa_net::codec::CodecError> {
        use pisa_net::codec::{CodecError, Reader};
        let mut r = Reader::new(frame);
        let version = r.get_u8()?;
        if version != SESSIONS_VERSION {
            return Err(CodecError::Invalid(format!(
                "unknown session-table version {version}"
            )));
        }
        let count = crate::wire::widen(r.get_u32()?);
        // id + tag + attempt + digest + payload length prefix.
        let min_entry = 4 + 1 + 4 + 32 + 4;
        let most = r.remaining() / min_entry;
        if count > most {
            return Err(CodecError::Oversized(count as u64, most as u64));
        }
        let mut sessions = HashMap::with_capacity(count);
        let mut last: Option<u32> = None;
        for _ in 0..count {
            let raw_id = r.get_u32()?;
            if let Some(prev) = last {
                if raw_id <= prev {
                    return Err(CodecError::Invalid(format!(
                        "session SU ids must be strictly increasing (saw {raw_id} after {prev})"
                    )));
                }
            }
            last = Some(raw_id);
            let tag = r.get_u8()?;
            let attempt = r.get_u32()?;
            let digest: [u8; 32] = r
                .get_raw(32)?
                .try_into()
                .map_err(|_| CodecError::UnexpectedEof)?;
            let inner = PisaMessage::decode(r.get_bytes()?)?;
            let phase = match (tag, inner) {
                (PHASE_AWAITING_STP, PisaMessage::SdcToStp(query)) => SessionPhase::AwaitingStp {
                    attempt,
                    digest,
                    query,
                },
                (PHASE_COMPLETED, PisaMessage::SdcResponse(response)) => SessionPhase::Completed {
                    attempt,
                    digest,
                    response,
                },
                (tag, _) => {
                    return Err(CodecError::Invalid(format!(
                        "session entry for SU {raw_id}: payload does not match phase tag {tag}"
                    )))
                }
            };
            sessions.insert(SuId(raw_id), phase);
        }
        r.finish()?;
        self.sessions = sessions;
        Ok(())
    }
}

/// Session-table serialization format version.
const SESSIONS_VERSION: u8 = 1;
/// Phase tag: sign test in flight to the STP.
const PHASE_AWAITING_STP: u8 = 1;
/// Phase tag: response released, replayable.
const PHASE_COMPLETED: u8 = 2;

impl StpSessionEngine<PaillierRsa> {
    /// Wraps `stp`; parameters as for [`SdcSessionEngine::new`].
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(stp: StpServer, workers: usize, metrics: NetMetrics, seed: u64) -> Self {
        assert!(workers > 0, "need at least one crypto worker");
        let party = PaillierStp {
            server: stp,
            workers,
            rng: StdRng::seed_from_u64(seed),
            replies: HashMap::new(),
        };
        Self::from_party(party, metrics)
    }

    /// Unwraps the server once the storm is over.
    pub fn into_server(self) -> StpServer {
        self.stp.server
    }

    /// The wrapped server (read-only; checkpointing reads its directory
    /// snapshot through this without tearing the engine down).
    pub fn server(&self) -> &StpServer {
        &self.stp.server
    }

    /// Mutable access to the wrapped server, for restoring its SU key
    /// directory from a checkpoint before serving. Drops the reply
    /// memo, whose replies were encrypted under the old directory.
    pub fn server_mut(&mut self) -> &mut StpServer {
        self.stp.replies.clear();
        &mut self.stp.server
    }
}

/// Construction parameters shared by every SU engine of one storm.
pub struct SuSessionParams<'a> {
    /// System configuration (shapes the request).
    pub cfg: &'a SystemConfig,
    /// The global Paillier key the request is encrypted under.
    pub pk_g: &'a PaillierPublicKey,
    /// The SDC's license-signing key.
    pub signing: &'a RsaPublicKey,
    /// Whether any link can corrupt payloads — decides if an
    /// unverifiable response is a denial or possibly a flipped bit.
    pub corrupt_possible: bool,
    /// Timeout / retry policy.
    pub engine: &'a EngineConfig,
    /// Shared resilience counters.
    pub metrics: &'a NetMetrics,
}

impl SuSessionEngine<PaillierRsa> {
    /// Builds the SU's encrypted request (the expensive part) and the
    /// session state machine around it. `rng` drives the request's
    /// encryption randomness and must be this SU's dedicated stream.
    pub fn new(
        mut su: SuClient,
        channels: &[Channel],
        params: &SuSessionParams<'_>,
        rng: &mut StdRng,
    ) -> Self {
        let request = su.build_request(params.cfg, params.pk_g, channels, rng);
        let party = PaillierSu {
            digest: License::digest_request(request.f_matrix.ciphertexts()),
            client: su,
            signing: params.signing.clone(),
            request,
        };
        Self::from_party(
            party,
            params.engine,
            params.corrupt_possible,
            params.metrics.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{storm_fixture, StormFixture};
    use pisa_crypto::paillier::Ciphertext;

    /// The one-SU storm fixture's STP, and two blinded queries of that
    /// SU's request (the same request under two fresh ε).
    fn stp_and_queries() -> (StpServer, SdcToStpMsg, SdcToStpMsg) {
        let StormFixture {
            mut sus,
            mut sdc,
            stp,
        } = storm_fixture(1, 0x3e30).expect("fixture");
        let (mut su, channels) = sus.pop().expect("one SU");
        let mut rng = StdRng::seed_from_u64(0x3e31);
        let cfg = sdc.config().clone();
        let request = su.build_request(&cfg, stp.public_key(), &channels, &mut rng);
        let first = sdc
            .process_request_phase1_parallel(&request, 1, &mut rng)
            .expect("phase 1");
        let second = sdc
            .process_request_phase1_parallel(&request, 1, &mut rng)
            .expect("phase 1");
        (stp, first, second)
    }

    fn engine(stp: StpServer) -> StpSessionEngine {
        StpSessionEngine::new(stp, 2, NetMetrics::new(), 0x517)
    }

    /// Feeds `query` under `attempt`; returns the reply's attempt tag
    /// and `X̃` ciphertexts.
    fn convert(
        engine: &mut StpSessionEngine,
        query: &SdcToStpMsg,
        attempt: u32,
    ) -> Option<(u32, Vec<Ciphertext>)> {
        let frame = SessionMsg {
            session: u64::from(query.su_id.0),
            attempt,
            msg: PisaMessage::SdcToStp(query.clone()),
        };
        match engine.handle(frame)? {
            (
                Party::Sdc,
                SessionMsg {
                    attempt,
                    msg: PisaMessage::StpToSdc(reply),
                    ..
                },
            ) => Some((attempt, reply.x_matrix.ciphertexts().to_vec())),
            other => panic!("unexpected STP output {other:?}"),
        }
    }

    /// How many spans named `name` closed on the thread that closed
    /// `marker`.
    fn spans_on_thread_of(marker: &str, name: &str) -> usize {
        let spans = pisa_obs::report().spans;
        let tid = spans
            .iter()
            .rev()
            .find(|s| s.name == marker)
            .expect("marker span recorded")
            .tid;
        spans
            .iter()
            .filter(|s| s.tid == tid && s.name == name)
            .count()
    }

    /// The one test in this crate that switches obs on, so no other test
    /// toggles it underneath; spans are counted on this thread only.
    #[test]
    fn re_sent_query_is_converted_once_and_replayed_per_attempt() {
        let (stp, query, _) = stp_and_queries();
        let mut stp = engine(stp);
        pisa_obs::set_enabled(true);
        let marker = pisa_obs::span("engine_test.memo");
        let replies: Vec<_> = (0..3)
            .map(|attempt| convert(&mut stp, &query, attempt).expect("converted"))
            .collect();
        // A restarted STP keeps its key directory but not the memo.
        let mut restarted = engine(stp.into_server());
        let after_restart = convert(&mut restarted, &query, 3).expect("converted");
        drop(marker);
        let conversions = spans_on_thread_of("engine_test.memo", "key_conversion");
        let replays = spans_on_thread_of("engine_test.memo", "key_conversion.replay");
        pisa_obs::set_enabled(false);

        for (attempt, (tag, x)) in (0..).zip(&replies) {
            assert_eq!(*tag, attempt, "reply not re-tagged with its attempt");
            assert_eq!(x.len(), query.v_matrix.len());
            assert!(x == &replies[0].1, "attempt {attempt}: X̃ differs");
        }
        assert_eq!(after_restart.0, 3);
        assert_eq!(conversions, 2, "one conversion, then one after restart");
        assert_eq!(replays, 2, "attempts 1 and 2 replay the memo");
    }

    #[test]
    fn new_query_for_the_same_su_converts_afresh_and_replaces_the_entry() {
        let (stp, first, second) = stp_and_queries();
        let mut stp = engine(stp);
        let (_, x_first) = convert(&mut stp, &first, 0).expect("converted");
        let (_, x_second) = convert(&mut stp, &second, 1).expect("converted");
        assert!(x_second != x_first, "a new ε must be converted afresh");
        assert_eq!(stp.stp.replies.len(), 1, "one entry per SU");
        assert_eq!(
            stp.stp.replies.get(&second.su_id).map(|(key, _)| *key),
            Some(query_digest(&second))
        );
        // The newest query replays; the replaced one converts again.
        let (_, replayed) = convert(&mut stp, &second, 2).expect("converted");
        assert!(replayed == x_second);
        let (_, reconverted) = convert(&mut stp, &first, 3).expect("converted");
        assert!(reconverted != x_first, "the replaced entry was replayed");
    }

    #[test]
    fn unknown_su_query_is_rejected_and_not_memoized() {
        let (stp, mut query, _) = stp_and_queries();
        let mut stp = engine(stp);
        query.su_id = SuId(99);
        assert!(convert(&mut stp, &query, 0).is_none());
        assert!(convert(&mut stp, &query, 1).is_none());
        assert!(stp.stp.replies.is_empty());
        assert_eq!(stp.metrics.session(99).map(|s| s.rejected), Some(2));
    }

    #[test]
    fn server_mut_drops_the_memo() {
        let (stp, query, _) = stp_and_queries();
        let mut stp = engine(stp);
        let (_, x) = convert(&mut stp, &query, 0).expect("converted");
        stp.server_mut();
        let (_, again) = convert(&mut stp, &query, 1).expect("converted");
        assert!(again != x, "a directory change must not replay old replies");
    }
}
