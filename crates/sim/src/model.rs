//! Modeled-fidelity protocol: the session engines without the
//! cryptography.
//!
//! A 10⁵-session storm cannot run real Paillier in CI, but almost none
//! of the *resilience* behaviour depends on the ciphertexts: grant/deny
//! decisions are a pure function of the plaintext WATCH matrices, and
//! the retry/replay/reject logic keys on session ids, attempt counters
//! and request digests. This module therefore implements only the
//! content half of the protocol — [`Plaintext`], a
//! [`SessionCrypto`] — over a lightweight `Copy` [`ModelMsg`] whose
//! wire size is computed analytically (exactly how the real messages
//! size themselves) and whose decisions come from the plaintext
//! [`WatchSdc`] oracle, the same oracle the watch-equivalence tests pin
//! the encrypted pipeline against.
//!
//! The session state machines themselves — replay, stale reject,
//! ε-preserving resend, reply acceptance, SU retry and backoff — are
//! the `pisa-core` engines, instantiated as
//! `SdcSessionEngine<Plaintext>` and friends; nothing here duplicates
//! them.

use pisa::{Phase2Error, SdcFrame, SessionCrypto, SuId};
use pisa_net::WireSize;
use pisa_radio::tv::Channel;
use pisa_radio::BlockId;
use pisa_watch::{PuInput, SuRequest, WatchConfig, WatchSdc};
use std::collections::HashMap;

/// Bytes of the session header (id + attempt), as in the real codec.
const SESSION_HEADER_BYTES: usize = 12;
/// Bytes of the inner message header, as in the real codec.
const HEADER_BYTES: usize = 64;
/// Modeled size of a serialized license (id, serial, digest, padding).
const MODEL_LICENSE_BYTES: usize = 96;

/// The protocol step a [`ModelMsg`] carries, mirroring the four
/// in-session `PisaMessage` variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelPayload {
    /// SU → SDC encrypted request (`F̃`).
    Request {
        /// The requesting SU (mirrors `SuRequestMsg::su_id`).
        su: u32,
        /// Digest of the request content (mirrors the license digest
        /// over the `F̃` ciphertexts; corruption perturbs it).
        digest: u64,
    },
    /// SDC → STP blinded sign-test query (`Ṽ`).
    Query {
        /// Session owner.
        su: u32,
        /// Content digest carried through the round.
        digest: u64,
    },
    /// STP → SDC key-converted reply (`X̃`).
    Reply {
        /// Session owner.
        su: u32,
        /// Content digest carried through the round.
        digest: u64,
    },
    /// SDC → SU license release (`G̃`).
    Response {
        /// The SU named in the license.
        su: u32,
        /// Digest the license binds to (the SU rejects mismatches).
        digest: u64,
        /// Whether the plaintext decision granted the request.
        granted: bool,
        /// Whether the signature ciphertext was mangled in transit: a
        /// garbled response never verifies, like a flipped bit in
        /// `G̃` — and, like the real RSA signature, corruption can
        /// garble a grant but never forge one.
        garbled: bool,
    },
}

/// A modeled session frame: header fields plus payload, sized
/// analytically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelMsg {
    /// Session identifier (the engines use the SU id).
    pub session: u64,
    /// Originating SU attempt, as in `SessionMsg`.
    pub attempt: u32,
    /// The protocol step.
    pub payload: ModelPayload,
    /// Analytic wire size in bytes.
    pub bytes: usize,
}

impl WireSize for ModelMsg {
    fn wire_bytes(&self) -> usize {
        self.bytes
    }
}

/// Analytic wire sizes for one storm configuration, mirroring the
/// formulas in `pisa-core`'s message types: matrix-bearing messages
/// cost `channels × blocks` ciphertexts, the response one ciphertext
/// plus a license.
#[derive(Debug, Clone, Copy)]
pub struct ModelWire {
    request: usize,
    query: usize,
    reply: usize,
    response: usize,
}

impl ModelWire {
    /// Sizes for a `channels × blocks` system with `ct_bytes`-byte
    /// ciphertexts.
    pub fn new(channels: usize, blocks: usize, ct_bytes: usize) -> Self {
        let matrix = channels * blocks * ct_bytes;
        ModelWire {
            request: SESSION_HEADER_BYTES + HEADER_BYTES + matrix,
            query: SESSION_HEADER_BYTES + HEADER_BYTES + matrix,
            reply: SESSION_HEADER_BYTES + HEADER_BYTES + matrix,
            response: SESSION_HEADER_BYTES + HEADER_BYTES + MODEL_LICENSE_BYTES + ct_bytes,
        }
    }

    fn sized(&self, session: u64, attempt: u32, payload: ModelPayload) -> ModelMsg {
        let bytes = match payload {
            ModelPayload::Request { .. } => self.request,
            ModelPayload::Query { .. } => self.query,
            ModelPayload::Reply { .. } => self.reply,
            ModelPayload::Response { .. } => self.response,
        };
        ModelMsg {
            session,
            attempt,
            payload,
            bytes,
        }
    }
}

/// The canonical request digest of one SU's (only) request — the model
/// analog of `License::digest_request` over its ciphertexts.
pub fn model_digest(su: u32) -> u64 {
    let mut z = 0x00d1_6e57_u64 ^ (u64::from(su) << 1);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

/// The corruption oracle for modeled frames: a deterministic stand-in
/// for "flip one bit of the encoded frame and re-parse". Depending on
/// the tweak the flip lands in dead padding (absorbed), a header field
/// (attempt / session), the content (digest), or — for responses — the
/// signature ciphertext (garbled). Like the real oracle it never turns
/// a denial into a verifiable grant.
pub fn corrupt_model_frame(msg: &ModelMsg, tweak: u64) -> Option<ModelMsg> {
    let mut m = *msg;
    match tweak % 6 {
        // The flip lands somewhere the decoder chokes on: absorbed.
        0 => None,
        // Header attempt counter.
        1 => {
            m.attempt ^= 1 << (tweak >> 3 & 0x7);
            Some(m)
        }
        // Header session id.
        2 => {
            m.session ^= 1 << (tweak >> 3 & 0x3f);
            Some(m)
        }
        // Payload identity: the embedded SU id.
        3 => {
            let flip = 1u32 << (tweak >> 3 & 0x7);
            match &mut m.payload {
                ModelPayload::Request { su, .. }
                | ModelPayload::Query { su, .. }
                | ModelPayload::Reply { su, .. }
                | ModelPayload::Response { su, .. } => *su ^= flip,
            }
            Some(m)
        }
        // Payload content: the digest.
        4 => {
            let flip = (tweak >> 3) | 1;
            match &mut m.payload {
                ModelPayload::Request { digest, .. }
                | ModelPayload::Query { digest, .. }
                | ModelPayload::Reply { digest, .. }
                | ModelPayload::Response { digest, .. } => *digest ^= flip,
            }
            Some(m)
        }
        // The ciphertext: responses garble (unverifiable, never
        // forged), matrix messages take a content flip instead.
        _ => {
            match &mut m.payload {
                ModelPayload::Response { garbled, .. } => *garbled = true,
                ModelPayload::Request { digest, .. }
                | ModelPayload::Query { digest, .. }
                | ModelPayload::Reply { digest, .. } => *digest ^= 0x8000_0000_0000_0001,
            }
            Some(m)
        }
    }
}

/// The plaintext decision oracle: one [`WatchSdc`] with the storm's PU
/// population applied, memoized per `(block, channel)` — 10⁵ SUs share
/// at most `blocks × channels` distinct decisions.
pub struct ModelOracle {
    watch: WatchSdc,
    cfg: WatchConfig,
    channels: usize,
    blocks: usize,
    cache: HashMap<(usize, usize), bool>,
}

impl ModelOracle {
    /// Builds the oracle for the canonical storm population of
    /// [`pisa::storm_fixture`]: one PU at block 0 tuned to channel 0,
    /// SU `i` at block `i % blocks` requesting channel `i % channels`.
    pub fn new(cfg: &WatchConfig) -> Self {
        let mut watch = WatchSdc::new(cfg.clone());
        watch.pu_update(0, PuInput::tuned(cfg, BlockId(0), Channel(0)));
        ModelOracle {
            watch,
            cfg: cfg.clone(),
            channels: cfg.channels(),
            blocks: cfg.blocks(),
            cache: HashMap::new(),
        }
    }

    /// Whether a full-power request at `block` for `channel` is
    /// granted.
    pub fn decision(&mut self, block: usize, channel: usize) -> bool {
        let block = block % self.blocks;
        let channel = channel % self.channels;
        if let Some(&cached) = self.cache.get(&(block, channel)) {
            return cached;
        }
        let req = SuRequest::full_power(&self.cfg, BlockId(block), &[Channel(channel)]);
        let granted = self.watch.process_request(&req).is_granted();
        self.cache.insert((block, channel), granted);
        granted
    }

    /// The decision for storm SU `i` under the canonical placement.
    pub fn su_decision(&mut self, su: u32) -> bool {
        let su = su as usize; // pisa-lint: allow(panic-freedom): u32 → usize never truncates
        self.decision(su % self.blocks, su % self.channels)
    }
}

/// The plaintext protocol: decisions from the [`ModelOracle`], wire
/// sizes from [`ModelWire`], and the corruption semantics of
/// [`corrupt_model_frame`] standing in for the ciphertexts. The session
/// engines of `pisa-core` run over it unchanged.
pub enum Plaintext {}

/// The modeled SDC: the decision oracle, and how many SUs its key
/// directory holds.
pub struct PlaintextSdc {
    sus: u32,
    oracle: ModelOracle,
    wire: ModelWire,
}

impl PlaintextSdc {
    /// An SDC serving SUs `0..sus`.
    pub fn new(sus: u32, oracle: ModelOracle, wire: ModelWire) -> Self {
        PlaintextSdc { sus, oracle, wire }
    }
}

/// The modeled STP: converts queries for SUs `0..sus`, whose keys it
/// holds.
pub struct PlaintextStp {
    sus: u32,
    wire: ModelWire,
}

impl PlaintextStp {
    /// An STP holding the keys of SUs `0..sus`.
    pub fn new(sus: u32, wire: ModelWire) -> Self {
        PlaintextStp { sus, wire }
    }
}

/// One modeled SU and its (only) request.
pub struct PlaintextSu {
    su: u32,
    digest: u64,
    bytes: usize,
}

impl PlaintextSu {
    /// SU `su`, requesting with its canonical digest.
    pub fn new(su: u32, wire: ModelWire) -> Self {
        PlaintextSu {
            su,
            digest: model_digest(su),
            bytes: wire.request,
        }
    }
}

impl SessionCrypto for Plaintext {
    type Msg = ModelMsg;
    type Digest = u64;
    type Request = ();
    type Reply = ();
    /// The plaintext decision phase 1 reached — the model's ε.
    type Query = bool;
    /// The released decision.
    type Response = bool;
    type Sdc = PlaintextSdc;
    type Stp = PlaintextStp;
    type Su = PlaintextSu;

    fn session(msg: &ModelMsg) -> u64 {
        msg.session
    }

    fn sdc_frame(msg: ModelMsg) -> SdcFrame<Self> {
        match msg.payload {
            ModelPayload::Request { su, digest } => SdcFrame::Request {
                su: SuId(su),
                attempt: msg.attempt,
                digest,
                request: (),
            },
            ModelPayload::Reply { su, .. } => SdcFrame::Reply {
                su: SuId(su),
                attempt: msg.attempt,
                reply: (),
            },
            _ => SdcFrame::Other {
                session: msg.session,
            },
        }
    }

    fn phase1(sdc: &mut PlaintextSdc, su: SuId, digest: u64, _request: ()) -> Option<bool> {
        // A digest that is not the SU's canonical one is a corrupted
        // request: garbage plaintexts can never satisfy every budget, so
        // it resolves to a denial — exactly like the encrypted path.
        Some(digest == model_digest(su.0) && sdc.oracle.su_decision(su.0))
    }

    fn phase2(
        sdc: &mut PlaintextSdc,
        su: SuId,
        _reply: (),
        granted: &bool,
    ) -> Result<bool, Phase2Error> {
        // An unknown SU has no key directory entry.
        if su.0 >= sdc.sus {
            return Err(Phase2Error::Rejected);
        }
        Ok(*granted)
    }

    fn query_frame(sdc: &PlaintextSdc, su: SuId, attempt: u32, digest: u64, _: &bool) -> ModelMsg {
        sdc.wire.sized(
            u64::from(su.0),
            attempt,
            ModelPayload::Query { su: su.0, digest },
        )
    }

    fn response_frame(
        sdc: &PlaintextSdc,
        su: SuId,
        attempt: u32,
        digest: u64,
        granted: &bool,
    ) -> ModelMsg {
        sdc.wire.sized(
            u64::from(su.0),
            attempt,
            ModelPayload::Response {
                su: su.0,
                digest,
                granted: *granted,
                garbled: false,
            },
        )
    }

    fn key_convert(stp: &mut PlaintextStp, msg: ModelMsg) -> Option<ModelMsg> {
        match msg.payload {
            ModelPayload::Query { su, digest } if su < stp.sus => Some(stp.wire.sized(
                msg.session,
                msg.attempt,
                ModelPayload::Reply { su, digest },
            )),
            _ => None,
        }
    }

    fn su_id(su: &PlaintextSu) -> SuId {
        SuId(su.su)
    }

    fn request_frame(su: &PlaintextSu, attempt: u32) -> ModelMsg {
        ModelMsg {
            session: u64::from(su.su),
            attempt,
            payload: ModelPayload::Request {
                su: su.su,
                digest: su.digest,
            },
            bytes: su.bytes,
        }
    }

    fn verify_response(su: &PlaintextSu, msg: ModelMsg) -> Option<bool> {
        match msg.payload {
            // Corruption can garble a grant, never forge one.
            ModelPayload::Response {
                su: to,
                digest,
                granted,
                garbled,
            } if to == su.su && digest == su.digest => Some(granted && !garbled),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pisa::{
        EngineConfig, SdcSessionEngine, StpSessionEngine, SuAction, SuEvent, SuSessionEngine,
    };
    use pisa_net::{NetMetrics, Party};

    fn wire() -> ModelWire {
        ModelWire::new(4, 25, 96)
    }

    #[test]
    fn wire_sizes_mirror_real_formulas() {
        let w = wire();
        // 12 (session header) + 64 (message header) + 4·25·96.
        assert_eq!(w.request, 12 + 64 + 9600);
        assert_eq!(w.response, 12 + 64 + 96 + 96);
        let msg = w.sized(0, 0, ModelPayload::Request { su: 0, digest: 1 });
        assert_eq!(msg.wire_bytes(), w.request);
    }

    #[test]
    fn corruption_is_deterministic_and_never_forges_a_grant() {
        let w = wire();
        let denied = w.sized(
            3,
            1,
            ModelPayload::Response {
                su: 3,
                digest: model_digest(3),
                granted: false,
                garbled: false,
            },
        );
        for tweak in 0..4096u64 {
            let a = corrupt_model_frame(&denied, tweak);
            let b = corrupt_model_frame(&denied, tweak);
            assert_eq!(a, b, "oracle must be deterministic");
            if let Some(m) = a {
                assert_ne!(m, denied, "a corrupted frame must differ");
                if let ModelPayload::Response {
                    su,
                    digest,
                    granted,
                    garbled,
                } = m.payload
                {
                    let verifiable = granted
                        && !garbled
                        && su == 3
                        && digest == model_digest(3)
                        && m.session == denied.session;
                    assert!(!verifiable, "tweak {tweak} forged a grant");
                }
            }
        }
    }

    #[test]
    fn oracle_matches_watch_decisions_and_caches() {
        let cfg = WatchConfig::small_test();
        let mut oracle = ModelOracle::new(&cfg);
        // SU 0 sits on the PU's block and channel: denied.
        assert!(!oracle.su_decision(0));
        // Far block on another channel: granted.
        let far = (cfg.blocks() - 2) as u32 * cfg.channels() as u32 + 1;
        let _ = oracle.su_decision(far);
        // Cache stays bounded by the grid.
        for su in 0..1000 {
            let _ = oracle.su_decision(su);
        }
        assert!(oracle.cache.len() <= cfg.blocks() * cfg.channels());
    }

    fn parties(
        sus: u32,
        oracle: ModelOracle,
        metrics: &NetMetrics,
    ) -> (SdcSessionEngine<Plaintext>, StpSessionEngine<Plaintext>) {
        (
            SdcSessionEngine::from_party(PlaintextSdc::new(sus, oracle, wire()), metrics.clone()),
            StpSessionEngine::from_party(PlaintextStp::new(sus, wire()), metrics.clone()),
        )
    }

    #[test]
    fn quiet_round_grants_per_oracle() {
        let cfg = WatchConfig::small_test();
        let metrics = NetMetrics::new();
        let mut oracle = ModelOracle::new(&cfg);
        let su_id = 5u32;
        let expect = oracle.su_decision(su_id);
        let (mut sdc, mut stp) = parties(16, oracle, &metrics);
        let engine = EngineConfig::default();
        let mut su: SuSessionEngine<Plaintext> =
            SuSessionEngine::from_party(PlaintextSu::new(su_id, wire()), &engine, false, metrics);

        let SuAction::Continue { sends, .. } = su.start() else {
            panic!("fresh session cannot be terminal");
        };
        let (to, query) = sdc.handle(sends[0]).expect("phase 1 queries the STP");
        assert_eq!(to, Party::Stp);
        let (_, reply) = stp.handle(query).expect("registered SU converts");
        let (to, response) = sdc.handle(reply).expect("phase 2 releases");
        assert_eq!(to, Party::Su(su_id));
        match su.on_event(SuEvent::Frame(response)) {
            SuAction::Finish(outcome) => {
                assert_eq!(outcome.granted, Some(expect));
                assert_eq!(outcome.attempts, 1);
            }
            SuAction::Continue { .. } => panic!("matching response must be terminal"),
        }
    }

    #[test]
    fn replayed_request_is_idempotent_and_stale_reply_rejected() {
        let cfg = WatchConfig::small_test();
        let metrics = NetMetrics::new();
        let (mut sdc, mut stp) = parties(8, ModelOracle::new(&cfg), &metrics);
        let req = wire().sized(
            2,
            0,
            ModelPayload::Request {
                su: 2,
                digest: model_digest(2),
            },
        );
        let q1 = sdc.handle(req).expect("phase 1 queries the STP");
        // Duplicate request while awaiting the STP: resend, not
        // re-blind (same query again).
        assert_eq!(sdc.handle(req), Some(q1));
        let (_, reply) = stp.handle(q1.1).expect("registered SU converts");
        let r1 = sdc.handle(reply).expect("phase 2 releases");
        assert!(matches!(
            r1.1.payload,
            ModelPayload::Response { garbled: false, .. }
        ));
        // Replay of the answered request: identical response, no state
        // change.
        assert_eq!(sdc.handle(req), Some(r1));
        // A duplicate of the consumed reply is rejected.
        assert_eq!(sdc.handle(reply), None);
        assert!(metrics.session_totals().rejected >= 1);
    }

    #[test]
    fn su_timeout_exhaustion_and_full_deadline_rearm() {
        let metrics = NetMetrics::new();
        let engine = EngineConfig::default().with_max_retries(2);
        let mut su: SuSessionEngine<Plaintext> = SuSessionEngine::from_party(
            PlaintextSu::new(1, wire()),
            &engine,
            true,
            metrics.clone(),
        );
        let base = engine.timeout;
        let SuAction::Continue { deadline, .. } = su.start() else {
            panic!("fresh session cannot be terminal");
        };
        assert_eq!(deadline, base);
        // Foreign frame: reject, re-arm the FULL current deadline, no
        // sends.
        let foreign = wire().sized(9, 0, ModelPayload::Request { su: 9, digest: 0 });
        match su.on_event(SuEvent::Frame(foreign)) {
            SuAction::Continue { sends, deadline } => {
                assert!(sends.is_empty());
                assert_eq!(deadline, base);
            }
            SuAction::Finish(_) => panic!("foreign frame must not finish the session"),
        }
        // Timeouts: exponential backoff, then budget exhaustion.
        match su.on_event(SuEvent::Timeout) {
            SuAction::Continue { sends, deadline } => {
                assert_eq!(sends.len(), 1);
                assert_eq!(deadline, base * 2);
            }
            SuAction::Finish(_) => panic!("retry budget not exhausted yet"),
        }
        let _ = su.on_event(SuEvent::Timeout);
        match su.on_event(SuEvent::Timeout) {
            SuAction::Finish(outcome) => {
                assert_eq!(outcome.granted, None);
                assert_eq!(outcome.attempts, 3);
            }
            SuAction::Continue { .. } => panic!("budget of 2 retries must be exhausted"),
        }
        assert_eq!(metrics.session_totals().timeouts, 3);
        assert_eq!(metrics.session_totals().retries, 2);
    }
}
