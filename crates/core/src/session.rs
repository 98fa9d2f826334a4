//! The session envelope and retry policy shared by every way a storm
//! runs: the deterministic simulator (`pisa-sim`) and the three-process
//! socket deployment ([`SdcService`](crate::SdcService) and friends).
//! Both drive the same session engines
//! ([`SdcSessionEngine`](crate::SdcSessionEngine) and friends), where
//!
//! * every session is an explicit state machine (phase 1 blinding →
//!   STP sign test → phase 2 license release),
//! * every SU receive has a deadline (no party can hang forever),
//! * SUs retry with exponential backoff up to a bounded budget,
//! * malformed, out-of-order, stale or duplicated messages are
//!   *rejected and counted* — never panicked on — via
//!   [`NetMetrics::record_session_reject`] and friends, and
//! * the whole engine composes with the deterministic fault injection in
//!   [`pisa_net::FaultConfig`] (drop / duplicate / reorder / corrupt).
//!
//! ## Why retries are safe
//!
//! Retrying a cryptographic request is only sound if a late or repeated
//! message can never be mistaken for a fresh one: phase 2 unblinds with
//! the ε drawn in phase 1, so pairing a reply with the *wrong* phase-1
//! state would silently corrupt the decision. The engine therefore tags
//! every frame with the SU's **attempt counter** ([`SessionMsg`]):
//!
//! * A retried request re-uses the stored blinded query if it is the
//!   same `(attempt, digest)` — same blinding, so any in-flight STP
//!   reply still unblinds correctly — and re-runs phase 1 otherwise.
//! * The SDC accepts an STP reply only for the attempt it has pending;
//!   stale replies are rejected instead of mis-unblinded.
//! * Completed responses are cached per `(attempt, digest)`, making
//!   request retries idempotent.
//! * The SU accepts only responses whose license digest matches the
//!   request it actually sent, and (when links can corrupt payloads)
//!   treats an unverifiable response as possibly-mangled, retrying
//!   rather than concluding "denied" from a flipped bit.
//!
//! Grant/deny decisions depend only on plaintext values, never on which
//! attempt carried them, so a faulty run reaches exactly the plaintext
//! WATCH decisions — the chaos tests assert this for every session.

use crate::keys::SuId;
use crate::messages::PisaMessage;
use pisa_net::codec::{CodecError, Reader, Writer};
use pisa_net::{NetMetrics, WireSize};
use std::time::Duration;

/// Wire overhead of the session header (session id + attempt counter).
const SESSION_HEADER_BYTES: usize = 12;

/// A protocol message tagged with its session and the sender's attempt
/// counter — the envelope the session engine speaks on the wire.
///
/// The attempt counter is what makes retries safe: phase-2 unblinding
/// must pair an STP reply with the phase-1 state of the *same* attempt
/// (see the module docs).
#[derive(Debug, Clone)]
pub struct SessionMsg {
    /// Session identifier (the engine uses the SU id).
    pub session: u64,
    /// The originating SU attempt this frame belongs to.
    pub attempt: u32,
    /// The protocol payload.
    pub msg: PisaMessage,
}

impl WireSize for SessionMsg {
    fn wire_bytes(&self) -> usize {
        SESSION_HEADER_BYTES + self.msg.wire_bytes()
    }
}

impl SessionMsg {
    /// Serializes to a wire frame: session id, attempt, inner message.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] from encoding the inner [`PisaMessage`];
    /// well-formed messages never fail.
    pub fn encode(&self) -> Result<bytes::Bytes, CodecError> {
        let _span = pisa_obs::span("net.serialize");
        let inner = self.msg.encode()?;
        let mut w = Writer::with_capacity(SESSION_HEADER_BYTES + inner.len());
        w.put_u64(self.session);
        w.put_u32(self.attempt);
        w.put_raw(&inner);
        Ok(w.finish())
    }

    /// Parses a wire frame.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on truncated or malformed frames.
    pub fn decode(frame: &[u8]) -> Result<SessionMsg, CodecError> {
        let _span = pisa_obs::span("net.deserialize");
        let mut r = Reader::new(frame);
        let session = r.get_u64()?;
        let attempt = r.get_u32()?;
        let inner = r.get_raw(r.remaining())?;
        let msg = PisaMessage::decode(inner)?;
        r.finish()?;
        Ok(SessionMsg {
            session,
            attempt,
            msg,
        })
    }
}

impl pisa_net::FrameCodec for SessionMsg {
    fn encode_frame(&self) -> Result<bytes::Bytes, CodecError> {
        self.encode()
    }

    fn decode_frame(frame: &[u8]) -> Result<Self, CodecError> {
        SessionMsg::decode(frame)
    }
}

/// The corruption oracle for engine traffic: encodes the frame, flips
/// one bit chosen by `tweak`, and re-parses. `Some(mangled)` means the
/// flipped frame still decodes — the receiver gets a wrong-but-well-
/// formed message it must reject at the protocol layer. `None` means
/// the frame no longer parses and the network absorbs it like a drop.
///
/// The simulator's real-fidelity storm installs it as its network's
/// corruptor.
pub fn corrupt_session_frame(msg: &SessionMsg, tweak: u64) -> Option<SessionMsg> {
    let mut bytes = msg.encode().ok()?.to_vec();
    let nbits = (bytes.len() * 8) as u64;
    if nbits == 0 {
        return None;
    }
    // The modulo bounds the bit index by the frame length, so the
    // conversion and the byte lookup are both in range by construction —
    // but stay total anyway: this runs inside the session engine.
    let bit = usize::try_from(tweak % nbits).unwrap_or(0);
    if let Some(byte) = bytes.get_mut(bit / 8) {
        *byte ^= 1 << (bit % 8);
    }
    SessionMsg::decode(&bytes).ok()
}

/// Timeout / retry policy for the session engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Base receive deadline for an SU awaiting its response; doubles
    /// on every retry (exponential backoff), capped at 8×.
    pub timeout: Duration,
    /// Retries an SU may spend before giving up (total sends = 1 + this).
    pub max_retries: u32,
    /// Poll granularity of the networked service loops (how often they
    /// check for shutdown while idle).
    pub poll: Duration,
    /// Worker threads the SDC and STP spend on per-entry crypto. Each
    /// phase's output is byte-identical for any worker count, so this
    /// is a pure throughput knob. Must be at least 1.
    pub workers: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            timeout: Duration::from_millis(200),
            max_retries: 6,
            poll: Duration::from_millis(2),
            workers: 4,
        }
    }
}

impl EngineConfig {
    /// Sets the base response deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sets the retry budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Sets the SDC/STP crypto worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The SU receive deadline for a given attempt (exponential
    /// backoff: `timeout · 2^min(attempt, 3)`). The SU engine returns it
    /// with every send; the socket storm waits on it with
    /// `recv_timeout`, the simulator arms it as a virtual-time timer.
    pub fn deadline(&self, attempt: u32) -> Duration {
        self.timeout * (1u32 << attempt.min(3))
    }
}

/// Final state of one SU session after a storm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOutcome {
    /// The SU that ran the session.
    pub su_id: SuId,
    /// `Some(true)` granted, `Some(false)` denied, `None` if the
    /// session exhausted its retry budget without a usable response.
    pub granted: Option<bool>,
    /// Requests sent (1 = first try succeeded).
    pub attempts: u32,
}

/// Everything a storm run produced.
#[derive(Debug)]
pub struct EngineReport {
    /// Per-session outcomes, sorted by SU id.
    pub outcomes: Vec<SessionOutcome>,
    /// The network's traffic, fault and per-session resilience counters.
    pub metrics: NetMetrics,
}

impl EngineReport {
    /// `(su, decision)` pairs, sorted by SU id.
    pub fn decisions(&self) -> Vec<(SuId, Option<bool>)> {
        self.outcomes.iter().map(|o| (o.su_id, o.granted)).collect()
    }

    /// `true` when every session reached a grant/deny decision.
    pub fn all_completed(&self) -> bool {
        self.outcomes.iter().all(|o| o.granted.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pisa_radio::BlockId;

    fn ct(v: u64) -> pisa_crypto::paillier::Ciphertext {
        pisa_crypto::paillier::Ciphertext::from_raw(pisa_bigint::Ubig::from(v))
    }

    fn sample_frame() -> SessionMsg {
        SessionMsg {
            session: 3,
            attempt: 2,
            msg: PisaMessage::PuUpdate(crate::messages::PuUpdateMsg {
                block: BlockId(4),
                w_column: (0..3).map(ct).collect(),
                ct_bytes: 64,
            }),
        }
    }

    #[test]
    fn session_frame_roundtrip() {
        let frame = sample_frame();
        let decoded = SessionMsg::decode(&frame.encode().unwrap()).unwrap();
        assert_eq!(decoded.session, 3);
        assert_eq!(decoded.attempt, 2);
        assert_eq!(frame.encode().unwrap(), decoded.encode().unwrap());
        assert!(frame.wire_bytes() > frame.encode().unwrap().len());
    }

    #[test]
    fn truncated_session_frame_rejected() {
        let bytes = sample_frame().encode().unwrap();
        for cut in [0, 5, 11, bytes.len() - 1] {
            assert!(SessionMsg::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn corruption_oracle_is_deterministic_and_safe() {
        let frame = sample_frame();
        for tweak in 0..64 {
            let a = corrupt_session_frame(&frame, tweak);
            let b = corrupt_session_frame(&frame, tweak);
            match (a, b) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.encode().unwrap(), y.encode().unwrap());
                    // A surviving flip differs from the original frame.
                    assert_ne!(x.encode().unwrap(), frame.encode().unwrap());
                }
                _ => panic!("oracle not deterministic for tweak {tweak}"),
            }
        }
    }
}
