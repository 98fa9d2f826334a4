//! Message transport for the PISA parties.
//!
//! The paper's prototype connects four kinds of parties — PUs, SUs, the
//! SDC server and the STP — over a network whose *communication
//! overhead* is one of the two evaluation criteria (§VI-A: a 29 MB
//! request, a 0.05 MB PU update, a 4.1 kb response). This crate provides
//! what every execution mode shares:
//!
//! * typed party addresses ([`Party`]) and the wire codec ([`codec`]),
//! * per-link byte and message accounting ([`NetMetrics`]) driven by the
//!   [`WireSize`] trait,
//! * a configurable latency model ([`LatencyModel`]) for estimating
//!   end-to-end protocol latency from the accounted traffic,
//! * deterministic, seedable fault injection ([`FaultConfig`]) with
//!   per-link drop/duplicate/reorder/corrupt probabilities drawn from
//!   [`FaultLottery`] streams and absorbed-fault counters surfaced
//!   through [`NetMetrics`], and
//! * the framed TCP transport ([`socket`]) the three-process deployment
//!   runs on, with the same fault pipeline ([`SocketFaults`]) applied to
//!   encoded bytes.
//!
//! The in-process storm runs on the virtual-time network of `pisa-sim`,
//! which draws its faults from the same lottery streams.
//!
//! # Examples
//!
//! ```
//! use pisa_net::{FaultConfig, FaultLottery, FaultPlan, Party};
//!
//! let config = FaultConfig::new(7).with_default_plan(FaultPlan::none().with_drop(0.5));
//! // The k-th draw on a link is a pure function of (seed, link, k).
//! let draws = |config: &FaultConfig| {
//!     let mut lottery = FaultLottery::new(config.clone());
//!     (0..32)
//!         .map(|_| lottery.draw(Party::Su(0), Party::Sdc).dropped)
//!         .collect::<Vec<_>>()
//! };
//! assert_eq!(draws(&config), draws(&config));
//! assert!(draws(&config).contains(&true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod fault;
mod latency;
mod metrics;
mod party;
pub mod socket;

pub use fault::{link_stream_seed, Corruptor, FaultConfig, FaultDraw, FaultLottery, FaultPlan};
pub use latency::LatencyModel;
pub use metrics::{FaultKind, FaultStats, LinkStats, NetMetrics, SessionStats};
pub use party::{Envelope, Party};
pub use socket::{FrameCodec, SocketConfig, SocketError, SocketEvent, SocketFaults, SocketNode};

/// Serialized size of a message on the wire, in bytes.
///
/// PISA messages are dominated by Paillier ciphertexts of a fixed width
/// (`2·|n|` bits), so sizes are computed analytically rather than by
/// running a serializer — exactly how the paper reports its
/// communication numbers.
pub trait WireSize {
    /// Number of bytes this message occupies on the wire.
    fn wire_bytes(&self) -> usize;
}

impl WireSize for Vec<u8> {
    fn wire_bytes(&self) -> usize {
        self.len()
    }
}
