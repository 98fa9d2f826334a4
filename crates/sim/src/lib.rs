//! `pisa-sim`: a deterministic discrete-event simulator for PISA
//! session storms.
//!
//! This is the one in-process way to ask "does the protocol survive a
//! hostile network?". Wall-clock storms are slow and a failing one is
//! hard to replay, so this crate runs the protocol on *virtual* time: a
//! single thread pops events off a `(virtual_time, seq)`-keyed heap,
//! the network is the fault pipeline of `pisa-net`'s socket layer
//! driven by the same seeded per-link streams, and the parties are the
//! `pisa-core` session engines, instantiated either over the real
//! Paillier/RSA crypto ([`Fidelity::Real`]) or over the plaintext
//! [`model::Plaintext`] protocol ([`Fidelity::Modeled`]), which trades
//! the Paillier arithmetic for the WATCH decision oracle — that is what
//! makes a 10⁵-session storm finish in seconds.
//!
//! Everything is bit-deterministic per seed: [`run_sim_storm`] with
//! the same `(seed, config)` produces a byte-identical
//! [`StormReport::to_json`], which the sweep harness ([`run_sweep`])
//! exploits to run thousands of seeded storms, check invariants, probe
//! determinism, and shrink any failure into a [`RegressionCase`]
//! small enough to check in.
//!
//! ```
//! use pisa_sim::{run_sim_storm, SimConfig};
//!
//! let report = run_sim_storm(7, &SimConfig::modeled(32));
//! assert!(report.all_terminal());
//! assert_eq!(report.sus, 32);
//! // Same seed, same bytes.
//! assert_eq!(report.to_json(), run_sim_storm(7, &SimConfig::modeled(32)).to_json());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod model;
mod net;
mod report;
mod storm;
mod sweep;

pub use event::EventQueue;
pub use net::{Delivery, SimNet};
pub use report::{decisions_digest, SimOutcome, StormReport};
pub use storm::{run_sim_storm, run_sim_storm_with, Fidelity, SimConfig};
pub use sweep::{check_storm, run_sweep, shrink, RegressionCase, SweepConfig, SweepReport};
