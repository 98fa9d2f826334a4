//! Deterministic, seedable fault injection.
//!
//! A [`FaultConfig`] attaches independent per-link probabilities for the
//! four classic link pathologies — drop, duplicate, reorder, corrupt —
//! plus an optional [`LatencyModel`] that is applied to every delivery.
//! Randomness is drawn from a dedicated RNG stream *per directed link*,
//! each seeded from the config seed and the link addresses, so the fault
//! pattern a given sender observes is a pure function of `(seed, link,
//! send index)` and does not depend on how concurrent sessions happen to
//! interleave on other links.
//!
//! [`FaultLottery`] owns those streams. Both fault pipelines draw from
//! it: the virtual-time network in `pisa-sim`, and
//! [`SocketFaults`](crate::SocketFaults) on real sockets.
//!
//! Corruption needs to know what a "bit flip the receiver may or may not
//! detect" means for the payload type, so the virtual-time network takes
//! a pluggable [`Corruptor`] oracle: given the payload and 64 tweak bits
//! it returns `Some(mangled)` when the flipped frame still decodes (the
//! receiver sees a wrong-but-well-formed message and must reject it at
//! the protocol layer) or `None` when the frame no longer parses (the
//! network absorbs it like a drop, counted separately). Without an
//! oracle, corruption always destroys the frame.

use crate::party::Party;
use crate::LatencyModel;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-link fault probabilities, each independently in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Probability a message silently disappears.
    pub drop: f64,
    /// Probability a message is delivered twice.
    pub duplicate: f64,
    /// Probability a message is held back and swapped with the next one
    /// on the same link.
    pub reorder: f64,
    /// Probability a message is bit-flipped in transit.
    pub corrupt: f64,
}

impl FaultPlan {
    /// A fault-free link.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// The same probability for all four fault kinds.
    pub fn uniform(p: f64) -> Self {
        FaultPlan {
            drop: p,
            duplicate: p,
            reorder: p,
            corrupt: p,
        }
    }

    /// Sets the drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Sets the duplicate probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Sets the reorder probability.
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.reorder = p;
        self
    }

    /// Sets the corrupt probability.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt = p;
        self
    }

    fn is_quiet(&self) -> bool {
        self.drop <= 0.0 && self.duplicate <= 0.0 && self.reorder <= 0.0 && self.corrupt <= 0.0
    }
}

/// A seedable fault-injection policy for a whole network.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Master seed; every per-link RNG stream derives from it.
    pub seed: u64,
    /// Plan applied to links without a dedicated override.
    pub default_plan: FaultPlan,
    /// Per-link overrides, keyed by `(from, to)`.
    pub per_link: HashMap<(Party, Party), FaultPlan>,
    /// Optional wire-time model applied to every delivery (a socket
    /// sender sleeps for `transfer_time(bytes, 1)`; the simulator adds
    /// it in virtual time).
    pub latency: Option<LatencyModel>,
}

impl FaultConfig {
    /// A quiet config (no faults, no latency) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultConfig {
            seed,
            default_plan: FaultPlan::none(),
            per_link: HashMap::new(),
            latency: None,
        }
    }

    /// Applies `plan` to every link without an override.
    pub fn with_default_plan(mut self, plan: FaultPlan) -> Self {
        self.default_plan = plan;
        self
    }

    /// Overrides the plan for one directed link.
    pub fn with_link(mut self, from: Party, to: Party, plan: FaultPlan) -> Self {
        self.per_link.insert((from, to), plan);
        self
    }

    /// Simulates wire time on every delivery.
    pub fn with_latency(mut self, model: LatencyModel) -> Self {
        self.latency = Some(model);
        self
    }

    /// The plan governing `from → to`.
    pub fn plan_for(&self, from: Party, to: Party) -> FaultPlan {
        self.per_link
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_plan)
    }

    /// `true` if any link can corrupt payloads. Protocol layers use this
    /// to decide whether a well-formed but unverifiable message can be
    /// trusted as-is or must be treated as possibly mangled.
    pub fn any_corruption(&self) -> bool {
        self.default_plan.corrupt > 0.0 || self.per_link.values().any(|p| p.corrupt > 0.0)
    }
}

/// What the fault layer decided for one message.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultDraw {
    /// The message silently disappears.
    pub dropped: bool,
    /// The message is delivered twice.
    pub duplicated: bool,
    /// The message is held back and swapped with the next on its link.
    pub reordered: bool,
    /// 64 tweak bits for the corruption oracle, when corruption fired.
    pub corrupt: Option<u64>,
}

/// Payload-corruption oracle: `Some(mangled)` if the flipped frame still
/// decodes, `None` if the receiver would discard it as unparseable.
pub type Corruptor<M> = Arc<dyn Fn(&M, u64) -> Option<M> + Send + Sync>;

/// The deterministic core of fault injection: a [`FaultConfig`] plus the
/// per-link RNG streams it seeds. Single-threaded by construction, so a
/// virtual-time simulator can drive it directly and observe the *same*
/// per-link fault sequence as [`SocketFaults`](crate::SocketFaults)
/// (which wraps one of these in a mutex): the draw for the k-th send on
/// a link is a pure function of `(seed, link, k)`.
#[derive(Debug)]
pub struct FaultLottery {
    config: FaultConfig,
    rngs: HashMap<(Party, Party), StdRng>,
}

impl FaultLottery {
    /// A lottery drawing from `config`'s seed.
    pub fn new(config: FaultConfig) -> Self {
        FaultLottery {
            config,
            rngs: HashMap::new(),
        }
    }

    /// The fault policy this lottery draws from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Rolls the dice for one message on `from → to`.
    pub fn draw(&mut self, from: Party, to: Party) -> FaultDraw {
        let plan = self.config.plan_for(from, to);
        if plan.is_quiet() {
            return FaultDraw::default();
        }
        let rng = self
            .rngs
            .entry((from, to))
            .or_insert_with(|| StdRng::seed_from_u64(link_stream_seed(self.config.seed, from, to)));
        let mut chance = |p: f64| (rng.next_u64() >> 11) as f64 * 2f64.powi(-53) < p;
        FaultDraw {
            dropped: chance(plan.drop),
            duplicated: chance(plan.duplicate),
            reordered: chance(plan.reorder),
            corrupt: chance(plan.corrupt).then(|| rng.next_u64()),
        }
    }
}

/// Stable 64-bit code for a party (independent of hash seeds).
fn party_code(party: Party) -> u64 {
    match party {
        Party::Sdc => 1 << 32,
        Party::Stp => 2 << 32,
        Party::Pu(i) => (3 << 32) | u64::from(i),
        Party::Su(i) => (4 << 32) | u64::from(i),
    }
}

/// Per-link RNG seed: a splitmix64 mix of the master seed and both
/// endpoint codes, so distinct links get decorrelated streams. Public
/// so the virtual-time simulator can derive *other* per-link streams
/// (e.g. latency jitter) that are decorrelated from the fault streams
/// by salting the master seed.
pub fn link_stream_seed(seed: u64, from: Party, to: Party) -> u64 {
    let mut z = seed ^ party_code(from).rotate_left(17) ^ party_code(to).rotate_left(43);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builders_compose() {
        let p = FaultPlan::none().with_drop(0.1).with_corrupt(0.2);
        assert_eq!(p.drop, 0.1);
        assert_eq!(p.corrupt, 0.2);
        assert_eq!(p.duplicate, 0.0);
        assert!(FaultPlan::none().is_quiet());
        assert!(!FaultPlan::uniform(0.05).is_quiet());
    }

    #[test]
    fn per_link_overrides_default() {
        let cfg = FaultConfig::new(7)
            .with_default_plan(FaultPlan::uniform(0.5))
            .with_link(Party::Su(0), Party::Sdc, FaultPlan::none());
        assert!(cfg.plan_for(Party::Su(0), Party::Sdc).is_quiet());
        assert_eq!(cfg.plan_for(Party::Su(1), Party::Sdc).drop, 0.5);
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let draw_seq = |seed: u64| {
            let mut lottery = FaultLottery::new(
                FaultConfig::new(seed).with_default_plan(FaultPlan::uniform(0.3)),
            );
            (0..64)
                .map(|_| {
                    let d = lottery.draw(Party::Su(0), Party::Sdc);
                    (d.dropped, d.duplicated, d.reordered, d.corrupt)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draw_seq(42), draw_seq(42));
        assert_ne!(draw_seq(42), draw_seq(43));
    }

    #[test]
    fn links_have_independent_streams() {
        let mut lottery =
            FaultLottery::new(FaultConfig::new(9).with_default_plan(FaultPlan::uniform(0.5)));
        let a: Vec<bool> = (0..64)
            .map(|_| lottery.draw(Party::Su(0), Party::Sdc).dropped)
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|_| lottery.draw(Party::Su(1), Party::Sdc).dropped)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn quiet_plan_draws_nothing() {
        let mut lottery = FaultLottery::new(FaultConfig::new(1));
        let d = lottery.draw(Party::Su(0), Party::Sdc);
        assert!(!d.dropped && !d.duplicated && !d.reordered && d.corrupt.is_none());
    }
}
