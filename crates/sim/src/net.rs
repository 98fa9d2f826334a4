//! The virtual-time network: the fault pipeline of the in-process storm.
//!
//! [`SimNet::send`] walks the same pipeline as the socket layer's
//! [`SocketFaults::apply`](pisa_net::SocketFaults::apply) — latency,
//! fault draw, drop, corrupt, one-slot reorder holdback, duplicate,
//! deliver — but instead of sleeping and writing to a TCP stream it
//! returns the scheduled [`Delivery`] records for the event heap. The
//! fault draws come from the same [`FaultLottery`] streams (per-link,
//! seeded by [`link_stream_seed`]), so for a given
//! `(seed, link, send-index)` the simulator and a socket storm observe
//! the *same* fault; a test below pins the two pipelines together.
//!
//! Latency is drawn per delivery from the config's
//! [`LatencyModel`](pisa_net::LatencyModel) via
//! [`sample_transfer_time`](pisa_net::LatencyModel::sample_transfer_time),
//! with per-link jitter streams salted away from the fault streams so
//! turning jitter on or off never perturbs a fault draw.

use pisa_net::{
    link_stream_seed, Corruptor, FaultConfig, FaultKind, FaultLottery, NetMetrics, Party, WireSize,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Salt xored into the master seed for the latency-jitter streams, so
/// they are decorrelated from the fault streams on the same link.
const LATENCY_SALT: u64 = 0x1a7e_57a7_e000_0001;

/// One message scheduled to land at a virtual instant.
#[derive(Debug, Clone)]
pub struct Delivery<M> {
    /// Virtual arrival time in nanoseconds.
    pub at: u64,
    /// Sender address.
    pub from: Party,
    /// Recipient address.
    pub to: Party,
    /// The (possibly mangled) payload.
    pub msg: M,
}

/// The virtual-time network: the socket layer's fault semantics on an
/// event heap.
///
/// # Examples
///
/// ```
/// use pisa_net::Party;
/// use pisa_sim::SimNet;
///
/// // A perfect network: every send lands at the send instant, in send order.
/// let mut net: SimNet<Vec<u8>> = SimNet::new(None, 0.0);
/// let mut out = Vec::new();
/// net.send(10, Party::Sdc, Party::Stp, vec![1, 2, 3], &mut out);
/// net.send(10, Party::Stp, Party::Su(0), vec![4], &mut out);
/// assert_eq!(out.len(), 2);
/// assert_eq!((out[0].at, out[0].to, &out[0].msg), (10, Party::Stp, &vec![1, 2, 3]));
/// assert_eq!((out[1].from, out[1].to), (Party::Stp, Party::Su(0)));
/// assert_eq!(net.metrics().total_bytes(), 4);
/// ```
pub struct SimNet<M> {
    lottery: Option<FaultLottery>,
    corruptor: Option<Corruptor<M>>,
    jitter: f64,
    latency_seed: u64,
    latency_rngs: BTreeMap<(Party, Party), StdRng>,
    /// One-slot reorder holdback per directed link. A `BTreeMap` so the
    /// end-of-run flush drains in a deterministic order.
    holdback: BTreeMap<(Party, Party), M>,
    metrics: NetMetrics,
}

impl<M: WireSize + Clone> SimNet<M> {
    /// A network injecting faults (and simulating wire time) per
    /// `config`; `None` is a perfect zero-latency network. `jitter` is
    /// the multiplicative latency jitter amplitude in `[0, 1]` (only
    /// meaningful when the config carries a latency model).
    pub fn new(config: Option<FaultConfig>, jitter: f64) -> Self {
        let latency_seed = config.as_ref().map_or(0, |c| c.seed ^ LATENCY_SALT);
        SimNet {
            lottery: config.map(FaultLottery::new),
            corruptor: None,
            jitter,
            latency_seed,
            latency_rngs: BTreeMap::new(),
            holdback: BTreeMap::new(),
            metrics: NetMetrics::new(),
        }
    }

    /// The shared traffic/fault/session counters.
    pub fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }

    /// Installs the corruption oracle: how a bit flip mangles a payload
    /// (`None` = the flipped frame no longer parses and is absorbed).
    /// Without one, corruption always destroys the frame.
    pub fn set_corruptor(&mut self, corruptor: Corruptor<M>) {
        self.corruptor = Some(corruptor);
    }

    /// `true` if any link can corrupt payloads.
    pub fn corrupt_possible(&self) -> bool {
        self.lottery
            .as_ref()
            .is_some_and(|l| l.config().any_corruption())
    }

    /// Virtual wire time for one message of `bytes` bytes on
    /// `from → to`, consuming one jitter draw iff a latency model is
    /// configured.
    fn wire_ns(&mut self, from: Party, to: Party, bytes: u64) -> u64 {
        let Some(model) = self.lottery.as_ref().and_then(|l| l.config().latency) else {
            return 0;
        };
        let seed = self.latency_seed;
        let rng = self
            .latency_rngs
            .entry((from, to))
            .or_insert_with(|| StdRng::seed_from_u64(link_stream_seed(seed, from, to)));
        let t = model.sample_transfer_time(bytes, 1, self.jitter, rng);
        u64::try_from(t.as_nanos()).unwrap_or(u64::MAX)
    }

    fn record_delivery(&self, from: Party, to: Party, msg: &M, at: u64, out: &mut Vec<Delivery<M>>)
    where
        M: Clone,
    {
        self.metrics.record(from, to, msg.wire_bytes());
        out.push(Delivery {
            at,
            from,
            to,
            msg: msg.clone(),
        });
    }

    /// Sends `msg` on `from → to` at virtual time `now`, appending the
    /// resulting deliveries (zero, one or two messages, plus a possible
    /// released holdback) to `out`. Mirrors `SocketFaults::apply` stage
    /// by stage so the fault streams line up draw for draw.
    pub fn send(&mut self, now: u64, from: Party, to: Party, msg: M, out: &mut Vec<Delivery<M>>) {
        let arrival = now.saturating_add(self.wire_ns(from, to, msg.wire_bytes() as u64));
        let Some(lottery) = self.lottery.as_mut() else {
            self.record_delivery(from, to, &msg, arrival, out);
            return;
        };
        let draw = lottery.draw(from, to);
        if draw.dropped {
            self.metrics.record_fault(from, to, FaultKind::Dropped);
            return;
        }
        let mut msg = msg;
        if let Some(tweak) = draw.corrupt {
            match self.corruptor.as_ref().and_then(|c| c(&msg, tweak)) {
                Some(mangled) => {
                    self.metrics.record_fault(from, to, FaultKind::Corrupted);
                    msg = mangled;
                }
                None => {
                    self.metrics
                        .record_fault(from, to, FaultKind::CorruptDropped);
                    return;
                }
            }
        }
        let link = (from, to);
        let held = self.holdback.remove(&link);
        if draw.reordered && held.is_none() {
            self.metrics.record_fault(from, to, FaultKind::Reordered);
            self.holdback.insert(link, msg);
            return;
        }
        if draw.duplicated {
            self.metrics.record_fault(from, to, FaultKind::Duplicated);
            self.record_delivery(from, to, &msg, arrival, out);
        }
        self.record_delivery(from, to, &msg, arrival, out);
        if let Some(prev) = held {
            self.record_delivery(from, to, &prev, arrival, out);
        }
    }

    /// Delivers every message the reorder stage still holds, at virtual
    /// time `now`, in deterministic link order. Returns how many were
    /// flushed (mirrors [`SocketFaults::drain_held`](pisa_net::SocketFaults::drain_held)).
    pub fn flush_holdback(&mut self, now: u64, out: &mut Vec<Delivery<M>>) -> usize {
        let held = std::mem::take(&mut self.holdback);
        let n = held.len();
        for ((from, to), msg) in held {
            self.record_delivery(from, to, &msg, now, out);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pisa_net::socket::frame::{encode_envelope, FrameKind, ENVELOPE_HEADER_BYTES};
    use pisa_net::{FaultPlan, LatencyModel, SocketFaults};
    use std::sync::Arc;

    fn lossy(seed: u64, plan: FaultPlan) -> SimNet<Vec<u8>> {
        SimNet::new(Some(FaultConfig::new(seed).with_default_plan(plan)), 0.0)
    }

    #[test]
    fn perfect_network_delivers_instantly() {
        let mut net: SimNet<Vec<u8>> = SimNet::new(None, 0.0);
        let mut out = Vec::new();
        net.send(5, Party::Su(0), Party::Sdc, vec![1, 2, 3], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].at, 5);
        assert_eq!(net.metrics().total_bytes(), 3);
    }

    #[test]
    fn sends_from_several_parties_keep_send_order() {
        // The storm loop routes every engine output straight into
        // `send`; deliveries must come out in exactly that order.
        let mut net: SimNet<Vec<u8>> = SimNet::new(None, 0.0);
        let mut out = Vec::new();
        net.send(7, Party::Su(3), Party::Sdc, vec![1], &mut out);
        net.send(7, Party::Sdc, Party::Stp, vec![2], &mut out);
        net.send(7, Party::Su(3), Party::Sdc, vec![3], &mut out);
        let seen: Vec<_> = out.iter().map(|d| (d.from, d.to, d.msg.clone())).collect();
        assert_eq!(
            seen,
            vec![
                (Party::Su(3), Party::Sdc, vec![1]),
                (Party::Sdc, Party::Stp, vec![2]),
                (Party::Su(3), Party::Sdc, vec![3]),
            ]
        );
        assert!(out.iter().all(|d| d.at == 7));
    }

    #[test]
    fn latency_delays_arrival_deterministically() {
        let cfg = FaultConfig::new(9).with_latency(LatencyModel::lan());
        let mut net: SimNet<Vec<u8>> = SimNet::new(Some(cfg.clone()), 0.0);
        let mut out = Vec::new();
        net.send(0, Party::Su(0), Party::Sdc, vec![0; 1000], &mut out);
        // 200 µs per message + 8 ns/byte.
        assert_eq!(out[0].at, 200_000 + 8_000);

        // Same seed, same arrivals — including with jitter on.
        let run = |jitter: f64| {
            let mut net: SimNet<Vec<u8>> = SimNet::new(Some(cfg.clone()), jitter);
            let mut out = Vec::new();
            for i in 0..32 {
                net.send(0, Party::Su(0), Party::Sdc, vec![0; 100 + i], &mut out);
            }
            out.iter().map(|d| d.at).collect::<Vec<_>>()
        };
        assert_eq!(run(0.3), run(0.3));
        assert_ne!(run(0.3), run(0.0));
    }

    #[test]
    fn fault_draws_match_socket_faults() {
        // Drive the socket pipeline and the SimNet with the same seed
        // and send sequence; the surviving payload sequence and the
        // fault counters must match.
        let plan = FaultPlan::none()
            .with_drop(0.3)
            .with_duplicate(0.3)
            .with_reorder(0.3);
        let seed = 0x51f7;
        let config = FaultConfig::new(seed).with_default_plan(plan);

        let socket_metrics = NetMetrics::new();
        let socket = SocketFaults::new(config.clone(), socket_metrics.clone());
        let mut socket_seen = Vec::new();
        for i in 0..64u8 {
            let frame = encode_envelope(FrameKind::Data, Party::Su(0), Party::Sdc, &[i]);
            for written in socket.apply(Party::Su(0), Party::Sdc, frame, &|_| true) {
                socket_seen.push(written[ENVELOPE_HEADER_BYTES..].to_vec());
            }
        }

        let mut sim: SimNet<Vec<u8>> = SimNet::new(Some(config), 0.0);
        let mut out = Vec::new();
        for i in 0..64u8 {
            sim.send(0, Party::Su(0), Party::Sdc, vec![i], &mut out);
        }
        let sim_seen: Vec<Vec<u8>> = out.into_iter().map(|d| d.msg).collect();

        assert_eq!(sim_seen, socket_seen);
        let totals = sim.metrics().fault_totals();
        assert!(totals.dropped > 0 && totals.duplicated > 0 && totals.reordered > 0);
        assert_eq!(totals, socket_metrics.fault_totals());
    }

    #[test]
    fn corruption_draws_match_socket_faults() {
        // Both pipelines flip bit `tweak % payload bits` of the payload;
        // with the same seed they must corrupt (or absorb) the same sends
        // in the same way.
        let plan = FaultPlan::none().with_corrupt(0.4).with_drop(0.1);
        let config = FaultConfig::new(0xc0de).with_default_plan(plan);
        let flip: Corruptor<Vec<u8>> = Arc::new(|payload: &Vec<u8>, tweak| {
            let mut flipped = payload.clone();
            let bit = usize::try_from(tweak % (flipped.len() as u64 * 8)).unwrap();
            flipped[bit / 8] ^= 1 << (bit % 8);
            Some(flipped)
        });
        for parses in [true, false] {
            let socket_metrics = NetMetrics::new();
            let socket = SocketFaults::new(config.clone(), socket_metrics.clone());
            let mut socket_seen = Vec::new();
            for i in 0..64u8 {
                let frame =
                    encode_envelope(FrameKind::Data, Party::Su(0), Party::Sdc, &[i, 0, 0, i]);
                for written in socket.apply(Party::Su(0), Party::Sdc, frame, &|_| parses) {
                    socket_seen.push(written[ENVELOPE_HEADER_BYTES..].to_vec());
                }
            }

            let mut sim: SimNet<Vec<u8>> = SimNet::new(Some(config.clone()), 0.0);
            if parses {
                sim.set_corruptor(Arc::clone(&flip));
            }
            let mut out = Vec::new();
            for i in 0..64u8 {
                sim.send(0, Party::Su(0), Party::Sdc, vec![i, 0, 0, i], &mut out);
            }
            let sim_seen: Vec<Vec<u8>> = out.into_iter().map(|d| d.msg).collect();

            assert_eq!(sim_seen, socket_seen, "parses = {parses}");
            let totals = sim.metrics().fault_totals();
            assert!(totals.dropped > 0);
            if parses {
                assert!(totals.corrupted > 0 && totals.corrupt_dropped == 0);
            } else {
                assert!(totals.corrupt_dropped > 0 && totals.corrupted == 0);
            }
            assert_eq!(totals, socket_metrics.fault_totals());
        }
    }

    #[test]
    fn drop_absorbs_and_counts() {
        let mut net = lossy(0xfa11, FaultPlan::none().with_drop(1.0));
        let mut out = Vec::new();
        for _ in 0..5 {
            net.send(0, Party::Su(0), Party::Sdc, vec![1, 2, 3], &mut out);
        }
        assert!(out.is_empty());
        let faults = net.metrics().link_faults(Party::Su(0), Party::Sdc).unwrap();
        assert_eq!(faults.dropped, 5);
        // Dropped messages are never delivered, so no bytes accrue.
        assert_eq!(net.metrics().total_bytes(), 0);
    }

    #[test]
    fn duplicate_delivers_twice_at_the_same_instant() {
        let mut net = lossy(1, FaultPlan::none().with_duplicate(1.0));
        let mut out = Vec::new();
        net.send(4, Party::Su(0), Party::Sdc, vec![7], &mut out);
        let seen: Vec<_> = out.iter().map(|d| (d.at, d.msg.clone())).collect();
        assert_eq!(seen, vec![(4, vec![7]), (4, vec![7])]);
        assert_eq!(net.metrics().fault_totals().duplicated, 1);
        assert_eq!(net.metrics().total_messages(), 2);
    }

    #[test]
    fn reorder_swaps_adjacent_and_flush_recovers_stranded() {
        let mut net = lossy(2, FaultPlan::none().with_reorder(1.0));
        let mut out = Vec::new();
        net.send(0, Party::Su(0), Party::Sdc, vec![1], &mut out);
        assert!(out.is_empty()); // held back
        net.send(10, Party::Su(0), Party::Sdc, vec![2], &mut out);
        // Second send releases the first after itself.
        let payloads: Vec<u8> = out.iter().map(|d| d.msg[0]).collect();
        assert_eq!(payloads, vec![2, 1]);

        out.clear();
        net.send(20, Party::Su(0), Party::Sdc, vec![3], &mut out);
        assert!(out.is_empty());
        assert_eq!(net.flush_holdback(30, &mut out), 1);
        assert_eq!(out[0].at, 30);
        assert_eq!(net.metrics().total_messages(), 3);
    }

    #[test]
    fn corruption_oracle_mangles_or_absorbs() {
        let mut net = lossy(4, FaultPlan::none().with_corrupt(1.0));
        // No oracle: every corrupted frame is absorbed.
        let mut out = Vec::new();
        net.send(0, Party::Su(0), Party::Sdc, vec![0, 0], &mut out);
        assert!(out.is_empty());
        assert_eq!(net.metrics().fault_totals().corrupt_dropped, 1);

        net.set_corruptor(Arc::new(|payload: &Vec<u8>, tweak| {
            let mut flipped = payload.clone();
            let bit = tweak as usize % (flipped.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
            Some(flipped)
        }));
        net.send(0, Party::Su(0), Party::Sdc, vec![0, 0], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].msg.iter().map(|b| b.count_ones()).sum::<u32>(),
            1,
            "exactly one bit flipped"
        );
        assert_eq!(net.metrics().fault_totals().corrupted, 1);
    }
}
