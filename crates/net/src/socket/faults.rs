//! Socket-layer fault injection.
//!
//! The same seeded drop/duplicate/reorder/corrupt knobs as the
//! simulator's virtual-time network (`pisa_sim::SimNet`), applied to
//! **encoded envelope bytes** just before they are written to a TCP
//! stream. The pipeline mirrors `SimNet::send` stage for stage (latency
//! → drop → corrupt → reorder holdback → duplicate), drawing from the
//! identical per-link [`FaultLottery`] streams, so a storm over real
//! sockets sees the same fault sequence per link as the simulator with
//! the same seed (pinned by a `pisa-sim` test).
//!
//! Corruption flips one tweak-chosen bit of the *payload* region — the
//! exact bytes the session-frame corruption oracle flips — then asks the
//! caller whether the mangled payload still parses: if yes the frame is
//! delivered wrong-but-well-formed (the protocol layer must reject it),
//! if no the frame is absorbed like a drop, counted separately.

use super::frame::ENVELOPE_HEADER_BYTES;
use crate::fault::{FaultConfig, FaultLottery};
use crate::metrics::{FaultKind, NetMetrics};
use crate::party::Party;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Seeded fault pipeline for one process's outbound socket traffic.
pub struct SocketFaults {
    config: FaultConfig,
    lottery: Mutex<FaultLottery>,
    holdback: Mutex<HashMap<(Party, Party), Vec<u8>>>,
    metrics: NetMetrics,
}

impl std::fmt::Debug for SocketFaults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SocketFaults(seed {})", self.config.seed)
    }
}

impl SocketFaults {
    /// A pipeline drawing from `config`'s seed, counting into `metrics`.
    pub fn new(config: FaultConfig, metrics: NetMetrics) -> Self {
        SocketFaults {
            lottery: Mutex::new(FaultLottery::new(config.clone())),
            config,
            holdback: Mutex::new(HashMap::new()),
            metrics,
        }
    }

    /// The fault policy this pipeline draws from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Runs one encoded envelope through the pipeline and returns the
    /// frames to actually write, in order (possibly none: dropped,
    /// absorbed, or held back; possibly several: duplicate and/or a
    /// released held-back frame).
    ///
    /// `payload_parses` is the corruption oracle's decode check over the
    /// payload region of a mangled envelope.
    pub fn apply(
        &self,
        from: Party,
        to: Party,
        frame: Vec<u8>,
        payload_parses: &dyn Fn(&[u8]) -> bool,
    ) -> Vec<Vec<u8>> {
        if let Some(model) = self.config.latency {
            let payload = frame.len().saturating_sub(ENVELOPE_HEADER_BYTES);
            std::thread::sleep(model.transfer_time(payload as u64, 1));
        }
        let draw = self.lottery.lock().draw(from, to);
        if draw.dropped {
            self.metrics.record_fault(from, to, FaultKind::Dropped);
            return Vec::new();
        }
        let mut frame = frame;
        if let Some(tweak) = draw.corrupt {
            match corrupt_envelope(&frame, tweak, payload_parses) {
                Some(mangled) => {
                    self.metrics.record_fault(from, to, FaultKind::Corrupted);
                    frame = mangled;
                }
                None => {
                    self.metrics
                        .record_fault(from, to, FaultKind::CorruptDropped);
                    return Vec::new();
                }
            }
        }
        // Reorder = hold one frame back and release it after the next
        // send on the same link (a one-slot swap), as in the simulator.
        let held = self.holdback.lock().remove(&(from, to));
        if draw.reordered && held.is_none() {
            self.metrics.record_fault(from, to, FaultKind::Reordered);
            self.holdback.lock().insert((from, to), frame);
            return Vec::new();
        }
        let mut out = Vec::with_capacity(3);
        if draw.duplicated {
            self.metrics.record_fault(from, to, FaultKind::Duplicated);
            out.push(frame.clone());
        }
        out.push(frame);
        if let Some(prev) = held {
            out.push(prev);
        }
        out
    }

    /// Removes and returns every held-back frame with its link, so a
    /// shutting-down node can flush stragglers.
    pub fn drain_held(&self) -> Vec<((Party, Party), Vec<u8>)> {
        self.holdback.lock().drain().collect()
    }
}

/// Flips the tweak-chosen bit of the envelope's payload region; returns
/// `None` (absorb) if the payload is empty or no longer parses.
fn corrupt_envelope(
    frame: &[u8],
    tweak: u64,
    payload_parses: &dyn Fn(&[u8]) -> bool,
) -> Option<Vec<u8>> {
    let payload_len = frame.len().checked_sub(ENVELOPE_HEADER_BYTES)?;
    let nbits = (payload_len as u64).saturating_mul(8);
    if nbits == 0 {
        return None;
    }
    let bit = usize::try_from(tweak % nbits).unwrap_or(0);
    let mut mangled = frame.to_vec();
    let byte = mangled.get_mut(ENVELOPE_HEADER_BYTES + bit / 8)?;
    *byte ^= 1 << (bit % 8);
    let payload = mangled.get(ENVELOPE_HEADER_BYTES..)?;
    if payload_parses(payload) {
        Some(mangled)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::socket::frame::{encode_envelope, FrameKind};

    fn faults(plan: FaultPlan, seed: u64) -> SocketFaults {
        SocketFaults::new(
            FaultConfig::new(seed).with_default_plan(plan),
            NetMetrics::new(),
        )
    }

    fn env(payload: &[u8]) -> Vec<u8> {
        encode_envelope(FrameKind::Data, Party::Su(0), Party::Sdc, payload)
    }

    #[test]
    fn quiet_pipeline_passes_through() {
        let f = faults(FaultPlan::none(), 1);
        let frame = env(b"abc");
        let out = f.apply(Party::Su(0), Party::Sdc, frame.clone(), &|_| true);
        assert_eq!(out, vec![frame]);
    }

    #[test]
    fn drop_absorbs_frame() {
        let f = faults(FaultPlan::none().with_drop(1.0), 2);
        assert!(f
            .apply(Party::Su(0), Party::Sdc, env(b"abc"), &|_| true)
            .is_empty());
        assert_eq!(f.metrics.fault_totals().dropped, 1);
    }

    #[test]
    fn duplicate_writes_twice() {
        let f = faults(FaultPlan::none().with_duplicate(1.0), 3);
        let frame = env(b"abc");
        let out = f.apply(Party::Su(0), Party::Sdc, frame.clone(), &|_| true);
        assert_eq!(out, vec![frame.clone(), frame]);
        assert_eq!(f.metrics.fault_totals().duplicated, 1);
    }

    #[test]
    fn reorder_swaps_adjacent_frames() {
        let f = faults(FaultPlan::none().with_reorder(1.0), 4);
        let a = env(b"first");
        let b = env(b"second");
        assert!(f
            .apply(Party::Su(0), Party::Sdc, a.clone(), &|_| true)
            .is_empty());
        let out = f.apply(Party::Su(0), Party::Sdc, b.clone(), &|_| true);
        assert_eq!(out, vec![b, a]);
    }

    #[test]
    fn drain_recovers_stranded_holdback() {
        let f = faults(FaultPlan::none().with_reorder(1.0), 5);
        let a = env(b"stranded");
        assert!(f
            .apply(Party::Su(0), Party::Sdc, a.clone(), &|_| true)
            .is_empty());
        let held = f.drain_held();
        assert_eq!(held, vec![((Party::Su(0), Party::Sdc), a)]);
    }

    #[test]
    fn corruption_flips_exactly_one_payload_bit() {
        let f = faults(FaultPlan::none().with_corrupt(1.0), 6);
        let frame = env(&[0u8; 8]);
        let out = f.apply(Party::Su(0), Party::Sdc, frame.clone(), &|_| true);
        assert_eq!(out.len(), 1);
        let header_same = out[0][..ENVELOPE_HEADER_BYTES] == frame[..ENVELOPE_HEADER_BYTES];
        assert!(header_same, "corruption must not touch the header");
        let flipped: u32 = out[0][ENVELOPE_HEADER_BYTES..]
            .iter()
            .map(|b| b.count_ones())
            .sum();
        assert_eq!(flipped, 1);
        assert_eq!(f.metrics.fault_totals().corrupted, 1);
    }

    #[test]
    fn unparseable_corruption_is_absorbed() {
        let f = faults(FaultPlan::none().with_corrupt(1.0), 7);
        let out = f.apply(Party::Su(0), Party::Sdc, env(&[0u8; 8]), &|_| false);
        assert!(out.is_empty());
        assert_eq!(f.metrics.fault_totals().corrupt_dropped, 1);
    }

    #[test]
    fn same_seed_same_decisions() {
        let run = |seed: u64| {
            let f = faults(FaultPlan::uniform(0.3), seed);
            (0..64)
                .map(|i| {
                    f.apply(Party::Su(0), Party::Sdc, env(&[i]), &|_| true)
                        .len()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(0xabc), run(0xabc));
        assert_ne!(run(0xabc), run(0xdef));
    }
}
