//! The worker fan-out behind the per-entry request phases.
//!
//! Eqs. (11)–(17) act on each channel × block entry on its own, so the
//! SDC sign test and the STP key conversion split their entries across
//! scoped workers. Each entry draws its randomness from its index, not
//! from the worker it lands on, so a phase's output is byte-identical
//! for any worker count.

use crate::error::PisaError;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Derives the RNG for one matrix entry from a single base draw
/// (splitmix64 over `base` and the flat entry index), so the entry gets
/// the same randomness whichever worker runs it.
pub(crate) fn entry_rng(base: u64, index: usize) -> rand::rngs::StdRng {
    let mut z = base ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    rand::rngs::StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Maps the fallible `f` over `items` on at most `workers` scoped
/// threads, keeping entry order. Entry `i` always receives index `i`,
/// whichever chunk it lands in. A single chunk runs inline on the
/// caller's thread, so the one-worker path spawns no thread and its
/// spans nest under the caller's. Each chunk stops at its first error.
///
/// # Errors
///
/// The first error `f` returns, in entry order, or
/// [`PisaError::EngineFailure`] carrying `what` if `f` panics. Every
/// worker is joined first, so no panic unwinds past this call.
///
/// # Panics
///
/// Panics if `workers == 0`.
pub(crate) fn par_map<T: Sync, U: Send>(
    items: &[T],
    workers: usize,
    what: &'static str,
    f: impl Fn(usize, &T) -> Result<U, PisaError> + Sync,
) -> Result<Vec<U>, PisaError> {
    assert!(workers > 0, "need at least one worker");
    let chunk_len = items.len().div_ceil(workers).max(1);
    let run = |chunk_no: usize, chunk: &[T]| -> Result<Vec<U>, PisaError> {
        chunk
            .iter()
            .enumerate()
            .map(|(k, item)| f(chunk_no * chunk_len + k, item))
            .collect()
    };
    if items.len() <= chunk_len {
        return catch_unwind(AssertUnwindSafe(|| run(0, items)))
            .unwrap_or(Err(PisaError::EngineFailure(what)));
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .enumerate()
            .map(|(chunk_no, chunk)| {
                let run = &run;
                scope.spawn(move || run(chunk_no, chunk))
            })
            .collect();
        // Join every handle before reporting a dead worker so the scope
        // never re-raises a swallowed panic.
        let mut out = Vec::with_capacity(items.len());
        let mut first_err = None;
        let mut worker_died = false;
        for handle in handles {
            match handle.join() {
                Ok(Ok(part)) => out.extend(part),
                Ok(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                Err(_) => worker_died = true,
            }
        }
        if worker_died {
            return Err(PisaError::EngineFailure(what));
        }
        first_err.map_or(Ok(out), Err)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// What each entry computes: its own value, its index, and one draw
    /// from its index-derived RNG.
    fn tag(base: u64) -> impl Fn(usize, &u32) -> Result<(u32, usize, u64), PisaError> + Sync {
        move |idx, &v| Ok((v, idx, entry_rng(base, idx).next_u64()))
    }

    #[test]
    fn order_and_randomness_do_not_depend_on_the_worker_count() {
        let items: Vec<u32> = (100..113).collect();
        let one = par_map(&items, 1, "test", tag(7)).unwrap();
        assert_eq!(
            one.iter().map(|&(v, idx, _)| (v, idx)).collect::<Vec<_>>(),
            items.iter().copied().zip(0..).collect::<Vec<_>>()
        );
        for workers in [2usize, 8, items.len() + 5] {
            assert_eq!(
                par_map(&items, workers, "test", tag(7)).unwrap(),
                one,
                "workers = {workers}"
            );
        }
        // A different base draw gives every entry different randomness.
        let other = par_map(&items, 2, "test", tag(8)).unwrap();
        assert!(one.iter().zip(&other).all(|(a, b)| a.2 != b.2));
    }

    #[test]
    fn empty_input_maps_to_nothing() {
        for workers in [1usize, 2, 8] {
            assert!(par_map(&[] as &[u32], workers, "test", tag(7))
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn a_panicking_entry_is_an_engine_failure() {
        let items: Vec<u32> = (0..16).collect();
        for workers in [1usize, 2, 8] {
            let result = par_map(&items, workers, "entry panicked", |idx, &v| {
                assert!(idx != 11, "entry {idx} refuses");
                Ok(v)
            });
            assert_eq!(
                result.unwrap_err(),
                PisaError::EngineFailure("entry panicked"),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn an_entry_error_stops_its_chunk_and_is_returned() {
        let items: Vec<u32> = (0..16).collect();
        for workers in [1usize, 2, 8] {
            let calls = AtomicUsize::new(0);
            let result = par_map(&items, workers, "test", |idx, &v| {
                calls.fetch_add(1, Ordering::Relaxed);
                if idx == 5 || idx == 11 {
                    return Err(PisaError::BadRegion {
                        region_blocks: idx,
                        blocks: 0,
                    });
                }
                Ok(v)
            });
            // The first failing entry in entry order wins.
            assert_eq!(
                result.unwrap_err(),
                PisaError::BadRegion {
                    region_blocks: 5,
                    blocks: 0
                },
                "workers = {workers}"
            );
            if workers == 1 {
                assert_eq!(calls.into_inner(), 6, "one worker stops at entry 5");
            }
        }
    }

    #[test]
    fn one_worker_runs_on_the_callers_thread() {
        let on_thread = |_: usize, _: &u8| Ok(std::thread::current().id());
        let caller = std::thread::current().id();
        let ids = par_map(&[1u8, 2, 3], 1, "test", on_thread).unwrap();
        assert!(ids.iter().all(|&id| id == caller));
        let ids = par_map(&[1u8, 2, 3], 3, "test", on_thread).unwrap();
        assert!(ids.iter().all(|&id| id != caller));
    }
}
