//! The protocol by direct, sequential calls: PU retunes made durable
//! at the SDC, then one SU request through both phases, every step
//! timed from outside and every decision checked against the plaintext
//! WATCH engine.
//!
//! `churn_1024` runs these rounds as its workload; the traced runs of
//! the service workloads run a few of them at 384 bits as their layer
//! probe.

use crate::schedule::SplitMix;
use pisa::durable::{self, Checkpoint, SDC_CHECKPOINT_FILE, SECTION_SDC_SNAPSHOT};
use pisa::{PisaMessage, PuClient, SdcServer, SessionMsg, StpServer, SuClient, SuId, SystemConfig};
use pisa_bigint::modular::mont_mul_count;
use pisa_obs::OpTotals;
use pisa_radio::tv::Channel;
use pisa_radio::BlockId;
use pisa_watch::{IntMatrix, PuInput, SuRequest, WatchSdc};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Instant;

/// A step's wall time and the Montgomery multiplications it ran on the
/// calling thread (every direct call here is sequential).
#[derive(Debug, Clone, Copy, Default)]
pub struct Step {
    pub ms: f64,
    pub mont_muls: u64,
}

fn step<T>(f: impl FnOnce() -> T) -> (T, Step) {
    let muls = mont_mul_count();
    let t = Instant::now();
    let out = f();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    (
        out,
        Step {
            ms,
            mont_muls: mont_mul_count() - muls,
        },
    )
}

/// One PU retune, from the PU's encryption to the durable checkpoint.
#[derive(Debug, Clone, Copy, Default)]
pub struct PuUpdate {
    pub encrypt: Step,
    pub matrix_update: Step,
    pub snapshot: Step,
    pub write: Step,
    pub total_ms: f64,
    pub checkpoint_bytes: usize,
}

/// One SU request, phase by phase.
#[derive(Debug, Clone, Default)]
pub struct Request {
    pub su_prep: Step,
    pub sign_test: Step,
    pub key_conversion: Step,
    pub release: Step,
    pub verify: Step,
    pub total_ms: f64,
    /// Crypto-op counter deltas over the request (zero unless the
    /// observability layer is enabled).
    pub ops: OpTotals,
    /// The request's four protocol messages, in flight order, as the
    /// session layer frames them.
    pub frames: Vec<(&'static str, SessionMsg)>,
}

impl Request {
    pub fn phases(&self) -> [(&'static str, Step); 5] {
        [
            ("su_prep", self.su_prep),
            ("sign_test", self.sign_test),
            ("key_conversion", self.key_conversion),
            ("release", self.release),
            ("verify", self.verify),
        ]
    }
}

/// A small deployment driven by direct calls.
pub struct Direct {
    cfg: SystemConfig,
    stp: StpServer,
    sdc: SdcServer,
    e: IntMatrix,
    pus: Vec<PuClient>,
    sus: Vec<SuClient>,
    mirror: WatchSdc,
    rng: StdRng,
    inputs: SplitMix,
    state_dir: PathBuf,
    generation: u64,
    round: usize,
}

impl Direct {
    /// Generates the keys and places `pus` PUs and `sus` SUs on the
    /// grid, all from `seed`; every PU starts tuned and durable.
    pub fn new(cfg: SystemConfig, seed: u64, pus: usize, sus: usize, state_dir: PathBuf) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inputs = SplitMix::new(seed ^ 0xc4u64);
        let mut stp = StpServer::new(&mut rng, cfg.paillier_bits());
        let sdc = SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc.bench", &mut rng);
        let e = sdc.e_matrix().clone();
        let blocks = cfg.blocks() as u64;
        let pus = (0..pus)
            .map(|i| PuClient::new(i as u64, BlockId(inputs.below(blocks) as usize)))
            .collect();
        let sus = (0..sus)
            .map(|i| {
                let block = BlockId(inputs.below(blocks) as usize);
                let su = SuClient::new(SuId(i as u32), block, &cfg, &mut rng);
                stp.register_su(su.id(), su.public_key().clone());
                su
            })
            .collect();
        let mirror = WatchSdc::new(cfg.watch().clone());
        let mut direct = Direct {
            cfg,
            stp,
            sdc,
            e,
            pus,
            sus,
            mirror,
            rng,
            inputs,
            state_dir,
            generation: 0,
            round: 0,
        };
        for i in 0..direct.pus.len() {
            direct.retune(i);
        }
        direct
    }

    /// Retunes PU `i` to a seeded channel (or off) and makes the update
    /// durable, as `serve-sdc --state-dir` checkpoints its state.
    pub fn retune(&mut self, i: usize) -> PuUpdate {
        let channels = self.cfg.channels() as u64;
        let pick = self.inputs.below(channels + 1);
        let channel = (pick < channels).then_some(Channel(pick as usize));
        let t = Instant::now();
        let Direct {
            cfg,
            stp,
            sdc,
            e,
            pus,
            rng,
            ..
        } = self;
        let pu = &mut pus[i];
        let (msg, encrypt) = step(|| pu.tune(channel, cfg, e, stp.public_key(), rng));
        let ((), matrix_update) = step(|| {
            sdc.handle_pu_update(pu.id(), msg)
                .expect("well-formed PU update")
        });
        let (snap, snapshot) = step(|| sdc.snapshot().expect("SDC snapshot"));
        let checkpoint_bytes = snap.len();
        let mut ckpt = Checkpoint::new(self.generation);
        ckpt.push_section(SECTION_SDC_SNAPSHOT, snap);
        let (_, write) = step(|| {
            durable::write_atomic(&self.state_dir, SDC_CHECKPOINT_FILE, &ckpt)
                .expect("checkpoint write")
        });
        self.generation += 1;
        let total_ms = t.elapsed().as_secs_f64() * 1e3;
        let pu = &self.pus[i];
        self.mirror.pu_update(
            pu.id(),
            match channel {
                Some(c) => PuInput::tuned(self.cfg.watch(), pu.block(), c),
                None => PuInput::off(pu.block()),
            },
        );
        PuUpdate {
            encrypt,
            matrix_update,
            snapshot,
            write,
            total_ms,
            checkpoint_bytes,
        }
    }

    /// Runs one SU request end to end. Returns its timings and whether
    /// the encrypted decision matched the plaintext WATCH decision.
    pub fn request(&mut self) -> (Request, bool) {
        let channels = self.cfg.channels() as u64;
        let j = self.round % self.sus.len();
        self.round += 1;
        let channel = Channel(self.inputs.below(channels) as usize);
        let Direct {
            cfg,
            stp,
            sdc,
            sus,
            rng,
            ..
        } = self;
        let su = &mut sus[j];
        let ops0 = pisa_obs::counters();
        let t = Instant::now();
        let (msg, su_prep) = step(|| su.build_request(cfg, stp.public_key(), &[channel], rng));
        let (query, sign_test) = step(|| {
            sdc.process_request_phase1(&msg, rng)
                .expect("phase 1 of a well-formed request")
        });
        let ((reply, _), key_conversion) =
            step(|| stp.key_convert(&query, rng).expect("key conversion"));
        let su_pk = stp.su_key(su.id()).expect("registered SU").clone();
        let (response, release) = step(|| {
            sdc.process_request_phase2(&reply, &su_pk, rng)
                .expect("phase 2 of a well-formed reply")
        });
        let (granted, verify) = step(|| su.handle_response(&response, sdc.signing_public_key()));
        let total_ms = t.elapsed().as_secs_f64() * 1e3;
        let ops = pisa_obs::counters().delta_since(&ops0);
        let expected = self
            .mirror
            .process_request(&SuRequest::full_power(
                self.cfg.watch(),
                su.block(),
                &[channel],
            ))
            .is_granted();
        let session = u64::from(su.id().0);
        let frame = |msg| SessionMsg {
            session,
            attempt: 0,
            msg,
        };
        let frames = vec![
            ("request", frame(PisaMessage::SuRequest(msg))),
            ("query", frame(PisaMessage::SdcToStp(query))),
            ("reply", frame(PisaMessage::StpToSdc(reply))),
            ("response", frame(PisaMessage::SdcResponse(response))),
        ];
        (
            Request {
                su_prep,
                sign_test,
                key_conversion,
                release,
                verify,
                total_ms,
                ops,
                frames,
            },
            granted == expected,
        )
    }

    pub fn pu_count(&self) -> usize {
        self.pus.len()
    }
}

impl Drop for Direct {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}
