//! The networked deployment: the STP and SDC services on their own
//! threads over loopback TCP, driven by one load-generator thread that
//! multiplexes prebuilt SU session engines over one socket node.

use crate::report::{cpu_seconds, nproc};
use crate::stats::MISS;
use pisa::{
    storm_fixture, NetStormOpts, SdcServer, SdcService, SessionMsg, StpServer, StpService,
    SuAction, SuEvent, SuSessionEngine, SuSessionParams,
};
use pisa_net::{NetMetrics, Party, SocketEvent, SocketNode};
use pisa_sim::model::ModelOracle;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How sessions are offered to the deployment.
#[derive(Debug, Clone)]
pub enum Load {
    /// Open loop: session `i` is due at `arrivals[i]` seconds into the
    /// window, whether or not earlier sessions have finished.
    Open { arrivals: Vec<f64> },
    /// Closed loop: `k` sessions always outstanding; each decision
    /// starts the next session until `seconds` have passed.
    Closed { k: usize, seconds: f64 },
}

/// A running three-party deployment with its sessions prebuilt.
pub struct Deployment {
    stp_thread: Option<JoinHandle<StpServer>>,
    sdc_thread: Option<JoinHandle<SdcServer>>,
    sdc_node: SocketNode<SessionMsg>,
    stp_node: SocketNode<SessionMsg>,
    node: SocketNode<SessionMsg>,
    engines: Vec<Option<SuSessionEngine>>,
    expected: Vec<bool>,
}

/// What one measured window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Per attempted session: due time to verified decision (ms), or
    /// [`MISS`] if it never decided.
    pub latency_ms: Vec<f64>,
    /// Per started session: how late the generator started it (ms).
    pub lateness_ms: Vec<f64>,
    /// Requests sent per decided session.
    pub attempts: Vec<u32>,
    pub decided: usize,
    pub failed: usize,
    pub mismatches: Vec<String>,
    /// Window start to the last decision (s).
    pub span_s: f64,
    /// Process CPU seconds used during the window.
    pub cpu_s: f64,
    last_finish: Option<Instant>,
}

struct Active {
    engine: SuSessionEngine,
    due: Instant,
    deadline: Instant,
}

impl Deployment {
    /// Starts the STP and SDC exactly as `serve-stp` / `serve-sdc` do
    /// (`NetStormOpts::new` defaults, the 4 ch × 25 bl 384-bit storm
    /// fixture sized for `sessions` SUs) and prebuilds every SU
    /// session's encrypted request on every available processor.
    pub fn start(sessions: u32, seed: u64) -> Deployment {
        let opts = NetStormOpts::new(sessions, seed);
        let stp = StpService::bind(&opts, "127.0.0.1:0").expect("bind STP");
        let stp_addr = stp.local_addr().expect("STP address").to_string();
        let stp_node = stp.handle();
        let stp_thread = std::thread::spawn(move || stp.run());
        let sdc = SdcService::bind(&opts, "127.0.0.1:0", &stp_addr).expect("bind SDC");
        let sdc_addr = sdc.local_addr().expect("SDC address").to_string();
        let sdc_node = sdc.handle();
        let sdc_thread = std::thread::spawn(move || sdc.run());

        let node: SocketNode<SessionMsg> =
            SocketNode::new(Party::Su(0), opts.socket.clone(), NetMetrics::new(), None);
        node.add_peer(Party::Sdc, sdc_addr);

        let fixture = storm_fixture(sessions, seed).expect("storm fixture");
        let cfg = fixture.sdc.config().clone();
        let pk_g = fixture.stp.public_key().clone();
        let signing = fixture.sdc.signing_public_key().clone();
        let metrics = node.metrics().clone();
        let params = SuSessionParams {
            cfg: &cfg,
            pk_g: &pk_g,
            signing: &signing,
            corrupt_possible: false,
            engine: &opts.engine,
            metrics: &metrics,
        };
        // SU prep, outside every timed window: the same per-SU RNG
        // streams `run_su_storm` uses.
        let mut sus: Vec<_> = fixture.sus.into_iter().map(Some).collect();
        let chunk = sus.len().div_ceil(nproc() as usize).max(1);
        let mut engines: Vec<Option<SuSessionEngine>> = Vec::with_capacity(sus.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = sus
                .chunks_mut(chunk)
                .map(|part| {
                    let params = &params;
                    scope.spawn(move || {
                        part.iter_mut()
                            .filter_map(Option::take)
                            .map(|(su, channels)| {
                                let i = u64::from(su.id().0);
                                let mut rng = StdRng::seed_from_u64(seed ^ (0x50 + i));
                                Some(SuSessionEngine::new(su, &channels, params, &mut rng))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                engines.extend(h.join().expect("prebuild thread"));
            }
        });
        let mut oracle = ModelOracle::new(cfg.watch());
        let expected = (0..sessions).map(|i| oracle.su_decision(i)).collect();
        Deployment {
            stp_thread: Some(stp_thread),
            sdc_thread: Some(sdc_thread),
            sdc_node,
            stp_node,
            node,
            engines,
            expected,
        }
    }

    /// The loadgen-side (SU) network counters.
    pub fn su_metrics(&self) -> &NetMetrics {
        self.node.metrics()
    }

    /// The SDC's network counters (it sees every link but STP→SU).
    pub fn sdc_metrics(&self) -> &NetMetrics {
        self.sdc_node.metrics()
    }

    /// The STP's network counters.
    pub fn stp_metrics(&self) -> &NetMetrics {
        self.stp_node.metrics()
    }

    /// Drives `load` against the deployment and collects every session.
    pub fn run(&mut self, load: &Load) -> Window {
        let mut w = Window::default();
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let mut pending: VecDeque<Instant> = match load {
            Load::Open { arrivals } => arrivals
                .iter()
                .map(|&s| t0 + Duration::from_secs_f64(s))
                .collect(),
            Load::Closed { k, .. } => std::iter::repeat_n(t0, *k).collect(),
        };
        let window_end = match load {
            Load::Open { .. } => None,
            Load::Closed { seconds, .. } => Some(t0 + Duration::from_secs_f64(*seconds)),
        };
        let mut next = 0usize;
        let mut active: HashMap<u32, Active> = HashMap::new();
        loop {
            let now = Instant::now();
            while pending.front().is_some_and(|&due| due <= now) && next < self.engines.len() {
                let due = pending.pop_front().expect("checked non-empty");
                let Some(engine) = self.engines.get_mut(next).and_then(Option::take) else {
                    break;
                };
                next += 1;
                w.lateness_ms
                    .push(now.duration_since(due).as_secs_f64() * 1e3);
                let id = engine.su_id().0;
                let action = engine.start();
                active.insert(
                    id,
                    Active {
                        engine,
                        due,
                        deadline: now,
                    },
                );
                self.apply(&mut w, &mut active, &mut pending, window_end, id, action);
            }
            if next >= self.engines.len() {
                pending.clear();
            }
            let expired: Vec<u32> = active
                .iter()
                .filter(|(_, a)| a.deadline <= now)
                .map(|(&id, _)| id)
                .collect();
            for id in expired {
                if let Some(a) = active.get_mut(&id) {
                    let action = a.engine.on_event(SuEvent::Timeout);
                    self.apply(&mut w, &mut active, &mut pending, window_end, id, action);
                }
            }
            if pending.is_empty() && active.is_empty() {
                break;
            }
            let wake = active
                .values()
                .map(|a| a.deadline)
                .chain(pending.front().copied())
                .min()
                .unwrap_or(now);
            let wait = wake
                .saturating_duration_since(Instant::now())
                .min(Duration::from_millis(50));
            if let Some(SocketEvent::Frame(env)) = self.node.recv_timeout(wait) {
                if let Party::Su(id) = env.to {
                    if let Some(a) = active.get_mut(&id) {
                        let action = a.engine.on_event(SuEvent::Frame(env.payload));
                        self.apply(&mut w, &mut active, &mut pending, window_end, id, action);
                    }
                }
            }
        }
        w.span_s = w.last_finish.unwrap_or(t0).duration_since(t0).as_secs_f64();
        w.cpu_s = cpu_seconds() - cpu0;
        w
    }

    fn apply(
        &self,
        w: &mut Window,
        active: &mut HashMap<u32, Active>,
        pending: &mut VecDeque<Instant>,
        window_end: Option<Instant>,
        id: u32,
        action: SuAction,
    ) {
        let now = Instant::now();
        match action {
            SuAction::Continue { sends, deadline } => {
                for frame in sends {
                    // A failed write is a lost frame; the deadline turns
                    // it into a retry.
                    let _ = self.node.send_from(Party::Su(id), Party::Sdc, &frame);
                }
                if let Some(a) = active.get_mut(&id) {
                    a.deadline = now + deadline;
                }
            }
            SuAction::Finish(outcome) => {
                let Some(a) = active.remove(&id) else {
                    return;
                };
                w.last_finish = Some(now);
                match outcome.granted {
                    Some(granted) => {
                        w.decided += 1;
                        w.attempts.push(outcome.attempts);
                        w.latency_ms
                            .push(now.duration_since(a.due).as_secs_f64() * 1e3);
                        let want = self.expected.get(id as usize).copied();
                        if want != Some(granted) {
                            w.mismatches.push(format!(
                                "SU {id} decided {granted}, WATCH oracle says {want:?}"
                            ));
                        }
                    }
                    None => {
                        w.failed += 1;
                        w.latency_ms.push(MISS);
                    }
                }
                if window_end.is_some_and(|end| now < end) {
                    pending.push_back(now);
                }
            }
        }
    }
}

impl Drop for Deployment {
    /// Shuts the deployment down (in-band shutdown cascading SDC → STP,
    /// then every node stopped) and waits for both service threads.
    fn drop(&mut self) {
        let _ = self.node.send_shutdown(Party::Sdc);
        self.node.stop();
        self.sdc_node.stop();
        self.stp_node.stop();
        // A service that panicked has already left its sessions
        // undecided, which the window counts as failures.
        if let Some(Err(_)) = self.sdc_thread.take().map(JoinHandle::join) {
            eprintln!("pisabench: the SDC service thread panicked");
        }
        if let Some(Err(_)) = self.stp_thread.take().map(JoinHandle::join) {
            eprintln!("pisabench: the STP service thread panicked");
        }
    }
}
