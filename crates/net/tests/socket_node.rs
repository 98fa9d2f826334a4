//! Loopback tests of [`SocketNode`], the transport the three-process
//! deployment runs on: delivery order, routing errors, receive
//! timeouts, concurrent senders, byte accounting, and the outbound
//! fault pipeline as a receiving node observes it over a real TCP
//! connection.

use pisa_net::codec::{CodecError, Writer};
use pisa_net::{
    FaultConfig, FaultPlan, FrameCodec, NetMetrics, Party, SocketConfig, SocketError, SocketEvent,
    SocketFaults, SocketNode,
};
use std::sync::Arc;
use std::time::Duration;

/// Long enough for any loopback frame on a loaded machine.
const WAIT: Duration = Duration::from_secs(10);

/// Opaque test payload: every byte string decodes, so a corrupted
/// frame is always delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Blob(Vec<u8>);

impl FrameCodec for Blob {
    fn encode_frame(&self) -> Result<bytes::Bytes, CodecError> {
        let mut w = Writer::with_capacity(self.0.len());
        w.put_raw(&self.0);
        Ok(w.finish())
    }

    fn decode_frame(frame: &[u8]) -> Result<Self, CodecError> {
        Ok(Blob(frame.to_vec()))
    }
}

/// A payload whose only valid encoding is all zero bytes, so any bit
/// flip makes it unparseable.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Zeros(usize);

impl FrameCodec for Zeros {
    fn encode_frame(&self) -> Result<bytes::Bytes, CodecError> {
        let mut w = Writer::with_capacity(self.0);
        w.put_raw(&vec![0; self.0]);
        Ok(w.finish())
    }

    fn decode_frame(frame: &[u8]) -> Result<Self, CodecError> {
        if frame.iter().all(|&b| b == 0) {
            Ok(Zeros(frame.len()))
        } else {
            Err(CodecError::Invalid("non-zero byte".into()))
        }
    }
}

/// A bound server node for `party` and a client node for `client`
/// that dials it, each with its own metrics. `faults` (if any) sit on
/// the client's outbound traffic.
fn pair<M: FrameCodec + Send + 'static>(
    party: Party,
    client: Party,
    faults: Option<FaultConfig>,
) -> (SocketNode<M>, SocketNode<M>) {
    let server = SocketNode::new(party, SocketConfig::default(), NetMetrics::new(), None);
    let addr = server.bind("127.0.0.1:0").expect("bind").to_string();
    let metrics = NetMetrics::new();
    let faults = faults.map(|cfg| Arc::new(SocketFaults::new(cfg, metrics.clone())));
    let client = SocketNode::new(client, SocketConfig::default(), metrics, faults);
    client.add_peer(party, addr);
    (server, client)
}

fn faulty(seed: u64, plan: FaultPlan) -> Option<FaultConfig> {
    Some(FaultConfig::new(seed).with_default_plan(plan))
}

fn recv_frame<M: FrameCodec + Send + 'static>(node: &SocketNode<M>) -> pisa_net::Envelope<M> {
    match node.recv_timeout(WAIT) {
        Some(SocketEvent::Frame(env)) => env,
        Some(SocketEvent::Shutdown(from)) => panic!("unexpected shutdown from {from}"),
        None => panic!("{node:?} received nothing"),
    }
}

/// Every data payload `node` receives before the shutdown frame that
/// `client` sends last. Control frames bypass the fault pipeline and
/// share the connection, so the shutdown arrives after every data frame
/// the pipeline let through.
fn drain_until_shutdown(node: &SocketNode<Blob>, client: &SocketNode<Blob>) -> Vec<Vec<u8>> {
    client.send_shutdown(node.party()).expect("shutdown");
    let mut seen = Vec::new();
    loop {
        match node.recv_timeout(WAIT) {
            Some(SocketEvent::Frame(env)) => seen.push(env.payload.0),
            Some(SocketEvent::Shutdown(_)) => return seen,
            None => panic!("{node:?} never saw the shutdown sentinel"),
        }
    }
}

fn stop(nodes: &[&SocketNode<Blob>]) {
    for node in nodes {
        node.stop();
    }
}

#[test]
fn send_recv_roundtrip_for_pooled_parties() {
    // One client process hosts two SUs over one dialed connection; the
    // server replies to each over its learned route.
    let (sdc, client) = pair::<Blob>(Party::Sdc, Party::Su(0), None);
    for su in [0, 1] {
        client
            .send_from(Party::Su(su), Party::Sdc, &Blob(vec![su as u8]))
            .expect("send");
    }
    for su in [0u32, 1] {
        let env = recv_frame(&sdc);
        assert_eq!((env.from, env.to), (Party::Su(su), Party::Sdc));
        assert_eq!(env.payload, Blob(vec![su as u8]));
    }
    for su in [1u32, 0] {
        sdc.send_from(Party::Sdc, Party::Su(su), &Blob(vec![0xa0 + su as u8]))
            .expect("reply over the learned route");
    }
    for su in [1u32, 0] {
        let env = recv_frame(&client);
        assert_eq!((env.from, env.to), (Party::Sdc, Party::Su(su)));
        assert_eq!(env.payload, Blob(vec![0xa0 + su as u8]));
    }
    stop(&[&sdc, &client]);
}

#[test]
fn in_order_delivery() {
    let (sdc, pu) = pair::<Blob>(Party::Sdc, Party::Pu(0), None);
    for i in 0..100u8 {
        pu.send_from(Party::Pu(0), Party::Sdc, &Blob(vec![i]))
            .expect("send");
    }
    for i in 0..100u8 {
        assert_eq!(recv_frame(&sdc).payload, Blob(vec![i]));
    }
    assert!(sdc.recv_timeout(Duration::from_millis(20)).is_none());
    stop(&[&sdc, &pu]);
}

#[test]
fn unknown_recipient_is_error() {
    let node: SocketNode<Blob> =
        SocketNode::new(Party::Sdc, SocketConfig::default(), NetMetrics::new(), None);
    let err = node
        .send_from(Party::Sdc, Party::Su(9), &Blob(vec![1]))
        .unwrap_err();
    assert!(matches!(err, SocketError::NoRoute(Party::Su(9))), "{err:?}");
    assert_eq!(node.metrics().total_messages(), 0);
}

#[test]
fn stopped_node_refuses_to_dial() {
    let (stp, sdc) = pair::<Blob>(Party::Stp, Party::Sdc, None);
    sdc.stop();
    let err = sdc
        .send_from(Party::Sdc, Party::Stp, &Blob(vec![1]))
        .unwrap_err();
    assert!(matches!(err, SocketError::Stopped), "{err:?}");
    assert!(sdc.stopping());
    stop(&[&stp]);
}

#[test]
fn recv_timeout_behaviour() {
    let (stp, sdc) = pair::<Blob>(Party::Stp, Party::Sdc, None);
    assert!(stp.recv_timeout(Duration::from_millis(5)).is_none());
    sdc.send_from(Party::Sdc, Party::Stp, &Blob(vec![9]))
        .expect("send");
    assert_eq!(recv_frame(&stp).payload, Blob(vec![9]));
    stop(&[&stp, &sdc]);
}

#[test]
fn cross_thread_delivery() {
    // Clones of one node share its connection; concurrent writers must
    // never interleave bytes inside a frame, and each sender's frames
    // keep their order.
    const THREADS: u8 = 4;
    const PER_THREAD: u8 = 25;
    let (sdc, client) = pair::<Blob>(Party::Sdc, Party::Su(0), None);
    // Open the connection first so no thread races the dial.
    client
        .send_from(Party::Su(0), Party::Sdc, &Blob(vec![0xff]))
        .expect("warm-up send");
    assert_eq!(recv_frame(&sdc).payload, Blob(vec![0xff]));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let node = client.clone();
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    node.send_from(Party::Su(u32::from(t)), Party::Sdc, &Blob(vec![t, i, 7, 7]))
                        .expect("send");
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("sender thread");
    }
    let mut next = [0u8; THREADS as usize];
    for _ in 0..u32::from(THREADS) * u32::from(PER_THREAD) {
        let env = recv_frame(&sdc);
        let [t, i, 7, 7] = env.payload.0[..] else {
            panic!("torn frame {:?}", env.payload);
        };
        assert_eq!(env.from, Party::Su(u32::from(t)));
        assert_eq!(i, next[usize::from(t)], "thread {t} out of order");
        next[usize::from(t)] += 1;
    }
    assert!(next.iter().all(|&n| n == PER_THREAD));
    stop(&[&sdc, &client]);
}

#[test]
fn metrics_accumulate() {
    let (sdc, su) = pair::<Blob>(Party::Sdc, Party::Su(0), None);
    su.send_from(Party::Su(0), Party::Sdc, &Blob(vec![0; 100]))
        .expect("send");
    su.send_from(Party::Su(0), Party::Sdc, &Blob(vec![0; 28]))
        .expect("send");
    recv_frame(&sdc);
    recv_frame(&sdc);
    // Payload bytes only, counted once on each end.
    for metrics in [su.metrics(), sdc.metrics()] {
        assert_eq!(metrics.total_bytes(), 128);
        assert_eq!(metrics.total_messages(), 2);
        let link = metrics.link(Party::Su(0), Party::Sdc).expect("link");
        assert_eq!((link.bytes, link.messages), (128, 2));
    }
    stop(&[&sdc, &su]);
}

#[test]
fn faulty_node_drops_and_counts() {
    let (sdc, su) = pair::<Blob>(
        Party::Sdc,
        Party::Su(0),
        faulty(0xfa11, FaultPlan::none().with_drop(1.0)),
    );
    for _ in 0..5 {
        su.send_from(Party::Su(0), Party::Sdc, &Blob(vec![1, 2, 3]))
            .expect("a dropped send is not an error");
    }
    let faults = su
        .metrics()
        .link_faults(Party::Su(0), Party::Sdc)
        .expect("faults recorded");
    assert_eq!(faults.dropped, 5);
    // Dropped frames are never written, so no bytes accrue and no
    // connection is even dialed.
    assert_eq!(su.metrics().total_bytes(), 0);
    assert!(sdc.recv_timeout(Duration::from_millis(50)).is_none());
    stop(&[&sdc, &su]);
}

#[test]
fn faulty_node_duplicates() {
    let (sdc, su) = pair::<Blob>(
        Party::Sdc,
        Party::Su(0),
        faulty(1, FaultPlan::none().with_duplicate(1.0)),
    );
    su.send_from(Party::Su(0), Party::Sdc, &Blob(vec![7]))
        .expect("send");
    assert_eq!(drain_until_shutdown(&sdc, &su), vec![vec![7], vec![7]]);
    assert_eq!(su.metrics().fault_totals().duplicated, 1);
    assert_eq!(su.metrics().total_messages(), 2);
    stop(&[&sdc, &su]);
}

#[test]
fn faulty_node_reorders_adjacent_messages() {
    let (sdc, su) = pair::<Blob>(
        Party::Sdc,
        Party::Su(0),
        faulty(2, FaultPlan::none().with_reorder(1.0)),
    );
    su.send_from(Party::Su(0), Party::Sdc, &Blob(vec![1]))
        .expect("send");
    su.send_from(Party::Su(0), Party::Sdc, &Blob(vec![2]))
        .expect("send");
    // The first frame was held back; the second releases it after itself.
    assert_eq!(drain_until_shutdown(&sdc, &su), vec![vec![2], vec![1]]);
    assert_eq!(su.metrics().fault_totals().reordered, 1);
    stop(&[&sdc, &su]);
}

#[test]
fn corruption_oracle_mangles_payload() {
    // The node's corruption oracle is the message codec: a flipped
    // payload that still decodes is delivered wrong-but-well-formed.
    let (sdc, su) = pair::<Blob>(
        Party::Sdc,
        Party::Su(0),
        faulty(5, FaultPlan::none().with_corrupt(1.0)),
    );
    su.send_from(Party::Su(0), Party::Sdc, &Blob(vec![0; 4]))
        .expect("send");
    let seen = drain_until_shutdown(&sdc, &su);
    assert_eq!(seen.len(), 1);
    assert_eq!(seen[0].len(), 4);
    assert_eq!(seen[0].iter().map(|b| b.count_ones()).sum::<u32>(), 1);
    assert_eq!(su.metrics().fault_totals().corrupted, 1);
    stop(&[&sdc, &su]);
}

#[test]
fn corruption_without_a_parse_absorbs_frame() {
    let (sdc, su) = pair::<Zeros>(
        Party::Sdc,
        Party::Su(0),
        faulty(4, FaultPlan::none().with_corrupt(1.0)),
    );
    su.send_from(Party::Su(0), Party::Sdc, &Zeros(3))
        .expect("an absorbed send is not an error");
    assert_eq!(su.metrics().fault_totals().corrupt_dropped, 1);
    assert_eq!(su.metrics().total_bytes(), 0);
    su.send_shutdown(Party::Sdc).expect("shutdown");
    assert!(matches!(
        sdc.recv_timeout(WAIT),
        Some(SocketEvent::Shutdown(Party::Su(0)))
    ));
    sdc.stop();
    su.stop();
}

#[test]
fn same_seed_same_fault_pattern() {
    let run = |seed: u64| {
        let (sdc, su) = pair::<Blob>(
            Party::Sdc,
            Party::Su(0),
            faulty(seed, FaultPlan::uniform(0.3)),
        );
        for i in 0..50u8 {
            su.send_from(Party::Su(0), Party::Sdc, &Blob(vec![i]))
                .expect("send");
        }
        let seen = drain_until_shutdown(&sdc, &su);
        let totals = su.metrics().fault_totals();
        stop(&[&sdc, &su]);
        (seen, totals)
    };
    let a = run(0xcafe);
    assert!(a.1.total() > 0, "a 30% plan must fire");
    assert_eq!(a, run(0xcafe));
    assert_ne!(a.0, run(0xbeef).0);
}
