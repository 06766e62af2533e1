//! Adversarial transport tests: a real `run_node` instance is attacked
//! over a live TCP connection by a raw-socket peer that speaks the wire
//! format but misbehaves — tampered payloads, wrong-key MACs, replayed
//! envelopes. Every attack must be rejected, surfaced as a traced
//! `fault_drop`, and never reach the protocol.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use aa_trace::EventKind;
use net::{frame, pair_key, FrameKind, HelloBody, NodeConfig, WireCodec, WrapperMsg, WIRE_VERSION};
use sim_net::Envelope;

const SECRET: u64 = 0x5eed_5eed_5eed_5eed;
const CONFIG_FP: u64 = 0xfeed_beef_cafe_f00d;

/// A minimal protocol: records every delivered value, outputs the first.
struct Sink {
    got: Vec<u64>,
}

impl async_net::AsyncProtocol for Sink {
    type Msg = u64;
    type Output = Vec<u64>;

    fn on_start(&mut self, _ctx: &mut async_net::AsyncCtx<u64>) {}

    fn on_message(&mut self, env: Envelope<u64>, _ctx: &mut async_net::AsyncCtx<u64>) {
        self.got.push(env.payload);
    }

    fn output(&self) -> Option<Vec<u64>> {
        if self.got.is_empty() {
            None
        } else {
            Some(self.got.clone())
        }
    }
}

/// The raw adversary peer: party 1 of 2, driving node 0 by hand.
struct RawPeer {
    stream: TcpStream,
    wire_seq: u64,
}

impl RawPeer {
    /// Dials `addr` and completes the mutual Hello exchange.
    fn connect(addr: std::net::SocketAddr) -> Self {
        let mut peer = RawPeer {
            stream: TcpStream::connect(addr).expect("dial node"),
            wire_seq: 0,
        };
        peer.stream.set_nodelay(true).ok();
        peer.stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let hello = HelloBody {
            config_fp: CONFIG_FP,
            version: WIRE_VERSION,
            have_prefix: 0,
            have_extras: Vec::new(),
        };
        let msg = peer.envelope(FrameKind::Hello, 0, 0.0, 0.0, hello.to_bytes());
        peer.send_raw(&msg.encode());
        let resp = peer.read_frame();
        let resp = WrapperMsg::decode(&resp).expect("node hello");
        assert_eq!(resp.kind, FrameKind::Hello);
        assert!(
            resp.verify(pair_key(SECRET, 0, 1)),
            "node hello must be MACed"
        );
        peer
    }

    /// A fresh, correctly signed envelope from party 1 to party 0.
    fn envelope(
        &mut self,
        kind: FrameKind,
        lseq: u64,
        vsend: f64,
        vdeliver: f64,
        body: Vec<u8>,
    ) -> WrapperMsg {
        let wire_seq = self.wire_seq;
        self.wire_seq += 1;
        WrapperMsg {
            kind,
            from: 1,
            to: 0,
            wire_seq,
            lseq,
            vsend,
            vdeliver,
            body,
            mac: 0,
        }
        .signed(pair_key(SECRET, 1, 0))
    }

    fn send_raw(&mut self, payload: &[u8]) {
        self.stream.write_all(&frame(payload)).expect("send frame");
    }

    fn read_frame(&mut self) -> Vec<u8> {
        let mut prefix = [0u8; 4];
        self.stream.read_exact(&mut prefix).expect("frame prefix");
        let len = u32::from_be_bytes(prefix) as usize;
        let mut payload = vec![0u8; len];
        self.stream.read_exact(&mut payload).expect("frame body");
        payload
    }
}

#[test]
fn tampered_wrong_key_and_replayed_frames_are_rejected_never_delivered() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let cfg = NodeConfig::new(0, 2, 0, vec![addr, addr], SECRET, CONFIG_FP, 7);

    let node =
        thread::spawn(move || net::run_node(&cfg, listener, Sink { got: Vec::new() }, || {}));

    let mut peer = RawPeer::connect(addr);

    // 1. A valid message: must be delivered.
    let good = peer.envelope(FrameKind::Data, 0, 1.0, 1.2, 42u64.to_bytes());
    let good_bytes = good.encode();
    peer.send_raw(&good_bytes);

    // 2. Tampered payload: signed, then one body byte flipped.
    let mut tampered = peer
        .envelope(FrameKind::Data, 1, 1.1, 1.3, 1337u64.to_bytes())
        .encode();
    let last = tampered.len() - 1;
    tampered[last] ^= 0x01;
    peer.send_raw(&tampered);

    // 3. Wrong pairwise key (valid SipHash, wrong secret).
    let wrong_key = WrapperMsg {
        kind: FrameKind::Data,
        from: 1,
        to: 0,
        wire_seq: peer.wire_seq,
        lseq: 2,
        vsend: 1.2,
        vdeliver: 1.4,
        body: 99u64.to_bytes(),
        mac: 0,
    }
    .signed(pair_key(SECRET ^ 1, 1, 0));
    peer.wire_seq += 1;
    peer.send_raw(&wrong_key.encode());

    // 4. Replay of the valid envelope: identical bytes, stale wire_seq.
    peer.send_raw(&good_bytes);

    // Wait for the node's Done (it outputs on the first delivery), then
    // answer with ours so it can terminate.
    loop {
        let f = peer.read_frame();
        let msg = WrapperMsg::decode(&f).expect("node frame");
        if msg.kind == FrameKind::Done {
            break;
        }
    }
    let done = peer.envelope(FrameKind::Done, 0, 50.0, 50.0, Vec::new());
    peer.send_raw(&done.encode());
    // A v2 peer also acknowledges the node's Done; without the ack (or a
    // hang-up) the node keeps re-announcing instead of terminating.
    let ack = peer.envelope(FrameKind::DoneAck, 0, 50.0, 50.0, Vec::new());
    peer.send_raw(&ack.encode());

    let report = node.join().expect("node thread").expect("node run");

    // Only the valid value was ever delivered — exactly once.
    assert_eq!(report.output, Some(vec![42]));

    // Every attack was counted under the right reason.
    assert_eq!(report.stats.rejected_mac, 2, "tampered + wrong-key");
    assert_eq!(report.stats.rejected_replay, 1, "replayed envelope");
    assert_eq!(report.stats.rejected_malformed, 0);

    // And surfaced as traced fault_drop events, one per attack.
    let drops = report
        .trace
        .to_trace()
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::FaultDrop { from: 1, to: 0 }))
        .count();
    assert_eq!(drops, 3, "each rejected frame must be traced");
}

#[test]
fn mismatched_config_fingerprint_is_refused_at_handshake() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let cfg = NodeConfig::new(0, 2, 0, vec![addr, addr], SECRET, CONFIG_FP, 7);

    let node = thread::spawn(move || {
        let mut cfg = cfg;
        // Keep the run short: this node will never hear a valid peer.
        cfg.handshake_timeout = Duration::from_millis(600);
        net::run_node(&cfg, listener, Sink { got: Vec::new() }, || {})
    });

    // A peer launched with a different execution fingerprint (other
    // tree, inputs, or seed) must be refused instead of diverging.
    let mut stream = TcpStream::connect(addr).expect("dial");
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let hello = HelloBody {
        config_fp: CONFIG_FP ^ 0xff,
        version: WIRE_VERSION,
        have_prefix: 0,
        have_extras: Vec::new(),
    };
    let msg = WrapperMsg {
        kind: FrameKind::Hello,
        from: 1,
        to: 0,
        wire_seq: 0,
        lseq: 0,
        vsend: 0.0,
        vdeliver: 0.0,
        body: hello.to_bytes(),
        mac: 0,
    }
    .signed(pair_key(SECRET, 1, 0));
    stream.write_all(&frame(&msg.encode())).unwrap();

    // The node answers the authenticated Hello with its own, so the peer
    // can name the mismatch too, then closes: nothing else follows.
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).expect("node hello prefix");
    let mut payload = vec![0u8; u32::from_be_bytes(prefix) as usize];
    stream.read_exact(&mut payload).expect("node hello");
    let answer = WrapperMsg::decode(&payload).expect("node hello");
    assert_eq!(
        (answer.kind, answer.from, answer.to),
        (FrameKind::Hello, 0, 1)
    );
    assert!(
        answer.verify(pair_key(SECRET, 0, 1)),
        "node hello must be MACed"
    );
    let body = HelloBody::from_bytes(&answer.body).expect("hello body");
    assert_eq!(body.config_fp, CONFIG_FP);
    let mut buf = [0u8; 1];
    let got = stream.read(&mut buf);
    assert!(
        matches!(got, Ok(0)) || got.is_err(),
        "node kept a mismatched-fingerprint connection"
    );

    // The node itself errors out of bring-up (no valid peer ever came),
    // naming the refusal.
    let err = node
        .join()
        .expect("thread")
        .expect_err("must fail bring-up");
    assert!(matches!(err, net::NetError::Handshake(_)), "got {err}");
    assert!(err.to_string().contains("runs configuration"), "got {err}");
}
